//! Monero's Merkle tree hash (`tree_hash` from the CryptoNote reference
//! code).
//!
//! Unlike Bitcoin's pad-to-power-of-two construction, Monero hashes the
//! *overhang* first: for `n` leaves it finds the largest power of two
//! `p ≤ n`, leaves the first `2p − n` hashes untouched, pairs up the rest,
//! and then reduces the resulting exactly-`p` hashes as a perfect binary
//! tree. The root commits to the Coinbase transaction as leaf 0 — the fact
//! §4.2's attribution hinges on ("we could never by accident see a Merkle
//! tree root of another miner in the PoW input").
//!
//! Because leaf 0 always passes through the overhang step untouched, the
//! root is a fold of the Coinbase hash through one sibling per level of
//! the perfect tree: [`coinbase_branch`] computes those siblings from the
//! other transactions once, and [`root_from_branch`] folds any Coinbase
//! through them — the branch Stratum pools hand to miners. A pool that
//! serves many templates over one mempool (one per backend and template
//! version) thus pays for the mempool's hashes once per tip, and
//! `⌊log2 n⌋` pair hashes per template instead of `n − 1`.

use minedig_primitives::Hash32;

fn hash_pair(a: &Hash32, b: &Hash32) -> Hash32 {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(&a.0);
    buf[32..].copy_from_slice(&b.0);
    Hash32::keccak(&buf)
}

/// Computes the Monero tree hash of the given leaf hashes.
///
/// Panics on an empty slice: every block has at least its Coinbase, so an
/// empty tree is a logic error upstream.
///
/// ```
/// use minedig_chain::merkle::tree_hash;
/// use minedig_primitives::Hash32;
///
/// let leaves = vec![Hash32::keccak(b"coinbase"), Hash32::keccak(b"tx1")];
/// let root = tree_hash(&leaves);
/// // Changing the Coinbase leaf changes the root — the property block
/// // attribution relies on.
/// let other = tree_hash(&[Hash32::keccak(b"other pool"), leaves[1]]);
/// assert_ne!(root, other);
/// ```
pub fn tree_hash(hashes: &[Hash32]) -> Hash32 {
    match hashes.len() {
        0 => panic!("tree_hash of zero transactions"),
        1 => hashes[0],
        2 => hash_pair(&hashes[0], &hashes[1]),
        n => {
            // Largest power of two <= n.
            let mut cnt = n.next_power_of_two();
            if cnt > n {
                cnt /= 2;
            }
            // First 2*cnt - n hashes pass through; the rest pair up.
            let untouched = 2 * cnt - n;
            let mut level: Vec<Hash32> = Vec::with_capacity(cnt);
            level.extend_from_slice(&hashes[..untouched]);
            let mut i = untouched;
            while i < n {
                level.push(hash_pair(&hashes[i], &hashes[i + 1]));
                i += 2;
            }
            debug_assert_eq!(level.len(), cnt);
            // Reduce the perfect tree.
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len() / 2);
                for pair in level.chunks_exact(2) {
                    next.push(hash_pair(&pair[0], &pair[1]));
                }
                level = next;
            }
            level[0]
        }
    }
}

/// Convenience: tree hash over a Coinbase hash plus other tx hashes, in
/// block order (Coinbase first).
pub fn block_tree_hash(coinbase: Hash32, tx_hashes: &[Hash32]) -> Hash32 {
    let mut leaves = Vec::with_capacity(1 + tx_hashes.len());
    leaves.push(coinbase);
    leaves.extend_from_slice(tx_hashes);
    tree_hash(&leaves)
}

/// The Merkle branch of the Coinbase (leaf 0) in the tree over a
/// Coinbase followed by `tx_hashes`: the sibling hash at each level,
/// bottom up. [`root_from_branch`] folds any Coinbase hash through it to
/// the root [`block_tree_hash`] would compute.
///
/// ```
/// use minedig_chain::merkle::{block_tree_hash, coinbase_branch, root_from_branch};
/// use minedig_primitives::Hash32;
///
/// let txs: Vec<Hash32> = (0u8..12).map(|i| Hash32::keccak(&[i])).collect();
/// let branch = coinbase_branch(&txs);
/// assert_eq!(branch.len(), 3); // 13 leaves: a perfect tree of 8 after the overhang
/// let coinbase = Hash32::keccak(b"coinbase");
/// assert_eq!(root_from_branch(coinbase, &branch), block_tree_hash(coinbase, &txs));
/// ```
pub fn coinbase_branch(tx_hashes: &[Hash32]) -> Vec<Hash32> {
    let n = 1 + tx_hashes.len();
    // Largest power of two <= n; the first 2*cnt - n leaves (the
    // Coinbase among them) pass through, the rest pair up.
    let cnt = 1usize << n.ilog2();
    let untouched = 2 * cnt - n;
    // `level[0]` is the Coinbase's slot, unknown here; every other node
    // of each level is computed, and `level[1]` is the sibling.
    let mut level: Vec<Hash32> = Vec::with_capacity(cnt);
    level.push(Hash32::ZERO);
    level.extend_from_slice(&tx_hashes[..untouched - 1]);
    for pair in tx_hashes[untouched - 1..].chunks_exact(2) {
        level.push(hash_pair(&pair[0], &pair[1]));
    }
    debug_assert_eq!(level.len(), cnt);
    let mut branch = Vec::with_capacity(cnt.trailing_zeros() as usize);
    while level.len() > 1 {
        branch.push(level[1]);
        let mut next = Vec::with_capacity(level.len() / 2);
        next.push(Hash32::ZERO);
        for pair in level[2..].chunks_exact(2) {
            next.push(hash_pair(&pair[0], &pair[1]));
        }
        level = next;
    }
    branch
}

/// Folds a Coinbase hash through its [`coinbase_branch`] to the tree
/// root: one pair hash per branch entry.
pub fn root_from_branch(coinbase: Hash32, branch: &[Hash32]) -> Hash32 {
    branch
        .iter()
        .fold(coinbase, |node, sibling| hash_pair(&node, sibling))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaf(i: u64) -> Hash32 {
        Hash32::keccak(&i.to_le_bytes())
    }

    fn leaves(n: usize) -> Vec<Hash32> {
        (0..n as u64).map(leaf).collect()
    }

    #[test]
    fn single_leaf_is_identity() {
        let l = leaf(0);
        assert_eq!(tree_hash(&[l]), l);
    }

    #[test]
    fn two_leaves_hash_pair() {
        let (a, b) = (leaf(0), leaf(1));
        let mut buf = [0u8; 64];
        buf[..32].copy_from_slice(&a.0);
        buf[32..].copy_from_slice(&b.0);
        assert_eq!(tree_hash(&[a, b]), Hash32::keccak(&buf));
    }

    #[test]
    fn three_leaves_overhang_structure() {
        // n=3: p=2, untouched=1 -> level = [h0, H(h1,h2)], root = H(h0, H(h1,h2)).
        let ls = leaves(3);
        let inner = tree_hash(&[ls[1], ls[2]]);
        assert_eq!(tree_hash(&ls), tree_hash(&[ls[0], inner]));
    }

    #[test]
    fn five_leaves_overhang_structure() {
        // n=5: p=4, untouched=3 -> [h0,h1,h2,H(h3,h4)] then perfect tree.
        let ls = leaves(5);
        let h34 = tree_hash(&[ls[3], ls[4]]);
        let expect = tree_hash(&[tree_hash(&[ls[0], ls[1]]), tree_hash(&[ls[2], h34])]);
        assert_eq!(tree_hash(&ls), expect);
    }

    #[test]
    #[should_panic(expected = "zero transactions")]
    fn empty_panics() {
        let _ = tree_hash(&[]);
    }

    #[test]
    fn root_depends_on_every_leaf() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33] {
            let base = leaves(n);
            let root = tree_hash(&base);
            for i in 0..n {
                let mut tampered = base.clone();
                tampered[i] = leaf(1000 + i as u64);
                assert_ne!(tree_hash(&tampered), root, "n={n} leaf={i}");
            }
        }
    }

    #[test]
    fn root_depends_on_order() {
        let mut ls = leaves(6);
        let root = tree_hash(&ls);
        ls.swap(0, 5);
        assert_ne!(tree_hash(&ls), root);
    }

    #[test]
    fn block_tree_hash_puts_coinbase_first() {
        let cb = leaf(99);
        let txs = leaves(3);
        let mut all = vec![cb];
        all.extend_from_slice(&txs);
        assert_eq!(block_tree_hash(cb, &txs), tree_hash(&all));
    }

    #[test]
    fn branch_root_equals_tree_hash_at_the_edges() {
        // n counts the Coinbase: 1 and 2 leaves, every power of two and
        // its neighbours up to 257 leaves, where the overhang changes
        // shape.
        let mut sizes = vec![1usize, 2];
        for k in 1..=8 {
            let p = 1usize << k;
            sizes.extend([p - 1, p, p + 1]);
        }
        for n in sizes {
            let txs = leaves(n - 1);
            let cb = leaf(1_000_000 + n as u64);
            let branch = coinbase_branch(&txs);
            assert_eq!(branch.len(), n.ilog2() as usize, "n={n}");
            assert_eq!(
                root_from_branch(cb, &branch),
                block_tree_hash(cb, &txs),
                "n={n}"
            );
        }
    }

    proptest! {
        #[test]
        fn coinbase_change_always_changes_root(n in 1usize..40, salt in any::<u64>()) {
            let mut ls = leaves(n);
            let root = tree_hash(&ls);
            ls[0] = leaf(salt.wrapping_add(1_000_000));
            prop_assume!(ls[0] != leaf(0));
            prop_assert_ne!(tree_hash(&ls), root);
        }

        #[test]
        fn branch_root_equals_tree_hash(n in 0usize..=300, salt in any::<u64>()) {
            let txs: Vec<Hash32> = (0..n as u64).map(|i| leaf(i.wrapping_add(salt))).collect();
            let cb = leaf(salt ^ 0xC0FF_EE00);
            prop_assert_eq!(
                root_from_branch(cb, &coinbase_branch(&txs)),
                block_tree_hash(cb, &txs)
            );
        }

        #[test]
        fn deterministic(n in 1usize..64) {
            let ls = leaves(n);
            prop_assert_eq!(tree_hash(&ls), tree_hash(&ls));
        }
    }
}
