//! Crash-safe campaign snapshots.
//!
//! Long campaigns (the 138 M-domain crawl, the 1.7 M-ID short-link
//! enumeration, the 4-week §4.2 poll) must survive process death
//! without losing progress. This module defines the on-disk snapshot
//! format every campaign checkpoints through.
//!
//! A [`Snapshot`] on its own is encoded in the v1 framing:
//!
//! ```text
//! +--------+---------+--------------+-------------+---------+----------+
//! | magic  | version | progress_key | payload_len | payload | sha-256  |
//! | 6 B    | varint  | varint       | varint      | bytes   | 32 B     |
//! +--------+---------+--------------+-------------+---------+----------+
//! ```
//!
//! The checksum covers every preceding byte, so truncation, bit rot
//! and partially-applied writes are all rejected at load time.
//!
//! A [`SnapshotStore`] keeps each snapshot name as a series of
//! *generations*, one file each. A generation is a **base** — a whole
//! snapshot in the v1 framing, written to a temp file in the same
//! directory and `rename`d into place — followed by appended
//! **records**, each carrying only what changed since the previous
//! commit:
//!
//! ```text
//! generation file: base | record | record | …
//!
//! record:
//! +----------+-----------+--------------+----------+-----------+---------+
//! | body_len | !body_len | progress_key | keep_len | new bytes | sha-256 |
//! | u64 LE   | u64 LE    | varint       | varint   |           | 32 B    |
//! +----------+-----------+--------------+----------+-----------+---------+
//!                        |<------------ body (body_len B) ---->|
//! ```
//!
//! Replaying a record keeps the first `keep_len` bytes of the previous
//! payload and appends the new bytes. The length is guarded by its bit
//! complement, so a flipped length field is caught before it can be
//! mistaken for a short file. The record's SHA-256 covers the previous
//! link in the chain (the base's trailer, or the previous record's
//! digest), both length words and the body, so records cannot be
//! reordered, dropped from the middle, or spliced in from another
//! generation.
//!
//! Three rules make the format crash-safe and keep its cost
//! proportional to new work:
//!
//! * **Torn tail.** A final record that runs past the end of the file
//!   is an append the process did not finish: it was never committed.
//!   `load` drops it and returns the previous commit; the next `save`
//!   truncates it before appending. A *complete* record whose length
//!   guard or checksum fails is damage and an error, never a silent
//!   fallback to older progress.
//! * **New base.** `save` cuts a new generation instead of appending
//!   when the bytes appended since the base would reach the payload's
//!   size (a record would cost as much as a rewrite), when the progress
//!   key goes backwards (a fresh restart over a stale snapshot), or when
//!   the file is not the length this store last left it (another writer
//!   or a restore from elsewhere). There is no knob.
//! * **Retention.** `keep` counts generations: after a new base is
//!   renamed into place, all but the newest `keep` generation files of
//!   the name are deleted ([`CKPT_KEEP_ENV`] sets `keep`). The newest is
//!   the live snapshot; older ones hold the progress of their last
//!   record, for an operator to fall back to by hand.
//!
//! The payload is campaign-defined and encoded with [`SnapWriter`] /
//! decoded with [`SnapReader`] (varint integers, length-prefixed byte
//! strings) — the same primitives the Wasm decoder uses, so there is no
//! serialization dependency. A campaign whose payload grows at its end
//! (an append-ordered event stream, counters last) gets records the
//! size of its new events; one that rewrites its payload from the front
//! pays a rewrite, as it always did.
//!
//! The determinism contract: a campaign's snapshot captures *all* the
//! state its remaining items can observe (accumulated outcome, stats,
//! cursors, connection flags). Because every per-item result in this
//! workspace is a pure function of stable identity (domain name, link
//! code, `(endpoint, now)`), restoring a snapshot and re-running the
//! suffix — on any executor backend — reproduces the uninterrupted
//! run bit for bit.

use crate::sha256::Sha256;
use crate::varint::{write_varint, ByteReader, VarintError};
use crate::Hash32;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Leading bytes of every snapshot file.
pub const MAGIC: &[u8; 6] = b"MDCKPT";

/// Current snapshot format version.
pub const FORMAT_VERSION: u64 = 1;

/// Why a snapshot could not be saved, loaded, or applied.
#[derive(Debug)]
pub enum CkptError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not one this build understands.
    UnsupportedVersion(u64),
    /// The file ended before the declared content did.
    Truncated,
    /// The SHA-256 trailer does not match the content.
    ChecksumMismatch,
    /// The payload decoded to something structurally invalid.
    Corrupt(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "snapshot io error: {e}"),
            CkptError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            CkptError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CkptError::Truncated => write!(f, "snapshot truncated"),
            CkptError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            CkptError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

impl From<VarintError> for CkptError {
    fn from(e: VarintError) -> CkptError {
        match e {
            VarintError::UnexpectedEof => CkptError::Truncated,
            VarintError::Overflow => CkptError::Corrupt("varint overflow"),
        }
    }
}

/// One versioned, checksummed campaign snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Format version the payload was written under.
    pub version: u64,
    /// Monotone progress marker (items completed) at snapshot time —
    /// readable without decoding the payload.
    pub progress_key: u64,
    /// Campaign-defined state, opaque to the store.
    pub payload: Vec<u8>,
}

impl Snapshot {
    /// Wraps a payload at the current [`FORMAT_VERSION`].
    pub fn new(progress_key: u64, payload: Vec<u8>) -> Snapshot {
        Snapshot {
            version: FORMAT_VERSION,
            progress_key,
            payload,
        }
    }

    /// Serializes the snapshot: magic, header varints, payload, then a
    /// SHA-256 trailer over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 64);
        out.extend_from_slice(MAGIC);
        write_varint(&mut out, self.version);
        write_varint(&mut out, self.progress_key);
        write_varint(&mut out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
        let digest = Hash32::sha256(&out);
        out.extend_from_slice(&digest.0);
        out
    }

    /// Parses and verifies a serialized snapshot, rejecting bad magic,
    /// unknown versions, truncation, checksum mismatches and trailing
    /// bytes.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        let (snap, used) = Snapshot::decode_prefix(bytes)?;
        if used != bytes.len() {
            return Err(CkptError::Corrupt("trailing bytes after snapshot"));
        }
        Ok(snap)
    }

    /// Parses and verifies the snapshot at the start of `bytes` (a
    /// generation's base), returning it with the number of bytes it
    /// spans. A base that runs past the end of `bytes` is truncated:
    /// bases are committed by `rename`, so they are never torn.
    fn decode_prefix(bytes: &[u8]) -> Result<(Snapshot, usize), CkptError> {
        if bytes.len() < MAGIC.len() {
            return Err(CkptError::Truncated);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let mut r = ByteReader::new(&bytes[MAGIC.len()..]);
        let version = r.read_varint()?;
        let progress_key = r.read_varint()?;
        let len = r.read_varint()?;
        let start = MAGIC.len() + r.position();
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| start.checked_add(len))
            .filter(|&end| end + 32 <= bytes.len())
            .ok_or(CkptError::Truncated)?;
        if Hash32::sha256(&bytes[..end]).0 != bytes[end..end + 32] {
            return Err(CkptError::ChecksumMismatch);
        }
        if version != FORMAT_VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        let snap = Snapshot {
            version,
            progress_key,
            payload: bytes[start..end].to_vec(),
        };
        Ok((snap, end + 32))
    }
}

/// Bytes of a record's two length words.
const RECORD_HEADER: usize = 16;

/// Bytes of a record's SHA-256 trailer.
const RECORD_TRAILER: usize = 32;

/// Encodes the record that keeps `keep` bytes of the previous payload
/// and appends `new`, at `progress_key`, chained to `link`. The
/// record's last 32 bytes are its digest: the next record's link.
fn encode_record(link: &[u8; 32], progress_key: u64, keep: usize, new: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(RECORD_HEADER + 20 + new.len() + RECORD_TRAILER);
    record.resize(RECORD_HEADER, 0);
    write_varint(&mut record, progress_key);
    write_varint(&mut record, keep as u64);
    record.extend_from_slice(new);
    let len = (record.len() - RECORD_HEADER) as u64;
    record[..8].copy_from_slice(&len.to_le_bytes());
    record[8..RECORD_HEADER].copy_from_slice(&(!len).to_le_bytes());
    let digest = record_digest(link, &record);
    record.extend_from_slice(&digest);
    record
}

/// The chained checksum of a record's header and body.
fn record_digest(link: &[u8; 32], header_and_body: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(link);
    h.update(header_and_body);
    h.finalize()
}

/// Bytes `write_varint` spends on `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Length of the common prefix of `a` and `b`, compared 4 KiB at a
/// time so the usual case — a long equal prefix — runs at `memcmp`
/// speed.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const STEP: usize = 4096;
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + STEP <= n && a[i..i + STEP] == b[i..i + STEP] {
        i += STEP;
    }
    i + a[i..n]
        .iter()
        .zip(&b[i..n])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Bytes per block of a [`Blocks`].
const BLOCK: usize = 64 * 1024;

/// A byte string kept in fixed-size blocks, all full but the last. The
/// store keeps each name's last payload this way: a payload that grows
/// save after save then never asks the allocator for one large
/// contiguous region, so it fits in the heap's free space instead of
/// moving to a new, larger region on every growth and leaving the old
/// one behind.
#[derive(Default)]
struct Blocks {
    blocks: Vec<Vec<u8>>,
}

impl Blocks {
    fn from_slice(bytes: &[u8]) -> Blocks {
        let mut b = Blocks::default();
        b.extend(bytes);
        b
    }

    /// Length of the common prefix of these bytes and `other`.
    fn common_prefix(&self, other: &[u8]) -> usize {
        let mut done = 0;
        for block in &self.blocks {
            let n = common_prefix(block, &other[done..]);
            done += n;
            if n < block.len() {
                break;
            }
        }
        done
    }

    /// Keeps the first `len` bytes (at most the current length).
    fn truncate(&mut self, len: usize) {
        self.blocks.truncate(len.div_ceil(BLOCK));
        if let Some(last) = self.blocks.last_mut() {
            last.truncate(len - (len - 1) / BLOCK * BLOCK);
        }
    }

    fn extend(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.blocks.last().is_none_or(|b| b.len() == BLOCK) {
                self.blocks.push(Vec::with_capacity(BLOCK));
            }
            let last = self.blocks.last_mut().expect("a block with room");
            let n = (BLOCK - last.len()).min(bytes.len());
            last.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
    }
}

/// Environment variable overriding how many generations per name a
/// [`SnapshotStore`] retains (default [`DEFAULT_KEEP`]).
pub const CKPT_KEEP_ENV: &str = "MINEDIG_CKPT_KEEP";

/// Generations retained per name when [`CKPT_KEEP_ENV`] is unset.
pub const DEFAULT_KEEP: usize = 2;

/// A directory of named snapshots, each kept as a bounded series of
/// append-only generations (see the [module docs](self) for the format
/// and its rules).
///
/// Each generation is one `{name}.{seq}.{progress_key}.ckpt` file: the
/// write-sequence number `seq` orders generations, and the progress key
/// is the base's, readable from the filename without decoding. Files
/// written before records existed are generations without records, so
/// they load unchanged and later saves append to them. Pre-retention
/// single-file snapshots (`{name}.ckpt`) still load and are superseded
/// (and removed) by the first new base.
///
/// The store remembers, per name, the generation it last committed to
/// or loaded: its length, chain link and payload. That memory is what
/// lets `save` append only the bytes that changed, so it belongs to
/// this instance — a second store over the same directory starts a new
/// base on its first save instead of appending behind the first
/// store's back.
pub struct SnapshotStore {
    dir: PathBuf,
    keep: usize,
    live: Mutex<HashMap<String, LiveGeneration>>,
}

/// What a store knows about the generation it last committed to or
/// loaded for one name.
struct LiveGeneration {
    path: PathBuf,
    /// The file length this store last left or found (past
    /// `committed` when a torn append was found).
    file_len: u64,
    /// End of the last committed record.
    committed: u64,
    /// Record bytes committed after the base.
    appended: u64,
    /// Digest the next record chains to.
    link: [u8; 32],
    /// The last committed snapshot's progress key and payload.
    progress_key: u64,
    payload: Blocks,
}

impl LiveGeneration {
    /// Reads the base of the generation file `path` (holding `bytes`)
    /// and replays its records, returning the generation and its last
    /// committed snapshot. A final record that runs past the end of the
    /// file is a torn append and is dropped; any complete record that
    /// fails its guard or checksum is an error.
    fn replay(path: PathBuf, bytes: &[u8]) -> Result<(LiveGeneration, Snapshot), CkptError> {
        let (mut snap, base_len) = Snapshot::decode_prefix(bytes)?;
        let mut link = [0u8; 32];
        link.copy_from_slice(&bytes[base_len - 32..base_len]);
        let mut pos = base_len;
        while bytes.len() - pos >= RECORD_HEADER {
            let word =
                |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"));
            let len = word(pos);
            if word(pos + 8) != !len {
                return Err(CkptError::Corrupt("record length guard mismatch"));
            }
            let rest = (bytes.len() - pos - RECORD_HEADER) as u64;
            if len.saturating_add(RECORD_TRAILER as u64) > rest {
                break; // torn append: never committed
            }
            let end = pos + RECORD_HEADER + len as usize;
            if record_digest(&link, &bytes[pos..end]) != bytes[end..end + RECORD_TRAILER] {
                return Err(CkptError::ChecksumMismatch);
            }
            let mut r = ByteReader::new(&bytes[pos + RECORD_HEADER..end]);
            snap.progress_key = r.read_varint()?;
            let keep = usize::try_from(r.read_varint()?)
                .ok()
                .filter(|&keep| keep <= snap.payload.len())
                .ok_or(CkptError::Corrupt(
                    "record keeps more than the payload holds",
                ))?;
            snap.payload.truncate(keep);
            snap.payload
                .extend_from_slice(&bytes[end - r.remaining()..end]);
            link.copy_from_slice(&bytes[end..end + RECORD_TRAILER]);
            pos = end + RECORD_TRAILER;
        }
        let live = LiveGeneration {
            path,
            file_len: bytes.len() as u64,
            committed: pos as u64,
            appended: (pos - base_len) as u64,
            link,
            progress_key: snap.progress_key,
            payload: Blocks::from_slice(&snap.payload),
        };
        Ok((live, snap))
    }

    /// Appends the record that turns the last commit into `snap`,
    /// returning its size — or `None` when the new-base rule says a
    /// base must be cut instead (the caller then writes one).
    fn append(&mut self, snap: &Snapshot) -> Result<Option<u64>, CkptError> {
        if snap.version != FORMAT_VERSION || snap.progress_key < self.progress_key {
            return Ok(None);
        }
        let keep = self.payload.common_prefix(&snap.payload);
        let new = &snap.payload[keep..];
        // Sized before it is encoded, so a payload rewritten from the
        // front is not hashed twice (once as a record, once as a base).
        let record_len = RECORD_HEADER
            + varint_len(snap.progress_key)
            + varint_len(keep as u64)
            + new.len()
            + RECORD_TRAILER;
        if self.appended + record_len as u64 >= snap.payload.len() as u64 {
            return Ok(None);
        }
        let mut file = match fs::OpenOptions::new().write(true).open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CkptError::Io(e)),
        };
        if file.metadata()?.len() != self.file_len {
            return Ok(None);
        }
        let record = encode_record(&self.link, snap.progress_key, keep, new);
        if self.file_len > self.committed {
            file.set_len(self.committed)?; // drop a torn append
        }
        file.seek(SeekFrom::Start(self.committed))?;
        file.write_all(&record)?;
        debug_assert_eq!(record.len(), record_len);
        let len = record.len() as u64;
        self.committed += len;
        self.file_len = self.committed;
        self.appended += len;
        self.link
            .copy_from_slice(&record[record.len() - RECORD_TRAILER..]);
        self.progress_key = snap.progress_key;
        self.payload.truncate(keep);
        self.payload.extend(new);
        Ok(Some(len))
    }
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory, with the
    /// retention depth taken from [`CKPT_KEEP_ENV`] when that parses to
    /// a positive count.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapshotStore, CkptError> {
        let keep = std::env::var(CKPT_KEEP_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_KEEP);
        SnapshotStore::open_with_keep(dir, keep)
    }

    /// Opens a snapshot directory retaining the last `keep` generations
    /// per name (clamped to at least 1).
    pub fn open_with_keep(
        dir: impl Into<PathBuf>,
        keep: usize,
    ) -> Result<SnapshotStore, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore {
            dir,
            keep: keep.max(1),
            live: Mutex::new(HashMap::new()),
        })
    }

    /// Generations retained per name.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Path of the legacy (pre-retention) snapshot file for `name`.
    fn legacy_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ckpt"))
    }

    /// All on-disk generations of `name` as `(seq, progress_key, path)`,
    /// ascending by write sequence.
    fn versions(&self, name: &str) -> Result<Vec<(u64, u64, PathBuf)>, CkptError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let fname = entry.file_name();
            let Some(fname) = fname.to_str() else {
                continue;
            };
            let Some(body) = fname
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix('.'))
                .and_then(|r| r.strip_suffix(".ckpt"))
            else {
                continue;
            };
            let mut parts = body.splitn(2, '.');
            let (Some(seq), Some(key)) = (parts.next(), parts.next()) else {
                continue;
            };
            let (Ok(seq), Ok(key)) = (seq.parse::<u64>(), key.parse::<u64>()) else {
                continue;
            };
            out.push((seq, key, entry.path()));
        }
        out.sort();
        Ok(out)
    }

    /// Path of the newest generation of `name` (the file `load` would
    /// read and `save` append to), falling back to the legacy
    /// single-file path when no generation exists.
    pub fn path(&self, name: &str) -> PathBuf {
        self.versions(name)
            .ok()
            .and_then(|mut v| v.pop())
            .map(|(_, _, path)| path)
            .unwrap_or_else(|| self.legacy_path(name))
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The per-name live generations. Every update takes a whole entry
    /// out or puts one in, so a panic while the lock was held leaves the
    /// map valid and the guard can be recovered.
    fn live(&self) -> std::sync::MutexGuard<'_, HashMap<String, LiveGeneration>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Commits `snap` as the newest snapshot named `name` and returns
    /// the number of bytes this save wrote.
    ///
    /// Normally that is one record appended to the live generation,
    /// holding only the bytes that differ from the last commit. When
    /// the new-base rule applies, the whole encoding is instead written
    /// to a temp file in the same directory and `rename`d into place as
    /// a new generation, so a crash mid-write leaves every previous
    /// generation intact; generations older than the retention window
    /// (and any superseded legacy file) are then deleted.
    pub fn save(&self, name: &str, snap: &Snapshot) -> Result<u64, CkptError> {
        let mut live = self.live();
        // Taken out while writing: a failed append leaves the file in a
        // state this store no longer knows, so the next save cuts a base.
        if let Some(mut generation) = live.remove(name) {
            if let Some(written) = generation.append(snap)? {
                live.insert(name.to_string(), generation);
                return Ok(written);
            }
        }
        let older = self.versions(name)?;
        let seq = older.last().map_or(1, |(seq, _, _)| seq + 1);
        let bytes = snap.encode();
        let file = format!("{name}.{seq}.{}.ckpt", snap.progress_key);
        let tmp = self.dir.join(format!(".{file}.tmp"));
        let path = self.dir.join(&file);
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, &path)?;
        // Retention: the rename succeeded, so older generations beyond
        // the window — and the superseded legacy file — can go.
        let excess = (older.len() + 1).saturating_sub(self.keep);
        for (_, _, path) in &older[..excess.min(older.len())] {
            remove_if_present(path)?;
        }
        remove_if_present(&self.legacy_path(name))?;
        if snap.version == FORMAT_VERSION {
            let mut link = [0u8; 32];
            link.copy_from_slice(&bytes[bytes.len() - 32..]);
            live.insert(
                name.to_string(),
                LiveGeneration {
                    path,
                    file_len: bytes.len() as u64,
                    committed: bytes.len() as u64,
                    appended: 0,
                    link,
                    progress_key: snap.progress_key,
                    payload: Blocks::from_slice(&snap.payload),
                },
            );
        }
        Ok(bytes.len() as u64)
    }

    /// Loads and verifies the newest snapshot of `name`: the newest
    /// generation's base with its committed records replayed (falling
    /// back to the legacy single-file layout); `Ok(None)` if none has
    /// ever been written. A torn final append is dropped — it was never
    /// committed — but damage to anything committed is an error, never
    /// a silent fallback: restoring stale progress behind the
    /// campaign's back would violate the resume contract.
    pub fn load(&self, name: &str) -> Result<Option<Snapshot>, CkptError> {
        let mut live = self.live();
        live.remove(name);
        if let Some((_, _, path)) = self.versions(name)?.pop() {
            let bytes = fs::read(&path)?;
            let (generation, snap) = LiveGeneration::replay(path, &bytes)?;
            live.insert(name.to_string(), generation);
            return Ok(Some(snap));
        }
        match fs::read(self.legacy_path(name)) {
            Ok(bytes) => Snapshot::decode(&bytes).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CkptError::Io(e)),
        }
    }

    /// Forgets what this store knows about `name`'s live generation,
    /// freeing its copy of the last payload. The next save of `name`
    /// cuts a new base instead of appending.
    pub(crate) fn forget(&self, name: &str) {
        self.live().remove(name);
    }

    /// Deletes every generation of the snapshot named `name` if present.
    pub fn remove(&self, name: &str) -> Result<(), CkptError> {
        self.live().remove(name);
        for (_, _, path) in self.versions(name)? {
            remove_if_present(&path)?;
        }
        remove_if_present(&self.legacy_path(name))
    }
}

fn remove_if_present(path: &Path) -> Result<(), CkptError> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(CkptError::Io(e)),
    }
}

/// Something whose progress can be captured in a [`Snapshot`] and
/// re-applied to a freshly-initialized instance.
///
/// `restore` takes `&mut self` on a *new* instance (rather than acting
/// as a constructor) because campaigns typically borrow long-lived
/// context — populations, signature databases, job sources — that a
/// snapshot cannot own.
pub trait Checkpointable {
    /// Monotone count of items completed; orders snapshots.
    fn progress_key(&self) -> u64;
    /// Captures all state the remaining items can observe.
    fn snapshot(&self) -> Snapshot;
    /// Re-applies `snap` to a freshly-initialized instance.
    fn restore(&mut self, snap: &Snapshot) -> Result<(), CkptError>;
}

/// Payload encoder: varint integers, length-prefixed bytes/strings.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Appends a varint.
    pub fn u64(&mut self, v: u64) {
        write_varint(&mut self.buf, v);
    }

    /// Appends a `usize` as a varint.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a float by its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a 32-byte hash verbatim.
    pub fn hash(&mut self, v: &Hash32) {
        self.buf.extend_from_slice(&v.0);
    }

    /// Appends an optional value: a presence byte, then the value.
    pub fn opt<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut SnapWriter, &T)) {
        match v {
            None => self.bool(false),
            Some(t) => {
                self.bool(true);
                f(self, t);
            }
        }
    }

    /// The bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Payload decoder mirroring [`SnapWriter`], with every read bounds-
/// checked so corrupt payloads fail loudly instead of misparsing.
pub struct SnapReader<'a> {
    inner: ByteReader<'a>,
}

impl<'a> SnapReader<'a> {
    /// Wraps a payload.
    pub fn new(payload: &'a [u8]) -> SnapReader<'a> {
        SnapReader {
            inner: ByteReader::new(payload),
        }
    }

    /// Reads a varint.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(self.inner.read_varint()?)
    }

    /// Reads a varint as a `usize`.
    // Not a container accessor: `len` decodes a length field, so the
    // `is_empty` pairing the lint wants does not apply.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.u64()?).map_err(|_| CkptError::Corrupt("length overflows usize"))
    }

    /// Reads a bool byte, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.inner.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Corrupt("invalid bool byte")),
        }
    }

    /// Reads an IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        let raw = self.inner.read_bytes(8)?;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CkptError> {
        let n = self.len()?;
        Ok(self.inner.read_bytes(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        String::from_utf8(self.bytes()?).map_err(|_| CkptError::Corrupt("invalid utf-8"))
    }

    /// Reads a 32-byte hash.
    pub fn hash(&mut self) -> Result<Hash32, CkptError> {
        Ok(Hash32::from_slice(self.inner.read_bytes(32)?))
    }

    /// Reads an optional value written by [`SnapWriter::opt`].
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut SnapReader<'a>) -> Result<T, CkptError>,
    ) -> Result<Option<T>, CkptError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Asserts the payload was fully consumed — trailing garbage means
    /// the writer and reader disagree on the schema.
    pub fn expect_end(&self) -> Result<(), CkptError> {
        if self.inner.is_empty() {
            Ok(())
        } else {
            Err(CkptError::Corrupt("trailing bytes in payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut w = SnapWriter::new();
        w.u64(42);
        w.str("hello");
        w.bool(true);
        w.hash(&Hash32::keccak(b"x"));
        w.f64(0.5);
        w.opt(Some(&7u64), |w, v| w.u64(*v));
        w.opt::<u64>(None, |w, v| w.u64(*v));
        Snapshot::new(17, w.finish())
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        let mut r = SnapReader::new(&decoded.payload);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.str().unwrap(), "hello");
        assert!(r.bool().unwrap());
        assert_eq!(r.hash().unwrap(), Hash32::keccak(b"x"));
        assert_eq!(r.f64().unwrap(), 0.5);
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(7));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        r.expect_end().unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(Snapshot::decode(&bytes), Err(CkptError::BadMagic)));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn rejects_any_single_bitflip() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(Snapshot::decode(&bad).is_err(), "bitflip at {i}");
        }
    }

    #[test]
    fn rejects_unknown_version() {
        let snap = Snapshot {
            version: FORMAT_VERSION + 1,
            progress_key: 0,
            payload: vec![],
        };
        assert!(matches!(
            Snapshot::decode(&snap.encode()),
            Err(CkptError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn store_saves_atomically_and_loads_back() {
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-test-{}", std::process::id()));
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load("missing").unwrap().is_none());
        let snap = sample();
        let bytes = store.save("camp", &snap).unwrap();
        assert_eq!(bytes, snap.encode().len() as u64);
        assert_eq!(store.load("camp").unwrap().unwrap(), snap);
        // Overwrite replaces wholesale.
        let snap2 = Snapshot::new(99, vec![1, 2, 3]);
        store.save("camp", &snap2).unwrap();
        assert_eq!(store.load("camp").unwrap().unwrap(), snap2);
        // No temp litter.
        assert!(!dir.join(".camp.ckpt.tmp").exists());
        store.remove("camp").unwrap();
        assert!(store.load("camp").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn ckpt_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".ckpt"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn retention_keeps_only_the_last_n_versions() {
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-keep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open_with_keep(&dir, 2).unwrap();
        assert_eq!(store.keep(), 2);
        for key in [10u64, 20, 30, 5, 40] {
            store
                .save("camp", &Snapshot::new(key, vec![key as u8]))
                .unwrap();
            assert!(
                ckpt_files(&dir).len() <= 2,
                "retention must prune after every save"
            );
        }
        // The newest write wins regardless of progress key ordering…
        assert_eq!(store.load("camp").unwrap().unwrap().progress_key, 40);
        // …and exactly `keep` files survive: the last two writes.
        assert_eq!(
            ckpt_files(&dir),
            vec!["camp.4.5.ckpt".to_string(), "camp.5.40.ckpt".to_string()]
        );
        store.remove("camp").unwrap();
        assert!(ckpt_files(&dir).is_empty());
        assert!(store.load("camp").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_restart_supersedes_a_stale_higher_key_snapshot() {
        // A non-resume restart begins from scratch; its first (low-key)
        // checkpoint must shadow the stale high-key one on disk, exactly
        // like the pre-retention overwrite did.
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open_with_keep(&dir, 2).unwrap();
        store.save("camp", &Snapshot::new(100, vec![1])).unwrap();
        store.save("camp", &Snapshot::new(3, vec![2])).unwrap();
        assert_eq!(store.load("camp").unwrap().unwrap().progress_key, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_single_file_snapshots_load_and_are_superseded() {
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open_with_keep(&dir, 2).unwrap();
        let old = sample();
        std::fs::write(dir.join("camp.ckpt"), old.encode()).unwrap();
        assert_eq!(store.load("camp").unwrap().unwrap(), old);
        assert_eq!(store.path("camp"), dir.join("camp.ckpt"));
        // The first versioned save replaces the legacy layout wholesale.
        let new = Snapshot::new(99, vec![9]);
        store.save("camp", &new).unwrap();
        assert!(!dir.join("camp.ckpt").exists());
        assert_eq!(store.load("camp").unwrap().unwrap(), new);
        assert_eq!(store.path("camp"), dir.join("camp.1.99.ckpt"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sibling_names_do_not_cross_prune() {
        // "camp" and "camp2" share a prefix; retention and removal for
        // one must never touch the other's files.
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-sib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open_with_keep(&dir, 1).unwrap();
        store.save("camp", &Snapshot::new(1, vec![1])).unwrap();
        store.save("camp2", &Snapshot::new(2, vec![2])).unwrap();
        store.save("camp", &Snapshot::new(3, vec![3])).unwrap();
        assert_eq!(store.load("camp2").unwrap().unwrap().progress_key, 2);
        assert_eq!(store.load("camp").unwrap().unwrap().progress_key, 3);
        store.remove("camp").unwrap();
        assert!(store.load("camp").unwrap().is_none());
        assert_eq!(store.load("camp2").unwrap().unwrap().progress_key, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A payload of `len` bytes drawn from `rng`.
    fn noise(rng: &mut crate::DetRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    /// The next payload in a random walk over the ways a campaign's
    /// payload changes between saves.
    fn next_payload(rng: &mut crate::DetRng, prev: &[u8]) -> Vec<u8> {
        let mut next = prev.to_vec();
        match rng.gen_range(5) {
            // Prefix growth: the append-ordered case records are for.
            0 | 1 => {
                let n = rng.range_usize(1, 64);
                next.extend(noise(rng, n));
            }
            // A rewritten tail, as when trailing counters change.
            2 => {
                let at = rng.range_usize(0, next.len() + 1);
                let n = rng.range_usize(0, 48);
                next.truncate(at);
                next.extend(noise(rng, n));
            }
            // Shrinking.
            3 => {
                let at = rng.range_usize(0, next.len() + 1);
                next.truncate(at);
            }
            // A repeat of the last payload.
            _ => {}
        }
        next
    }

    /// A store's generation files for `name`, oldest first.
    fn generations(dir: &Path, name: &str) -> Vec<String> {
        let mut names: Vec<String> = ckpt_files(dir)
            .into_iter()
            .filter(|n| n.starts_with(&format!("{name}.")))
            .collect();
        names.sort_by_key(|n| n.split('.').nth(1).unwrap().parse::<u64>().unwrap());
        names
    }

    #[test]
    fn random_payload_sequences_replay_to_the_last_save() {
        let dir = test_dir("replay");
        let mut rng = crate::DetRng::seed(7);
        for round in 0..6 {
            let store = SnapshotStore::open_with_keep(&dir, 2).unwrap();
            let name = format!("walk{round}");
            let len = rng.range_usize(0, 600);
            let mut payload = noise(&mut rng, len);
            let mut key = 0u64;
            let mut appends = 0;
            for step in 0..120 {
                payload = next_payload(&mut rng, &payload);
                key += rng.gen_range(3);
                let snap = Snapshot::new(key, payload.clone());
                let written = store.save(&name, &snap).unwrap();
                if written < snap.encode().len() as u64 {
                    appends += 1;
                }
                // The same store, a fresh one (another process), and the
                // raw generation file all agree on the last commit.
                if step % 7 == 0 {
                    assert_eq!(store.load(&name).unwrap().unwrap(), snap, "step {step}");
                }
                let fresh = SnapshotStore::open_with_keep(&dir, 2).unwrap();
                assert_eq!(fresh.load(&name).unwrap().unwrap(), snap, "step {step}");
            }
            assert!(appends > 30, "round {round}: only {appends} appends");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blocks_match_a_flat_buffer_across_block_boundaries() {
        let mut rng = crate::DetRng::seed(11);
        let mut flat = Vec::new();
        let mut blocks = Blocks::default();
        for step in 0..300 {
            if rng.chance(0.3) {
                let keep = rng.range_usize(0, flat.len() + 1);
                flat.truncate(keep);
                blocks.truncate(keep);
            } else {
                let n = rng.range_usize(0, BLOCK + 100);
                let bytes = noise(&mut rng, n);
                flat.extend_from_slice(&bytes);
                blocks.extend(&bytes);
            }
            assert_eq!(blocks.blocks.concat(), flat, "step {step}");
            assert!(blocks.blocks.iter().rev().skip(1).all(|b| b.len() == BLOCK));
            // A copy differing at one random byte, and a shorter one.
            let mut other = flat.clone();
            if !other.is_empty() {
                let at = rng.range_usize(0, other.len());
                other[at] ^= 1;
                assert_eq!(blocks.common_prefix(&other), at, "step {step}");
                other.truncate(at);
                assert_eq!(blocks.common_prefix(&other), at, "step {step}");
            }
            assert_eq!(blocks.common_prefix(&flat), flat.len());
        }
    }

    /// Saves three growing snapshots into one generation and returns
    /// them with the file's bytes and where the final record starts.
    fn three_commits(store: &SnapshotStore) -> (Vec<Snapshot>, Vec<u8>, usize) {
        let mut rng = crate::DetRng::seed(3);
        let mut payload = noise(&mut rng, 400);
        let mut snaps = Vec::new();
        let mut before_last = 0;
        for key in [10u64, 20, 30] {
            payload.extend(noise(&mut rng, 40));
            let snap = Snapshot::new(key, payload.clone());
            before_last = std::fs::metadata(store.path("camp")).map_or(0, |m| m.len() as usize);
            store.save("camp", &snap).unwrap();
            snaps.push(snap);
        }
        assert_eq!(generations(store.dir(), "camp").len(), 1, "one generation");
        (
            snaps,
            std::fs::read(store.path("camp")).unwrap(),
            before_last,
        )
    }

    #[test]
    fn a_torn_final_record_loads_the_previous_commit_and_is_replaced() {
        let dir = test_dir("torn");
        let store = SnapshotStore::open_with_keep(&dir, 2).unwrap();
        let (snaps, bytes, last) = three_commits(&store);
        let path = store.path("camp");
        // Shorter than most torn tails, so stale torn bytes would show
        // after it if the save did not truncate them first.
        let next = Snapshot::new(40, snaps[1].payload[..470].to_vec());
        for cut in last..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let resumed = SnapshotStore::open_with_keep(&dir, 2).unwrap();
            assert_eq!(
                resumed.load("camp").unwrap().unwrap(),
                snaps[1],
                "cut at {cut}"
            );
            // The next save truncates the torn bytes and appends one
            // clean record to the same generation.
            let written = resumed.save("camp", &next).unwrap();
            assert!(written < 100, "cut at {cut}: appended {written} bytes");
            assert_eq!(generations(&dir, "camp").len(), 1, "cut at {cut}");
            let after = std::fs::read(&path).unwrap();
            assert_eq!(after.len(), last + written as usize, "cut at {cut}");
            assert_eq!(&after[..last], &bytes[..last], "cut at {cut}");
            let fresh = SnapshotStore::open_with_keep(&dir, 2).unwrap();
            assert_eq!(fresh.load("camp").unwrap().unwrap(), next, "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_single_bitflip_in_a_multi_record_generation_is_an_error() {
        let dir = test_dir("flip");
        let store = SnapshotStore::open_with_keep(&dir, 2).unwrap();
        let (_, bytes, last) = three_commits(&store);
        let path = store.path("camp");
        // Both length words of the final record, at least, are in range.
        assert!(last + RECORD_HEADER < bytes.len());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                std::fs::write(&path, &bad).unwrap();
                let fresh = SnapshotStore::open_with_keep(&dir, 2).unwrap();
                assert!(fresh.load("camp").is_err(), "flip of bit {bit} in byte {i}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_counts_generations_and_a_lower_key_starts_one() {
        let dir = test_dir("gens");
        let store = SnapshotStore::open_with_keep(&dir, 2).unwrap();
        let payload = |n: usize| vec![7u8; n];
        // Growth at rising keys appends to one generation.
        for key in 1..=5u64 {
            store
                .save("camp", &Snapshot::new(key, payload(1_000 + key as usize)))
                .unwrap();
        }
        assert_eq!(generations(&dir, "camp"), ["camp.1.1.ckpt"]);
        // A fresh restart (lower key) starts a new generation…
        store
            .save("camp", &Snapshot::new(2, payload(1_000)))
            .unwrap();
        assert_eq!(
            generations(&dir, "camp"),
            ["camp.1.1.ckpt", "camp.2.2.ckpt"]
        );
        store
            .save("camp", &Snapshot::new(3, payload(1_010)))
            .unwrap();
        // …and the next one pushes the oldest out of the window.
        store
            .save("camp", &Snapshot::new(1, payload(1_000)))
            .unwrap();
        assert_eq!(
            generations(&dir, "camp"),
            ["camp.2.2.ckpt", "camp.3.1.ckpt"]
        );
        assert_eq!(store.load("camp").unwrap().unwrap().progress_key, 1);
        // Appended bytes reaching the payload's size cut a new base: a
        // repeated 1000-byte payload costs ~50 bytes a record.
        let mut key = 1;
        while generations(&dir, "camp").last().unwrap() == "camp.3.1.ckpt" {
            key += 1;
            assert!(key < 40, "no new base after {key} records");
            store
                .save("camp", &Snapshot::new(key, payload(1_000)))
                .unwrap();
        }
        assert!(key > 15, "new base after only {key} records");
        // A file that is not the length this store left it — here
        // another store appended — also gets a new base, not a record.
        let other = SnapshotStore::open_with_keep(&dir, 2).unwrap();
        other.load("camp").unwrap();
        other
            .save("camp", &Snapshot::new(100, payload(1_001)))
            .unwrap();
        let snap = Snapshot::new(101, payload(1_002));
        assert_eq!(
            store.save("camp", &snap).unwrap(),
            snap.encode().len() as u64
        );
        assert_eq!(generations(&dir, "camp").len(), 2);
        assert_eq!(other.load("camp").unwrap().unwrap(), snap);
        store.remove("camp").unwrap();
        assert!(generations(&dir, "camp").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_versioned_files_load_and_take_records() {
        let dir = test_dir("v1");
        let store = SnapshotStore::open_with_keep(&dir, 2).unwrap();
        let old = Snapshot::new(17, vec![5u8; 500]);
        std::fs::write(dir.join("camp.3.17.ckpt"), old.encode()).unwrap();
        assert_eq!(store.load("camp").unwrap().unwrap(), old);
        // A save after the load appends to the v1 file.
        let new = Snapshot::new(18, vec![5u8; 520]);
        assert!(store.save("camp", &new).unwrap() < 100);
        assert_eq!(generations(&dir, "camp"), ["camp.3.17.ckpt"]);
        let fresh = SnapshotStore::open_with_keep(&dir, 2).unwrap();
        assert_eq!(fresh.load("camp").unwrap().unwrap(), new);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_rejects_trailing_garbage() {
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(2);
        let payload = w.finish();
        let mut r = SnapReader::new(&payload);
        r.u64().unwrap();
        assert!(r.expect_end().is_err());
    }
}
