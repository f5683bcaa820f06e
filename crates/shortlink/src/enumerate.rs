//! The researcher-side ID-space enumeration (§4.1).
//!
//! "We visit all links and gather the Coinhive redirection HTML document
//! to collect i) the link creator's token […] as well as ii) the number
//! of hash computations required." The walk stops after a configurable
//! run of dead codes (the live space is a prefix because IDs increase).
//!
//! The paper's crawl covered 1.7 M IDs; [`enumerate_links_sharded`]
//! spreads the probing across a [`ParallelExecutor`] while reproducing
//! the sequential walk's stopping semantics *exactly*: IDs are probed in
//! fixed-size windows, each window is chunked across shards, and the
//! per-chunk dead-run summaries are folded in index order with a
//! cross-chunk carry until some chunk completes a run of
//! `dead_run_limit` consecutive dead codes. Everything probed past that
//! point is discarded, so `docs` and `probed` are identical to
//! [`enumerate_links`] for any shard count and any window size.
//!
//! Probes can also *fail* at the transport level (see
//! [`crate::probe`]). Failures are retried under a [`ProbePolicy`];
//! a probe that exhausts its retries is **neutral** to the dead-run
//! heuristic — it neither resets the run (failures in dead space must
//! not keep the walk alive forever) nor advances it (an outage must
//! not truncate the live ID space) — and is tallied in
//! [`Enumeration::failed_probes`]. The windowed-sharded walk preserves
//! bit-identical equivalence with the sequential walk under *any*
//! fault schedule, because faults are keyed by link code, not by
//! probing order.

use crate::ids::index_to_code;
use crate::probe::{probe_with_retry, LinkProber, ProbePolicy};
use crate::service::{ShortlinkService, VisitDoc};
use minedig_primitives::par::{ExecStats, ParallelExecutor, ShardedTask};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of enumerating the address space.
#[derive(Clone, Debug)]
pub struct Enumeration {
    /// Every live link's scraped document, in ID order.
    pub docs: Vec<VisitDoc>,
    /// Number of codes probed (live + dead + failed up to the stop).
    pub probed: u64,
    /// Probes that exhausted their retry budget — transport casualties,
    /// deliberately kept distinct from dead IDs.
    pub failed_probes: u64,
    /// Total retries spent recovering transient probe failures.
    pub probe_retries: u64,
}

impl Enumeration {
    /// Links per token, sorted descending (Fig 3's series).
    pub fn links_per_token(&self) -> Vec<u64> {
        let mut counts = std::collections::HashMap::new();
        for d in &self.docs {
            *counts.entry(d.token_id).or_insert(0u64) += 1;
        }
        let mut v: Vec<u64> = counts.into_values().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// All observed hash requirements (biased dataset).
    pub fn requirements_biased(&self) -> Vec<u64> {
        self.docs.iter().map(|d| d.required_hashes).collect()
    }

    /// Requirements deduplicated per `(token, count)` (unbiased dataset).
    pub fn requirements_unbiased(&self) -> Vec<u64> {
        let mut seen = std::collections::HashSet::new();
        self.docs
            .iter()
            .filter(|d| seen.insert((d.token_id, d.required_hashes)))
            .map(|d| d.required_hashes)
            .collect()
    }

    /// Token ids of the top-k creators by link count.
    pub fn top_tokens(&self, k: usize) -> Vec<u64> {
        let mut counts = std::collections::HashMap::new();
        for d in &self.docs {
            *counts.entry(d.token_id).or_insert(0u64) += 1;
        }
        let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(k).map(|(t, _)| t).collect()
    }
}

/// Walks the ID space in increasing order, stopping after
/// `dead_run_limit` consecutive dead codes.
pub fn enumerate_links(service: &ShortlinkService, dead_run_limit: u64) -> Enumeration {
    enumerate_links_with(service, dead_run_limit, &ProbePolicy::default())
}

/// [`enumerate_links`] over an arbitrary prober with retries: failed
/// probes are retried per `policy`; exhausted ones are neutral to the
/// dead run and counted in [`Enumeration::failed_probes`].
///
/// Termination note: the walk ends only when `dead_run_limit`
/// consecutive *confirmed-dead* probes accumulate, so a fault plan that
/// permanently fails every probe (fault probability 1 with permanent
/// faults) would walk forever — chaos suites keep the permanent-fault
/// rate below 1.
pub fn enumerate_links_with<P: LinkProber>(
    prober: &P,
    dead_run_limit: u64,
    policy: &ProbePolicy,
) -> Enumeration {
    let mut e = Enumeration {
        docs: Vec::new(),
        probed: 0,
        failed_probes: 0,
        probe_retries: 0,
    };
    let mut dead_run = 0u64;
    let mut index = 0u64;
    while dead_run < dead_run_limit {
        let code = index_to_code(index);
        e.probed += 1;
        let (result, retries) = probe_with_retry(prober, &code, policy);
        e.probe_retries += u64::from(retries);
        match result {
            Ok(Some(doc)) => {
                dead_run = 0;
                e.docs.push(doc);
            }
            Ok(None) => dead_run += 1,
            // Neutral: not evidence of a dead ID, not a live link.
            Err(_) => e.failed_probes += 1,
        }
        index += 1;
    }
    e
}

/// An [`Enumeration`] plus the executor stats of producing it.
///
/// `stats.items` counts probes actually issued, which can exceed
/// `enumeration.probed`: parallel shards overshoot the stopping point
/// within the final window, and the overshoot is discarded during the
/// merge (the sequential walk would never have issued those probes).
#[derive(Clone, Debug)]
pub struct EnumerationRun {
    /// The merged enumeration, identical to the sequential walk.
    pub enumeration: Enumeration,
    /// How the probing was spread and how fast it went.
    pub stats: ExecStats,
}

/// Partial outcome of probing one contiguous ID range: the live docs
/// plus a dead-run summary that composes across chunk boundaries.
/// Failed probes are listed by index so the driver can discard the
/// ones past the stopping point exactly like overshoot docs.
struct ProbeSegment {
    /// Probes issued (the full range, unless the segment stopped early).
    len: u64,
    /// Live finds in index order.
    docs: Vec<(u64, VisitDoc)>,
    /// Probes that exhausted their retries, in index order (neutral to
    /// the dead run).
    failed: Vec<u64>,
    /// `(index, retries)` of probes that needed retries (sparse).
    retried: Vec<(u64, u32)>,
    /// Global indices of the dead codes before the first live probe,
    /// capped at the dead-run limit (a longer prefix stops the walk
    /// regardless of the incoming carry, so probing further is
    /// pointless). With failures interleaved the stop index is the
    /// `(limit − carry)`-th entry here, not simple arithmetic.
    prefix_dead: Vec<u64>,
    /// Consecutive dead codes since the last live probe (failures do
    /// not reset this count; they are invisible to it).
    suffix_dead: u64,
    /// No live probe in this segment (failures allowed).
    all_dead: bool,
    /// Earliest global index completing a dead run of the limit that
    /// began *after* a live probe in this segment — i.e. a stop the
    /// incoming carry cannot influence.
    internal_stop: Option<u64>,
}

/// Probes `range`, recording live docs and the dead-run summary. Stops
/// early once a stop is certain: either a post-live dead run reaches the
/// limit (`internal_stop`), or the leading dead prefix alone reaches it
/// (any carry ≥ 0 completes there).
fn probe_segment<P: LinkProber>(
    prober: &P,
    range: Range<u64>,
    limit: u64,
    policy: &ProbePolicy,
    progress: &AtomicU64,
) -> ProbeSegment {
    let mut seg = ProbeSegment {
        len: 0,
        docs: Vec::new(),
        failed: Vec::new(),
        retried: Vec::new(),
        prefix_dead: Vec::new(),
        suffix_dead: 0,
        all_dead: true,
        internal_stop: None,
    };
    let mut run = 0u64;
    for index in range {
        progress.fetch_add(1, Ordering::Relaxed);
        seg.len += 1;
        let (result, retries) = probe_with_retry(prober, &index_to_code(index), policy);
        if retries > 0 {
            seg.retried.push((index, retries));
        }
        match result {
            Ok(Some(doc)) => {
                seg.all_dead = false;
                run = 0;
                seg.docs.push((index, doc));
            }
            Ok(None) => {
                run += 1;
                if seg.all_dead && (seg.prefix_dead.len() as u64) < limit {
                    seg.prefix_dead.push(index);
                }
                if run == limit {
                    if !seg.all_dead {
                        seg.internal_stop = Some(index);
                    }
                    break;
                }
            }
            // Neutral: neither resets nor advances the dead run.
            Err(_) => seg.failed.push(index),
        }
    }
    seg.suffix_dead = run;
    seg
}

/// One window of the sharded walk: `window` consecutive IDs starting at
/// `base`, chunked contiguously across shards. Merge concatenates the
/// per-shard segments in shard-index (= ID) order; the carry fold
/// happens in the driver.
struct WindowTask<'a, P: LinkProber> {
    prober: &'a P,
    policy: &'a ProbePolicy,
    base: u64,
    window: usize,
    limit: u64,
}

impl<P: LinkProber> ShardedTask for WindowTask<'_, P> {
    type Output = Vec<ProbeSegment>;

    fn len(&self) -> usize {
        self.window
    }

    fn run_shard(&self, range: Range<usize>, progress: &AtomicU64) -> Vec<ProbeSegment> {
        let range = self.base + range.start as u64..self.base + range.end as u64;
        vec![probe_segment(
            self.prober,
            range,
            self.limit,
            self.policy,
            progress,
        )]
    }

    fn merge(&self, acc: &mut Vec<ProbeSegment>, mut next: Vec<ProbeSegment>) {
        acc.append(&mut next);
    }
}

/// Default per-shard probes per window. Windows much smaller than this
/// spend their time on spawn/merge overhead; the final window overshoots
/// the stopping point by at most `shards × chunk` discarded probes.
const DEFAULT_CHUNK: usize = 4_096;

/// Walks the ID space across `executor`'s shards, stopping after
/// `dead_run_limit` consecutive dead codes exactly like
/// [`enumerate_links`] — same `docs` (and order), same `probed` — for
/// any shard count.
pub fn enumerate_links_sharded(
    service: &ShortlinkService,
    dead_run_limit: u64,
    executor: &ParallelExecutor,
) -> EnumerationRun {
    enumerate_links_sharded_with(service, dead_run_limit, executor, &ProbePolicy::default())
}

/// [`enumerate_links_sharded`] over an arbitrary prober and retry
/// policy — same bit-identical-to-sequential guarantee under any fault
/// schedule, because fault schedules and retry jitter are keyed by link
/// code rather than probing order.
pub fn enumerate_links_sharded_with<P: LinkProber>(
    prober: &P,
    dead_run_limit: u64,
    executor: &ParallelExecutor,
    policy: &ProbePolicy,
) -> EnumerationRun {
    let chunk = (dead_run_limit as usize).max(DEFAULT_CHUNK);
    enumerate_links_windowed_with(prober, dead_run_limit, executor, chunk, policy)
}

/// [`enumerate_links_sharded`] with an explicit per-shard window size.
/// Exposed so equivalence tests can force many tiny windows and exercise
/// the cross-chunk carry; results are window-size-invariant.
pub fn enumerate_links_windowed(
    service: &ShortlinkService,
    dead_run_limit: u64,
    executor: &ParallelExecutor,
    chunk_per_shard: usize,
) -> EnumerationRun {
    enumerate_links_windowed_with(
        service,
        dead_run_limit,
        executor,
        chunk_per_shard,
        &ProbePolicy::default(),
    )
}

/// The general windowed walk: any prober, any retry policy, any window
/// size — always identical to [`enumerate_links_with`].
pub fn enumerate_links_windowed_with<P: LinkProber>(
    prober: &P,
    dead_run_limit: u64,
    executor: &ParallelExecutor,
    chunk_per_shard: usize,
    policy: &ProbePolicy,
) -> EnumerationRun {
    let shards = executor.shards();
    let mut stats = ExecStats::zero(shards);
    let mut enumeration = Enumeration {
        docs: Vec::new(),
        probed: 0,
        failed_probes: 0,
        probe_retries: 0,
    };
    if dead_run_limit == 0 {
        // The sequential walk never probes anything.
        return EnumerationRun { enumeration, stats };
    }
    let window = chunk_per_shard.max(1) * shards;
    let mut base = 0u64;
    // Dead run carried into the next segment (always < dead_run_limit).
    let mut carry = 0u64;
    loop {
        let run = executor.execute(&WindowTask {
            prober,
            policy,
            base,
            window,
            limit: dead_run_limit,
        });
        stats.absorb(&run.stats);
        for seg in run.outcome {
            // A dead prefix completing the carried run stops the walk
            // before anything else in this segment can. With failures
            // interleaved the stop is the index of the
            // `(limit − carry)`-th leading dead probe.
            let stop = if carry + seg.prefix_dead.len() as u64 >= dead_run_limit {
                Some(seg.prefix_dead[(dead_run_limit - carry - 1) as usize])
            } else {
                seg.internal_stop
            };
            if let Some(stop) = stop {
                // Discard overshoot: the sequential walk ends here.
                enumeration.docs.extend(
                    seg.docs
                        .into_iter()
                        .filter(|(index, _)| *index <= stop)
                        .map(|(_, doc)| doc),
                );
                enumeration.failed_probes +=
                    seg.failed.iter().filter(|&&i| i <= stop).count() as u64;
                enumeration.probe_retries += seg
                    .retried
                    .iter()
                    .filter(|(i, _)| *i <= stop)
                    .map(|(_, r)| u64::from(*r))
                    .sum::<u64>();
                enumeration.probed = stop + 1;
                return EnumerationRun { enumeration, stats };
            }
            carry = if seg.all_dead {
                carry + seg.suffix_dead
            } else {
                seg.suffix_dead
            };
            enumeration.failed_probes += seg.failed.len() as u64;
            enumeration.probe_retries +=
                seg.retried.iter().map(|(_, r)| u64::from(*r)).sum::<u64>();
            enumeration
                .docs
                .extend(seg.docs.into_iter().map(|(_, doc)| doc));
        }
        base += window as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinkPopulation, ModelConfig};
    use minedig_primitives::stats::top1_share;

    fn enumeration() -> Enumeration {
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: 5_000,
            users: 400,
            seed: 11,
        }));
        enumerate_links(&service, 64)
    }

    #[test]
    fn enumeration_finds_every_live_link() {
        let e = enumeration();
        assert_eq!(e.docs.len(), 5_000);
        assert_eq!(e.probed, 5_000 + 64);
    }

    #[test]
    fn scraped_statistics_match_ground_truth() {
        let pop = LinkPopulation::generate(&ModelConfig {
            total_links: 5_000,
            users: 400,
            seed: 11,
        });
        let service = ShortlinkService::new(pop.clone());
        let e = enumerate_links(&service, 64);
        // The enumerator must recover exactly the generator's statistics —
        // this is the "measurement recovers ground truth" check.
        assert_eq!(e.links_per_token(), pop.links_per_token());
        assert_eq!(
            e.requirements_unbiased().len(),
            pop.hash_requirements_unbiased().len()
        );
    }

    #[test]
    fn top_tokens_are_the_head_users() {
        let e = enumeration();
        let top = e.top_tokens(10);
        assert_eq!(top.len(), 10);
        // Head users have ids 0..10 by construction.
        for t in &top {
            assert!(*t < 10, "unexpected heavy token {t}");
        }
        let counts = e.links_per_token();
        assert!(top1_share(&counts) > 0.25);
    }

    #[test]
    fn empty_service_terminates() {
        let service = ShortlinkService::new(LinkPopulation {
            links: vec![],
            users: 0,
        });
        let e = enumerate_links(&service, 16);
        assert!(e.docs.is_empty());
        assert_eq!(e.probed, 16);
    }

    /// Service with live links at exactly the given indices (anything
    /// else is dead), for exercising internal dead gaps.
    fn gap_service(live: &[u64]) -> ShortlinkService {
        use crate::model::LinkRecord;
        let links = live
            .iter()
            .map(|&i| LinkRecord {
                index: i,
                code: index_to_code(i),
                token_id: i % 7,
                required_hashes: 512,
                target_url: format!("https://dest.example/{i}"),
                target_domain: "dest.example".to_string(),
                target_categories: vec![],
            })
            .collect();
        ShortlinkService::new(LinkPopulation { links, users: 8 })
    }

    fn assert_equivalent(service: &ShortlinkService, limit: u64, shards: usize, chunk: usize) {
        assert_equivalent_with(service, &ProbePolicy::default(), limit, shards, chunk);
    }

    fn assert_equivalent_with<P: LinkProber>(
        prober: &P,
        policy: &ProbePolicy,
        limit: u64,
        shards: usize,
        chunk: usize,
    ) {
        let sequential = enumerate_links_with(prober, limit, policy);
        let run = enumerate_links_windowed_with(
            prober,
            limit,
            &ParallelExecutor::new(shards),
            chunk,
            policy,
        );
        assert_eq!(
            run.enumeration.probed, sequential.probed,
            "probed, shards={shards} chunk={chunk} limit={limit}"
        );
        assert_eq!(
            run.enumeration.docs, sequential.docs,
            "docs, shards={shards} chunk={chunk} limit={limit}"
        );
        assert_eq!(
            run.enumeration.failed_probes, sequential.failed_probes,
            "failed_probes, shards={shards} chunk={chunk} limit={limit}"
        );
        assert_eq!(
            run.enumeration.probe_retries, sequential.probe_retries,
            "probe_retries, shards={shards} chunk={chunk} limit={limit}"
        );
        assert_eq!(run.stats.shards, shards);
        // Shards may overshoot the stop within the last window, never
        // undershoot it.
        assert!(run.stats.items >= sequential.probed);
    }

    #[test]
    fn sharded_equals_sequential_on_fixture() {
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: 5_000,
            users: 400,
            seed: 11,
        }));
        for shards in [1, 2, 3, 8, 16] {
            let sequential = enumerate_links(&service, 64);
            let run = enumerate_links_sharded(&service, 64, &ParallelExecutor::new(shards));
            assert_eq!(run.enumeration.probed, sequential.probed, "shards={shards}");
            assert_eq!(run.enumeration.docs, sequential.docs, "shards={shards}");
        }
    }

    #[test]
    fn tiny_windows_exercise_the_carry() {
        // Dead gaps shorter than the limit must be bridged across chunk
        // and window boundaries; a gap reaching the limit must stop the
        // walk at exactly the sequential index.
        let service = gap_service(&[0, 1, 5, 6, 20, 21, 22, 47]);
        for shards in 1..=6 {
            for chunk in [1, 2, 3, 7, 64] {
                for limit in [1, 2, 3, 5, 10, 26] {
                    assert_equivalent(&service, limit, shards, chunk);
                }
            }
        }
    }

    #[test]
    fn all_dead_space_stops_at_limit() {
        let service = gap_service(&[]);
        for shards in [1, 3, 16] {
            assert_equivalent(&service, 16, shards, 4);
        }
    }

    #[test]
    fn zero_limit_probes_nothing() {
        let service = gap_service(&[0, 1, 2]);
        let run = enumerate_links_sharded(&service, 0, &ParallelExecutor::new(4));
        assert_eq!(run.enumeration.probed, 0);
        assert!(run.enumeration.docs.is_empty());
        assert_eq!(run.stats.items, 0);
    }

    #[test]
    fn sequential_executor_matches_exactly_with_no_overshoot_waste() {
        let service = gap_service(&[0, 3, 4]);
        let run = enumerate_links_windowed(&service, 4, &ParallelExecutor::sequential(), 2);
        let sequential = enumerate_links(&service, 4);
        assert_eq!(run.enumeration.probed, sequential.probed);
        assert_eq!(run.enumeration.docs, sequential.docs);
    }

    /// Prober that fails permanently on a fixed set of indices and
    /// otherwise answers from the service.
    struct FlakyIndices<'a> {
        service: &'a ShortlinkService,
        fail: std::collections::HashSet<u64>,
    }

    impl LinkProber for FlakyIndices<'_> {
        fn probe(
            &self,
            code: &str,
            _attempt: u32,
        ) -> Result<Option<VisitDoc>, crate::probe::ProbeError> {
            let index = crate::ids::code_to_index(code).expect("valid code");
            if self.fail.contains(&index) {
                return Err(crate::probe::ProbeError::Timeout);
            }
            Ok(self.service.visit(code))
        }
    }

    #[test]
    fn failed_probes_are_neutral_to_the_dead_run() {
        // Live at 0,1,2; probes of 3, 5 and 7 permanently fail. The walk
        // (limit 5) must neither count failures as dead (it would stop at
        // index 7) nor reset the run (it would never stop): the limit is
        // reached by confirmed-dead 4, 6, 8, 9, 10.
        let service = gap_service(&[0, 1, 2]);
        let prober = FlakyIndices {
            service: &service,
            fail: [3u64, 5, 7].into_iter().collect(),
        };
        let policy = ProbePolicy {
            retry: minedig_primitives::retry::RetryPolicy::no_retries(),
            jitter_seed: 0,
        };
        let e = enumerate_links_with(&prober, 5, &policy);
        assert_eq!(e.docs.len(), 3);
        assert_eq!(e.probed, 11);
        assert_eq!(e.failed_probes, 3);
        // The clean walk stops earlier because 3, 5, 7 count as dead.
        let clean = enumerate_links(&service, 5);
        assert_eq!(clean.probed, 8);
    }

    #[test]
    fn a_failing_live_link_is_lost_but_does_not_fake_death() {
        // Live at 0, 2, 5; the probe of 2 permanently fails. Link 2 is
        // lost (accounted as failed), the dead run keeps counting 1, 3, 4
        // and stops at index 4 — before ever reaching link 5.
        let service = gap_service(&[0, 2, 5]);
        let prober = FlakyIndices {
            service: &service,
            fail: [2u64].into_iter().collect(),
        };
        let policy = ProbePolicy {
            retry: minedig_primitives::retry::RetryPolicy::no_retries(),
            jitter_seed: 0,
        };
        let e = enumerate_links_with(&prober, 3, &policy);
        assert_eq!(e.docs.len(), 1);
        assert_eq!(e.probed, 5);
        assert_eq!(e.failed_probes, 1);
    }

    #[test]
    fn transient_faults_with_retries_reproduce_the_fault_free_walk() {
        use crate::probe::FaultyProber;
        use minedig_primitives::fault::FaultPlan;
        let service = gap_service(&[0, 1, 5, 6, 20, 21, 22, 47]);
        let clean = enumerate_links(&service, 10);
        let plan = FaultPlan::transient_only(99, 0.5);
        let prober = FaultyProber::new(&service, plan.clone());
        let policy = ProbePolicy::outlasting(&plan);
        let faulty = enumerate_links_with(&prober, 10, &policy);
        assert_eq!(faulty.docs, clean.docs);
        assert_eq!(faulty.probed, clean.probed);
        assert_eq!(faulty.failed_probes, 0);
        assert!(faulty.probe_retries > 0, "p=0.5 must force retries");
    }

    #[test]
    fn sharded_walk_is_identical_under_fault_schedules() {
        use crate::probe::FaultyProber;
        use minedig_primitives::fault::{FaultConfig, FaultPlan};
        let service = gap_service(&[0, 1, 5, 6, 20, 21, 22, 47]);
        // Mixed plan: some faults clear, some are permanent.
        let plan = FaultPlan::with_config(
            7,
            FaultConfig {
                fault_prob: 0.5,
                permanent_prob: 0.4,
                ..FaultConfig::default()
            },
        );
        let prober = FaultyProber::new(&service, plan.clone());
        let policy = ProbePolicy::outlasting(&plan);
        for shards in 1..=6 {
            for chunk in [1, 2, 3, 7, 64] {
                for limit in [1, 3, 5, 10, 26] {
                    assert_equivalent_with(&prober, &policy, limit, shards, chunk);
                }
            }
        }
    }
}
