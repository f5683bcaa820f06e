//! Scan executors: the sharded [`ScanExecutor`] and the range dispatch.
//!
//! The paper's crawls cover whole TLD zones (§3: "we scanned *all*
//! domains within .com/.net/.org"); at that scale a single-threaded pass
//! is the bottleneck of the whole reproduction. [`ScanExecutor`] splits a
//! [`Population`] into contiguous chunks, scans each chunk on its own
//! scoped thread with the shard kernels from [`crate::scan`], and folds
//! the partial outcomes back together in shard-index order.
//!
//! [`zgrab_scan_range`] and [`chrome_scan_range`] are the one place a
//! scan picks an executor: they scan a sub-range of a population's scan
//! order on any [`Backend`] — sequential, sharded, streaming pipeline or
//! cooperative async. The checkpointed campaigns in [`crate::campaign`]
//! call them chunk by chunk, and the CLI's unsupervised scan calls them
//! once over the whole population.
//!
//! The chunk/spawn/merge machinery is the workspace-generic
//! [`ParallelExecutor`] from `minedig_primitives::par` (shared with the
//! §4.1 shortlink enumerator and the §4.2 endpoint poller); a
//! population is one index space covering its artifact domains followed
//! by its clean sample, so one contiguous chunking balances both slices
//! across shards.
//!
//! ## Determinism
//!
//! Every backend is **bit-identical** to the sequential run for the
//! same seed, for any shard count, worker count, batch size or
//! concurrency. Two properties make this cheap:
//!
//! 1. Every domain derives its randomness from `(seed, domain name)` —
//!    never from a shared sequential RNG — so *where* a domain is scanned
//!    cannot change *what* is scanned. This per-domain derivation
//!    subsumes a per-shard `(seed, shard index)` scheme: shard boundaries
//!    can move freely without perturbing any domain's draw.
//! 2. Every backend folds in population order, and
//!    [`merge`](crate::scan::ZgrabScanOutcome::merge) is additive on
//!    counters (order-independent) while ref vectors concatenate — so the
//!    merged ref order equals the sequential scan order exactly.
//!
//! The equivalence is enforced by proptests in `tests/` (every backend,
//! random seeds, zone sizes and fault plans, both scan kinds).

use crate::scan::{
    chrome_classify_domain, chrome_fetch_domain, chrome_fold, chrome_scan_shard_cached,
    chrome_scan_shard_with, crawl_latency_ms, zgrab_fold, zgrab_probe_domain,
    zgrab_scan_shard_with, ChromeFetched, ChromeProbeCtx, ChromeScanOutcome, ChromeVerdict,
    FetchModel, ZgrabProbeCtx, ZgrabScanOutcome, ZgrabVerdict,
};
use minedig_nocoin::NoCoinEngine;
use minedig_primitives::aexec::AsyncExecutor;
use minedig_primitives::par::{ExecRun, ParallelExecutor, ShardedTask};
use minedig_primitives::pipeline::{PipelineExecutor, PipelineStage};
use minedig_primitives::supervise::Backend;
use minedig_wasm::cache::FingerprintCache;
use minedig_wasm::sigdb::SignatureDb;
use minedig_web::universe::{Domain, Population};
use std::cell::RefCell;
use std::ops::{ControlFlow, Range};
use std::rc::Rc;
use std::sync::atomic::AtomicU64;

pub use minedig_primitives::par::{ExecStats, ShardStats};

/// Observability for one executed scan (the generic executor stats; the
/// `items` counters count scanned domains).
pub type ScanStats = ExecStats;

/// A merged scan outcome plus the [`ScanStats`] of producing it.
pub type ScanRun<T> = ExecRun<T>;

/// A zone scan as a [`ShardedTask`]: the index space covers the artifact
/// domains (0..artifacts.len()) followed by the clean sample, so one
/// contiguous chunking spreads both slices across shards. Outcome refs
/// live in per-kind vectors, so any chunk boundary still concatenates to
/// the sequential order.
struct ScanTask<'a, T, K, M>
where
    K: Fn(&[Domain], &[Domain], &AtomicU64) -> T + Sync,
    M: Fn(&mut T, T) + Sync,
{
    artifacts: &'a [Domain],
    clean: &'a [Domain],
    kernel: K,
    merge: M,
}

impl<T: Send, K, M> ShardedTask for ScanTask<'_, T, K, M>
where
    K: Fn(&[Domain], &[Domain], &AtomicU64) -> T + Sync,
    M: Fn(&mut T, T) + Sync,
{
    type Output = T;

    fn len(&self) -> usize {
        self.artifacts.len() + self.clean.len()
    }

    fn run_shard(&self, range: Range<usize>, progress: &AtomicU64) -> T {
        let split = self.artifacts.len();
        let art = &self.artifacts[range.start.min(split)..range.end.min(split)];
        let clean = &self.clean[range.start.max(split) - split..range.end.max(split) - split];
        (self.kernel)(art, clean, progress)
    }

    fn merge(&self, acc: &mut T, next: T) {
        (self.merge)(acc, next)
    }
}

/// Runs zone scans across a fixed number of shards.
#[derive(Clone, Copy, Debug)]
pub struct ScanExecutor {
    inner: ParallelExecutor,
}

impl ScanExecutor {
    /// Executor with `shards` workers (clamped to at least 1).
    pub fn new(shards: usize) -> ScanExecutor {
        ScanExecutor {
            inner: ParallelExecutor::new(shards),
        }
    }

    /// Single-shard executor: the sequential scan, with stats.
    pub fn sequential() -> ScanExecutor {
        ScanExecutor::new(1)
    }

    /// Shard count from `MINEDIG_SHARDS`, defaulting to the machine's
    /// available parallelism.
    pub fn from_env() -> ScanExecutor {
        ScanExecutor {
            inner: ParallelExecutor::from_env(),
        }
    }

    /// Configured shard count.
    pub fn shards(&self) -> usize {
        self.inner.shards()
    }

    /// Sharded zgrab + NoCoin scan (§3.1); same outcome as
    /// [`crate::scan::zgrab_scan`].
    pub fn zgrab(&self, population: &Population, seed: u64) -> ScanRun<ZgrabScanOutcome> {
        self.zgrab_with(population, seed, &FetchModel::default())
    }

    /// [`zgrab`](ScanExecutor::zgrab) with an explicit transport
    /// [`FetchModel`]; same outcome as [`crate::scan::zgrab_scan_with`]
    /// for any shard count (faults are keyed by domain name, so the
    /// schedule cannot see the sharding).
    pub fn zgrab_with(
        &self,
        population: &Population,
        seed: u64,
        model: &FetchModel,
    ) -> ScanRun<ZgrabScanOutcome> {
        let zone = population.zone;
        let mut run = self.inner.execute(&ScanTask {
            artifacts: &population.artifacts,
            clean: &population.clean_sample,
            kernel: |artifacts: &[Domain], clean: &[Domain], progress: &AtomicU64| {
                zgrab_scan_shard_with(zone, artifacts, clean, seed, model, progress)
            },
            merge: ZgrabScanOutcome::merge,
        });
        run.outcome.total_domains = population.total;
        run
    }

    /// Sharded instrumented-browser scan (§3.2); same outcome as
    /// [`crate::scan::chrome_scan`].
    pub fn chrome(
        &self,
        population: &Population,
        db: &SignatureDb,
        seed: u64,
    ) -> ScanRun<ChromeScanOutcome> {
        self.chrome_with(population, db, seed, &FetchModel::default())
    }

    /// [`chrome`](ScanExecutor::chrome) with an explicit transport
    /// [`FetchModel`]; same outcome as
    /// [`crate::scan::chrome_scan_with`] for any shard count.
    pub fn chrome_with(
        &self,
        population: &Population,
        db: &SignatureDb,
        seed: u64,
        model: &FetchModel,
    ) -> ScanRun<ChromeScanOutcome> {
        let zone = population.zone;
        self.inner.execute(&ScanTask {
            artifacts: &population.artifacts,
            clean: &population.clean_sample,
            kernel: |artifacts: &[Domain], clean: &[Domain], progress: &AtomicU64| {
                chrome_scan_shard_with(zone, artifacts, clean, db, seed, model, progress)
            },
            merge: ChromeScanOutcome::merge,
        })
    }
}

/// The zgrab probe as a [`PipelineStage`]: items are `(domain, clean)`
/// pairs borrowed from the population, verdicts flow to the in-order
/// fold at the sink.
struct ZgrabStage<'a> {
    ctx: &'a ZgrabProbeCtx<'a>,
}

impl<'a> PipelineStage for ZgrabStage<'a> {
    type In = (&'a Domain, bool);
    type Out = (ZgrabVerdict, bool);
    type Scratch = ();

    fn scratch(&self) {}

    fn process(&self, (d, clean): Self::In, _scratch: &mut ()) -> Self::Out {
        (zgrab_probe_domain(self.ctx, d), clean)
    }
}

/// Stage 1 of the streaming Chrome scan: transport reach plus the
/// instrumented browser load, emitting the capture downstream.
struct ChromeFetchStage<'a> {
    ctx: &'a ChromeProbeCtx<'a>,
}

impl<'a> PipelineStage for ChromeFetchStage<'a> {
    type In = (&'a Domain, bool);
    type Out = (&'a Domain, bool, ChromeFetched);
    type Scratch = ();

    fn scratch(&self) {}

    fn process(&self, (d, clean): Self::In, _scratch: &mut ()) -> Self::Out {
        let fetched = chrome_fetch_domain(self.ctx, d);
        (d, clean, fetched)
    }
}

/// Stage 2 of the streaming Chrome scan: NoCoin labeling plus Wasm
/// fingerprinting, with a per-worker scratch encode buffer and the
/// shared fingerprint memo (when the context carries one).
struct ChromeClassifyStage<'a> {
    ctx: &'a ChromeProbeCtx<'a>,
}

impl<'a> PipelineStage for ChromeClassifyStage<'a> {
    type In = (&'a Domain, bool, ChromeFetched);
    type Out = (ChromeVerdict, bool);
    type Scratch = Vec<u8>;

    fn scratch(&self) -> Vec<u8> {
        Vec::new()
    }

    fn process(&self, (d, clean, fetched): Self::In, scratch: &mut Vec<u8>) -> Self::Out {
        (chrome_classify_domain(self.ctx, d, fetched, scratch), clean)
    }
}

/// Slices `range` of a population's scan order (artifact domains, then
/// the clean sample) into its artifact and clean sub-slices.
fn slice_range<'a>(
    population: &'a Population,
    range: &Range<usize>,
) -> (&'a [Domain], &'a [Domain]) {
    let split = population.artifacts.len();
    let len = split + population.clean_sample.len();
    let start = range.start.min(len);
    let end = range.end.min(len).max(start);
    let art = &population.artifacts[start.min(split)..end.min(split)];
    let clean = &population.clean_sample[start.max(split) - split..end.max(split) - split];
    (art, clean)
}

/// Iterates one sub-range of a population's scan order.
fn slice_items<'a>(
    art: &'a [Domain],
    clean: &'a [Domain],
) -> impl Iterator<Item = (&'a Domain, bool)> + Send {
    art.iter()
        .map(|d| (d, false))
        .chain(clean.iter().map(|d| (d, true)))
}

/// Zgrab + NoCoin scan of the sub-range `range` of `population`'s scan
/// order on any [`Backend`], returning the partial outcome (its
/// `total_domains` stays 0 — the caller owns zone-wide framing).
///
/// Because verdicts are keyed by `(seed, domain name)` and every
/// backend folds in population order, concatenating range outcomes via
/// [`ZgrabScanOutcome::merge`] reproduces the whole-zone scan bit for
/// bit, regardless of how the index space is chunked or which backend
/// ran each chunk — the property campaign checkpointing rests on. On
/// the async backend each fetch first awaits its virtual network
/// latency ([`crawl_latency_ms`], keyed by domain name), so slow fetches
/// overlap instead of serializing. A range past the population's end
/// yields an empty outcome.
pub fn zgrab_scan_range(
    population: &Population,
    range: Range<usize>,
    seed: u64,
    model: &FetchModel,
    backend: &Backend,
) -> ZgrabScanOutcome {
    let zone = population.zone;
    let (art, clean) = slice_range(population, &range);
    match *backend {
        Backend::Sequential => {
            zgrab_scan_shard_with(zone, art, clean, seed, model, &AtomicU64::new(0))
        }
        Backend::Sharded(shards) => {
            ParallelExecutor::new(shards)
                .execute(&ScanTask {
                    artifacts: art,
                    clean,
                    kernel: |artifacts: &[Domain], clean: &[Domain], progress: &AtomicU64| {
                        zgrab_scan_shard_with(zone, artifacts, clean, seed, model, progress)
                    },
                    merge: ZgrabScanOutcome::merge,
                })
                .outcome
        }
        Backend::Streaming {
            workers,
            capacity,
            batch,
        } => {
            let engine = NoCoinEngine::new();
            let ctx = ZgrabProbeCtx {
                seed,
                model,
                engine: &engine,
            };
            let stage = ZgrabStage { ctx: &ctx };
            PipelineExecutor::new(workers, capacity)
                .with_batch(batch)
                .run(
                    slice_items(art, clean),
                    &stage,
                    ZgrabScanOutcome::empty(zone),
                    |acc, (verdict, clean)| {
                        zgrab_fold(acc, verdict, clean);
                        ControlFlow::Continue(())
                    },
                )
                .outcome
        }
        Backend::Async { concurrency } => {
            let engine = NoCoinEngine::new();
            let ctx = ZgrabProbeCtx {
                seed,
                model,
                engine: &engine,
            };
            let ctx = &ctx;
            AsyncExecutor::new(concurrency)
                .run_ordered(
                    slice_items(art, clean),
                    |actx, (d, clean)| {
                        let delay = crawl_latency_ms(model, &d.name);
                        async move {
                            actx.sleep_ms(delay).await;
                            (zgrab_probe_domain(ctx, d), clean)
                        }
                    },
                    ZgrabScanOutcome::empty(zone),
                    |acc, (verdict, clean)| {
                        zgrab_fold(acc, verdict, clean);
                        ControlFlow::Continue(())
                    },
                )
                .outcome
        }
    }
}

/// Instrumented-browser scan of the sub-range `range` of `population`'s
/// scan order on any [`Backend`] — the Chrome counterpart of
/// [`zgrab_scan_range`], with the same chunking-invariance contract.
/// The streaming backend runs it as two overlapped stages, browser load
/// then NoCoin labeling and Wasm fingerprinting. `cache`, when given, is
/// the fingerprint memo every backend consults; it stores pure
/// per-module fingerprints, so it never changes the outcome.
pub fn chrome_scan_range(
    population: &Population,
    range: Range<usize>,
    db: &SignatureDb,
    seed: u64,
    model: &FetchModel,
    cache: Option<&FingerprintCache>,
    backend: &Backend,
) -> ChromeScanOutcome {
    let zone = population.zone;
    let (art, clean) = slice_range(population, &range);
    match *backend {
        Backend::Sequential => {
            chrome_scan_shard_cached(zone, art, clean, db, seed, model, cache, &AtomicU64::new(0))
        }
        Backend::Sharded(shards) => {
            ParallelExecutor::new(shards)
                .execute(&ScanTask {
                    artifacts: art,
                    clean,
                    kernel: |artifacts: &[Domain], clean: &[Domain], progress: &AtomicU64| {
                        chrome_scan_shard_cached(
                            zone, artifacts, clean, db, seed, model, cache, progress,
                        )
                    },
                    merge: ChromeScanOutcome::merge,
                })
                .outcome
        }
        Backend::Streaming {
            workers,
            capacity,
            batch,
        } => {
            let engine = NoCoinEngine::new();
            let ctx = ChromeProbeCtx::new(seed, model, &engine, db, cache);
            let fetch = ChromeFetchStage { ctx: &ctx };
            let classify = ChromeClassifyStage { ctx: &ctx };
            PipelineExecutor::new(workers, capacity)
                .with_batch(batch)
                .run2(
                    slice_items(art, clean),
                    &fetch,
                    &classify,
                    ChromeScanOutcome::empty(zone),
                    |acc, (verdict, clean)| {
                        chrome_fold(acc, verdict, clean);
                        ControlFlow::Continue(())
                    },
                )
                .outcome
        }
        Backend::Async { concurrency } => {
            let engine = NoCoinEngine::new();
            let ctx = ChromeProbeCtx::new(seed, model, &engine, db, cache);
            let ctx = &ctx;
            // One scratch encode buffer for every task: the executor
            // polls one task at a time, and no task holds the buffer
            // across an await.
            let scratch = Rc::new(RefCell::new(Vec::new()));
            AsyncExecutor::new(concurrency)
                .run_ordered(
                    slice_items(art, clean),
                    |actx, (d, clean)| {
                        let delay = crawl_latency_ms(model, &d.name);
                        let scratch = Rc::clone(&scratch);
                        async move {
                            actx.sleep_ms(delay).await;
                            let fetched = chrome_fetch_domain(ctx, d);
                            let verdict =
                                chrome_classify_domain(ctx, d, fetched, &mut scratch.borrow_mut());
                            (verdict, clean)
                        }
                    },
                    ChromeScanOutcome::empty(zone),
                    |acc, (verdict, clean)| {
                        chrome_fold(acc, verdict, clean);
                        ControlFlow::Continue(())
                    },
                )
                .outcome
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::build_reference_db;
    use minedig_web::zone::Zone;

    #[test]
    fn sharded_zgrab_matches_sequential() {
        let pop = Population::generate(Zone::Org, 42, 50);
        let sequential = crate::scan::zgrab_scan(&pop, 1);
        for shards in [1, 2, 3, 8] {
            let run = ScanExecutor::new(shards).zgrab(&pop, 1);
            assert_eq!(run.outcome, sequential, "shards={shards}");
            assert_eq!(run.stats.shards, shards);
            assert_eq!(
                run.stats.items,
                (pop.artifacts.len() + pop.clean_sample.len()) as u64
            );
        }
    }

    #[test]
    fn sharded_chrome_matches_sequential() {
        let pop = Population::generate(Zone::Org, 42, 50);
        let db = build_reference_db(0.7);
        let sequential = crate::scan::chrome_scan(&pop, &db, 1);
        for shards in [2, 5] {
            let run = ScanExecutor::new(shards).chrome(&pop, &db, 1);
            assert_eq!(run.outcome, sequential, "shards={shards}");
        }
    }

    #[test]
    fn sharded_scan_matches_sequential_under_faults() {
        use minedig_primitives::fault::{FaultConfig, FaultPlan};
        let pop = Population::generate(Zone::Org, 42, 50);
        let plan = FaultPlan::with_config(
            17,
            FaultConfig {
                fault_prob: 0.5,
                permanent_prob: 0.4,
                ..FaultConfig::default()
            },
        );
        let model = FetchModel::outlasting(plan);
        let sequential = crate::scan::zgrab_scan_with(&pop, 1, &model);
        assert!(sequential.fetch.unreachable > 0);
        for shards in [2, 3, 8] {
            let run = ScanExecutor::new(shards).zgrab_with(&pop, 1, &model);
            assert_eq!(run.outcome, sequential, "shards={shards}");
        }
    }

    #[test]
    fn executor_clamps_zero_shards() {
        assert_eq!(ScanExecutor::new(0).shards(), 1);
    }

    #[test]
    fn stats_report_rate_and_per_shard_progress() {
        let pop = Population::generate(Zone::Org, 7, 20);
        let run = ScanExecutor::new(4).zgrab(&pop, 7);
        assert_eq!(run.stats.per_shard.len(), 4);
        let sum: u64 = run.stats.per_shard.iter().map(|s| s.items).sum();
        assert_eq!(sum, run.stats.items);
        assert!(run.stats.items_per_sec() > 0.0);
    }

    #[test]
    fn shards_beyond_population_still_match() {
        // More shards than domains: trailing shards get empty ranges.
        let pop = Population::generate(Zone::Org, 3, 2);
        let sequential = crate::scan::zgrab_scan(&pop, 3);
        let run = ScanExecutor::new(64).zgrab(&pop, 3);
        assert_eq!(run.outcome, sequential);
    }

    /// One backend of each kind, with small, awkward parameters.
    fn every_backend() -> [Backend; 4] {
        [
            Backend::Sequential,
            Backend::Sharded(3),
            Backend::Streaming {
                workers: 2,
                capacity: 8,
                batch: 3,
            },
            Backend::Async { concurrency: 16 },
        ]
    }

    /// A mixed fault plan: half the fetches fault, some permanently.
    fn faulty_model() -> FetchModel {
        use minedig_primitives::fault::{FaultConfig, FaultPlan};
        FetchModel::outlasting(FaultPlan::with_config(
            17,
            FaultConfig {
                fault_prob: 0.5,
                permanent_prob: 0.4,
                ..FaultConfig::default()
            },
        ))
    }

    #[test]
    fn range_scans_concatenate_to_the_full_scan_on_every_backend() {
        let pop = Population::generate(Zone::Org, 42, 50);
        let db = build_reference_db(0.7);
        let len = pop.artifacts.len() + pop.clean_sample.len();
        for model in [FetchModel::default(), faulty_model()] {
            let zgrab = crate::scan::zgrab_scan_with(&pop, 1, &model);
            let chrome = crate::scan::chrome_scan_with(&pop, &db, 1, &model);
            for backend in every_backend() {
                let cache = FingerprintCache::new();
                let mut zg = ZgrabScanOutcome::empty(pop.zone);
                let mut ch = ChromeScanOutcome::empty(pop.zone);
                for at in (0..len).step_by(37) {
                    let range = at..(at + 37).min(len);
                    zg.merge(zgrab_scan_range(&pop, range.clone(), 1, &model, &backend));
                    let part =
                        chrome_scan_range(&pop, range, &db, 1, &model, Some(&cache), &backend);
                    ch.merge(part);
                }
                zg.total_domains = pop.total;
                assert_eq!(zg, zgrab, "backend={}", backend.label());
                assert_eq!(ch, chrome, "backend={}", backend.label());
                // Miners redeploy identical modules across domains, so
                // the memo answers a share of lookups on every backend.
                assert!(cache.hits() > 0, "backend={}", backend.label());
            }
        }
    }

    #[test]
    fn out_of_range_scans_are_empty_on_every_backend() {
        let pop = Population::generate(Zone::Org, 3, 5);
        let db = build_reference_db(0.7);
        let len = pop.artifacts.len() + pop.clean_sample.len();
        let model = FetchModel::default();
        for backend in every_backend() {
            for range in [len..len + 10, len + 5..len + 9, len + 5..usize::MAX] {
                let zg = zgrab_scan_range(&pop, range.clone(), 1, &model, &backend);
                assert_eq!(zg, ZgrabScanOutcome::empty(pop.zone), "{range:?}");
                let ch = chrome_scan_range(&pop, range.clone(), &db, 1, &model, None, &backend);
                assert_eq!(ch, ChromeScanOutcome::empty(pop.zone), "{range:?}");
            }
        }
    }
}
