//! Property tests of the streaming pipeline's determinism contract: for
//! any worker count (1–16), any channel capacity, any message batch
//! size, and any fault schedule, the streaming execution of a workload
//! is **bit-identical** to the sequential run — and to the sharded
//! executor, since both reduce to the same per-item kernels folded in
//! the same order. Batching only changes how many items ride each
//! channel message, never which items exist or the order the sink
//! folds them.
//!
//! Each campaign runs on [`Backend::Streaming`] through the range
//! dispatch the CLI and the supervisor use, in chunks of a drawn size.
//! The message accounting is read from [`PipelineExecutor`] run directly
//! on the public per-domain scan kernels, the same stages the dispatch
//! builds.
//!
//! `MINEDIG_FAULT_SEED` offsets every fault-plan seed, so the CI chaos
//! matrix exercises a different schedule per job without touching the
//! test code.

use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::exec::ScanExecutor;
use minedig::core::scan::{
    build_reference_db, chrome_classify_domain, chrome_fetch_domain, chrome_fold, chrome_scan_with,
    zgrab_fold, zgrab_probe_domain, zgrab_scan_with, ChromeProbeCtx, ChromeScanOutcome, FetchModel,
    ZgrabProbeCtx, ZgrabScanOutcome,
};
use minedig::core::shortlink_study::{run_study, run_study_supervised, StudyConfig};
use minedig::nocoin::NoCoinEngine;
use minedig::primitives::ckpt::SnapshotStore;
use minedig::primitives::fault::{FaultConfig, FaultPlan, FAULT_SEED_ENV};
use minedig::primitives::par::ParallelExecutor;
use minedig::primitives::pipeline::{FnStage, PipelineExecutor, PipelineRun, PipelineStats};
use minedig::primitives::supervise::{Backend, Campaign, CrashPolicy, Supervisor};
use minedig::shortlink::campaign::EnumCampaign;
use minedig::shortlink::enumerate::{enumerate_links_windowed_with, enumerate_links_with};
use minedig::shortlink::model::{LinkPopulation, ModelConfig};
use minedig::shortlink::probe::{FaultyProber, ProbePolicy};
use minedig::shortlink::resolve::resolve_accounted;
use minedig::shortlink::service::ShortlinkService;
use minedig::wasm::cache::FingerprintCache;
use minedig::wasm::sigdb::SignatureDb;
use minedig::web::universe::{Domain, Population};
use minedig::web::zone::Zone;
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// Base fault seed from the environment (the CI matrix axis).
fn base_seed() -> u64 {
    std::env::var(FAULT_SEED_ENV)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

fn db() -> &'static SignatureDb {
    static DB: OnceLock<SignatureDb> = OnceLock::new();
    DB.get_or_init(|| build_reference_db(0.7))
}

/// A mixed fault plan: some faults clear under retries, some are
/// permanent. Delay is excluded so a permanent fault means a *lost*
/// fetch, mirroring the chaos suites.
fn mixed_plan(offset: u64, permanent: f64) -> FaultPlan {
    FaultPlan::with_config(
        base_seed().wrapping_add(offset),
        FaultConfig {
            fault_prob: 0.5,
            permanent_prob: permanent,
            kind_weights: [1.0, 0.0, 1.0, 1.0, 1.0],
            ..FaultConfig::default()
        },
    )
}

const CAPACITIES: [usize; 4] = [1, 4, 64, 256];

/// Batch sizes spanning the degenerate (1 item per message), awkward
/// (primes that never divide the workload), and coarse (more than the
/// whole workload in one message) regimes.
const BATCHES: [usize; 5] = [1, 2, 3, 16, 256];

/// Runs `campaign` to completion in chunks of `chunk` items.
fn run_chunked<C: Campaign>(mut campaign: C, chunk: u64) -> C::Output {
    let heartbeat = AtomicU64::new(0);
    while !campaign.is_done() {
        campaign.run_items(chunk, &heartbeat);
    }
    campaign.finish()
}

/// A population's scan order: artifact domains, then the clean sample.
fn scan_order(pop: &Population) -> impl Iterator<Item = (&Domain, bool)> + Send {
    let artifacts = pop.artifacts.iter().map(|d| (d, false));
    artifacts.chain(pop.clean_sample.iter().map(|d| (d, true)))
}

/// The zgrab scan on `pipe` directly, for the pipeline's own stats.
fn zgrab_piped(
    pop: &Population,
    seed: u64,
    model: &FetchModel,
    pipe: &PipelineExecutor,
) -> PipelineRun<ZgrabScanOutcome> {
    let engine = NoCoinEngine::new();
    let ctx = ZgrabProbeCtx {
        seed,
        model,
        engine: &engine,
    };
    let probe = FnStage::new(|(d, clean): (&Domain, bool)| (zgrab_probe_domain(&ctx, d), clean));
    let mut run = pipe.run(
        scan_order(pop),
        &probe,
        ZgrabScanOutcome::empty(pop.zone),
        |acc, (verdict, clean)| {
            zgrab_fold(acc, verdict, clean);
            ControlFlow::Continue(())
        },
    );
    run.outcome.total_domains = pop.total;
    run
}

/// The two-stage Chrome scan (browser load, then NoCoin labeling and
/// Wasm fingerprinting through `cache`) on `pipe` directly, for the
/// pipeline's own stats.
fn chrome_piped(
    pop: &Population,
    seed: u64,
    model: &FetchModel,
    cache: &FingerprintCache,
    pipe: &PipelineExecutor,
) -> PipelineRun<ChromeScanOutcome> {
    let engine = NoCoinEngine::new();
    let ctx = ChromeProbeCtx::new(seed, model, &engine, db(), Some(cache));
    let fetch =
        FnStage::new(|(d, clean): (&Domain, bool)| (d, clean, chrome_fetch_domain(&ctx, d)));
    let classify = FnStage::new(|(d, clean, fetched)| {
        (
            chrome_classify_domain(&ctx, d, fetched, &mut Vec::new()),
            clean,
        )
    });
    pipe.run2(
        scan_order(pop),
        &fetch,
        &classify,
        ChromeScanOutcome::empty(pop.zone),
        |acc, (verdict, clean)| {
            chrome_fold(acc, verdict, clean);
            ControlFlow::Continue(())
        },
    )
}

/// Message-accounting invariants that hold for every run: the recorded
/// batch matches the executor's, no message carries more than `batch`
/// items, and a non-empty run sends at least one message.
fn check_batching(stats: &PipelineStats, batch: usize) -> bool {
    stats.batch == batch
        && stats.messages.saturating_mul(batch as u64) >= stats.hop_items()
        && (stats.hop_items() == 0 || stats.messages > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // zgrab: streaming == sequential == sharded, under mixed chaos.
    #[test]
    fn zgrab_streaming_is_bit_identical(
        seed in 0u64..1_000_000,
        clean in 0usize..120,
        fault_off in 0u64..1_000,
        permanent in 0.0f64..0.6,
        workers in 1usize..=16,
        cap_ix in 0usize..CAPACITIES.len(),
        batch_ix in 0usize..BATCHES.len(),
        shards in 1usize..=8,
        chunk in 64u64..4_096,
    ) {
        let pop = Population::generate(Zone::Org, seed, clean);
        let model = FetchModel::outlasting(mixed_plan(fault_off, permanent));
        let sequential = zgrab_scan_with(&pop, seed, &model);
        let (capacity, batch) = (CAPACITIES[cap_ix], BATCHES[batch_ix]);
        let backend = Backend::Streaming { workers, capacity, batch };
        let streamed = run_chunked(ZgrabCampaign::new(&pop, seed, &model, backend), chunk);
        prop_assert_eq!(
            &streamed, &sequential,
            "workers={} cap={} batch={}", workers, capacity, batch
        );
        let pipe = PipelineExecutor::new(workers, capacity).with_batch(batch);
        let piped = zgrab_piped(&pop, seed, &model, &pipe);
        prop_assert_eq!(&piped.outcome, &sequential);
        prop_assert!(check_batching(&piped.stats, batch));
        let items = (pop.artifacts.len() + pop.clean_sample.len()) as u64;
        prop_assert_eq!(piped.stats.items, items, "the sink folds every domain once");
        let sharded = ScanExecutor::new(shards).zgrab_with(&pop, seed, &model);
        prop_assert_eq!(&sharded.outcome, &sequential, "shards={}", shards);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // chrome (two-stage fetch→fingerprint pipeline, with the shared
    // fingerprint cache): streaming == sequential == sharded.
    #[test]
    fn chrome_streaming_is_bit_identical(
        seed in 0u64..1_000_000,
        clean in 0usize..60,
        fault_off in 0u64..1_000,
        permanent in 0.0f64..0.5,
        workers in 1usize..=16,
        cap_ix in 0usize..CAPACITIES.len(),
        batch_ix in 0usize..BATCHES.len(),
        shards in 1usize..=8,
        chunk in 64u64..4_096,
    ) {
        let pop = Population::generate(Zone::Org, seed, clean);
        let model = FetchModel::outlasting(mixed_plan(fault_off, permanent));
        let sequential = chrome_scan_with(&pop, db(), seed, &model);
        let cache = FingerprintCache::new();
        let (capacity, batch) = (CAPACITIES[cap_ix], BATCHES[batch_ix]);
        let backend = Backend::Streaming { workers, capacity, batch };
        let campaign = ChromeCampaign::new(&pop, db(), seed, &model, Some(&cache), backend);
        prop_assert_eq!(
            &run_chunked(campaign, chunk), &sequential,
            "workers={} cap={} batch={}", workers, capacity, batch
        );
        let pipe = PipelineExecutor::new(workers, capacity).with_batch(batch);
        let piped = chrome_piped(&pop, seed, &model, &cache, &pipe);
        prop_assert_eq!(&piped.outcome, &sequential);
        prop_assert!(check_batching(&piped.stats, batch));
        let sharded = ScanExecutor::new(shards).chrome_with(&pop, db(), seed, &model);
        prop_assert_eq!(&sharded.outcome, &sequential, "shards={}", shards);
    }

    // enumerate→resolve: the streamed walk (probes on pipeline workers,
    // resolution as the fold reaches each document) produces the same
    // enumeration AND the same resolve report as the sequential
    // enumerate-then-resolve, and the sharded walk agrees too — under
    // mixed fault schedules on the probe path.
    #[test]
    fn enumerate_resolve_streaming_is_bit_identical(
        links in 200u64..1_500,
        users in 20usize..150,
        model_seed in 0u64..1_000_000,
        fault_off in 0u64..1_000,
        permanent in 0.0f64..0.5,
        limit in 1u64..96,
        budget in 256u64..20_000,
        workers in 1usize..=16,
        cap_ix in 0usize..CAPACITIES.len(),
        batch_ix in 0usize..BATCHES.len(),
        shards in 1usize..=8,
        chunk in 16u64..512,
    ) {
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: links,
            users,
            seed: model_seed,
        }));
        let plan = mixed_plan(fault_off, permanent);
        let prober = FaultyProber::new(&service, plan.clone());
        let policy = ProbePolicy::outlasting(&plan);

        // Reference: enumerate fully, then resolve the live codes.
        let sequential = enumerate_links_with(&prober, limit, &policy);
        let codes: Vec<String> =
            sequential.docs.iter().map(|d| d.code.clone()).collect();
        let batch_report = resolve_accounted(&service, &codes, budget);

        // Streaming: resolve each doc the moment the fold reaches it.
        let backend = Backend::Streaming {
            workers,
            capacity: CAPACITIES[cap_ix],
            batch: BATCHES[batch_ix],
        };
        let campaign = EnumCampaign::new(&prober, &policy, limit, backend)
            .with_resolver(&service, budget);
        let streamed = run_chunked(campaign, chunk);
        let e = &streamed.enumeration;
        prop_assert_eq!(&e.docs, &sequential.docs, "backend={:?}", backend);
        prop_assert_eq!(e.probed, sequential.probed);
        prop_assert_eq!(e.failed_probes, sequential.failed_probes);
        prop_assert_eq!(e.probe_retries, sequential.probe_retries);
        let r = &streamed.resolve_report;
        prop_assert_eq!(&r.resolved, &batch_report.resolved);
        prop_assert_eq!(r.hashes_spent, batch_report.hashes_spent);
        prop_assert_eq!(r.skipped_over_budget, batch_report.skipped_over_budget);

        // The sharded walk folds the same verdicts in the same order.
        let sharded = enumerate_links_windowed_with(
            &prober,
            limit,
            &ParallelExecutor::new(shards),
            7,
            &policy,
        );
        prop_assert_eq!(sharded.enumeration.docs, sequential.docs);
        prop_assert_eq!(sharded.enumeration.probed, sequential.probed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // The whole §4.1 study, walked and tail-resolved as one campaign on
    // the streaming pipeline, equals the batch study for any worker
    // count, capacity, and batch size. The cadence never comes due, so
    // the walk is one unbounded `run_items` call.
    #[test]
    fn streaming_study_is_bit_identical(
        links in 1_000u64..6_000,
        study_seed in 0u64..1_000_000,
        workers in 1usize..=16,
        cap_ix in 0usize..CAPACITIES.len(),
        batch_ix in 0usize..BATCHES.len(),
    ) {
        let config = StudyConfig {
            model: ModelConfig {
                total_links: links,
                users: (links as usize / 12).max(20),
                seed: study_seed,
            },
            per_user_sample: 50,
            ..StudyConfig::default()
        };
        let batch = run_study(&config, study_seed);
        let backend = Backend::Streaming {
            workers,
            capacity: CAPACITIES[cap_ix],
            batch: BATCHES[batch_ix],
        };
        let supervisor = Supervisor::new(CrashPolicy {
            ckpt_every_items: u64::MAX,
            ..CrashPolicy::default()
        });
        let dir = std::env::temp_dir().join(format!("minedig-pipe-study-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).expect("open store");
        let run = run_study_supervised(&config, study_seed, &store, "study", &supervisor, backend, false)
            .expect("supervised study");
        let _ = std::fs::remove_dir_all(&dir);
        let s = &run.result;
        prop_assert_eq!(&s.enumeration.docs, &batch.enumeration.docs, "backend={:?}", backend);
        prop_assert_eq!(s.enumeration.probed, batch.enumeration.probed);
        prop_assert_eq!(&s.links_per_token, &batch.links_per_token);
        prop_assert_eq!(s.hashes_spent, batch.hashes_spent);
        prop_assert_eq!(&s.top10_domains, &batch.top10_domains);
        prop_assert_eq!(&s.tail_categories, &batch.tail_categories);
        prop_assert_eq!(run.report.checkpoints, 1, "only the final snapshot");
    }
}
