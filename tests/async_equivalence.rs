//! Equivalence of every execution backend: each campaign on every
//! [`Backend`] — sequential, sharded, streaming pipeline and cooperative
//! async — under random fault plans produces **bit-identical** results
//! to the sequential reference, for any shard count, worker count,
//! channel capacity, message batch size and in-flight budget. Probes
//! derive all randomness (including their virtual latency) from stable
//! keys, and every backend folds in item order, so scheduling cannot
//! leak into results.
//!
//! The campaigns run through the range dispatch the CLI and the
//! supervisor use, in chunks of a drawn size, so chunk boundaries are
//! exercised too. Properties that read the async executor's own stats
//! (the in-flight high water, stall starvation) call [`AsyncExecutor`]
//! directly on the public per-domain scan kernel; the streaming
//! pipeline's message accounting is checked in `pipeline_equivalence.rs`.
//!
//! `MINEDIG_FAULT_SEED` offsets every fault-plan seed and
//! `MINEDIG_CONCURRENCY` sets the study's async in-flight budget: the
//! CI matrix axes re-prove every property under a different schedule
//! and budget per job.

use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::scan::{
    build_reference_db, chrome_scan, chrome_scan_with, crawl_latency_ms, zgrab_fold,
    zgrab_probe_domain, zgrab_scan_with, FetchModel, ZgrabProbeCtx, ZgrabScanOutcome,
};
use minedig::core::shortlink_study::{run_study, run_study_supervised, StudyConfig};
use minedig::nocoin::NoCoinEngine;
use minedig::primitives::aexec::{AsyncExecutor, AsyncRun, DEFAULT_CONCURRENCY};
use minedig::primitives::ckpt::SnapshotStore;
use minedig::primitives::fault::{FaultConfig, FaultPlan, FAULT_SEED_ENV};
use minedig::primitives::par::ParallelExecutor;
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

fn zone(ix: u8) -> Zone {
    match ix % 4 {
        0 => Zone::Alexa,
        1 => Zone::Com,
        2 => Zone::Net,
        _ => Zone::Org,
    }
}

fn db() -> &'static SignatureDb {
    static DB: OnceLock<SignatureDb> = OnceLock::new();
    DB.get_or_init(|| build_reference_db(0.7))
}

/// A mixed fault plan: half the operations fault, some permanently, of
/// every kind. Delay stays in: on the async backend it is the kind that
/// stretches a fetch's virtual latency and so reorders completions,
/// which these properties prove harmless.
fn mixed_plan(offset: u64, permanent: f64) -> FaultPlan {
    FaultPlan::with_config(
        base_seed().wrapping_add(offset),
        FaultConfig {
            fault_prob: 0.5,
            permanent_prob: permanent,
            ..FaultConfig::default()
        },
    )
}

const CAPACITIES: [usize; 4] = [1, 4, 64, 256];

/// Batch sizes spanning the degenerate (1 item per message), awkward
/// (primes that never divide the workload), and coarse (more than the
/// whole workload in one message) regimes.
const BATCHES: [usize; 5] = [1, 2, 3, 16, 256];

/// One backend of each kind, with drawn shard count, streaming workers,
/// capacity and batch, and async in-flight budget.
fn backends() -> impl Strategy<Value = [Backend; 4]> {
    (
        1usize..=8,
        1usize..=16,
        0usize..CAPACITIES.len(),
        0usize..BATCHES.len(),
        1usize..=256,
    )
        .prop_map(|(shards, workers, cap, batch, concurrency)| {
            [
                Backend::Sequential,
                Backend::Sharded(shards),
                Backend::Streaming {
                    workers,
                    capacity: CAPACITIES[cap],
                    batch: BATCHES[batch],
                },
                Backend::Async { concurrency },
            ]
        })
}

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

/// The zgrab scan on `aexec` directly, each fetch awaiting its virtual
/// latency, for the async executor's own stats.
fn zgrab_async(
    pop: &Population,
    seed: u64,
    model: &FetchModel,
    aexec: &AsyncExecutor,
) -> AsyncRun<ZgrabScanOutcome> {
    let engine = NoCoinEngine::new();
    let ctx = ZgrabProbeCtx {
        seed,
        model,
        engine: &engine,
    };
    let ctx = &ctx;
    let mut run = aexec.run_ordered(
        scan_order(pop),
        |actx, (d, clean)| {
            let delay = crawl_latency_ms(model, &d.name);
            async move {
                actx.sleep_ms(delay).await;
                (zgrab_probe_domain(ctx, d), clean)
            }
        },
        ZgrabScanOutcome::empty(pop.zone),
        |acc, (verdict, clean)| {
            zgrab_fold(acc, verdict, clean);
            ControlFlow::Continue(())
        },
    );
    run.outcome.total_domains = pop.total;
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // zgrab: every backend ≡ sequential under mixed (clearing +
    // permanent) chaos.
    #[test]
    fn async_zgrab_equals_every_other_backend(
        seed in 0u64..1_000_000,
        zone_ix in 0u8..4,
        clean in 0usize..150,
        fault_off in 0u64..1_000,
        permanent in 0.0f64..0.9,
        backends in backends(),
        chunk in 64u64..4_096,
    ) {
        let pop = Population::generate(zone(zone_ix), seed, clean);
        let model = FetchModel::outlasting(mixed_plan(fault_off, permanent));
        let sequential = zgrab_scan_with(&pop, seed, &model);
        for backend in backends {
            let out = run_chunked(ZgrabCampaign::new(&pop, seed, &model, backend), chunk);
            prop_assert_eq!(&out, &sequential, "backend={:?}", backend);
        }
    }

    // The ID-space walk with accounted resolution riding on it: every
    // backend yields the sequential enumerate-then-resolve ledgers, and
    // the windowed sharded walk (the unsupervised study's) agrees, under
    // transport faults keyed by link code.
    #[test]
    fn async_enumerate_equals_every_other_backend(
        links in 100u64..2_000,
        users in 10usize..200,
        seed in 0u64..1_000_000,
        fault_off in 0u64..1_000,
        permanent in 0.0f64..0.5,
        limit in 1u64..96,
        budget in 256u64..20_000,
        backends in backends(),
        chunk in 16u64..512,
    ) {
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: links,
            users,
            seed,
        }));
        let plan = mixed_plan(fault_off, permanent);
        let prober = FaultyProber::new(&service, plan.clone());
        let policy = ProbePolicy::outlasting(&plan);
        let sequential = enumerate_links_with(&prober, limit, &policy);
        let codes: Vec<String> = sequential.docs.iter().map(|d| d.code.clone()).collect();
        let resolved = resolve_accounted(&service, &codes, budget);
        for backend in backends {
            let campaign = EnumCampaign::new(&prober, &policy, limit, backend)
                .with_resolver(&service, budget);
            let out = run_chunked(campaign, chunk);
            let e = &out.enumeration;
            prop_assert_eq!(&e.docs, &sequential.docs, "backend={:?}", backend);
            prop_assert_eq!(e.probed, sequential.probed);
            prop_assert_eq!(e.failed_probes, sequential.failed_probes);
            prop_assert_eq!(e.probe_retries, sequential.probe_retries);
            let r = &out.resolve_report;
            prop_assert_eq!(&r.resolved, &resolved.resolved, "backend={:?}", backend);
            prop_assert_eq!(r.hashes_spent, resolved.hashes_spent);
            prop_assert_eq!(r.skipped_over_budget, resolved.skipped_over_budget);
        }
        let Backend::Sharded(shards) = backends[1] else {
            unreachable!("backends() puts the sharded backend second");
        };
        let windowed =
            enumerate_links_windowed_with(&prober, limit, &ParallelExecutor::new(shards), 7, &policy);
        prop_assert_eq!(&windowed.enumeration.docs, &sequential.docs);
        prop_assert_eq!(windowed.enumeration.probed, sequential.probed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The chrome pipeline (Alexa/.org only, matching §3.2's coverage)
    // with a shared fingerprint memo: clearing faults cost nothing but
    // retries, and every backend ≡ the faulty sequential scan.
    #[test]
    fn async_chrome_equals_sequential_under_faults(
        seed in 0u64..1_000_000,
        alexa in any::<bool>(),
        clean in 0usize..80,
        fault_off in 0u64..1_000,
        prob in 0.1f64..0.9,
        backends in backends(),
        chunk in 64u64..4_096,
    ) {
        let z = if alexa { Zone::Alexa } else { Zone::Org };
        let pop = Population::generate(z, seed, clean);
        let plan = FaultPlan::transient_only(base_seed().wrapping_add(fault_off), prob);
        let model = FetchModel::outlasting(plan);
        let reference = chrome_scan(&pop, db(), seed);
        let faulty = chrome_scan_with(&pop, db(), seed, &model);
        let mut normalized = faulty.clone();
        normalized.fetch.retries = 0;
        prop_assert_eq!(&normalized, &reference);
        let cache = FingerprintCache::new();
        for backend in backends {
            let campaign = ChromeCampaign::new(&pop, db(), seed, &model, Some(&cache), backend);
            prop_assert_eq!(&run_chunked(campaign, chunk), &faulty, "backend={:?}", backend);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // The full §4.1 study, walked and tail-resolved as one campaign on
    // every backend (async at the CI matrix's MINEDIG_CONCURRENCY,
    // default 256), equals the batch study. The cadence never comes due,
    // so each walk is one unbounded `run_items` call.
    #[test]
    fn async_study_matches_batch_at_env_concurrency(
        links in 1_000u64..4_000,
        study_seed in 0u64..1_000_000,
        backends in backends(),
    ) {
        let config = StudyConfig {
            model: ModelConfig {
                total_links: links,
                users: (links as usize / 12).max(20),
                seed: study_seed.wrapping_add(base_seed()),
            },
            per_user_sample: 50,
            ..StudyConfig::default()
        };
        let batch = run_study(&config, study_seed);
        let concurrency = AsyncExecutor::from_env().concurrency();
        let supervisor = Supervisor::new(CrashPolicy {
            ckpt_every_items: u64::MAX,
            ..CrashPolicy::default()
        });
        let dir = std::env::temp_dir().join(format!("minedig-equiv-study-{}", std::process::id()));
        for backend in backends.map(|b| match b {
            Backend::Async { .. } => Backend::Async { concurrency },
            other => other,
        }) {
            let _ = std::fs::remove_dir_all(&dir);
            let store = SnapshotStore::open(&dir).expect("open store");
            let run = run_study_supervised(&config, study_seed, &store, "study", &supervisor, backend, false)
                .expect("supervised study");
            let s = &run.result;
            prop_assert_eq!(s.enumeration.probed, batch.enumeration.probed, "backend={:?}", backend);
            prop_assert_eq!(&s.enumeration.docs, &batch.enumeration.docs);
            prop_assert_eq!(&s.links_per_token, &batch.links_per_token);
            prop_assert_eq!(s.hashes_spent, batch.hashes_spent);
            prop_assert_eq!(&s.top10_domains, &batch.top10_domains);
            prop_assert_eq!(&s.tail_categories, &batch.tail_categories);
            prop_assert_eq!(run.report.checkpoints, 1, "only the final snapshot");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// A stalling fault schedule must starve no task: every spawned fetch
// completes (stalls surface as virtual latency the timer wheel skips
// over, costing no wall time), and the outcome still matches the
// sequential run bit for bit.
#[test]
fn stalling_faults_starve_no_task() {
    let pop = Population::generate(Zone::Org, 7, 100);
    // All faults are stalls, none permanent: every fetch eventually
    // lands after its stall windows.
    let plan = FaultPlan::with_config(
        base_seed().wrapping_add(0xA11),
        FaultConfig {
            fault_prob: 0.8,
            permanent_prob: 0.0,
            // Only Stall carries weight (kinds: Drop, Delay,
            // Disconnect, Garble, Stall).
            kind_weights: [0.0, 0.0, 0.0, 0.0, 1.0],
            ..FaultConfig::default()
        },
    );
    let model = FetchModel::outlasting(plan);
    let sequential = zgrab_scan_with(&pop, 7, &model);
    let run = zgrab_async(&pop, 7, &model, &AsyncExecutor::new(64));
    assert_eq!(run.outcome, sequential);
    let total = (pop.artifacts.len() + pop.clean_sample.len()) as u64;
    assert_eq!(run.stats.completed, total, "no task may starve");
    assert_eq!(run.stats.tasks, total);
    assert!(
        run.stats.timer_fires >= total,
        "every fetch slept at least once"
    );
    assert!(
        run.stats.virtual_ms >= minedig::core::scan::STALL_LATENCY_MS,
        "stalls must surface as virtual latency"
    );
}

// The in-flight high water at the default budget exceeds the machine's
// core count: concurrency is an I/O property, not a CPU property.
#[test]
fn default_concurrency_outstrips_core_count() {
    let pop = Population::generate(Zone::Org, 42, 400);
    let aexec = AsyncExecutor::new(DEFAULT_CONCURRENCY);
    let run = zgrab_async(&pop, 42, &FetchModel::default(), &aexec);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    assert!(
        run.stats.in_flight_high_water > cores,
        "high water {} must exceed {} cores",
        run.stats.in_flight_high_water,
        cores
    );
    assert_eq!(run.stats.in_flight_high_water, DEFAULT_CONCURRENCY as u64);
}
