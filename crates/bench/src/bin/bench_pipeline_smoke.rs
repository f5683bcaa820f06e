//! Smoke-sized barrier-vs-streaming comparison of the pipelined
//! workloads, writing wall-clock and fingerprint-memo hit rates to
//! `BENCH_pipeline.json` (override with `MINEDIG_BENCH_OUT`), plus a
//! channel-hop batch sweep of the pipeline itself.
//!
//! "Barrier" means the sharded executor: each shard scans its chunk to
//! completion before the merge. "Streaming" pushes every item through
//! all stages as it arrives, so stage N+1 begins while stage N is still
//! producing. Every scan row, barrier included, runs through the same
//! range dispatch (`zgrab_scan_range`/`chrome_scan_range`) over the
//! whole population, and every Chrome run gets a fresh fingerprint memo,
//! so no row starts warm. The shortlink barrier is the batch study
//! (enumerate everything, then resolve); its streaming rows run the
//! supervised study, whose walk resolves the tail as it folds, with a
//! cadence that saves only the final snapshot. Outcomes are
//! bit-identical by construction, so only the timings differ. Every
//! time is the median of five runs.

use minedig_bench::{env_u64, median_secs};
use minedig_core::exec::{chrome_scan_range, zgrab_scan_range};
use minedig_core::scan::{build_reference_db, FetchModel};
use minedig_core::shortlink_study::{run_study, run_study_supervised, StudyConfig};
use minedig_primitives::ckpt::SnapshotStore;
use minedig_primitives::pipeline::{PipelineExecutor, PipelineStage};
use minedig_primitives::supervise::{Backend, CrashPolicy, Supervisor};
use minedig_shortlink::model::ModelConfig;
use minedig_wasm::cache::FingerprintCache;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;
use std::ops::ControlFlow;

const WORKER_COUNTS: [usize; 3] = [2, 4, 8];
const CAPACITY: usize = 128;
/// Shards of the barrier scans.
const BARRIER_SHARDS: usize = 8;

/// Batch sizes for the channel-hop amortization sweep.
const SWEEP_BATCHES: [usize; 4] = [1, 8, 64, 256];
/// Items in the sweep — enough that per-message overhead dominates a
/// deliberately tiny kernel.
const SWEEP_ITEMS: u64 = 100_000;

/// A near-free stage: the sweep measures the channel hop, not the work.
struct HopStage;

impl PipelineStage for HopStage {
    type In = u64;
    type Out = u64;
    type Scratch = ();

    fn scratch(&self) {}

    fn process(&self, i: u64, _scratch: &mut ()) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
    }
}

struct SweepRun {
    batch: usize,
    secs: f64,
    messages: u64,
    items_per_message: f64,
    hop_ms_saved: f64,
}

/// One timed configuration; `hit_rate` is the fingerprint memo's, for
/// the Chrome rows.
struct Row {
    secs: f64,
    hit_rate: Option<f64>,
}

struct Workload {
    name: &'static str,
    items: u64,
    /// Shards of the barrier run.
    barrier_shards: usize,
    barrier: Row,
    /// One row per entry of [`WORKER_COUNTS`].
    streaming: Vec<Row>,
}

/// The streaming backend at `workers` with the pipeline's auto batch.
fn streaming(workers: usize) -> Backend {
    Backend::Streaming {
        workers,
        capacity: CAPACITY,
        batch: PipelineExecutor::new(workers, CAPACITY).batch(),
    }
}

fn main() {
    let seed = env_u64("MINEDIG_SEED", 2018);
    let mut workloads = Vec::new();

    // §3.1: zgrab fetch → NoCoin match, single processing stage.
    let population = Population::generate(Zone::Com, seed, 60_000);
    let domains = population.artifacts.len() + population.clean_sample.len();
    let model = FetchModel::default();
    let zgrab = |backend: Backend| Row {
        secs: median_secs(|| zgrab_scan_range(&population, 0..domains, seed, &model, &backend)).1,
        hit_rate: None,
    };
    workloads.push(Workload {
        name: "zgrab_scan",
        items: domains as u64,
        barrier_shards: BARRIER_SHARDS,
        barrier: zgrab(Backend::Sharded(BARRIER_SHARDS)),
        streaming: WORKER_COUNTS.map(|w| zgrab(streaming(w))).into(),
    });

    // §3.2: chrome fetch → Wasm fingerprint, two stages sharing a
    // content-addressed fingerprint memo that starts cold on every run.
    let db = build_reference_db(0.7);
    let chrome = |backend: Backend| {
        let ((_, cache), secs) = median_secs(|| {
            let cache = FingerprintCache::new();
            let range = 0..domains;
            let out = chrome_scan_range(
                &population,
                range,
                &db,
                seed,
                &model,
                Some(&cache),
                &backend,
            );
            (out, cache)
        });
        Row {
            secs,
            hit_rate: Some(cache.hit_rate()),
        }
    };
    workloads.push(Workload {
        name: "chrome_scan",
        items: domains as u64,
        barrier_shards: BARRIER_SHARDS,
        barrier: chrome(Backend::Sharded(BARRIER_SHARDS)),
        streaming: WORKER_COUNTS.map(|w| chrome(streaming(w))).into(),
    });

    // §4.1: shortlink enumerate → resolve. Barrier = the batch study
    // (enumerate everything, then resolve); the streaming walk resolves
    // each tail link as the fold reaches it.
    let config = StudyConfig {
        model: ModelConfig {
            total_links: 120_000,
            users: 8_000,
            seed,
        },
        ..StudyConfig::default()
    };
    let (batch, barrier_secs) = median_secs(|| run_study(&config, seed));
    let dir = std::env::temp_dir().join(format!("minedig-bench-pipe-{}", std::process::id()));
    let supervisor = Supervisor::new(CrashPolicy {
        ckpt_every_items: u64::MAX,
        ..CrashPolicy::default()
    });
    let study = |backend: Backend| {
        let (run, secs) = median_secs(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = SnapshotStore::open(&dir).expect("open snapshot store");
            run_study_supervised(&config, seed, &store, "study", &supervisor, backend, false)
                .expect("supervised study")
        });
        assert_eq!(run.result.enumeration.docs, batch.enumeration.docs);
        assert_eq!(run.result.hashes_spent, batch.hashes_spent);
        Row {
            secs,
            hit_rate: None,
        }
    };
    workloads.push(Workload {
        name: "enumerate_resolve",
        items: batch.enumeration.probed,
        barrier_shards: config.enum_shards,
        barrier: Row {
            secs: barrier_secs,
            hit_rate: None,
        },
        streaming: WORKER_COUNTS.map(|w| study(streaming(w))).into(),
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Channel-hop amortization: the same 100k-item walk through a
    // near-free stage at increasing batch sizes. Messages shrink ~1/batch
    // while the folded outcome is bit-identical (the sweep asserts it).
    let mut sweep = Vec::new();
    let mut reference = None;
    for batch in SWEEP_BATCHES {
        let pipe = PipelineExecutor::new(4, CAPACITY).with_batch(batch);
        let (run, secs) = median_secs(|| {
            pipe.run(0..SWEEP_ITEMS, &HopStage, 0u64, |acc, v| {
                *acc = acc.wrapping_add(v);
                ControlFlow::Continue(())
            })
        });
        let outcome = *reference.get_or_insert(run.outcome);
        assert_eq!(run.outcome, outcome, "batching changed the fold");
        sweep.push(SweepRun {
            batch,
            secs,
            messages: run.stats.messages,
            items_per_message: run.stats.items_per_message(),
            hop_ms_saved: run.stats.hop_ns_saved() as f64 / 1e6,
        });
    }

    // Human summary…
    let memo = |r: &Row| {
        r.hit_rate
            .map(|h| format!(", memo hit rate {:.1}%", h * 100.0))
            .unwrap_or_default()
    };
    for w in &workloads {
        println!("{} ({} items):", w.name, w.items);
        println!("  barrier: {:.3}s{}", w.barrier.secs, memo(&w.barrier));
        for (workers, r) in WORKER_COUNTS.iter().zip(&w.streaming) {
            println!("  streaming x{workers}: {:.3}s{}", r.secs, memo(r));
        }
    }
    println!("batch sweep ({SWEEP_ITEMS} items, 4 workers):");
    let base_messages = sweep[0].messages;
    for r in &sweep {
        println!(
            "  batch {:>3}: {:.3}s, {:>7} messages ({:.1}x fewer), {:.1} items/msg, ~{:.1}ms hop time saved",
            r.batch,
            r.secs,
            r.messages,
            base_messages as f64 / r.messages as f64,
            r.items_per_message,
            r.hop_ms_saved,
        );
    }

    // …and the machine-readable map.
    let row = |key: &str, n: usize, r: &Row| {
        let hit = r.hit_rate.map(|h| format!(", \"hit_rate\": {h:.4}"));
        format!(
            "{{\"{key}\": {n}, \"secs\": {:.6}{}}}",
            r.secs,
            hit.unwrap_or_default()
        )
    };
    let mut json = String::from("{\n  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        let streaming: Vec<String> = WORKER_COUNTS
            .iter()
            .zip(&w.streaming)
            .map(|(&workers, r)| row("workers", workers, r))
            .collect();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"items\": {}, \"barrier\": {}, \"streaming\": [{}]}}{}\n",
            w.name,
            w.items,
            row("shards", w.barrier_shards, &w.barrier),
            streaming.join(", "),
            if i + 1 == workloads.len() { "" } else { "," }
        ));
    }
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "{{\"batch\": {}, \"secs\": {:.6}, \"messages\": {}, \"items_per_message\": {:.2}, \"hop_ms_saved\": {:.3}}}",
                r.batch, r.secs, r.messages, r.items_per_message, r.hop_ms_saved
            )
        })
        .collect();
    json.push_str(&format!(
        "  ],\n  \"batch_sweep\": {{\"items\": {}, \"workers\": 4, \"runs\": [{}]}}\n}}\n",
        SWEEP_ITEMS,
        sweep_json.join(", ")
    ));
    let out = std::env::var("MINEDIG_BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".into());
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
