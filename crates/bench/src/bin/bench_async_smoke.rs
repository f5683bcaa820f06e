//! Smoke-sized concurrency sweep of the cooperative async backend,
//! writing concurrency→wall-time to `BENCH_async.json` (override with
//! `MINEDIG_BENCH_OUT`).
//!
//! Every row runs through the same dispatch as the CLI: the scans
//! through `zgrab_scan_range`/`chrome_scan_range` over the whole
//! population, the §4.1 study through its supervised walk with a cadence
//! that saves only the final snapshot. Outcomes are identical across
//! concurrency levels by construction — every workload folds through the
//! executor's reorder buffer — so only the timings vary. Simulated
//! network latency is virtual: the timer wheel skips over it instead of
//! sleeping through, which is why the budget can be hundreds of tasks on
//! a single thread. Every time is the median of five runs.

use minedig_bench::{env_u64, median_secs};
use minedig_core::exec::{chrome_scan_range, zgrab_scan_range};
use minedig_core::scan::{build_reference_db, FetchModel};
use minedig_core::shortlink_study::{run_study_supervised, StudyConfig};
use minedig_primitives::ckpt::SnapshotStore;
use minedig_primitives::supervise::{Backend, CrashPolicy, Supervisor};
use minedig_shortlink::model::ModelConfig;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;

const CONCURRENCY_LEVELS: [usize; 4] = [1, 16, 64, 256];

struct Workload {
    name: &'static str,
    items: u64,
    /// Median seconds, one per entry of [`CONCURRENCY_LEVELS`].
    secs: Vec<f64>,
}

/// Median seconds of `run` at every concurrency level.
fn sweep<T>(mut run: impl FnMut(Backend) -> T) -> Vec<f64> {
    CONCURRENCY_LEVELS
        .iter()
        .map(|&concurrency| median_secs(|| run(Backend::Async { concurrency })).1)
        .collect()
}

fn main() {
    let seed = env_u64("MINEDIG_SEED", 2018);
    let mut workloads = Vec::new();

    // §3.1: zgrab fetch → NoCoin match as cooperative tasks.
    let population = Population::generate(Zone::Org, seed, 20_000);
    let domains = population.artifacts.len() + population.clean_sample.len();
    let model = FetchModel::default();
    workloads.push(Workload {
        name: "zgrab_scan",
        items: domains as u64,
        secs: sweep(|backend| zgrab_scan_range(&population, 0..domains, seed, &model, &backend)),
    });

    // §3.2: chrome load → Wasm fingerprint on the same fan-out.
    let db = build_reference_db(0.7);
    workloads.push(Workload {
        name: "chrome_scan",
        items: domains as u64,
        secs: sweep(|backend| {
            chrome_scan_range(&population, 0..domains, &db, seed, &model, None, &backend)
        }),
    });

    // §4.1: the enumerate→resolve study over the async walk.
    let config = StudyConfig {
        model: ModelConfig {
            total_links: 120_000,
            users: 8_000,
            seed,
        },
        ..StudyConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("minedig-bench-async-{}", std::process::id()));
    let supervisor = Supervisor::new(CrashPolicy {
        ckpt_every_items: u64::MAX,
        ..CrashPolicy::default()
    });
    let mut items = 0;
    let secs = sweep(|backend| {
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).expect("open snapshot store");
        let run = run_study_supervised(&config, seed, &store, "study", &supervisor, backend, false)
            .expect("supervised study");
        items = run.result.enumeration.probed;
    });
    let _ = std::fs::remove_dir_all(&dir);
    workloads.push(Workload {
        name: "enumerate_resolve",
        items,
        secs,
    });

    // Human summary…
    for w in &workloads {
        println!("{} ({} items):", w.name, w.items);
        for (concurrency, secs) in CONCURRENCY_LEVELS.iter().zip(&w.secs) {
            println!(
                "  {concurrency} in flight: {secs:.3}s (vs 1 in flight {:.2}x)",
                w.secs[0] / secs.max(1e-9),
            );
        }
    }

    // …and the machine-readable map.
    let mut json = String::from("{\n  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        let runs: Vec<String> = CONCURRENCY_LEVELS
            .iter()
            .zip(&w.secs)
            .map(|(concurrency, secs)| {
                format!("{{\"concurrency\": {concurrency}, \"secs\": {secs:.6}}}")
            })
            .collect();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"items\": {}, \"runs\": [{}]}}{}\n",
            w.name,
            w.items,
            runs.join(", "),
            if i + 1 == workloads.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("MINEDIG_BENCH_OUT").unwrap_or_else(|_| "BENCH_async.json".into());
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
