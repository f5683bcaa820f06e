//! Smoke-sized scaling run of the three sharded workloads (zone scan,
//! shortlink enumeration, endpoint polling), writing a shards→wall-time
//! map to `BENCH_parallel.json` (override with `MINEDIG_BENCH_OUT`).
//!
//! This is the CI-friendly complement to the criterion benches: the
//! median of five timed passes per shard count, small populations,
//! machine-readable output. Outcomes are identical across shard counts
//! by construction, so only the timings vary.

use minedig_analysis::poller::Observer;
use minedig_bench::{env_u64, median_secs};
use minedig_chain::netsim::TipInfo;
use minedig_chain::tx::Transaction;
use minedig_core::exec::ScanExecutor;
use minedig_pool::pool::{Pool, PoolConfig};
use minedig_primitives::par::ParallelExecutor;
use minedig_primitives::Hash32;
use minedig_shortlink::enumerate::enumerate_links_sharded;
use minedig_shortlink::model::{LinkPopulation, ModelConfig};
use minedig_shortlink::service::ShortlinkService;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    name: &'static str,
    items: u64,
    /// (shards, wall seconds), one entry per shard count.
    runs: Vec<(usize, f64)>,
}

fn main() {
    let seed = env_u64("MINEDIG_SEED", 2018);
    let mut workloads = Vec::new();

    // §3: zgrab + NoCoin over a .org-shaped population.
    let population = Population::generate(Zone::Org, seed, 20_000);
    let domains = (population.artifacts.len() + population.clean_sample.len()) as u64;
    let mut runs = Vec::new();
    for shards in SHARD_COUNTS {
        let executor = ScanExecutor::new(shards);
        runs.push((shards, median_secs(|| executor.zgrab(&population, seed)).1));
    }
    workloads.push(Workload {
        name: "zgrab_scan",
        items: domains,
        runs,
    });

    // §4.1: shortlink ID-space enumeration.
    let dead_run_limit = 256u64;
    let links = 50_000u64;
    let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
        total_links: links,
        users: 4_000,
        seed,
    }));
    let mut runs = Vec::new();
    for shards in SHARD_COUNTS {
        let executor = ParallelExecutor::new(shards);
        runs.push((
            shards,
            median_secs(|| enumerate_links_sharded(&service, dead_run_limit, &executor)).1,
        ));
    }
    workloads.push(Workload {
        name: "enumerate_links",
        items: links + dead_run_limit,
        runs,
    });

    // §4.2: endpoint polling across a template window.
    let pool = Pool::new(PoolConfig::default());
    pool.announce_tip(&TipInfo {
        height: 10,
        prev_id: Hash32::keccak(b"smoke-prev"),
        prev_timestamp: 1_000,
        reward: 1_000_000,
        difficulty: 100,
        mempool: vec![Transaction::transfer(Hash32::keccak(b"smoke-tx"))],
    });
    let sweep: Vec<u64> = (1_000..1_150).step_by(5).collect();
    let polls = 20 * sweep.len() as u64 * pool.endpoint_count() as u64;
    let mut runs = Vec::new();
    for shards in SHARD_COUNTS {
        let executor = ParallelExecutor::new(shards);
        runs.push((
            shards,
            median_secs(|| {
                (0..20)
                    .map(|_| {
                        let mut obs = Observer::new(pool.clone(), true);
                        for &t in &sweep {
                            obs.poll_all_sharded(t, &executor);
                        }
                        obs.stats().answered
                    })
                    .sum::<u64>()
            })
            .1,
        ));
    }
    workloads.push(Workload {
        name: "poll_all",
        items: polls,
        runs,
    });

    // Human summary…
    for w in &workloads {
        println!("{} ({} items):", w.name, w.items);
        let base = w.runs[0].1;
        for &(shards, secs) in &w.runs {
            println!(
                "  {shards} shard{}: {secs:.3}s (speedup {:.2}x)",
                if shards == 1 { "" } else { "s" },
                base / secs.max(1e-9)
            );
        }
    }

    // …and the machine-readable map.
    let mut json = String::from("{\n  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"items\": {}, \"runs\": [",
            w.name, w.items
        ));
        for (j, &(shards, secs)) in w.runs.iter().enumerate() {
            json.push_str(&format!(
                "{{\"shards\": {shards}, \"secs\": {secs:.6}}}{}",
                if j + 1 == w.runs.len() { "" } else { ", " }
            ));
        }
        json.push_str(&format!(
            "]}}{}\n",
            if i + 1 == workloads.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("MINEDIG_BENCH_OUT").unwrap_or_else(|_| "BENCH_parallel.json".into());
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
