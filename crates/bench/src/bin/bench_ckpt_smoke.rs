//! Smoke-sized checkpoint-overhead sweep, writing per-workload
//! wall-time plus supervision counters to `BENCH_checkpoint.json`
//! (override with `MINEDIG_BENCH_OUT`).
//!
//! Each workload runs unsupervised (the overhead baseline), then
//! supervised at several checkpoint cadences with two simulated kills
//! injected — so the recorded times include snapshot encoding, the
//! appended records and new-base rewrites, restore-on-restart, and the
//! redone tail items. Every time is the median of five runs, each
//! supervised run into a freshly emptied snapshot directory.
//! Every supervised outcome is asserted bit-identical to the baseline
//! before its row is emitted: a bench that drifted from the
//! correctness contract would be measuring the wrong thing.
//!
//! The headline ratio is `secs` at cadence 64 (the CLI default) vs the
//! unsupervised row. What the sweep pins down is the per-checkpoint
//! cost (divide the delta by `checkpoints`) and how it scales with the
//! state: `bytes_written` sums every save, `snapshot_bytes` is what
//! the last save wrote. The scan rewrites its snapshot from the front,
//! so each save costs a whole snapshot; the enumeration's event stream
//! grows at its end, so a save appends only the new events. Every
//! count in a row is deterministic, and `bench_check` gates them
//! exactly.

use minedig_bench::{env_u64, median_secs};
use minedig_core::campaign::ZgrabCampaign;
use minedig_core::scan::{zgrab_scan_with, FetchModel};
use minedig_core::shortlink_study::{run_study, run_study_supervised, StudyConfig};
use minedig_primitives::ckpt::SnapshotStore;
use minedig_primitives::supervise::{Backend, CrashPolicy, Supervisor};
use minedig_shortlink::model::ModelConfig;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;

const CADENCES: [u64; 3] = [16, 64, 256];

struct Row {
    /// Checkpoint every this many items; 0 = unsupervised baseline.
    every: u64,
    secs: f64,
    checkpoints: u64,
    snapshot_bytes: u64,
    bytes_written: u64,
    crashes: u64,
    items_redone: u64,
}

struct Workload {
    name: &'static str,
    items: u64,
    rows: Vec<Row>,
}

fn dir_for(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("minedig-bench-ckpt-{tag}-{}", std::process::id()))
}

/// A snapshot store over a freshly emptied directory.
fn fresh_store(tag: &str) -> SnapshotStore {
    let dir = dir_for(tag);
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::open(&dir).expect("open snapshot store")
}

fn main() {
    let seed = env_u64("MINEDIG_SEED", 2018);
    let mut workloads = Vec::new();

    // §3.1 scan: per-domain fetch → NoCoin verdicts under supervision.
    let population = Population::generate(Zone::Org, seed, 20_000);
    let items = (population.artifacts.len() + population.clean_sample.len()) as u64;
    let model = FetchModel::default();
    let kills = vec![items / 3, (2 * items) / 3];

    let (baseline, secs) = median_secs(|| zgrab_scan_with(&population, seed, &model));
    let mut rows = vec![Row {
        every: 0,
        secs,
        checkpoints: 0,
        snapshot_bytes: 0,
        bytes_written: 0,
        crashes: 0,
        items_redone: 0,
    }];
    for every in CADENCES {
        let sup = Supervisor::new(CrashPolicy {
            ckpt_every_items: every,
            ..CrashPolicy::default()
        })
        .with_kills(kills.clone());
        let tag = format!("zgrab-{every}");
        let (run, secs) = median_secs(|| {
            let store = fresh_store(&tag);
            sup.run(
                &store,
                "zgrab",
                || ZgrabCampaign::new(&population, seed, &model, Backend::Sequential),
                false,
            )
            .expect("supervised zgrab")
        });
        assert_eq!(run.output, baseline, "supervised scan drifted");
        rows.push(Row {
            every,
            secs,
            checkpoints: run.report.checkpoints,
            snapshot_bytes: run.report.snapshot_bytes,
            bytes_written: run.report.bytes_written,
            crashes: u64::from(run.report.crashes),
            items_redone: run.report.items_lost,
        });
        let _ = std::fs::remove_dir_all(dir_for(&tag));
    }
    workloads.push(Workload {
        name: "zgrab_scan",
        items,
        rows,
    });

    // §4.1 study: the enumeration walk supervised, with the tail
    // resolve riding on it. Smaller than the async smoke's study: the
    // snapshot carries the whole ledger, so it grows with the walk, and
    // the sweep shows whether a save costs the state or only the events
    // since the last one.
    let config = StudyConfig {
        model: ModelConfig {
            total_links: 40_000,
            users: 3_000,
            seed,
        },
        ..StudyConfig::default()
    };
    let (reference, secs) = median_secs(|| run_study(&config, seed));
    let probed = reference.enumeration.probed;
    let study_kills = vec![probed / 3, (2 * probed) / 3];
    let mut rows = vec![Row {
        every: 0,
        secs,
        checkpoints: 0,
        snapshot_bytes: 0,
        bytes_written: 0,
        crashes: 0,
        items_redone: 0,
    }];
    for every in CADENCES {
        let sup = Supervisor::new(CrashPolicy {
            ckpt_every_items: every,
            ..CrashPolicy::default()
        })
        .with_kills(study_kills.clone());
        let tag = format!("study-{every}");
        let (run, secs) = median_secs(|| {
            let store = fresh_store(&tag);
            run_study_supervised(
                &config,
                seed,
                &store,
                "enum",
                &sup,
                Backend::Sequential,
                false,
            )
            .expect("supervised study")
        });
        assert_eq!(
            run.result.enumeration.probed, reference.enumeration.probed,
            "supervised study drifted"
        );
        assert_eq!(
            run.result.links_per_token, reference.links_per_token,
            "supervised study drifted"
        );
        assert_eq!(
            run.result.hashes_spent, reference.hashes_spent,
            "supervised study drifted"
        );
        rows.push(Row {
            every,
            secs,
            checkpoints: run.report.checkpoints,
            snapshot_bytes: run.report.snapshot_bytes,
            bytes_written: run.report.bytes_written,
            crashes: u64::from(run.report.crashes),
            items_redone: run.report.items_lost,
        });
        let _ = std::fs::remove_dir_all(dir_for(&tag));
    }
    workloads.push(Workload {
        name: "enumerate_resolve",
        items: probed,
        rows,
    });

    // Human summary…
    for w in &workloads {
        println!("{} ({} items):", w.name, w.items);
        let base = w.rows[0].secs;
        for r in &w.rows {
            if r.every == 0 {
                println!("  unsupervised: {:.3}s", r.secs);
            } else {
                println!(
                    "  every {:>3}: {:.3}s ({:+.1}% vs unsupervised), {} ckpts, \
                     {} bytes written ({} by the last), {} crashes, {} items redone",
                    r.every,
                    r.secs,
                    (r.secs / base.max(1e-9) - 1.0) * 100.0,
                    r.checkpoints,
                    r.bytes_written,
                    r.snapshot_bytes,
                    r.crashes,
                    r.items_redone,
                );
            }
        }
    }

    // …and the machine-readable map.
    let mut json = String::from("{\n  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"items\": {}, \"runs\": [",
            w.name, w.items
        ));
        for (j, r) in w.rows.iter().enumerate() {
            json.push_str(&format!(
                "{{\"every\": {}, \"secs\": {:.6}, \"checkpoints\": {}, \
                 \"snapshot_bytes\": {}, \"bytes_written\": {}, \"crashes\": {}, \
                 \"items_redone\": {}}}{}",
                r.every,
                r.secs,
                r.checkpoints,
                r.snapshot_bytes,
                r.bytes_written,
                r.crashes,
                r.items_redone,
                if j + 1 == w.rows.len() { "" } else { ", " }
            ));
        }
        json.push_str(&format!(
            "]}}{}\n",
            if i + 1 == workloads.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("MINEDIG_BENCH_OUT").unwrap_or_else(|_| "BENCH_checkpoint.json".into());
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
