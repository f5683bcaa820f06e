//! The `minedig` command-line tool: run the paper's measurements from a
//! terminal.
//!
//! ```text
//! minedig scan <alexa|com|net|org> [seed]   §3 pipelines on one zone
//! minedig attribute [days] [seed]           §4.2 block attribution
//! minedig shortlink [links] [seed]          §4.1 link-space study
//! minedig hashrate                          local CryptoNight throughput
//! ```
//!
//! `MINEDIG_STREAM=1 minedig shortlink …` runs the study through the
//! streaming pipeline (probes fan across `MINEDIG_SHARDS` workers while
//! a resolver thread consumes the unbiased tail as it is discovered) —
//! same outputs, overlapped wall-clock, plus pipeline stats.
//!
//! `MINEDIG_ASYNC=1` switches `scan` and `shortlink` to the cooperative
//! async backend instead: up to `MINEDIG_CONCURRENCY` fetches (default
//! 256) await their simulated network latency at once on a single
//! thread — same outputs for any concurrency, plus executor stats.
//!
//! `MINEDIG_CKPT_DIR=<dir>` runs `scan`, `attribute` and `shortlink`
//! supervised: progress checkpoints land in `<dir>` every
//! `MINEDIG_CKPT_EVERY` items (default 64; each appends what changed to
//! the snapshot's current generation, and the last `MINEDIG_CKPT_KEEP`
//! generations are retained), the Chrome scan's fingerprint memo persists
//! across runs, and `--resume` continues a killed campaign from its
//! latest snapshot — with results bit-identical to an uninterrupted
//! run.
//!
//! `MINEDIG_HEALTH=1 minedig attribute …` puts the §4.2 poller behind
//! the endpoint-health layer: per-endpoint circuit breakers quarantine
//! dead pools, EWMA latency trackers tighten deadlines, and slow
//! endpoints are hedged — with poll results bit-identical to the plain
//! run when no faults fire, and a breaker/hedge summary either way.

use minedig::analysis::economics::{pool_revenue, ExchangeRate};
use minedig::analysis::scenario::{run_scenario, run_scenario_supervised, ScenarioConfig};
use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::exec::{chrome_scan_async, zgrab_scan_async, ScanExecutor};
use minedig::core::report::{
    async_poll_summary, async_stats, checkpoint_summary, comparison_table, degradation_summary,
    fetch_stats, health_summary, pipeline_stats, scan_stats, CampaignHealth, Comparison,
};
use minedig::core::scan::{build_reference_db, FetchModel};
use minedig::core::shortlink_study::{
    run_study, run_study_async, run_study_streaming, run_study_supervised, StudyConfig, StudyResult,
};
use minedig::pow::hashrate::measure_hashrate;
use minedig::pow::Variant;
use minedig::primitives::aexec::AsyncExecutor;
use minedig::primitives::ckpt::SnapshotStore;
use minedig::primitives::fault::FaultPlan;
use minedig::primitives::health::{health_from_env, HealthConfig};
use minedig::primitives::par::ParallelExecutor;
use minedig::primitives::pipeline::PipelineExecutor;
use minedig::primitives::supervise::{Backend, CrashPolicy, Supervisor, CKPT_DIR_ENV};
use minedig::shortlink::model::ModelConfig;
use minedig::wasm::corpus::generate_corpus;
use minedig::wasm::{corpus_content_key, CacheWarmth, FingerprintCache};
use minedig::web::page::CORPUS_SEED;
use minedig::web::universe::Population;
use minedig::web::zone::Zone;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let resume = args.iter().any(|a| a == "--resume");
    args.retain(|a| a != "--resume");
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "scan" => cmd_scan(&args[1..], resume),
        "attribute" => cmd_attribute(&args[1..], resume),
        "shortlink" => cmd_shortlink(&args[1..], resume),
        "hashrate" => cmd_hashrate(),
        _ => {
            eprintln!(
                "minedig — reproduction of 'Digging into Browser-based Crypto Mining' (IMC'18)\n\n\
                 usage:\n  \
                 minedig scan <alexa|com|net|org> [seed] [--resume]\n  \
                 minedig attribute [days] [seed] [--resume]\n  \
                 minedig shortlink [links] [seed] [--resume]\n  \
                 minedig hashrate\n\n\
                 MINEDIG_CKPT_DIR=<dir> checkpoints scan/attribute/shortlink campaigns\n\
                 every MINEDIG_CKPT_EVERY items (default 64), retaining the last\n\
                 MINEDIG_CKPT_KEEP snapshot generations (default 2); --resume\n\
                 continues from the latest snapshot.\n\
                 MINEDIG_HEALTH=1 runs attribute behind the endpoint-health layer\n\
                 (circuit breakers, adaptive deadlines, hedged probes)."
            );
            std::process::exit(if cmd == "help" { 0 } else { 2 });
        }
    }
}

fn arg_u64(args: &[String], idx: usize, default: u64) -> u64 {
    args.get(idx)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The snapshot store named by `MINEDIG_CKPT_DIR`, when set.
fn ckpt_store() -> Option<SnapshotStore> {
    let dir = std::env::var(CKPT_DIR_ENV).ok()?;
    match SnapshotStore::open(&dir) {
        Ok(store) => Some(store),
        Err(e) => {
            eprintln!("cannot open checkpoint dir '{dir}': {e}");
            std::process::exit(2);
        }
    }
}

/// A supervisor with the env checkpoint cadence, drawing simulated
/// kills from the fault plan's crash stream when one is configured.
fn supervisor_from_env() -> Supervisor {
    let supervisor = Supervisor::new(CrashPolicy::from_env());
    match FaultPlan::from_env() {
        Some(plan) => supervisor.with_fault_plan(plan),
        None => supervisor,
    }
}

fn cmd_scan(args: &[String], resume: bool) {
    let zone = match args.first().map(String::as_str) {
        Some("alexa") => Zone::Alexa,
        Some("com") => Zone::Com,
        Some("net") => Zone::Net,
        Some("org") | None => Zone::Org,
        Some(other) => {
            eprintln!("unknown zone '{other}' (use alexa|com|net|org)");
            std::process::exit(2);
        }
    };
    let zone_tag = match zone {
        Zone::Alexa => "alexa",
        Zone::Com => "com",
        Zone::Net => "net",
        Zone::Org => "org",
    };
    let seed = arg_u64(args, 1, 2018);
    println!(
        "generating {} ({} domains, miners materialized exactly)…",
        zone.label(),
        zone.full_size()
    );
    let population = Population::generate(zone, seed, 500);
    println!(
        "ground truth: {} active miners\n",
        population.true_active_miners()
    );

    // MINEDIG_FAULT_SEED injects a reproducible transport fault
    // schedule; the retry budget outlasts its transient faults, so only
    // permanent ones surface (as unreachable counts).
    let model = match FaultPlan::from_env() {
        Some(plan) => {
            println!("fault injection on (seed {})", plan.seed());
            FetchModel::outlasting(plan)
        }
        None => FetchModel::default(),
    };

    // MINEDIG_CKPT_DIR runs the scan supervised: checkpointed, resumable
    // with --resume, and with a persistent fingerprint memo. Results are
    // bit-identical to the unsupervised path on every backend.
    if let Some(store) = ckpt_store() {
        supervised_scan(&store, zone, zone_tag, seed, &population, &model, resume);
        return;
    }

    // MINEDIG_ASYNC=1 fans fetches out as cooperative tasks on one
    // thread; otherwise the scan shards across MINEDIG_SHARDS workers
    // (default: all cores). Either way, outcomes are bit-identical to a
    // sequential scan.
    let async_exec = std::env::var("MINEDIG_ASYNC")
        .is_ok()
        .then(AsyncExecutor::from_env);
    let executor = ScanExecutor::from_env();
    let (zg, zg_stats) = match &async_exec {
        Some(aexec) => {
            let run = zgrab_scan_async(&population, seed, &model, aexec);
            (run.outcome, async_stats("zgrab", &run.stats))
        }
        None => {
            let run = executor.zgrab_with(&population, seed, &model);
            (run.outcome, scan_stats("zgrab", &run.stats))
        }
    };
    println!(
        "zgrab + NoCoin (TLS-only, 256 kB): {} domains flagged, 0 FPs on {} clean samples",
        zg.hit_domains, zg.clean_sample_size
    );
    print!("{zg_stats}");
    print!("{}", fetch_stats("zgrab fetches", &zg.fetch));

    let mut health = vec![CampaignHealth::from_fetch("zgrab", &zg.fetch)];

    if zone.chrome_scanned() {
        let db = build_reference_db(0.7);
        let (ch, ch_stats) = match &async_exec {
            Some(aexec) => {
                let run = chrome_scan_async(&population, &db, seed, &model, None, aexec);
                (run.outcome, async_stats("chrome", &run.stats))
            }
            None => {
                let run = executor.chrome_with(&population, &db, seed, &model);
                (run.outcome, scan_stats("chrome", &run.stats))
            }
        };
        print!("{ch_stats}");
        print!("{}", fetch_stats("chrome fetches", &ch.fetch));
        health.push(CampaignHealth::from_fetch("chrome", &ch.fetch));
        print_chrome_findings(&ch);
    } else {
        println!("(zone not part of the paper's Chrome measurement — §3.2 covers Alexa and .org)");
    }
    print!("{}", degradation_summary(&health));
}

fn print_chrome_findings(ch: &minedig::core::scan::ChromeScanOutcome) {
    let rows = vec![
        Comparison::new(
            "NoCoin hits (post-exec HTML)",
            0.0,
            ch.nocoin_domains as f64,
        ),
        Comparison::new("sites with Wasm", 0.0, ch.wasm_domains as f64),
        Comparison::new("miner-Wasm sites", 0.0, ch.miner_wasm_domains as f64),
        Comparison::new("  blocked by NoCoin", 0.0, ch.blocked_by_nocoin as f64),
        Comparison::new("  missed by NoCoin", 0.0, ch.missed_by_nocoin as f64),
    ];
    // Reuse the table renderer; the 'paper' column is not meaningful
    // for an ad-hoc zone/seed, so only print the measured side.
    let table = comparison_table("Chrome scan", &rows);
    for line in table.lines() {
        // Strip the paper/delta columns for the CLI view.
        println!("{}", line);
    }
    println!(
        "top classes: {:?}",
        ch.class_counts.iter().take(5).collect::<Vec<_>>()
    );
}

/// The checkpointed scan: both pipelines run as supervised campaigns,
/// the Chrome pass reuses a fingerprint memo persisted across runs, and
/// outcomes match the unsupervised path bit for bit.
fn supervised_scan(
    store: &SnapshotStore,
    zone: Zone,
    zone_tag: &str,
    seed: u64,
    population: &Population,
    model: &FetchModel,
    resume: bool,
) {
    let backend = Backend::from_env();
    let supervisor = supervisor_from_env();
    println!(
        "checkpointing to {} every {} items ({} backend){}",
        store.dir().display(),
        supervisor.policy().ckpt_every_items,
        backend.label(),
        if resume { ", resuming" } else { "" },
    );

    let name = format!("scan-zgrab-{zone_tag}-{seed}");
    let run = supervisor
        .run(
            store,
            &name,
            || ZgrabCampaign::new(population, seed, model, backend),
            resume,
        )
        .unwrap_or_else(|e| {
            eprintln!("zgrab campaign failed: {e}");
            std::process::exit(1);
        });
    let zg = run.output;
    print!("{}", checkpoint_summary("zgrab", &run.report));
    println!(
        "zgrab + NoCoin (TLS-only, 256 kB): {} domains flagged, 0 FPs on {} clean samples",
        zg.hit_domains, zg.clean_sample_size
    );
    print!("{}", fetch_stats("zgrab fetches", &zg.fetch));
    let mut health = vec![CampaignHealth::from_fetch("zgrab", &zg.fetch)];

    if zone.chrome_scanned() {
        let db = build_reference_db(0.7);
        // The fingerprint memo is content-addressed, so it persists
        // across runs keyed by the module universe it was built over.
        let corpus_key = corpus_content_key(&generate_corpus(CORPUS_SEED));
        let (cache, warmth) = FingerprintCache::load(store, "fingerprints", corpus_key)
            .unwrap_or_else(|e| {
                eprintln!("discarding unreadable fingerprint memo: {e}");
                (FingerprintCache::new(), CacheWarmth::Cold)
            });
        match warmth {
            CacheWarmth::Cold => println!("fingerprint memo: cold start"),
            CacheWarmth::Stale { found_key } => println!(
                "fingerprint memo: stale (corpus key {found_key:#x} ≠ {corpus_key:#x}), cold start"
            ),
            CacheWarmth::Warm { entries } => {
                println!("fingerprint memo: warm start, {entries} entries preloaded")
            }
        }

        let name = format!("scan-chrome-{zone_tag}-{seed}");
        let run = supervisor
            .run(
                store,
                &name,
                || ChromeCampaign::new(population, &db, seed, model, Some(&cache), backend),
                resume,
            )
            .unwrap_or_else(|e| {
                eprintln!("chrome campaign failed: {e}");
                std::process::exit(1);
            });
        let ch = run.output;
        print!("{}", checkpoint_summary("chrome", &run.report));
        print!("{}", fetch_stats("chrome fetches", &ch.fetch));
        health.push(CampaignHealth::from_fetch("chrome", &ch.fetch));
        print_chrome_findings(&ch);

        println!(
            "fingerprint memo: {} entries, hit rate {:.1}% ({:.1}% warm, {:.1}% cold)",
            cache.entries(),
            cache.hit_rate() * 100.0,
            cache.warm_hit_rate() * 100.0,
            (cache.hit_rate() - cache.warm_hit_rate()) * 100.0,
        );
        match cache.save(store, "fingerprints", corpus_key) {
            Ok(bytes) => println!("fingerprint memo persisted ({bytes} bytes)"),
            Err(e) => eprintln!("could not persist fingerprint memo: {e}"),
        }
    } else {
        println!("(zone not part of the paper's Chrome measurement — §3.2 covers Alexa and .org)");
    }
    print!("{}", degradation_summary(&health));
}

fn cmd_attribute(args: &[String], resume: bool) {
    let days = arg_u64(args, 0, 7);
    let seed = arg_u64(args, 1, 2018);
    // MINEDIG_SHARDS fans each poll sweep across endpoints;
    // MINEDIG_ASYNC=1 instead holds every endpoint's fetch in flight at
    // once on one thread. Results are identical to sequential polling
    // either way.
    let poll_shards = ParallelExecutor::from_env().shards();
    let async_exec = std::env::var("MINEDIG_ASYNC")
        .is_ok()
        .then(AsyncExecutor::from_env);
    match &async_exec {
        Some(aexec) => println!(
            "simulating {days} days of Monero with an instrumented Coinhive-style pool \
             (async polling, {} in flight)…",
            aexec.concurrency()
        ),
        None => println!(
            "simulating {days} days of Monero with an instrumented Coinhive-style pool \
             ({poll_shards}-shard polling)…"
        ),
    }
    let mut config = ScenarioConfig {
        duration_days: days,
        seed,
        poll_shards,
        poll_async: async_exec.as_ref().map(|a| a.concurrency()),
        ..ScenarioConfig::default()
    };
    if let Some(plan) = FaultPlan::from_env() {
        println!("fault injection on (seed {})", plan.seed());
        config.poll_retry =
            minedig::primitives::retry::RetryPolicy::attempts(plan.attempts_to_clear());
        config.poll_faults = Some(plan);
    }
    // MINEDIG_HEALTH=1 interposes the endpoint-health layer (circuit
    // breakers, adaptive deadlines, hedged probes) between the poller
    // and the pool endpoints; fault-free results are bit-identical to
    // the plain run.
    if health_from_env() {
        println!("endpoint health layer on (breakers + adaptive deadlines + hedging)");
        config.poll_health = Some(HealthConfig {
            seed,
            ..HealthConfig::default()
        });
    }
    let endpoints = (config.pool.backends * config.pool.endpoints_per_backend) as u64;
    // MINEDIG_CKPT_DIR runs the §4.2 poll loop supervised: one item =
    // one block event, checkpoints every MINEDIG_CKPT_EVERY events,
    // --resume continues from the latest snapshot — bit-identical to
    // the unsupervised scenario.
    let result = if let Some(store) = ckpt_store() {
        let supervisor = supervisor_from_env();
        println!(
            "checkpointing to {} every {} block events{}",
            store.dir().display(),
            supervisor.policy().ckpt_every_items,
            if resume { ", resuming" } else { "" },
        );
        let name = format!("attribute-{days}-{seed}");
        let run = run_scenario_supervised(&config, &store, &name, &supervisor, resume)
            .unwrap_or_else(|e| {
                eprintln!("attribution campaign failed: {e}");
                std::process::exit(1);
            });
        print!("{}", checkpoint_summary("attribute", &run.report));
        run.output
    } else {
        run_scenario(config)
    };
    let ps = &result.poll_stats;
    println!(
        "polls: {} issued, {} answered, {} offline, {} retries, {} endpoint-sweeps down, \
         {} quarantined, {} shed",
        ps.polls, ps.answered, ps.offline, ps.retries, ps.endpoints_down, ps.quarantined, ps.sheds
    );
    if let Some(stats) = &result.poll_health_stats {
        print!("{}", health_summary("pool health", stats));
    }
    if let Some(stats) = &result.poll_async_stats {
        let sweeps = stats.tasks / endpoints.max(1);
        print!(
            "{}",
            async_poll_summary("pool polling (async)", sweeps, stats)
        );
    }
    let share = result.attributed.len() as f64 / result.total_blocks.max(1) as f64;
    println!(
        "blocks: {} total, {} attributed to the pool ({:.2}%, paper: 1.18%)",
        result.total_blocks,
        result.attributed.len(),
        share * 100.0
    );
    println!(
        "recall {:.1}% / precision {}",
        result.recall() * 100.0,
        if result.precise() { "exact" } else { "BUG" }
    );
    let revenue = pool_revenue(&result.attributed, ExchangeRate::paper_writing_time(), 0.30);
    println!(
        "revenue: {:.1} XMR ≈ {:.0} USD gross, pool keeps {:.0} USD (30%)",
        revenue.xmr, revenue.usd_gross, revenue.usd_pool_cut
    );
    print!(
        "{}",
        degradation_summary(&[CampaignHealth::from_polls("pool polling", ps)])
    );
}

fn cmd_shortlink(args: &[String], resume: bool) {
    let links = arg_u64(args, 0, 50_000);
    let seed = arg_u64(args, 1, 2018);
    let enum_shards = ParallelExecutor::from_env().shards();
    let config = StudyConfig {
        model: ModelConfig {
            total_links: links,
            users: 12_000.min(links as usize / 4).max(100),
            seed,
        },
        enum_shards,
        ..StudyConfig::default()
    };
    let study: StudyResult = if let Some(store) = ckpt_store() {
        let backend = Backend::from_env();
        let supervisor = supervisor_from_env();
        println!(
            "generating {links} short links; supervised enumeration ({} backend), \
             checkpointing to {} every {} items{}…",
            backend.label(),
            store.dir().display(),
            supervisor.policy().ckpt_every_items,
            if resume { ", resuming" } else { "" },
        );
        let name = format!("shortlink-{links}-{seed}");
        let run = run_study_supervised(&config, seed, &store, &name, &supervisor, backend, resume)
            .unwrap_or_else(|e| {
                eprintln!("shortlink campaign failed: {e}");
                std::process::exit(1);
            });
        print!("{}", checkpoint_summary("shortlink enum", &run.report));
        print!(
            "{}",
            degradation_summary(&[CampaignHealth::from_enumeration(
                "shortlink enum",
                &run.result.enumeration,
            )])
        );
        run.result
    } else if std::env::var("MINEDIG_ASYNC").is_ok() {
        let aexec = AsyncExecutor::from_env();
        println!(
            "generating {links} short links; async enumeration with up to \
             {} probes in flight…",
            aexec.concurrency()
        );
        let run = run_study_async(&config, seed, &aexec);
        print!("{}", async_stats("enumerate", &run.enum_stats));
        print!(
            "{}",
            degradation_summary(&[CampaignHealth::from_enumeration(
                "shortlink enum",
                &run.result.enumeration,
            )])
        );
        run.result
    } else if std::env::var("MINEDIG_STREAM").is_ok() {
        let pipe = PipelineExecutor::from_env();
        println!(
            "generating {links} short links; streaming enumerate→resolve \
             across {} pipeline workers…",
            pipe.workers()
        );
        let streamed = run_study_streaming(&config, seed, &pipe);
        print!("{}", pipeline_stats("enumerate", &streamed.enum_stats));
        println!(
            "resolver: {} links resolved concurrently, overlap with enumeration: {}",
            streamed.resolver.items,
            if streamed.overlapped() { "yes" } else { "no" }
        );
        print!(
            "{}",
            degradation_summary(&[CampaignHealth::from_enumeration(
                "shortlink enum",
                &streamed.result.enumeration,
            )])
        );
        streamed.result
    } else {
        println!(
            "generating {links} short links and enumerating the ID space \
             ({enum_shards}-shard probing)…"
        );
        run_study(&config, seed)
    };
    println!(
        "top-1 user owns {:.1}% of links; {} users own 85% (paper: 1/3 and 10)",
        study.top1_share * 100.0,
        study.users_for_85pct
    );
    println!(
        "unbiased requirements ≤1024 hashes: {:.1}% (paper: >2/3); resolution cost {:.1}M hashes",
        study.unbiased_le_1024 * 100.0,
        study.hashes_spent as f64 / 1e6
    );
    println!("top destinations of heavy users:");
    for (d, f) in study.top10_domains.iter().take(5) {
        println!("  {d:<24} {:>5.1}%", f * 100.0);
    }
}

fn cmd_hashrate() {
    println!("measuring local CryptoNight-style throughput…");
    for (label, variant, n) in [
        ("test (16 KiB)", Variant::Test, 64),
        ("lite (1 MiB)", Variant::Lite, 8),
        ("full (2 MiB)", Variant::Full, 4),
    ] {
        let sample = measure_hashrate(variant, n);
        println!("  {label:<14} {:>8.1} H/s", sample.rate());
    }
    println!("(the paper's browser anchor: 20 H/s on a 2013 laptop, 4 threads)");
}
