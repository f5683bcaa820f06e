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
//! One selector, `Backend::from_env`, picks the executor for every
//! command: `MINEDIG_ASYNC=1` selects the cooperative async backend (up
//! to `MINEDIG_CONCURRENCY` tasks in flight, default 256), else
//! `MINEDIG_STREAM=1` the streaming pipeline (`MINEDIG_SHARDS` workers,
//! `MINEDIG_PIPE_CAP` capacity, `MINEDIG_PIPE_BATCH` items per message),
//! else `MINEDIG_SHARDS=N` with N > 1 the sharded backend, else the
//! sequential one. Any value of the two flags other than `1` leaves them
//! off. Results are bit-identical on every backend; only the executor
//! and timing lines differ.
//!
//! * `scan` runs the zgrab and Chrome scans as campaigns on the selected
//!   backend, the Chrome pass with a fingerprint memo. With no backend
//!   selected it shards across `MINEDIG_SHARDS` shards, else one per
//!   core.
//! * `shortlink` shards its walk under the sharded backend. The
//!   streaming and async backends drive the supervised walk only;
//!   unsupervised, the walk then runs on one shard and says so.
//! * `attribute` shards each poll sweep across the sharded or streaming
//!   backend's worker count, or holds every endpoint's fetch in flight
//!   at once on the async backend.
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
use minedig::core::exec::ScanExecutor;
use minedig::core::report::{
    async_poll_summary, checkpoint_summary, comparison_table, degradation_summary, fetch_stats,
    health_summary, CampaignHealth, Comparison,
};
use minedig::core::scan::{build_reference_db, FetchModel};
use minedig::core::shortlink_study::{run_study, run_study_supervised, StudyConfig, StudyResult};
use minedig::pow::hashrate::measure_hashrate;
use minedig::pow::Variant;
use minedig::primitives::ckpt::SnapshotStore;
use minedig::primitives::fault::FaultPlan;
use minedig::primitives::health::{health_from_env, HealthConfig};
use minedig::primitives::supervise::{Backend, Campaign, CrashPolicy, Supervisor, CKPT_DIR_ENV};
use minedig::shortlink::model::ModelConfig;
use minedig::wasm::corpus::generate_corpus;
use minedig::wasm::{corpus_content_key, CacheWarmth, FingerprintCache};
use minedig::web::page::CORPUS_SEED;
use minedig::web::universe::Population;
use minedig::web::zone::Zone;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

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
                 MINEDIG_ASYNC=1, MINEDIG_STREAM=1 or MINEDIG_SHARDS=N selects the\n\
                 execution backend (default sequential, sharded for scan; results\n\
                 are identical).\n\
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

    // MINEDIG_CKPT_DIR runs both scans supervised: checkpointed,
    // resumable with --resume, and with a fingerprint memo persisted
    // across runs. Otherwise each scan is the same campaign run in one
    // go. Results are bit-identical either way, on every backend.
    // Scans shard by default: `MINEDIG_SHARDS` shards, else one per
    // core. Unlike a poll sweep, a scan gains from it (BENCH_parallel's
    // zgrab row: 0.27 s on one shard, 0.18 s on two).
    let backend = match Backend::from_env() {
        Backend::Sequential => match ScanExecutor::from_env().shards() {
            1 => Backend::Sequential,
            n => Backend::Sharded(n),
        },
        selected => selected,
    };
    let ckpt = ckpt_store().map(|store| (store, supervisor_from_env()));
    if let Some((store, supervisor)) = &ckpt {
        println!(
            "checkpointing to {} every {} items ({} backend){}",
            store.dir().display(),
            supervisor.policy().ckpt_every_items,
            backend.label(),
            if resume { ", resuming" } else { "" },
        );
    }

    let zg = run_campaign(
        &ckpt,
        "zgrab",
        &format!("scan-zgrab-{zone_tag}-{seed}"),
        backend,
        resume,
        || ZgrabCampaign::new(&population, seed, &model, backend),
    );
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
        let memo = ckpt.as_ref().map(|(store, _)| {
            let corpus_key = corpus_content_key(&generate_corpus(CORPUS_SEED));
            (store, corpus_key, load_memo(store, corpus_key))
        });
        let fresh = FingerprintCache::new();
        let cache = memo.as_ref().map_or(&fresh, |(_, _, cache)| cache);

        let ch = run_campaign(
            &ckpt,
            "chrome",
            &format!("scan-chrome-{zone_tag}-{seed}"),
            backend,
            resume,
            || ChromeCampaign::new(&population, &db, seed, &model, Some(cache), backend),
        );
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
        if let Some((store, corpus_key, cache)) = &memo {
            match cache.save(store, "fingerprints", *corpus_key) {
                Ok(bytes) => println!("fingerprint memo persisted ({bytes} bytes)"),
                Err(e) => eprintln!("could not persist fingerprint memo: {e}"),
            }
        }
    } else {
        println!("(zone not part of the paper's Chrome measurement — §3.2 covers Alexa and .org)");
    }
    print!("{}", degradation_summary(&health));
}

/// Runs one campaign to completion on `backend`: under the supervisor,
/// checkpointed into the store as `name`, when `MINEDIG_CKPT_DIR` is set;
/// otherwise in a single `run_items` call over all of its items.
fn run_campaign<C: Campaign>(
    ckpt: &Option<(SnapshotStore, Supervisor)>,
    label: &str,
    name: &str,
    backend: Backend,
    resume: bool,
    mut init: impl FnMut() -> C,
) -> C::Output {
    let Some((store, supervisor)) = ckpt else {
        let start = Instant::now();
        let mut campaign = init();
        campaign.run_items(u64::MAX, &AtomicU64::new(0));
        println!(
            "{label}: {} items in {:.2}s on the {} backend",
            campaign.progress_key(),
            start.elapsed().as_secs_f64(),
            backend.label(),
        );
        return campaign.finish();
    };
    let run = supervisor
        .run(store, name, init, resume)
        .unwrap_or_else(|e| {
            eprintln!("{label} campaign failed: {e}");
            std::process::exit(1);
        });
    print!("{}", checkpoint_summary(label, &run.report));
    run.output
}

/// Loads the Chrome scan's persisted fingerprint memo, reporting how
/// warm it starts; an unreadable memo is discarded for a cold one.
fn load_memo(store: &SnapshotStore, corpus_key: u64) -> FingerprintCache {
    let (cache, warmth) =
        FingerprintCache::load(store, "fingerprints", corpus_key).unwrap_or_else(|e| {
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
    cache
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

fn cmd_attribute(args: &[String], resume: bool) {
    let days = arg_u64(args, 0, 7);
    let seed = arg_u64(args, 1, 2018);
    // The backend picks the poll sweep: the sharded and streaming
    // backends fan each sweep across their worker count, the async one
    // holds every endpoint's fetch in flight at once on one thread.
    // Results are identical to sequential polling either way.
    let (poll_shards, poll_async) = match Backend::from_env() {
        Backend::Sequential => (1, None),
        Backend::Sharded(n) | Backend::Streaming { workers: n, .. } => (n, None),
        Backend::Async { concurrency } => (1, Some(concurrency)),
    };
    match poll_async {
        Some(concurrency) => println!(
            "simulating {days} days of Monero with an instrumented Coinhive-style pool \
             (async polling, {concurrency} in flight)…"
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
        poll_async,
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
    // The sharded backend fans the walk across its shards; the
    // streaming and async backends drive the supervised walk only, and
    // the unsupervised run says so.
    let backend = Backend::from_env();
    let config = StudyConfig {
        model: ModelConfig {
            total_links: links,
            users: 12_000.min(links as usize / 4).max(100),
            seed,
        },
        enum_shards: match backend {
            Backend::Sharded(n) => n,
            _ => 1,
        },
        ..StudyConfig::default()
    };
    let study: StudyResult = if let Some(store) = ckpt_store() {
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
        run.result
    } else {
        let ignored = match backend {
            Backend::Streaming { .. } | Backend::Async { .. } => format!(
                "; the {} backend applies to the supervised walk only",
                backend.label()
            ),
            _ => String::new(),
        };
        println!(
            "generating {links} short links and enumerating the ID space \
             ({}-shard probing{ignored})…",
            config.enum_shards
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
