//! The minedig benchmark: drives one campaign through the library's
//! public entry points on inputs generated from a seed, checks every
//! result, and prints the end-to-end metrics (or, with `--trace 1`, the
//! per-layer metrics of a traced run) as one JSON object on the last
//! line of standard output. See `perfbench/README.md`.
//!
//! Usage:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|small]`

mod attribution;
mod crawl;
mod measure;
mod shortlink;
mod trace;
mod workload;

use measure::{median, quantile, Yardstick};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Count, Layer, Record};
use workload::{RepOutcome, Scale, Workload, DEFAULT_SEED};

const WORKLOADS: [&str; 4] = ["attribution", "crawl", "shortlink", "shortlink_ckpt"];

/// Repetitions measured at least, however long they take.
const MIN_REPS: usize = 3;

/// Wall time one batch repeats set-ups for.
const SETUP_BATCH_SECONDS: f64 = 0.05;

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that are not a layer's self time or a counter:
/// name and unit. `write_mb` and `error_frac` are end-to-end figures,
/// but zero on most workloads, which the end-to-end metrics must never
/// be; they are printed on the human-readable line of every untraced run
/// and carried here.
const PER_LAYER_OTHER: [(&str, &str); 24] = [
    ("analysis.sweep_us_p50", "us"),
    ("analysis.sweep_us_p99", "us"),
    ("analysis.polls", "count"),
    ("analysis.polls_answered", "count"),
    ("analysis.polls_refused", "count"),
    ("analysis.new_blob_frac", "frac"),
    ("analysis.attributed", "count"),
    ("analysis.unmatched", "count"),
    ("nocoin.match_us_p99", "us"),
    ("browser.load_us_p99", "us"),
    ("wasm.cache_hit_frac", "frac"),
    ("core.rescan_reused_frac", "frac"),
    ("par.shard_skew", "ratio"),
    ("shortlink.ids_probed", "count"),
    ("shortlink.links_found", "count"),
    ("shortlink.hit_frac", "frac"),
    ("ckpt.last_bytes", "B"),
    ("ckpt.bytes_per_item", "B"),
    ("ckpt.share", "frac"),
    ("trace.run_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("write_mb", "MB"),
    ("error_frac", "frac"),
];

/// Every per-layer metric, name and unit, in report order.
fn per_layer_catalog() -> Vec<(&'static str, &'static str)> {
    let mut v: Vec<(&str, &str)> = Layer::ALL.iter().map(|l| (l.metric(), "s")).collect();
    v.extend(Count::ALL.iter().map(|c| (c.metric(), c.unit())));
    v.extend(PER_LAYER_OTHER);
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale full|small]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        flags.insert(flag.as_str(), value.as_str());
    }
    for key in flags.keys() {
        if !["--workload", "--seed", "--seconds", "--trace", "--scale"].contains(key) {
            usage(&format!("unknown flag {key}"));
        }
    }
    let get = |k: &str| {
        *flags
            .get(k)
            .unwrap_or_else(|| usage(&format!("{k} is required")))
    };
    let workload = get("--workload").to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seed = get("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
    let seconds: u64 = get("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds takes an unsigned integer"));
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    let trace = match get("--trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let scale = match flags.get("--scale").copied().unwrap_or("full") {
        "full" => Scale::Full,
        "small" => Scale::Small,
        _ => usage("--scale takes full or small"),
    };
    Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        scale,
    }
}

/// The library reads `MINEDIG_SHARDS`, `MINEDIG_CKPT_KEEP`,
/// `MINEDIG_PIPE_BATCH` and others in some constructors. The benchmark
/// never calls those, but refuses to start under any such variable so
/// that no set variable can silently change what is measured.
fn refuse_minedig_env() {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MINEDIG_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset every MINEDIG_* variable",
            set.join(", ")
        );
        std::process::exit(2);
    }
}

fn main() {
    refuse_minedig_env();
    let args = parse_args();
    // Before any thread starts, so that every thread inherits the mask.
    let cpu = measure::pin_to_one_cpu();
    eprintln!("perfbench: pinned to CPU {cpu}");
    let report = match args.workload.as_str() {
        "attribution" => drive(&attribution::Attribution, &args),
        "crawl" => drive(&crawl::Crawl::new(args.scale), &args),
        "shortlink" => drive(&shortlink::Shortlink::new(args.scale), &args),
        "shortlink_ckpt" => drive(
            &shortlink::ShortlinkCkpt::new(
                args.scale,
                PathBuf::from(".perfbench-tmp").join(format!("ckpt-{}", std::process::id())),
            ),
            &args,
        ),
        _ => unreachable!("workload validated by parse_args"),
    };
    // The parent of the snapshot directory, if this run made it and no
    // other run is using it.
    let _ = std::fs::remove_dir(".perfbench-tmp");
    println!("{report}");
}

/// One measured repetition (raw seconds), with the yardstick reading
/// taken right after it.
struct Rep {
    outcome: RepOutcome,
    wall: f64,
    cpu: f64,
    yardstick: f64,
    written: u64,
    traced: Option<workload::Traced>,
    extra: Vec<(&'static str, f64)>,
}

/// What one call to the workload cost, with the yardstick reading taken
/// after it (which also serves as the reading before the next call).
struct Cost {
    wall: f64,
    cpu: f64,
    written: u64,
    yardstick_after: f64,
}

fn cost<T>(stick: &mut Yardstick, f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = measure::cpu_seconds();
    let written0 = measure::bytes_written();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let written = measure::bytes_written() - written0;
    let cpu = measure::cpu_seconds() - cpu0;
    let yardstick_after = stick.measure();
    (
        out,
        Cost {
            wall,
            cpu,
            written,
            yardstick_after,
        },
    )
}

/// A batch of set-ups timed together: raw wall seconds per set-up, the
/// yardstick reading taken just before the batch, and the span record
/// of the whole batch.
struct SetupBatch {
    each: f64,
    yardstick: f64,
    setups: u32,
    record: Record,
}

fn drive<W: Workload>(w: &W, args: &Args) -> String {
    let mut failures: Vec<String> = Vec::new();
    let mut stick = Yardstick::new();
    let mut last_reading = stick.measure();

    // Each repetition runs on a freshly set-up input. Set-ups repeat in
    // a batch of at least SETUP_BATCH_SECONDS, so that a set-up of
    // microseconds is timed as reliably as one of seconds, and the
    // batches spread over the whole run like the repetitions do.
    let mut batches: Vec<SetupBatch> = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut input = None;
    let start = Instant::now();
    while reps.len() < MIN_REPS * (1 + usize::from(args.trace))
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let setup_start = Instant::now();
        let mut setups = 0u32;
        while setups == 0 || setup_start.elapsed().as_secs_f64() < SETUP_BATCH_SECONDS {
            // Drop the previous input before building the next, so that
            // at most one is resident.
            drop(input.take());
            input = Some(w.setup(args.seed));
            setups += 1;
        }
        let setup_wall = setup_start.elapsed().as_secs_f64() / f64::from(setups);
        let record = trace::take();
        let input = input.as_ref().expect("a set-up ran");

        let traced = args.trace && reps.len() % 2 == 1;
        let (out, c) = cost(&mut stick, || {
            if traced {
                let t = w.run_traced(input);
                (t.outcome.clone(), Vec::new(), Some(t))
            } else {
                let (o, extra) = w.run(input);
                (o, extra, None)
            }
        });
        eprintln!(
            "perfbench: repetition {}: set-up {setup_wall:.9} s, run {:.6} s, cpu {:.6} s, \
             yardstick {:.6} s",
            reps.len(),
            c.wall,
            c.cpu,
            c.yardstick_after
        );
        batches.push(SetupBatch {
            each: setup_wall,
            yardstick: last_reading,
            setups,
            record,
        });
        reps.push(Rep {
            outcome: out.0,
            extra: out.1,
            traced: out.2,
            wall: c.wall,
            cpu: c.cpu,
            yardstick: c.yardstick_after,
            written: c.written,
        });
        last_reading = c.yardstick_after;
    }
    let input = input.expect("a set-up ran");
    let peak_rss_mb = measure::peak_rss_mb();

    // Checks.
    let reference = w.reference(&input);
    if args.seed == DEFAULT_SEED && reference != w.recorded_digest(args.scale) {
        failures.push(format!(
            "reference digest {reference:#018x} differs from the recorded {:#018x}",
            w.recorded_digest(args.scale)
        ));
    }
    let first = &reps[0];
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, rep) in reps.iter().enumerate() {
        let o = &rep.outcome;
        let mut ok = true;
        if o.digest != reference {
            failures.push(format!("repetition {i}: result differs from the reference"));
            ok = false;
        }
        for (name, holds) in &o.invariants {
            if !holds {
                failures.push(format!("repetition {i}: {name} does not hold"));
                ok = false;
            }
        }
        if o.counts != first.outcome.counts || o.attempted != first.outcome.attempted {
            failures.push(format!("repetition {i}: counts differ from repetition 0"));
            ok = false;
        }
        if rep.written != first.written {
            failures.push(format!(
                "repetition {i}: wrote {} bytes, repetition 0 wrote {}",
                rep.written, first.written
            ));
            ok = false;
        }
        attempted += o.attempted;
        failed += if ok { o.failed } else { o.attempted };
    }
    let traced: Vec<&workload::Traced> = reps.iter().filter_map(|r| r.traced.as_ref()).collect();
    if let Some(t0) = traced.first() {
        for (i, t) in traced.iter().enumerate() {
            if t.record.counts() != t0.record.counts() || t.extra != t0.extra {
                failures.push(format!("traced repetition {i}: layer counts differ"));
            }
        }
    }

    let untraced: Vec<&Rep> = reps.iter().filter(|r| r.traced.is_none()).collect();
    let run_raw = median(&untraced.iter().map(|r| r.wall).collect::<Vec<_>>());
    let cpu_raw = median(&untraced.iter().map(|r| r.cpu).collect::<Vec<_>>());
    let setup_raw = median(&batches.iter().map(|b| b.each).collect::<Vec<_>>());
    let scaled_median = |pairs: Vec<(f64, f64)>| {
        median(
            &pairs
                .into_iter()
                .map(|(raw, reading)| measure::scaled(raw, reading))
                .collect::<Vec<_>>(),
        )
    };
    let run_s = scaled_median(untraced.iter().map(|r| (r.wall, r.yardstick)).collect());
    let cpu_s = scaled_median(untraced.iter().map(|r| (r.cpu, r.yardstick)).collect());
    let setup_s = scaled_median(batches.iter().map(|b| (b.each, b.yardstick)).collect());
    let factor = measure::speed_factor(median(
        &reps.iter().map(|r| r.yardstick).collect::<Vec<_>>(),
    ));
    let correct = failures.is_empty();
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let layer = per_layer(&reps, &traced, &batches);
        for (name, unit) in per_layer_catalog() {
            let value = match name {
                "error_frac" => failed as f64 / attempted.max(1) as f64,
                "write_mb" => first.written as f64 / 1e6,
                _ => layer.get(name).copied().unwrap_or(0.0),
            };
            metrics.push((name, value, unit));
        }
        eprintln!(
            "perfbench: {} traced and {} untraced repetitions",
            traced.len(),
            untraced.len()
        );
    } else {
        let values = [run_s, setup_s, cpu_s, peak_rss_mb];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
        println!(
            "{} {}: run_s {run_s:.4} s (raw {run_raw:.4}), setup_s {:.4} s (raw {:.4}), \
             cpu_s {cpu_s:.4} s (raw {cpu_raw:.4}), peak_rss_mb {peak_rss_mb:.1} MB, \
             write_mb {:.6} MB, error_frac {:.6} frac ({failed}/{attempted}), {} repetitions, {} set-ups, \
             median host-speed factor {factor:.4}",
            args.workload,
            args.seed,
            setup_s,
            setup_raw,
            first.written as f64 / 1e6,
            failed as f64 / attempted.max(1) as f64,
            reps.len(),
            batches.iter().map(|b| b.setups).sum::<u32>(),
        );
        println!("# raw {{\"run_s\": {run_raw}, \"setup_s\": {setup_raw}, \"cpu_s\": {cpu_raw}}}");
    }
    json(correct, attempted, failed, &metrics)
}

/// The traced run's per-layer figures: mean self time per layer over
/// the traced repetitions (means, so that self times plus the remainder
/// add up to the mean traced run time exactly), counts from the first
/// traced repetition (all of them are gated equal), and per-call
/// percentiles as the median over repetitions.
fn per_layer(
    reps: &[Rep],
    traced: &[&workload::Traced],
    setups: &[SetupBatch],
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let n = traced.len() as f64;
    let traced_reps: Vec<&Rep> = reps.iter().filter(|r| r.traced.is_some()).collect();
    let run_mean = traced_reps.iter().map(|r| r.wall).sum::<f64>() / n;
    let mut self_total = 0.0;
    for layer in Layer::ALL {
        let v = if layer == Layer::WebGenerate {
            // A set-up layer: outside the traced run's time identity.
            let v: Vec<f64> = setups
                .iter()
                .map(|b| b.record.self_s(layer) / f64::from(b.setups))
                .collect();
            median(&v)
        } else {
            let v = traced.iter().map(|t| t.record.self_s(layer)).sum::<f64>() / n;
            self_total += v;
            v
        };
        m.insert(layer.metric(), v);
    }
    let t0 = traced[0];
    for c in Count::ALL {
        let v = if c == Count::WebDomains {
            setups[0].record.count(c) / u64::from(setups[0].setups)
        } else {
            t0.record.count(c)
        };
        m.insert(c.metric(), v as f64);
    }
    for (name, v) in &t0.extra {
        m.insert(name, *v);
    }
    // Figures of the untraced run (the Chrome path's shard skew).
    let mut untraced_extra: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in reps.iter().filter(|r| r.traced.is_none()) {
        for (name, v) in &r.extra {
            untraced_extra.entry(name).or_default().push(*v);
        }
    }
    for (name, v) in untraced_extra {
        m.insert(name, median(&v));
    }
    let percentile = |layer: Layer, q: f64| -> f64 {
        let per_rep: Vec<f64> = traced
            .iter()
            .filter(|t| !t.record.samples(layer).is_empty())
            .map(|t| {
                let s: Vec<f64> = t.record.samples(layer).iter().map(|&x| x as f64).collect();
                quantile(&s, q) / 1e3
            })
            .collect();
        if per_rep.is_empty() {
            0.0
        } else {
            median(&per_rep)
        }
    };
    m.insert(
        "analysis.sweep_us_p50",
        percentile(Layer::AnalysisSweep, 0.5),
    );
    m.insert(
        "analysis.sweep_us_p99",
        percentile(Layer::AnalysisSweep, 0.99),
    );
    m.insert("nocoin.match_us_p99", percentile(Layer::NocoinMatch, 0.99));
    m.insert("browser.load_us_p99", percentile(Layer::BrowserLoad, 0.99));
    let ckpt = m["ckpt.snapshot_s"] + m["ckpt.save_s"];
    m.insert("ckpt.share", ckpt / run_mean);
    m.insert("trace.run_s", run_mean);
    m.insert("trace.remainder_s", run_mean - self_total);
    let traced_run = median(&traced_reps.iter().map(|r| r.wall).collect::<Vec<_>>());
    let untraced_run = median(
        &reps
            .iter()
            .filter(|r| r.traced.is_none())
            .map(|r| r.wall)
            .collect::<Vec<_>>(),
    );
    m.insert(
        "trace.overhead_frac",
        (traced_run - untraced_run) / untraced_run,
    );
    m
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
