//! Shared plumbing for the reproduction binaries.
//!
//! Every binary under `src/bin/` regenerates one of the paper's tables or
//! figures (see DESIGN.md's experiment index) and prints measured values
//! next to the paper's. Common knobs come from the environment:
//!
//! * `MINEDIG_SEED` — experiment seed (default 2018),
//! * `MINEDIG_SHARDS` — scan worker threads (default: all cores),
//! * `MINEDIG_LINK_SCALE` — divisor on the 1.7 M link population
//!   (default 10),
//! * `MINEDIG_DAYS` — override for the Fig 5 window length.

use minedig_core::exec::ScanExecutor;
use minedig_core::report::scan_stats;
use minedig_core::scan::{build_reference_db, ChromeScanOutcome};
use minedig_wasm::sigdb::SignatureDb;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;
use std::hint::black_box;
use std::time::Instant;

/// Reads a `u64` knob from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Timed runs per configuration in the smoke benches.
pub const TIMING_RUNS: usize = 5;

/// Runs `f` [`TIMING_RUNS`] times and returns the last run's output with the
/// median wall time in seconds. A single run of a 5–100 ms
/// configuration can swing 2× on a shared host; the median of five is
/// what the smoke benches record and `bench_check` gates.
pub fn median_secs<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(TIMING_RUNS);
    let mut out = None;
    for _ in 0..TIMING_RUNS {
        let t0 = Instant::now();
        let run = black_box(f());
        secs.push(t0.elapsed().as_secs_f64());
        // The previous run's output drops here, outside the timing.
        out = Some(run);
    }
    secs.sort_by(f64::total_cmp);
    (out.expect("at least one timed run"), secs[TIMING_RUNS / 2])
}

/// The experiment seed.
pub fn seed() -> u64 {
    env_u64("MINEDIG_SEED", 2018)
}

/// Clean-sample size scanned per zone for FP honesty.
pub const CLEAN_SAMPLE: usize = 1_000;

/// Generates the populations for the Chrome-scanned zones.
pub fn chrome_populations(seed: u64) -> Vec<Population> {
    vec![
        Population::generate(Zone::Alexa, seed, CLEAN_SAMPLE),
        Population::generate(Zone::Org, seed, CLEAN_SAMPLE),
    ]
}

/// Runs the Chrome scan on Alexa + .org with the reference DB (shared by
/// the Table 1/2/3 binaries). Sharded across `MINEDIG_SHARDS` workers
/// (default: all cores); results are bit-identical regardless of the
/// shard count.
pub fn run_chrome_scans(seed: u64) -> (SignatureDb, Vec<(Population, ChromeScanOutcome)>) {
    let db = build_reference_db(0.7);
    let executor = ScanExecutor::from_env();
    let out = chrome_populations(seed)
        .into_iter()
        .map(|p| {
            let run = executor.chrome(&p, &db, seed);
            eprint!(
                "{}",
                scan_stats(&format!("chrome scan {}", p.zone.label()), &run.stats)
            );
            (p, run.outcome)
        })
        .collect();
    (db, out)
}

/// Formats a unix timestamp as `YYYY-MM-DD` (UTC, proleptic Gregorian).
pub fn fmt_date(unix: u64) -> String {
    let days = unix / 86_400;
    let mut year = 1970u64;
    let mut remaining = days;
    loop {
        let leap =
            (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400);
        let len = if leap { 366 } else { 365 };
        if remaining < len {
            break;
        }
        remaining -= len;
        year += 1;
    }
    let leap = (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400);
    let month_lengths = [
        31,
        if leap { 29 } else { 28 },
        31,
        30,
        31,
        30,
        31,
        31,
        30,
        31,
        30,
        31,
    ];
    let mut month = 1;
    for len in month_lengths {
        if remaining < len {
            break;
        }
        remaining -= len;
        month += 1;
    }
    format!("{year:04}-{month:02}-{:02}", remaining + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_formatting() {
        assert_eq!(fmt_date(0), "1970-01-01");
        assert_eq!(fmt_date(1_524_700_800), "2018-04-26");
        assert_eq!(fmt_date(1_525_564_800), "2018-05-06");
        assert_eq!(fmt_date(1_530_403_200), "2018-07-01");
        assert_eq!(fmt_date(951_782_400), "2000-02-29");
    }

    #[test]
    fn median_secs_keeps_the_last_output() {
        let mut calls = 0;
        let (last, secs) = median_secs(|| {
            calls += 1;
            calls
        });
        assert_eq!((last, calls), (5, 5));
        assert!(secs >= 0.0);
    }

    #[test]
    fn env_parsing() {
        assert_eq!(env_u64("MINEDIG_DOES_NOT_EXIST", 7), 7);
    }
}
