//! Bench regression gate: compares a freshly emitted `BENCH_*.json`
//! against a committed baseline and fails when any wall-clock number
//! regressed past a threshold.
//!
//! ```text
//! bench_check <baseline.json> <current.json> [threshold]
//! ```
//!
//! Every numeric field whose key ends in `secs` is compared at the same
//! JSON path; the run fails when `current > baseline * threshold`
//! (default 2.0 — generous on purpose: CI runners are noisy, and the
//! gate exists to catch order-of-magnitude rot, not jitter).
//!
//! The counts in [`EXACT_KEYS`] are deterministic for a given seed, so
//! they are gated exactly: any change to a checkpoint count, a snapshot
//! size, the bytes written, a poll or retry count or a workload's item
//! count is a diff to explain (and a baseline to regenerate), never a
//! note. Other non-time fields are not compared.
//!
//! Fields present on only one side are reported but never fail the
//! gate, so adding a workload does not require regenerating every
//! baseline.

use minedig_net::json::Value;

/// Default regression threshold: current may take up to 2× baseline.
const DEFAULT_THRESHOLD: f64 = 2.0;

/// Keys whose values must equal the baseline exactly: the supervision
/// counts of `BENCH_checkpoint.json`, the poll accounting of
/// `BENCH_health.json`, and every workload's item count.
const EXACT_KEYS: [&str; 11] = [
    "checkpoints",
    "snapshot_bytes",
    "bytes_written",
    "crashes",
    "items_redone",
    "polls",
    "answered",
    "retries",
    "quarantined",
    "saved",
    "items",
];

struct Gate {
    threshold: f64,
    compared: u32,
    exact: u32,
    regressions: Vec<String>,
}

impl Gate {
    /// Walks `baseline` and `current` in lockstep, comparing every
    /// numeric `*secs` and [`EXACT_KEYS`] leaf reachable through
    /// matching object keys and array indices.
    fn walk(&mut self, path: &str, baseline: &Value, current: &Value) {
        match (baseline, current) {
            (Value::Obj(b), Value::Obj(c)) => {
                for (key, bv) in b {
                    let child = format!("{path}/{key}");
                    match c.get(key) {
                        Some(cv) => self.walk(&child, bv, cv),
                        None => println!("note: {child} missing from current run"),
                    }
                }
                for key in c.keys().filter(|k| !b.contains_key(*k)) {
                    println!("note: {path}/{key} has no baseline yet");
                }
            }
            (Value::Arr(b), Value::Arr(c)) => {
                if b.len() != c.len() {
                    println!(
                        "note: {path} length changed ({} baseline vs {} current)",
                        b.len(),
                        c.len()
                    );
                }
                for (i, (bv, cv)) in b.iter().zip(c.iter()).enumerate() {
                    self.walk(&format!("{path}[{i}]"), bv, cv);
                }
            }
            _ => {
                let key = path.rsplit('/').next().unwrap_or("");
                let (Some(b), Some(c)) = (baseline.as_f64(), current.as_f64()) else {
                    return;
                };
                if EXACT_KEYS.contains(&key) {
                    self.exact += 1;
                    if c != b {
                        self.regressions
                            .push(format!("{path}: {c} vs baseline {b} (must match exactly)"));
                    }
                    return;
                }
                if !key.ends_with("secs") {
                    return;
                }
                self.compared += 1;
                // Sub-millisecond baselines are pure noise at CI
                // resolution; hold them to an absolute floor instead.
                let allowed = (b * self.threshold).max(0.005);
                if c > allowed {
                    self.regressions.push(format!(
                        "{path}: {c:.4}s vs baseline {b:.4}s (allowed {allowed:.4}s)"
                    ));
                }
            }
        }
    }
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Value::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(baseline_path), Some(current_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: bench_check <baseline.json> <current.json> [threshold]");
        std::process::exit(2);
    };
    let threshold = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD);

    let baseline = load(baseline_path);
    let current = load(current_path);
    let mut gate = Gate {
        threshold,
        compared: 0,
        exact: 0,
        regressions: Vec::new(),
    };
    gate.walk("", &baseline, &current);

    println!(
        "{}: {} wall-clock fields compared against {} at {threshold}x, {} counts exactly",
        current_path, gate.compared, baseline_path, gate.exact
    );
    if gate.compared == 0 {
        eprintln!("error: no comparable *secs fields — wrong file pair?");
        std::process::exit(2);
    }
    if !gate.regressions.is_empty() {
        eprintln!("bench regressions detected:");
        for r in &gate.regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
    println!("no regressions");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(baseline: &str, current: &str) -> Gate {
        let mut gate = Gate {
            threshold: DEFAULT_THRESHOLD,
            compared: 0,
            exact: 0,
            regressions: Vec::new(),
        };
        gate.walk(
            "",
            &Value::parse(baseline).unwrap(),
            &Value::parse(current).unwrap(),
        );
        gate
    }

    #[test]
    fn checkpoint_counts_must_match_exactly() {
        let base =
            r#"{"runs": [{"secs": 1.0, "checkpoints": 10, "snapshot_bytes": 500, "items": 7}]}"#;
        let same = gate(base, base);
        assert!(same.regressions.is_empty());
        assert_eq!((same.compared, same.exact), (1, 3));
        // One byte more in a snapshot fails even though time improved…
        let grown =
            r#"{"runs": [{"secs": 0.5, "checkpoints": 10, "snapshot_bytes": 501, "items": 7}]}"#;
        let g = gate(base, grown);
        assert_eq!(g.regressions.len(), 1, "{:?}", g.regressions);
        assert!(g.regressions[0].contains("snapshot_bytes"));
        // …and so does one byte less: exact means exact.
        let shrunk =
            r#"{"runs": [{"secs": 1.0, "checkpoints": 10, "snapshot_bytes": 499, "items": 7}]}"#;
        assert_eq!(gate(base, shrunk).regressions.len(), 1);
    }

    #[test]
    fn poll_and_item_counts_must_match_exactly() {
        let base = r#"{"items": 7, "runs": [{"secs": 1.0, "polls": 64, "answered": 48,
            "retries": 16, "quarantined": 3, "shards": 2}], "retries_saved": [{"saved": 5}]}"#;
        let same = gate(base, base);
        assert!(same.regressions.is_empty());
        assert_eq!((same.compared, same.exact), (1, 6));
        for (key, from, to) in [
            ("items", "\"items\": 7", "\"items\": 8"),
            ("polls", "\"polls\": 64", "\"polls\": 63"),
            ("answered", "\"answered\": 48", "\"answered\": 49"),
            ("retries", "\"retries\": 16", "\"retries\": 15"),
            ("quarantined", "\"quarantined\": 3", "\"quarantined\": 4"),
            ("saved", "\"saved\": 5", "\"saved\": 6"),
        ] {
            let g = gate(base, &base.replace(from, to));
            assert_eq!(g.regressions.len(), 1, "{key}: {:?}", g.regressions);
            assert!(g.regressions[0].contains(key));
        }
        // Other non-time fields stay ungated.
        let other = base.replace("\"shards\": 2", "\"shards\": 4");
        assert!(gate(base, &other).regressions.is_empty());
    }

    #[test]
    fn times_are_gated_at_the_threshold() {
        let base = r#"{"secs": 1.0}"#;
        assert!(gate(base, r#"{"secs": 1.9}"#).regressions.is_empty());
        assert_eq!(gate(base, r#"{"secs": 2.1}"#).regressions.len(), 1);
    }
}
