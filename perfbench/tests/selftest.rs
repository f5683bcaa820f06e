//! The benchmark's self-test: runs every workload at small scale, with
//! and without tracing, and checks that the printed result matches
//! `BENCHMARK.json` (names and units), that every check inside the run
//! passed (the traced result equals the untraced one and the library's
//! reference), and that the traced self times add up to the traced run
//! time.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough of JSON for the benchmark's files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
}

/// `name → unit` of the metrics BENCHMARK.json declares under `key`.
fn declared(key: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// The benchmark binary, with every `MINEDIG_*` variable removed from
/// its environment (it refuses to run under one).
fn perfbench_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("MINEDIG_")) {
        cmd.env_remove(key);
    }
    cmd
}

fn perfbench(workload: &str, trace: u8) -> (std::process::Output, Json) {
    let out = perfbench_command()
        .args(["--workload", workload, "--seed", "2018", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "small"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let last = stdout.lines().last().expect("perfbench printed nothing");
    let result = Json::parse(last);
    (out, result)
}

fn check(workload: &str, key_layer: &str) {
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let (out, result) = perfbench(workload, trace);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
        assert_eq!(
            result.get("correct"),
            &Json::Bool(true),
            "{workload} --trace {trace}: {stderr}"
        );
        assert_eq!(result.get("failed").num(), 0.0);
        assert!(result.get("attempted").num() >= 1.0);
        let top: Vec<&str> = result.obj().keys().map(String::as_str).collect();
        assert_eq!(top, ["attempted", "correct", "failed", "metrics"]);

        let metrics = result.get("metrics").obj();
        let printed: BTreeMap<String, String> = metrics
            .iter()
            .map(|(name, m)| {
                assert_eq!(m.obj().len(), 2, "{name}: exactly value and unit");
                assert!(m.get("value").num().is_finite(), "{name}");
                (name.clone(), m.get("unit").str().to_string())
            })
            .collect();
        assert_eq!(printed, declared(key), "{workload} --trace {trace}");

        if trace == 1 {
            let value = |name: &str| metrics[name].get("value").num();
            assert!(value(key_layer) > 0.0, "{workload}: {key_layer} is zero");
            // Self times of the run's layers plus the remainder add up
            // to the traced run time (web.generate_s is a set-up layer).
            let selves: f64 = metrics
                .iter()
                .filter(|(name, m)| {
                    m.get("unit").str() == "s"
                        && name.as_str() != "web.generate_s"
                        && !name.starts_with("trace.")
                })
                .map(|(_, m)| m.get("value").num())
                .sum();
            let total = selves + value("trace.remainder_s");
            assert!(
                (total - value("trace.run_s")).abs() < 1e-6,
                "{workload}: {total} vs {}",
                value("trace.run_s")
            );
            assert!(value("trace.remainder_s") >= 0.0);
        }
    }
}

#[test]
fn attribution() {
    check("attribution", "pool.peek_s");
}

#[test]
fn crawl() {
    check("crawl", "nocoin.match_s");
}

#[test]
fn shortlink() {
    check("shortlink", "shortlink.enumerate_s");
}

#[test]
fn shortlink_ckpt() {
    check("shortlink_ckpt", "ckpt.save_s");
}

#[test]
fn refuses_to_run_under_minedig_variables() {
    let out = perfbench_command()
        .args(["--workload", "shortlink", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0", "--scale", "small"])
        .env("MINEDIG_SHARDS", "2")
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
