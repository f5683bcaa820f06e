//! In-memory span recording for the traced run.
//!
//! The traced run wraps each call into a layer's public function in
//! [`span`]. Spans nest on a per-thread stack; when a span closes, its
//! duration is added to its layer's total and subtracted from the
//! enclosing span's layer, so every layer ends up with its *self* time
//! and the self times of all layers never exceed the wall time they
//! were recorded in. Counts are recorded at the same call sites.
//! Everything stays in memory until [`take`] hands the thread's record
//! to the benchmark's main loop.

use std::cell::RefCell;
use std::time::Instant;

/// A layer whose calls the traced run times, named after the crate and
/// module it lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    ChainStep,
    PoolPeek,
    AnalysisSweep,
    AnalysisJudge,
    WebGenerate,
    WebSynth,
    NocoinMatch,
    BrowserLoad,
    WasmFingerprint,
    WasmClassify,
    WebChurn,
    CoreFold,
    ShortlinkGenerate,
    ShortlinkEnumerate,
    ShortlinkResolve,
    CoreStudyFinish,
    CkptSnapshot,
    CkptSave,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 18] = [
        Layer::ChainStep,
        Layer::PoolPeek,
        Layer::AnalysisSweep,
        Layer::AnalysisJudge,
        Layer::WebGenerate,
        Layer::WebSynth,
        Layer::NocoinMatch,
        Layer::BrowserLoad,
        Layer::WasmFingerprint,
        Layer::WasmClassify,
        Layer::WebChurn,
        Layer::CoreFold,
        Layer::ShortlinkGenerate,
        Layer::ShortlinkEnumerate,
        Layer::ShortlinkResolve,
        Layer::CoreStudyFinish,
        Layer::CkptSnapshot,
        Layer::CkptSave,
    ];

    /// The self-time metric this layer reports.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::ChainStep => "chain.step_s",
            Layer::PoolPeek => "pool.peek_s",
            Layer::AnalysisSweep => "analysis.sweep_s",
            Layer::AnalysisJudge => "analysis.judge_s",
            Layer::WebGenerate => "web.generate_s",
            Layer::WebSynth => "web.synth_s",
            Layer::NocoinMatch => "nocoin.match_s",
            Layer::BrowserLoad => "browser.load_s",
            Layer::WasmFingerprint => "wasm.fingerprint_s",
            Layer::WasmClassify => "wasm.classify_s",
            Layer::WebChurn => "web.churn_s",
            Layer::CoreFold => "core.fold_s",
            Layer::ShortlinkGenerate => "shortlink.generate_s",
            Layer::ShortlinkEnumerate => "shortlink.enumerate_s",
            Layer::ShortlinkResolve => "shortlink.resolve_s",
            Layer::CoreStudyFinish => "core.study_finish_s",
            Layer::CkptSnapshot => "ckpt.snapshot_s",
            Layer::CkptSave => "ckpt.save_s",
        }
    }

    /// Whether per-call latencies are kept for percentiles.
    fn sampled(self) -> bool {
        matches!(
            self,
            Layer::AnalysisSweep | Layer::NocoinMatch | Layer::BrowserLoad
        )
    }
}

/// A work counter recorded at a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    ChainBlocks,
    PoolPeeks,
    PoolPeekBytes,
    AnalysisSweeps,
    WebDomains,
    WebHtmlBytes,
    NocoinPages,
    NocoinBytes,
    NocoinHits,
    BrowserLoads,
    BrowserWasmDumps,
    WasmModules,
    WasmModuleBytes,
    ShortlinkResolved,
    ShortlinkHashes,
    CkptSaves,
    CkptBytesWritten,
}

impl Count {
    /// Every counter, in report order.
    pub const ALL: [Count; 17] = [
        Count::ChainBlocks,
        Count::PoolPeeks,
        Count::PoolPeekBytes,
        Count::AnalysisSweeps,
        Count::WebDomains,
        Count::WebHtmlBytes,
        Count::NocoinPages,
        Count::NocoinBytes,
        Count::NocoinHits,
        Count::BrowserLoads,
        Count::BrowserWasmDumps,
        Count::WasmModules,
        Count::WasmModuleBytes,
        Count::ShortlinkResolved,
        Count::ShortlinkHashes,
        Count::CkptSaves,
        Count::CkptBytesWritten,
    ];

    /// The metric this counter reports.
    pub fn metric(self) -> &'static str {
        match self {
            Count::ChainBlocks => "chain.blocks",
            Count::PoolPeeks => "pool.peeks",
            Count::PoolPeekBytes => "pool.peek_bytes",
            Count::AnalysisSweeps => "analysis.sweeps",
            Count::WebDomains => "web.domains",
            Count::WebHtmlBytes => "web.html_bytes",
            Count::NocoinPages => "nocoin.pages",
            Count::NocoinBytes => "nocoin.bytes",
            Count::NocoinHits => "nocoin.hits",
            Count::BrowserLoads => "browser.loads",
            Count::BrowserWasmDumps => "browser.wasm_dumps",
            Count::WasmModules => "wasm.modules",
            Count::WasmModuleBytes => "wasm.module_bytes",
            Count::ShortlinkResolved => "shortlink.resolved",
            Count::ShortlinkHashes => "shortlink.hashes_accounted",
            Count::CkptSaves => "ckpt.saves",
            Count::CkptBytesWritten => "ckpt.bytes_written",
        }
    }

    /// The unit of [`metric`](Count::metric).
    pub fn unit(self) -> &'static str {
        match self {
            Count::PoolPeekBytes
            | Count::WebHtmlBytes
            | Count::NocoinBytes
            | Count::WasmModuleBytes
            | Count::CkptBytesWritten => "B",
            Count::ShortlinkHashes => "hashes",
            _ => "count",
        }
    }
}

const COUNTS: usize = Count::ALL.len();

/// One thread's record: self nanoseconds per layer, counters, and
/// per-call inclusive latencies of the sampled layers.
#[derive(Clone, Debug, Default)]
pub struct Record {
    self_ns: [u64; Layer::ALL.len()],
    counts: [u64; COUNTS],
    samples: [Vec<u64>; Layer::ALL.len()],
}

impl Record {
    /// Self seconds of `layer`.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }

    /// Counter value.
    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }

    /// Every counter value, in [`Count::ALL`] order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Inclusive per-call latencies of a sampled layer, in ns.
    pub fn samples(&self, layer: Layer) -> &[u64] {
        &self.samples[layer as usize]
    }

    /// Folds another thread's record in. Its self times are multiplied
    /// by `time_factor` (used to express shard busy time as a share of
    /// the wall time of a sharded section); counts and per-call
    /// latencies are kept as they are.
    pub fn absorb(&mut self, other: Record, time_factor: f64) {
        for (mine, theirs) in self.self_ns.iter_mut().zip(other.self_ns) {
            *mine += (theirs as f64 * time_factor).round() as u64;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
    }
}

struct Tracer {
    record: Record,
    /// Open spans: layer, start, nanoseconds covered by closed children.
    stack: Vec<(Layer, Instant, u64)>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        record: Record::default(),
        stack: Vec::new(),
    });
}

/// Runs `f` as a span of `layer` on this thread's record.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| t.borrow_mut().stack.push((layer, Instant::now(), 0)));
    let out = f();
    let end = Instant::now();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let (layer, start, children) = t.stack.pop().expect("span stack underflow");
        let total = end.duration_since(start).as_nanos() as u64;
        t.record.self_ns[layer as usize] += total.saturating_sub(children);
        if layer.sampled() {
            t.record.samples[layer as usize].push(total);
        }
        if let Some(parent) = t.stack.last_mut() {
            parent.2 += total;
        }
    });
    out
}

/// Adds `n` to a counter of this thread's record.
pub fn count(c: Count, n: u64) {
    TRACER.with(|t| t.borrow_mut().record.counts[c as usize] += n);
}

/// Replaces this thread's record (to hand back a record taken with
/// [`take`] after folding other threads' records into it).
pub fn restore(record: Record) {
    TRACER.with(|t| t.borrow_mut().record = record);
}

/// Takes this thread's record, leaving an empty one.
pub fn take() -> Record {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "record taken inside an open span");
        std::mem::take(&mut t.record)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_report_self_time() {
        take();
        let wall = Instant::now();
        span(Layer::ChainStep, || {
            std::thread::sleep(Duration::from_millis(4));
            span(Layer::AnalysisSweep, || {
                span(Layer::PoolPeek, || {
                    std::thread::sleep(Duration::from_millis(3))
                });
                std::thread::sleep(Duration::from_millis(2));
            });
        });
        let wall = wall.elapsed().as_secs_f64();
        count(Count::PoolPeeks, 2);
        let r = take();
        assert!(r.self_s(Layer::PoolPeek) >= 0.003);
        assert!(r.self_s(Layer::AnalysisSweep) >= 0.002);
        assert!(r.self_s(Layer::AnalysisSweep) < 0.003 + 0.002);
        assert!(r.self_s(Layer::ChainStep) >= 0.004);
        let total: f64 = Layer::ALL.iter().map(|&l| r.self_s(l)).sum();
        assert!(total <= wall);
        assert_eq!(r.samples(Layer::AnalysisSweep).len(), 1);
        assert_eq!(r.count(Count::PoolPeeks), 2);
        assert_eq!(take().count(Count::PoolPeeks), 0);
    }
}
