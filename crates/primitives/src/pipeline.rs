//! Streaming multi-stage execution with deterministic reorder.
//!
//! [`crate::par::ParallelExecutor`] is a chunk-then-barrier model: every
//! stage of a workload must finish before the next begins, so the slowest
//! shard idles every other core and downstream work cannot start until
//! upstream work is *entirely* done. The paper's campaigns are
//! producer/consumer shaped — page loads feeding Wasm fingerprinting
//! (§3), ID-space enumeration feeding link resolution (§4.1) — and
//! [`PipelineExecutor`] runs them that way: items flow through bounded
//! channels between stages, each stage is a pool of work-stealing
//! consumers, and a sequence-numbered reorder buffer at the sink releases
//! outputs in submission order.
//!
//! ## Batched hops
//!
//! Each channel message carries a `Vec`-batch of consecutive items, not a
//! single item: with cheap kernels the per-item channel hop (send +
//! wakeup + recv) costs more than the work it transports, so the feeder
//! packs up to [`PipelineExecutor::batch`] items per message and every
//! hop's cost is amortized across the batch. Batching is *pure
//! transport*: batches are contiguous sequence ranges, workers process
//! them item-by-item with the same per-worker scratch, and the sink
//! unpacks them back into the per-item fold — so no observable result
//! can depend on the batch size (see the determinism contract below).
//! The default batch is `max(1, capacity / workers)`: deep channels and
//! few workers leave room for fat batches, many workers need finer
//! batches to keep the pool fed.
//!
//! ## Determinism contract
//!
//! The sink observes **exactly the sequential fold** for any worker
//! count, any channel capacity, and any batch size, provided the stages
//! satisfy the same contract [`crate::par::ShardedTask`] established:
//!
//! 1. [`PipelineStage::process`] is a pure function of the item (all
//!    per-item randomness keyed by item identity, never by processing
//!    order or worker identity), and
//! 2. the fold consumes outputs in sequence order — which the reorder
//!    buffer guarantees structurally, batch boundaries included: a batch
//!    is a contiguous seq range, so folding a batch in element order *is*
//!    folding the items in seq order.
//!
//! Early termination composes with this: the fold can return
//! [`ControlFlow::Break`], which stops the pipeline at exactly the item
//! the sequential loop would have stopped at. Items already in flight
//! past the break point — including the unconsumed remainder of the
//! breaking batch — are discarded (bounded by the channel capacities
//! plus one in-flight batch per worker), mirroring the windowed
//! enumerator's discarded overshoot.
//!
//! ## Observability
//!
//! Each stage (and the sink) reports [`StageStats`]: items, *messages*
//! (channel receives — items ÷ messages is the realized batching),
//! per-worker spread, *steals* (batches processed off a worker's
//! round-robin affinity — evidence the shared channel rebalanced load),
//! *backpressure waits* (sends that found the downstream channel full),
//! busy time, and first-input/last-output offsets from the run start.
//! The offsets make stage overlap measurable even on a single core: if
//! stage *k+1*'s first input precedes stage *k*'s last output, the
//! stages genuinely interleaved rather than running as barriers.
//! [`PipelineStats`] aggregates the hop accounting:
//! [`PipelineStats::messages`], [`PipelineStats::items_per_message`] and
//! the [`PipelineStats::hop_ns_saved`] proxy make the batching win
//! observable rather than asserted.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};

/// One processing stage of a pipeline: a pure per-item function plus a
/// per-worker scratch allocation reused across items.
pub trait PipelineStage: Sync {
    /// Item consumed by this stage.
    type In: Send;
    /// Item produced by this stage.
    type Out: Send;
    /// Per-worker reusable state (buffers, caches); created once per
    /// worker, threaded through every `process` call on that worker —
    /// across items *and* across batches.
    type Scratch;

    /// Allocates one worker's scratch state.
    fn scratch(&self) -> Self::Scratch;

    /// Processes one item. Must be a pure function of `item` (modulo
    /// `scratch` reuse): any randomness keyed by item identity, never by
    /// processing order.
    fn process(&self, item: Self::In, scratch: &mut Self::Scratch) -> Self::Out;
}

/// Per-stage counters, read back after a run completes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// Stage index (0-based; the sink reports separately).
    pub stage: usize,
    /// Workers the stage ran with.
    pub workers: usize,
    /// Items the stage processed.
    pub items: u64,
    /// Channel messages (batches) the stage received. `items / messages`
    /// is the realized batch size at this hop.
    pub messages: u64,
    /// Items a worker processed off its round-robin batch affinity
    /// (`batch_index % workers != worker`): the shared channel handing
    /// work to whichever worker was free, i.e. load actually rebalanced.
    pub steals: u64,
    /// Downstream sends that found the channel full and had to block —
    /// backpressure events, not deadlocks.
    pub backpressure_waits: u64,
    /// Total time workers spent inside `process` (summed across workers).
    pub busy: Duration,
    /// Offset from run start when the stage began its first item.
    pub first_input: Option<Duration>,
    /// Offset from run start when the stage finished its last item.
    pub last_output: Option<Duration>,
    /// Items per worker, in worker-index order.
    pub per_worker: Vec<u64>,
}

impl StageStats {
    /// Fraction of `workers × wall` the stage spent busy. Values near 1
    /// mean the stage was the bottleneck; near 0, it was starved.
    pub fn occupancy(&self, wall: Duration) -> f64 {
        let denom = self.workers as f64 * wall.as_secs_f64();
        if denom > 0.0 {
            self.busy.as_secs_f64() / denom
        } else {
            0.0
        }
    }

    /// Wall-clock span from the stage's first input to its last output.
    pub fn active_span(&self) -> Duration {
        match (self.first_input, self.last_output) {
            (Some(first), Some(last)) => last.saturating_sub(first),
            _ => Duration::ZERO,
        }
    }
}

/// Ballpark cost of one bounded-channel hop (send + wakeup + recv) for a
/// single message, in nanoseconds — the quantity batching amortizes.
/// Used only by the [`PipelineStats::hop_ns_saved`] proxy; nothing
/// behavioral depends on it.
pub const HOP_COST_NS: u64 = 150;

/// Observability for one pipeline run: the per-stage streaming analog of
/// [`crate::par::ExecStats`].
#[derive(Clone, Debug)]
pub struct PipelineStats {
    /// Workers per processing stage.
    pub workers: usize,
    /// Capacity of each inter-stage channel, denominated in items (a
    /// channel holds `ceil(capacity / batch)` messages).
    pub capacity: usize,
    /// Items per channel message the feeder packed.
    pub batch: usize,
    /// Items the sink folded (the sequential-equivalent item count;
    /// stages may process more when an early stop discards overshoot).
    pub items: u64,
    /// Channel messages received across every hop (each stage plus the
    /// sink). At batch 1 this equals the per-hop item totals; larger
    /// batches shrink it proportionally.
    pub messages: u64,
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// Processing stages, in pipeline order.
    pub stages: Vec<StageStats>,
    /// The in-order fold at the end of the pipeline (always 1 worker).
    pub sink: StageStats,
    /// Times the feeder blocked pushing into the first channel.
    pub feed_waits: u64,
}

impl PipelineStats {
    /// Aggregate rate in sink-folded items per second of wall time.
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }

    /// Items transported across all hops (stage receipts plus sink
    /// receipts) — the message count a batch-1 run would have needed.
    pub fn hop_items(&self) -> u64 {
        self.stages.iter().map(|s| s.items).sum::<u64>() + self.sink.items
    }

    /// Realized items per channel message across all hops: the measured
    /// amortization factor (1.0 means every item paid a full hop).
    pub fn items_per_message(&self) -> f64 {
        if self.messages > 0 {
            self.hop_items() as f64 / self.messages as f64
        } else {
            0.0
        }
    }

    /// Proxy for the channel-hop time batching saved: the hops *not*
    /// paid (item transports minus actual messages) times the
    /// [`HOP_COST_NS`] ballpark. A proxy, not a measurement — it makes
    /// the amortization visible in reports without claiming precision.
    pub fn hop_ns_saved(&self) -> u64 {
        self.hop_items()
            .saturating_sub(self.messages)
            .saturating_mul(HOP_COST_NS)
    }

    /// True when every consecutive stage pair (including the sink)
    /// genuinely interleaved: the later stage began its first item before
    /// the earlier stage finished its last. This is the observable
    /// refutation of barrier execution, valid even on one core.
    pub fn strictly_overlapped(&self) -> bool {
        let mut chain: Vec<&StageStats> = self.stages.iter().collect();
        chain.push(&self.sink);
        chain
            .windows(2)
            .all(|pair| match (pair[1].first_input, pair[0].last_output) {
                (Some(later_first), Some(earlier_last)) => later_first < earlier_last,
                _ => false,
            })
    }
}

/// A pipeline outcome plus the [`PipelineStats`] of producing it.
#[derive(Clone, Debug)]
pub struct PipelineRun<A> {
    /// The sink's final accumulator, bit-identical to the sequential
    /// fold for any worker count, channel capacity, and batch size.
    pub outcome: A,
    /// How the work streamed and how fast it went.
    pub stats: PipelineStats,
}

/// Default per-channel capacity: deep enough to keep workers busy across
/// item-cost variance, shallow enough to bound memory and overshoot.
pub const DEFAULT_CAPACITY: usize = 256;

/// Batch size from `MINEDIG_PIPE_BATCH`; `None` when unset, unparsable,
/// or 0 (all meaning "auto": `max(1, capacity / workers)`).
pub fn batch_from_env() -> Option<usize> {
    std::env::var("MINEDIG_PIPE_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&b: &usize| b > 0)
}

/// Shared atomic counters one stage's workers write into.
struct StageMetrics {
    items: AtomicU64,
    messages: AtomicU64,
    steals: AtomicU64,
    backpressure: AtomicU64,
    busy_nanos: AtomicU64,
    /// Nanosecond offset of the first item's start (`u64::MAX` = none).
    first_input: AtomicU64,
    /// Nanosecond offset of the last item's end (0 = none until set).
    last_output: AtomicU64,
    per_worker: Vec<AtomicU64>,
}

impl StageMetrics {
    fn new(workers: usize) -> StageMetrics {
        StageMetrics {
            items: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            backpressure: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            first_input: AtomicU64::new(u64::MAX),
            last_output: AtomicU64::new(0),
            per_worker: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn into_stats(self, stage: usize) -> StageStats {
        let items = self.items.load(Ordering::Relaxed);
        let first = self.first_input.load(Ordering::Relaxed);
        let last = self.last_output.load(Ordering::Relaxed);
        StageStats {
            stage,
            workers: self.per_worker.len(),
            items,
            messages: self.messages.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            backpressure_waits: self.backpressure.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
            first_input: (first != u64::MAX).then(|| Duration::from_nanos(first)),
            last_output: (items > 0).then(|| Duration::from_nanos(last)),
            per_worker: self
                .per_worker
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Sends with backpressure accounting: a non-blocking attempt first, then
/// a blocking send counted as one backpressure wait. Returns `false` when
/// the downstream receivers are gone (the pipeline is shutting down).
fn send_counted<T>(tx: &Sender<T>, msg: T, backpressure: &AtomicU64) -> bool {
    match tx.try_send(msg) {
        Ok(()) => true,
        Err(TrySendError::Full(msg)) => {
            backpressure.fetch_add(1, Ordering::Relaxed);
            tx.send(msg).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// One stage worker: pull a batch from the shared channel (work
/// stealing), run the stage over every item with one reused scratch,
/// push the output batch downstream under the same base sequence. Exits
/// when the input drains or the downstream disconnects (early stop
/// cascading backwards).
#[allow(clippy::too_many_arguments)]
fn stage_worker<S: PipelineStage>(
    stage: &S,
    rx: Receiver<(u64, Vec<S::In>)>,
    tx: Sender<(u64, Vec<S::Out>)>,
    metrics: &StageMetrics,
    worker: usize,
    workers: usize,
    batch: usize,
    t0: Instant,
) {
    let mut scratch = stage.scratch();
    while let Ok((base, items)) = rx.recv() {
        let began = t0.elapsed();
        metrics
            .first_input
            .fetch_min(began.as_nanos() as u64, Ordering::Relaxed);
        let n = items.len() as u64;
        let mut outs = Vec::with_capacity(items.len());
        for item in items {
            outs.push(stage.process(item, &mut scratch));
        }
        let ended = t0.elapsed();
        metrics.items.fetch_add(n, Ordering::Relaxed);
        metrics.messages.fetch_add(1, Ordering::Relaxed);
        metrics.per_worker[worker].fetch_add(n, Ordering::Relaxed);
        // Batches are contiguous seq ranges of `batch` items (only the
        // final one may be short), so `base / batch` is the batch index
        // the round-robin affinity is defined over.
        if (base / batch as u64) % workers as u64 != worker as u64 {
            metrics.steals.fetch_add(n, Ordering::Relaxed);
        }
        metrics
            .busy_nanos
            .fetch_add((ended - began).as_nanos() as u64, Ordering::Relaxed);
        metrics
            .last_output
            .fetch_max(ended.as_nanos() as u64, Ordering::Relaxed);
        if !send_counted(&tx, (base, outs), &metrics.backpressure) {
            break;
        }
    }
}

/// The feeder: packs the source into contiguous `batch`-item messages
/// tagged with the base sequence number, stopping when the pipeline
/// disconnects (early stop) or the source ends (the final batch may be
/// short).
fn feed<T: Send>(
    source: impl Iterator<Item = T>,
    tx: Sender<(u64, Vec<T>)>,
    batch: usize,
    waits: &AtomicU64,
) {
    let mut base = 0u64;
    let mut buf: Vec<T> = Vec::with_capacity(batch);
    for item in source {
        buf.push(item);
        if buf.len() == batch {
            let full = std::mem::replace(&mut buf, Vec::with_capacity(batch));
            if !send_counted(&tx, (base, full), waits) {
                return;
            }
            base += batch as u64;
        }
    }
    if !buf.is_empty() {
        let _ = send_counted(&tx, (base, buf), waits);
    }
}

/// The sink: reorders output batches into sequence order and folds them
/// item-by-item. Because every batch is a contiguous seq range, folding
/// the batch at key `next_seq` in element order is exactly the per-item
/// sequential fold. On `Break` it simply returns — dropping its receiver
/// unblocks and terminates every upstream worker and the feeder, and the
/// unconsumed tail of the breaking batch is discarded with the rest of
/// the in-flight overshoot.
fn run_sink<Out, A>(
    rx: Receiver<(u64, Vec<Out>)>,
    acc: &mut A,
    mut fold: impl FnMut(&mut A, Out) -> ControlFlow<()>,
    metrics: &StageMetrics,
    t0: Instant,
) {
    let mut reorder: BTreeMap<u64, Vec<Out>> = BTreeMap::new();
    let mut next_seq = 0u64;
    'pipeline: while let Ok((base, outs)) = rx.recv() {
        metrics.messages.fetch_add(1, Ordering::Relaxed);
        reorder.insert(base, outs);
        while let Some(outs) = reorder.remove(&next_seq) {
            let began = t0.elapsed();
            metrics
                .first_input
                .fetch_min(began.as_nanos() as u64, Ordering::Relaxed);
            let mut consumed = 0u64;
            let mut flow = ControlFlow::Continue(());
            for out in outs {
                consumed += 1;
                flow = fold(acc, out);
                if flow.is_break() {
                    break;
                }
            }
            let ended = t0.elapsed();
            metrics.items.fetch_add(consumed, Ordering::Relaxed);
            metrics.per_worker[0].fetch_add(consumed, Ordering::Relaxed);
            metrics
                .busy_nanos
                .fetch_add((ended - began).as_nanos() as u64, Ordering::Relaxed);
            metrics
                .last_output
                .fetch_max(ended.as_nanos() as u64, Ordering::Relaxed);
            next_seq += consumed;
            if flow.is_break() {
                break 'pipeline;
            }
        }
    }
}

/// Runs streaming pipelines with a fixed worker count per stage, a fixed
/// inter-stage channel capacity (denominated in items), and a fixed
/// items-per-message batch size.
#[derive(Clone, Copy, Debug)]
pub struct PipelineExecutor {
    workers: usize,
    capacity: usize,
    batch: usize,
}

impl PipelineExecutor {
    /// Executor with `workers` consumers per stage and channels holding
    /// `capacity` in-flight items (both clamped to at least 1). The
    /// batch size defaults to auto — `max(1, capacity / workers)` — and
    /// can be overridden with [`with_batch`](PipelineExecutor::with_batch).
    pub fn new(workers: usize, capacity: usize) -> PipelineExecutor {
        let workers = workers.max(1);
        let capacity = capacity.max(1);
        PipelineExecutor {
            workers,
            capacity,
            batch: (capacity / workers).max(1),
        }
    }

    /// Overrides the items-per-message batch size (clamped to at least
    /// 1). Results are bit-identical for every value; only the hop
    /// amortization changes.
    pub fn with_batch(mut self, batch: usize) -> PipelineExecutor {
        self.batch = batch.max(1);
        self
    }

    /// One worker per stage with the default capacity — the streaming
    /// (still overlapped!) analog of a sequential run.
    pub fn sequential() -> PipelineExecutor {
        PipelineExecutor::new(1, DEFAULT_CAPACITY)
    }

    /// Configured workers per stage.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Configured channel capacity (in items).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Configured items per channel message.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Channel capacity in messages: the item-denominated capacity
    /// divided by the batch size, rounded up so one full batch always
    /// fits.
    fn message_capacity(&self) -> usize {
        self.capacity.div_ceil(self.batch).max(1)
    }

    /// Streams `source` through one stage into an in-order fold.
    ///
    /// Equivalent to `for item in source { fold(&mut acc, stage(item)) }`
    /// — bit-identically, for any worker count, capacity, and batch size
    /// — but with the stage running concurrently with both the source
    /// iterator and the fold. `fold` returning [`ControlFlow::Break`]
    /// stops the pipeline exactly where the sequential loop would have
    /// stopped.
    pub fn run<S, I, A, F>(&self, source: I, stage: &S, mut acc: A, fold: F) -> PipelineRun<A>
    where
        S: PipelineStage,
        I: IntoIterator<Item = S::In>,
        I::IntoIter: Send,
        F: FnMut(&mut A, S::Out) -> ControlFlow<()>,
    {
        let t0 = Instant::now();
        let feed_waits = AtomicU64::new(0);
        let metrics = StageMetrics::new(self.workers);
        let sink_metrics = StageMetrics::new(1);
        let msg_cap = self.message_capacity();
        let (tx0, rx0) = bounded::<(u64, Vec<S::In>)>(msg_cap);
        let (tx1, rx1) = bounded::<(u64, Vec<S::Out>)>(msg_cap);
        let source = source.into_iter();

        std::thread::scope(|s| {
            s.spawn(|| feed(source, tx0, self.batch, &feed_waits));
            for w in 0..self.workers {
                let (rx, tx) = (rx0.clone(), tx1.clone());
                let metrics = &metrics;
                s.spawn(move || {
                    stage_worker(stage, rx, tx, metrics, w, self.workers, self.batch, t0)
                });
            }
            drop(rx0);
            drop(tx1);
            run_sink(rx1, &mut acc, fold, &sink_metrics, t0);
        });

        let sink = sink_metrics.into_stats(1);
        let stages = vec![metrics.into_stats(0)];
        PipelineRun {
            outcome: acc,
            stats: PipelineStats {
                workers: self.workers,
                capacity: self.capacity,
                batch: self.batch,
                items: sink.items,
                messages: stages.iter().map(|s| s.messages).sum::<u64>() + sink.messages,
                elapsed: t0.elapsed(),
                stages,
                sink,
                feed_waits: feed_waits.load(Ordering::Relaxed),
            },
        }
    }

    /// Streams `source` through two chained stages into an in-order
    /// fold: same contract as [`run`](PipelineExecutor::run), with both
    /// stages (and the source, and the fold) overlapping. Batches flow
    /// through both hops intact: stage 2 consumes stage 1's output
    /// batches under the same base sequence numbers.
    pub fn run2<S1, S2, I, A, F>(
        &self,
        source: I,
        stage1: &S1,
        stage2: &S2,
        mut acc: A,
        fold: F,
    ) -> PipelineRun<A>
    where
        S1: PipelineStage,
        S2: PipelineStage<In = S1::Out>,
        I: IntoIterator<Item = S1::In>,
        I::IntoIter: Send,
        F: FnMut(&mut A, S2::Out) -> ControlFlow<()>,
    {
        let t0 = Instant::now();
        let feed_waits = AtomicU64::new(0);
        let metrics1 = StageMetrics::new(self.workers);
        let metrics2 = StageMetrics::new(self.workers);
        let sink_metrics = StageMetrics::new(1);
        let msg_cap = self.message_capacity();
        let (tx0, rx0) = bounded::<(u64, Vec<S1::In>)>(msg_cap);
        let (tx1, rx1) = bounded::<(u64, Vec<S1::Out>)>(msg_cap);
        let (tx2, rx2) = bounded::<(u64, Vec<S2::Out>)>(msg_cap);
        let source = source.into_iter();

        std::thread::scope(|s| {
            s.spawn(|| feed(source, tx0, self.batch, &feed_waits));
            for w in 0..self.workers {
                let (rx, tx) = (rx0.clone(), tx1.clone());
                let metrics = &metrics1;
                s.spawn(move || {
                    stage_worker(stage1, rx, tx, metrics, w, self.workers, self.batch, t0)
                });
            }
            for w in 0..self.workers {
                let (rx, tx) = (rx1.clone(), tx2.clone());
                let metrics = &metrics2;
                s.spawn(move || {
                    stage_worker(stage2, rx, tx, metrics, w, self.workers, self.batch, t0)
                });
            }
            drop(rx0);
            drop(tx1);
            drop(rx1);
            drop(tx2);
            run_sink(rx2, &mut acc, fold, &sink_metrics, t0);
        });

        let sink = sink_metrics.into_stats(2);
        let stages = vec![metrics1.into_stats(0), metrics2.into_stats(1)];
        PipelineRun {
            outcome: acc,
            stats: PipelineStats {
                workers: self.workers,
                capacity: self.capacity,
                batch: self.batch,
                items: sink.items,
                messages: stages.iter().map(|s| s.messages).sum::<u64>() + sink.messages,
                elapsed: t0.elapsed(),
                stages,
                sink,
                feed_waits: feed_waits.load(Ordering::Relaxed),
            },
        }
    }
}

/// A stateless [`PipelineStage`] from a plain function, for workloads
/// whose scratch is trivial.
pub struct FnStage<In, Out, F: Fn(In) -> Out + Sync> {
    f: F,
    _marker: std::marker::PhantomData<fn(In) -> Out>,
}

impl<In, Out, F: Fn(In) -> Out + Sync> FnStage<In, Out, F> {
    /// Wraps `f` as a scratchless stage.
    pub fn new(f: F) -> FnStage<In, Out, F> {
        FnStage {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<In: Send, Out: Send, F: Fn(In) -> Out + Sync> PipelineStage for FnStage<In, Out, F> {
    type In = In;
    type Out = Out;
    type Scratch = ();

    fn scratch(&self) {}

    fn process(&self, item: In, _scratch: &mut ()) -> Out {
        (self.f)(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn collect_fold<T>(acc: &mut Vec<T>, item: T) -> ControlFlow<()> {
        acc.push(item);
        ControlFlow::Continue(())
    }

    #[test]
    fn outputs_arrive_in_submission_order_for_any_width() {
        let stage = FnStage::new(|i: u64| i * i);
        let expected: Vec<u64> = (0..500).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 16] {
            for capacity in [1, 2, 7, 64] {
                let run = PipelineExecutor::new(workers, capacity).run(
                    0..500u64,
                    &stage,
                    Vec::new(),
                    collect_fold,
                );
                assert_eq!(run.outcome, expected, "workers={workers} cap={capacity}");
                assert_eq!(run.stats.items, 500);
                assert_eq!(run.stats.stages[0].items, 500);
                let spread: u64 = run.stats.stages[0].per_worker.iter().sum();
                assert_eq!(spread, 500);
            }
        }
    }

    #[test]
    fn every_batch_size_is_bit_identical() {
        let stage = FnStage::new(|i: u64| i.wrapping_mul(0x9E37_79B9) ^ (i << 7));
        let expected: Vec<u64> = (0..777)
            .map(|i: u64| i.wrapping_mul(0x9E37_79B9) ^ (i << 7))
            .collect();
        for workers in [1, 3, 8] {
            for capacity in [1, 4, 64] {
                for batch in [1, 2, 3, 16, 256] {
                    let run = PipelineExecutor::new(workers, capacity)
                        .with_batch(batch)
                        .run(0..777u64, &stage, Vec::new(), collect_fold);
                    assert_eq!(
                        run.outcome, expected,
                        "workers={workers} cap={capacity} batch={batch}"
                    );
                    assert_eq!(run.stats.items, 777);
                    assert_eq!(run.stats.batch, batch);
                }
            }
        }
    }

    #[test]
    fn batching_amortizes_channel_messages() {
        let stage = FnStage::new(|i: u64| i);
        let unbatched =
            PipelineExecutor::new(2, 64)
                .with_batch(1)
                .run(0..10_000u64, &stage, 0u64, |acc, v| {
                    *acc += v;
                    ControlFlow::Continue(())
                });
        let batched = PipelineExecutor::new(2, 64).with_batch(100).run(
            0..10_000u64,
            &stage,
            0u64,
            |acc, v| {
                *acc += v;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(unbatched.outcome, batched.outcome);
        // Batch 1: one message per item per hop (2 hops × 10k items).
        assert_eq!(unbatched.stats.messages, 20_000);
        assert!((unbatched.stats.items_per_message() - 1.0).abs() < 1e-9);
        // Batch 100: exactly 100 messages per hop.
        assert_eq!(batched.stats.messages, 200);
        assert!((batched.stats.items_per_message() - 100.0).abs() < 1e-9);
        assert!(batched.stats.hop_ns_saved() > unbatched.stats.hop_ns_saved());
        assert_eq!(
            unbatched.stats.messages / batched.stats.messages,
            100,
            "message amortization tracks the batch size exactly"
        );
    }

    #[test]
    fn auto_batch_defaults_to_capacity_over_workers() {
        assert_eq!(PipelineExecutor::new(4, 256).batch(), 64);
        assert_eq!(PipelineExecutor::new(8, 4).batch(), 1);
        assert_eq!(PipelineExecutor::new(1, 256).batch(), 256);
        assert_eq!(PipelineExecutor::new(3, 10).batch(), 3);
        assert_eq!(PipelineExecutor::new(2, 64).with_batch(0).batch(), 1);
    }

    #[test]
    fn short_final_batch_is_folded_completely() {
        // 103 items at batch 25: four full batches plus a 3-item tail.
        let stage = FnStage::new(|i: u64| i + 1);
        let run = PipelineExecutor::new(3, 8).with_batch(25).run(
            0..103u64,
            &stage,
            Vec::new(),
            collect_fold,
        );
        let expected: Vec<u64> = (1..=103).collect();
        assert_eq!(run.outcome, expected);
        assert_eq!(run.stats.stages[0].messages, 5);
        assert_eq!(run.stats.sink.messages, 5);
    }

    #[test]
    fn two_stage_chain_composes_in_order() {
        let double = FnStage::new(|i: u64| i * 2);
        let stringify = FnStage::new(|i: u64| format!("#{i}"));
        let expected: Vec<String> = (0..200).map(|i| format!("#{}", i * 2)).collect();
        for workers in [1, 4] {
            for batch in [1, 7, 64] {
                let run = PipelineExecutor::new(workers, 8).with_batch(batch).run2(
                    0..200u64,
                    &double,
                    &stringify,
                    Vec::new(),
                    collect_fold,
                );
                assert_eq!(run.outcome, expected, "workers={workers} batch={batch}");
                assert_eq!(run.stats.stages.len(), 2);
                assert_eq!(run.stats.stages[1].items, 200);
            }
        }
    }

    #[test]
    fn early_break_stops_at_the_sequential_item() {
        // Infinite source: only an early stop can end this run, and the
        // fold must see exactly 0..=42 like the sequential loop — even
        // when the break lands mid-batch and the batch tail is discarded.
        let stage = FnStage::new(|i: u64| i);
        for workers in [1, 3, 8] {
            for batch in [1, 4, 100] {
                let run = PipelineExecutor::new(workers, 4).with_batch(batch).run(
                    0u64..,
                    &stage,
                    Vec::new(),
                    |acc: &mut Vec<u64>, i| {
                        acc.push(i);
                        if i == 42 {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    },
                );
                let expected: Vec<u64> = (0..=42).collect();
                assert_eq!(run.outcome, expected, "workers={workers} batch={batch}");
                assert_eq!(run.stats.items, 43);
                // The stage overshoots (bounded in-flight work past the
                // break), but everything past the break is discarded: the
                // fold saw exactly the sequential prefix.
                assert!(run.stats.stages[0].items >= 43);
            }
        }
    }

    #[test]
    fn empty_source_folds_nothing() {
        let stage = FnStage::new(|i: u64| i);
        let run =
            PipelineExecutor::new(4, 8).run(std::iter::empty(), &stage, Vec::new(), collect_fold);
        assert!(run.outcome.is_empty());
        assert_eq!(run.stats.items, 0);
        assert_eq!(run.stats.messages, 0);
        assert_eq!(run.stats.sink.first_input, None);
    }

    #[test]
    fn scratch_is_allocated_once_per_worker() {
        struct CountingStage {
            allocations: AtomicUsize,
        }
        impl PipelineStage for CountingStage {
            type In = u64;
            type Out = u64;
            type Scratch = Vec<u8>;
            fn scratch(&self) -> Vec<u8> {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(64)
            }
            fn process(&self, item: u64, scratch: &mut Vec<u8>) -> u64 {
                scratch.clear();
                scratch.extend_from_slice(&item.to_le_bytes());
                scratch.iter().map(|&b| u64::from(b)).sum()
            }
        }
        let stage = CountingStage {
            allocations: AtomicUsize::new(0),
        };
        let run = PipelineExecutor::new(3, 8).run(0..1000u64, &stage, 0u64, |acc, v| {
            *acc += v;
            ControlFlow::Continue(())
        });
        assert_eq!(run.stats.items, 1000);
        assert_eq!(
            stage.allocations.load(Ordering::Relaxed),
            3,
            "one scratch per worker, not per item or per batch"
        );
    }

    #[test]
    fn stages_overlap_even_sequentially() {
        // With more items than fit in the channels, the sink must start
        // folding while the stage is still processing — streaming, not
        // barrier, even with one worker on one core.
        let stage = FnStage::new(|i: u64| i + 1);
        let run = PipelineExecutor::new(1, 4).run(0..10_000u64, &stage, 0u64, |acc, v| {
            *acc += v;
            ControlFlow::Continue(())
        });
        assert!(
            run.stats.strictly_overlapped(),
            "sink first_input {:?} vs stage last_output {:?}",
            run.stats.sink.first_input,
            run.stats.stages[0].last_output
        );
    }

    #[test]
    fn backpressure_is_counted_not_fatal() {
        // A deliberately slow sink with capacity 1 forces the stage (and
        // feeder) to block on full channels.
        let stage = FnStage::new(|i: u64| i);
        let run = PipelineExecutor::new(2, 1).run(0..300u64, &stage, 0u64, |acc, v| {
            std::thread::sleep(Duration::from_micros(50));
            *acc += v;
            ControlFlow::Continue(())
        });
        assert_eq!(run.outcome, (0..300).sum::<u64>());
        assert!(
            run.stats.stages[0].backpressure_waits + run.stats.feed_waits > 0,
            "capacity-1 channels with a slow sink must record backpressure"
        );
    }

    #[test]
    fn work_stealing_spreads_uneven_items() {
        // Item 0 is enormously slower than the rest; with 2 workers the
        // other worker must pick up nearly everything else (steals > 0
        // records the rebalancing).
        let stage = FnStage::new(|i: u64| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            i
        });
        let run = PipelineExecutor::new(2, 4).run(0..200u64, &stage, Vec::new(), collect_fold);
        assert_eq!(run.outcome.len(), 200);
        let stats = &run.stats.stages[0];
        assert!(
            stats.steals > 0,
            "uneven load must be rebalanced through the shared channel: {stats:?}"
        );
    }

    #[test]
    fn executor_clamps_and_reports_config() {
        let exec = PipelineExecutor::new(0, 0);
        assert_eq!(exec.workers(), 1);
        assert_eq!(exec.capacity(), 1);
        assert_eq!(exec.batch(), 1);
        assert_eq!(PipelineExecutor::sequential().workers(), 1);
    }

    #[test]
    fn occupancy_and_span_are_sane() {
        let stage = FnStage::new(|i: u64| {
            std::thread::sleep(Duration::from_micros(20));
            i
        });
        let run = PipelineExecutor::new(2, 8).run(0..100u64, &stage, 0u64, |acc, v| {
            *acc += v;
            ControlFlow::Continue(())
        });
        let occ = run.stats.stages[0].occupancy(run.stats.elapsed);
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
        assert!(run.stats.stages[0].active_span() > Duration::ZERO);
        assert!(run.stats.items_per_sec() > 0.0);
    }
}
