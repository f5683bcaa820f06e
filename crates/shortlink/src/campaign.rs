//! The §4.1 enumeration (plus optional accounted resolution) as a
//! killable, resumable [`Campaign`].
//!
//! One item = one probed ID. The snapshot is an append-ordered event
//! stream — one event per live doc, carrying its resolved URL inline
//! when resolution rides along — followed by the counters (the walk's,
//! the current dead run, and the accounted [`ResolveReport`]'s). The
//! stream is encoded as the fold goes, so a snapshot copies bytes
//! instead of re-encoding the ledger, and consecutive snapshots share
//! everything but their new events and counters: exactly what
//! [`SnapshotStore`](minedig_primitives::ckpt::SnapshotStore) appends
//! as one record. Because probe
//! results, retry jitter, and async latency are all keyed by link code
//! (never probing order), re-probing `[cursor, …)` after a restore
//! replays exactly the suffix the sequential walk would have produced,
//! so kill-and-resume is bit-identical to an uninterrupted run on any
//! backend — for every ledger the campaign owns. The service-side
//! creator-hash ledger is the one exception: replaying a lost window
//! re-redeems its links, re-crediting creators, just as a crashed
//! real-world crawler re-pays the PoW for work it had not yet
//! checkpointed.

use crate::enumerate::Enumeration;
use crate::ids::index_to_code;
use crate::probe::{probe_with_retry, LinkProber, ProbeError, ProbePolicy};
use crate::resolve::{resolve_step, ResolveReport};
use crate::service::{ShortlinkService, VisitDoc};
use minedig_primitives::aexec::AsyncExecutor;
use minedig_primitives::ckpt::{Checkpointable, CkptError, SnapReader, SnapWriter, Snapshot};
use minedig_primitives::par::{ParallelExecutor, ShardedTask};
use minedig_primitives::pipeline::{PipelineExecutor, PipelineStage};
use minedig_primitives::rng::DetRng;
use minedig_primitives::supervise::{Backend, Campaign};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicU64, Ordering};

/// Simulated round-trip of one probe on the async backend, keyed by the
/// link code (never by probing order) so the latency schedule cannot
/// perturb results across concurrency levels.
fn probe_latency_ms(code: &str) -> u64 {
    1 + DetRng::seed(0x5C0DE).derive(code).gen_range(48)
}

// ---------------------------------------------------------------------
// Snapshot codec.
// ---------------------------------------------------------------------

/// Opens every payload: the layout's tag. The earlier layout opened
/// with the live-doc count, and no walk holds this many docs, so a
/// payload in that layout is rejected here instead of misparsed.
const STREAM_LAYOUT: u64 = 0x4D44_454E_554D_0002;

/// Event tag of one live doc; the stream ends at [`END_OF_STREAM`].
const LIVE_DOC: bool = true;
const END_OF_STREAM: bool = false;

/// Bytes per segment of an [`EventStream`].
const SEGMENT: usize = 64 * 1024;

/// The payload's append-ordered part — header, then one event per live
/// doc — encoded as the walk folds, in segments of about [`SEGMENT`]
/// bytes. A stream that grows all walk long then never needs one large
/// contiguous allocation, which would move to a new, larger region of
/// the heap on every growth and leave the old one behind.
struct EventStream {
    resolving: bool,
    done: Vec<Vec<u8>>,
    open: SnapWriter,
}

impl EventStream {
    /// A stream holding just the header: layout tag and resolver mode.
    fn new(resolving: bool, tail_only: bool) -> EventStream {
        let mut open = SnapWriter::new();
        open.u64(STREAM_LAYOUT);
        open.bool(resolving);
        open.bool(tail_only);
        EventStream {
            resolving,
            done: Vec::new(),
            open,
        }
    }

    /// Appends one live-doc event: the doc, then — when a resolver
    /// rides along — the URL it resolved to, if it did.
    fn push(&mut self, doc: &VisitDoc, url: Option<&String>) {
        let w = &mut self.open;
        w.bool(LIVE_DOC);
        w.str(&doc.code);
        w.u64(doc.token_id);
        w.u64(doc.required_hashes);
        if self.resolving {
            w.opt(url, |w, url| w.str(url));
        }
        if w.as_bytes().len() >= SEGMENT {
            self.done.push(std::mem::take(&mut self.open).finish());
        }
    }

    /// The stream followed by `tail`, as one payload.
    fn with_tail(&self, tail: &[u8]) -> Vec<u8> {
        let parts = || {
            self.done
                .iter()
                .map(Vec::as_slice)
                .chain([self.open.as_bytes(), tail])
        };
        let mut payload = Vec::with_capacity(parts().map(<[u8]>::len).sum());
        for part in parts() {
            payload.extend_from_slice(part);
        }
        payload
    }
}

/// Decodes a stream header into `(resolving, tail_only)`.
fn take_header(r: &mut SnapReader) -> Result<(bool, bool), CkptError> {
    if r.u64()? != STREAM_LAYOUT {
        return Err(CkptError::Corrupt("not an enumeration event stream"));
    }
    Ok((r.bool()?, r.bool()?))
}

/// Decodes events up to and including the end marker, handing each
/// live doc and its resolved URL to `f` in stream (= ID) order.
fn take_events(
    r: &mut SnapReader,
    resolving: bool,
    mut f: impl FnMut(VisitDoc, Option<String>),
) -> Result<(), CkptError> {
    while r.bool()? == LIVE_DOC {
        let doc = VisitDoc {
            code: r.str()?,
            token_id: r.u64()?,
            required_hashes: r.u64()?,
        };
        let url = if resolving { r.opt(|r| r.str())? } else { None };
        f(doc, url);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The probe, as a sharded task and as a pipeline stage.
// ---------------------------------------------------------------------

type Probed = (Result<Option<VisitDoc>, ProbeError>, u32);

/// Sharded sub-task: probe a chunk of the range, results in index
/// order (the executor merges chunks in shard = index order).
struct RangeProbeTask<'a, P: LinkProber> {
    prober: &'a P,
    policy: &'a ProbePolicy,
    base: u64,
    len: usize,
}

impl<P: LinkProber> ShardedTask for RangeProbeTask<'_, P> {
    type Output = Vec<Probed>;

    fn len(&self) -> usize {
        self.len
    }

    fn run_shard(&self, range: Range<usize>, progress: &AtomicU64) -> Vec<Probed> {
        let mut out = Vec::with_capacity(range.len());
        for offset in range {
            progress.fetch_add(1, Ordering::Relaxed);
            let code = index_to_code(self.base + offset as u64);
            out.push(probe_with_retry(self.prober, &code, self.policy));
        }
        out
    }

    fn merge(&self, acc: &mut Vec<Probed>, mut next: Vec<Probed>) {
        acc.append(&mut next);
    }
}

struct RangeProbeStage<'a, P: LinkProber> {
    prober: &'a P,
    policy: &'a ProbePolicy,
}

impl<P: LinkProber + Sync> PipelineStage for RangeProbeStage<'_, P> {
    type In = u64;
    type Out = Probed;
    type Scratch = ();

    fn scratch(&self) {}

    fn process(&self, index: u64, _scratch: &mut ()) -> Probed {
        probe_with_retry(self.prober, &index_to_code(index), self.policy)
    }
}

// ---------------------------------------------------------------------
// The campaign.
// ---------------------------------------------------------------------

/// The ID-space walk (optionally with accounted resolution riding on
/// each live find) as a supervised campaign.
pub struct EnumCampaign<'a, P: LinkProber + Sync> {
    prober: &'a P,
    policy: &'a ProbePolicy,
    dead_run_limit: u64,
    backend: Backend,
    /// `Some` when accounted resolution rides along: the service to
    /// redeem against and the per-link hash budget.
    resolver: Option<(&'a ShortlinkService, u64)>,
    /// When set, only the *unbiased tail* is resolved: the first
    /// sighting of each `(token, requirement)` pair, and only when
    /// affordable — the §4.1 study's resolve set. The sighting state is
    /// not snapshotted; it is rebuilt from the stream's docs on
    /// restore, since every live doc entered it exactly once.
    tail_only: bool,
    seen: std::collections::HashSet<(u64, u64)>,
    /// The ledger as the snapshot's event stream so far. It is the only
    /// copy of the docs and URLs until `finish` decodes it.
    stream: EventStream,
    /// The walk's counters; its `docs` stay empty until `finish`.
    enumeration: Enumeration,
    /// The resolution counters; its `resolved` stays empty until
    /// `finish`.
    resolve_report: ResolveReport,
    dead_run: u64,
}

/// What a finished [`EnumCampaign`] yields: the enumeration plus the
/// accounted resolution ledger (default-empty when no resolver rode
/// along).
#[derive(Clone, Debug)]
pub struct EnumCampaignOutput {
    /// The walk's ledger, identical to `enumerate_links_with`.
    pub enumeration: Enumeration,
    /// The accounted resolution ledger, folded in ID order.
    pub resolve_report: ResolveReport,
}

impl<'a, P: LinkProber + Sync> EnumCampaign<'a, P> {
    /// A fresh walk from index 0.
    pub fn new(
        prober: &'a P,
        policy: &'a ProbePolicy,
        dead_run_limit: u64,
        backend: Backend,
    ) -> EnumCampaign<'a, P> {
        EnumCampaign {
            prober,
            policy,
            dead_run_limit,
            backend,
            resolver: None,
            tail_only: false,
            seen: std::collections::HashSet::new(),
            enumeration: Enumeration {
                docs: Vec::new(),
                probed: 0,
                failed_probes: 0,
                probe_retries: 0,
            },
            resolve_report: ResolveReport::default(),
            dead_run: 0,
            stream: EventStream::new(false, false),
        }
    }

    /// Rides accounted resolution on the walk: every live doc is
    /// resolved (budget permitting) against `service` as the fold
    /// reaches it, so a checkpoint carries the resolution ledger too.
    pub fn with_resolver(
        mut self,
        service: &'a ShortlinkService,
        budget_per_link: u64,
    ) -> EnumCampaign<'a, P> {
        self.resolver = Some((service, budget_per_link));
        self.stream = EventStream::new(true, false);
        self
    }

    /// Rides *unbiased-tail* resolution on the walk — the §4.1 study's
    /// resolve stage: only the first sighting of each
    /// `(token, requirement)` pair is resolved, and only when under
    /// `budget_per_link`. Because the tail [`ResolveReport`] is part of
    /// the campaign snapshot, a killed study resumes the resolve stage
    /// too instead of re-resolving from scratch.
    pub fn with_tail_resolver(
        mut self,
        service: &'a ShortlinkService,
        budget_per_link: u64,
    ) -> EnumCampaign<'a, P> {
        self.resolver = Some((service, budget_per_link));
        self.tail_only = true;
        self.stream = EventStream::new(true, true);
        self
    }

    /// Folds one probe, the next in index order, with the sequential
    /// dead-run walk, breaking once the walk has stopped.
    fn fold_one(&mut self, (result, retries): Probed, heartbeat: &AtomicU64) -> ControlFlow<()> {
        let e = &mut self.enumeration;
        e.probed += 1;
        e.probe_retries += u64::from(retries);
        match result {
            Ok(Some(doc)) => {
                self.dead_run = 0;
                let mut url = None;
                if let Some((service, budget_per_link)) = self.resolver {
                    // In tail mode, only the first sighting of a
                    // (token, requirement) pair under budget joins the
                    // resolve set — the §4.1 unbiased filter.
                    let wanted = !self.tail_only
                        || (self.seen.insert((doc.token_id, doc.required_hashes))
                            && doc.required_hashes < budget_per_link);
                    if wanted {
                        resolve_step(
                            service,
                            &mut self.resolve_report,
                            &doc.code,
                            budget_per_link,
                        );
                        // The URL joins the doc's event.
                        url = self.resolve_report.resolved.pop().map(|(_, url)| url);
                    }
                }
                self.stream.push(&doc, url.as_ref());
            }
            Ok(None) => self.dead_run += 1,
            // Neutral: not evidence of a dead ID, not a live link.
            Err(_) => e.failed_probes += 1,
        }
        heartbeat.fetch_add(1, Ordering::Relaxed);
        if self.is_done() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

impl<P: LinkProber + Sync> Checkpointable for EnumCampaign<'_, P> {
    fn progress_key(&self) -> u64 {
        self.enumeration.probed
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapWriter::new();
        w.bool(END_OF_STREAM);
        let e = &self.enumeration;
        w.u64(e.probed);
        w.u64(e.failed_probes);
        w.u64(e.probe_retries);
        w.u64(self.dead_run);
        if self.resolver.is_some() {
            let rep = &self.resolve_report;
            w.u64(rep.skipped_over_budget);
            w.u64(rep.visit_failures);
            w.u64(rep.hashes_spent);
        }
        Snapshot::new(e.probed, self.stream.with_tail(w.as_bytes()))
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), CkptError> {
        let mut r = SnapReader::new(&snapshot.payload);
        let (resolving, tail_only) = take_header(&mut r)?;
        if resolving != self.resolver.is_some() {
            return Err(CkptError::Corrupt("resolver presence mismatch"));
        }
        if tail_only != self.tail_only {
            return Err(CkptError::Corrupt("resolver mode mismatch"));
        }
        // Re-encoding the events rebuilds the stream and, in tail mode,
        // the sighting state: every live doc inserted its pair once.
        let mut stream = EventStream::new(resolving, tail_only);
        let mut seen = std::collections::HashSet::new();
        take_events(&mut r, resolving, |doc, url| {
            if tail_only {
                seen.insert((doc.token_id, doc.required_hashes));
            }
            stream.push(&doc, url.as_ref());
        })?;
        let enumeration = Enumeration {
            docs: Vec::new(),
            probed: r.u64()?,
            failed_probes: r.u64()?,
            probe_retries: r.u64()?,
        };
        let dead_run = r.u64()?;
        let resolve_report = if resolving {
            ResolveReport {
                resolved: Vec::new(),
                skipped_over_budget: r.u64()?,
                visit_failures: r.u64()?,
                hashes_spent: r.u64()?,
            }
        } else {
            ResolveReport::default()
        };
        r.expect_end()?;
        if dead_run > self.dead_run_limit {
            return Err(CkptError::Corrupt("dead run beyond limit"));
        }
        self.seen = seen;
        self.stream = stream;
        self.enumeration = enumeration;
        self.dead_run = dead_run;
        self.resolve_report = resolve_report;
        Ok(())
    }
}

impl<P: LinkProber + Sync> Campaign for EnumCampaign<'_, P> {
    type Output = EnumCampaignOutput;

    fn is_done(&self) -> bool {
        self.dead_run >= self.dead_run_limit
    }

    /// Probes from the cursor on `backend` while the fold runs in index
    /// order beside it, stopping where the sequential walk stops or the
    /// budget runs out. The streaming and async executors stop at the
    /// fold's break and discard their overshoot; the sharded one probes
    /// windows no larger than the dead-run limit, so it wastes at most
    /// that many probes past the stop however large `budget` is.
    fn run_items(&mut self, budget: u64, heartbeat: &AtomicU64) {
        if self.is_done() {
            return;
        }
        let (prober, policy, backend) = (self.prober, self.policy, self.backend);
        let base = self.enumeration.probed;
        let range = base..base.saturating_add(budget);
        let window = self.dead_run_limit;
        let mut fold = |_: &mut (), probed: Probed| self.fold_one(probed, heartbeat);
        match backend {
            Backend::Sequential => {
                for index in range {
                    let probed = probe_with_retry(prober, &index_to_code(index), policy);
                    if fold(&mut (), probed).is_break() {
                        return;
                    }
                }
            }
            Backend::Sharded(shards) => {
                let executor = ParallelExecutor::new(shards);
                let mut start = range.start;
                while start < range.end {
                    let len = (range.end - start).min(window);
                    let task = RangeProbeTask {
                        prober,
                        policy,
                        base: start,
                        len: len as usize,
                    };
                    start += len;
                    for probed in executor.execute(&task).outcome {
                        if fold(&mut (), probed).is_break() {
                            return;
                        }
                    }
                }
            }
            Backend::Streaming {
                workers,
                capacity,
                batch,
            } => {
                let stage = RangeProbeStage { prober, policy };
                PipelineExecutor::new(workers, capacity)
                    .with_batch(batch)
                    .run(range, &stage, (), fold);
            }
            Backend::Async { concurrency } => {
                AsyncExecutor::new(concurrency).run_ordered(
                    range,
                    |actx, index| {
                        let code = index_to_code(index);
                        async move {
                            actx.sleep_ms(probe_latency_ms(&code)).await;
                            probe_with_retry(prober, &code, policy)
                        }
                    },
                    (),
                    fold,
                );
            }
        }
    }

    fn finish(self) -> EnumCampaignOutput {
        let mut enumeration = self.enumeration;
        let mut resolve_report = self.resolve_report;
        let mut end = SnapWriter::new();
        end.bool(END_OF_STREAM);
        let bytes = self.stream.with_tail(end.as_bytes());
        let mut r = SnapReader::new(&bytes);
        take_header(&mut r)
            .and_then(|(resolving, _)| {
                take_events(&mut r, resolving, |doc, url| {
                    if let Some(url) = url {
                        resolve_report.resolved.push((doc.code.clone(), url));
                    }
                    enumeration.docs.push(doc);
                })
            })
            .expect("the campaign's own event stream decodes");
        EnumCampaignOutput {
            enumeration,
            resolve_report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_links_with;
    use crate::model::{LinkPopulation, ModelConfig};
    use crate::resolve::resolve_accounted;
    use minedig_primitives::ckpt::SnapshotStore;
    use minedig_primitives::supervise::{CrashPolicy, Supervisor};

    fn service() -> ShortlinkService {
        ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: 600,
            users: 40,
            seed: 11,
        }))
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("minedig-enum-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_enum_eq(a: &Enumeration, b: &Enumeration) {
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.probed, b.probed);
        assert_eq!(a.failed_probes, b.failed_probes);
        assert_eq!(a.probe_retries, b.probe_retries);
    }

    #[test]
    fn supervised_walk_with_kills_matches_sequential_on_every_backend() {
        let service = service();
        let policy = ProbePolicy::default();
        let expected = enumerate_links_with(&service, 32, &policy);
        for backend in [
            Backend::Sequential,
            Backend::Sharded(3),
            Backend::Streaming {
                workers: 2,
                capacity: 8,
                batch: 3,
            },
            Backend::Async { concurrency: 16 },
        ] {
            let dir = tmpdir(&format!("walk-{}", backend.label()));
            let store = SnapshotStore::open(&dir).unwrap();
            let sup = Supervisor::new(CrashPolicy {
                ckpt_every_items: 64,
                ..CrashPolicy::default()
            })
            .with_kills(vec![40, 170, 600]);
            let run = sup
                .run(
                    &store,
                    "enum",
                    || EnumCampaign::new(&service, &policy, 32, backend),
                    false,
                )
                .unwrap();
            assert_enum_eq(&run.output.enumeration, &expected);
            assert!(run.report.balanced(), "{:?}", run.report);
            assert_eq!(run.report.crashes, 3, "backend={}", backend.label());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn an_unbounded_budget_finishes_a_resumed_walk_on_every_backend() {
        let service = service();
        let policy = ProbePolicy::default();
        let expected = enumerate_links_with(&service, 32, &policy);
        for backend in [
            Backend::Sequential,
            Backend::Sharded(3),
            Backend::Streaming {
                workers: 2,
                capacity: 8,
                batch: 3,
            },
            Backend::Async { concurrency: 16 },
        ] {
            let hb = AtomicU64::new(0);
            let mut first = EnumCampaign::new(&service, &policy, 32, backend);
            first.run_items(100, &hb);
            let mut resumed = EnumCampaign::new(&service, &policy, 32, backend);
            resumed.restore(&first.snapshot()).unwrap();
            resumed.run_items(u64::MAX, &hb);
            assert!(resumed.is_done(), "backend={}", backend.label());
            assert_enum_eq(&resumed.finish().enumeration, &expected);
        }
    }

    #[test]
    fn a_zero_dead_run_limit_probes_nothing_on_every_backend() {
        let service = service();
        let policy = ProbePolicy::default();
        for backend in [
            Backend::Sequential,
            Backend::Sharded(3),
            Backend::Streaming {
                workers: 2,
                capacity: 8,
                batch: 3,
            },
            Backend::Async { concurrency: 16 },
        ] {
            let mut walk = EnumCampaign::new(&service, &policy, 0, backend);
            assert!(walk.is_done());
            walk.run_items(u64::MAX, &AtomicU64::new(0));
            let out = walk.finish().enumeration;
            assert_eq!(out.probed, 0, "backend={}", backend.label());
            assert!(out.docs.is_empty());
        }
    }

    #[test]
    fn resolution_ledger_survives_kills() {
        let service = service();
        let policy = ProbePolicy::default();
        let clean = enumerate_links_with(&service, 32, &policy);
        let codes: Vec<String> = clean.docs.iter().map(|d| d.code.clone()).collect();
        let expected = resolve_accounted(&service, &codes, 10_000);
        let dir = tmpdir("resolve");
        let store = SnapshotStore::open(&dir).unwrap();
        let sup = Supervisor::new(CrashPolicy {
            ckpt_every_items: 32,
            ..CrashPolicy::default()
        })
        .with_kills(vec![100, 333]);
        let run = sup
            .run(
                &store,
                "enum-resolve",
                || {
                    EnumCampaign::new(&service, &policy, 32, Backend::Sequential)
                        .with_resolver(&service, 10_000)
                },
                false,
            )
            .unwrap();
        // The campaign-owned ledger is bit-identical: the restored
        // report is the checkpointed prefix and the replayed window
        // appends each lost doc exactly once. (The *service-side*
        // creator ledger may double-credit replayed links — a crashed
        // crawler really does re-pay the PoW for un-checkpointed work.)
        assert_eq!(run.output.resolve_report.resolved, expected.resolved);
        assert_eq!(
            run.output.resolve_report.skipped_over_budget,
            expected.skipped_over_budget
        );
        assert_eq!(
            run.output.resolve_report.hashes_spent,
            expected.hashes_spent
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_resolution_survives_kills_on_every_backend() {
        // The §4.1 resolve stage riding on the walk: the checkpointed
        // tail report must match the batch filter-then-resolve exactly,
        // even when the campaign is killed mid-resolve.
        let service = service();
        let policy = ProbePolicy::default();
        let clean = enumerate_links_with(&service, 32, &policy);
        let budget = 10_000u64;
        let mut seen = std::collections::HashSet::new();
        let tail_codes: Vec<String> = clean
            .docs
            .iter()
            .filter(|d| seen.insert((d.token_id, d.required_hashes)) && d.required_hashes < budget)
            .map(|d| d.code.clone())
            .collect();
        let expected = resolve_accounted(&service, &tail_codes, budget);
        assert!(!expected.resolved.is_empty(), "tail set must be non-empty");
        for backend in [
            Backend::Sequential,
            Backend::Streaming {
                workers: 3,
                capacity: 16,
                batch: 5,
            },
        ] {
            let dir = tmpdir(&format!("tail-{}", backend.label()));
            let store = SnapshotStore::open(&dir).unwrap();
            let sup = Supervisor::new(CrashPolicy {
                ckpt_every_items: 32,
                ..CrashPolicy::default()
            })
            .with_kills(vec![90, 300]);
            let run = sup
                .run(
                    &store,
                    "enum-tail",
                    || {
                        EnumCampaign::new(&service, &policy, 32, backend)
                            .with_tail_resolver(&service, budget)
                    },
                    false,
                )
                .unwrap();
            assert_eq!(run.report.crashes, 2, "backend={}", backend.label());
            assert_enum_eq(&run.output.enumeration, &clean);
            assert_eq!(
                run.output.resolve_report.resolved,
                expected.resolved,
                "backend={}",
                backend.label()
            );
            assert_eq!(
                run.output.resolve_report.hashes_spent,
                expected.hashes_spent
            );
            assert_eq!(run.output.resolve_report.skipped_over_budget, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_stream_of_many_segments_round_trips() {
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: 24_000,
            users: 300,
            seed: 5,
        }));
        let policy = ProbePolicy::default();
        let expected = enumerate_links_with(&service, 32, &policy);
        let build = || {
            EnumCampaign::new(&service, &policy, 32, Backend::Sequential)
                .with_tail_resolver(&service, 10_000)
        };
        let hb = AtomicU64::new(0);
        let mut first = build();
        first.run_items(20_000, &hb);
        assert!(first.stream.done.len() >= 2, "the walk must span segments");
        let snap = first.snapshot();
        let mut second = build();
        second.restore(&snap).unwrap();
        assert_eq!(second.stream.done.len(), first.stream.done.len());
        assert_eq!(second.snapshot(), snap);
        for mut c in [first, second] {
            while !c.is_done() {
                c.run_items(1_000, &hb);
            }
            assert_enum_eq(&c.finish().enumeration, &expected);
        }
    }

    #[test]
    fn restore_rejects_tail_mode_mismatch() {
        let service = service();
        let policy = ProbePolicy::default();
        let mut tail = EnumCampaign::new(&service, &policy, 8, Backend::Sequential)
            .with_tail_resolver(&service, 10_000);
        tail.run_items(16, &AtomicU64::new(0));
        let snap = tail.snapshot();
        let mut all = EnumCampaign::new(&service, &policy, 8, Backend::Sequential)
            .with_resolver(&service, 10_000);
        assert!(matches!(all.restore(&snap), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn restore_rejects_resolver_mismatch() {
        let service = service();
        let policy = ProbePolicy::default();
        let mut with = EnumCampaign::new(&service, &policy, 8, Backend::Sequential)
            .with_resolver(&service, 10_000);
        with.run_items(16, &AtomicU64::new(0));
        let snap = with.snapshot();
        let mut without = EnumCampaign::new(&service, &policy, 8, Backend::Sequential);
        assert!(matches!(without.restore(&snap), Err(CkptError::Corrupt(_))));
    }
}
