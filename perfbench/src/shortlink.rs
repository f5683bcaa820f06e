//! `shortlink` and `shortlink_ckpt`: the §4.1 link-space study.
//!
//! `shortlink` is `run_study` as the Fig 3/4 and Table 4/5 binaries call
//! it, at a larger link scale. `shortlink_ckpt` is the supervised walk
//! `MINEDIG_CKPT_DIR=… minedig shortlink` runs at its defaults: 50,000
//! links, a snapshot every 64 items, the last 2 kept, no kills.

use crate::trace::{count, span, Count, Layer};
use crate::workload::{Digest, RepOutcome, Scale, Traced, Workload};
use minedig::core::shortlink_study::{run_study, run_study_supervised, StudyConfig, StudyResult};
use minedig::primitives::ckpt::{Checkpointable, SnapshotStore};
use minedig::primitives::par::ParallelExecutor;
use minedig::primitives::stats::{top1_share, top_k_for_share, Ecdf, Pow2Histogram};
use minedig::primitives::supervise::{Backend, Campaign, CrashPolicy, SuperviseReport, Supervisor};
use minedig::primitives::DetRng;
use minedig::shortlink::campaign::EnumCampaign;
use minedig::shortlink::enumerate::{enumerate_links, enumerate_links_sharded, Enumeration};
use minedig::shortlink::ids::code_to_index;
use minedig::shortlink::model::{LinkPopulation, ModelConfig, PAPER_LINK_COUNT};
use minedig::shortlink::probe::ProbePolicy;
use minedig::shortlink::resolve::{resolve_accounted, ResolveReport};
use minedig::shortlink::service::ShortlinkService;
use minedig::web::category::Category;
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering;

/// The study's dead-run limit (`run_study`'s walk stops after this many
/// consecutive dead codes).
const DEAD_RUN_LIMIT: u64 = 256;

/// Items between checkpoints and snapshots kept: the CLI's defaults.
const CKPT_EVERY: u64 = 64;
const CKPT_KEEP: usize = 2;

fn study_config(links: u64, users: usize, seed: u64) -> StudyConfig {
    StudyConfig {
        model: ModelConfig {
            total_links: links,
            users,
            seed,
        },
        resolve_budget: 10_000,
        per_user_sample: 1_000,
        enum_shards: 1,
    }
}

/// The study's result reduced to what the paper reports from it.
fn digest(r: &StudyResult) -> u64 {
    let mut d = Digest::default();
    let e = &r.enumeration;
    d.u64(e.probed)
        .u64(e.failed_probes)
        .u64(e.probe_retries)
        .u64(e.docs.len() as u64);
    for doc in &e.docs {
        d.str(&doc.code).u64(doc.token_id).u64(doc.required_hashes);
    }
    d.u64(r.links_per_token.len() as u64);
    for &n in &r.links_per_token {
        d.u64(n);
    }
    d.f64(r.top1_share).u64(r.users_for_85pct as u64);
    for (bin, n) in r.hist_biased.bins() {
        d.u64(bin).u64(n);
    }
    for cdf in [&r.cdf_biased, &r.cdf_unbiased] {
        d.u64(cdf.len() as u64);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            d.f64(cdf.quantile(q));
        }
    }
    d.f64(r.unbiased_le_1024).u64(r.hashes_spent);
    for (domain, share) in &r.top10_domains {
        d.str(domain).f64(*share);
    }
    for (c, n) in &r.tail_categories {
        d.str(c.label()).u64(*n);
    }
    d.f64(r.tail_classified_fraction);
    d.finish()
}

fn study_outcome(r: &StudyResult, extra_attempted: u64) -> RepOutcome {
    let e = &r.enumeration;
    RepOutcome {
        digest: digest(r),
        attempted: e.probed + extra_attempted,
        failed: e.failed_probes,
        invariants: Vec::new(),
        counts: vec![
            ("ids_probed", e.probed),
            ("links_found", e.docs.len() as u64),
            ("hashes_accounted", r.hashes_spent),
        ],
    }
}

/// The tail filter `run_study` resolves through: first sighting of a
/// `(token, requirement)` pair, under budget, in ID order.
fn tail_codes(e: &Enumeration, budget: u64) -> Vec<String> {
    let mut seen = HashSet::new();
    e.docs
        .iter()
        .filter(|d| seen.insert((d.token_id, d.required_hashes)) && d.required_hashes < budget)
        .map(|d| d.code.clone())
        .collect()
}

fn resolve(service: &ShortlinkService, codes: &[String], budget: u64) -> ResolveReport {
    let report = span(Layer::ShortlinkResolve, || {
        resolve_accounted(service, codes, budget)
    });
    count(Count::ShortlinkResolved, report.resolved.len() as u64);
    report
}

/// The analysis `run_study` runs after the walk — Fig 3/4 statistics,
/// the Table 4 sample (resolved here) and the Table 5 categorisation —
/// recomposed from the public statistics and resolve calls.
fn finish(
    service: &ShortlinkService,
    enumeration: Enumeration,
    tail: ResolveReport,
    config: &StudyConfig,
    seed: u64,
) -> StudyResult {
    let links_per_token = enumeration.links_per_token();
    let top1 = top1_share(&links_per_token);
    let users85 = top_k_for_share(links_per_token.clone(), 0.85);
    let biased = enumeration.requirements_biased();
    let unbiased = enumeration.requirements_unbiased();
    let mut hist = Pow2Histogram::new(63);
    for &h in &biased {
        hist.add(h);
    }
    let log2 = |v: &u64| (*v as f64).log2();
    let cdf_biased = Ecdf::new(biased.iter().map(log2).collect());
    let cdf_unbiased = Ecdf::new(unbiased.iter().map(log2).collect());
    let le1024 = unbiased.iter().filter(|&&h| h <= 1024).count() as f64 / unbiased.len() as f64;

    let mut rng = DetRng::seed(seed).derive("shortlink.study.sample");
    let mut top10_codes = Vec::new();
    for token in enumeration.top_tokens(10) {
        let mut codes: Vec<String> = enumeration
            .docs
            .iter()
            .filter(|d| d.token_id == token)
            .map(|d| d.code.clone())
            .collect();
        rng.shuffle(&mut codes);
        codes.truncate(config.per_user_sample);
        top10_codes.extend(codes);
    }
    let top10 = resolve(service, &top10_codes, u64::MAX);
    let mut domain_counts: BTreeMap<String, u64> = BTreeMap::new();
    for (_code, url) in &top10.resolved {
        let domain = url
            .trim_start_matches("https://")
            .split('/')
            .next()
            .unwrap_or("")
            .to_string();
        *domain_counts.entry(domain).or_insert(0) += 1;
    }
    let total_top10 = top10.resolved.len().max(1) as f64;
    let mut top10_domains: Vec<(String, f64)> = domain_counts
        .into_iter()
        .map(|(d, c)| (d, c as f64 / total_top10))
        .collect();
    top10_domains.sort_by(|a, b| b.1.total_cmp(&a.1));

    let rulespace_rng = DetRng::seed(seed).derive("shortlink.study.rulespace");
    let mut tail_categories: BTreeMap<Category, u64> = BTreeMap::new();
    let mut classified = 0u64;
    for (code, _url) in &tail.resolved {
        let Some(link) = code_to_index(code).and_then(|i| service.link(i)) else {
            continue;
        };
        if rulespace_rng.derive(&link.target_domain).chance(0.67) {
            classified += 1;
            for c in &link.target_categories {
                *tail_categories.entry(*c).or_insert(0) += 1;
            }
        }
    }
    let tail_classified_fraction = classified as f64 / tail.resolved.len().max(1) as f64;
    // The resolve stage's accounted hashes (the paper's 61.5 M figure);
    // the Table 4 sample is resolved regardless of cost and saturates.
    count(Count::ShortlinkHashes, tail.hashes_spent);
    StudyResult {
        enumeration,
        links_per_token,
        top1_share: top1,
        users_for_85pct: users85,
        hist_biased: hist,
        cdf_biased,
        cdf_unbiased,
        unbiased_le_1024: le1024,
        hashes_spent: tail.hashes_spent.saturating_add(top10.hashes_spent),
        top10_domains,
        tail_categories,
        tail_classified_fraction,
    }
}

fn generate(config: &StudyConfig) -> ShortlinkService {
    span(Layer::ShortlinkGenerate, || {
        ShortlinkService::new(LinkPopulation::generate(&config.model))
    })
}

fn walk_figures(e: &Enumeration) -> Vec<(&'static str, f64)> {
    vec![
        ("shortlink.ids_probed", e.probed as f64),
        ("shortlink.links_found", e.docs.len() as f64),
        (
            "shortlink.hit_frac",
            e.docs.len() as f64 / e.probed.max(1) as f64,
        ),
    ]
}

// ---------------------------------------------------------------------
// shortlink
// ---------------------------------------------------------------------

pub struct Shortlink {
    links: u64,
}

impl Shortlink {
    pub fn new(scale: Scale) -> Shortlink {
        Shortlink {
            links: match scale {
                Scale::Full => PAPER_LINK_COUNT / 4,
                Scale::Small => 20_000,
            },
        }
    }
}

/// `run_study` recomposed; `walk` picks the enumerator.
fn study_recomposed(
    config: &StudyConfig,
    walk: impl FnOnce(&ShortlinkService) -> Enumeration,
) -> StudyResult {
    let service = generate(config);
    let enumeration = span(Layer::ShortlinkEnumerate, || walk(&service));
    span(Layer::CoreStudyFinish, || {
        let codes = tail_codes(&enumeration, config.resolve_budget);
        let tail = resolve(&service, &codes, config.resolve_budget);
        finish(&service, enumeration, tail, config, config.model.seed)
    })
}

impl Workload for Shortlink {
    type Input = StudyConfig;

    /// `run_study` takes a config and generates its link population and
    /// service itself, so the set-up times that generation alone.
    fn setup(&self, seed: u64) -> StudyConfig {
        let config = study_config(self.links, 12_000, seed);
        std::hint::black_box(generate(&config));
        config
    }

    fn run(&self, input: &StudyConfig) -> (RepOutcome, Vec<(&'static str, f64)>) {
        let r = run_study(input, input.model.seed);
        (study_outcome(&r, 0), Vec::new())
    }

    fn run_traced(&self, input: &StudyConfig) -> Traced {
        let r = study_recomposed(input, |s| {
            enumerate_links_sharded(s, DEAD_RUN_LIMIT, &ParallelExecutor::new(1)).enumeration
        });
        Traced {
            outcome: study_outcome(&r, 0),
            record: crate::trace::take(),
            extra: walk_figures(&r.enumeration),
        }
    }

    /// The plain sequential walk (`enumerate_links`) in place of the
    /// windowed one `run_study` uses.
    fn reference(&self, input: &StudyConfig) -> u64 {
        digest(&study_recomposed(input, |s| {
            enumerate_links(s, DEAD_RUN_LIMIT)
        }))
    }

    fn recorded_digest(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Full => 0x51f2_58df_8a41_508a,
            Scale::Small => 0x56a2_ae04_1643_4d66,
        }
    }
}

// ---------------------------------------------------------------------
// shortlink_ckpt
// ---------------------------------------------------------------------

pub struct ShortlinkCkpt {
    links: u64,
    /// Snapshot directory, emptied before each repetition.
    dir: PathBuf,
}

impl ShortlinkCkpt {
    pub fn new(scale: Scale, dir: PathBuf) -> ShortlinkCkpt {
        ShortlinkCkpt {
            links: match scale {
                Scale::Full => 50_000,
                Scale::Small => 10_000,
            },
            dir,
        }
    }

    /// The CLI's snapshot name.
    fn name(config: &StudyConfig) -> String {
        format!(
            "shortlink-{}-{}",
            config.model.total_links, config.model.seed
        )
    }

    /// A fresh, empty snapshot directory for one repetition.
    fn fresh_store(&self) -> SnapshotStore {
        let _ = std::fs::remove_dir_all(&self.dir);
        SnapshotStore::open_with_keep(&self.dir, CKPT_KEEP).expect("snapshot directory")
    }

    fn policy() -> CrashPolicy {
        CrashPolicy {
            ckpt_every_items: CKPT_EVERY,
            ckpt_every_virtual_ms: None,
            max_restarts: 16,
            stall_limit: 3,
        }
    }
}

impl Drop for ShortlinkCkpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn ckpt_outcome(r: &StudyResult, report: &SuperviseReport) -> RepOutcome {
    // Every checkpoint save is an operation too; a failed save aborts
    // the run, so none of the reported ones failed.
    let mut o = study_outcome(r, report.checkpoints);
    o.invariants
        .push(("SuperviseReport::balanced", report.balanced()));
    o.counts.extend([
        ("checkpoints", report.checkpoints),
        ("snapshot_bytes", report.snapshot_bytes),
        ("items", report.items_executed()),
    ]);
    o
}

impl Workload for ShortlinkCkpt {
    type Input = StudyConfig;

    fn setup(&self, seed: u64) -> StudyConfig {
        // The CLI's user count for a given link count.
        let users = 12_000.min(self.links as usize / 4).max(100);
        let config = study_config(self.links, users, seed);
        std::hint::black_box(generate(&config));
        config
    }

    fn run(&self, input: &StudyConfig) -> (RepOutcome, Vec<(&'static str, f64)>) {
        let store = self.fresh_store();
        let run = run_study_supervised(
            input,
            input.model.seed,
            &store,
            &Self::name(input),
            &Supervisor::new(Self::policy()),
            Backend::Sequential,
            false,
        )
        .expect("supervised study without kills completes");
        (ckpt_outcome(&run.result, &run.report), Vec::new())
    }

    /// `run_study_supervised` recomposed: the supervisor's loop for a
    /// run without kills — `Campaign::run_items` up to each checkpoint,
    /// then `Checkpointable::snapshot` and `SnapshotStore::save` — with
    /// a span around each call.
    fn run_traced(&self, input: &StudyConfig) -> Traced {
        let store = self.fresh_store();
        let name = Self::name(input);
        let service = generate(input);
        let policy = ProbePolicy::default();
        let mut campaign =
            EnumCampaign::new(&service, &policy, DEAD_RUN_LIMIT, Backend::Sequential)
                .with_tail_resolver(&service, input.resolve_budget);
        let heartbeat = AtomicU64::new(0);
        let mut report = SuperviseReport {
            attempts: 1,
            ..SuperviseReport::default()
        };
        let save = |campaign: &EnumCampaign<'_, ShortlinkService>| {
            let snap = span(Layer::CkptSnapshot, || campaign.snapshot());
            let bytes = span(Layer::CkptSave, || store.save(&name, &snap))
                .expect("snapshot save in a fresh directory");
            count(Count::CkptSaves, 1);
            count(Count::CkptBytesWritten, bytes);
            bytes
        };
        let mut restore_point = 0;
        loop {
            let progress = campaign.progress_key();
            if campaign.is_done() {
                report.snapshot_bytes = save(&campaign);
                report.checkpoints += 1;
                break;
            }
            let budget = CKPT_EVERY.saturating_sub(progress - restore_point).max(1);
            let beat = heartbeat.load(Ordering::Relaxed);
            span(Layer::ShortlinkEnumerate, || {
                campaign.run_items(budget, &heartbeat)
            });
            let after = campaign.progress_key();
            report.items_after_resume += after - progress;
            assert!(
                heartbeat.load(Ordering::Relaxed) != beat || campaign.is_done(),
                "walk stalled"
            );
            if after - restore_point >= CKPT_EVERY {
                report.snapshot_bytes = save(&campaign);
                report.checkpoints += 1;
                restore_point = after;
            }
        }
        report.final_progress = campaign.progress_key();
        let out = campaign.finish();
        let figures = walk_figures(&out.enumeration);
        count(
            Count::ShortlinkResolved,
            out.resolve_report.resolved.len() as u64,
        );
        let r = span(Layer::CoreStudyFinish, || {
            finish(
                &service,
                out.enumeration,
                out.resolve_report,
                input,
                input.model.seed,
            )
        });
        let record = crate::trace::take();
        let mut extra = figures;
        extra.extend([
            ("ckpt.last_bytes", report.snapshot_bytes as f64),
            (
                "ckpt.bytes_per_item",
                record.count(Count::CkptBytesWritten) as f64 / report.final_progress.max(1) as f64,
            ),
        ]);
        Traced {
            outcome: ckpt_outcome(&r, &report),
            record,
            extra,
        }
    }

    /// The unsupervised study on the same config.
    fn reference(&self, input: &StudyConfig) -> u64 {
        digest(&run_study(input, input.model.seed))
    }

    fn recorded_digest(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Full => 0x0ff0_c115_cc61_d40d,
            Scale::Small => 0xc2ec_c18f_3144_fc4f,
        }
    }
}
