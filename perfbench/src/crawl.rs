//! `crawl`: the §3 scans over a world drawn from the seed: the
//! `fig2_nocoin_scan` zgrab path on all four zones (first scan, then the
//! churn-aware rescan) and the Tables 1–3 Chrome path on Alexa and .org,
//! sharded across two workers.

use crate::trace::{count, span, Count, Layer, Record};
use crate::workload::{retry_policy, Digest, RepOutcome, Scale, Traced, Workload};
use minedig::browser::loader::{load_page, LoadPolicy};
use minedig::core::exec::ScanExecutor;
use minedig::core::scan::{
    build_reference_db, chrome_fold, chrome_scan, zgrab_fold, zgrab_scan_retaining,
    zgrab_scan_with, ChromeAnalysis, ChromeScanOutcome, ChromeVerdict, DomainRef, FetchModel,
    FetchStats, RescanStats, ZgrabProbe, ZgrabScanOutcome, ZgrabVerdict,
};
use minedig::nocoin::NoCoinEngine;
use minedig::primitives::par::{ExecStats, ParallelExecutor, ShardedTask};
use minedig::wasm::fingerprint::fingerprint_with;
use minedig::wasm::module::Module;
use minedig::wasm::sigdb::{MatchKind, MinerFamily, SignatureDb, WasmClass};
use minedig::web::churn::{second_scan_with_delta, DEFAULT_REMOVAL_RATE};
use minedig::web::deploy::{ArtifactKind, Hosting};
use minedig::web::page::{family_for_ws_url, synthesize_page, zgrab_fetch};
use minedig::web::universe::{Domain, Population};
use minedig::web::zone::Zone;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Chrome-path shards: the host's two cores, fixed here rather than
/// read from `MINEDIG_SHARDS`. The benchmark pins itself to one CPU
/// (`measure::pin_to_one_cpu`), so both shards share it.
const CHROME_SHARDS: usize = 2;

/// Clean-sample sizes of `fig2_nocoin_scan` (zgrab) and the Tables 1–3
/// binaries (Chrome).
const ZGRAB_CLEAN: usize = 500;
const CHROME_CLEAN: usize = 1_000;

/// Signature coverage of the reference database the paper binaries use.
const DB_COVERAGE: f64 = 0.7;

pub struct Crawl {
    zgrab_clean: usize,
    chrome_clean: usize,
}

impl Crawl {
    pub fn new(scale: Scale) -> Crawl {
        match scale {
            Scale::Full => Crawl {
                zgrab_clean: ZGRAB_CLEAN,
                chrome_clean: CHROME_CLEAN,
            },
            Scale::Small => Crawl {
                zgrab_clean: 50,
                chrome_clean: 50,
            },
        }
    }
}

/// A world: the populations of both scan paths, generated from one seed,
/// and the reference signature database.
pub struct CrawlInput {
    seed: u64,
    zgrab: Vec<Population>,
    chrome: Vec<Population>,
    db: SignatureDb,
}

/// The results of a world's scans, in the order the digest reads them.
#[derive(Default)]
struct CrawlResult {
    first: Vec<ZgrabScanOutcome>,
    second: Vec<ZgrabScanOutcome>,
    rescans: Vec<RescanStats>,
    chrome: Vec<ChromeScanOutcome>,
}

fn digest_fetch(d: &mut Digest, f: &FetchStats) {
    d.u64(f.attempted)
        .u64(f.responded)
        .u64(f.unreachable)
        .u64(f.silent)
        .u64(f.retries);
}

fn digest_refs(d: &mut Digest, refs: &[DomainRef]) {
    d.u64(refs.len() as u64);
    for r in refs {
        d.str(&r.name).u64(u64::from(r.obscure));
        for c in &r.categories {
            d.str(c.label());
        }
    }
}

fn digest_zgrab(d: &mut Digest, o: &ZgrabScanOutcome) {
    d.str(o.zone.label())
        .u64(o.total_domains)
        .u64(o.hit_domains)
        .u64(o.clean_sample_hits)
        .u64(o.clean_sample_size);
    for (label, n) in &o.label_counts {
        d.str(label.label()).u64(*n);
    }
    digest_refs(d, &o.hit_refs);
    digest_fetch(d, &o.fetch);
}

fn digest_chrome(d: &mut Digest, o: &ChromeScanOutcome) {
    d.str(o.zone.label());
    for v in [
        o.nocoin_domains,
        o.wasm_domains,
        o.miner_wasm_domains,
        o.blocked_by_nocoin,
        o.missed_by_nocoin,
        o.nocoin_without_wasm,
        o.unclassified_wasm,
        o.clean_sample_miner_hits,
    ] {
        d.u64(v);
    }
    for (class, n) in &o.class_counts {
        d.str(class).u64(*n);
    }
    digest_refs(d, &o.nocoin_refs);
    digest_refs(d, &o.miner_refs);
    digest_fetch(d, &o.fetch);
}

fn outcome(r: &CrawlResult) -> RepOutcome {
    let mut d = Digest::default();
    let mut attempted = 0;
    let mut failed = 0;
    let mut balanced = true;
    let (mut zgrab, mut chrome, mut wasm, mut miners) = (0, 0, 0, 0);
    for o in r.first.iter().chain(&r.second) {
        digest_zgrab(&mut d, o);
        attempted += o.fetch.attempted;
        failed += o.fetch.unreachable;
        balanced &= o.fetch.balanced();
        zgrab += o.fetch.attempted;
    }
    for o in &r.chrome {
        digest_chrome(&mut d, o);
        attempted += o.fetch.attempted;
        failed += o.fetch.unreachable;
        balanced &= o.fetch.balanced();
        chrome += o.fetch.attempted;
        wasm += o.wasm_domains;
        miners += o.miner_wasm_domains;
    }
    let (reused, probed) = rescan_totals(r);
    RepOutcome {
        digest: d.finish(),
        attempted,
        failed,
        invariants: vec![("FetchStats::balanced", balanced)],
        counts: vec![
            ("zgrab_domains", zgrab),
            ("rescan_reused", reused),
            ("rescan_probed", probed),
            ("chrome_domains", chrome),
            ("wasm_domains", wasm),
            ("miner_wasm_domains", miners),
        ],
    }
}

/// Verdicts the rescans reused and domains they probed.
fn rescan_totals(r: &CrawlResult) -> (u64, u64) {
    r.rescans
        .iter()
        .fold((0, 0), |(a, b), s| (a + s.reused, b + s.probed))
}

/// Slowest shard's busy time over the mean shard's.
fn shard_skew(stats: &ExecStats) -> f64 {
    let busy: Vec<f64> = stats
        .per_shard
        .iter()
        .map(|s| s.elapsed.as_secs_f64())
        .collect();
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    busy.iter().cloned().fold(0.0, f64::max) / mean
}

// ---------------------------------------------------------------------
// The traced recomposition.
// ---------------------------------------------------------------------

/// The Table 3 reference the library keeps for a hit or miner domain.
fn domain_ref(d: &Domain) -> DomainRef {
    let obscure = matches!(
        d.artifact,
        Some(ArtifactKind::ActiveMiner {
            hosting: Hosting::SelfHosted | Hosting::Injected,
            ..
        })
    );
    DomainRef {
        name: d.name.clone(),
        categories: d.latent_categories.clone(),
        obscure,
    }
}

fn nocoin_labels(
    engine: &NoCoinEngine,
    name: &str,
    html: &str,
) -> Vec<minedig::nocoin::list::ServiceLabel> {
    let labels = span(Layer::NocoinMatch, || engine.page_labels(name, html));
    count(Count::NocoinPages, 1);
    count(Count::NocoinBytes, html.len() as u64);
    count(Count::NocoinHits, u64::from(!labels.is_empty()));
    labels
}

/// A zgrab probe of one domain from `zgrab_fetch` and
/// `NoCoinEngine::page_labels`. The benchmark's fetch model injects no
/// faults, so every domain is reachable on the first attempt.
fn zgrab_probe(engine: &NoCoinEngine, d: &Domain, seed: u64) -> ZgrabVerdict {
    let Some(html) = span(Layer::WebSynth, || zgrab_fetch(d, seed)) else {
        return ZgrabVerdict {
            retries: 0,
            probe: ZgrabProbe::Silent,
        };
    };
    count(Count::WebHtmlBytes, html.len() as u64);
    let labels = nocoin_labels(engine, &d.name, &html);
    let probe = if labels.is_empty() {
        ZgrabProbe::Clean
    } else {
        ZgrabProbe::Hit {
            labels,
            dref: domain_ref(d),
        }
    };
    ZgrabVerdict { retries: 0, probe }
}

/// `zgrab_scan_retaining` followed by `ZgrabRescanMemo::rescan`, from
/// their per-domain calls.
fn zgrab_traced(
    population: &Population,
    seed: u64,
) -> (ZgrabScanOutcome, ZgrabScanOutcome, RescanStats) {
    let engine = NoCoinEngine::new();
    let mut first = ZgrabScanOutcome::empty(population.zone);
    let mut artifact_verdicts = Vec::with_capacity(population.artifacts.len());
    for d in &population.artifacts {
        let v = zgrab_probe(&engine, d, seed);
        span(Layer::CoreFold, || zgrab_fold(&mut first, v.clone(), false));
        artifact_verdicts.push(v);
    }
    let mut clean_verdicts = Vec::with_capacity(population.clean_sample.len());
    for d in &population.clean_sample {
        let v = zgrab_probe(&engine, d, seed);
        span(Layer::CoreFold, || zgrab_fold(&mut first, v.clone(), true));
        clean_verdicts.push(v);
    }
    first.total_domains = population.total;

    let (second_pop, delta) = span(Layer::WebChurn, || {
        second_scan_with_delta(population, seed, DEFAULT_REMOVAL_RATE)
    });
    let engine = NoCoinEngine::new();
    let mut second = ZgrabScanOutcome::empty(second_pop.zone);
    let mut stats = RescanStats::default();
    for &src in &delta.survivors {
        let v = artifact_verdicts[src].clone();
        span(Layer::CoreFold, || zgrab_fold(&mut second, v, false));
        stats.reused += 1;
    }
    for d in &second_pop.artifacts[delta.survivors.len()..] {
        let v = zgrab_probe(&engine, d, seed);
        span(Layer::CoreFold, || zgrab_fold(&mut second, v, false));
        stats.probed += 1;
    }
    for v in clean_verdicts {
        span(Layer::CoreFold, || zgrab_fold(&mut second, v, true));
        stats.reused += 1;
    }
    second.total_domains = second_pop.total;
    (first, second, stats)
}

/// FNV-1a of a Wasm dump, to count repeated modules.
fn dump_key(dump: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(dump);
    d.finish()
}

/// `chrome_classify_domain`'s decision, from `NoCoinEngine::page_labels`,
/// `Module::parse` + `fingerprint_with` and `SignatureDb::classify`.
fn chrome_classify(
    engine: &NoCoinEngine,
    db: &SignatureDb,
    d: &Domain,
    capture: &minedig::browser::devtools::Capture,
    scratch: &mut Vec<u8>,
    dumps: &mut Vec<u64>,
) -> ChromeAnalysis {
    let nocoin_hit = !nocoin_labels(engine, &d.name, &capture.final_html).is_empty();
    let ws_urls = capture.websocket_urls();
    let ws_family = ws_urls.iter().find_map(|u| family_for_ws_url(u));
    let has_ws = !ws_urls.is_empty();
    let mut miner = false;
    let mut classes: Vec<String> = Vec::new();
    let mut unclassified = 0u64;
    for dump in &capture.wasm_dumps {
        count(Count::WasmModules, 1);
        count(Count::WasmModuleBytes, dump.len() as u64);
        dumps.push(dump_key(dump));
        let fp = span(Layer::WasmFingerprint, || {
            Module::parse(dump)
                .ok()
                .map(|m| fingerprint_with(&m, scratch))
        });
        let Some(fp) = fp else {
            unclassified += 1;
            continue;
        };
        let matched = span(Layer::WasmClassify, || db.classify(&fp));
        let class = match matched {
            Some(m) if m.kind == MatchKind::Exact => Some(m.class),
            other => match ws_family {
                Some(f) => Some(WasmClass::Miner(f)),
                None => match other {
                    Some(m) if m.class.is_miner() && has_ws => {
                        Some(WasmClass::Miner(MinerFamily::UnknownWss))
                    }
                    Some(m) => Some(m.class),
                    None if has_ws && fp.features.has_hash_name_hint() => {
                        Some(WasmClass::Miner(MinerFamily::UnknownWss))
                    }
                    None => None,
                },
            },
        };
        match class {
            Some(c) => {
                miner |= matches!(c, WasmClass::Miner(_));
                classes.push(c.label());
            }
            None => unclassified += 1,
        }
    }
    classes.sort();
    classes.dedup();
    ChromeAnalysis {
        nocoin_hit,
        has_wasm: !capture.wasm_dumps.is_empty(),
        miner,
        classes,
        unclassified,
        dref: (nocoin_hit || miner).then(|| domain_ref(d)),
    }
}

/// One shard's traced Chrome scan: its partial outcome, the span records
/// of the thread that ran it, and the keys of the Wasm dumps it saw in
/// population order.
type ChromeShard = (ChromeScanOutcome, Vec<Record>, Vec<u64>);

/// The Chrome scan as a sharded task over the population's artifact
/// domains followed by its clean sample — the index space and kernel
/// `ScanExecutor::chrome` shards.
struct ChromeTask<'a> {
    population: &'a Population,
    db: &'a SignatureDb,
    seed: u64,
}

impl ShardedTask for ChromeTask<'_> {
    type Output = ChromeShard;

    fn len(&self) -> usize {
        self.population.artifacts.len() + self.population.clean_sample.len()
    }

    fn run_shard(&self, range: Range<usize>, progress: &AtomicU64) -> ChromeShard {
        let split = self.population.artifacts.len();
        let engine = NoCoinEngine::new();
        let policy = LoadPolicy {
            seed: self.seed,
            ..LoadPolicy::default()
        };
        let mut scratch = Vec::new();
        let mut dumps = Vec::new();
        let mut out = ChromeScanOutcome::empty(self.population.zone);
        for i in range {
            progress.fetch_add(1, Ordering::Relaxed);
            let (d, clean) = if i < split {
                (&self.population.artifacts[i], false)
            } else {
                (&self.population.clean_sample[i - split], true)
            };
            let page = span(Layer::WebSynth, || synthesize_page(d, self.seed));
            count(Count::WebHtmlBytes, page.html.len() as u64);
            let capture = span(Layer::BrowserLoad, || load_page(&page, &policy));
            count(Count::BrowserLoads, 1);
            count(Count::BrowserWasmDumps, capture.wasm_dumps.len() as u64);
            let analysis = chrome_classify(&engine, self.db, d, &capture, &mut scratch, &mut dumps);
            let verdict = ChromeVerdict {
                retries: 0,
                analysis: Some(analysis),
            };
            span(Layer::CoreFold, || chrome_fold(&mut out, verdict, clean));
        }
        (out, vec![crate::trace::take()], dumps)
    }

    fn merge(&self, acc: &mut ChromeShard, next: ChromeShard) {
        acc.0.merge(next.0);
        acc.1.extend(next.1);
        acc.2.extend(next.2);
    }
}

/// The traced Chrome scan of one population: sharded like the untraced
/// one, with each shard's self times expressed as their share of the
/// section's wall time (so that all self times still add up to the
/// traced run's wall time).
fn chrome_traced(
    population: &Population,
    db: &SignatureDb,
    seed: u64,
    dumps: &mut Vec<u64>,
) -> ChromeScanOutcome {
    let mut main = crate::trace::take();
    let start = Instant::now();
    let run = ParallelExecutor::new(CHROME_SHARDS).execute(&ChromeTask {
        population,
        db,
        seed,
    });
    let wall = start.elapsed().as_secs_f64();
    let busy: f64 = run
        .stats
        .per_shard
        .iter()
        .map(|s| s.elapsed.as_secs_f64())
        .sum();
    let (outcome, records, shard_dumps) = run.outcome;
    let factor = if busy > 0.0 { wall / busy } else { 0.0 };
    for r in records {
        main.absorb(r, factor);
    }
    crate::trace::restore(main);
    dumps.extend(shard_dumps);
    outcome
}

impl Workload for Crawl {
    type Input = CrawlInput;

    fn setup(&self, seed: u64) -> CrawlInput {
        let generate = |zone: Zone, seed: u64, clean: usize| {
            let p = span(Layer::WebGenerate, || {
                Population::generate(zone, seed, clean)
            });
            count(
                Count::WebDomains,
                (p.artifacts.len() + p.clean_sample.len()) as u64,
            );
            p
        };
        CrawlInput {
            seed,
            zgrab: Zone::all()
                .into_iter()
                .map(|z| generate(z, seed, self.zgrab_clean))
                .collect(),
            chrome: [Zone::Alexa, Zone::Org]
                .into_iter()
                .map(|z| generate(z, seed, self.chrome_clean))
                .collect(),
            db: build_reference_db(DB_COVERAGE),
        }
    }

    fn run(&self, input: &CrawlInput) -> (RepOutcome, Vec<(&'static str, f64)>) {
        let model = FetchModel {
            faults: None,
            retry: retry_policy(),
        };
        let executor = ScanExecutor::new(CHROME_SHARDS);
        let mut r = CrawlResult::default();
        for p in &input.zgrab {
            let memo = zgrab_scan_retaining(p, input.seed, &model);
            let (p2, delta) = second_scan_with_delta(p, input.seed, DEFAULT_REMOVAL_RATE);
            let (second, stats) = memo.rescan(&p2, &delta, &model);
            r.first.push(memo.first);
            r.second.push(second);
            r.rescans.push(stats);
        }
        let mut skews = Vec::new();
        for p in &input.chrome {
            let run = executor.chrome(p, &input.db, input.seed);
            skews.push(shard_skew(&run.stats));
            r.chrome.push(run.outcome);
        }
        let skew = skews.iter().sum::<f64>() / skews.len() as f64;
        (outcome(&r), vec![("par.shard_skew", skew)])
    }

    fn run_traced(&self, input: &CrawlInput) -> Traced {
        let mut r = CrawlResult::default();
        for p in &input.zgrab {
            let (first, second, stats) = zgrab_traced(p, input.seed);
            r.first.push(first);
            r.second.push(second);
            r.rescans.push(stats);
        }
        let mut dumps = Vec::new();
        for p in &input.chrome {
            r.chrome
                .push(chrome_traced(p, &input.db, input.seed, &mut dumps));
        }
        let record = crate::trace::take();
        let mut seen = HashSet::new();
        let repeats = dumps.iter().filter(|k| !seen.insert(**k)).count();
        let (reused, probed) = rescan_totals(&r);
        Traced {
            outcome: outcome(&r),
            record,
            extra: vec![
                (
                    "wasm.cache_hit_frac",
                    repeats as f64 / dumps.len().max(1) as f64,
                ),
                (
                    "core.rescan_reused_frac",
                    reused as f64 / (reused + probed).max(1) as f64,
                ),
            ],
        }
    }

    fn reference(&self, input: &CrawlInput) -> u64 {
        let model = FetchModel {
            faults: None,
            retry: retry_policy(),
        };
        let mut r = CrawlResult::default();
        for p in &input.zgrab {
            let (p2, _) = second_scan_with_delta(p, input.seed, DEFAULT_REMOVAL_RATE);
            r.first.push(zgrab_scan_with(p, input.seed, &model));
            r.second.push(zgrab_scan_with(&p2, input.seed, &model));
        }
        for p in &input.chrome {
            r.chrome.push(chrome_scan(p, &input.db, input.seed));
        }
        outcome(&r).digest
    }

    fn recorded_digest(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Full => 0xd6f0_901b_8d6c_d2a5,
            Scale::Small => 0x1594_796a_21c0_58ec,
        }
    }
}
