//! `attribution`: the §4.2 scenario as `fig5_block_calendar` runs it —
//! 32 pool endpoints polled on a 15 s grid with sequential sweeps, blobs
//! de-obfuscated, parsed and clustered, blocks attributed by Merkle root.

use crate::trace::{count, span, Count, Layer};
use crate::workload::{retry_policy, Digest, RepOutcome, Scale, Traced, Workload};
use minedig::analysis::attribution::Attributor;
use minedig::analysis::estimate::network_estimate;
use minedig::analysis::poller::{FetchError, JobSource, Observer, PollPolicy, PollStats};
use minedig::analysis::scenario::{run_scenario, ScenarioConfig, ScenarioResult};
use minedig::chain::netsim::{Actor, NetSim, NetSimConfig, SoloSource};
use minedig::core::attribute::fig5_config;
use minedig::pool::pool::Pool;
use minedig::pool::protocol::Job;
use std::sync::{Arc, Mutex};

/// Simulated days per repetition, at both scales: one day already runs
/// about 6,500 sweeps of the 32 endpoints, and a day is the shortest
/// scenario window.
const DAYS: u64 = 1;

pub struct Attribution;

/// Every knob of the scenario written out, so no library default or
/// environment variable can change what is measured.
fn config(seed: u64, days: u64) -> ScenarioConfig {
    ScenarioConfig {
        duration_days: days,
        poll_interval_secs: 15,
        poll_shards: 1,
        poll_async: None,
        poll_faults: None,
        poll_retry: retry_policy(),
        poll_health: None,
        ..fig5_config(seed)
    }
}

/// The rate of the rest of the network at `t` (the last segment that
/// has started).
fn network_rate(config: &ScenarioConfig, t: u64) -> f64 {
    config
        .segments
        .iter()
        .rfind(|s| s.from <= t)
        .unwrap_or(&config.segments[0])
        .network
}

fn in_outage(config: &ScenarioConfig, t: u64) -> bool {
    config.outages.iter().any(|&(a, b)| t >= a && t < b)
}

/// The simulator `run_scenario` starts from: the rest of the network
/// and the pool as the two miners.
fn simulator(config: &Arc<ScenarioConfig>, pool: &Pool) -> NetSim {
    let pool_actor = Actor {
        name: "coinhive".to_string(),
        profile: {
            let config = config.clone();
            Box::new(move |t| config.pool_rate(t))
        },
        source: Box::new(pool.template_source()),
    };
    let network_actor = Actor {
        name: "rest-of-network".to_string(),
        profile: {
            let config = config.clone();
            Box::new(move |t| network_rate(&config, t))
        },
        source: Box::new(SoloSource::new("rest-of-network")),
    };
    NetSim::new(
        NetSimConfig {
            start_time: config.start_time,
            initial_difficulty: config.initial_difficulty,
            mean_txs_per_block: config.mean_txs_per_block,
            seed: config.seed,
            ..NetSimConfig::default()
        },
        vec![network_actor, pool_actor],
    )
}

/// Polls answered, refused by the scheduled outage, or failed otherwise.
fn failed_polls(s: &PollStats) -> u64 {
    s.polls - s.answered - s.offline + s.parse_failures
}

fn outcome(r: &ScenarioResult) -> RepOutcome {
    let mut d = Digest::default();
    d.u64(r.attributed.len() as u64);
    for b in &r.attributed {
        d.u64(b.height)
            .bytes(&b.block_id.0)
            .u64(b.timestamp)
            .u64(b.found_at)
            .u64(b.reward);
    }
    d.u64(r.ground_truth.len() as u64);
    for e in &r.ground_truth {
        d.u64(e.height).u64(e.found_at).bytes(&e.block_id.0);
    }
    let s = &r.poll_stats;
    d.u64(r.total_blocks)
        .u64(r.network.median_difficulty)
        .f64(r.network.network_hashrate)
        .u64(r.window.0)
        .u64(r.window.1);
    for v in [
        s.polls,
        s.answered,
        s.offline,
        s.other_errors,
        s.parse_failures,
        s.endpoints_down,
        s.retries,
        s.reconnects,
        s.quarantined,
        s.sheds,
        s.max_blobs_per_prev as u64,
    ] {
        d.u64(v);
    }
    RepOutcome {
        digest: d.finish(),
        attempted: s.polls,
        failed: failed_polls(s),
        invariants: vec![
            ("PollStats::balanced", s.balanced()),
            ("ScenarioResult::precise", r.precise()),
        ],
        counts: vec![
            ("polls", s.polls),
            ("polls_answered", s.answered),
            ("polls_offline", s.offline),
            ("blocks", r.total_blocks),
            ("attributed", r.attributed.len() as u64),
        ],
    }
}

/// The pool as the observer's job source, with each peek timed as a
/// `pool` span.
struct TracedPool(Pool);

impl JobSource for TracedPool {
    fn endpoint_count(&self) -> usize {
        self.0.endpoint_count()
    }

    fn fetch_job(&self, endpoint: usize, now: u64, attempt: u32) -> Result<Job, FetchError> {
        let job = span(Layer::PoolPeek, || self.0.fetch_job(endpoint, now, attempt));
        count(Count::PoolPeeks, 1);
        if let Ok(j) = &job {
            count(Count::PoolPeekBytes, j.blob_hex.len() as u64 / 2);
        }
        job
    }
}

/// `run_scenario` recomposed from `NetSim::step`, `Observer::poll_all`,
/// `Observer::take_cluster` and `Attributor::judge`, with a span around
/// each.
fn run_recomposed(config: ScenarioConfig) -> (ScenarioResult, u64, u64) {
    let pool = Pool::new(config.pool.clone());
    let policy = PollPolicy {
        retry: config.poll_retry.clone(),
        jitter_seed: config.seed,
    };
    let observer = Arc::new(Mutex::new(Observer::with_source(
        TracedPool(pool.clone()),
        true,
        policy,
    )));
    let new_blobs = Arc::new(Mutex::new(0u64));
    let config = Arc::new(config);
    let end_time = config.start_time + config.duration_days * 86_400;
    let mut sim = simulator(&config, &pool);
    {
        let observer = observer.clone();
        let new_blobs = new_blobs.clone();
        let config = config.clone();
        let interval = config.poll_interval_secs.max(1);
        sim.set_interval_hook(Box::new(move |from, to| {
            let mut obs = observer.lock().expect("observer lock");
            let sweep = |obs: &mut Observer<TracedPool>, t: u64| {
                let before = (obs.current_prev(), obs.current_blob_count());
                span(Layer::AnalysisSweep, || obs.poll_all(t));
                count(Count::AnalysisSweeps, 1);
                let after = obs.current_blob_count();
                *new_blobs.lock().expect("counter lock") += if obs.current_prev() == before.0 {
                    (after - before.1) as u64
                } else {
                    after as u64
                };
            };
            let mut t = from - from % interval + interval;
            let mut polled_end = false;
            while t <= to {
                pool.set_online(!in_outage(&config, t));
                sweep(&mut obs, t);
                polled_end = t == to;
                t += interval;
            }
            pool.set_online(!in_outage(&config, to));
            if !polled_end && !in_outage(&config, to) {
                sweep(&mut obs, to);
            }
        }));
    }

    let mut attributor = Attributor::new();
    let mut difficulties = Vec::new();
    let mut ground_truth = Vec::new();
    let mut total_blocks = 0u64;
    while sim.now() < end_time {
        let Some(ev) = span(Layer::ChainStep, || sim.step()) else {
            break;
        };
        if ev.found_at >= end_time {
            break;
        }
        count(Count::ChainBlocks, 1);
        total_blocks += 1;
        difficulties.push(ev.difficulty);
        let block = sim
            .chain()
            .block_at(ev.height)
            .expect("event height exists")
            .clone();
        span(Layer::AnalysisJudge, || {
            let cluster = observer
                .lock()
                .expect("observer lock")
                .take_cluster(&block.header.prev_id);
            attributor.judge(&block, ev.found_at, cluster.as_ref());
        });
        if ev.actor_name == "coinhive" {
            ground_truth.push(ev);
        }
    }
    let network = network_estimate(&mut difficulties);
    let poll_stats = observer.lock().expect("observer lock").stats().clone();
    let new_blobs = *new_blobs.lock().expect("counter lock");
    let unmatched = attributor.unmatched;
    let result = ScenarioResult {
        attributed: attributor.attributed,
        ground_truth,
        total_blocks,
        network,
        poll_stats,
        poll_async_stats: None,
        poll_health_stats: None,
        window: (config.start_time, end_time),
    };
    (result, new_blobs, unmatched)
}

impl Workload for Attribution {
    type Input = ScenarioConfig;

    /// The input is the seeded scenario; building the pool and the
    /// simulator (with its pre-seeded difficulty window) is the set-up
    /// work `run_scenario` does before its first block.
    fn setup(&self, seed: u64) -> ScenarioConfig {
        let config = config(seed, DAYS);
        let pool = Pool::new(config.pool.clone());
        let shared = Arc::new(config.clone());
        std::hint::black_box(simulator(&shared, &pool));
        config
    }

    fn run(&self, input: &ScenarioConfig) -> (RepOutcome, Vec<(&'static str, f64)>) {
        (outcome(&run_scenario(input.clone())), Vec::new())
    }

    fn run_traced(&self, input: &ScenarioConfig) -> Traced {
        let (result, new_blobs, unmatched) = run_recomposed(input.clone());
        let record = crate::trace::take();
        let s = &result.poll_stats;
        let extra = vec![
            ("analysis.polls", s.polls as f64),
            ("analysis.polls_answered", s.answered as f64),
            (
                "analysis.polls_refused",
                (s.offline + s.other_errors) as f64,
            ),
            (
                "analysis.new_blob_frac",
                new_blobs as f64 / s.answered.max(1) as f64,
            ),
            ("analysis.attributed", result.attributed.len() as f64),
            ("analysis.unmatched", unmatched as f64),
        ];
        Traced {
            outcome: outcome(&result),
            record,
            extra,
        }
    }

    fn reference(&self, input: &ScenarioConfig) -> u64 {
        let (result, _, _) = run_recomposed(input.clone());
        outcome(&result).digest
    }

    fn recorded_digest(&self, _scale: Scale) -> u64 {
        0x5c98_128d_8a54_7655
    }
}
