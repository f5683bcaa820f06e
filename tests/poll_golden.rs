//! Golden outputs of the §4.2 poll path and the §4.1 probe path.
//!
//! Each test renders a whole campaign result with `{:?}` and compares
//! its Keccak digest against a constant recorded before the pool's
//! coinbase-branch template path and the lazily derived retry jitter
//! existed. Those are pure speed-ups, so every bit of every result —
//! attributed blocks, poll counters, health counters, enumeration
//! docs — must stay exactly as recorded. The fault-injected runs bound
//! their retry loops by deadlines and feed backoff waits into the
//! health layer's latency trackers, so a single changed jitter draw
//! changes the digest.
//!
//! The constants are never to be edited: a mismatch means a change
//! altered observable output.

use minedig::analysis::scenario::{run_scenario, ScenarioConfig};
use minedig::core::attribute::fig5_config;
use minedig::core::shortlink_study::{run_study, StudyConfig};
use minedig::primitives::fault::{FaultConfig, FaultPlan};
use minedig::primitives::health::HealthConfig;
use minedig::primitives::par::ParallelExecutor;
use minedig::primitives::retry::RetryPolicy;
use minedig::primitives::Hash32;
use minedig::shortlink::enumerate::enumerate_links_sharded_with;
use minedig::shortlink::model::{LinkPopulation, ModelConfig};
use minedig::shortlink::probe::{FaultyProber, ProbePolicy};
use minedig::shortlink::service::ShortlinkService;

fn digest(rendered: &str) -> String {
    Hash32::keccak(rendered.as_bytes()).to_hex()
}

fn fig5_two_days() -> ScenarioConfig {
    ScenarioConfig {
        duration_days: 2,
        ..fig5_config(2018)
    }
}

/// A deadline-bounded policy whose jitter decides how many attempts a
/// fault gets: base 50 ms ± 50 %, so the second backoff fits the
/// 120 ms budget only for some draws.
fn tight_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_delay_ms: 50,
        max_delay_ms: 2_000,
        jitter: 0.5,
        deadline_ms: Some(120),
    }
}

/// Transient faults plus a permanent share, so breakers trip and the
/// retry budget runs out on some keys.
fn mixed_faults(seed: u64) -> FaultPlan {
    FaultPlan::with_config(
        seed,
        FaultConfig {
            fault_prob: 0.3,
            permanent_prob: 0.1,
            ..FaultConfig::default()
        },
    )
}

#[test]
fn fig5_two_days_is_unchanged() {
    let result = run_scenario(fig5_two_days());
    assert!(result.precise());
    assert_eq!(
        digest(&format!("{result:?}")),
        "656933057da8e1804efa10f69f1d1674131f3c22ec4a6bd8594e69e348b76577"
    );
}

#[test]
fn fig5_two_days_under_faults_and_health_is_unchanged() {
    let result = run_scenario(ScenarioConfig {
        poll_faults: Some(mixed_faults(2018)),
        poll_retry: tight_retry(),
        poll_health: Some(HealthConfig {
            seed: 2018,
            ..HealthConfig::default()
        }),
        ..fig5_two_days()
    });
    assert!(result.poll_stats.retries > 0);
    assert!(result.poll_stats.balanced());
    let health = result.poll_health_stats.expect("health layer on");
    assert!(health.balanced(), "{health:?}");
    assert!(health.hedges > 0, "{health:?}");
    assert_eq!(
        digest(&format!("{result:?}")),
        "4041800ee41ff486da8c5acc3f134eada505c420fd3dc2b0386beaef7d6d005d"
    );
}

#[test]
fn shortlink_study_and_faulty_walk_are_unchanged() {
    let model = ModelConfig {
        total_links: 4_000,
        users: 300,
        seed: 2018,
    };
    let study = run_study(
        &StudyConfig {
            model: model.clone(),
            resolve_budget: 10_000,
            per_user_sample: 50,
            enum_shards: 2,
        },
        2018,
    );
    let rendered = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        study.enumeration,
        study.links_per_token,
        study.top1_share,
        study.users_for_85pct,
        study.hist_biased,
        study.cdf_biased,
        study.cdf_unbiased,
        study.unbiased_le_1024,
        study.hashes_spent,
        study.top10_domains,
        study.tail_categories,
        study.tail_classified_fraction,
    );
    assert_eq!(
        digest(&rendered),
        "86bc3515c523c267c27553377d2ccc4619023345d9c563be0ba8602a46de1342"
    );

    let service = ShortlinkService::new(LinkPopulation::generate(&model));
    let plan = mixed_faults(2018);
    let policy = ProbePolicy {
        retry: tight_retry(),
        jitter_seed: plan.seed(),
    };
    let prober = FaultyProber::new(&service, plan);
    let walk =
        enumerate_links_sharded_with(&prober, 256, &ParallelExecutor::new(2), &policy).enumeration;
    assert!(walk.probe_retries > 0);
    assert!(walk.failed_probes > 0);
    assert_eq!(
        digest(&format!("{walk:?}")),
        "b63a6a44c3e39c2054ead05299218be6bdcfdb7593a89dcdde2be6cd67c635b3"
    );
}
