//! Cross-day cache acceptance (DESIGN.md §15): the [`PersistentCache`]s a
//! supervised run carries across day boundaries under [`DayCacheConfig`]
//! must never change a single bit of any run artifact.
//!
//! [`PersistentCache`]: netmeter_sentinel::solver::PersistentCache

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use netmeter_sentinel::attack::{AttackTimeline, PriceAttack};
use netmeter_sentinel::core::{DetectorMode, FrameworkConfig, QuarantineConfig};
use netmeter_sentinel::sim::{
    DayCacheConfig, FaultPlan, LongTermRunConfig, LongTermRunResult, PaperScenario,
    SupervisedOptions, SupervisedRun,
};

/// Unique scratch path for a journal file.
fn journal_path(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "nms-pipeline-{}-{name}-{n}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn scenario(customers: usize, seed: u64) -> PaperScenario {
    let mut scenario = PaperScenario::small(customers, seed);
    scenario.training_days = 4;
    scenario
}

fn config(
    detector: Option<FrameworkConfig>,
    days: usize,
    timeline: AttackTimeline,
) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: days,
        detector,
        timeline,
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: Default::default(),
        quarantine: QuarantineConfig::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    }
}

fn timeline(fleet: usize) -> AttackTimeline {
    let wave = (fleet / 2).max(1);
    AttackTimeline::new(
        vec![(4, wave), (28, wave)],
        PriceAttack::zero_window(16.0, 18.0).unwrap(),
    )
    .unwrap()
}

fn run_with_cache(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
    cache: DayCacheConfig,
    tag: &str,
) -> LongTermRunResult {
    SupervisedRun::with_options(
        scenario,
        config,
        seed,
        &journal_path(tag),
        SupervisedOptions {
            cache,
            ..SupervisedOptions::default()
        },
    )
    .unwrap()
    .run()
    .unwrap()
}

/// Bit-identity on every float the run produces; `to_bits` keeps any
/// tolerance from sneaking in through `==`.
fn assert_identical(a: &LongTermRunResult, b: &LongTermRunResult) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.realized_demand), bits(&b.realized_demand));
    assert_eq!(a.par.to_bits(), b.par.to_bits());
    assert_eq!(a.true_buckets, b.true_buckets);
    assert_eq!(a.observed_buckets, b.observed_buckets);
    assert_eq!(a.fixes_at, b.fixes_at);
    assert_eq!(a.final_belief, b.final_belief);
    assert_eq!(a.health, b.health);
    assert_eq!(a.day_health, b.day_health);
    assert_eq!(a.quarantine_events, b.quarantine_events);
}

#[test]
fn quarantined_meter_days_do_not_poison_the_cache() {
    // Fault injection + quarantine excludes meters from the telemetry
    // aggregate; the caches sit under the clearing and prediction solves,
    // which see the *scheduling* world, not the telemetry view — so a
    // cached run through quarantine days must stay bit-identical to the
    // cold run, entry reuse and all.
    let scenario = scenario(8, 41);
    let mut faults = FaultPlan::none(17);
    faults.drop_rate = 0.05;
    faults.nan_rate = 0.01;
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let mut config = config(Some(detector), 2, timeline(scenario.customers));
    config.faults = Some(faults);
    let seed = 11;

    let cold = run_with_cache(
        &scenario,
        &config,
        seed,
        DayCacheConfig::default(),
        "q-cold",
    );
    let cached = run_with_cache(&scenario, &config, seed, DayCacheConfig::on(), "q-cached");
    assert_identical(&cold, &cached);
    assert!(
        !cold.quarantine_events.is_empty() || cold.health.faults_injected.total() > 0,
        "precondition: the faulted run must actually exercise telemetry faults"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite (c): across day boundaries, persistent-cache hits are
    /// bit-identical to cold recomputation for arbitrary seeds and quanta —
    /// the exact-verification scheme means a hit can never substitute a
    /// merely-nearby response.
    #[test]
    fn cached_runs_are_bit_identical_across_days(
        seed in 0u64..1000,
        quantum_exp in 0usize..4,
    ) {
        let quantum = [1e-12, 1e-9, 1e-3, 1.0][quantum_exp];
        let scenario = scenario(6, 19);
        let config = config(None, 2, timeline(scenario.customers));
        let cold = run_with_cache(&scenario, &config, seed, DayCacheConfig::default(), "p-cold");
        let cached = run_with_cache(
            &scenario,
            &config,
            seed,
            DayCacheConfig { enabled: true, quantum },
            "p-cached",
        );
        assert_identical(&cold, &cached);
    }
}
