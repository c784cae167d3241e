//! End-to-end tests of the detection framework: unilateral attack
//! realizations and the long-term POMDP loop.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use netmeter_sentinel::attack::{AttackTimeline, PriceAttack};
use netmeter_sentinel::core::{DetectorMode, FrameworkConfig};
use netmeter_sentinel::obs::NoopRecorder;
use netmeter_sentinel::sim::{
    LongTermRunConfig, LongTermRunResult, Market, PaperScenario, SimError, SupervisedOptions,
    SupervisedRun,
};
use netmeter_sentinel::types::MeterId;

/// One long-term run from `seed`, journaled in memory.
fn run_long_term(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
) -> Result<LongTermRunResult, SimError> {
    let journal = std::path::Path::new("journal.jsonl");
    SupervisedRun::with_options(
        scenario,
        config,
        seed,
        journal,
        SupervisedOptions::in_memory(),
    )?
    .run()
}

fn scenario() -> PaperScenario {
    PaperScenario::small(12, 1234)
}

fn attack() -> PriceAttack {
    PriceAttack::zero_window(16.0, 17.0).unwrap()
}

#[test]
fn unilateral_deviation_scales_with_hacked_count() {
    let s = scenario();
    let market = Market::new(&s).unwrap();
    let generator = s.generator();
    let weather = s.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let clean = market
        .clear_day(&community, 2, rng.gen(), &NoopRecorder)
        .unwrap();
    let manipulated = attack().apply(&clean.price);
    let committed = clean.response;

    let mut last_excess = 0.0;
    for k in [0usize, 4, 12] {
        let meters: Vec<MeterId> = (0..k).map(MeterId::new).collect();
        let mut child = ChaCha8Rng::seed_from_u64(3);
        let deviations = market
            .truth_model()
            .respond_unilaterally(
                &community,
                &committed,
                &manipulated,
                &meters,
                &mut child,
                &NoopRecorder,
            )
            .unwrap();
        let mixed = committed.realized_demand(&deviations);
        let excess: f64 = (0..24)
            .map(|h| mixed[h] - committed.grid_demand[h])
            .fold(f64::NEG_INFINITY, f64::max);
        if k == 0 {
            assert!(excess.abs() < 1e-9, "no hacked homes, excess {excess}");
        } else {
            assert!(
                excess >= last_excess - 0.5,
                "k={k}: excess {excess} below previous {last_excess}"
            );
        }
        last_excess = excess;
    }
    assert!(last_excess > 1.0, "full compromise should move real load");
}

#[test]
fn honest_homes_keep_their_plans_under_unilateral_deviation() {
    let s = scenario();
    let market = Market::new(&s).unwrap();
    let generator = s.generator();
    let weather = s.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let clean = market
        .clear_day(&community, 2, rng.gen(), &NoopRecorder)
        .unwrap();
    let manipulated = attack().apply(&clean.price);
    let committed = clean.response;

    let meters = vec![MeterId::new(0), MeterId::new(1)];
    let mut child = ChaCha8Rng::seed_from_u64(5);
    let deviations = market
        .truth_model()
        .respond_unilaterally(
            &community,
            &committed,
            &manipulated,
            &meters,
            &mut child,
            &NoopRecorder,
        )
        .unwrap();
    // Only the hacked homes deviate, and every honest home's realized lane
    // is its committed one.
    let deviated: Vec<usize> = deviations.iter().map(|d| d.customer()).collect();
    assert_eq!(deviated, [0, 1]);
    let lanes = committed.lanes(&deviations);
    for index in 2..community.len() {
        assert_eq!(
            lanes[index],
            committed.outcome().trading(index),
            "honest customer {index} was rescheduled"
        );
    }
    // Their plans, and so their loads, are the committed ones: the
    // realized load differs from the committed load only by the hacked
    // homes' load changes, which conserve each home's task energy.
    let realized = committed.realized_load(&community, &deviations);
    let (before, after) = (committed.load().total(), realized.total());
    assert!(
        (before.value() - after.value()).abs() < 1e-6,
        "load {} vs committed {}",
        after.value(),
        before.value()
    );
}

#[test]
fn long_term_run_is_deterministic_under_seed() {
    let mut s = PaperScenario::small(8, 7);
    s.training_days = 4;
    let config = LongTermRunConfig {
        detection_days: 1,
        detector: Some(FrameworkConfig::new(DetectorMode::NetMeteringAware, 24)),
        timeline: AttackTimeline::new(vec![(4, 2)], attack()).unwrap(),
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: Default::default(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    };
    let run = |seed: u64| run_long_term(&s, &config, seed).unwrap();
    let a = run(11);
    let b = run(11);
    assert_eq!(a.observed_buckets, b.observed_buckets);
    assert_eq!(a.true_buckets, b.true_buckets);
    assert_eq!(a.fixes_at, b.fixes_at);
    assert!((a.par - b.par).abs() < 1e-12);
}

#[test]
fn no_detection_run_never_repairs() {
    let mut s = PaperScenario::small(8, 8);
    s.training_days = 3;
    let config = LongTermRunConfig {
        detection_days: 1,
        detector: None,
        timeline: AttackTimeline::new(vec![(2, 3)], attack()).unwrap(),
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: Default::default(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    };
    let result = run_long_term(&s, &config, 12).unwrap();
    assert_eq!(result.labor.fixes(), 0);
    assert!(result.fixes_at.is_empty());
    // Compromise persists to the end of the run.
    assert!(*result.true_buckets.last().unwrap() > 0);
}

#[test]
fn detector_with_long_lag_requires_enough_training_days() {
    let mut s = PaperScenario::small(8, 9);
    s.training_days = 3; // aware features need 48-slot lags + backtest day
    let config = LongTermRunConfig {
        detection_days: 1,
        detector: Some(FrameworkConfig::new(DetectorMode::NetMeteringAware, 24)),
        timeline: AttackTimeline::new(vec![(2, 2)], attack()).unwrap(),
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: Default::default(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    };
    let err = run_long_term(&s, &config, 13).unwrap_err();
    assert!(err.to_string().contains("training days"));
}
