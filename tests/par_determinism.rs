//! Parallel-equals-sequential guarantees (DESIGN.md §9): every stage that
//! fans out over `nms-par` must produce bit-identical results at any
//! thread count, because per-item randomness is derived from `(seed,
//! index)` pairs before the fan-out.

use std::path::Path;

use netmeter_sentinel::core::{DetectorMode, FrameworkConfig};
use netmeter_sentinel::sim::sweeps::{sweep_fault_tolerance, sweep_pv_ownership, sweep_tariff};
use netmeter_sentinel::sim::{
    LongTermRunConfig, PaperScenario, Parallelism, SupervisedOptions, SupervisedRun,
};

fn scenario() -> PaperScenario {
    let mut scenario = PaperScenario::small(10, 77);
    scenario.training_days = 4;
    scenario
}

#[test]
fn sweeps_are_bit_identical_across_thread_counts() {
    let scenario = scenario();
    let w = [1.0, 1.5, 2.0, 3.0];
    let seq = sweep_tariff(&scenario, &w, &Parallelism::SEQUENTIAL).unwrap();
    let par = sweep_tariff(&scenario, &w, &Parallelism::new(4)).unwrap();
    assert_eq!(seq, par);

    let ownership = [0.0, 0.5, 1.0];
    let seq = sweep_pv_ownership(&scenario, &ownership, &Parallelism::SEQUENTIAL).unwrap();
    let par = sweep_pv_ownership(&scenario, &ownership, &Parallelism::new(4)).unwrap();
    assert_eq!(seq, par);

    let rates = [0.0, 0.1];
    let seq = sweep_fault_tolerance(&scenario, &rates, &Parallelism::SEQUENTIAL).unwrap();
    let par = sweep_fault_tolerance(&scenario, &rates, &Parallelism::new(4)).unwrap();
    assert_eq!(seq, par);
}

#[test]
fn long_term_detection_is_bit_identical_across_thread_counts() {
    // `parallelism` fans out the calibration backtest; the detection run
    // that follows must not notice.
    let scenario = scenario();
    let run = |threads: usize| {
        let config = LongTermRunConfig {
            detection_days: 2,
            detector: Some(FrameworkConfig::new(DetectorMode::NetMeteringAware, 24)),
            timeline: netmeter_sentinel::sim::experiments::paper_timeline(scenario.customers),
            buckets: 4,
            bucket_fraction_step: 0.15,
            labor_per_fix: 10.0,
            labor_per_meter: 1.0,
            faults: None,
            sanitize: Default::default(),
            retry: Default::default(),
            budget: netmeter_sentinel::types::SolveBudget::unlimited(),
            quarantine: Default::default(),
            parallelism: Parallelism::new(threads),
            clearing_iterations: 2,
        };
        let journal = Path::new("journal.jsonl");
        SupervisedRun::with_options(
            &scenario,
            &config,
            9,
            journal,
            SupervisedOptions::in_memory(),
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(sequential.realized_demand, parallel.realized_demand);
    assert_eq!(sequential.true_buckets, parallel.true_buckets);
    assert_eq!(sequential.observed_buckets, parallel.observed_buckets);
    assert_eq!(sequential.fixes_at, parallel.fixes_at);
    assert_eq!(sequential.par, parallel.par);
    assert_eq!(sequential.final_belief, parallel.final_belief);
    assert_eq!(
        sequential.health.retries_consumed,
        parallel.health.retries_consumed
    );
}
