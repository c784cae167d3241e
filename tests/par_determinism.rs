//! Parallel-equals-sequential guarantees (DESIGN.md §9): every stage that
//! fans out over `nms-par` must produce bit-identical results at any
//! thread count, because per-item randomness is derived from `(seed,
//! index)` pairs before the fan-out.

use netmeter_sentinel::sim::sweeps::{sweep_fault_tolerance, sweep_pv_ownership, sweep_tariff};
use netmeter_sentinel::sim::{PaperScenario, Parallelism};

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
