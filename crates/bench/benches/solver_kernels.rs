//! Before/after timing of the zero-allocation solver kernels
//! (DESIGN.md §11).
//!
//! Two kernels are timed on the same inputs through both code paths:
//!
//! * `dp_solve` — one DP appliance schedule: fresh tables per solve
//!   (`DpScheduler::schedule` on a new [`DpWorkspace`]) vs a warm one;
//! * `best_response` — one full customer best response: fresh allocations
//!   plus the per-cell billing closure (`best_response_reference`) vs a warm
//!   [`ResponseWorkspace`] plus the hoisted cost table (`best_response`).
//!
//! Each pair is bit-identical by contract: `dp.rs`'s
//! `reused_workspace_is_bit_identical_to_fresh` and
//! `tests/solver_workspace.rs` assert it.
//!
//! Environment: `NMS_BENCH_CUSTOMERS` / `NMS_BENCH_SEED`, as for every
//! bench.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nms_bench::bench_scenario;
use nms_obs::NoopRecorder;
use nms_pricing::{CostModel, NetMeteringTariff, PriceSignal};
use nms_smarthome::{Appliance, ApplianceKind, Community, PowerLevels, TaskSpec};
use nms_solver::{
    best_response, best_response_reference, DpScheduler, DpWorkspace, ResponseConfig,
    ResponseWorkspace,
};
use nms_types::{ApplianceId, Kw, Kwh, TimeSeries};

fn ev_appliance() -> Appliance {
    Appliance::new(
        ApplianceId::new(0),
        ApplianceKind::ElectricVehicle,
        PowerLevels::stepped(Kw::new(3.3), 3).unwrap(),
        TaskSpec::new(Kwh::new(9.0), 0, 23).unwrap(),
    )
}

fn community() -> Community {
    let scenario = bench_scenario();
    let generator = scenario.generator();
    let weather = scenario.weather_factors(1);
    generator.community_for_day(0, weather[0])
}

fn bench(c: &mut Criterion) {
    let community = community();
    let horizon = community.horizon();
    let prices = PriceSignal::time_of_use(horizon, 0.05, 0.25).unwrap();
    let tariff = NetMeteringTariff::default();
    let config = ResponseConfig::fast();

    let appliance = ev_appliance();
    let scheduler = DpScheduler::new(4);
    let slot_cost = |slot: usize, e: f64| (0.05 + 0.01 * (slot % 7) as f64) * e * (1.0 + e);
    let mut dp_ws = DpWorkspace::default();

    let customer = community.iter().next().expect("non-empty community");
    let others = TimeSeries::from_fn(horizon, |h| 8.0 + 3.0 * (h as f64 / 5.0).sin());
    let mut ws = ResponseWorkspace::new();

    let mut group = c.benchmark_group("solver_kernels");
    group.sample_size(10);
    group.bench_function("dp_solve_before", |b| {
        b.iter(|| {
            scheduler
                .schedule(&appliance, horizon, &mut DpWorkspace::default(), slot_cost)
                .expect("feasible")
        })
    });
    group.bench_function("dp_solve_after", |b| {
        b.iter(|| {
            scheduler
                .schedule(&appliance, horizon, &mut dp_ws, slot_cost)
                .expect("feasible")
        })
    });
    group.bench_function("best_response_before", |b| {
        b.iter(|| {
            best_response_reference(
                customer,
                &others,
                CostModel::new(&prices, tariff),
                &config,
                None,
                &mut ChaCha8Rng::seed_from_u64(17),
                &NoopRecorder,
            )
            .expect("responds")
        })
    });
    group.bench_function("best_response_after", |b| {
        b.iter(|| {
            best_response(
                customer,
                others.as_slice(),
                CostModel::new(&prices, tariff),
                &config,
                None,
                &mut ChaCha8Rng::seed_from_u64(17),
                &NoopRecorder,
                &mut ws,
            )
            .expect("responds")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
