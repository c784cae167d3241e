//! Before/after wall times for the zero-allocation solver kernels
//! (DESIGN.md §11).
//!
//! Three kernels are measured on the same inputs through both code paths:
//!
//! * `dp_solve` — one DP appliance schedule: fresh tables per solve
//!   (`DpScheduler::schedule`) vs a warm [`DpWorkspace`]
//!   (`DpScheduler::schedule_in`);
//! * `best_response` — one full customer best response: fresh allocations
//!   plus the per-cell billing closure (`best_response_reference`) vs a warm
//!   [`ResponseWorkspace`] plus the hoisted cost table (`best_response_in`);
//! * `jacobi_round` — one synchronous round of best responses across the
//!   whole community, reference path vs one warm workspace carried across
//!   customers.
//!
//! A fourth pair, `game_round/n500`, pins the paper's scale: one
//! Gauss–Seidel community round over N = 500 customers (regardless of
//! `NMS_BENCH_CUSTOMERS`), TimeSeries-per-customer reference vs the flat
//! SoA [`BatchResponseWorkspace`] lanes the game engine runs on
//! (DESIGN.md §15).
//!
//! The community-round pairs (`jacobi_round`, `game_round/n500`) run
//! battery-free: the CE battery step is the same code on both paths and
//! two orders of magnitude more expensive than the DP it wraps, so timing
//! it would only bury the workspace/representation difference under
//! Monte-Carlo variance.
//!
//! Every pair is asserted bit-identical before its wall times are recorded
//! into `BENCH_results.json` (targets `solver_kernels/<kernel>/before` and
//! `.../after`), so the perf trajectory tracks two implementations of
//! provably the same function.
//!
//! Environment: `NMS_BENCH_CUSTOMERS` / `NMS_BENCH_SEED` as for every
//! bench; `NMS_BENCH_SMOKE` shrinks iteration counts and skips the
//! Criterion timing loops (the CI smoke gate).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nms_bench::{bench_scenario, bench_seed, host_cores, record_bench_results, BenchRecord};
use nms_obs::NoopRecorder;
use nms_pricing::{CostModel, NetMeteringTariff, PriceSignal};
use nms_sim::PaperScenario;
use nms_smarthome::{
    Appliance, ApplianceKind, Community, CustomerSchedule, PowerLevels, TaskSpec,
};
use nms_solver::{
    best_response_in, best_response_reference, best_response_slice_in, BatchResponseWorkspace,
    DpScheduler, DpWorkspace, ResponseConfig, ResponseWorkspace,
};
use nms_types::{ApplianceId, Kw, Kwh, TimeSeries};

fn smoke() -> bool {
    std::env::var_os("NMS_BENCH_SMOKE").is_some()
}

/// Mean seconds per iteration of `run` over `iters` measured repetitions,
/// after `warmup` unmeasured ones so caches, branch predictors, and the
/// allocator reach steady state before the clock starts.
fn mean_secs(warmup: usize, iters: usize, mut run: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        run();
    }
    let start = Instant::now();
    for _ in 0..iters {
        run();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

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

fn assert_bit_identical(label: &str, a: &CustomerSchedule, b: &CustomerSchedule) {
    for (i, (sa, sb)) in a
        .appliance_schedules()
        .iter()
        .zip(b.appliance_schedules())
        .enumerate()
    {
        for (h, (x, y)) in sa.energy().iter().zip(sb.energy().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: appliance {i} slot {h}");
        }
    }
    for (h, (x, y)) in a.battery().iter().zip(b.battery()).enumerate() {
        assert_eq!(
            x.value().to_bits(),
            y.value().to_bits(),
            "{label}: battery level {h}"
        );
    }
}

fn bench(c: &mut Criterion) {
    let community = community();
    let horizon = community.horizon();
    let prices = PriceSignal::time_of_use(horizon, 0.05, 0.25).unwrap();
    let tariff = NetMeteringTariff::default();
    let config = ResponseConfig::fast();
    // Battery-free config for the community-round pairs: isolates the
    // workspace/representation difference from the CE battery step, which
    // is identical code on both paths (see the module docs).
    let game_config = ResponseConfig {
        use_battery: false,
        ..config
    };
    let scenario = bench_scenario();
    // Jacobi means over 3 iterations were statistically meaningless at
    // community scale; every kernel takes a warmup (a quarter of its
    // measured count, at least one), and battery-free rounds are cheap
    // enough to afford real repetition counts.
    let (dp_iters, response_iters, round_iters) =
        if smoke() { (20, 2, 1) } else { (200, 8, 100) };
    let warmup_of = |iters: usize| (iters / 4).max(1);

    // --- dp_solve: fresh tables vs warm DpWorkspace, same closure. ---
    let appliance = ev_appliance();
    let scheduler = DpScheduler::new(4);
    let slot_cost = |slot: usize, e: f64| (0.05 + 0.01 * (slot % 7) as f64) * e * (1.0 + e);
    let fresh = scheduler.schedule(&appliance, horizon, slot_cost).expect("feasible");
    let mut dp_ws = DpWorkspace::default();
    let warm = scheduler
        .schedule_in(&appliance, horizon, &mut dp_ws, slot_cost)
        .expect("feasible");
    for (h, (x, y)) in fresh.energy().iter().zip(warm.energy().iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "dp_solve slot {h} diverged");
    }
    let dp_before = mean_secs(warmup_of(dp_iters), dp_iters, || {
        scheduler.schedule(&appliance, horizon, slot_cost).expect("feasible");
    });
    let dp_after = mean_secs(warmup_of(dp_iters), dp_iters, || {
        scheduler
            .schedule_in(&appliance, horizon, &mut dp_ws, slot_cost)
            .expect("feasible");
    });

    // --- best_response: reference closure path vs workspace + hoisting. ---
    let customer = community.iter().next().expect("non-empty community");
    let others = TimeSeries::from_fn(horizon, |h| 8.0 + 3.0 * (h as f64 / 5.0).sin());
    let mut ws = ResponseWorkspace::new();
    let reference = best_response_reference(
        customer,
        &others,
        CostModel::new(&prices, tariff),
        &config,
        None,
        &mut ChaCha8Rng::seed_from_u64(17),
        &NoopRecorder,
    )
    .expect("responds");
    let hoisted = best_response_in(
        customer,
        &others,
        CostModel::new(&prices, tariff),
        &config,
        None,
        &mut ChaCha8Rng::seed_from_u64(17),
        &NoopRecorder,
        &mut ws,
    )
    .expect("responds");
    assert_bit_identical("best_response", &reference, &hoisted);
    let response_before = mean_secs(warmup_of(response_iters), response_iters, || {
        best_response_reference(
            customer,
            &others,
            CostModel::new(&prices, tariff),
            &config,
            None,
            &mut ChaCha8Rng::seed_from_u64(17),
            &NoopRecorder,
        )
        .expect("responds");
    });
    let response_after = mean_secs(warmup_of(response_iters), response_iters, || {
        best_response_in(
            customer,
            &others,
            CostModel::new(&prices, tariff),
            &config,
            None,
            &mut ChaCha8Rng::seed_from_u64(17),
            &NoopRecorder,
            &mut ws,
        )
        .expect("responds");
    });

    // --- jacobi_round: one synchronous community round from a cold start
    // (every customer responds to the same zero trading field) through
    // either kernel; the workspace side carries one warm arena across
    // customers, as a parallel worker would.
    let round_once = |use_workspace: bool| -> Vec<CustomerSchedule> {
        let others = TimeSeries::filled(horizon, 0.0);
        let mut ws = ResponseWorkspace::new();
        community
            .iter()
            .enumerate()
            .map(|(index, customer)| {
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + index as u64);
                if use_workspace {
                    best_response_in(
                        customer,
                        &others,
                        CostModel::new(&prices, tariff),
                        &game_config,
                        None,
                        &mut rng,
                        &NoopRecorder,
                        &mut ws,
                    )
                    .expect("responds")
                } else {
                    best_response_reference(
                        customer,
                        &others,
                        CostModel::new(&prices, tariff),
                        &game_config,
                        None,
                        &mut rng,
                        &NoopRecorder,
                    )
                    .expect("responds")
                }
            })
            .collect()
    };
    let round_ref = round_once(false);
    let round_ws = round_once(true);
    for (index, (a, b)) in round_ref.iter().zip(round_ws.iter()).enumerate() {
        assert_bit_identical(&format!("jacobi_round customer {index}"), a, b);
    }
    let round_before = mean_secs(warmup_of(round_iters), round_iters, || {
        round_once(false);
    });
    let round_after = mean_secs(warmup_of(round_iters), round_iters, || {
        round_once(true);
    });

    // --- game_round/n500: one Gauss–Seidel community round at the paper's
    // scale (N = 500), regardless of NMS_BENCH_CUSTOMERS. Before is the
    // TimeSeries-per-customer representation the engine used to run on
    // (fresh `total.sub` / `others.add` allocations around every reference
    // response); after is the flat SoA [`BatchResponseWorkspace`] lanes it
    // runs on now (DESIGN.md §15). Seeds are pre-drawn so both paths give
    // every customer the same randomness, and the two rounds are asserted
    // bit-identical, schedule by schedule, before timing.
    let paper = PaperScenario::paper(bench_seed());
    let paper_community = {
        let generator = paper.generator();
        let weather = paper.weather_factors(1);
        generator.community_for_day(0, weather[0])
    };
    let n500 = paper_community.len();
    let paper_horizon = paper_community.horizon();
    let paper_prices = PriceSignal::time_of_use(paper_horizon, 0.05, 0.25).unwrap();
    let game_seeds: Vec<u64> = {
        use rand::Rng;
        let mut seed_rng = ChaCha8Rng::seed_from_u64(9);
        (0..n500).map(|_| seed_rng.gen()).collect()
    };
    let game_round_series = || -> Vec<CustomerSchedule> {
        let mut total = TimeSeries::filled(paper_horizon, 0.0);
        let mut lanes: Vec<TimeSeries<f64>> = vec![TimeSeries::filled(paper_horizon, 0.0); n500];
        paper_community
            .iter()
            .enumerate()
            .map(|(index, customer)| {
                let others = total.sub(&lanes[index]).expect("same horizon");
                let response = best_response_reference(
                    customer,
                    &others,
                    CostModel::new(&paper_prices, tariff),
                    &game_config,
                    None,
                    &mut ChaCha8Rng::seed_from_u64(game_seeds[index]),
                    &NoopRecorder,
                )
                .expect("responds");
                total = others.add(response.trading()).expect("same horizon");
                lanes[index] = response.trading().clone();
                response
            })
            .collect()
    };
    let game_round_soa = || -> Vec<CustomerSchedule> {
        let mut batch = BatchResponseWorkspace::new();
        batch.begin(n500, paper_horizon.slots());
        let mut ws = ResponseWorkspace::new();
        paper_community
            .iter()
            .enumerate()
            .map(|(index, customer)| {
                batch.fill_others(index);
                let response = best_response_slice_in(
                    customer,
                    batch.others(),
                    CostModel::new(&paper_prices, tariff),
                    &game_config,
                    None,
                    &mut ChaCha8Rng::seed_from_u64(game_seeds[index]),
                    &NoopRecorder,
                    &mut ws,
                )
                .expect("responds");
                batch.commit_gauss_seidel(index, response.trading().as_slice());
                response
            })
            .collect()
    };
    // The identity round doubles as the warmup for both paths.
    let game_ref = game_round_series();
    let game_soa = game_round_soa();
    assert_eq!(game_ref.len(), n500);
    for (index, (a, b)) in game_ref.iter().zip(game_soa.iter()).enumerate() {
        assert_bit_identical(&format!("game_round/n500 customer {index}"), a, b);
        for (h, (x, y)) in a.trading().iter().zip(b.trading().iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "game_round/n500 customer {index} trading slot {h}"
            );
        }
    }
    // Battery-free rounds are cheap (~ms), so the mean can afford real
    // statistics instead of the 3-shot CE-dominated timing this pair
    // started with.
    let game_iters = if smoke() { 1 } else { 100 };
    let game_before = mean_secs(warmup_of(game_iters), game_iters, || {
        game_round_series();
    });
    let game_after = mean_secs(warmup_of(game_iters), game_iters, || {
        game_round_soa();
    });
    if smoke() {
        // The CI smoke gate times exactly one paper-scale round per path;
        // the ceiling is deliberately generous (an order of magnitude over
        // the recording host) and exists to catch pathological regressions,
        // not noise.
        assert!(
            game_before < 120.0 && game_after < 120.0,
            "paper-scale game round blew the smoke wall ceiling: \
             before {game_before:.2}s, after {game_after:.2}s"
        );
    }

    println!("\n=== Solver kernels (before = fresh alloc + closure, after = warm workspace + hoisted table) ===");
    let row = |name: &str, before: f64, after: f64| {
        println!(
            "{name:<14} | before {:>10.6}s | after {:>10.6}s | {:>5.2}x",
            before,
            after,
            before / after.max(1e-12)
        );
    };
    row("dp_solve", dp_before, dp_after);
    row("best_response", response_before, response_after);
    row("jacobi_round", round_before, round_after);
    row("game_round/500", game_before, game_after);

    let record = |target: &str, wall_secs: f64, iters: usize, note: &str| BenchRecord {
        target: target.to_string(),
        wall_secs,
        customers: scenario.customers,
        seed: scenario.seed,
        threads: 1,
        host_cores: host_cores(),
        solver_rounds: 0,
        note: format!("mean of {iters} iters after warmup; {note}"),
        speedup: 0.0,
    };
    record_bench_results(&[
        record(
            "solver_kernels/dp_solve/before",
            dp_before,
            dp_iters,
            "fresh DP tables per solve (DpScheduler::schedule)",
        ),
        record(
            "solver_kernels/dp_solve/after",
            dp_after,
            dp_iters,
            "warm DpWorkspace (DpScheduler::schedule_in)",
        ),
        record(
            "solver_kernels/best_response/before",
            response_before,
            response_iters,
            "fresh allocations + per-cell slot_cost closure (best_response_reference)",
        ),
        record(
            "solver_kernels/best_response/after",
            response_after,
            response_iters,
            "warm ResponseWorkspace + hoisted cost table (best_response_in)",
        ),
        record(
            "solver_kernels/jacobi_round/before",
            round_before,
            round_iters,
            "one battery-free community round, reference kernel per customer",
        ),
        record(
            "solver_kernels/jacobi_round/after",
            round_after,
            round_iters,
            "one battery-free community round, single warm workspace across customers",
        ),
        BenchRecord {
            customers: n500,
            seed: paper.seed,
            ..record(
                "game_round/n500/before",
                game_before,
                game_iters,
                "one paper-scale Gauss–Seidel round, TimeSeries per customer \
                 + best_response_reference",
            )
        },
        BenchRecord {
            customers: n500,
            seed: paper.seed,
            ..record(
                "game_round/n500/after",
                game_after,
                game_iters,
                "one paper-scale Gauss–Seidel round, SoA BatchResponseWorkspace \
                 lanes + best_response_slice_in",
            )
        },
    ])
    .expect("bench results written");
    println!("recorded to {}", nms_bench::bench_results_path().display());

    if smoke() {
        return;
    }

    let mut group = c.benchmark_group("solver_kernels");
    group.sample_size(10);
    group.bench_function("dp_solve_before", |b| {
        b.iter(|| scheduler.schedule(&appliance, horizon, slot_cost).expect("feasible"))
    });
    group.bench_function("dp_solve_after", |b| {
        b.iter(|| {
            scheduler
                .schedule_in(&appliance, horizon, &mut dp_ws, slot_cost)
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
            best_response_in(
                customer,
                &others,
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
