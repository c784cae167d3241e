//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * cross-entropy vs coordinate-descent battery optimization (solution
//!   quality and runtime);
//! * QMDP vs PBVI long-term policies (detection behavior);
//! * SVR kernel choice for price prediction;
//! * the `W` (net-metering reward) sweep's effect on grid PAR.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use nms_bench::bench_scenario;
use nms_forecast::{
    persistence_forecast, seasonal_mean_forecast, FeatureConfig, Kernel, Svr, SvrParams,
};
use nms_obs::NoopRecorder;
use nms_pricing::{CostModel, NetMeteringTariff, PriceSignal};
use nms_sim::Market;
use nms_smarthome::Battery;
use nms_solver::{
    coordinate_descent_battery, nash_gap, optimize_battery, BatteryProblem, CeConfig, CeWorkspace,
    CrossEntropyOptimizer, GameConfig, GameEngine, ResponseConfig,
};
use nms_types::{Horizon, Kwh, TimeSeries};

/// CE vs coordinate descent on the battery arbitrage subproblem.
fn ablation_battery_solver(c: &mut Criterion) {
    let horizon = Horizon::hourly_day();
    let prices = PriceSignal::new(TimeSeries::from_fn(horizon, |h| {
        if (18..22).contains(&h) {
            0.5
        } else if h < 6 {
            0.02
        } else {
            0.1
        }
    }))
    .unwrap();
    let load = TimeSeries::filled(horizon, 1.0);
    let generation = TimeSeries::filled(horizon, 0.0);
    let others = TimeSeries::filled(horizon, 20.0);
    let battery = Battery::new(Kwh::new(5.0), Kwh::ZERO).unwrap();
    let cost_model = CostModel::new(&prices, NetMeteringTariff::default());
    let problem = BatteryProblem::new(&battery, &load, &generation, &others, cost_model);

    // Report solution quality once.
    let ce = CrossEntropyOptimizer::new(CeConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (_, ce_solution) =
        optimize_battery(&problem, &ce, None, &mut rng, &mut CeWorkspace::default())
            .expect("solves");
    let cd = coordinate_descent_battery(&problem, 3);
    let cd_interior: Vec<f64> = cd[1..].iter().map(|b| b.value()).collect();
    println!(
        "\n=== Ablation: battery solver quality (lower cost is better) ===\n\
         cross-entropy objective: {:.4}\ncoordinate-descent objective: {:.4}\n\
         idle objective: {:.4}",
        ce_solution.objective,
        problem.objective(&cd_interior),
        problem.objective(&problem.idle_interior())
    );

    let mut group = c.benchmark_group("ablation_battery");
    group.bench_function("cross_entropy", |b| {
        b.iter_batched(
            || ChaCha8Rng::seed_from_u64(2),
            |mut rng| {
                optimize_battery(&problem, &ce, None, &mut rng, &mut CeWorkspace::default())
                    .expect("solves")
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("coordinate_descent", |b| {
        b.iter(|| coordinate_descent_battery(&problem, 3))
    });
    group.finish();
}

/// Kernel choice for the price SVR.
fn ablation_svr_kernel(c: &mut Criterion) {
    let scenario = bench_scenario();
    let market = Market::new(&scenario).expect("market");
    let generator = scenario.generator();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let history = market
        .bootstrap_history(&generator, scenario.training_days, &mut rng)
        .expect("history");
    let config = FeatureConfig::net_metering_aware(24);
    let dataset = history.training_set(&config);

    // Non-learning baselines on the last recorded day, to anchor the scale.
    let last_day = &history.prices()[history.len() - 24..];
    let earlier = history.truncated(history.len() - 24);
    if let (Ok(persist), Ok(seasonal)) = (
        persistence_forecast(&earlier, 24),
        seasonal_mean_forecast(&earlier, 24),
    ) {
        println!(
            "\n=== Ablation: non-learning baselines (held-out day RMSE) ===\n\
             persistence: {:.6}\nseasonal-mean: {:.6}",
            nms_forecast::rmse(&persist, last_day),
            nms_forecast::rmse(&seasonal, last_day)
        );
    }

    println!("\n=== Ablation: SVR kernel (training-set RMSE) ===");
    for (label, kernel) in [
        ("linear", Kernel::Linear),
        ("rbf_g0.3", Kernel::Rbf { gamma: 0.3 }),
        (
            "poly_d2",
            Kernel::Polynomial {
                degree: 2,
                coef0: 1.0,
            },
        ),
    ] {
        let params = SvrParams {
            kernel,
            ..SvrParams::default()
        };
        let (model, _) = Svr::fit(&dataset.xs, &dataset.ys, &params, None).expect("trains");
        let preds = model.predict_all(&dataset.xs);
        println!(
            "{label}: rmse {:.6}, support vectors {}",
            nms_forecast::rmse(&preds, &dataset.ys),
            model.support_vector_count()
        );
    }

    let mut group = c.benchmark_group("ablation_svr_kernel");
    group.sample_size(10);
    for (label, kernel) in [
        ("linear", Kernel::Linear),
        ("rbf", Kernel::Rbf { gamma: 0.3 }),
    ] {
        let params = SvrParams {
            kernel,
            ..SvrParams::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| Svr::fit(&dataset.xs, &dataset.ys, &params, None).expect("trains"))
        });
    }
    group.finish();
}

/// Net-metering reward sweep: how `W` changes the cleared grid PAR.
fn ablation_tariff_sweep(c: &mut Criterion) {
    let base = bench_scenario();
    println!("\n=== Ablation: net-metering reward rate W vs grid PAR ===");
    for w in [1.0, 1.5, 2.0, 3.0] {
        let mut scenario = base.clone();
        scenario.tariff = NetMeteringTariff::new(w).expect("valid W");
        let market = Market::new(&scenario).expect("market");
        let generator = scenario.generator();
        let weather = scenario.weather_factors(1);
        let community = generator.community_for_day(0, weather[0]);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let outcome = market
            .clear_day(&community, 2, rng.gen(), &NoopRecorder)
            .expect("clears");
        println!("W = {w}: PAR {:.4}", outcome.response.par);
    }

    let mut group = c.benchmark_group("ablation_tariff");
    group.sample_size(10);
    group.bench_function("clear_day_w1.5", |b| {
        let market = Market::new(&base).expect("market");
        let generator = base.generator();
        let weather = base.weather_factors(1);
        let community = generator.community_for_day(0, weather[0]);
        b.iter_batched(
            || ChaCha8Rng::seed_from_u64(5),
            |mut rng| {
                market
                    .clear_day(&community, 2, rng.gen(), &NoopRecorder)
                    .expect("clears")
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Game convergence: Nash gap (largest per-customer cost improvement left
/// on the table) as a function of the best-response round budget.
fn ablation_game_rounds(c: &mut Criterion) {
    let scenario = bench_scenario();
    let generator = scenario.generator();
    let weather = scenario.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);
    let prices = PriceSignal::time_of_use(community.horizon(), 0.05, 0.2).expect("valid rates");
    let tariff = NetMeteringTariff::default();

    println!("\n=== Ablation: best-response rounds vs Nash gap ===");
    for rounds in [1usize, 2, 4, 8] {
        let mut config = GameConfig::fast();
        config.max_rounds = rounds;
        config.tolerance = 1e-9; // force the full round budget
        let engine =
            GameEngine::new(&community, &prices, tariff, config).expect("valid config");
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let outcome = engine.solve(&mut rng, &NoopRecorder).expect("solves");
        let mut gap_rng = ChaCha8Rng::seed_from_u64(7);
        let gap = nash_gap(
            &community,
            &outcome.schedule,
            &prices,
            tariff,
            &ResponseConfig::default(),
            &mut gap_rng,
        )
        .expect("gap computes");
        println!(
            "rounds {rounds}: max improvement {:.4}, mean {:.5}",
            gap.max_improvement, gap.mean_improvement
        );
    }

    let mut group = c.benchmark_group("ablation_game_rounds");
    group.sample_size(10);
    group.bench_function("nash_gap_probe", |b| {
        let engine = GameEngine::new(&community, &prices, tariff, GameConfig::fast())
            .expect("valid config");
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let outcome = engine.solve(&mut rng, &NoopRecorder).expect("solves");
        b.iter_batched(
            || ChaCha8Rng::seed_from_u64(9),
            |mut rng| {
                nash_gap(
                    &community,
                    &outcome.schedule,
                    &prices,
                    tariff,
                    &ResponseConfig::fast(),
                    &mut rng,
                )
                .expect("gap computes")
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_battery_solver,
    ablation_svr_kernel,
    ablation_tariff_sweep,
    ablation_game_rounds
);
criterion_main!(benches);
