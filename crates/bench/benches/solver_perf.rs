//! Performance micro-benchmarks for the solver substrates: cross-entropy
//! optimization, the DP appliance scheduler, SVR training, POMDP solving,
//! and a full community game round.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nms_bench::bench_scenario;
use nms_forecast::{FeatureConfig, Kernel, PriceHistory, Svr, SvrParams};
use nms_obs::NoopRecorder;
use nms_pomdp::{PbviConfig, PbviPolicy, Pomdp, QmdpPolicy};
use nms_pricing::{NetMeteringTariff, PriceSignal};
use nms_smarthome::{Appliance, ApplianceKind, PowerLevels, TaskSpec};
use nms_solver::{
    CeConfig, CeWorkspace, CrossEntropyOptimizer, DpScheduler, DpWorkspace, GameConfig, GameEngine,
};
use nms_types::{ApplianceId, Horizon, Kw, Kwh};

fn bench_cross_entropy(c: &mut Criterion) {
    let optimizer = CrossEntropyOptimizer::new(CeConfig::fast());
    let bounds = vec![(0.0, 5.0); 24];
    let init = vec![2.5; 24];
    c.bench_function("ce/24dim_quadratic", |b| {
        b.iter_batched(
            || ChaCha8Rng::seed_from_u64(7),
            |mut rng| {
                optimizer
                    .minimize(
                        |x| x.iter().map(|v| (v - 1.3).powi(2)).sum(),
                        &bounds,
                        &init,
                        &mut rng,
                        &mut CeWorkspace::default(),
                    )
                    .expect("solves")
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_dp(c: &mut Criterion) {
    let horizon = Horizon::hourly_day();
    let appliance = Appliance::new(
        ApplianceId::new(0),
        ApplianceKind::ElectricVehicle,
        PowerLevels::stepped(Kw::new(3.3), 3).unwrap(),
        TaskSpec::new(Kwh::new(9.0), 0, 23).unwrap(),
    );
    let scheduler = DpScheduler::new(4);
    c.bench_function("dp/ev_full_day", |b| {
        b.iter(|| {
            scheduler
                .schedule(
                    &appliance,
                    horizon,
                    &mut DpWorkspace::default(),
                    |slot, e| (0.05 + 0.01 * (slot % 7) as f64) * e * (1.0 + e),
                )
                .expect("feasible")
        })
    });
}

fn bench_svr(c: &mut Criterion) {
    let spd = 24;
    let slots = spd * 8;
    let prices: Vec<f64> = (0..slots)
        .map(|t| 0.05 + 0.01 * ((t % spd) as f64 / 4.0).sin().abs())
        .collect();
    let history = PriceHistory::new(prices, vec![0.0; slots], vec![100.0; slots], spd).unwrap();
    let config = FeatureConfig::naive(spd);
    let dataset = history.training_set(&config);
    let params = SvrParams {
        kernel: Kernel::Rbf { gamma: 0.3 },
        ..SvrParams::default()
    };
    c.bench_function("svr/train_8day_history", |b| {
        b.iter(|| Svr::fit(&dataset.xs, &dataset.ys, &params, None).expect("trains"))
    });
}

fn bench_pomdp(c: &mut Criterion) {
    let buckets = 6;
    let drift = |s: usize| {
        let mut row = vec![0.0; buckets];
        if s + 1 < buckets {
            row[s] = 0.75;
            row[s + 1] = 0.25;
        } else {
            row[s] = 1.0;
        }
        row
    };
    let reset = |_: usize| {
        let mut row = vec![0.0; buckets];
        row[0] = 1.0;
        row
    };
    let obs = |s: usize| {
        let mut row = vec![0.1 / (buckets - 1) as f64; buckets];
        row[s] = 0.9;
        let total: f64 = row.iter().sum();
        row.iter_mut().for_each(|p| *p /= total);
        row
    };
    let pomdp = Pomdp::builder(buckets, 2, buckets)
        .transition(0, (0..buckets).map(drift).collect())
        .transition(1, (0..buckets).map(reset).collect())
        .observation(0, (0..buckets).map(obs).collect())
        .observation(1, (0..buckets).map(obs).collect())
        .reward_fn(|a, s, _| -4.0 * s as f64 - if a == 1 { 6.0 } else { 0.0 })
        .discount(0.9)
        .build()
        .unwrap();
    c.bench_function("pomdp/qmdp_6buckets", |b| {
        b.iter(|| QmdpPolicy::solve(&pomdp, 1e-9, 5000))
    });
    c.bench_function("pomdp/pbvi_6buckets", |b| {
        b.iter(|| PbviPolicy::solve(&pomdp, &PbviConfig::default()))
    });
}

fn bench_game(c: &mut Criterion) {
    let scenario = bench_scenario();
    let generator = scenario.generator();
    let weather = scenario.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);
    let prices = PriceSignal::time_of_use(community.horizon(), 0.05, 0.2).unwrap();
    let mut group = c.benchmark_group("game");
    group.sample_size(10);
    group.bench_function(&format!("equilibrium_n{}", community.len()), |b| {
        b.iter_batched(
            || ChaCha8Rng::seed_from_u64(3),
            |mut rng| {
                let engine = GameEngine::new(
                    &community,
                    &prices,
                    NetMeteringTariff::default(),
                    GameConfig::fast(),
                )
                .unwrap();
                engine.solve(&mut rng, &NoopRecorder).expect("solves")
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cross_entropy,
    bench_dp,
    bench_svr,
    bench_pomdp,
    bench_game
);
criterion_main!(benches);
