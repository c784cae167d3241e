//! Bit-identity of the workspace + hoisted-table solver kernels against the
//! fresh-allocation closure path (DESIGN.md §11).
//!
//! Three guarantees are pinned byte-for-byte:
//!
//! 1. A [`ResponseWorkspace`] reused across customers with differing
//!    appliance shapes yields exactly what fresh allocation yields (no
//!    stale-buffer leakage).
//! 2. The hoisted per-slot cost table produces the same best responses as
//!    the per-cell [`CostModel::slot_cost`] closure.
//! 3. Full Gauss–Seidel game rounds through [`GameEngine`] (hoisted +
//!    workspace path) match a replica driven by the closure reference path.
//!
//! A fourth test pins the absolute solver tallies a fixed battery game and
//! one unilateral deviation record, so a recorder dropped on the way into
//! the kernels shows up as a count change.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use netmeter_sentinel::core::LoadPredictor;
use netmeter_sentinel::obs::{MetricsRegistry, NoopRecorder};
use netmeter_sentinel::pricing::{CostModel, NetMeteringTariff, PriceSignal};
use netmeter_sentinel::sim::PaperScenario;
use netmeter_sentinel::smarthome::{Community, CustomerSchedule};
use netmeter_sentinel::solver::{
    best_response, best_response_reference, GameConfig, GameEngine, ResponseConfig,
    ResponseWorkspace,
};
use netmeter_sentinel::types::{MeterId, TimeSeries};

fn community(n: usize, seed: u64) -> Community {
    let scenario = PaperScenario::small(n, seed);
    let generator = scenario.generator();
    let weather = scenario.weather_factors(1);
    generator.community_for_day(0, weather[0])
}

/// Byte-level equality of everything a response determines.
fn assert_bit_identical(label: &str, a: &CustomerSchedule, b: &CustomerSchedule) {
    assert_eq!(
        a.appliance_schedules().len(),
        b.appliance_schedules().len(),
        "{label}: appliance count"
    );
    for (index, (sa, sb)) in a
        .appliance_schedules()
        .iter()
        .zip(b.appliance_schedules())
        .enumerate()
    {
        for (h, (x, y)) in sa.energy().iter().zip(sb.energy().iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: appliance {index} slot {h}: {x} vs {y}"
            );
        }
    }
    for (h, (x, y)) in a.battery().iter().zip(b.battery()).enumerate() {
        assert_eq!(
            x.value().to_bits(),
            y.value().to_bits(),
            "{label}: battery level {h}: {x} vs {y}"
        );
    }
    for (h, (x, y)) in a.trading().iter().zip(b.trading().iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: trading slot {h}");
    }
}

/// The hoisted-table path must match the per-cell billing closure exactly,
/// warm starts included.
#[test]
fn hoisted_table_matches_closure_reference() {
    let community = community(6, 11);
    let horizon = community.horizon();
    let prices = PriceSignal::time_of_use(horizon, 0.05, 0.25).unwrap();
    let tariff = NetMeteringTariff::default();
    let others = TimeSeries::from_fn(horizon, |h| 8.0 + 3.0 * (h as f64 / 5.0).sin());
    let config = ResponseConfig::default();
    let mut warm: Vec<Option<CustomerSchedule>> = vec![None; community.len()];
    // Two passes: cold responses, then warm-started ones.
    for round in 0..2_u64 {
        for (index, customer) in community.iter().enumerate() {
            let cost_model = CostModel::new(&prices, tariff);
            let seed = 40 + round * 100 + index as u64;
            let hoisted = best_response(
                customer,
                others.as_slice(),
                cost_model,
                &config,
                warm[index].as_ref(),
                &mut ChaCha8Rng::seed_from_u64(seed),
                &NoopRecorder,
                &mut ResponseWorkspace::new(),
            )
            .unwrap();
            let reference = best_response_reference(
                customer,
                &others,
                cost_model,
                &config,
                warm[index].as_ref(),
                &mut ChaCha8Rng::seed_from_u64(seed),
                &NoopRecorder,
            )
            .unwrap();
            assert_bit_identical(&format!("round {round} customer {index}"), &hoisted, &reference);
            warm[index] = Some(hoisted);
        }
    }
}

/// Full Gauss–Seidel rounds through the engine (workspace + hoisted table)
/// against a replica of the same iteration driven by the closure reference
/// path with fresh allocations per response. Cases are `(customers, seed,
/// rounds, use_battery)`: a small battery community over three rounds, and
/// battery-free games at the paper's scale (N = 500) of one round (cold
/// starts only) and of three (warm starts from the engine's round state).
#[test]
fn game_rounds_bit_identical_to_closure_reference() {
    for (customers, seed, rounds, use_battery) in [
        (5, 7, 3, true),
        (500, 2015, 1, false),
        (500, 2015, 3, false),
    ] {
        let label = format!("N={customers} seed {seed} rounds {rounds}");
        let community = community(customers, seed);
        let prices = PriceSignal::time_of_use(community.horizon(), 0.05, 0.25).unwrap();
        let tariff = NetMeteringTariff::default();
        let mut config = GameConfig::fast();
        config.max_rounds = rounds;
        config.tolerance = 1e-9;
        config.response.use_battery = use_battery;

        let engine = GameEngine::new(&community, &prices, tariff, config).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let outcome = engine.solve(&mut rng, &NoopRecorder).unwrap();

        // Replica of the loop in GameEngine::solve, using the reference
        // path.
        let horizon = community.horizon();
        let n = community.len();
        let mut schedules: Vec<Option<CustomerSchedule>> = vec![None; n];
        let mut tradings: Vec<TimeSeries<f64>> = vec![TimeSeries::filled(horizon, 0.0); n];
        let mut total = TimeSeries::filled(horizon, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for _ in 0..config.max_rounds {
            let seeds: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut round_delta = 0.0_f64;
            for (index, customer) in community.iter().enumerate() {
                let others = total.sub(&tradings[index]).unwrap();
                let mut child = ChaCha8Rng::seed_from_u64(seeds[index]);
                let response = best_response_reference(
                    customer,
                    &others,
                    CostModel::new(&prices, tariff),
                    &config.response,
                    schedules[index].as_ref(),
                    &mut child,
                    &NoopRecorder,
                )
                .unwrap();
                let delta = response
                    .trading()
                    .iter()
                    .zip(tradings[index].iter())
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0, f64::max);
                round_delta = round_delta.max(delta);
                total = others.add(response.trading()).unwrap();
                tradings[index] = response.trading().clone();
                schedules[index] = Some(response);
            }
            // The engine rebuilds `total` from the lanes at every round
            // boundary (so limit-cycle rounds repeat bitwise); the replica
            // must re-accumulate in the same customer order to stay
            // bit-identical.
            total = TimeSeries::filled(horizon, 0.0);
            for trading in &tradings {
                total = total.add(trading).unwrap();
            }
            if round_delta <= config.tolerance {
                break;
            }
        }

        // The demand and load the outcome sums from its lanes and plans are
        // the built schedule's, bit for bit.
        let (demand, load) = (outcome.grid_demand.clone(), outcome.load.clone());
        let schedule = outcome.into_schedule(&community).unwrap();
        for h in 0..horizon.slots() {
            assert_eq!(
                demand[h].to_bits(),
                schedule.grid_demand()[h].to_bits(),
                "{label}: demand slot {h}"
            );
            assert_eq!(
                load.at(h).value().to_bits(),
                schedule.load().at(h).value().to_bits(),
                "{label}: load slot {h}"
            );
        }
        assert_eq!(schedule.customer_schedules().len(), n, "{label}");
        for (index, (a, b)) in schedule
            .customer_schedules()
            .iter()
            .zip(schedules.iter())
            .enumerate()
        {
            assert_bit_identical(
                &format!("{label} customer {index}"),
                a,
                b.as_ref().expect("replica scheduled every customer"),
            );
        }
    }
}

/// Absolute solver tallies of a small battery game (Gauss–Seidel, three
/// rounds) and of one unilateral deviation by every meter. The counts are
/// those of the code before the solver entry points were merged; a
/// recorder not threaded through to the DP or CE step changes them.
#[test]
fn solver_tallies_of_a_fixed_battery_game_are_pinned() {
    const TALLIES: [&str; 5] = [
        "solver_games",
        "solver_rounds",
        "solver_dp_cells",
        "solver_ce_solves",
        "solver_ce_iterations",
    ];
    let community = community(5, 7);
    assert!(
        community.iter().any(|c| c.battery().is_usable()),
        "the pin needs a battery customer"
    );
    let prices = PriceSignal::time_of_use(community.horizon(), 0.05, 0.25).unwrap();
    let tariff = NetMeteringTariff::default();
    let mut config = GameConfig::fast();
    config.max_rounds = 3;

    let metrics = MetricsRegistry::new();
    GameEngine::new(&community, &prices, tariff, config)
        .unwrap()
        .solve(&mut ChaCha8Rng::seed_from_u64(23), &metrics)
        .unwrap();
    let game: Vec<u64> = TALLIES.iter().map(|name| metrics.counter(name)).collect();
    assert_eq!(game, [1, 3, 1818, 3, 75], "game tallies {TALLIES:?}");

    let predictor = LoadPredictor::net_metering_aware(tariff, config);
    let committed = predictor
        .predict(
            &community,
            &prices,
            &mut ChaCha8Rng::seed_from_u64(5),
            &NoopRecorder,
        )
        .unwrap();
    let manipulated = PriceSignal::flat(community.horizon(), 0.02).unwrap();
    let meters: Vec<MeterId> = (0..community.len()).map(MeterId::new).collect();
    let metrics = MetricsRegistry::new();
    predictor
        .respond_unilaterally(
            &community,
            &committed,
            &manipulated,
            &meters,
            &mut ChaCha8Rng::seed_from_u64(9),
            &metrics,
        )
        .unwrap();
    let unilateral: Vec<u64> = TALLIES.iter().map(|name| metrics.counter(name)).collect();
    assert_eq!(
        unilateral,
        [0, 0, 606, 1, 25],
        "unilateral tallies {TALLIES:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One workspace reused across every customer of a community (varying
    /// appliance counts, windows, batteries) and across warm-started rounds
    /// must match fresh per-solve allocation bit-for-bit.
    #[test]
    fn prop_reused_workspace_matches_fresh_allocation(
        seed in 0_u64..500,
        community_seed in 0_u64..100,
        others_scale in 0.0_f64..20.0,
    ) {
        let community = community(4, community_seed);
        let horizon = community.horizon();
        let prices = PriceSignal::time_of_use(horizon, 0.05, 0.25).unwrap();
        let tariff = NetMeteringTariff::default();
        let others = TimeSeries::from_fn(horizon, |h| {
            others_scale * (1.0 + (h as f64 / 7.0).sin())
        });
        let config = ResponseConfig::fast();
        let mut ws = ResponseWorkspace::new();
        let mut warm: Vec<Option<CustomerSchedule>> = vec![None; community.len()];
        for round in 0..2_u64 {
            for (index, customer) in community.iter().enumerate() {
                let cost_model = CostModel::new(&prices, tariff);
                let response_seed = seed ^ (round * 31 + index as u64);
                let reused = best_response(
                    customer,
                    others.as_slice(),
                    cost_model,
                    &config,
                    warm[index].as_ref(),
                    &mut ChaCha8Rng::seed_from_u64(response_seed),
                    &NoopRecorder,
                    &mut ws,
                )
                .unwrap();
                let fresh = best_response(
                    customer,
                    others.as_slice(),
                    cost_model,
                    &config,
                    warm[index].as_ref(),
                    &mut ChaCha8Rng::seed_from_u64(response_seed),
                    &NoopRecorder,
                    &mut ResponseWorkspace::new(),
                )
                .unwrap();
                assert_bit_identical(
                    &format!("round {round} customer {index}"),
                    &reused,
                    &fresh,
                );
                warm[index] = Some(reused);
            }
        }
    }
}
