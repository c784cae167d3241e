//! End-to-end tests of the scheduling game and the utility-in-the-loop
//! market: community generation → price design → game equilibrium.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use netmeter_sentinel::obs::NoopRecorder;
use netmeter_sentinel::pricing::{BillingEngine, PriceSignal};
use netmeter_sentinel::sim::{Market, PaperScenario};
use netmeter_sentinel::solver::{GameConfig, GameEngine};

fn scenario() -> PaperScenario {
    PaperScenario::small(12, 91)
}

#[test]
fn market_clears_and_prices_follow_demand() {
    let s = scenario();
    let market = Market::new(&s).unwrap();
    let generator = s.generator();
    let weather = s.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let outcome = market
        .clear_day(&community, 2, rng.gen(), &NoopRecorder)
        .unwrap();

    // The price is above base wherever the community imports.
    let base = s.utility.base_price;
    for h in 0..24 {
        if outcome.response.grid_demand[h] > 0.5 {
            assert!(
                outcome.price.at(h).value() > base,
                "slot {h} imports but is priced at base"
            );
        }
    }
    // Evening demand peak implies an evening price peak.
    let evening_price: f64 = (17..21).map(|h| outcome.price.at(h).value()).sum();
    let night_price: f64 = (1..5).map(|h| outcome.price.at(h).value()).sum();
    assert!(evening_price > night_price);
}

#[test]
fn equilibrium_conserves_task_energy() {
    let s = scenario();
    let market = Market::new(&s).unwrap();
    let generator = s.generator();
    let weather = s.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let outcome = market
        .clear_day(&community, 2, rng.gen(), &NoopRecorder)
        .unwrap();

    // Total consumption equals base load plus all task energies.
    let base_total: f64 = community.iter().map(|c| c.base_load().total()).sum();
    let task_total = community.total_task_energy().value();
    let load_total = outcome.response.load().total().value();
    assert!(
        (load_total - base_total - task_total).abs() < 1e-6,
        "load {load_total} vs base {base_total} + tasks {task_total}"
    );
}

#[test]
fn every_customer_schedule_is_feasible_at_equilibrium() {
    let s = scenario();
    let market = Market::new(&s).unwrap();
    let generator = s.generator();
    let weather = s.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let outcome = market
        .clear_day(&community, 2, rng.gen(), &NoopRecorder)
        .unwrap();

    let schedule = outcome
        .response
        .outcome()
        .clone()
        .into_schedule(&community)
        .unwrap();
    for (customer, plan) in community.iter().zip(schedule.customer_schedules()) {
        assert_eq!(customer.id(), plan.customer());
        // Battery trajectory feasible.
        customer
            .battery()
            .validate_trajectory(plan.battery())
            .unwrap();
        // Load never below the inflexible base.
        for h in 0..24 {
            assert!(
                plan.load().at(h).value() >= customer.base_load()[h] - 1e-9,
                "{} slot {h} below base load",
                customer.id()
            );
        }
    }
}

#[test]
fn cheaper_prices_attract_load_in_equilibrium() {
    let s = scenario();
    let generator = s.generator();
    let weather = s.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);

    // Hand-crafted price: cheap early morning, expensive rest of day.
    let price = PriceSignal::new(nms_types_series(
        &community,
        |h| {
            if h < 6 {
                0.02
            } else {
                0.2
            }
        },
    ))
    .unwrap();
    let engine = GameEngine::new(&community, &price, s.tariff, GameConfig::fast()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let outcome = engine.solve(&mut rng, &NoopRecorder).unwrap();

    // Flexible "anytime" load should concentrate before 06:00 (windows
    // permitting); at minimum, early-morning demand should exceed the
    // base-load-only level.
    let base_early: f64 = community
        .iter()
        .map(|c| (0..6).map(|h| c.base_load()[h]).sum::<f64>())
        .sum();
    let early_demand: f64 = (0..6).map(|h| outcome.load.at(h).value()).sum();
    assert!(
        early_demand > base_early + 1.0,
        "early {early_demand} vs base {base_early}"
    );
}

#[test]
fn billing_consistent_with_equilibrium() {
    let s = scenario();
    let market = Market::new(&s).unwrap();
    let generator = s.generator();
    let weather = s.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let outcome = market
        .clear_day(&community, 2, rng.gen(), &NoopRecorder)
        .unwrap();
    let engine = BillingEngine::new(outcome.price.clone(), s.tariff);
    let schedule = outcome
        .response
        .outcome()
        .clone()
        .into_schedule(&community)
        .unwrap();
    let bills = engine.bill(&schedule).unwrap();
    assert_eq!(bills.len(), community.len());
    // Someone pays something; credits only for trading-capable homes.
    assert!(bills.iter().any(|b| b.purchases.value() > 0.0));
    for (bill, customer) in bills.iter().zip(community.iter()) {
        if bill.credits.value() > 0.0 {
            assert!(
                customer.can_trade(),
                "{} credited but cannot trade",
                customer.id()
            );
        }
    }
}

/// Helper: builds a `TimeSeries` on the community's horizon.
fn nms_types_series(
    community: &netmeter_sentinel::smarthome::Community,
    f: impl FnMut(usize) -> f64,
) -> netmeter_sentinel::types::TimeSeries<f64> {
    netmeter_sentinel::types::TimeSeries::from_fn(community.horizon(), f)
}
