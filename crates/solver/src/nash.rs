//! Nash-gap (exploitability) measurement for community schedules.
//!
//! The best-response iteration of Algorithm 1 stops on a trading-change
//! tolerance, which says nothing directly about *optimality*. The Nash gap
//! asks the economic question: holding everyone else fixed, how many
//! dollars could each customer still save by re-optimizing? A schedule
//! with (near-)zero gap is a (near-)equilibrium of the scheduling game.

use nms_obs::NoopRecorder;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nms_pricing::{CostModel, NetMeteringTariff, PriceSignal};
use nms_smarthome::{Community, CommunitySchedule};
use nms_types::{Dollars, TimeSeries};

use crate::{best_response, ResponseConfig, ResponseWorkspace, SolverError};

/// Per-customer and aggregate exploitability of a schedule.
#[derive(Debug, Clone)]
pub struct NashGap {
    /// Largest single-customer cost improvement available.
    pub max_improvement: Dollars,
    /// Mean improvement across customers.
    pub mean_improvement: Dollars,
    /// Improvement available to each customer (≥ 0 up to solver noise).
    pub per_customer: Vec<Dollars>,
}

/// Measures the Nash gap of `schedule` under the broadcast price `prices`.
///
/// For each customer, the current cost is compared against the cost of a
/// freshly computed best response to the *other* customers' scheduled
/// trading. The response uses `config` (match the solver configuration the
/// schedule was produced with, or a stronger one to probe harder).
///
/// # Errors
///
/// Returns [`SolverError`] if any best-response subproblem fails.
///
/// # Panics
///
/// Panics if `schedule` does not cover exactly the community's customers.
pub fn nash_gap(
    community: &Community,
    schedule: &CommunitySchedule,
    prices: &PriceSignal,
    tariff: NetMeteringTariff,
    config: &ResponseConfig,
    rng: &mut impl Rng,
) -> Result<NashGap, SolverError> {
    assert_eq!(
        schedule.customer_schedules().len(),
        community.len(),
        "schedule/community size"
    );
    let horizon = community.horizon();
    let total = TimeSeries::from_fn(horizon, |h| {
        schedule
            .customer_schedules()
            .iter()
            .map(|s| s.trading()[h])
            .sum()
    });

    let cost_model = CostModel::new(prices, tariff);
    let mut ws = ResponseWorkspace::default();
    let mut per_customer = Vec::with_capacity(community.len());
    for (index, customer) in community.iter().enumerate() {
        let own = &schedule.customer_schedules()[index];
        let others = total.sub(own.trading()).expect("aligned horizons");
        let current_cost = cost_model.customer_cost(&others, own.trading());

        let mut child = ChaCha8Rng::seed_from_u64(rng.gen());
        let response = best_response(
            customer,
            others.as_slice(),
            cost_model,
            config,
            Some(own),
            &mut child,
            &NoopRecorder,
            &mut ws,
        )?;
        let improved_cost = cost_model.customer_cost(&others, response.trading());
        // The warm-started response can only match or beat the current
        // plan; clamp tiny negative noise.
        let improvement = (current_cost - improved_cost).max(Dollars::ZERO);
        per_customer.push(improvement);
    }

    let max_improvement = per_customer
        .iter()
        .copied()
        .fold(Dollars::ZERO, Dollars::max);
    let mean_improvement = per_customer.iter().copied().sum::<Dollars>() / community.len() as f64;
    Ok(NashGap {
        max_improvement,
        mean_improvement,
        per_customer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GameConfig, GameEngine};
    use nms_smarthome::{Appliance, ApplianceKind, Battery, Customer, PowerLevels, TaskSpec};
    use nms_types::{ApplianceId, CustomerId, Horizon, Kw, Kwh};

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    fn community(n: usize) -> Community {
        let customers: Vec<Customer> = (0..n)
            .map(|i| {
                Customer::builder(CustomerId::new(i), day())
                    .appliance(Appliance::new(
                        ApplianceId::new(0),
                        ApplianceKind::WaterHeater,
                        PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                        TaskSpec::new(Kwh::new(3.0), 0, 23).unwrap(),
                    ))
                    .battery(Battery::new(Kwh::new(2.0), Kwh::ZERO).unwrap())
                    .build()
                    .unwrap()
            })
            .collect();
        Community::new(day(), customers).unwrap()
    }

    #[test]
    fn converged_game_has_small_gap() {
        let community = community(4);
        let prices = PriceSignal::time_of_use(day(), 0.05, 0.25).unwrap();
        let tariff = NetMeteringTariff::default();
        let engine = GameEngine::new(&community, &prices, tariff, GameConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let outcome = engine.solve(&mut rng, &NoopRecorder).unwrap();

        let gap = nash_gap(
            &community,
            &outcome.into_schedule(&community).unwrap(),
            &prices,
            tariff,
            &ResponseConfig::default(),
            &mut rng,
        )
        .unwrap();
        // Costs here are a few dollars per customer; the converged game
        // should leave only pocket change on the table.
        let total_cost_scale = 1.0;
        assert!(
            gap.max_improvement.value() < 0.25 * total_cost_scale,
            "max improvement {}",
            gap.max_improvement
        );
        assert!(gap.mean_improvement.value() <= gap.max_improvement.value());
        assert_eq!(gap.per_customer.len(), 4);
    }

    #[test]
    fn perturbed_schedule_has_larger_gap_than_equilibrium() {
        let community = community(3);
        let prices = PriceSignal::time_of_use(day(), 0.05, 0.3).unwrap();
        let tariff = NetMeteringTariff::default();
        let mut rng = ChaCha8Rng::seed_from_u64(2);

        // Deliberately bad plan: schedule everything with a single round so
        // nobody reacted to anyone.
        let mut weak = GameConfig::fast();
        weak.max_rounds = 1;
        let weak_outcome = GameEngine::new(&community, &prices, tariff, weak)
            .unwrap()
            .solve(&mut rng, &NoopRecorder)
            .unwrap();
        // Strong equilibrium for comparison.
        let strong_outcome = GameEngine::new(&community, &prices, tariff, GameConfig::default())
            .unwrap()
            .solve(&mut rng, &NoopRecorder)
            .unwrap();

        let probe = ResponseConfig::default();
        let mut rng_gap = ChaCha8Rng::seed_from_u64(3);
        let weak_gap = nash_gap(
            &community,
            &weak_outcome.into_schedule(&community).unwrap(),
            &prices,
            tariff,
            &probe,
            &mut rng_gap,
        )
        .unwrap();
        let mut rng_gap = ChaCha8Rng::seed_from_u64(3);
        let strong_gap = nash_gap(
            &community,
            &strong_outcome.into_schedule(&community).unwrap(),
            &prices,
            tariff,
            &probe,
            &mut rng_gap,
        )
        .unwrap();
        assert!(
            strong_gap.max_improvement.value() <= weak_gap.max_improvement.value() + 1e-9,
            "strong {} vs weak {}",
            strong_gap.max_improvement,
            weak_gap.max_improvement
        );
    }
}
