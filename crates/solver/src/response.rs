//! A single customer's best response (the inner loop of Algorithm 1,
//! lines 3–6): alternate DP appliance scheduling with cross-entropy battery
//! optimization until the customer's plan stabilizes.

use std::cell::Cell;

use nms_obs::{span, Recorder};
use rand::Rng;
use serde::{Deserialize, Serialize};

use nms_pricing::CostModel;
use nms_smarthome::{
    check_plan, plan_load, plan_trading, ApplianceSchedule, Customer, CustomerSchedule,
};
use nms_types::{Kwh, TimeSeries, ValidateError};

use crate::workspace::ResponseWorkspace;
use crate::{
    coordinate_descent_battery, optimize_battery, BatteryProblem, CeConfig, CrossEntropyOptimizer,
    DpScheduler, SolverError,
};

/// Configuration for [`best_response`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponseConfig {
    /// DP quantum resolution (see [`DpScheduler`]).
    pub dp_resolution: usize,
    /// Cross-entropy settings for the battery step.
    pub ce: CeConfig,
    /// Alternations between the DP step and the battery step.
    pub inner_iters: usize,
    /// When `false` the battery is left idle (used by predictors that model
    /// customers without storage).
    pub use_battery: bool,
}

impl ResponseConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] on a zero resolution/iteration count or an
    /// invalid CE configuration.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.dp_resolution == 0 {
            return Err(ValidateError::new("dp resolution must be positive"));
        }
        if self.inner_iters == 0 {
            return Err(ValidateError::new("need at least one inner iteration"));
        }
        self.ce.validate()
    }

    /// A faster preset for large-community simulations.
    pub fn fast() -> Self {
        Self {
            dp_resolution: 2,
            ce: CeConfig::fast(),
            inner_iters: 1,
            use_battery: true,
        }
    }
}

impl Default for ResponseConfig {
    fn default() -> Self {
        Self {
            dp_resolution: 4,
            ce: CeConfig::fast(),
            inner_iters: 2,
            use_battery: true,
        }
    }
}

/// Computes the customer's best response to the other customers' aggregate
/// trading `others_trading` (`Σ_{i≠n} y_i^h`, kWh per slot, as a raw
/// per-slot slice: a `TimeSeries`' storage or one of the game engine's flat
/// structure-of-arrays lanes).
///
/// `previous` warm-starts the appliance allocation and battery trajectory
/// when available. All DP tables, CE population buffers, and
/// response-level series live in `ws` and are reused across solves (see
/// DESIGN.md §11); reuse is bit-identical to a fresh [`ResponseWorkspace`]
/// under the same seed. This is the solve the game engine runs on every
/// customer in every round, plus one schedule build; the engine itself
/// keeps each plan in its own buffers and builds the schedules once, from
/// the final round.
///
/// Solver telemetry goes to `rec`: DP cost-cell evaluations
/// (`solver_dp_cells`), cross-entropy solves / iterations / convergences
/// (`solver_ce_*`), and the CE variance trajectory (`solver_ce_std`
/// observations). Recording reads only values the solve already produced
/// and draws nothing from `rng`, so the returned schedule is the same under
/// any recorder.
///
/// # Errors
///
/// Returns [`SolverError`] when an appliance subproblem is infeasible, the
/// battery step hits a NaN cost, or the plan fails the schedule checks.
#[allow(clippy::too_many_arguments)]
pub fn best_response(
    customer: &Customer,
    others_trading: &[f64],
    cost_model: CostModel<'_>,
    config: &ResponseConfig,
    previous: Option<&CustomerSchedule>,
    rng: &mut impl Rng,
    rec: &dyn Recorder,
    ws: &mut ResponseWorkspace,
) -> Result<CustomerSchedule, SolverError> {
    respond_and_build(
        customer,
        others_trading,
        cost_model,
        config,
        previous,
        rng,
        rec,
        ws,
        true,
    )
}

/// The exact-equality reference path: identical to [`best_response`]
/// except the DP cost comes from the [`CostModel::slot_cost`] closure per
/// cell instead of the hoisted per-slot table, and every buffer is freshly
/// allocated. [`HoistedCostTable`](nms_pricing::HoistedCostTable)
/// replicates that closure operation-for-operation, so the two paths are
/// byte-identical. Kept only as the oracle that `tests/solver_workspace.rs`
/// compares against.
///
/// # Errors
///
/// Same as [`best_response`].
#[doc(hidden)]
pub fn best_response_reference(
    customer: &Customer,
    others_trading: &TimeSeries<f64>,
    cost_model: CostModel<'_>,
    config: &ResponseConfig,
    previous: Option<&CustomerSchedule>,
    rng: &mut impl Rng,
    rec: &dyn Recorder,
) -> Result<CustomerSchedule, SolverError> {
    respond_and_build(
        customer,
        others_trading.as_slice(),
        cost_model,
        config,
        previous,
        rng,
        rec,
        &mut ResponseWorkspace::default(),
        false,
    )
}

/// Unpacks `previous` into a fresh [`Plan`], runs [`respond_in_place`],
/// and builds the schedule.
#[allow(clippy::too_many_arguments)]
fn respond_and_build(
    customer: &Customer,
    others_trading: &[f64],
    cost_model: CostModel<'_>,
    config: &ResponseConfig,
    previous: Option<&CustomerSchedule>,
    rng: &mut impl Rng,
    rec: &dyn Recorder,
    ws: &mut ResponseWorkspace,
    hoist: bool,
) -> Result<CustomerSchedule, SolverError> {
    let mut plan = Plan::cold(customer);
    if let Some(prev) = previous {
        if prev.appliance_schedules().len() == plan.energies.len() {
            for (series, schedule) in plan.energies.iter_mut().zip(prev.appliance_schedules()) {
                for (dst, &src) in series.iter_mut().zip(schedule.energy().iter()) {
                    *dst = src;
                }
            }
        }
        if config.use_battery {
            plan.battery.clear();
            plan.battery.extend_from_slice(prev.battery());
        }
    }
    respond_in_place(
        customer,
        others_trading,
        cost_model,
        config,
        &mut plan,
        rng,
        rec,
        ws,
        hoist,
    )?;
    plan.into_schedule(customer)
}

/// A customer's plan in the form [`respond_in_place`] updates: one energy
/// series per appliance, in the customer's appliance order, and the
/// battery trajectory `b⁰..b^H`. The game engine keeps one per customer
/// across its rounds and turns each into a schedule once, at the end.
#[derive(Debug)]
pub(crate) struct Plan {
    energies: Vec<TimeSeries<f64>>,
    battery: Vec<Kwh>,
}

impl Plan {
    /// The cold start: zero energies and the battery flat at its initial
    /// charge.
    pub(crate) fn cold(customer: &Customer) -> Self {
        let horizon = customer.horizon();
        Self {
            energies: vec![TimeSeries::filled(horizon, 0.0); customer.appliances().len()],
            battery: vec![customer.battery().initial_charge(); horizon.slots() + 1],
        }
    }

    /// Wraps the plan in a [`CustomerSchedule`], moving its series in.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Schedule`] if the plan fails the schedule
    /// checks (never after a successful response, which runs the same
    /// checks).
    pub(crate) fn into_schedule(
        self,
        customer: &Customer,
    ) -> Result<CustomerSchedule, SolverError> {
        let horizon = customer.horizon();
        let appliance_schedules: Vec<ApplianceSchedule> = customer
            .appliances()
            .iter()
            .zip(self.energies)
            .map(|(appliance, energy)| ApplianceSchedule::new(appliance, horizon, energy))
            .collect::<Result<_, _>>()?;
        CustomerSchedule::new(customer, appliance_schedules, self.battery).map_err(Into::into)
    }
}

/// The best-response core: alternates the DP appliance step with the CE
/// battery step `inner_iters` times on `plan`, which enters holding the
/// warm start (the previous plan, or [`Plan::cold`]) and leaves holding the
/// new plan. The new plan passes every check [`CustomerSchedule::new`]
/// makes, and its trading lane `y^h` is left in `ws.trading`.
///
/// `hoist` selects the dense per-slot cost table (the default) or the
/// per-cell billing closure (the reference path — same arithmetic,
/// evaluated per DP cell). Outside the CE battery step a warm workspace
/// makes the solve allocation-free.
///
/// # Errors
///
/// As [`best_response`]. On error `plan` holds a partial update.
#[allow(clippy::too_many_arguments)]
pub(crate) fn respond_in_place(
    customer: &Customer,
    others_trading: &[f64],
    cost_model: CostModel<'_>,
    config: &ResponseConfig,
    plan: &mut Plan,
    rng: &mut impl Rng,
    rec: &dyn Recorder,
    ws: &mut ResponseWorkspace,
    hoist: bool,
) -> Result<(), SolverError> {
    config.validate()?;
    let horizon = customer.horizon();
    let slots = horizon.slots();
    let dp = DpScheduler::new(config.dp_resolution);
    let ce = CrossEntropyOptimizer::new(config.ce);

    let ResponseWorkspace {
        dp: dp_ws,
        ce: ce_ws,
        table,
        base,
        battery_delta,
        generation,
        load,
        trading,
        warm_prev,
        swept,
    } = ws;
    let Plan { energies, battery } = plan;

    generation.clear();
    generation.extend((0..slots).map(|h| customer.generation(h).value()));

    // The billing terms depend only on the guideline price, the tariff, and
    // the (fixed) aggregate trading of the others — hoist them once per
    // response instead of re-deriving them per DP cell.
    if hoist {
        cost_model.hoist_into(others_trading, table);
    }

    // Tallied locally (the DP cost closure is not `Sync`-friendly to hand
    // the recorder into) and flushed to `rec` once per response.
    let dp_cells = Cell::new(0_u64);

    for _ in 0..config.inner_iters {
        // Battery contribution to own trading, fixed during the DP step.
        battery_delta.clear();
        battery_delta.extend((0..slots).map(|h| battery[h + 1].value() - battery[h].value()));

        // DP step: reschedule each appliance against the others (coordinate
        // descent over appliances).
        let dp_span = span(rec, "dp_appliances");
        for (index, appliance) in customer.appliances().iter().enumerate() {
            sum_other_appliances(energies, slots, index, base);
            for (h, value) in base.iter_mut().enumerate() {
                *value = customer.base_load()[h] + *value + battery_delta[h] - generation[h];
            }
            let out = &mut energies[index];
            if hoist {
                dp.schedule_into(appliance, horizon, dp_ws, out, |slot, energy| {
                    dp_cells.set(dp_cells.get() + 1);
                    table.slot_cost(slot, base[slot] + energy)
                })?;
            } else {
                dp.schedule_into(appliance, horizon, dp_ws, out, |slot, energy| {
                    dp_cells.set(dp_cells.get() + 1);
                    cost_model
                        .slot_cost(slot, others_trading[slot], base[slot] + energy)
                        .value()
                })?;
            }
        }
        drop(dp_span);

        // Battery step (cross-entropy optimization of Algorithm 1, line 5).
        if config.use_battery && customer.battery().is_usable() {
            let _ce_span = span(rec, "ce_battery");
            load.clear();
            load.extend((0..slots).map(|h| plan_load(customer, lanes(energies), h)));
            let problem = BatteryProblem::from_slices(
                customer.battery(),
                horizon,
                load,
                generation,
                others_trading,
                cost_model,
            );
            // Warm start: the better of the previous trajectory and one
            // deterministic coordinate-descent sweep — CE then refines.
            warm_prev.clear();
            warm_prev.extend(battery[1..].iter().map(|b| b.value()));
            let full_sweep = coordinate_descent_battery(&problem, 1);
            swept.clear();
            swept.extend(full_sweep[1..].iter().map(|b| b.value()));
            let warm: &[f64] = if problem.objective(swept) < problem.objective(warm_prev) {
                swept
            } else {
                warm_prev
            };
            let (trajectory, solution) = optimize_battery(&problem, &ce, Some(warm), rng, ce_ws)?;
            rec.add("solver_ce_solves", 1);
            rec.add("solver_ce_iterations", solution.iterations as u64);
            if solution.converged {
                rec.add("solver_ce_converged", 1);
            }
            for std in &solution.std_history {
                rec.observe("solver_ce_std", *std);
            }
            battery.clear();
            battery.extend_from_slice(&trajectory);
        }
    }

    rec.add("solver_dp_cells", dp_cells.get());

    check_plan(
        customer,
        customer
            .appliances()
            .iter()
            .map(|appliance| appliance.id())
            .zip(lanes(energies)),
        battery,
    )?;
    load.clear();
    load.extend((0..slots).map(|h| plan_load(customer, lanes(energies), h)));
    trading.clear();
    trading.extend((0..slots).map(|h| plan_trading(customer, load[h], battery, h)));
    Ok(())
}

/// The per-appliance energy series as slices.
fn lanes(energies: &[TimeSeries<f64>]) -> impl Iterator<Item = &[f64]> + Clone {
    energies.iter().map(TimeSeries::as_slice)
}

/// Writes `Σ_{i ≠ skip} e_i^h` into `acc` for each of the `slots` slots.
/// Appliances are added in index order onto `Iterator::sum`'s identity —
/// the additions `(0..A).filter(|&i| i != skip).map(|i| e_i[h]).sum()`
/// performs, in the same order, as a per-appliance loop the compiler
/// vectorizes.
fn sum_other_appliances(
    energies: &[TimeSeries<f64>],
    slots: usize,
    skip: usize,
    acc: &mut Vec<f64>,
) {
    acc.clear();
    acc.resize(slots, std::iter::empty::<f64>().sum());
    for (index, energy) in energies.iter().enumerate() {
        if index != skip {
            for (sum, &value) in acc.iter_mut().zip(energy.iter()) {
                *sum += value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_obs::NoopRecorder;
    use nms_pricing::{NetMeteringTariff, PriceSignal};
    use nms_smarthome::{
        clear_sky_profile, Appliance, ApplianceKind, Battery, PowerLevels, PvPanel, TaskSpec,
    };
    use nms_types::{ApplianceId, CustomerId, Horizon, Kw, Kwh};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    /// One unrecorded response from a fresh workspace.
    fn respond(
        customer: &Customer,
        others: &TimeSeries<f64>,
        cost_model: CostModel<'_>,
        config: &ResponseConfig,
        previous: Option<&CustomerSchedule>,
        rng: &mut impl Rng,
    ) -> Result<CustomerSchedule, SolverError> {
        let mut ws = ResponseWorkspace::default();
        best_response(
            customer,
            others.as_slice(),
            cost_model,
            config,
            previous,
            rng,
            &NoopRecorder,
            &mut ws,
        )
    }

    fn evening_peak_prices() -> PriceSignal {
        PriceSignal::new(TimeSeries::from_fn(day(), |h| {
            if (17..21).contains(&h) {
                0.4
            } else {
                0.05
            }
        }))
        .unwrap()
    }

    fn customer_with_flexible_load() -> Customer {
        Customer::builder(CustomerId::new(0), day())
            .appliance(Appliance::new(
                ApplianceId::new(0),
                ApplianceKind::WaterHeater,
                PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                TaskSpec::new(Kwh::new(4.0), 0, 23).unwrap(),
            ))
            .appliance(Appliance::new(
                ApplianceId::new(1),
                ApplianceKind::Dishwasher,
                PowerLevels::on_off(Kw::new(1.0)).unwrap(),
                TaskSpec::new(Kwh::new(1.0), 17, 23).unwrap(),
            ))
            .battery(Battery::new(Kwh::new(4.0), Kwh::ZERO).unwrap())
            .pv(PvPanel::new(Kw::new(2.0), clear_sky_profile(day(), Kw::new(2.0))).unwrap())
            .build()
            .unwrap()
    }

    proptest! {
        /// The per-lane fold of the other appliances equals the per-slot
        /// `enumerate().filter().sum()` it replaced, bit for bit, for 0–10
        /// appliances. Both signed zeros are over-represented among the
        /// energies: a fold seeded at `+0.0` turns an all-`-0.0` (or
        /// empty) sum positive.
        #[test]
        fn other_appliance_fold_matches_filtered_sum(
            count in 0_usize..=10,
            skip in 0_usize..=10,
            slots in 1_usize..30,
            kinds in proptest::collection::vec(0_u8..4, 10 * 30),
            magnitudes in proptest::collection::vec(-1.0_f64..1.0, 10 * 30),
        ) {
            let value = |i: usize| match kinds[i] {
                0 => -0.0,
                1 => 0.0,
                2 => magnitudes[i] * 1e3,
                _ => magnitudes[i] * 1e16,
            };
            let horizon = Horizon::hourly(slots);
            let energies: Vec<TimeSeries<f64>> = (0..count)
                .map(|a| TimeSeries::from_fn(horizon, |h| value(a * slots + h)))
                .collect();
            let mut acc = Vec::new();
            sum_other_appliances(&energies, slots, skip, &mut acc);
            prop_assert_eq!(acc.len(), slots);
            for (h, &folded) in acc.iter().enumerate() {
                let summed: f64 = energies
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, e)| e[h])
                    .sum();
                prop_assert_eq!(folded.to_bits(), summed.to_bits());
            }
        }
    }

    #[test]
    fn config_validation() {
        assert!(ResponseConfig::default().validate().is_ok());
        assert!(ResponseConfig::fast().validate().is_ok());
        assert!(ResponseConfig {
            dp_resolution: 0,
            ..ResponseConfig::default()
        }
        .validate()
        .is_err());
        assert!(ResponseConfig {
            inner_iters: 0,
            ..ResponseConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn response_avoids_peak_prices() {
        let customer = customer_with_flexible_load();
        let prices = evening_peak_prices();
        let cost_model = CostModel::new(&prices, NetMeteringTariff::default());
        let others = TimeSeries::filled(day(), 10.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let schedule = respond(
            &customer,
            &others,
            cost_model,
            &ResponseConfig::default(),
            None,
            &mut rng,
        )
        .unwrap();
        // The flexible water heater's 4 kWh should avoid 17:00–21:00.
        let peak_load: f64 = (17..21)
            .map(|h| schedule.appliance_schedules()[0].at(h).value())
            .sum();
        assert!(peak_load < 0.5, "peak load {peak_load}");
        // The dishwasher is stuck in the evening window but should prefer
        // the cheap 21:00–23:00 tail.
        let dishwasher_cheap: f64 = (21..24)
            .map(|h| schedule.appliance_schedules()[1].at(h).value())
            .sum();
        assert!((dishwasher_cheap - 1.0).abs() < 1e-6);
    }

    #[test]
    fn response_cost_not_worse_than_idle_battery_plan() {
        let customer = customer_with_flexible_load();
        let prices = evening_peak_prices();
        let cost_model = CostModel::new(&prices, NetMeteringTariff::default());
        let others = TimeSeries::filled(day(), 10.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let with_battery = respond(
            &customer,
            &others,
            cost_model,
            &ResponseConfig::default(),
            None,
            &mut rng,
        )
        .unwrap();
        let no_battery_config = ResponseConfig {
            use_battery: false,
            ..ResponseConfig::default()
        };
        let mut rng2 = ChaCha8Rng::seed_from_u64(2);
        let without_battery = respond(
            &customer,
            &others,
            cost_model,
            &no_battery_config,
            None,
            &mut rng2,
        )
        .unwrap();
        let cost = |s: &CustomerSchedule| cost_model.customer_cost(&others, s.trading()).value();
        assert!(cost(&with_battery) <= cost(&without_battery) + 1e-6);
    }

    #[test]
    fn warm_start_preserves_feasibility() {
        let customer = customer_with_flexible_load();
        let prices = evening_peak_prices();
        let cost_model = CostModel::new(&prices, NetMeteringTariff::default());
        let others = TimeSeries::filled(day(), 10.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let first = respond(
            &customer,
            &others,
            cost_model,
            &ResponseConfig::fast(),
            None,
            &mut rng,
        )
        .unwrap();
        let second = respond(
            &customer,
            &others,
            cost_model,
            &ResponseConfig::fast(),
            Some(&first),
            &mut rng,
        )
        .unwrap();
        // Warm-started responses remain feasible and at least as good.
        let cost = |s: &CustomerSchedule| cost_model.customer_cost(&others, s.trading()).value();
        assert!(cost(&second) <= cost(&first) + 1e-6);
    }

    #[test]
    fn no_battery_config_keeps_soc_flat() {
        let customer = customer_with_flexible_load();
        let prices = evening_peak_prices();
        let cost_model = CostModel::new(&prices, NetMeteringTariff::default());
        let others = TimeSeries::filled(day(), 10.0);
        let config = ResponseConfig {
            use_battery: false,
            ..ResponseConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let schedule = respond(&customer, &others, cost_model, &config, None, &mut rng).unwrap();
        let initial = customer.battery().initial_charge();
        assert!(schedule.battery().iter().all(|&b| b == initial));
    }

    #[test]
    fn pv_reduces_net_purchases() {
        let customer = customer_with_flexible_load();
        let prices = evening_peak_prices();
        let cost_model = CostModel::new(&prices, NetMeteringTariff::default());
        let others = TimeSeries::filled(day(), 10.0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let schedule = respond(
            &customer,
            &others,
            cost_model,
            &ResponseConfig::default(),
            None,
            &mut rng,
        )
        .unwrap();
        // Total purchases < total task energy because PV feeds part of it.
        assert!(schedule.total_purchased().value() < customer.total_task_energy().value());
    }
}
