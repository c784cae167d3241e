//! A single customer's best response (the inner loop of Algorithm 1,
//! lines 3–6): alternate DP appliance scheduling with cross-entropy battery
//! optimization until the customer's plan stabilizes.

use std::cell::Cell;

use nms_obs::{span, Recorder};
use rand::Rng;
use serde::{Deserialize, Serialize};

use nms_pricing::CostModel;
use nms_smarthome::{ApplianceSchedule, Customer, CustomerSchedule};
use nms_types::{TimeSeries, ValidateError};

use crate::workspace::{series_for, ResponseWorkspace};
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
/// response-level series live in `ws` and are reused across solves, so a
/// warm workspace makes the steady-state inner loop allocation-free (see
/// DESIGN.md §11); reuse is bit-identical to a fresh [`ResponseWorkspace`]
/// under the same seed.
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
/// battery step hits a NaN cost, or the assembled schedule fails
/// validation.
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
    best_response_core(
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
/// compares against; the `solver_kernels` bench times it as the
/// before-side.
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
    best_response_core(
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

/// The shared solve: alternate the DP appliance step with the CE battery
/// step `inner_iters` times inside `ws`. `hoist` selects the dense
/// per-slot cost table (the default) or the per-cell billing closure (the
/// reference path — same arithmetic, evaluated per DP cell).
#[allow(clippy::too_many_arguments)]
fn best_response_core(
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
        energies,
        battery,
        warm_prev,
        swept,
    } = ws;

    // Working state: per-appliance energies and the battery trajectory,
    // rebuilt in place from `previous` (warm start) or zeros.
    let warm = match previous {
        Some(prev) if prev.appliance_schedules().len() == customer.appliances().len() => {
            Some(prev)
        }
        _ => None,
    };
    let appliance_count = customer.appliances().len();
    energies.truncate(appliance_count);
    while energies.len() < appliance_count {
        energies.push(TimeSeries::filled(horizon, 0.0));
    }
    for (index, series) in energies.iter_mut().enumerate() {
        if series.horizon() != horizon {
            *series = TimeSeries::filled(horizon, 0.0);
        }
        match warm {
            Some(prev) => {
                let source = prev.appliance_schedules()[index].energy();
                for (dst, &src) in series.iter_mut().zip(source.iter()) {
                    *dst = src;
                }
            }
            None => {
                for dst in series.iter_mut() {
                    *dst = 0.0;
                }
            }
        }
    }
    battery.clear();
    match previous {
        Some(prev) if config.use_battery => battery.extend_from_slice(prev.battery()),
        _ => battery.resize(slots + 1, customer.battery().initial_charge()),
    }

    let generation = series_for(generation, horizon);
    for (h, value) in generation.iter_mut().enumerate() {
        *value = customer.generation(h).value();
    }

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
            base.clear();
            base.extend((0..slots).map(|h| {
                let other_appliances: f64 = energies
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != index)
                    .map(|(_, e)| e[h])
                    .sum();
                customer.base_load()[h] + other_appliances + battery_delta[h] - generation[h]
            }));
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
            let load = series_for(load, horizon);
            for (h, value) in load.iter_mut().enumerate() {
                *value = customer.base_load()[h] + energies.iter().map(|e| e[h]).sum::<f64>();
            }
            let problem = BatteryProblem::from_slices(
                customer.battery(),
                horizon,
                load.as_slice(),
                generation.as_slice(),
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

    let appliance_schedules: Vec<ApplianceSchedule> = customer
        .appliances()
        .iter()
        .zip(energies.iter())
        .map(|(appliance, energy)| ApplianceSchedule::new(appliance, horizon, energy.clone()))
        .collect::<Result<_, _>>()?;
    CustomerSchedule::new(customer, appliance_schedules, battery.clone()).map_err(Into::into)
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
