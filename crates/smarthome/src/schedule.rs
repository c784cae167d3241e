//! Feasible schedules: the decision variables of the paper's game.
//!
//! A schedule fixes, per slot, each appliance's energy draw (`x_m^h e_m^h`),
//! the battery state of charge `b_n^h`, and — derived through the battery
//! balance (Eqn 1) — the grid trading amount `y_n^h`:
//!
//! ```text
//! b^{h+1} = b^h + θ^h + y^h − l^h   ⇒   y^h = l^h + b^{h+1} − b^h − θ^h
//! ```
//!
//! Positive `y` purchases energy from the grid; negative `y` sells it back
//! (net metering).

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use nms_types::{ApplianceId, CustomerId, Horizon, Kwh, TimeSeries, ValidateError};

use crate::{Appliance, Customer, LoadProfile};

/// Numerical tolerance for feasibility checks on schedules.
pub(crate) const FEASIBILITY_TOL: f64 = 1e-6;

/// Why a schedule was rejected as infeasible.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The schedule's slot count differs from the horizon's.
    HorizonMismatch {
        /// Slots the horizon expects.
        expected: usize,
        /// Slots the schedule supplied.
        actual: usize,
    },
    /// Energy drawn outside the appliance's `[α, β]` window.
    OutsideWindow {
        /// The offending appliance.
        appliance: ApplianceId,
        /// The slot where energy was drawn.
        slot: usize,
    },
    /// Per-slot energy exceeds the appliance's maximum power level.
    ExceedsSlotCap {
        /// The offending appliance.
        appliance: ApplianceId,
        /// The slot that overflows.
        slot: usize,
        /// Energy requested in the slot.
        requested: Kwh,
        /// Maximum the appliance can deliver per slot.
        cap: Kwh,
    },
    /// Total scheduled energy differs from the task requirement `E_m`.
    EnergyMismatch {
        /// The offending appliance.
        appliance: ApplianceId,
        /// Task energy `E_m`.
        required: Kwh,
        /// Scheduled total.
        scheduled: Kwh,
    },
    /// The battery trajectory violates the battery's constraints.
    Battery(ValidateError),
    /// The set of appliance schedules does not match the customer's
    /// appliance set.
    ApplianceSetMismatch {
        /// The customer whose schedule was assembled.
        customer: CustomerId,
    },
    /// A scheduled energy value was negative or non-finite.
    InvalidEnergy {
        /// The offending appliance.
        appliance: ApplianceId,
        /// The slot with the invalid value.
        slot: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::HorizonMismatch { expected, actual } => {
                write!(f, "schedule has {actual} slots, horizon has {expected}")
            }
            Self::OutsideWindow { appliance, slot } => {
                write!(
                    f,
                    "{appliance} draws energy outside its window at slot {slot}"
                )
            }
            Self::ExceedsSlotCap {
                appliance,
                slot,
                requested,
                cap,
            } => write!(
                f,
                "{appliance} requests {requested:.4} at slot {slot}, above per-slot cap {cap:.4}"
            ),
            Self::EnergyMismatch {
                appliance,
                required,
                scheduled,
            } => write!(
                f,
                "{appliance} scheduled {scheduled:.4} but task requires {required:.4}"
            ),
            Self::Battery(err) => write!(f, "battery trajectory rejected: {err}"),
            Self::ApplianceSetMismatch { customer } => {
                write!(
                    f,
                    "appliance schedules do not match the appliance set of {customer}"
                )
            }
            Self::InvalidEnergy { appliance, slot } => {
                write!(
                    f,
                    "{appliance} has a negative or non-finite energy at slot {slot}"
                )
            }
        }
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Battery(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ValidateError> for ScheduleError {
    fn from(err: ValidateError) -> Self {
        Self::Battery(err)
    }
}

/// The per-slot energy draw of one appliance (`x_m^h · e_m^h`, in kWh).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplianceSchedule {
    appliance: ApplianceId,
    energy: TimeSeries<f64>,
}

impl ApplianceSchedule {
    /// Validates `energy` (kWh per slot) against `appliance`'s task and
    /// power levels on `horizon` and wraps it.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] naming the first violated constraint:
    /// wrong slot count, negative energy, draw outside the window, per-slot
    /// draw above the maximum power level, or total energy different from
    /// `E_m`.
    pub fn new(
        appliance: &Appliance,
        horizon: Horizon,
        energy: TimeSeries<f64>,
    ) -> Result<Self, ScheduleError> {
        check_energy(appliance, horizon, energy.as_slice())?;
        Ok(Self {
            appliance: appliance.id(),
            energy,
        })
    }

    /// The scheduled appliance's id.
    #[inline]
    pub fn appliance(&self) -> ApplianceId {
        self.appliance
    }

    /// Energy drawn at `slot`.
    #[inline]
    pub fn at(&self, slot: usize) -> Kwh {
        Kwh::new(self.energy[slot])
    }

    /// The per-slot energy series (kWh per slot).
    #[inline]
    pub fn energy(&self) -> &TimeSeries<f64> {
        &self.energy
    }
}

/// A complete feasible plan for one customer: appliance draws, battery
/// trajectory, and the derived load `l_n^h` (inflexible base load plus
/// scheduled appliance draws) and trading `y_n^h` series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CustomerSchedule {
    customer: CustomerId,
    appliance_schedules: Vec<ApplianceSchedule>,
    load: LoadProfile,
    battery: Vec<Kwh>,
    trading: TimeSeries<f64>,
}

impl CustomerSchedule {
    /// Assembles and validates a customer's schedule.
    ///
    /// `battery_trajectory` holds `b^0..b^H` (`H + 1` entries); it must start
    /// at the customer's configured initial charge. The trading series is
    /// derived via the battery balance of Eqn 1.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if the appliance schedules don't cover
    /// exactly the customer's appliance set, any appliance schedule is
    /// infeasible, or the battery trajectory is invalid.
    pub fn new(
        customer: &Customer,
        appliance_schedules: Vec<ApplianceSchedule>,
        battery_trajectory: Vec<Kwh>,
    ) -> Result<Self, ScheduleError> {
        check_plan(
            customer,
            appliance_schedules
                .iter()
                .map(|s| (s.appliance(), s.energy().as_slice())),
            &battery_trajectory,
        )?;
        let horizon = customer.horizon();
        let load = LoadProfile::new(TimeSeries::from_fn(horizon, |slot| {
            plan_load(
                customer,
                appliance_schedules.iter().map(|s| s.energy().as_slice()),
                slot,
            )
        }));
        let trading = TimeSeries::from_fn(horizon, |slot| {
            plan_trading(customer, load.at(slot).value(), &battery_trajectory, slot)
        });

        Ok(Self {
            customer: customer.id(),
            appliance_schedules,
            load,
            battery: battery_trajectory,
            trading,
        })
    }

    /// A schedule for a customer that never uses its battery (the state of
    /// charge stays at the initial level throughout).
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`CustomerSchedule::new`].
    pub fn with_idle_battery(
        customer: &Customer,
        appliance_schedules: Vec<ApplianceSchedule>,
    ) -> Result<Self, ScheduleError> {
        let flat = vec![customer.battery().initial_charge(); customer.horizon().slots() + 1];
        Self::new(customer, appliance_schedules, flat)
    }

    /// The scheduled customer's id.
    #[inline]
    pub fn customer(&self) -> CustomerId {
        self.customer
    }

    /// The per-appliance schedules.
    #[inline]
    pub fn appliance_schedules(&self) -> &[ApplianceSchedule] {
        &self.appliance_schedules
    }

    /// The customer's consumption profile `l_n^h`.
    #[inline]
    pub fn load(&self) -> &LoadProfile {
        &self.load
    }

    /// The battery state-of-charge trajectory `b^0..b^H`.
    #[inline]
    pub fn battery(&self) -> &[Kwh] {
        &self.battery
    }

    /// The grid trading series `y_n^h` (kWh per slot; negative = sold).
    #[inline]
    pub fn trading(&self) -> &TimeSeries<f64> {
        &self.trading
    }

    /// Total energy purchased from the grid (positive trades only).
    pub fn total_purchased(&self) -> Kwh {
        Kwh::new(self.trading.iter().filter(|&&y| y > 0.0).sum())
    }

    /// Total energy sold back to the grid (absolute value of negative
    /// trades).
    pub fn total_sold(&self) -> Kwh {
        Kwh::new(-self.trading.iter().filter(|&&y| y < 0.0).sum::<f64>())
    }
}

/// Checks one appliance's per-slot energies (kWh) against its task and
/// power levels on `horizon`, naming the first violated constraint.
///
/// One branch-free pass tests every slot: exactly zero outside the
/// window, and inside it not below `-tol` and not above the cap (so not
/// NaN or infinite either: the cap is finite). When it passes,
/// only the window's energies are summed: the scan's running total starts
/// at `+0.0` and so never becomes `-0.0`, and adding a signed zero leaves
/// any other value unchanged, so this is the scan's total, bit for bit.
/// Anything else, including a plan the scan accepts with a draw of at
/// most `tol` outside the window, is scanned again by
/// [`first_energy_error`], which stops at the first violation. The
/// verdict and the error are therefore always the scan's.
fn check_energy(
    appliance: &Appliance,
    horizon: Horizon,
    energy: &[f64],
) -> Result<(), ScheduleError> {
    if energy.len() != horizon.slots() {
        return Err(ScheduleError::HorizonMismatch {
            expected: horizon.slots(),
            actual: energy.len(),
        });
    }
    let task = appliance.task();
    let (start, deadline) = (task.start(), task.deadline());
    let cap = appliance.max_slot_energy(horizon).value() + FEASIBILITY_TOL;
    let window = start.min(energy.len())..deadline.saturating_add(1).min(energy.len());
    // Folds without short-circuits, which the compiler vectorizes.
    let zero = |ok: bool, &e: &f64| ok & (e == 0.0);
    let feasible = energy[..window.start].iter().fold(true, zero)
        & energy[window.end..].iter().fold(true, zero)
        & energy[window.clone()]
            .iter()
            .fold(true, |ok, &e| ok & (e >= -FEASIBILITY_TOL) & (e <= cap));
    if feasible {
        let total = energy[window].iter().fold(0.0, |total, &e| total + e);
        let required = task.energy().value();
        if (total - required).abs() <= FEASIBILITY_TOL.max(required * 1e-6) {
            return Ok(());
        }
    }
    first_energy_error(appliance, horizon, energy)
}

/// The slot-by-slot scan behind [`check_energy`]: returns the first
/// violated constraint, in slot order, or the total's mismatch.
fn first_energy_error(
    appliance: &Appliance,
    horizon: Horizon,
    energy: &[f64],
) -> Result<(), ScheduleError> {
    let cap = appliance.max_slot_energy(horizon);
    let mut total = 0.0;
    for (slot, &e) in energy.iter().enumerate() {
        if !e.is_finite() || e < -FEASIBILITY_TOL {
            return Err(ScheduleError::InvalidEnergy {
                appliance: appliance.id(),
                slot,
            });
        }
        if e > FEASIBILITY_TOL && !appliance.task().allows_slot(slot) {
            return Err(ScheduleError::OutsideWindow {
                appliance: appliance.id(),
                slot,
            });
        }
        if e > cap.value() + FEASIBILITY_TOL {
            return Err(ScheduleError::ExceedsSlotCap {
                appliance: appliance.id(),
                slot,
                requested: Kwh::new(e),
                cap,
            });
        }
        total += e;
    }
    let required = appliance.task().energy().value();
    if (total - required).abs() > FEASIBILITY_TOL.max(required * 1e-6) {
        return Err(ScheduleError::EnergyMismatch {
            appliance: appliance.id(),
            required: Kwh::new(required),
            scheduled: Kwh::new(total),
        });
    }
    Ok(())
}

/// Checks a customer's plan held in borrowed slices: `appliances` yields
/// each planned appliance's id with its per-slot energies (kWh), and
/// `battery` is the trajectory `b^0..b^H`.
///
/// These are exactly the checks [`CustomerSchedule::new`] makes, in the
/// same order, so a solver that keeps its plans in its own buffers can run
/// them on every response without building a schedule. When the
/// customer's appliance ids increase strictly (as the generator and the
/// catalog number them) and the plan lists them in that order (a solver's
/// plans always do), each lane is checked against the appliance at its
/// position: the ids are then unique, so that is the appliance the id
/// lookup finds, and no id repeats. Any other plan is checked by id
/// lookup and a scan for repeated ids. (`Customer::build` rejects repeated
/// ids, but a deserialized customer skips it.)
///
/// # Errors
///
/// Returns a [`ScheduleError`] if the ids don't cover exactly the
/// customer's appliance set, any appliance's energies are infeasible for
/// the appliance carrying that id, or the battery trajectory has the wrong
/// length or violates the battery's constraints.
pub fn check_plan<'a, I>(
    customer: &Customer,
    appliances: I,
    battery: &[Kwh],
) -> Result<(), ScheduleError>
where
    I: IntoIterator<Item = (ApplianceId, &'a [f64])>,
    I::IntoIter: Clone,
{
    let horizon = customer.horizon();
    let own = customer.appliances();
    let appliances = appliances.into_iter();
    if own.windows(2).all(|pair| pair[0].id() < pair[1].id())
        && appliances
            .clone()
            .map(|(id, _)| id)
            .eq(own.iter().map(Appliance::id))
    {
        for ((_, energy), appliance) in appliances.zip(own) {
            check_energy(appliance, horizon, energy)?;
        }
    } else {
        check_appliances_by_id(customer, appliances)?;
    }
    if battery.len() != horizon.slots() + 1 {
        return Err(ScheduleError::HorizonMismatch {
            expected: horizon.slots() + 1,
            actual: battery.len(),
        });
    }
    customer.battery().validate_trajectory(battery)?;
    Ok(())
}

/// The appliance half of [`check_plan`] for any other plan: the count,
/// then each lane against the appliance its id names, then a scan for
/// repeated ids.
fn check_appliances_by_id<'a>(
    customer: &Customer,
    appliances: impl Iterator<Item = (ApplianceId, &'a [f64])> + Clone,
) -> Result<(), ScheduleError> {
    let mismatch = || ScheduleError::ApplianceSetMismatch {
        customer: customer.id(),
    };
    if appliances.clone().count() != customer.appliances().len() {
        return Err(mismatch());
    }
    for (id, energy) in appliances.clone() {
        // Look the appliance up by id: the energies may have been planned
        // against another appliance carrying the same id.
        let appliance = customer.appliance(id).ok_or_else(mismatch)?;
        check_energy(appliance, customer.horizon(), energy)?;
    }
    for (index, (id, _)) in appliances.clone().enumerate() {
        if appliances.clone().take(index).any(|(other, _)| other == id) {
            return Err(mismatch());
        }
    }
    Ok(())
}

/// The customer's load `l^h` at `slot`: the inflexible base load plus each
/// appliance's draw, summed in the order `energies` yields them.
pub fn plan_load<'a>(
    customer: &Customer,
    energies: impl Iterator<Item = &'a [f64]>,
    slot: usize,
) -> f64 {
    customer.base_load()[slot] + energies.map(|energy| energy[slot]).sum::<f64>()
}

/// The trading amount `y^h = l^h + b^{h+1} − b^h − θ^h` at `slot` (Eqn 1
/// rearranged), from the load `l^h` and the trajectory `b^0..b^H`.
pub fn plan_trading(customer: &Customer, load: f64, battery: &[Kwh], slot: usize) -> f64 {
    load + battery[slot + 1].value() - battery[slot].value() - customer.generation(slot).value()
}

/// The community's joint schedule: every customer's plan plus the aggregate
/// grid demand `Σ_n y_n^h` and community load `L_h = Σ_n l_n^h`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommunitySchedule {
    horizon: Horizon,
    schedules: Vec<CustomerSchedule>,
    grid_demand: TimeSeries<f64>,
    load: LoadProfile,
}

impl CommunitySchedule {
    /// Aggregates per-customer schedules. `schedules[i]` must belong to
    /// customer `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::ApplianceSetMismatch`] when schedules are
    /// out of order, or [`ScheduleError::HorizonMismatch`] when any schedule
    /// is on a different horizon.
    pub fn new(horizon: Horizon, schedules: Vec<CustomerSchedule>) -> Result<Self, ScheduleError> {
        for (index, schedule) in schedules.iter().enumerate() {
            if schedule.customer().index() != index {
                return Err(ScheduleError::ApplianceSetMismatch {
                    customer: schedule.customer(),
                });
            }
            if schedule.trading().len() != horizon.slots() {
                return Err(ScheduleError::HorizonMismatch {
                    expected: horizon.slots(),
                    actual: schedule.trading().len(),
                });
            }
        }
        let grid_demand = TimeSeries::from_fn(horizon, |slot| {
            schedules.iter().map(|s| s.trading()[slot]).sum()
        });
        let load = LoadProfile::new(TimeSeries::from_fn(horizon, |slot| {
            schedules.iter().map(|s| s.load().at(slot).value()).sum()
        }));
        Ok(Self {
            horizon,
            schedules,
            grid_demand,
            load,
        })
    }

    /// The horizon the community planned over.
    #[inline]
    pub fn horizon(&self) -> Horizon {
        self.horizon
    }

    /// Per-customer schedules, indexed by customer.
    #[inline]
    pub fn customer_schedules(&self) -> &[CustomerSchedule] {
        &self.schedules
    }

    /// The net energy the community draws from the utility per slot
    /// (`Σ_n y_n^h`; may be negative under heavy PV).
    #[inline]
    pub fn grid_demand(&self) -> &TimeSeries<f64> {
        &self.grid_demand
    }

    /// The community consumption `L_h` (always non-negative).
    #[inline]
    pub fn load(&self) -> &LoadProfile {
        &self.load
    }

    /// Grid demand clamped at zero, as seen by generation dispatch: the grid
    /// cannot be "negatively generated", excess community energy is absorbed.
    pub fn grid_demand_clamped(&self) -> TimeSeries<f64> {
        self.grid_demand.map(|&y| y.max(0.0))
    }

    /// PAR of the *grid demand* profile (clamped at zero), the quantity the
    /// paper's detection compares.
    pub fn grid_par(&self) -> Option<f64> {
        self.grid_demand_clamped().par()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApplianceKind, Battery, PowerLevels, PvPanel, TaskSpec};
    use nms_types::Kw;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    fn simple_appliance(id: usize) -> Appliance {
        Appliance::new(
            ApplianceId::new(id),
            ApplianceKind::Dishwasher,
            PowerLevels::on_off(Kw::new(1.0)).unwrap(),
            TaskSpec::new(Kwh::new(2.0), 8, 12).unwrap(),
        )
    }

    fn simple_customer(id: usize) -> Customer {
        Customer::builder(CustomerId::new(id), day())
            .appliance(simple_appliance(0))
            .battery(Battery::new(Kwh::new(4.0), Kwh::new(1.0)).unwrap())
            .build()
            .unwrap()
    }

    fn feasible_energy() -> TimeSeries<f64> {
        let mut e = TimeSeries::filled(day(), 0.0);
        e[8] = 1.0;
        e[9] = 1.0;
        e
    }

    #[test]
    fn appliance_schedule_accepts_feasible_plan() {
        let appliance = simple_appliance(0);
        let schedule = ApplianceSchedule::new(&appliance, day(), feasible_energy()).unwrap();
        assert_eq!(schedule.at(8), Kwh::new(1.0));
        assert_eq!(schedule.at(0), Kwh::ZERO);
    }

    #[test]
    fn appliance_schedule_rejects_outside_window() {
        let appliance = simple_appliance(0);
        let mut e = TimeSeries::filled(day(), 0.0);
        e[5] = 1.0;
        e[8] = 1.0;
        let err = ApplianceSchedule::new(&appliance, day(), e).unwrap_err();
        assert!(matches!(err, ScheduleError::OutsideWindow { slot: 5, .. }));
    }

    #[test]
    fn appliance_schedule_rejects_overload() {
        let appliance = simple_appliance(0);
        let mut e = TimeSeries::filled(day(), 0.0);
        e[8] = 2.0; // cap is 1 kWh per hourly slot at 1 kW
        let err = ApplianceSchedule::new(&appliance, day(), e).unwrap_err();
        assert!(matches!(err, ScheduleError::ExceedsSlotCap { slot: 8, .. }));
    }

    #[test]
    fn appliance_schedule_rejects_energy_mismatch() {
        let appliance = simple_appliance(0);
        let mut e = TimeSeries::filled(day(), 0.0);
        e[8] = 1.0; // only half the task energy
        let err = ApplianceSchedule::new(&appliance, day(), e).unwrap_err();
        assert!(matches!(err, ScheduleError::EnergyMismatch { .. }));
    }

    #[test]
    fn appliance_schedule_rejects_negative_or_nan() {
        let appliance = simple_appliance(0);
        let mut e = TimeSeries::filled(day(), 0.0);
        e[8] = -1.0;
        assert!(matches!(
            ApplianceSchedule::new(&appliance, day(), e).unwrap_err(),
            ScheduleError::InvalidEnergy { .. }
        ));
        let mut e = TimeSeries::filled(day(), 0.0);
        e[8] = f64::NAN;
        assert!(ApplianceSchedule::new(&appliance, day(), e).is_err());
    }

    #[test]
    fn customer_schedule_derives_trading_via_eqn1() {
        let customer = simple_customer(0);
        let appliance = simple_appliance(0);
        let schedule = ApplianceSchedule::new(&appliance, day(), feasible_energy()).unwrap();
        // Battery: charge 1 kWh at slot 0, discharge it at slot 8.
        let mut battery = vec![Kwh::new(1.0); 25];
        for b in battery.iter_mut().take(9).skip(1) {
            *b = Kwh::new(2.0);
        }
        let plan = CustomerSchedule::new(&customer, vec![schedule], battery).unwrap();
        // Slot 0: l=0, Δb=+1, θ=0 ⇒ y=1 (buy to charge).
        assert!((plan.trading()[0] - 1.0).abs() < 1e-9);
        // Slot 8: l=1, Δb=−1 ⇒ y=0 (battery feeds the appliance).
        assert!((plan.trading()[8]).abs() < 1e-9);
        // Slot 9: l=1, Δb=0 ⇒ y=1.
        assert!((plan.trading()[9] - 1.0).abs() < 1e-9);
        assert_eq!(plan.total_purchased(), Kwh::new(2.0));
        assert_eq!(plan.total_sold(), Kwh::ZERO);
    }

    #[test]
    fn negative_trading_counts_as_sold() {
        let horizon = day();
        let pv = PvPanel::new(
            Kw::new(2.0),
            TimeSeries::from_fn(horizon, |h| if h == 12 { 2.0 } else { 0.0 }),
        )
        .unwrap();
        let customer = Customer::builder(CustomerId::new(0), horizon)
            .pv(pv)
            .build()
            .unwrap();
        let plan = CustomerSchedule::with_idle_battery(&customer, vec![]).unwrap();
        // No load, 2 kWh PV at noon: all of it is sold.
        assert!((plan.trading()[12] + 2.0).abs() < 1e-9);
        assert_eq!(plan.total_sold(), Kwh::new(2.0));
        assert_eq!(plan.total_purchased(), Kwh::ZERO);
    }

    #[test]
    fn customer_schedule_rejects_wrong_appliance_set() {
        let customer = simple_customer(0);
        let err = CustomerSchedule::with_idle_battery(&customer, vec![]).unwrap_err();
        assert!(matches!(err, ScheduleError::ApplianceSetMismatch { .. }));
    }

    #[test]
    fn customer_schedule_rejects_bad_battery_trajectory() {
        let customer = simple_customer(0);
        let appliance = simple_appliance(0);
        let schedule = ApplianceSchedule::new(&appliance, day(), feasible_energy()).unwrap();
        // Wrong length.
        let err = CustomerSchedule::new(&customer, vec![schedule.clone()], vec![Kwh::new(1.0); 10])
            .unwrap_err();
        assert!(matches!(err, ScheduleError::HorizonMismatch { .. }));
        // Out of capacity.
        let mut trajectory = vec![Kwh::new(1.0); 25];
        trajectory[5] = Kwh::new(99.0);
        let err = CustomerSchedule::new(&customer, vec![schedule], trajectory).unwrap_err();
        assert!(matches!(err, ScheduleError::Battery(_)));
    }

    #[test]
    fn check_plan_returns_the_constructors_errors() {
        let appliance = simple_appliance(0);
        let customer = simple_customer(0);
        let idle = vec![Kwh::new(1.0); 25];
        let with = |slots: &[(usize, f64)]| {
            let mut energy = vec![0.0; 24];
            for &(slot, value) in slots {
                energy[slot] = value;
            }
            energy
        };
        type Variant = fn(&ScheduleError) -> bool;
        let appliance_cases: [(&str, Vec<f64>, Variant); 6] = [
            ("wrong length", vec![0.0; 10], |e| {
                matches!(e, ScheduleError::HorizonMismatch { .. })
            }),
            ("negative energy", with(&[(8, -1.0), (9, 1.0)]), |e| {
                matches!(e, ScheduleError::InvalidEnergy { .. })
            }),
            ("non-finite energy", with(&[(8, f64::NAN), (9, 1.0)]), |e| {
                matches!(e, ScheduleError::InvalidEnergy { .. })
            }),
            ("outside window", with(&[(5, 1.0), (8, 1.0)]), |e| {
                matches!(e, ScheduleError::OutsideWindow { .. })
            }),
            ("over cap", with(&[(8, 2.0)]), |e| {
                matches!(e, ScheduleError::ExceedsSlotCap { .. })
            }),
            ("energy mismatch", with(&[(8, 1.0)]), |e| {
                matches!(e, ScheduleError::EnergyMismatch { .. })
            }),
        ];
        for (label, energy, variant) in appliance_cases {
            let series =
                TimeSeries::from_values(Horizon::hourly(energy.len()), energy.clone()).unwrap();
            let expected = ApplianceSchedule::new(&appliance, day(), series).unwrap_err();
            assert!(variant(&expected), "{label}: {expected:?}");
            let got = check_plan(&customer, [(appliance.id(), energy.as_slice())], &idle);
            assert_eq!(got, Err(expected), "{label}");
        }

        let feasible = ApplianceSchedule::new(&appliance, day(), feasible_energy()).unwrap();
        let pair = Customer::builder(CustomerId::new(1), day())
            .appliance(simple_appliance(0))
            .appliance(simple_appliance(1))
            .battery(Battery::new(Kwh::new(4.0), Kwh::new(1.0)).unwrap())
            .build()
            .unwrap();
        let mut overfull = idle.clone();
        overfull[5] = Kwh::new(99.0);
        type CustomerCase<'a> = (
            &'a str,
            &'a Customer,
            Vec<ApplianceSchedule>,
            Vec<Kwh>,
            Variant,
        );
        let customer_cases: [CustomerCase<'_>; 4] = [
            (
                "duplicate id",
                &pair,
                vec![feasible.clone(), feasible.clone()],
                idle.clone(),
                |e| matches!(e, ScheduleError::ApplianceSetMismatch { .. }),
            ),
            (
                "missing appliance",
                &pair,
                vec![feasible.clone()],
                idle.clone(),
                |e| matches!(e, ScheduleError::ApplianceSetMismatch { .. }),
            ),
            (
                "battery wrong length",
                &customer,
                vec![feasible.clone()],
                vec![Kwh::new(1.0); 10],
                |e| matches!(e, ScheduleError::HorizonMismatch { .. }),
            ),
            (
                "invalid battery trajectory",
                &customer,
                vec![feasible],
                overfull,
                |e| matches!(e, ScheduleError::Battery(_)),
            ),
        ];
        for (label, owner, schedules, battery, variant) in customer_cases {
            let got = check_plan(
                owner,
                schedules
                    .iter()
                    .map(|s| (s.appliance(), s.energy().as_slice())),
                &battery,
            );
            let expected = CustomerSchedule::new(owner, schedules, battery).unwrap_err();
            assert!(variant(&expected), "{label}: {expected:?}");
            assert_eq!(got, Err(expected), "{label}");
        }
    }

    /// Today's reference for [`check_energy`]: the slot-by-slot scan,
    /// kept as the oracle of `plan_check_matches_oracle`.
    fn check_energy_oracle(
        appliance: &Appliance,
        horizon: Horizon,
        energy: &[f64],
    ) -> Result<(), ScheduleError> {
        if energy.len() != horizon.slots() {
            return Err(ScheduleError::HorizonMismatch {
                expected: horizon.slots(),
                actual: energy.len(),
            });
        }
        let cap = appliance.max_slot_energy(horizon);
        let mut total = 0.0;
        for (slot, &e) in energy.iter().enumerate() {
            if !e.is_finite() || e < -FEASIBILITY_TOL {
                return Err(ScheduleError::InvalidEnergy {
                    appliance: appliance.id(),
                    slot,
                });
            }
            if e > FEASIBILITY_TOL && !appliance.task().allows_slot(slot) {
                return Err(ScheduleError::OutsideWindow {
                    appliance: appliance.id(),
                    slot,
                });
            }
            if e > cap.value() + FEASIBILITY_TOL {
                return Err(ScheduleError::ExceedsSlotCap {
                    appliance: appliance.id(),
                    slot,
                    requested: Kwh::new(e),
                    cap,
                });
            }
            total += e;
        }
        let required = appliance.task().energy().value();
        if (total - required).abs() > FEASIBILITY_TOL.max(required * 1e-6) {
            return Err(ScheduleError::EnergyMismatch {
                appliance: appliance.id(),
                required: Kwh::new(required),
                scheduled: Kwh::new(total),
            });
        }
        Ok(())
    }

    /// Today's reference for [`check_plan`]: every lane looked up by id,
    /// then an all-pairs scan for repeated ids, then the battery.
    fn check_plan_oracle(
        customer: &Customer,
        appliances: &[(ApplianceId, &[f64])],
        battery: &[Kwh],
    ) -> Result<(), ScheduleError> {
        let horizon = customer.horizon();
        let mismatch = || ScheduleError::ApplianceSetMismatch {
            customer: customer.id(),
        };
        if appliances.len() != customer.appliances().len() {
            return Err(mismatch());
        }
        for &(id, energy) in appliances {
            let appliance = customer.appliance(id).ok_or_else(mismatch)?;
            check_energy_oracle(appliance, horizon, energy)?;
        }
        for (index, (id, _)) in appliances.iter().enumerate() {
            if appliances[..index].iter().any(|(other, _)| other == id) {
                return Err(mismatch());
            }
        }
        if battery.len() != horizon.slots() + 1 {
            return Err(ScheduleError::HorizonMismatch {
                expected: horizon.slots() + 1,
                actual: battery.len(),
            });
        }
        customer.battery().validate_trajectory(battery)?;
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]
        /// The one-pass plan check returns the oracle's `Result` (variant,
        /// appliance and slot) on feasible plans of 0–5 appliances with up
        /// to four faults injected into random lanes and the battery: NaN
        /// or infinite energy, `-2·tol`, energy outside the window, energy
        /// over the cap, a wrong task total, a wrong battery length, an
        /// invalid battery transition or start, and ids swapped, repeated
        /// or dropped. Half the customers number their appliances
        /// downwards; they and the id faults take the by-id path. The
        /// negative, window and cap faults also come with the task total
        /// kept, so the one-pass check's own per-slot tests must catch
        /// them, and outside the window a `-0.0` or a draw within `tol`
        /// (which the scan accepts) is injected too.
        #[test]
        fn plan_check_matches_oracle(
            slots in 1_usize..=30,
            count in 0_usize..=5,
            start_shares in proptest::collection::vec(0.0_f64..1.0, 5),
            len_shares in proptest::collection::vec(0.0_f64..1.0, 5),
            max_kws in proptest::collection::vec(0.5_f64..3.0, 5),
            fills in proptest::collection::vec(0.0_f64..=1.0, 5),
            zero_tasks in proptest::collection::vec(0_u8..4, 5),
            fault_count in 0_usize..=4,
            fault_kinds in proptest::collection::vec(0_u8..9, 4),
            fault_lanes in proptest::collection::vec(0_usize..5, 4),
            fault_slots in proptest::collection::vec(0_usize..32, 4),
            fault_magnitudes in proptest::collection::vec(-2.0_f64..2.0, 4),
            reversed_ids in true,
        ) {
            let horizon = Horizon::hourly(slots);
            let appliances: Vec<Appliance> = (0..count)
                .map(|id| {
                    let start = (start_shares[id] * slots as f64) as usize;
                    let len = 1 + (len_shares[id] * (slots - start) as f64) as usize;
                    let max_kw = max_kws[id];
                    let energy = match zero_tasks[id] {
                        0 => 0.0,
                        _ => fills[id] * max_kw * len as f64,
                    };
                    // Reversed ids are unique but not increasing, which
                    // takes the by-id path.
                    let id = if reversed_ids { count - 1 - id } else { id };
                    Appliance::new(
                        ApplianceId::new(id),
                        ApplianceKind::Dishwasher,
                        PowerLevels::stepped(Kw::new(max_kw), 2).unwrap(),
                        TaskSpec::new(Kwh::new(energy), start, start + len - 1).unwrap(),
                    )
                })
                .collect();
            let customer = Customer::builder(CustomerId::new(0), horizon)
                .appliances(appliances.iter().cloned())
                .battery(Battery::new(Kwh::new(4.0), Kwh::new(1.0)).unwrap())
                .build()
                .unwrap();
            // A feasible plan: each task spread evenly over its window, the
            // battery idle.
            let mut lanes: Vec<Vec<f64>> = appliances
                .iter()
                .map(|a| {
                    let task = a.task();
                    let share = task.energy().value() / task.window_len() as f64;
                    (0..slots)
                        .map(|h| if task.allows_slot(h) { share } else { 0.0 })
                        .collect()
                })
                .collect();
            let mut ids: Vec<ApplianceId> = appliances.iter().map(Appliance::id).collect();
            let mut battery = vec![Kwh::new(1.0); slots + 1];
            for fault in 0..fault_count {
                let (kind, magnitude) = (fault_kinds[fault], fault_magnitudes[fault]);
                let lane = fault_lanes[fault] % count.max(1);
                let slot = fault_slots[fault] % slots;
                let Some(energy) = lanes.get_mut(lane) else {
                    // No appliance to fault: fault the battery instead.
                    battery[slot] = Kwh::new(9.0);
                    continue;
                };
                let task = appliances[lane].task();
                let cap = appliances[lane].max_slot_energy(horizon).value();
                match kind {
                    0 => energy[slot] = if magnitude < 0.0 { f64::NAN } else { f64::INFINITY },
                    1 => {
                        // `-2·tol` on `slot`, or on a window slot with its
                        // energy moved to another one (the total kept).
                        let at = slot.clamp(task.start(), task.deadline());
                        let to = if at == task.start() { task.deadline() } else { task.start() };
                        if magnitude < 0.0 && to != at {
                            energy[to] += energy[at] + 2.0 * FEASIBILITY_TOL;
                            energy[at] = -2.0 * FEASIBILITY_TOL;
                        } else {
                            energy[slot] = -2.0 * FEASIBILITY_TOL;
                        }
                    }
                    2 => {
                        // Move a window slot's energy (the task total is
                        // kept), or put a draw the scan tolerates (at most
                        // `tol`, or `-0.0`) or one it rejects on the first
                        // slot outside the window at or after `slot`.
                        let outside = (slot..slots).chain(0..slot).find(|&h| !task.allows_slot(h));
                        if let Some(h) = outside {
                            let from = slot.clamp(task.start(), task.deadline());
                            if magnitude < -1.0 && energy[from] > 2.0 * FEASIBILITY_TOL {
                                energy[h] += energy[from];
                                energy[from] = 0.0;
                            } else if magnitude < -0.5 {
                                energy[h] = -0.0;
                            } else if magnitude < 0.5 {
                                energy[h] = magnitude * 2.0 * FEASIBILITY_TOL;
                            } else {
                                energy[h] = magnitude + 2.0 * FEASIBILITY_TOL;
                            }
                        }
                    }
                    3 => {
                        // Pile the whole lane into one window slot (over the
                        // cap when the task is) or overfill one slot.
                        let at = slot.clamp(task.start(), task.deadline());
                        if magnitude < 0.0 {
                            let total: f64 = energy.iter().sum();
                            energy.iter_mut().for_each(|e| *e = 0.0);
                            energy[at] = total;
                        } else {
                            energy[at] = cap * 1.5 + 0.1;
                        }
                    }
                    4 => energy[slot.clamp(task.start(), task.deadline())] += magnitude,
                    5 => {
                        let len = if magnitude < 0.0 { slots } else { slots + 2 };
                        battery.resize(len, Kwh::new(1.0));
                    }
                    6 => {
                        let last = battery.len() - 1;
                        battery[(slot + 1).min(last)] = Kwh::new(4.0 + magnitude.abs() + 0.1);
                    }
                    7 => battery[0] = Kwh::new(1.5),
                    _ => match (slot % 3, (lane + 1) % ids.len()) {
                        (0, next) => ids.swap(lane, next),
                        (1, next) => ids[lane] = ids[next],
                        _ => {
                            ids.remove(lane);
                            lanes.remove(lane);
                        }
                    },
                }
            }
            let pairs: Vec<(ApplianceId, &[f64])> =
                ids.iter().copied().zip(lanes.iter().map(Vec::as_slice)).collect();
            proptest::prop_assert_eq!(
                check_plan(&customer, pairs.iter().copied(), &battery),
                check_plan_oracle(&customer, &pairs, &battery)
            );
        }
    }

    #[test]
    fn community_schedule_aggregates() {
        let customers: Vec<Customer> = (0..3).map(simple_customer).collect();
        let schedules: Vec<CustomerSchedule> = customers
            .iter()
            .map(|c| {
                let s =
                    ApplianceSchedule::new(&simple_appliance(0), day(), feasible_energy()).unwrap();
                CustomerSchedule::with_idle_battery(c, vec![s]).unwrap()
            })
            .collect();
        let community = CommunitySchedule::new(day(), schedules).unwrap();
        assert!((community.load().at(8).value() - 3.0).abs() < 1e-9);
        assert!((community.grid_demand()[8] - 3.0).abs() < 1e-9);
        assert!(community.grid_par().is_some());
    }

    #[test]
    fn community_schedule_rejects_out_of_order() {
        let c0 = simple_customer(0);
        let s0 = CustomerSchedule::with_idle_battery(
            &c0,
            vec![ApplianceSchedule::new(&simple_appliance(0), day(), feasible_energy()).unwrap()],
        )
        .unwrap();
        let err = CommunitySchedule::new(day(), vec![s0.clone(), s0]).unwrap_err();
        assert!(matches!(err, ScheduleError::ApplianceSetMismatch { .. }));
    }

    #[test]
    fn grid_demand_clamps_negative_exports() {
        let horizon = day();
        let pv = PvPanel::new(
            Kw::new(2.0),
            TimeSeries::from_fn(horizon, |h| if h == 12 { 2.0 } else { 0.0 }),
        )
        .unwrap();
        let customer = Customer::builder(CustomerId::new(0), horizon)
            .pv(pv)
            .build()
            .unwrap();
        let plan = CustomerSchedule::with_idle_battery(&customer, vec![]).unwrap();
        let community = CommunitySchedule::new(horizon, vec![plan]).unwrap();
        assert!(community.grid_demand()[12] < 0.0);
        assert_eq!(community.grid_demand_clamped()[12], 0.0);
    }

    #[test]
    fn schedule_error_display() {
        let err = ScheduleError::EnergyMismatch {
            appliance: ApplianceId::new(2),
            required: Kwh::new(2.0),
            scheduled: Kwh::new(1.0),
        };
        let text = err.to_string();
        assert!(text.contains("appliance-2"));
        assert!(text.contains("requires"));
    }
}
