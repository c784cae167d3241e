//! Schedulable home appliances (paper §2.1).
//!
//! Each appliance `m` owns a set of discrete power levels `X_m`, must consume
//! exactly `E_m` kWh over the horizon, and may only run inside its time
//! window `[α_m, β_m]` (inclusive slot indices).

use std::fmt;

use serde::{Deserialize, Serialize};

use nms_types::{ApplianceId, Horizon, Kw, Kwh, ValidateError};

/// The sorted, deduplicated set of power levels `X_m` an appliance can run
/// at, always including the implicit "off" level 0 kW.
///
/// # Examples
///
/// ```
/// use nms_smarthome::PowerLevels;
/// use nms_types::Kw;
///
/// let levels = PowerLevels::new(vec![Kw::new(1.0), Kw::new(0.5), Kw::new(1.0)])?;
/// assert_eq!(levels.len(), 3); // off, 0.5, 1.0
/// assert_eq!(levels.max(), Kw::new(1.0));
/// # Ok::<(), nms_types::ValidateError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerLevels {
    levels: Vec<Kw>,
}

impl PowerLevels {
    /// Builds a level set from arbitrary kW values; the off level (0 kW) is
    /// inserted automatically and duplicates are removed.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] if any level is negative or non-finite, or
    /// if no strictly positive level is present (the appliance could never
    /// consume energy).
    pub fn new(levels: Vec<Kw>) -> Result<Self, ValidateError> {
        for level in &levels {
            if !level.is_finite() {
                return Err(ValidateError::new("power level must be finite"));
            }
            if !level.is_non_negative() {
                return Err(ValidateError::new(format!(
                    "power level {level} is negative"
                )));
            }
        }
        let mut all: Vec<Kw> = levels;
        all.push(Kw::ZERO);
        all.sort_by(|a, b| a.partial_cmp(b).expect("levels checked finite"));
        all.dedup_by(|a, b| (a.value() - b.value()).abs() < 1e-12);
        if all.len() < 2 {
            return Err(ValidateError::new(
                "power level set needs at least one positive level",
            ));
        }
        Ok(Self { levels: all })
    }

    /// A single-speed appliance: either off or running at `on` kW.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] if `on` is not strictly positive and finite.
    pub fn on_off(on: Kw) -> Result<Self, ValidateError> {
        if !(on.is_finite() && on.value() > 0.0) {
            return Err(ValidateError::new("on level must be positive and finite"));
        }
        Self::new(vec![on])
    }

    /// `k` evenly spaced levels from `max/k` up to `max` (plus off).
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] if `k == 0` or `max` is not positive finite.
    pub fn stepped(max: Kw, k: usize) -> Result<Self, ValidateError> {
        if k == 0 {
            return Err(ValidateError::new("need at least one step"));
        }
        if !(max.is_finite() && max.value() > 0.0) {
            return Err(ValidateError::new("max level must be positive and finite"));
        }
        let levels = (1..=k).map(|i| max * (i as f64 / k as f64)).collect();
        Self::new(levels)
    }

    /// Number of levels, counting the off level.
    #[inline]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Always `false`: the off level is always present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Levels in ascending order, starting with 0 kW.
    #[inline]
    pub fn as_slice(&self) -> &[Kw] {
        &self.levels
    }

    /// Iterator over the levels in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Kw> {
        self.levels.iter()
    }

    /// The largest available power level.
    #[inline]
    pub fn max(&self) -> Kw {
        *self.levels.last().expect("at least off + one level")
    }

    /// Returns `true` when `level` (in kW) is a member of the set, within
    /// tolerance `1e-9`.
    pub fn contains(&self, level: Kw) -> bool {
        self.levels
            .iter()
            .any(|l| (l.value() - level.value()).abs() < 1e-9)
    }
}

impl<'a> IntoIterator for &'a PowerLevels {
    type Item = &'a Kw;
    type IntoIter = std::slice::Iter<'a, Kw>;
    fn into_iter(self) -> Self::IntoIter {
        self.levels.iter()
    }
}

/// The task constraint of an appliance (paper §2.1): consume exactly
/// [`energy`](Self::energy) kWh, running no earlier than
/// [`start`](Self::start) and finishing no later than
/// [`deadline`](Self::deadline) (both inclusive slot indices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    energy: Kwh,
    start: usize,
    deadline: usize,
}

impl TaskSpec {
    /// Creates a task requiring `energy` kWh within slots
    /// `[start, deadline]`.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] if the energy is negative or non-finite, or
    /// if `deadline < start`.
    pub fn new(energy: Kwh, start: usize, deadline: usize) -> Result<Self, ValidateError> {
        if !energy.is_finite() || !energy.is_non_negative() {
            return Err(ValidateError::new(
                "task energy must be finite and non-negative",
            ));
        }
        if deadline < start {
            return Err(ValidateError::new(format!(
                "deadline {deadline} precedes start {start}"
            )));
        }
        Ok(Self {
            energy,
            start,
            deadline,
        })
    }

    /// Required total energy `E_m`.
    #[inline]
    pub fn energy(&self) -> Kwh {
        self.energy
    }

    /// Earliest slot the appliance may run in (`α_m`).
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Latest slot the appliance may run in (`β_m`, inclusive).
    #[inline]
    pub fn deadline(&self) -> usize {
        self.deadline
    }

    /// Number of slots in the window.
    #[inline]
    pub fn window_len(&self) -> usize {
        self.deadline - self.start + 1
    }

    /// Returns `true` when `slot` lies inside the window.
    #[inline]
    pub fn allows_slot(&self, slot: usize) -> bool {
        slot >= self.start && slot <= self.deadline
    }
}

/// A broad class of residential appliance, used for presets and reporting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ApplianceKind {
    /// Clothes washing machine.
    WashingMachine,
    /// Clothes dryer.
    Dryer,
    /// Dishwasher.
    Dishwasher,
    /// Plug-in electric vehicle charger.
    ElectricVehicle,
    /// Electric water heater tank.
    WaterHeater,
    /// Air conditioner / heat pump.
    AirConditioner,
    /// Refrigerator (must-run base load).
    Refrigerator,
    /// Lighting circuits.
    Lighting,
    /// Electric oven / range.
    Oven,
    /// Pool or well pump.
    PoolPump,
    /// Anything else, with a user-supplied label.
    Custom(String),
}

impl ApplianceKind {
    /// Human-readable name.
    pub fn name(&self) -> &str {
        match self {
            Self::WashingMachine => "washing machine",
            Self::Dryer => "dryer",
            Self::Dishwasher => "dishwasher",
            Self::ElectricVehicle => "electric vehicle",
            Self::WaterHeater => "water heater",
            Self::AirConditioner => "air conditioner",
            Self::Refrigerator => "refrigerator",
            Self::Lighting => "lighting",
            Self::Oven => "oven",
            Self::PoolPump => "pool pump",
            Self::Custom(label) => label,
        }
    }
}

impl fmt::Display for ApplianceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A schedulable appliance: identity, power levels, and task constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Appliance {
    id: ApplianceId,
    kind: ApplianceKind,
    levels: PowerLevels,
    task: TaskSpec,
}

impl Appliance {
    /// Bundles an appliance from its parts. Use [`Appliance::validate`] to
    /// check the parts against a concrete horizon.
    pub fn new(id: ApplianceId, kind: ApplianceKind, levels: PowerLevels, task: TaskSpec) -> Self {
        Self {
            id,
            kind,
            levels,
            task,
        }
    }

    /// The appliance's identifier within its owning customer.
    #[inline]
    pub fn id(&self) -> ApplianceId {
        self.id
    }

    /// The appliance's class.
    #[inline]
    pub fn kind(&self) -> &ApplianceKind {
        &self.kind
    }

    /// The available power levels `X_m`.
    #[inline]
    pub fn levels(&self) -> &PowerLevels {
        &self.levels
    }

    /// The task constraint (`E_m`, `α_m`, `β_m`).
    #[inline]
    pub fn task(&self) -> &TaskSpec {
        &self.task
    }

    /// Maximum energy this appliance can consume in one slot of `horizon`.
    #[inline]
    pub fn max_slot_energy(&self, horizon: Horizon) -> Kwh {
        self.levels.max().for_hours(horizon.slot_hours())
    }

    /// Checks the appliance against a concrete horizon.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the window exceeds the horizon or the
    /// task energy cannot fit in the window even at full power.
    pub fn validate(&self, horizon: Horizon) -> Result<(), ValidateError> {
        if self.task.deadline() >= horizon.slots() {
            return Err(ValidateError::new(format!(
                "{} deadline {} outside horizon of {} slots",
                self.kind,
                self.task.deadline(),
                horizon.slots()
            )));
        }
        if !self.is_schedulable(horizon) {
            return Err(ValidateError::new(format!(
                "{} cannot consume {:.3} within its {}-slot window at max {:.3}",
                self.kind,
                self.task.energy(),
                self.task.window_len(),
                self.levels.max()
            )));
        }
        Ok(())
    }

    /// Returns `true` when running at maximum power in every window slot
    /// would deliver at least the task energy.
    pub fn is_schedulable(&self, horizon: Horizon) -> bool {
        let window_capacity = self.max_slot_energy(horizon) * self.task.window_len() as f64;
        self.task.energy().value() <= window_capacity.value() + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    fn washer() -> Appliance {
        Appliance::new(
            ApplianceId::new(0),
            ApplianceKind::WashingMachine,
            PowerLevels::new(vec![Kw::new(0.5), Kw::new(1.0)]).unwrap(),
            TaskSpec::new(Kwh::new(2.0), 8, 20).unwrap(),
        )
    }

    #[test]
    fn levels_sorted_deduped_with_off() {
        let levels = PowerLevels::new(vec![Kw::new(1.0), Kw::new(0.5), Kw::new(1.0)]).unwrap();
        let values: Vec<f64> = levels.iter().map(|l| l.value()).collect();
        assert_eq!(values, vec![0.0, 0.5, 1.0]);
        assert!(levels.contains(Kw::ZERO));
    }

    #[test]
    fn levels_reject_negative_and_empty() {
        assert!(PowerLevels::new(vec![Kw::new(-1.0)]).is_err());
        assert!(PowerLevels::new(vec![]).is_err());
        assert!(PowerLevels::new(vec![Kw::ZERO]).is_err());
        assert!(PowerLevels::new(vec![Kw::new(f64::NAN)]).is_err());
    }

    #[test]
    fn stepped_levels() {
        let levels = PowerLevels::stepped(Kw::new(2.0), 4).unwrap();
        let values: Vec<f64> = levels.iter().map(|l| l.value()).collect();
        assert_eq!(values, vec![0.0, 0.5, 1.0, 1.5, 2.0]);
        assert!(PowerLevels::stepped(Kw::new(2.0), 0).is_err());
    }

    #[test]
    fn on_off_levels() {
        let levels = PowerLevels::on_off(Kw::new(1.2)).unwrap();
        assert_eq!(levels.len(), 2);
        assert!(PowerLevels::on_off(Kw::ZERO).is_err());
    }

    #[test]
    fn task_window_bounds() {
        let task = TaskSpec::new(Kwh::new(3.0), 10, 15).unwrap();
        assert_eq!(task.window_len(), 6);
        assert!(task.allows_slot(10));
        assert!(task.allows_slot(15));
        assert!(!task.allows_slot(9));
        assert!(!task.allows_slot(16));
    }

    #[test]
    fn task_rejects_inverted_window_and_bad_energy() {
        assert!(TaskSpec::new(Kwh::new(1.0), 5, 4).is_err());
        assert!(TaskSpec::new(Kwh::new(-1.0), 0, 5).is_err());
        assert!(TaskSpec::new(Kwh::new(f64::INFINITY), 0, 5).is_err());
    }

    #[test]
    fn appliance_validates_against_horizon() {
        let appliance = washer();
        assert!(appliance.validate(day()).is_ok());
        // Deadline outside a short horizon.
        assert!(appliance.validate(Horizon::hourly(12)).is_err());
    }

    #[test]
    fn infeasible_energy_detected() {
        let appliance = Appliance::new(
            ApplianceId::new(1),
            ApplianceKind::Dryer,
            PowerLevels::on_off(Kw::new(1.0)).unwrap(),
            // 10 kWh in a 3-slot window at 1 kW max: impossible.
            TaskSpec::new(Kwh::new(10.0), 0, 2).unwrap(),
        );
        assert!(!appliance.is_schedulable(day()));
        let err = appliance.validate(day()).unwrap_err();
        assert!(err.to_string().contains("cannot consume"));
    }

    #[test]
    fn max_slot_energy_scales_with_slot_duration() {
        let appliance = washer();
        assert_eq!(appliance.max_slot_energy(day()), Kwh::new(1.0));
        let quarter = Horizon::new(96, 0.25);
        assert_eq!(appliance.max_slot_energy(quarter), Kwh::new(0.25));
    }

    #[test]
    fn kind_display() {
        assert_eq!(
            ApplianceKind::ElectricVehicle.to_string(),
            "electric vehicle"
        );
        assert_eq!(ApplianceKind::Custom("sauna".into()).to_string(), "sauna");
    }
}
