//! Seeded telemetry fault injection (robustness layer).
//!
//! The detector never sees the community's physical demand directly — it
//! sees what the smart meters *report*. A [`FaultPlan`] corrupts that
//! reporting layer between the realized schedules and the detection
//! statistic: readings drop out, meters emit NaN or garbage, stick at their
//! first reading, skew their clocks by one slot, or stop reporting for the
//! day entirely. The physical world is untouched; only the detector's view
//! degrades.
//!
//! Corruption is deterministic: each `(plan seed, day, meter)` triple seeds
//! its own stream, and every fault decision is drawn in a fixed order that
//! does not depend on the telemetry values. Re-deriving the corrupted view
//! for the same day — which the detection loop does whenever the compromise
//! set changes mid-day — therefore injects the *same* faults.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use nms_types::{FaultCounts, FaultKind, Horizon, TimeSeries, ValidateError};

/// A scripted, deterministic outage: a contiguous block of meters that
/// reports nothing for a range of days. Unlike the random per-day
/// `report_rate`, an outage is *persistent* — the shape the quarantine
/// breaker (see `nms-core::sanitize`) exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeterOutage {
    /// First affected meter index.
    pub first_meter: usize,
    /// Number of consecutive affected meters.
    pub meters: usize,
    /// First affected day (inclusive).
    pub from_day: usize,
    /// First unaffected day (exclusive; `until_day <= from_day` disables
    /// the outage).
    pub until_day: usize,
}

impl MeterOutage {
    /// `true` when `meter` is out on `day`.
    pub fn covers(&self, day: usize, meter: usize) -> bool {
        (self.from_day..self.until_day).contains(&day)
            && (self.first_meter..self.first_meter.saturating_add(self.meters)).contains(&meter)
    }
}

/// A serializable, seeded plan for corrupting one run's meter telemetry.
///
/// Slot-level rates (`drop_rate`, `nan_rate`, `garbage_rate`) apply per
/// meter-slot; day-level rates (`stuck_rate`, `skew_rate`, and the
/// complement of `report_rate`) apply per meter-day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the fault streams (independent of the simulation RNG).
    pub seed: u64,
    /// Probability a meter-slot reading is dropped (arrives as missing).
    pub drop_rate: f64,
    /// Probability a meter-slot reading arrives as NaN.
    pub nan_rate: f64,
    /// Probability a meter-slot reading is replaced by garbage.
    pub garbage_rate: f64,
    /// Magnitude multiplier for garbage readings (relative to the true
    /// reading's scale).
    pub garbage_scale: f64,
    /// Probability a meter spends the whole day stuck at its first reading.
    pub stuck_rate: f64,
    /// Probability a meter's clock skews one slot behind for the day.
    pub skew_rate: f64,
    /// Probability a meter reports at all on a given day.
    pub report_rate: f64,
    /// Optional scripted persistent outage, on top of the random faults.
    /// Absent in pre-outage serialized plans.
    #[serde(default)]
    pub outage: Option<MeterOutage>,
}

impl FaultPlan {
    /// A plan that injects nothing (every meter reports cleanly).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.0,
            nan_rate: 0.0,
            garbage_rate: 0.0,
            garbage_scale: 100.0,
            stuck_rate: 0.0,
            skew_rate: 0.0,
            report_rate: 1.0,
            outage: None,
        }
    }

    /// A mixed degradation profile anchored on `rate`: `rate` dropped
    /// readings, with NaN/garbage/stuck/skew/no-report faults at fractions
    /// of it. `degraded(seed, 0.05)` is the ISSUE's "5% dropped" shape.
    pub fn degraded(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            drop_rate: rate,
            nan_rate: rate / 5.0,
            garbage_rate: rate / 10.0,
            garbage_scale: 100.0,
            stuck_rate: rate / 2.0,
            skew_rate: rate / 4.0,
            report_rate: 1.0 - rate / 2.0,
            outage: None,
        }
    }

    /// `true` when the plan cannot inject any fault.
    pub fn is_noop(&self) -> bool {
        self.drop_rate == 0.0
            && self.nan_rate == 0.0
            && self.garbage_rate == 0.0
            && self.stuck_rate == 0.0
            && self.skew_rate == 0.0
            && self.report_rate >= 1.0
            && self
                .outage
                .is_none_or(|o| o.meters == 0 || o.until_day <= o.from_day)
    }

    /// Checks every rate is a probability and the garbage scale is usable.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when a rate leaves `[0, 1]` or
    /// `garbage_scale` is not finite and positive.
    pub fn validate(&self) -> Result<(), ValidateError> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("nan_rate", self.nan_rate),
            ("garbage_rate", self.garbage_rate),
            ("stuck_rate", self.stuck_rate),
            ("skew_rate", self.skew_rate),
            ("report_rate", self.report_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(ValidateError::new(format!(
                    "{name} must be a probability, got {rate}"
                )));
            }
        }
        if !(self.garbage_scale > 0.0 && self.garbage_scale.is_finite()) {
            return Err(ValidateError::new(format!(
                "garbage_scale must be finite and positive, got {}",
                self.garbage_scale
            )));
        }
        Ok(())
    }

    /// A copy of the plan with every rate forced into `[0, 1]` and the
    /// garbage scale forced finite, so drawing from it can never panic.
    /// Non-finite fault rates inject nothing; a non-finite `report_rate`
    /// keeps every meter reporting.
    fn clamped(&self) -> Self {
        fn rate(r: f64, fallback: f64) -> f64 {
            if r.is_finite() {
                r.clamp(0.0, 1.0)
            } else {
                fallback
            }
        }
        Self {
            seed: self.seed,
            drop_rate: rate(self.drop_rate, 0.0),
            nan_rate: rate(self.nan_rate, 0.0),
            garbage_rate: rate(self.garbage_rate, 0.0),
            garbage_scale: if self.garbage_scale.is_finite() {
                self.garbage_scale
            } else {
                0.0
            },
            stuck_rate: rate(self.stuck_rate, 0.0),
            skew_rate: rate(self.skew_rate, 0.0),
            report_rate: rate(self.report_rate, 1.0),
            outage: self.outage,
        }
    }

    fn meter_stream(&self, day: usize, meter: usize) -> ChaCha8Rng {
        let mixed = self
            .seed
            .wrapping_add((day as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((meter as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
        ChaCha8Rng::seed_from_u64(mixed)
    }
}

/// One day of corrupted telemetry kept at per-meter granularity, so the
/// caller can judge individual meters (quarantine) before aggregating.
///
/// A `NaN` reading means the slot is unusable: dropped, NaN-corrupted, or
/// from a meter that did not report at all that day.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptedMeters {
    horizon: Horizon,
    readings: Vec<Vec<f64>>,
    /// Tally of the faults actually injected (day-level faults count once
    /// per meter, slot-level faults once per meter-slot).
    pub injected: FaultCounts,
}

impl CorruptedMeters {
    /// The day's scheduling horizon.
    pub fn horizon(&self) -> Horizon {
        self.horizon
    }

    /// Number of meters in the fleet.
    pub fn fleet(&self) -> usize {
        self.readings.len()
    }

    /// One meter's slot readings for the day (`NaN` = missing/unusable).
    pub fn meter_readings(&self, meter: usize) -> &[f64] {
        &self.readings[meter]
    }

    /// Aggregates all meters into the community grid-demand series: per-slot
    /// mean of the finite readings scaled to fleet size, clamped at zero,
    /// NaN where nothing usable arrived.
    pub fn aggregate(&self) -> TimeSeries<f64> {
        self.aggregate_excluding(&[])
    }

    /// Aggregates like [`CorruptedMeters::aggregate`] but skips meters whose
    /// `excluded` flag is set (e.g. quarantined by the circuit breaker).
    /// Excluded meters still count toward the fleet-size scale factor — the
    /// mean of the healthy meters stands in for their consumption. Indices
    /// beyond `excluded.len()` are treated as not excluded.
    pub fn aggregate_excluding(&self, excluded: &[bool]) -> TimeSeries<f64> {
        let slots = self.horizon.slots();
        let fleet = self.readings.len();
        let mut sums = vec![0.0_f64; slots];
        let mut counts = vec![0usize; slots];
        for (meter_idx, meter) in self.readings.iter().enumerate() {
            if excluded.get(meter_idx).copied().unwrap_or(false) {
                continue;
            }
            for (h, &reading) in meter.iter().enumerate() {
                if reading.is_finite() {
                    sums[h] += reading;
                    counts[h] += 1;
                }
            }
        }
        TimeSeries::from_fn(self.horizon, |h| {
            if counts[h] == 0 {
                f64::NAN
            } else {
                (sums[h] / counts[h] as f64 * fleet as f64).max(0.0)
            }
        })
    }
}

/// Corrupts one day of per-meter telemetry, keeping per-meter granularity.
/// `lanes` holds every meter's realized trading series `y_n^h` on
/// `horizon`, in meter order (see `PredictedResponse::lanes` in
/// `nms-core`).
///
/// Deterministic in `(plan.seed, day, meter index)`; the lanes' values
/// never influence *which* faults fire, only the magnitudes of garbage
/// readings. Meters silenced by a scripted [`MeterOutage`] consume no
/// random draws, so adding an outage does not reshuffle the random faults
/// hitting other meters.
///
/// The plan is clamped before any draw: rates outside `[0, 1]` are pulled
/// to the nearest bound and non-finite rates inject nothing (a non-finite
/// `report_rate` keeps every meter reporting), so a hand-built plan that
/// would fail [`FaultPlan::validate`] degrades the injection rather than
/// panicking. Call `validate` first to reject such plans outright.
pub fn corrupt_day_meters(
    plan: &FaultPlan,
    day: usize,
    horizon: Horizon,
    lanes: &[&[f64]],
) -> CorruptedMeters {
    let plan = &plan.clamped();
    let slots = horizon.slots();

    let mut injected = FaultCounts::default();
    let mut readings = vec![vec![f64::NAN; slots]; lanes.len()];

    for (meter_idx, &trading) in lanes.iter().enumerate() {
        if plan
            .outage
            .is_some_and(|outage| outage.covers(day, meter_idx))
        {
            injected.record(FaultKind::Unreported);
            continue;
        }
        let mut rng = plan.meter_stream(day, meter_idx);
        // Day-level draws, fixed order.
        let reported = rng.gen_bool(plan.report_rate);
        let stuck = rng.gen_bool(plan.stuck_rate);
        let skewed = rng.gen_bool(plan.skew_rate);
        if !reported {
            injected.record(FaultKind::Unreported);
            continue;
        }
        if stuck {
            injected.record(FaultKind::Stuck);
        } else if skewed {
            injected.record(FaultKind::Skewed);
        }

        for h in 0..slots {
            // Slot-level draws, fixed order and always consumed.
            let dropped = rng.gen_bool(plan.drop_rate);
            let nan = rng.gen_bool(plan.nan_rate);
            let garbage = rng.gen_bool(plan.garbage_rate);
            let magnitude: f64 = rng.gen_range(-1.0..=1.0);

            if dropped {
                injected.record(FaultKind::Dropped);
                continue;
            }
            let base = if stuck {
                trading[0]
            } else if skewed {
                trading[(h + slots - 1) % slots]
            } else {
                trading[h]
            };
            readings[meter_idx][h] = if nan {
                injected.record(FaultKind::NonFinite);
                f64::NAN
            } else if garbage {
                injected.record(FaultKind::Garbage);
                plan.garbage_scale * magnitude * (base.abs() + 1.0)
            } else {
                base
            };
        }
    }

    CorruptedMeters {
        horizon,
        readings,
        injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Market, PaperScenario};
    use nms_core::PredictedResponse;
    use nms_obs::NoopRecorder;

    /// A cleared day's committed response, read through its lanes.
    fn realized_response() -> PredictedResponse {
        let scenario = PaperScenario::small(6, 17);
        let market = Market::new(&scenario).unwrap();
        let generator = scenario.generator();
        let community = generator.community_for_day(0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        market
            .clear_day(&community, 2, rng.gen(), &NoopRecorder)
            .unwrap()
            .response
    }

    fn corrupt(plan: &FaultPlan, day: usize, response: &PredictedResponse) -> CorruptedMeters {
        let horizon = response.grid_demand.horizon();
        corrupt_day_meters(plan, day, horizon, &response.lanes(&[]))
    }

    #[test]
    fn noop_plan_reproduces_clean_aggregate() {
        let response = realized_response();
        let plan = FaultPlan::none(9);
        assert!(plan.is_noop());
        let corrupted = corrupt(&plan, 0, &response);
        assert_eq!(corrupted.injected.total(), 0);
        let observed = corrupted.aggregate();
        let clean = &response.grid_demand;
        for h in 0..clean.len() {
            assert!(
                (observed[h] - clean[h]).abs() < 1e-9,
                "slot {h}: {} vs {}",
                observed[h],
                clean[h]
            );
        }
    }

    #[test]
    fn corruption_is_deterministic_per_seed_and_day() {
        let response = realized_response();
        let plan = FaultPlan::degraded(3, 0.2);
        let a = corrupt(&plan, 4, &response);
        let b = corrupt(&plan, 4, &response);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.aggregate(), b.aggregate());
        // A different day draws a different fault pattern.
        let c = corrupt(&plan, 5, &response);
        assert!(a.aggregate() != c.aggregate() || a.injected != c.injected);
    }

    #[test]
    fn heavy_faults_are_injected_and_counted() {
        let response = realized_response();
        let plan = FaultPlan {
            seed: 11,
            drop_rate: 0.3,
            nan_rate: 0.2,
            garbage_rate: 0.1,
            garbage_scale: 50.0,
            stuck_rate: 0.3,
            skew_rate: 0.3,
            report_rate: 0.7,
            outage: None,
        };
        plan.validate().unwrap();
        let corrupted = corrupt(&plan, 1, &response);
        assert!(corrupted.injected.total() > 0);
        assert!(corrupted.injected.dropped > 0);
        assert!(corrupted.injected.non_finite > 0);
    }

    #[test]
    fn fully_unreported_day_is_nan() {
        let response = realized_response();
        let mut plan = FaultPlan::none(2);
        plan.report_rate = 0.0;
        let corrupted = corrupt(&plan, 0, &response);
        assert_eq!(
            corrupted.injected.unreported,
            response.outcome().customers()
        );
        assert!(corrupted.aggregate().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn invalid_rates_are_clamped_instead_of_panicking() {
        let response = realized_response();
        let plan = FaultPlan {
            seed: 4,
            drop_rate: 1.5,
            nan_rate: -0.3,
            garbage_rate: f64::NAN,
            garbage_scale: f64::INFINITY,
            stuck_rate: 2.0,
            skew_rate: f64::NEG_INFINITY,
            report_rate: f64::NAN,
            outage: None,
        };
        assert!(plan.validate().is_err());
        // drop_rate clamps to 1.0 and report_rate to 1.0: every meter
        // reports, every slot drops.
        let corrupted = corrupt(&plan, 0, &response);
        let slots = response.grid_demand.len();
        let meters = response.outcome().customers();
        assert_eq!(corrupted.injected.dropped, slots * meters);
        assert_eq!(corrupted.injected.unreported, 0);
        assert!(corrupted.aggregate().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn scripted_outage_silences_exact_meters_without_reshuffling_others() {
        let response = realized_response();
        let fleet = response.outcome().customers();
        let mut plan = FaultPlan::degraded(13, 0.1);
        assert!(fleet >= 3, "small scenario should have at least 3 meters");
        plan.outage = Some(MeterOutage {
            first_meter: 1,
            meters: 2,
            from_day: 2,
            until_day: 4,
        });
        let unscripted = FaultPlan {
            outage: None,
            ..plan
        };
        let baseline = corrupt(&unscripted, 2, &response);
        let outaged = corrupt(&plan, 2, &response);
        // Covered meters are fully silent.
        for meter in 1..3 {
            assert!(outaged.meter_readings(meter).iter().all(|v| v.is_nan()));
        }
        // Uncovered meters see the exact same random faults.
        for meter in (0..fleet).filter(|m| !(1..3).contains(m)) {
            let (a, b) = (
                baseline.meter_readings(meter),
                outaged.meter_readings(meter),
            );
            for (x, y) in a.iter().zip(b) {
                assert!(x == y || (x.is_nan() && y.is_nan()));
            }
        }
        // Outside the day range the outage does nothing.
        let after = corrupt(&plan, 4, &response);
        let clean = corrupt(&unscripted, 4, &response);
        assert_eq!(after.injected, clean.injected);
        for meter in 0..fleet {
            let (a, b) = (after.meter_readings(meter), clean.meter_readings(meter));
            for (x, y) in a.iter().zip(b) {
                assert!(x == y || (x.is_nan() && y.is_nan()));
            }
        }
        assert!(!plan.is_noop());
        let mut empty = FaultPlan::none(1);
        empty.outage = Some(MeterOutage {
            first_meter: 0,
            meters: 0,
            from_day: 0,
            until_day: 10,
        });
        assert!(empty.is_noop());
    }

    #[test]
    fn exclusion_drops_meters_but_keeps_fleet_scale() {
        let response = realized_response();
        let fleet = response.outcome().customers();
        let per_meter = corrupt(&FaultPlan::none(3), 0, &response);
        let mut excluded = vec![false; fleet];
        excluded[0] = true;
        let with_exclusion = per_meter.aggregate_excluding(&excluded);
        let slots = response.grid_demand.len();
        for h in 0..slots {
            let others: Vec<f64> = (1..fleet).map(|m| per_meter.meter_readings(m)[h]).collect();
            let expected =
                (others.iter().sum::<f64>() / others.len() as f64 * fleet as f64).max(0.0);
            assert!(
                (with_exclusion[h] - expected).abs() < 1e-9,
                "slot {h}: {} vs {expected}",
                with_exclusion[h]
            );
        }
        // Excluding everything leaves nothing usable.
        let all = per_meter.aggregate_excluding(&vec![true; fleet]);
        assert!(all.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn fault_plan_without_outage_field_still_deserializes() {
        let json = r#"{"seed":5,"drop_rate":0.1,"nan_rate":0.0,"garbage_rate":0.0,
            "garbage_scale":100.0,"stuck_rate":0.0,"skew_rate":0.0,"report_rate":1.0}"#;
        let plan: FaultPlan = serde_json::from_str(json).expect("legacy plan should load");
        assert_eq!(plan.outage, None);
        assert_eq!(plan.drop_rate, 0.1);
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut plan = FaultPlan::none(0);
        plan.drop_rate = 1.5;
        assert!(plan.validate().is_err());
        let mut plan = FaultPlan::none(0);
        plan.garbage_scale = f64::NAN;
        assert!(plan.validate().is_err());
        assert!(FaultPlan::degraded(1, 0.05).validate().is_ok());
    }
}
