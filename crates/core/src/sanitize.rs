//! Input sanitization for observed telemetry (robustness layer).
//!
//! Faulted meters hand the detector readings that are missing (NaN),
//! garbage (absurd magnitudes), or stale. Rather than letting one bad slot
//! poison the peak-deviation statistic — or crash the pipeline — the
//! sanitizer screens each slot and imputes a replacement:
//!
//! 1. **Reference fill** (the seasonal role, cf. `nms_forecast`'s
//!    `seasonal_mean_forecast`): the detector always holds a predicted
//!    series for the same horizon, which is the best available estimate of
//!    what the corrupted slot *should* have read;
//! 2. **Last-good fill** (persistence: "this slot reads like the last
//!    clean one") when the reference slot is itself unusable;
//! 3. **Zero fill** when nothing earlier in the day survived either.
//!
//! The report says how many slots were touched so the caller's
//! [`RunHealth`](nms_types::RunHealth) ledger can expose the degradation.

use serde::{Deserialize, Serialize};

use nms_types::{TimeSeries, ValidateError};

/// Screening thresholds for [`sanitize_series`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SanitizeConfig {
    /// A finite reading is declared garbage when its magnitude exceeds
    /// `outlier_factor × (max |reference| + 1)`.
    pub outlier_factor: f64,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        Self {
            outlier_factor: 10.0,
        }
    }
}

impl SanitizeConfig {
    /// Checks the thresholds are usable.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when `outlier_factor` is not finite and
    /// greater than 1.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if !(self.outlier_factor > 1.0 && self.outlier_factor.is_finite()) {
            return Err(ValidateError::new(format!(
                "outlier factor must be finite and > 1, got {}",
                self.outlier_factor
            )));
        }
        Ok(())
    }
}

/// What [`sanitize_series`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeReport {
    /// The screened series: every slot finite, corrupt slots imputed.
    pub cleaned: TimeSeries<f64>,
    /// Number of slots that were replaced.
    pub imputed_slots: usize,
    /// `false` when the reference series had no finite slot, so the outlier
    /// screen was anchored on the observed values themselves (weaker: a day
    /// of uniformly absurd readings would pass).
    pub reference_anchored: bool,
}

/// Screens `observed` against `reference` (the prediction for the same
/// horizon), imputing every non-finite or absurd-magnitude slot. The result
/// is always fully finite. When the reference has no finite slot at all the
/// screen anchors on the finite observed magnitudes instead (reported via
/// [`SanitizeReport::reference_anchored`]).
///
/// # Errors
///
/// Returns [`ValidateError`] when the horizons differ or the config is
/// invalid.
pub fn sanitize_series(
    observed: &TimeSeries<f64>,
    reference: &TimeSeries<f64>,
    config: &SanitizeConfig,
) -> Result<SanitizeReport, ValidateError> {
    config.validate()?;
    if observed.horizon() != reference.horizon() {
        return Err(ValidateError::new(format!(
            "observed horizon ({} slots) differs from reference ({} slots)",
            observed.horizon().slots(),
            reference.horizon().slots()
        )));
    }

    // Anchor the outlier screen on the reference magnitude; when the
    // reference is entirely non-finite, fall back to the finite observed
    // magnitudes so legitimate large readings (e.g. grid demand in the
    // hundreds) are not wholesale flagged against a unit scale.
    let finite_max = |series: &TimeSeries<f64>| {
        series
            .iter()
            .filter(|v| v.is_finite())
            .fold(None, |acc: Option<f64>, &v| {
                Some(acc.map_or(v.abs(), |a| a.max(v.abs())))
            })
    };
    let reference_max = finite_max(reference);
    let reference_anchored = reference_max.is_some();
    let scale = reference_max
        .or_else(|| finite_max(observed))
        .unwrap_or(0.0)
        + 1.0;
    let threshold = config.outlier_factor * scale;

    let mut cleaned = observed.clone();
    let mut imputed = 0usize;
    let mut last_good: Option<f64> = None;
    for h in 0..cleaned.horizon().slots() {
        let value = cleaned[h];
        if value.is_finite() && value.abs() <= threshold {
            last_good = Some(value);
            continue;
        }
        let fill = if reference[h].is_finite() {
            reference[h]
        } else {
            last_good.unwrap_or(0.0)
        };
        cleaned[h] = fill;
        imputed += 1;
    }

    Ok(SanitizeReport {
        cleaned,
        imputed_slots: imputed,
        reference_anchored,
    })
}

// ---------------------------------------------------------------------------
// Per-meter quarantine circuit breaker
// ---------------------------------------------------------------------------

/// Circuit-breaker state of one meter (see DESIGN.md §8.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeterState {
    /// Healthy: readings feed the aggregate normally.
    Closed,
    /// Quarantined: persistently failing sanitization; excluded from the
    /// aggregate and surfaced to the detector as a suspect.
    Open,
    /// Probation: readings feed the aggregate again, but one more failed
    /// day re-trips the breaker.
    HalfOpen,
}

/// A state transition of one meter's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineTransition {
    /// Closed → Open after `trip_after` consecutive failed days.
    Tripped,
    /// Open → HalfOpen after `probation_after` quarantined days.
    Probation,
    /// HalfOpen → Open: the probe day failed too.
    Retripped,
    /// HalfOpen → Closed after `close_after` consecutive good days.
    Recovered,
}

/// One journaled breaker transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEvent {
    /// Absolute simulation day of the transition.
    pub day: usize,
    /// Zero-based meter index within the community.
    pub meter: usize,
    /// What happened.
    pub transition: QuarantineTransition,
}

/// Thresholds for the per-meter quarantine breaker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuarantineConfig {
    /// Consecutive failed-sanitization days that trip a closed breaker.
    pub trip_after: usize,
    /// Quarantined days before the breaker half-opens for a probe.
    pub probation_after: usize,
    /// Consecutive good days in half-open that close the breaker.
    pub close_after: usize,
    /// A meter's day counts as failed when at least this fraction of its
    /// slots are bad (non-finite or garbage-magnitude), in (0, 1].
    pub bad_slot_fraction: f64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        Self {
            trip_after: 3,
            probation_after: 2,
            close_after: 2,
            bad_slot_fraction: 0.5,
        }
    }
}

impl QuarantineConfig {
    /// Checks the thresholds are usable.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] for zero day thresholds or a slot fraction
    /// outside (0, 1].
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.trip_after == 0 || self.probation_after == 0 || self.close_after == 0 {
            return Err(ValidateError::new(
                "quarantine day thresholds must be at least 1",
            ));
        }
        if !(self.bad_slot_fraction > 0.0 && self.bad_slot_fraction <= 1.0) {
            return Err(ValidateError::new(format!(
                "bad slot fraction must be in (0, 1], got {}",
                self.bad_slot_fraction
            )));
        }
        Ok(())
    }
}

/// Judges whether one meter's day of raw readings failed sanitization: a
/// slot is bad when non-finite or when its magnitude exceeds the
/// [`SanitizeConfig`] outlier screen anchored on `scale` (the expected
/// per-meter reading magnitude); the day fails when the bad fraction
/// reaches [`QuarantineConfig::bad_slot_fraction`]. An empty day fails.
pub fn meter_day_failed(
    readings: &[f64],
    scale: f64,
    sanitize: &SanitizeConfig,
    quarantine: &QuarantineConfig,
) -> bool {
    if readings.is_empty() {
        return true;
    }
    let threshold = sanitize.outlier_factor * (scale.abs() + 1.0);
    let bad = readings
        .iter()
        .filter(|v| !v.is_finite() || v.abs() > threshold)
        .count();
    bad as f64 >= quarantine.bad_slot_fraction * readings.len() as f64 && bad > 0
}

/// One meter's breaker: current state plus the streak counters that drive
/// transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeterHealth {
    state: MeterState,
    /// Consecutive failed days while closed.
    consecutive_bad: usize,
    /// Days spent open since the (re)trip.
    days_open: usize,
    /// Consecutive good days while half-open.
    consecutive_good: usize,
}

impl MeterHealth {
    fn new() -> Self {
        Self {
            state: MeterState::Closed,
            consecutive_bad: 0,
            days_open: 0,
            consecutive_good: 0,
        }
    }

    /// The breaker's current state.
    #[inline]
    pub fn state(&self) -> MeterState {
        self.state
    }
}

/// Tracks every meter's breaker across days (tentpole 3 of the supervision
/// layer): persistent per-meter failures — the AMI literature's compromised
/// or dead meter, as opposed to PR 1's transiently corrupted reading — are
/// quarantined out of the aggregate instead of being re-imputed forever.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeterQuarantine {
    config: QuarantineConfig,
    meters: Vec<MeterHealth>,
}

impl MeterQuarantine {
    /// A tracker for `fleet` meters, all breakers closed.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the config is invalid.
    pub fn new(fleet: usize, config: QuarantineConfig) -> Result<Self, ValidateError> {
        config.validate()?;
        Ok(Self {
            config,
            meters: vec![MeterHealth::new(); fleet],
        })
    }

    /// The bound configuration.
    #[inline]
    pub fn config(&self) -> &QuarantineConfig {
        &self.config
    }

    /// Per-meter breaker states, indexed by meter.
    #[inline]
    pub fn meters(&self) -> &[MeterHealth] {
        &self.meters
    }

    /// `true` when `meter`'s readings must be excluded from the aggregate
    /// (breaker open; half-open probes are included again).
    #[inline]
    pub fn is_excluded(&self, meter: usize) -> bool {
        self.meters
            .get(meter)
            .is_some_and(|m| m.state == MeterState::Open)
    }

    /// Number of quarantined (open) meters — the suspect count surfaced to
    /// the POMDP observation.
    pub fn open_count(&self) -> usize {
        self.meters
            .iter()
            .filter(|m| m.state == MeterState::Open)
            .count()
    }

    /// Advances every breaker by one day. `failed[m]` says whether meter
    /// `m`'s day failed sanitization (see [`meter_day_failed`]); `day` is
    /// the absolute day stamped on emitted events. Returns the transitions,
    /// in meter order.
    ///
    /// # Panics
    ///
    /// Panics when `failed` does not cover the fleet.
    pub fn observe_day(&mut self, day: usize, failed: &[bool]) -> Vec<QuarantineEvent> {
        assert_eq!(
            failed.len(),
            self.meters.len(),
            "per-meter day verdicts must cover the fleet"
        );
        let mut events = Vec::new();
        for (meter, (health, &bad)) in self.meters.iter_mut().zip(failed).enumerate() {
            let transition = match health.state {
                MeterState::Closed => {
                    if bad {
                        health.consecutive_bad += 1;
                        if health.consecutive_bad >= self.config.trip_after {
                            health.state = MeterState::Open;
                            health.days_open = 0;
                            Some(QuarantineTransition::Tripped)
                        } else {
                            None
                        }
                    } else {
                        health.consecutive_bad = 0;
                        None
                    }
                }
                MeterState::Open => {
                    health.days_open += 1;
                    if health.days_open >= self.config.probation_after {
                        health.state = MeterState::HalfOpen;
                        health.consecutive_good = 0;
                        Some(QuarantineTransition::Probation)
                    } else {
                        None
                    }
                }
                MeterState::HalfOpen => {
                    if bad {
                        health.state = MeterState::Open;
                        health.days_open = 0;
                        Some(QuarantineTransition::Retripped)
                    } else {
                        health.consecutive_good += 1;
                        if health.consecutive_good >= self.config.close_after {
                            health.state = MeterState::Closed;
                            health.consecutive_bad = 0;
                            Some(QuarantineTransition::Recovered)
                        } else {
                            None
                        }
                    }
                }
            };
            if let Some(transition) = transition {
                events.push(QuarantineEvent {
                    day,
                    meter,
                    transition,
                });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_types::Horizon;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    #[test]
    fn clean_series_passes_through_untouched() {
        let observed = TimeSeries::from_fn(day(), |h| h as f64);
        let reference = TimeSeries::filled(day(), 10.0);
        let report = sanitize_series(&observed, &reference, &SanitizeConfig::default()).unwrap();
        assert_eq!(report.imputed_slots, 0);
        assert_eq!(report.cleaned, observed);
    }

    #[test]
    fn nan_and_outlier_slots_take_the_reference_value() {
        let mut observed = TimeSeries::filled(day(), 5.0);
        observed[3] = f64::NAN;
        observed[7] = 1e9; // garbage against a reference scale of ~10
        let reference = TimeSeries::from_fn(day(), |h| h as f64);
        let report = sanitize_series(&observed, &reference, &SanitizeConfig::default()).unwrap();
        assert_eq!(report.imputed_slots, 2);
        assert_eq!(report.cleaned[3], 3.0);
        assert_eq!(report.cleaned[7], 7.0);
        assert_eq!(report.cleaned[0], 5.0);
    }

    #[test]
    fn last_good_then_zero_when_reference_is_unusable() {
        let mut observed = TimeSeries::filled(day(), 2.0);
        observed[0] = f64::INFINITY;
        observed[5] = f64::NAN;
        let mut reference = TimeSeries::filled(day(), 1.0);
        reference[0] = f64::NAN;
        reference[5] = f64::NAN;
        let report = sanitize_series(&observed, &reference, &SanitizeConfig::default()).unwrap();
        assert_eq!(report.imputed_slots, 2);
        // Slot 0 has no earlier good value: zero fill.
        assert_eq!(report.cleaned[0], 0.0);
        // Slot 5 persists the last good reading.
        assert_eq!(report.cleaned[5], 2.0);
        assert!(report.cleaned.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn non_finite_reference_anchors_on_observed_scale() {
        // A fully unusable prediction must not shrink the outlier screen to
        // unit scale and zero out a legitimate high-demand day.
        let mut observed = TimeSeries::filled(day(), 480.0);
        observed[6] = f64::NAN;
        let reference = TimeSeries::filled(day(), f64::NAN);
        let report = sanitize_series(&observed, &reference, &SanitizeConfig::default()).unwrap();
        assert!(!report.reference_anchored);
        assert_eq!(report.imputed_slots, 1);
        assert_eq!(report.cleaned[0], 480.0);
        // The NaN slot persists the last good observed reading.
        assert_eq!(report.cleaned[6], 480.0);
    }

    #[test]
    fn breaker_trips_probes_and_recovers() {
        let config = QuarantineConfig {
            trip_after: 2,
            probation_after: 1,
            close_after: 2,
            bad_slot_fraction: 0.5,
        };
        let mut tracker = MeterQuarantine::new(2, config).unwrap();

        // Day 0: meter 1 bad once — no trip yet.
        assert!(tracker.observe_day(0, &[false, true]).is_empty());
        assert_eq!(tracker.open_count(), 0);

        // Day 1: second consecutive bad day trips meter 1.
        let events = tracker.observe_day(1, &[false, true]);
        assert_eq!(
            events,
            vec![QuarantineEvent {
                day: 1,
                meter: 1,
                transition: QuarantineTransition::Tripped,
            }]
        );
        assert!(tracker.is_excluded(1));
        assert!(!tracker.is_excluded(0));
        assert_eq!(tracker.open_count(), 1);

        // Day 2: probation_after = 1 day open → half-open probe.
        let events = tracker.observe_day(2, &[false, true]);
        assert_eq!(events[0].transition, QuarantineTransition::Probation);
        assert!(!tracker.is_excluded(1), "half-open probes are included");

        // Day 3: the probe fails → re-trip.
        let events = tracker.observe_day(3, &[false, true]);
        assert_eq!(events[0].transition, QuarantineTransition::Retripped);
        assert!(tracker.is_excluded(1));

        // Day 4: probation again; days 5–6 good close the breaker.
        let events = tracker.observe_day(4, &[false, false]);
        assert_eq!(events[0].transition, QuarantineTransition::Probation);
        assert!(tracker.observe_day(5, &[false, false]).is_empty());
        let events = tracker.observe_day(6, &[false, false]);
        assert_eq!(
            events,
            vec![QuarantineEvent {
                day: 6,
                meter: 1,
                transition: QuarantineTransition::Recovered,
            }]
        );
        assert_eq!(tracker.open_count(), 0);
        assert_eq!(tracker.meters()[1].state(), MeterState::Closed);

        // A good day resets the closed streak: bad, good, bad never trips.
        let mut tracker = MeterQuarantine::new(1, config).unwrap();
        tracker.observe_day(0, &[true]);
        tracker.observe_day(1, &[false]);
        assert!(tracker.observe_day(2, &[true]).is_empty());
        assert_eq!(tracker.open_count(), 0);
    }

    #[test]
    fn quarantine_config_validation() {
        assert!(QuarantineConfig::default().validate().is_ok());
        for bad in [
            QuarantineConfig {
                trip_after: 0,
                ..QuarantineConfig::default()
            },
            QuarantineConfig {
                probation_after: 0,
                ..QuarantineConfig::default()
            },
            QuarantineConfig {
                close_after: 0,
                ..QuarantineConfig::default()
            },
            QuarantineConfig {
                bad_slot_fraction: 0.0,
                ..QuarantineConfig::default()
            },
            QuarantineConfig {
                bad_slot_fraction: 1.5,
                ..QuarantineConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be invalid");
            assert!(MeterQuarantine::new(3, bad).is_err());
        }
    }

    #[test]
    fn meter_day_failure_judgement() {
        let sanitize = SanitizeConfig::default();
        let quarantine = QuarantineConfig::default(); // fails at ≥ 50% bad
                                                      // All readings present and plausible: good day.
        assert!(!meter_day_failed(&[1.0; 24], 1.0, &sanitize, &quarantine));
        // Completely unreported: failed day.
        assert!(meter_day_failed(
            &[f64::NAN; 24],
            1.0,
            &sanitize,
            &quarantine
        ));
        assert!(meter_day_failed(&[], 1.0, &sanitize, &quarantine));
        // Garbage magnitudes against a unit scale: failed day.
        assert!(meter_day_failed(&[1e9; 24], 1.0, &sanitize, &quarantine));
        // A quarter of slots bad stays below the 50% bar.
        let mut readings = [1.0; 24];
        for slot in readings.iter_mut().take(6) {
            *slot = f64::NAN;
        }
        assert!(!meter_day_failed(&readings, 1.0, &sanitize, &quarantine));
        // Half bad crosses it.
        for slot in readings.iter_mut().take(12) {
            *slot = f64::NAN;
        }
        assert!(meter_day_failed(&readings, 1.0, &sanitize, &quarantine));
    }

    #[test]
    fn quarantine_state_survives_serde() {
        let mut tracker = MeterQuarantine::new(3, QuarantineConfig::default()).unwrap();
        tracker.observe_day(0, &[true, false, true]);
        tracker.observe_day(1, &[true, false, true]);
        tracker.observe_day(2, &[true, false, false]);
        let json = serde_json::to_string(&tracker).unwrap();
        let restored: MeterQuarantine = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, tracker);
    }

    #[test]
    fn horizon_mismatch_and_bad_config_error() {
        let observed = TimeSeries::filled(day(), 1.0);
        let reference = TimeSeries::filled(Horizon::new(12, 1.0), 1.0);
        assert!(sanitize_series(&observed, &reference, &SanitizeConfig::default()).is_err());
        let bad = SanitizeConfig {
            outlier_factor: 1.0,
        };
        assert!(sanitize_series(&observed, &observed, &bad).is_err());
    }
}
