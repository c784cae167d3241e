//! Parameter sweeps: the "what if" studies around the paper's evaluation.
//!
//! These back the `community_planning` and `fault_tolerance` examples with
//! typed, reusable runners: how the net-metering reward rate `W` and the PV
//! penetration shape the grid's load, and how telemetry faults wear down
//! detection.

use nms_obs::NoopRecorder;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use nms_core::{DetectorMode, FrameworkConfig, QuarantineConfig, SanitizeConfig};
use nms_par::{par_map, Parallelism};
use nms_pricing::NetMeteringTariff;
use nms_types::{RetryPolicy, SolveBudget};

use crate::detection::run_in_memory;
use crate::experiments::paper_timeline;
use crate::{FaultPlan, LongTermRunConfig, LongTermRunResult, Market, PaperScenario, SimError};

/// One row of a sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub parameter: f64,
    /// Grid PAR of the cleared day.
    pub par: f64,
    /// Total energy the community sold back (kWh).
    pub energy_sold: f64,
    /// Total midday (11:00–15:00) grid draw (kWh).
    pub midday_draw: f64,
    /// Best-response rounds the point's final game clearing executed.
    ///
    /// Deterministic and thread-invariant (each point's game is solved
    /// sequentially within its worker), so it is safe to compare across
    /// sequential and parallel sweeps.
    #[serde(default)]
    pub solver_rounds: usize,
    /// Whether that game converged within its round budget.
    #[serde(default)]
    pub solver_converged: bool,
}

/// Sweeps the net-metering reward divisor `W` and reports the cleared grid
/// shape at each setting.
///
/// Larger `W` (smaller sell-back reward) weakens the incentive to export,
/// which shows up as less energy sold and a flatter midday valley.
///
/// # Errors
///
/// Returns [`SimError`] when a sweep point fails to clear.
pub fn sweep_tariff(
    scenario: &PaperScenario,
    w_values: &[f64],
    parallelism: &Parallelism,
) -> Result<Vec<SweepPoint>, SimError> {
    // Every point seeds its own RNG from the scenario, so points are
    // independent and the parallel sweep is bit-identical to sequential.
    // Points clear unrecorded: a sweep row carries its own solver effort.
    par_map(parallelism.threads, w_values, &NoopRecorder, |_, &w, _| {
        let mut swept = scenario.clone();
        swept.tariff = NetMeteringTariff::new(w)?;
        clear_point(&swept, w)
    })
}

/// Sweeps the PV ownership fraction.
///
/// # Errors
///
/// Returns [`SimError`] when a sweep point fails to clear or an ownership
/// value is outside `[0, 1]`.
pub fn sweep_pv_ownership(
    scenario: &PaperScenario,
    ownership_values: &[f64],
    parallelism: &Parallelism,
) -> Result<Vec<SweepPoint>, SimError> {
    par_map(
        parallelism.threads,
        ownership_values,
        &NoopRecorder,
        |_, &ownership, _| {
            let mut swept = scenario.clone();
            swept.pv_ownership = ownership;
            swept.validate()?;
            clear_point(&swept, ownership)
        },
    )
}

fn clear_point(scenario: &PaperScenario, parameter: f64) -> Result<SweepPoint, SimError> {
    let market = Market::new(scenario)?;
    let generator = scenario.generator();
    let weather = scenario.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0x5eeb);
    let outcome = market.clear_day(&community, 2, rng.gen(), &NoopRecorder)?;
    let response = outcome.response;
    // Each customer's `CustomerSchedule::total_sold`, read off its lane.
    let energy_sold = response
        .lanes(&[])
        .iter()
        .map(|lane| -lane.iter().filter(|&&y| y < 0.0).sum::<f64>())
        .sum();
    let midday_draw = (11..15).map(|h| response.grid_demand[h]).sum();
    Ok(SweepPoint {
        parameter,
        par: response.par,
        energy_sold,
        midday_draw,
        solver_rounds: response.rounds,
        solver_converged: response.converged,
    })
}

/// One row of the fault-tolerance sweep: detection quality for both
/// detector modes as telemetry corruption grows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultTolerancePoint {
    /// The anchor fault rate fed to [`FaultPlan::degraded`].
    pub fault_rate: f64,
    /// Observation accuracy, net-metering-aware detector.
    pub aware_accuracy: f64,
    /// Observation accuracy, net-metering-ignorant detector.
    pub naive_accuracy: f64,
    /// Realized-demand PAR under the aware detector.
    pub aware_par: f64,
    /// Realized-demand PAR under the naive detector.
    pub naive_par: f64,
    /// Telemetry slots imputed by the sanitizer (both runs combined).
    pub slots_imputed: usize,
    /// Faults injected into the telemetry (both runs combined).
    pub faults_injected: usize,
}

/// Sweeps telemetry corruption: the paper's 48-hour detection run repeated
/// at each fault rate for both [`DetectorMode`]s, with degradation tallies.
///
/// Rate 0 runs the pristine pipeline, so the first point doubles as the
/// robustness baseline.
///
/// # Errors
///
/// Returns [`SimError`] when a run fails outright (fault injection itself
/// degrades instead of failing).
pub fn sweep_fault_tolerance(
    scenario: &PaperScenario,
    fault_rates: &[f64],
    parallelism: &Parallelism,
) -> Result<Vec<FaultTolerancePoint>, SimError> {
    par_map(
        parallelism.threads,
        fault_rates,
        &NoopRecorder,
        |_, &rate, _| {
            let plan = (rate > 0.0).then(|| FaultPlan::degraded(scenario.seed ^ 0xfa_017, rate));
            let run = |mode: DetectorMode| -> Result<LongTermRunResult, SimError> {
                let config = LongTermRunConfig {
                    detection_days: 2,
                    detector: Some(FrameworkConfig::new(mode, 24)),
                    timeline: paper_timeline(scenario.customers),
                    buckets: 6,
                    bucket_fraction_step: 0.1,
                    labor_per_fix: 10.0,
                    labor_per_meter: 1.0,
                    faults: plan,
                    sanitize: SanitizeConfig::default(),
                    retry: RetryPolicy::default(),
                    budget: SolveBudget::unlimited(),
                    quarantine: QuarantineConfig::default(),
                    parallelism: Default::default(),
                    clearing_iterations: 2,
                };
                run_in_memory(scenario, &config, scenario.seed ^ 0xfa_417)
            };
            let aware = run(DetectorMode::NetMeteringAware)?;
            let naive = run(DetectorMode::IgnoreNetMetering)?;
            Ok(FaultTolerancePoint {
                fault_rate: rate,
                aware_accuracy: aware.accuracy.accuracy().unwrap_or(0.0),
                naive_accuracy: naive.accuracy.accuracy().unwrap_or(0.0),
                aware_par: aware.par,
                naive_par: naive.par,
                slots_imputed: aware.health.slots_imputed + naive.health.slots_imputed,
                faults_injected: aware.health.faults_injected.total()
                    + naive.health.faults_injected.total(),
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> PaperScenario {
        PaperScenario::small(12, 19)
    }

    #[test]
    fn tariff_sweep_weakens_exports_with_w() {
        let points = sweep_tariff(&scenario(), &[1.0, 3.0], &Parallelism::SEQUENTIAL).unwrap();
        assert_eq!(points.len(), 2);
        // Full retail (W = 1) rewards exporting at least as much as W = 3.
        assert!(
            points[0].energy_sold >= points[1].energy_sold - 0.5,
            "W=1 sold {} vs W=3 sold {}",
            points[0].energy_sold,
            points[1].energy_sold
        );
        assert!(points.iter().all(|p| p.par >= 1.0));
    }

    #[test]
    fn pv_sweep_hollows_midday() {
        let points = sweep_pv_ownership(&scenario(), &[0.0, 1.0], &Parallelism::new(2)).unwrap();
        assert!(
            points[1].midday_draw < points[0].midday_draw,
            "full PV midday {} vs none {}",
            points[1].midday_draw,
            points[0].midday_draw
        );
        // No panels ⇒ only battery arbitrage can export; panels on every
        // roof export strictly more.
        assert!(
            points[1].energy_sold > points[0].energy_sold,
            "full PV sold {} vs none {}",
            points[1].energy_sold,
            points[0].energy_sold
        );
    }

    #[test]
    fn pv_sweep_rejects_bad_fraction() {
        assert!(sweep_pv_ownership(&scenario(), &[1.5], &Parallelism::new(2)).is_err());
    }

    #[test]
    fn fault_tolerance_sweep_reports_degradation() {
        let mut scenario = PaperScenario::small(8, 21);
        scenario.training_days = 4;
        let points = sweep_fault_tolerance(&scenario, &[0.25], &Parallelism::SEQUENTIAL).unwrap();
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!((0.0..=1.0).contains(&p.aware_accuracy));
        assert!((0.0..=1.0).contains(&p.naive_accuracy));
        assert!(p.aware_par.is_finite() && p.naive_par.is_finite());
        // A quarter of all meter-slots dropping must actually register.
        assert!(p.faults_injected > 0, "no faults injected");
    }
}
