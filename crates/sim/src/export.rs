//! CSV export of experiment artifacts, for plotting the paper's figures
//! with external tools.
//!
//! The writers take any `io::Write`, so callers decide whether the data
//! lands in a file, a buffer, or stdout (C-RW-VALUE: pass `&mut file`).
//!
//! For durable files, [`export_atomic`] renders any writer's artifact in
//! memory and lands it through [`nms_vfs::write_atomic`] — staged in a
//! `.tmp` sibling, renamed into place, retried under a bounded
//! [`StoragePolicy`] — so a crash or an injected fault leaves either the
//! old artifact or the new one, never a torn CSV. Exhausted retries surface
//! as a typed [`StorageError`] the supervision layer ticks into
//! `RunHealth::storage`.

use std::io::{self, Write};
use std::path::Path;

use nms_vfs::{write_atomic, StorageError, StoragePolicy, StorageReport, Vfs};

use crate::experiments::{AccuracyExperiment, AttackExperiment, PredictionExperiment};
use crate::sweeps::FaultTolerancePoint;
use crate::LongTermRunResult;

/// Escapes one CSV cell (quotes fields containing separators or quotes).
fn cell(value: &str) -> String {
    if value.contains([',', '"', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Writes a header plus rows of `f64` columns.
fn write_csv<W: Write>(
    mut writer: W,
    header: &[&str],
    rows: impl Iterator<Item = Vec<f64>>,
) -> io::Result<()> {
    writeln!(
        writer,
        "{}",
        header.iter().map(|h| cell(h)).collect::<Vec<_>>().join(",")
    )?;
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(writer, "{}", line.join(","))?;
    }
    Ok(())
}

/// Exports a Fig 3/4 prediction experiment: one row per slot with the
/// received price, predicted price, and predicted load.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn export_prediction<W: Write>(
    writer: W,
    experiment: &PredictionExperiment,
) -> io::Result<()> {
    let slots = experiment.received_price.len();
    write_csv(
        writer,
        &["slot", "received_price", "predicted_price", "predicted_load"],
        (0..slots).map(|h| {
            vec![
                h as f64,
                experiment.received_price[h],
                experiment.predicted_price[h],
                experiment.predicted_load[h],
            ]
        }),
    )
}

/// Exports a Fig 5 attack experiment: one row per slot with the
/// manipulated price and attacked load.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn export_attack<W: Write>(writer: W, experiment: &AttackExperiment) -> io::Result<()> {
    let slots = experiment.manipulated_price.len();
    write_csv(
        writer,
        &["slot", "manipulated_price", "attacked_load"],
        (0..slots).map(|h| {
            vec![
                h as f64,
                experiment.manipulated_price[h],
                experiment.attacked_load[h],
            ]
        }),
    )
}

/// Exports a Fig 6 accuracy experiment: one row per slot with both
/// detectors' running accuracies.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn export_accuracy<W: Write>(writer: W, experiment: &AccuracyExperiment) -> io::Result<()> {
    let slots = experiment.aware_running.len().min(experiment.naive_running.len());
    write_csv(
        writer,
        &["slot", "aware_running_accuracy", "naive_running_accuracy"],
        (0..slots).map(|h| {
            vec![
                h as f64,
                experiment.aware_running[h],
                experiment.naive_running[h],
            ]
        }),
    )
}

/// Exports a long-term run trace: one row per slot with realized demand,
/// true bucket, and (when a detector ran) the observed bucket and whether a
/// fix was dispatched.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn export_long_term<W: Write>(writer: W, result: &LongTermRunResult) -> io::Result<()> {
    let slots = result.realized_demand.len();
    write_csv(
        writer,
        &["slot", "realized_demand", "true_bucket", "observed_bucket", "fix"],
        (0..slots).map(|h| {
            vec![
                h as f64,
                result.realized_demand[h],
                result.true_buckets.get(h).copied().unwrap_or(0) as f64,
                result
                    .observed_buckets
                    .get(h)
                    .map(|&o| o as f64)
                    .unwrap_or(f64::NAN),
                f64::from(u8::from(result.fixes_at.contains(&h))),
            ]
        }),
    )
}

/// Exports a fault-tolerance sweep: one row per fault rate with both
/// detectors' accuracy and PAR plus the degradation tallies.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn export_fault_tolerance<W: Write>(
    writer: W,
    points: &[FaultTolerancePoint],
) -> io::Result<()> {
    write_csv(
        writer,
        &[
            "fault_rate",
            "aware_accuracy",
            "naive_accuracy",
            "aware_par",
            "naive_par",
            "slots_imputed",
            "faults_injected",
        ],
        points.iter().map(|p| {
            vec![
                p.fault_rate,
                p.aware_accuracy,
                p.naive_accuracy,
                p.aware_par,
                p.naive_par,
                p.slots_imputed as f64,
                p.faults_injected as f64,
            ]
        }),
    )
}

/// Exports a long-term run's per-day fault/degradation timeline: a
/// `training` row for the calibration epoch, then one row per detection
/// day with that day's fault counts, imputations, retries, fallbacks,
/// budget breaches, and quarantine transitions.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn export_health_timeline<W: Write>(
    mut writer: W,
    result: &LongTermRunResult,
) -> io::Result<()> {
    writeln!(
        writer,
        "day,dropped,non_finite,garbage,stuck,skewed,unreported,slots_imputed,\
         retries,fallbacks,budget_breaches,quarantine_trips,quarantine_recoveries,\
         meters_quarantined"
    )?;
    let rows = std::iter::once(("training".to_string(), &result.training_health)).chain(
        result
            .day_health
            .iter()
            .map(|d| (d.day.to_string(), d)),
    );
    for (label, d) in rows {
        writeln!(
            writer,
            "{label},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            d.faults.dropped,
            d.faults.non_finite,
            d.faults.garbage,
            d.faults.stuck,
            d.faults.skewed,
            d.faults.unreported,
            d.slots_imputed,
            d.retries,
            d.fallbacks,
            d.budget_breaches,
            d.quarantine_trips,
            d.quarantine_recoveries,
            d.meters_quarantined,
        )?;
    }
    Ok(())
}

/// Exports a long-term run's quarantine breaker transitions: one row per
/// trip/probation/re-trip/recovery event, in day then meter order.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn export_quarantine_events<W: Write>(
    mut writer: W,
    result: &LongTermRunResult,
) -> io::Result<()> {
    writeln!(writer, "day,meter,transition")?;
    for event in &result.quarantine_events {
        writeln!(writer, "{},{},{:?}", event.day, event.meter, event.transition)?;
    }
    Ok(())
}

/// Renders an artifact in memory and lands it at `path` atomically, e.g.
/// `export_atomic(vfs, path, &policy, |buf| export_long_term(buf, &result))`.
///
/// # Errors
///
/// [`StorageError::Render`] if the in-memory render fails (no bytes touch
/// storage), [`StorageError::Exhausted`] once the policy's bounded retries
/// run out (the destination is untouched — staged bytes only ever live in
/// the `.tmp` sibling).
pub fn export_atomic<F>(
    vfs: &dyn Vfs,
    path: &Path,
    policy: &StoragePolicy,
    render: F,
) -> Result<StorageReport, StorageError>
where
    F: FnOnce(&mut Vec<u8>) -> io::Result<()>,
{
    let mut buffer = Vec::new();
    render(&mut buffer).map_err(StorageError::Render)?;
    write_atomic(vfs, path, &buffer, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{experiments, PaperScenario};

    #[test]
    fn cell_escaping() {
        assert_eq!(cell("plain"), "plain");
        assert_eq!(cell("a,b"), "\"a,b\"");
        assert_eq!(cell("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn prediction_export_shape() {
        let mut scenario = PaperScenario::small(8, 3);
        scenario.training_days = 3;
        let experiment = experiments::run_fig3(&scenario).unwrap();
        let mut buffer = Vec::new();
        export_prediction(&mut buffer, &experiment).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 25); // header + 24 slots
        assert!(lines[0].starts_with("slot,received_price"));
        assert_eq!(lines[1].split(',').count(), 4);
    }

    #[test]
    fn attack_export_shape() {
        let mut scenario = PaperScenario::small(8, 3);
        scenario.training_days = 3;
        let experiment = experiments::run_fig5(&scenario).unwrap();
        let mut buffer = Vec::new();
        export_attack(&mut buffer, &experiment).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert_eq!(text.lines().count(), 25);
    }

    #[test]
    fn fault_tolerance_export_shape() {
        let points = vec![
            FaultTolerancePoint {
                fault_rate: 0.0,
                aware_accuracy: 0.95,
                naive_accuracy: 0.66,
                aware_par: 1.5,
                naive_par: 1.8,
                slots_imputed: 0,
                faults_injected: 0,
            },
            FaultTolerancePoint {
                fault_rate: 0.1,
                aware_accuracy: 0.9,
                naive_accuracy: 0.6,
                aware_par: 1.6,
                naive_par: 1.9,
                slots_imputed: 7,
                faults_injected: 120,
            },
        ];
        let mut buffer = Vec::new();
        export_fault_tolerance(&mut buffer, &points).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("fault_rate,aware_accuracy"));
        assert_eq!(lines[2].split(',').count(), 7);
    }

    #[test]
    fn long_term_export_includes_fixes_column() {
        use crate::experiments::paper_timeline;
        use crate::detection::run_in_memory;
        use crate::LongTermRunConfig;

        let mut scenario = PaperScenario::small(8, 5);
        scenario.training_days = 3;
        let config = LongTermRunConfig {
            detection_days: 1,
            detector: None,
            timeline: paper_timeline(8),
            buckets: 4,
            bucket_fraction_step: 0.15,
            labor_per_fix: 10.0,
            labor_per_meter: 1.0,
            faults: None,
            sanitize: Default::default(),
            retry: Default::default(),
            budget: nms_types::SolveBudget::unlimited(),
            quarantine: Default::default(),
            parallelism: Default::default(),
            clearing_iterations: 2,
        };
        let result = run_in_memory(&scenario, &config, 1).unwrap();
        let mut buffer = Vec::new();
        export_long_term(&mut buffer, &result).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.lines().next().unwrap().ends_with("fix"));
        assert_eq!(text.lines().count(), 25);
        // No detector: observed buckets are NaN in the CSV.
        assert!(text.contains("NaN"));

        // The same run exports a health timeline: training row + 1 day.
        let mut buffer = Vec::new();
        export_health_timeline(&mut buffer, &result).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("day,dropped"));
        assert!(lines[0].ends_with("meters_quarantined"));
        assert!(lines[1].starts_with("training,"));
        assert!(lines[2].starts_with("0,"));
        assert_eq!(lines[1].split(',').count(), 14);

        // No faults → no quarantine events, header only.
        let mut buffer = Vec::new();
        export_quarantine_events(&mut buffer, &result).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert_eq!(text, "day,meter,transition\n");
    }

    #[test]
    fn quarantine_event_export_lists_transitions() {
        use nms_core::{QuarantineEvent, QuarantineTransition};
        use nms_types::DayHealth;

        // Synthesize a minimal result; only the event/timeline fields
        // matter to these writers.
        let result = LongTermRunResult {
            accuracy: nms_core::AccuracyTracker::new(),
            labor: nms_core::LaborTracker::new(1.0, 1.0),
            realized_demand: vec![1.0; 24],
            par: 1.0,
            true_buckets: vec![0; 24],
            observed_buckets: Vec::new(),
            fixes_at: Vec::new(),
            health: nms_types::RunHealth::new(),
            training_health: DayHealth::default(),
            day_health: vec![DayHealth::default()],
            quarantine_events: vec![
                QuarantineEvent {
                    day: 5,
                    meter: 1,
                    transition: QuarantineTransition::Tripped,
                },
                QuarantineEvent {
                    day: 6,
                    meter: 1,
                    transition: QuarantineTransition::Probation,
                },
            ],
            quarantine: None,
            final_belief: None,
        };
        let mut buffer = Vec::new();
        export_quarantine_events(&mut buffer, &result).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["day,meter,transition", "5,1,Tripped", "6,1,Probation"]);
    }
}
