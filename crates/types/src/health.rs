//! Run-health reporting and retry policies for graceful degradation.
//!
//! Real meter telemetry is lossy — readings drop, values arrive garbled,
//! clocks skew — and numerical subroutines occasionally fail to converge.
//! Rather than panic, the detection pipeline degrades: corrupted inputs are
//! imputed, optimizers are retried under a deterministic [`RetryPolicy`],
//! and exhausted components fall back to simpler models. [`RunHealth`] is
//! the ledger of all of it, attached to every long-term run result so a
//! verdict can be weighed against how much of its input was reconstructed.

use serde::{Deserialize, Serialize};

use crate::error::ValidateError;

/// One category of telemetry fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A meter-slot reading never arrived.
    Dropped,
    /// A reading arrived as NaN/∞.
    NonFinite,
    /// A reading arrived with a garbage magnitude.
    Garbage,
    /// A meter reported its first reading all day (stuck-at fault).
    Stuck,
    /// A meter's readings were shifted by one slot (clock skew).
    Skewed,
    /// A meter did not report at all (partial community reporting).
    Unreported,
}

/// Per-kind fault tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Meter-slot readings dropped.
    pub dropped: usize,
    /// Readings corrupted to NaN/∞.
    pub non_finite: usize,
    /// Readings corrupted to garbage magnitudes.
    pub garbage: usize,
    /// Meters stuck at their first reading for a day.
    pub stuck: usize,
    /// Meters with a one-slot clock skew for a day.
    pub skewed: usize,
    /// Meters that reported nothing for a day.
    pub unreported: usize,
}

impl FaultCounts {
    /// Increments the tally for `kind`.
    pub fn record(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Dropped => self.dropped += 1,
            FaultKind::NonFinite => self.non_finite += 1,
            FaultKind::Garbage => self.garbage += 1,
            FaultKind::Stuck => self.stuck += 1,
            FaultKind::Skewed => self.skewed += 1,
            FaultKind::Unreported => self.unreported += 1,
        }
    }

    /// Total faults across every category.
    pub fn total(&self) -> usize {
        self.dropped + self.non_finite + self.garbage + self.stuck + self.skewed + self.unreported
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.dropped += other.dropped;
        self.non_finite += other.non_finite;
        self.garbage += other.garbage;
        self.stuck += other.stuck;
        self.skewed += other.skewed;
        self.unreported += other.unreported;
    }
}

/// A component switching to a simpler backend after its primary failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FallbackRecord {
    /// The component that degraded (e.g. `"price-predictor"`).
    pub component: String,
    /// The backend given up on (e.g. `"svr"`).
    pub from: String,
    /// The backend switched to (e.g. `"seasonal-baseline"`).
    pub to: String,
    /// Why the primary was abandoned.
    pub reason: String,
}

impl FallbackRecord {
    /// Builds a record from its four parts.
    pub fn new(
        component: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
        reason: impl Into<String>,
    ) -> Self {
        Self {
            component: component.into(),
            from: from.into(),
            to: to.into(),
            reason: reason.into(),
        }
    }
}

/// Deterministic retry schedule for iterative subroutines (SMO/SVR
/// training).
///
/// Attempt `k` (zero-based) runs with an iteration budget of
/// `base · iteration_growth^k`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts allowed (≥ 1; 1 means no retries).
    pub max_attempts: usize,
    /// Multiplier applied to the iteration budget per retry (≥ 1).
    pub iteration_growth: f64,
}

impl RetryPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] for zero attempts or a shrinking growth
    /// factor.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.max_attempts == 0 {
            return Err(ValidateError::new("retry policy needs at least one attempt"));
        }
        if !(self.iteration_growth >= 1.0 && self.iteration_growth.is_finite()) {
            return Err(ValidateError::new("iteration growth must be finite and ≥ 1"));
        }
        Ok(())
    }

    /// A policy that never retries (single attempt, unchanged budget).
    pub fn single_attempt() -> Self {
        Self {
            max_attempts: 1,
            iteration_growth: 1.0,
        }
    }

    /// The iteration budget for zero-based attempt `attempt`.
    pub fn budget(&self, base: usize, attempt: usize) -> usize {
        let grown = base as f64 * self.iteration_growth.powi(attempt as i32);
        (grown.ceil() as usize).max(1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            iteration_growth: 2.0,
        }
    }
}

/// Watchdog budget for an iterative solve or training attempt.
///
/// A wedged solver must not stall a multi-week monitoring run: the budget
/// caps both the iteration count and the wall-clock time of one attempt.
/// Either limit may be absent (`None` = unlimited, the default, which is
/// also the only fully deterministic setting — a wall-clock deadline makes
/// the breach point machine-dependent, so journaled runs that must resume
/// bit-identically should prefer `max_iterations`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SolveBudget {
    /// Hard cap on iterations (SMO passes) across one attempt; `None`
    /// leaves the component's own limit in charge.
    pub max_iterations: Option<usize>,
    /// Wall-clock deadline in seconds for the whole solve (all retry
    /// attempts together); `None` disables the deadline.
    pub max_wall_secs: Option<f64>,
}

impl SolveBudget {
    /// No limits: components run to their own configured bounds.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Checks the budget is usable.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] for a zero iteration cap or a non-positive
    /// or non-finite deadline.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.max_iterations == Some(0) {
            return Err(ValidateError::new(
                "solve budget iteration cap must be at least 1",
            ));
        }
        if let Some(secs) = self.max_wall_secs {
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(ValidateError::new(format!(
                    "solve budget deadline must be finite and positive, got {secs}"
                )));
            }
        }
        Ok(())
    }

    /// Starts the wall clock for one solve; iterations are reported to the
    /// returned [`BudgetClock`] as they complete.
    pub fn start(&self) -> BudgetClock {
        BudgetClock {
            budget: *self,
            started: std::time::Instant::now(),
            elapsed_offset: 0.0,
        }
    }
}

/// A running [`SolveBudget`]: the deadline anchor plus the limits.
///
/// Not serializable by design — a clock is only meaningful within the
/// process that started it.
#[derive(Debug, Clone)]
pub struct BudgetClock {
    budget: SolveBudget,
    started: std::time::Instant,
    /// Seconds treated as already elapsed when the clock started. Zero in
    /// production; tests inject a positive offset to make wall-deadline
    /// breaches deterministic instead of racing a real `sleep` against a
    /// tiny deadline.
    elapsed_offset: f64,
}

impl BudgetClock {
    /// A clock that behaves as though `secs` seconds had already elapsed
    /// when it started. This is the deterministic-test hook: an expired
    /// deadline can be constructed outright, with no sleeping and no
    /// dependence on scheduler load.
    pub fn with_elapsed(budget: SolveBudget, secs: f64) -> Self {
        Self {
            budget,
            started: std::time::Instant::now(),
            elapsed_offset: secs,
        }
    }

    /// Returns the breach description if `iterations_done` or the elapsed
    /// wall clock has exhausted the budget, `None` while within it.
    pub fn breach(&self, iterations_done: usize) -> Option<String> {
        if let Some(cap) = self.budget.max_iterations {
            if iterations_done >= cap {
                return Some(format!("iteration budget exhausted ({cap})"));
            }
        }
        if let Some(secs) = self.budget.max_wall_secs {
            let elapsed = self.started.elapsed().as_secs_f64() + self.elapsed_offset;
            if elapsed >= secs {
                return Some(format!(
                    "wall-clock budget exhausted ({elapsed:.3}s elapsed, {secs}s allowed)"
                ));
            }
        }
        None
    }
}

/// One detection day's slice of the health ledger — the per-day timeline
/// row exported alongside run totals so degradation can be localized in
/// time, not just counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DayHealth {
    /// Zero-based detection-day offset.
    pub day: usize,
    /// Telemetry faults injected this day.
    pub faults: FaultCounts,
    /// Slots the sanitizer imputed this day.
    pub slots_imputed: usize,
    /// Retry attempts consumed this day.
    pub retries: usize,
    /// Component fallbacks taken this day.
    pub fallbacks: usize,
    /// Watchdog budget breaches this day.
    pub budget_breaches: usize,
    /// Meters whose quarantine breaker tripped open this day.
    pub quarantine_trips: usize,
    /// Meters whose quarantine breaker closed (recovered) this day.
    pub quarantine_recoveries: usize,
    /// Meters excluded from the aggregate (breaker open) at end of day.
    pub meters_quarantined: usize,
}

impl DayHealth {
    /// Builds the day-`day` row from cumulative ledgers snapshotted before
    /// and after the day, plus the end-of-day quarantined-meter count.
    pub fn delta(day: usize, before: &RunHealth, after: &RunHealth, meters_quarantined: usize) -> Self {
        let mut faults = after.faults_injected;
        let b = &before.faults_injected;
        faults.dropped -= b.dropped;
        faults.non_finite -= b.non_finite;
        faults.garbage -= b.garbage;
        faults.stuck -= b.stuck;
        faults.skewed -= b.skewed;
        faults.unreported -= b.unreported;
        Self {
            day,
            faults,
            slots_imputed: after.slots_imputed - before.slots_imputed,
            retries: after.retries_consumed - before.retries_consumed,
            fallbacks: after.fallbacks.len() - before.fallbacks.len(),
            budget_breaches: after.budget_breaches - before.budget_breaches,
            quarantine_trips: after.quarantine_trips - before.quarantine_trips,
            quarantine_recoveries: after.quarantine_recoveries - before.quarantine_recoveries,
            meters_quarantined,
        }
    }

    /// `true` when anything degraded during this day.
    pub fn degraded(&self) -> bool {
        self.faults.total() > 0
            || self.slots_imputed > 0
            || self.retries > 0
            || self.fallbacks > 0
            || self.budget_breaches > 0
            || self.quarantine_trips > 0
            || self.quarantine_recoveries > 0
            || self.meters_quarantined > 0
    }
}

/// Storage-layer fault tallies: what the durable sinks (journal, trace,
/// CSV exports, bench records) absorbed without failing the run.
///
/// These are *process-local* observability, like the trace sink's dropped
/// counter: supervision folds them into the run **result's** ledger at
/// finish time, never into journaled per-day state — so a run that
/// weathered storage faults still journals, exports, and resumes
/// bit-identically to one that did not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageFaultCounts {
    /// Journal append attempts beyond the first (rollback + retry).
    #[serde(default)]
    pub journal_retries: usize,
    /// Journal appends that exhausted their retry policy (hard errors).
    #[serde(default)]
    pub journal_append_failures: usize,
    /// Export/bench staging attempts beyond the first.
    #[serde(default)]
    pub export_retries: usize,
    /// Exports/bench writes that exhausted their retry policy.
    #[serde(default)]
    pub export_failures: usize,
    /// Trace events dropped by the sink (drop-and-count policy).
    #[serde(default)]
    pub trace_dropped: usize,
}

impl StorageFaultCounts {
    /// Total storage-fault incidents of every kind.
    pub fn total(&self) -> usize {
        self.journal_retries
            + self.journal_append_failures
            + self.export_retries
            + self.export_failures
            + self.trace_dropped
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &StorageFaultCounts) {
        self.journal_retries += other.journal_retries;
        self.journal_append_failures += other.journal_append_failures;
        self.export_retries += other.export_retries;
        self.export_failures += other.export_failures;
        self.trace_dropped += other.trace_dropped;
    }
}

/// A thread-safe, shareable [`StorageFaultCounts`] tally scoped to one run.
///
/// PR 6 tallied absorbed storage faults in a field private to each
/// `SupervisedRun`, which was correct for one run per process but wrong the
/// moment a fleet rebuilds a shard mid-run (the old tally died with the old
/// run value) or two shards share options (their faults would
/// cross-contaminate via any process-global alternative). The ledger fixes
/// both: `Clone` shares the same underlying tally (so a shard's supervisor
/// options can hand the *same* ledger to every rebuild of that shard), while
/// `Default`/[`StorageFaultLedger::new`] starts a fresh, fully independent
/// one (so distinct shards never see each other's faults).
///
/// Like [`StorageFaultCounts`] itself, the ledger is process-local
/// observability: it is merged into the run **result's** [`RunHealth`] at
/// finish time and never journaled, so fault-weathering runs still resume
/// bit-identically.
#[derive(Debug, Clone, Default)]
pub struct StorageFaultLedger {
    inner: std::sync::Arc<std::sync::Mutex<StorageFaultCounts>>,
}

impl StorageFaultLedger {
    /// A fresh ledger with zero tallies, shared by nobody.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when `other` is a clone of this ledger (same underlying
    /// tally), `false` for an independent ledger — the isolation predicate
    /// regression tests assert on.
    pub fn shares_with(&self, other: &StorageFaultLedger) -> bool {
        std::sync::Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Applies `tick` to the shared tally under the lock.
    ///
    /// A poisoned lock is recovered rather than propagated: the tally is
    /// plain counters, so the worst a panicking peer can leave behind is a
    /// half-updated count — still strictly more informative than losing the
    /// ledger.
    pub fn record(&self, tick: impl FnOnce(&mut StorageFaultCounts)) {
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tick(&mut guard);
    }

    /// Copies the current tally out.
    pub fn snapshot(&self) -> StorageFaultCounts {
        *self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Health ledger of one pipeline run: what was corrupted, what was
/// reconstructed, and which components had to degrade.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunHealth {
    /// Telemetry faults injected (or, outside simulations, detected at
    /// ingest) during the run.
    pub faults_injected: FaultCounts,
    /// Detector observation slots processed.
    pub slots_observed: usize,
    /// Slot values the sanitizer replaced with imputed ones (counted per
    /// sanitizer invocation; a slot re-sanitized after a mid-day
    /// recomputation counts again).
    pub slots_imputed: usize,
    /// Extra solver/trainer attempts consumed by retries.
    pub retries_consumed: usize,
    /// Every component fallback taken, in order.
    pub fallbacks: Vec<FallbackRecord>,
    /// Watchdog [`SolveBudget`] breaches (solves aborted by the deadline or
    /// iteration cap). Absent in pre-budget serialized ledgers.
    #[serde(default)]
    pub budget_breaches: usize,
    /// Per-meter quarantine breakers tripped open. Absent in pre-quarantine
    /// serialized ledgers.
    #[serde(default)]
    pub quarantine_trips: usize,
    /// Per-meter quarantine breakers closed again after probation. Absent
    /// in pre-quarantine serialized ledgers.
    #[serde(default)]
    pub quarantine_recoveries: usize,
    /// Storage-layer faults absorbed by the durable sinks. Absent in
    /// pre-vfs serialized ledgers; journaled per-day snapshots always
    /// carry the zero tally (see [`StorageFaultCounts`]).
    #[serde(default)]
    pub storage: StorageFaultCounts,
}

impl RunHealth {
    /// A clean ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when anything at all went wrong (faults seen, slots imputed,
    /// retries spent, or fallbacks taken).
    pub fn degraded(&self) -> bool {
        self.faults_injected.total() > 0
            || self.slots_imputed > 0
            || self.retries_consumed > 0
            || !self.fallbacks.is_empty()
            || self.budget_breaches > 0
            || self.quarantine_trips > 0
            || self.quarantine_recoveries > 0
            || self.storage.total() > 0
    }

    /// Records a component fallback.
    pub fn record_fallback(&mut self, record: FallbackRecord) {
        self.fallbacks.push(record);
    }

    /// Records `count` retry attempts consumed.
    pub fn record_retries(&mut self, count: usize) {
        self.retries_consumed += count;
    }

    /// Records `count` watchdog budget breaches.
    pub fn record_budget_breaches(&mut self, count: usize) {
        self.budget_breaches += count;
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &RunHealth) {
        self.faults_injected.merge(&other.faults_injected);
        self.slots_observed += other.slots_observed;
        self.slots_imputed += other.slots_imputed;
        self.retries_consumed += other.retries_consumed;
        self.fallbacks.extend(other.fallbacks.iter().cloned());
        self.budget_breaches += other.budget_breaches;
        self.quarantine_trips += other.quarantine_trips;
        self.quarantine_recoveries += other.quarantine_recoveries;
        self.storage.merge(&other.storage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_counts_record_and_total() {
        let mut counts = FaultCounts::default();
        counts.record(FaultKind::Dropped);
        counts.record(FaultKind::Dropped);
        counts.record(FaultKind::NonFinite);
        counts.record(FaultKind::Garbage);
        counts.record(FaultKind::Stuck);
        counts.record(FaultKind::Skewed);
        counts.record(FaultKind::Unreported);
        assert_eq!(counts.dropped, 2);
        assert_eq!(counts.total(), 7);
        let mut other = FaultCounts::default();
        other.record(FaultKind::Garbage);
        counts.merge(&other);
        assert_eq!(counts.garbage, 2);
        assert_eq!(counts.total(), 8);
    }

    #[test]
    fn retry_policy_validation() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy::single_attempt().validate().is_ok());
        let mut p = RetryPolicy::default();
        p.max_attempts = 0;
        assert!(p.validate().is_err());
        let mut p = RetryPolicy::default();
        p.iteration_growth = 0.5;
        assert!(p.validate().is_err());
        let mut p = RetryPolicy::default();
        p.iteration_growth = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn retry_policy_budget_escalates() {
        let policy = RetryPolicy {
            max_attempts: 3,
            iteration_growth: 2.0,
        };
        assert_eq!(policy.budget(10, 0), 10);
        assert_eq!(policy.budget(10, 1), 20);
        assert_eq!(policy.budget(10, 2), 40);
        // A zero base still yields a usable budget.
        assert_eq!(policy.budget(0, 0), 1);
    }

    #[test]
    fn solve_budget_validation_and_breach() {
        assert!(SolveBudget::unlimited().validate().is_ok());
        let unlimited = SolveBudget::unlimited();
        assert!(unlimited.max_iterations.is_none() && unlimited.max_wall_secs.is_none());
        assert!(SolveBudget {
            max_iterations: Some(0),
            max_wall_secs: None,
        }
        .validate()
        .is_err());
        assert!(SolveBudget {
            max_iterations: None,
            max_wall_secs: Some(0.0),
        }
        .validate()
        .is_err());
        assert!(SolveBudget {
            max_iterations: None,
            max_wall_secs: Some(f64::NAN),
        }
        .validate()
        .is_err());

        let clock = SolveBudget {
            max_iterations: Some(5),
            max_wall_secs: None,
        }
        .start();
        assert!(clock.breach(4).is_none());
        assert!(clock.breach(5).is_some());

        // An expired deadline breaches immediately; injecting the elapsed
        // time keeps this deterministic under any scheduler load.
        let clock = BudgetClock::with_elapsed(
            SolveBudget {
                max_iterations: None,
                max_wall_secs: Some(0.5),
            },
            1.0,
        );
        assert!(clock.breach(0).is_some());

        // An injected elapsed time short of the deadline does not breach.
        let clock = BudgetClock::with_elapsed(
            SolveBudget {
                max_iterations: None,
                max_wall_secs: Some(3600.0),
            },
            1.0,
        );
        assert!(clock.breach(0).is_none());

        // Unlimited never breaches.
        let clock = SolveBudget::unlimited().start();
        assert!(clock.breach(usize::MAX - 1).is_none());
    }

    #[test]
    fn day_health_delta_and_degraded() {
        let mut before = RunHealth::new();
        before.slots_imputed = 3;
        before.faults_injected.record(FaultKind::Dropped);
        let mut after = before.clone();
        after.slots_imputed = 7;
        after.faults_injected.record(FaultKind::Garbage);
        after.record_retries(2);
        after.record_budget_breaches(1);
        after.quarantine_trips += 1;

        let day = DayHealth::delta(4, &before, &after, 2);
        assert_eq!(day.day, 4);
        assert_eq!(day.slots_imputed, 4);
        assert_eq!(day.faults.garbage, 1);
        assert_eq!(day.faults.dropped, 0);
        assert_eq!(day.retries, 2);
        assert_eq!(day.budget_breaches, 1);
        assert_eq!(day.quarantine_trips, 1);
        assert_eq!(day.meters_quarantined, 2);
        assert!(day.degraded());
        assert!(!DayHealth::default().degraded());
    }

    #[test]
    fn run_health_deserializes_without_new_counters() {
        // A ledger serialized before the budget/quarantine counters existed
        // must still load (the `#[serde(default)]` contract).
        let json = "{\"faults_injected\":{\"dropped\":1,\"non_finite\":0,\"garbage\":0,\
                     \"stuck\":0,\"skewed\":0,\"unreported\":0},\"slots_observed\":24,\
                     \"slots_imputed\":2,\"retries_consumed\":0,\"fallbacks\":[]}";
        let health: RunHealth = serde_json::from_str(json).expect("legacy ledger should load");
        assert_eq!(health.slots_imputed, 2);
        assert_eq!(health.budget_breaches, 0);
        assert_eq!(health.quarantine_trips, 0);
    }

    #[test]
    fn storage_ledger_clones_share_and_new_ledgers_do_not() {
        let ledger = StorageFaultLedger::new();
        let shared = ledger.clone();
        let independent = StorageFaultLedger::new();
        assert!(ledger.shares_with(&shared));
        assert!(!ledger.shares_with(&independent));

        shared.record(|c| c.journal_retries += 2);
        ledger.record(|c| c.trace_dropped += 1);
        independent.record(|c| c.journal_append_failures += 5);

        let seen = ledger.snapshot();
        assert_eq!(seen.journal_retries, 2);
        assert_eq!(seen.trace_dropped, 1);
        assert_eq!(seen.journal_append_failures, 0, "independent ledger leaked in");
        assert_eq!(independent.snapshot().journal_append_failures, 5);
    }

    #[test]
    fn run_health_degradation_flag() {
        let mut health = RunHealth::new();
        assert!(!health.degraded());
        health.slots_observed = 24;
        assert!(!health.degraded());
        health.record_retries(1);
        assert!(health.degraded());

        let mut other = RunHealth::new();
        other.faults_injected.record(FaultKind::Dropped);
        other.record_fallback(FallbackRecord::new(
            "battery-optimizer",
            "cross-entropy",
            "coordinate-descent",
            "did not converge",
        ));
        health.merge(&other);
        assert_eq!(health.faults_injected.dropped, 1);
        assert_eq!(health.fallbacks.len(), 1);
        assert_eq!(health.fallbacks[0].to, "coordinate-descent");
    }
}
