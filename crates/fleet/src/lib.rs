//! Supervised multi-community fleet: shard isolation, a typed failure
//! ladder, and quarantine circuit breakers (DESIGN.md §13).
//!
//! The paper evaluates detection for one community; the roadmap's resident
//! service shards across many. That shape is only viable if one
//! community's failure cannot take down the rest — so this crate drives K
//! communities as independent **shards**, each with its own
//! [`SupervisedRun`](nms_sim::SupervisedRun), journal path, per-`(community, seed, day)` ChaCha8
//! streams, and (via [`SupervisedOptions`]) its own storage and fault
//! ledger. Shards advance in day lockstep through
//! [`nms_par::par_map_outcomes`], the non-rethrowing map: a shard that
//! panics or errors yields a per-item verdict instead of killing the
//! process, and the supervisor escalates it up a typed ladder:
//!
//! 1. **Retry** the day (bounded linear backoff, rebuilding the shard from
//!    its journal so a half-applied day can never double-apply);
//! 2. **Resume** the shard wholesale from its journal (the PR 2/PR 6
//!    kill-and-resume machinery), optionally after a storage-revival hook;
//! 3. **Quarantine** the community: the breaker trips, remaining days are
//!    counted as degraded suspect-floor verdicts, and the fleet recovers
//!    whatever result the journaled prefix supports.
//!
//! A per-shard day-close deadline ([`SolveBudget`] via the injectable
//! [`BudgetClock`]) converts hangs into ladder
//! steps. Everything supervision does is tallied in a
//! [`FleetHealth`] ledger and mirrored to
//! [`nms_obs::names::fleet`] metrics.
//!
//! ## Determinism contract
//!
//! Shard streams are *derived*, never drawn: shard `i` seeds every day
//! from `(spec.seed, day)` alone, and [`shard_seed`] derives `spec.seed`
//! from `(fleet_seed, community_index)` by pure mixing. No shard's
//! schedule, failure, retry, resume, or quarantine consumes another
//! shard's randomness, so a healthy shard is bit-identical to the same
//! community run solo — at any thread count, with any subset of its
//! siblings panicking, stalling, or losing their disks
//! (`tests/fleet_chaos.rs` is the proof).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod supervisor;

use std::path::PathBuf;
use std::sync::Arc;

use nms_obs::{NoopRecorder, Recorder};
use nms_par::Parallelism;
use nms_sim::{LongTermRunConfig, PaperScenario, SupervisedOptions};
use nms_types::{BudgetClock, FleetHealth, SolveBudget, ValidateError};
use serde::{Deserialize, Serialize};

pub use supervisor::{run_fleet, FleetReport, ShardReport};

/// One community's slot in the fleet: what to run, under which seed, and
/// where its journal lives.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Human-readable community label (lands in the health ledger).
    pub community: String,
    /// The community to simulate.
    pub scenario: PaperScenario,
    /// The detection run configuration.
    pub config: LongTermRunConfig,
    /// The shard's own seed; derive it with [`shard_seed`] so communities
    /// stay decorrelated without sharing any RNG stream.
    pub seed: u64,
    /// Where this shard journals completed days. Every shard must get its
    /// own path (on its own [`SupervisedOptions::vfs`] if isolation from
    /// sibling storage faults matters).
    pub journal_path: PathBuf,
}

impl ShardSpec {
    /// Builds a spec with the seed derived from `(fleet_seed, index)`.
    pub fn derived(
        community: impl Into<String>,
        scenario: PaperScenario,
        config: LongTermRunConfig,
        fleet_seed: u64,
        index: usize,
        journal_path: impl Into<PathBuf>,
    ) -> Self {
        Self {
            community: community.into(),
            scenario,
            config,
            seed: shard_seed(fleet_seed, index),
            journal_path: journal_path.into(),
        }
    }
}

/// The per-shard seed for community `index` of a fleet seeded with
/// `fleet_seed`.
///
/// A splitmix64-style finalizer: seeds are *derived* by mixing, never drawn
/// from a shared RNG, so adding, removing, or quarantining one shard can
/// never shift a sibling's stream — the property the chaos harness's
/// healthy-shard-equals-solo-run assertion rests on.
pub fn shard_seed(fleet_seed: u64, index: usize) -> u64 {
    let mut z = fleet_seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((index as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The failure ladder's per-rung bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetLadder {
    /// Day-level retry attempts (rung 1) before escalating to a resume.
    /// Zero skips the rung entirely.
    #[serde(default)]
    pub max_day_retries: usize,
    /// Linear backoff unit in milliseconds: retry attempt `k` (1-based)
    /// sleeps `k · retry_backoff_ms` before re-attempting.
    #[serde(default)]
    pub retry_backoff_ms: u64,
    /// Full journal resumes (rung 2) allowed per shard across the whole
    /// run before the breaker trips. Zero escalates failures straight to
    /// quarantine.
    #[serde(default)]
    pub max_resumes: usize,
    /// Consecutive day-close deadline breaches tolerated before the shard
    /// is quarantined. The breached days themselves still close — the
    /// deadline converts *slowness* into ladder pressure, it does not
    /// discard completed work.
    #[serde(default)]
    pub max_deadline_breaches: usize,
}

impl Default for FleetLadder {
    fn default() -> Self {
        Self {
            max_day_retries: 2,
            retry_backoff_ms: 2,
            max_resumes: 2,
            max_deadline_breaches: 2,
        }
    }
}

impl FleetLadder {
    /// Checks the ladder is usable.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] for an unbounded backoff (over a minute
    /// per step — almost certainly a unit mistake).
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.retry_backoff_ms > 60_000 {
            return Err(ValidateError::new(
                "retry backoff over 60s per step — milliseconds expected",
            ));
        }
        Ok(())
    }
}

/// Fleet-wide supervision configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The failure ladder bounds.
    pub ladder: FleetLadder,
    /// Per-shard day-close deadline. Only `max_wall_secs` is meaningful
    /// here (a day close has no iteration count); [`SolveBudget::unlimited`]
    /// disables the watchdog.
    pub day_deadline: SolveBudget,
    /// Worker threads driving shards concurrently. Results are
    /// bit-identical at any setting.
    pub parallelism: Parallelism,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            ladder: FleetLadder::default(),
            day_deadline: SolveBudget::unlimited(),
            parallelism: Parallelism::default(),
        }
    }
}

impl FleetConfig {
    /// Validates every knob.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] from the first invalid component.
    pub fn validate(&self) -> Result<(), ValidateError> {
        self.ladder.validate()?;
        self.day_deadline.validate()?;
        self.parallelism
            .validate()
            .map_err(ValidateError::new)?;
        Ok(())
    }
}

/// A chaos/test hook observing `(shard_index, day)` just before the day is
/// stepped; panicking here simulates an arbitrary shard-code panic.
pub type DayHook = Arc<dyn Fn(usize, usize) + Send + Sync>;
/// A clock factory for the day-close deadline of `(shard_index, day)`;
/// tests inject [`BudgetClock::with_elapsed`] to make breaches
/// deterministic.
pub type ClockFor = Arc<dyn Fn(usize, usize, SolveBudget) -> BudgetClock + Send + Sync>;
/// A hook run before a shard resume (rung 2), e.g. to revive a killed
/// `FaultVfs` the way a reboot revives a disk.
pub type BeforeResume = Arc<dyn Fn(usize) + Send + Sync>;
/// An observer called from the **sequential** supervisor section after
/// each day's ladder settles, with `(day, fleet_health_snapshot)`. This is
/// the publication point for live telemetry (`nms-serve` snapshots): it
/// runs at a quiescence point — no shard worker is in flight — so a
/// publisher may render registries and health without racing the run, and
/// nothing it does can feed back into shard randomness.
pub type DayCloseObserver = Arc<dyn Fn(usize, &FleetHealth) + Send + Sync>;

/// Injectable fleet plumbing: per-shard supervised-run options, the fleet
/// recorder, and the chaos hooks. `Default` is production plumbing — real
/// filesystem per shard, no recorder, no hooks.
#[derive(Clone)]
pub struct FleetOptions {
    /// Per-shard [`SupervisedOptions`], indexed like the spec list. Shards
    /// beyond the vector's length (or all shards, when empty) get
    /// `SupervisedOptions::default()`. Each entry's clone is reused across
    /// every rebuild of its shard, so its storage-fault ledger accumulates
    /// across the shard's incarnations while staying invisible to
    /// siblings.
    pub shard_options: Vec<SupervisedOptions>,
    /// Fleet-level telemetry (ladder counters, day-close histograms,
    /// quarantine gauge — see [`nms_obs::names::fleet`]). Recorded only
    /// from the sequential supervisor section, never inside shard workers.
    pub recorder: Arc<dyn Recorder>,
    /// Chaos: observe (or panic inside) a shard's day closure.
    pub day_hook: Option<DayHook>,
    /// Chaos: replace the day-close deadline clock.
    pub clock_for: Option<ClockFor>,
    /// Chaos/recovery: run before a rung-2 resume of a shard.
    pub before_resume: Option<BeforeResume>,
    /// Telemetry: observe each day close from the sequential supervisor
    /// section (see [`DayCloseObserver`]).
    pub on_day_close: Option<DayCloseObserver>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            shard_options: Vec::new(),
            recorder: Arc::new(NoopRecorder),
            day_hook: None,
            clock_for: None,
            before_resume: None,
            on_day_close: None,
        }
    }
}

impl std::fmt::Debug for FleetOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetOptions")
            .field("shard_options", &self.shard_options.len())
            .field("day_hook", &self.day_hook.is_some())
            .field("clock_for", &self.clock_for.is_some())
            .field("before_resume", &self.before_resume.is_some())
            .field("on_day_close", &self.on_day_close.is_some())
            .finish_non_exhaustive()
    }
}

impl FleetOptions {
    /// Production plumbing with a recorder attached.
    pub fn recorded(recorder: Arc<dyn Recorder>) -> Self {
        Self {
            recorder,
            ..Self::default()
        }
    }

    /// The options for shard `index` (a fresh default beyond the vector).
    pub(crate) fn options_for(&self, index: usize) -> SupervisedOptions {
        self.shard_options
            .get(index)
            .cloned()
            .unwrap_or_default()
    }
}

/// A fleet-level configuration error. Shard *runtime* failures never
/// surface here — they are contained by the ladder and reported in
/// [`FleetReport::health`](supervisor::FleetReport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The fleet was asked to run zero shards.
    NoShards,
    /// A configuration knob failed validation.
    Config(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoShards => write!(f, "fleet needs at least one shard"),
            FleetError::Config(detail) => write!(f, "invalid fleet configuration: {detail}"),
        }
    }
}

impl std::error::Error for FleetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_decorrelated_and_stable() {
        let a = shard_seed(23, 0);
        let b = shard_seed(23, 1);
        let c = shard_seed(24, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, shard_seed(23, 0), "derivation must be pure");
        // Neighboring indices differ in many bits, not just the low ones.
        assert!((a ^ b).count_ones() > 8, "{a:#x} vs {b:#x}");
    }

    #[test]
    fn ladder_and_config_validate() {
        assert!(FleetLadder::default().validate().is_ok());
        let mut ladder = FleetLadder::default();
        ladder.retry_backoff_ms = 120_000;
        assert!(ladder.validate().is_err());
        assert!(FleetConfig::default().validate().is_ok());
        let mut config = FleetConfig::default();
        config.parallelism = Parallelism::new(0);
        assert!(config.validate().is_err());
    }

    #[test]
    fn ladder_serde_defaults_to_zeroed_rungs() {
        let ladder: FleetLadder = serde_json::from_str("{}").expect("empty ladder loads");
        assert_eq!(ladder.max_day_retries, 0);
        assert_eq!(ladder.max_resumes, 0);
        let roundtrip: FleetLadder =
            serde_json::from_str(&serde_json::to_string(&FleetLadder::default()).unwrap())
                .unwrap();
        assert_eq!(roundtrip, FleetLadder::default());
    }

    #[test]
    fn options_for_pads_with_defaults() {
        let options = FleetOptions::default();
        let first = options.options_for(0);
        let second = options.options_for(7);
        assert!(!first.storage.shares_with(&second.storage));
        let debug = format!("{options:?}");
        assert!(debug.contains("shard_options"), "{debug}");
    }
}
