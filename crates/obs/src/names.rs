//! Well-known metric names shared between emitters and dashboards.
//!
//! Metric names are stringly-typed at the [`crate::Recorder`] seam by
//! design (the trait stays object-safe and zero-dependency), which makes
//! typos silent: an emitter and an exposition consumer that disagree on a
//! name simply never meet. The constants here are the contract for the
//! names that cross crate boundaries — emitters record through them and
//! tests assert on them, so a rename is a compile error instead of a
//! dashboard that quietly flatlines.

/// Fleet-supervision metrics emitted by the `nms-fleet` shard runner.
pub mod fleet {
    /// Counter: shard-days closed successfully (any rung).
    pub const DAYS_CLOSED: &str = "fleet_days_closed";
    /// Counter: day-level retry attempts consumed (ladder rung 1).
    pub const DAY_RETRIES: &str = "fleet_day_retries";
    /// Counter: full journal resumes, i.e. shard restarts (ladder rung 2).
    pub const SHARD_RESTARTS: &str = "fleet_shard_restarts";
    /// Counter: shard quarantines, i.e. breaker trips (ladder rung 3).
    pub const QUARANTINES: &str = "fleet_quarantines";
    /// Counter: day closes that breached the fleet's day-close deadline.
    pub const DEADLINE_BREACHES: &str = "fleet_deadline_breaches";
    /// Counter: days covered by degraded suspect-floor verdicts instead of
    /// real detection.
    pub const SUSPECT_FLOOR_DAYS: &str = "fleet_suspect_floor_days";
    /// Counter: shard panics contained by the supervisor.
    pub const PANICS_CONTAINED: &str = "fleet_panics_contained";
    /// Histogram: wall-clock seconds to close one shard-day.
    pub const DAY_CLOSE_SECONDS: &str = "fleet_day_close_seconds";
    /// Gauge: shards currently quarantined.
    pub const SHARDS_QUARANTINED: &str = "fleet_shards_quarantined";
    /// Gauge: shards currently active (not quarantined, not finished).
    pub const SHARDS_ACTIVE: &str = "fleet_shards_active";
}

/// Price-predictor training metrics emitted by the `nms-sim` detector
/// calibration, one sample per `train_robust_budgeted` fit (the backtest
/// days', then the full history's).
pub mod forecast {
    /// Counter: SMO fits run (backtest days + 1 per calibration).
    pub const SMO_FITS: &str = "forecast_smo_fits";
    /// Counter: SMO passes those fits ran, counted from `β = 0`.
    pub const SMO_PASSES: &str = "forecast_smo_passes";
    /// Counter: fits that dropped to the seasonal-mean baseline.
    pub const SMO_FALLBACKS: &str = "forecast_smo_fallbacks";
}
