//! Observability layer for the detection pipeline (DESIGN.md §10).
//!
//! Every stage of the pipeline — game rounds, cross-entropy solves, DP
//! sweeps, per-day detection phases, sanitize/quarantine transitions,
//! journal appends, parallel workers — reports what it did through one
//! narrow [`Recorder`] trait. The trait has three kinds of signal:
//!
//! - **counters/gauges/histograms** (`add` / `gauge` / `observe`) —
//!   order-independent aggregations, safe to record from parallel workers;
//! - **structured events** (`event`) — one [`TraceEvent`] per interesting
//!   thing that happened, written as hash-sealed JSONL by [`JsonlTrace`]
//!   (the same sealed-line discipline as the run journal);
//! - **nothing** — the default. Every recorder method is a provided no-op,
//!   and [`NoopRecorder`] is what every pre-existing entry point threads
//!   through, so recording is strictly opt-in.
//!
//! ## The RNG-neutrality contract
//!
//! Recording must never change *results*, only telemetry:
//!
//! 1. No recorder method receives or draws from an RNG, and no
//!    instrumented call site consumes an extra draw on behalf of
//!    recording — the caller-visible RNG stream is bit-identical with any
//!    recorder, active or not.
//! 2. Recorded values either are deterministic quantities read from
//!    results the stage already produced (rounds, iterations, cache
//!    tallies) or are wall-clock timings, which exist only inside the
//!    telemetry and never feed back into control flow.
//! 3. Inside parallel regions work records through the deferred view of
//!    the recorder that `nms-par` gives it: the commutative metric methods
//!    pass straight through, so metric *totals* stay reproducible, while
//!    events and gauges replay on the calling thread in item order after
//!    the join. The per-worker load split is the one thing allowed to vary
//!    run-to-run.
//!
//! `tests/obs_determinism.rs` asserts the consequence: an active
//! [`JsonlTrace`]+[`MetricsRegistry`] recorder produces bit-identical
//! detection results to [`NoopRecorder`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod names;
pub mod span;
pub mod trace;

use std::sync::Arc;
use std::time::Instant;

pub use metrics::{Histogram, MetricsRegistry};
pub use span::{parse_collapsed, SpanProfile, SpanRecorder};
pub use trace::{
    read_trace, read_trace_on, seal_event, JsonlTrace, TraceError, TraceEvent, TraceField,
    TraceLabel, TRACE_VERSION,
};

/// A sink for pipeline telemetry. All methods are provided no-ops, so a
/// sink implements only what it cares about; all methods take `&self`, so
/// one recorder can be shared across worker threads (`Send + Sync` is part
/// of the trait's contract for exactly that reason).
pub trait Recorder: Send + Sync {
    /// `true` when [`Recorder::event`] goes somewhere. Call sites use this
    /// to skip building event payloads for no-op recorders, keeping the
    /// instrumented hot paths free even of formatting cost.
    fn enabled(&self) -> bool {
        false
    }

    /// Records a structured event.
    fn event(&self, event: &TraceEvent) {
        let _ = event;
    }

    /// Adds `by` to the counter `name`.
    fn add(&self, name: &str, by: u64) {
        let _ = (name, by);
    }

    /// Sets the gauge `name` to `value`.
    fn gauge(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Records one observation of `value` into the histogram `name`.
    fn observe(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Enters a named profiling span. Spans nest: a recorder that builds a
    /// span tree (see [`SpanRecorder`]) pushes `name` onto its stack. Like
    /// every other method this is a provided no-op, so pre-existing
    /// recorders are unaffected. Prefer the RAII [`span()`] helper over
    /// calling enter/exit by hand — it exits on every early-return path.
    fn span_enter(&self, name: &'static str) {
        let _ = name;
    }

    /// Exits the named span entered by the matching
    /// [`Recorder::span_enter`].
    fn span_exit(&self, name: &'static str) {
        let _ = name;
    }
}

/// RAII guard returned by [`span()`]: exits its span on drop, so `?` and
/// early returns cannot leave the profiler's stack unbalanced.
pub struct SpanGuard<'a> {
    rec: &'a dyn Recorder,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.span_exit(self.name);
    }
}

/// Enters a profiling span on `rec`, exiting it when the guard drops.
///
/// Span names are `&'static str` by design: spans label *code regions*
/// (phases, rungs, solver stages), not data, so the set of names is finite
/// and known at compile time — and the no-op path stays free of any
/// allocation or formatting.
pub fn span<'a>(rec: &'a dyn Recorder, name: &'static str) -> SpanGuard<'a> {
    rec.span_enter(name);
    SpanGuard { rec, name }
}

/// The do-nothing recorder every pre-observability entry point threads
/// through. Zero state, zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Fans every signal out to several sinks — e.g. a [`JsonlTrace`] for
/// events plus a [`MetricsRegistry`] for aggregates.
pub struct Tee {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl Tee {
    /// Builds a tee over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        Self { sinks }
    }
}

impl Recorder for Tee {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|sink| sink.enabled())
    }

    fn event(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.event(event);
        }
    }

    fn add(&self, name: &str, by: u64) {
        for sink in &self.sinks {
            sink.add(name, by);
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        for sink in &self.sinks {
            sink.gauge(name, value);
        }
    }

    fn observe(&self, name: &str, value: f64) {
        for sink in &self.sinks {
            sink.observe(name, value);
        }
    }

    fn span_enter(&self, name: &'static str) {
        for sink in &self.sinks {
            sink.span_enter(name);
        }
    }

    fn span_exit(&self, name: &'static str) {
        for sink in &self.sinks {
            sink.span_exit(name);
        }
    }
}

/// A wall-clock stopwatch for phase timings. Timings recorded through this
/// are telemetry only — nothing in the pipeline reads them back, which is
/// what keeps `Instant::now()` off the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the watch.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.add("x", 1);
        rec.gauge("x", 1.0);
        rec.observe("x", 1.0);
        rec.event(&TraceEvent::new("x"));
    }

    #[test]
    fn tee_fans_out_and_reports_enabled() {
        let metrics = MetricsRegistry::new();
        let tee = Tee::new(vec![Arc::new(metrics.clone())]);
        assert!(!tee.enabled(), "metrics-only tee has no event sink");
        tee.add("hits", 2);
        tee.add("hits", 3);
        tee.gauge("level", 0.5);
        tee.observe("secs", 0.1);
        assert_eq!(metrics.counter("hits"), 5);
        assert_eq!(metrics.gauge_value("level"), Some(0.5));
    }

    #[test]
    fn stopwatch_moves_forward() {
        let watch = Stopwatch::start();
        assert!(watch.secs() >= 0.0);
    }
}
