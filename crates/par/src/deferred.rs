//! The recorder forked work sees (DESIGN.md §9, §10).

use std::sync::{Mutex, PoisonError};

use nms_obs::{Recorder, TraceEvent};

/// A view of a recorder for work that runs off the calling thread's
/// sequential order. Commutative metrics (`add`, `observe`) go straight to
/// the underlying recorder; order-sensitive signals (events, gauges) are
/// buffered and replayed on the calling thread after the join, so the
/// trace keeps the sequential order and no event leaves a parallel region.
/// Spans are dropped: the span tree profiles the calling thread only.
pub(crate) struct Deferred<'a> {
    rec: &'a dyn Recorder,
    buffered: Mutex<Vec<DeferredSignal>>,
}

enum DeferredSignal {
    Event(TraceEvent),
    Gauge(String, f64),
}

impl<'a> Deferred<'a> {
    /// A view of `rec` with nothing buffered yet.
    pub(crate) fn new(rec: &'a dyn Recorder) -> Self {
        Self {
            rec,
            buffered: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, signal: DeferredSignal) {
        self.buffered
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(signal);
    }

    /// Emits the buffered signals on `rec`, in the order they were made.
    pub(crate) fn replay(self) {
        let buffered = self
            .buffered
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for signal in buffered {
            match signal {
                DeferredSignal::Event(event) => self.rec.event(&event),
                DeferredSignal::Gauge(name, value) => self.rec.gauge(&name, value),
            }
        }
    }
}

impl Recorder for Deferred<'_> {
    fn enabled(&self) -> bool {
        self.rec.enabled()
    }

    fn event(&self, event: &TraceEvent) {
        self.push(DeferredSignal::Event(event.clone()));
    }

    fn add(&self, name: &str, by: u64) {
        self.rec.add(name, by);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.push(DeferredSignal::Gauge(name.to_string(), value));
    }

    fn observe(&self, name: &str, value: f64) {
        self.rec.observe(name, value);
    }
}
