//! Forked regions that keep the sequential trace (DESIGN.md §15).
//!
//! Two places run independent work beside the calling thread: a detection
//! day forks its detector prediction beside the market clearing
//! ([`fork_day`]), and the training epoch clears its bootstrap days on the
//! calling thread and one helper ([`fork_map`]). Both hand the forked work
//! a [`Deferred`] view of the run's recorder and settle errors and panics
//! as the sequential order would, so a forked run's results, counters and
//! event sequence equal the sequential run's.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use nms_obs::{span, Recorder, TraceEvent};

/// The recorder forked work sees (DESIGN.md §15). Commutative metrics
/// (`add`, `observe`) go straight to the underlying recorder;
/// order-sensitive signals (events, gauges) are buffered and replayed on
/// the calling thread after the join, so the trace keeps the sequential
/// order and no event leaves a parallel region. Spans are dropped: the
/// span tree profiles the calling thread only.
struct Deferred<'a> {
    rec: &'a dyn Recorder,
    buffered: Mutex<Vec<DeferredSignal>>,
}

enum DeferredSignal {
    Event(TraceEvent),
    Gauge(String, f64),
}

impl<'a> Deferred<'a> {
    fn new(rec: &'a dyn Recorder) -> Self {
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
    fn replay(self) {
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

/// Where a detection day runs the detector's day-ahead prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fork {
    /// On one scoped helper thread, beside the clearing (every run).
    Overlapped,
    /// To completion on the calling thread before the clearing starts, its
    /// outcome resolved as the overlapped day resolves it: the sequential
    /// reference the overlapped day is checked against.
    JoinedFirst,
}

/// Runs one detection day's two independent halves: `front` (clearing,
/// attack, realization) on the calling thread with `rec`, and, when the
/// run has a detector, `prediction` with a [`Deferred`] view of `rec`.
/// Without a prediction no thread is spawned.
///
/// The outcome is the one running `front` and then `prediction` in
/// sequence would give:
///
/// - `front`'s error wins (in sequence the prediction would not have run);
/// - a prediction panic is re-raised with its original payload, so a fleet
///   supervisor reports the prediction's own message;
/// - then the prediction's error, after its buffered telemetry replays.
///
/// The `prediction` span wraps only the join, so it times the calling
/// thread's wait for the helper.
pub(crate) fn fork_day<A, B, E, F, P>(
    front: F,
    prediction: Option<P>,
    fork: Fork,
    rec: &dyn Recorder,
) -> Result<(A, Option<B>), E>
where
    F: FnOnce() -> Result<A, E>,
    P: FnOnce(&dyn Recorder) -> Result<B, E> + Send,
    B: Send,
    E: Send,
{
    let Some(prediction) = prediction else {
        return Ok((front()?, None));
    };
    let deferred = Deferred::new(rec);
    let (front, predicted) = match fork {
        Fork::Overlapped => std::thread::scope(|scope| {
            let helper = scope.spawn(|| prediction(&deferred));
            let front = front();
            let _wait = span(rec, "prediction");
            (front, helper.join())
        }),
        Fork::JoinedFirst => {
            let predicted = {
                let _span = span(rec, "prediction");
                catch_unwind(AssertUnwindSafe(|| prediction(&deferred)))
            };
            (front(), predicted)
        }
    };
    let front = front?;
    let predicted = predicted.unwrap_or_else(|payload| resume_unwind(payload));
    deferred.replay();
    Ok((front, Some(predicted?)))
}

/// What one item of [`fork_map`] left behind: its index, its outcome (or
/// panic payload), and its buffered telemetry.
type Finished<'a, R, E> = (usize, std::thread::Result<Result<R, E>>, Deferred<'a>);

/// Maps `f` over `items` on the calling thread and, on a multi-core host,
/// one scoped helper, returning the results in input order. Each item
/// records through its own [`Deferred`] view of `rec`.
///
/// The outcome is the one the plain loop `for (i, item) in items` would
/// give:
///
/// - both threads pull indices from one shared counter, in increasing
///   order, and stop pulling after any failure, so every item below the
///   lowest failing one has run;
/// - the items' buffered events and gauges replay in index order after
///   the join, up to the lowest failing item;
/// - a panic there is re-raised with its original payload, before that
///   item's telemetry replays;
/// - an error there is returned after that item's telemetry replays.
///
/// Items after the lowest failure that were already running finish, and
/// their counters and observations have been recorded; their events are
/// dropped. On a 1-core host ([`nms_par::host_threads`]) nothing is
/// spawned and the calling thread runs every item.
pub(crate) fn fork_map<T, R, E, F>(items: &[T], rec: &dyn Recorder, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T, &dyn Recorder) -> Result<R, E> + Sync,
{
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        let mut finished: Vec<Finished<'_, R, E>> = Vec::new();
        while !failed.load(Ordering::SeqCst) {
            let index = next.fetch_add(1, Ordering::SeqCst);
            let Some(item) = items.get(index) else {
                break;
            };
            let deferred = Deferred::new(rec);
            let outcome = catch_unwind(AssertUnwindSafe(|| f(index, item, &deferred)));
            if !matches!(outcome, Ok(Ok(_))) {
                failed.store(true, Ordering::SeqCst);
            }
            finished.push((index, outcome, deferred));
        }
        finished
    };
    let mut finished = if nms_par::host_threads() > 1 && items.len() > 1 {
        std::thread::scope(|scope| {
            let helper = scope.spawn(work);
            let mut finished = work();
            finished.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
            finished
        })
    } else {
        work()
    };
    finished.sort_unstable_by_key(|&(index, ..)| index);
    let mut results = Vec::with_capacity(finished.len());
    for (_, outcome, deferred) in finished {
        let result = outcome.unwrap_or_else(|payload| resume_unwind(payload));
        deferred.replay();
        results.push(result?);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_obs::NoopRecorder;

    /// Records event kinds and counter names in arrival order.
    #[derive(Default)]
    struct Log(Mutex<Vec<String>>);

    impl Recorder for Log {
        fn enabled(&self) -> bool {
            true
        }

        fn event(&self, event: &TraceEvent) {
            self.0.lock().unwrap().push(event.kind.clone());
        }

        fn add(&self, name: &str, _by: u64) {
            self.0.lock().unwrap().push(name.to_string());
        }
    }

    type Prediction = fn(&dyn Recorder) -> Result<u32, String>;

    #[test]
    fn fork_day_reraises_a_prediction_panic_with_its_own_message() {
        // The fleet ladder isolates shards through `par_map_outcomes`; the
        // verdict must carry the prediction's payload, not the scope's
        // generic "a scoped thread panicked".
        for fork in [Fork::Overlapped, Fork::JoinedFirst] {
            let outcomes = nms_par::par_map_outcomes(1, &[()], &NoopRecorder, |_, _| {
                let prediction: Prediction = |_| panic!("prediction exploded");
                fork_day(|| Ok::<_, String>(1), Some(prediction), fork, &NoopRecorder)
            });
            match &outcomes[0] {
                nms_par::Outcome::Panicked(message) => {
                    assert!(
                        message.contains("prediction exploded"),
                        "{fork:?}: {message}"
                    );
                    assert!(!message.contains("scoped thread"), "{fork:?}: {message}");
                }
                other => panic!("{fork:?}: expected a panic verdict, got {other:?}"),
            }
        }
    }

    #[test]
    fn fork_day_surfaces_errors_in_sequential_order() {
        for fork in [Fork::Overlapped, Fork::JoinedFirst] {
            let failing: Prediction = |_| Err("prediction".into());
            let panicking: Prediction = |_| panic!("unreachable in sequence");
            let front_fails = || Err::<u32, _>("clearing".to_string());
            assert_eq!(
                fork_day(front_fails, Some(failing), fork, &NoopRecorder),
                Err("clearing".into()),
                "{fork:?}: both fail, the clearing's error wins"
            );
            assert_eq!(
                fork_day(front_fails, Some(panicking), fork, &NoopRecorder),
                Err("clearing".into()),
                "{fork:?}: in sequence the prediction never runs after a failed clearing"
            );
            assert_eq!(
                fork_day(|| Ok::<_, String>(1), Some(failing), fork, &NoopRecorder),
                Err("prediction".into())
            );
            let ok: Prediction = |_| Ok(2);
            assert_eq!(
                fork_day(|| Ok::<_, String>(1), Some(ok), fork, &NoopRecorder),
                Ok((1, Some(2)))
            );
            assert_eq!(
                fork_day(
                    || Ok::<_, String>(1),
                    None::<Prediction>,
                    fork,
                    &NoopRecorder
                ),
                Ok((1, None))
            );
        }
    }

    #[test]
    fn fork_day_replays_prediction_events_after_the_front_half() {
        let log = Log::default();
        let caller = std::thread::current().id();
        let (done, recorded) = std::sync::mpsc::channel();
        let prediction = move |rec: &dyn Recorder| -> Result<bool, String> {
            rec.event(&TraceEvent::new("predicted"));
            rec.add("prediction_counter", 1);
            done.send(()).unwrap();
            Ok(std::thread::current().id() != caller)
        };
        let front = || -> Result<(), String> {
            // The helper records first; its event must still come after.
            recorded.recv().unwrap();
            log.event(&TraceEvent::new("cleared"));
            Ok(())
        };
        let (_, on_helper) = fork_day(front, Some(prediction), Fork::Overlapped, &log).unwrap();
        assert_eq!(
            on_helper,
            Some(true),
            "the prediction runs on a helper thread"
        );
        let seen = log.0.into_inner().unwrap();
        assert_eq!(seen, ["prediction_counter", "cleared", "predicted"]);
    }

    /// Items of a [`fork_map`] test: item `i` records the event `item{i}`.
    fn record(rec: &dyn Recorder, index: usize) {
        rec.event(&TraceEvent::new(format!("item{index}")));
    }

    #[test]
    fn fork_map_replays_events_in_item_order() {
        // On two cores the items finish out of order on both threads: the
        // thread holding item 0 waits for item 1, which waits for item 2,
        // which the first thread then takes. So one thread runs items 0
        // and 2 and the other item 1.
        let log = Log::default();
        let forked = nms_par::host_threads() > 1;
        let recorded: Vec<AtomicBool> = (0..3).map(|_| AtomicBool::new(false)).collect();
        let wait_for = |item: usize| {
            while forked && !recorded[item].load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        };
        let threads = fork_map(&[0, 1, 2], &log, |index, &item, rec| {
            if index == 0 {
                wait_for(1);
            }
            record(rec, item);
            recorded[index].store(true, Ordering::SeqCst);
            if index == 1 {
                wait_for(2);
            }
            Ok::<_, String>(std::thread::current().id())
        })
        .unwrap();
        assert_eq!(threads.len(), 3);
        assert_eq!(threads[0], threads[2]);
        assert_eq!(
            threads[0] != threads[1],
            forked,
            "items 0 and 1 run on two threads exactly when the host has two cores"
        );
        let seen = log.0.into_inner().unwrap();
        assert_eq!(seen, ["item0", "item1", "item2"]);
    }

    #[test]
    fn fork_map_settles_a_failing_middle_item_as_the_loop_would() {
        // On two cores item 2 fails only after item 3 has recorded and
        // panicked on the other thread, so item 3's outcome and events
        // are there to be (wrongly) surfaced.
        let log = Log::default();
        let forked = nms_par::host_threads() > 1;
        let item_three_recorded = AtomicBool::new(false);
        let result = fork_map(&[0, 1, 2, 3, 4], &log, |index, &item, rec| {
            record(rec, item);
            match index {
                2 => {
                    while forked && !item_three_recorded.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Err("item 2".to_string())
                }
                3 => {
                    item_three_recorded.store(true, Ordering::SeqCst);
                    panic!("unreachable in sequence")
                }
                _ => Ok(item),
            }
        });
        assert_eq!(
            result,
            Err("item 2".into()),
            "the lowest-index failure wins"
        );
        let seen = log.0.into_inner().unwrap();
        assert_eq!(
            seen,
            ["item0", "item1", "item2"],
            "the failing item's events replay after the items before it, and no later item's"
        );
    }

    #[test]
    fn fork_map_reraises_a_panic_with_its_own_message() {
        let outcomes = nms_par::par_map_outcomes(1, &[()], &NoopRecorder, |_, _| {
            fork_map(&[0, 1, 2], &NoopRecorder, |index, &item, _| {
                if index == 1 {
                    panic!("item 1 exploded");
                }
                Ok::<u32, String>(item)
            })
        });
        match &outcomes[0] {
            nms_par::Outcome::Panicked(message) => {
                assert!(message.contains("item 1 exploded"), "{message}");
                assert!(!message.contains("scoped thread"), "{message}");
            }
            other => panic!("expected a panic verdict, got {other:?}"),
        }
    }
}
