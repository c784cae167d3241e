//! The detection day's fork (DESIGN.md §15).
//!
//! A detection day runs its detector prediction on one helper beside the
//! market clearing ([`fork_day`]), handing the prediction a [`Deferred`]
//! view of the run's recorder and settling errors and panics as the
//! sequential order would, so a forked day's results, counters and event
//! sequence equal the sequential day's. The training epoch's bootstrap and
//! backtest days fan out through [`nms_par::par_map`] at
//! [`TRAINING_WORKERS`], which keeps the same contract per item.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use nms_obs::{span, Deferred, Recorder};

/// Workers for the training epoch's bootstrap and backtest maps: the
/// calling thread plus one helper.
pub(crate) const TRAINING_WORKERS: usize = 2;

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

#[cfg(test)]
mod tests {
    use super::*;
    use nms_obs::{NoopRecorder, TraceEvent};
    use std::sync::Mutex;

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
            let outcomes = nms_par::par_map_outcomes(1, &[()], &NoopRecorder, |_, _, _| {
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
}
