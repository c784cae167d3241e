//! Deterministic parallel execution layer (DESIGN.md §9).
//!
//! Every parallel loop in this workspace — parameter sweeps and fleet
//! shards — is a map over independent items whose
//! per-item randomness is derived from a `(seed, index)` pair *before* the
//! map runs. That makes the map's output a pure function of
//! its inputs, so running it on N worker threads must produce bit-identical
//! results to running it on one. This crate provides
//! exactly that contract:
//!
//! - **ordered results** — [`par_map`] returns `f(0, &items[0]) …
//!   f(n-1, &items[n-1])` in input order, however the items were scheduled
//!   across workers;
//! - **first-error propagation** — a fallible `f` fails the whole map with
//!   the error of the *lowest-index* failing item, which is the same error
//!   the sequential loop would have returned (items before it succeed in
//!   both executions);
//! - **panic rethrow with context** — a worker panic is re-raised on the
//!   calling thread as a panic naming the item index and carrying the
//!   original payload's message, instead of crossbeam's opaque
//!   `Err(Box<dyn Any>)`;
//! - **sequential degradation** — `threads <= 1` runs the plain loop on
//!   the calling thread: no spawns, errors short-circuit immediately, and
//!   a panic surfaces with the same item-index context as the parallel
//!   path (both entry points share one panic-capture code path);
//! - **failure containment** — [`par_map_outcomes`] is the supervision
//!   surface: instead of propagating the lowest-index failure it runs
//!   *every* item to completion and returns a per-item [`Outcome`]
//!   (`Ok`/`Err`/`Panicked`), so one item's panic cannot take down its
//!   siblings — the isolation primitive the shard fleet is built on.
//!
//! Scheduling is dynamic (workers pull the next item off a shared atomic
//! counter), so heterogeneous item costs balance without tuning; the
//! counter hands out indices in increasing order, which is what makes the
//! first-error guarantee cheap to keep even with early abort.
//!
//! **Granularity** (DESIGN.md §11): the worker count is clamped to the
//! host's logical cores — oversubscribing a small host only adds
//! context-switch and cache-thrash overhead while the bit-identity
//! contract already makes the thread count observationally irrelevant.
//! On a 1-core host every `par_map` therefore degrades to the sequential
//! loop, which is exactly the fastest correct schedule there. Workers pull
//! one item at a time: every map in the workspace is over few heavy items
//! (sweep points, shards), where load balance
//! matters more than the one `SeqCst` fetch-add per pull.
//!
//! A map whose workers fill the host marks them ([`worker_fills_host`]),
//! so work nested inside an item can see that no core is left to fork
//! onto.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use nms_obs::Recorder;
use serde::{Deserialize, Serialize};

/// The workspace-wide parallelism knob: how many worker threads a
/// parallelizable stage may use.
///
/// `threads == 1` (the serde default, so configurations written before
/// this knob existed still load unchanged) selects the sequential path
/// everywhere, which is also the reference behavior every parallel run is
/// tested bit-identical against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism {
    /// Worker threads for parallel stages; `1` = sequential.
    pub threads: usize,
}

impl Parallelism {
    /// A sequential (single-threaded) configuration.
    pub const SEQUENTIAL: Self = Self { threads: 1 };

    /// Creates a knob with the given thread count.
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description when `threads` is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("parallelism needs at least one thread".into());
        }
        Ok(())
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::SEQUENTIAL
    }
}

/// Logical cores on this host; `1` when the count cannot be determined.
/// Cached after the first call (the underlying query is a syscall).
pub fn host_threads() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

thread_local! {
    /// Set at the start of a worker thread whose map runs one worker per
    /// logical core.
    static FILLS_HOST: Cell<bool> = const { Cell::new(false) };
}

/// `true` on a worker thread of a map that runs one worker per logical
/// core of the host, so every core already has an item to work on.
/// `false` on every other thread, including the caller of a map and a
/// map's sequential path (which spawns no worker).
pub fn worker_fills_host() -> bool {
    FILLS_HOST.with(Cell::get)
}

/// The worker count actually used for a map of `n` items requested at
/// `threads`: never more workers than items, never more than the host has
/// logical cores.
fn resolve_workers(threads: usize, n: usize) -> usize {
    threads.min(n).min(host_threads())
}

/// What one item of an isolating map produced — the per-item verdict
/// [`par_map_outcomes`] returns instead of rethrowing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<R, E> {
    /// The item's closure returned `Ok`.
    Ok(R),
    /// The item's closure returned `Err`.
    Err(E),
    /// The item's closure panicked; the message names the item index and
    /// carries the captured payload's message (or the
    /// `"non-string panic payload"` fallback for exotic payload types).
    Panicked(String),
}

impl<R, E> Outcome<R, E> {
    /// `true` for [`Outcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Self::Ok(_))
    }

    /// `true` for [`Outcome::Panicked`].
    pub fn is_panicked(&self) -> bool {
        matches!(self, Self::Panicked(_))
    }

    /// The success value, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            Self::Ok(value) => Some(value),
            _ => None,
        }
    }
}

/// Maps `f` over `items` on up to `threads` worker threads, returning the
/// results in input order. See the crate docs for the determinism
/// contract; `f` must be a pure function of `(index, item)` for the
/// bit-identity guarantee to mean anything.
///
/// Worker telemetry — `par_maps` / `par_items` counters and per-worker
/// `par_worker_items` / `par_worker_busy_seconds` histograms — is gathered
/// locally on each worker and recorded into `rec` by the calling thread
/// after the join, so the recorder never sits on the worker hot path and
/// results are the same under any recorder.
///
/// # Errors
///
/// Returns the error of the lowest-index failing item.
///
/// # Panics
///
/// Re-raises the lowest-index worker panic on the calling thread, with the
/// item index and original message in the payload.
pub fn par_map<T, R, E, F>(
    threads: usize,
    items: &[T],
    rec: &dyn Recorder,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    par_map_core(resolve_workers(threads, items.len()), items, rec, f)
}

/// Maps `f` over every item and returns one [`Outcome`] per item, in input
/// order: failures are *contained*, not propagated. An item whose closure
/// returns `Err` or panics yields `Outcome::Err` / `Outcome::Panicked` for
/// that slot while every other item still runs to completion — no early
/// abort, no rethrow. This is the isolation surface supervisors build on:
/// one shard's panic must not take down its siblings. Records the worker
/// telemetry of [`par_map`] into `rec`.
///
/// The `threads <= 1` path still degrades to a loop on the calling thread,
/// but (unlike [`par_map`]) it catches panics per item, so the containment
/// contract is thread-count independent.
pub fn par_map_outcomes<T, R, E, F>(
    threads: usize,
    items: &[T],
    rec: &dyn Recorder,
    f: F,
) -> Vec<Outcome<R, E>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let slots = outcomes_core(resolve_workers(threads, items.len()), items, rec, f, false);
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| match slot {
            Some(Outcome::Panicked(message)) => {
                Outcome::Panicked(format!("item {index}: {message}"))
            }
            Some(outcome) => outcome,
            None => unreachable!("nms-par: non-aborting map skipped item {index}"),
        })
        .collect()
}

/// The shared rethrowing consumer: runs the engine in abort-on-first-failure
/// mode, then replays the lowest-index failure exactly as the sequential
/// loop would have surfaced it.
fn par_map_core<T, R, E, F>(
    workers: usize,
    items: &[T],
    rec: &dyn Recorder,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let slots = outcomes_core(workers, items, rec, f, true);
    // The counter hands indices out in increasing order and a worker stops
    // at its first failure, so every index below the lowest failure is
    // guaranteed Some(Ok) — the ascending scan below therefore reports
    // exactly the failure the sequential loop would have hit first.
    let mut results = Vec::with_capacity(items.len());
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Outcome::Ok(value)) => results.push(value),
            Some(Outcome::Err(err)) => return Err(err),
            Some(Outcome::Panicked(message)) => {
                panic!("nms-par: worker panicked on item {index}: {message}")
            }
            None => unreachable!("nms-par: item {index} skipped before the first failure"),
        }
    }
    Ok(results)
}

/// The one map engine behind every entry point. `workers` is already
/// resolved (≤ items, ≤ host cores); `abort` selects fail-fast (the
/// rethrowing surfaces) versus run-everything (the outcome surface). Every
/// panic, on any path, is captured by exactly this function's
/// `catch_unwind`, so payload handling cannot drift between surfaces.
fn outcomes_core<T, R, E, F>(
    workers: usize,
    items: &[T],
    rec: &dyn Recorder,
    f: F,
    abort_on_failure: bool,
) -> Vec<Option<Outcome<R, E>>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    rec.add("par_maps", 1);
    rec.add("par_items", n as u64);
    if workers <= 1 {
        // Sequential path: the reference behavior. No spawns; in abort
        // mode the first failure short-circuits immediately.
        let busy = Instant::now();
        let mut slots: Vec<Option<Outcome<R, E>>> = (0..n).map(|_| None).collect();
        let mut done = 0usize;
        for (index, item) in items.iter().enumerate() {
            let outcome = run_item(index, item, &f);
            let failed = !outcome.is_ok();
            slots[index] = Some(outcome);
            done += 1;
            if failed && abort_on_failure {
                break;
            }
        }
        rec.observe("par_worker_items", done as f64);
        rec.observe("par_worker_busy_seconds", busy.elapsed().as_secs_f64());
        return slots;
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let f = &f;
    let next = &next;
    let abort = &abort;

    // Workers return (index, outcome) pairs plus their own load tally;
    // merging the pairs into index order afterwards is what makes the
    // output independent of scheduling, and recording the tallies only
    // after the join keeps the recorder off the worker hot path.
    type WorkerYield<R, E> = (Vec<(usize, Outcome<R, E>)>, f64);
    let fills_host = workers == host_threads();
    let gathered: Vec<WorkerYield<R, E>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move |_| {
                    FILLS_HOST.with(|flag| flag.set(fills_host));
                    let busy = Instant::now();
                    let mut local: Vec<(usize, Outcome<R, E>)> = Vec::new();
                    while !abort.load(Ordering::SeqCst) {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if index >= n {
                            break;
                        }
                        let outcome = run_item(index, &items[index], f);
                        let failed = !outcome.is_ok();
                        local.push((index, outcome));
                        if failed && abort_on_failure {
                            abort.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    (local, busy.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("nms-par: worker vanished without result"))
            .collect()
    })
    .expect("nms-par: scope itself panicked");

    let mut slots: Vec<Option<Outcome<R, E>>> = (0..n).map(|_| None).collect();
    for (local, busy_secs) in gathered {
        rec.observe("par_worker_items", local.len() as f64);
        rec.observe("par_worker_busy_seconds", busy_secs);
        for (index, outcome) in local {
            slots[index] = Some(outcome);
        }
    }
    slots
}

/// Runs one item under the engine's single `catch_unwind`.
fn run_item<T, R, E, F>(index: usize, item: &T, f: &F) -> Outcome<R, E>
where
    F: Fn(usize, &T) -> Result<R, E>,
{
    match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
        Ok(Ok(value)) => Outcome::Ok(value),
        Ok(Err(err)) => Outcome::Err(err),
        Err(payload) => Outcome::Panicked(payload_message(payload.as_ref())),
    }
}

/// Renders a panic payload's message for the rethrow. Panics almost always
/// carry `&str` or `String`; a few primitive `panic_any` payloads are
/// probed too, and anything else falls back to a stable
/// `"non-string panic payload"` marker (the surrounding context always
/// names the item index, so even an opaque payload stays attributable).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(v) = payload.downcast_ref::<u64>() {
        format!("non-string panic payload (u64: {v})")
    } else if let Some(v) = payload.downcast_ref::<i64>() {
        format!("non-string panic payload (i64: {v})")
    } else if let Some(v) = payload.downcast_ref::<u32>() {
        format!("non-string panic payload (u32: {v})")
    } else if let Some(v) = payload.downcast_ref::<i32>() {
        format!("non-string panic payload (i32: {v})")
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_obs::NoopRecorder;
    use proptest::prelude::*;

    fn square(index: usize, item: &u64) -> Result<u64, String> {
        let _ = index;
        Ok(item * item)
    }

    /// The stateless, unrecorded map most tests exercise.
    fn map<T: Sync, R: Send, E: Send>(
        threads: usize,
        items: &[T],
        f: impl Fn(usize, &T) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, E> {
        par_map(threads, items, &NoopRecorder, f)
    }

    /// The isolating map without telemetry.
    fn contained<T: Sync, R: Send, E: Send>(
        threads: usize,
        items: &[T],
        f: impl Fn(usize, &T) -> Result<R, E> + Sync,
    ) -> Vec<Outcome<R, E>> {
        par_map_outcomes(threads, items, &NoopRecorder, f)
    }

    /// Runs the map engine with an explicit worker count, bypassing the
    /// host-core clamp so the genuinely-parallel path is exercised even on
    /// small CI hosts.
    fn forced<T: Sync, R: Send, E: Send>(
        workers: usize,
        items: &[T],
        f: impl Fn(usize, &T) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, E> {
        par_map_core(workers.min(items.len()), items, &NoopRecorder, f)
    }

    #[test]
    fn parallelism_defaults_sequential_and_validates() {
        assert_eq!(Parallelism::default().threads, 1);
        assert!(Parallelism::default().validate().is_ok());
        assert!(Parallelism::new(0).validate().is_err());
        assert_eq!(Parallelism::SEQUENTIAL, Parallelism::new(1));
    }

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = forced(4, &items, square).unwrap();
        let expected: Vec<u64> = items.iter().map(|v| v * v).collect();
        assert_eq!(out, expected);
        // The public entry point (possibly core-clamped) agrees.
        assert_eq!(map(4, &items, square).unwrap(), expected);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let items: Vec<u64> = (0..64).collect();
        let seq = map(1, &items, square).unwrap();
        for threads in [2, 3, 4, 8] {
            assert_eq!(forced(threads, &items, square).unwrap(), seq);
            assert_eq!(map(threads, &items, square).unwrap(), seq);
        }
    }

    #[test]
    fn worker_count_is_clamped() {
        let cores = host_threads();
        assert!(cores >= 1);
        assert_eq!(resolve_workers(8, 3), 3.min(cores));
        assert_eq!(resolve_workers(2, 100), 2.min(cores));
        assert_eq!(resolve_workers(1, 100), 1);
    }

    #[test]
    fn workers_are_marked_exactly_when_they_fill_the_host() {
        let cores = host_threads();
        let items: Vec<u64> = (0..cores.max(2) as u64).collect();
        let marked = |_: usize, _: &u64| Ok::<_, String>(worker_fills_host());
        assert!(!worker_fills_host(), "the caller is no worker");
        assert!(
            map(1, &items, marked).unwrap().iter().all(|&m| !m),
            "the sequential path runs on the caller"
        );
        let filled = map(cores, &items, marked).unwrap();
        assert!(
            filled.iter().all(|&m| m == (cores > 1)),
            "one worker per core on a multi-core host: {filled:?}"
        );
        let two = forced(2, &items, marked).unwrap();
        assert!(
            two.iter().all(|&m| m == (cores == 2)),
            "two workers fill only a 2-core host: {two:?}"
        );
        assert!(!worker_fills_host(), "the mark stays on the workers");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert_eq!(map(4, &empty, square).unwrap(), Vec::<u64>::new());
        assert_eq!(map(4, &[3u64], square).unwrap(), vec![9]);
    }

    #[test]
    fn first_error_by_index_wins() {
        let items: Vec<u64> = (0..40).collect();
        let f = |_i: usize, item: &u64| -> Result<u64, String> {
            if *item >= 7 && item % 2 == 1 {
                Err(format!("item {item} failed"))
            } else {
                Ok(*item)
            }
        };
        let seq_err = map(1, &items, f).unwrap_err();
        for threads in [2, 4, 8] {
            assert_eq!(forced(threads, &items, f).unwrap_err(), seq_err);
            assert_eq!(map(threads, &items, f).unwrap_err(), seq_err);
        }
        assert_eq!(seq_err, "item 7 failed");
    }

    #[test]
    fn worker_panic_rethrows_with_item_context() {
        let items: Vec<u64> = (0..16).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            forced(4, &items, |_i, item: &u64| -> Result<u64, String> {
                if *item == 5 {
                    panic!("boom at five");
                }
                Ok(*item)
            })
        }));
        let payload = result.unwrap_err();
        let message = payload_message(payload.as_ref());
        assert!(message.contains("item 5"), "{message}");
        assert!(message.contains("boom at five"), "{message}");
    }

    #[test]
    fn sequential_path_short_circuits_without_evaluating_later_items() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let items: Vec<u64> = (0..10).collect();
        let err = map(1, &items, |_i, item: &u64| -> Result<u64, String> {
            calls.fetch_add(1, Ordering::SeqCst);
            if *item == 2 {
                Err("stop".into())
            } else {
                Ok(*item)
            }
        })
        .unwrap_err();
        assert_eq!(err, "stop");
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn recorded_map_tallies_workers_without_changing_results() {
        let items: Vec<u64> = (0..32).collect();
        let metrics = nms_obs::MetricsRegistry::new();
        let out = par_map(4, &items, &metrics, square).unwrap();
        assert_eq!(out, map(1, &items, square).unwrap());
        assert_eq!(metrics.counter("par_maps"), 1);
        assert_eq!(metrics.counter("par_items"), 32);
        let per_worker = metrics.histogram("par_worker_items").unwrap();
        assert_eq!(per_worker.sum(), 32.0, "every item lands on some worker");
        assert!(metrics.histogram("par_worker_busy_seconds").is_some());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items: Vec<u64> = (0..3).collect();
        assert_eq!(map(16, &items, square).unwrap(), vec![0, 1, 4]);
    }

    #[test]
    fn outcomes_contain_failures_and_run_every_item() {
        let items: Vec<u64> = (0..24).collect();
        let f = |_i: usize, item: &u64| -> Result<u64, String> {
            match *item % 5 {
                3 => Err(format!("soft failure on {item}")),
                4 => panic!("hard failure on {item}"),
                _ => Ok(item * 10),
            }
        };
        for threads in [1, 2, 4, 8] {
            let outcomes = contained(threads, &items, f);
            assert_eq!(outcomes.len(), items.len(), "no item may be skipped");
            for (index, (outcome, item)) in outcomes.iter().zip(&items).enumerate() {
                match *item % 5 {
                    3 => assert_eq!(
                        outcome,
                        &Outcome::Err(format!("soft failure on {item}"))
                    ),
                    4 => match outcome {
                        Outcome::Panicked(message) => {
                            assert!(message.contains(&format!("item {index}")), "{message}");
                            assert!(
                                message.contains(&format!("hard failure on {item}")),
                                "{message}"
                            );
                        }
                        other => panic!("expected Panicked, got {other:?}"),
                    },
                    _ => assert_eq!(outcome, &Outcome::Ok(item * 10)),
                }
            }
        }
    }

    #[test]
    fn outcomes_sequential_path_contains_panics_too() {
        // threads=1 must not rethrow: the containment contract is
        // thread-count independent.
        let items: Vec<u64> = (0..4).collect();
        let outcomes = contained(1, &items, |_i, item: &u64| -> Result<u64, String> {
            if *item == 0 {
                panic!("first item dies");
            }
            Ok(*item)
        });
        assert!(outcomes[0].is_panicked());
        assert_eq!(outcomes[1..], [Outcome::Ok(1), Outcome::Ok(2), Outcome::Ok(3)]);
    }

    #[test]
    fn outcomes_accessors_and_order() {
        let items: Vec<u64> = (0..12).collect();
        let outcomes = contained(4, &items, square);
        assert!(outcomes.iter().all(Outcome::is_ok));
        let values: Vec<u64> = outcomes.into_iter().filter_map(Outcome::ok).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * v).collect();
        assert_eq!(values, expected);
    }

    #[test]
    fn non_string_panic_payloads_fall_back_with_item_index() {
        let items: Vec<u64> = (0..3).collect();
        let outcomes = contained(2, &items, |_i, item: &u64| -> Result<u64, String> {
            if *item == 1 {
                std::panic::panic_any(1234u64);
            }
            Ok(*item)
        });
        match &outcomes[1] {
            Outcome::Panicked(message) => {
                assert!(message.contains("item 1"), "{message}");
                assert!(message.contains("non-string panic payload"), "{message}");
                assert!(message.contains("1234"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // A payload type the probe does not know still lands on the
        // stable fallback marker.
        #[derive(Debug)]
        struct Opaque;
        let outcomes = contained(1, &[0u64], |_i, _item| -> Result<u64, String> {
            std::panic::panic_any(Opaque);
        });
        match &outcomes[0] {
            Outcome::Panicked(message) => {
                assert_eq!(message, "item 0: non-string panic payload");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn rethrow_path_is_built_on_the_outcome_engine() {
        // The rethrown message must match the Outcome::Panicked rendering
        // exactly (modulo the "nms-par: worker panicked on" prefix), since
        // both come from the same capture point.
        let items: Vec<u64> = (0..8).collect();
        let boom = |_i: usize, item: &u64| -> Result<u64, String> {
            if *item == 5 {
                panic!("shared capture path");
            }
            Ok(*item)
        };
        let rethrown = catch_unwind(AssertUnwindSafe(|| map(1, &items, boom))).unwrap_err();
        let rethrown = payload_message(rethrown.as_ref());
        let contained = match &contained(1, &items, boom)[5] {
            Outcome::Panicked(message) => message.clone(),
            other => panic!("expected Panicked, got {other:?}"),
        };
        assert_eq!(rethrown, format!("nms-par: worker panicked on {contained}"));
    }

    #[test]
    fn outcomes_recorded_tallies_every_item() {
        let items: Vec<u64> = (0..16).collect();
        let metrics = nms_obs::MetricsRegistry::new();
        let outcomes =
            par_map_outcomes(2, &items, &metrics, |_i, item: &u64| -> Result<u64, String> {
                if *item == 9 {
                    panic!("one bad shard");
                }
                Ok(*item)
            });
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 15);
        assert_eq!(metrics.counter("par_items"), 16);
        let per_worker = metrics.histogram("par_worker_items").unwrap();
        assert_eq!(per_worker.sum(), 16.0, "panicked items still count as work");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_parallel_matches_sequential(
            len in 0usize..50,
            threads in 1usize..9,
            salt in 0u64..1000,
        ) {
            let items: Vec<u64> = (0..len as u64).map(|v| v.wrapping_mul(salt + 1)).collect();
            let f = |i: usize, item: &u64| -> Result<u64, String> {
                Ok(item.wrapping_add(i as u64))
            };
            let seq = map(1, &items, f).unwrap();
            let par = forced(threads, &items, f).unwrap();
            prop_assert_eq!(seq, par);
        }
    }
}
