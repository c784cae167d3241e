//! Deterministic parallel execution layer (DESIGN.md §9).
//!
//! Every parallel loop in this workspace — parameter sweeps, fleet shards,
//! and the training epoch's bootstrap and backtest days — is a map over
//! independent items whose per-item randomness is derived from a
//! `(seed, index)` pair *before* the map runs. That makes the map's output
//! a pure function of its inputs, so running it on N threads must produce
//! bit-identical results to running it on one. This crate provides exactly
//! that contract:
//!
//! - **ordered results** — [`par_map`] returns `f(0, &items[0]) …
//!   f(n-1, &items[n-1])` in input order, however the items were scheduled
//!   across workers;
//! - **ordered telemetry** — each item records through its own deferred
//!   view of the map's recorder: counters and observations pass straight
//!   through, while events and gauges replay on the calling thread in item
//!   order after the join, so the trace is the plain loop's;
//! - **first-error propagation** — a fallible `f` fails the whole map with
//!   the error of the *lowest-index* failing item, which is the same error
//!   the sequential loop would have returned (items before it succeed in
//!   both executions), after the telemetry of the items up to it replays;
//! - **panic rethrow with context** — an item's panic is re-raised on the
//!   calling thread as a panic naming the item index and carrying the
//!   original payload's message, before that item's telemetry replays;
//! - **one worker loop** — the calling thread runs the same
//!   pull-from-one-counter loop as its `workers − 1` scoped helpers, and
//!   `threads <= 1` is that loop with no helper, so the sequential path is
//!   not a second implementation;
//! - **failure containment** — [`par_map_outcomes`] is the supervision
//!   surface: instead of propagating the lowest-index failure it runs
//!   *every* item to completion and returns a per-item [`Outcome`]
//!   (`Ok`/`Err`/`Panicked`), so one item's panic cannot take down its
//!   siblings — the isolation primitive the shard fleet is built on.
//!
//! [`join`] is the two-closure fork on the same rules: the first closure
//! on the calling thread with the caller's own recorder, the second on one
//! helper through a deferred view, or inline after the first where a map
//! of two items would get one worker. A detection day runs its prediction
//! beside the market clearing through it.
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
//! On a 1-core host every map and every [`join`] therefore runs on the
//! calling thread alone, which is exactly the fastest correct schedule
//! there. Workers pull one item at a time: every map in the workspace is
//! over few heavy items (sweep points, shards, training days), where load
//! balance matters more than the one `SeqCst` fetch-add per pull.
//!
//! A map or [`join`] whose workers fill the host marks them, the calling
//! thread included, while it runs ([`worker_fills_host`]); a map or
//! [`join`] started on a marked thread runs on that thread alone, since no
//! core is left to fork onto.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use nms_obs::{span, Recorder};
use serde::{Deserialize, Serialize};

mod deferred;

use deferred::Deferred;

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
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

thread_local! {
    /// Set on every thread of a running map — helpers and the calling
    /// thread — whose worker count equals the host's logical cores.
    static FILLS_HOST: Cell<bool> = const { Cell::new(false) };
}

/// `true` on a thread that is working in a map with one worker per
/// logical core of the host, so every core already has an item to work
/// on. `false` on every other thread, including the caller of a map that
/// has returned and of a map that runs on the calling thread alone.
pub fn worker_fills_host() -> bool {
    FILLS_HOST.with(Cell::get)
}

/// The worker count actually used for a map of `n` items requested at
/// `threads` (a [`join`] is a map of two items at two threads): never more
/// workers than items, never more than the host has logical cores, and one
/// on a thread whose map already fills the host.
fn resolve_workers(threads: usize, n: usize) -> usize {
    if worker_fills_host() {
        1
    } else {
        threads.min(n).min(host_threads())
    }
}

/// What one item of a map produced — the per-item verdict
/// [`par_map_outcomes`] returns instead of rethrowing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<R, E> {
    /// The item's closure returned `Ok`.
    Ok(R),
    /// The item's closure returned `Err`.
    Err(E),
    /// The item's closure panicked; the message names the item index and
    /// carries the captured payload's message (or the
    /// `"non-string panic payload"` fallback for other payload types).
    Panicked(String),
}

impl<R, E> Outcome<R, E> {
    /// `true` for [`Outcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Self::Ok(_))
    }

    /// The success value, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            Self::Ok(value) => Some(value),
            _ => None,
        }
    }
}

/// Maps `f` over `items` on the calling thread and up to `threads − 1`
/// helpers, returning the results in input order. See the crate docs for
/// the determinism contract; `f` must be a pure function of
/// `(index, item)` for the bit-identity guarantee to mean anything. Item
/// `i` records through the third argument, a deferred view of `rec`.
///
/// Worker telemetry — `par_maps` / `par_items` counters and per-worker
/// `par_worker_items` / `par_worker_busy_seconds` histograms — is gathered
/// locally on each worker and recorded into `rec` by the calling thread
/// after the join, so the recorder never sits on the worker hot path and
/// results are the same under any recorder.
///
/// Items after the lowest failing one that were already running finish;
/// their counters and observations have been recorded, their events and
/// gauges are dropped.
///
/// # Errors
///
/// Returns the error of the lowest-index failing item.
///
/// # Panics
///
/// Re-raises the lowest-index item panic on the calling thread, with the
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
    F: Fn(usize, &T, &dyn Recorder) -> Result<R, E> + Sync,
{
    par_map_core(resolve_workers(threads, items.len()), items, rec, f)
}

/// Maps `f` over every item and returns one [`Outcome`] per item, in input
/// order: failures are *contained*, not propagated. An item whose closure
/// returns `Err` or panics yields `Outcome::Err` / `Outcome::Panicked` for
/// that slot while every other item still runs to completion — no early
/// abort, no rethrow. This is the isolation surface supervisors build on:
/// one shard's panic must not take down its siblings. Every item's events
/// and gauges replay in item order; the worker telemetry of [`par_map`] is
/// recorded into `rec`.
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
    F: Fn(usize, &T, &dyn Recorder) -> Result<R, E> + Sync,
{
    let slots = run_map(resolve_workers(threads, items.len()), items, rec, &f, false);
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            let Some((outcome, deferred)) = slot else {
                unreachable!("nms-par: non-aborting map skipped item {index}")
            };
            deferred.replay();
            match outcome {
                Outcome::Panicked(message) => Outcome::Panicked(format!("item {index}: {message}")),
                outcome => outcome,
            }
        })
        .collect()
}

/// The rethrowing consumer: runs the engine in abort-on-first-failure
/// mode, then settles the items in index order exactly as the sequential
/// loop would have.
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
    F: Fn(usize, &T, &dyn Recorder) -> Result<R, E> + Sync,
{
    let slots = run_map(workers, items, rec, &f, true);
    // The counter hands indices out in increasing order and no worker pulls
    // after a failure, so every index below the lowest failure is
    // guaranteed Some(Ok) — the ascending scan below therefore reports
    // exactly the failure the sequential loop would have hit first.
    let mut results = Vec::with_capacity(items.len());
    for (index, slot) in slots.into_iter().enumerate() {
        let Some((outcome, deferred)) = slot else {
            unreachable!("nms-par: item {index} skipped before the first failure")
        };
        match outcome {
            Outcome::Ok(value) => {
                deferred.replay();
                results.push(value);
            }
            Outcome::Err(err) => {
                deferred.replay();
                return Err(err);
            }
            Outcome::Panicked(message) => {
                panic!("nms-par: worker panicked on item {index}: {message}")
            }
        }
    }
    Ok(results)
}

/// The one map engine behind every entry point. `workers` is already
/// resolved (≤ items, ≤ host cores); the calling thread is one of them.
/// `abort_on_failure` selects fail-fast (the rethrowing surface) versus
/// run-everything (the outcome surface). Every panic is captured by
/// [`run_item`], so payload handling cannot drift between surfaces.
fn run_map<'r, T, R, E, F>(
    workers: usize,
    items: &[T],
    rec: &'r dyn Recorder,
    f: &F,
    abort_on_failure: bool,
) -> Vec<Option<(Outcome<R, E>, Deferred<'r>)>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T, &dyn Recorder) -> Result<R, E> + Sync,
{
    rec.add("par_maps", 1);
    rec.add("par_items", items.len() as u64);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // Each worker returns its (index, outcome, telemetry) triples plus its
    // busy time; merging them into index order afterwards is what makes
    // the output independent of scheduling.
    let work = || {
        let busy = Instant::now();
        let mut ran = Vec::new();
        while !failed.load(Ordering::SeqCst) {
            let index = next.fetch_add(1, Ordering::SeqCst);
            let Some(item) = items.get(index) else {
                break;
            };
            let deferred = Deferred::new(rec);
            let outcome = run_item(|| f(index, item, &deferred));
            if abort_on_failure && !outcome.is_ok() {
                failed.store(true, Ordering::SeqCst);
            }
            ran.push((index, outcome, deferred));
        }
        (ran, busy.elapsed().as_secs_f64())
    };
    let fills_host = workers > 1 && workers == host_threads();
    let gathered = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    FILLS_HOST.with(|mark| mark.set(fills_host));
                    work()
                })
            })
            .collect();
        let mut gathered = vec![marked(fills_host, work)];
        gathered.extend(helpers.into_iter().map(|helper| {
            helper
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload))
        }));
        gathered
    });

    let mut slots: Vec<Option<(Outcome<R, E>, Deferred<'r>)>> =
        (0..items.len()).map(|_| None).collect();
    for (ran, busy_secs) in gathered {
        rec.observe("par_worker_items", ran.len() as f64);
        rec.observe("par_worker_busy_seconds", busy_secs);
        for (index, outcome, deferred) in ran {
            slots[index] = Some((outcome, deferred));
        }
    }
    slots
}

/// Runs `first` and then `second` as the sequential code would, with
/// `second` on one helper beside `first` when a core is free for it.
///
/// `first` always runs on the calling thread and records into `rec`
/// itself, so its spans stay in the caller's span tree. `second` runs
/// either
///
/// - on one scoped helper, recording through a deferred view of `rec`
///   whose events and gauges replay on the calling thread after `first`
///   (its spans are dropped), or
/// - inline after `first`, recording into `rec`, where a map of two items
///   at two threads resolves to one worker: on a 1-core host and on a
///   thread of a map that fills the host.
///
/// The calling thread holds the span `span_name` over its time on
/// `second`: its wait for the helper, or the inline run. `join` records no
/// worker telemetry of its own.
///
/// # Errors
///
/// As in sequence: `first`'s error wins, and the inline path then never
/// runs `second` (a helper's counters have been added; its events are
/// dropped). Then `second`'s error, after its events replay.
///
/// # Panics
///
/// Re-raises a panic in `first` with its payload once the helper is done,
/// then a panic in `second` with its own message.
pub fn join<A, B: Send, E: Send>(
    rec: &dyn Recorder,
    span_name: &'static str,
    first: impl FnOnce(&dyn Recorder) -> Result<A, E>,
    second: impl FnOnce(&dyn Recorder) -> Result<B, E> + Send,
) -> Result<(A, B), E> {
    join_on(resolve_workers(2, 2), rec, span_name, first, second)
}

/// [`join`] on `workers` (1 or 2, already resolved) threads.
fn join_on<A, B: Send, E: Send>(
    workers: usize,
    rec: &dyn Recorder,
    span_name: &'static str,
    first: impl FnOnce(&dyn Recorder) -> Result<A, E>,
    second: impl FnOnce(&dyn Recorder) -> Result<B, E> + Send,
) -> Result<(A, B), E> {
    if workers == 1 {
        let first = first(rec)?;
        let _span = span(rec, span_name);
        return Ok((first, second(rec)?));
    }
    let fills_host = workers == host_threads();
    let deferred = Deferred::new(rec);
    let (first, second) = std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            FILLS_HOST.with(|mark| mark.set(fills_host));
            run_item(|| second(&deferred))
        });
        let first = marked(fills_host, || first(rec));
        let _wait = span(rec, span_name);
        let second = helper
            .join()
            .unwrap_or_else(|payload| resume_unwind(payload));
        (first, second)
    });
    let first = first?;
    let second = match second {
        Outcome::Ok(value) => Ok(value),
        Outcome::Err(err) => Err(err),
        Outcome::Panicked(message) => resume_unwind(Box::new(message)),
    };
    deferred.replay();
    Ok((first, second?))
}

/// Runs `f` on the calling thread carrying a mark for the map or join it
/// works in, on top of a mark of its own (a marked thread's maps resolve to
/// one worker, so `fills_host` is then `false`). The thread's own mark is
/// back in place when `f` returns or unwinds.
fn marked<R>(fills_host: bool, f: impl FnOnce() -> R) -> R {
    let outer = FILLS_HOST.with(|mark| mark.replace(mark.get() || fills_host));
    let result = catch_unwind(AssertUnwindSafe(f));
    FILLS_HOST.with(|mark| mark.set(outer));
    result.unwrap_or_else(|payload| resume_unwind(payload))
}

/// Runs one item under the engine's single `catch_unwind`.
fn run_item<R, E>(f: impl FnOnce() -> Result<R, E>) -> Outcome<R, E> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(value)) => Outcome::Ok(value),
        Ok(Err(err)) => Outcome::Err(err),
        Err(payload) => Outcome::Panicked(payload_message(payload.as_ref())),
    }
}

/// Renders a panic payload's message for the rethrow. Panics carry `&str`
/// or `String`; anything else falls back to a stable
/// `"non-string panic payload"` marker (the surrounding context always
/// names the item index, so even an opaque payload stays attributable).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_obs::{NoopRecorder, TraceEvent};
    use proptest::prelude::*;
    use std::sync::Mutex;

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
        par_map(threads, items, &NoopRecorder, |index, item, _| {
            f(index, item)
        })
    }

    /// The isolating map without telemetry.
    fn contained<T: Sync, R: Send, E: Send>(
        threads: usize,
        items: &[T],
        f: impl Fn(usize, &T) -> Result<R, E> + Sync,
    ) -> Vec<Outcome<R, E>> {
        par_map_outcomes(threads, items, &NoopRecorder, |index, item, _| {
            f(index, item)
        })
    }

    /// Runs the map engine with an explicit worker count, bypassing the
    /// host-core clamp so the genuinely-parallel path is exercised even on
    /// small CI hosts.
    fn forced<T: Sync, R: Send, E: Send>(
        workers: usize,
        items: &[T],
        f: impl Fn(usize, &T) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, E> {
        par_map_core(
            workers.min(items.len()),
            items,
            &NoopRecorder,
            |index, item, _| f(index, item),
        )
    }

    /// Records event kinds in arrival order.
    #[derive(Default)]
    struct EventLog(Mutex<Vec<String>>);

    impl Recorder for EventLog {
        fn enabled(&self) -> bool {
            true
        }

        fn event(&self, event: &TraceEvent) {
            self.0.lock().unwrap().push(event.kind.clone());
        }
    }

    /// Item `index` of an event-order test records the event `item{index}`.
    fn record(rec: &dyn Recorder, index: usize) {
        rec.event(&TraceEvent::new(format!("item{index}")));
    }

    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
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
        assert!(!worker_fills_host(), "the caller's mark ends with its map");
        // A map started on a marked thread runs its items there alone: each
        // nested map tallies exactly one worker.
        let nested = nms_obs::MetricsRegistry::new();
        let inline = map(cores, &items, |_, _| {
            let worker = std::thread::current().id();
            let threads = par_map(2, &[0u64, 1, 2], &nested, |_, _, _| {
                Ok::<_, String>(std::thread::current().id())
            })?;
            Ok::<_, String>(threads.iter().all(|&thread| thread == worker))
        })
        .unwrap();
        assert!(
            inline.iter().all(|&inline| inline),
            "every nested item runs on its worker's own thread"
        );
        let workers = nested.histogram("par_worker_items").unwrap();
        assert_eq!(
            workers.count(),
            items.len() as u64,
            "one worker per nested map"
        );
    }

    #[test]
    fn events_replay_in_item_order_across_two_threads() {
        // The items finish out of order on both threads: the thread holding
        // item 0 waits for item 1, which waits for item 2, which the first
        // thread then takes. So one thread runs items 0 and 2 and the
        // other item 1.
        let log = EventLog::default();
        let recorded: Vec<AtomicBool> = (0..3).map(|_| AtomicBool::new(false)).collect();
        let threads = par_map_core(2, &[0, 1, 2], &log, |index, _, rec| {
            if index == 0 {
                wait_for(&recorded[1]);
            }
            record(rec, index);
            recorded[index].store(true, Ordering::SeqCst);
            if index == 1 {
                wait_for(&recorded[2]);
            }
            Ok::<_, String>(std::thread::current().id())
        })
        .unwrap();
        assert_eq!(threads[0], threads[2]);
        assert_ne!(threads[0], threads[1], "items 0 and 1 run on two threads");
        assert_eq!(log.0.into_inner().unwrap(), ["item0", "item1", "item2"]);
    }

    #[test]
    fn a_failing_item_replays_the_items_up_to_itself() {
        // Item 2 fails only after item 3 has recorded and panicked on the
        // other thread, so item 3's outcome and events are there to be
        // (wrongly) surfaced.
        let log = EventLog::default();
        let item_three_recorded = AtomicBool::new(false);
        let result = par_map_core(2, &[0, 1, 2, 3, 4], &log, |index, _, rec| {
            record(rec, index);
            match index {
                2 => {
                    wait_for(&item_three_recorded);
                    Err("item 2".to_string())
                }
                3 => {
                    item_three_recorded.store(true, Ordering::SeqCst);
                    panic!("unreachable in sequence")
                }
                _ => Ok(index),
            }
        });
        assert_eq!(
            result,
            Err("item 2".into()),
            "the lowest-index failure wins"
        );
        assert_eq!(
            log.0.into_inner().unwrap(),
            ["item0", "item1", "item2"],
            "the failing item's events replay after the items before it, and no later item's"
        );
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
        assert!(!message.contains("scoped thread"), "{message}");
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
        let out = par_map(4, &items, &metrics, |index, item, _| square(index, item)).unwrap();
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
                    3 => assert_eq!(outcome, &Outcome::Err(format!("soft failure on {item}"))),
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
        assert!(matches!(outcomes[0], Outcome::Panicked(_)));
        assert_eq!(
            outcomes[1..],
            [Outcome::Ok(1), Outcome::Ok(2), Outcome::Ok(3)]
        );
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
        assert_eq!(
            outcomes[1],
            Outcome::Panicked("item 1: non-string panic payload".into())
        );
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
        let outcomes = par_map_outcomes(
            2,
            &items,
            &metrics,
            |_i, item: &u64, _| -> Result<u64, String> {
                if *item == 9 {
                    panic!("one bad shard");
                }
                Ok(*item)
            },
        );
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 15);
        assert_eq!(metrics.counter("par_items"), 16);
        let per_worker = metrics.histogram("par_worker_items").unwrap();
        assert_eq!(per_worker.sum(), 16.0, "panicked items still count as work");
    }

    /// Which way a `join` under test runs its second closure.
    #[derive(Debug, Clone, Copy)]
    enum JoinPath {
        /// On a helper, whatever the host.
        Forked,
        /// Inline, through the public entry point on a thread where no
        /// core is free.
        Inline,
    }

    fn joined<A, B: Send, E: Send>(
        path: JoinPath,
        rec: &dyn Recorder,
        first: impl FnOnce(&dyn Recorder) -> Result<A, E>,
        second: impl FnOnce(&dyn Recorder) -> Result<B, E> + Send,
    ) -> Result<(A, B), E> {
        match path {
            JoinPath::Forked => join_on(2, rec, "second", first, second),
            JoinPath::Inline => {
                assert_eq!(resolve_workers(2, 2), 1, "a core is free for a helper");
                join(rec, "second", first, second)
            }
        }
    }

    /// Runs `check` in an item of a map that fills the host, where a
    /// `join` runs inline. (On a 1-core host that map has one unmarked
    /// worker, and a `join` runs inline there too.)
    fn in_filled_map(check: impl Fn() + Sync) {
        let cores = host_threads();
        let items: Vec<usize> = (0..cores.max(2)).collect();
        map(cores, &items, |index, _| {
            if index == 0 {
                check();
            }
            Ok::<_, String>(())
        })
        .unwrap();
    }

    /// Records events, counters and spans in arrival order.
    #[derive(Default)]
    struct Log(Mutex<Vec<String>>);

    impl Log {
        fn push(&self, entry: String) {
            self.0.lock().unwrap().push(entry);
        }
    }

    impl Recorder for Log {
        fn enabled(&self) -> bool {
            true
        }

        fn event(&self, event: &TraceEvent) {
            self.push(event.kind.clone());
        }

        fn add(&self, name: &str, _by: u64) {
            self.push(name.to_string());
        }

        fn span_enter(&self, name: &'static str) {
            self.push(format!("enter {name}"));
        }

        fn span_exit(&self, name: &'static str) {
            self.push(format!("exit {name}"));
        }
    }

    type Second = fn(&dyn Recorder) -> Result<u32, String>;

    #[test]
    fn join_surfaces_errors_in_sequential_order() {
        let check = |path: JoinPath| {
            let failing: Second = |_| Err("second".into());
            let panicking: Second = |_| panic!("unreachable in sequence");
            let ok: Second = |_| Ok(2);
            let first_fails = |_: &dyn Recorder| Err::<u32, _>("first".to_string());
            let first_ok = |_: &dyn Recorder| Ok::<u32, String>(1);
            assert_eq!(
                joined(path, &NoopRecorder, first_fails, failing),
                Err("first".into()),
                "{path:?}: both fail, the first's error wins"
            );
            assert_eq!(
                joined(path, &NoopRecorder, first_fails, panicking),
                Err("first".into()),
                "{path:?}: in sequence the second never runs after a failed first"
            );
            assert_eq!(
                joined(path, &NoopRecorder, first_ok, failing),
                Err("second".into()),
                "{path:?}"
            );
            assert_eq!(
                joined(path, &NoopRecorder, first_ok, ok),
                Ok((1, 2)),
                "{path:?}"
            );
        };
        check(JoinPath::Forked);
        in_filled_map(|| check(JoinPath::Inline));
    }

    #[test]
    fn join_reraises_a_second_panic_with_its_own_message() {
        // The fleet ladder isolates shards through `par_map_outcomes`; the
        // verdict must carry the second closure's payload, not the scope's
        // generic "a scoped thread panicked".
        let day = |path: JoinPath| {
            let exploding: Second = |_| panic!("prediction exploded");
            joined(path, &NoopRecorder, |_| Ok(1), exploding)
        };
        let forked = par_map_outcomes(1, &[()], &NoopRecorder, |_, _, _| day(JoinPath::Forked));
        let cores = host_threads();
        let filling: Vec<usize> = (0..cores.max(2)).collect();
        let inline = par_map_outcomes(cores, &filling, &NoopRecorder, |_, _, _| {
            day(JoinPath::Inline)
        });
        for (path, outcome) in [("forked", &forked[0]), ("inline", &inline[0])] {
            match outcome {
                Outcome::Panicked(message) => {
                    assert!(message.contains("prediction exploded"), "{path}: {message}");
                    assert!(!message.contains("scoped thread"), "{path}: {message}");
                }
                other => panic!("{path}: expected a panic verdict, got {other:?}"),
            }
        }
    }

    #[test]
    fn join_replays_the_second_closures_events_after_the_first() {
        let check = |path: JoinPath| {
            let log = Log::default();
            let caller = std::thread::current().id();
            let (done, recorded) = std::sync::mpsc::channel();
            let second = move |rec: &dyn Recorder| -> Result<_, String> {
                let _inner = span(rec, "inner");
                rec.event(&TraceEvent::new("second_event"));
                rec.add("second_counter", 1);
                done.send(()).unwrap();
                Ok(std::thread::current().id())
            };
            let first = |rec: &dyn Recorder| -> Result<(), String> {
                if let JoinPath::Forked = path {
                    // The helper records first; its event must still come
                    // after.
                    recorded.recv().unwrap();
                }
                rec.event(&TraceEvent::new("first_event"));
                Ok(())
            };
            let ((), ran_on) = joined(path, &log, first, second).unwrap();
            (ran_on == caller, log.0.into_inner().unwrap())
        };

        let (on_caller, seen) = check(JoinPath::Forked);
        assert!(!on_caller, "the forked second closure runs on a helper");
        assert_eq!(
            seen,
            [
                "second_counter",
                "first_event",
                "enter second",
                "exit second",
                "second_event"
            ],
            "counters pass through, events replay after the wait, spans drop"
        );

        in_filled_map(|| {
            let (on_caller, seen) = check(JoinPath::Inline);
            assert!(on_caller, "the inline second closure runs on the caller");
            assert_eq!(
                seen,
                [
                    "first_event",
                    "enter second",
                    "enter inner",
                    "second_event",
                    "second_counter",
                    "exit inner",
                    "exit second"
                ],
                "the inline run records into the caller's recorder, spans too"
            );
        });
    }

    #[test]
    fn forked_join_marks_both_threads_exactly_when_they_fill_the_host() {
        let fills = host_threads() == 2;
        let marks = join_on(
            2,
            &NoopRecorder,
            "second",
            |_| Ok::<_, String>(worker_fills_host()),
            |_| Ok(worker_fills_host()),
        )
        .unwrap();
        assert_eq!(marks, (fills, fills));
        assert!(!worker_fills_host(), "the caller's mark ends with its join");
        let first_panics = catch_unwind(AssertUnwindSafe(|| {
            let panicking: fn(&dyn Recorder) -> Result<u32, String> = |_| panic!("first");
            join_on(2, &NoopRecorder, "second", panicking, |_| Ok(2))
        }));
        assert!(first_panics.is_err());
        assert!(
            !worker_fills_host(),
            "and with a panic in its first closure"
        );
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
