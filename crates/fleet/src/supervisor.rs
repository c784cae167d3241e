//! The day-lockstep supervisor: drives every shard one day at a time
//! through the isolating map, escalates failures up the ladder, and keeps
//! the ledgers.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use nms_obs::names::fleet as names;
use nms_obs::span;
use nms_par::{par_map_outcomes, Outcome};
use nms_sim::{LongTermRunResult, SupervisedRun};
use nms_types::{FleetHealth, ShardHealth, ShardStage};

use crate::{FleetConfig, FleetError, FleetOptions, ShardSpec};

/// One shard's final deliverable.
#[derive(Debug)]
pub struct ShardReport {
    /// Shard index within the fleet.
    pub shard: usize,
    /// The community label, echoed from the spec.
    pub community: String,
    /// The run result. Complete for every non-quarantined shard; for a
    /// quarantined shard it is the best-effort result over the journaled
    /// prefix (its verdicts are degraded — see the shard's
    /// `suspect_floor_days`), or `None` when even recovery failed.
    pub result: Option<LongTermRunResult>,
}

/// What [`run_fleet`] returns: per-shard results plus the supervision
/// ledger. The fleet itself never fails at runtime — failure is data here.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-shard results, in spec order.
    pub shards: Vec<ShardReport>,
    /// The aggregated supervision ledger, in spec order.
    pub health: FleetHealth,
}

/// One shard's mutable supervision state. Lives behind a `Mutex` so the
/// isolating map's `Fn` closures can step it; each shard is touched by
/// exactly one worker per day, so the lock is uncontended — it exists for
/// the type system, not for blocking.
struct ShardSlot {
    index: usize,
    spec: ShardSpec,
    options: nms_sim::SupervisedOptions,
    health: ShardHealth,
    /// The live run. `None` between incarnations: the initial build, every
    /// retry, and every resume all lazily rebuild from the journal through
    /// the same path, so "fresh start" and "recovery" cannot drift apart.
    run: Option<SupervisedRun>,
    consecutive_deadline_breaches: usize,
    quarantined: bool,
}

impl ShardSlot {
    fn finished(&self) -> bool {
        self.health.days_completed >= self.spec.config.detection_days
    }
}

/// What a successful day close reports back to the supervisor.
struct DayClose {
    /// Wall-clock seconds the close took (build/rebuild included).
    secs: f64,
    /// The deadline watchdog's verdict, if it fired.
    breach: Option<String>,
    /// Days the shard has completed after this close.
    days_completed: usize,
}

/// Locks a slot, recovering from poisoning: a shard closure that panicked
/// poisons its mutex, but the supervisor's whole job is to keep going —
/// the in-memory run is discarded (rebuilt from the journal) anyway, and
/// the health ledger is plain counters.
fn lock(slot: &Mutex<ShardSlot>) -> MutexGuard<'_, ShardSlot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Closes day `day` for one shard: lazily (re)build the run from its
/// journal, fire the chaos hook, step the day, and check the deadline.
///
/// This is the ONLY function the isolating map ever runs, for scheduled
/// days and ladder re-attempts alike — one code path, one containment
/// story. It may panic (the hook is allowed to, and so is any shard code);
/// the map converts that into `Outcome::Panicked`.
fn close_day(
    slot: &Mutex<ShardSlot>,
    day: usize,
    config: &FleetConfig,
    options: &FleetOptions,
) -> Result<DayClose, String> {
    let mut slot = lock(slot);
    let slot = &mut *slot;
    let watch = Instant::now();
    if slot.run.is_none() {
        let run = SupervisedRun::with_options(
            &slot.spec.scenario,
            &slot.spec.config,
            slot.spec.seed,
            &slot.spec.journal_path,
            slot.options.clone(),
        )
        .map_err(|err| format!("shard build failed: {err}"))?;
        slot.run = Some(run);
    }
    let index = slot.index;
    if let Some(hook) = &options.day_hook {
        hook(index, day);
    }
    let clock = match &options.clock_for {
        Some(factory) => factory(index, day, config.day_deadline),
        None => config.day_deadline.start(),
    };
    let run = slot
        .run
        .as_mut()
        .ok_or_else(|| "shard run vanished between build and step".to_string())?;
    run.step_day().map_err(|err| format!("day {day} failed: {err}"))?;
    Ok(DayClose {
        secs: watch.elapsed().as_secs_f64(),
        breach: clock.breach(0),
        days_completed: run.completed_days(),
    })
}

/// Runs the fleet to completion and reports.
///
/// Shard failures never propagate: panics are contained by the isolating
/// map, errors climb the ladder, and the worst case is a quarantined shard
/// with a best-effort partial result. The fleet's own contract is
/// "never panics, always reports".
///
/// # Errors
///
/// Only configuration problems surface as [`FleetError`]: an empty spec
/// list or invalid [`FleetConfig`] knobs.
pub fn run_fleet(
    specs: Vec<ShardSpec>,
    config: &FleetConfig,
    options: FleetOptions,
) -> Result<FleetReport, FleetError> {
    if specs.is_empty() {
        return Err(FleetError::NoShards);
    }
    config
        .validate()
        .map_err(|err| FleetError::Config(err.to_string()))?;

    let total_days = specs
        .iter()
        .map(|spec| spec.config.detection_days)
        .max()
        .unwrap_or(0);
    let slots: Vec<Mutex<ShardSlot>> = specs
        .into_iter()
        .enumerate()
        .map(|(index, spec)| {
            let health = ShardHealth::new(index, spec.community.clone());
            Mutex::new(ShardSlot {
                index,
                spec,
                options: options.options_for(index),
                health,
                run: None,
                consecutive_deadline_breaches: 0,
                quarantined: false,
            })
        })
        .collect();
    let rec = options.recorder.clone();

    for day in 0..total_days {
        let _day_span = span(rec.as_ref(), "fleet_day");
        let active: Vec<usize> = slots
            .iter()
            .map(|slot| lock(slot))
            .filter(|slot| !slot.quarantined && !slot.finished())
            .map(|slot| slot.index)
            .collect();
        rec.gauge(names::SHARDS_ACTIVE, active.len() as f64);
        if active.is_empty() {
            break;
        }

        // The parallel section: every active shard closes its day behind
        // the isolating map. The recorder only sees nms-par's own
        // post-join worker tallies here; fleet metrics are recorded in
        // the sequential ladder below, keeping events out of the
        // parallel region (the PR 4 contract).
        let outcomes = par_map_outcomes(
            config.parallelism.threads,
            &active,
            rec.as_ref(),
            |_, &index, _| close_day(&slots[index], day, config, &options),
        );

        // The sequential ladder: escalate each failed shard in spec order.
        for (&index, outcome) in active.iter().zip(outcomes) {
            let slot = &slots[index];
            match outcome {
                Outcome::Ok(close) => {
                    on_day_closed(slot, close, config, &options, rec.as_ref());
                }
                Outcome::Err(message) => {
                    lock(slot).health.last_error = Some(message);
                    climb_ladder(slot, day, config, &options, rec.as_ref(), true);
                }
                Outcome::Panicked(message) => {
                    rec.add(names::PANICS_CONTAINED, 1);
                    lock(slot).health.last_error = Some(message);
                    // A panic leaves the in-memory incarnation untrusted;
                    // skip the retry rung and resume from the journal.
                    climb_ladder(slot, day, config, &options, rec.as_ref(), false);
                }
            }
        }
        let quarantined = slots.iter().filter(|slot| lock(slot).quarantined).count();
        rec.gauge(names::SHARDS_QUARANTINED, quarantined as f64);

        // The day's quiescence point: workers joined, ladders settled,
        // gauges booked. Telemetry publishers snapshot here.
        if let Some(observer) = &options.on_day_close {
            let ledgers: Vec<ShardHealth> =
                slots.iter().map(|slot| lock(slot).health.clone()).collect();
            observer(day, &FleetHealth::new(ledgers));
        }
    }

    // Harvest: finish live runs; recover quarantined shards best-effort
    // from whatever prefix their journals hold.
    let _harvest_span = span(rec.as_ref(), "harvest");
    let mut reports = Vec::with_capacity(slots.len());
    let mut ledgers = Vec::with_capacity(slots.len());
    for slot in &slots {
        let mut slot = lock(slot);
        let result = if slot.quarantined {
            recover_quarantined(&mut slot)
        } else {
            finish_slot(&mut slot)
        };
        if let Some(result) = &result {
            slot.health.run = result.health.clone();
        }
        reports.push(ShardReport {
            shard: slot.index,
            community: slot.spec.community.clone(),
            result,
        });
        ledgers.push(slot.health.clone());
    }
    Ok(FleetReport {
        shards: reports,
        health: FleetHealth::new(ledgers),
    })
}

/// Books a successful close: ledger, metrics, and the deadline watchdog's
/// verdict (which can quarantine a chronically slow shard — *after* its
/// completed day is banked).
fn on_day_closed(
    slot: &Mutex<ShardSlot>,
    close: DayClose,
    config: &FleetConfig,
    options: &FleetOptions,
    rec: &dyn nms_obs::Recorder,
) {
    let mut slot = lock(slot);
    slot.health.days_completed = close.days_completed;
    rec.add(names::DAYS_CLOSED, 1);
    rec.observe(names::DAY_CLOSE_SECONDS, close.secs);
    match close.breach {
        Some(message) => {
            slot.health.deadline_breaches += 1;
            slot.consecutive_deadline_breaches += 1;
            slot.health.last_error = Some(message);
            rec.add(names::DEADLINE_BREACHES, 1);
            if slot.consecutive_deadline_breaches > config.ladder.max_deadline_breaches {
                quarantine(&mut slot, options, rec);
            }
        }
        None => slot.consecutive_deadline_breaches = 0,
    }
}

/// Escalates a failed shard-day: (optionally) the retry rung, then the
/// resume rung, then the breaker. Every re-attempt goes back through
/// [`close_day`] via a single-item isolating map, so ladder attempts enjoy
/// exactly the same panic containment as scheduled days.
fn climb_ladder(
    slot: &Mutex<ShardSlot>,
    day: usize,
    config: &FleetConfig,
    options: &FleetOptions,
    rec: &dyn nms_obs::Recorder,
    start_with_retries: bool,
) {
    // Whatever happened, the in-memory incarnation is no longer trusted:
    // a day that failed *after* mutating state (e.g. at the journal
    // append) would double-apply if stepped again in place. Rebuilding
    // from the journal is safe by construction.
    lock(slot).run = None;

    let mut resume_next = !start_with_retries;
    if start_with_retries {
        for attempt in 1..=config.ladder.max_day_retries {
            let _retry_span = span(rec, "ladder_retry");
            std::thread::sleep(std::time::Duration::from_millis(
                config.ladder.retry_backoff_ms.saturating_mul(attempt as u64),
            ));
            {
                let mut slot = lock(slot);
                slot.health.day_retries += 1;
                slot.health.escalate(ShardStage::Retried);
            }
            rec.add(names::DAY_RETRIES, 1);
            match attempt_once(slot, day, config, options, rec) {
                Attempt::Closed => return,
                // A panic mid-retry escalates straight out of the rung; a
                // plain failure burns the next attempt.
                Attempt::Panicked => break,
                Attempt::Failed => continue,
            }
        }
        resume_next = true;
    }

    if resume_next {
        loop {
            let resumes_used = {
                let slot = lock(slot);
                slot.health.resumes
            };
            if resumes_used >= config.ladder.max_resumes {
                break;
            }
            let _resume_span = span(rec, "ladder_resume");
            {
                let mut slot = lock(slot);
                slot.health.resumes += 1;
                slot.health.escalate(ShardStage::Resumed);
                slot.run = None;
            }
            rec.add(names::SHARD_RESTARTS, 1);
            if let Some(hook) = &options.before_resume {
                hook(lock(slot).index);
            }
            if let Attempt::Closed = attempt_once(slot, day, config, options, rec) {
                return;
            }
        }
    }

    let mut slot = lock(slot);
    quarantine(&mut slot, options, rec);
}

/// The verdict of one ladder re-attempt.
enum Attempt {
    Closed,
    Failed,
    Panicked,
}

/// Runs one ladder re-attempt through the same isolating map as scheduled
/// days (a single-item map: same capture path, zero thread spawns).
fn attempt_once(
    slot: &Mutex<ShardSlot>,
    day: usize,
    config: &FleetConfig,
    options: &FleetOptions,
    rec: &dyn nms_obs::Recorder,
) -> Attempt {
    let mut outcomes = par_map_outcomes(1, &[()], &nms_obs::NoopRecorder, |_, _item, _| {
        close_day(slot, day, config, options)
    });
    match outcomes.pop() {
        Some(Outcome::Ok(close)) => {
            on_day_closed(slot, close, config, options, rec);
            Attempt::Closed
        }
        Some(Outcome::Err(message)) => {
            lock(slot).health.last_error = Some(message);
            lock(slot).run = None;
            Attempt::Failed
        }
        Some(Outcome::Panicked(message)) => {
            rec.add(names::PANICS_CONTAINED, 1);
            lock(slot).health.last_error = Some(message);
            lock(slot).run = None;
            Attempt::Panicked
        }
        None => Attempt::Failed,
    }
}

/// Trips the breaker: the shard leaves the rotation, and every day it will
/// no longer really run is booked as a degraded suspect-floor verdict.
fn quarantine(slot: &mut ShardSlot, _options: &FleetOptions, rec: &dyn nms_obs::Recorder) {
    if slot.quarantined {
        return;
    }
    slot.quarantined = true;
    slot.run = None;
    slot.health.escalate(ShardStage::Quarantined);
    let remaining = slot
        .spec
        .config
        .detection_days
        .saturating_sub(slot.health.days_completed);
    slot.health.suspect_floor_days = remaining;
    rec.add(names::QUARANTINES, 1);
    rec.add(names::SUSPECT_FLOOR_DAYS, remaining as u64);
}

/// Finishes a live (non-quarantined) shard into its result.
fn finish_slot(slot: &mut ShardSlot) -> Option<LongTermRunResult> {
    let run = match slot.run.take() {
        Some(run) => Some(run),
        // A shard can reach harvest without a live run only if it never
        // got one (e.g. zero detection days) — build one so finish() has
        // something to summarize.
        None => SupervisedRun::with_options(
            &slot.spec.scenario,
            &slot.spec.config,
            slot.spec.seed,
            &slot.spec.journal_path,
            slot.options.clone(),
        )
        .map_err(|err| {
            slot.health.last_error = Some(format!("harvest build failed: {err}"));
        })
        .ok(),
    };
    match run.map(SupervisedRun::finish) {
        Some(Ok(result)) => Some(result),
        Some(Err(err)) => {
            slot.health.last_error = Some(format!("finish failed: {err}"));
            None
        }
        None => None,
    }
}

/// Best-effort recovery of a quarantined shard: rebuild from whatever
/// prefix the journal holds and summarize it. The rebuild itself runs
/// behind the isolating map — a quarantined shard's storage may be dead in
/// arbitrarily hostile ways, and recovery must not take the fleet down
/// either.
fn recover_quarantined(slot: &mut ShardSlot) -> Option<LongTermRunResult> {
    let scenario = slot.spec.scenario.clone();
    let config = slot.spec.config.clone();
    let seed = slot.spec.seed;
    let path = slot.spec.journal_path.clone();
    let options = slot.options.clone();
    let mut outcomes = par_map_outcomes(1, &[()], &nms_obs::NoopRecorder, move |_, _item, _| {
        SupervisedRun::with_options(&scenario, &config, seed, &path, options.clone())
            .and_then(SupervisedRun::finish)
            .map_err(|err| format!("quarantine recovery failed: {err}"))
    });
    match outcomes.pop() {
        Some(Outcome::Ok(result)) => Some(result),
        Some(Outcome::Err(message)) | Some(Outcome::Panicked(message)) => {
            slot.health.last_error = Some(message);
            None
        }
        None => None,
    }
}
