//! The traced run: per-layer figures read from the spans and counters the
//! pipeline already emits (`SpanRecorder`, `MetricsRegistry`,
//! `SharedRegistry`), plus component timings taken around public entry
//! points on the workload's own inputs. Nothing here adds a span or a
//! counter to the library.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use netmeter_sentinel::core::{analytic_observation_matrix, LongTermDetector};
use netmeter_sentinel::obs::names::fleet as fleet_names;
use netmeter_sentinel::obs::span::SpanNode;
use netmeter_sentinel::obs::{MetricsRegistry, Recorder, SpanProfile, SpanRecorder, Tee};
use netmeter_sentinel::serve::SharedRegistry;
use netmeter_sentinel::sim::Market;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::inputs::{Inputs, Shard};
use crate::report::{digest, median};
use crate::reps::{self, Rep};
use crate::BoxError;

const PAR_MAPS: &str = "par_maps";
const PAR_BUSY: &str = "par_worker_busy_seconds";

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The traced repetition and the per-layer metrics read from it.
pub struct Traced {
    pub rep: Rep,
    pub metrics: Vec<Metric>,
}

/// Keeps, in arrival order, the raw observations a registry folds into
/// histograms, for the two figures a histogram cannot give back: the
/// busiest worker of each parallel map and the slowest shard of each day.
#[derive(Default)]
struct ObservationLog(Mutex<Vec<(&'static str, f64)>>);

impl ObservationLog {
    fn push(&self, name: &'static str, value: f64) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((name, value));
    }

    fn take(&self) -> Vec<(&'static str, f64)> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Recorder for ObservationLog {
    fn add(&self, name: &str, by: u64) {
        if name == PAR_MAPS {
            self.push(PAR_MAPS, by as f64);
        }
    }

    fn observe(&self, name: &str, value: f64) {
        if name == PAR_BUSY {
            self.push(PAR_BUSY, value);
        } else if name == fleet_names::DAY_CLOSE_SECONDS {
            self.push(fleet_names::DAY_CLOSE_SECONDS, value);
        }
    }
}

/// Runs one traced repetition and the layer probes. `untraced_run_s` is
/// the run time of the untraced repetition just before, for the tracing
/// overhead.
pub fn traced(inputs: &Inputs, dir: &Path, untraced_run_s: f64) -> Result<Traced, BoxError> {
    let log = Arc::new(ObservationLog::default());
    let spans = Arc::new(SpanRecorder::new());
    let fleet = inputs.fleet_workers > 0;
    // The span profiler follows the one thread that opens the first span.
    // Fleet shards close on worker threads, so the fleet's span tree comes
    // from shard 0 replayed alone on this thread; by the fleet's
    // determinism contract the replay is bit-identical to its fleet run.
    let (rep, counters, fleet_counters, profiled) = if fleet {
        let shard_counters = SharedRegistry::new();
        let registry = SharedRegistry::new();
        let fleet_recorder = Tee::new(vec![
            Arc::new(registry.clone()) as Arc<dyn Recorder>,
            Arc::clone(&log) as Arc<dyn Recorder>,
        ]);
        let rep = reps::fleet(
            inputs,
            dir,
            Arc::new(shard_counters.clone()),
            Arc::new(fleet_recorder),
            &registry,
        )?;
        let replay = reps::solo(
            &inputs.shards[0],
            dir,
            Arc::clone(&spans) as Arc<dyn Recorder>,
        )?;
        if digest(&replay.results) != digest(&rep.results[..1]) {
            return Err("shard 0 replayed alone diverged from its fleet run".into());
        }
        let profiled = (replay.run_s, replay.day_close_s.len());
        (rep, shard_counters.merged(), registry.merged(), profiled)
    } else {
        let counters = MetricsRegistry::new();
        let recorder = Tee::new(vec![
            Arc::clone(&spans) as Arc<dyn Recorder>,
            Arc::new(counters.clone()),
            Arc::clone(&log) as Arc<dyn Recorder>,
        ]);
        let rep = reps::solo(&inputs.shards[0], dir, Arc::new(recorder))?;
        let profiled = (rep.run_s, rep.day_close_s.len());
        (rep, counters, MetricsRegistry::new(), profiled)
    };
    let (profiled_run_s, profiled_days) = profiled;
    let log = log.take();

    let sums = span_sums(&spans.profile());
    let self_s = |name: &str| sums.get(name).map_or(0.0, |sum| sum.self_s);
    let per_day =
        |name: &str| sums.get(name).map_or(0.0, |sum| sum.total_s) / profiled_days.max(1) as f64;
    let share = |secs: f64| secs / profiled_run_s;
    let count = |name: &str| counters.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ce = self_s("ce_battery");
    let dp = self_s("dp_appliances");
    let game = self_s("game_solve");
    let hits = count("solver_cache_hits");
    let misses = count("solver_cache_misses");
    let append_s = counters
        .histogram("journal_append_seconds")
        .map_or(0.0, |h| h.sum() / h.count().max(1) as f64);
    let (busy_s, imbalance) = worker_balance(&log);
    let (shard_close_s, slowest_share) = if fleet {
        shard_closes(&log, inputs.shards.len(), &rep.fleet_day_wall_s)
    } else {
        (median(rep.day_close_s.iter().copied()), 1.0)
    };
    let ladder = [
        fleet_names::DAY_RETRIES,
        fleet_names::SHARD_RESTARTS,
        fleet_names::QUARANTINES,
    ]
    .iter()
    .map(|name| fleet_counters.counter(name) as f64)
    .sum();
    let probes = probe(&inputs.shards[0], &rep.results[0].observed_buckets)?;

    let metrics = vec![
        ("solver.ce_battery_s", ce, "s"),
        ("solver.ce_battery_s.share", share(ce), "ratio"),
        ("solver.dp_appliances_s", dp, "s"),
        ("solver.dp_appliances_s.share", share(dp), "ratio"),
        ("solver.game_solve_self_s", game, "s"),
        ("solver.game_solve_self_s.share", share(game), "ratio"),
        ("solver.rounds", count("solver_rounds"), "count"),
        ("solver.dp_cells", count("solver_dp_cells"), "count"),
        ("solver.ce_solves", count("solver_ce_solves"), "count"),
        (
            "solver.ce_iterations",
            count("solver_ce_iterations"),
            "count",
        ),
        (
            "solver.ce_converged_ratio",
            ratio(count("solver_ce_converged"), count("solver_ce_solves")),
            "ratio",
        ),
        (
            "solver.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        ("sim.bootstrap_s", probes.bootstrap_s, "s"),
        ("sim.calibration_s", self_s("training"), "s"),
        ("sim.clearing_s", per_day("clearing"), "s"),
        ("sim.prediction_s", per_day("prediction"), "s"),
        ("sim.slots_s", per_day("slots"), "s"),
        ("smarthome.community_s", probes.community_s, "s"),
        ("forecast.train_s", probes.train_s, "s"),
        ("forecast.predict_s", probes.predict_s, "s"),
        ("pomdp.solve_s", probes.solve_s, "s"),
        ("pomdp.step_s", probes.step_s, "s"),
        ("journal.append_s", append_s, "s"),
        (
            "journal.bytes_per_day",
            rep.journal_bytes as f64 / rep.attempted.max(1) as f64,
            "bytes",
        ),
        ("par.worker_busy_s", busy_s, "s"),
        ("par.imbalance", imbalance, "ratio"),
        ("fleet.shard_close_s", shard_close_s, "s"),
        ("fleet.slowest_shard_share", slowest_share, "ratio"),
        ("fleet.ladder_events", ladder, "count"),
        ("core.slots_imputed", count("sim_slots_imputed"), "count"),
        (
            "core.quarantine_trips",
            count("sim_quarantine_trips"),
            "count",
        ),
        ("serve.scrape_s", median(rep.scrape_s.iter().copied()), "s"),
        (
            "serve.publish_s",
            median(rep.publish_s.iter().copied()),
            "s",
        ),
        (
            "obs.trace_overhead",
            rep.run_s / untraced_run_s - 1.0,
            "ratio",
        ),
    ];
    Ok(Traced { rep, metrics })
}

/// Self and total seconds per span name, summed over the whole tree.
#[derive(Default, Clone, Copy)]
struct SpanSum {
    self_s: f64,
    total_s: f64,
}

fn span_sums(profile: &SpanProfile) -> BTreeMap<String, SpanSum> {
    fn walk(node: &SpanNode, sums: &mut BTreeMap<String, SpanSum>) {
        let sum = sums.entry(node.name.clone()).or_default();
        sum.self_s += node.self_secs;
        sum.total_s += node.total_secs;
        for child in &node.children {
            walk(child, sums);
        }
    }
    let mut sums = BTreeMap::new();
    for root in &profile.roots {
        walk(root, &mut sums);
    }
    sums
}

/// Total worker busy seconds, and Σ busiest worker ÷ Σ mean worker over
/// every parallel map (1.0 when each map ran on one worker).
fn worker_balance(log: &[(&'static str, f64)]) -> (f64, f64) {
    let mut maps: Vec<Vec<f64>> = Vec::new();
    for &(name, value) in log {
        match name {
            PAR_MAPS => maps.push(Vec::new()),
            PAR_BUSY => {
                if let Some(map) = maps.last_mut() {
                    map.push(value);
                }
            }
            _ => {}
        }
    }
    let (mut busy, mut max_sum, mut mean_sum) = (0.0, 0.0, 0.0);
    for map in maps.iter().filter(|map| !map.is_empty()) {
        let total: f64 = map.iter().sum();
        busy += total;
        max_sum += map.iter().copied().fold(0.0, f64::max);
        mean_sum += total / map.len() as f64;
    }
    (
        busy,
        if mean_sum > 0.0 {
            max_sum / mean_sum
        } else {
            1.0
        },
    )
}

/// Mean shard-day close, and Σ slowest shard close ÷ Σ fleet day wall
/// time. Each fleet day books one close per shard, in shard order.
fn shard_closes(log: &[(&'static str, f64)], shards: usize, day_wall_s: &[f64]) -> (f64, f64) {
    let closes: Vec<f64> = log
        .iter()
        .filter(|(name, _)| *name == fleet_names::DAY_CLOSE_SECONDS)
        .map(|&(_, value)| value)
        .collect();
    let mean = closes.iter().sum::<f64>() / closes.len().max(1) as f64;
    let slowest: f64 = closes
        .chunks(shards.max(1))
        .map(|day| day.iter().copied().fold(0.0, f64::max))
        .sum();
    let wall: f64 = day_wall_s.iter().sum();
    (mean, if wall > 0.0 { slowest / wall } else { 0.0 })
}

/// Component timings around public entry points, on the workload's own
/// inputs.
struct Probes {
    bootstrap_s: f64,
    community_s: f64,
    train_s: f64,
    predict_s: f64,
    solve_s: f64,
    step_s: f64,
}

fn probe(shard: &Shard, observations: &[usize]) -> Result<Probes, BoxError> {
    let scenario = &shard.scenario;
    let framework = shard
        .config
        .detector
        .as_ref()
        .ok_or("the workload runs no detector")?;
    let market = Market::new(scenario)?;
    let generator = scenario.generator();
    let mut rng = ChaCha8Rng::seed_from_u64(shard.seed);
    let start = Instant::now();
    let history = market.bootstrap_history(&generator, scenario.training_days, &mut rng)?;
    let bootstrap_s = start.elapsed().as_secs_f64();

    let first_day = scenario.training_days;
    let weather = scenario.weather_factors(first_day + shard.config.detection_days);
    let mut community_s = Vec::new();
    for (day, &clearness) in weather.iter().enumerate().skip(first_day).take(7) {
        let start = Instant::now();
        black_box(generator.community_for_day(day, clearness));
        community_s.push(start.elapsed().as_secs_f64());
    }
    let community = generator.community_for_day(first_day, weather[first_day]);

    let mut predictor = framework.price_predictor();
    let start = Instant::now();
    predictor.train(&history)?;
    let train_s = start.elapsed().as_secs_f64();
    let theta = community.total_generation();
    let forecast = predictor.features().target_generation.then_some(&theta);
    let start = Instant::now();
    black_box(predictor.predict_day(&history, community.horizon(), forecast)?);
    let predict_s = start.elapsed().as_secs_f64();

    let mut config = framework.long_term;
    config.buckets = shard.config.buckets;
    let matrix = analytic_observation_matrix(config.buckets, config.observation_accuracy);
    let start = Instant::now();
    let mut detector = LongTermDetector::with_observation_matrix(config, matrix)?;
    let solve_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for &observation in observations {
        black_box(detector.observe_and_act(observation));
    }
    let step_s = start.elapsed().as_secs_f64() / observations.len().max(1) as f64;

    Ok(Probes {
        bootstrap_s,
        community_s: median(community_s.into_iter()),
        train_s,
        predict_s,
        solve_s,
        step_s,
    })
}
