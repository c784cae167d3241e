//! The observability determinism contract (DESIGN.md §10): an active
//! recorder may watch everything but change nothing. A run instrumented
//! with JSONL tracing and a metrics registry must be bit-identical to the
//! same run with the no-op recorder — telemetry flows out, never back in.

use std::path::Path;
use std::sync::{Arc, Mutex};

use netmeter_sentinel::core::{DetectorMode, FrameworkConfig, QuarantineConfig};
use netmeter_sentinel::obs::names::forecast as forecast_names;
use netmeter_sentinel::obs::{
    read_trace, JsonlTrace, MetricsRegistry, NoopRecorder, Recorder, Tee, TraceEvent,
};
use netmeter_sentinel::sim::export::export_long_term;
use netmeter_sentinel::sim::{
    FaultPlan, LongTermRunConfig, LongTermRunResult, Market, MeterOutage, PaperScenario,
    SupervisedOptions, SupervisedRun,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nms-obs-{tag}-{}.jsonl", std::process::id()))
}

/// A run from `seed` with its journal in memory and `recorder` watching.
fn start(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
    recorder: Arc<dyn Recorder>,
) -> SupervisedRun {
    let options = SupervisedOptions {
        recorder,
        ..SupervisedOptions::in_memory()
    };
    SupervisedRun::with_options(scenario, config, seed, Path::new("journal.jsonl"), options)
        .unwrap()
}

fn assert_identical(noop: &LongTermRunResult, recorded: &LongTermRunResult) {
    // Bit-identity on every float the run produces; `to_bits` avoids any
    // tolerance sneaking in through `==` on NaN-free data.
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&noop.realized_demand), bits(&recorded.realized_demand));
    assert_eq!(noop.par.to_bits(), recorded.par.to_bits());
    assert_eq!(noop.true_buckets, recorded.true_buckets);
    assert_eq!(noop.observed_buckets, recorded.observed_buckets);
    assert_eq!(noop.fixes_at, recorded.fixes_at);
    assert_eq!(noop.final_belief, recorded.final_belief);
    assert_eq!(noop.health, recorded.health);
    assert_eq!(noop.quarantine_events, recorded.quarantine_events);

    // The exported CSV — the artifact downstream plots consume — is
    // byte-identical, not merely numerically close.
    let csv = |result: &LongTermRunResult| {
        let mut buffer = Vec::new();
        export_long_term(&mut buffer, result).unwrap();
        buffer
    };
    assert_eq!(csv(noop), csv(recorded));
}

fn detection_config(customers: usize) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: 2,
        detector: Some(FrameworkConfig::new(DetectorMode::NetMeteringAware, 24)),
        timeline: netmeter_sentinel::sim::experiments::paper_timeline(customers),
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: netmeter_sentinel::types::SolveBudget::unlimited(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    }
}

/// A detector-on run at seed 23: tracing + metrics attached vs the no-op
/// recorder, bit-identical results.
#[test]
fn recorded_legacy_run_matches_noop() {
    let mut scenario = PaperScenario::small(10, 23);
    scenario.training_days = 4;
    let config = detection_config(scenario.customers);

    let noop = start(&scenario, &config, 23, Arc::new(NoopRecorder))
        .run()
        .unwrap();

    let trace_path = temp_path("legacy");
    let _ = std::fs::remove_file(&trace_path);
    let metrics = MetricsRegistry::new();
    let tee = Tee::new(vec![
        Arc::new(JsonlTrace::create(&trace_path).unwrap()) as Arc<dyn Recorder>,
        Arc::new(metrics.clone()),
    ]);
    let recorded = start(&scenario, &config, 23, Arc::new(tee)).run().unwrap();

    assert_identical(&noop, &recorded);

    // The active run actually recorded: solver effort, per-day phases,
    // and a sealed trace that round-trips through the reader.
    assert!(metrics.counter("solver_games") > 0);
    assert!(metrics.counter("solver_ce_solves") > 0);
    let clearing = metrics.histogram("detect_clearing_seconds").unwrap();
    assert_eq!(clearing.count(), config.detection_days as u64);

    let events = read_trace(&trace_path).unwrap();
    let kinds = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(kinds("day_phases"), config.detection_days);
    assert_eq!(kinds("training"), 1);
    // The training event carries the calibrated observation-map
    // centroids: one `centroid_<bucket>` field per bucket, increasing.
    let training = events.iter().find(|e| e.kind == "training").unwrap();
    let centroids: Vec<f64> = (0..config.buckets)
        .map(|bucket| {
            training
                .field_value(&format!("centroid_{bucket}"))
                .unwrap_or_else(|| panic!("training event lacks centroid_{bucket}"))
        })
        .collect();
    assert!(training
        .field_value(&format!("centroid_{}", config.buckets))
        .is_none());
    assert!(centroids.iter().all(|c| c.is_finite()));
    assert!(
        centroids.windows(2).all(|pair| pair[0] < pair[1]),
        "centroids must increase: {centroids:?}"
    );
    assert!(kinds("game_solved") > 0, "solver convergence events missing");
    assert_eq!(kinds("slot"), config.detection_days * 24);
    let day_phases: Vec<&TraceEvent> =
        events.iter().filter(|e| e.kind == "day_phases").collect();
    for event in day_phases {
        for field in [
            "clearing_seconds",
            "prediction_seconds",
            "par_seconds",
            "pomdp_seconds",
        ] {
            let value = event.field_value(field).unwrap();
            assert!(value >= 0.0, "{field} must be a non-negative duration");
        }
    }
    let _ = std::fs::remove_file(&trace_path);
}

/// The supervised driver under fault injection and quarantine: the active
/// recorder sees sanitize and quarantine-transition events while the run's
/// results stay bit-identical to the unrecorded run.
#[test]
fn recorded_supervised_run_matches_noop_and_traces_quarantine() {
    let mut scenario = PaperScenario::small(6, 43);
    scenario.training_days = 4;
    let mut config = detection_config(scenario.customers);
    config.detection_days = 4;
    let mut plan = FaultPlan::none(11);
    plan.outage = Some(MeterOutage {
        first_meter: 1,
        meters: 2,
        from_day: 4,
        until_day: 6,
    });
    config.faults = Some(plan);
    config.quarantine = QuarantineConfig {
        trip_after: 2,
        probation_after: 1,
        close_after: 1,
        ..Default::default()
    };

    let trace_path = temp_path("sup-trace");
    let _ = std::fs::remove_file(&trace_path);

    let noop = start(&scenario, &config, 43, Arc::new(NoopRecorder))
        .run()
        .unwrap();

    let trace = Arc::new(JsonlTrace::create(&trace_path).unwrap());
    let recorded = start(&scenario, &config, 43, trace.clone()).run().unwrap();
    assert_eq!(trace.dropped(), 0, "no trace line may be dropped");

    assert_identical(&noop, &recorded);
    assert!(
        !noop.quarantine_events.is_empty(),
        "recipe must actually trip breakers"
    );

    let events = read_trace(&trace_path).unwrap();
    let kinds = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(kinds("quarantine"), noop.quarantine_events.len());
    assert!(kinds("sanitize") > 0, "fault injection must trace sanitize");
    assert_eq!(kinds("journal_append"), config.detection_days);
    assert_eq!(kinds("day_phases"), config.detection_days);
    // Quarantine events carry the transition as a label.
    let quarantine = events.iter().find(|e| e.kind == "quarantine").unwrap();
    assert!(quarantine.label_value("transition").is_some());

    let _ = std::fs::remove_file(&trace_path);
}

/// A trace event with its wall-clock fields removed: what must repeat
/// exactly from run to run.
fn untimed(event: &TraceEvent) -> TraceEvent {
    let mut event = event.clone();
    event.fields.retain(|field| !field.key.ends_with("seconds"));
    event
}

/// Per detection day, the solver events (`game_round`, `game_solved`) from
/// the end of the previous day (or training) up to the day's first `slot`,
/// or its `day_phases` when the run has no detector.
fn day_front_solver_events(events: &[TraceEvent]) -> Vec<Vec<TraceEvent>> {
    let mut days = Vec::new();
    let mut current = Vec::new();
    let mut open = false;
    for event in events {
        match event.kind.as_str() {
            "training" | "journal_append" => {
                current.clear();
                open = true;
            }
            "game_round" | "game_solved" if open => current.push(untimed(event)),
            "slot" | "day_phases" if open => {
                days.push(std::mem::take(&mut current));
                open = false;
            }
            _ => {}
        }
    }
    days
}

/// The calibration counts every SMO fit of the price predictor: one per
/// backtest day, then the full history's, with their passes and their
/// fallbacks to the seasonal baseline. An iteration cap stops every fit
/// at the cap, so there the pass counter is the sum of known reports.
#[test]
fn calibration_counts_every_smo_fit() {
    let mut scenario = PaperScenario::small(10, 23);
    scenario.training_days = 4;
    let counted = |config: &LongTermRunConfig| {
        let metrics = MetricsRegistry::new();
        let result = start(&scenario, config, 23, Arc::new(metrics.clone()))
            .run()
            .unwrap();
        let predictor_fallbacks = result
            .health
            .fallbacks
            .iter()
            .filter(|fallback| fallback.component == "price-predictor")
            .count() as u64;
        (result, predictor_fallbacks, metrics)
    };

    let config = detection_config(scenario.customers);
    let (_, predictor_fallbacks, metrics) = counted(&config);
    let backtest_days = metrics.counter("calibrate_backtest_days");
    assert!(backtest_days > 0);
    let fits = metrics.counter(forecast_names::SMO_FITS);
    assert_eq!(fits, backtest_days + 1);
    assert!(metrics.counter(forecast_names::SMO_PASSES) >= fits);
    assert_eq!(
        metrics.counter(forecast_names::SMO_FALLBACKS),
        predictor_fallbacks
    );

    let cap = 2;
    let mut capped = config.clone();
    capped.budget.max_iterations = Some(cap);
    let (result, predictor_fallbacks, metrics) = counted(&capped);
    assert_eq!(metrics.counter(forecast_names::SMO_FITS), fits);
    assert_eq!(
        metrics.counter(forecast_names::SMO_PASSES),
        cap as u64 * fits,
        "every fit stops at the cap"
    );
    assert_eq!(metrics.counter(forecast_names::SMO_FALLBACKS), fits);
    assert_eq!(predictor_fallbacks, fits);
    assert_eq!(result.health.budget_breaches as u64, fits);
}

/// The detector-on supervised day forks its prediction beside the market
/// clearing. The trace must not notice: the event sequence repeats across
/// runs, each day's prediction game lands after the clearing's games and
/// before the first slot, and results, events and solver totals equal the
/// same run stepped in an item of a host-filling `nms_par` map, where each
/// day runs its prediction inline after the clearing.
#[test]
fn forked_detection_days_keep_the_sequential_trace() {
    let mut scenario = PaperScenario::small(10, 29);
    scenario.training_days = 4;
    let config = detection_config(scenario.customers);
    let seed = 29;

    let traced = |tag: &str, config: &LongTermRunConfig| {
        let trace_path = temp_path(&format!("fork-{tag}-trace"));
        let _ = std::fs::remove_file(&trace_path);
        let trace = Arc::new(JsonlTrace::create(&trace_path).unwrap());
        let metrics = MetricsRegistry::new();
        let tee = Tee::new(vec![
            trace.clone() as Arc<dyn Recorder>,
            Arc::new(metrics.clone()),
        ]);
        let mut run = start(&scenario, config, seed, Arc::new(tee));
        while !run.is_finished() {
            run.step_day().unwrap();
        }
        let result = run.finish().unwrap();
        assert_eq!(trace.dropped(), 0, "no trace line may be dropped");
        let events: Vec<TraceEvent> = read_trace(&trace_path)
            .unwrap()
            .iter()
            .map(untimed)
            .collect();
        let _ = std::fs::remove_file(&trace_path);
        (result, events, metrics)
    };

    // The sequential reference. On a 1-core host the map has one unmarked
    // worker, and every day runs inline there as well.
    let inline = |tag: &str, config: &LongTermRunConfig| {
        let cores = nms_par::host_threads();
        let items: Vec<usize> = (0..cores.max(2)).collect();
        let mut runs = nms_par::par_map(cores, &items, &NoopRecorder, |index, _, _| {
            Ok::<_, String>((index == 0).then(|| {
                assert!(nms_par::worker_fills_host() || cores == 1);
                traced(tag, config)
            }))
        })
        .unwrap();
        runs.swap_remove(0).unwrap()
    };

    let (first, first_events, first_metrics) = traced("a", &config);
    let (second, second_events, _) = traced("b", &config);
    assert_identical(&first, &second);
    assert_eq!(
        first_events, second_events,
        "the event sequence must repeat"
    );

    let (reference, reference_events, reference_metrics) = inline("ref", &config);
    assert_identical(&first, &reference);
    assert_eq!(first_events, reference_events);
    for counter in [
        "solver_games",
        "solver_rounds",
        "solver_ce_solves",
        "solver_dp_cells",
    ] {
        assert!(
            first_metrics.counter(counter) > 0,
            "{counter} never counted"
        );
        assert_eq!(
            first_metrics.counter(counter),
            reference_metrics.counter(counter),
            "{counter} differs from the inline run"
        );
    }

    // The helper's counters reach the registry directly while its events
    // replay after the join; both must account for every game.
    let games: Vec<&TraceEvent> = first_events
        .iter()
        .filter(|e| e.kind == "game_solved")
        .collect();
    let rounds: f64 = games.iter().filter_map(|e| e.field_value("rounds")).sum();
    assert_eq!(first_metrics.counter("solver_games"), games.len() as u64);
    assert_eq!(first_metrics.counter("solver_rounds"), rounds as u64);

    // The clearing reads neither the detector nor the compromise set, so a
    // detector-free run of the same seed clears the same games. Each forked
    // day's solver events before its first slot are exactly those, then
    // the prediction's game as the last one.
    let mut no_detector = config.clone();
    no_detector.detector = None;
    let (_, clearing_events, _) = traced("clear", &no_detector);
    let forked_days = day_front_solver_events(&first_events);
    let clearing_days = day_front_solver_events(&clearing_events);
    assert_eq!(forked_days.len(), config.detection_days);
    assert_eq!(clearing_days.len(), config.detection_days);
    let solved = |events: &[TraceEvent]| events.iter().filter(|e| e.kind == "game_solved").count();
    for (day, (forked, clearing)) in forked_days.iter().zip(&clearing_days).enumerate() {
        assert_eq!(
            solved(clearing),
            config.clearing_iterations + 1,
            "day {day}"
        );
        assert_eq!(solved(forked), solved(clearing) + 1, "day {day}");
        assert_eq!(
            &forked[..clearing.len()],
            &clearing[..],
            "day {day}: clearing first"
        );
        assert_eq!(
            forked.last().map(|e| e.kind.as_str()),
            Some("game_solved"),
            "day {day}: the prediction's game closes the day's front half"
        );
    }
}

/// Keeps every event, without its wall-clock fields, in arrival order.
#[derive(Default)]
struct EventLog(Mutex<Vec<TraceEvent>>);

impl Recorder for EventLog {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: &TraceEvent) {
        self.0.lock().unwrap().push(untimed(event));
    }
}

/// The training epoch clears its bootstrap days on the calling thread and
/// a helper. Against a plain loop that clears the days one after another,
/// drawing each day's seed as it goes, the history, the RNG's position, the
/// event sequence and the solver counters must be equal, for a PV-only
/// community and a battery one (the CE path). Five days split unevenly
/// between the two threads.
#[test]
fn forked_bootstrap_matches_the_sequential_loop() {
    let days = 5;
    for batteries in [false, true] {
        for seed in [1, 2] {
            let mut scenario = PaperScenario::small(10, seed);
            scenario.training_days = days;
            if !batteries {
                scenario.battery_ownership = 0.0;
            }
            let market = Market::new(&scenario).unwrap();
            let generator = scenario.generator();
            let label = format!("batteries {batteries}, seed {seed}");
            let recorder = || {
                let events = Arc::new(EventLog::default());
                let metrics = MetricsRegistry::new();
                let tee = Tee::new(vec![
                    events.clone() as Arc<dyn Recorder>,
                    Arc::new(metrics.clone()),
                ]);
                (events, metrics, tee)
            };

            let (forked_events, forked_metrics, tee) = recorder();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let forked = market
                .bootstrap_history_recorded(&generator, days, &mut rng, &tee)
                .unwrap();
            let forked_next: u64 = rng.gen();

            let (loop_events, loop_metrics, tee) = recorder();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (mut prices, mut generation, mut demand) = (Vec::new(), Vec::new(), Vec::new());
            for (day, &clearness) in scenario.weather_factors(days).iter().enumerate() {
                let community = generator.community_for_day(day, clearness);
                let outcome = market.clear_day(&community, 2, rng.gen(), &tee).unwrap();
                let theta = community.total_generation();
                for h in 0..community.horizon().slots() {
                    prices.push(outcome.price.at(h).value());
                    generation.push(theta[h]);
                    demand.push(outcome.response.load().at(h).value());
                }
            }
            let loop_next: u64 = rng.gen();

            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(forked.len(), days * 24, "{label}");
            assert_eq!(bits(forked.prices()), bits(&prices), "{label}");
            assert_eq!(bits(forked.generation()), bits(&generation), "{label}");
            assert_eq!(bits(forked.demand()), bits(&demand), "{label}");
            assert_eq!(forked_next, loop_next, "{label}: the RNG must end in place");

            let forked_events = forked_events.0.lock().unwrap().clone();
            let loop_events = loop_events.0.lock().unwrap().clone();
            let solved = loop_events
                .iter()
                .filter(|e| e.kind == "game_solved")
                .count();
            assert_eq!(solved, days * 3, "{label}: three games per day");
            assert_eq!(forked_events, loop_events, "{label}");

            for counter in [
                "solver_games",
                "solver_rounds",
                "solver_dp_cells",
                "solver_ce_solves",
            ] {
                assert_eq!(
                    forked_metrics.counter(counter),
                    loop_metrics.counter(counter),
                    "{label}: {counter}"
                );
            }
            assert_eq!(
                loop_metrics.counter("solver_ce_solves") > 0,
                batteries,
                "{label}: CE runs exactly when homes have batteries"
            );
            assert_eq!(forked_metrics.counter("par_maps"), 1, "{label}: one map");
            assert_eq!(
                forked_metrics.counter("par_items"),
                days as u64,
                "{label}: one item per day"
            );
        }
    }
}
