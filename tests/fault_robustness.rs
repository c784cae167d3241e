//! Robustness acceptance tests: telemetry fault injection, graceful
//! degradation, and the solver fallback-and-retry chain.
//!
//! The contract under test: a corrupted telemetry stream must never panic
//! the pipeline — every slot still gets a verdict, and [`RunHealth`]
//! accounts for the faults, imputations, retries, and fallbacks consumed
//! along the way.

use proptest::prelude::*;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use netmeter_sentinel::attack::{AttackTimeline, PriceAttack};
use netmeter_sentinel::core::{DetectorMode, FrameworkConfig, QuarantineConfig, QuarantineTransition};
use netmeter_sentinel::sim::journal::JournalError;
use netmeter_sentinel::sim::{
    FaultPlan, LongTermRunConfig, LongTermRunResult, MeterOutage, PaperScenario, Parallelism,
    SimError, SupervisedOptions, SupervisedRun,
};
use netmeter_sentinel::types::RetryPolicy;

/// Unique scratch path for a journal file.
fn journal_path(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "nms-robustness-{}-{name}-{n}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// One long-term run from `seed`, journaled in memory.
fn run_long_term(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
) -> Result<LongTermRunResult, SimError> {
    let journal = Path::new("journal.jsonl");
    SupervisedRun::with_options(
        scenario,
        config,
        seed,
        journal,
        SupervisedOptions::in_memory(),
    )?
    .run()
}

fn timeline(fleet: usize) -> AttackTimeline {
    let wave = (fleet / 3).max(1);
    AttackTimeline::new(
        vec![(4, wave), (20, wave)],
        PriceAttack::zero_window(16.0, 18.0).unwrap(),
    )
    .unwrap()
}

fn config(detector: Option<FrameworkConfig>, days: usize, faults: Option<FaultPlan>) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: days,
        detector,
        timeline: timeline(10),
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults,
        sanitize: Default::default(),
        retry: RetryPolicy::default(),
        budget: Default::default(),
        quarantine: QuarantineConfig::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    }
}

/// The ISSUE's end-to-end acceptance shape: a 48-hour simulated run with 5%
/// dropped readings and 1% NaN values completes without panicking, returns
/// a verdict for every slot, and the health report accounts for the faults.
#[test]
fn degraded_48h_run_returns_a_verdict_every_slot() {
    let mut scenario = PaperScenario::small(10, 41);
    scenario.training_days = 4;
    let mut plan = FaultPlan::none(17);
    plan.drop_rate = 0.05;
    plan.nan_rate = 0.01;
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let config = config(Some(detector), 2, Some(plan));

    let result = run_long_term(&scenario, &config, 9).unwrap();

    // Verdict every slot of the 48-hour window.
    assert_eq!(result.observed_buckets.len(), 48);
    assert_eq!(result.true_buckets.len(), 48);
    assert_eq!(result.realized_demand.len(), 48);
    assert!(result.realized_demand.iter().all(|d| d.is_finite()));
    assert!(result.observed_buckets.iter().all(|&o| o < config.buckets));

    // The ledger saw the corruption: ~5% of 10 meters × 48 slots dropped.
    assert!(
        result.health.faults_injected.dropped > 0,
        "no dropped readings recorded: {:?}",
        result.health
    );
    assert!(result.health.faults_injected.non_finite > 0);
    assert_eq!(result.health.slots_observed, 48);
}

/// Same run, pristine telemetry: the ledger stays clean and accuracy is at
/// least as good as under corruption (the runs share every seed).
#[test]
fn pristine_run_reports_a_clean_ledger() {
    let mut scenario = PaperScenario::small(10, 41);
    scenario.training_days = 4;
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let config = config(Some(detector), 1, Some(FaultPlan::none(17)));
    let result = run_long_term(&scenario, &config, 9).unwrap();
    assert_eq!(result.health.faults_injected.total(), 0);
    assert_eq!(result.health.slots_imputed, 0);
    assert_eq!(result.observed_buckets.len(), 24);
}

/// Meters that stop reporting entirely force aggregate-level NaN slots,
/// which the sanitizer must impute (and count).
#[test]
fn unreported_fleet_forces_imputation() {
    let mut scenario = PaperScenario::small(6, 43);
    scenario.training_days = 4;
    let mut plan = FaultPlan::none(5);
    plan.report_rate = 0.0; // nobody reports: every slot needs imputing
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let config = config(Some(detector), 1, Some(plan));
    let result = run_long_term(&scenario, &config, 3).unwrap();
    assert_eq!(result.observed_buckets.len(), 24);
    assert_eq!(result.health.faults_injected.unreported, 6);
    assert_eq!(
        result.health.slots_imputed, 24,
        "a silent fleet must impute the whole day: {:?}",
        result.health
    );
}

/// The predictor-side fallback shape: an SMO budget that can never satisfy
/// its tolerance must drop to the seasonal baseline, recorded in the train
/// report, and still predict a full day.
#[test]
fn smo_exhaustion_falls_back_to_seasonal_baseline() {
    use netmeter_sentinel::core::PricePredictor;
    use netmeter_sentinel::forecast::{FeatureConfig, PriceHistory, SvrParams};
    use netmeter_sentinel::types::{Horizon, SolveBudget};

    let spd = 24;
    let mut prices = Vec::new();
    let mut generation = Vec::new();
    let mut demand = Vec::new();
    for t in 0..spd * 6 {
        let hour = (t % spd) as f64;
        prices.push(0.05 + 0.01 * (12.0 - hour).abs() / 12.0);
        generation.push(0.0);
        demand.push(100.0 + hour);
    }
    let history = PriceHistory::new(prices, generation, demand, spd).unwrap();

    let mut predictor = PricePredictor::with_config(
        FeatureConfig::naive(spd),
        SvrParams {
            max_passes: 1,
            tolerance: 0.0,
            ..SvrParams::default()
        },
    );
    let policy = RetryPolicy {
        max_attempts: 3,
        iteration_growth: 2.0,
    };
    let report = predictor
        .train_robust_budgeted(&history, &policy, &SolveBudget::unlimited())
        .unwrap();
    assert!(!report.converged);
    assert_eq!(report.retries, 2);
    let record = report.fallback.expect("fallback recorded");
    assert_eq!(
        (record.from.as_str(), record.to.as_str()),
        ("svr", "seasonal-baseline")
    );
    let predicted = predictor
        .predict_day(&history, Horizon::hourly_day(), None)
        .unwrap();
    assert_eq!(predicted.len(), 24);
    assert!(predicted.as_series().iter().all(|p| p.is_finite()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the fault mix, a small scenario either returns a verdict
    /// for every slot plus a health ledger, or a typed `SimError` — never
    /// a panic.
    #[test]
    fn arbitrary_fault_plans_never_panic(
        seed in 0u64..1000,
        drop_rate in 0.0f64..=1.0,
        nan_rate in 0.0f64..=1.0,
        garbage_rate in 0.0f64..=1.0,
        stuck_rate in 0.0f64..=1.0,
        skew_rate in 0.0f64..=1.0,
        report_rate in 0.0f64..=1.0,
    ) {
        let plan = FaultPlan {
            seed,
            drop_rate,
            nan_rate,
            garbage_rate,
            garbage_scale: 100.0,
            stuck_rate,
            skew_rate,
            report_rate,
            outage: None,
        };
        let mut scenario = PaperScenario::small(4, 29);
        scenario.training_days = 4;
        let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
        let config = config(Some(detector), 1, Some(plan));
        match run_long_term(&scenario, &config, seed) {
            Ok(result) => {
                prop_assert_eq!(result.observed_buckets.len(), 24);
                prop_assert_eq!(result.health.slots_observed, 24);
                prop_assert!(result.realized_demand.iter().all(|d| d.is_finite()));
            }
            Err(
                SimError::Solver(_)
                | SimError::Prediction(_)
                | SimError::Config(_)
                | SimError::Telemetry { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error variant: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Crash-safe supervision: checkpoint/resume, journal damage, quarantine
// ---------------------------------------------------------------------------

/// Every field a resumed run must reproduce bit for bit.
fn assert_same_run(resumed: &LongTermRunResult, fresh: &LongTermRunResult) {
    assert_eq!(resumed.true_buckets, fresh.true_buckets);
    assert_eq!(resumed.observed_buckets, fresh.observed_buckets);
    assert_eq!(resumed.realized_demand, fresh.realized_demand);
    assert_eq!(resumed.fixes_at, fresh.fixes_at);
    assert_eq!(resumed.final_belief, fresh.final_belief);
    assert_eq!(resumed.health, fresh.health);
    assert_eq!(resumed.day_health, fresh.day_health);
    assert_eq!(resumed.quarantine_events, fresh.quarantine_events);
    assert_eq!(resumed.quarantine, fresh.quarantine);
    assert_eq!(resumed.labor.fixes(), fresh.labor.fixes());
    assert_eq!(resumed.par, fresh.par);
}

/// "Kills" a run after one completed day: steps once, then drops the run
/// on the floor. The journal on `options.vfs` holds the header plus
/// exactly one day record.
fn kill_after_day_one(
    scenario: &PaperScenario,
    cfg: &LongTermRunConfig,
    seed: u64,
    options: &SupervisedOptions,
) {
    let journal = Path::new("killed.jsonl");
    let mut run =
        SupervisedRun::with_options(scenario, cfg, seed, journal, options.clone()).unwrap();
    run.step_day().unwrap();
    assert_eq!(run.completed_days(), 1);
    assert!(!run.is_finished());
}

/// The tentpole's acceptance shape: a supervised run killed after day 1
/// and resumed from its journal finishes with *exactly* the state a never-
/// killed run reaches — belief, per-slot decisions, fixes, and the health
/// ledger are all bit-identical.
#[test]
fn killed_and_resumed_run_matches_uninterrupted_run() {
    let mut scenario = PaperScenario::small(8, 47);
    scenario.training_days = 4;
    let mut plan = FaultPlan::none(17);
    plan.drop_rate = 0.05;
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let cfg = config(Some(detector), 2, Some(plan));

    let fresh = run_long_term(&scenario, &cfg, 7).unwrap();

    let options = SupervisedOptions::in_memory();
    kill_after_day_one(&scenario, &cfg, 7, &options);
    let resumed_run =
        SupervisedRun::with_options(&scenario, &cfg, 7, Path::new("killed.jsonl"), options)
            .unwrap();
    assert_eq!(resumed_run.completed_days(), 1, "day 0 replays from the journal");
    assert_same_run(&resumed_run.run().unwrap(), &fresh);
}

/// The thread count is not part of a run's identity: results are
/// bit-identical at every `parallelism`, so a journal written at one
/// thread resumes at two and finishes exactly as the uninterrupted run.
#[test]
fn journal_resumes_under_a_different_thread_count() {
    let mut scenario = PaperScenario::small(8, 47);
    scenario.training_days = 4;
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let one_thread = config(Some(detector), 2, None);
    let mut two_threads = one_thread.clone();
    two_threads.parallelism = Parallelism::new(2);

    let fresh = run_long_term(&scenario, &one_thread, 7).unwrap();

    let options = SupervisedOptions::in_memory();
    kill_after_day_one(&scenario, &one_thread, 7, &options);
    let resumed_run = SupervisedRun::with_options(
        &scenario,
        &two_threads,
        7,
        Path::new("killed.jsonl"),
        options,
    )
    .expect("a journal resumes under a different thread count");
    assert_eq!(resumed_run.completed_days(), 1, "day 0 replays from the journal");
    assert_same_run(&resumed_run.run().unwrap(), &fresh);
}

/// Journal damage, end to end through the supervised runner: a torn final
/// record is dropped and that day re-runs (bit-identically), while a
/// corrupted interior record is a typed error — never a panic, never a
/// silent resume from lost history.
#[test]
fn damaged_journals_recover_or_fail_typed() {
    let mut scenario = PaperScenario::small(8, 47);
    scenario.training_days = 4;
    let cfg = config(None, 2, None);
    let path = journal_path("damage");
    let open = || SupervisedRun::with_options(&scenario, &cfg, 11, &path, Default::default());

    let fresh = open().unwrap().run().unwrap();
    let intact = std::fs::read_to_string(&path).unwrap();
    assert_eq!(intact.lines().count(), 3, "header + two day records");

    // Tear the final record mid-line, as a kill mid-write would.
    std::fs::write(&path, &intact[..intact.len() - 25]).unwrap();
    let resumed_run = open().unwrap();
    assert_eq!(
        resumed_run.completed_days(),
        1,
        "torn day 1 is dropped; resume re-runs it"
    );
    let resumed = resumed_run.run().unwrap();
    assert_eq!(resumed.realized_demand, fresh.realized_demand);
    assert_eq!(resumed.true_buckets, fresh.true_buckets);
    assert_eq!(resumed.health, fresh.health);

    // Corrupt an *interior* record (the first day): typed error, no resume.
    let intact = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = intact.lines().collect();
    let vandalized = lines[1].replace("true_buckets", "drue_buckets");
    let content = format!("{}\n{}\n{}\n", lines[0], vandalized, lines[2]);
    std::fs::write(&path, content).unwrap();
    match open() {
        Err(SimError::Journal(JournalError::Corrupt { line, .. })) => assert_eq!(line, 2),
        Err(other) => panic!("expected JournalError::Corrupt, got {other}"),
        Ok(_) => panic!("expected JournalError::Corrupt, got a resumed run"),
    }

    let _ = std::fs::remove_file(&path);
}

/// The quarantine circuit breaker, end to end: a scripted two-day outage
/// on two meters trips their breakers (surfacing them to the POMDP as
/// suspects), the exclusion lifts into half-open probation once the
/// breaker has cooled, and clean telemetry closes it again — with every
/// transition in both the event log and the per-day health timeline.
#[test]
fn quarantine_trips_probes_and_recovers() {
    let mut scenario = PaperScenario::small(6, 43);
    scenario.training_days = 4;
    let mut plan = FaultPlan::none(11);
    // Meters 1 and 2 go dark for absolute days 4 and 5 (detection days
    // 0 and 1), then come back.
    plan.outage = Some(MeterOutage {
        first_meter: 1,
        meters: 2,
        from_day: 4,
        until_day: 6,
    });
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let mut cfg = config(Some(detector), 4, Some(plan));
    cfg.quarantine = QuarantineConfig {
        trip_after: 2,
        probation_after: 1,
        close_after: 1,
        ..QuarantineConfig::default()
    };
    let result = run_long_term(&scenario, &cfg, 5).unwrap();

    let transitions: Vec<(usize, usize, QuarantineTransition)> = result
        .quarantine_events
        .iter()
        .map(|e| (e.day, e.meter, e.transition))
        .collect();
    assert_eq!(
        transitions,
        vec![
            (5, 1, QuarantineTransition::Tripped),
            (5, 2, QuarantineTransition::Tripped),
            (6, 1, QuarantineTransition::Probation),
            (6, 2, QuarantineTransition::Probation),
            (7, 1, QuarantineTransition::Recovered),
            (7, 2, QuarantineTransition::Recovered),
        ]
    );
    assert_eq!(result.health.quarantine_trips, 2);
    assert_eq!(result.health.quarantine_recoveries, 2);

    // The per-day timeline localizes the transitions.
    assert_eq!(result.day_health[1].quarantine_trips, 2);
    assert_eq!(result.day_health[1].meters_quarantined, 2);
    assert_eq!(result.day_health[2].meters_quarantined, 0, "half-open probes are included");
    assert_eq!(result.day_health[3].quarantine_recoveries, 2);

    // While the breakers are open (detection day 2), the POMDP observation
    // can never report less compromise than the quarantine census: 2 of 6
    // meters suspect → bucket ≥ 2.
    assert!(result.observed_buckets[48..72].iter().all(|&o| o >= 2));

    // Clean telemetry closed every breaker by the end of the run.
    let quarantine = result.quarantine.expect("fault plan arms quarantine");
    assert_eq!(quarantine.open_count(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Journal roundtrip: whatever transcript a day produces, writing it
    /// through the journal and loading it back is the identity.
    #[test]
    fn journal_day_records_roundtrip(
        day_count in 1usize..4,
        len in 0usize..48,
        bucket_base in 0usize..6,
        demand_scale in -1e6f64..1e6,
        has_belief in true,
        belief_len in 1usize..6,
        compromised in proptest::collection::vec(0usize..32, 4),
        slot in 0usize..48,
        repaired in 0usize..10,
    ) {
        let buckets: Vec<usize> = (0..len).map(|i| (bucket_base + i) % 6).collect();
        let demand: Vec<f64> = (0..len).map(|i| demand_scale / (i + 1) as f64).collect();
        let belief: Option<Vec<f64>> =
            has_belief.then(|| (0..belief_len).map(|i| 1.0 / (i + 1) as f64).collect());
        use netmeter_sentinel::sim::journal::{
            DayRecord, FixRecord, HistoryRow, JournalHeader, RunJournal, JOURNAL_VERSION,
        };
        use netmeter_sentinel::types::{DayHealth, RunHealth};

        let path = journal_path("proptest");
        let header = JournalHeader {
            version: JOURNAL_VERSION,
            seed: 9,
            detection_days: day_count,
            fleet: 32,
            scenario_fingerprint: 1,
            config_fingerprint: 2,
        };
        let mut journal = RunJournal::create(&path, &header).unwrap();
        let mut records = Vec::new();
        for day in 0..day_count {
            let record = DayRecord {
                day,
                true_buckets: buckets.clone(),
                observed_buckets: buckets.clone(),
                realized_demand: demand.clone(),
                fixes: vec![FixRecord { slot, repaired }],
                history_rows: demand
                    .iter()
                    .map(|&d| HistoryRow { price: d / 2.0, generation: d / 3.0, demand: d })
                    .collect(),
                compromised: compromised.clone(),
                belief: belief.clone(),
                health: RunHealth::new(),
                day_health: DayHealth { day, ..DayHealth::default() },
                quarantine: None,
                events: Vec::new(),
            };
            journal.append_day(&record).unwrap();
            records.push(record);
        }

        let loaded = RunJournal::load(&path).unwrap();
        prop_assert_eq!(loaded.header.as_ref(), Some(&header));
        prop_assert!(!loaded.dropped_tail);
        prop_assert_eq!(loaded.days, records);
        let _ = std::fs::remove_file(&path);
    }
}
