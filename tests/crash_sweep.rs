//! Crash-point sweep acceptance tests: FoundationDB-style deterministic
//! simulation testing at I/O-*operation* granularity.
//!
//! `tests/fault_robustness.rs` kills supervised runs at hand-picked day
//! boundaries. Here the whole durable pipeline — journal, CSV exports —
//! runs on a fault-injecting in-memory VFS, and *every* mutating I/O
//! operation index of an uninterrupted run becomes a kill point: the run
//! is killed there (tearing the in-flight write), revived, resumed, and
//! must finish with bit-identical results, CSVs, and quarantine events.
//!
//! A second battery drives the sinks through ENOSPC / short-write / fsync
//! faults (no kill) and asserts the degradation policies hold: nothing
//! panics, absorbed faults surface in `RunHealth::storage` and the trace
//! sink's `dropped()` counter, and absorbed faults never change results.

use std::path::Path;
use std::sync::Arc;

use netmeter_sentinel::attack::{AttackTimeline, PriceAttack};
use netmeter_sentinel::core::{DetectorMode, FrameworkConfig, QuarantineConfig};
use netmeter_sentinel::sim::export::{
    export_atomic, export_health_timeline, export_long_term, export_quarantine_events,
};
use netmeter_sentinel::sim::{
    FaultPlan, LongTermRunConfig, LongTermRunResult, MeterOutage, PaperScenario,
    SupervisedOptions, SupervisedRun,
};
use netmeter_sentinel::types::RetryPolicy;
use netmeter_sentinel::vfs::{FaultVfs, IoFaultPlan, StoragePolicy};

const JOURNAL: &str = "sweep/run.jsonl";
const LONG_TERM_CSV: &str = "sweep/long_term.csv";
const HEALTH_CSV: &str = "sweep/health_timeline.csv";
const QUARANTINE_CSV: &str = "sweep/quarantine_events.csv";

fn sweep_scenario(customers: usize, seed: u64) -> PaperScenario {
    let mut scenario = PaperScenario::small(customers, seed);
    scenario.training_days = 4;
    scenario
}

fn sweep_config(
    detector: Option<FrameworkConfig>,
    days: usize,
    faults: Option<FaultPlan>,
) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: days,
        detector,
        timeline: AttackTimeline::new(
            vec![(4, 2), (20, 2)],
            PriceAttack::zero_window(16.0, 18.0).unwrap(),
        )
        .unwrap(),
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

/// The full durable pipeline on `vfs`: supervised run (create-or-resume
/// from the journal) plus the three per-run CSV artifacts, each landed
/// through `export_atomic`.
fn pipeline(
    vfs: &FaultVfs,
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
) -> Result<LongTermRunResult, String> {
    let options = SupervisedOptions {
        vfs: Arc::new(vfs.clone()),
        ..SupervisedOptions::default()
    };
    let run = SupervisedRun::with_options(scenario, config, seed, Path::new(JOURNAL), options)
        .map_err(|err| format!("supervise: {err}"))?;
    let result = run.run().map_err(|err| format!("run: {err}"))?;
    let policy = StoragePolicy::no_retries();
    export_atomic(vfs, Path::new(LONG_TERM_CSV), &policy, |buf| {
        export_long_term(buf, &result)
    })
    .map_err(|err| format!("export long_term: {err}"))?;
    export_atomic(vfs, Path::new(HEALTH_CSV), &policy, |buf| {
        export_health_timeline(buf, &result)
    })
    .map_err(|err| format!("export health: {err}"))?;
    export_atomic(vfs, Path::new(QUARANTINE_CSV), &policy, |buf| {
        export_quarantine_events(buf, &result)
    })
    .map_err(|err| format!("export quarantine: {err}"))?;
    Ok(result)
}

/// Canonical comparison form: the full `Debug` rendering with the
/// process-local storage tally zeroed (storage faults are observability,
/// never allowed to influence results — so they are excluded from the
/// bit-identity contract, then asserted separately).
fn normalized(mut result: LongTermRunResult) -> String {
    result.health.storage = Default::default();
    format!("{result:?}")
}

/// Runs the kill-revive-resume cycle for one kill point and returns the
/// resumed pipeline's normalized result, asserting disk convergence.
fn kill_and_resume(
    kill_at: u64,
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
    golden_dump: &std::collections::BTreeMap<std::path::PathBuf, Vec<u8>>,
) -> String {
    let vfs = FaultVfs::new(IoFaultPlan::kill_at(kill_at));
    let killed = pipeline(&vfs, scenario, config, seed);
    assert!(
        killed.is_err(),
        "kill point {kill_at} must abort the pipeline"
    );
    assert!(vfs.is_killed(), "kill point {kill_at} must down the VFS");

    vfs.revive();
    let resumed = pipeline(&vfs, scenario, config, seed)
        .unwrap_or_else(|err| panic!("resume after kill point {kill_at} failed: {err}"));

    let dump = vfs.dump();
    assert_eq!(
        dump.keys().collect::<Vec<_>>(),
        golden_dump.keys().collect::<Vec<_>>(),
        "kill point {kill_at}: surviving file set diverged"
    );
    for (path, bytes) in golden_dump {
        assert_eq!(
            dump.get(path),
            Some(bytes),
            "kill point {kill_at}: {} diverged from the uninterrupted run",
            path.display()
        );
    }
    normalized(resumed)
}

/// The tentpole invariant, exhaustively: every mutating I/O operation of
/// an uninterrupted no-detector run is a kill point, and each killed run
/// resumes to bit-identical results and bytes.
#[test]
fn every_kill_point_resumes_bit_identically() {
    let scenario = sweep_scenario(6, 47);
    let config = sweep_config(None, 3, None);
    let seed = 23;

    let golden_vfs = FaultVfs::new(IoFaultPlan::none());
    let golden = pipeline(&golden_vfs, &scenario, &config, seed).expect("clean run");
    let operations = golden_vfs.ops();
    let golden_dump = golden_vfs.dump();
    let golden_form = normalized(golden);
    assert!(
        operations >= 10,
        "sweep space unexpectedly small: {operations} ops"
    );

    for kill_at in 0..operations {
        let resumed_form = kill_and_resume(kill_at, &scenario, &config, seed, &golden_dump);
        assert_eq!(
            resumed_form, golden_form,
            "kill point {kill_at}: resumed result diverged"
        );
    }
}

/// The same invariant through the detector + telemetry-fault + quarantine
/// path, where day records carry beliefs, compromise sets, and breaker
/// events. The detector makes each pipeline run ~50× costlier, so this
/// sweeps a deterministic stride of kill points rather than all of them —
/// the no-detector sweep above covers every operation *shape*, this one
/// proves the richest day-record payload survives kills too.
#[test]
fn quarantine_events_survive_kill_points() {
    let scenario = sweep_scenario(6, 43);
    let mut plan = FaultPlan::none(11);
    plan.outage = Some(MeterOutage {
        first_meter: 1,
        meters: 2,
        from_day: 4,
        until_day: 6,
    });
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let mut config = sweep_config(Some(detector), 4, Some(plan));
    config.quarantine = QuarantineConfig {
        trip_after: 2,
        probation_after: 1,
        close_after: 1,
        ..QuarantineConfig::default()
    };
    let seed = 5;

    let golden_vfs = FaultVfs::new(IoFaultPlan::none());
    let golden = pipeline(&golden_vfs, &scenario, &config, seed).expect("clean run");
    let operations = golden_vfs.ops();
    let golden_dump = golden_vfs.dump();
    assert!(
        !golden.quarantine_events.is_empty(),
        "scenario must exercise quarantine transitions"
    );
    assert!(
        golden_dump
            .get(Path::new(QUARANTINE_CSV))
            .is_some_and(|bytes| bytes.len() > "day,meter,transition\n".len()),
        "quarantine CSV must have event rows"
    );
    let golden_form = normalized(golden);

    // Stride through the op space; always include the final op (the last
    // export rename) and op 1 (the header rename).
    let mut kill_points: Vec<u64> = (0..operations).step_by(5).collect();
    kill_points.push(1);
    kill_points.push(operations - 1);
    kill_points.sort_unstable();
    kill_points.dedup();

    for kill_at in kill_points {
        let resumed_form = kill_and_resume(kill_at, &scenario, &config, seed, &golden_dump);
        assert_eq!(
            resumed_form, golden_form,
            "kill point {kill_at}: resumed result (incl. quarantine events) diverged"
        );
    }
}

/// Degradation policies under rate faults (no kill): ENOSPC, short
/// writes, and fsync failures hammer every sink, and the pipeline either
/// absorbs them (bounded retries; faults ticked into `RunHealth::storage`)
/// or fails with a typed error — it never panics, and an absorbed fault
/// never changes results.
#[test]
fn rate_faults_never_panic_and_absorbed_faults_never_change_results() {
    let scenario = sweep_scenario(6, 47);
    let config = sweep_config(None, 3, None);
    let seed = 23;

    let clean_vfs = FaultVfs::new(IoFaultPlan::none());
    let clean_form = normalized(
        pipeline(&clean_vfs, &scenario, &config, seed).expect("clean run"),
    );

    let mut absorbed_at_least_once = false;
    for fault_seed in 0..24u64 {
        let plan = IoFaultPlan {
            seed: fault_seed,
            enospc_rate: 0.15,
            short_write_rate: 0.1,
            sync_fail_rate: 0.1,
            ..IoFaultPlan::none()
        };
        let vfs = FaultVfs::new(plan);
        match pipeline(&vfs, &scenario, &config, seed) {
            Ok(result) => {
                let injected = vfs.injected();
                if injected.total() > 0 {
                    absorbed_at_least_once = true;
                    assert!(
                        result.health.storage.total() > 0,
                        "fault seed {fault_seed}: absorbed {injected:?} but \
                         RunHealth::storage is clean"
                    );
                }
                assert_eq!(
                    normalized(result),
                    clean_form,
                    "fault seed {fault_seed}: absorbed faults changed the result"
                );
            }
            // Typed failure is acceptable; a panic would fail the test.
            Err(message) => {
                assert!(
                    !message.is_empty(),
                    "fault seed {fault_seed}: empty error"
                );
            }
        }
    }
    assert!(
        absorbed_at_least_once,
        "no fault seed exercised the absorb-and-continue path; rates too low"
    );
}

/// Satellite: the trace sink's drop-and-count policy under injected write
/// failures — `dropped()` matches what the VFS injected, the surviving
/// file stays readable, and recording through a faulty trace leaves the
/// simulation result bit-identical to the no-op recorder's.
#[test]
fn trace_drop_counts_match_injected_failures() {
    use netmeter_sentinel::obs::{read_trace_on, JsonlTrace};

    let scenario = sweep_scenario(6, 47);
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let config = sweep_config(Some(detector), 1, Some(FaultPlan::none(17)));

    // ENOSPC only: clean failures (no partial bytes), so every surviving
    // line is intact and the drop count is exactly the injection count.
    // Ops 0-1 are the header's staging write + rename, shielded so
    // creation succeeds.
    let plan = IoFaultPlan {
        seed: 7,
        enospc_rate: 0.3,
        fault_from_op: 2,
        ..IoFaultPlan::none()
    };
    let vfs = FaultVfs::new(plan);
    let trace = Arc::new(
        JsonlTrace::create_on(Arc::new(vfs.clone()), Path::new("run.trace.jsonl"))
            .expect("shielded header creation"),
    );

    // The journal lives on its own clean disk, so the trace plan's op
    // indices count trace writes only.
    let run = |options: SupervisedOptions| {
        SupervisedRun::with_options(&scenario, &config, 9, Path::new(JOURNAL), options)?.run()
    };
    let recorded = run(SupervisedOptions {
        recorder: trace.clone(),
        ..SupervisedOptions::in_memory()
    })
    .expect("telemetry loss must not fail the run");

    let injected = vfs.injected();
    assert!(injected.enospc > 0, "plan injected nothing; raise the rate");
    assert_eq!(injected.total(), injected.enospc, "ENOSPC-only plan");
    assert_eq!(
        trace.dropped(),
        injected.enospc,
        "every injected write failure must be counted as a dropped event"
    );

    // The surviving trace is shorter but fully readable.
    let events = read_trace_on(&vfs, Path::new("run.trace.jsonl")).expect("readable trace");
    assert!(!events.is_empty());

    // And the result is bit-identical to the no-op recorder's run.
    let baseline = run(SupervisedOptions::in_memory()).unwrap();
    assert_eq!(format!("{recorded:?}"), format!("{baseline:?}"));
}

/// Satellite: a short-write-torn trace line is a typed `Corrupt` error on
/// read-back — never a panic, never silently parsed.
#[test]
fn torn_trace_lines_are_typed_errors() {
    use netmeter_sentinel::obs::{read_trace_on, JsonlTrace, Recorder, TraceError, TraceEvent};

    let plan = IoFaultPlan {
        seed: 3,
        short_write_rate: 1.0,
        fault_from_op: 2,
        ..IoFaultPlan::none()
    };
    let vfs = FaultVfs::new(plan);
    let trace = JsonlTrace::create_on(Arc::new(vfs.clone()), Path::new("torn.trace.jsonl"))
        .expect("shielded header creation");
    trace.event(&TraceEvent::new("doomed").day(0).field("x", 1.0));
    assert_eq!(trace.dropped(), 1, "the short write is a counted drop");
    assert!(vfs.injected().short_writes > 0);

    match read_trace_on(&vfs, Path::new("torn.trace.jsonl")) {
        // The torn fragment lands mid-file after the header: typed.
        Err(TraceError::Corrupt { line, .. }) => assert!(line >= 2),
        Ok(events) => panic!("torn line parsed as {events:?}"),
        Err(other) => panic!("expected Corrupt, got {other:?}"),
    }
}
