//! Exhaustive crash-point sweep over the durable pipeline.
//!
//! Runs the supervised detection pipeline (journal + CSV exports) once on
//! a clean fault-injecting in-memory VFS to count its mutating I/O
//! operations, then replays it once per operation index with a kill
//! injected there: the in-flight write is torn, the run aborts, the VFS is
//! revived, and the resumed pipeline must converge to bit-identical
//! results and on-disk bytes.
//!
//! ```sh
//! cargo run --release --example crash_sweep -- --customers 6 --days 3
//! ```

use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use netmeter_sentinel::attack::{AttackTimeline, PriceAttack};
use netmeter_sentinel::sim::export::{
    export_atomic, export_health_timeline, export_long_term, export_quarantine_events,
};
use netmeter_sentinel::sim::{
    LongTermRunConfig, LongTermRunResult, PaperScenario, SupervisedOptions, SupervisedRun,
};
use netmeter_sentinel::types::RetryPolicy;
use netmeter_sentinel::vfs::{FaultVfs, IoFaultPlan, StoragePolicy};

const JOURNAL: &str = "sweep/run.jsonl";
const LONG_TERM_CSV: &str = "sweep/long_term.csv";
const HEALTH_CSV: &str = "sweep/health_timeline.csv";
const QUARANTINE_CSV: &str = "sweep/quarantine_events.csv";

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

fn normalized(mut result: LongTermRunResult) -> String {
    result.health.storage = Default::default();
    format!("{result:?}")
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut customers = 6usize;
    let mut days = 3usize;
    let mut seed = 23u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--customers" | "-n" => customers = args.next().ok_or("need value")?.parse()?,
            "--days" | "-d" => days = args.next().ok_or("need value")?.parse()?,
            "--seed" | "-s" => seed = args.next().ok_or("need value")?.parse()?,
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }

    let mut scenario = PaperScenario::small(customers, seed);
    scenario.training_days = 4;
    let config = LongTermRunConfig {
        detection_days: days,
        detector: None,
        timeline: AttackTimeline::new(
            vec![(4, 2), (20, 2)],
            PriceAttack::zero_window(16.0, 18.0)?,
        )?,
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: RetryPolicy::default(),
        budget: Default::default(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    };

    let started = Instant::now();
    let golden_vfs = FaultVfs::new(IoFaultPlan::none());
    let golden = pipeline(&golden_vfs, &scenario, &config, seed)
        .map_err(|err| format!("clean run failed: {err}"))?;
    let operations = golden_vfs.ops();
    let golden_dump = golden_vfs.dump();
    let golden_form = normalized(golden);
    println!(
        "crash sweep: {customers} homes, {days} detection days, {operations} mutating I/O ops"
    );

    for kill_at in 0..operations {
        let vfs = FaultVfs::new(IoFaultPlan::kill_at(kill_at));
        if pipeline(&vfs, &scenario, &config, seed).is_ok() || !vfs.is_killed() {
            return Err(format!("kill point {kill_at}: pipeline survived its kill").into());
        }
        vfs.revive();
        let resumed = pipeline(&vfs, &scenario, &config, seed)
            .map_err(|err| format!("kill point {kill_at}: resume failed: {err}"))?;
        if normalized(resumed) != golden_form {
            return Err(format!("kill point {kill_at}: resumed result diverged").into());
        }
        let dump = vfs.dump();
        if dump != golden_dump {
            return Err(format!("kill point {kill_at}: surviving bytes diverged").into());
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();
    println!(
        "all {operations} kill points resumed bit-identically in {wall_secs:.2}s"
    );
    Ok(())
}
