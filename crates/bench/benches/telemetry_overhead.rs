//! Telemetry plane overhead: the same fleet with the recorder off vs the
//! full live plane on.
//!
//! Runs a K-community fleet twice — once with `NoopRecorder` and no
//! server, once with the striped registry + span profiler teed in and a
//! resident `TelemetryServer` republished at every day close — proves the
//! results are bit-identical (telemetry never feeds back), and records
//! both wall times as `telemetry/overhead/{off,on}` in
//! `BENCH_results.json` with the measured overhead in the note.
//!
//! Environment: `NMS_BENCH_THREADS` (default 4), `NMS_BENCH_CUSTOMERS`,
//! `NMS_BENCH_SEED`, and `NMS_BENCH_SMOKE` to shrink the fleet and skip
//! the Criterion timing loops (the CI smoke gate).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use nms_attack::{AttackTimeline, PriceAttack};
use nms_bench::{bench_scenario, host_cores, record_bench_results, BenchRecord};
use nms_fleet::{run_fleet, DayCloseObserver, FleetConfig, FleetOptions, ShardSpec};
use nms_obs::{Recorder, SpanRecorder, Tee};
use nms_serve::{SharedRegistry, TelemetryServer};
use nms_sim::{
    LongTermRunConfig, LongTermRunResult, PaperScenario, Parallelism, SupervisedOptions,
};
use nms_types::SolveBudget;
use nms_vfs::{FaultVfs, IoFaultPlan};

const JOURNAL: &str = "fleet/shard.jsonl";

fn bench_threads() -> usize {
    std::env::var("NMS_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn smoke() -> bool {
    std::env::var_os("NMS_BENCH_SMOKE").is_some()
}

fn community_scenario(index: usize) -> PaperScenario {
    let mut scenario = bench_scenario();
    scenario.seed = scenario.seed.wrapping_add(31 + index as u64);
    scenario.training_days = scenario.training_days.clamp(3, 4);
    scenario
}

fn run_config(days: usize) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: days,
        detector: None,
        timeline: AttackTimeline::new(
            vec![(4, 2), (20, 2)],
            PriceAttack::zero_window(16.0, 18.0).expect("window"),
        )
        .expect("timeline"),
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: SolveBudget::unlimited(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    }
}

/// The bit-identity comparison form: `Debug` with the process-local
/// storage tally zeroed (observability, not part of the contract).
fn normalized(mut result: LongTermRunResult) -> String {
    result.health.storage = Default::default();
    format!("{result:?}")
}

fn specs(shards: usize, days: usize) -> Vec<ShardSpec> {
    (0..shards)
        .map(|index| {
            ShardSpec::derived(
                format!("community-{index}"),
                community_scenario(index),
                run_config(days),
                23,
                index,
                JOURNAL,
            )
        })
        .collect()
}

fn shard_options(shards: usize) -> Vec<SupervisedOptions> {
    (0..shards)
        .map(|_| SupervisedOptions {
            vfs: Arc::new(FaultVfs::new(IoFaultPlan::none())),
            ..SupervisedOptions::default()
        })
        .collect()
}

/// One fleet run on fresh in-memory disks: recorder off (`telemetry` =
/// false) or the full live plane on. Returns normalized per-shard results
/// and the wall time.
fn fleet_once(shards: usize, days: usize, threads: usize, telemetry: bool) -> (Vec<String>, f64) {
    let config = FleetConfig {
        parallelism: Parallelism::new(threads),
        ..FleetConfig::default()
    };
    let mut options = FleetOptions {
        shard_options: shard_options(shards),
        ..FleetOptions::default()
    };
    let _server = if telemetry {
        let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");
        let publisher = server.publisher();
        let shared = SharedRegistry::new();
        let spans = Arc::new(SpanRecorder::new());
        options.recorder = Arc::new(Tee::new(vec![
            Arc::new(shared.clone()) as Arc<dyn Recorder>,
            spans as Arc<dyn Recorder>,
        ]));
        let observer: DayCloseObserver =
            Arc::new(move |day: usize, health: &nms_types::FleetHealth| {
                publisher.publish_shared(&shared);
                publisher.publish_health(Some(day), health, Default::default());
            });
        options.on_day_close = Some(observer);
        Some(server)
    } else {
        None
    };
    let start = Instant::now();
    let report = run_fleet(specs(shards, days), &config, options).expect("healthy fleet runs");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(report.health.healthy(), shards, "bench fleet must stay healthy");
    let results = report
        .shards
        .into_iter()
        .map(|shard| normalized(shard.result.expect("healthy shard has a result")))
        .collect();
    (results, secs)
}

fn bench(c: &mut Criterion) {
    let threads = bench_threads();
    let (shards, days) = if smoke() { (3, 2) } else { (4, 3) };

    let (off, off_secs) = fleet_once(shards, days, threads, false);
    let (on, on_secs) = fleet_once(shards, days, threads, true);
    assert_eq!(off, on, "telemetry must not perturb fleet results");

    let overhead_pct = (on_secs / off_secs.max(1e-9) - 1.0) * 100.0;
    println!("\n=== Telemetry overhead ({shards} shards × {days} days, bit-identical) ===");
    println!(
        "telemetry/overhead | off {off_secs:>7.2}s | on {on_secs:>7.2}s | {overhead_pct:>+6.2}%"
    );

    let scenario = bench_scenario();
    let record = |target: &str, wall_secs: f64| BenchRecord {
        target: target.to_string(),
        wall_secs,
        customers: scenario.customers,
        seed: scenario.seed,
        threads,
        host_cores: host_cores(),
        solver_rounds: 0,
        note: format!(
            "{shards} shards × {days} days; striped registry + spans + /metrics server; \
             overhead {overhead_pct:+.2}%"
        ),
        speedup: 0.0,
    };
    record_bench_results(&[
        record("telemetry/overhead/off", off_secs),
        record("telemetry/overhead/on", on_secs),
    ])
    .expect("bench results written");
    println!("recorded to {}", nms_bench::bench_results_path().display());

    if smoke() {
        return;
    }

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.bench_function("fleet_with_live_plane", |b| {
        b.iter(|| fleet_once(2, 1, threads, true));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
