//! Fleet day-close throughput: sequential vs parallel shard driving.
//!
//! Runs the same K-community fleet once with one worker and once with
//! `NMS_BENCH_THREADS` workers, proves every shard's result is
//! bit-identical across the two (the fleet determinism contract), and
//! records both wall times as `fleet/day_close/{seq,par}` in
//! `BENCH_results.json`.
//!
//! Environment: `NMS_BENCH_THREADS` (default 4), `NMS_BENCH_CUSTOMERS`,
//! `NMS_BENCH_SEED`, and `NMS_BENCH_SMOKE` to shrink the fleet and skip
//! the Criterion timing loops (the CI smoke gate).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use nms_attack::{AttackTimeline, PriceAttack};
use nms_bench::{bench_scenario, host_cores, record_bench_results, BenchRecord};
use nms_fleet::{run_fleet, FleetConfig, FleetOptions, ShardSpec};
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
    scenario.seed = scenario.seed.wrapping_add(17 + index as u64);
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

/// Runs a fresh K-shard fleet (clean in-memory disks, fresh journals) at
/// `threads` workers and returns the per-shard normalized results plus the
/// wall time.
fn fleet_once(shards: usize, days: usize, threads: usize) -> (Vec<String>, f64) {
    let specs: Vec<ShardSpec> = (0..shards)
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
        .collect();
    let config = FleetConfig {
        parallelism: Parallelism::new(threads),
        ..FleetConfig::default()
    };
    let options = FleetOptions {
        shard_options: (0..shards)
            .map(|_| SupervisedOptions {
                vfs: Arc::new(FaultVfs::new(IoFaultPlan::none())),
                ..SupervisedOptions::default()
            })
            .collect(),
        ..FleetOptions::default()
    };
    let start = Instant::now();
    let report = run_fleet(specs, &config, options).expect("healthy fleet runs");
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
    let (shards, days) = if smoke() { (3, 2) } else { (6, 3) };

    let (seq, seq_secs) = fleet_once(shards, days, 1);
    let (par, par_secs) = fleet_once(shards, days, threads);
    assert_eq!(seq, par, "parallel fleet diverged from sequential");

    println!("\n=== Fleet day-close ({shards} shards × {days} days, bit-identical) ===");
    println!(
        "fleet/day_close | seq {seq_secs:>7.2}s | par {par_secs:>7.2}s ({threads} threads) | {:>5.2}x",
        seq_secs / par_secs.max(1e-9)
    );

    let scenario = bench_scenario();
    let record = |target: &str, wall_secs: f64, threads: usize| BenchRecord {
        target: target.to_string(),
        wall_secs,
        customers: scenario.customers,
        seed: scenario.seed,
        threads,
        host_cores: host_cores(),
        solver_rounds: 0,
        note: format!("{shards} shards × {days} days, day-lockstep supervisor"),
        speedup: 0.0,
    };
    record_bench_results(&[
        record("fleet/day_close/seq", seq_secs, 1),
        record("fleet/day_close/par", par_secs, threads),
    ])
    .expect("bench results written");
    println!("recorded to {}", nms_bench::bench_results_path().display());

    if smoke() {
        return;
    }

    // A small Criterion trail on the parallel path; the tracked number is
    // the seq/par pair above.
    let mut group = c.benchmark_group("fleet_throughput");
    group.sample_size(10);
    group.bench_function("day_close_par", |b| {
        b.iter(|| fleet_once(2, 1, threads));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
