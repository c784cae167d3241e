//! Sequential-vs-parallel sweep benchmark (DESIGN.md §9).
//!
//! Runs `sweep_attack_window` and `sweep_fault_tolerance` once on one
//! thread and once on `NMS_BENCH_THREADS` workers, proves the outputs are
//! bit-identical (down to the serialized CSV bytes), and records both wall
//! times in `BENCH_results.json` so the speedup is a tracked artifact
//! rather than a claim.
//!
//! Environment:
//!
//! - `NMS_BENCH_THREADS` — parallel worker count (default 4);
//! - `NMS_BENCH_SMOKE` — set to run a tiny point set and skip the
//!   Criterion timing loops (the CI smoke gate);
//! - `NMS_BENCH_CUSTOMERS` / `NMS_BENCH_SEED` — as for every bench.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use nms_bench::{bench_scenario, host_cores, record_bench_results, timing_scenario, BenchRecord};
use nms_sim::sweeps::{
    sweep_attack_window, sweep_fault_tolerance, AttackWindowPoint, FaultTolerancePoint,
};
use nms_sim::Parallelism;

fn bench_threads() -> usize {
    std::env::var("NMS_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn smoke() -> bool {
    std::env::var_os("NMS_BENCH_SMOKE").is_some()
}

/// CSV rendering uses `f64`'s shortest-roundtrip `Display`, so two CSVs
/// are byte-identical exactly when the underlying floats are bit-identical.
fn attack_csv(points: &[AttackWindowPoint]) -> String {
    let mut buffer = Vec::new();
    nms_sim::export::export_attack_window(&mut buffer, points).expect("vec write cannot fail");
    String::from_utf8(buffer).expect("CSV is UTF-8")
}

fn fault_csv(points: &[FaultTolerancePoint]) -> String {
    let mut csv = String::from(
        "fault_rate,aware_accuracy,naive_accuracy,aware_par,naive_par,slots_imputed,faults_injected\n",
    );
    for p in points {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            p.fault_rate,
            p.aware_accuracy,
            p.naive_accuracy,
            p.aware_par,
            p.naive_par,
            p.slots_imputed,
            p.faults_injected
        ));
    }
    csv
}

fn timed<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = run();
    (value, start.elapsed().as_secs_f64())
}

fn bench(c: &mut Criterion) {
    let threads = bench_threads();
    let parallel = Parallelism::new(threads);
    let scenario = {
        let mut s = bench_scenario();
        s.training_days = s.training_days.max(4);
        s
    };
    let (windows, rates): (Vec<f64>, Vec<f64>) = if smoke() {
        (vec![3.0, 16.0], vec![0.0, 0.1])
    } else {
        ((0..8).map(|i| f64::from(i) * 3.0).collect(), vec![0.0, 0.05, 0.1, 0.2])
    };

    let (attack_seq, attack_seq_secs) = timed(|| {
        sweep_attack_window(&scenario, &windows, &Parallelism::SEQUENTIAL).expect("sweep runs")
    });
    let (attack_par, attack_par_secs) =
        timed(|| sweep_attack_window(&scenario, &windows, &parallel).expect("sweep runs"));
    assert_eq!(attack_seq, attack_par, "parallel attack sweep diverged");
    assert_eq!(
        attack_csv(&attack_seq),
        attack_csv(&attack_par),
        "attack sweep CSV bytes diverged"
    );

    let (fault_seq, fault_seq_secs) = timed(|| {
        sweep_fault_tolerance(&scenario, &rates, &Parallelism::SEQUENTIAL).expect("sweep runs")
    });
    let (fault_par, fault_par_secs) =
        timed(|| sweep_fault_tolerance(&scenario, &rates, &parallel).expect("sweep runs"));
    assert_eq!(fault_seq, fault_par, "parallel fault sweep diverged");
    assert_eq!(
        fault_csv(&fault_seq),
        fault_csv(&fault_par),
        "fault sweep CSV bytes diverged"
    );

    // Perf is advisory, correctness is the hard gate: warn (never fail)
    // when the parallel run was slower than sequential, which on an
    // oversubscribed or single-core host is expected overhead.
    let warn_if_slower = |name: &str, seq: f64, par: f64| {
        if par > seq {
            eprintln!(
                "warning: {name}/par ({par:.2}s) slower than seq ({seq:.2}s) at \
                 {threads} threads on {} core(s); treat the speedup column as \
                 host-bound, not a regression gate",
                host_cores()
            );
        }
    };
    warn_if_slower("sweep_attack_window", attack_seq_secs, attack_par_secs);
    warn_if_slower("sweep_fault_tolerance", fault_seq_secs, fault_par_secs);

    println!("\n=== Parallel sweeps ({threads} threads, bit-identical to sequential) ===");
    println!(
        "sweep_attack_window   | seq {attack_seq_secs:>7.2}s | par {attack_par_secs:>7.2}s | {:>5.2}x",
        attack_seq_secs / attack_par_secs.max(1e-9)
    );
    println!(
        "sweep_fault_tolerance | seq {fault_seq_secs:>7.2}s | par {fault_par_secs:>7.2}s | {:>5.2}x",
        fault_seq_secs / fault_par_secs.max(1e-9)
    );

    // Solver effort is a deterministic point field, so the seq/par pairs
    // share it by construction (asserted above).
    let attack_rounds: u64 = attack_seq.iter().map(|p| p.solver_rounds as u64).sum();
    let sweep_note = |requested: usize| {
        if requested == 1 {
            "sequential".to_string()
        } else {
            format!(
                "requested {requested} workers, clamped to host cores; \
                 chunk 1 (few expensive sweep points)"
            )
        }
    };
    let record = |target: &str, wall_secs: f64, threads: usize, rounds: u64| BenchRecord {
        target: target.to_string(),
        wall_secs,
        customers: scenario.customers,
        seed: scenario.seed,
        threads,
        host_cores: host_cores(),
        solver_rounds: rounds,
        note: sweep_note(threads),
        speedup: 0.0,
    };
    record_bench_results(&[
        record("sweep_attack_window/seq", attack_seq_secs, 1, attack_rounds),
        record("sweep_attack_window/par", attack_par_secs, threads, attack_rounds),
        record("sweep_fault_tolerance/seq", fault_seq_secs, 1, 0),
        record("sweep_fault_tolerance/par", fault_par_secs, threads, 0),
    ])
    .expect("bench results written");
    println!("recorded to {}", nms_bench::bench_results_path().display());

    if smoke() {
        return;
    }

    // Criterion loops at the smaller timing scale: the tracked number is
    // the seq/par pair above; this keeps a regression trail on both paths.
    let timing = {
        let mut s = timing_scenario();
        s.training_days = s.training_days.max(4);
        s
    };
    let mut group = c.benchmark_group("parallel_sweeps");
    group.sample_size(10);
    group.bench_function("attack_window_seq", |b| {
        b.iter(|| {
            sweep_attack_window(&timing, &windows, &Parallelism::SEQUENTIAL).expect("sweep runs")
        })
    });
    group.bench_function("attack_window_par", |b| {
        b.iter(|| sweep_attack_window(&timing, &windows, &parallel).expect("sweep runs"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
