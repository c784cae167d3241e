//! Sequential-vs-parallel sweep timing (DESIGN.md §9).
//!
//! Times `sweep_attack_window` on one thread and on [`THREADS`] workers at
//! the timing scale. The two paths are bit-identical by contract;
//! `tests/par_determinism.rs` asserts it for every sweep.
//!
//! Environment: `NMS_BENCH_TIMING_CUSTOMERS` / `NMS_BENCH_SEED`, as for
//! every bench.

use criterion::{criterion_group, criterion_main, Criterion};

use nms_bench::timing_scenario;
use nms_sim::sweeps::sweep_attack_window;
use nms_sim::Parallelism;

/// Parallel worker count; `par_map` clamps it to the host's cores.
const THREADS: usize = 4;

fn bench(c: &mut Criterion) {
    let parallel = Parallelism::new(THREADS);
    let windows: Vec<f64> = (0..8).map(|i| f64::from(i) * 3.0).collect();
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
