//! Times the **Fig 6** runner: POMDP observation accuracy over 48 hours
//! with and without net metering considered.
//! `examples/paper_experiments.rs` regenerates the figure itself.
//!
//! This is the heaviest runner (two full 48-hour detection simulations
//! including training, calibration, and per-slot game realizations), so
//! the Criterion measurement uses the minimum sample count.

use criterion::{criterion_group, criterion_main, Criterion};

use nms_bench::timing_scenario;
use nms_sim::experiments::run_fig6;

fn bench(c: &mut Criterion) {
    let timing = timing_scenario();
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.bench_function("observation_accuracy_48h", |b| {
        b.iter(|| run_fig6(&timing).expect("fig6 runs"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
