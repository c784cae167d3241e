//! Times the **Fig 4** runner: guideline-price prediction and load PAR
//! *with* net metering considered (the paper's method).
//! `examples/paper_experiments.rs` regenerates the figure itself.

use criterion::{criterion_group, criterion_main, Criterion};

use nms_bench::timing_scenario;
use nms_sim::experiments::run_fig4;

fn bench(c: &mut Criterion) {
    let timing = timing_scenario();
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    group.bench_function("nm_aware_prediction_pipeline", |b| {
        b.iter(|| run_fig4(&timing).expect("fig4 runs"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
