//! Times the **Fig 3** runner: guideline-price prediction and load PAR
//! *without* considering net metering (the SVR-only baseline of \[8\]).
//! `examples/paper_experiments.rs` regenerates the figure itself.

use criterion::{criterion_group, criterion_main, Criterion};

use nms_bench::timing_scenario;
use nms_sim::experiments::run_fig3;

fn bench(c: &mut Criterion) {
    let timing = timing_scenario();
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    group.bench_function("naive_prediction_pipeline", |b| {
        b.iter(|| run_fig3(&timing).expect("fig3 runs"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
