//! Times the **Fig 5** runner: the impact of the zero-price cyberattack on
//! the energy load. `examples/paper_experiments.rs` regenerates the figure
//! itself.

use criterion::{criterion_group, criterion_main, Criterion};

use nms_bench::timing_scenario;
use nms_sim::experiments::run_fig5;

fn bench(c: &mut Criterion) {
    let timing = timing_scenario();
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    group.bench_function("attack_impact_pipeline", |b| {
        b.iter(|| run_fig5(&timing).expect("fig5 runs"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
