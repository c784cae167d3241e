//! Times the **Table 1** runner: PAR and normalized labor cost for no
//! detection, detection without net metering, and detection with net
//! metering, over the 48-hour attack scenario.
//! `examples/paper_experiments.rs` regenerates the table itself.

use criterion::{criterion_group, criterion_main, Criterion};

use nms_bench::timing_scenario;
use nms_sim::experiments::run_table1;

fn bench(c: &mut Criterion) {
    let timing = timing_scenario();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("detection_comparison_48h", |b| {
        b.iter(|| run_table1(&timing).expect("table1 runs"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
