//! Long-term monitoring demo: watch the POMDP detector's belief evolve as
//! an attacker compromises the fleet over two days, and compare the
//! net-metering-aware detector against the naive one slot by slot.
//!
//! ```sh
//! cargo run --release --example long_term_monitoring -- --customers 60
//! ```
//!
//! `--threads <n>` fans the detector's calibration backtest out over `n`
//! workers (clamped to the host's cores; results are bit-identical to the
//! sequential default). The per-day equilibrium solves always run
//! sequentially.
//!
//! Each detector's run journals every completed day. Without `--journal`
//! the journal lives in memory; with `--journal <path>` it goes to disk,
//! and a rerun with the same journal resumes instead of recomputing.
//! `--kill-after <k>` simulates a crash by stopping after `k` days — rerun
//! with the same `--journal` to watch it resume from the checkpoint:
//!
//! ```sh
//! cargo run --release --example long_term_monitoring -- \
//!     --journal /tmp/run.jsonl --kill-after 1   # "crashes" after day 1
//! cargo run --release --example long_term_monitoring -- \
//!     --journal /tmp/run.jsonl                  # resumes day 2, finishes
//! ```
//!
//! Observability: `--trace <path>` streams structured JSONL events (phase
//! timings, solver convergence, sanitize/quarantine transitions) and
//! `--metrics <path>` writes a Prometheus-style exposition snapshot at the
//! end. Both are telemetry-only — the run's results are bit-identical with
//! or without them:
//!
//! ```sh
//! cargo run --release --example long_term_monitoring -- \
//!     --trace /tmp/run-trace.jsonl --metrics /tmp/run-metrics.prom
//! ```
//!
//! `--profile <path>` turns on the hierarchical span profiler: the run's
//! phase tree (training, day close, clearing, prediction, game solve, DP,
//! CE, journal appends) is written as an indented wall-time report to
//! `<path>` and as collapsed flamegraph stacks to `<path>.folded`.
//! `--serve <addr>` (port 0 picks a free port) exposes `/metrics`,
//! `/health`, and `/trace/tail` over HTTP for the duration of the run,
//! republished after every sequential checkpoint.

use std::error::Error;
use std::path::PathBuf;
use std::sync::Arc;

use netmeter_sentinel::core::{DetectorMode, FrameworkConfig};
use netmeter_sentinel::obs::{
    JsonlTrace, MetricsRegistry, NoopRecorder, Recorder, SpanRecorder, Tee,
};
use netmeter_sentinel::serve::{TelemetryServer, TraceTail};
use netmeter_sentinel::sim::experiments::paper_timeline;
use netmeter_sentinel::sim::{
    LongTermRunConfig, PaperScenario, Parallelism, SupervisedOptions, SupervisedRun,
};
use netmeter_sentinel::types::{FleetHealth, StorageFaultCounts};

fn main() -> Result<(), Box<dyn Error>> {
    let mut customers = 60usize;
    let mut seed = 7u64;
    let mut threads = 1usize;
    let mut journal: Option<PathBuf> = None;
    let mut kill_after: Option<usize> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut profile_path: Option<PathBuf> = None;
    let mut serve_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--customers" | "-n" => customers = args.next().ok_or("need value")?.parse()?,
            "--seed" | "-s" => seed = args.next().ok_or("need value")?.parse()?,
            "--threads" | "-p" => threads = args.next().ok_or("need value")?.parse()?,
            "--journal" | "-j" => journal = Some(args.next().ok_or("need value")?.into()),
            "--kill-after" | "-k" => kill_after = Some(args.next().ok_or("need value")?.parse()?),
            "--trace" | "-t" => trace_path = Some(args.next().ok_or("need value")?.into()),
            "--metrics" | "-m" => metrics_path = Some(args.next().ok_or("need value")?.into()),
            "--profile" => profile_path = Some(args.next().ok_or("need value")?.into()),
            "--serve" => serve_addr = Some(args.next().ok_or("need value")?),
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }
    if kill_after.is_some() && journal.is_none() {
        return Err("--kill-after only makes sense with --journal".into());
    }
    let scenario = PaperScenario::small(customers, seed);

    // Assemble the recorder: a no-op unless --trace/--metrics/--profile/
    // --serve asked for sinks. Telemetry never feeds back, so every
    // assembly produces the same results.
    let server = match &serve_addr {
        Some(addr) => Some(TelemetryServer::bind(addr.as_str())?),
        None => None,
    };
    let publisher = server.as_ref().map(TelemetryServer::publisher);
    if let Some(server) = &server {
        println!(
            "telemetry live at http://{0}/metrics, /health, /trace/tail",
            server.local_addr()
        );
    }
    // The server needs a registry to expose even when --metrics is absent.
    let metrics = if metrics_path.is_some() || server.is_some() {
        Some(MetricsRegistry::new())
    } else {
        None
    };
    let spans = profile_path.as_ref().map(|_| Arc::new(SpanRecorder::new()));
    let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
    if let Some(path) = &trace_path {
        sinks.push(Arc::new(JsonlTrace::create(path)?));
    }
    if let Some(registry) = &metrics {
        sinks.push(Arc::new(registry.clone()));
    }
    if let Some(spans) = &spans {
        sinks.push(Arc::clone(spans) as Arc<dyn Recorder>);
    }
    if let Some(publisher) = &publisher {
        sinks.push(Arc::new(TraceTail::new(publisher.clone())));
    }
    let recorder: Arc<dyn Recorder> = match sinks.len() {
        0 => Arc::new(NoopRecorder),
        1 => sinks.remove(0),
        _ => Arc::new(Tee::new(sinks)),
    };
    // Republishes the served snapshots; called only from this sequential
    // main thread, at checkpoints.
    let publish = |day: Option<usize>| {
        if let (Some(publisher), Some(registry)) = (&publisher, &metrics) {
            publisher.publish_metrics(registry);
            publisher.publish_health(day, &FleetHealth::default(), StorageFaultCounts::default());
        }
    };

    println!("48-hour monitoring, {} customers, seed {seed}", customers);
    println!(
        "attack timeline: {:?}\n",
        paper_timeline(customers).events()
    );

    let mut results = Vec::new();
    for mode in [
        DetectorMode::NetMeteringAware,
        DetectorMode::IgnoreNetMetering,
    ] {
        let config = LongTermRunConfig {
            detection_days: 2,
            detector: Some(FrameworkConfig::new(mode, 24)),
            timeline: paper_timeline(customers),
            buckets: 6,
            bucket_fraction_step: 0.1,
            labor_per_fix: 10.0,
            labor_per_meter: 1.0,
            faults: None,
            sanitize: Default::default(),
            retry: Default::default(),
            budget: Default::default(),
            quarantine: Default::default(),
            parallelism: Parallelism::new(threads),
            clearing_iterations: 2,
        };
        // One journal per detector mode: on disk, derived from the flag,
        // or in memory without it.
        let tag = match mode {
            DetectorMode::NetMeteringAware => "aware",
            DetectorMode::IgnoreNetMetering => "naive",
        };
        let (path, options) = match &journal {
            Some(base) => (
                base.with_extension(format!("{tag}.jsonl")),
                SupervisedOptions::default(),
            ),
            None => (
                PathBuf::from(format!("{tag}.jsonl")),
                SupervisedOptions::in_memory(),
            ),
        };
        let options = SupervisedOptions {
            recorder: Arc::clone(&recorder),
            ..options
        };
        let mut run =
            SupervisedRun::with_options(&scenario, &config, seed ^ 0xf1906, &path, options)?;
        if run.completed_days() > 0 {
            println!(
                "[{}] resumed from {} ({} day(s) checkpointed)",
                mode.label(),
                path.display(),
                run.completed_days()
            );
        }
        while !run.is_finished() {
            if kill_after.is_some_and(|k| run.completed_days() >= k) {
                println!(
                    "[{}] simulated crash after day {} — rerun with the same \
                     --journal to resume",
                    mode.label(),
                    run.completed_days()
                );
                return Ok(());
            }
            run.step_day()?;
            publish(Some(run.completed_days()));
            if journal.is_some() {
                println!(
                    "[{}] day {} checkpointed to {}",
                    mode.label(),
                    run.completed_days(),
                    path.display()
                );
            }
        }
        let result = run.finish()?;
        println!(
            "{}: accuracy {:.1}%, {} fixes (slots {:?}), labor {:.0}, 48h PAR {:.4}",
            mode.label(),
            result.accuracy.accuracy().unwrap_or(0.0) * 100.0,
            result.labor.fixes(),
            result.fixes_at,
            result.labor.total_cost(),
            result.par
        );
        publish(None);
        results.push((mode, result));
    }

    // Slot-by-slot trace.
    println!("\nslot | true | aware obs | naive obs | events");
    let (_, aware) = &results[0];
    let (_, naive) = &results[1];
    let timeline = paper_timeline(customers);
    for slot in 0..aware.true_buckets.len() {
        let event: String = timeline
            .events()
            .iter()
            .filter(|&&(s, _)| s == slot)
            .map(|&(_, n)| format!("+{n} hacked"))
            .collect::<Vec<_>>()
            .join(" ");
        let aware_fix = if aware.fixes_at.contains(&slot) {
            " [aware FIX]"
        } else {
            ""
        };
        let naive_fix = if naive.fixes_at.contains(&slot) {
            " [naive FIX]"
        } else {
            ""
        };
        println!(
            "{slot:4} |  {}   |     {}     |     {}     | {event}{aware_fix}{naive_fix}",
            aware.true_buckets[slot],
            aware.observed_buckets.get(slot).copied().unwrap_or(0),
            naive.observed_buckets.get(slot).copied().unwrap_or(0),
        );
    }

    if let Some(path) = &trace_path {
        println!("\ntrace written to {}", path.display());
    }
    if let (Some(path), Some(registry)) = (&metrics_path, &metrics) {
        registry.write_prometheus(path)?;
        println!("metrics written to {}", path.display());
    }
    if let (Some(path), Some(spans)) = (&profile_path, &spans) {
        let profile = spans.profile();
        std::fs::write(path, profile.report())?;
        let folded = {
            let mut folded = path.as_os_str().to_owned();
            folded.push(".folded");
            PathBuf::from(folded)
        };
        std::fs::write(&folded, profile.collapsed())?;
        println!(
            "span profile written to {} (flamegraph stacks: {})",
            path.display(),
            folded.display()
        );
    }
    Ok(())
}
