//! One `run`: repetitions, the output check, and the result line.

use std::path::Path;
use std::time::Instant;

use netmeter_sentinel::obs::trace::fnv1a64;
use netmeter_sentinel::sim::LongTermRunResult;

use crate::inputs::Inputs;
use crate::reps::Rep;
use crate::{layers, reps, BoxError};

/// Untraced: repetitions until the next one would overrun `seconds` (at
/// least one). Traced: one untraced and one traced repetition plus the
/// layer probes. Returns the result line.
///
/// The timings must hold steady on a shared host whose speed swings by up
/// to 1.8x, for seconds to minutes at a time, so the two gated ones are
/// built from each phase's fastest sample across repetitions: `day_close_s`
/// is the median over detection days of each day's fastest close, and
/// `run_s` is the fastest set-up plus each day's fastest close plus the
/// fastest finish. `setup_s` is the median over repetitions.
pub fn run(inputs: &Inputs, dir: &Path, seconds: f64, traced: bool) -> Result<String, BoxError> {
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(reps::untraced(inputs, dir)?);
        let elapsed = started.elapsed().as_secs_f64();
        if traced || elapsed + elapsed / reps.len() as f64 > seconds {
            break;
        }
    }
    let layers = if traced {
        let traced = layers::traced(inputs, dir, reps[0].run_s)?;
        reps.push(traced.rep);
        Some(traced.metrics)
    } else {
        None
    };

    // Every repetition, traced or not, must produce the same results.
    let digests: Vec<u64> = reps.iter().map(|rep| digest(&rep.results)).collect();
    let agree = digests.iter().all(|&d| d == digests[0]);
    let attempted: usize = reps.iter().map(|rep| rep.attempted).sum();
    let failed: usize = reps.iter().map(|rep| rep.failed).sum();
    let first = &reps[0];
    let shards = first.results.len() as f64;
    let obs_accuracy = first
        .results
        .iter()
        .map(|result| result.accuracy.accuracy().unwrap_or(0.0))
        .sum::<f64>()
        / shards;
    let par = first.results.iter().map(|result| result.par).sum::<f64>() / shards;

    let best_days = best_days(&reps);
    let metrics = match layers {
        Some(metrics) => metrics,
        None => vec![
            ("setup_s", median(reps.iter().map(|rep| rep.setup_s)), "s"),
            ("day_close_s", median(best_days.iter().copied()), "s"),
            ("run_s", best_run(&reps, &best_days), "s"),
            ("par", par, "ratio"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    };
    let finite = metrics.iter().all(|(_, value, _)| value.is_finite());
    let correct = agree && finite && reps.iter().all(|rep| rep.scrapes_ok);
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
         \"digest\":\"{:016x}\",\"reps\":{},\"obs_accuracy\":{},\"metrics\":{{{}}}}}",
        digests[0],
        reps.len(),
        json_number(obs_accuracy),
        rendered.join(",")
    ))
}

/// FNV-1a over the results' `Debug` form, shard by shard, with the
/// process-local storage tally zeroed (telemetry, not output).
pub fn digest(results: &[LongTermRunResult]) -> u64 {
    let mut text = String::new();
    for result in results {
        let mut result = result.clone();
        result.health.storage = Default::default();
        text.push_str(&format!("{result:?}\n"));
    }
    fnv1a64(text.as_bytes())
}

/// Median of the values (mean of the middle two for an even count; 0 for
/// none).
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Each detection day's fastest close across the repetitions. Every
/// repetition closes the same days.
fn best_days(reps: &[Rep]) -> Vec<f64> {
    (0..reps[0].day_close_s.len())
        .map(|day| fastest(reps.iter().map(|rep| rep.day_close_s[day])))
        .collect()
}

/// One run at the host's best: the fastest set-up, each day's fastest
/// close, and the fastest finish (everything after the last day close).
fn best_run(reps: &[Rep], best_days: &[f64]) -> f64 {
    let finish = |rep: &Rep| rep.run_s - rep.setup_s - rep.day_close_s.iter().sum::<f64>();
    fastest(reps.iter().map(|rep| rep.setup_s))
        + best_days.iter().sum::<f64>()
        + fastest(reps.iter().map(finish))
}

/// The smallest of the values (infinity for none).
fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process in MB, from the kernel's
/// `VmHWM` line (NaN where the status file is unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A JSON number with every digit of Rust's shortest round-trip form.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}
