//! Shared helpers for the benchmark suite.
//!
//! Each bench target regenerates one of the paper's artifacts (printing
//! the paper-style output once) and then measures the computation with
//! Criterion. Community size and seed can be overridden with the
//! `NMS_BENCH_CUSTOMERS` / `NMS_BENCH_SEED` environment variables; the
//! defaults keep `cargo bench` tractable, while
//! `NMS_BENCH_CUSTOMERS=500 cargo bench` reproduces the paper's scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nms_sim::PaperScenario;

/// Community size used by the benches (default 40; env-overridable).
pub fn bench_customers() -> usize {
    std::env::var("NMS_BENCH_CUSTOMERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// Seed used by the benches (default 2015; env-overridable).
pub fn bench_seed() -> u64 {
    std::env::var("NMS_BENCH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2015)
}

/// The benchmark scenario derived from the environment.
pub fn bench_scenario() -> PaperScenario {
    let customers = bench_customers();
    if customers >= 500 {
        PaperScenario::paper(bench_seed())
    } else {
        PaperScenario::small(customers, bench_seed())
    }
}

/// A smaller scenario used for the Criterion *timing* loops of the heavy
/// artifact benches (the artifact itself is regenerated and printed at
/// [`bench_scenario`] scale). Override with `NMS_BENCH_TIMING_CUSTOMERS`.
pub fn timing_scenario() -> PaperScenario {
    let customers = std::env::var("NMS_BENCH_TIMING_CUSTOMERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    PaperScenario::small(customers, bench_seed())
}

/// One measured benchmark target, as persisted in `BENCH_results.json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchRecord {
    /// Benchmark target name, e.g. `"sweep_attack_window/par"`.
    pub target: String,
    /// Wall-clock seconds for one run of the target.
    pub wall_secs: f64,
    /// Community size the target ran at.
    pub customers: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Worker threads the target ran with (1 = sequential).
    pub threads: usize,
    /// Logical cores available on the host that produced the record
    /// (`0` in records written before this field existed).
    #[serde(default)]
    pub host_cores: usize,
    /// Total best-response rounds executed across the target's games.
    #[serde(default)]
    pub solver_rounds: u64,
    /// Free-form provenance note (thread/chunking choices, iteration
    /// counts) so a record explains its own measurement conditions.
    #[serde(default)]
    pub note: String,
    /// Wall-clock ratio of this record's baseline counterpart to this
    /// record — filled in by the merge-writer for the optimized side of a
    /// `{before,after}` or `{seq,par}` target pair (e.g.
    /// `game_round/n500/after` gets `before/after`). `0` on baselines,
    /// unpaired targets, and records written before this field existed.
    #[serde(default)]
    pub speedup: f64,
}

/// The `baseline → optimized` target-suffix pairs the merge-writer
/// recognizes when computing [`BenchRecord::speedup`].
const SPEEDUP_PAIRS: [(&str, &str); 2] = [("before", "after"), ("seq", "par")];

/// Fills [`BenchRecord::speedup`] on every record whose target ends in an
/// optimized-side suffix and whose baseline counterpart is present in the
/// same merged set. Runs over the *merged* records, so a pair recorded by
/// two separate bench invocations still gets its ratio.
fn apply_speedups(records: &mut [BenchRecord]) {
    let walls: std::collections::HashMap<String, f64> = records
        .iter()
        .map(|r| (r.target.clone(), r.wall_secs))
        .collect();
    for record in records.iter_mut() {
        for (baseline, optimized) in SPEEDUP_PAIRS {
            let Some(stem) = record.target.strip_suffix(optimized) else {
                continue;
            };
            if !stem.is_empty() && !stem.ends_with('/') {
                continue;
            }
            if let Some(&base) = walls.get(&format!("{stem}{baseline}")) {
                if record.wall_secs > 0.0 && base.is_finite() {
                    record.speedup = base / record.wall_secs;
                }
            }
        }
    }
}

/// Logical cores on this host (0 when the count cannot be determined).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

/// Where bench records land: `NMS_BENCH_RESULTS` if set, else
/// `BENCH_results.json` at the workspace root.
pub fn bench_results_path() -> std::path::PathBuf {
    match std::env::var_os("NMS_BENCH_RESULTS") {
        Some(path) => path.into(),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_results.json"),
    }
}

/// Merges `records` into the results file by target name: an existing
/// record for the same target is replaced, everything else is kept, and
/// the file is written atomically (`.tmp` then rename) with bounded
/// retries under the default [`nms_vfs::StoragePolicy`]. A missing or
/// unparsable results file starts fresh rather than failing the bench.
///
/// # Errors
///
/// Returns [`std::io::Error`] when the file cannot be written after the
/// policy's retries are exhausted.
pub fn record_bench_results(records: &[BenchRecord]) -> std::io::Result<()> {
    record_bench_results_on(&nms_vfs::StdVfs, records)
}

/// [`record_bench_results`] with the storage injectable, so storage-fault
/// tests can drive the merge-writer through a fault-injecting VFS.
///
/// # Errors
///
/// As [`record_bench_results`].
pub fn record_bench_results_on(
    vfs: &dyn nms_vfs::Vfs,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let path = bench_results_path();
    let mut merged: Vec<BenchRecord> = vfs
        .read_to_string(&path)
        .ok()
        .and_then(|content| serde_json::from_str(&content).ok())
        .unwrap_or_default();
    merged.retain(|existing: &BenchRecord| !records.iter().any(|r| r.target == existing.target));
    merged.extend(records.iter().cloned());
    merged.sort_by(|a, b| a.target.cmp(&b.target));
    apply_speedups(&mut merged);
    let content = serde_json::to_string(&merged)
        .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string()))?;
    nms_vfs::write_atomic(
        vfs,
        &path,
        (content + "\n").as_bytes(),
        &nms_vfs::StoragePolicy::default(),
    )
    .map(|_| ())
    .map_err(|err| match err {
        nms_vfs::StorageError::Render(err) => err,
        nms_vfs::StorageError::Exhausted { last, .. } => last,
        _ => std::io::Error::other(err.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that point `NMS_BENCH_RESULTS` (process-global)
    /// at a scratch file, so the parallel test runner cannot interleave them.
    static RESULTS_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn defaults_are_sane() {
        let scenario = bench_scenario();
        assert!(scenario.customers > 0);
        assert!(scenario.validate().is_ok());
    }

    #[test]
    fn legacy_records_without_host_fields_deserialize() {
        let legacy = "{\"target\":\"a\",\"wall_secs\":1.0,\"customers\":8,\
                      \"seed\":1,\"threads\":2}";
        let record: BenchRecord = serde_json::from_str(legacy).unwrap();
        assert_eq!(record.host_cores, 0);
        assert_eq!(record.note, "");
        assert!(host_cores() >= 1, "this host has at least one core");
        // Records written while the solver memo caches existed carry
        // `cache_hits`/`cache_misses`; those keys are ignored on load.
        let with_cache_keys = legacy.replace('}', ",\"cache_hits\":3,\"cache_misses\":4}");
        let old: BenchRecord = serde_json::from_str(&with_cache_keys).unwrap();
        assert_eq!(old, record);
    }

    #[test]
    fn bench_records_merge_by_target() {
        let _env = RESULTS_ENV.lock().unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("nms-bench-results-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("NMS_BENCH_RESULTS", &path);
        let record = |target: &str, wall: f64| BenchRecord {
            target: target.into(),
            wall_secs: wall,
            customers: 8,
            seed: 1,
            threads: 2,
            host_cores: host_cores(),
            solver_rounds: 0,
            note: String::new(),
            speedup: 0.0,
        };
        record_bench_results(&[record("a", 1.0), record("b", 2.0)]).unwrap();
        record_bench_results(&[record("b", 3.0)]).unwrap();
        let loaded: Vec<BenchRecord> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::env::remove_var("NMS_BENCH_RESULTS");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].target, "a");
        assert_eq!(loaded[1].wall_secs, 3.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_writer_fills_speedup_on_paired_targets() {
        let _env = RESULTS_ENV.lock().unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("nms-bench-speedup-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("NMS_BENCH_RESULTS", &path);
        let record = |target: &str, wall: f64| BenchRecord {
            target: target.into(),
            wall_secs: wall,
            customers: 8,
            seed: 1,
            threads: 1,
            host_cores: host_cores(),
            solver_rounds: 0,
            note: String::new(),
            speedup: 0.0,
        };
        // The pair lands across *two* invocations: the merge-writer must
        // compute the ratio over the merged set, not the current batch.
        record_bench_results(&[
            record("fleet/day_close/seq", 2.0),
            record("lonely/after", 1.0),
        ])
        .unwrap();
        record_bench_results(&[
            record("fleet/day_close/par", 0.5),
            record("game_round/n500/before", 3.0),
            record("game_round/n500/after", 1.5),
        ])
        .unwrap();
        let loaded: Vec<BenchRecord> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::env::remove_var("NMS_BENCH_RESULTS");
        let by_target = |t: &str| loaded.iter().find(|r| r.target == t).unwrap();
        assert_eq!(by_target("fleet/day_close/par").speedup, 4.0);
        assert_eq!(by_target("game_round/n500/after").speedup, 2.0);
        assert_eq!(
            by_target("fleet/day_close/seq").speedup,
            0.0,
            "baselines stay 0"
        );
        assert_eq!(by_target("lonely/after").speedup, 0.0, "unpaired stays 0");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_records_without_speedup_deserialize_to_zero() {
        let legacy = "{\"target\":\"a/after\",\"wall_secs\":1.0,\"customers\":8,\
                      \"seed\":1,\"threads\":2}";
        let record: BenchRecord = serde_json::from_str(legacy).unwrap();
        assert_eq!(record.speedup, 0.0);
    }
}
