//! In-memory metrics: counters, gauges, and fixed-bucket histograms, with
//! a Prometheus-style text exposition writer.
//!
//! The registry is a shared handle (`Clone` clones the handle, not the
//! data) guarded by one mutex — contention is irrelevant at the rates the
//! pipeline records (per solve / per day, not per sample). All recording
//! operations are commutative, so totals are independent of the order in
//! which parallel workers land their updates.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use crate::{Recorder, TraceEvent};

/// Default histogram bucket upper bounds: an exponential ladder that
/// covers both sub-millisecond timings and iteration counts up to a few
/// hundred.
const DEFAULT_BOUNDS: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0, 100.0, 300.0, 1000.0,
];

/// A fixed-bucket histogram: `counts[i]` tallies observations `<=
/// bounds[i]`, with one extra overflow (`+Inf`) bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    /// Builds an empty histogram. Non-finite bounds are dropped and the
    /// rest sorted ascending, so any input yields a usable histogram; an
    /// empty bound list leaves only the overflow bucket.
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            counts,
            sum: 0.0,
            total: 0,
        }
    }

    /// Records one observation. NaN observations land in the overflow
    /// bucket and contribute nothing to the sum.
    pub fn observe(&mut self, value: f64) {
        let index = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.counts[index] += 1;
        self.total += 1;
        if value.is_finite() {
            self.sum += value;
        }
    }

    /// The bucket upper bounds (the final `+Inf` bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimates quantile `q` (in `[0, 1]`) from the fixed buckets by
    /// linear interpolation inside the containing bucket — the same
    /// estimator as PromQL's `histogram_quantile`: the first bucket
    /// interpolates from zero, and a target rank landing in the overflow
    /// bucket reports the highest finite bound (the estimator cannot see
    /// past it). `None` for an empty histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.total as f64;
        let mut cumulative = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            let below = cumulative;
            cumulative += count;
            if (cumulative as f64) < rank || count == 0 {
                continue;
            }
            let Some(&upper) = self.bounds.get(index) else {
                // Overflow bucket: the data is beyond the last finite
                // bound, which is the best estimate available.
                return self.bounds.last().copied();
            };
            let lower = if index == 0 { 0.0 } else { self.bounds[index - 1] };
            let fraction = (rank - below as f64) / count as f64;
            return Some(lower + (upper - lower) * fraction);
        }
        self.bounds.last().copied()
    }

    /// Adds `other`'s observations into this histogram. Bucket layouts
    /// must match (both sides should come from the same registration);
    /// mismatched layouts merge only the scalar totals and collapse the
    /// per-bucket detail into the overflow bucket, keeping `_count`/`_sum`
    /// honest rather than silently mis-binning.
    pub fn merge(&mut self, other: &Histogram) {
        self.total += other.total;
        self.sum += other.sum;
        if self.bounds == other.bounds {
            for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        } else if let Some(overflow) = self.counts.last_mut() {
            *overflow += other.total;
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The in-memory metrics sink: counters, gauges, histograms, and a
/// Prometheus-style exposition renderer. Cloning shares the underlying
/// storage.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock means a panicking recorder call elsewhere;
        // telemetry keeps best-effort working rather than cascading.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `by` to the counter `name` (created at zero on first use).
    pub fn add_counter(&self, name: &str, by: u64) {
        *self.lock().counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the gauge `name`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Records one histogram observation.
    pub fn observe_value(&self, name: &str, value: f64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(&DEFAULT_BOUNDS))
            .observe(value);
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// A snapshot of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// Metric names are prefixed `nms_` and sanitized to the exposition
    /// charset.
    pub fn render_prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, value) in &inner.counters {
            let name = metric_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &inner.gauges {
            let name = metric_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, histogram) in &inner.histograms {
            let name = metric_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (bound, count) in histogram.bounds.iter().zip(&histogram.counts) {
                cumulative += count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", histogram.total);
            let _ = writeln!(out, "{name}_sum {}", histogram.sum);
            let _ = writeln!(out, "{name}_count {}", histogram.total);
            // Bucket-interpolated quantiles, rendered in the summary style
            // so dashboards get p50/p95/p99 without a PromQL layer.
            for q in [0.5, 0.95, 0.99] {
                if let Some(value) = histogram.quantile(q) {
                    let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {value}");
                }
            }
        }
        out
    }

    /// Folds every metric of `other` into this registry: counters add,
    /// gauges take `other`'s value (last write wins, as for a direct
    /// `set_gauge`), histograms merge bucket-wise. This is the reduction
    /// step for striped registries (`nms-serve`'s `SharedRegistry`), where
    /// each metric name lives in exactly one stripe so the folds are
    /// disjoint.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        // Snapshot `other` first: self and other may share storage (or be
        // locked in opposite order elsewhere), and cloning under one lock
        // at a time cannot deadlock.
        let theirs = {
            let other = other.lock();
            (
                other.counters.clone(),
                other.gauges.clone(),
                other.histograms.clone(),
            )
        };
        let mut inner = self.lock();
        for (name, value) in theirs.0 {
            *inner.counters.entry(name).or_insert(0) += value;
        }
        for (name, value) in theirs.1 {
            inner.gauges.insert(name, value);
        }
        for (name, histogram) in theirs.2 {
            match inner.histograms.get_mut(&name) {
                Some(mine) => mine.merge(&histogram),
                None => {
                    inner.histograms.insert(name, histogram);
                }
            }
        }
    }

    /// Writes the exposition atomically (tmp + rename, the journal's
    /// write discipline) so a scraper never reads a torn file.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_prometheus(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.render_prometheus())?;
        std::fs::rename(&tmp, path)
    }
}

/// `nms_`-prefixed exposition-safe metric name.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("nms_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl Recorder for MetricsRegistry {
    // `enabled` stays false: the registry ignores events, and call sites
    // only consult `enabled` to decide whether building an event payload
    // is worth it.
    fn event(&self, event: &TraceEvent) {
        let _ = event;
    }

    fn add(&self, name: &str, by: u64) {
        self.add_counter(name, by);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.set_gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.observe_value(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let registry = MetricsRegistry::new();
        registry.add_counter("hits", 3);
        registry.add_counter("hits", 4);
        registry.set_gauge("entropy", 1.25);
        registry.set_gauge("entropy", 0.5);
        assert_eq!(registry.counter("hits"), 7);
        assert_eq!(registry.counter("absent"), 0);
        assert_eq!(registry.gauge_value("entropy"), Some(0.5));
        assert_eq!(registry.gauge_value("absent"), None);
    }

    #[test]
    fn single_sample_lands_in_its_bucket() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(5.0);
        assert_eq!(h.counts(), &[0, 1, 0]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 5.0);
        // Boundary values are inclusive on the upper bound.
        let mut edge = Histogram::new(&[1.0]);
        edge.observe(1.0);
        assert_eq!(edge.counts(), &[1, 0]);
    }

    #[test]
    fn overflow_and_nan_land_in_the_inf_bucket() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(1e9);
        h.observe(f64::NAN);
        assert_eq!(h.counts(), &[0, 0, 2]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1e9, "NaN contributes nothing to the sum");
    }

    #[test]
    fn hostile_bounds_are_sanitized() {
        let h = Histogram::new(&[f64::NAN, 5.0, f64::INFINITY, 1.0, 5.0]);
        assert_eq!(h.bounds(), &[1.0, 5.0]);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_sanitized() {
        let registry = MetricsRegistry::new();
        registry.observe_value("solve.secs", 0.5);
        registry.observe_value("solve.secs", 2.0);
        registry.observe_value("solve.secs", 100.0);
        let exposition = registry.render_prometheus();
        assert!(exposition.contains("# TYPE nms_solve_secs histogram"));
        assert!(exposition.contains("nms_solve_secs_bucket{le=\"1\"} 1"));
        assert!(exposition.contains("nms_solve_secs_bucket{le=\"10\"} 2"));
        assert!(exposition.contains("nms_solve_secs_bucket{le=\"+Inf\"} 3"));
        assert!(exposition.contains("nms_solve_secs_sum 102.5"));
        assert!(exposition.contains("nms_solve_secs_count 3"));
    }

    #[test]
    fn quantiles_interpolate_to_hand_computed_values() {
        // bounds [1, 2, 4]; one sample <=1, two in (1,2], one in (2,4].
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for value in [0.5, 1.5, 2.0, 3.0] {
            h.observe(value);
        }
        // p50: rank 2 lands in (1,2] with 1 below → 1 + (2-1)·(2-1)/2 = 1.5
        assert_eq!(h.quantile(0.5), Some(1.5));
        // p95: rank 3.8 lands in (2,4] with 3 below → 2 + 2·0.8 = 3.6
        assert!((h.quantile(0.95).unwrap() - 3.6).abs() < 1e-9);
        // p99: rank 3.96 → 2 + 2·0.96 = 3.92
        assert!((h.quantile(0.99).unwrap() - 3.92).abs() < 1e-9);
        // The first bucket interpolates from zero.
        let mut low = Histogram::new(&[8.0]);
        low.observe(1.0);
        low.observe(2.0);
        assert_eq!(low.quantile(0.5), Some(4.0));
    }

    #[test]
    fn quantile_edges_overflow_and_empty() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        h.observe(1e9);
        assert_eq!(
            h.quantile(0.99),
            Some(10.0),
            "overflow-bucket ranks clamp to the highest finite bound"
        );
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.5), None);
    }

    #[test]
    fn histograms_merge_bucketwise_and_registries_fold() {
        let mut a = Histogram::new(&[1.0, 10.0]);
        a.observe(0.5);
        a.observe(5.0);
        let mut b = Histogram::new(&[1.0, 10.0]);
        b.observe(100.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 105.5);
        // Mismatched layouts keep totals honest in the overflow bucket.
        let mut odd = Histogram::new(&[7.0]);
        odd.observe(1.0);
        a.merge(&odd);
        assert_eq!(a.count(), 4);
        assert_eq!(a.counts(), &[1, 1, 2]);

        let left = MetricsRegistry::new();
        let right = MetricsRegistry::new();
        left.add_counter("hits", 2);
        right.add_counter("hits", 3);
        right.add_counter("misses", 1);
        left.set_gauge("level", 1.0);
        right.set_gauge("level", 2.0);
        left.observe_value("secs", 0.5);
        right.observe_value("secs", 2.0);
        left.merge_from(&right);
        assert_eq!(left.counter("hits"), 5);
        assert_eq!(left.counter("misses"), 1);
        assert_eq!(left.gauge_value("level"), Some(2.0));
        let merged = left.histogram("secs").unwrap();
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.sum(), 2.5);
    }

    #[test]
    fn exposition_includes_quantile_lines() {
        let registry = MetricsRegistry::new();
        for value in [0.5, 1.5, 2.0, 3.0] {
            registry.observe_value("lat", value);
        }
        let exposition = registry.render_prometheus();
        // Default bounds: one sample in (0.1, 1], three in (1, 10], so
        // rank r interpolates to 1 + 9·(r − 1)/3.
        for (label, expected) in [("0.5", 4.0), ("0.95", 9.4), ("0.99", 9.88)] {
            let needle = format!("nms_lat{{quantile=\"{label}\"}} ");
            let line = exposition
                .lines()
                .find(|line| line.starts_with(&needle))
                .unwrap_or_else(|| panic!("no {label} quantile line in {exposition}"));
            let value: f64 = line[needle.len()..].parse().unwrap();
            assert!((value - expected).abs() < 1e-9, "{line}");
        }
    }

    #[test]
    fn write_prometheus_is_atomic_and_readable() {
        let registry = MetricsRegistry::new();
        registry.add_counter("writes", 1);
        let mut path = std::env::temp_dir();
        path.push(format!("nms-obs-metrics-{}.prom", std::process::id()));
        registry.write_prometheus(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("nms_writes 1"));
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_file(&path);
    }
}
