//! The cross-entropy optimization method (paper §3.2, following \[3\]).
//!
//! The method maintains a Gaussian sampling distribution per dimension,
//! draws `K` samples, keeps the elite fraction with the best objective
//! values, and refits the distribution to the elites (the analytic solution
//! of the Kullback–Leibler projection in Eqn 5 for the Gaussian family),
//! smoothing the update to avoid premature collapse. Samples are clamped
//! into the feasible box, which for the battery problem is
//! `[0, B_n]` per slot.

use rand::Rng;
use serde::{Deserialize, Serialize};

use nms_types::ValidateError;

use crate::SolverError;

/// The error produced when the objective evaluates to NaN on a sampled
/// point.
fn nan_sample_error() -> SolverError {
    SolverError::Numeric {
        detail: "objective returned NaN for a sampled point".into(),
    }
}

/// Draws one standard-normal variate via the Box–Muller transform (keeps
/// the workspace free of distribution crates; see DESIGN.md §6).
fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Reusable population/elite buffers for cross-entropy solves.
///
/// One CE solve draws `K` sample points per iteration; allocating the
/// population, its objective values, and the distribution vectors fresh per
/// solve dominates small problems (the per-customer battery step runs
/// thousands of times per sweep). Callers hold one workspace and pass it to
/// [`CrossEntropyOptimizer::minimize`]; steady-state reuse then allocates
/// nothing per iteration. Every solve fully reinitializes the prefix it
/// reads, so reuse is bit-identical to fresh allocation.
#[derive(Debug, Clone, Default)]
pub struct CeWorkspace {
    /// Sample points of the current iteration (`K` reusable vectors).
    points: Vec<Vec<f64>>,
    /// Objective values, index-aligned with `points`.
    values: Vec<f64>,
    /// Sample indices, stably sorted by objective value each iteration.
    order: Vec<usize>,
    /// Sampling-distribution mean per dimension.
    mean: Vec<f64>,
    /// Sampling-distribution standard deviation per dimension.
    std: Vec<f64>,
    /// Box width per dimension (collapse-criterion scale).
    widths: Vec<f64>,
    /// Best point ever sampled.
    best_point: Vec<f64>,
}

/// Tuning knobs for [`CrossEntropyOptimizer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CeConfig {
    /// Samples drawn per iteration (`K` in §3.2).
    pub samples: usize,
    /// Fraction of samples kept as the elite set (0, 1].
    pub elite_fraction: f64,
    /// Maximum refinement iterations.
    pub max_iters: usize,
    /// Smoothing factor `α ∈ (0, 1]` applied to mean/std updates
    /// (1 = replace outright).
    pub smoothing: f64,
    /// Initial standard deviation as a fraction of each box width.
    pub init_std_fraction: f64,
    /// Stop when every dimension's std falls below this fraction of its box
    /// width.
    pub std_tol_fraction: f64,
}

impl CeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] for out-of-range parameters (zero samples,
    /// elite fraction outside (0, 1], non-positive smoothing, …).
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.samples < 2 {
            return Err(ValidateError::new("cross entropy needs at least 2 samples"));
        }
        if !(self.elite_fraction > 0.0 && self.elite_fraction <= 1.0) {
            return Err(ValidateError::new("elite fraction must be in (0, 1]"));
        }
        if self.max_iters == 0 {
            return Err(ValidateError::new("need at least one iteration"));
        }
        if !(self.smoothing > 0.0 && self.smoothing <= 1.0) {
            return Err(ValidateError::new("smoothing must be in (0, 1]"));
        }
        if !(self.init_std_fraction > 0.0 && self.init_std_fraction.is_finite()) {
            return Err(ValidateError::new("init std fraction must be positive"));
        }
        if !(self.std_tol_fraction >= 0.0 && self.std_tol_fraction.is_finite()) {
            return Err(ValidateError::new("std tolerance must be non-negative"));
        }
        Ok(())
    }

    /// A lighter preset for inner loops that run thousands of times (fewer
    /// samples and iterations than [`CeConfig::default`]).
    pub fn fast() -> Self {
        Self {
            samples: 32,
            elite_fraction: 0.2,
            max_iters: 25,
            smoothing: 0.8,
            init_std_fraction: 0.4,
            std_tol_fraction: 0.01,
        }
    }
}

impl Default for CeConfig {
    fn default() -> Self {
        Self {
            samples: 64,
            elite_fraction: 0.15,
            max_iters: 60,
            smoothing: 0.7,
            init_std_fraction: 0.4,
            std_tol_fraction: 0.005,
        }
    }
}

/// Result of a cross-entropy run.
#[derive(Debug, Clone, PartialEq)]
pub struct CeSolution {
    /// Best point found (inside the box).
    pub point: Vec<f64>,
    /// Objective value at [`point`](Self::point).
    pub objective: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// `true` when the std-collapse criterion triggered before
    /// `max_iters`.
    pub converged: bool,
    /// Sampling-distribution spread after each iteration's refit (the mean
    /// std across dimensions) — the variance trajectory observability
    /// consumes. One entry per executed iteration; empty for
    /// zero-dimensional problems.
    pub std_history: Vec<f64>,
}

/// Minimizes black-box objectives over axis-aligned boxes with the
/// cross-entropy method.
#[derive(Debug, Clone, Copy)]
pub struct CrossEntropyOptimizer {
    config: CeConfig,
}

impl CrossEntropyOptimizer {
    /// Creates an optimizer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`CeConfig::validate`]
    /// first when the configuration is user-supplied.
    pub fn new(config: CeConfig) -> Self {
        config
            .validate()
            .expect("invalid cross-entropy configuration");
        Self { config }
    }

    /// The bound configuration.
    #[inline]
    pub fn config(&self) -> &CeConfig {
        &self.config
    }

    /// Minimizes `objective` over the box `bounds` (one `(lo, hi)` pair per
    /// dimension), starting the sampling distribution at `init_mean`.
    ///
    /// Returns the best point ever sampled (not merely the final mean), so
    /// the result can only improve with more iterations. The sample points,
    /// objective values, and distribution vectors live in `ws` and are
    /// reused across solves, so a warm workspace makes the per-iteration
    /// loop allocation-free; reuse is bit-identical to a fresh
    /// [`CeWorkspace`] under the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Numeric`] when `bounds` and `init_mean`
    /// disagree in length, a bound has `lo > hi` or is non-finite, or the
    /// objective returns NaN for a feasible point.
    pub fn minimize(
        &self,
        mut objective: impl FnMut(&[f64]) -> f64,
        bounds: &[(f64, f64)],
        init_mean: &[f64],
        rng: &mut impl Rng,
        ws: &mut CeWorkspace,
    ) -> Result<CeSolution, SolverError> {
        if bounds.len() != init_mean.len() {
            return Err(SolverError::Numeric {
                detail: format!(
                    "bounds/init_mean dimensions: {} vs {}",
                    bounds.len(),
                    init_mean.len()
                ),
            });
        }
        let dim = bounds.len();
        if dim == 0 {
            let value = objective(&[]);
            if value.is_nan() {
                return Err(nan_sample_error());
            }
            return Ok(CeSolution {
                point: Vec::new(),
                objective: value,
                iterations: 0,
                converged: true,
                std_history: Vec::new(),
            });
        }
        for (d, &(lo, hi)) in bounds.iter().enumerate() {
            if !(lo <= hi && lo.is_finite() && hi.is_finite()) {
                return Err(SolverError::Numeric {
                    detail: format!("invalid bounds at dim {d}: ({lo}, {hi})"),
                });
            }
        }

        let CeWorkspace {
            points,
            values,
            order,
            mean,
            std,
            widths,
            best_point,
        } = ws;

        widths.clear();
        widths.extend(bounds.iter().map(|&(lo, hi)| (hi - lo).max(1e-12)));
        mean.clear();
        mean.extend(
            init_mean
                .iter()
                .zip(bounds)
                .map(|(&m, &(lo, hi))| m.clamp(lo, hi)),
        );
        std.clear();
        std.extend(widths.iter().map(|w| w * self.config.init_std_fraction));

        let samples = self.config.samples;
        let elite_count =
            ((samples as f64 * self.config.elite_fraction).ceil() as usize).clamp(1, samples);

        best_point.clear();
        best_point.extend_from_slice(mean);
        let mut best_value = objective(best_point);
        if best_value.is_nan() {
            return Err(SolverError::Numeric {
                detail: "objective returned NaN at the initial mean".into(),
            });
        }

        while points.len() < samples {
            points.push(Vec::new());
        }
        let mut iterations = 0;
        let mut converged = false;
        let mut std_history: Vec<f64> = Vec::new();

        for _ in 0..self.config.max_iters {
            iterations += 1;
            // Draw every sample point before evaluating any of them (the
            // objective consumes no randomness, so the RNG stream is the
            // same as drawing and evaluating one sample at a time).
            for x in points[..samples].iter_mut() {
                x.clear();
                for d in 0..dim {
                    let v = mean[d] + std[d].max(1e-12) * sample_standard_normal(rng);
                    x.push(v.clamp(bounds[d].0, bounds[d].1));
                }
            }
            values.clear();
            for point in &points[..samples] {
                let value = objective(point);
                if value.is_nan() {
                    return Err(nan_sample_error());
                }
                values.push(value);
            }
            // Stable index sort by value — the same permutation the old
            // pair sort produced, without moving the points.
            order.clear();
            order.extend(0..samples);
            // No NaN can reach this sort: every sample was checked above.
            order.sort_by(|&a, &b| {
                values[a]
                    .partial_cmp(&values[b])
                    .expect("objective values not NaN")
            });
            let top = order[0];
            if values[top] < best_value {
                best_value = values[top];
                best_point.clone_from(&points[top]);
            }

            // Refit the Gaussian to the elite set (the KL projection of
            // Eqn 5 for the normal family) with smoothing.
            let alpha = self.config.smoothing;
            for d in 0..dim {
                let elite_mean = order[..elite_count]
                    .iter()
                    .map(|&i| points[i][d])
                    .sum::<f64>()
                    / elite_count as f64;
                let elite_var = order[..elite_count]
                    .iter()
                    .map(|&i| (points[i][d] - elite_mean).powi(2))
                    .sum::<f64>()
                    / elite_count as f64;
                mean[d] = alpha * elite_mean + (1.0 - alpha) * mean[d];
                std[d] = alpha * elite_var.sqrt() + (1.0 - alpha) * std[d];
            }

            std_history.push(std.iter().sum::<f64>() / dim as f64);

            let collapsed = std
                .iter()
                .zip(&*widths)
                .all(|(s, w)| *s <= self.config.std_tol_fraction * w);
            if collapsed {
                converged = true;
                break;
            }
        }

        Ok(CeSolution {
            point: best_point.clone(),
            objective: best_value,
            iterations,
            converged,
            std_history,
        })
    }
}

impl Default for CrossEntropyOptimizer {
    fn default() -> Self {
        Self::new(CeConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// One solve from a fresh workspace.
    fn minimize(
        optimizer: &CrossEntropyOptimizer,
        objective: impl FnMut(&[f64]) -> f64,
        bounds: &[(f64, f64)],
        init_mean: &[f64],
        seed: u64,
    ) -> Result<CeSolution, SolverError> {
        let mut ws = CeWorkspace::default();
        optimizer.minimize(objective, bounds, init_mean, &mut rng(seed), &mut ws)
    }

    #[test]
    fn config_validation() {
        assert!(CeConfig::default().validate().is_ok());
        assert!(CeConfig::fast().validate().is_ok());
        assert!(CeConfig {
            samples: 1,
            ..CeConfig::default()
        }
        .validate()
        .is_err());
        assert!(CeConfig {
            elite_fraction: 0.0,
            ..CeConfig::default()
        }
        .validate()
        .is_err());
        assert!(CeConfig {
            smoothing: 1.5,
            ..CeConfig::default()
        }
        .validate()
        .is_err());
        assert!(CeConfig {
            max_iters: 0,
            ..CeConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn finds_quadratic_minimum() {
        let optimizer = CrossEntropyOptimizer::default();
        let solution = minimize(
            &optimizer,
            |x| x.iter().map(|v| (v - 0.7).powi(2)).sum(),
            &[(0.0, 2.0); 6],
            &[1.8; 6],
            3,
        )
        .unwrap();
        for v in &solution.point {
            assert!((v - 0.7).abs() < 0.05, "point {v}");
        }
        assert!(solution.converged);
        assert_eq!(solution.std_history.len(), solution.iterations);
        assert!(solution
            .std_history
            .iter()
            .all(|s| s.is_finite() && *s >= 0.0));
        // Convergence means the spread collapsed over the run.
        assert!(solution.std_history.last().unwrap() < solution.std_history.first().unwrap());
    }

    #[test]
    fn respects_box_when_minimum_outside() {
        let optimizer = CrossEntropyOptimizer::default();
        let solution = minimize(
            &optimizer,
            |x| (x[0] + 5.0).powi(2),
            &[(0.0, 1.0)],
            &[0.5],
            4,
        )
        .unwrap();
        // Unconstrained minimum at −5 is outside; the box edge wins.
        assert!(solution.point[0] >= 0.0);
        assert!(solution.point[0] < 0.05);
    }

    #[test]
    fn handles_nonconvex_objective() {
        // Rastrigin-like in 1-D: many local minima, global at 0.
        let optimizer = CrossEntropyOptimizer::new(CeConfig {
            samples: 128,
            max_iters: 80,
            ..CeConfig::default()
        });
        let solution = minimize(
            &optimizer,
            |x| x[0] * x[0] + 2.0 * (1.0 - (4.0 * std::f64::consts::PI * x[0]).cos()),
            &[(-3.0, 3.0)],
            &[2.5],
            5,
        )
        .unwrap();
        assert!(solution.point[0].abs() < 0.1, "got {}", solution.point[0]);
    }

    #[test]
    fn zero_dimensional_problem() {
        let optimizer = CrossEntropyOptimizer::default();
        let solution = minimize(&optimizer, |_| 42.0, &[], &[], 6).unwrap();
        assert_eq!(solution.objective, 42.0);
        assert!(solution.converged);
    }

    #[test]
    fn deterministic_under_seed() {
        let optimizer = CrossEntropyOptimizer::default();
        let run = |seed| {
            minimize(
                &optimizer,
                |x| (x[0] - 0.2).powi(2) + (x[1] - 0.9).powi(2),
                &[(0.0, 1.0); 2],
                &[0.5; 2],
                seed,
            )
            .unwrap()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh() {
        // One workspace across solves of different dimensions and boxes;
        // each must match a fresh-allocation solve exactly.
        let optimizer = CrossEntropyOptimizer::new(CeConfig::fast());
        let mut ws = CeWorkspace::default();
        let cases: [(usize, f64); 3] = [(6, 0.7), (2, -0.3), (4, 1.4)];
        for (round, &(dim, target)) in cases.iter().enumerate() {
            let seed = 100 + round as u64;
            let bounds = vec![(-2.0, 2.0); dim];
            let init = vec![0.0; dim];
            let objective = |x: &[f64]| x.iter().map(|v| (v - target).powi(2)).sum::<f64>();
            let reused = optimizer
                .minimize(objective, &bounds, &init, &mut rng(seed), &mut ws)
                .unwrap();
            let fresh = minimize(&optimizer, objective, &bounds, &init, seed).unwrap();
            assert_eq!(reused, fresh, "round {round}");
        }
    }

    #[test]
    fn best_ever_monotone_in_iterations() {
        let few = CrossEntropyOptimizer::new(CeConfig {
            max_iters: 2,
            std_tol_fraction: 0.0,
            ..CeConfig::default()
        });
        let many = CrossEntropyOptimizer::new(CeConfig {
            max_iters: 40,
            std_tol_fraction: 0.0,
            ..CeConfig::default()
        });
        let objective = |x: &[f64]| (x[0] - 0.31).powi(2);
        let bounds = [(0.0, 1.0)];
        let a = minimize(&few, objective, &bounds, &[0.9], 11).unwrap();
        let b = minimize(&many, objective, &bounds, &[0.9], 11).unwrap();
        assert!(b.objective <= a.objective + 1e-15);
    }

    #[test]
    fn nan_objective_is_an_error() {
        let optimizer = CrossEntropyOptimizer::default();
        let err = minimize(&optimizer, |_| f64::NAN, &[(0.0, 1.0)], &[0.5], 0).unwrap_err();
        assert!(err.to_string().contains("NaN"), "{err}");
        // A well-posed problem succeeds through the same path.
        let ok = minimize(&optimizer, |x| x[0] * x[0], &[(-1.0, 1.0)], &[0.9], 1).unwrap();
        assert!(ok.point[0].abs() < 0.05);
    }

    #[test]
    fn malformed_boxes_are_errors() {
        let optimizer = CrossEntropyOptimizer::default();
        let err = minimize(&optimizer, |_| 0.0, &[(0.0, 1.0)], &[], 0).unwrap_err();
        assert!(err.to_string().contains("bounds/init_mean"), "{err}");
        let err = minimize(&optimizer, |_| 0.0, &[(1.0, 0.0)], &[0.5], 0).unwrap_err();
        assert!(err.to_string().contains("invalid bounds"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_solution_stays_in_box(
            lo in -5.0_f64..0.0,
            width in 0.1_f64..10.0,
            target in -10.0_f64..10.0,
            seed in 0_u64..1000,
        ) {
            let hi = lo + width;
            let optimizer = CrossEntropyOptimizer::new(CeConfig::fast());
            let solution = minimize(
                &optimizer,
                |x| (x[0] - target).powi(2),
                &[(lo, hi)],
                &[(lo + hi) / 2.0],
                seed,
            )
            .unwrap();
            prop_assert!(solution.point[0] >= lo - 1e-12);
            prop_assert!(solution.point[0] <= hi + 1e-12);
            // And it should do at least as well as the box-projected target.
            let projected = target.clamp(lo, hi);
            let bound = (projected - target).powi(2);
            prop_assert!(solution.objective >= bound - 1e-9);
        }
    }
}
