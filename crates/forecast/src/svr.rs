//! ε-support-vector regression trained with a pairwise (SMO-style)
//! coordinate method.
//!
//! In the `β` parameterization (`β_i = α_i − α_i*`) the dual of ε-SVR is
//!
//! ```text
//! minimize  W(β) = ½ βᵀKβ − yᵀβ + ε‖β‖₁
//! subject to Σ_i β_i = 0,  |β_i| ≤ C
//! ```
//!
//! Working on one pair `(i, j)` at a time with `β_i + β_j` held constant
//! keeps the equality constraint satisfied; each pairwise subproblem is a
//! one-dimensional piecewise quadratic that we minimize exactly over its
//! breakpoints.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use nms_types::{BudgetClock, RetryPolicy, SolveBudget};

use crate::{Kernel, StandardScaler};

/// Hyperparameters for [`Svr::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    /// Box constraint `C > 0` (regularization strength inverse).
    pub c: f64,
    /// Width `ε ≥ 0` of the insensitive tube.
    pub epsilon: f64,
    /// The kernel.
    pub kernel: Kernel,
    /// Maximum passes over all pairs.
    pub max_passes: usize,
    /// Stop when the best objective improvement in a full pass falls below
    /// this value.
    pub tolerance: f64,
    /// Standardize features before training/prediction.
    pub standardize: bool,
}

impl Default for SvrParams {
    fn default() -> Self {
        Self {
            c: 10.0,
            epsilon: 0.01,
            kernel: Kernel::default(),
            max_passes: 60,
            tolerance: 1e-8,
            standardize: true,
        }
    }
}

/// Why training failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrainSvrError {
    /// No training samples were supplied.
    EmptyTrainingSet,
    /// Features and targets differ in length, or rows are ragged.
    ShapeMismatch {
        /// Human-readable detail.
        detail: String,
    },
    /// A hyperparameter is out of range.
    InvalidParams {
        /// Human-readable detail.
        detail: String,
    },
    /// A feature or target is NaN/infinite.
    NonFiniteData,
}

impl fmt::Display for TrainSvrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyTrainingSet => write!(f, "training set is empty"),
            Self::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            Self::InvalidParams { detail } => write!(f, "invalid SVR parameters: {detail}"),
            Self::NonFiniteData => write!(f, "training data contains non-finite values"),
        }
    }
}

impl Error for TrainSvrError {}

/// How an SMO fit went — fuel for the caller's health ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SvrFitReport {
    /// The pass loop stopped because improvements fell below tolerance
    /// (rather than exhausting `max_passes`).
    pub converged: bool,
    /// Passes actually executed by the winning fit.
    pub passes: usize,
    /// Fit attempts consumed (1 unless trained via [`Svr::fit_with_retry`]).
    pub attempts: usize,
    /// A watchdog [`SolveBudget`](nms_types::SolveBudget) stopped the pass
    /// loop before the SMO's own limits did. Absent in pre-budget
    /// serialized reports.
    #[serde(default)]
    pub budget_breached: bool,
}

/// A trained ε-SVR model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Svr {
    support_vectors: Vec<Vec<f64>>,
    betas: Vec<f64>,
    bias: f64,
    kernel: Kernel,
    scaler: Option<StandardScaler>,
}

impl Svr {
    /// Trains on row-major features `xs` and targets `ys`, reporting
    /// whether the SMO pass loop converged and how many passes it spent.
    ///
    /// The pass loop is watched by an optional running [`BudgetClock`]; a
    /// breach stops the loop cleanly and surfaces via
    /// [`SvrFitReport::budget_breached`] — the partially trained model is
    /// still returned (unconverged) so the caller can decide whether to
    /// fall back. Pass `None` to leave `max_passes` in charge.
    ///
    /// # Errors
    ///
    /// Returns [`TrainSvrError`] on empty/ragged/non-finite data or invalid
    /// hyperparameters.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[f64],
        params: &SvrParams,
        clock: Option<&BudgetClock>,
    ) -> Result<(Self, SvrFitReport), TrainSvrError> {
        if xs.is_empty() {
            return Err(TrainSvrError::EmptyTrainingSet);
        }
        if xs.len() != ys.len() {
            return Err(TrainSvrError::ShapeMismatch {
                detail: format!("{} feature rows vs {} targets", xs.len(), ys.len()),
            });
        }
        let dim = xs[0].len();
        if xs.iter().any(|row| row.len() != dim) {
            return Err(TrainSvrError::ShapeMismatch {
                detail: "ragged feature rows".into(),
            });
        }
        if xs.iter().flatten().any(|v| !v.is_finite()) || ys.iter().any(|v| !v.is_finite()) {
            return Err(TrainSvrError::NonFiniteData);
        }
        if !(params.c > 0.0 && params.c.is_finite()) {
            return Err(TrainSvrError::InvalidParams {
                detail: format!("C must be positive, got {}", params.c),
            });
        }
        if !(params.epsilon >= 0.0 && params.epsilon.is_finite()) {
            return Err(TrainSvrError::InvalidParams {
                detail: format!("epsilon must be non-negative, got {}", params.epsilon),
            });
        }
        if !params.kernel.is_valid() {
            return Err(TrainSvrError::InvalidParams {
                detail: format!("invalid kernel {:?}", params.kernel),
            });
        }

        let (scaler, features) = if params.standardize {
            let scaler = StandardScaler::fit(xs).map_err(|e| TrainSvrError::ShapeMismatch {
                detail: e.to_string(),
            })?;
            let transformed = scaler.transform_all(xs);
            (Some(scaler), transformed)
        } else {
            (None, xs.to_vec())
        };

        let n = features.len();
        // Gram matrix (n is time-series scale here: hundreds, not millions).
        let mut gram = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let k = params.kernel.evaluate(&features[i], &features[j]);
                gram[i * n + j] = k;
                gram[j * n + i] = k;
            }
        }

        let mut beta = vec![0.0_f64; n];
        // g[i] = (Kβ)_i, kept incrementally.
        let mut g = vec![0.0_f64; n];

        let mut converged = false;
        let mut budget_breached = false;
        let mut passes = 0usize;
        for _pass in 0..params.max_passes {
            if let Some(clock) = clock {
                if clock.breach(passes).is_some() {
                    budget_breached = true;
                    break;
                }
            }
            passes += 1;
            let mut best_improvement = 0.0_f64;
            for i in 0..n {
                let j = (i + 1) % n;
                if n == 1 {
                    break;
                }
                let improvement = Self::optimize_pair(
                    i,
                    j,
                    &mut beta,
                    &mut g,
                    &gram,
                    ys,
                    params.c,
                    params.epsilon,
                    n,
                );
                best_improvement = best_improvement.max(improvement);
                // A second partner further away accelerates mixing.
                let j2 = (i + n / 2) % n;
                if j2 != i && j2 != j {
                    let improvement = Self::optimize_pair(
                        i,
                        j2,
                        &mut beta,
                        &mut g,
                        &gram,
                        ys,
                        params.c,
                        params.epsilon,
                        n,
                    );
                    best_improvement = best_improvement.max(improvement);
                }
            }
            if best_improvement < params.tolerance {
                converged = true;
                break;
            }
        }

        // Bias from free support vectors' KKT conditions; fall back to the
        // mean residual.
        let mut bias_sum = 0.0;
        let mut bias_count = 0usize;
        for i in 0..n {
            let b = beta[i];
            if b.abs() > 1e-9 && b.abs() < params.c - 1e-9 {
                let sign = if b > 0.0 { 1.0 } else { -1.0 };
                bias_sum += ys[i] - g[i] - sign * params.epsilon;
                bias_count += 1;
            }
        }
        let bias = if bias_count > 0 {
            bias_sum / bias_count as f64
        } else {
            let residual: f64 = (0..n).map(|i| ys[i] - g[i]).sum();
            residual / n as f64
        };

        // Keep only support vectors.
        let mut support_vectors = Vec::new();
        let mut betas = Vec::new();
        for (i, &b) in beta.iter().enumerate() {
            if b.abs() > 1e-10 {
                support_vectors.push(features[i].clone());
                betas.push(b);
            }
        }

        Ok((
            Self {
                support_vectors,
                betas,
                bias,
                kernel: params.kernel,
                scaler,
            },
            SvrFitReport {
                converged,
                passes,
                attempts: 1,
                budget_breached,
            },
        ))
    }

    /// Trains with escalating pass budgets under a [`RetryPolicy`]: attempt
    /// `k` gets `policy.budget(params.max_passes, k)` passes. Stops at the
    /// first converged fit; when every attempt exhausts its budget the last
    /// (unconverged) model is returned with `converged: false` so callers
    /// can decide whether to fall back.
    ///
    /// The whole retry sequence is watched by `budget`: the wall-clock
    /// deadline spans all attempts, while the iteration cap bounds each
    /// attempt's passes. A breach abandons remaining retries — the budget
    /// is already spent — and returns the last (unconverged) model with
    /// [`SvrFitReport::budget_breached`] set.
    ///
    /// # Errors
    ///
    /// Returns [`TrainSvrError::InvalidParams`] for an invalid policy or
    /// budget, and the same data/parameter errors as [`Svr::fit`].
    pub fn fit_with_retry(
        xs: &[Vec<f64>],
        ys: &[f64],
        params: &SvrParams,
        policy: &RetryPolicy,
        budget: &SolveBudget,
    ) -> Result<(Self, SvrFitReport), TrainSvrError> {
        policy.validate().map_err(|e| TrainSvrError::InvalidParams {
            detail: format!("retry policy: {e}"),
        })?;
        budget.validate().map_err(|e| TrainSvrError::InvalidParams {
            detail: format!("solve budget: {e}"),
        })?;
        let clock = budget.start();
        let mut last = None;
        for attempt in 0..policy.max_attempts {
            let escalated = SvrParams {
                max_passes: policy.budget(params.max_passes, attempt),
                ..*params
            };
            let (model, mut report) = Self::fit(xs, ys, &escalated, Some(&clock))?;
            report.attempts = attempt + 1;
            if report.converged {
                return Ok((model, report));
            }
            last = Some((model, report));
            if report.budget_breached {
                // The budget is spent; retrying would breach again.
                break;
            }
        }
        Ok(last.expect("max_attempts >= 1 is enforced by validate"))
    }

    /// Exactly minimizes the pairwise subproblem, returning the objective
    /// improvement.
    #[allow(clippy::too_many_arguments)]
    fn optimize_pair(
        i: usize,
        j: usize,
        beta: &mut [f64],
        g: &mut [f64],
        gram: &[f64],
        ys: &[f64],
        c: f64,
        epsilon: f64,
        n: usize,
    ) -> f64 {
        let kii = gram[i * n + i];
        let kjj = gram[j * n + j];
        let kij = gram[i * n + j];
        let curvature = kii + kjj - 2.0 * kij;
        let bi = beta[i];
        let bj = beta[j];

        // Move β_i by t and β_j by −t. Objective delta as a function of t:
        // ΔW(t) = ½ curvature t² + (g_i − g_j − y_i + y_j) t
        //         + ε(|b_i + t| − |b_i|) + ε(|b_j − t| − |b_j|).
        let linear = g[i] - g[j] - ys[i] + ys[j];
        let t_lo = (-c - bi).max(bj - c);
        let t_hi = (c - bi).min(bj + c);
        if t_lo >= t_hi {
            return 0.0;
        }

        let delta = |t: f64| {
            0.5 * curvature * t * t
                + linear * t
                + epsilon * ((bi + t).abs() - bi.abs())
                + epsilon * ((bj - t).abs() - bj.abs())
        };

        // Candidate minimizers: the quadratic vertex of each smooth branch
        // (the ℓ1 gradient contribution is ±ε per term), the kinks, and the
        // box edges.
        let mut candidates = vec![t_lo, t_hi, -bi, bj, 0.0];
        if curvature > 1e-12 {
            for si in [-1.0, 1.0] {
                for sj in [-1.0, 1.0] {
                    // On the branch sign(b_i + t) = si, sign(b_j − t) = sj:
                    // d/dt = curvature·t + linear + ε·si − ε·sj = 0.
                    candidates.push(-(linear + epsilon * si - epsilon * sj) / curvature);
                }
            }
        }

        let mut best_t = 0.0;
        let mut best_delta = 0.0;
        for &t in &candidates {
            let t = t.clamp(t_lo, t_hi);
            let d = delta(t);
            if d < best_delta {
                best_delta = d;
                best_t = t;
            }
        }
        if best_delta >= 0.0 {
            return 0.0;
        }

        beta[i] += best_t;
        beta[j] -= best_t;
        for r in 0..n {
            g[r] += best_t * (gram[r * n + i] - gram[r * n + j]);
        }
        -best_delta
    }

    /// Predicts the target for one raw (unstandardized) sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample dimension differs from the training dimension.
    pub fn predict(&self, sample: &[f64]) -> f64 {
        let transformed;
        let x: &[f64] = match &self.scaler {
            Some(scaler) => {
                transformed = scaler.transform(sample);
                &transformed
            }
            None => sample,
        };
        self.betas
            .iter()
            .zip(&self.support_vectors)
            .map(|(b, sv)| b * self.kernel.evaluate(sv, x))
            .sum::<f64>()
            + self.bias
    }

    /// The fitted bias term.
    #[inline]
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmse;


    /// The model alone, trained with no watchdog.
    fn fit(xs: &[Vec<f64>], ys: &[f64], params: &SvrParams) -> Result<Svr, TrainSvrError> {
        Svr::fit(xs, ys, params, None).map(|(model, _)| model)
    }
    fn linear_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let ys = xs.iter().map(|x| 3.0 * x[0] + 0.5).collect();
        (xs, ys)
    }

    #[test]
    fn fits_linear_function_with_linear_kernel() {
        let (xs, ys) = linear_data(30);
        let params = SvrParams {
            kernel: Kernel::Linear,
            epsilon: 0.001,
            ..SvrParams::default()
        };
        let model = fit(&xs, &ys, &params).unwrap();
        let preds: Vec<f64> = xs.iter().map(|x| model.predict(x)).collect();
        assert!(rmse(&preds, &ys) < 0.05, "rmse {}", rmse(&preds, &ys));
    }

    #[test]
    fn fits_sine_with_rbf_kernel() {
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
        let params = SvrParams {
            kernel: Kernel::Rbf { gamma: 2.0 },
            c: 50.0,
            epsilon: 0.01,
            max_passes: 120,
            ..SvrParams::default()
        };
        let model = fit(&xs, &ys, &params).unwrap();
        let preds: Vec<f64> = xs.iter().map(|x| model.predict(x)).collect();
        assert!(rmse(&preds, &ys) < 0.08, "rmse {}", rmse(&preds, &ys));
        // Interpolates between training points too.
        let mid = model.predict(&[1.05]);
        assert!((mid - 1.05_f64.sin()).abs() < 0.15);
    }

    #[test]
    fn epsilon_tube_sparsifies() {
        let (xs, ys) = linear_data(40);
        let tight = fit(
            &xs,
            &ys,
            &SvrParams {
                kernel: Kernel::Linear,
                epsilon: 0.0,
                ..SvrParams::default()
            },
        )
        .unwrap();
        let loose = fit(
            &xs,
            &ys,
            &SvrParams {
                kernel: Kernel::Linear,
                epsilon: 0.5,
                ..SvrParams::default()
            },
        )
        .unwrap();
        // A wide tube swallows most points: fewer support vectors.
        assert!(loose.support_vectors.len() <= tight.support_vectors.len());
    }

    #[test]
    fn constant_target_learned_via_bias() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys = vec![4.2; 10];
        let model = fit(&xs, &ys, &SvrParams::default()).unwrap();
        assert!((model.predict(&[3.0]) - 4.2).abs() < 0.05);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let (xs, ys) = linear_data(5);
        assert!(matches!(
            fit(&[], &[], &SvrParams::default()),
            Err(TrainSvrError::EmptyTrainingSet)
        ));
        assert!(matches!(
            fit(&xs, &ys[..3], &SvrParams::default()),
            Err(TrainSvrError::ShapeMismatch { .. })
        ));
        let bad_c = SvrParams {
            c: 0.0,
            ..SvrParams::default()
        };
        assert!(matches!(
            fit(&xs, &ys, &bad_c),
            Err(TrainSvrError::InvalidParams { .. })
        ));
        let bad_eps = SvrParams {
            epsilon: -1.0,
            ..SvrParams::default()
        };
        assert!(fit(&xs, &ys, &bad_eps).is_err());
        let mut xs_nan = xs.clone();
        xs_nan[0][0] = f64::NAN;
        assert!(matches!(
            fit(&xs_nan, &ys, &SvrParams::default()),
            Err(TrainSvrError::NonFiniteData)
        ));
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(fit(&ragged, &[1.0, 2.0], &SvrParams::default()).is_err());
    }

    #[test]
    fn multivariate_features() {
        // y = x0 + 2·x1.
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + 2.0 * x[1]).collect();
        let params = SvrParams {
            kernel: Kernel::Linear,
            c: 100.0,
            epsilon: 0.01,
            ..SvrParams::default()
        };
        let model = fit(&xs, &ys, &params).unwrap();
        assert!((model.predict(&[3.0, 4.0]) - 11.0).abs() < 0.3);
    }

    #[test]
    fn single_sample_degenerates_to_bias() {
        let model = fit(&[vec![1.0]], &[5.0], &SvrParams::default()).unwrap();
        assert!((model.predict(&[1.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fit_report_tracks_convergence() {
        let (xs, ys) = linear_data(30);
        let params = SvrParams {
            kernel: Kernel::Linear,
            ..SvrParams::default()
        };
        let (_, report) = Svr::fit(&xs, &ys, &params, None).unwrap();
        assert!(report.converged);
        assert!(report.passes <= params.max_passes);
        assert_eq!(report.attempts, 1);

        // A one-pass budget with an unreachable tolerance cannot converge.
        let strangled = SvrParams {
            max_passes: 1,
            tolerance: 0.0,
            ..params
        };
        let (_, report) = Svr::fit(&xs, &ys, &strangled, None).unwrap();
        assert!(!report.converged);
        assert_eq!(report.passes, 1);
    }

    #[test]
    fn retry_escalates_pass_budget_until_convergence() {
        let (xs, ys) = linear_data(30);
        // One pass is not enough for this tolerance; the retry doubles the
        // budget each attempt until the fit converges.
        let params = SvrParams {
            kernel: Kernel::Linear,
            max_passes: 1,
            tolerance: 1e-10,
            ..SvrParams::default()
        };
        let policy = RetryPolicy {
            max_attempts: 8,
            iteration_growth: 2.0,
        };
        let (model, report) =
            Svr::fit_with_retry(&xs, &ys, &params, &policy, &SolveBudget::unlimited()).unwrap();
        assert!(report.converged, "report {report:?}");
        assert!(report.attempts > 1, "report {report:?}");
        let preds: Vec<f64> = xs.iter().map(|x| model.predict(x)).collect();
        assert!(rmse(&preds, &ys) < 0.05);
    }

    #[test]
    fn retry_returns_unconverged_model_when_budget_exhausts() {
        let (xs, ys) = linear_data(30);
        let params = SvrParams {
            kernel: Kernel::Linear,
            max_passes: 1,
            tolerance: 0.0, // improvements can never drop below zero
            ..SvrParams::default()
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            iteration_growth: 1.0,
        };
        let (_, report) =
            Svr::fit_with_retry(&xs, &ys, &params, &policy, &SolveBudget::unlimited()).unwrap();
        assert!(!report.converged);
        assert_eq!(report.attempts, 2);

        let bad_policy = RetryPolicy {
            max_attempts: 0,
            ..policy
        };
        assert!(matches!(
            Svr::fit_with_retry(&xs, &ys, &params, &bad_policy, &SolveBudget::unlimited()),
            Err(TrainSvrError::InvalidParams { .. })
        ));
    }

    #[test]
    fn watchdog_budget_stops_smo_and_abandons_retries() {
        let (xs, ys) = linear_data(30);
        let params = SvrParams {
            kernel: Kernel::Linear,
            max_passes: 50,
            tolerance: 0.0, // can never converge on its own
            ..SvrParams::default()
        };
        let policy = RetryPolicy {
            max_attempts: 4,
            iteration_growth: 2.0,
        };
        let budget = SolveBudget {
            max_iterations: Some(2),
            max_wall_secs: None,
        };
        let (model, report) =
            Svr::fit_with_retry(&xs, &ys, &params, &policy, &budget).unwrap();
        assert!(report.budget_breached, "report {report:?}");
        assert!(!report.converged);
        assert_eq!(report.attempts, 1, "breach must stop further attempts");
        assert_eq!(report.passes, 2);
        // The partially trained model still predicts finite values.
        assert!(model.predict(&xs[0]).is_finite());

        // An invalid budget is reported like an invalid policy.
        let bad = SolveBudget {
            max_iterations: None,
            max_wall_secs: Some(-1.0),
        };
        assert!(matches!(
            Svr::fit_with_retry(&xs, &ys, &params, &policy, &bad),
            Err(TrainSvrError::InvalidParams { .. })
        ));
    }

    #[test]
    fn standardization_helps_scale_mismatched_features() {
        // One feature in thousands, target depends on it linearly.
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 1000.0]).collect();
        let ys: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let params = SvrParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            c: 100.0,
            ..SvrParams::default()
        };
        let model = fit(&xs, &ys, &params).unwrap();
        let preds: Vec<f64> = xs.iter().map(|x| model.predict(x)).collect();
        assert!(rmse(&preds, &ys) < 1.0, "rmse {}", rmse(&preds, &ys));
    }
}
