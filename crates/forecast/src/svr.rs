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
    /// Passes the returned model has had, counted from `β = 0`. Under
    /// [`Svr::fit_with_retry`] this is the last attempt's count, as if it
    /// had restarted: the passes it continued from an earlier attempt count
    /// once, not once per attempt.
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

/// Why an SMO pass loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// A pass's best improvement fell below the tolerance.
    Converged,
    /// The watchdog clock stopped the loop before the pass budget ran out.
    Breached,
    /// The pass budget ran out.
    Exhausted,
}

/// One SMO fit in progress: the training features, their Gram matrix and
/// the dual iterate. Every pass is a deterministic function of this state,
/// so [`Smo::run`] can be called again with a larger pass budget and
/// continue exactly where a fit restarted from `β = 0` would be after the
/// same number of passes.
struct Smo<'a> {
    ys: &'a [f64],
    params: &'a SvrParams,
    scaler: Option<StandardScaler>,
    features: Vec<Vec<f64>>,
    /// Row-major `n × n`; entry `(i, j)` is evaluated once and stored at
    /// both `(i, j)` and `(j, i)`, so row `i` equals column `i` bit for bit.
    gram: Vec<f64>,
    beta: Vec<f64>,
    /// `g[i] = (Kβ)_i`, kept incrementally.
    g: Vec<f64>,
    passes: usize,
}

impl<'a> Smo<'a> {
    /// Validates the inputs, standardizes the features and builds the Gram
    /// matrix, with `β = 0`.
    fn new(xs: &[Vec<f64>], ys: &'a [f64], params: &'a SvrParams) -> Result<Self, TrainSvrError> {
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
        // A NaN or negative tolerance can never be met: the fit would burn
        // every pass of every attempt and then fall back.
        if params.tolerance.is_nan() || params.tolerance < 0.0 {
            return Err(TrainSvrError::InvalidParams {
                detail: format!("tolerance must be non-negative, got {}", params.tolerance),
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

        Ok(Self {
            ys,
            params,
            scaler,
            features,
            gram,
            beta: vec![0.0; n],
            g: vec![0.0; n],
            passes: 0,
        })
    }

    /// Runs passes until the fit converges, `clock` breaches, or
    /// `max_passes` passes have run since `β = 0` (so a budget the fit has
    /// already reached runs none).
    fn run(&mut self, max_passes: usize, clock: Option<&BudgetClock>) -> Stop {
        let n = self.beta.len();
        while self.passes < max_passes {
            if clock.is_some_and(|clock| clock.breach(self.passes).is_some()) {
                return Stop::Breached;
            }
            self.passes += 1;
            let mut best_improvement = 0.0_f64;
            if n > 1 {
                for i in 0..n {
                    let j = (i + 1) % n;
                    best_improvement = best_improvement.max(self.optimize_pair(i, j));
                    // A second partner further away accelerates mixing.
                    let j2 = (i + n / 2) % n;
                    if j2 != i && j2 != j {
                        best_improvement = best_improvement.max(self.optimize_pair(i, j2));
                    }
                }
            }
            if best_improvement < self.params.tolerance {
                return Stop::Converged;
            }
        }
        Stop::Exhausted
    }

    /// Exactly minimizes the pairwise subproblem, returning the objective
    /// improvement.
    fn optimize_pair(&mut self, i: usize, j: usize) -> f64 {
        let n = self.beta.len();
        let (c, epsilon) = (self.params.c, self.params.epsilon);
        let row_i = &self.gram[i * n..(i + 1) * n];
        let row_j = &self.gram[j * n..(j + 1) * n];
        let (kii, kjj, kij) = (row_i[i], row_j[j], row_i[j]);
        let curvature = kii + kjj - 2.0 * kij;
        let bi = self.beta[i];
        let bj = self.beta[j];

        // Move β_i by t and β_j by −t. Objective delta as a function of t:
        // ΔW(t) = ½ curvature t² + (g_i − g_j − y_i + y_j) t
        //         + ε(|b_i + t| − |b_i|) + ε(|b_j − t| − |b_j|).
        let linear = self.g[i] - self.g[j] - self.ys[i] + self.ys[j];
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

        // Candidate minimizers: the box edges, the kinks, and the quadratic
        // vertex of each smooth branch (the ℓ1 gradient contribution is ±ε
        // per term).
        let mut candidates = [t_lo, t_hi, -bi, bj, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut count = 5;
        if curvature > 1e-12 {
            for si in [-1.0, 1.0] {
                for sj in [-1.0, 1.0] {
                    // On the branch sign(b_i + t) = si, sign(b_j − t) = sj:
                    // d/dt = curvature·t + linear + ε·si − ε·sj = 0.
                    candidates[count] = -(linear + epsilon * si - epsilon * sj) / curvature;
                    count += 1;
                }
            }
        }

        let mut best_t = 0.0;
        let mut best_delta = 0.0;
        for &t in &candidates[..count] {
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

        self.beta[i] += best_t;
        self.beta[j] -= best_t;
        for ((g, ki), kj) in self.g.iter_mut().zip(row_i).zip(row_j) {
            *g += best_t * (ki - kj);
        }
        -best_delta
    }

    /// The model at the current iterate, and the report of a fit that
    /// stopped at `stop` after `attempts` attempts.
    fn finish(self, stop: Stop, attempts: usize) -> (Svr, SvrFitReport) {
        let Self {
            ys,
            params,
            scaler,
            features,
            beta,
            g,
            passes,
            ..
        } = self;
        let n = beta.len();
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
        let (support_vectors, betas) = features
            .into_iter()
            .zip(beta)
            .filter(|&(_, b)| b.abs() > 1e-10)
            .unzip();

        (
            Svr {
                support_vectors,
                betas,
                bias,
                kernel: params.kernel,
                scaler,
            },
            SvrFitReport {
                converged: stop == Stop::Converged,
                passes,
                attempts,
                budget_breached: stop == Stop::Breached,
            },
        )
    }
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
    /// hyperparameters (including a NaN or negative `tolerance`).
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[f64],
        params: &SvrParams,
        clock: Option<&BudgetClock>,
    ) -> Result<(Self, SvrFitReport), TrainSvrError> {
        let mut smo = Smo::new(xs, ys, params)?;
        let stop = smo.run(params.max_passes, clock);
        Ok(smo.finish(stop, 1))
    }

    /// Trains with escalating pass budgets under a [`RetryPolicy`]: attempt
    /// `k` gets `policy.budget(params.max_passes, k)` passes. Stops at the
    /// first converged fit; when every attempt exhausts its budget the last
    /// (unconverged) model is returned with `converged: false` so callers
    /// can decide whether to fall back.
    ///
    /// The features are standardized and the Gram matrix is built once.
    /// Each retry continues the previous attempt's SMO state up to its
    /// larger budget instead of restarting from `β = 0`: a restart would
    /// repeat the earlier passes bit for bit, so the model and report are
    /// the ones a restarted attempt would return, and an unconverged fit
    /// runs the last budget's passes, not the sum of all budgets.
    ///
    /// The whole retry sequence is watched by `budget`: the wall-clock
    /// deadline spans all attempts, while the iteration cap bounds the
    /// passes counted from `β = 0`, which are what each restarted attempt
    /// would count. A breach abandons remaining retries — the budget is
    /// already spent — and returns the last (unconverged) model with
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
        policy
            .validate()
            .map_err(|e| TrainSvrError::InvalidParams {
                detail: format!("retry policy: {e}"),
            })?;
        budget
            .validate()
            .map_err(|e| TrainSvrError::InvalidParams {
                detail: format!("solve budget: {e}"),
            })?;
        let clock = budget.start();
        let mut smo = Smo::new(xs, ys, params)?;
        let mut attempt = 0;
        loop {
            // Budgets never shrink (the policy's growth is at least 1), so
            // the passes already run are a prefix of this attempt's.
            let max_passes = policy.budget(params.max_passes, attempt);
            debug_assert!(max_passes >= smo.passes);
            attempt += 1;
            let stop = smo.run(max_passes, Some(&clock));
            // A breach abandons the retries: the budget is already spent.
            if stop != Stop::Exhausted || attempt == policy.max_attempts {
                return Ok(smo.finish(stop, attempt));
            }
        }
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
        // A NaN or negative tolerance could never be met; zero stays valid
        // (`fit_report_tracks_convergence` uses it).
        for tolerance in [f64::NAN, -1e-12] {
            let bad_tolerance = SvrParams {
                tolerance,
                ..SvrParams::default()
            };
            assert!(matches!(
                fit(&xs, &ys, &bad_tolerance),
                Err(TrainSvrError::InvalidParams { .. })
            ));
        }
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
        let (model, report) = Svr::fit_with_retry(&xs, &ys, &params, &policy, &budget).unwrap();
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

    /// `Svr::fit` as it stood before continuation, kept as the oracle of
    /// `fits_match_the_restarting_oracle`.
    fn fit_oracle(
        xs: &[Vec<f64>],
        ys: &[f64],
        params: &SvrParams,
        clock: Option<&BudgetClock>,
    ) -> Result<(Svr, SvrFitReport), TrainSvrError> {
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
                let improvement = optimize_pair_oracle(
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
                    let improvement = optimize_pair_oracle(
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
            Svr {
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

    /// The retry loop as it stood before continuation: every attempt
    /// restarts [`fit_oracle`] from `β = 0`.
    fn fit_with_retry_oracle(
        xs: &[Vec<f64>],
        ys: &[f64],
        params: &SvrParams,
        policy: &RetryPolicy,
        budget: &SolveBudget,
    ) -> Result<(Svr, SvrFitReport), TrainSvrError> {
        policy
            .validate()
            .map_err(|e| TrainSvrError::InvalidParams {
                detail: format!("retry policy: {e}"),
            })?;
        budget
            .validate()
            .map_err(|e| TrainSvrError::InvalidParams {
                detail: format!("solve budget: {e}"),
            })?;
        let clock = budget.start();
        let mut last = None;
        for attempt in 0..policy.max_attempts {
            let escalated = SvrParams {
                max_passes: policy.budget(params.max_passes, attempt),
                ..*params
            };
            let (model, mut report) = fit_oracle(xs, ys, &escalated, Some(&clock))?;
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

    /// The pair step as it stood before the row reads: g is updated from
    /// columns `i` and `j`, and the candidates live in a fresh `Vec`.
    #[allow(clippy::too_many_arguments)]
    fn optimize_pair_oracle(
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

    /// Fails the case unless two fits agree bit for bit: support vectors,
    /// betas, bias, kernel, scaler and the whole report.
    fn same_fit(
        got: &(Svr, SvrFitReport),
        expected: &(Svr, SvrFitReport),
        label: &str,
    ) -> Result<(), proptest::TestCaseError> {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ((model, report), (oracle, oracle_report)) = (got, expected);
        proptest::prop_assert!(
            report == oracle_report,
            "{label}: {report:?} vs {oracle_report:?}"
        );
        proptest::prop_assert!(bits(&model.betas) == bits(&oracle.betas), "{label}: betas");
        proptest::prop_assert!(
            model.bias.to_bits() == oracle.bias.to_bits(),
            "{label}: bias"
        );
        let vectors = |m: &Svr| {
            m.support_vectors
                .iter()
                .map(|v| bits(v))
                .collect::<Vec<_>>()
        };
        proptest::prop_assert!(
            vectors(model) == vectors(oracle),
            "{label}: support vectors"
        );
        proptest::prop_assert!(model.kernel == oracle.kernel, "{label}: kernel");
        proptest::prop_assert!(model.scaler == oracle.scaler, "{label}: scaler");
        Ok(())
    }

    /// The continued retry loop, the single fit (with and without a
    /// watchdog) and the row-reading pair step match the restarting,
    /// column-reading oracles bit for bit on 2,048 random fits. The draws
    /// cover both kernels with standardization on and off, n ∈ {1, 2, 3}
    /// (where the second partner collides) beside larger sets, repeated
    /// rows (zero curvature), growth 1.0 up to 3.0 over 1–5 attempts, a
    /// zero tolerance that never converges, and an iteration cap anywhere
    /// up to the last attempt's budget. The tallies check that fits
    /// converging in attempts 1, 2 and 3 and caps breaching inside a later
    /// attempt all occurred.
    #[test]
    fn fits_match_the_restarting_oracle() {
        use proptest::Strategy;
        let mut converged_in = [0usize; 4];
        let mut breached_late = 0usize;
        let mut exhausted_retried = 0usize;
        let mut equal_budgets = 0usize;
        let mut small_n = [0usize; 4];
        let mut kernel_scaling = [[0usize; 2]; 2];
        let config = proptest::ProptestConfig::with_cases(2048);
        proptest::run_proptest(&config, "fits_match_the_restarting_oracle", |rng| {
            let n = if (0_u8..3).sample(rng) == 0 {
                (1_usize..=3).sample(rng)
            } else {
                (4_usize..=14).sample(rng)
            };
            let dim = (1_usize..=3).sample(rng);
            let mut xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| (-3.0..3.0).sample(rng)).collect())
                .collect();
            if (0_u8..4).sample(rng) == 0 {
                for i in (1..n).step_by(2) {
                    xs[i] = xs[i - 1].clone();
                }
            }
            let ys: Vec<f64> = (0..n).map(|_| (-2.0..2.0).sample(rng)).collect();
            let rbf = true.sample(rng);
            let kernel = if rbf {
                Kernel::Rbf {
                    gamma: (0.1..3.0).sample(rng),
                }
            } else {
                Kernel::Linear
            };
            let tolerance = match (0_u8..6).sample(rng) {
                0 => 0.0,
                _ => 10_f64.powf((-9.0..-1.0).sample(rng)),
            };
            let params = SvrParams {
                c: (0.1..50.0).sample(rng),
                epsilon: (0.0..0.3).sample(rng),
                kernel,
                max_passes: (1_usize..=6).sample(rng),
                tolerance,
                standardize: true.sample(rng),
            };
            let policy = RetryPolicy {
                max_attempts: (1_usize..=5).sample(rng),
                iteration_growth: match (0_u8..4).sample(rng) {
                    0 => 1.0,
                    1 => 2.0,
                    _ => (1.0..=3.0).sample(rng),
                },
            };
            let last_budget = policy.budget(params.max_passes, policy.max_attempts - 1);
            let budget = SolveBudget {
                max_iterations: match (0_u8..3).sample(rng) {
                    0 => Some((1_usize..=last_budget).sample(rng)),
                    _ => None,
                },
                max_wall_secs: None,
            };
            let label = format!("n {n}, {params:?}, {policy:?}, {budget:?}");

            let expected = fit_with_retry_oracle(&xs, &ys, &params, &policy, &budget).unwrap();
            let got = Svr::fit_with_retry(&xs, &ys, &params, &policy, &budget).unwrap();
            same_fit(&got, &expected, &label)?;
            let clock = budget.start();
            same_fit(
                &Svr::fit(&xs, &ys, &params, Some(&clock)).unwrap(),
                &fit_oracle(&xs, &ys, &params, Some(&clock)).unwrap(),
                &label,
            )?;
            same_fit(
                &Svr::fit(&xs, &ys, &params, None).unwrap(),
                &fit_oracle(&xs, &ys, &params, None).unwrap(),
                &label,
            )?;

            let report = expected.1;
            if report.converged {
                converged_in[report.attempts.min(4) - 1] += 1;
            }
            if report.budget_breached && report.attempts > 1 {
                breached_late += 1;
            }
            if !report.converged && !report.budget_breached && report.attempts > 1 {
                exhausted_retried += 1;
            }
            if policy.iteration_growth == 1.0 && policy.max_attempts > 1 {
                equal_budgets += 1;
            }
            small_n[n.min(4) - 1] += 1;
            kernel_scaling[usize::from(rbf)][usize::from(params.standardize)] += 1;
            Ok(())
        });
        let tallies = format!(
            "converged in {converged_in:?}, breached late {breached_late}, exhausted \
             {exhausted_retried}, equal budgets {equal_budgets}, n {small_n:?}, \
             kernel × scaling {kernel_scaling:?}"
        );
        assert!(converged_in[..3].iter().all(|&c| c > 0), "{tallies}");
        assert!(breached_late > 0 && exhausted_retried > 0, "{tallies}");
        assert!(
            equal_budgets > 0 && small_n.iter().all(|&c| c > 0),
            "{tallies}"
        );
        assert!(kernel_scaling.iter().flatten().all(|&c| c > 0), "{tallies}");
    }
}
