//! The validated POMDP model `⟨S, O, A, T, R, Ω⟩`.

use std::error::Error;
use std::fmt;

/// Why a [`PomdpBuilder`] rejected a model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildPomdpError {
    /// A tensor has the wrong shape.
    Shape {
        /// Human-readable detail.
        detail: String,
    },
    /// A probability row does not sum to one (tolerance `1e-6`) or contains
    /// values outside `[0, 1]`.
    NotADistribution {
        /// Human-readable detail.
        detail: String,
    },
    /// Transition/observation rows were not provided for every action.
    Missing {
        /// Human-readable detail.
        detail: String,
    },
    /// The discount is outside `[0, 1)`.
    BadDiscount {
        /// Supplied discount.
        discount: f64,
    },
}

impl fmt::Display for BuildPomdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shape { detail } => write!(f, "shape error: {detail}"),
            Self::NotADistribution { detail } => write!(f, "not a distribution: {detail}"),
            Self::Missing { detail } => write!(f, "missing model component: {detail}"),
            Self::BadDiscount { discount } => {
                write!(f, "discount {discount} outside [0, 1)")
            }
        }
    }
}

impl Error for BuildPomdpError {}

/// A finite POMDP with dense tensors.
///
/// * `T(s' | s, a)` — transition probability;
/// * `Ω(o | s', a)` — observation probability conditioned on the *arrival*
///   state (the convention of \[4\]);
/// * `R(s, a, s')` — immediate reward.
#[derive(Debug, Clone, PartialEq)]
pub struct Pomdp {
    states: usize,
    actions: usize,
    observations: usize,
    /// `transition[a][s][s']`.
    transition: Vec<Vec<Vec<f64>>>,
    /// `observation[a][s'][o]`.
    observation: Vec<Vec<Vec<f64>>>,
    /// `reward[a][s][s']`.
    reward: Vec<Vec<Vec<f64>>>,
    discount: f64,
}

impl Pomdp {
    /// Starts building a model with the given cardinalities.
    pub fn builder(states: usize, actions: usize, observations: usize) -> PomdpBuilder {
        PomdpBuilder {
            states,
            actions,
            observations,
            transition: vec![None; actions],
            observation: vec![None; actions],
            reward: None,
            discount: 0.95,
        }
    }

    /// Number of states `|S|`.
    #[inline]
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of actions `|A|`.
    #[inline]
    pub fn actions(&self) -> usize {
        self.actions
    }

    /// Number of observations `|O|`.
    #[inline]
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Discount factor `γ`.
    #[inline]
    pub fn discount(&self) -> f64 {
        self.discount
    }

    /// `T(s' | s, a)`.
    #[inline]
    pub fn transition_prob(&self, state: usize, action: usize, next: usize) -> f64 {
        self.transition[action][state][next]
    }

    /// `Ω(o | s', a)`.
    #[inline]
    pub fn observation_prob(&self, next: usize, action: usize, observation: usize) -> f64 {
        self.observation[action][next][observation]
    }

    /// Expected immediate reward `R̄(s, a) = Σ_{s'} T(s'|s,a) R(s,a,s')`.
    pub fn expected_reward(&self, state: usize, action: usize) -> f64 {
        (0..self.states)
            .map(|next| self.transition[action][state][next] * self.reward[action][state][next])
            .sum()
    }

    /// The transition row `T(· | s, a)`.
    #[inline]
    pub fn transition_row(&self, state: usize, action: usize) -> &[f64] {
        &self.transition[action][state]
    }
}

/// Builder for [`Pomdp`]; see [`Pomdp::builder`].
#[derive(Debug, Clone)]
pub struct PomdpBuilder {
    states: usize,
    actions: usize,
    observations: usize,
    transition: Vec<Option<Vec<Vec<f64>>>>,
    observation: Vec<Option<Vec<Vec<f64>>>>,
    reward: Option<Vec<Vec<Vec<f64>>>>,
    discount: f64,
}

impl PomdpBuilder {
    /// Sets the transition matrix `T[s][s']` for one action.
    pub fn transition(mut self, action: usize, matrix: Vec<Vec<f64>>) -> Self {
        self.transition[action] = Some(matrix);
        self
    }

    /// Sets the observation matrix `Ω[s'][o]` for one action.
    pub fn observation(mut self, action: usize, matrix: Vec<Vec<f64>>) -> Self {
        self.observation[action] = Some(matrix);
        self
    }

    /// Sets the reward via a function `R(a, s, s')` evaluated densely.
    pub fn reward_fn(mut self, f: impl Fn(usize, usize, usize) -> f64) -> Self {
        let tensor = (0..self.actions)
            .map(|a| {
                (0..self.states)
                    .map(|s| (0..self.states).map(|s2| f(a, s, s2)).collect())
                    .collect()
            })
            .collect();
        self.reward = Some(tensor);
        self
    }

    /// Sets the discount factor (default 0.95).
    pub fn discount(mut self, discount: f64) -> Self {
        self.discount = discount;
        self
    }

    /// Validates and builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPomdpError`] when components are missing, have the
    /// wrong shape, rows are not probability distributions, rewards are
    /// non-finite, or the discount is outside `[0, 1)`.
    pub fn build(self) -> Result<Pomdp, BuildPomdpError> {
        if self.states == 0 || self.actions == 0 || self.observations == 0 {
            return Err(BuildPomdpError::Shape {
                detail: "states, actions, and observations must all be positive".into(),
            });
        }
        if !(0.0..1.0).contains(&self.discount) || !self.discount.is_finite() {
            return Err(BuildPomdpError::BadDiscount {
                discount: self.discount,
            });
        }
        let mut transition = Vec::with_capacity(self.actions);
        for (a, t) in self.transition.into_iter().enumerate() {
            let t = t.ok_or_else(|| BuildPomdpError::Missing {
                detail: format!("transition matrix for action {a}"),
            })?;
            check_stochastic(&t, self.states, self.states, &format!("T[a={a}]"))?;
            transition.push(t);
        }
        let mut observation = Vec::with_capacity(self.actions);
        for (a, z) in self.observation.into_iter().enumerate() {
            let z = z.ok_or_else(|| BuildPomdpError::Missing {
                detail: format!("observation matrix for action {a}"),
            })?;
            check_stochastic(&z, self.states, self.observations, &format!("Ω[a={a}]"))?;
            observation.push(z);
        }
        let reward = self.reward.ok_or_else(|| BuildPomdpError::Missing {
            detail: "reward tensor".into(),
        })?;
        for plane in &reward {
            for row in plane {
                for &r in row {
                    if !r.is_finite() {
                        return Err(BuildPomdpError::Shape {
                            detail: "reward tensor contains non-finite values".into(),
                        });
                    }
                }
            }
        }
        Ok(Pomdp {
            states: self.states,
            actions: self.actions,
            observations: self.observations,
            transition,
            observation,
            reward,
            discount: self.discount,
        })
    }
}

fn check_stochastic(
    matrix: &[Vec<f64>],
    rows: usize,
    cols: usize,
    name: &str,
) -> Result<(), BuildPomdpError> {
    if matrix.len() != rows {
        return Err(BuildPomdpError::Shape {
            detail: format!("{name} has {} rows, expected {rows}", matrix.len()),
        });
    }
    for (i, row) in matrix.iter().enumerate() {
        if row.len() != cols {
            return Err(BuildPomdpError::Shape {
                detail: format!("{name} row {i} has {} entries, expected {cols}", row.len()),
            });
        }
        let mut sum = 0.0;
        for &p in row {
            if !(0.0..=1.0 + 1e-9).contains(&p) || !p.is_finite() {
                return Err(BuildPomdpError::NotADistribution {
                    detail: format!("{name} row {i} has entry {p}"),
                });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(BuildPomdpError::NotADistribution {
                detail: format!("{name} row {i} sums to {sum}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Pomdp {
        Pomdp::builder(2, 2, 2)
            .transition(0, vec![vec![0.9, 0.1], vec![0.0, 1.0]])
            .transition(1, vec![vec![1.0, 0.0], vec![1.0, 0.0]])
            .observation(0, vec![vec![0.8, 0.2], vec![0.3, 0.7]])
            .observation(1, vec![vec![0.8, 0.2], vec![0.3, 0.7]])
            .reward_fn(|a, s, _| if s == 1 { -10.0 } else { 0.0 } - a as f64)
            .discount(0.9)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_exposes_model() {
        let p = tiny();
        assert_eq!(p.states(), 2);
        assert_eq!(p.actions(), 2);
        assert_eq!(p.observations(), 2);
        assert_eq!(p.transition_prob(0, 0, 1), 0.1);
        assert_eq!(p.observation_prob(1, 0, 1), 0.7);
        assert_eq!(p.reward[1][1][0], -11.0);
        assert!((p.discount() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn expected_reward_marginalizes_transitions() {
        let p = tiny();
        // From s=0, a=0: 0.9·0 + 0.1·0 = 0 (reward depends only on s here).
        assert_eq!(p.expected_reward(0, 0), 0.0);
        assert_eq!(p.expected_reward(1, 0), -10.0);
        assert_eq!(p.expected_reward(1, 1), -11.0);
    }

    #[test]
    fn rejects_bad_rows() {
        let result = Pomdp::builder(2, 1, 2)
            .transition(0, vec![vec![0.5, 0.6], vec![0.0, 1.0]])
            .observation(0, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .reward_fn(|_, _, _| 0.0)
            .build();
        assert!(matches!(
            result,
            Err(BuildPomdpError::NotADistribution { .. })
        ));
    }

    #[test]
    fn rejects_missing_components() {
        let result = Pomdp::builder(2, 1, 2)
            .observation(0, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .reward_fn(|_, _, _| 0.0)
            .build();
        assert!(matches!(result, Err(BuildPomdpError::Missing { .. })));
        let result = Pomdp::builder(2, 1, 2)
            .transition(0, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .observation(0, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .build();
        assert!(matches!(result, Err(BuildPomdpError::Missing { .. })));
    }

    #[test]
    fn rejects_bad_shapes_and_discount() {
        let result = Pomdp::builder(2, 1, 2)
            .transition(0, vec![vec![1.0, 0.0]])
            .observation(0, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .reward_fn(|_, _, _| 0.0)
            .build();
        assert!(matches!(result, Err(BuildPomdpError::Shape { .. })));

        let result = Pomdp::builder(2, 1, 2)
            .transition(0, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .observation(0, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .reward_fn(|_, _, _| 0.0)
            .discount(1.0)
            .build();
        assert!(matches!(result, Err(BuildPomdpError::BadDiscount { .. })));
    }

    #[test]
    fn rejects_non_finite_reward() {
        let result = Pomdp::builder(2, 1, 2)
            .transition(0, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .observation(0, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .reward_fn(|_, _, _| f64::NAN)
            .build();
        assert!(matches!(result, Err(BuildPomdpError::Shape { .. })));
    }

    #[test]
    fn error_display() {
        let err = BuildPomdpError::BadDiscount { discount: 1.5 };
        assert!(err.to_string().contains("1.5"));
    }
}
