//! Bayesian belief states over the POMDP's hidden state.

use crate::Pomdp;

/// A probability distribution over states ("the decision maker needs to
/// estimate the state from the observation", §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Belief {
    probabilities: Vec<f64>,
}

impl Belief {
    /// The uniform belief over `states` states.
    ///
    /// # Panics
    ///
    /// Panics if `states` is zero.
    pub fn uniform(states: usize) -> Self {
        assert!(states > 0, "belief needs at least one state");
        Self {
            probabilities: vec![1.0 / states as f64; states],
        }
    }

    /// A belief fully concentrated on one state.
    ///
    /// # Panics
    ///
    /// Panics if `state >= states` or `states` is zero.
    pub fn point(states: usize, state: usize) -> Self {
        assert!(states > 0, "belief needs at least one state");
        assert!(state < states, "state {state} out of {states}");
        let mut probabilities = vec![0.0; states];
        probabilities[state] = 1.0;
        Self { probabilities }
    }

    /// Builds a belief from raw weights, normalizing them.
    ///
    /// # Panics
    ///
    /// Panics if weights are empty, negative, non-finite, or all zero.
    pub fn from_weights(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "belief needs at least one state");
        let total: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && total > 0.0,
            "weights must be non-negative with positive total"
        );
        Self {
            probabilities: weights.into_iter().map(|w| w / total).collect(),
        }
    }

    /// Number of states.
    #[inline]
    pub fn len(&self) -> usize {
        self.probabilities.len()
    }

    /// Always `false`: constructors reject empty beliefs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The per-state probabilities.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.probabilities
    }

    /// Probability of `state`.
    #[inline]
    pub fn prob(&self, state: usize) -> f64 {
        self.probabilities[state]
    }

    /// The most likely state (first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (s, &p) in self.probabilities.iter().enumerate() {
            if p > self.probabilities[best] {
                best = s;
            }
        }
        best
    }

    /// Expected value of a per-state function under the belief.
    pub fn expectation(&self, f: impl Fn(usize) -> f64) -> f64 {
        self.probabilities
            .iter()
            .enumerate()
            .map(|(s, &p)| p * f(s))
            .sum()
    }

    /// The Bayes update after taking `action` and observing `observation`:
    ///
    /// ```text
    /// b'(s') ∝ Ω(o | s', a) Σ_s T(s' | s, a) b(s)
    /// ```
    ///
    /// Returns `None` when the observation has zero probability under the
    /// predicted belief (model/observation mismatch) — callers typically
    /// fall back to the predicted (pre-observation) belief.
    pub fn update(&self, pomdp: &Pomdp, action: usize, observation: usize) -> Option<Belief> {
        let n = self.len();
        debug_assert_eq!(n, pomdp.states(), "belief/model state count");
        let mut posterior = vec![0.0; n];
        for (next, cell) in posterior.iter_mut().enumerate() {
            let mut predicted = 0.0;
            for (state, &p) in self.probabilities.iter().enumerate() {
                if p > 0.0 {
                    predicted += p * pomdp.transition_prob(state, action, next);
                }
            }
            *cell = predicted * pomdp.observation_prob(next, action, observation);
        }
        let total: f64 = posterior.iter().sum();
        if total <= 1e-300 {
            return None;
        }
        for p in &mut posterior {
            *p /= total;
        }
        Some(Belief {
            probabilities: posterior,
        })
    }

    /// The predicted belief after taking `action` but before observing
    /// (the marginal over observations).
    pub fn predict(&self, pomdp: &Pomdp, action: usize) -> Belief {
        let n = self.len();
        let mut predicted = vec![0.0; n];
        for (next, cell) in predicted.iter_mut().enumerate() {
            for (state, &p) in self.probabilities.iter().enumerate() {
                *cell += p * pomdp.transition_prob(state, action, next);
            }
        }
        Belief {
            probabilities: predicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn noisy_chain() -> Pomdp {
        // 3 states marching right under action 0; resetting under action 1.
        Pomdp::builder(3, 2, 3)
            .transition(
                0,
                vec![
                    vec![0.5, 0.5, 0.0],
                    vec![0.0, 0.5, 0.5],
                    vec![0.0, 0.0, 1.0],
                ],
            )
            .transition(
                1,
                vec![
                    vec![1.0, 0.0, 0.0],
                    vec![1.0, 0.0, 0.0],
                    vec![1.0, 0.0, 0.0],
                ],
            )
            .observation(
                0,
                vec![
                    vec![0.8, 0.1, 0.1],
                    vec![0.1, 0.8, 0.1],
                    vec![0.1, 0.1, 0.8],
                ],
            )
            .observation(
                1,
                vec![
                    vec![0.8, 0.1, 0.1],
                    vec![0.1, 0.8, 0.1],
                    vec![0.1, 0.1, 0.8],
                ],
            )
            .reward_fn(|_, s, _| -(s as f64))
            .build()
            .unwrap()
    }

    #[test]
    fn constructors() {
        let u = Belief::uniform(4);
        assert!(u.as_slice().iter().all(|&p| (p - 0.25).abs() < 1e-12));
        let p = Belief::point(3, 2);
        assert_eq!(p.prob(2), 1.0);
        assert_eq!(p.argmax(), 2);
        let w = Belief::from_weights(vec![1.0, 3.0]);
        assert!((w.prob(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn zero_weights_panic() {
        let _ = Belief::from_weights(vec![0.0, 0.0]);
    }

    #[test]
    fn update_sharpens_on_consistent_observations() {
        let pomdp = noisy_chain();
        let mut belief = Belief::uniform(3);
        // Repeatedly observe "2" under the drifting action: belief should
        // concentrate on state 2.
        for _ in 0..6 {
            belief = belief.update(&pomdp, 0, 2).unwrap();
        }
        assert_eq!(belief.argmax(), 2);
        assert!(belief.prob(2) > 0.9);
    }

    #[test]
    fn reset_action_returns_to_state_zero() {
        let pomdp = noisy_chain();
        let belief = Belief::point(3, 2);
        let predicted = belief.predict(&pomdp, 1);
        assert!((predicted.prob(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn impossible_observation_returns_none() {
        // Deterministic observation model where state 0 always emits 0.
        let pomdp = Pomdp::builder(1, 1, 2)
            .transition(0, vec![vec![1.0]])
            .observation(0, vec![vec![1.0, 0.0]])
            .reward_fn(|_, _, _| 0.0)
            .build()
            .unwrap();
        let belief = Belief::point(1, 0);
        assert!(belief.update(&pomdp, 0, 1).is_none());
        assert!(belief.update(&pomdp, 0, 0).is_some());
    }

    #[test]
    fn expectation_weights_by_probability() {
        let belief = Belief::from_weights(vec![1.0, 1.0, 2.0]);
        let expected = belief.expectation(|s| s as f64);
        assert!((expected - (0.25 * 0.0 + 0.25 * 1.0 + 0.5 * 2.0)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_update_preserves_simplex(
            weights in proptest::collection::vec(0.01_f64..1.0, 3),
            obs in 0_usize..3,
        ) {
            let pomdp = noisy_chain();
            let belief = Belief::from_weights(weights);
            if let Some(updated) = belief.update(&pomdp, 0, obs) {
                let total: f64 = updated.as_slice().iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
                prop_assert!(updated.as_slice().iter().all(|&p| p >= 0.0));
            }
        }
    }
}
