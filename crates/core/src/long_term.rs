//! POMDP-based long-term detection (§4.2).
//!
//! States are hacked-meter *buckets* (`s_i` = "about `i/K` of the fleet is
//! compromised"); observations are the PAR-excess buckets of
//! [`ParObservationMap`](crate::ParObservationMap); actions are `a_0` (keep
//! monitoring) and `a_1` (check & fix).
//! The transition model is a drift-up random walk under monitoring and a
//! reset under fixing; the observation model is either an analytic
//! confusion matrix or one measured on calibration days.

use serde::{Deserialize, Serialize};

use nms_pomdp::{Belief, Pomdp, QmdpPolicy};
use nms_types::ValidateError;

/// The two actions of the paper's POMDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorAction {
    /// `a_0`: ignore and continue monitoring.
    Monitor,
    /// `a_1`: check and fix the hacked smart meters (incurs labor cost).
    Fix,
}

impl DetectorAction {
    /// The POMDP action index.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Self::Monitor => 0,
            Self::Fix => 1,
        }
    }
}

/// The typed error for an out-of-range POMDP action index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidActionIndex(pub usize);

impl std::fmt::Display for InvalidActionIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "detector POMDP has two actions, got index {}", self.0)
    }
}

impl std::error::Error for InvalidActionIndex {}

impl TryFrom<usize> for DetectorAction {
    type Error = InvalidActionIndex;

    fn try_from(index: usize) -> Result<Self, Self::Error> {
        match index {
            0 => Ok(Self::Monitor),
            1 => Ok(Self::Fix),
            other => Err(InvalidActionIndex(other)),
        }
    }
}

/// Configuration of the long-term detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LongTermConfig {
    /// Number of hacked-meter buckets (states).
    pub buckets: usize,
    /// Per-slot probability that the compromise level climbs one bucket
    /// while monitoring.
    pub intrusion_drift: f64,
    /// Probability that the single-event observation lands on the true
    /// bucket (off-by-one buckets split the remainder). Used when no
    /// trained observation model is supplied.
    pub observation_accuracy: f64,
    /// Reward penalty per bucket level per slot (damage hacked meters do).
    pub damage_per_bucket: f64,
    /// Labor cost charged when playing [`DetectorAction::Fix`].
    pub labor_cost: f64,
    /// Discount factor.
    pub discount: f64,
}

impl LongTermConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] for out-of-range probabilities, fewer than
    /// two buckets, negative costs, or a discount outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.buckets < 2 {
            return Err(ValidateError::new("need at least two buckets"));
        }
        for (name, p) in [
            ("intrusion_drift", self.intrusion_drift),
            ("observation_accuracy", self.observation_accuracy),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(ValidateError::new(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        for (name, c) in [
            ("damage_per_bucket", self.damage_per_bucket),
            ("labor_cost", self.labor_cost),
        ] {
            if !c.is_finite() || c < 0.0 {
                return Err(ValidateError::new(format!(
                    "{name} must be finite and non-negative, got {c}"
                )));
            }
        }
        if !(0.0..1.0).contains(&self.discount) {
            return Err(ValidateError::new("discount must be in [0, 1)"));
        }
        Ok(())
    }
}

impl Default for LongTermConfig {
    fn default() -> Self {
        Self {
            buckets: 6,
            intrusion_drift: 0.25,
            observation_accuracy: 0.9,
            damage_per_bucket: 4.0,
            labor_cost: 6.0,
            discount: 0.9,
        }
    }
}

/// The stateful long-term detector: POMDP model + QMDP policy + tracked
/// belief.
pub struct LongTermDetector {
    pomdp: Pomdp,
    policy: QmdpPolicy,
    belief: Belief,
    config: LongTermConfig,
}

impl std::fmt::Debug for LongTermDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LongTermDetector")
            .field("config", &self.config)
            .field("belief", &self.belief)
            .finish_non_exhaustive()
    }
}

impl LongTermDetector {
    /// Builds the detector with the analytic observation confusion matrix
    /// derived from `config.observation_accuracy`.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] on an invalid configuration.
    pub fn new(config: LongTermConfig) -> Result<Self, ValidateError> {
        config.validate()?;
        let z = analytic_observation_matrix(config.buckets, config.observation_accuracy);
        Self::with_observation_matrix(config, z)
    }

    /// Builds the detector with a trained observation matrix
    /// `z[true_bucket][observed_bucket]` (e.g. the confusion matrix
    /// measured during calibration).
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] on an invalid configuration or a matrix
    /// the POMDP builder rejects.
    pub fn with_observation_matrix(
        config: LongTermConfig,
        z: Vec<Vec<f64>>,
    ) -> Result<Self, ValidateError> {
        config.validate()?;
        let k = config.buckets;
        let monitor_t = drift_transition(k, config.intrusion_drift);
        let fix_t = reset_transition(k);
        let pomdp = Pomdp::builder(k, 2, k)
            .transition(DetectorAction::Monitor.index(), monitor_t)
            .transition(DetectorAction::Fix.index(), fix_t)
            .observation(DetectorAction::Monitor.index(), z.clone())
            .observation(DetectorAction::Fix.index(), z)
            .reward_fn(|action, state, _| {
                let damage = -config.damage_per_bucket * state as f64;
                let labor = if action == DetectorAction::Fix.index() {
                    -config.labor_cost
                } else {
                    0.0
                };
                damage + labor
            })
            .discount(config.discount)
            .build()
            .map_err(|e| ValidateError::new(e.to_string()))?;
        let policy = QmdpPolicy::solve(&pomdp, 1e-9, 5000);
        Ok(Self {
            belief: Belief::point(k, 0),
            pomdp,
            policy,
            config,
        })
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &LongTermConfig {
        &self.config
    }

    /// The current belief over buckets.
    #[inline]
    pub fn belief(&self) -> &Belief {
        &self.belief
    }

    /// Resets the belief to "everything healthy" (after an out-of-band
    /// full fleet audit).
    pub fn reset(&mut self) {
        self.belief = Belief::point(self.pomdp.states(), 0);
    }

    /// Restores a previously captured belief (checkpoint resume): the
    /// probabilities must cover exactly the detector's buckets, be finite,
    /// non-negative, and sum to ~1.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the probabilities do not form a
    /// distribution over the detector's state space.
    pub fn restore_belief(&mut self, probabilities: &[f64]) -> Result<(), ValidateError> {
        if probabilities.len() != self.pomdp.states() {
            return Err(ValidateError::new(format!(
                "belief has {} entries for {} buckets",
                probabilities.len(),
                self.pomdp.states()
            )));
        }
        if probabilities.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(ValidateError::new(
                "belief probabilities must be finite and non-negative",
            ));
        }
        let total: f64 = probabilities.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(ValidateError::new(format!(
                "belief probabilities sum to {total}, expected 1"
            )));
        }
        self.belief = Belief::from_weights(probabilities.to_vec());
        Ok(())
    }

    /// Processes one slot: feeds the single-event `observation` (a bucket
    /// index) through the Bayes update, then asks the policy for the next
    /// action. When the policy fixes, the belief collapses to bucket 0
    /// through the reset transition on the following update.
    ///
    /// The action returned is the one the policy wants to execute *now*,
    /// based on the post-observation belief.
    ///
    /// # Panics
    ///
    /// Panics if `observation >= buckets`.
    pub fn observe_and_act(&mut self, observation: usize) -> DetectorAction {
        assert!(
            observation < self.pomdp.observations(),
            "observation {observation} out of {} buckets",
            self.pomdp.observations()
        );
        // The previous step's action is encoded in the belief already; the
        // per-slot cycle is: drift/reset happened, we now observe, update,
        // then act. Monitoring is the default dynamics for the update.
        let action = DetectorAction::Monitor.index();
        self.belief = self
            .belief
            .update(&self.pomdp, action, observation)
            .unwrap_or_else(|| self.belief.predict(&self.pomdp, action));
        let chosen = DetectorAction::try_from(self.policy.action(&self.belief))
            .expect("POMDP policies only emit the two detector actions");
        if chosen == DetectorAction::Fix {
            // Executing the fix resets the world; mirror it in the belief.
            self.belief = self
                .belief
                .predict(&self.pomdp, DetectorAction::Fix.index());
        }
        chosen
    }
}

/// Drift-up random walk: stay with `1 − p`, climb one bucket with `p`
/// (absorbing at the top).
fn drift_transition(buckets: usize, p: f64) -> Vec<Vec<f64>> {
    (0..buckets)
        .map(|s| {
            let mut row = vec![0.0; buckets];
            if s + 1 < buckets {
                row[s] = 1.0 - p;
                row[s + 1] = p;
            } else {
                row[s] = 1.0;
            }
            row
        })
        .collect()
}

/// Fixing resets every bucket to zero.
fn reset_transition(buckets: usize) -> Vec<Vec<f64>> {
    (0..buckets)
        .map(|_| {
            let mut row = vec![0.0; buckets];
            row[0] = 1.0;
            row
        })
        .collect()
}

/// Confusion matrix with `accuracy` on the diagonal and the remainder split
/// between the adjacent buckets (or piled on the single neighbor at the
/// edges). Used directly by [`LongTermDetector::new`] and as the shrinkage
/// prior when an empirical matrix is estimated from few samples.
pub fn analytic_observation_matrix(buckets: usize, accuracy: f64) -> Vec<Vec<f64>> {
    (0..buckets)
        .map(|s| {
            let mut row = vec![0.0; buckets];
            row[s] = accuracy;
            let spill = 1.0 - accuracy;
            match (s > 0, s + 1 < buckets) {
                (true, true) => {
                    row[s - 1] += spill / 2.0;
                    row[s + 1] += spill / 2.0;
                }
                (true, false) => row[s - 1] += spill,
                (false, true) => row[s + 1] += spill,
                (false, false) => row[s] = 1.0,
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(LongTermConfig::default().validate().is_ok());
        assert!(LongTermConfig {
            buckets: 1,
            ..LongTermConfig::default()
        }
        .validate()
        .is_err());
        assert!(LongTermConfig {
            intrusion_drift: 1.5,
            ..LongTermConfig::default()
        }
        .validate()
        .is_err());
        assert!(LongTermConfig {
            labor_cost: -1.0,
            ..LongTermConfig::default()
        }
        .validate()
        .is_err());
        assert!(LongTermConfig {
            discount: 1.0,
            ..LongTermConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn analytic_matrix_rows_are_distributions() {
        for buckets in [2, 5, 11] {
            for accuracy in [0.5, 0.9, 1.0] {
                let z = analytic_observation_matrix(buckets, accuracy);
                for row in &z {
                    let total: f64 = row.iter().sum();
                    assert!(
                        (total - 1.0).abs() < 1e-9,
                        "buckets {buckets} acc {accuracy}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_high_observations_trigger_fix() {
        let mut detector = LongTermDetector::new(LongTermConfig::default()).unwrap();
        let top = detector.config().buckets - 1;
        let mut fixed = false;
        for _ in 0..10 {
            if detector.observe_and_act(top) == DetectorAction::Fix {
                fixed = true;
                break;
            }
        }
        assert!(
            fixed,
            "detector never fixed under max-severity observations"
        );
        // After the fix the belief should be concentrated low again.
        assert_eq!(detector.belief().argmax(), 0);
    }

    #[test]
    fn healthy_observations_keep_monitoring() {
        let mut detector = LongTermDetector::new(LongTermConfig::default()).unwrap();
        for _ in 0..20 {
            assert_eq!(detector.observe_and_act(0), DetectorAction::Monitor);
        }
        assert_eq!(detector.belief().argmax(), 0);
    }

    #[test]
    fn noisier_observations_delay_fixes() {
        let sharp_config = LongTermConfig {
            observation_accuracy: 0.95,
            ..LongTermConfig::default()
        };
        let blurry_config = LongTermConfig {
            observation_accuracy: 0.4,
            ..LongTermConfig::default()
        };
        let steps_to_fix = |config: LongTermConfig| {
            let mut detector = LongTermDetector::new(config).unwrap();
            let top = detector.config().buckets - 1;
            for step in 0..50 {
                if detector.observe_and_act(top) == DetectorAction::Fix {
                    return step;
                }
            }
            50
        };
        assert!(steps_to_fix(sharp_config) <= steps_to_fix(blurry_config));
    }

    #[test]
    fn trained_observation_matrix_accepted() {
        let k = LongTermConfig::default().buckets;
        let z = analytic_observation_matrix(k, 0.7);
        let detector =
            LongTermDetector::with_observation_matrix(LongTermConfig::default(), z).unwrap();
        assert_eq!(detector.belief().len(), k);
    }

    #[test]
    fn reset_restores_clean_belief() {
        let mut detector = LongTermDetector::new(LongTermConfig::default()).unwrap();
        let top = detector.config().buckets - 1;
        detector.observe_and_act(top);
        detector.reset();
        assert_eq!(detector.belief().argmax(), 0);
        assert!((detector.belief().prob(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn action_index_round_trip() {
        assert_eq!(DetectorAction::try_from(0), Ok(DetectorAction::Monitor));
        assert_eq!(DetectorAction::try_from(1), Ok(DetectorAction::Fix));
        assert_eq!(DetectorAction::Fix.index(), 1);
    }

    #[test]
    fn bad_action_index_is_a_typed_error() {
        let err = DetectorAction::try_from(2).unwrap_err();
        assert_eq!(err, InvalidActionIndex(2));
        assert!(err.to_string().contains("two actions"), "{err}");
    }

    #[test]
    fn belief_restores_from_checkpoint_probabilities() {
        let mut detector = LongTermDetector::new(LongTermConfig::default()).unwrap();
        let buckets = detector.config().buckets;
        let mut probabilities = vec![0.0; buckets];
        probabilities[1] = 0.75;
        probabilities[0] = 0.25;
        detector.restore_belief(&probabilities).unwrap();
        assert_eq!(detector.belief().argmax(), 1);
        assert!((detector.belief().prob(1) - 0.75).abs() < 1e-12);

        // Wrong length, bad values, and a non-distribution all error.
        assert!(detector.restore_belief(&[1.0]).is_err());
        let mut bad = vec![0.0; buckets];
        bad[0] = f64::NAN;
        assert!(detector.restore_belief(&bad).is_err());
        let mut unnormalized = vec![0.0; buckets];
        unnormalized[0] = 0.4;
        assert!(detector.restore_belief(&unnormalized).is_err());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_observation_panics() {
        let mut detector = LongTermDetector::new(LongTermConfig::default()).unwrap();
        let _ = detector.observe_and_act(99);
    }
}
