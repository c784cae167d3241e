//! Approximate POMDP solvers: QMDP, which the detector runs, and point-based
//! value iteration, the oracle the cross-check tests bracket QMDP with.

use crate::{Belief, Pomdp};

/// The QMDP approximation: solve the fully observable MDP, then score
/// actions by `Σ_s b(s) Q*(s, a)`.
///
/// QMDP is exact when uncertainty disappears after one step; it
/// under-values information-gathering actions but is fast and a standard
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct QmdpPolicy {
    /// `q[s][a]` of the underlying MDP.
    q: Vec<Vec<f64>>,
}

impl QmdpPolicy {
    /// Runs value iteration on the underlying MDP until the Bellman
    /// residual drops below `tolerance` or `max_iters` sweeps pass.
    pub fn solve(pomdp: &Pomdp, tolerance: f64, max_iters: usize) -> Self {
        let n = pomdp.states();
        let m = pomdp.actions();
        let mut v = vec![0.0_f64; n];
        for _ in 0..max_iters {
            let mut residual = 0.0_f64;
            let mut next_v = vec![0.0_f64; n];
            for s in 0..n {
                let mut best = f64::NEG_INFINITY;
                for a in 0..m {
                    let mut q = pomdp.expected_reward(s, a);
                    for (s2, &p) in pomdp.transition_row(s, a).iter().enumerate() {
                        if p > 0.0 {
                            q += pomdp.discount() * p * v[s2];
                        }
                    }
                    best = best.max(q);
                }
                next_v[s] = best;
                residual = residual.max((next_v[s] - v[s]).abs());
            }
            v = next_v;
            if residual < tolerance {
                break;
            }
        }
        // Final Q from the converged V.
        let q = (0..n)
            .map(|s| {
                (0..m)
                    .map(|a| {
                        let mut q = pomdp.expected_reward(s, a);
                        for (s2, &p) in pomdp.transition_row(s, a).iter().enumerate() {
                            if p > 0.0 {
                                q += pomdp.discount() * p * v[s2];
                            }
                        }
                        q
                    })
                    .collect()
            })
            .collect();
        Self { q }
    }

    /// The MDP action-value `Q*(s, a)`.
    #[inline]
    pub fn q(&self, state: usize, action: usize) -> f64 {
        self.q[state][action]
    }

    /// The action maximizing `Σ_s b(s) Q*(s, a)` under `belief`.
    pub fn action(&self, belief: &Belief) -> usize {
        let actions = self.q[0].len();
        (0..actions)
            .max_by(|&a, &b| {
                let qa = belief.expectation(|s| self.q[s][a]);
                let qb = belief.expectation(|s| self.q[s][b]);
                qa.partial_cmp(&qb).expect("finite Q values")
            })
            .expect("at least one action")
    }

    /// The QMDP value `max_a Σ_s b(s) Q*(s, a)`, an upper bound on the
    /// optimal value of `belief`.
    pub fn value(&self, belief: &Belief) -> f64 {
        let actions = self.q[0].len();
        (0..actions)
            .map(|a| belief.expectation(|s| self.q[s][a]))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Configuration for [`PbviPolicy::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbviConfig {
    /// Backup iterations (each improves the value function one step
    /// deeper).
    pub iterations: usize,
    /// Number of belief points kept (including the corners added first).
    pub belief_points: usize,
    /// Random-walk expansion depth used to populate the belief set.
    pub expansion_depth: usize,
    /// Seed for the deterministic belief-set expansion.
    pub seed: u64,
}

impl Default for PbviConfig {
    fn default() -> Self {
        Self {
            iterations: 40,
            belief_points: 64,
            expansion_depth: 12,
            seed: 0x5eed,
        }
    }
}

/// Point-based value iteration (Pineau et al. style): maintains one alpha
/// vector per belief point and performs exact Bellman backups at those
/// points.
#[derive(Debug, Clone, PartialEq)]
pub struct PbviPolicy {
    /// Alpha vectors (`alpha[i][s]`).
    alphas: Vec<Vec<f64>>,
    /// Greedy action associated with each alpha vector.
    actions: Vec<usize>,
}

impl PbviPolicy {
    /// Solves `pomdp` by PBVI over a deterministically expanded belief set.
    pub fn solve(pomdp: &Pomdp, config: &PbviConfig) -> Self {
        let beliefs = Self::expand_beliefs(pomdp, config);
        let n = pomdp.states();

        // Initialize with the "always worst immediate reward" lower bound.
        let r_min = (0..pomdp.actions())
            .flat_map(|a| (0..n).map(move |s| (a, s)))
            .map(|(a, s)| pomdp.expected_reward(s, a))
            .fold(f64::INFINITY, f64::min);
        let floor = r_min / (1.0 - pomdp.discount());
        let mut alphas = vec![vec![floor; n]];
        let mut actions = vec![0usize];

        for _ in 0..config.iterations {
            let mut new_alphas = Vec::with_capacity(beliefs.len());
            let mut new_actions = Vec::with_capacity(beliefs.len());
            for belief in &beliefs {
                let (alpha, action) = Self::backup(pomdp, belief, &alphas);
                new_alphas.push(alpha);
                new_actions.push(action);
            }
            // Deduplicate identical vectors to keep the set lean.
            let mut kept_alphas: Vec<Vec<f64>> = Vec::new();
            let mut kept_actions = Vec::new();
            for (alpha, action) in new_alphas.into_iter().zip(new_actions) {
                let duplicate = kept_alphas.iter().any(|existing: &Vec<f64>| {
                    existing
                        .iter()
                        .zip(&alpha)
                        .all(|(a, b)| (a - b).abs() < 1e-12)
                });
                if !duplicate {
                    kept_alphas.push(alpha);
                    kept_actions.push(action);
                }
            }
            alphas = kept_alphas;
            actions = kept_actions;
        }

        Self { alphas, actions }
    }

    /// The exact point backup at one belief.
    fn backup(pomdp: &Pomdp, belief: &Belief, alphas: &[Vec<f64>]) -> (Vec<f64>, usize) {
        let n = pomdp.states();
        let mut best: Option<(f64, Vec<f64>, usize)> = None;
        for a in 0..pomdp.actions() {
            // g_a(s) = R̄(s, a) + γ Σ_o [best alpha for (a, o)](s)
            let mut g: Vec<f64> = (0..n).map(|s| pomdp.expected_reward(s, a)).collect();
            for o in 0..pomdp.observations() {
                // For each alpha, compute g_{a,o}^α(s) = Σ_{s'} T Ω α(s').
                let mut best_vec: Option<(f64, Vec<f64>)> = None;
                for alpha in alphas {
                    let projected: Vec<f64> = (0..n)
                        .map(|s| {
                            pomdp
                                .transition_row(s, a)
                                .iter()
                                .enumerate()
                                .map(|(s2, &t)| t * pomdp.observation_prob(s2, a, o) * alpha[s2])
                                .sum()
                        })
                        .collect();
                    let score: f64 = belief
                        .as_slice()
                        .iter()
                        .zip(&projected)
                        .map(|(b, v)| b * v)
                        .sum();
                    if best_vec.as_ref().is_none_or(|(s, _)| score > *s) {
                        best_vec = Some((score, projected));
                    }
                }
                if let Some((_, projected)) = best_vec {
                    for s in 0..n {
                        g[s] += pomdp.discount() * projected[s];
                    }
                }
            }
            let score: f64 = belief.as_slice().iter().zip(&g).map(|(b, v)| b * v).sum();
            if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
                best = Some((score, g, a));
            }
        }
        let (_, alpha, action) = best.expect("at least one action");
        (alpha, action)
    }

    /// Deterministic belief-set expansion: corners, the uniform belief, and
    /// successors along a pseudorandom action/observation walk.
    fn expand_beliefs(pomdp: &Pomdp, config: &PbviConfig) -> Vec<Belief> {
        let n = pomdp.states();
        let mut beliefs = vec![Belief::uniform(n)];
        for s in 0..n.min(config.belief_points) {
            beliefs.push(Belief::point(n, s));
        }
        // Simple xorshift for reproducible expansion without pulling a full
        // RNG into the dependency graph of this hot path.
        let mut state = config.seed.max(1);
        let mut next_rand = move |modulus: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as usize) % modulus.max(1)
        };
        let mut frontier = beliefs.clone();
        while beliefs.len() < config.belief_points {
            let mut new_frontier = Vec::new();
            for belief in &frontier {
                for _ in 0..config.expansion_depth {
                    let a = next_rand(pomdp.actions());
                    let o = next_rand(pomdp.observations());
                    if let Some(updated) = belief.update(pomdp, a, o) {
                        new_frontier.push(updated);
                    }
                    if beliefs.len() + new_frontier.len() >= config.belief_points {
                        break;
                    }
                }
            }
            if new_frontier.is_empty() {
                break;
            }
            beliefs.extend(new_frontier.iter().cloned());
            frontier = new_frontier;
        }
        beliefs.truncate(config.belief_points);
        beliefs
    }

    /// The action of the alpha vector that scores `belief` highest.
    pub fn action(&self, belief: &Belief) -> usize {
        let mut best_score = f64::NEG_INFINITY;
        let mut best_action = 0;
        for (alpha, &action) in self.alphas.iter().zip(&self.actions) {
            let score: f64 = belief
                .as_slice()
                .iter()
                .zip(alpha)
                .map(|(b, v)| b * v)
                .sum();
            if score > best_score {
                best_score = score;
                best_action = action;
            }
        }
        best_action
    }

    /// The PBVI value `max_α b · α`, a lower bound on the optimal value of
    /// `belief`.
    pub fn value(&self, belief: &Belief) -> f64 {
        self.alphas
            .iter()
            .map(|alpha| {
                belief
                    .as_slice()
                    .iter()
                    .zip(alpha)
                    .map(|(b, v)| b * v)
                    .sum()
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smart-meter-flavored toy: state = hacked meters bucket {0, 1, 2},
    /// action 0 = monitor (state drifts up), action 1 = fix (reset, labor
    /// cost). Damage grows with the state.
    fn meter_pomdp(observation_accuracy: f64) -> Pomdp {
        let z = |s: usize| {
            let mut row = vec![
                (1.0 - observation_accuracy) / 2.0,
                (1.0 - observation_accuracy) / 2.0,
                (1.0 - observation_accuracy) / 2.0,
            ];
            row[s] = observation_accuracy + (1.0 - observation_accuracy) / 2.0 * 0.0;
            // Normalize: off-diagonal mass split over the other two states.
            let off = (1.0 - observation_accuracy) / 2.0;
            for (i, r) in row.iter_mut().enumerate() {
                *r = if i == s { observation_accuracy } else { off };
            }
            row
        };
        Pomdp::builder(3, 2, 3)
            .transition(
                0,
                vec![
                    vec![0.7, 0.3, 0.0],
                    vec![0.0, 0.7, 0.3],
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
            .observation(0, vec![z(0), z(1), z(2)])
            .observation(1, vec![z(0), z(1), z(2)])
            .reward_fn(|a, s, _| {
                let damage = -4.0 * s as f64;
                let labor = if a == 1 { -2.0 } else { 0.0 };
                damage + labor
            })
            .discount(0.9)
            .build()
            .unwrap()
    }

    #[test]
    fn qmdp_fixes_when_certainly_hacked() {
        let pomdp = meter_pomdp(0.9);
        let policy = QmdpPolicy::solve(&pomdp, 1e-10, 2000);
        assert_eq!(policy.action(&Belief::point(3, 2)), 1);
        assert_eq!(policy.action(&Belief::point(3, 0)), 0);
    }

    #[test]
    fn qmdp_q_values_ordered_sensibly() {
        let pomdp = meter_pomdp(0.9);
        let policy = QmdpPolicy::solve(&pomdp, 1e-10, 2000);
        // In the worst state, fixing dominates monitoring.
        assert!(policy.q(2, 1) > policy.q(2, 0));
        // In the clean state, monitoring dominates paying labor.
        assert!(policy.q(0, 0) > policy.q(0, 1));
    }

    #[test]
    fn qmdp_value_is_max_over_actions() {
        let pomdp = meter_pomdp(0.8);
        let policy = QmdpPolicy::solve(&pomdp, 1e-10, 2000);
        let b = Belief::uniform(3);
        let v = policy.value(&b);
        let q0 = b.expectation(|s| policy.q(s, 0));
        let q1 = b.expectation(|s| policy.q(s, 1));
        assert!((v - q0.max(q1)).abs() < 1e-12);
    }

    #[test]
    fn pbvi_agrees_with_qmdp_on_certain_beliefs() {
        let pomdp = meter_pomdp(0.9);
        let pbvi = PbviPolicy::solve(&pomdp, &PbviConfig::default());
        assert_eq!(pbvi.action(&Belief::point(3, 2)), 1);
        assert_eq!(pbvi.action(&Belief::point(3, 0)), 0);
        assert!(!pbvi.alphas.is_empty());
    }

    #[test]
    fn pbvi_value_dominates_floor() {
        let pomdp = meter_pomdp(0.85);
        let pbvi = PbviPolicy::solve(&pomdp, &PbviConfig::default());
        let floor = -6.0 / (1.0 - 0.9) - 1.0;
        for s in 0..3 {
            assert!(pbvi.value(&Belief::point(3, s)) > floor);
        }
    }

    #[test]
    fn pbvi_values_weakly_improve_with_iterations() {
        let pomdp = meter_pomdp(0.85);
        let shallow = PbviPolicy::solve(
            &pomdp,
            &PbviConfig {
                iterations: 2,
                ..PbviConfig::default()
            },
        );
        let deep = PbviPolicy::solve(
            &pomdp,
            &PbviConfig {
                iterations: 30,
                ..PbviConfig::default()
            },
        );
        let b = Belief::uniform(3);
        assert!(deep.value(&b) >= shallow.value(&b) - 1e-9);
    }

    #[test]
    fn noisier_observations_reduce_pbvi_value() {
        // With worse observations the controller wastes labor / misses
        // compromises, so the achievable value drops.
        let sharp = meter_pomdp(0.95);
        let blurry = meter_pomdp(0.45);
        let config = PbviConfig::default();
        let v_sharp = PbviPolicy::solve(&sharp, &config).value(&Belief::uniform(3));
        let v_blurry = PbviPolicy::solve(&blurry, &config).value(&Belief::uniform(3));
        assert!(
            v_sharp >= v_blurry - 1e-9,
            "sharp {v_sharp} vs blurry {v_blurry}"
        );
    }
}
