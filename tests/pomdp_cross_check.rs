//! Cross-checks the detector's QMDP solver against point-based value
//! iteration (PBVI), the one independent oracle kept for this: the two
//! should agree where the problem is easy, and PBVI's value (a lower bound
//! on the optimum) should never exceed QMDP's (an upper bound).

use netmeter_sentinel::core::analytic_observation_matrix;
use netmeter_sentinel::pomdp::{Belief, PbviConfig, PbviPolicy, Pomdp, QmdpPolicy};

/// A detector-shaped POMDP: buckets of hacked meters drifting up by one
/// with probability `drift` under monitoring and resetting under fixing,
/// observed through `observation[true_bucket][observed_bucket]`.
fn detector_pomdp(drift: f64, observation: Vec<Vec<f64>>, damage: f64, labor: f64) -> Pomdp {
    let buckets = observation.len();
    let transition_monitor: Vec<Vec<f64>> = (0..buckets)
        .map(|s| {
            let mut row = vec![0.0; buckets];
            if s + 1 < buckets {
                row[s] = 1.0 - drift;
                row[s + 1] = drift;
            } else {
                row[s] = 1.0;
            }
            row
        })
        .collect();
    let transition_fix: Vec<Vec<f64>> = (0..buckets)
        .map(|_| {
            let mut row = vec![0.0; buckets];
            row[0] = 1.0;
            row
        })
        .collect();
    Pomdp::builder(buckets, 2, buckets)
        .transition(0, transition_monitor)
        .transition(1, transition_fix)
        .observation(0, observation.clone())
        .observation(1, observation)
        .reward_fn(move |a, s, _| -damage * s as f64 - if a == 1 { labor } else { 0.0 })
        .discount(0.9)
        .build()
        .expect("valid detector POMDP")
}

/// `accuracy` on the diagonal, the remainder spread over every other bucket.
fn uniform_confusion(buckets: usize, accuracy: f64) -> Vec<Vec<f64>> {
    (0..buckets)
        .map(|s| {
            let off = (1.0 - accuracy) / (buckets - 1) as f64;
            let mut row = vec![off; buckets];
            row[s] = accuracy;
            row
        })
        .collect()
}

/// The toy model the solvers have always been compared on.
fn toy_pomdp(drift: f64, accuracy: f64, labor: f64) -> Pomdp {
    detector_pomdp(drift, uniform_confusion(4, accuracy), 3.0, labor)
}

#[test]
fn all_solvers_agree_on_corner_beliefs() {
    let pomdp = toy_pomdp(0.25, 0.9, 4.0);
    let qmdp = QmdpPolicy::solve(&pomdp, 1e-10, 5000);
    let pbvi = PbviPolicy::solve(&pomdp, &PbviConfig::default());

    let clean = Belief::point(4, 0);
    let hacked = Belief::point(4, 3);
    for (name, action_clean, action_hacked) in [
        ("qmdp", qmdp.action(&clean), qmdp.action(&hacked)),
        ("pbvi", pbvi.action(&clean), pbvi.action(&hacked)),
    ] {
        assert_eq!(action_clean, 0, "{name} should monitor a clean fleet");
        assert_eq!(action_hacked, 1, "{name} should fix a saturated fleet");
    }
}

/// PBVI's lower bound stays under QMDP's upper bound on the uniform
/// belief, every corner and one belief skewed towards the top buckets.
fn assert_bracketed(pomdp: &Pomdp, pbvi_config: &PbviConfig) {
    let n = pomdp.states();
    let qmdp = QmdpPolicy::solve(pomdp, 1e-10, 5000);
    let pbvi = PbviPolicy::solve(pomdp, pbvi_config);
    let skewed = Belief::from_weights((0..n).map(|s| 0.1 + s as f64).collect());
    let beliefs = std::iter::once(Belief::uniform(n))
        .chain((0..n).map(|s| Belief::point(n, s)))
        .chain(std::iter::once(skewed));
    for belief in beliefs {
        let v_pbvi = pbvi.value(&belief);
        let v_qmdp = qmdp.value(&belief);
        assert!(
            v_pbvi <= v_qmdp + 1e-6,
            "pbvi {v_pbvi} should not exceed qmdp {v_qmdp} at {:?}",
            belief.as_slice()
        );
    }
}

#[test]
fn value_estimates_bracket_sensibly() {
    assert_bracketed(
        &toy_pomdp(0.3, 0.85, 5.0),
        &PbviConfig {
            iterations: 60,
            belief_points: 96,
            ..PbviConfig::default()
        },
    );
    // The shape `LongTermDetector::new` builds by default: six buckets,
    // drift 0.25, damage 4, labor 6, and the edge-spill confusion matrix.
    for accuracy in [0.9, 0.6] {
        let observation = analytic_observation_matrix(6, accuracy);
        assert_bracketed(
            &detector_pomdp(0.25, observation, 4.0, 6.0),
            &PbviConfig::default(),
        );
    }
}

#[test]
fn higher_labor_cost_makes_every_solver_lazier() {
    // With labor far above damage, fixing is never worth it at low beliefs.
    let cheap = toy_pomdp(0.2, 0.9, 1.0);
    let pricey = toy_pomdp(0.2, 0.9, 60.0);
    let belief = Belief::from_weights(vec![1.0, 1.0, 0.5, 0.25]);

    let actions = |pomdp: &Pomdp| -> [usize; 2] {
        [
            QmdpPolicy::solve(pomdp, 1e-10, 5000).action(&belief),
            PbviPolicy::solve(pomdp, &PbviConfig::default()).action(&belief),
        ]
    };
    // Cheap labor: everyone fixes early. Exorbitant labor: everyone keeps
    // monitoring.
    assert_eq!(actions(&cheap), [1, 1]);
    assert_eq!(actions(&pricey), [0, 0]);
}
