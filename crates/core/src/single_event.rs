//! SVR-based single-event detection (§4.1): compare the PAR the community
//! would exhibit under the *received* guideline price against the PAR under
//! the *predicted* price, and flag when the excess passes a threshold.

use nms_obs::NoopRecorder;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use nms_pricing::PriceSignal;
use nms_smarthome::Community;
use nms_solver::SolverError;
use nms_types::ValidateError;

use crate::LoadPredictor;

/// Result of one single-event detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleEventOutcome {
    /// PAR simulated under the predicted guideline price (`P_p`).
    pub predicted_par: f64,
    /// PAR simulated under the received guideline price (`P_r`).
    pub received_par: f64,
    /// `true` when `P_r − P_p > δ_P`.
    pub attack_detected: bool,
    /// The raw detection statistic `P_r − P_p`.
    pub par_excess: f64,
}

/// The single-event detector of §4.1.
///
/// Both PARs are *simulated* with the detector's own world model (the
/// [`LoadPredictor`]), which is exactly where ignoring net metering hurts:
/// a biased world model inflates the no-attack baseline and masks
/// attack-induced excesses.
#[derive(Debug, Clone, Copy)]
pub struct SingleEventDetector {
    predictor: LoadPredictor,
    threshold: f64,
}

impl SingleEventDetector {
    /// Creates a detector with PAR threshold `δ_P`.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the threshold is negative or
    /// non-finite.
    pub fn new(predictor: LoadPredictor, threshold: f64) -> Result<Self, ValidateError> {
        if !threshold.is_finite() || threshold < 0.0 {
            return Err(ValidateError::new(format!(
                "PAR threshold must be finite and non-negative, got {threshold}"
            )));
        }
        Ok(Self {
            predictor,
            threshold,
        })
    }

    /// The world model in use.
    #[inline]
    pub fn predictor(&self) -> &LoadPredictor {
        &self.predictor
    }

    /// The PAR threshold `δ_P`.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Runs the §4.1 procedure: simulate scheduling under both prices,
    /// compare PARs.
    ///
    /// Both simulations run from the *same* derived seed (common random
    /// numbers), so identical prices produce identical PARs and the excess
    /// statistic carries no stochastic-solver noise.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError`] when either simulation fails.
    pub fn detect(
        &self,
        community: &Community,
        predicted_price: &PriceSignal,
        received_price: &PriceSignal,
        rng: &mut impl Rng,
    ) -> Result<SingleEventOutcome, SolverError> {
        let seed: u64 = rng.gen();
        let mut rng_predicted = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut rng_received = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let predicted = self.predictor.predict(
            community,
            predicted_price,
            &mut rng_predicted,
            &NoopRecorder,
        )?;
        let received =
            self.predictor
                .predict(community, received_price, &mut rng_received, &NoopRecorder)?;
        let par_excess = received.par - predicted.par;
        Ok(SingleEventOutcome {
            predicted_par: predicted.par,
            received_par: received.par,
            attack_detected: par_excess > self.threshold,
            par_excess,
        })
    }
}

/// Maps a PAR excess to an observed hacked-meter *bucket* for the POMDP.
///
/// The map is calibrated from reference points `(par_excess, bucket)`
/// measured by simulating known compromise levels with the detector's own
/// world model; observation is nearest-bucket on the excess axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParObservationMap {
    /// Monotone per-bucket centroids of the PAR excess.
    centroids: Vec<f64>,
}

impl ParObservationMap {
    /// Builds the map from per-bucket centroid excesses (index = bucket).
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when fewer than two buckets are given or
    /// centroids are not strictly increasing.
    pub fn from_centroids(centroids: Vec<f64>) -> Result<Self, ValidateError> {
        if centroids.len() < 2 {
            return Err(ValidateError::new("need at least two buckets"));
        }
        if centroids.iter().any(|c| !c.is_finite()) {
            return Err(ValidateError::new("centroids must be finite"));
        }
        if centroids.windows(2).any(|w| w[1] <= w[0]) {
            return Err(ValidateError::new(
                "centroids must be strictly increasing in the hacked count",
            ));
        }
        Ok(Self { centroids })
    }

    /// Number of buckets.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.centroids.len()
    }

    /// The calibrated centroids.
    #[inline]
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }

    /// The observed bucket for a measured PAR excess (nearest centroid).
    pub fn observe(&self, par_excess: f64) -> usize {
        let mut best = 0;
        let mut best_distance = f64::INFINITY;
        for (bucket, &centroid) in self.centroids.iter().enumerate() {
            let distance = (par_excess - centroid).abs();
            if distance < best_distance {
                best_distance = distance;
                best = bucket;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_pricing::NetMeteringTariff;
    use nms_smarthome::{
        clear_sky_profile, Appliance, ApplianceKind, Battery, Customer, PowerLevels, PvPanel,
        TaskSpec,
    };
    use nms_solver::GameConfig;
    use nms_types::{ApplianceId, CustomerId, Horizon, Kw, Kwh};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    fn community(n: usize) -> Community {
        let customers: Vec<Customer> = (0..n)
            .map(|i| {
                Customer::builder(CustomerId::new(i), day())
                    .appliance(Appliance::new(
                        ApplianceId::new(0),
                        ApplianceKind::WaterHeater,
                        PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                        TaskSpec::new(Kwh::new(3.0), 0, 23).unwrap(),
                    ))
                    .battery(Battery::new(Kwh::new(2.0), Kwh::ZERO).unwrap())
                    .pv(PvPanel::new(Kw::new(2.0), clear_sky_profile(day(), Kw::new(2.0))).unwrap())
                    .build()
                    .unwrap()
            })
            .collect();
        Community::new(day(), customers).unwrap()
    }

    fn detector() -> SingleEventDetector {
        SingleEventDetector::new(
            LoadPredictor::net_metering_aware(NetMeteringTariff::default(), GameConfig::fast()),
            0.1,
        )
        .unwrap()
    }

    #[test]
    fn threshold_validation() {
        let predictor =
            LoadPredictor::net_metering_aware(NetMeteringTariff::default(), GameConfig::fast());
        assert!(SingleEventDetector::new(predictor, -0.1).is_err());
        assert!(SingleEventDetector::new(predictor, f64::NAN).is_err());
        assert!(SingleEventDetector::new(predictor, 0.0).is_ok());
    }

    #[test]
    fn no_attack_yields_no_detection() {
        let community = community(3);
        let price = PriceSignal::time_of_use(day(), 0.05, 0.2).unwrap();
        let detector = detector();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let outcome = detector
            .detect(&community, &price, &price, &mut rng)
            .unwrap();
        // Same price on both sides: small (stochastic-solver) excess only.
        assert!(!outcome.attack_detected, "excess {}", outcome.par_excess);
        assert!(outcome.par_excess.abs() < detector.threshold());
    }

    #[test]
    fn zero_price_attack_is_detected() {
        let community = community(3);
        let clean = PriceSignal::time_of_use(day(), 0.05, 0.2).unwrap();
        let mut series = clean.as_series().clone();
        series[16] = 0.0;
        series[17] = 0.0;
        let attacked = PriceSignal::new(series).unwrap();
        let detector = detector();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let outcome = detector
            .detect(&community, &clean, &attacked, &mut rng)
            .unwrap();
        assert!(outcome.attack_detected, "excess {}", outcome.par_excess);
        assert!(outcome.received_par > outcome.predicted_par);
    }

    #[test]
    fn observation_map_buckets_excesses() {
        let map = ParObservationMap::from_centroids(vec![0.0, 0.1, 0.25, 0.5]).unwrap();
        assert_eq!(map.buckets(), 4);
        assert_eq!(map.observe(-0.05), 0);
        assert_eq!(map.observe(0.04), 0);
        assert_eq!(map.observe(0.09), 1);
        assert_eq!(map.observe(0.3), 2);
        assert_eq!(map.observe(10.0), 3);
    }

    #[test]
    fn observation_map_validates() {
        assert!(ParObservationMap::from_centroids(vec![0.0]).is_err());
        assert!(ParObservationMap::from_centroids(vec![0.0, 0.0]).is_err());
        assert!(ParObservationMap::from_centroids(vec![0.1, 0.0]).is_err());
        assert!(ParObservationMap::from_centroids(vec![0.0, f64::NAN]).is_err());
    }

    #[test]
    fn flat_price_attack_statistics_are_symmetricish() {
        // Scaling the whole signal does not change relative shapes much, so
        // the excess should be small (bill attacks are the long-term
        // detector's job; the single event statistic targets PAR shifts).
        let community = community(3);
        let clean = PriceSignal::time_of_use(day(), 0.05, 0.2).unwrap();
        let scaled = clean.map(|p| p * 1.5).unwrap();
        let detector = detector();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let outcome = detector
            .detect(&community, &clean, &scaled, &mut rng)
            .unwrap();
        assert!(outcome.par_excess.abs() < 0.3);
    }
}
