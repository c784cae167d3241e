//! The observation side of §4.1's PAR comparison: bucketing the PAR excess
//! a detection day measures (received-price PAR minus predicted-price PAR)
//! into the POMDP's hacked-meter observation.

use serde::{Deserialize, Serialize};

use nms_types::ValidateError;

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
}
