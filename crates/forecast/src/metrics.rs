//! Forecast-quality metrics.

/// Root-mean-square error between predictions and targets.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn rmse(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    assert!(!predictions.is_empty(), "empty inputs");
    let mse: f64 = predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / predictions.len() as f64;
    mse.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_of_perfect_prediction_is_zero() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        // Errors 1 and -1: rmse = 1.
        assert!((rmse(&[2.0, 1.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rmse_checks_lengths() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty inputs")]
    fn rmse_rejects_empty() {
        let _ = rmse(&[], &[]);
    }
}
