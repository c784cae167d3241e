//! Non-learning forecasting baseline.
//!
//! The seasonal mean ("tomorrow's 3 PM looks like the average 3 PM") is
//! the price predictor's fallback when SVR training fails.

use nms_types::ValidateError;

use crate::PriceHistory;

/// Seasonal-mean forecast: each future slot takes the average recorded
/// price of its slot-of-day. Non-finite recordings (corrupted telemetry
/// that slipped in via [`PriceHistory::push`]) are skipped, so the forecast
/// is finite whenever at least one clean sample exists per slot-of-day.
///
/// # Errors
///
/// Returns [`ValidateError`] when the history is shorter than one full day
/// or `steps` is zero.
pub fn seasonal_mean_forecast(
    history: &PriceHistory,
    steps: usize,
) -> Result<Vec<f64>, ValidateError> {
    if steps == 0 {
        return Err(ValidateError::new("forecast needs at least one step"));
    }
    let spd = history.slots_per_day();
    if history.len() < spd {
        return Err(ValidateError::new(format!(
            "history of {} slots is shorter than one {spd}-slot day",
            history.len()
        )));
    }
    let mut sums = vec![0.0; spd];
    let mut counts = vec![0usize; spd];
    for (t, &p) in history.prices().iter().enumerate() {
        if p.is_finite() {
            sums[t % spd] += p;
            counts[t % spd] += 1;
        }
    }
    let means: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    let start = history.len();
    Ok((0..steps).map(|k| means[(start + k) % spd]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(days: usize) -> PriceHistory {
        let spd = 24;
        let prices: Vec<f64> = (0..spd * days)
            .map(|t| 0.05 + 0.01 * (t % spd) as f64 + 0.001 * (t / spd) as f64)
            .collect();
        let n = prices.len();
        PriceHistory::new(prices, vec![0.0; n], vec![1.0; n], spd).unwrap()
    }

    #[test]
    fn seasonal_mean_averages_by_hour() {
        let h = history(3);
        let forecast = seasonal_mean_forecast(&h, 24).unwrap();
        // Hour 0 mean of days {0,1,2}: 0.05 + 0.001·mean(0,1,2) = 0.051.
        assert!((forecast[0] - 0.051).abs() < 1e-12);
        // Hour 5: 0.05 + 0.05 + 0.001 = 0.101.
        assert!((forecast[5] - (0.05 + 0.01 * 5.0 + 0.001)).abs() < 1e-12);
        assert!(seasonal_mean_forecast(&h, 0).is_err());
    }

    #[test]
    fn seasonal_mean_aligns_phase_with_history_end() {
        // History ending mid-day: the forecast's first slot continues from
        // the next slot-of-day.
        let mut h = history(2);
        h.push(9.9, 0.0, 1.0); // records hour 0 of day 2: history ends at hour 1
        let forecast = seasonal_mean_forecast(&h, 24).unwrap();
        // First forecast slot corresponds to hour 1, averaged over days 0
        // and 1 (the pushed 9.9 sample sits at hour 0).
        let expected_hour1 = (0.06 + 0.061) / 2.0;
        assert!(
            (forecast[0] - expected_hour1).abs() < 1e-9,
            "got {}",
            forecast[0]
        );
        // The hour-0 forecast slot (23 steps later, wrapping) includes
        // the 9.9 outlier.
        let expected_hour0 = (0.05 + 0.051 + 9.9) / 3.0;
        assert!((forecast[23] - expected_hour0).abs() < 1e-9);
    }

    #[test]
    fn multi_day_forecast_wraps() {
        let h = history(2);
        let forecast = seasonal_mean_forecast(&h, 48).unwrap();
        for k in 0..24 {
            assert!((forecast[k] - forecast[k + 24]).abs() < 1e-12);
        }
    }
}
