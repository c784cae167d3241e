//! Time-series featureization, including the paper's net-metering-aware
//! feature map `G(p, V, D)` (§4.1).
//!
//! The naive predictor of \[8\] sees only the lagged guideline price `p`.
//! The paper's predictor additionally sees the renewable generation `V` and
//! the energy demand `D` — concretely the lagged *net demand* `D − V`, the
//! quantity the utility actually prices, plus the (forecastable) renewable
//! generation of the target slot itself.

use serde::{Deserialize, Serialize};

use nms_types::ValidateError;

use crate::Svr;

/// Which features the price model sees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Lags (in slots, ≥ 1) into the guideline-price series.
    pub price_lags: Vec<usize>,
    /// Lags (in slots, ≥ `slots_per_day` for day-ahead use) into the net
    /// demand series `D − V`. Empty for the naive model.
    pub net_demand_lags: Vec<usize>,
    /// Include the target slot's own renewable-generation forecast
    /// (the paper: `θ` is "approximately known in advance").
    pub target_generation: bool,
    /// Include sin/cos encodings of the hour of day.
    pub hour_encoding: bool,
    /// Slots per day of the underlying series (24 for hourly).
    pub slots_per_day: usize,
}

impl FeatureConfig {
    /// The naive configuration of \[8\]: price history only.
    pub fn naive(slots_per_day: usize) -> Self {
        Self {
            price_lags: vec![1, 2, slots_per_day],
            net_demand_lags: Vec::new(),
            target_generation: false,
            hour_encoding: true,
            slots_per_day,
        }
    }

    /// The paper's net-metering-aware configuration `G(p, V, D)`.
    pub fn net_metering_aware(slots_per_day: usize) -> Self {
        Self {
            price_lags: vec![1, 2, slots_per_day],
            net_demand_lags: vec![slots_per_day, 2 * slots_per_day],
            target_generation: true,
            hour_encoding: true,
            slots_per_day,
        }
    }

    /// The largest lag referenced; a sample at slot `t` needs `t ≥ max_lag`.
    pub fn max_lag(&self) -> usize {
        self.price_lags
            .iter()
            .chain(&self.net_demand_lags)
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] on zero lags, a zero `slots_per_day`, or a
    /// configuration with no features at all.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.slots_per_day == 0 {
            return Err(ValidateError::new("slots_per_day must be positive"));
        }
        if self
            .price_lags
            .iter()
            .chain(&self.net_demand_lags)
            .any(|&l| l == 0)
        {
            return Err(ValidateError::new("lags must be at least 1"));
        }
        if self.price_lags.is_empty()
            && self.net_demand_lags.is_empty()
            && !self.target_generation
            && !self.hour_encoding
        {
            return Err(ValidateError::new(
                "feature configuration selects no features",
            ));
        }
        Ok(())
    }
}

/// A training set produced by sliding a feature window over a history.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindowDataset {
    /// Row-major feature matrix.
    pub xs: Vec<Vec<f64>>,
    /// Target prices aligned with `xs`.
    pub ys: Vec<f64>,
}

impl SlidingWindowDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// `true` when the history was too short to produce any sample.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }
}

/// An aligned history of guideline prices `p_t`, community renewable
/// generation `Θ_t`, and community energy demand `L_t`.
///
/// # Examples
///
/// ```
/// use nms_forecast::{FeatureConfig, PriceHistory};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let slots = 24 * 5;
/// let prices: Vec<f64> = (0..slots).map(|t| 0.1 + 0.01 * ((t % 24) as f64)).collect();
/// let generation = vec![0.0; slots];
/// let demand = vec![100.0; slots];
/// let history = PriceHistory::new(prices, generation, demand, 24)?;
/// let dataset = history.training_set(&FeatureConfig::naive(24));
/// assert!(!dataset.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceHistory {
    prices: Vec<f64>,
    generation: Vec<f64>,
    demand: Vec<f64>,
    slots_per_day: usize,
}

impl PriceHistory {
    /// Builds a history from aligned series.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the series differ in length, contain
    /// non-finite values, or `slots_per_day` is zero.
    pub fn new(
        prices: Vec<f64>,
        generation: Vec<f64>,
        demand: Vec<f64>,
        slots_per_day: usize,
    ) -> Result<Self, ValidateError> {
        if slots_per_day == 0 {
            return Err(ValidateError::new("slots_per_day must be positive"));
        }
        if prices.len() != generation.len() || prices.len() != demand.len() {
            return Err(ValidateError::new(format!(
                "series lengths differ: {} prices, {} generation, {} demand",
                prices.len(),
                generation.len(),
                demand.len()
            )));
        }
        for (name, series) in [
            ("prices", &prices),
            ("generation", &generation),
            ("demand", &demand),
        ] {
            if series.iter().any(|v| !v.is_finite()) {
                return Err(ValidateError::new(format!(
                    "{name} contains non-finite values"
                )));
            }
        }
        Ok(Self {
            prices,
            generation,
            demand,
            slots_per_day,
        })
    }

    /// Number of recorded slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.prices.len()
    }

    /// `true` when no slots were recorded yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }

    /// The recorded prices.
    #[inline]
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// The recorded community PV generation, aligned with the prices.
    #[inline]
    pub fn generation(&self) -> &[f64] {
        &self.generation
    }

    /// The recorded community demand, aligned with the prices.
    #[inline]
    pub fn demand(&self) -> &[f64] {
        &self.demand
    }

    /// Slots per day the series was recorded at.
    #[inline]
    pub fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    /// Appends one observed slot.
    pub fn push(&mut self, price: f64, generation: f64, demand: f64) {
        self.prices.push(price);
        self.generation.push(generation);
        self.demand.push(demand);
    }

    /// A copy containing only the first `slots` recorded slots (used for
    /// backtesting a predictor against the tail of its own history).
    ///
    /// # Panics
    ///
    /// Panics if `slots` exceeds the recorded length.
    pub fn truncated(&self, slots: usize) -> PriceHistory {
        assert!(
            slots <= self.len(),
            "cannot truncate {slots} from {}",
            self.len()
        );
        PriceHistory {
            prices: self.prices[..slots].to_vec(),
            generation: self.generation[..slots].to_vec(),
            demand: self.demand[..slots].to_vec(),
            slots_per_day: self.slots_per_day,
        }
    }

    /// Net demand `D_t − V_t` at a recorded slot.
    #[inline]
    fn net_demand(&self, t: usize) -> f64 {
        self.demand[t] - self.generation[t]
    }

    fn hour_features(&self, t: usize) -> [f64; 2] {
        let phase = 2.0 * std::f64::consts::PI * (t % self.slots_per_day) as f64
            / self.slots_per_day as f64;
        [phase.sin(), phase.cos()]
    }

    /// The feature vector predicting the price at recorded slot `t`, or
    /// `None` when `t` does not have enough history behind it.
    ///
    /// `target_generation_override` supplies the target slot's generation
    /// forecast when `t` is beyond the recorded series (future slot).
    fn features_for(
        &self,
        t: usize,
        config: &FeatureConfig,
        extended_prices: &[f64],
        target_generation_override: Option<f64>,
    ) -> Option<Vec<f64>> {
        if t < config.max_lag() {
            return None;
        }
        let mut features = Vec::new();
        for &lag in &config.price_lags {
            features.push(extended_prices[t - lag]);
        }
        for &lag in &config.net_demand_lags {
            // Net-demand lags must reference recorded slots.
            if t - lag >= self.len() {
                return None;
            }
            features.push(self.net_demand(t - lag));
        }
        if config.target_generation {
            let g = if t < self.len() {
                self.generation[t]
            } else {
                target_generation_override?
            };
            features.push(g);
        }
        if config.hour_encoding {
            features.extend(self.hour_features(t));
        }
        Some(features)
    }

    /// Builds the sliding-window training set for `config` over the
    /// recorded history.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; call [`FeatureConfig::validate`]
    /// first for user-supplied configs.
    pub fn training_set(&self, config: &FeatureConfig) -> SlidingWindowDataset {
        config.validate().expect("invalid feature configuration");
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for t in config.max_lag()..self.len() {
            if let Some(features) = self.features_for(t, config, &self.prices, None) {
                xs.push(features);
                ys.push(self.prices[t]);
            }
        }
        SlidingWindowDataset { xs, ys }
    }

    /// Recursively forecasts the `steps` slots following the recorded
    /// history with a trained model, feeding predictions back in as price
    /// lags.
    ///
    /// `future_generation[k]` is the generation forecast for future slot
    /// `k` (required when the config uses `target_generation`).
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the history is shorter than the
    /// configuration's largest lag, when `future_generation` is missing or
    /// too short while required, or when a net-demand lag would reach into
    /// the unrecorded future (use lags ≥ `steps` for day-ahead work).
    pub fn forecast(
        &self,
        model: &Svr,
        config: &FeatureConfig,
        steps: usize,
        future_generation: Option<&[f64]>,
    ) -> Result<Vec<f64>, ValidateError> {
        config.validate()?;
        if self.len() < config.max_lag() {
            return Err(ValidateError::new(format!(
                "history of {} slots shorter than max lag {}",
                self.len(),
                config.max_lag()
            )));
        }
        if config.target_generation {
            match future_generation {
                Some(g) if g.len() >= steps => {}
                _ => {
                    return Err(ValidateError::new(
                        "target_generation is enabled but future generation forecast is missing or too short",
                    ))
                }
            }
        }
        if let Some(&min_nd_lag) = config.net_demand_lags.iter().min() {
            if min_nd_lag < steps {
                return Err(ValidateError::new(format!(
                    "net demand lag {min_nd_lag} reaches into the forecast window of {steps} slots"
                )));
            }
        }

        let mut extended = self.prices.clone();
        let mut predictions = Vec::with_capacity(steps);
        for k in 0..steps {
            let t = self.len() + k;
            let features = self
                .features_for(t, config, &extended, future_generation.map(|g| g[k]))
                .ok_or_else(|| ValidateError::new("insufficient history for forecast"))?;
            // Prices are non-negative; clamp the regression output.
            let predicted = model.predict(&features).max(0.0);
            predictions.push(predicted);
            extended.push(predicted);
        }
        Ok(predictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kernel, SvrParams};

    /// A history whose price is a daily sinusoid shifted by PV generation.
    fn pv_coupled_history(days: usize) -> PriceHistory {
        let spd = 24;
        let slots = spd * days;
        let mut prices = Vec::with_capacity(slots);
        let mut generation = Vec::with_capacity(slots);
        let mut demand = Vec::with_capacity(slots);
        for t in 0..slots {
            let hour = (t % spd) as f64;
            let pv = if (6.0..18.0).contains(&hour) {
                50.0 * (1.0 - ((hour - 12.0) / 6.0).powi(2))
            } else {
                0.0
            };
            let base_demand = 100.0 + -(30.0 * ((hour - 19.0) / 3.0).powi(2).min(1.0)) + 30.0;
            let net = base_demand - pv;
            prices.push(0.04 + 0.001 * net.max(0.0));
            generation.push(pv);
            demand.push(base_demand);
        }
        PriceHistory::new(prices, generation, demand, spd).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(PriceHistory::new(vec![1.0], vec![1.0], vec![1.0], 0).is_err());
        assert!(PriceHistory::new(vec![1.0], vec![1.0, 2.0], vec![1.0], 24).is_err());
        assert!(PriceHistory::new(vec![f64::NAN], vec![0.0], vec![0.0], 24).is_err());
    }

    #[test]
    fn config_presets_validate() {
        assert!(FeatureConfig::naive(24).validate().is_ok());
        assert!(FeatureConfig::net_metering_aware(24).validate().is_ok());
        assert_eq!(FeatureConfig::naive(24).max_lag(), 24);
        assert_eq!(FeatureConfig::net_metering_aware(24).max_lag(), 48);
        let mut bad = FeatureConfig::naive(24);
        bad.price_lags.push(0);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn training_set_shapes() {
        let history = pv_coupled_history(5);
        let naive = history.training_set(&FeatureConfig::naive(24));
        assert_eq!(naive.len(), 24 * 5 - 24);
        // price lags (3) + hour sin/cos (2).
        assert_eq!(naive.xs[0].len(), 5);
        let aware = history.training_set(&FeatureConfig::net_metering_aware(24));
        assert_eq!(aware.len(), 24 * 5 - 48);
        // 3 price lags + 2 net-demand lags + generation + 2 hour.
        assert_eq!(aware.xs[0].len(), 8);
        assert!(!aware.is_empty());
    }

    #[test]
    fn aware_features_beat_naive_on_pv_coupled_prices() {
        let history = pv_coupled_history(8);
        let params = SvrParams {
            kernel: Kernel::Rbf { gamma: 0.3 },
            c: 50.0,
            epsilon: 0.0005,
            max_passes: 100,
            ..SvrParams::default()
        };

        // Hold out the final day.
        let train_slots = 24 * 7;
        let train = PriceHistory::new(
            history.prices[..train_slots].to_vec(),
            history.generation[..train_slots].to_vec(),
            history.demand[..train_slots].to_vec(),
            24,
        )
        .unwrap();
        let actual_last_day = &history.prices[train_slots..];
        let future_generation = &history.generation[train_slots..];

        let run = |config: &FeatureConfig| {
            let dataset = train.training_set(config);
            let model = Svr::fit(&dataset.xs, &dataset.ys, &params, None).unwrap().0;
            train
                .forecast(&model, config, 24, Some(future_generation))
                .unwrap()
        };
        let naive_pred = run(&FeatureConfig::naive(24));
        let aware_pred = run(&FeatureConfig::net_metering_aware(24));

        let naive_rmse = crate::rmse(&naive_pred, actual_last_day);
        let aware_rmse = crate::rmse(&aware_pred, actual_last_day);
        // Both should be sane, and the aware model at least as good.
        assert!(aware_rmse <= naive_rmse * 1.2 + 1e-9);
        assert!(aware_rmse < 0.05);
    }

    #[test]
    fn forecast_validates_inputs() {
        let history = pv_coupled_history(3);
        let config = FeatureConfig::net_metering_aware(24);
        let dataset = history.training_set(&config);
        let model = Svr::fit(&dataset.xs, &dataset.ys, &SvrParams::default(), None)
            .unwrap()
            .0;
        // Missing generation forecast.
        assert!(history.forecast(&model, &config, 24, None).is_err());
        // Too-short generation forecast.
        assert!(history
            .forecast(&model, &config, 24, Some(&[0.0; 3]))
            .is_err());
        // Net-demand lag shorter than the window.
        let mut bad = config.clone();
        bad.net_demand_lags = vec![3];
        assert!(history
            .forecast(&model, &bad, 24, Some(&[0.0; 24]))
            .is_err());
        // Short history.
        let short = PriceHistory::new(vec![0.1; 4], vec![0.0; 4], vec![1.0; 4], 24).unwrap();
        assert!(short
            .forecast(&model, &config, 24, Some(&[0.0; 24]))
            .is_err());
    }

    #[test]
    fn forecast_is_non_negative() {
        let spd = 24;
        // Prices that trend hard toward zero.
        let prices: Vec<f64> = (0..spd * 4)
            .map(|t| (1.0 - t as f64 * 0.02).max(0.0))
            .collect();
        let history =
            PriceHistory::new(prices, vec![0.0; spd * 4], vec![1.0; spd * 4], spd).unwrap();
        let config = FeatureConfig::naive(spd);
        let dataset = history.training_set(&config);
        let params = SvrParams {
            kernel: Kernel::Linear,
            ..SvrParams::default()
        };
        let model = Svr::fit(&dataset.xs, &dataset.ys, &params, None).unwrap().0;
        let forecast = history.forecast(&model, &config, spd, None).unwrap();
        assert!(forecast.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn push_extends_history() {
        let mut history = pv_coupled_history(2);
        let before = history.len();
        history.push(0.1, 5.0, 80.0);
        assert_eq!(history.len(), before + 1);
        assert_eq!(*history.prices().last().unwrap(), 0.1);
    }
}
