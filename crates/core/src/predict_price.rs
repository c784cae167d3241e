//! Guideline-price prediction (§4.1).

use std::error::Error;
use std::fmt;

use nms_forecast::{
    seasonal_mean_forecast, FeatureConfig, Kernel, PriceHistory, Svr, SvrFitReport, SvrParams,
    TrainSvrError,
};
use nms_pricing::PriceSignal;
use nms_types::{FallbackRecord, Horizon, RetryPolicy, SolveBudget, TimeSeries, ValidateError};

/// Why price prediction failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PredictPriceError {
    /// The SVR could not be trained.
    Train(TrainSvrError),
    /// The history is unusable (too short, missing forecasts, …).
    History(ValidateError),
    /// [`PricePredictor::predict_day`] was called before
    /// [`PricePredictor::train`].
    NotTrained,
}

impl fmt::Display for PredictPriceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Train(err) => write!(f, "training failed: {err}"),
            Self::History(err) => write!(f, "history unusable: {err}"),
            Self::NotTrained => write!(f, "predictor has not been trained"),
        }
    }
}

impl Error for PredictPriceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Train(err) => Some(err),
            Self::History(err) => Some(err),
            Self::NotTrained => None,
        }
    }
}

impl From<TrainSvrError> for PredictPriceError {
    fn from(err: TrainSvrError) -> Self {
        Self::Train(err)
    }
}

impl From<ValidateError> for PredictPriceError {
    fn from(err: ValidateError) -> Self {
        Self::History(err)
    }
}

/// Outcome of [`PricePredictor::train_robust_budgeted`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Extra SMO attempts consumed beyond the first.
    pub retries: usize,
    /// The winning fit converged (false implies `fallback` is set).
    pub converged: bool,
    /// A watchdog [`SolveBudget`](nms_types::SolveBudget) cut training
    /// short (implies the baseline fallback was taken).
    pub budget_breached: bool,
    /// Set when the predictor dropped to the seasonal-mean baseline.
    pub fallback: Option<FallbackRecord>,
    /// SMO passes the fit ran, counted from `β = 0` (zero when the data
    /// was non-finite and no fit ran).
    pub passes: usize,
}

/// Day-ahead guideline-price prediction with SVR.
///
/// The *naive* variant reproduces the state of the art of \[8\]: the model
/// sees only the lagged price series. The *aware* variant implements the
/// paper's `G(p, V, D)` map: lagged net demand and the target day's
/// renewable-generation forecast enter the feature vector, so the model can
/// anticipate the net-metering-induced midday price dip.
#[derive(Debug, Clone)]
pub struct PricePredictor {
    features: FeatureConfig,
    params: SvrParams,
    model: Option<Svr>,
    baseline_fallback: bool,
}

impl PricePredictor {
    /// The naive predictor of \[8\] (price lags only).
    pub fn naive(slots_per_day: usize) -> Self {
        Self {
            features: FeatureConfig::naive(slots_per_day),
            params: Self::default_params(),
            model: None,
            baseline_fallback: false,
        }
    }

    /// The paper's net-metering-aware predictor.
    pub fn net_metering_aware(slots_per_day: usize) -> Self {
        Self {
            features: FeatureConfig::net_metering_aware(slots_per_day),
            params: Self::default_params(),
            model: None,
            baseline_fallback: false,
        }
    }

    /// Builds a predictor from explicit features and hyperparameters.
    pub fn with_config(features: FeatureConfig, params: SvrParams) -> Self {
        Self {
            features,
            params,
            model: None,
            baseline_fallback: false,
        }
    }

    fn default_params() -> SvrParams {
        SvrParams {
            kernel: Kernel::Rbf { gamma: 0.3 },
            c: 50.0,
            epsilon: 0.0005,
            max_passes: 80,
            ..SvrParams::default()
        }
    }

    /// The feature configuration in use.
    #[inline]
    pub fn features(&self) -> &FeatureConfig {
        &self.features
    }

    /// `true` once [`train`](Self::train) or
    /// [`train_robust_budgeted`](Self::train_robust_budgeted) has
    /// succeeded — possibly by dropping to the seasonal baseline.
    #[inline]
    pub fn is_trained(&self) -> bool {
        self.model.is_some() || self.baseline_fallback
    }

    /// Fits the SVR on the recorded history.
    ///
    /// # Errors
    ///
    /// Returns [`PredictPriceError`] when the history is shorter than the
    /// feature window or training fails.
    pub fn train(&mut self, history: &PriceHistory) -> Result<(), PredictPriceError> {
        self.features.validate()?;
        let dataset = history.training_set(&self.features);
        if dataset.is_empty() {
            return Err(PredictPriceError::History(ValidateError::new(format!(
                "history of {} slots yields no training samples (max lag {})",
                history.len(),
                self.features.max_lag()
            ))));
        }
        self.model = Some(Svr::fit(&dataset.xs, &dataset.ys, &self.params, None)?.0);
        self.baseline_fallback = false;
        Ok(())
    }

    /// Fits the SVR under a [`RetryPolicy`] and a watchdog [`SolveBudget`],
    /// degrading instead of failing: retries escalate the SMO pass budget,
    /// and when every attempt either fails to converge, trips on
    /// non-finite (corrupted) data, or breaches the budget (recorded as a
    /// `BudgetExceeded` fallback reason) the predictor drops to the
    /// seasonal-mean baseline so the pipeline can keep producing verdicts.
    /// The drop is reported as a [`FallbackRecord`]. Pass
    /// [`SolveBudget::unlimited`] for no watchdog.
    ///
    /// # Errors
    ///
    /// Returns [`PredictPriceError`] only for structural problems — invalid
    /// features/policy/budget/hyperparameters or a history too short to
    /// yield any training sample. Numerical trouble degrades; it does not
    /// error.
    pub fn train_robust_budgeted(
        &mut self,
        history: &PriceHistory,
        policy: &RetryPolicy,
        budget: &SolveBudget,
    ) -> Result<TrainReport, PredictPriceError> {
        self.features.validate()?;
        let dataset = history.training_set(&self.features);
        if dataset.is_empty() {
            return Err(PredictPriceError::History(ValidateError::new(format!(
                "history of {} slots yields no training samples (max lag {})",
                history.len(),
                self.features.max_lag()
            ))));
        }
        match Svr::fit_with_retry(&dataset.xs, &dataset.ys, &self.params, policy, budget) {
            Ok((model, report)) if report.converged => {
                self.model = Some(model);
                self.baseline_fallback = false;
                Ok(TrainReport {
                    retries: report.attempts - 1,
                    converged: true,
                    budget_breached: false,
                    fallback: None,
                    passes: report.passes,
                })
            }
            Ok((_, report)) if report.budget_breached => Ok(self.drop_to_baseline(
                &report,
                format!(
                    "BudgetExceeded: watchdog stopped SMO after {} pass(es) in attempt {}",
                    report.passes, report.attempts
                ),
            )),
            Ok((_, report)) => Ok(self.drop_to_baseline(
                &report,
                format!(
                    "SMO exhausted {} attempt(s) without converging",
                    report.attempts
                ),
            )),
            Err(TrainSvrError::NonFiniteData) => Ok(self.drop_to_baseline(
                &SvrFitReport {
                    converged: false,
                    passes: 0,
                    attempts: 1,
                    budget_breached: false,
                },
                "training data contains non-finite values".to_string(),
            )),
            Err(err) => Err(err.into()),
        }
    }

    /// Drops to the seasonal-mean baseline after the unconverged fit
    /// `report`.
    fn drop_to_baseline(&mut self, report: &SvrFitReport, reason: String) -> TrainReport {
        self.model = None;
        self.baseline_fallback = true;
        TrainReport {
            retries: report.attempts - 1,
            converged: false,
            budget_breached: report.budget_breached,
            fallback: Some(FallbackRecord::new(
                "price-predictor",
                "svr",
                "seasonal-baseline",
                reason,
            )),
            passes: report.passes,
        }
    }

    /// Predicts the guideline price for the `horizon.slots()` slots
    /// following the recorded history.
    ///
    /// `generation_forecast` supplies the community renewable forecast for
    /// the target window (required by the aware variant; ignored by the
    /// naive one).
    ///
    /// # Errors
    ///
    /// Returns [`PredictPriceError::NotTrained`] before training, or a
    /// history error when the forecast inputs are unusable.
    pub fn predict_day(
        &self,
        history: &PriceHistory,
        horizon: Horizon,
        generation_forecast: Option<&TimeSeries<f64>>,
    ) -> Result<PriceSignal, PredictPriceError> {
        let Some(model) = self.model.as_ref() else {
            if self.baseline_fallback {
                return self.predict_baseline(history, horizon);
            }
            return Err(PredictPriceError::NotTrained);
        };
        let forecast_vec: Option<Vec<f64>> =
            generation_forecast.map(|g| g.iter().copied().collect());
        let predictions = history.forecast(
            model,
            &self.features,
            horizon.slots(),
            forecast_vec.as_deref(),
        )?;
        let series = TimeSeries::from_values(horizon, predictions)
            .expect("forecast length matches horizon by construction");
        PriceSignal::new(series).map_err(PredictPriceError::History)
    }

    /// Seasonal-mean guideline prices for the degraded path: the mean price
    /// at each time-of-day slot across the recorded history. Prices can
    /// never be negative, so the baseline needs no clamping.
    fn predict_baseline(
        &self,
        history: &PriceHistory,
        horizon: Horizon,
    ) -> Result<PriceSignal, PredictPriceError> {
        let values = seasonal_mean_forecast(history, horizon.slots())?;
        let series = TimeSeries::from_values(horizon, values)
            .expect("baseline forecast length matches horizon by construction");
        PriceSignal::new(series).map_err(PredictPriceError::History)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic per-day cloud-cover factors: tomorrow's weather is not
    /// yesterday's, so a price-lag-only model cannot anticipate the
    /// PV-induced dip while a model seeing the generation forecast can.
    const WEATHER: [f64; 6] = [1.0, 0.35, 0.8, 0.25, 0.95, 0.55];

    fn pv_at(day: usize, hour: f64) -> f64 {
        let weather = WEATHER[day % WEATHER.len()];
        if (6.0..18.0).contains(&hour) {
            weather * 80.0 * (1.0 - ((hour - 12.0) / 6.0).powi(2))
        } else {
            0.0
        }
    }

    /// History where the price is driven by demand minus weather-varying PV.
    fn coupled_history(days: usize) -> (PriceHistory, TimeSeries<f64>) {
        let spd = 24;
        let mut prices = Vec::new();
        let mut generation = Vec::new();
        let mut demand = Vec::new();
        for t in 0..spd * days {
            let hour = (t % spd) as f64;
            let pv = pv_at(t / spd, hour);
            let d = 120.0 + 40.0 * (-((hour - 19.0) / 2.5).powi(2)).exp();
            prices.push(0.04 + 0.0008 * (d - pv).max(0.0));
            generation.push(pv);
            demand.push(d);
        }
        let history = PriceHistory::new(prices, generation, demand, spd).unwrap();
        // Forecast for the day immediately after the history.
        let forecast = TimeSeries::from_fn(Horizon::hourly_day(), |h| pv_at(days, h as f64));
        (history, forecast)
    }

    #[test]
    fn untrained_predictor_errors() {
        let (history, _) = coupled_history(5);
        let predictor = PricePredictor::naive(24);
        let err = predictor
            .predict_day(&history, Horizon::hourly_day(), None)
            .unwrap_err();
        assert_eq!(err, PredictPriceError::NotTrained);
        assert!(!predictor.is_trained());
    }

    #[test]
    fn train_requires_enough_history() {
        let short = PriceHistory::new(vec![0.1; 10], vec![0.0; 10], vec![1.0; 10], 24).unwrap();
        let mut predictor = PricePredictor::naive(24);
        assert!(matches!(
            predictor.train(&short),
            Err(PredictPriceError::History(_))
        ));
    }

    #[test]
    fn aware_predictor_tracks_pv_induced_dip() {
        let (history, forecast) = coupled_history(8);
        let mut aware = PricePredictor::net_metering_aware(24);
        aware.train(&history).unwrap();
        assert!(aware.is_trained());
        let predicted = aware
            .predict_day(&history, Horizon::hourly_day(), Some(&forecast))
            .unwrap();
        // Midday dip: noon price below morning-shoulder price.
        assert!(
            predicted.at(12).value() < predicted.at(7).value(),
            "noon {} vs 07:00 {}",
            predicted.at(12),
            predicted.at(7)
        );
    }

    #[test]
    fn naive_predictor_ignores_generation_forecast() {
        let (history, _) = coupled_history(8);
        let mut naive = PricePredictor::naive(24);
        naive.train(&history).unwrap();
        // Predicting without any forecast must work for the naive variant.
        let predicted = naive
            .predict_day(&history, Horizon::hourly_day(), None)
            .unwrap();
        assert_eq!(predicted.len(), 24);
        assert!(predicted.as_series().iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn aware_predictor_requires_forecast() {
        let (history, _) = coupled_history(8);
        let mut aware = PricePredictor::net_metering_aware(24);
        aware.train(&history).unwrap();
        assert!(matches!(
            aware.predict_day(&history, Horizon::hourly_day(), None),
            Err(PredictPriceError::History(_))
        ));
    }

    #[test]
    fn aware_beats_naive_on_coupled_prices() {
        let spd = 24;
        // Train on 8 days; the held-out day is day index 8.
        let (train, forecast) = coupled_history(8);
        let (full, _) = coupled_history(9);
        let actual = &full.prices()[spd * 8..];

        let horizon = Horizon::hourly_day();
        let mut aware = PricePredictor::net_metering_aware(spd);
        aware.train(&train).unwrap();
        let aware_pred = aware.predict_day(&train, horizon, Some(&forecast)).unwrap();

        let mut naive = PricePredictor::naive(spd);
        naive.train(&train).unwrap();
        let naive_pred = naive.predict_day(&train, horizon, None).unwrap();

        let rmse = |pred: &PriceSignal| {
            nms_forecast::rmse(
                &pred.as_series().iter().copied().collect::<Vec<_>>(),
                actual,
            )
        };
        // Day 8's weather (0.8) differs sharply from day 7's (0.55) and the
        // naive model can only extrapolate price history; the aware model
        // sees the generation forecast and must do strictly better.
        assert!(
            rmse(&aware_pred) < rmse(&naive_pred),
            "aware {} vs naive {}",
            rmse(&aware_pred),
            rmse(&naive_pred)
        );
    }

    #[test]
    fn train_robust_converges_like_train() {
        let (history, forecast) = coupled_history(8);
        let mut aware = PricePredictor::net_metering_aware(24);
        let report = aware
            .train_robust_budgeted(&history, &RetryPolicy::default(), &SolveBudget::unlimited())
            .unwrap();
        assert!(report.converged);
        assert!(report.fallback.is_none());
        assert!(
            (1..=320).contains(&report.passes),
            "passes {}",
            report.passes
        );
        assert!(!aware.baseline_fallback);
        aware
            .predict_day(&history, Horizon::hourly_day(), Some(&forecast))
            .unwrap();
    }

    #[test]
    fn strangled_smo_drops_to_seasonal_baseline() {
        let (history, _) = coupled_history(8);
        let mut naive = PricePredictor::with_config(
            FeatureConfig::naive(24),
            SvrParams {
                max_passes: 1,
                tolerance: 0.0, // improvements can never drop below zero
                ..SvrParams::default()
            },
        );
        let policy = RetryPolicy {
            max_attempts: 2,
            iteration_growth: 1.0,
        };
        let report = naive
            .train_robust_budgeted(&history, &policy, &SolveBudget::unlimited())
            .unwrap();
        assert!(!report.converged);
        assert_eq!(report.retries, 1);
        // With equal budgets the second attempt runs no further pass; the
        // fit counts the one pass a restart would count.
        assert_eq!(report.passes, 1);
        let record = report.fallback.expect("fallback recorded");
        assert_eq!(record.component, "price-predictor");
        assert_eq!(record.from, "svr");
        assert_eq!(record.to, "seasonal-baseline");
        assert!(naive.is_trained() && naive.baseline_fallback);

        // The degraded predictor still produces a full price signal — the
        // seasonal mean of the history.
        let predicted = naive
            .predict_day(&history, Horizon::hourly_day(), None)
            .unwrap();
        assert_eq!(predicted.len(), 24);
        let expected = seasonal_mean_forecast(&history, 24).unwrap();
        for (h, &want) in expected.iter().enumerate() {
            assert!((predicted.at(h).value() - want).abs() < 1e-12);
        }
    }

    #[test]
    fn budget_breach_drops_to_seasonal_baseline() {
        let (history, _) = coupled_history(8);
        let mut naive = PricePredictor::with_config(
            FeatureConfig::naive(24),
            SvrParams {
                max_passes: 50,
                tolerance: 0.0, // can never converge on its own
                ..SvrParams::default()
            },
        );
        let budget = SolveBudget {
            max_iterations: Some(1),
            max_wall_secs: None,
        };
        let report = naive
            .train_robust_budgeted(&history, &RetryPolicy::default(), &budget)
            .unwrap();
        assert!(report.budget_breached);
        assert!(!report.converged);
        assert_eq!(report.retries, 0, "breach must stop further attempts");
        assert_eq!(report.passes, 1);
        let record = report.fallback.expect("fallback recorded");
        assert!(
            record.reason.starts_with("BudgetExceeded"),
            "reason: {}",
            record.reason
        );
        assert!(naive.baseline_fallback);
        // The degraded predictor still produces a full finite signal.
        let predicted = naive
            .predict_day(&history, Horizon::hourly_day(), None)
            .unwrap();
        assert!(predicted.as_series().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn corrupted_history_drops_to_seasonal_baseline() {
        // A NaN reading slips past construction-time validation through
        // `push`: training data is poisoned, but the seasonal baseline
        // skips non-finite entries, so the degraded path stays finite.
        let (mut history, _) = coupled_history(8);
        history.push(f64::NAN, 0.0, 120.0);
        let mut naive = PricePredictor::naive(24);
        let report = naive
            .train_robust_budgeted(&history, &RetryPolicy::default(), &SolveBudget::unlimited())
            .unwrap();
        assert!(!report.converged);
        assert!(report.fallback.is_some());
        assert_eq!(report.passes, 0, "no fit ran");
        assert!(naive.baseline_fallback);
        let predicted = naive
            .predict_day(&history, Horizon::hourly_day(), None)
            .unwrap();
        assert!(predicted.as_series().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn error_display() {
        assert!(PredictPriceError::NotTrained
            .to_string()
            .contains("trained"));
        let err = PredictPriceError::History(ValidateError::new("too short"));
        assert!(err.to_string().contains("too short"));
    }
}
