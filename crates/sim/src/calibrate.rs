//! Detector calibration from historical data (§4.2: the observation
//! function "Ω … trained based on the historical data").
//!
//! The defender backtests its own day-ahead pipeline on the last few
//! training days. For each backtest day `d` it has, from *observed*
//! history, the actual clean grid demand; from its *own world model* it can
//! simulate what `b` compromised meters would have added (a unilateral
//! deviation delta). Superimposing the two and comparing against its own
//! day-ahead prediction emulates exactly the runtime detection statistic:
//!
//! ```text
//! stat(d, b) = peak_deviation(actual_d + Δ_d(b), predicted_d)
//! ```
//!
//! Per-bucket centroids of `stat(·, b)` become the observation map (with
//! bucket 0 widened by the backtest dispersion, the operational
//! set-the-alarm-above-seen-noise rule), and the empirical confusion of the
//! map on these samples — shrunk toward an analytic prior — becomes the
//! POMDP's trained observation matrix. A detector whose world
//! model is biased (ignoring net metering) calibrates against its *own*
//! bias, exactly as the prior art would have.

use nms_obs::{NoopRecorder, Recorder, Stopwatch, TraceEvent};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nms_attack::AttackTimeline;
use nms_core::{FrameworkConfig, ParObservationMap, PricePredictor};
use nms_forecast::PriceHistory;
use nms_types::{MeterId, RetryPolicy, RunHealth, SolveBudget, TimeSeries, ValidateError};

use crate::fork::fork_map;
use crate::{CommunityGenerator, Market, PaperScenario, SimError};

/// Pseudo-count mass of the analytic prior when estimating the observation
/// matrix from the (few) backtest samples: the empirical confusion is
/// shrunk toward the detector's configured analytic matrix so that a
/// handful of noisy samples cannot convince the POMDP its sensor is
/// useless (or perfect).
const OBSERVATION_PRIOR_MASS: f64 = 4.0;

/// Everything the long-term detector learns during the training epoch.
#[derive(Debug)]
pub struct DetectorCalibration {
    /// The day-ahead price predictor, trained on the full history.
    pub price_predictor: PricePredictor,
    /// Statistic → observed-bucket map (per-bucket centroids).
    pub observation_map: ParObservationMap,
    /// Trained observation matrix `Ω[true_bucket][observed_bucket]`.
    pub observation_matrix: Vec<Vec<f64>>,
    /// Raw calibration statistics, `[backtest_day][bucket]` (diagnostics).
    pub statistics: Vec<Vec<f64>>,
    /// Retries and fallbacks consumed while training the predictors.
    pub health: RunHealth,
}

/// The detection statistic: peak positive deviation of `observed` demand
/// over `predicted`, relative to the predicted mean. A model bias that
/// *over*-predicts demand (e.g. ignoring PV) pushes the statistic down and
/// masks attacks — the paper's mechanism for the naive detector's misses.
pub(crate) fn peak_deviation(observed: &TimeSeries<f64>, predicted: &TimeSeries<f64>) -> f64 {
    let mean = predicted.mean().max(1e-9);
    observed
        .iter()
        .zip(predicted.iter())
        .map(|(o, p)| (o - p) / mean)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// What the calibration backtest reads: the detector being calibrated, the
/// attack and bucket grid it is calibrated against, and the training
/// epoch's market, communities and price history.
pub(crate) struct Backtest<'a> {
    pub(crate) scenario: &'a PaperScenario,
    pub(crate) framework: &'a FrameworkConfig,
    pub(crate) timeline: &'a AttackTimeline,
    pub(crate) buckets: usize,
    pub(crate) bucket_fraction_step: f64,
    pub(crate) retry: &'a RetryPolicy,
    pub(crate) budget: &'a SolveBudget,
    pub(crate) market: &'a Market,
    pub(crate) generator: &'a CommunityGenerator,
    pub(crate) history: &'a PriceHistory,
}

/// One backtest day's statistic per bucket, and the retries and fallbacks
/// its predictor training consumed.
type BacktestDay = (Vec<f64>, RunHealth);

impl Backtest<'_> {
    /// How many of the last training days the backtest replays.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the training epoch is too short for
    /// the detector's feature lags.
    fn days(&self) -> Result<usize, SimError> {
        // A backtest day needs `max_lag` slots of history *plus* one day of
        // training samples before it.
        let max_lag = self.framework.price_predictor().features().max_lag();
        let earliest_backtest_day = max_lag.div_ceil(24) + 1;
        let training_days = self.scenario.training_days;
        if training_days <= earliest_backtest_day {
            return Err(SimError::Config(ValidateError::new(format!(
                "detector with a {max_lag}-slot feature lag needs more than \
                 {earliest_backtest_day} training days, got {training_days}"
            ))));
        }
        Ok(3.min(training_days - earliest_backtest_day).max(1))
    }

    /// Backtest day `back` (0 = the last training day): the emulated
    /// runtime statistic with each bucket's worth of meters compromised.
    /// `weather` holds the training epoch's clearness factors, and `seeds`
    /// the day's clearing and realization seeds.
    ///
    /// Of its N-customer schedules it keeps only the honest response,
    /// which the unilateral deviations read. The clearing's and the
    /// day-ahead prediction's shrink to their demand series at once, and
    /// each bucket's unilateral response is dropped after its bucket, so
    /// two days running at once hold at most four schedules.
    fn day(
        &self,
        back: usize,
        weather: &[f64],
        (clear_seed, seed): (u64, u64),
    ) -> Result<BacktestDay, SimError> {
        let framework = self.framework;
        let day = self.scenario.training_days - 1 - back;
        let community = self.generator.community_for_day(day, weather[day]);
        // The day clears and predicts through `NoopRecorder`, so the run's
        // trace and solver counters hold no backtest game.
        let (price, actual) = {
            let outcome = self
                .market
                .clear_day(&community, 2, clear_seed, &NoopRecorder)?;
            (outcome.price, outcome.response.grid_demand)
        };
        let manipulated = self.timeline.attack().apply(&price);

        // The detector's day-ahead view of this (past) day.
        let mut day_health = RunHealth::new();
        let mut backtest_predictor = framework.price_predictor();
        let sub_history = self.history.truncated(day * 24);
        let report =
            backtest_predictor.train_robust_budgeted(&sub_history, self.retry, self.budget)?;
        day_health.record_retries(report.retries);
        day_health.record_budget_breaches(usize::from(report.budget_breached));
        if let Some(fallback) = report.fallback {
            day_health.record_fallback(fallback);
        }
        let theta = community.total_generation();
        let generation_forecast = backtest_predictor
            .features()
            .target_generation
            .then_some(&theta);
        let backtest_price = backtest_predictor.predict_day(
            &sub_history,
            community.horizon(),
            generation_forecast,
        )?;
        let mut predicted_rng = ChaCha8Rng::seed_from_u64(seed);
        let predicted = framework
            .load
            .predict(
                &community,
                &backtest_price,
                &mut predicted_rng,
                &NoopRecorder,
            )?
            .grid_demand;

        // The detector's world-model view of the clean day, used to
        // isolate the attack delta.
        let mut honest_rng = ChaCha8Rng::seed_from_u64(seed);
        let honest = framework
            .load
            .predict(&community, &price, &mut honest_rng, &NoopRecorder)?;

        let mut day_stats = Vec::with_capacity(self.buckets);
        for bucket in 0..self.buckets {
            let hacked = ((bucket as f64 * self.bucket_fraction_step) * community.len() as f64)
                .round() as usize;
            let statistic = if hacked == 0 {
                peak_deviation(&actual, &predicted)
            } else {
                let meters: Vec<MeterId> =
                    (0..hacked.min(community.len())).map(MeterId::new).collect();
                let mut mixed_rng = ChaCha8Rng::seed_from_u64(seed);
                let mixed = framework.load.respond_unilaterally(
                    &community,
                    &honest,
                    &manipulated,
                    &meters,
                    &mut mixed_rng,
                    &NoopRecorder,
                )?;
                // Superimpose the world-model attack delta on the
                // observed clean demand.
                let synthetic = TimeSeries::from_fn(community.horizon(), |h| {
                    (actual[h] + mixed.grid_demand[h] - honest.grid_demand[h]).max(0.0)
                });
                peak_deviation(&synthetic, &predicted)
            };
            day_stats.push(statistic);
        }
        Ok((day_stats, day_health))
    }

    /// Folds the backtest days, in day order, into the observation map and
    /// the trained Ω, and trains the price predictor on the full history.
    fn calibrate(&self, days: Vec<BacktestDay>) -> Result<DetectorCalibration, SimError> {
        let buckets = self.buckets;
        let mut health = RunHealth::new();
        let mut statistics: Vec<Vec<f64>> = Vec::with_capacity(days.len());
        for (day_stats, day_health) in days {
            statistics.push(day_stats);
            health.merge(&day_health);
        }

        // Centroids: per-bucket mean over backtest days. Bucket 0 (the clean
        // state) is widened by twice the backtest dispersion plus a small
        // absolute margin — the operational "set the alarm threshold above the
        // noise you have seen" rule. A compromise whose signature hides inside
        // that margin is *missed* rather than producing an alarm every slot,
        // which is also how the paper's under-detecting baseline behaves.
        let mut centroids: Vec<f64> = (0..buckets)
            .map(|b| statistics.iter().map(|d| d[b]).sum::<f64>() / statistics.len() as f64)
            .collect();
        let clean_std = {
            let mean = centroids[0];
            (statistics
                .iter()
                .map(|d| (d[0] - mean).powi(2))
                .sum::<f64>()
                / statistics.len() as f64)
                .sqrt()
        };
        centroids[0] += 2.0 * clean_std + 0.01;
        for i in 1..centroids.len() {
            if centroids[i] <= centroids[i - 1] {
                centroids[i] = centroids[i - 1] + 1e-6;
            }
        }
        let observation_map = ParObservationMap::from_centroids(centroids)?;

        // Trained observation matrix: empirical confusion of the map on the
        // backtest samples, shrunk toward the analytic prior.
        let prior = nms_core::analytic_observation_matrix(
            buckets,
            self.framework.long_term.observation_accuracy,
        );
        let mut observation_matrix: Vec<Vec<f64>> = prior
            .iter()
            .map(|row| row.iter().map(|p| p * OBSERVATION_PRIOR_MASS).collect())
            .collect();
        for day_stats in &statistics {
            for (true_bucket, &stat) in day_stats.iter().enumerate() {
                let observed = observation_map.observe(stat);
                observation_matrix[true_bucket][observed] += 1.0;
            }
        }
        for row in &mut observation_matrix {
            let total: f64 = row.iter().sum();
            for p in row.iter_mut() {
                *p /= total;
            }
        }

        let mut price_predictor = self.framework.price_predictor();
        let report =
            price_predictor.train_robust_budgeted(self.history, self.retry, self.budget)?;
        health.record_retries(report.retries);
        health.record_budget_breaches(usize::from(report.budget_breached));
        if let Some(fallback) = report.fallback {
            health.record_fallback(fallback);
        }

        Ok(DetectorCalibration {
            price_predictor,
            observation_map,
            observation_matrix,
            statistics,
            health,
        })
    }
}

/// Runs the full calibration pipeline over the training epoch.
///
/// The backtest days are independent given their seeds, so they run on
/// the calling thread and one helper (DESIGN.md §15). Each day consumes
/// exactly two draws from `rng` — the day-clearing seed and the
/// realization seed — and all of them are drawn up front in day order, so
/// `rng` ends where the sequential day loop would leave it.
///
/// # Errors
///
/// Returns [`SimError::Config`] when the training epoch is too short for
/// the detector's feature lags, or propagates the solver or prediction
/// failure of the earliest backtest day that fails.
pub(crate) fn calibrate_detector(
    backtest: &Backtest<'_>,
    rng: &mut impl Rng,
    rec: &dyn Recorder,
) -> Result<DetectorCalibration, SimError> {
    let watch = Stopwatch::start();
    let backtest_days = backtest.days()?;
    let scenario = backtest.scenario;
    let weather = scenario.weather_factors(scenario.training_days);
    let day_seeds: Vec<(u64, u64)> = (0..backtest_days).map(|_| (rng.gen(), rng.gen())).collect();
    let days = fork_map(&day_seeds, rec, |back, &seeds, _| {
        backtest.day(back, &weather, seeds)
    })?;
    let calibration = backtest.calibrate(days)?;

    rec.observe("calibrate_seconds", watch.secs());
    rec.add("calibrate_backtest_days", backtest_days as u64);
    if rec.enabled() {
        rec.event(
            &TraceEvent::new("calibration")
                .field("backtest_days", backtest_days as f64)
                .field("buckets", backtest.buckets as f64)
                .field("retries", calibration.health.retries_consumed as f64)
                .field("seconds", watch.secs()),
        );
    }
    Ok(calibration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_attack::PriceAttack;
    use nms_core::DetectorMode;

    #[test]
    fn peak_deviation_is_signed_and_normalized() {
        let horizon = nms_types::Horizon::hourly_day();
        let predicted = TimeSeries::filled(horizon, 10.0);
        let mut observed = TimeSeries::filled(horizon, 10.0);
        assert!(peak_deviation(&observed, &predicted).abs() < 1e-12);
        observed[5] = 15.0;
        assert!((peak_deviation(&observed, &predicted) - 0.5).abs() < 1e-12);
        // A pure under-shoot yields a negative statistic.
        let low = TimeSeries::filled(horizon, 8.0);
        assert!(peak_deviation(&low, &predicted) < 0.0);
    }

    /// The inputs of one calibration, built over a bootstrapped history.
    struct Fixture {
        scenario: PaperScenario,
        market: Market,
        generator: CommunityGenerator,
        history: PriceHistory,
        timeline: AttackTimeline,
        retry: RetryPolicy,
        budget: SolveBudget,
    }

    impl Fixture {
        fn new(scenario: PaperScenario, rng: &mut ChaCha8Rng) -> Self {
            let market = Market::new(&scenario).unwrap();
            let generator = scenario.generator();
            let history = market
                .bootstrap_history(&generator, scenario.training_days, rng)
                .unwrap();
            let timeline =
                AttackTimeline::new(vec![(4, 2)], PriceAttack::zero_window(16.0, 17.0).unwrap())
                    .unwrap();
            Self {
                scenario,
                market,
                generator,
                history,
                timeline,
                retry: RetryPolicy::default(),
                budget: SolveBudget::unlimited(),
            }
        }

        fn backtest<'a>(&'a self, framework: &'a FrameworkConfig) -> Backtest<'a> {
            Backtest {
                scenario: &self.scenario,
                framework,
                timeline: &self.timeline,
                buckets: 4,
                bucket_fraction_step: 0.15,
                retry: &self.retry,
                budget: &self.budget,
                market: &self.market,
                generator: &self.generator,
                history: &self.history,
            }
        }
    }

    #[test]
    fn calibration_produces_valid_artifacts() {
        let mut scenario = PaperScenario::small(10, 55);
        scenario.training_days = 4;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let fixture = Fixture::new(scenario, &mut rng);
        let framework = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
        let calibration =
            calibrate_detector(&fixture.backtest(&framework), &mut rng, &NoopRecorder).unwrap();
        assert!(calibration.price_predictor.is_trained());
        assert_eq!(calibration.observation_map.buckets(), 4);
        // Rows of the trained Ω are distributions with mass on the
        // diagonal (the analytic prior leaves far-off-diagonal cells at
        // zero unless a sample lands there).
        for (b, row) in calibration.observation_matrix.iter().enumerate() {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&p| p >= 0.0));
            assert!(row[b] > 0.0, "bucket {b} has zero self-observation mass");
        }
        // Centroids increase with the compromise level.
        let centroids = calibration.observation_map.centroids();
        assert!(centroids.windows(2).all(|w| w[1] > w[0]));
    }

    /// The forked backtest against a plain loop over its days, fed the same
    /// pre-drawn seeds: statistics, centroids, Ω and health must be equal
    /// bit for bit, and the RNG must end in the same place. Three backtest
    /// days split unevenly between the two threads; a PV-only and a
    /// battery community (the CE path) each calibrate both detectors.
    #[test]
    fn forked_backtest_matches_the_day_loop() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for batteries in [false, true] {
            for seed in [1, 2] {
                let mut scenario = PaperScenario::small(8, seed);
                scenario.training_days = 6;
                if !batteries {
                    scenario.battery_ownership = 0.0;
                }
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let fixture = Fixture::new(scenario, &mut rng);
                for mode in [
                    DetectorMode::IgnoreNetMetering,
                    DetectorMode::NetMeteringAware,
                ] {
                    let label = format!("batteries {batteries}, seed {seed}, {mode:?}");
                    let framework = FrameworkConfig::new(mode, 24);
                    let backtest = fixture.backtest(&framework);

                    let mut forked_rng = rng.clone();
                    let forked =
                        calibrate_detector(&backtest, &mut forked_rng, &NoopRecorder).unwrap();

                    let mut loop_rng = rng.clone();
                    let days = backtest.days().unwrap();
                    assert_eq!(days, 3, "{label}");
                    let weather = fixture
                        .scenario
                        .weather_factors(fixture.scenario.training_days);
                    let seeds: Vec<(u64, u64)> = (0..days)
                        .map(|_| (loop_rng.gen(), loop_rng.gen()))
                        .collect();
                    let mut looped_days = Vec::new();
                    for back in 0..days {
                        looped_days.push(backtest.day(back, &weather, seeds[back]).unwrap());
                    }
                    let looped = backtest.calibrate(looped_days).unwrap();

                    assert_eq!(forked.statistics.len(), days, "{label}");
                    for (f, l) in forked.statistics.iter().zip(&looped.statistics) {
                        assert_eq!(bits(f), bits(l), "{label}: statistics");
                    }
                    assert_eq!(
                        bits(forked.observation_map.centroids()),
                        bits(looped.observation_map.centroids()),
                        "{label}: centroids"
                    );
                    for (f, l) in forked
                        .observation_matrix
                        .iter()
                        .zip(&looped.observation_matrix)
                    {
                        assert_eq!(bits(f), bits(l), "{label}: Ω");
                    }
                    assert_eq!(
                        forked.health.retries_consumed, looped.health.retries_consumed,
                        "{label}: retries"
                    );
                    assert_eq!(
                        forked.health.fallbacks, looped.health.fallbacks,
                        "{label}: fallbacks"
                    );
                    assert_eq!(
                        forked_rng.gen::<u64>(),
                        loop_rng.gen::<u64>(),
                        "{label}: the RNG must end in place"
                    );
                }
            }
        }
    }
}
