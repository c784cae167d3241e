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

use nms_obs::{Recorder, Stopwatch, TraceEvent};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nms_attack::AttackTimeline;
use nms_core::{FrameworkConfig, ParObservationMap, PricePredictor};
use nms_forecast::PriceHistory;
use nms_par::Parallelism;
use nms_types::{MeterId, RetryPolicy, RunHealth, SolveBudget, TimeSeries, ValidateError};

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

/// Runs the full calibration pipeline over the training epoch.
///
/// # Errors
///
/// Returns [`SimError::Config`] when the training epoch is too short for
/// the detector's feature lags, or propagates solver/prediction failures.
#[allow(clippy::too_many_arguments)]
pub(crate) fn calibrate_detector(
    scenario: &PaperScenario,
    framework: &FrameworkConfig,
    timeline: &AttackTimeline,
    buckets: usize,
    bucket_fraction_step: f64,
    retry: &RetryPolicy,
    budget: &SolveBudget,
    market: &Market,
    generator: &CommunityGenerator,
    history: &PriceHistory,
    parallelism: &Parallelism,
    rng: &mut impl Rng,
    rec: &dyn Recorder,
) -> Result<DetectorCalibration, SimError> {
    let watch = Stopwatch::start();
    // A backtest day needs `max_lag` slots of history *plus* one day of
    // training samples before it.
    let max_lag = framework.price_predictor().features().max_lag();
    let earliest_backtest_day = max_lag.div_ceil(24) + 1;
    if scenario.training_days <= earliest_backtest_day {
        return Err(SimError::Config(ValidateError::new(format!(
            "detector with a {max_lag}-slot feature lag needs more than \
             {earliest_backtest_day} training days, got {}",
            scenario.training_days
        ))));
    }
    let backtest_days = 3.min(scenario.training_days - earliest_backtest_day).max(1);
    let weather = scenario.weather_factors(scenario.training_days);

    // stat[d][b]: the emulated runtime statistic on backtest day d with b
    // buckets' worth of meters compromised.
    //
    // Each backtest day consumes exactly two draws from the caller's RNG —
    // the day-clearing seed and the realization seed — so drawing them all
    // up front in loop order leaves the stream positioned exactly where the
    // sequential loop would, and makes each day a pure function of its
    // `(seeds, day)` pair that `par_map` may run on any worker.
    let day_seeds: Vec<(u64, u64)> = (0..backtest_days).map(|_| (rng.gen(), rng.gen())).collect();
    let mut health = RunHealth::new();

    let backtests = nms_par::par_map_recorded(
        parallelism.threads,
        &day_seeds,
        rec,
        |back, &(clear_seed, seed)| -> Result<(Vec<f64>, RunHealth), SimError> {
            let day = scenario.training_days - 1 - back;
            let community = generator.community_for_day(day, weather[day]);
            // Workers deliberately use the unrecorded clear: the game layer
            // emits trace *events*, which the nms-obs contract keeps out of
            // parallel regions (worker telemetry flows through
            // `par_map_recorded`'s commutative metrics instead).
            let outcome = market.clear_day_seeded(&community, 2, clear_seed)?;
            let manipulated = timeline.attack().apply(&outcome.price);

            // The detector's day-ahead view of this (past) day.
            let mut day_health = RunHealth::new();
            let mut backtest_predictor = framework.price_predictor();
            let sub_history = history.truncated(day * 24);
            let report = backtest_predictor.train_robust_budgeted(&sub_history, retry, budget)?;
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
                .predict(&community, &backtest_price, &mut predicted_rng)?;

            // The detector's world-model view of the clean day, used to
            // isolate the attack delta.
            let mut honest_rng = ChaCha8Rng::seed_from_u64(seed);
            let honest = framework
                .load
                .predict(&community, &outcome.price, &mut honest_rng)?;

            let mut day_stats = Vec::with_capacity(buckets);
            for bucket in 0..buckets {
                let hacked = ((bucket as f64 * bucket_fraction_step) * community.len() as f64)
                    .round() as usize;
                let synthetic = if hacked == 0 {
                    outcome.response.grid_demand.clone()
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
                    )?;
                    // Superimpose the world-model attack delta on the
                    // observed clean demand.
                    TimeSeries::from_fn(community.horizon(), |h| {
                        (outcome.response.grid_demand[h] + mixed.grid_demand[h]
                            - honest.grid_demand[h])
                            .max(0.0)
                    })
                };
                day_stats.push(peak_deviation(&synthetic, &predicted.grid_demand));
            }
            Ok((day_stats, day_health))
        },
    )?;

    let mut statistics: Vec<Vec<f64>> = Vec::with_capacity(backtest_days);
    for (day_stats, day_health) in backtests {
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
    let prior =
        nms_core::analytic_observation_matrix(buckets, framework.long_term.observation_accuracy);
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

    let mut price_predictor = framework.price_predictor();
    let report = price_predictor.train_robust_budgeted(history, retry, budget)?;
    health.record_retries(report.retries);
    health.record_budget_breaches(usize::from(report.budget_breached));
    if let Some(fallback) = report.fallback {
        health.record_fallback(fallback);
    }

    rec.observe("calibrate_seconds", watch.secs());
    rec.add("calibrate_backtest_days", backtest_days as u64);
    if rec.enabled() {
        rec.event(
            &TraceEvent::new("calibration")
                .field("backtest_days", backtest_days as f64)
                .field("buckets", buckets as f64)
                .field("retries", health.retries_consumed as f64)
                .field("seconds", watch.secs()),
        );
    }

    Ok(DetectorCalibration {
        price_predictor,
        observation_map,
        observation_matrix,
        statistics,
        health,
    })
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

    #[test]
    fn calibration_produces_valid_artifacts() {
        let mut scenario = PaperScenario::small(10, 55);
        scenario.training_days = 4;
        let market = Market::new(&scenario).unwrap();
        let generator = scenario.generator();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let history = market
            .bootstrap_history(&generator, scenario.training_days, &mut rng)
            .unwrap();
        let framework = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
        let timeline =
            AttackTimeline::new(vec![(4, 2)], PriceAttack::zero_window(16.0, 17.0).unwrap())
                .unwrap();
        let calibration = calibrate_detector(
            &scenario,
            &framework,
            &timeline,
            4,
            0.15,
            &RetryPolicy::default(),
            &SolveBudget::unlimited(),
            &market,
            &generator,
            &history,
            &Parallelism::SEQUENTIAL,
            &mut rng,
            &nms_obs::NoopRecorder,
        )
        .unwrap();
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

    #[test]
    fn parallel_backtest_is_bit_identical_to_sequential() {
        let mut scenario = PaperScenario::small(8, 57);
        scenario.training_days = 5;
        let market = Market::new(&scenario).unwrap();
        let generator = scenario.generator();
        let framework = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
        let timeline =
            AttackTimeline::new(vec![(4, 2)], PriceAttack::zero_window(16.0, 17.0).unwrap())
                .unwrap();
        let run = |threads: usize| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let history = market
                .bootstrap_history(&generator, scenario.training_days, &mut rng)
                .unwrap();
            calibrate_detector(
                &scenario,
                &framework,
                &timeline,
                4,
                0.15,
                &RetryPolicy::default(),
                &SolveBudget::unlimited(),
                &market,
                &generator,
                &history,
                &Parallelism::new(threads),
                &mut rng,
                &nms_obs::NoopRecorder,
            )
            .unwrap()
        };
        let sequential = run(1);
        let parallel = run(3);
        assert_eq!(sequential.statistics, parallel.statistics);
        assert_eq!(
            sequential.observation_map.centroids(),
            parallel.observation_map.centroids()
        );
        assert_eq!(sequential.observation_matrix, parallel.observation_matrix);
        assert_eq!(
            sequential.health.retries_consumed,
            parallel.health.retries_consumed
        );
    }
}
