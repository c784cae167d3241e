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

use nms_obs::names::forecast as names;
use nms_obs::{NoopRecorder, Recorder, Stopwatch, TraceEvent};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nms_attack::AttackTimeline;
use nms_core::{
    FrameworkConfig, ParObservationMap, PredictedResponse, PricePredictor, TrainReport,
};
use nms_forecast::PriceHistory;
use nms_par::par_map;
use nms_pricing::PriceSignal;
use nms_smarthome::Community;
use nms_types::{MeterId, RetryPolicy, RunHealth, SolveBudget, TimeSeries, ValidateError};

use crate::market::TRAINING_WORKERS;
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

/// One backtest day's statistic per bucket, and the report of its
/// predictor training.
type BacktestDay = (Vec<f64>, TrainReport);

/// What one backtest day's statistics read: the community, its observed
/// clean demand, the detector's day-ahead prediction, the detector's
/// world-model response to the cleared price, the manipulated price, and
/// the realization seed.
struct DayInputs {
    community: Community,
    actual: TimeSeries<f64>,
    predicted: TimeSeries<f64>,
    honest: PredictedResponse,
    manipulated: PriceSignal,
    seed: u64,
}

impl DayInputs {
    /// The statistic of a bucket whose world-model demand is `mixed`
    /// (`None` when no meter is hacked): the world-model attack delta
    /// superimposed on the observed clean demand, against the prediction.
    fn statistic(&self, mixed: Option<&TimeSeries<f64>>) -> f64 {
        let (actual, honest) = (&self.actual, &self.honest.grid_demand);
        match mixed {
            None => peak_deviation(actual, &self.predicted),
            Some(mixed) => {
                let synthetic = TimeSeries::from_fn(actual.horizon(), |h| {
                    (actual[h] + mixed[h] - honest[h]).max(0.0)
                });
                peak_deviation(&synthetic, &self.predicted)
            }
        }
    }
}

/// Folds one predictor fit into the calibration's health ledger and its
/// SMO counters.
fn record_training(health: &mut RunHealth, report: TrainReport, rec: &dyn Recorder) {
    health.record_retries(report.retries);
    health.record_budget_breaches(usize::from(report.budget_breached));
    rec.add(names::SMO_FITS, 1);
    rec.add(names::SMO_PASSES, report.passes as u64);
    if let Some(fallback) = report.fallback {
        rec.add(names::SMO_FALLBACKS, 1);
        health.record_fallback(fallback);
    }
}

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
    /// It builds no N-customer schedule. The clearing and the day-ahead
    /// prediction shrink to their demand series at once; the honest
    /// prediction keeps its plans and lanes, and only the hacked homes'
    /// lanes are added beside them.
    fn day(
        &self,
        back: usize,
        weather: &[f64],
        seeds: (u64, u64),
    ) -> Result<BacktestDay, SimError> {
        let (inputs, report) = self.inputs(back, weather, seeds)?;
        let demands = self.bucket_demands(&inputs, &NoopRecorder)?;
        let statistics = demands.iter().map(|d| inputs.statistic(d.as_ref()));
        Ok((statistics.collect(), report))
    }

    /// Clears backtest day `back`, trains its day-ahead price predictor,
    /// and predicts the day twice in the detector's world model: under the
    /// predicted price, and under the cleared price.
    fn inputs(
        &self,
        back: usize,
        weather: &[f64],
        (clear_seed, seed): (u64, u64),
    ) -> Result<(DayInputs, TrainReport), SimError> {
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
        let mut backtest_predictor = framework.price_predictor();
        let sub_history = self.history.truncated(day * 24);
        let report =
            backtest_predictor.train_robust_budgeted(&sub_history, self.retry, self.budget)?;
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
        let inputs = DayInputs {
            community,
            actual,
            predicted,
            honest,
            manipulated,
            seed,
        };
        Ok((inputs, report))
    }

    /// Each bucket's world-model demand with its meters hacked, `None` for
    /// a bucket whose count rounds to 0. Every bucket's hacked meters are a
    /// prefix of `0..k_max`, and each deviation reads only the honest plan
    /// and the next draws of the one stream, so one pass over the largest
    /// bucket's meters yields every bucket's deviations. The deviations
    /// tally their solver work into `rec`.
    fn bucket_demands(
        &self,
        inputs: &DayInputs,
        rec: &dyn Recorder,
    ) -> Result<Vec<Option<TimeSeries<f64>>>, SimError> {
        let DayInputs {
            community,
            honest,
            manipulated,
            seed,
            ..
        } = inputs;
        let n = community.len();
        let hacked: Vec<usize> = (0..self.buckets)
            .map(|bucket| {
                let hacked = (bucket as f64 * self.bucket_fraction_step * n as f64).round();
                (hacked as usize).min(n)
            })
            .collect();
        let k_max = hacked.iter().copied().max().unwrap_or(0);
        let meters: Vec<MeterId> = (0..k_max).map(MeterId::new).collect();
        let mut mixed_rng = ChaCha8Rng::seed_from_u64(*seed);
        let deviations = self.framework.load.respond_unilaterally(
            community,
            honest,
            manipulated,
            &meters,
            &mut mixed_rng,
            rec,
        )?;
        Ok(hacked
            .iter()
            .map(|&count| (count > 0).then(|| honest.realized_demand(&deviations[..count])))
            .collect())
    }

    /// Folds the backtest days, in day order, into the observation map and
    /// the trained Ω, and trains the price predictor on the full history.
    /// Each fit's SMO counters go to `rec`, in the same order.
    fn calibrate(
        &self,
        days: Vec<BacktestDay>,
        rec: &dyn Recorder,
    ) -> Result<DetectorCalibration, SimError> {
        let buckets = self.buckets;
        let mut health = RunHealth::new();
        let mut statistics: Vec<Vec<f64>> = Vec::with_capacity(days.len());
        for (day_stats, report) in days {
            statistics.push(day_stats);
            record_training(&mut health, report, rec);
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
        record_training(&mut health, report, rec);

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
    let days = par_map(TRAINING_WORKERS, &day_seeds, rec, |back, &seeds, _| {
        backtest.day(back, &weather, seeds)
    })?;
    let calibration = backtest.calibrate(days, rec)?;

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
    use crate::tests::respond_unilaterally_reference;
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

    /// The per-bucket loop the single pass replaced, in schedule form:
    /// each bucket solves its own meters `0..k_b` from a fresh stream and
    /// builds the N-customer schedule over them. Returns each bucket's
    /// statistic and world-model demand (`None` for a clean bucket).
    fn per_bucket_loop(
        backtest: &Backtest<'_>,
        inputs: &DayInputs,
        rec: &dyn Recorder,
    ) -> Vec<(f64, Option<TimeSeries<f64>>)> {
        let DayInputs {
            community,
            actual,
            predicted,
            honest,
            manipulated,
            seed,
        } = inputs;
        (0..backtest.buckets)
            .map(|bucket| {
                let hacked = ((bucket as f64 * backtest.bucket_fraction_step)
                    * community.len() as f64)
                    .round() as usize;
                if hacked == 0 {
                    return (peak_deviation(actual, predicted), None);
                }
                let meters: Vec<MeterId> =
                    (0..hacked.min(community.len())).map(MeterId::new).collect();
                let mixed = respond_unilaterally_reference(
                    &backtest.framework.load,
                    community,
                    honest,
                    manipulated,
                    &meters,
                    &mut ChaCha8Rng::seed_from_u64(*seed),
                    rec,
                )
                .grid_demand_clamped();
                let synthetic = TimeSeries::from_fn(community.horizon(), |h| {
                    (actual[h] + mixed[h] - honest.grid_demand[h]).max(0.0)
                });
                (peak_deviation(&synthetic, predicted), Some(mixed))
            })
            .collect()
    }

    /// The single pass over `0..k_max` against the per-bucket loop: equal
    /// statistics and per-bucket demand bit for bit, on a PV-only and a
    /// battery community (the CE path, which draws from the stream), both
    /// PV-heavy enough to export at midday, for both detectors. The bucket
    /// grids at N = 8 hack `[0, 1, 2, 4]` meters (the run's grid),
    /// `[0, 0, 1, 1]` (a bucket rounding to 0, two sharing a count) and
    /// `[0, 5, 8]` (`k_max = N`, the last count clamped). The pass solves
    /// `k_max` responses: its solver tallies are those of one reference
    /// pass over `0..k_max`, below the loop's sum over the buckets.
    #[test]
    fn single_pass_statistics_match_the_per_bucket_loop() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let tallies = [
            "solver_dp_cells",
            "solver_ce_solves",
            "solver_ce_iterations",
        ];
        for batteries in [false, true] {
            let mut scenario = PaperScenario::small(8, 3);
            scenario.training_days = 4;
            scenario.pv_ownership = 1.0;
            scenario.pv_rating = (5.0, 8.0);
            if !batteries {
                scenario.battery_ownership = 0.0;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let fixture = Fixture::new(scenario, &mut rng);
            let weather = fixture
                .scenario
                .weather_factors(fixture.scenario.training_days);
            for mode in [
                DetectorMode::IgnoreNetMetering,
                DetectorMode::NetMeteringAware,
            ] {
                let framework = FrameworkConfig::new(mode, 24);
                for (buckets, step, counts) in [
                    (4, 0.15, vec![0, 1, 2, 4]),
                    (4, 0.05, vec![0, 0, 1, 1]),
                    (3, 0.6, vec![0, 5, 8]),
                ] {
                    let label = format!("batteries {batteries}, {mode:?}, {counts:?}");
                    let mut backtest = fixture.backtest(&framework);
                    backtest.buckets = buckets;
                    backtest.bucket_fraction_step = step;
                    let (inputs, _) = backtest.inputs(0, &weather, (41, 42)).unwrap();
                    let n = inputs.community.len() as f64;
                    let hacked: Vec<usize> = (0..buckets)
                        .map(|b| ((b as f64 * step * n).round() as usize).min(8))
                        .collect();
                    assert_eq!(hacked, counts, "{label}");

                    let (single, _) = backtest.day(0, &weather, (41, 42)).unwrap();
                    let single_tally = nms_obs::MetricsRegistry::new();
                    let demands = backtest.bucket_demands(&inputs, &single_tally).unwrap();
                    let looped_tally = nms_obs::MetricsRegistry::new();
                    let looped = per_bucket_loop(&backtest, &inputs, &looped_tally);
                    let looped_stats: Vec<f64> = looped.iter().map(|(stat, _)| *stat).collect();
                    assert_eq!(bits(&single), bits(&looped_stats), "{label}: statistics");
                    let pairs = demands.iter().zip(&looped);
                    for (bucket, (demand, (_, expected))) in pairs.enumerate() {
                        let demand = demand.as_ref().map(|d| bits(d.as_slice()));
                        let expected = expected.as_ref().map(|d| bits(d.as_slice()));
                        assert_eq!(demand, expected, "{label}: bucket {bucket} demand");
                    }
                    if mode == DetectorMode::NetMeteringAware {
                        // The PV-heavy community exports at midday, so the
                        // demand clamp is exercised.
                        let honest = &inputs.honest;
                        assert!(
                            (0..24).any(|h| honest.outcome().grid_demand[h] < 0.0),
                            "{label}: no exporting slot"
                        );
                    }

                    let k_max = counts.iter().copied().max().unwrap();
                    let meters: Vec<MeterId> = (0..k_max).map(MeterId::new).collect();
                    let one_pass = nms_obs::MetricsRegistry::new();
                    respond_unilaterally_reference(
                        &framework.load,
                        &inputs.community,
                        &inputs.honest,
                        &inputs.manipulated,
                        &meters,
                        &mut ChaCha8Rng::seed_from_u64(inputs.seed),
                        &one_pass,
                    );
                    for name in tallies {
                        assert_eq!(
                            single_tally.counter(name),
                            one_pass.counter(name),
                            "{label}: {name}"
                        );
                    }
                    assert!(
                        looped_tally.counter("solver_dp_cells")
                            > single_tally.counter("solver_dp_cells"),
                        "{label}: the loop re-solves shared meters"
                    );
                }
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
    /// bit for bit, the RNG must end in the same place, and the SMO
    /// counters must sum the loop's training reports. Three backtest
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
                    let metrics = nms_obs::MetricsRegistry::new();
                    let forked = calibrate_detector(&backtest, &mut forked_rng, &metrics).unwrap();

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
                    // The SMO counters sum every fit's report: the backtest
                    // days', then the full history's.
                    let mut reports: Vec<&TrainReport> =
                        looped_days.iter().map(|(_, report)| report).collect();
                    let full = framework
                        .price_predictor()
                        .train_robust_budgeted(&fixture.history, &fixture.retry, &fixture.budget)
                        .unwrap();
                    reports.push(&full);
                    assert_eq!(metrics.counter(names::SMO_FITS), days as u64 + 1);
                    assert_eq!(
                        metrics.counter(names::SMO_PASSES),
                        reports.iter().map(|r| r.passes as u64).sum::<u64>(),
                        "{label}: passes"
                    );
                    assert_eq!(
                        metrics.counter(names::SMO_FALLBACKS),
                        reports.iter().filter(|r| r.fallback.is_some()).count() as u64,
                        "{label}: fallbacks"
                    );
                    let looped = backtest.calibrate(looped_days, &NoopRecorder).unwrap();

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
