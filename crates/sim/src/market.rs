//! The utility-in-the-loop market: guideline prices are *designed from* net
//! demand, closing the causal loop the paper's argument rests on (§1: "net
//! metering changes the grid energy demand, which is considered by the
//! utility when designing the guideline price").

use nms_obs::{span, NoopRecorder, Recorder};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nms_core::{LoadPredictor, PredictedResponse};
use nms_forecast::PriceHistory;
use nms_par::par_map;
use nms_pricing::{PriceSignal, Utility};
use nms_smarthome::Community;

use crate::{CommunityGenerator, PaperScenario, SimError};

/// Workers for the training epoch's bootstrap and backtest maps: the
/// calling thread plus one helper (DESIGN.md §15).
pub(crate) const TRAINING_WORKERS: usize = 2;

/// One simulated market day: the cleared guideline price and the community's
/// (ground-truth) response to it. The response keeps the game's plans and
/// trading lanes; no N-customer schedule is built
/// ([`PredictedResponse::lanes`]).
#[derive(Debug, Clone)]
pub struct DayOutcome {
    /// The guideline price the utility broadcast.
    pub price: PriceSignal,
    /// The community's response (always net-metering aware: the *world*
    /// has PV and batteries regardless of what any detector models).
    pub response: PredictedResponse,
}

/// The market simulator bound to a scenario.
#[derive(Debug, Clone)]
pub struct Market {
    scenario: PaperScenario,
    utility: Utility,
    truth: LoadPredictor,
}

impl Market {
    /// Builds the market for a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on an invalid scenario.
    pub fn new(scenario: &PaperScenario) -> Result<Self, SimError> {
        scenario.validate()?;
        let utility = Utility::new(scenario.utility, scenario.customers)?;
        let truth = LoadPredictor::net_metering_aware(scenario.tariff, scenario.game);
        Ok(Self {
            scenario: scenario.clone(),
            utility,
            truth,
        })
    }

    /// The utility.
    #[inline]
    pub fn utility(&self) -> &Utility {
        &self.utility
    }

    /// The ground-truth world model (net-metering aware by construction).
    #[inline]
    pub fn truth_model(&self) -> &LoadPredictor {
        &self.truth
    }

    /// Clears one day: fixed-point iterate price ← design(demand(price))
    /// starting from a flat base-price signal, for `iterations` rounds
    /// (two rounds reach a stable shape in practice), then solve the
    /// community's response to the final price. Every game solves from
    /// `seed`; solver telemetry goes to `rec` (see
    /// [`GameEngine::solve`](nms_solver::GameEngine::solve)). With zero
    /// rounds the outcome pairs the flat price's response with the price
    /// designed from it.
    ///
    /// Callers that hold an RNG pass `rng.gen()`, one draw per day. The
    /// callers that clear several days at once (the calibration backtest,
    /// [`Market::bootstrap_history`]) pre-draw one seed per day in day
    /// order, which keeps them on the sequential loop's RNG stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when scheduling fails.
    pub fn clear_day(
        &self,
        community: &Community,
        iterations: usize,
        seed: u64,
        rec: &dyn Recorder,
    ) -> Result<DayOutcome, SimError> {
        if iterations == 0 {
            let flat = self.flat_price(community)?;
            let response = self.respond(community, &flat, seed, rec)?;
            let price = self.utility.design_price(&response.grid_demand);
            return Ok(DayOutcome { price, response });
        }
        let first = self.first_round(community, seed, rec)?;
        self.finish_clearing(community, first, iterations - 1, seed, rec)
    }

    /// The first round of [`Market::clear_day`]: the price designed from
    /// the community's response to the flat base price.
    pub(crate) fn first_round(
        &self,
        community: &Community,
        seed: u64,
        rec: &dyn Recorder,
    ) -> Result<PriceSignal, SimError> {
        let flat = self.flat_price(community)?;
        self.clear_round(community, &flat, seed, rec)
    }

    /// The rest of [`Market::clear_day`] after its first round's `price`:
    /// `rounds` more rounds, then the response to the final price.
    pub(crate) fn finish_clearing(
        &self,
        community: &Community,
        mut price: PriceSignal,
        rounds: usize,
        seed: u64,
        rec: &dyn Recorder,
    ) -> Result<DayOutcome, SimError> {
        for _ in 0..rounds {
            price = self.clear_round(community, &price, seed, rec)?;
        }
        let response = self.respond(community, &price, seed, rec)?;
        Ok(DayOutcome { price, response })
    }

    fn flat_price(&self, community: &Community) -> Result<PriceSignal, SimError> {
        PriceSignal::flat(community.horizon(), self.utility.config().base_price).map_err(Into::into)
    }

    /// One fixed-point round: the price designed from the response to
    /// `price`. Only the price carries over: the response, with its plans,
    /// is freed before the next game solves.
    fn clear_round(
        &self,
        community: &Community,
        price: &PriceSignal,
        seed: u64,
        rec: &dyn Recorder,
    ) -> Result<PriceSignal, SimError> {
        let response = self.respond(community, price, seed, rec)?;
        Ok(self.utility.design_price(&response.grid_demand))
    }

    /// The community's response to `price`, solved from `seed`. Common
    /// random numbers across rounds keep the fixed point from chasing
    /// solver noise.
    fn respond(
        &self,
        community: &Community,
        price: &PriceSignal,
        seed: u64,
        rec: &dyn Recorder,
    ) -> Result<PredictedResponse, SimError> {
        let mut child = ChaCha8Rng::seed_from_u64(seed);
        self.truth
            .predict(community, price, &mut child, rec)
            .map_err(Into::into)
    }

    /// Bootstraps `days` of (price, generation, demand) history by clearing
    /// consecutive days under the scenario's weather — the training data
    /// for the SVR price predictors.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when any day fails to clear.
    pub fn bootstrap_history(
        &self,
        generator: &CommunityGenerator,
        days: usize,
        rng: &mut impl Rng,
    ) -> Result<PriceHistory, SimError> {
        self.bootstrap_history_recorded(generator, days, rng, &NoopRecorder)
    }

    /// [`Market::bootstrap_history`] with solver telemetry routed into
    /// `rec`.
    ///
    /// The days are independent given their seeds, so they clear on the
    /// calling thread and one helper (DESIGN.md §15). One seed per day is
    /// drawn from `rng` in day order first, so on success `rng` ends where
    /// a loop drawing one seed per cleared day would leave it. The history,
    /// the counters and the event sequence equal that loop's; the days'
    /// solver spans are dropped, and a `bootstrap` span times the fork.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest day that fails to clear.
    pub fn bootstrap_history_recorded(
        &self,
        generator: &CommunityGenerator,
        days: usize,
        rng: &mut impl Rng,
        rec: &dyn Recorder,
    ) -> Result<PriceHistory, SimError> {
        let weather = self.scenario.weather_factors(days);
        let seeds: Vec<u64> = weather.iter().map(|_| rng.gen()).collect();
        let _span = span(rec, "bootstrap");
        // A day returns only its (price, generation, demand) per slot and
        // builds no N-customer schedule.
        let cleared = par_map(TRAINING_WORKERS, &seeds, rec, |day, &seed, rec| {
            let community = generator.community_for_day(day, weather[day]);
            let outcome = self.clear_day(&community, 2, seed, rec)?;
            let theta = community.total_generation();
            Ok::<_, SimError>(
                (0..community.horizon().slots())
                    .map(|h| {
                        [
                            outcome.price.at(h).value(),
                            theta[h],
                            outcome.response.load().at(h).value(),
                        ]
                    })
                    .collect::<Vec<_>>(),
            )
        })?;
        let (mut prices, mut generation, mut demand) = (Vec::new(), Vec::new(), Vec::new());
        for [price, theta, load] in cleared.into_iter().flatten() {
            prices.push(price);
            generation.push(theta);
            demand.push(load);
        }
        PriceHistory::new(prices, generation, demand, 24).map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> PaperScenario {
        PaperScenario::small(16, 21)
    }

    #[test]
    fn cleared_price_reflects_demand_shape() {
        let s = scenario();
        let market = Market::new(&s).unwrap();
        let generator = s.generator();
        let community = generator.community_for_day(0, 0.9);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let outcome = market
            .clear_day(&community, 2, rng.gen(), &NoopRecorder)
            .unwrap();
        // Prices exceed the base price wherever demand is positive.
        let base = s.utility.base_price;
        assert!(outcome.price.as_series().iter().any(|&p| p > base));
        // Midday (high PV) should be cheaper than the evening peak.
        let midday: f64 = (11..14).map(|h| outcome.price.at(h).value()).sum();
        let evening: f64 = (18..21).map(|h| outcome.price.at(h).value()).sum();
        assert!(
            midday < evening,
            "midday {midday} should undercut evening {evening}"
        );
    }

    #[test]
    fn sunny_days_have_cheaper_middays_than_cloudy() {
        let s = scenario();
        let market = Market::new(&s).unwrap();
        let generator = s.generator();
        let sunny = generator.community_for_day(0, 1.0);
        let cloudy = generator.community_for_day(0, 0.2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sunny_out = market
            .clear_day(&sunny, 2, rng.gen(), &NoopRecorder)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cloudy_out = market
            .clear_day(&cloudy, 2, rng.gen(), &NoopRecorder)
            .unwrap();
        let midday = |o: &DayOutcome| (11..14).map(|h| o.price.at(h).value()).sum::<f64>();
        assert!(midday(&sunny_out) < midday(&cloudy_out));
    }

    #[test]
    fn bootstrap_history_has_expected_length() {
        let s = scenario();
        let market = Market::new(&s).unwrap();
        let generator = s.generator();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let history = market.bootstrap_history(&generator, 4, &mut rng).unwrap();
        assert_eq!(history.len(), 4 * 24);
        assert!(history.prices().iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn market_rejects_invalid_scenario() {
        let mut s = scenario();
        s.customers = 0;
        assert!(Market::new(&s).is_err());
    }
}
