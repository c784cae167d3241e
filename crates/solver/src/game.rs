//! The community-level best-response iteration (Algorithm 1's outer loop).
//!
//! Customers share their trading amounts `y_n^h`; each in turn re-solves
//! Problem P1 against the aggregate of the others (Gauss–Seidel), until the
//! largest per-slot trading change across a full round falls under a
//! tolerance.

use nms_obs::{span, Recorder, TraceEvent};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use nms_pricing::{CostModel, NetMeteringTariff, PriceSignal};
use nms_smarthome::{Community, CommunitySchedule, CustomerSchedule, LoadProfile};
use nms_types::{TimeSeries, ValidateError};

use crate::batch::BatchResponseWorkspace;
use crate::response::{respond_in_place, Plan};
use crate::{ResponseConfig, ResponseWorkspace, SolverError};

/// Configuration for [`GameEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameConfig {
    /// Maximum outer rounds over all customers.
    pub max_rounds: usize,
    /// Convergence tolerance on the largest per-slot trading change (kWh).
    pub tolerance: f64,
    /// Per-customer best-response settings.
    pub response: ResponseConfig,
}

impl GameConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] on zero rounds, a non-positive
    /// tolerance, or an invalid response configuration.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.max_rounds == 0 {
            return Err(ValidateError::new("need at least one round"));
        }
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return Err(ValidateError::new("tolerance must be positive"));
        }
        self.response.validate()
    }

    /// A faster preset for large-community simulations.
    pub fn fast() -> Self {
        Self {
            max_rounds: 6,
            tolerance: 0.05,
            response: ResponseConfig::fast(),
        }
    }
}

impl Default for GameConfig {
    fn default() -> Self {
        Self {
            max_rounds: 12,
            tolerance: 0.01,
            response: ResponseConfig::default(),
        }
    }
}

/// Result of solving the scheduling game: the community's demand and
/// load, and every customer's converged (or last-round) plan.
///
/// The N-customer [`CommunitySchedule`] is built only by
/// [`GameOutcome::into_schedule`], for the callers that read it; the
/// demand and load are summed from the plans directly, and each customer's
/// plan and trading lane are read in place ([`GameOutcome::plan`],
/// [`GameOutcome::trading`]).
#[derive(Debug, Clone)]
pub struct GameOutcome {
    /// The community's net grid demand `Σ_n y_n^h` (kWh per slot; may be
    /// negative under heavy PV), summed over the final trading lanes in
    /// customer order: bit for bit the schedule's
    /// [`grid_demand`](CommunitySchedule::grid_demand).
    pub grid_demand: TimeSeries<f64>,
    /// The community load `L_h = Σ_n l_n^h`, summed over the plans in
    /// customer order: bit for bit the schedule's
    /// [`load`](CommunitySchedule::load).
    pub load: LoadProfile,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the tolerance was met before `max_rounds`.
    pub converged: bool,
    /// Largest per-slot trading change after each round (kWh).
    pub history: Vec<f64>,
    /// Every customer's final plan, in customer order.
    plans: Vec<Plan>,
    /// Every customer's final trading lane, lane-per-customer as in
    /// [`BatchResponseWorkspace`].
    lanes: Vec<f64>,
}

impl GameOutcome {
    /// Customers the game planned.
    pub fn customers(&self) -> usize {
        self.plans.len()
    }

    /// Customer `index`'s final plan.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`customers`](Self::customers).
    pub fn plan(&self, index: usize) -> &Plan {
        &self.plans[index]
    }

    /// Customer `index`'s final trading lane `y_n^h`: bit for bit the
    /// built schedule's [`trading`](CustomerSchedule::trading).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`customers`](Self::customers).
    pub fn trading(&self, index: usize) -> &[f64] {
        let slots = self.grid_demand.len();
        &self.lanes[index * slots..(index + 1) * slots]
    }

    /// Builds the community schedule from the final plans. `community`
    /// must be the community the game solved. Every plan already passed
    /// the schedule checks in its own response; the build runs them again.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Config`] when `community` has another
    /// customer count than the game, or [`SolverError::Schedule`] when a
    /// plan fails the checks against its customer (only for another
    /// community than the one solved).
    pub fn into_schedule(self, community: &Community) -> Result<CommunitySchedule, SolverError> {
        if community.len() != self.plans.len() {
            return Err(SolverError::Config(ValidateError::new(format!(
                "game planned {} customers, community has {}",
                self.plans.len(),
                community.len()
            ))));
        }
        let schedules: Vec<CustomerSchedule> = community
            .iter()
            .zip(self.plans)
            .map(|(customer, plan)| plan.into_schedule(customer))
            .collect::<Result<_, _>>()?;
        CommunitySchedule::new(community.horizon(), schedules).map_err(Into::into)
    }
}

/// Solves the Net Metering Aware Energy Consumption Scheduling Game for a
/// community under a guideline price (paper §3.1).
///
/// # Examples
///
/// See `tests/game_prediction.rs` for an end-to-end run; unit tests below
/// exercise two-customer communities.
#[derive(Debug)]
pub struct GameEngine<'a> {
    community: &'a Community,
    prices: &'a PriceSignal,
    tariff: NetMeteringTariff,
    config: GameConfig,
}

impl<'a> GameEngine<'a> {
    /// Binds a community, the broadcast guideline price, and the tariff.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the price signal's horizon disagrees
    /// with the community's, or the configuration is invalid.
    pub fn new(
        community: &'a Community,
        prices: &'a PriceSignal,
        tariff: NetMeteringTariff,
        config: GameConfig,
    ) -> Result<Self, ValidateError> {
        config.validate()?;
        let slots = community.horizon().slots();
        if prices.len() != slots {
            return Err(ValidateError::new(format!(
                "price signal covers {} slots, community horizon {slots}",
                prices.len()
            )));
        }
        Ok(Self {
            community,
            prices,
            tariff,
            config,
        })
    }

    /// The bound configuration.
    #[inline]
    pub fn config(&self) -> &GameConfig {
        &self.config
    }

    /// Runs the iterative best-response loop, deterministically seeded from
    /// `rng`.
    ///
    /// Each round draws one seed per customer from `rng` before any
    /// customer responds, so `rng` advances by exactly `n` draws per round
    /// whatever the responses consume.
    ///
    /// Solver telemetry goes to `rec`: per-round `game_round` events
    /// (Gauss–Seidel residuals), a closing `game_solved` event,
    /// `solver_round_delta` observations, and `solver_games` /
    /// `solver_rounds` / `solver_games_converged` counters — plus everything
    /// [`best_response`](crate::best_response) tallies per customer.
    /// Recording only reads values the solve already produced (see the
    /// crate-level RNG-neutrality contract in `nms-obs`), so the outcome is
    /// the same under any recorder.
    ///
    /// # Errors
    ///
    /// Propagates [`SolverError`] from any customer's subproblem.
    pub fn solve(
        &self,
        rng: &mut impl Rng,
        rec: &dyn Recorder,
    ) -> Result<GameOutcome, SolverError> {
        let _game_span = span(rec, "game_solve");
        let horizon = self.community.horizon();
        let n = self.community.len();

        // Every customer's plan between rounds, allocated once per solve
        // and updated in place by each response (DESIGN.md §15). With
        // `use_battery` off no response moves a battery, so the
        // trajectories stay at the initial charge `best_response` resets
        // them to.
        let mut plans: Vec<Plan> = self.community.iter().map(Plan::cold).collect();
        // SoA slabs for the round kernels: per-customer trading lanes plus
        // the running total, all flat `f64` (DESIGN.md §15).
        let mut batch = BatchResponseWorkspace::new();
        batch.begin(n, horizon.slots());
        let mut history = Vec::new();
        let mut converged = false;
        let mut rounds = 0;
        // One scratch arena reused across every best response (DESIGN.md
        // §11).
        let mut ws = ResponseWorkspace::default();
        let mut seeds: Vec<u64> = Vec::with_capacity(n);

        for _round in 0..self.config.max_rounds {
            rounds += 1;
            // Seeds drawn up front: each customer's response runs on its own
            // child stream.
            seeds.clear();
            seeds.extend((0..n).map(|_| rng.gen::<u64>()));
            let mut round_delta = 0.0_f64;

            // Gauss–Seidel over the flat lanes: others = total − lane,
            // solve, then total = others + response — the exact per-slot
            // operations the series path performed, each a tight loop over
            // contiguous f64 slices.
            for (index, customer) in self.community.iter().enumerate() {
                batch.fill_others(index);
                let mut child = ChaCha8Rng::seed_from_u64(seeds[index]);
                let cost_model = CostModel::new(self.prices, self.tariff);
                respond_in_place(
                    customer,
                    batch.others(),
                    cost_model,
                    &self.config.response,
                    &mut plans[index],
                    &mut child,
                    rec,
                    &mut ws,
                    true,
                )?;
                let delta = batch.max_abs_delta(index, &ws.trading);
                round_delta = round_delta.max(delta);
                batch.commit_gauss_seidel(index, &ws.trading);
            }
            // Round boundary: rebuild `total` from the lanes. The
            // incremental per-commit update (`total = others + response`)
            // accumulates a different floating-point rounding history every
            // round; re-accumulating from the lanes makes the round-boundary
            // state a pure function of the lanes, the same fold the
            // `tests/solver_workspace.rs` replica performs, bit for bit.
            // Dropping this call changes results (and the benchmark's
            // digests).
            batch.rebuild_total();

            history.push(round_delta);
            rec.observe("solver_round_delta", round_delta);
            if rec.enabled() {
                rec.event(
                    &TraceEvent::new("game_round")
                        .field("round", rounds as f64)
                        .field("delta", round_delta),
                );
            }
            if round_delta <= self.config.tolerance {
                converged = true;
                break;
            }
        }

        rec.add("solver_games", 1);
        rec.add("solver_rounds", rounds as u64);
        if converged {
            rec.add("solver_games_converged", 1);
        }
        if rec.enabled() {
            rec.event(
                &TraceEvent::new("game_solved")
                    .field("rounds", rounds as f64)
                    .field("converged", f64::from(u8::from(converged)))
                    .field("final_delta", history.last().copied().unwrap_or(0.0)),
            );
        }

        // The sums `CommunitySchedule::new` takes over the customers'
        // series, per slot in customer order, taken over the lanes and
        // plans instead.
        let grid_demand = TimeSeries::from_fn(horizon, |h| batch.lane_sum(h));
        let load = LoadProfile::new(TimeSeries::from_fn(horizon, |h| {
            self.community
                .iter()
                .zip(&plans)
                .map(|(customer, plan)| plan.load(customer, h))
                .sum()
        }));
        Ok(GameOutcome {
            grid_demand,
            load,
            rounds,
            converged,
            history,
            plans,
            lanes: batch.into_lanes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_obs::NoopRecorder;
    use nms_smarthome::{
        clear_sky_profile, Appliance, ApplianceKind, Battery, Customer, PowerLevels, PvPanel,
        TaskSpec,
    };
    use nms_types::{ApplianceId, CustomerId, Horizon, Kw, Kwh, TimeSeries};

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    fn small_community(n: usize, with_der: bool) -> Community {
        let customers: Vec<Customer> = (0..n)
            .map(|i| {
                let mut builder = Customer::builder(CustomerId::new(i), day())
                    .appliance(Appliance::new(
                        ApplianceId::new(0),
                        ApplianceKind::WaterHeater,
                        PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                        TaskSpec::new(Kwh::new(3.0), 0, 23).unwrap(),
                    ))
                    .appliance(Appliance::new(
                        ApplianceId::new(1),
                        ApplianceKind::Dishwasher,
                        PowerLevels::on_off(Kw::new(1.0)).unwrap(),
                        TaskSpec::new(Kwh::new(1.0), 17, 22).unwrap(),
                    ));
                if with_der {
                    builder = builder
                        .battery(Battery::new(Kwh::new(3.0), Kwh::ZERO).unwrap())
                        .pv(
                            PvPanel::new(Kw::new(2.0), clear_sky_profile(day(), Kw::new(2.0)))
                                .unwrap(),
                        );
                }
                builder.build().unwrap()
            })
            .collect();
        Community::new(day(), customers).unwrap()
    }

    fn tou_prices() -> PriceSignal {
        PriceSignal::time_of_use(day(), 0.05, 0.3).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(GameConfig::default().validate().is_ok());
        assert!(GameConfig {
            max_rounds: 0,
            ..GameConfig::default()
        }
        .validate()
        .is_err());
        assert!(GameConfig {
            tolerance: 0.0,
            ..GameConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn engine_rejects_mismatched_price_horizon() {
        let community = small_community(2, false);
        let prices = PriceSignal::flat(Horizon::hourly(48), 0.1).unwrap();
        assert!(GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::default()
        )
        .is_err());
    }

    #[test]
    fn game_converges_on_small_community() {
        let community = small_community(4, false);
        let prices = tou_prices();
        let engine = GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::default(),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let outcome = engine.solve(&mut rng, &NoopRecorder).unwrap();
        assert!(outcome.converged, "history: {:?}", outcome.history);
        // Flexible load avoids the on-peak windows.
        let peak_demand: f64 = (17..21).map(|h| outcome.grid_demand[h]).sum();
        let offpeak_demand: f64 = (0..7).map(|h| outcome.grid_demand[h]).sum();
        assert!(offpeak_demand > peak_demand);
    }

    #[test]
    fn der_community_draws_less_from_grid() {
        let prices = tou_prices();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let plain = small_community(3, false);
        let engine = GameEngine::new(
            &plain,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::fast(),
        )
        .unwrap();
        let base = engine.solve(&mut rng, &NoopRecorder).unwrap();

        let der = small_community(3, true);
        let engine = GameEngine::new(
            &der,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::fast(),
        )
        .unwrap();
        let mut rng2 = ChaCha8Rng::seed_from_u64(11);
        let with_der = engine.solve(&mut rng2, &NoopRecorder).unwrap();

        let total = |o: &GameOutcome| -> f64 { o.grid_demand.map(|&y| y.max(0.0)).total() };
        assert!(
            total(&with_der) < total(&base) - 1.0,
            "der {} vs base {}",
            total(&with_der),
            total(&base)
        );
    }

    /// The demand and load an outcome sums from its lanes and plans equal
    /// the built schedule's under `to_bits`, for battery and PV customers,
    /// and for customers without appliances whose base load is `-0.0` in
    /// a slot, so every customer's load there is `-0.0`: the sum must
    /// start at `Iterator::sum`'s identity to keep its sign.
    #[test]
    fn outcome_sums_equal_the_built_schedule_bitwise() {
        let mut signed_zero = TimeSeries::filled(day(), 0.3);
        signed_zero[4] = -0.0;
        let bare: Vec<Customer> = (0..3)
            .map(|i| {
                Customer::builder(CustomerId::new(i), day())
                    .base_load(signed_zero.clone())
                    .build()
                    .unwrap()
            })
            .collect();
        let communities = [
            small_community(4, true),
            small_community(3, false),
            Community::new(day(), bare).unwrap(),
        ];
        let prices = tou_prices();
        for (label, community) in communities.iter().enumerate() {
            let engine = GameEngine::new(
                community,
                &prices,
                NetMeteringTariff::default(),
                GameConfig::fast(),
            )
            .unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let outcome = engine.solve(&mut rng, &NoopRecorder).unwrap();
            let (demand, load) = (outcome.grid_demand.clone(), outcome.load.clone());
            let schedule = outcome.into_schedule(community).unwrap();
            for h in 0..day().slots() {
                assert_eq!(
                    demand[h].to_bits(),
                    schedule.grid_demand()[h].to_bits(),
                    "community {label} demand slot {h}"
                );
                assert_eq!(
                    load.at(h).value().to_bits(),
                    schedule.load().at(h).value().to_bits(),
                    "community {label} load slot {h}"
                );
            }
        }
        let community = &communities[2];
        let engine = GameEngine::new(
            community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::fast(),
        )
        .unwrap();
        let outcome = engine
            .solve(&mut ChaCha8Rng::seed_from_u64(13), &NoopRecorder)
            .unwrap();
        assert_eq!(outcome.load.at(4).value().to_bits(), (-0.0_f64).to_bits());
        // The outcome refuses a community of another size.
        assert!(outcome.into_schedule(&small_community(2, false)).is_err());
    }

    /// A quantize error (here the back-pointer overflow of a huge DP
    /// resolution) surfaces from the game as from one best response: the
    /// table is filled in the first response, where each DP quantized.
    #[test]
    fn quantize_error_surfaces_as_in_a_best_response() {
        let community = small_community(2, false);
        let prices = tou_prices();
        let mut config = GameConfig::fast();
        config.response.dp_resolution = 1 << 33;
        let engine =
            GameEngine::new(&community, &prices, NetMeteringTariff::default(), config).unwrap();
        let game = engine
            .solve(&mut ChaCha8Rng::seed_from_u64(14), &NoopRecorder)
            .unwrap_err();
        let customer = community.iter().next().unwrap();
        let single = crate::best_response(
            customer,
            &[0.0; 24],
            CostModel::new(&prices, NetMeteringTariff::default()),
            &config.response,
            None,
            &mut ChaCha8Rng::seed_from_u64(14),
            &NoopRecorder,
            &mut ResponseWorkspace::default(),
        )
        .unwrap_err();
        assert!(game.to_string().contains("back-pointer overflow"), "{game}");
        assert_eq!(game.to_string(), single.to_string());
    }

    #[test]
    fn history_is_weakly_informative() {
        let community = small_community(3, false);
        let prices = tou_prices();
        let engine = GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::default(),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let outcome = engine.solve(&mut rng, &NoopRecorder).unwrap();
        assert_eq!(outcome.history.len(), outcome.rounds);
        // The last round's delta is within tolerance iff converged.
        let last = *outcome.history.last().unwrap();
        assert_eq!(outcome.converged, last <= engine.config().tolerance);
    }
}
