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
use nms_smarthome::{Community, CommunitySchedule, CustomerSchedule};
use nms_types::ValidateError;

use crate::batch::BatchResponseWorkspace;
use crate::{best_response, ResponseConfig, ResponseWorkspace, SolverError};

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

/// Result of solving the scheduling game.
#[derive(Debug, Clone)]
pub struct GameOutcome {
    /// The converged (or last-round) community schedule.
    pub schedule: CommunitySchedule,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the tolerance was met before `max_rounds`.
    pub converged: bool,
    /// Largest per-slot trading change after each round (kWh).
    pub history: Vec<f64>,
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
    /// [`best_response`] tallies per customer. Recording only reads values
    /// the solve already produced (see the crate-level RNG-neutrality
    /// contract in `nms-obs`), so the outcome is the same under any
    /// recorder.
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

        let mut schedules: Vec<Option<CustomerSchedule>> = vec![None; n];
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

        for _round in 0..self.config.max_rounds {
            rounds += 1;
            // Seeds drawn up front: each customer's response runs on its own
            // child stream.
            let seeds: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut round_delta = 0.0_f64;

            // Gauss–Seidel over the flat lanes: others = total − lane,
            // solve, then total = others + response — the exact per-slot
            // operations the series path performed, each a tight loop over
            // contiguous f64 slices.
            for (index, customer) in self.community.iter().enumerate() {
                batch.fill_others(index);
                let mut child = ChaCha8Rng::seed_from_u64(seeds[index]);
                let cost_model = CostModel::new(self.prices, self.tariff);
                let response = best_response(
                    customer,
                    batch.others(),
                    cost_model,
                    &self.config.response,
                    schedules[index].as_ref(),
                    &mut child,
                    rec,
                    &mut ws,
                )?;
                let delta = batch.max_abs_delta(index, response.trading().as_slice());
                round_delta = round_delta.max(delta);
                batch.commit_gauss_seidel(index, response.trading().as_slice());
                schedules[index] = Some(response);
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

        let schedules: Vec<CustomerSchedule> = schedules
            .into_iter()
            .map(|s| s.expect("every customer scheduled at least once"))
            .collect();
        let schedule = CommunitySchedule::new(horizon, schedules)?;
        Ok(GameOutcome {
            schedule,
            rounds,
            converged,
            history,
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
    use nms_types::{ApplianceId, CustomerId, Horizon, Kw, Kwh};

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
        let schedule = &outcome.schedule;
        let peak_demand: f64 = (17..21).map(|h| schedule.grid_demand()[h]).sum();
        let offpeak_demand: f64 = (0..7).map(|h| schedule.grid_demand()[h]).sum();
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

        let total = |o: &GameOutcome| -> f64 { o.schedule.grid_demand_clamped().total() };
        assert!(
            total(&with_der) < total(&base) - 1.0,
            "der {} vs base {}",
            total(&with_der),
            total(&base)
        );
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
