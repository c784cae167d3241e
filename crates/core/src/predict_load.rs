//! Net-metering-aware energy-load prediction (§3): simulate the community's
//! scheduling response to a guideline price by solving the game.

use nms_obs::{NoopRecorder, Recorder};
use rand::Rng;
use serde::{Deserialize, Serialize};

use nms_pricing::{CostModel, NetMeteringTariff, PriceSignal};
use nms_smarthome::{Community, CommunitySchedule, Customer, LoadProfile};
use nms_solver::{GameConfig, GameEngine, PriceAssignment, SolverError};
use nms_types::{MeterId, TimeSeries};

/// The community's predicted response to a price signal.
#[derive(Debug, Clone)]
pub struct PredictedResponse {
    /// The full game solution.
    pub schedule: CommunitySchedule,
    /// Predicted net grid demand (`Σ_n y_n^h`, clamped at zero).
    pub grid_demand: TimeSeries<f64>,
    /// PAR of the predicted grid demand — the detection statistic.
    pub par: f64,
    /// Whether the game converged within its round budget.
    pub converged: bool,
    /// Best-response rounds the game executed (`0` for responses that did
    /// not run the full game, e.g. unilateral deviations).
    pub rounds: usize,
}

impl PredictedResponse {
    /// The predicted community consumption profile `L_h`.
    pub fn load(&self) -> &LoadProfile {
        self.schedule.load()
    }
}

/// Predicts the community's energy load under a guideline price by solving
/// the Net Metering Aware Energy Consumption Scheduling Game (Algorithm 1).
///
/// With `net_metering = false` the predictor reproduces the prior art's
/// blind spot: customers are modeled as pure consumers (their PV panels and
/// batteries are ignored), so the predicted demand misses the midday dip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPredictor {
    /// The net-metering tariff used in the game's cost model.
    pub tariff: NetMeteringTariff,
    /// Game-solver settings.
    pub game: GameConfig,
    /// Model net metering (PV + battery + sell-back) or ignore it.
    pub net_metering: bool,
}

impl LoadPredictor {
    /// The paper's predictor: net metering modeled.
    pub fn net_metering_aware(tariff: NetMeteringTariff, game: GameConfig) -> Self {
        Self {
            tariff,
            game,
            net_metering: true,
        }
    }

    /// The prior-art predictor that ignores net metering.
    pub fn ignore_net_metering(tariff: NetMeteringTariff, game: GameConfig) -> Self {
        Self {
            tariff,
            game,
            net_metering: false,
        }
    }

    /// Predicts the community response to `prices`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError`] when the game engine fails (invalid config
    /// or an infeasible appliance subproblem).
    pub fn predict(
        &self,
        community: &Community,
        prices: &PriceSignal,
        rng: &mut impl Rng,
    ) -> Result<PredictedResponse, SolverError> {
        self.predict_with_assignment(
            community,
            PriceAssignment::Uniform(prices),
            rng,
            &NoopRecorder,
        )
    }

    /// [`LoadPredictor::predict`] with solver telemetry routed into `rec`
    /// (see [`GameEngine::solve_recorded`]). Bit-identical results to
    /// [`LoadPredictor::predict`] under the same seed.
    ///
    /// # Errors
    ///
    /// Same as [`LoadPredictor::predict`].
    pub fn predict_recorded(
        &self,
        community: &Community,
        prices: &PriceSignal,
        rng: &mut impl Rng,
        rec: &dyn Recorder,
    ) -> Result<PredictedResponse, SolverError> {
        self.predict_with_assignment(community, PriceAssignment::Uniform(prices), rng, rec)
    }

    /// Predicts the community response when each customer's meter reports
    /// its own price signal (`signals[i]` for customer `i`) — the
    /// mixed-compromise setting where hacked meters see a manipulated
    /// signal.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError`] when the signal count is wrong or the game
    /// engine fails.
    pub fn predict_per_customer(
        &self,
        community: &Community,
        signals: &[PriceSignal],
        rng: &mut impl Rng,
    ) -> Result<PredictedResponse, SolverError> {
        self.predict_with_assignment(
            community,
            PriceAssignment::PerCustomer(signals),
            rng,
            &NoopRecorder,
        )
    }

    /// [`LoadPredictor::predict_per_customer`] with solver telemetry routed
    /// into `rec`.
    ///
    /// # Errors
    ///
    /// Same as [`LoadPredictor::predict_per_customer`].
    pub fn predict_per_customer_recorded(
        &self,
        community: &Community,
        signals: &[PriceSignal],
        rng: &mut impl Rng,
        rec: &dyn Recorder,
    ) -> Result<PredictedResponse, SolverError> {
        self.predict_with_assignment(community, PriceAssignment::PerCustomer(signals), rng, rec)
    }

    /// The community's realized response when `hacked_meters` deviate
    /// *unilaterally* from a committed day-ahead plan: each hacked home
    /// re-optimizes against the committed aggregate using the manipulated
    /// price, while honest homes keep their committed schedules (day-ahead
    /// coordination has already closed; nobody re-equilibrates intraday).
    ///
    /// `committed` must be a response previously produced by this predictor
    /// for the same community (its schedules are reused as warm starts and
    /// as the honest homes' plans).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError`] if a hacked home's subproblem fails or the
    /// committed response does not match the community.
    pub fn respond_unilaterally(
        &self,
        community: &Community,
        committed: &PredictedResponse,
        manipulated_price: &PriceSignal,
        hacked_meters: &[MeterId],
        rng: &mut impl Rng,
    ) -> Result<PredictedResponse, SolverError> {
        self.respond_unilaterally_recorded(
            community,
            committed,
            manipulated_price,
            hacked_meters,
            rng,
            &NoopRecorder,
        )
    }

    /// [`LoadPredictor::respond_unilaterally`] with solver telemetry routed
    /// into `rec` (the per-meter best responses tally DP/CE work).
    ///
    /// # Errors
    ///
    /// Same as [`LoadPredictor::respond_unilaterally`].
    pub fn respond_unilaterally_recorded(
        &self,
        community: &Community,
        committed: &PredictedResponse,
        manipulated_price: &PriceSignal,
        hacked_meters: &[MeterId],
        rng: &mut impl Rng,
        rec: &dyn Recorder,
    ) -> Result<PredictedResponse, SolverError> {
        let stripped_storage;
        let community_model: &Community = if self.net_metering {
            community
        } else {
            stripped_storage = strip_der(community);
            &stripped_storage
        };
        let committed_schedules = committed.schedule.customer_schedules();
        if committed_schedules.len() != community_model.len() {
            return Err(SolverError::Config(nms_types::ValidateError::new(format!(
                "committed response covers {} customers, community has {}",
                committed_schedules.len(),
                community_model.len()
            ))));
        }
        let mut response_config = self.game.response;
        if !self.net_metering {
            response_config.use_battery = false;
        }
        let cost_model = CostModel::new(manipulated_price, self.tariff);
        let horizon = community_model.horizon();
        let total = TimeSeries::from_fn(horizon, |h| {
            committed_schedules.iter().map(|s| s.trading()[h]).sum()
        });

        let mut schedules = committed_schedules.to_vec();
        for meter in hacked_meters {
            let index = meter.customer().index();
            let customer = community_model.customer(meter.customer()).ok_or_else(|| {
                SolverError::Config(nms_types::ValidateError::new(format!(
                    "{meter} is not in the community"
                )))
            })?;
            let committed_own = &committed_schedules[index];
            let others = total
                .sub(committed_own.trading())
                .expect("aligned horizons");
            schedules[index] = nms_solver::best_response_recorded(
                customer,
                &others,
                cost_model,
                &response_config,
                Some(committed_own),
                rng,
                rec,
            )?;
        }

        let schedule = CommunitySchedule::new(horizon, schedules)?;
        let grid_demand = schedule.grid_demand_clamped();
        let par = grid_demand.par().unwrap_or(1.0);
        Ok(PredictedResponse {
            grid_demand,
            par,
            converged: committed.converged,
            rounds: 0,
            schedule,
        })
    }

    fn predict_with_assignment(
        &self,
        community: &Community,
        prices: PriceAssignment<'_>,
        rng: &mut impl Rng,
        rec: &dyn Recorder,
    ) -> Result<PredictedResponse, SolverError> {
        let stripped_storage;
        let community_model: &Community = if self.net_metering {
            community
        } else {
            stripped_storage = strip_der(community);
            &stripped_storage
        };
        let mut game = self.game;
        if !self.net_metering {
            game.response.use_battery = false;
        }
        let engine = GameEngine::with_price_assignment(community_model, prices, self.tariff, game)
            .map_err(SolverError::Config)?;
        let outcome = engine.solve_recorded(rng, rec)?;
        let grid_demand = outcome.schedule.grid_demand_clamped();
        let par = grid_demand.par().unwrap_or(1.0);
        Ok(PredictedResponse {
            grid_demand,
            par,
            converged: outcome.converged,
            rounds: outcome.rounds,
            schedule: outcome.schedule,
        })
    }
}

/// Rebuilds the community with every customer's PV panel and battery
/// removed — the "ignore net metering" world model.
fn strip_der(community: &Community) -> Community {
    let customers: Vec<Customer> = community
        .iter()
        .map(|customer| {
            Customer::builder(customer.id(), customer.horizon())
                .appliances(customer.appliances().iter().cloned())
                .base_load(customer.base_load().clone())
                .build()
                .expect("stripping DER preserves appliance validity")
        })
        .collect();
    Community::new(community.horizon(), customers)
        .expect("stripped community preserves ids and horizon")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_smarthome::{
        clear_sky_profile, Appliance, ApplianceKind, Battery, PowerLevels, PvPanel, TaskSpec,
    };
    use nms_types::{ApplianceId, CustomerId, Horizon, Kw, Kwh};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    fn der_community(n: usize) -> Community {
        let customers: Vec<Customer> = (0..n)
            .map(|i| {
                Customer::builder(CustomerId::new(i), day())
                    .appliance(Appliance::new(
                        ApplianceId::new(0),
                        ApplianceKind::WaterHeater,
                        PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                        TaskSpec::new(Kwh::new(3.0), 0, 23).unwrap(),
                    ))
                    .battery(Battery::new(Kwh::new(3.0), Kwh::ZERO).unwrap())
                    .pv(PvPanel::new(Kw::new(2.5), clear_sky_profile(day(), Kw::new(2.5))).unwrap())
                    .build()
                    .unwrap()
            })
            .collect();
        Community::new(day(), customers).unwrap()
    }

    #[test]
    fn strip_der_removes_pv_and_battery() {
        let community = der_community(3);
        assert_eq!(community.trading_customers(), 3);
        let stripped = strip_der(&community);
        assert_eq!(stripped.trading_customers(), 0);
        assert_eq!(stripped.len(), 3);
        assert_eq!(stripped.total_task_energy(), community.total_task_energy());
    }

    #[test]
    fn aware_predictor_sees_midday_dip() {
        let community = der_community(4);
        let prices = PriceSignal::time_of_use(day(), 0.05, 0.2).unwrap();
        let aware =
            LoadPredictor::net_metering_aware(NetMeteringTariff::default(), GameConfig::fast());
        let naive =
            LoadPredictor::ignore_net_metering(NetMeteringTariff::default(), GameConfig::fast());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let aware_response = aware.predict(&community, &prices, &mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let naive_response = naive.predict(&community, &prices, &mut rng).unwrap();

        // The aware model sees far less midday net demand (PV supplies it).
        let midday = |r: &PredictedResponse| (10..15).map(|h| r.grid_demand[h]).sum::<f64>();
        assert!(
            midday(&aware_response) < midday(&naive_response) - 1.0,
            "aware {} vs naive {}",
            midday(&aware_response),
            midday(&naive_response)
        );
        // Total *consumption* is identical — the tasks are the same.
        assert!(
            (aware_response.load().total().value() - naive_response.load().total().value()).abs()
                < 1e-6
        );
    }

    #[test]
    fn par_is_reported_and_finite() {
        let community = der_community(3);
        let prices = PriceSignal::flat(day(), 0.1).unwrap();
        let predictor =
            LoadPredictor::net_metering_aware(NetMeteringTariff::default(), GameConfig::fast());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let response = predictor.predict(&community, &prices, &mut rng).unwrap();
        assert!(response.par.is_finite());
        assert!(response.par >= 1.0 - 1e-9);
    }

    #[test]
    fn zero_price_window_attracts_load_in_prediction() {
        // The Fig 5 mechanism through the full predictor.
        let community = der_community(4);
        let mut series = TimeSeries::filled(day(), 0.2);
        series[16] = 0.0;
        series[17] = 0.0;
        let attacked = PriceSignal::new(series).unwrap();
        let clean = PriceSignal::flat(day(), 0.2).unwrap();

        let predictor =
            LoadPredictor::ignore_net_metering(NetMeteringTariff::default(), GameConfig::fast());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let under_attack = predictor.predict(&community, &attacked, &mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let baseline = predictor.predict(&community, &clean, &mut rng).unwrap();

        assert!(
            under_attack.par > baseline.par + 0.2,
            "attack PAR {} vs baseline {}",
            under_attack.par,
            baseline.par
        );
        let window_load: f64 = (16..18).map(|h| under_attack.grid_demand[h]).sum();
        assert!(window_load > baseline.grid_demand[16] + baseline.grid_demand[17]);
    }
}
