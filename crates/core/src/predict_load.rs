//! Net-metering-aware energy-load prediction (§3): simulate the community's
//! scheduling response to a guideline price by solving the game.

use nms_obs::Recorder;
use rand::Rng;
use serde::{Deserialize, Serialize};

use nms_pricing::{CostModel, NetMeteringTariff, PriceSignal};
use nms_smarthome::{Community, Customer, LoadProfile};
use nms_solver::{GameConfig, GameEngine, GameOutcome, ResponseWorkspace, SolverError};
use nms_types::{MeterId, TimeSeries, ValidateError};

/// The community's predicted response to a price signal: its demand, load
/// and PAR, and the game's plans and trading lanes behind them.
///
/// No N-customer schedule is built here. A realization lays the hacked
/// homes' [`Deviation`]s over the committed lanes instead
/// ([`PredictedResponse::lanes`], [`PredictedResponse::realized_demand`],
/// [`PredictedResponse::realized_load`]).
#[derive(Debug, Clone)]
pub struct PredictedResponse {
    /// Predicted net grid demand (`Σ_n y_n^h`, clamped at zero).
    pub grid_demand: TimeSeries<f64>,
    /// PAR of the predicted grid demand — the detection statistic.
    pub par: f64,
    /// Whether the game converged within its round budget.
    pub converged: bool,
    /// Best-response rounds the game executed.
    pub rounds: usize,
    /// The solved game, holding the plans and lanes.
    outcome: GameOutcome,
}

/// One hacked home's unilateral deviation from a committed day-ahead plan:
/// its re-optimized trading and load lanes (see
/// [`LoadPredictor::respond_unilaterally`]).
#[derive(Debug, Clone)]
pub struct Deviation {
    customer: usize,
    trading: Vec<f64>,
    load: Vec<f64>,
}

impl Deviation {
    /// The index of the customer that deviated.
    pub fn customer(&self) -> usize {
        self.customer
    }
}

impl PredictedResponse {
    /// The predicted community consumption profile `L_h`.
    pub fn load(&self) -> &LoadProfile {
        &self.outcome.load
    }

    /// The solved game behind the prediction. For a predictor that ignores
    /// net metering it is the game of the DER-stripped community.
    pub fn outcome(&self) -> &GameOutcome {
        &self.outcome
    }

    /// Every customer's trading lane, in customer order, with each of
    /// `deviations` laid over its customer's committed lane (a later
    /// deviation of the same customer wins).
    pub fn lanes<'a>(&'a self, deviations: &'a [Deviation]) -> Vec<&'a [f64]> {
        let mut lanes: Vec<&[f64]> = (0..self.outcome.customers())
            .map(|index| self.outcome.trading(index))
            .collect();
        for deviation in deviations {
            lanes[deviation.customer] = &deviation.trading;
        }
        lanes
    }

    /// The net grid demand (`Σ_n y_n^h`, clamped at zero) with
    /// `deviations` laid over the committed lanes: per slot, in customer
    /// order, by `Iterator::sum`, the sum an N-customer schedule takes.
    /// Without deviations it is the prediction's own
    /// [`grid_demand`](Self::grid_demand).
    pub fn realized_demand(&self, deviations: &[Deviation]) -> TimeSeries<f64> {
        if deviations.is_empty() {
            return self.grid_demand.clone();
        }
        let lanes = self.lanes(deviations);
        TimeSeries::from_fn(self.grid_demand.horizon(), |h| {
            lanes.iter().map(|lane| lane[h]).sum::<f64>().max(0.0)
        })
    }

    /// The community load `L_h` with `deviations` laid over the committed
    /// plans, summed like [`realized_demand`](Self::realized_demand).
    /// `community` is the one predicted. Without deviations it is the
    /// prediction's own [`load`](Self::load).
    pub fn realized_load(&self, community: &Community, deviations: &[Deviation]) -> LoadProfile {
        if deviations.is_empty() {
            return self.outcome.load.clone();
        }
        let mut deviated: Vec<Option<&[f64]>> = vec![None; community.len()];
        for deviation in deviations {
            deviated[deviation.customer] = Some(&deviation.load);
        }
        LoadProfile::new(TimeSeries::from_fn(community.horizon(), |h| {
            community
                .iter()
                .zip(&deviated)
                .enumerate()
                .map(|(index, (customer, load))| match load {
                    Some(load) => load[h],
                    None => self.outcome.plan(index).load(customer, h),
                })
                .sum()
        }))
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

    /// Predicts the community response to `prices`, with solver telemetry
    /// routed into `rec` (see [`GameEngine::solve`]; the result is the same
    /// under any recorder).
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
        let engine = GameEngine::new(community_model, prices, self.tariff, game)
            .map_err(SolverError::Config)?;
        let outcome = engine.solve(rng, rec)?;
        // `CommunitySchedule::grid_demand_clamped` on the outcome's demand.
        let grid_demand = outcome.grid_demand.map(|&y| y.max(0.0));
        let par = grid_demand.par().unwrap_or(1.0);
        Ok(PredictedResponse {
            grid_demand,
            par,
            converged: outcome.converged,
            rounds: outcome.rounds,
            outcome,
        })
    }

    /// The hacked homes' unilateral deviations from a committed day-ahead
    /// plan: each hacked home re-optimizes against the committed aggregate
    /// using the manipulated price, while honest homes keep their committed
    /// plans (day-ahead coordination has already closed; nobody
    /// re-equilibrates intraday).
    ///
    /// `committed` must be a response this predictor produced for the same
    /// community. Only the hacked homes' plans are cloned, as warm starts;
    /// each responds to `others = committed total − own lane`, in
    /// `hacked_meters` order, drawing from `rng`. A response reads only the
    /// committed plan, never another hacked home's response, so the
    /// deviations of a prefix of `hacked_meters` are a prefix of the
    /// result. A predictor that ignores net metering strips the DER of the
    /// hacked homes only. The per-meter best responses tally their DP/CE
    /// work into `rec`.
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
        rec: &dyn Recorder,
    ) -> Result<Vec<Deviation>, SolverError> {
        let outcome = &committed.outcome;
        if outcome.customers() != community.len() {
            return Err(SolverError::Config(ValidateError::new(format!(
                "committed response covers {} customers, community has {}",
                outcome.customers(),
                community.len()
            ))));
        }
        let mut response_config = self.game.response;
        if !self.net_metering {
            response_config.use_battery = false;
        }
        let cost_model = CostModel::new(manipulated_price, self.tariff);
        // The committed lanes' per-slot sum in customer order.
        let total = &outcome.grid_demand;

        let mut others = Vec::with_capacity(total.len());
        let mut deviations = Vec::with_capacity(hacked_meters.len());
        let mut ws = ResponseWorkspace::default();
        for meter in hacked_meters {
            let index = meter.customer().index();
            let customer = community.customer(meter.customer()).ok_or_else(|| {
                SolverError::Config(ValidateError::new(format!(
                    "{meter} is not in the community"
                )))
            })?;
            let stripped;
            let customer = if self.net_metering {
                customer
            } else {
                stripped = strip_customer(customer);
                &stripped
            };
            others.clear();
            others.extend(
                total
                    .iter()
                    .zip(outcome.trading(index))
                    .map(|(total, own)| total - own),
            );
            let mut plan = outcome.plan(index).clone();
            let trading = plan
                .respond(
                    customer,
                    &others,
                    cost_model,
                    &response_config,
                    rng,
                    rec,
                    &mut ws,
                )?
                .to_vec();
            let load = (0..total.len()).map(|h| plan.load(customer, h)).collect();
            deviations.push(Deviation {
                customer: index,
                trading,
                load,
            });
        }
        Ok(deviations)
    }
}

/// Rebuilds the community with every customer's PV panel and battery
/// removed — the "ignore net metering" world model.
fn strip_der(community: &Community) -> Community {
    let customers: Vec<Customer> = community.iter().map(strip_customer).collect();
    Community::new(community.horizon(), customers)
        .expect("stripped community preserves ids and horizon")
}

/// One customer with its PV panel and battery removed.
fn strip_customer(customer: &Customer) -> Customer {
    Customer::builder(customer.id(), customer.horizon())
        .appliances(customer.appliances().iter().cloned())
        .base_load(customer.base_load().clone())
        .build()
        .expect("stripping DER preserves appliance validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_obs::NoopRecorder;
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
        let aware_response = aware
            .predict(&community, &prices, &mut rng, &NoopRecorder)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let naive_response = naive
            .predict(&community, &prices, &mut rng, &NoopRecorder)
            .unwrap();

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
        let response = predictor
            .predict(&community, &prices, &mut rng, &NoopRecorder)
            .unwrap();
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
        let under_attack = predictor
            .predict(&community, &attacked, &mut rng, &NoopRecorder)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let baseline = predictor
            .predict(&community, &clean, &mut rng, &NoopRecorder)
            .unwrap();

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
