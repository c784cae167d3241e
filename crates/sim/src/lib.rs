//! Simulation harness: synthetic communities, the utility-in-the-loop
//! market, the long-term attack/detection simulation, and runners for every
//! figure and table of the paper's evaluation (§5).
//!
//! The paper's setup ("a community consisting of 500 customers", energy
//! consumption "similar to the previous works [8, 7]") is not public, so
//! this crate synthesizes it from the documented appliance catalog, a
//! seeded weather model for PV output, and a utility that designs guideline
//! prices from net demand — see DESIGN.md's substitution table.
//!
//! # Experiment index
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Fig 3 (naive prediction) | [`experiments::run_fig3`] |
//! | Fig 4 (net-metering-aware prediction) | [`experiments::run_fig4`] |
//! | Fig 5 (attack impact) | [`experiments::run_fig5`] |
//! | Fig 6 (observation accuracy) | [`experiments::run_fig6`] |
//! | Table 1 (detection comparison) | [`experiments::run_table1`] |
//!
//! # Examples
//!
//! ```no_run
//! use nms_sim::{experiments, PaperScenario};
//!
//! # fn main() -> Result<(), nms_sim::SimError> {
//! let scenario = PaperScenario::small(30, 42);
//! let fig4 = experiments::run_fig4(&scenario)?;
//! println!("{}", fig4.render());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod detection;
mod error;
pub mod experiments;
mod faults;
pub mod export;
pub mod journal;
mod market;
mod report;
mod scenario;
pub mod sweeps;
mod weather;

pub use calibrate::DetectorCalibration;
pub use detection::{LongTermRunConfig, LongTermRunResult, SupervisedOptions, SupervisedRun};
pub use error::SimError;
pub use faults::{corrupt_day_meters, CorruptedMeters, FaultPlan, MeterOutage};
pub use market::{DayOutcome, Market};
pub use nms_par::Parallelism;
pub use report::{render_series, render_table};
pub use scenario::{CommunityGenerator, PaperScenario};
pub use weather::WeatherModel;

#[cfg(test)]
mod tests {
    use nms_core::{LoadPredictor, PredictedResponse};
    use nms_obs::Recorder;
    use nms_pricing::{CostModel, PriceSignal};
    use nms_smarthome::{Community, CommunitySchedule, Customer};
    use nms_solver::{best_response, ResponseWorkspace};
    use nms_types::{MeterId, TimeSeries};
    use rand::Rng;

    /// The schedule form of `LoadPredictor::respond_unilaterally`, as it
    /// stood before the lane form replaced it: every committed customer
    /// schedule built, the hacked ones replaced by `best_response`
    /// warm-started from their schedules, and the N-customer schedule built
    /// over them. `calibrate::tests` and `detection::tests` compare the
    /// lane form against it bit for bit.
    pub(crate) fn respond_unilaterally_reference(
        predictor: &LoadPredictor,
        community: &Community,
        committed: &PredictedResponse,
        manipulated_price: &PriceSignal,
        hacked_meters: &[MeterId],
        rng: &mut impl Rng,
        rec: &dyn Recorder,
    ) -> CommunitySchedule {
        let mut response_config = predictor.game.response;
        let community = if predictor.net_metering {
            community.clone()
        } else {
            response_config.use_battery = false;
            let stripped = community.iter().map(|customer| {
                Customer::builder(customer.id(), customer.horizon())
                    .appliances(customer.appliances().iter().cloned())
                    .base_load(customer.base_load().clone())
                    .build()
                    .unwrap()
            });
            Community::new(community.horizon(), stripped.collect()).unwrap()
        };
        let committed = committed.outcome().clone().into_schedule(&community).unwrap();
        let committed_schedules = committed.customer_schedules();
        let cost_model = CostModel::new(manipulated_price, predictor.tariff);
        let horizon = community.horizon();
        let total = TimeSeries::from_fn(horizon, |h| {
            committed_schedules.iter().map(|s| s.trading()[h]).sum()
        });
        let mut schedules = committed_schedules.to_vec();
        let mut ws = ResponseWorkspace::default();
        for meter in hacked_meters {
            let index = meter.customer().index();
            let customer = community.customer(meter.customer()).unwrap();
            let committed_own = &committed_schedules[index];
            let others = total.sub(committed_own.trading()).unwrap();
            schedules[index] = best_response(
                customer,
                others.as_slice(),
                cost_model,
                &response_config,
                Some(committed_own),
                rng,
                rec,
                &mut ws,
            )
            .unwrap();
        }
        CommunitySchedule::new(horizon, schedules).unwrap()
    }
}
