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
pub use faults::{
    corrupt_day, corrupt_day_meters, CorruptedDay, CorruptedMeters, FaultPlan, MeterOutage,
};
pub use market::{DayOutcome, Market};
pub use nms_par::Parallelism;
pub use report::{render_series, render_table};
pub use scenario::{CommunityGenerator, PaperScenario};
pub use weather::WeatherModel;
