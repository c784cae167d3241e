//! The smart home model of the DAC'15 net-metering paper (§2): appliances
//! with discrete power levels and deadline-constrained tasks, home batteries,
//! rooftop PV panels, customers that bundle all three behind a smart meter,
//! and the community that aggregates `N` customers into a grid-level load.
//!
//! This crate is the *data model* substrate: it knows what a feasible
//! schedule looks like and how to measure load shapes (PAR), but contains no
//! optimization. Schedulers live in `nms-solver`; detection in `nms-core`.
//!
//! # Examples
//!
//! ```
//! use nms_smarthome::{Appliance, ApplianceKind, PowerLevels, TaskSpec};
//! use nms_types::{ApplianceId, Horizon, Kw, Kwh};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let horizon = Horizon::hourly_day();
//! let washer = Appliance::new(
//!     ApplianceId::new(0),
//!     ApplianceKind::WashingMachine,
//!     PowerLevels::new(vec![Kw::new(0.5), Kw::new(1.0)])?,
//!     TaskSpec::new(Kwh::new(2.0), 8, 20)?,
//! );
//! washer.validate(horizon)?;
//! assert!(washer.is_schedulable(horizon));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod appliance;
mod battery;
mod catalog;
mod community;
mod customer;
mod load;
mod pv;
mod schedule;

pub use appliance::{Appliance, ApplianceKind, PowerLevels, TaskSpec};
pub use battery::Battery;
pub use catalog::{catalog_appliance, AppliancePreset, APPLIANCE_PRESETS};
pub use community::Community;
pub use customer::{Customer, CustomerBuilder};
pub use load::LoadProfile;
pub use pv::{clear_sky_profile, PvPanel};
pub use schedule::{
    check_plan, plan_load, plan_trading, ApplianceSchedule, CommunitySchedule, CustomerSchedule,
    ScheduleError,
};
