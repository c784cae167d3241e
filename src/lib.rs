//! netmeter-sentinel — net-metering-aware smart home pricing cyberattack
//! detection.
//!
//! A from-scratch Rust reproduction of *"Impact Assessment of Net Metering
//! on Smart Home Cyberattack Detection"* (DAC 2015): a smart home
//! scheduling substrate (appliances, batteries, PV, quadratic pricing with
//! net metering), the cross-entropy / dynamic-programming game solver of
//! §3, SVR price prediction, pricing-attack models, a POMDP substrate, the
//! detection framework of §4, and a simulation harness reproducing every
//! figure and table of §5.
//!
//! This crate is a façade: it re-exports the workspace's crates under one
//! name so applications can depend on a single package.
//!
//! # Quickstart
//!
//! ```
//! use netmeter_sentinel::sim::{experiments, PaperScenario};
//!
//! # fn main() -> Result<(), netmeter_sentinel::sim::SimError> {
//! // A scaled-down community (use `PaperScenario::paper(seed)` for the
//! // full 500-customer evaluation).
//! let scenario = PaperScenario::small(12, 7);
//! let fig5 = experiments::run_fig5(&scenario)?;
//! assert!(fig5.attacked_par > fig5.clean_par);
//! # Ok(())
//! # }
//! ```
//!
//! # Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`types`] | `Kwh`/`Kw`/`Dollars` quantities, ids, horizons, series |
//! | [`smarthome`] | appliances, batteries, PV, customers, communities |
//! | [`pricing`] | quadratic cost model, net-metering tariff, utility |
//! | [`solver`] | DP scheduler, cross-entropy optimizer, game engine |
//! | [`forecast`] | from-scratch ε-SVR, kernels, feature maps |
//! | [`attack`] | price manipulations and attacker scenarios |
//! | [`pomdp`] | beliefs, the QMDP solver |
//! | [`core`] | the paper's detection framework |
//! | [`sim`] | scenario generation and the paper's experiments |
//! | [`fleet`] | supervised multi-community shard runner with a failure ladder |
//! | [`obs`] | recorder trait, metrics registry, JSONL trace sink, span profiler |
//! | [`serve`] | live telemetry plane: `/metrics`, `/health`, `/trace/tail` HTTP exposition |
//! | [`vfs`] | injectable storage layer with deterministic fault injection |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nms_attack as attack;
pub use nms_core as core;
pub use nms_fleet as fleet;
pub use nms_forecast as forecast;
pub use nms_obs as obs;
pub use nms_pomdp as pomdp;
pub use nms_pricing as pricing;
pub use nms_serve as serve;
pub use nms_sim as sim;
pub use nms_smarthome as smarthome;
pub use nms_solver as solver;
pub use nms_types as types;
pub use nms_vfs as vfs;

/// The canonical daily horizon used throughout the paper (24 hourly slots).
pub fn paper_horizon() -> nms_types::Horizon {
    nms_types::Horizon::hourly_day()
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let horizon = crate::paper_horizon();
        assert_eq!(horizon.slots(), 24);
        let _ = crate::types::Kwh::new(1.0);
        let _ = crate::pricing::NetMeteringTariff::default();
        let _ = crate::sim::PaperScenario::small(2, 0);
    }
}
