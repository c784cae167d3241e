//! The net-metering-aware smart home pricing cyberattack detection framework
//! — the primary contribution of *"Impact Assessment of Net Metering on
//! Smart Home Cyberattack Detection"* (DAC 2015).
//!
//! The framework composes four pieces:
//!
//! 1. [`PricePredictor`] — SVR prediction of the next day's guideline price,
//!    either *naive* (price history only, the state of the art of \[8\]) or
//!    *net-metering aware* (the paper's `G(p, V, D)` features);
//! 2. [`LoadPredictor`] — simulation of the community's scheduling response
//!    to a price signal by solving the scheduling game (§3), either modeling
//!    net metering (PV + battery + sell-back) or ignoring it;
//! 3. [`ParObservationMap`] — the observation side of §4.1's PAR
//!    comparison: the excess of the measured day over the predicted one is
//!    mapped into an *observed hacked-meter bucket* via a calibration table;
//! 4. [`LongTermDetector`] — the POMDP of §4.2 over hacked-meter buckets,
//!    deciding each slot between continuing to monitor (`a_0`) and checking
//!    & fixing the meters (`a_1`).
//!
//! `nms-sim` wires these into the paper's experiments; see DESIGN.md for
//! the experiment index.
//!
//! # Examples
//!
//! ```
//! use nms_core::{DetectorMode, FrameworkConfig};
//!
//! let aware = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
//! let naive = FrameworkConfig::new(DetectorMode::IgnoreNetMetering, 24);
//! assert!(aware.load.net_metering);
//! assert!(!naive.load.net_metering);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod long_term;
mod metrics;
mod pipeline;
mod predict_load;
mod predict_price;
mod sanitize;
mod single_event;

pub use long_term::{
    analytic_observation_matrix, DetectorAction, InvalidActionIndex, LongTermConfig,
    LongTermDetector,
};
pub use metrics::{AccuracyTracker, DetectionReport, LaborTracker};
pub use pipeline::{DetectorMode, FrameworkConfig};
pub use predict_load::{Deviation, LoadPredictor, PredictedResponse};
pub use predict_price::{PredictPriceError, PricePredictor, TrainReport};
pub use sanitize::{
    meter_day_failed, sanitize_series, MeterHealth, MeterQuarantine, MeterState, QuarantineConfig,
    QuarantineEvent, QuarantineTransition, SanitizeConfig, SanitizeReport,
};
pub use single_event::ParObservationMap;
