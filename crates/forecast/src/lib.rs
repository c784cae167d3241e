//! Forecasting substrate: ε-support-vector regression implemented from
//! scratch (paper §4.1, following the LS-SVM time-series approach of \[10\]),
//! plus the feature maps that turn price/renewable/demand histories into
//! training sets.
//!
//! The paper predicts the next day's guideline price two ways:
//!
//! * *naive* (\[8\]): SVR on the lagged price series `p` alone;
//! * *net-metering aware* (this paper): SVR on the series
//!   `G(p, V, D)` that also sees the renewable generation `V` and energy
//!   demand `D` — concretely, the net-demand `D − V` features that drive
//!   the utility's price design.
//!
//! No external ML crate is used: the dual problem is solved by a pairwise
//! coordinate (SMO-style) method under the equality and box constraints.
//!
//! # Examples
//!
//! ```
//! use nms_forecast::{Kernel, Svr, SvrParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Learn y = 2x − 1 from a handful of points.
//! let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 10.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - 1.0).collect();
//! let (model, _report) = Svr::fit(&xs, &ys, &SvrParams::default(), None)?;
//! let prediction = model.predict(&[0.55]);
//! assert!((prediction - 0.1).abs() < 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod features;
mod kernel;
mod metrics;
mod scaler;
mod svr;

pub use baseline::seasonal_mean_forecast;
pub use features::{FeatureConfig, PriceHistory, SlidingWindowDataset};
pub use kernel::Kernel;
pub use metrics::rmse;
pub use scaler::StandardScaler;
pub use svr::{Svr, SvrFitReport, SvrParams, TrainSvrError};
