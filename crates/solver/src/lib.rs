//! Optimization substrate for the net-metering scheduling game (paper §3).
//!
//! Three solvers cooperate to solve Problem **P1** per customer and the
//! community game around it (Algorithm 1):
//!
//! * [`DpScheduler`] — the dynamic-programming appliance scheduler of \[6\]:
//!   exact energy allocation over a deadline window against an arbitrary
//!   per-slot cost function (paper §3.2, line 4 of Algorithm 1).
//! * [`CrossEntropyOptimizer`] — the stochastic cross-entropy method of \[3\]
//!   used to pick the battery-storage trajectory, the part of P1 that is
//!   non-convex (line 5 of Algorithm 1).
//! * [`GameEngine`] — the outer best-response iteration across customers
//!   sharing their trading amounts `y_n^h` until convergence.
//!
//! A deterministic projected-coordinate-descent battery solver
//! ([`coordinate_descent_battery`]) supplies the best response's battery
//! warm start: one sweep, which cross-entropy then refines.
//!
//! # Examples
//!
//! ```
//! use nms_solver::{CeConfig, CeWorkspace, CrossEntropyOptimizer};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), nms_solver::SolverError> {
//! // Minimize a shifted quadratic over a box.
//! let optimizer = CrossEntropyOptimizer::new(CeConfig::default());
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let solution = optimizer.minimize(
//!     |x| (x[0] - 0.3).powi(2) + (x[1] + 0.5).powi(2),
//!     &[(-1.0, 1.0), (-1.0, 1.0)],
//!     &[0.0, 0.0],
//!     &mut rng,
//!     &mut CeWorkspace::default(),
//! )?;
//! assert!((solution.point[0] - 0.3).abs() < 0.05);
//! assert!((solution.point[1] + 0.5).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod battery;
mod ce;
mod dp;
mod error;
mod game;
mod nash;
mod response;
mod workspace;

pub use batch::BatchResponseWorkspace;
pub use battery::{coordinate_descent_battery, optimize_battery, BatteryProblem};
pub use ce::{CeConfig, CeSolution, CeWorkspace, CrossEntropyOptimizer};
pub use dp::{DpScheduler, DpWorkspace};
pub use error::SolverError;
pub use game::{GameConfig, GameEngine, GameOutcome};
pub use nash::{nash_gap, NashGap};
pub use response::{best_response, best_response_reference, Plan, ResponseConfig};
pub use workspace::ResponseWorkspace;
