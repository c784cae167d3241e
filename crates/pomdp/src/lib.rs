//! A finite partially observable Markov decision process (POMDP) substrate
//! (paper §4.2, following Kaelbling–Littman–Cassandra \[4\]).
//!
//! The paper's long-term detector is a POMDP `⟨S, O, A, T, R, Ω⟩` whose
//! states count hacked smart meters, whose observations are buckets of the
//! measured PAR excess, and whose two actions are *continue monitoring*
//! and *check & fix*. This crate provides the general machinery:
//!
//! * [`Pomdp`] — validated model (transition, observation, reward tensors);
//! * [`Belief`] — Bayesian belief tracking over states;
//! * [`QmdpPolicy`] / [`PbviPolicy`] — two standard approximate solvers
//!   (QMDP underestimates information value; point-based value iteration
//!   handles it properly at higher cost);
//! * [`rollout`] — Monte-Carlo policy evaluation against the generative
//!   model.
//!
//! # Examples
//!
//! ```
//! use nms_pomdp::{Belief, Pomdp, Policy, QmdpPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The classic 2-state tiger-style problem, reduced: state 0 = safe,
//! // state 1 = hacked; action 0 = wait, action 1 = fix.
//! let pomdp = Pomdp::builder(2, 2, 2)
//!     .transition(0, vec![vec![0.9, 0.1], vec![0.0, 1.0]])
//!     .transition(1, vec![vec![1.0, 0.0], vec![1.0, 0.0]])
//!     .observation(0, vec![vec![0.8, 0.2], vec![0.2, 0.8]])
//!     .observation(1, vec![vec![0.8, 0.2], vec![0.2, 0.8]])
//!     .reward_fn(|action, state, _| {
//!         let damage = if state == 1 { -10.0 } else { 0.0 };
//!         let labor = if action == 1 { -2.0 } else { 0.0 };
//!         damage + labor
//!     })
//!     .discount(0.9)
//!     .build()?;
//! let policy = QmdpPolicy::solve(&pomdp, 1e-9, 1000);
//! // Certain compromise ⇒ fix.
//! assert_eq!(policy.action(&Belief::point(2, 1)), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod belief;
mod grid;
mod model;
mod rollout;
mod solvers;

pub use belief::Belief;
pub use grid::{GridConfig, GridPolicy};
pub use model::{BuildPomdpError, Pomdp, PomdpBuilder};
pub use rollout::{rollout, RolloutOutcome};
pub use solvers::{PbviConfig, PbviPolicy, Policy, QmdpPolicy};
