//! A finite partially observable Markov decision process (POMDP) substrate
//! (paper §4.2, following Kaelbling–Littman–Cassandra \[4\]).
//!
//! The paper's long-term detector is a POMDP `⟨S, O, A, T, R, Ω⟩` whose
//! states count hacked smart meters, whose observations are buckets of the
//! measured PAR excess, and whose two actions are *continue monitoring*
//! and *check & fix*. This crate provides what that detector runs:
//!
//! * [`Pomdp`] — validated model (transition, observation, reward tensors);
//! * [`Belief`] — Bayesian belief tracking over states;
//! * [`QmdpPolicy`] — the QMDP solver (value iteration on the underlying
//!   MDP), whose value is an upper bound on the optimal one.
//!
//! `PbviPolicy` (point-based value iteration, a lower bound) is kept
//! hidden from the docs as the independent oracle the cross-check tests
//! bracket QMDP with; no run uses it.
//!
//! # Examples
//!
//! ```
//! use nms_pomdp::{Belief, Pomdp, QmdpPolicy};
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
mod model;
mod solvers;

pub use belief::Belief;
pub use model::{BuildPomdpError, Pomdp, PomdpBuilder};
pub use solvers::QmdpPolicy;
#[doc(hidden)]
pub use solvers::{PbviConfig, PbviPolicy};
