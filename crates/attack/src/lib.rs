//! Pricing cyberattacks against smart meters (paper §4, following \[8\]).
//!
//! A hacker who compromises a smart meter cannot change what the customer
//! *pays* — billing is on the utility side — but can manipulate the
//! *received guideline price* that the home's scheduler optimizes against.
//! That is enough to herd flexible load: zeroing the price over a window
//! pulls every compromised home's deferrable demand into that window,
//! spiking the community's peak-to-average ratio (Fig 5).
//!
//! # Examples
//!
//! ```
//! use nms_attack::PriceAttack;
//! use nms_pricing::PriceSignal;
//! use nms_types::Horizon;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let received = PriceSignal::flat(Horizon::hourly_day(), 0.1)?;
//! // The paper's Fig 5 attack: price zeroed between 16:00 and 18:00.
//! let attack = PriceAttack::zero_window(16.0, 18.0)?;
//! let manipulated = attack.apply(&received);
//! assert_eq!(manipulated.at(16).value(), 0.0);
//! assert_eq!(manipulated.at(15).value(), 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compromise;
mod price_attack;
mod scenario;

pub use compromise::CompromiseSet;
pub use price_attack::PriceAttack;
pub use scenario::AttackTimeline;
