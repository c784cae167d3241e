//! Manipulations a hacker applies to the received guideline price.

use serde::{Deserialize, Serialize};

use nms_pricing::PriceSignal;
use nms_types::ValidateError;

/// A guideline-price manipulation (paper §4, \[8\]).
///
/// All variants are *pure* transformations of the broadcast signal; the
/// hacked meter shows the manipulated signal to its smart controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PriceAttack {
    /// Set the price to zero inside a daily wall-clock window — the
    /// paper's Fig 5 attack, which drags all flexible load into the window
    /// (a PAR attack).
    ZeroWindow {
        /// Window start (hour of day, inclusive).
        from_hour: f64,
        /// Window end (hour of day, exclusive).
        to_hour: f64,
    },
    /// Multiply the price by a factor inside a window: factors < 1 attract
    /// load (PAR attack), factors > 1 repel it (bill attack when applied to
    /// cheap hours).
    ScaleWindow {
        /// Window start (hour of day, inclusive).
        from_hour: f64,
        /// Window end (hour of day, exclusive).
        to_hour: f64,
        /// Multiplicative factor (≥ 0).
        factor: f64,
    },
    /// Scale the entire signal (a bill-increase attack when > 1: the
    /// scheduler sees inflated prices everywhere and loses the incentive
    /// structure).
    ScaleAll {
        /// Multiplicative factor (≥ 0).
        factor: f64,
    },
    /// Invert the signal around its mean: peaks become valleys, so the
    /// scheduler moves load *into* the true peak hours.
    InvertAroundMean,
}

impl PriceAttack {
    /// Convenience constructor for [`PriceAttack::ZeroWindow`].
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the hours are outside `[0, 24]` or
    /// non-finite.
    pub fn zero_window(from_hour: f64, to_hour: f64) -> Result<Self, ValidateError> {
        validate_window(from_hour, to_hour)?;
        Ok(Self::ZeroWindow { from_hour, to_hour })
    }

    /// Applies the manipulation, producing what the hacked meter reports.
    pub fn apply(&self, received: &PriceSignal) -> PriceSignal {
        let horizon = received.horizon();
        let series = match *self {
            Self::ZeroWindow { from_hour, to_hour } => received.as_series().map({
                let mut slot = 0;
                move |&p| {
                    let v = if horizon.slot_in_daily_window(slot, from_hour, to_hour) {
                        0.0
                    } else {
                        p
                    };
                    slot += 1;
                    v
                }
            }),
            Self::ScaleWindow {
                from_hour,
                to_hour,
                factor,
            } => received.as_series().map({
                let mut slot = 0;
                move |&p| {
                    let v = if horizon.slot_in_daily_window(slot, from_hour, to_hour) {
                        p * factor
                    } else {
                        p
                    };
                    slot += 1;
                    v
                }
            }),
            Self::ScaleAll { factor } => received.as_series().scaled(factor),
            Self::InvertAroundMean => {
                let mean = received.as_series().mean();
                received.as_series().map(|&p| (2.0 * mean - p).max(0.0))
            }
        };
        PriceSignal::new(series).expect("attacks preserve non-negativity")
    }

    /// A short human-readable label for reports.
    pub fn label(&self) -> String {
        match *self {
            Self::ZeroWindow { from_hour, to_hour } => {
                format!("zero-price {from_hour:02.0}:00-{to_hour:02.0}:00")
            }
            Self::ScaleWindow {
                from_hour,
                to_hour,
                factor,
            } => format!("scale×{factor} {from_hour:02.0}:00-{to_hour:02.0}:00"),
            Self::ScaleAll { factor } => format!("scale-all×{factor}"),
            Self::InvertAroundMean => "invert-around-mean".into(),
        }
    }
}

fn validate_window(from_hour: f64, to_hour: f64) -> Result<(), ValidateError> {
    for h in [from_hour, to_hour] {
        if !h.is_finite() || !(0.0..=24.0).contains(&h) {
            return Err(ValidateError::new(format!(
                "attack window hour {h} outside [0, 24]"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_types::Horizon;

    fn tou() -> PriceSignal {
        PriceSignal::time_of_use(Horizon::hourly_day(), 0.05, 0.2).unwrap()
    }

    #[test]
    fn zero_window_zeroes_only_the_window() {
        let attack = PriceAttack::zero_window(16.0, 18.0).unwrap();
        let hacked = attack.apply(&tou());
        assert_eq!(hacked.at(16).value(), 0.0);
        assert_eq!(hacked.at(17).value(), 0.0);
        assert_eq!(hacked.at(18).value(), tou().at(18).value());
        assert_eq!(hacked.at(0).value(), tou().at(0).value());
    }

    #[test]
    fn zero_window_repeats_daily_on_multiday_horizons() {
        let signal = PriceSignal::flat(Horizon::hourly(48), 0.1).unwrap();
        let attack = PriceAttack::zero_window(16.0, 17.0).unwrap();
        let hacked = attack.apply(&signal);
        assert_eq!(hacked.at(16).value(), 0.0);
        assert_eq!(hacked.at(40).value(), 0.0);
        assert_eq!(hacked.at(15).value(), 0.1);
    }

    #[test]
    fn scale_window_and_scale_all() {
        let attack = PriceAttack::ScaleWindow {
            from_hour: 7.0,
            to_hour: 10.0,
            factor: 0.5,
        };
        let hacked = attack.apply(&tou());
        assert!((hacked.at(8).value() - 0.1).abs() < 1e-12);
        assert_eq!(hacked.at(12).value(), tou().at(12).value());

        let attack = PriceAttack::ScaleAll { factor: 2.0 };
        let hacked = attack.apply(&tou());
        assert!((hacked.at(3).value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn invert_swaps_peaks_and_valleys() {
        let signal = tou();
        let hacked = PriceAttack::InvertAroundMean.apply(&signal);
        // Former peak hour is now below the former valley hour.
        assert!(hacked.at(19).value() < hacked.at(3).value());
        // Prices stay non-negative.
        assert!(hacked.as_series().iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn constructors_validate() {
        assert!(PriceAttack::zero_window(-1.0, 5.0).is_err());
        assert!(PriceAttack::zero_window(0.0, 25.0).is_err());
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(
            PriceAttack::zero_window(16.0, 17.0).unwrap().label(),
            "zero-price 16:00-17:00"
        );
        assert!(PriceAttack::ScaleAll { factor: 2.0 }.label().contains("2"));
        assert_eq!(PriceAttack::InvertAroundMean.label(), "invert-around-mean");
    }

    #[test]
    fn attacks_never_produce_negative_prices() {
        for attack in [
            PriceAttack::zero_window(0.0, 24.0).unwrap(),
            PriceAttack::ScaleAll { factor: 0.0 },
            PriceAttack::InvertAroundMean,
        ] {
            let hacked = attack.apply(&tou());
            assert!(hacked.as_series().iter().all(|&p| p >= 0.0));
        }
    }
}
