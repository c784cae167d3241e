//! Newtypes for physical and monetary quantities.
//!
//! Each quantity wraps an `f64` and implements only physically meaningful
//! arithmetic. Cross-type products follow the dimensional algebra of the
//! paper's pricing model: `PricePerKwh × Kwh = Dollars`, `Kw × hours = Kwh`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Declares a transparent `f64` newtype with the standard arithmetic ops.
macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw `f64` value expressed in this quantity's unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in this quantity's unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of the two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of the two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps the quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN, mirroring
            /// [`f64::clamp`].
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` when the underlying value is finite
            /// (neither infinite nor NaN).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns `true` when the quantity is non-negative.
            #[inline]
            pub fn is_non_negative(self) -> bool {
                self.0 >= 0.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// An amount of electrical energy in kilowatt-hours.
    ///
    /// Negative values are meaningful in net-metering contexts: a negative
    /// trading amount `y` means energy *sold back* to the grid (paper §2.2).
    Kwh,
    "kWh"
);

quantity!(
    /// An electrical power level in kilowatts.
    ///
    /// Appliance power levels `x_m^h` (paper §2.1) are expressed in kW;
    /// multiplying by an execution duration in hours yields [`Kwh`].
    Kw,
    "kW"
);

quantity!(
    /// A monetary amount in dollars. May be negative (net-metering credit).
    Dollars,
    "$"
);

quantity!(
    /// A unit electricity price in dollars per kilowatt-hour.
    ///
    /// In the paper's quadratic cost model this is the *guideline price*
    /// coefficient `p_h`; the community-level cost at slot `h` is
    /// `p_h · (Σ_n y_n^h)²`, so strictly the coefficient carries units of
    /// $/kWh². We keep the conventional name because the guideline price is
    /// broadcast and plotted as a $/kWh signal.
    PricePerKwh,
    "$/kWh"
);

impl Kw {
    /// Energy delivered when running at this power for `hours` hours.
    #[inline]
    pub fn for_hours(self, hours: f64) -> Kwh {
        Kwh::new(self.0 * hours)
    }
}

impl Mul<Kwh> for PricePerKwh {
    type Output = Dollars;
    #[inline]
    fn mul(self, rhs: Kwh) -> Dollars {
        Dollars::new(self.value() * rhs.value())
    }
}

impl Mul<PricePerKwh> for Kwh {
    type Output = Dollars;
    #[inline]
    fn mul(self, rhs: PricePerKwh) -> Dollars {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_subtract_energy() {
        let a = Kwh::new(2.0);
        let b = Kwh::new(0.5);
        assert_eq!(a + b, Kwh::new(2.5));
        assert_eq!(a - b, Kwh::new(1.5));
    }

    #[test]
    fn price_times_energy_is_money() {
        let bill = PricePerKwh::new(0.2) * Kwh::new(10.0);
        assert_eq!(bill, Dollars::new(2.0));
        let bill2 = Kwh::new(10.0) * PricePerKwh::new(0.2);
        assert_eq!(bill, bill2);
    }

    #[test]
    fn power_over_duration_is_energy() {
        assert_eq!(Kw::new(1.5).for_hours(2.0), Kwh::new(3.0));
    }

    #[test]
    fn like_ratio_is_dimensionless() {
        let ratio: f64 = Kwh::new(3.0) / Kwh::new(2.0);
        assert!((ratio - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negation_models_sold_energy() {
        let sold = -Kwh::new(1.2);
        assert!(!sold.is_non_negative());
        assert_eq!(sold.abs(), Kwh::new(1.2));
    }

    #[test]
    fn sum_of_iterator() {
        let total: Kwh = [Kwh::new(1.0), Kwh::new(2.0), Kwh::new(3.0)].iter().sum();
        assert_eq!(total, Kwh::new(6.0));
        let total2: Kwh = [Kwh::new(1.0), Kwh::new(2.0)].into_iter().sum();
        assert_eq!(total2, Kwh::new(3.0));
    }

    #[test]
    fn clamp_and_minmax() {
        let q = Kwh::new(5.0);
        assert_eq!(q.clamp(Kwh::ZERO, Kwh::new(3.0)), Kwh::new(3.0));
        assert_eq!(q.max(Kwh::new(7.0)), Kwh::new(7.0));
        assert_eq!(q.min(Kwh::new(7.0)), q);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{:.2}", Kwh::new(1.234)), "1.23 kWh");
        assert_eq!(format!("{:.1}", Dollars::new(2.0)), "2.0 $");
        assert_eq!(format!("{:.3}", PricePerKwh::new(0.1)), "0.100 $/kWh");
        assert_eq!(format!("{:.0}", Kw::new(3.0)), "3 kW");
    }

    #[test]
    fn scalar_multiplication_commutes() {
        assert_eq!(Kwh::new(2.0) * 3.0, 3.0 * Kwh::new(2.0));
    }

    #[test]
    fn conversion_round_trip() {
        let raw = 4.25_f64;
        let q = Kwh::from(raw);
        let back: f64 = q.into();
        assert_eq!(raw, back);
    }

    #[test]
    fn finite_check() {
        assert!(Kwh::new(1.0).is_finite());
        assert!(!Kwh::new(f64::NAN).is_finite());
        assert!(!Kwh::new(f64::INFINITY).is_finite());
    }
}
