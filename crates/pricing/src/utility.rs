//! The utility's guideline-price design rule.
//!
//! The paper's core observation is causal: *"Net metering changes the grid
//! energy demand, which is considered by the utility when designing the
//! guideline price"* (§1). This module implements that link — the utility
//! maps its forecast of per-customer net grid demand into the broadcast
//! guideline price, so any change in net demand (e.g. the midday PV dip)
//! shows up in the price signal.

use serde::{Deserialize, Serialize};

use nms_types::{TimeSeries, ValidateError};

use crate::PriceSignal;

/// Parameters of the affine demand-to-price rule
/// `p_h = base + sensitivity · max(D_h, 0) / N`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilityConfig {
    /// Price floor charged even at zero demand ($/kWh-coefficient).
    pub base_price: f64,
    /// Price increase per kWh of average per-customer net demand.
    pub sensitivity: f64,
    /// Hard cap on the designed price.
    pub price_cap: f64,
}

impl UtilityConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when any parameter is negative/non-finite
    /// or the cap is below the base price.
    pub fn validate(&self) -> Result<(), ValidateError> {
        for (name, v) in [
            ("base_price", self.base_price),
            ("sensitivity", self.sensitivity),
            ("price_cap", self.price_cap),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ValidateError::new(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        if self.price_cap < self.base_price {
            return Err(ValidateError::new("price cap below base price"));
        }
        Ok(())
    }
}

impl Default for UtilityConfig {
    fn default() -> Self {
        Self {
            base_price: 0.04,
            sensitivity: 0.03,
            price_cap: 1.0,
        }
    }
}

/// The utility serving the community: designs guideline prices from expected
/// net demand.
///
/// # Examples
///
/// ```
/// use nms_pricing::{Utility, UtilityConfig};
/// use nms_types::{Horizon, TimeSeries};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let utility = Utility::new(UtilityConfig::default(), 100)?;
/// // Demand of 2 kWh per customer in every slot:
/// let demand = TimeSeries::filled(Horizon::hourly_day(), 200.0);
/// let price = utility.design_price(&demand);
/// assert!(price.at(0).value() > UtilityConfig::default().base_price);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Utility {
    config: UtilityConfig,
    customers: usize,
}

impl Utility {
    /// Creates a utility that serves `customers` homes.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] on an invalid config or zero customers.
    pub fn new(config: UtilityConfig, customers: usize) -> Result<Self, ValidateError> {
        config.validate()?;
        if customers == 0 {
            return Err(ValidateError::new(
                "utility must serve at least one customer",
            ));
        }
        Ok(Self { config, customers })
    }

    /// The configured price rule.
    #[inline]
    pub fn config(&self) -> &UtilityConfig {
        &self.config
    }

    /// Number of customers served.
    #[inline]
    pub fn customers(&self) -> usize {
        self.customers
    }

    /// Designs the guideline price from an expected *net grid demand* series
    /// (`Σ_n y_n^h` in kWh per slot; negative slots — community exporting —
    /// price at the base rate).
    ///
    /// # Panics
    ///
    /// Never panics on shape: the output always covers the input's horizon.
    pub fn design_price(&self, expected_net_demand: &TimeSeries<f64>) -> PriceSignal {
        let n = self.customers as f64;
        let series = expected_net_demand.map(|&d| {
            let per_customer = d.max(0.0) / n;
            let raw = self.config.base_price + self.config.sensitivity * per_customer;
            raw.min(self.config.price_cap)
        });
        PriceSignal::new(series)
            .expect("designed prices are non-negative and finite by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_types::Horizon;
    use proptest::prelude::*;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    #[test]
    fn config_validation() {
        assert!(UtilityConfig::default().validate().is_ok());
        let bad = UtilityConfig {
            base_price: -0.1,
            ..UtilityConfig::default()
        };
        assert!(bad.validate().is_err());
        let inverted = UtilityConfig {
            base_price: 0.5,
            price_cap: 0.1,
            ..UtilityConfig::default()
        };
        assert!(inverted.validate().is_err());
        assert!(Utility::new(UtilityConfig::default(), 0).is_err());
    }

    #[test]
    fn price_tracks_demand() {
        let utility = Utility::new(UtilityConfig::default(), 10).unwrap();
        let mut demand = TimeSeries::filled(day(), 10.0);
        demand[19] = 50.0;
        let price = utility.design_price(&demand);
        assert!(price.at(19).value() > price.at(3).value());
        assert_eq!(price.peak_slot(), 19);
    }

    #[test]
    fn exporting_slots_priced_at_base() {
        let utility = Utility::new(UtilityConfig::default(), 10).unwrap();
        let mut demand = TimeSeries::filled(day(), 10.0);
        demand[12] = -30.0; // net export at noon
        let price = utility.design_price(&demand);
        assert!((price.at(12).value() - utility.config().base_price).abs() < 1e-12);
    }

    #[test]
    fn cap_is_enforced() {
        let config = UtilityConfig {
            base_price: 0.04,
            sensitivity: 0.03,
            price_cap: 0.1,
        };
        let utility = Utility::new(config, 1).unwrap();
        let demand = TimeSeries::filled(day(), 1e6);
        let price = utility.design_price(&demand);
        assert!(price.as_series().iter().all(|&p| p <= 0.1 + 1e-12));
    }

    #[test]
    fn zero_sensitivity_implies_flat_price() {
        let config = UtilityConfig {
            sensitivity: 0.0,
            ..UtilityConfig::default()
        };
        let utility = Utility::new(config, 5).unwrap();
        let demand = TimeSeries::from_fn(day(), |h| h as f64 * 3.0);
        let price = utility.design_price(&demand);
        assert!(price
            .as_series()
            .iter()
            .all(|&p| (p - config.base_price).abs() < 1e-12));
    }

    proptest! {
        #[test]
        fn prop_price_monotone_in_demand(
            d1 in 0.0_f64..100.0,
            d2 in 0.0_f64..100.0,
        ) {
            let utility = Utility::new(UtilityConfig::default(), 10).unwrap();
            let p1 = utility.design_price(&TimeSeries::filled(day(), d1)).at(0).value();
            let p2 = utility.design_price(&TimeSeries::filled(day(), d2)).at(0).value();
            if d1 <= d2 {
                prop_assert!(p1 <= p2 + 1e-12);
            }
        }
    }
}
