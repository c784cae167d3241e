//! The assembled framework configuration (Fig 2's algorithmic flow).

use serde::{Deserialize, Serialize};

use nms_pricing::NetMeteringTariff;
use nms_solver::GameConfig;
use nms_types::ValidateError;

use crate::{LoadPredictor, LongTermConfig, PricePredictor};

/// Whether the framework models net metering (the paper's contribution) or
/// ignores it (the state of the art of [7, 8]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorMode {
    /// Model PV, batteries, and sell-back in both the price predictor and
    /// the load predictor.
    NetMeteringAware,
    /// The prior art: predict prices from price history alone and model
    /// customers as pure consumers.
    IgnoreNetMetering,
}

impl DetectorMode {
    /// Human-readable label matching the paper's table columns.
    pub fn label(&self) -> &'static str {
        match self {
            Self::NetMeteringAware => "Detection Considering Net Metering",
            Self::IgnoreNetMetering => "Detection without Considering Net Metering",
        }
    }
}

/// Everything needed to instantiate one detection framework variant
/// (Fig 2): the price predictor's features, the world model for load
/// prediction, and the POMDP settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameworkConfig {
    /// Aware vs naive.
    pub mode: DetectorMode,
    /// Slots per day of the price series.
    pub slots_per_day: usize,
    /// World model for load prediction.
    pub load: LoadPredictor,
    /// Long-term POMDP settings.
    pub long_term: LongTermConfig,
}

impl FrameworkConfig {
    /// A default configuration for `mode` on `slots_per_day`-slot days.
    pub fn new(mode: DetectorMode, slots_per_day: usize) -> Self {
        let tariff = NetMeteringTariff::default();
        let game = GameConfig::fast();
        let load = match mode {
            DetectorMode::NetMeteringAware => LoadPredictor::net_metering_aware(tariff, game),
            DetectorMode::IgnoreNetMetering => LoadPredictor::ignore_net_metering(tariff, game),
        };
        Self {
            mode,
            slots_per_day,
            load,
            long_term: LongTermConfig::default(),
        }
    }

    /// Validates the assembled configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] for inconsistent pieces (e.g. an aware mode
    /// with a non-net-metering load predictor).
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.slots_per_day == 0 {
            return Err(ValidateError::new("slots_per_day must be positive"));
        }
        let expected = matches!(self.mode, DetectorMode::NetMeteringAware);
        if self.load.net_metering != expected {
            return Err(ValidateError::new(
                "detector mode and load predictor disagree on net metering",
            ));
        }
        self.load.game.validate()?;
        self.long_term.validate()
    }

    /// Builds the price predictor matching the mode.
    pub fn price_predictor(&self) -> PricePredictor {
        match self.mode {
            DetectorMode::NetMeteringAware => {
                PricePredictor::net_metering_aware(self.slots_per_day)
            }
            DetectorMode::IgnoreNetMetering => PricePredictor::naive(self.slots_per_day),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectorMode::*;

    #[test]
    fn presets_are_internally_consistent() {
        for mode in [NetMeteringAware, IgnoreNetMetering] {
            let config = FrameworkConfig::new(mode, 24);
            assert!(config.validate().is_ok(), "{mode:?}");
            assert_eq!(config.load.net_metering, matches!(mode, NetMeteringAware));
            let _ = config.price_predictor();
        }
    }

    #[test]
    fn validation_catches_mode_mismatch() {
        let mut config = FrameworkConfig::new(NetMeteringAware, 24);
        config.load.net_metering = false;
        assert!(config.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_slots() {
        let mut config = FrameworkConfig::new(NetMeteringAware, 24);
        config.slots_per_day = 0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(
            NetMeteringAware.label(),
            "Detection Considering Net Metering"
        );
        assert_eq!(
            IgnoreNetMetering.label(),
            "Detection without Considering Net Metering"
        );
    }

    #[test]
    fn price_predictor_features_differ_by_mode() {
        let aware = FrameworkConfig::new(NetMeteringAware, 24).price_predictor();
        let naive = FrameworkConfig::new(IgnoreNetMetering, 24).price_predictor();
        assert!(aware.features().target_generation);
        assert!(!naive.features().target_generation);
        assert!(!aware.features().net_demand_lags.is_empty());
        assert!(naive.features().net_demand_lags.is_empty());
    }
}
