//! Home-level distributed generation: the rooftop PV panel (paper §2.2).
//!
//! The paper assumes the renewable generation `θ_n^h` is "approximately known
//! in advance through prediction", so a panel carries its per-slot generation
//! profile directly. The [`clear_sky_profile`] helper produces the canonical
//! bell-shaped daytime curve that, once aggregated over a community, creates
//! the midday grid-demand dip that the whole paper revolves around.

use serde::{Deserialize, Serialize};

use nms_types::{Horizon, Kw, Kwh, TimeSeries, ValidateError};

/// A rooftop PV installation with a nameplate rating and a per-slot
/// generation profile `θ_n^h`.
///
/// # Examples
///
/// ```
/// use nms_smarthome::{clear_sky_profile, PvPanel};
/// use nms_types::{Horizon, Kw};
///
/// let horizon = Horizon::hourly_day();
/// let panel = PvPanel::new(Kw::new(4.0), clear_sky_profile(horizon, Kw::new(4.0)))?;
/// // Solar panels generate nothing at midnight and peak near noon.
/// assert_eq!(panel.generation(0).value(), 0.0);
/// assert!(panel.generation(12).value() > panel.generation(8).value());
/// # Ok::<(), nms_types::ValidateError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PvPanel {
    rating: Kw,
    profile: TimeSeries<f64>,
}

impl PvPanel {
    /// Creates a panel from its nameplate rating and per-slot generation
    /// (kWh per slot).
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when any profile entry is negative,
    /// non-finite, or exceeds what the rating could deliver in one slot.
    pub fn new(rating: Kw, profile: TimeSeries<f64>) -> Result<Self, ValidateError> {
        if !rating.is_finite() || !rating.is_non_negative() {
            return Err(ValidateError::new(
                "pv rating must be finite and non-negative",
            ));
        }
        let cap = rating.for_hours(profile.horizon().slot_hours()).value();
        for (slot, &gen) in profile.iter().enumerate() {
            if !gen.is_finite() || gen < 0.0 {
                return Err(ValidateError::new(format!(
                    "pv generation at slot {slot} must be finite and non-negative"
                )));
            }
            if gen > cap + 1e-9 {
                return Err(ValidateError::new(format!(
                    "pv generation {gen:.3} kWh at slot {slot} exceeds rating cap {cap:.3} kWh"
                )));
            }
        }
        Ok(Self { rating, profile })
    }

    /// A home without PV: zero rating, zero generation.
    pub fn none(horizon: Horizon) -> Self {
        Self {
            rating: Kw::ZERO,
            profile: TimeSeries::filled(horizon, 0.0),
        }
    }

    /// Nameplate rating in kW.
    #[inline]
    pub fn rating(&self) -> Kw {
        self.rating
    }

    /// Generation at `slot`, in kWh.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the profile's horizon.
    #[inline]
    pub fn generation(&self, slot: usize) -> Kwh {
        Kwh::new(self.profile[slot])
    }

    /// The full generation profile (kWh per slot).
    #[inline]
    pub fn profile(&self) -> &TimeSeries<f64> {
        &self.profile
    }

    /// Total energy generated over the horizon.
    pub fn total_generation(&self) -> Kwh {
        Kwh::new(self.profile.total())
    }

    /// Returns `true` for a panel that generates anything at all.
    pub fn is_generating(&self) -> bool {
        self.profile.iter().any(|&g| g > 0.0)
    }
}

/// The deterministic clear-sky generation curve for a panel of nameplate
/// `rating`: zero outside 06:00–18:00 and a raised-cosine bell peaking at
/// noon, discretized per slot (kWh per slot).
///
/// Real irradiance data is proprietary to the paper's setup; this standard
/// analytic substitute produces the same qualitative shape (nothing at night,
/// maximum at midday) that drives the net-metering demand dip. Weather
/// randomness is layered on top by `nms-sim`.
pub fn clear_sky_profile(horizon: Horizon, rating: Kw) -> TimeSeries<f64> {
    const SUNRISE: f64 = 6.0;
    const SUNSET: f64 = 18.0;
    TimeSeries::from_fn(horizon, |slot| {
        let hour = horizon.hour_of_day(slot) + horizon.slot_hours() / 2.0;
        if hour <= SUNRISE || hour >= SUNSET {
            return 0.0;
        }
        // Raised cosine: 0 at sunrise/sunset, 1 at solar noon.
        let phase = (hour - SUNRISE) / (SUNSET - SUNRISE);
        let irradiance = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
        rating.for_hours(horizon.slot_hours()).value() * irradiance
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    #[test]
    fn clear_sky_is_zero_at_night_and_peaks_midday() {
        let profile = clear_sky_profile(day(), Kw::new(4.0));
        assert_eq!(profile[0], 0.0);
        assert_eq!(profile[23], 0.0);
        assert_eq!(profile[5], 0.0);
        let peak_slot = profile.peak_slot();
        assert!((11..=12).contains(&peak_slot), "peak at {peak_slot}");
        assert!(profile.peak() > 3.0);
    }

    #[test]
    fn clear_sky_respects_rating_cap() {
        let rating = Kw::new(5.0);
        let profile = clear_sky_profile(day(), rating);
        assert!(PvPanel::new(rating, profile).is_ok());
    }

    #[test]
    fn panel_rejects_generation_above_rating() {
        let mut profile = TimeSeries::filled(day(), 0.0);
        profile[12] = 3.0;
        assert!(PvPanel::new(Kw::new(2.0), profile).is_err());
    }

    #[test]
    fn panel_rejects_negative_or_nan_generation() {
        let mut profile = TimeSeries::filled(day(), 0.0);
        profile[3] = -0.5;
        assert!(PvPanel::new(Kw::new(2.0), profile).is_err());
        let mut profile = TimeSeries::filled(day(), 0.0);
        profile[3] = f64::NAN;
        assert!(PvPanel::new(Kw::new(2.0), profile).is_err());
        assert!(PvPanel::new(Kw::new(-2.0), TimeSeries::filled(day(), 0.0)).is_err());
    }

    #[test]
    fn none_panel_generates_nothing() {
        let panel = PvPanel::none(day());
        assert!(!panel.is_generating());
        assert_eq!(panel.total_generation(), Kwh::ZERO);
        assert_eq!(panel.rating(), Kw::ZERO);
    }

    #[test]
    fn total_generation_accumulates() {
        let panel = PvPanel::new(Kw::new(4.0), clear_sky_profile(day(), Kw::new(4.0))).unwrap();
        let by_hand: f64 = (0..24).map(|h| panel.generation(h).value()).sum();
        assert!((panel.total_generation().value() - by_hand).abs() < 1e-12);
        assert!(panel.total_generation().value() > 10.0);
    }

    #[test]
    fn multiday_profile_repeats_daily_shape() {
        let two_days = Horizon::hourly(48);
        let profile = clear_sky_profile(two_days, Kw::new(4.0));
        for h in 0..24 {
            assert!((profile[h] - profile[h + 24]).abs() < 1e-12);
        }
    }
}
