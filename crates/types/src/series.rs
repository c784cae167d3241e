//! A per-slot time series aligned to a [`Horizon`].

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::error::HorizonMismatchError;
use crate::Horizon;

/// A value per time slot of a [`Horizon`] — the workhorse container for
/// prices, loads, PV generation, and battery trajectories.
///
/// `TimeSeries` deliberately stores its horizon so that arithmetic between
/// series from different horizons fails loudly instead of silently zipping
/// mismatched slots.
///
/// # Examples
///
/// ```
/// use nms_types::{Horizon, TimeSeries};
///
/// let mut load = TimeSeries::filled(Horizon::hourly_day(), 0.0_f64);
/// load[18] = 4.2;
/// assert_eq!(load.iter().filter(|&&x| x > 0.0).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries<T> {
    horizon: Horizon,
    values: Vec<T>,
}

impl<T> TimeSeries<T> {
    /// Builds a series from pre-computed per-slot values.
    ///
    /// # Errors
    ///
    /// Returns [`HorizonMismatchError`] when `values.len()` differs from the
    /// horizon's slot count.
    pub fn from_values(horizon: Horizon, values: Vec<T>) -> Result<Self, HorizonMismatchError> {
        if values.len() != horizon.slots() {
            return Err(HorizonMismatchError {
                expected: horizon.slots(),
                actual: values.len(),
            });
        }
        Ok(Self { horizon, values })
    }

    /// Builds a series by evaluating `f` at each slot index.
    pub fn from_fn(horizon: Horizon, mut f: impl FnMut(usize) -> T) -> Self {
        let values = horizon.slot_indices().map(&mut f).collect();
        Self { horizon, values }
    }

    /// The horizon this series is aligned to.
    #[inline]
    pub fn horizon(&self) -> Horizon {
        self.horizon
    }

    /// Number of slots (equals `self.horizon().slots()`).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: a [`Horizon`] has at least one slot.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Borrowing iterator over slot values.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.values.iter()
    }

    /// Mutable iterator over slot values.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.values.iter_mut()
    }

    /// The values as a slice, in slot order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }

    /// Returns a series over the same horizon with `f` applied per slot.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> TimeSeries<U> {
        TimeSeries {
            horizon: self.horizon,
            values: self.values.iter().map(f).collect(),
        }
    }

    /// Combines two series slot-wise.
    ///
    /// # Errors
    ///
    /// Returns [`HorizonMismatchError`] when the horizons have different slot
    /// counts.
    pub fn zip_with<U, V>(
        &self,
        other: &TimeSeries<U>,
        mut f: impl FnMut(&T, &U) -> V,
    ) -> Result<TimeSeries<V>, HorizonMismatchError> {
        if self.len() != other.len() {
            return Err(HorizonMismatchError {
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(TimeSeries {
            horizon: self.horizon,
            values: self
                .values
                .iter()
                .zip(other.values.iter())
                .map(|(a, b)| f(a, b))
                .collect(),
        })
    }
}

impl<T: Clone> TimeSeries<T> {
    /// A series with every slot set to `value`.
    pub fn filled(horizon: Horizon, value: T) -> Self {
        Self {
            horizon,
            values: vec![value; horizon.slots()],
        }
    }
}

impl TimeSeries<f64> {
    /// Sum of all slot values.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean over slots.
    pub fn mean(&self) -> f64 {
        self.total() / self.len() as f64
    }

    /// Largest slot value (NaN values are ignored).
    pub fn peak(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest slot value (NaN values are ignored).
    pub fn trough(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Index of the largest slot value (first one on ties).
    pub fn peak_slot(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.values.iter().enumerate() {
            if v > self.values[best] {
                best = i;
            }
        }
        best
    }

    /// Peak-to-average ratio, the paper's central load-shape metric.
    ///
    /// Returns `None` when the mean is not strictly positive (a flat-zero or
    /// net-negative profile has no meaningful PAR).
    pub fn par(&self) -> Option<f64> {
        let mean = self.mean();
        (mean > 0.0).then(|| self.peak() / mean)
    }

    /// Slot-wise sum of two aligned series.
    ///
    /// # Errors
    ///
    /// Returns [`HorizonMismatchError`] on differing slot counts.
    pub fn add(&self, other: &Self) -> Result<Self, HorizonMismatchError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Slot-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`HorizonMismatchError`] on differing slot counts.
    pub fn sub(&self, other: &Self) -> Result<Self, HorizonMismatchError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Series with every slot multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        self.map(|v| v * factor)
    }

    /// Root-mean-square error against another aligned series.
    ///
    /// # Errors
    ///
    /// Returns [`HorizonMismatchError`] on differing slot counts.
    pub fn rmse(&self, other: &Self) -> Result<f64, HorizonMismatchError> {
        let diff = self.sub(other)?;
        let mse = diff.values.iter().map(|d| d * d).sum::<f64>() / diff.len() as f64;
        Ok(mse.sqrt())
    }
}

impl<T> Index<usize> for TimeSeries<T> {
    type Output = T;
    #[inline]
    fn index(&self, slot: usize) -> &T {
        &self.values[slot]
    }
}

impl<T> IndexMut<usize> for TimeSeries<T> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.values[slot]
    }
}

impl<'a, T> IntoIterator for &'a TimeSeries<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

impl<T> IntoIterator for TimeSeries<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter()
    }
}

impl<T: fmt::Display> fmt::Display for TimeSeries<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if let Some(p) = f.precision() {
                write!(f, "{v:.p$}")?;
            } else {
                write!(f, "{v}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    #[test]
    fn from_values_checks_length() {
        assert!(TimeSeries::from_values(day(), vec![0.0; 24]).is_ok());
        let err = TimeSeries::from_values(day(), vec![0.0; 23]).unwrap_err();
        assert_eq!(err.expected, 24);
        assert_eq!(err.actual, 23);
    }

    #[test]
    fn from_fn_evaluates_per_slot() {
        let s = TimeSeries::from_fn(day(), |h| h as f64);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[23], 23.0);
        assert_eq!(s.total(), (0..24).sum::<usize>() as f64);
    }

    #[test]
    fn par_of_flat_profile_is_one() {
        let s = TimeSeries::filled(day(), 2.5);
        assert!((s.par().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn par_of_zero_profile_is_none() {
        let s = TimeSeries::filled(day(), 0.0);
        assert!(s.par().is_none());
    }

    #[test]
    fn peak_slot_finds_first_max() {
        let mut s = TimeSeries::filled(day(), 1.0);
        s[5] = 9.0;
        s[7] = 9.0;
        assert_eq!(s.peak_slot(), 5);
        assert_eq!(s.peak(), 9.0);
        assert_eq!(s.trough(), 1.0);
    }

    #[test]
    fn arithmetic_and_rmse() {
        let a = TimeSeries::from_fn(day(), |h| h as f64);
        let b = TimeSeries::filled(day(), 1.0);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum[3], 4.0);
        let diff = sum.sub(&a).unwrap();
        assert!(diff.iter().all(|&v| (v - 1.0).abs() < 1e-12));
        assert!((sum.rmse(&a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_horizons_error() {
        let a = TimeSeries::filled(day(), 1.0);
        let b = TimeSeries::filled(Horizon::hourly(48), 1.0);
        assert!(a.add(&b).is_err());
        assert!(a.zip_with(&b, |x, y| x + y).is_err());
    }

    #[test]
    fn map_and_scaled() {
        let s = TimeSeries::filled(day(), 2.0);
        assert_eq!(s.scaled(3.0)[0], 6.0);
        let labels = s.map(|v| format!("{v}"));
        assert_eq!(labels[0], "2");
    }

    #[test]
    fn display_with_precision() {
        let s = TimeSeries::filled(Horizon::hourly(2), 1.2345);
        assert_eq!(format!("{s:.2}"), "[1.23, 1.23]");
    }

    proptest! {
        #[test]
        fn prop_par_at_least_one(values in proptest::collection::vec(0.01_f64..100.0, 24)) {
            let s = TimeSeries::from_values(day(), values).unwrap();
            let par = s.par().unwrap();
            prop_assert!(par >= 1.0 - 1e-12);
        }

        #[test]
        fn prop_scaling_preserves_par(
            values in proptest::collection::vec(0.01_f64..100.0, 24),
            factor in 0.1_f64..10.0,
        ) {
            let s = TimeSeries::from_values(day(), values).unwrap();
            let par = s.par().unwrap();
            let par_scaled = s.scaled(factor).par().unwrap();
            prop_assert!((par - par_scaled).abs() < 1e-9);
        }

        #[test]
        fn prop_add_commutes(
            a in proptest::collection::vec(-50.0_f64..50.0, 24),
            b in proptest::collection::vec(-50.0_f64..50.0, 24),
        ) {
            let sa = TimeSeries::from_values(day(), a).unwrap();
            let sb = TimeSeries::from_values(day(), b).unwrap();
            let ab = sa.add(&sb).unwrap();
            let ba = sb.add(&sa).unwrap();
            for h in 0..24 {
                prop_assert!((ab[h] - ba[h]).abs() < 1e-12);
            }
        }
    }
}
