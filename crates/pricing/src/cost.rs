//! The quadratic cost model with net metering (paper §2.3, Eqns 2–3).

use serde::{Deserialize, Serialize};

use nms_types::{Dollars, TimeSeries, ValidateError};

use crate::PriceSignal;

/// The net-metering tariff parameter `W ≥ 1`: customers selling energy back
/// are paid `p_h / W`, i.e. a fraction `1/W` of the grid unit price.
///
/// `W = 1` is full retail net metering; larger `W` models the "avoided cost"
/// style tariffs some states use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetMeteringTariff {
    w: f64,
}

impl NetMeteringTariff {
    /// Creates a tariff with sell-back divisor `w`.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] unless `w ≥ 1` and finite (the paper
    /// requires `W ≥ 1`: the utility never pays more than retail).
    pub fn new(w: f64) -> Result<Self, ValidateError> {
        if !w.is_finite() || w < 1.0 {
            return Err(ValidateError::new(format!(
                "net metering divisor W must be finite and ≥ 1, got {w}"
            )));
        }
        Ok(Self { w })
    }

    /// Full retail-rate net metering (`W = 1`).
    pub fn full_retail() -> Self {
        Self { w: 1.0 }
    }

    /// The divisor `W`.
    #[inline]
    pub fn w(&self) -> f64 {
        self.w
    }

    /// The fraction of the grid unit price a seller receives (`1/W`).
    #[inline]
    pub fn sell_fraction(&self) -> f64 {
        1.0 / self.w
    }
}

impl Default for NetMeteringTariff {
    /// The paper's typical partial-rate setting, `W = 1.5`.
    fn default() -> Self {
        Self { w: 1.5 }
    }
}

/// Evaluates the paper's cost equations for a given guideline price and
/// tariff.
///
/// With the quadratic model (\[9\]) the *unit* grid price at slot `h` is
/// `p_h · max(Σ_i y_i, 0)`: the more the community draws, the more each
/// marginal kWh costs. A buyer's slot cost is `unit · y_n`; a seller is
/// credited `unit/W · |y_n|` (see the crate docs for the sign convention
/// relative to the paper's Eqn 2).
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    prices: &'a PriceSignal,
    tariff: NetMeteringTariff,
}

impl<'a> CostModel<'a> {
    /// Binds a price signal and a tariff.
    pub fn new(prices: &'a PriceSignal, tariff: NetMeteringTariff) -> Self {
        Self { prices, tariff }
    }

    /// The bound price signal.
    #[inline]
    pub fn prices(&self) -> &PriceSignal {
        self.prices
    }

    /// The bound tariff.
    #[inline]
    pub fn tariff(&self) -> NetMeteringTariff {
        self.tariff
    }

    /// The grid unit price at `slot` when the community's total trading is
    /// `community_trading` kWh: `p_h · max(Σ y, 0)` in $/kWh.
    #[inline]
    pub fn unit_price(&self, slot: usize, community_trading: f64) -> f64 {
        self.prices.at(slot).value() * community_trading.max(0.0)
    }

    /// Cost of customer `n` at `slot` (Eqn 2): `others_trading` is
    /// `Σ_{i≠n} y_i^h` and `own_trading` is `y_n^h` (negative = selling).
    ///
    /// Positive result: the customer pays; negative: the customer is
    /// credited for energy sold.
    pub fn slot_cost(&self, slot: usize, others_trading: f64, own_trading: f64) -> Dollars {
        let unit = self.unit_price(slot, others_trading + own_trading);
        if own_trading >= 0.0 {
            Dollars::new(unit * own_trading)
        } else {
            Dollars::new(unit * self.tariff.sell_fraction() * own_trading)
        }
    }

    /// Total cost of a customer over the horizon, given the aggregate
    /// trading of the *other* customers per slot and the customer's own
    /// trading series (Problem P1's objective `Σ_h C_n^h`).
    ///
    /// # Panics
    ///
    /// Panics if the series have different slot counts than the price
    /// signal.
    pub fn customer_cost(
        &self,
        others_trading: &TimeSeries<f64>,
        own_trading: &TimeSeries<f64>,
    ) -> Dollars {
        assert_eq!(
            others_trading.len(),
            self.prices.len(),
            "others/prices slots"
        );
        assert_eq!(own_trading.len(), self.prices.len(), "own/prices slots");
        (0..self.prices.len())
            .map(|slot| self.slot_cost(slot, others_trading[slot], own_trading[slot]))
            .sum()
    }

    /// Hoists the per-slot billing terms into a dense [`HoistedCostTable`]
    /// so inner-loop solvers can evaluate [`CostModel::slot_cost`] as an
    /// array lookup + multiply instead of a billing-engine call.
    /// `others_trading` is the per-slot aggregate trading of the other
    /// customers as a raw slice, so both `TimeSeries` storage and the
    /// game's flat structure-of-arrays lanes hoist without a copy.
    ///
    /// The table is rebuilt in place (no allocation once `table`'s buffers
    /// have reached the horizon length) and is **exact**: for every slot and
    /// every `own_trading`, [`HoistedCostTable::slot_cost`] performs the
    /// same floating-point operations in the same order as
    /// [`CostModel::slot_cost`], so results are bit-identical (see
    /// DESIGN.md §11 for the exactness argument).
    ///
    /// # Panics
    ///
    /// Panics if `others_trading` has a different slot count than the price
    /// signal.
    pub fn hoist_into(&self, others_trading: &[f64], table: &mut HoistedCostTable) {
        assert_eq!(
            others_trading.len(),
            self.prices.len(),
            "others/prices slots"
        );
        table.price.clear();
        table
            .price
            .extend((0..self.prices.len()).map(|slot| self.prices.at(slot).value()));
        table.others.clear();
        table.others.extend_from_slice(others_trading);
        table.sell_fraction = self.tariff.sell_fraction();
    }

    /// The community-level procurement cost `Σ_h p_h (Σ_n y_n^h)²` the
    /// utility faces (paper §2.3), with exports clamped at zero.
    pub fn community_cost(&self, total_trading: &TimeSeries<f64>) -> Dollars {
        assert_eq!(
            total_trading.len(),
            self.prices.len(),
            "trading/prices slots"
        );
        (0..self.prices.len())
            .map(|slot| {
                let y = total_trading[slot].max(0.0);
                Dollars::new(self.prices.at(slot).value() * y * y)
            })
            .sum()
    }
}

/// Dense per-slot billing terms hoisted out of [`CostModel`] (one guideline
/// price, one aggregate-others trading value per slot, plus the tariff's
/// sell fraction), built once per best response by
/// [`CostModel::hoist_into`].
///
/// The inner loops of the DP appliance scheduler evaluate
/// [`HoistedCostTable::slot_cost`] `O(H·R·J)` times per schedule; hoisting
/// turns each evaluation into two array reads and a handful of multiplies.
///
/// **Exactness.** `slot_cost(slot, own)` computes
/// `price[slot] * (others[slot] + own).max(0.0)` and then multiplies by
/// `own` (buyer) or `sell_fraction * own` (seller) — operation for
/// operation the body of [`CostModel::slot_cost`]. Because the hoisted
/// terms are the exact `f64`s the cost model would have read, every result
/// is bit-identical to the billing-engine call; no tolerance is involved.
/// Arbitrary cost closures that are not of this billing form cannot be
/// hoisted and keep using the closure path (see `nms-solver`'s
/// `DpScheduler::schedule`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HoistedCostTable {
    price: Vec<f64>,
    others: Vec<f64>,
    sell_fraction: f64,
}

impl HoistedCostTable {
    /// Number of hoisted slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.price.len()
    }

    /// `true` when no slots have been hoisted yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.price.is_empty()
    }

    /// The aggregate trading of the other customers at `slot`, as hoisted.
    #[inline]
    pub fn others(&self, slot: usize) -> f64 {
        self.others[slot]
    }

    /// Bit-identical to
    /// `CostModel::slot_cost(slot, others[slot], own_trading).value()` for
    /// the model and others-series this table was hoisted from.
    #[inline]
    pub fn slot_cost(&self, slot: usize, own_trading: f64) -> f64 {
        let unit = self.price[slot] * (self.others[slot] + own_trading).max(0.0);
        if own_trading >= 0.0 {
            unit * own_trading
        } else {
            unit * self.sell_fraction * own_trading
        }
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

    fn model_fixture(prices: &PriceSignal) -> CostModel<'_> {
        CostModel::new(prices, NetMeteringTariff::new(2.0).unwrap())
    }

    #[test]
    fn tariff_validates_w() {
        assert!(NetMeteringTariff::new(1.0).is_ok());
        assert!(NetMeteringTariff::new(0.9).is_err());
        assert!(NetMeteringTariff::new(f64::NAN).is_err());
        assert_eq!(NetMeteringTariff::full_retail().sell_fraction(), 1.0);
        assert!((NetMeteringTariff::default().w() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn buyer_pays_quadratic_unit_price() {
        let prices = PriceSignal::flat(day(), 0.1).unwrap();
        let model = model_fixture(&prices);
        // Community trades 10 total, customer buys 2 of it:
        // unit = 0.1·10 = 1 $/kWh; cost = 2 $.
        let cost = model.slot_cost(0, 8.0, 2.0);
        assert!((cost.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn seller_credited_at_partial_rate() {
        let prices = PriceSignal::flat(day(), 0.1).unwrap();
        let model = model_fixture(&prices);
        // Community net 10 even after the sale; seller sells 2.
        // unit = 1 $/kWh, credit = 1/W · 1 · 2 = 1 $ (W = 2).
        let cost = model.slot_cost(0, 12.0, -2.0);
        assert!((cost.value() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn community_export_floors_unit_price() {
        let prices = PriceSignal::flat(day(), 0.1).unwrap();
        let model = model_fixture(&prices);
        // Net-exporting community: unit price floors at zero.
        assert_eq!(model.unit_price(0, -5.0), 0.0);
        assert_eq!(model.slot_cost(0, -7.0, 2.0), Dollars::ZERO);
        assert_eq!(model.slot_cost(0, -3.0, -2.0), Dollars::ZERO);
    }

    #[test]
    fn buyers_cover_the_quadratic_community_cost() {
        // When everyone buys, Σ_n C_n = p (Σ y)².
        let prices = PriceSignal::flat(day(), 0.05).unwrap();
        let model = model_fixture(&prices);
        let trades = [3.0, 4.0, 5.0];
        let total: f64 = trades.iter().sum();
        let sum_costs: f64 = trades
            .iter()
            .map(|&y| model.slot_cost(7, total - y, y).value())
            .sum();
        assert!((sum_costs - 0.05 * total * total).abs() < 1e-9);
    }

    #[test]
    fn customer_cost_accumulates_over_horizon() {
        let prices = PriceSignal::flat(day(), 0.1).unwrap();
        let model = model_fixture(&prices);
        let others = TimeSeries::filled(day(), 8.0);
        let own = TimeSeries::filled(day(), 2.0);
        let total = model.customer_cost(&others, &own);
        assert!((total.value() - 24.0 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn community_cost_clamps_exports() {
        let prices = PriceSignal::flat(day(), 0.1).unwrap();
        let model = model_fixture(&prices);
        let mut trading = TimeSeries::filled(day(), 0.0);
        trading[12] = -10.0; // exporting
        trading[19] = 10.0;
        let cost = model.community_cost(&trading);
        assert!((cost.value() - 0.1 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_price_window_makes_energy_free() {
        // This is exactly what the paper's attack exploits.
        let mut series = TimeSeries::filled(day(), 0.1);
        series[16] = 0.0;
        series[17] = 0.0;
        let prices = PriceSignal::new(series).unwrap();
        let model = model_fixture(&prices);
        assert_eq!(model.slot_cost(16, 100.0, 50.0), Dollars::ZERO);
        assert!(model.slot_cost(15, 100.0, 50.0).value() > 0.0);
    }

    #[test]
    fn hoisted_table_matches_slot_cost_bitwise() {
        let mut series = TimeSeries::filled(day(), 0.07);
        series[16] = 0.0;
        series[3] = 0.41;
        let prices = PriceSignal::new(series).unwrap();
        let model = model_fixture(&prices);
        let others = TimeSeries::from_fn(day(), |h| (h as f64) * 0.7 - 5.0);
        let mut table = HoistedCostTable::default();
        assert!(table.is_empty());
        model.hoist_into(others.as_slice(), &mut table);
        assert_eq!(table.len(), 24);
        assert!(!table.is_empty());
        for slot in 0..24 {
            assert_eq!(table.others(slot), others[slot]);
            for own in [-7.5, -0.1, 0.0, 0.3, 4.0, 11.0] {
                let reference = model.slot_cost(slot, others[slot], own).value();
                let hoisted = table.slot_cost(slot, own);
                assert_eq!(
                    reference.to_bits(),
                    hoisted.to_bits(),
                    "slot {slot} own {own}: {reference} vs {hoisted}"
                );
            }
        }
    }

    #[test]
    fn hoist_into_reuses_buffers() {
        let prices = PriceSignal::flat(day(), 0.1).unwrap();
        let model = model_fixture(&prices);
        let others = TimeSeries::filled(day(), 2.0);
        let mut table = HoistedCostTable::default();
        model.hoist_into(others.as_slice(), &mut table);
        let others2 = TimeSeries::filled(day(), -3.0);
        model.hoist_into(others2.as_slice(), &mut table);
        assert_eq!(table.others(0), -3.0);
        assert_eq!(
            table.slot_cost(5, 1.0).to_bits(),
            model.slot_cost(5, -3.0, 1.0).value().to_bits()
        );
    }

    proptest! {
        #[test]
        fn prop_hoisted_table_bit_identical_to_model(
            price in 0.0_f64..1.0,
            w in 1.0_f64..4.0,
            others in -20.0_f64..50.0,
            own in -20.0_f64..20.0,
        ) {
            let prices = PriceSignal::flat(day(), price).unwrap();
            let model = CostModel::new(&prices, NetMeteringTariff::new(w).unwrap());
            let others_series = TimeSeries::filled(day(), others);
            let mut table = HoistedCostTable::default();
            model.hoist_into(others_series.as_slice(), &mut table);
            let reference = model.slot_cost(0, others, own).value();
            let hoisted = table.slot_cost(0, own);
            prop_assert_eq!(reference.to_bits(), hoisted.to_bits());
        }

        #[test]
        fn prop_buying_more_never_cheapens(
            price in 0.01_f64..1.0,
            others in 0.0_f64..50.0,
            y1 in 0.0_f64..20.0,
            extra in 0.0_f64..20.0,
        ) {
            let prices = PriceSignal::flat(day(), price).unwrap();
            let model = model_fixture(&prices);
            let c1 = model.slot_cost(0, others, y1).value();
            let c2 = model.slot_cost(0, others, y1 + extra).value();
            prop_assert!(c2 + 1e-12 >= c1);
        }

        #[test]
        fn prop_selling_is_never_charged(
            price in 0.0_f64..1.0,
            others in -20.0_f64..50.0,
            sold in 0.0_f64..20.0,
        ) {
            let prices = PriceSignal::flat(day(), price).unwrap();
            let model = model_fixture(&prices);
            let cost = model.slot_cost(0, others, -sold).value();
            prop_assert!(cost <= 1e-12);
        }

        #[test]
        fn prop_seller_credit_scales_with_w(
            others in 10.0_f64..50.0,
            sold in 0.1_f64..5.0,
            w in 1.0_f64..4.0,
        ) {
            let prices = PriceSignal::flat(day(), 0.1).unwrap();
            let full = CostModel::new(&prices, NetMeteringTariff::full_retail());
            let partial = CostModel::new(&prices, NetMeteringTariff::new(w).unwrap());
            let credit_full = -full.slot_cost(0, others, -sold).value();
            let credit_partial = -partial.slot_cost(0, others, -sold).value();
            prop_assert!((credit_partial * w - credit_full).abs() < 1e-9);
        }
    }
}
