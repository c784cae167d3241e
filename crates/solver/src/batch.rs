//! Structure-of-arrays slabs for batched best-response rounds
//! (DESIGN.md §15).
//!
//! At paper scale (N = 500) one Gauss–Seidel round touches every
//! customer's trading series, the running community total, and a fresh
//! "aggregate of the others" per customer. The `TimeSeries`-per-customer
//! representation scatters those across N separate heap allocations and
//! re-allocates two more per response (`total.sub`, `others.add`). A
//! [`BatchResponseWorkspace`] instead lays the whole round out as flat
//! `f64` slabs:
//!
//! ```text
//!            slot →  0 ............ H-1
//! tradings  lane 0 [ y_0^0 ...... y_0^H )   customer 0, contiguous
//!           lane 1 [ y_1^0 ...... y_1^H )   customer 1, contiguous
//!           ...
//! total            [ Σ_n y_n^h          )   one lane
//! others           [ total − lane i     )   scratch, rewritten per customer
//! ```
//!
//! Each lane is one customer's series in slot order (the "column" of the
//! slot × customer matrix), so the round's inner loops — others = total −
//! lane, total = others + response, the residual max, and the end-of-round
//! total rebuild — are tight loops over contiguous slices the compiler can
//! vectorize. All slabs are bump-allocated once per solve by
//! [`BatchResponseWorkspace::begin`] and reused across rounds.
//!
//! **Bit-identity.** Every kernel performs the same floating-point
//! operations in the same order as the series code it replaces:
//! subtraction/addition per slot, `f64::max` folds seeded at `0.0`, and the
//! total rebuilt by accumulating customers in index order (the exact fold
//! `TimeSeries::from_fn(h, |h| lanes.map(|l| l[h]).sum())` performs).
//! `tests/solver_workspace.rs` pins the engine's batched rounds against the
//! hand-rolled `TimeSeries` + [`best_response_reference`] loop byte for
//! byte.
//!
//! [`best_response_reference`]: crate::best_response_reference

/// Per-solve structure-of-arrays arena for the game engine's batched
/// rounds: every customer's trading series as a contiguous `f64` lane,
/// plus the community total and a per-customer others scratch lane. Every
/// kernel performs the per-slot operations of the `TimeSeries` code it
/// replaced, in the same order, so results are bit-identical
/// (DESIGN.md §15).
#[derive(Debug, Clone, Default)]
pub struct BatchResponseWorkspace {
    customers: usize,
    slots: usize,
    /// `customers × slots`, lane-per-customer: `tradings[i*slots..][..slots]`
    /// is customer `i`'s committed trading series.
    tradings: Vec<f64>,
    /// `slots`: the running community total `Σ_n y_n^h`.
    total: Vec<f64>,
    /// `slots`: the aggregate of the others for the customer under solve.
    others: Vec<f64>,
}

impl BatchResponseWorkspace {
    /// An empty workspace; slabs are grown by [`BatchResponseWorkspace::begin`].
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)initializes the slabs for a solve over `customers` lanes of
    /// `slots` values: all tradings and the total start at zero (the game's
    /// cold start). Buffers are grown once and reused on later solves of
    /// the same shape — the steady state allocates nothing.
    pub fn begin(&mut self, customers: usize, slots: usize) {
        self.customers = customers;
        self.slots = slots;
        self.tradings.clear();
        self.tradings.resize(customers * slots, 0.0);
        self.total.clear();
        self.total.resize(slots, 0.0);
        self.others.clear();
        self.others.resize(slots, 0.0);
    }

    /// Customer lanes in the current solve.
    #[inline]
    pub fn customers(&self) -> usize {
        self.customers
    }

    /// Slots per lane in the current solve.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The running community total `Σ_n y_n^h`.
    #[inline]
    pub fn total(&self) -> &[f64] {
        &self.total
    }

    /// Fills the others scratch lane with `total − lane(index)` (exactly
    /// the per-slot subtraction `total.sub(&tradings[index])` performed) and
    /// returns it. Valid until the next `fill_others`/`begin` call.
    pub fn fill_others(&mut self, index: usize) -> &[f64] {
        let lane = &self.tradings[index * self.slots..(index + 1) * self.slots];
        for ((out, &total), &own) in self.others.iter_mut().zip(&self.total).zip(lane) {
            *out = total - own;
        }
        &self.others
    }

    /// The others scratch lane as last filled.
    #[inline]
    pub fn others(&self) -> &[f64] {
        &self.others
    }

    /// Largest absolute per-slot difference between `response` and customer
    /// `index`'s current lane — the same `fold(0.0, f64::max)` the series
    /// residual used.
    pub fn max_abs_delta(&self, index: usize, response: &[f64]) -> f64 {
        let lane = &self.tradings[index * self.slots..(index + 1) * self.slots];
        response
            .iter()
            .zip(lane)
            .map(|(&new, &old)| (new - old).abs())
            .fold(0.0, f64::max)
    }

    /// Gauss–Seidel commit: `total = others + response` (per-slot, exactly
    /// the `others.add(response)` order) and the lane overwritten, so the
    /// next customer sees the freshest totals. Call with the others lane
    /// still holding [`BatchResponseWorkspace::fill_others`]'s result for
    /// the same `index`.
    ///
    /// # Panics
    ///
    /// Panics if `response` has the wrong slot count.
    pub fn commit_gauss_seidel(&mut self, index: usize, response: &[f64]) {
        assert_eq!(response.len(), self.slots, "response/slots");
        let lane = &mut self.tradings[index * self.slots..(index + 1) * self.slots];
        for (((total, &others), &new), own) in self
            .total
            .iter_mut()
            .zip(&self.others)
            .zip(response)
            .zip(lane)
        {
            *total = others + new;
            *own = new;
        }
    }

    /// `Σ_n y_n^slot`: customer `n`'s committed trading at `slot`, summed
    /// over the lanes in customer index order by `Iterator::sum`, the
    /// per-slot sum [`CommunitySchedule::new`] takes over the customers'
    /// trading series. The running [`total`](Self::total) starts at
    /// `+0.0` instead of `sum`'s `-0.0`, so the two differ in a slot where
    /// every lane is `-0.0`. `slot` must be below [`slots`](Self::slots).
    ///
    /// [`CommunitySchedule::new`]: nms_smarthome::CommunitySchedule::new
    pub(crate) fn lane_sum(&self, slot: usize) -> f64 {
        self.tradings[slot..]
            .iter()
            .step_by(self.slots)
            .take(self.customers)
            .sum()
    }

    /// The customer lanes, moved out when the solve is done.
    pub(crate) fn into_lanes(self) -> Vec<f64> {
        self.tradings
    }

    /// Rebuilds the total from the lanes, accumulating customers in index
    /// order per slot — the exact fold order of
    /// `TimeSeries::from_fn(h, |h| lanes.map(|l| l[h]).sum())`, evaluated
    /// lane-contiguously.
    pub fn rebuild_total(&mut self) {
        self.total.iter_mut().for_each(|value| *value = 0.0);
        for index in 0..self.customers {
            let lane = &self.tradings[index * self.slots..(index + 1) * self.slots];
            for (total, &own) in self.total.iter_mut().zip(lane) {
                *total += own;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_types::{Horizon, TimeSeries};

    /// Overwrites customer `index`'s lane without touching the total.
    fn set_lane(workspace: &mut BatchResponseWorkspace, index: usize, lane: &[f64]) {
        let slots = workspace.slots;
        workspace.tradings[index * slots..(index + 1) * slots].copy_from_slice(lane);
    }

    fn filled(workspace: &mut BatchResponseWorkspace, lanes: &[Vec<f64>]) {
        workspace.begin(lanes.len(), lanes[0].len());
        for (index, lane) in lanes.iter().enumerate() {
            set_lane(workspace, index, lane);
        }
        workspace.rebuild_total();
    }

    #[test]
    fn others_matches_series_subtraction_bitwise() {
        let lanes = vec![
            vec![1.5, -2.25, 0.1, 7.0],
            vec![0.3, 0.7, -11.0, 2.5],
            vec![-0.4, 3.3, 5.5, -1.25],
        ];
        let mut ws = BatchResponseWorkspace::new();
        filled(&mut ws, &lanes);

        let horizon = Horizon::hourly(4);
        let total = TimeSeries::from_fn(horizon, |h| lanes.iter().map(|l| l[h]).sum());
        for index in 0..lanes.len() {
            let series = TimeSeries::from_values(horizon, lanes[index].clone()).unwrap();
            let expected = total.sub(&series).unwrap();
            let got = ws.fill_others(index).to_vec();
            for h in 0..4 {
                assert_eq!(
                    expected[h].to_bits(),
                    got[h].to_bits(),
                    "lane {index} slot {h}"
                );
            }
        }
    }

    #[test]
    fn gauss_seidel_commit_matches_series_addition_bitwise() {
        let lanes = vec![vec![1.0, 2.0, 3.0], vec![-0.5, 0.25, 4.0]];
        let mut ws = BatchResponseWorkspace::new();
        filled(&mut ws, &lanes);

        let horizon = Horizon::hourly(3);
        let response = vec![0.125, -3.5, 2.2];
        let others: Vec<f64> = ws.fill_others(0).to_vec();
        ws.commit_gauss_seidel(0, &response);

        let others_series = TimeSeries::from_values(horizon, others).unwrap();
        let response_series = TimeSeries::from_values(horizon, response.clone()).unwrap();
        let expected = others_series.add(&response_series).unwrap();
        for h in 0..3 {
            assert_eq!(expected[h].to_bits(), ws.total()[h].to_bits(), "slot {h}");
        }
        assert_eq!(&ws.tradings[..3], response.as_slice());
    }

    #[test]
    fn rebuild_total_accumulates_in_customer_order() {
        // Floating-point addition is order-sensitive; the rebuild must fold
        // customers in index order exactly like the from_fn + sum it
        // replaces.
        let lanes = vec![vec![1e16, 1.0], vec![1.0, 1e-16], vec![-1e16, -1.0]];
        let mut ws = BatchResponseWorkspace::new();
        filled(&mut ws, &lanes);
        let horizon = Horizon::hourly(2);
        let expected = TimeSeries::from_fn(horizon, |h| lanes.iter().map(|l| l[h]).sum::<f64>());
        for h in 0..2 {
            assert_eq!(expected[h].to_bits(), ws.total()[h].to_bits(), "slot {h}");
        }
    }

    #[test]
    fn lane_sum_matches_series_sum_bitwise() {
        // Slot 1 is `-0.0` in every lane: a fold seeded at `+0.0` (as the
        // running total is) turns it positive; `Iterator::sum` keeps it.
        let lanes = vec![
            vec![1e16, -0.0, 0.5, 0.0],
            vec![1.0, -0.0, -0.0, -0.0],
            vec![-1e16, -0.0, 0.25, -0.0],
        ];
        let mut ws = BatchResponseWorkspace::new();
        filled(&mut ws, &lanes);
        let horizon = Horizon::hourly(4);
        let expected = TimeSeries::from_fn(horizon, |h| lanes.iter().map(|l| l[h]).sum::<f64>());
        for h in 0..4 {
            assert_eq!(expected[h].to_bits(), ws.lane_sum(h).to_bits(), "slot {h}");
        }
        assert_eq!(ws.lane_sum(1).to_bits(), (-0.0_f64).to_bits());
        assert_eq!(ws.total()[1].to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn max_abs_delta_matches_fold() {
        let lanes = vec![vec![1.0, -2.0, 0.5]];
        let mut ws = BatchResponseWorkspace::new();
        filled(&mut ws, &lanes);
        let response = [1.5, -2.0, -1.0];
        assert_eq!(ws.max_abs_delta(0, &response), 1.5);
        assert_eq!(ws.max_abs_delta(0, &[1.0, -2.0, 0.5]), 0.0);
    }

    #[test]
    fn begin_reuses_buffers_and_rezeroes() {
        let mut ws = BatchResponseWorkspace::new();
        ws.begin(2, 3);
        set_lane(&mut ws, 1, &[1.0, 2.0, 3.0]);
        ws.rebuild_total();
        assert!(ws.total().iter().any(|&v| v != 0.0));
        ws.begin(2, 3);
        assert!(ws.tradings[3..6].iter().all(|&v| v == 0.0));
        assert!(ws.total().iter().all(|&v| v == 0.0));
        assert_eq!(ws.customers(), 2);
        assert_eq!(ws.slots(), 3);
    }
}
