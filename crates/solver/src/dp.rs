//! The dynamic-programming appliance scheduler of \[6\] (Algorithm 1, line 4).
//!
//! The task energy `E_m` is quantized into `R` equal quanta `q = E_m / R`;
//! the DP allocates an integer number of quanta to each slot of the
//! `[α_m, β_m]` window, bounded per slot by the appliance's maximum power
//! level (partial execution `e_m^h < Δt` covers the fractional quantum).
//! With per-slot additive costs the DP is exact at quantum granularity:
//!
//! ```text
//! f(h, r) = min_{0 ≤ j ≤ J_h} f(h−1, r−j) + cost(h, j·q)
//! ```

use nms_smarthome::{Appliance, ApplianceSchedule};
use nms_types::{Horizon, TimeSeries};

use crate::SolverError;

/// Reusable scratch buffers for [`DpScheduler`] solves.
///
/// A DP solve needs the value tables `dp`/`next`, the per-slot level costs,
/// the window slot list, and the back-pointer table. Allocating them fresh
/// per solve dominates the cost of small instances, so callers that solve
/// many appliances (the best-response inner loop) hold one workspace and
/// pass it to every [`DpScheduler::schedule`]; steady-state reuse then
/// allocates nothing. The buffers carry no state between solves — every
/// solve fully reinitializes the prefix it reads — so reuse is always
/// bit-identical to fresh allocation (see `tests/solver_workspace.rs`).
#[derive(Debug, Clone, Default)]
pub struct DpWorkspace {
    /// `dp[r]` = best cost allocating `r` quanta among processed slots.
    dp: Vec<f64>,
    /// Next row of the value table (swapped with `dp` per window slot).
    next: Vec<f64>,
    /// Cost of placing `j` quanta into the current slot.
    level_costs: Vec<f64>,
    /// Feasible slots of the `[α_m, β_m]` window.
    window: Vec<usize>,
    /// Back-pointers, flattened row-major: `choices[w * (quanta + 1) + r]`
    /// is the quanta placed in window slot `w` on the best path to `r`.
    choices: Vec<u32>,
}

/// Exact DP scheduling of one appliance against an arbitrary per-slot cost.
///
/// `resolution` controls how many quanta fit in one full-power slot: higher
/// values track convex costs more closely at `O(H · R · J)` cost.
///
/// # Examples
///
/// ```
/// use nms_smarthome::{Appliance, ApplianceKind, PowerLevels, TaskSpec};
/// use nms_solver::{DpScheduler, DpWorkspace};
/// use nms_types::{ApplianceId, Horizon, Kw, Kwh};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let horizon = Horizon::hourly_day();
/// let ev = Appliance::new(
///     ApplianceId::new(0),
///     ApplianceKind::ElectricVehicle,
///     PowerLevels::stepped(Kw::new(3.0), 3)?,
///     TaskSpec::new(Kwh::new(6.0), 0, 7)?,
/// );
/// // Cheap power before 04:00.
/// let mut ws = DpWorkspace::default();
/// let schedule = DpScheduler::default().schedule(&ev, horizon, &mut ws, |slot, energy| {
///     let price = if slot < 4 { 0.05 } else { 0.25 };
///     price * energy
/// })?;
/// // All energy lands in the cheap window.
/// let cheap: f64 = (0..4).map(|h| schedule.at(h).value()).sum();
/// assert!((cheap - 6.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DpScheduler {
    resolution: usize,
}

impl DpScheduler {
    /// Creates a scheduler whose quantum is at most
    /// `max_slot_energy / resolution`.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn new(resolution: usize) -> Self {
        assert!(resolution > 0, "resolution must be positive");
        Self { resolution }
    }

    /// The configured per-slot quantum resolution.
    #[inline]
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Schedules `appliance` on `horizon`, minimizing
    /// `Σ_h slot_cost(h, energy_h)`.
    ///
    /// The cost closure receives the slot index and the energy (kWh)
    /// tentatively allocated to that slot, and must return the *customer
    /// cost* of that allocation; it is evaluated `O(H·J)` times per quantum
    /// level. The DP tables live in `ws` and are reused across solves, so a
    /// warm workspace makes the solve allocation-free up to the returned
    /// schedule; reuse is bit-identical to a fresh [`DpWorkspace`].
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Infeasible`] when the window cannot absorb the
    /// task energy (also caught earlier by `Appliance::validate`), or
    /// [`SolverError::Schedule`] if the reconstructed plan fails validation
    /// (a solver bug or NaN costs).
    pub fn schedule(
        &self,
        appliance: &Appliance,
        horizon: Horizon,
        ws: &mut DpWorkspace,
        slot_cost: impl FnMut(usize, f64) -> f64,
    ) -> Result<ApplianceSchedule, SolverError> {
        let mut allocation = TimeSeries::filled(horizon, 0.0);
        self.schedule_into(appliance, horizon, ws, &mut allocation, slot_cost)?;
        ApplianceSchedule::new(appliance, horizon, allocation).map_err(Into::into)
    }

    /// The allocation-free core: writes the optimal per-slot energies into
    /// `out` (fully overwritten) instead of building an
    /// [`ApplianceSchedule`]. The allocation is feasible by construction
    /// (window, per-slot cap, and total energy at quantum granularity);
    /// the caller validates it, as the best response does on every solve
    /// through [`nms_smarthome::check_plan`].
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Infeasible`] when the window cannot absorb
    /// the task energy.
    ///
    /// # Panics
    ///
    /// Panics when `out` does not span `horizon`.
    pub fn schedule_into(
        &self,
        appliance: &Appliance,
        horizon: Horizon,
        ws: &mut DpWorkspace,
        out: &mut TimeSeries<f64>,
        mut slot_cost: impl FnMut(usize, f64) -> f64,
    ) -> Result<(), SolverError> {
        let slots = horizon.slots();
        assert_eq!(out.len(), slots, "output series must span the horizon");
        let energy = appliance.task().energy().value();
        if energy <= 1e-12 {
            for value in out.iter_mut() {
                *value = 0.0;
            }
            return Ok(());
        }

        let cap = appliance.max_slot_energy(horizon).value();
        if cap <= 0.0 {
            return Err(SolverError::Infeasible {
                detail: format!("{} has zero per-slot capacity", appliance.id()),
            });
        }
        // Quantize: R quanta of q = E/R each, with q ≤ cap/resolution.
        let quanta = ((energy / (cap / self.resolution as f64)).ceil() as usize).max(1);
        let q = energy / quanta as f64;
        let per_slot_max = ((cap / q) + 1e-9).floor() as usize;

        let DpWorkspace {
            dp,
            next,
            level_costs,
            window,
            choices,
        } = ws;

        window.clear();
        window.extend(
            (appliance.task().start()..=appliance.task().deadline()).filter(|&h| h < slots),
        );
        if window.len() * per_slot_max < quanta {
            return Err(SolverError::Infeasible {
                detail: format!(
                    "{} needs {quanta} quanta but window holds {}",
                    appliance.id(),
                    window.len() * per_slot_max
                ),
            });
        }
        if quanta >= u32::MAX as usize {
            return Err(SolverError::Infeasible {
                detail: format!("{} needs {quanta} quanta (back-pointer overflow)", appliance.id()),
            });
        }

        const INF: f64 = f64::INFINITY;
        let stride = quanta + 1;
        dp.clear();
        dp.resize(stride, INF);
        dp[0] = 0.0;
        choices.clear();
        choices.resize(window.len() * stride, 0);

        for (w, &slot) in window.iter().enumerate() {
            let max_j = per_slot_max.min(quanta);
            // Pre-compute the slot's cost at each quantum level.
            level_costs.clear();
            level_costs.extend((0..=max_j).map(|j| slot_cost(slot, j as f64 * q)));
            next.clear();
            next.resize(stride, INF);
            let row = &mut choices[w * stride..(w + 1) * stride];
            for (r, &cost_so_far) in dp.iter().enumerate() {
                if cost_so_far == INF {
                    continue;
                }
                for (j, &cost) in level_costs.iter().enumerate() {
                    let r2 = r + j;
                    if r2 > quanta {
                        break;
                    }
                    let candidate = cost_so_far + cost;
                    if candidate < next[r2] {
                        next[r2] = candidate;
                        row[r2] = j as u32;
                    }
                }
            }
            std::mem::swap(dp, next);
        }

        if dp[quanta] == INF {
            return Err(SolverError::Infeasible {
                detail: format!("{} DP found no allocation", appliance.id()),
            });
        }

        // Reconstruct.
        for value in out.iter_mut() {
            *value = 0.0;
        }
        let mut r = quanta;
        for w in (0..window.len()).rev() {
            let j = choices[w * stride + r] as usize;
            out[window[w]] = j as f64 * q;
            r -= j;
        }
        debug_assert_eq!(r, 0, "reconstruction must consume all quanta");
        Ok(())
    }
}

impl Default for DpScheduler {
    /// Resolution 4: quanta of a quarter of a full-power slot.
    fn default() -> Self {
        Self::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_smarthome::{ApplianceKind, PowerLevels, TaskSpec};
    use nms_types::{ApplianceId, Kw, Kwh};
    use proptest::prelude::*;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    fn appliance(energy: f64, start: usize, deadline: usize, max_kw: f64) -> Appliance {
        Appliance::new(
            ApplianceId::new(0),
            ApplianceKind::WaterHeater,
            PowerLevels::stepped(Kw::new(max_kw), 2).unwrap(),
            TaskSpec::new(Kwh::new(energy), start, deadline).unwrap(),
        )
    }

    #[test]
    fn fills_cheapest_slots_first() {
        let a = appliance(4.0, 0, 23, 2.0);
        let schedule = DpScheduler::default()
            .schedule(&a, day(), &mut DpWorkspace::default(), |slot, e| {
                let price = if (10..14).contains(&slot) { 0.01 } else { 1.0 };
                price * e
            })
            .unwrap();
        let cheap: f64 = (10..14).map(|h| schedule.at(h).value()).sum();
        assert!((cheap - 4.0).abs() < 1e-9);
    }

    #[test]
    fn respects_window() {
        let a = appliance(2.0, 5, 8, 2.0);
        let schedule = DpScheduler::default()
            .schedule(&a, day(), &mut DpWorkspace::default(), |_, e| e) // flat price
            .unwrap();
        for h in 0..24 {
            if !(5..=8).contains(&h) {
                assert_eq!(schedule.at(h), Kwh::ZERO, "slot {h}");
            }
        }
        let total: f64 = (0..24).map(|h| schedule.at(h).value()).sum();
        assert!((total - 2.0).abs() < 1e-9);
    }

    #[test]
    fn convex_cost_spreads_load() {
        // With cost e² per slot and equal prices, the optimum spreads
        // evenly across the window.
        let a = appliance(4.0, 0, 3, 2.0);
        let schedule = DpScheduler::new(8)
            .schedule(&a, day(), &mut DpWorkspace::default(), |_, e| e * e)
            .unwrap();
        for h in 0..4 {
            assert!(
                (schedule.at(h).value() - 1.0).abs() < 0.26,
                "slot {h}: {}",
                schedule.at(h)
            );
        }
    }

    #[test]
    fn zero_energy_task_yields_zero_schedule() {
        let a = appliance(0.0, 0, 23, 2.0);
        let schedule = DpScheduler::default()
            .schedule(&a, day(), &mut DpWorkspace::default(), |_, e| e)
            .unwrap();
        assert!((0..24).all(|h| schedule.at(h) == Kwh::ZERO));
    }

    #[test]
    fn tight_window_uses_full_power() {
        // 4 kWh in exactly 2 slots at 2 kW: both slots at capacity.
        let a = appliance(4.0, 10, 11, 2.0);
        let schedule = DpScheduler::default()
            .schedule(&a, day(), &mut DpWorkspace::default(), |_, e| e * 100.0)
            .unwrap();
        assert!((schedule.at(10).value() - 2.0).abs() < 1e-9);
        assert!((schedule.at(11).value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn higher_resolution_never_hurts() {
        let a = appliance(3.0, 0, 5, 2.0);
        let cost = |slot: usize, e: f64| (1.0 + slot as f64 * 0.1) * e * e;
        let mut ws = DpWorkspace::default();
        let coarse = DpScheduler::new(2)
            .schedule(&a, day(), &mut ws, cost)
            .unwrap();
        let fine = DpScheduler::new(16)
            .schedule(&a, day(), &mut ws, cost)
            .unwrap();
        let total =
            |s: &ApplianceSchedule| -> f64 { (0..24).map(|h| cost(h, s.at(h).value())).sum() };
        assert!(total(&fine) <= total(&coarse) + 1e-9);
    }

    #[test]
    fn attack_scenario_shifts_load_into_zero_price_window() {
        // The paper's Fig 5 mechanism at appliance scale: zeroed prices at
        // 16:00–17:00 suck in all flexible load.
        let a = appliance(4.0, 8, 20, 2.0);
        let schedule = DpScheduler::default()
            .schedule(&a, day(), &mut DpWorkspace::default(), |slot, e| {
                let price = if slot == 16 || slot == 17 { 0.0 } else { 0.2 };
                price * e
            })
            .unwrap();
        let in_window = schedule.at(16).value() + schedule.at(17).value();
        assert!((in_window - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn zero_resolution_panics() {
        let _ = DpScheduler::new(0);
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh() {
        // Solve a mix of shapes (different windows, energies, and therefore
        // quanta counts) through ONE workspace and compare each result
        // against a fresh-allocation solve of the same instance.
        let shapes = [
            (4.0, 0, 23, 2.0),
            (1.0, 17, 23, 1.0),
            (6.0, 2, 9, 3.0),
            (0.0, 0, 23, 2.0),
            (2.5, 5, 8, 2.0),
        ];
        let mut ws = DpWorkspace::default();
        let dp = DpScheduler::default();
        let cost = |slot: usize, e: f64| (0.05 + 0.01 * slot as f64) * e + 0.3 * e * e;
        for &(energy, start, deadline, max_kw) in &shapes {
            let a = appliance(energy, start, deadline, max_kw);
            let reused = dp.schedule(&a, day(), &mut ws, cost).unwrap();
            let fresh = dp
                .schedule(&a, day(), &mut DpWorkspace::default(), cost)
                .unwrap();
            for h in 0..24 {
                assert_eq!(
                    reused.at(h).value().to_bits(),
                    fresh.at(h).value().to_bits(),
                    "slot {h} of {energy} kWh in {start}..={deadline}"
                );
            }
        }
    }

    /// Exhaustive oracle: enumerate every quantized allocation of the task
    /// energy over the window and return the minimum cost.
    fn brute_force_optimum(
        energy: f64,
        window: std::ops::RangeInclusive<usize>,
        per_slot_cap: f64,
        quanta: usize,
        cost: &dyn Fn(usize, f64) -> f64,
    ) -> f64 {
        let slots: Vec<usize> = window.collect();
        let q = energy / quanta as f64;
        let per_slot_max = ((per_slot_cap / q) + 1e-9).floor() as usize;
        fn recurse(
            slots: &[usize],
            remaining: usize,
            per_slot_max: usize,
            q: f64,
            cost: &dyn Fn(usize, f64) -> f64,
        ) -> f64 {
            match slots.split_first() {
                None => {
                    if remaining == 0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                }
                Some((&slot, rest)) => {
                    let mut best = f64::INFINITY;
                    for j in 0..=per_slot_max.min(remaining) {
                        let tail = recurse(rest, remaining - j, per_slot_max, q, cost);
                        best = best.min(cost(slot, j as f64 * q) + tail);
                    }
                    best
                }
            }
        }
        recurse(&slots, quanta, per_slot_max, q, cost)
    }

    #[test]
    fn dp_matches_brute_force_on_small_instances() {
        // Non-convex, slot-dependent cost: the DP must still be exact at
        // quantum granularity.
        let cost = |slot: usize, e: f64| -> f64 {
            let price = [0.4, 0.1, 0.9, 0.2, 0.6, 0.3][slot % 6];
            price * e + if e > 1.0 { 0.5 } else { 0.0 } // fixed surcharge kink
        };
        for (energy, start, deadline, resolution) in
            [(2.0, 0, 4, 2), (3.0, 1, 5, 2), (1.5, 0, 3, 4)]
        {
            let appliance = Appliance::new(
                ApplianceId::new(0),
                ApplianceKind::Dishwasher,
                PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                TaskSpec::new(Kwh::new(energy), start, deadline).unwrap(),
            );
            let schedule = DpScheduler::new(resolution)
                .schedule(&appliance, day(), &mut DpWorkspace::default(), cost)
                .unwrap();
            let dp_cost: f64 = (0..24).map(|h| cost(h, schedule.at(h).value())).sum();

            // Mirror the DP's quantization for the oracle.
            let cap = 2.0;
            let quanta = ((energy / (cap / resolution as f64)).ceil() as usize).max(1);
            let oracle = brute_force_optimum(energy, start..=deadline, cap, quanta, &cost);
            assert!(
                (dp_cost - oracle).abs() < 1e-9,
                "E={energy} window {start}..={deadline}: dp {dp_cost} vs oracle {oracle}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_schedule_always_feasible(
            energy in 0.1_f64..6.0,
            start in 0_usize..12,
            len in 3_usize..12,
            price_seed in 0_u64..100,
        ) {
            let deadline = (start + len).min(23);
            let max_kw = 2.0;
            let window_cap = max_kw * (deadline - start + 1) as f64;
            let energy = energy.min(window_cap * 0.9);
            let a = appliance(energy, start, deadline, max_kw);
            // Pseudo-random but deterministic prices.
            let price = move |slot: usize| {
                let x = (slot as u64).wrapping_mul(6364136223846793005).wrapping_add(price_seed);
                0.01 + (x % 100) as f64 / 100.0
            };
            let schedule = DpScheduler::default()
                .schedule(&a, day(), &mut DpWorkspace::default(), |slot, e| price(slot) * e)
                .unwrap();
            // ApplianceSchedule::new inside schedule() already validated
            // feasibility; check totals here as a belt-and-braces.
            let total: f64 = (0..24).map(|h| schedule.at(h).value()).sum();
            prop_assert!((total - energy).abs() < 1e-6);
        }
    }
}
