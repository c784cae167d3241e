//! Battery-storage optimization (Algorithm 1, line 5).
//!
//! Problem P1 is non-convex in the battery trajectory once the buy/sell
//! branches of Eqn (2) interact with the aggregate trading, so the paper
//! optimizes `b_n = {b¹, …, b^H}` with cross-entropy optimization. One
//! sweep of the deterministic [`coordinate_descent_battery`] solver is a
//! warm-start candidate the best response hands to CE.

use nms_pricing::CostModel;
use nms_smarthome::Battery;
use nms_types::{Horizon, Kwh, TimeSeries};
use rand::Rng;

use crate::{CeSolution, CeWorkspace, CrossEntropyOptimizer, SolverError};

/// Penalty weight for violating the optional per-slot throughput limit;
/// the box `[0, B]` handles the state bounds exactly, the penalty handles
/// the (rarely used) rate constraint.
const THROUGHPUT_PENALTY: f64 = 1e4;

/// The single-customer battery subproblem: appliance load and PV are fixed,
/// only the state-of-charge trajectory varies.
#[derive(Debug, Clone, Copy)]
pub struct BatteryProblem<'a> {
    battery: &'a Battery,
    horizon: Horizon,
    load: &'a [f64],
    generation: &'a [f64],
    others_trading: &'a [f64],
    cost_model: CostModel<'a>,
}

impl<'a> BatteryProblem<'a> {
    /// Bundles the fixed data of the subproblem.
    ///
    /// # Panics
    ///
    /// Panics if the series have differing slot counts.
    pub fn new(
        battery: &'a Battery,
        load: &'a TimeSeries<f64>,
        generation: &'a TimeSeries<f64>,
        others_trading: &'a TimeSeries<f64>,
        cost_model: CostModel<'a>,
    ) -> Self {
        Self::from_slices(
            battery,
            load.horizon(),
            load.as_slice(),
            generation.as_slice(),
            others_trading.as_slice(),
            cost_model,
        )
    }

    /// [`BatteryProblem::new`] over raw per-slot slices — the batch form
    /// used by the structure-of-arrays game kernels, where every series is a
    /// contiguous `f64` lane. Arithmetic is identical to the `TimeSeries`
    /// constructor: the slices hold the exact `f64`s the series would.
    ///
    /// # Panics
    ///
    /// Panics if the slices have differing slot counts or disagree with
    /// `horizon`.
    pub fn from_slices(
        battery: &'a Battery,
        horizon: Horizon,
        load: &'a [f64],
        generation: &'a [f64],
        others_trading: &'a [f64],
        cost_model: CostModel<'a>,
    ) -> Self {
        assert_eq!(load.len(), horizon.slots(), "load/horizon slots");
        assert_eq!(load.len(), generation.len(), "load/generation slots");
        assert_eq!(load.len(), others_trading.len(), "load/others slots");
        assert_eq!(load.len(), cost_model.prices().len(), "load/prices slots");
        Self {
            battery,
            horizon,
            load,
            generation,
            others_trading,
            cost_model,
        }
    }

    /// Number of slots `H` (the decision vector holds `b¹..b^H`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.load.len()
    }

    /// The battery under optimization.
    #[inline]
    pub fn battery(&self) -> &Battery {
        self.battery
    }

    /// The customer's monetary cost (Problem P1's objective) for an interior
    /// trajectory `b¹..b^H`, including the throughput penalty.
    pub fn objective(&self, interior: &[f64]) -> f64 {
        debug_assert_eq!(interior.len(), self.dim());
        let mut prev = self.battery.initial_charge().value();
        let mut total = 0.0;
        for (h, &next) in interior.iter().enumerate() {
            add_terms(&mut total, self.slot_terms(h, prev, next));
            prev = next;
        }
        total
    }

    /// Slot `h`'s objective terms for the step `prev → next`: the billing
    /// cost, and the throughput penalty when the battery has a limit.
    #[inline]
    fn slot_terms(&self, h: usize, prev: f64, next: f64) -> SlotTerms {
        let trading = self.load[h] + next - prev - self.generation[h];
        let cost = self
            .cost_model
            .slot_cost(h, self.others_trading[h], trading)
            .value();
        let penalty = self.battery.slot_throughput_limit().map(|limit| {
            let excess = ((next - prev).abs() - limit.value()).max(0.0);
            THROUGHPUT_PENALTY * excess * excess
        });
        (cost, penalty)
    }

    /// The customer's trading series implied by an interior trajectory.
    pub fn trading(&self, interior: &[f64]) -> TimeSeries<f64> {
        let mut prev = self.battery.initial_charge().value();
        TimeSeries::from_fn(self.horizon, |h| {
            let next = interior[h];
            let y = self.load[h] + next - prev - self.generation[h];
            prev = next;
            y
        })
    }

    /// Converts an interior trajectory into the full `b⁰..b^H` vector,
    /// projecting each step onto the battery's feasible set: the state
    /// bounds `[0, B]` exactly, and — when a per-slot throughput limit is
    /// configured — each transition clamped to `±limit` around the previous
    /// (projected) state. Optimizers treat the limit as a soft penalty;
    /// this projection makes the returned plan hard-feasible.
    pub fn full_trajectory(&self, interior: &[f64]) -> Vec<Kwh> {
        let mut full = Vec::with_capacity(interior.len() + 1);
        let mut prev = self.battery.initial_charge();
        full.push(prev);
        let limit = self.battery.slot_throughput_limit();
        for &b in interior {
            let mut next = self.battery.clamp_charge(Kwh::new(b));
            if let Some(limit) = limit {
                next = next.clamp(prev - limit, prev + limit);
                next = self.battery.clamp_charge(next);
            }
            full.push(next);
            prev = next;
        }
        full
    }

    /// The idle trajectory (state of charge frozen at the initial level).
    pub fn idle_interior(&self) -> Vec<f64> {
        vec![self.battery.initial_charge().value(); self.dim()]
    }
}

/// One slot's objective terms: the billing cost and, with a throughput
/// limit, the penalty.
type SlotTerms = (f64, Option<f64>);

/// Adds one slot's terms to a running objective: the cost, then the
/// penalty as a second addition, the order [`BatteryProblem::objective`]
/// sums them in.
#[inline]
fn add_terms(total: &mut f64, (cost, penalty): SlotTerms) {
    *total += cost;
    if let Some(penalty) = penalty {
        *total += penalty;
    }
}

/// Optimizes the battery trajectory with cross-entropy optimization,
/// returning the full `b⁰..b^H` trajectory and the CE diagnostics.
///
/// `warm_start` (an interior `b¹..b^H`, e.g. from the previous game round,
/// paired with its [`BatteryProblem::objective`] value, which the caller
/// has already computed) both seeds the sampling distribution and acts as
/// a floor: the result is never worse than the warm start or the idle
/// trajectory. For an unusable (zero-capacity) battery this degenerates to
/// the idle trajectory without sampling. The CE population/elite buffers live in `ws` and are reused
/// across solves — the best-response inner loop runs one battery step per
/// alternation and reuses one workspace for all of them.
///
/// # Errors
///
/// Returns [`SolverError::Numeric`] when `warm_start` has the wrong
/// dimension or the cost model produces NaN for a feasible trajectory.
pub fn optimize_battery(
    problem: &BatteryProblem<'_>,
    optimizer: &CrossEntropyOptimizer,
    warm_start: Option<(&[f64], f64)>,
    rng: &mut impl Rng,
    ws: &mut CeWorkspace,
) -> Result<(Vec<Kwh>, CeSolution), SolverError> {
    if !problem.battery().is_usable() {
        let interior = problem.idle_interior();
        let solution = CeSolution {
            objective: problem.objective(&interior),
            point: interior.clone(),
            iterations: 0,
            converged: true,
            std_history: Vec::new(),
        };
        return Ok((problem.full_trajectory(&interior), solution));
    }
    let capacity = problem.battery().capacity().value();
    let bounds = vec![(0.0, capacity); problem.dim()];
    let (init, init_cost) = match warm_start {
        Some((point, cost)) => {
            if point.len() != problem.dim() {
                return Err(SolverError::Numeric {
                    detail: format!("warm start dimension: {} vs {}", point.len(), problem.dim()),
                });
            }
            debug_assert_eq!(cost.to_bits(), problem.objective(point).to_bits());
            (point.to_vec(), cost)
        }
        None => {
            let idle = problem.idle_interior();
            let cost = problem.objective(&idle);
            (idle, cost)
        }
    };
    let mut solution = optimizer.minimize(|x| problem.objective(x), &bounds, &init, rng, ws)?;
    // Never return something worse than the warm start (which `init`
    // holds) or doing nothing.
    let idle = problem.idle_interior();
    let idle_cost = problem.objective(&idle);
    for (candidate, cost) in [(init, init_cost), (idle, idle_cost)] {
        if cost < solution.objective {
            solution.point = candidate;
            solution.objective = cost;
        }
    }
    Ok((problem.full_trajectory(&solution.point), solution))
}

/// Deterministic baseline: one sweep of cyclic projected coordinate
/// descent with a grid-plus-golden-section line search per coordinate.
///
/// Returns the full `b⁰..b^H` trajectory. The best response runs it once
/// per battery step and warm-starts [`optimize_battery`] from the better
/// of it and the previous trajectory.
///
/// Each candidate is scored incrementally. Moving slot `k` changes only
/// the terms of slots `k` and `k + 1`, and in one sweep every slot after
/// `k` still holds the initial charge, so the terms after `k + 1` are the
/// idle trajectory's. A score is the running total over slots `0..k`,
/// plus the two recomputed terms, plus the idle terms re-added one at a
/// time in slot order: the additions [`BatteryProblem::objective`]
/// performs, in its order, so every score, every comparison and the
/// result are bit-identical to scoring each candidate in full.
pub fn coordinate_descent_battery(problem: &BatteryProblem<'_>) -> Vec<Kwh> {
    if !problem.battery().is_usable() {
        return problem.full_trajectory(&problem.idle_interior());
    }
    let capacity = problem.battery().capacity().value();
    let initial = problem.battery().initial_charge().value();
    let mut interior = problem.idle_interior();
    let idle_terms: Vec<SlotTerms> = (0..interior.len())
        .map(|h| problem.slot_terms(h, initial, initial))
        .collect();
    // The objective's running total over slots `0..k`.
    let mut prefix = 0.0;
    for k in 0..interior.len() {
        let prev = if k == 0 { initial } else { interior[k - 1] };
        let score = |value: f64| {
            let mut total = prefix;
            add_terms(&mut total, problem.slot_terms(k, prev, value));
            if k + 1 < idle_terms.len() {
                add_terms(&mut total, problem.slot_terms(k + 1, value, initial));
                for &tail in &idle_terms[k + 2..] {
                    add_terms(&mut total, tail);
                }
            }
            total
        };
        let best = line_search(initial, capacity, score);
        interior[k] = best;
        add_terms(&mut prefix, problem.slot_terms(k, prev, best));
    }
    problem.full_trajectory(&interior)
}

/// One coordinate's line search over `[0, capacity]`: a coarse grid, then
/// a golden-section refine around the best grid cell. Returns the best
/// value found, keeping `current` unless a candidate scores strictly
/// lower.
fn line_search(current: f64, capacity: f64, score: impl Fn(f64) -> f64) -> f64 {
    const GRID: usize = 16;
    let mut best_value = current;
    let mut best_cost = score(current);
    for g in 0..=GRID {
        let candidate = capacity * g as f64 / GRID as f64;
        let cost = score(candidate);
        if cost < best_cost {
            best_cost = cost;
            best_value = candidate;
        }
    }
    let step = capacity / GRID as f64;
    let (mut lo, mut hi) = (
        (best_value - step).max(0.0),
        (best_value + step).min(capacity),
    );
    let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
    for _ in 0..24 {
        let m1 = hi - phi * (hi - lo);
        let m2 = lo + phi * (hi - lo);
        if score(m1) <= score(m2) {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    let refined = (lo + hi) / 2.0;
    if score(refined) < best_cost {
        best_value = refined;
    }
    best_value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CeConfig;
    use nms_pricing::{NetMeteringTariff, PriceSignal};
    use nms_types::Horizon;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    /// The coordinate-descent sweep that scores every candidate with the
    /// full objective: the oracle [`coordinate_descent_battery`]'s
    /// incremental scoring must match bit for bit.
    fn coordinate_descent_reference(problem: &BatteryProblem<'_>) -> Vec<Kwh> {
        if !problem.battery().is_usable() {
            return problem.full_trajectory(&problem.idle_interior());
        }
        let capacity = problem.battery().capacity().value();
        let mut interior = problem.idle_interior();
        const GRID: usize = 16;
        for k in 0..interior.len() {
            let evaluate = |value: f64, interior: &mut Vec<f64>| {
                let saved = interior[k];
                interior[k] = value;
                let cost = problem.objective(interior);
                interior[k] = saved;
                cost
            };
            // Coarse grid.
            let mut best_value = interior[k];
            let mut best_cost = problem.objective(&interior);
            for g in 0..=GRID {
                let candidate = capacity * g as f64 / GRID as f64;
                let cost = evaluate(candidate, &mut interior);
                if cost < best_cost {
                    best_cost = cost;
                    best_value = candidate;
                }
            }
            // Golden-section refine around the best grid cell.
            let step = capacity / GRID as f64;
            let (mut lo, mut hi) = (
                (best_value - step).max(0.0),
                (best_value + step).min(capacity),
            );
            let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
            for _ in 0..24 {
                let m1 = hi - phi * (hi - lo);
                let m2 = lo + phi * (hi - lo);
                if evaluate(m1, &mut interior) <= evaluate(m2, &mut interior) {
                    hi = m2;
                } else {
                    lo = m1;
                }
            }
            let refined = (lo + hi) / 2.0;
            if evaluate(refined, &mut interior) < best_cost {
                best_value = refined;
            }
            interior[k] = best_value;
        }
        problem.full_trajectory(&interior)
    }

    /// One cold-started CE solve from a fresh workspace.
    fn ce_solve(
        problem: &BatteryProblem<'_>,
        optimizer: &CrossEntropyOptimizer,
        seed: u64,
    ) -> (Vec<Kwh>, CeSolution) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ws = CeWorkspace::default();
        optimize_battery(problem, optimizer, None, &mut rng, &mut ws).unwrap()
    }

    struct Fixture {
        prices: PriceSignal,
        load: TimeSeries<f64>,
        generation: TimeSeries<f64>,
        others: TimeSeries<f64>,
        battery: Battery,
    }

    impl Fixture {
        /// Cheap valley overnight, expensive evening, flat 1 kWh load.
        fn arbitrage() -> Self {
            let prices = PriceSignal::new(TimeSeries::from_fn(day(), |h| {
                if (18..22).contains(&h) {
                    0.5
                } else if h < 6 {
                    0.02
                } else {
                    0.1
                }
            }))
            .unwrap();
            Self {
                prices,
                load: TimeSeries::filled(day(), 1.0),
                generation: TimeSeries::filled(day(), 0.0),
                others: TimeSeries::filled(day(), 20.0),
                battery: Battery::new(Kwh::new(5.0), Kwh::ZERO).unwrap(),
            }
        }

        fn problem(&self) -> BatteryProblem<'_> {
            BatteryProblem::new(
                &self.battery,
                &self.load,
                &self.generation,
                &self.others,
                CostModel::new(&self.prices, NetMeteringTariff::default()),
            )
        }
    }

    #[test]
    fn idle_trajectory_has_load_equal_trading() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        let trading = problem.trading(&problem.idle_interior());
        for h in 0..24 {
            assert!((trading[h] - fixture.load[h]).abs() < 1e-12);
        }
    }

    #[test]
    fn ce_beats_idle_on_arbitrage() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        let optimizer = CrossEntropyOptimizer::new(CeConfig::default());
        let (trajectory, solution) = ce_solve(&problem, &optimizer, 2);
        let idle_cost = problem.objective(&problem.idle_interior());
        assert!(
            solution.objective < idle_cost - 1e-6,
            "CE {} vs idle {idle_cost}",
            solution.objective
        );
        // The trajectory is feasible for the battery.
        fixture.battery.validate_trajectory(&trajectory).unwrap();
    }

    #[test]
    fn ce_never_worse_than_idle() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        // A single-iteration CE might sample only bad points; the fallback
        // must kick in.
        let optimizer = CrossEntropyOptimizer::new(CeConfig {
            samples: 2,
            max_iters: 1,
            ..CeConfig::default()
        });
        let (_, solution) = ce_solve(&problem, &optimizer, 3);
        let idle_cost = problem.objective(&problem.idle_interior());
        assert!(solution.objective <= idle_cost + 1e-12);
    }

    #[test]
    fn unusable_battery_short_circuits() {
        let fixture = Fixture {
            battery: Battery::none(),
            ..Fixture::arbitrage()
        };
        let problem = fixture.problem();
        let optimizer = CrossEntropyOptimizer::default();
        let (trajectory, solution) = ce_solve(&problem, &optimizer, 4);
        assert_eq!(solution.iterations, 0);
        assert!(trajectory.iter().all(|&b| b == Kwh::ZERO));
    }

    #[test]
    fn coordinate_descent_beats_idle_on_arbitrage() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        let trajectory = coordinate_descent_battery(&problem);
        fixture.battery.validate_trajectory(&trajectory).unwrap();
        let interior: Vec<f64> = trajectory[1..].iter().map(|b| b.value()).collect();
        let idle_cost = problem.objective(&problem.idle_interior());
        assert!(problem.objective(&interior) < idle_cost - 1e-6);
    }

    #[test]
    fn battery_charges_cheap_discharges_expensive() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        let optimizer = CrossEntropyOptimizer::new(CeConfig {
            samples: 128,
            max_iters: 80,
            ..CeConfig::default()
        });
        let (trajectory, _) = ce_solve(&problem, &optimizer, 5);
        // State of charge at 06:00 should exceed state at 22:00: energy is
        // banked overnight and spent through the evening peak.
        assert!(
            trajectory[6].value() > trajectory[22].value() + 0.5,
            "b(06)={} b(22)={}",
            trajectory[6],
            trajectory[22]
        );
    }

    #[test]
    fn throughput_penalty_discourages_fast_swings() {
        let mut fixture = Fixture::arbitrage();
        fixture.battery = Battery::new(Kwh::new(5.0), Kwh::ZERO)
            .unwrap()
            .with_throughput_limit(Kwh::new(0.5))
            .unwrap();
        let problem = fixture.problem();
        // A trajectory that jumps the full capacity in one slot gets a huge
        // penalty relative to a slow ramp.
        let mut fast = problem.idle_interior();
        fast[0] = 5.0;
        let mut slow = problem.idle_interior();
        slow[0] = 0.5;
        assert!(problem.objective(&fast) > problem.objective(&slow) + 100.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_full_trajectory_is_always_feasible(
            capacity in 0.5_f64..10.0,
            limit_fraction in 0.05_f64..1.0,
            raw in proptest::collection::vec(-5.0_f64..15.0, 24),
        ) {
            let battery = Battery::new(Kwh::new(capacity), Kwh::new(capacity / 2.0))
                .unwrap()
                .with_throughput_limit(Kwh::new(capacity * limit_fraction))
                .unwrap();
            let load = TimeSeries::filled(Horizon::hourly_day(), 1.0);
            let generation = TimeSeries::filled(Horizon::hourly_day(), 0.0);
            let others = TimeSeries::filled(Horizon::hourly_day(), 5.0);
            let prices = PriceSignal::flat(Horizon::hourly_day(), 0.1).unwrap();
            let problem = BatteryProblem::new(
                &battery,
                &load,
                &generation,
                &others,
                CostModel::new(&prices, NetMeteringTariff::default()),
            );
            // Arbitrary (even wildly infeasible) interiors project onto a
            // hard-feasible trajectory.
            let trajectory = problem.full_trajectory(&raw);
            proptest::prop_assert!(battery.validate_trajectory(&trajectory).is_ok());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]
        #[test]
        fn prop_incremental_sweep_matches_full_objective_sweep(
            prices in proptest::collection::vec(0.0_f64..0.5, 24),
            load in proptest::collection::vec(0.0_f64..4.0, 24),
            generation in proptest::collection::vec(0.0_f64..4.0, 24),
            others in proptest::collection::vec(-30.0_f64..60.0, 24),
            w in 1.0_f64..3.0,
            capacity in 0.5_f64..10.0,
            zero_capacity in 0_u8..8,
            charge_fraction in 0.0_f64..=1.0,
            limited in true,
            limit_fraction in 0.05_f64..1.0,
        ) {
            let capacity = if zero_capacity == 0 { 0.0 } else { capacity };
            let mut battery =
                Battery::new(Kwh::new(capacity), Kwh::new(capacity * charge_fraction)).unwrap();
            if limited {
                battery = battery
                    .with_throughput_limit(Kwh::new(capacity * limit_fraction))
                    .unwrap();
            }
            let series = |values: Vec<f64>| TimeSeries::from_fn(day(), |h| values[h]);
            let prices = PriceSignal::new(series(prices)).unwrap();
            let (load, generation, others) = (series(load), series(generation), series(others));
            let problem = BatteryProblem::new(
                &battery,
                &load,
                &generation,
                &others,
                CostModel::new(&prices, NetMeteringTariff::new(w).unwrap()),
            );
            let bits = |trajectory: Vec<Kwh>| -> Vec<u64> {
                trajectory.iter().map(|b| b.value().to_bits()).collect()
            };
            proptest::prop_assert_eq!(
                bits(coordinate_descent_battery(&problem)),
                bits(coordinate_descent_reference(&problem))
            );
        }
    }

    #[test]
    fn pv_surplus_is_stored_or_sold() {
        // Big PV at noon, no load: optimizer should not do worse than
        // selling it all immediately.
        let prices = PriceSignal::flat(day(), 0.1).unwrap();
        let load = TimeSeries::filled(day(), 0.0);
        let generation = TimeSeries::from_fn(day(), |h| if h == 12 { 4.0 } else { 0.0 });
        let others = TimeSeries::filled(day(), 10.0);
        let battery = Battery::new(Kwh::new(5.0), Kwh::ZERO).unwrap();
        let problem = BatteryProblem::new(
            &battery,
            &load,
            &generation,
            &others,
            CostModel::new(&prices, NetMeteringTariff::default()),
        );
        let optimizer = CrossEntropyOptimizer::default();
        let (_, solution) = ce_solve(&problem, &optimizer, 6);
        let sell_now_cost = problem.objective(&problem.idle_interior());
        assert!(solution.objective <= sell_now_cost + 1e-9);
        // Selling yields a credit, so the objective is negative.
        assert!(solution.objective < 0.0);
    }
}
