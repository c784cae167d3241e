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
        let limit = self.battery.slot_throughput_limit().map(Kwh::value);
        for (h, &next) in interior.iter().enumerate() {
            let trading = self.load[h] + next - prev - self.generation[h];
            total += self
                .cost_model
                .slot_cost(h, self.others_trading[h], trading)
                .value();
            if let Some(limit) = limit {
                let excess = ((next - prev).abs() - limit).max(0.0);
                total += THROUGHPUT_PENALTY * excess * excess;
            }
            prev = next;
        }
        total
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

/// Optimizes the battery trajectory with cross-entropy optimization,
/// returning the full `b⁰..b^H` trajectory and the CE diagnostics.
///
/// `warm_start` (an interior `b¹..b^H`, e.g. from the previous game round)
/// both seeds the sampling distribution and acts as a floor: the result is
/// never worse than the warm start or the idle trajectory. For an unusable
/// (zero-capacity) battery this degenerates to the idle trajectory without
/// sampling. The CE population/elite buffers live in `ws` and are reused
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
    warm_start: Option<&[f64]>,
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
    let init = match warm_start {
        Some(point) => {
            if point.len() != problem.dim() {
                return Err(SolverError::Numeric {
                    detail: format!("warm start dimension: {} vs {}", point.len(), problem.dim()),
                });
            }
            point.to_vec()
        }
        None => problem.idle_interior(),
    };
    let mut solution = optimizer.minimize(|x| problem.objective(x), &bounds, &init, rng, ws)?;
    // Never return something worse than the warm start (which `init`
    // holds) or doing nothing.
    for candidate in [init, problem.idle_interior()] {
        let cost = problem.objective(&candidate);
        if cost < solution.objective {
            solution.point = candidate;
            solution.objective = cost;
        }
    }
    Ok((problem.full_trajectory(&solution.point), solution))
}

/// Deterministic baseline: cyclic projected coordinate descent with a
/// grid-plus-golden-section line search per coordinate.
///
/// Returns the full `b⁰..b^H` trajectory. The best response runs one
/// sweep per battery step and warm-starts [`optimize_battery`] from the
/// better of it and the previous trajectory.
pub fn coordinate_descent_battery(problem: &BatteryProblem<'_>, sweeps: usize) -> Vec<Kwh> {
    if !problem.battery().is_usable() {
        return problem.full_trajectory(&problem.idle_interior());
    }
    let capacity = problem.battery().capacity().value();
    let mut interior = problem.idle_interior();
    const GRID: usize = 16;
    for _ in 0..sweeps {
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
    }
    problem.full_trajectory(&interior)
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
        let trajectory = coordinate_descent_battery(&problem, 3);
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
