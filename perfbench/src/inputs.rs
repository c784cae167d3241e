//! The workloads: every input the program receives, generated from a seed
//! before the program runs.

use netmeter_sentinel::core::{DetectorMode, FrameworkConfig};
use netmeter_sentinel::fleet::shard_seed;
use netmeter_sentinel::sim::experiments::paper_timeline;
use netmeter_sentinel::sim::{FaultPlan, LongTermRunConfig, PaperScenario};
use netmeter_sentinel::types::SolveBudget;
use serde::{Deserialize, Serialize};

use crate::BoxError;

/// Seed of the fleet's four communities. There `--seed` drives the runs
/// (bootstrap draws, attacks, day streams, meter faults, shard seeds) but
/// not the communities: a small community's equipment and daily tasks set
/// most of the solver's work, and battery communities drawn from the seed
/// changed a repetition's time by up to 2x from seed to seed. The PV-only
/// community is drawn from `--seed`: its results depend on nothing else,
/// and over 500 homes and 28 days its work varies little between draws.
const FLEET_COMMUNITY_SEED: u64 = 1;
/// Detection days of `pv_only_n500`: enough days that one run's day-close
/// median and run time move little from seed to seed.
const PV_ONLY_DAYS: usize = 28;
/// Detection days of `fleet_4x12`: five day closes after the first, each
/// timed once per repetition.
const FLEET_DAYS: usize = 6;
/// Dropped-reading rate of the fleet's telemetry faults (`FaultPlan`'s
/// documented 5% shape): light enough that no day close fails, heavy
/// enough that sanitize and the meter quarantine run.
const FLEET_FAULT_RATE: f64 = 0.05;
/// Decorrelates a shard's fault stream from its simulation seed.
const FAULT_STREAM: u64 = 0x6661_756c_7473; // "faults"

/// What `gen` writes and `run` reads.
#[derive(Debug, Serialize, Deserialize)]
pub struct Inputs {
    /// The workload these inputs were generated for.
    pub workload: String,
    /// Fleet worker threads; 0 drives the single shard through
    /// `SupervisedRun` directly instead of through `run_fleet`.
    pub fleet_workers: usize,
    /// One community per shard.
    pub shards: Vec<Shard>,
}

/// One community: its scenario, its run configuration and its run seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Shard {
    pub scenario: PaperScenario,
    pub config: LongTermRunConfig,
    pub seed: u64,
}

/// The named workload's inputs for `seed`. `smoke` shrinks each workload
/// to a size that runs in a second or two, for the benchmark's smoke test.
pub fn generate(workload: &str, seed: u64, smoke: bool) -> Result<Inputs, BoxError> {
    let (fleet_workers, shards) = match workload {
        "pv_only_n500" => {
            let mut scenario = PaperScenario::small(if smoke { 20 } else { 500 }, seed);
            scenario.battery_ownership = 0.0;
            let days = if smoke { 2 } else { PV_ONLY_DAYS };
            let config = run_config(&scenario, DetectorMode::IgnoreNetMetering, days, None);
            (
                0,
                vec![Shard {
                    scenario,
                    config,
                    seed,
                }],
            )
        }
        "fleet_4x12" => {
            let (customers, days) = if smoke { (8, 2) } else { (12, FLEET_DAYS) };
            let shards = (0..4)
                .map(|index| {
                    let scenario = PaperScenario::small(
                        customers,
                        FLEET_COMMUNITY_SEED.wrapping_add(17 + index as u64),
                    );
                    let seed = shard_seed(seed, index);
                    let faults = FaultPlan::degraded(seed ^ FAULT_STREAM, FLEET_FAULT_RATE);
                    let config = run_config(
                        &scenario,
                        DetectorMode::NetMeteringAware,
                        days,
                        Some(faults),
                    );
                    Shard {
                        scenario,
                        config,
                        seed,
                    }
                })
                .collect();
            (2, shards)
        }
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    Ok(Inputs {
        workload: workload.to_string(),
        fleet_workers,
        shards,
    })
}

/// The Fig 6 run configuration (`experiments::run_fig6`'s knobs) with the
/// workload's detector, horizon and telemetry faults.
fn run_config(
    scenario: &PaperScenario,
    mode: DetectorMode,
    days: usize,
    faults: Option<FaultPlan>,
) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: days,
        detector: Some(FrameworkConfig::new(mode, 24)),
        timeline: paper_timeline(scenario.customers),
        buckets: 6,
        bucket_fraction_step: 0.1,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: SolveBudget::unlimited(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    }
}
