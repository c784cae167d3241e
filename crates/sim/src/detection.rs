//! The multi-day attack/detection simulation behind Fig 6 and Table 1.
//!
//! Per detection day the market clears a clean guideline price; a scripted
//! attacker compromises meters over time, and compromised homes schedule
//! against the manipulated signal. Every slot the detector compares the
//! realized grid demand against its own day-ahead prediction using the
//! *peak relative demand deviation* — the localized form of §4.1's PAR
//! comparison, which stays informative at small compromise fractions where
//! the attack spike has not yet overtaken the natural evening peak. The
//! statistic is mapped to an observed hacked-meter bucket through a
//! calibration table built in the detector's own world model, and the
//! observation feeds the POMDP which decides between monitoring and a
//! check-&-fix dispatch.
//!
//! Hacked homes are modeled as *unilateral deviators*: the day-ahead game
//! has already closed when the manipulated signal takes effect, so honest
//! homes keep their committed schedules while each compromised home
//! re-optimizes alone against the committed aggregate. The realization is
//! recomputed whenever the compromise set changes.
//!
//! [`SupervisedRun`] is the one runner: training draws from a seeded
//! stream, every day draws from its own `(seed, day)`-derived stream and is
//! journaled on completion, so a killed run resumes bit-identically from
//! the journal (see `journal` and DESIGN.md §8). Runs that need no
//! durable checkpoint journal to memory through
//! [`SupervisedOptions::in_memory`].

use std::path::Path;
use std::sync::Arc;

use nms_obs::{span, NoopRecorder, Recorder, Stopwatch, TraceEvent};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use nms_attack::{AttackTimeline, CompromiseSet};
use nms_core::{
    meter_day_failed, sanitize_series, AccuracyTracker, DetectorAction, Deviation, FrameworkConfig,
    LaborTracker, LoadPredictor, LongTermDetector, MeterQuarantine, ParObservationMap,
    PredictedResponse, PricePredictor, QuarantineConfig, QuarantineEvent, QuarantineTransition,
    SanitizeConfig,
};
use nms_forecast::PriceHistory;
use nms_par::Parallelism;
use nms_pricing::PriceSignal;
use nms_smarthome::Community;
use nms_types::{
    DayHealth, MeterId, RetryPolicy, RunHealth, SolveBudget, StorageFaultLedger, TimeSeries,
    ValidateError,
};
use nms_vfs::{FaultVfs, IoFaultPlan, StdVfs, StoragePolicy, Vfs};

use crate::calibrate::{calibrate_detector, peak_deviation, Backtest};
use crate::faults::{corrupt_day_meters, FaultPlan};
use crate::journal::{
    DayRecord, FixRecord, HistoryRow, JournalError, JournalHeader, RunJournal, JOURNAL_VERSION,
};
use crate::{CommunityGenerator, Market, PaperScenario, SimError};

/// Slots per simulated day (the paper's hourly horizon).
const SLOTS_PER_DAY: usize = 24;

/// Configuration for a [`SupervisedRun`].
///
/// Serializable; the robustness knobs (`sanitize`, `retry`, `budget`,
/// `quarantine`) all default, so configurations serialized before they
/// existed still deserialize.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LongTermRunConfig {
    /// Days simulated after the training epoch (the paper uses 2 → 48 h).
    pub detection_days: usize,
    /// The detector under test; `None` runs the no-detection baseline.
    pub detector: Option<FrameworkConfig>,
    /// The scripted attacker.
    pub timeline: AttackTimeline,
    /// Hacked-meter buckets for state/observation (bucket `i` ≈
    /// `i · bucket_fraction_step` of the fleet compromised).
    pub buckets: usize,
    /// Fleet fraction per bucket.
    pub bucket_fraction_step: f64,
    /// Labor cost per check-&-fix dispatch.
    pub labor_per_fix: f64,
    /// Labor cost per meter actually repaired.
    pub labor_per_meter: f64,
    /// Telemetry fault injection; `None` (or a no-op plan) leaves the
    /// detector's view pristine.
    pub faults: Option<FaultPlan>,
    /// Telemetry screening thresholds for the detector's view.
    #[serde(default)]
    pub sanitize: SanitizeConfig,
    /// Retry schedule for the trainers behind calibration.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Watchdog budget for SVR training (default unlimited).
    #[serde(default)]
    pub budget: SolveBudget,
    /// Per-meter quarantine breaker thresholds (active only with fault
    /// injection, which is when per-meter telemetry exists).
    #[serde(default)]
    pub quarantine: QuarantineConfig,
    /// Read by nothing: the calibration backtest it used to fan out now
    /// runs its days on the calling thread and one helper. It stays only
    /// because `perfbench/src/inputs.rs` names it, and perfbench is edited
    /// only by a benchmark change (ROADMAP direction 2 deletes the field).
    /// It is still validated, and the journal's configuration fingerprint
    /// still leaves it out, so a journal resumes under any value.
    #[serde(default)]
    pub parallelism: Parallelism,
    /// Fixed-point rounds of `price ← design(demand(price))` per cleared
    /// detection day (see [`Market::clear_day`]). The historical value — and
    /// what configurations serialized before this knob existed load as — is
    /// 2. Higher values iterate the market closer to its fixed point, each
    /// iteration costing one more game solve.
    #[serde(default = "default_clearing_iterations")]
    pub clearing_iterations: usize,
}

fn default_clearing_iterations() -> usize {
    2
}

impl LongTermRunConfig {
    /// Validates the run configuration against a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] for zero days/buckets, a fraction step
    /// outside `(0, 1]`, negative labor costs, or an invalid detector,
    /// fault, retry, budget, or quarantine configuration.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.detection_days == 0 {
            return Err(ValidateError::new("need at least one detection day"));
        }
        if self.buckets < 2 {
            return Err(ValidateError::new("need at least two buckets"));
        }
        if !(self.bucket_fraction_step > 0.0 && self.bucket_fraction_step <= 1.0) {
            return Err(ValidateError::new("bucket fraction step must be in (0, 1]"));
        }
        for (name, c) in [
            ("labor_per_fix", self.labor_per_fix),
            ("labor_per_meter", self.labor_per_meter),
        ] {
            if !c.is_finite() || c < 0.0 {
                return Err(ValidateError::new(format!("{name} must be non-negative")));
            }
        }
        if let Some(detector) = &self.detector {
            detector.validate()?;
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        self.retry.validate()?;
        self.budget.validate()?;
        self.quarantine.validate()?;
        self.parallelism.validate().map_err(ValidateError::new)?;
        Ok(())
    }
}

/// Result of one long-term run.
#[derive(Debug, Clone)]
pub struct LongTermRunResult {
    /// Per-slot observation accuracy (empty for the no-detection baseline).
    pub accuracy: AccuracyTracker,
    /// Labor spent on fixes.
    pub labor: LaborTracker,
    /// Realized community grid demand, slot by slot across all detection
    /// days.
    pub realized_demand: Vec<f64>,
    /// PAR of the realized demand over the whole run (Table 1's metric).
    pub par: f64,
    /// True hacked bucket per slot.
    pub true_buckets: Vec<usize>,
    /// Observed bucket per slot (empty for the no-detection baseline).
    pub observed_buckets: Vec<usize>,
    /// Global slots at which a fix was dispatched.
    pub fixes_at: Vec<usize>,
    /// Degradation ledger: faults seen, slots imputed, retries and
    /// fallbacks consumed anywhere in the pipeline, budget breaches, and
    /// quarantine transitions.
    pub health: RunHealth,
    /// The training/calibration epoch's slice of the ledger (exported as
    /// the `training` row of the health timeline).
    pub training_health: DayHealth,
    /// Per-detection-day health timeline rows.
    pub day_health: Vec<DayHealth>,
    /// Every quarantine breaker transition, in day then meter order.
    pub quarantine_events: Vec<QuarantineEvent>,
    /// Final quarantine tracker state (`None` without fault injection).
    pub quarantine: Option<MeterQuarantine>,
    /// Final POMDP belief over hacked-meter buckets (`None` for the
    /// no-detection baseline).
    pub final_belief: Option<Vec<f64>>,
}

fn bucket_of(count: usize, fleet: usize, buckets: usize, step: f64) -> usize {
    let fraction = count as f64 / fleet as f64;
    ((fraction / step).round() as usize).min(buckets - 1)
}

/// Shannon entropy (nats) of a belief vector; zero entries contribute
/// nothing. A collapsing belief → entropy falling toward zero, the
/// telemetry signature of the POMDP locking onto a bucket.
fn belief_entropy(belief: &[f64]) -> f64 {
    -belief
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>()
}

// ---------------------------------------------------------------------------
// Shared run machinery
// ---------------------------------------------------------------------------

/// Immutable per-run context built once from the scenario.
struct RunSetup {
    market: Market,
    generator: CommunityGenerator,
    weather: Vec<f64>,
    fleet: usize,
}

/// Everything the trained detector carries between days.
struct DetectorState {
    framework: FrameworkConfig,
    price_predictor: PricePredictor,
    observation_map: ParObservationMap,
    long_term: LongTermDetector,
}

/// All evolving state of a long-term run between days — exactly what the
/// journal's day records let a resume reconstruct.
struct RunState {
    health: RunHealth,
    training_health: DayHealth,
    history: PriceHistory,
    detector: Option<DetectorState>,
    compromised: CompromiseSet,
    accuracy: AccuracyTracker,
    labor: LaborTracker,
    realized_demand: Vec<f64>,
    true_buckets: Vec<usize>,
    observed_buckets: Vec<usize>,
    fixes_at: Vec<usize>,
    quarantine: Option<MeterQuarantine>,
    day_health: Vec<DayHealth>,
    quarantine_events: Vec<QuarantineEvent>,
}

fn prepare(scenario: &PaperScenario, config: &LongTermRunConfig) -> Result<RunSetup, SimError> {
    scenario.validate()?;
    config.validate()?;
    let market = Market::new(scenario)?;
    let generator = scenario.generator();
    let total_days = scenario.training_days + config.detection_days;
    let weather = scenario.weather_factors(total_days);
    Ok(RunSetup {
        market,
        generator,
        weather,
        fleet: scenario.customers,
    })
}

/// Training epoch: bootstrap history, train the price predictor, calibrate
/// the observation map, solve the POMDP, arm the quarantine breakers.
fn train(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    setup: &RunSetup,
    rng: &mut impl Rng,
    rec: &dyn Recorder,
) -> Result<RunState, SimError> {
    let watch = Stopwatch::start();
    let _span = span(rec, "training");
    let mut health = RunHealth::new();
    let history =
        setup
            .market
            .bootstrap_history_recorded(&setup.generator, scenario.training_days, rng, rec)?;

    let detector = match &config.detector {
        None => None,
        Some(framework) => {
            let backtest = Backtest {
                scenario,
                framework,
                timeline: &config.timeline,
                buckets: config.buckets,
                bucket_fraction_step: config.bucket_fraction_step,
                retry: &config.retry,
                budget: &config.budget,
                market: &setup.market,
                generator: &setup.generator,
                history: &history,
            };
            let calibration = calibrate_detector(&backtest, rng, rec)?;
            health.merge(&calibration.health);
            let mut long_term_config = framework.long_term;
            long_term_config.buckets = config.buckets;
            let long_term = LongTermDetector::with_observation_matrix(
                long_term_config,
                calibration.observation_matrix.clone(),
            )?;
            Some(DetectorState {
                framework: framework.clone(),
                price_predictor: calibration.price_predictor,
                observation_map: calibration.observation_map,
                long_term,
            })
        }
    };

    // Per-meter quarantine needs per-meter telemetry, which only exists
    // under fault injection.
    let quarantine = match config.faults.as_ref().filter(|plan| !plan.is_noop()) {
        Some(_) => Some(MeterQuarantine::new(setup.fleet, config.quarantine)?),
        None => None,
    };

    rec.observe("detect_training_seconds", watch.secs());
    if rec.enabled() {
        let mut event = TraceEvent::new("training")
            .field("training_days", scenario.training_days as f64)
            .field("detector", f64::from(u8::from(detector.is_some())));
        // The calibrated observation-map centroids, one field per bucket.
        if let Some(det) = &detector {
            for (bucket, &centroid) in det.observation_map.centroids().iter().enumerate() {
                event = event.field(format!("centroid_{bucket}"), centroid);
            }
        }
        rec.event(&event.field("seconds", watch.secs()));
    }

    let training_health = DayHealth::delta(0, &RunHealth::new(), &health, 0);
    Ok(RunState {
        health,
        training_health,
        history,
        detector,
        compromised: CompromiseSet::new(),
        accuracy: AccuracyTracker::new(),
        labor: LaborTracker::new(config.labor_per_fix, config.labor_per_meter),
        realized_demand: Vec::with_capacity(config.detection_days * SLOTS_PER_DAY),
        true_buckets: Vec::new(),
        observed_buckets: Vec::new(),
        fixes_at: Vec::new(),
        quarantine,
        day_health: Vec::with_capacity(config.detection_days),
        quarantine_events: Vec::new(),
    })
}

/// Builds the detector's telemetry view of one realized day: corrupt the
/// per-meter reports under `plan`, drop quarantined meters from the
/// re-aggregation, then sanitize against the detector's own prediction.
/// Fault and imputation tallies are recorded once per day (rebuilds within
/// a day redraw the identical faults); the per-meter failure verdicts that
/// feed the quarantine breakers are captured on the first build.
#[allow(clippy::too_many_arguments)]
fn faulted_view(
    plan: &FaultPlan,
    day: usize,
    lanes: &[&[f64]],
    predicted: &TimeSeries<f64>,
    sanitize: &SanitizeConfig,
    quarantine: Option<&MeterQuarantine>,
    health: &mut RunHealth,
    day_recorded: &mut bool,
    day_failed: &mut Option<Vec<bool>>,
    rec: &dyn Recorder,
) -> Result<TimeSeries<f64>, SimError> {
    let per_meter = corrupt_day_meters(plan, day, predicted.horizon(), lanes);
    let excluded: Vec<bool> = (0..per_meter.fleet())
        .map(|m| quarantine.is_some_and(|q| q.is_excluded(m)))
        .collect();
    let observed = per_meter.aggregate_excluding(&excluded);
    let report =
        sanitize_series(&observed, predicted, sanitize).map_err(|err| SimError::Telemetry {
            detail: err.to_string(),
        })?;
    if !*day_recorded {
        health.faults_injected.merge(&per_meter.injected);
        health.slots_imputed += report.imputed_slots;
        rec.add("sim_faults_injected", per_meter.injected.total() as u64);
        rec.add("sim_slots_imputed", report.imputed_slots as u64);
        if rec.enabled() {
            rec.event(
                &TraceEvent::new("sanitize")
                    .day(day)
                    .field("faults_injected", per_meter.injected.total() as f64)
                    .field("slots_imputed", report.imputed_slots as f64)
                    .field(
                        "meters_excluded",
                        excluded.iter().filter(|&&e| e).count() as f64,
                    ),
            );
        }
        *day_recorded = true;
    }
    if day_failed.is_none() {
        if let Some(quarantine) = quarantine {
            // Expected per-meter reading magnitude: the predicted community
            // demand shared across the fleet.
            let fleet = per_meter.fleet().max(1);
            let scale = predicted.mean().max(0.0) / fleet as f64;
            *day_failed = Some(
                (0..per_meter.fleet())
                    .map(|m| {
                        meter_day_failed(
                            per_meter.meter_readings(m),
                            scale,
                            sanitize,
                            quarantine.config(),
                        )
                    })
                    .collect(),
            );
        }
    }
    Ok(report.cleaned)
}

/// One realization of a detection day: the hacked homes' deviations from
/// the committed plan, and the grid demand they produce with it.
struct Realization {
    deviations: Vec<Deviation>,
    grid_demand: TimeSeries<f64>,
}

/// Realizes one day's response for the hacked `meters`: the committed
/// (clean) plan with hacked homes deviating unilaterally, in `meters`
/// order, or the committed response itself when no meter is hacked. Only
/// the hacked homes' plans are cloned; honest homes are read in place.
/// Pure in `(community, committed, manipulated, realization_seed, meters)`.
fn realize_day(
    truth: &LoadPredictor,
    community: &Community,
    committed: &PredictedResponse,
    manipulated: &PriceSignal,
    realization_seed: u64,
    meters: &[MeterId],
    rec: &dyn Recorder,
) -> Result<Realization, SimError> {
    let mut child = ChaCha8Rng::seed_from_u64(realization_seed);
    let deviations =
        truth.respond_unilaterally(community, committed, manipulated, meters, &mut child, rec)?;
    Ok(Realization {
        grid_demand: committed.realized_demand(&deviations),
        deviations,
    })
}

/// Simulates one detection day, mutating `state` and returning the day's
/// journalable transcript.
///
/// The day draws two values from its `rng`, in this order: the clearing
/// seed, then the realization seed (which also seeds the detector's load
/// prediction). Nothing else in the day touches `rng`.
#[allow(clippy::too_many_arguments)]
fn simulate_day(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    setup: &RunSetup,
    state: &mut RunState,
    day_offset: usize,
    rng: &mut impl Rng,
    rec: &dyn Recorder,
) -> Result<DayRecord, SimError> {
    let _day_span = span(rec, "detect_day");
    let fault_plan = config.faults.as_ref().filter(|plan| !plan.is_noop());
    let fleet = setup.fleet;
    let day = scenario.training_days + day_offset;
    let health_before = state.health.clone();
    let true_start = state.true_buckets.len();
    let observed_start = state.observed_buckets.len();
    let demand_start = state.realized_demand.len();
    let community = setup.generator.community_for_day(day, setup.weather[day]);
    let clearing_seed: u64 = rng.gen();
    let realization_seed: u64 = rng.gen();

    // The clearing, the attack and the day-start realization.
    let compromised = &state.compromised;
    // The committed response keeps the game's plans and lanes: every
    // realization reads them, as do the telemetry faults.
    let truth = setup.market.truth_model();
    let front = |rec: &dyn Recorder| -> Result<_, SimError> {
        let clearing_watch = Stopwatch::start();
        let clean = {
            let _span = span(rec, "clearing");
            setup
                .market
                .clear_day(&community, config.clearing_iterations, clearing_seed, rec)?
        };
        let (price, committed) = (clean.price, clean.response);
        let clearing_secs = clearing_watch.secs();
        let manipulated = config.timeline.attack().apply(&price);
        let realization = realize_day(
            truth,
            &community,
            &committed,
            &manipulated,
            realization_seed,
            &compromised.iter().collect::<Vec<_>>(),
            rec,
        )?;
        Ok((price, committed, manipulated, realization, clearing_secs))
    };
    // The detector's day-ahead view reads the trained predictors, the
    // history through yesterday, the day's community and the realization
    // seed — never the clearing or the compromise set — so it runs beside
    // the front half, or after it where no core is free (`nms_par::join`).
    let history = &state.history;
    let community_ref = &community;
    let prediction = state.detector.as_ref().map(|det| {
        let (price_predictor, load) = (&det.price_predictor, &det.framework.load);
        move |rec: &dyn Recorder| -> Result<(PredictedResponse, f64), SimError> {
            let prediction_watch = Stopwatch::start();
            let theta = community_ref.total_generation();
            let generation_forecast = price_predictor
                .features()
                .target_generation
                .then_some(&theta);
            let predicted_price = price_predictor.predict_day(
                history,
                community_ref.horizon(),
                generation_forecast,
            )?;
            let mut predicted_rng = ChaCha8Rng::seed_from_u64(realization_seed);
            let predicted =
                load.predict(community_ref, &predicted_price, &mut predicted_rng, rec)?;
            Ok((predicted, prediction_watch.secs()))
        }
    });
    let ((price, committed, manipulated, mut realization, clearing_secs), prediction) =
        match prediction {
            Some(prediction) => {
                let (front, predicted) = nms_par::join(rec, "prediction", front, prediction)?;
                (front, Some(predicted))
            }
            None => (front(rec)?, None),
        };
    let (day_prediction, prediction_secs) = match prediction {
        Some((predicted, secs)) => (Some(predicted), secs),
        None => (None, 0.0),
    };

    // Quarantined suspects feed the observation: a breaker the detector has
    // opened is a meter it already distrusts, so the observed bucket can
    // never report less compromise than the quarantine census implies.
    let suspect_bucket = state.quarantine.as_ref().map_or(0, |q| {
        bucket_of(
            q.open_count(),
            fleet,
            config.buckets,
            config.bucket_fraction_step,
        )
    });

    // Re-realize the day whenever the compromise set changes mid-day.
    let realize = |compromised: &CompromiseSet| {
        realize_day(
            truth,
            &community,
            &committed,
            &manipulated,
            realization_seed,
            &compromised.iter().collect::<Vec<_>>(),
            rec,
        )
    };
    // The telemetry view of the current realization, rebuilt lazily
    // whenever the realization changes mid-day.
    let mut observed_view: Option<TimeSeries<f64>> = None;
    let mut day_faults_recorded = false;
    let mut day_failed: Option<Vec<bool>> = None;
    let mut fixes: Vec<FixRecord> = Vec::new();
    // Wall-clock spent in the PAR statistic vs the POMDP update, summed
    // over the day's slots. Timings flow only into telemetry, never back
    // into the simulation (the nms-obs determinism contract).
    let mut par_secs = 0.0;
    let mut pomdp_secs = 0.0;

    let slots_span = span(rec, "slots");
    for slot in 0..SLOTS_PER_DAY {
        let global_slot = day_offset * SLOTS_PER_DAY + slot;
        let newly = config
            .timeline
            .step(global_slot, &mut state.compromised, fleet);
        if !newly.is_empty() {
            realization = realize(&state.compromised)?;
            observed_view = None;
        }

        let true_bucket = bucket_of(
            state.compromised.count(),
            fleet,
            config.buckets,
            config.bucket_fraction_step,
        );
        state.true_buckets.push(true_bucket);

        if let (Some(det), Some(predicted)) = (state.detector.as_mut(), day_prediction.as_ref()) {
            if fault_plan.is_some() && observed_view.is_none() {
                if let Some(plan) = fault_plan {
                    observed_view = Some(faulted_view(
                        plan,
                        day,
                        &committed.lanes(&realization.deviations),
                        &predicted.grid_demand,
                        &config.sanitize,
                        state.quarantine.as_ref(),
                        &mut state.health,
                        &mut day_faults_recorded,
                        &mut day_failed,
                        rec,
                    )?);
                }
            }
            let par_watch = Stopwatch::start();
            let telemetry: &TimeSeries<f64> =
                observed_view.as_ref().unwrap_or(&realization.grid_demand);
            let statistic = peak_deviation(telemetry, &predicted.grid_demand);
            state.health.slots_observed += 1;
            let observed = det.observation_map.observe(statistic).max(suspect_bucket);
            par_secs += par_watch.secs();
            state.observed_buckets.push(observed);
            state.accuracy.record(true_bucket, observed);
            if observed != true_bucket {
                rec.add("detect_bucket_error", 1);
            }
            if rec.enabled() {
                rec.event(
                    &TraceEvent::new("slot")
                        .day(day_offset)
                        .field("slot", global_slot as f64)
                        .field("statistic", statistic)
                        .field("true_bucket", true_bucket as f64)
                        .field("observed_bucket", observed as f64),
                );
            }

            let pomdp_watch = Stopwatch::start();
            let action = det.long_term.observe_and_act(observed);
            pomdp_secs += pomdp_watch.secs();
            if action == DetectorAction::Fix {
                let repaired = state.compromised.repair_all();
                state.labor.record_fix(repaired);
                state.fixes_at.push(global_slot);
                fixes.push(FixRecord {
                    slot: global_slot,
                    repaired,
                });
                if rec.enabled() {
                    rec.event(
                        &TraceEvent::new("fix")
                            .day(day_offset)
                            .field("slot", global_slot as f64)
                            .field("repaired", repaired as f64),
                    );
                }
                realization = realize(&state.compromised)?;
                observed_view = None;
            }
        }

        state.realized_demand.push(realization.grid_demand[slot]);
    }
    drop(slots_span);

    // End of day: advance the quarantine breakers on the day's per-meter
    // verdicts. Exclusions take effect from the next day's aggregation.
    let mut events = Vec::new();
    if let (Some(quarantine), Some(failed)) = (state.quarantine.as_mut(), day_failed.as_ref()) {
        events = quarantine.observe_day(day, failed);
        for event in &events {
            match event.transition {
                QuarantineTransition::Tripped | QuarantineTransition::Retripped => {
                    state.health.quarantine_trips += 1;
                    rec.add("sim_quarantine_trips", 1);
                }
                QuarantineTransition::Recovered => {
                    state.health.quarantine_recoveries += 1;
                    rec.add("sim_quarantine_recoveries", 1);
                }
                QuarantineTransition::Probation => {}
            }
            if rec.enabled() {
                rec.event(
                    &TraceEvent::new("quarantine")
                        .day(day_offset)
                        .field("meter", event.meter as f64)
                        .label("transition", format!("{:?}", event.transition)),
                );
            }
        }
    }
    state.quarantine_events.extend(events.iter().copied());

    // Roll the realized day into the history (the detector keeps learning
    // from what actually happened). The demand series records consumption
    // `L_h`, matching the bootstrap epoch's convention.
    let theta = community.total_generation();
    let load = committed.realized_load(&community, &realization.deviations);
    let mut history_rows = Vec::with_capacity(SLOTS_PER_DAY);
    for h in 0..SLOTS_PER_DAY {
        let row = HistoryRow {
            price: price.at(h).value(),
            generation: theta[h],
            demand: load.at(h).value(),
        };
        state.history.push(row.price, row.generation, row.demand);
        history_rows.push(row);
    }

    let meters_quarantined = state.quarantine.as_ref().map_or(0, MeterQuarantine::open_count);
    let day_health = DayHealth::delta(day_offset, &health_before, &state.health, meters_quarantined);
    state.day_health.push(day_health);

    // Per-day phase timings and belief telemetry. Everything recorded here
    // is either wall-clock (never fed back into the run) or a value the
    // simulation already produced.
    rec.observe("detect_clearing_seconds", clearing_secs);
    rec.observe("detect_prediction_seconds", prediction_secs);
    rec.observe("detect_par_seconds", par_secs);
    rec.observe("detect_pomdp_seconds", pomdp_secs);
    if let Some(det) = state.detector.as_ref() {
        rec.gauge("detect_belief_entropy", belief_entropy(det.long_term.belief().as_slice()));
    }
    if rec.enabled() {
        let mut event = TraceEvent::new("day_phases")
            .day(day_offset)
            .field("clearing_seconds", clearing_secs)
            .field("prediction_seconds", prediction_secs)
            .field("par_seconds", par_secs)
            .field("pomdp_seconds", pomdp_secs)
            .field("meters_compromised", state.compromised.count() as f64)
            .field("meters_quarantined", meters_quarantined as f64);
        if let Some(det) = state.detector.as_ref() {
            event = event.field(
                "belief_entropy",
                belief_entropy(det.long_term.belief().as_slice()),
            );
        }
        rec.event(&event);
    }

    Ok(DayRecord {
        day: day_offset,
        true_buckets: state.true_buckets[true_start..].to_vec(),
        observed_buckets: state.observed_buckets[observed_start..].to_vec(),
        realized_demand: state.realized_demand[demand_start..].to_vec(),
        fixes,
        history_rows,
        compromised: state.compromised.iter().map(|m| m.index()).collect(),
        belief: state
            .detector
            .as_ref()
            .map(|det| det.long_term.belief().as_slice().to_vec()),
        health: state.health.clone(),
        day_health,
        quarantine: state.quarantine.clone(),
        events,
    })
}

/// Re-applies one journaled day to the run state without re-simulating it.
fn replay_day(state: &mut RunState, record: &DayRecord) -> Result<(), SimError> {
    state.true_buckets.extend_from_slice(&record.true_buckets);
    state
        .observed_buckets
        .extend_from_slice(&record.observed_buckets);
    state
        .realized_demand
        .extend_from_slice(&record.realized_demand);
    for (&true_bucket, &observed) in record.true_buckets.iter().zip(&record.observed_buckets) {
        state.accuracy.record(true_bucket, observed);
    }
    for fix in &record.fixes {
        state.labor.record_fix(fix.repaired);
        state.fixes_at.push(fix.slot);
    }
    for row in &record.history_rows {
        state.history.push(row.price, row.generation, row.demand);
    }
    state.compromised = record.compromised.iter().map(|&m| MeterId::new(m)).collect();
    if let (Some(det), Some(belief)) = (state.detector.as_mut(), record.belief.as_ref()) {
        det.long_term.restore_belief(belief)?;
    }
    state.health = record.health.clone();
    state.quarantine = record.quarantine.clone();
    state.day_health.push(record.day_health);
    state.quarantine_events.extend(record.events.iter().copied());
    Ok(())
}

fn finalize(state: RunState) -> Result<LongTermRunResult, SimError> {
    let par = {
        let series = TimeSeries::from_values(
            nms_types::Horizon::hourly(state.realized_demand.len()),
            state.realized_demand.clone(),
        )
        .map_err(|err| SimError::Config(ValidateError::new(err.to_string())))?;
        series.par().unwrap_or(1.0)
    };

    Ok(LongTermRunResult {
        final_belief: state
            .detector
            .as_ref()
            .map(|det| det.long_term.belief().as_slice().to_vec()),
        accuracy: state.accuracy,
        labor: state.labor,
        realized_demand: state.realized_demand,
        par,
        true_buckets: state.true_buckets,
        observed_buckets: state.observed_buckets,
        fixes_at: state.fixes_at,
        health: state.health,
        training_health: state.training_health,
        day_health: state.day_health,
        quarantine_events: state.quarantine_events,
        quarantine: state.quarantine,
    })
}

// ---------------------------------------------------------------------------
// Supervised (crash-safe) runner
// ---------------------------------------------------------------------------

/// Runs a whole [`SupervisedRun`] from `seed` with its journal in memory:
/// the experiment and sweep runners need the result, not a checkpoint.
pub(crate) fn run_in_memory(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
) -> Result<LongTermRunResult, SimError> {
    let path = Path::new("journal.jsonl");
    SupervisedRun::with_options(
        scenario,
        config,
        seed,
        path,
        SupervisedOptions::in_memory(),
    )?
    .run()
}

/// Stream tag decorrelating the training epoch from the day streams.
const TRAINING_STREAM: u64 = 0x7472_6169_6e69_6e67; // "training"

/// The seeded stream for detection day `day_offset` of a supervised run.
fn day_stream_seed(seed: u64, day_offset: usize) -> u64 {
    seed.wrapping_add((day_offset as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fingerprints a configuration through its `Debug` rendering — stable
/// enough to catch a journal being resumed with a different scenario or
/// config, without requiring every nested type to serialize.
fn fingerprint(debug: impl std::fmt::Debug) -> u64 {
    nms_obs::trace::fnv1a64(format!("{debug:?}").as_bytes())
}

/// The journal's configuration fingerprint. `parallelism` is left out
/// (reset to its default): results are bit-identical at every thread
/// count, so a journal may resume under a different one.
fn config_fingerprint(config: &LongTermRunConfig) -> u64 {
    fingerprint(LongTermRunConfig {
        parallelism: Parallelism::default(),
        ..config.clone()
    })
}

/// A crash-safe long-horizon detection run, and the one long-term runner:
/// training replays from a seeded stream, each detection day draws from
/// its own `(seed, day)` stream and is journaled on completion, and
/// [`SupervisedRun::with_options`] resumes from whatever complete prefix
/// of days the journal holds.
///
/// Because no RNG state outlives a day, the run is bit-identical to itself
/// across kill/resume at any day boundary, which is the property the
/// journal guarantees (and `tests/fault_robustness.rs` asserts).
pub struct SupervisedRun {
    scenario: PaperScenario,
    config: LongTermRunConfig,
    seed: u64,
    setup: RunSetup,
    state: RunState,
    journal: RunJournal,
    next_day: usize,
    recorder: Arc<dyn Recorder>,
    /// Per-run storage-fault ledger, shared with (cloned from) the
    /// [`SupervisedOptions`] that built this run. Deliberately NOT part of
    /// `state.health`: journaled day records and exported CSVs must stay
    /// bit-identical whether or not this process weathered storage faults,
    /// so the tally is merged into the *result's* ledger only at
    /// [`SupervisedRun::finish`]. Owning the ledger in the options (rather
    /// than a plain field) means a supervisor that tears a run down and
    /// rebuilds it from its journal keeps the same tally across rebuilds,
    /// while two runs built from independent options can never see each
    /// other's faults.
    storage: StorageFaultLedger,
}

/// Injectable plumbing for a [`SupervisedRun`]: which storage the journal
/// writes through, which recorder sees telemetry, and the journal-append
/// degradation policy. `Default` is production plumbing — the real
/// filesystem, no recorder, 3 attempts with 2 ms linear backoff.
#[derive(Clone)]
pub struct SupervisedOptions {
    /// Storage the journal (and any sweep-driven exports) lives on.
    pub vfs: Arc<dyn Vfs>,
    /// Telemetry sink for training and every stepped day.
    pub recorder: Arc<dyn Recorder>,
    /// Journal append degradation policy (rollback + retry-with-backoff,
    /// then a hard [`SimError::Journal`]).
    pub policy: StoragePolicy,
    /// The run's storage-fault tally. Cloning the options shares the
    /// underlying ledger (every rebuild of one shard keeps accumulating
    /// into the same tally); `Default` starts a fresh, independent one, so
    /// concurrent runs built from separate options cannot cross-contaminate.
    pub storage: StorageFaultLedger,
}

impl Default for SupervisedOptions {
    fn default() -> Self {
        Self {
            vfs: Arc::new(StdVfs),
            recorder: Arc::new(NoopRecorder),
            policy: StoragePolicy::default(),
            storage: StorageFaultLedger::new(),
        }
    }
}

impl SupervisedOptions {
    /// Default plumbing with the journal on a fresh in-memory disk: for
    /// runs that need the result but no durable checkpoint. Every call
    /// gets its own disk, so any journal path will do.
    pub fn in_memory() -> Self {
        Self {
            vfs: Arc::new(FaultVfs::new(IoFaultPlan::none())),
            ..Self::default()
        }
    }
}

impl std::fmt::Debug for SupervisedOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedOptions")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl SupervisedRun {
    /// Starts (or resumes) a run journaled at `journal_path` on
    /// `options.vfs`. Injecting the [`Vfs`] is how the crash-point sweep
    /// (`tests/crash_sweep.rs`) kills a run at an arbitrary I/O operation
    /// and resumes it from the surviving bytes.
    ///
    /// When the journal already holds complete days for the same
    /// `(seed, scenario, config)` triple, they are replayed instead of
    /// re-simulated; a torn final record is dropped and its day re-runs.
    /// The recorder is telemetry-only: an active recorder produces a run
    /// bit-identical to one with the no-op recorder.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Journal`] for a journal that is interior-corrupt
    /// or belongs to a different run, and [`SimError`] on invalid
    /// configurations or solver failures.
    pub fn with_options(
        scenario: &PaperScenario,
        config: &LongTermRunConfig,
        seed: u64,
        journal_path: &Path,
        options: SupervisedOptions,
    ) -> Result<Self, SimError> {
        let SupervisedOptions {
            vfs,
            recorder,
            policy,
            storage,
        } = options;
        let setup = prepare(scenario, config)?;
        let mut training_rng = ChaCha8Rng::seed_from_u64(seed ^ TRAINING_STREAM);
        let mut state = train(scenario, config, &setup, &mut training_rng, recorder.as_ref())?;

        let header = JournalHeader {
            version: JOURNAL_VERSION,
            seed,
            detection_days: config.detection_days,
            fleet: setup.fleet,
            scenario_fingerprint: fingerprint(scenario),
            config_fingerprint: config_fingerprint(config),
        };
        let loaded = RunJournal::load_on(vfs.as_ref(), journal_path)?;
        let (journal, next_day) = match loaded.header {
            None => (
                RunJournal::create_on(Arc::clone(&vfs), journal_path, &header)?,
                0,
            ),
            Some(found) => {
                found.ensure_matches(&header)?;
                let mut next_day = 0;
                for record in &loaded.days {
                    if record.day != next_day {
                        return Err(JournalError::Gap {
                            expected: next_day,
                            found: record.day,
                        }
                        .into());
                    }
                    replay_day(&mut state, record)?;
                    next_day += 1;
                }
                (RunJournal::reopen_on(Arc::clone(&vfs), journal_path)?, next_day)
            }
        };
        let journal = journal.with_policy(policy);

        Ok(Self {
            scenario: scenario.clone(),
            config: config.clone(),
            seed,
            setup,
            state,
            journal,
            next_day,
            recorder,
            storage,
        })
    }

    /// Days already completed (journaled or replayed).
    pub fn completed_days(&self) -> usize {
        self.next_day
    }

    /// `true` once every detection day has been simulated.
    pub fn is_finished(&self) -> bool {
        self.next_day >= self.config.detection_days
    }

    /// Where the journal lives.
    pub fn journal_path(&self) -> &Path {
        self.journal.path()
    }

    /// Simulates the next detection day and journals it. A no-op once the
    /// run is finished.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; [`SimError::Journal`] when the
    /// completed day cannot be persisted (the day's state changes are kept
    /// in memory but will re-run on resume).
    pub fn step_day(&mut self) -> Result<(), SimError> {
        if self.is_finished() {
            return Ok(());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(day_stream_seed(self.seed, self.next_day));
        let rec = self.recorder.as_ref();
        let record = simulate_day(
            &self.scenario,
            &self.config,
            &self.setup,
            &mut self.state,
            self.next_day,
            &mut rng,
            rec,
        )?;
        let append_watch = Stopwatch::start();
        {
            let _span = span(rec, "journal_append");
            match self.journal.append_day(&record) {
                Ok(report) => {
                    let retries = report.retries();
                    self.storage.record(|tally| tally.journal_retries += retries);
                }
                Err(err) => {
                    self.storage.record(|tally| tally.journal_append_failures += 1);
                    return Err(err.into());
                }
            }
        }
        rec.observe("journal_append_seconds", append_watch.secs());
        if rec.enabled() {
            rec.event(
                &TraceEvent::new("journal_append")
                    .day(self.next_day)
                    .field("seconds", append_watch.secs()),
            );
        }
        self.next_day += 1;
        Ok(())
    }

    /// Consumes the run and produces the final result (valid at any point;
    /// covers the completed days).
    ///
    /// The process-local storage-fault ledger is merged into the result's
    /// `health.storage` here — and only here, so journaled state stays
    /// identical across fault-free and fault-weathering processes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when no day produced demand samples.
    pub fn finish(self) -> Result<LongTermRunResult, SimError> {
        let mut result = finalize(self.state)?;
        result.health.storage.merge(&self.storage.snapshot());
        Ok(result)
    }

    /// Runs every remaining day, then finishes.
    ///
    /// # Errors
    ///
    /// Same as [`SupervisedRun::step_day`] and [`SupervisedRun::finish`].
    pub fn run(mut self) -> Result<LongTermRunResult, SimError> {
        while !self.is_finished() {
            self.step_day()?;
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::respond_unilaterally_reference;
    use nms_attack::PriceAttack;
    use nms_core::DetectorMode;

    /// The lane-based realization against the schedule-form reference:
    /// the realized demand, the load the history rolls and every meter's
    /// faulted readings, bit for bit, for no hacked meter, one, an unsorted
    /// pair and the whole community, on a battery community (the CE path)
    /// that exports at midday (so the demand clamp bites).
    #[test]
    fn lane_realization_matches_the_schedule_form() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scenario = PaperScenario::small(6, 31);
        scenario.pv_ownership = 1.0;
        scenario.pv_rating = (5.0, 8.0);
        let market = Market::new(&scenario).unwrap();
        let truth = market.truth_model();
        let community = scenario.generator().community_for_day(0, 1.0);
        assert!(community.iter().any(|c| c.battery().is_usable()));
        let clean = market.clear_day(&community, 2, 77, &NoopRecorder).unwrap();
        let committed = &clean.response;
        assert!((0..24).any(|h| committed.outcome().grid_demand[h] < 0.0));
        let manipulated = timeline().attack().apply(&clean.price);
        let horizon = community.horizon();
        let n = community.len();
        let faults = FaultPlan::degraded(5, 0.2);
        for hacked in [vec![], vec![0], vec![4, 1], (0..n).collect()] {
            let meters: Vec<MeterId> = hacked.iter().map(|&m| MeterId::new(m)).collect();
            let realization = realize_day(
                truth,
                &community,
                committed,
                &manipulated,
                99,
                &meters,
                &NoopRecorder,
            )
            .unwrap();
            let reference = respond_unilaterally_reference(
                truth,
                &community,
                committed,
                &manipulated,
                &meters,
                &mut ChaCha8Rng::seed_from_u64(99),
                &NoopRecorder,
            );
            let label = format!("hacked {hacked:?}");
            assert_eq!(
                bits(realization.grid_demand.as_slice()),
                bits(reference.grid_demand_clamped().as_slice()),
                "{label}: demand"
            );
            let load = committed.realized_load(&community, &realization.deviations);
            assert_eq!(
                bits(load.series().as_slice()),
                bits(reference.load().series().as_slice()),
                "{label}: load"
            );
            let lanes = committed.lanes(&realization.deviations);
            let reference_lanes: Vec<&[f64]> = reference
                .customer_schedules()
                .iter()
                .map(|s| s.trading().as_slice())
                .collect();
            for (meter, (a, b)) in lanes.iter().zip(&reference_lanes).enumerate() {
                assert_eq!(bits(a), bits(b), "{label}: meter {meter} lane");
            }
            for day in [0, 3] {
                let faulted = corrupt_day_meters(&faults, day, horizon, &lanes);
                let expected = corrupt_day_meters(&faults, day, horizon, &reference_lanes);
                assert_eq!(faulted.injected, expected.injected, "{label}: faults");
                assert!(faulted.injected.total() > 0, "{label}: the plan injects");
                for meter in 0..n {
                    assert_eq!(
                        bits(faulted.meter_readings(meter)),
                        bits(expected.meter_readings(meter)),
                        "{label}: day {day} meter {meter} readings"
                    );
                }
            }
        }
    }

    fn timeline() -> AttackTimeline {
        AttackTimeline::new(
            vec![(4, 3), (20, 3)],
            PriceAttack::zero_window(16.0, 18.0).unwrap(),
        )
        .unwrap()
    }

    fn run_config(detector: Option<FrameworkConfig>) -> LongTermRunConfig {
        LongTermRunConfig {
            detection_days: 1,
            detector,
            timeline: timeline(),
            buckets: 4,
            bucket_fraction_step: 0.15,
            labor_per_fix: 10.0,
            labor_per_meter: 1.0,
            faults: None,
            sanitize: SanitizeConfig::default(),
            retry: RetryPolicy::default(),
            budget: SolveBudget::unlimited(),
            quarantine: QuarantineConfig::default(),
            parallelism: Default::default(),
            clearing_iterations: 2,
        }
    }

    #[test]
    fn config_validation() {
        assert!(run_config(None).validate().is_ok());
        let mut c = run_config(None);
        c.detection_days = 0;
        assert!(c.validate().is_err());
        let mut c = run_config(None);
        c.buckets = 1;
        assert!(c.validate().is_err());
        let mut c = run_config(None);
        c.bucket_fraction_step = 0.0;
        assert!(c.validate().is_err());
        let mut c = run_config(None);
        c.labor_per_fix = -1.0;
        assert!(c.validate().is_err());
        // The new robustness knobs validate too.
        let mut c = run_config(None);
        c.budget.max_iterations = Some(0);
        assert!(c.validate().is_err());
        let mut c = run_config(None);
        c.retry.max_attempts = 0;
        assert!(c.validate().is_err());
        let mut c = run_config(None);
        c.quarantine.trip_after = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_without_robustness_fields_still_deserializes() {
        let full = serde_json::to_string(&run_config(None)).unwrap();
        // Strip the new fields to emulate a pre-supervision config file.
        let legacy: String = full
            .split(",\"sanitize\"")
            .next()
            .map(|prefix| format!("{prefix}}}"))
            .unwrap();
        assert!(legacy.contains("detection_days"));
        assert!(!legacy.contains("quarantine"));
        let parsed: LongTermRunConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.sanitize, SanitizeConfig::default());
        assert_eq!(parsed.retry, RetryPolicy::default());
        assert_eq!(parsed.budget, SolveBudget::unlimited());
        assert_eq!(parsed.quarantine, QuarantineConfig::default());
        assert_eq!(parsed.detection_days, 1);
        assert_eq!(
            parsed.clearing_iterations, 2,
            "configs serialized before the knob existed must load as the \
             historical 2 clearing rounds, not usize::default()"
        );
    }

    #[test]
    fn bucket_mapping() {
        assert_eq!(bucket_of(0, 100, 6, 0.1), 0);
        assert_eq!(bucket_of(10, 100, 6, 0.1), 1);
        assert_eq!(bucket_of(14, 100, 6, 0.1), 1);
        assert_eq!(bucket_of(16, 100, 6, 0.1), 2);
        assert_eq!(bucket_of(90, 100, 6, 0.1), 5); // clamped to top bucket
    }

    #[test]
    fn no_detection_baseline_runs() {
        let mut scenario = PaperScenario::small(10, 31);
        scenario.training_days = 3;
        let config = run_config(None);
        let result = run_in_memory(&scenario, &config, 1).unwrap();
        assert_eq!(result.realized_demand.len(), 24);
        assert!(result.accuracy.accuracy().is_none());
        assert_eq!(result.labor.fixes(), 0);
        assert!(result.par >= 1.0);
        // Attacker hacked meters and nobody fixed them.
        assert_eq!(result.true_buckets.len(), 24);
        assert!(*result.true_buckets.last().unwrap() > 0);
        // No detector → no belief; no faults → no quarantine, and the one
        // day has a health timeline row.
        assert!(result.final_belief.is_none());
        assert!(result.quarantine.is_none());
        assert_eq!(result.day_health.len(), 1);
        assert!(!result.day_health[0].degraded());
    }

    #[test]
    fn aware_detector_tracks_and_fixes() {
        let mut scenario = PaperScenario::small(10, 33);
        scenario.training_days = 4;
        let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
        let config = run_config(Some(detector));
        let result = run_in_memory(&scenario, &config, 2).unwrap();
        assert_eq!(result.observed_buckets.len(), 24);
        // A 10-home fleet is far below the paper's scale, so the absolute
        // accuracy is noisy; this is a smoke test that the full pipeline
        // (calibration → observation → POMDP action) runs and produces a
        // coherent trace. Shape assertions live in tests/paper_shapes.rs.
        assert!(result.accuracy.accuracy().is_some());
        assert_eq!(result.true_buckets.len(), 24);
        assert!(result.observed_buckets.iter().all(|&o| o < config.buckets));
        // The detector carries a belief over exactly the configured buckets.
        let belief = result.final_belief.expect("detector keeps a belief");
        assert_eq!(belief.len(), config.buckets);
        assert!((belief.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn supervised_run_steps_and_finishes() {
        let mut scenario = PaperScenario::small(8, 41);
        scenario.training_days = 3;
        let config = run_config(None);
        let options = SupervisedOptions::in_memory();
        let path = Path::new("smoke.jsonl");

        let mut run =
            SupervisedRun::with_options(&scenario, &config, 5, path, options.clone()).unwrap();
        assert_eq!(run.completed_days(), 0);
        run.step_day().unwrap();
        assert!(run.is_finished());
        let result = run.finish().unwrap();
        assert_eq!(result.realized_demand.len(), 24);
        assert_eq!(result.day_health.len(), 1);

        // Re-opening the finished journal replays rather than re-simulates.
        let resumed = SupervisedRun::with_options(&scenario, &config, 5, path, options).unwrap();
        assert!(resumed.is_finished());
        let replayed = resumed.finish().unwrap();
        assert_eq!(replayed.realized_demand, result.realized_demand);
        assert_eq!(replayed.true_buckets, result.true_buckets);
    }

    #[test]
    fn supervised_run_rejects_foreign_journal() {
        let mut scenario = PaperScenario::small(8, 41);
        scenario.training_days = 3;
        let config = run_config(None);
        let options = SupervisedOptions::in_memory();
        let path = Path::new("foreign.jsonl");

        let mut run =
            SupervisedRun::with_options(&scenario, &config, 5, path, options.clone()).unwrap();
        run.step_day().unwrap();
        // A different seed must refuse the same journal.
        match SupervisedRun::with_options(&scenario, &config, 6, path, options) {
            Err(SimError::Journal(JournalError::HeaderMismatch { detail })) => {
                assert!(detail.contains("seed"), "{detail}");
            }
            Err(other) => panic!("expected HeaderMismatch, got {other:?}"),
            Ok(_) => panic!("expected HeaderMismatch, got a resumed run"),
        }
    }

    #[test]
    fn resume_under_changed_config_fails_typed() {
        // Header-drift negative path: a shard restarted under a changed
        // `LongTermRunConfig` must refuse its journal with a typed error,
        // not silently diverge from the journaled run.
        let mut scenario = PaperScenario::small(8, 41);
        scenario.training_days = 3;
        let config = run_config(None);
        let vfs = FaultVfs::new(IoFaultPlan::none());
        let path = Path::new("/drift/journal.jsonl");
        let options = |vfs: &FaultVfs| SupervisedOptions {
            vfs: Arc::new(vfs.clone()),
            ..SupervisedOptions::default()
        };

        let mut run =
            SupervisedRun::with_options(&scenario, &config, 5, path, options(&vfs)).unwrap();
        run.step_day().unwrap();
        drop(run);

        // Any config knob that changes behavior changes the fingerprint.
        let mut tweaked = config.clone();
        tweaked.labor_per_fix += 1.0;
        match SupervisedRun::with_options(&scenario, &tweaked, 5, path, options(&vfs)) {
            Err(SimError::Journal(JournalError::HeaderMismatch { detail })) => {
                assert!(detail.contains("configuration fingerprint"), "{detail}");
            }
            Err(other) => panic!("expected HeaderMismatch, got {other:?}"),
            Ok(_) => panic!("expected HeaderMismatch, got a resumed run"),
        }

        // The horizon is checked field-for-field, not just by fingerprint.
        let mut longer = config.clone();
        longer.detection_days += 1;
        match SupervisedRun::with_options(&scenario, &longer, 5, path, options(&vfs)) {
            Err(SimError::Journal(JournalError::HeaderMismatch { detail })) => {
                assert!(detail.contains("detection_days"), "{detail}");
            }
            Err(other) => panic!("expected HeaderMismatch, got {other:?}"),
            Ok(_) => panic!("expected HeaderMismatch, got a resumed run"),
        }

        // The unchanged config still resumes.
        let resumed =
            SupervisedRun::with_options(&scenario, &config, 5, path, options(&vfs)).unwrap();
        assert_eq!(resumed.completed_days(), 1);
    }

    #[test]
    fn storage_ledger_is_per_run_and_survives_rebuild() {
        // Regression for concurrent-shard fault aggregation: each run's
        // absorbed-fault tally lives in a ledger owned by its options, so
        // (a) a supervisor that rebuilds a failed run from its journal with
        // cloned options keeps the earlier incarnation's tally, and (b) a
        // second run built from independent options never sees it.
        let mut scenario = PaperScenario::small(8, 41);
        scenario.training_days = 3;
        let config = run_config(None);
        let path = Path::new("/ledger/journal.jsonl");

        // Probe the op index of the first journal append on a clean VFS so
        // the kill point can be aimed at it deterministically.
        let probe = FaultVfs::new(IoFaultPlan::none());
        let probe_options = SupervisedOptions {
            vfs: Arc::new(probe.clone()),
            ..SupervisedOptions::default()
        };
        let run =
            SupervisedRun::with_options(&scenario, &config, 5, path, probe_options).unwrap();
        let first_append_op = probe.ops();
        drop(run);

        // Shard A: storage dies mid-append. The step fails and the failure
        // lands on A's ledger.
        let vfs_a = FaultVfs::new(IoFaultPlan::kill_at(first_append_op));
        let options_a = SupervisedOptions {
            vfs: Arc::new(vfs_a.clone()),
            ..SupervisedOptions::default()
        };
        let mut run_a =
            SupervisedRun::with_options(&scenario, &config, 5, path, options_a.clone()).unwrap();
        assert!(run_a.step_day().is_err(), "append through a dead disk must fail");
        assert_eq!(run_a.storage.snapshot().journal_append_failures, 1);
        drop(run_a);

        // Shard B runs concurrently from independent options: its ledger
        // must stay clean no matter what A absorbed.
        let vfs_b = FaultVfs::new(IoFaultPlan::none());
        let options_b = SupervisedOptions {
            vfs: Arc::new(vfs_b.clone()),
            ..SupervisedOptions::default()
        };
        let result_b = SupervisedRun::with_options(&scenario, &config, 6, path, options_b.clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(options_b.storage.snapshot().total(), 0, "shard A leaked into B");
        assert_eq!(result_b.health.storage.total(), 0);

        // Storage comes back; the supervisor rebuilds A from its journal
        // with the SAME options. The rebuilt run completes, and its result
        // still reports the failure the earlier incarnation absorbed.
        vfs_a.revive();
        let result_a = SupervisedRun::with_options(&scenario, &config, 5, path, options_a.clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result_a.health.storage.journal_append_failures, 1);
        assert!(options_a.storage.shares_with(&options_a.clone().storage));
        assert!(!options_a.storage.shares_with(&options_b.storage));
    }
}
