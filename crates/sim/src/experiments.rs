//! Runners for every figure and table of the paper's evaluation (§5).
//!
//! Each runner is deterministic given the scenario's seed and returns a
//! typed result with a `render()` method producing paper-style terminal
//! output. Absolute numbers depend on the synthetic setup; the *shape*
//! (who wins, direction and rough magnitude of the gaps) reproduces the
//! paper — see EXPERIMENTS.md for the side-by-side record.

use nms_obs::NoopRecorder;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use nms_attack::{AttackTimeline, PriceAttack};
use nms_core::{DetectionReport, DetectorMode, FrameworkConfig, QuarantineConfig, SanitizeConfig};
use nms_types::{RetryPolicy, SolveBudget};

use crate::detection::run_in_memory;
use crate::{render_series, render_table, LongTermRunConfig, Market, PaperScenario, SimError};

/// The paper's Fig 5 attack: the guideline price is "manipulated to be
/// zero between 16:00 and 17:00".
pub fn paper_attack() -> PriceAttack {
    PriceAttack::zero_window(16.0, 17.0).expect("static window is valid")
}

/// The default 48-hour intrusion script used by Fig 6 / Table 1: campaigns
/// compromising ~10–15% of the fleet at a time.
pub fn paper_timeline(fleet: usize) -> AttackTimeline {
    let tenth = ((fleet as f64) * 0.10).round().max(1.0) as usize;
    let fifteenth = ((fleet as f64) * 0.15).round().max(1.0) as usize;
    AttackTimeline::new(
        vec![(5, tenth), (18, tenth), (29, fifteenth), (40, tenth)],
        paper_attack(),
    )
    .expect("static events are valid")
}

/// Result of the Fig 3 / Fig 4 prediction experiments.
#[derive(Debug, Clone)]
pub struct PredictionExperiment {
    /// Which figure this reproduces ("Fig 3" or "Fig 4").
    pub figure: &'static str,
    /// The received (true, no-attack) guideline price per slot.
    pub received_price: Vec<f64>,
    /// The predicted guideline price per slot.
    pub predicted_price: Vec<f64>,
    /// The predicted grid demand under the predicted price, per slot.
    pub predicted_load: Vec<f64>,
    /// PAR of the predicted load (the paper reports 1.4700 for Fig 3 and
    /// 1.3986 for Fig 4).
    pub par: f64,
    /// RMSE between predicted and received price (prediction quality).
    pub price_rmse: f64,
}

impl PredictionExperiment {
    /// Paper-style terminal rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} — predicted-load PAR {:.4}, price RMSE {:.5}\n",
            self.figure, self.par, self.price_rmse
        );
        out.push_str(&render_series("received price ", &self.received_price));
        out.push_str(&render_series("predicted price", &self.predicted_price));
        out.push_str(&render_series("predicted load ", &self.predicted_load));
        out
    }
}

fn run_prediction(
    scenario: &PaperScenario,
    mode: DetectorMode,
    figure: &'static str,
) -> Result<PredictionExperiment, SimError> {
    let market = Market::new(scenario)?;
    let generator = scenario.generator();
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xf1903);

    let history = market.bootstrap_history(&generator, scenario.training_days, &mut rng)?;

    let eval_day = scenario.training_days;
    let weather = scenario.weather_factors(eval_day + 1);
    let community = generator.community_for_day(eval_day, weather[eval_day]);
    let clean = market.clear_day(&community, 2, rng.gen(), &NoopRecorder)?;

    let framework = FrameworkConfig::new(mode, 24);
    let mut price_predictor = framework.price_predictor();
    price_predictor.train(&history)?;
    let theta = community.total_generation();
    let forecast = price_predictor
        .features()
        .target_generation
        .then_some(&theta);
    let predicted_price = price_predictor.predict_day(&history, community.horizon(), forecast)?;

    let predicted =
        framework
            .load
            .predict(&community, &predicted_price, &mut rng, &NoopRecorder)?;

    let price_rmse = predicted_price
        .rmse(&clean.price)
        .expect("same horizon by construction");

    Ok(PredictionExperiment {
        figure,
        received_price: clean.price.as_series().iter().copied().collect(),
        predicted_price: predicted_price.as_series().iter().copied().collect(),
        predicted_load: predicted.grid_demand.iter().copied().collect(),
        par: predicted.par,
        price_rmse,
    })
}

/// Fig 3: prediction *without* considering net metering (the naive SVR of
/// \[8\] plus a consumer-only world model).
///
/// # Errors
///
/// Returns [`SimError`] on configuration or solver failures.
pub fn run_fig3(scenario: &PaperScenario) -> Result<PredictionExperiment, SimError> {
    run_prediction(scenario, DetectorMode::IgnoreNetMetering, "Fig 3")
}

/// Fig 4: prediction considering net metering (the paper's method).
///
/// # Errors
///
/// Returns [`SimError`] on configuration or solver failures.
pub fn run_fig4(scenario: &PaperScenario) -> Result<PredictionExperiment, SimError> {
    run_prediction(scenario, DetectorMode::NetMeteringAware, "Fig 4")
}

/// Result of the Fig 5 attack-impact experiment.
#[derive(Debug, Clone)]
pub struct AttackExperiment {
    /// The manipulated guideline price per slot.
    pub manipulated_price: Vec<f64>,
    /// Realized grid demand under the attack, per slot.
    pub attacked_load: Vec<f64>,
    /// PAR under attack (the paper reports 1.9037).
    pub attacked_par: f64,
    /// PAR of the same day without the attack.
    pub clean_par: f64,
    /// Slot of the attacked load's peak (the paper's peak sits at
    /// 16:00–17:00).
    pub peak_slot: usize,
}

impl AttackExperiment {
    /// Paper-style terminal rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fig 5 — attacked PAR {:.4} (clean {:.4}, +{:.2}%), peak at slot {}\n",
            self.attacked_par,
            self.clean_par,
            100.0 * (self.attacked_par - self.clean_par) / self.clean_par,
            self.peak_slot
        );
        out.push_str(&render_series("manipulated price", &self.manipulated_price));
        out.push_str(&render_series("attacked load    ", &self.attacked_load));
        out
    }
}

/// Fig 5: the impact of the zero-price attack on the realized energy load.
///
/// # Errors
///
/// Returns [`SimError`] on configuration or solver failures.
pub fn run_fig5(scenario: &PaperScenario) -> Result<AttackExperiment, SimError> {
    let market = Market::new(scenario)?;
    let generator = scenario.generator();
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xf1905);

    let eval_day = scenario.training_days;
    let weather = scenario.weather_factors(eval_day + 1);
    let community = generator.community_for_day(eval_day, weather[eval_day]);
    let clean = market.clear_day(&community, 2, rng.gen(), &NoopRecorder)?;
    let manipulated = paper_attack().apply(&clean.price);

    // Every meter receives the manipulated signal (the paper's Fig 5
    // studies the full-impact case).
    let mut attacked_rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0xa77ac4);
    let attacked =
        market
            .truth_model()
            .predict(&community, &manipulated, &mut attacked_rng, &NoopRecorder)?;

    Ok(AttackExperiment {
        manipulated_price: manipulated.as_series().iter().copied().collect(),
        attacked_load: attacked.grid_demand.iter().copied().collect(),
        attacked_par: attacked.par,
        clean_par: clean.response.par,
        peak_slot: attacked.grid_demand.peak_slot(),
    })
}

/// Result of the Fig 6 observation-accuracy experiment.
#[derive(Debug, Clone)]
pub struct AccuracyExperiment {
    /// Final observation accuracy with net metering considered (the paper
    /// reports 95.14%).
    pub aware_accuracy: f64,
    /// Final observation accuracy without (the paper reports 65.95%).
    pub naive_accuracy: f64,
    /// Running accuracy per slot, aware detector.
    pub aware_running: Vec<f64>,
    /// Running accuracy per slot, naive detector.
    pub naive_running: Vec<f64>,
}

impl AccuracyExperiment {
    /// Paper-style terminal rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fig 6 — observation accuracy: {:.2}% considering net metering vs {:.2}% without\n",
            self.aware_accuracy * 100.0,
            self.naive_accuracy * 100.0
        );
        out.push_str(&render_series(
            "aware running accuracy",
            &self.aware_running,
        ));
        out.push_str(&render_series(
            "naive running accuracy",
            &self.naive_running,
        ));
        out
    }
}

fn long_term_config(
    scenario: &PaperScenario,
    detector: Option<FrameworkConfig>,
) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: 2,
        detector,
        timeline: paper_timeline(scenario.customers),
        buckets: 6,
        bucket_fraction_step: 0.1,
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

/// Fig 6: POMDP observation accuracy over 48 hours, with and without net
/// metering considered.
///
/// # Errors
///
/// Returns [`SimError`] on configuration or solver failures.
pub fn run_fig6(scenario: &PaperScenario) -> Result<AccuracyExperiment, SimError> {
    let aware_framework = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let naive_framework = FrameworkConfig::new(DetectorMode::IgnoreNetMetering, 24);

    let seed = scenario.seed ^ 0xf1906;
    let aware = run_in_memory(
        scenario,
        &long_term_config(scenario, Some(aware_framework)),
        seed,
    )?;
    let naive = run_in_memory(
        scenario,
        &long_term_config(scenario, Some(naive_framework)),
        seed,
    )?;

    Ok(AccuracyExperiment {
        aware_accuracy: aware.accuracy.accuracy().unwrap_or(0.0),
        naive_accuracy: naive.accuracy.accuracy().unwrap_or(0.0),
        aware_running: aware.accuracy.running_accuracy(),
        naive_running: naive.accuracy.running_accuracy(),
    })
}

/// Result of the Table 1 detection comparison.
#[derive(Debug, Clone)]
pub struct Table1Experiment {
    /// PAR with no detection (paper: 1.6509).
    pub no_detection_par: f64,
    /// PAR with detection ignoring net metering (paper: 1.5422).
    pub naive_par: f64,
    /// PAR with net-metering-aware detection (paper: 1.4112).
    pub aware_par: f64,
    /// Aware labor cost normalized by the naive detector's (paper: 1.0067);
    /// `None` when the naive detector never dispatched a fix.
    pub normalized_labor: Option<f64>,
    /// Raw labor costs `(naive, aware)`.
    pub labor_costs: (f64, f64),
}

impl Table1Experiment {
    /// The three configurations as typed [`DetectionReport`] rows.
    pub fn reports(&self) -> Vec<DetectionReport> {
        vec![
            DetectionReport {
                label: "No Detection".into(),
                par: self.no_detection_par,
                observation_accuracy: None,
                normalized_labor_cost: None,
            },
            DetectionReport {
                label: DetectorMode::IgnoreNetMetering.label().into(),
                par: self.naive_par,
                observation_accuracy: None,
                normalized_labor_cost: Some(1.0),
            },
            DetectionReport {
                label: DetectorMode::NetMeteringAware.label().into(),
                par: self.aware_par,
                observation_accuracy: None,
                normalized_labor_cost: self.normalized_labor,
            },
        ]
    }

    /// Paper-style terminal rendering (mirrors Table 1's columns).
    pub fn render(&self) -> String {
        render_table(
            &[
                "",
                "No Detection",
                "Detection w/o Net Metering",
                "Detection w/ Net Metering",
            ],
            &[
                vec![
                    "PAR".into(),
                    format!("{:.4}", self.no_detection_par),
                    format!("{:.4}", self.naive_par),
                    format!("{:.4}", self.aware_par),
                ],
                vec![
                    "Normalized Labor Cost".into(),
                    "-".into(),
                    "1".into(),
                    self.normalized_labor
                        .map_or_else(|| "-".into(), |v| format!("{v:.4}")),
                ],
            ],
        )
    }
}

/// Table 1: PAR and labor cost of the three configurations over the 48-hour
/// attack scenario.
///
/// # Errors
///
/// Returns [`SimError`] on configuration or solver failures.
pub fn run_table1(scenario: &PaperScenario) -> Result<Table1Experiment, SimError> {
    let seed = scenario.seed ^ 0x7ab1e1;
    let none = run_in_memory(scenario, &long_term_config(scenario, None), seed)?;
    let naive = run_in_memory(
        scenario,
        &long_term_config(
            scenario,
            Some(FrameworkConfig::new(DetectorMode::IgnoreNetMetering, 24)),
        ),
        seed,
    )?;
    let aware = run_in_memory(
        scenario,
        &long_term_config(
            scenario,
            Some(FrameworkConfig::new(DetectorMode::NetMeteringAware, 24)),
        ),
        seed,
    )?;

    Ok(Table1Experiment {
        no_detection_par: none.par,
        naive_par: naive.par,
        aware_par: aware.par,
        normalized_labor: aware.labor.normalized_against(&naive.labor),
        labor_costs: (naive.labor.total_cost(), aware.labor.total_cost()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> PaperScenario {
        let mut s = PaperScenario::small(10, 17);
        s.training_days = 3;
        s
    }

    #[test]
    fn paper_timeline_scales_with_fleet() {
        let t = paper_timeline(500);
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.total_meters(), 50 + 50 + 75 + 50);
        let small = paper_timeline(3);
        assert!(small.total_meters() >= 4);
    }

    #[test]
    fn fig3_and_fig4_run_and_render() {
        let s = scenario();
        let fig3 = run_fig3(&s).unwrap();
        let fig4 = run_fig4(&s).unwrap();
        assert_eq!(fig3.received_price.len(), 24);
        assert_eq!(fig4.predicted_load.len(), 24);
        assert!(fig3.par >= 1.0 && fig4.par >= 1.0);
        assert!(fig3.render().contains("Fig 3"));
        assert!(fig4.render().contains("Fig 4"));
        // The headline shape: the aware prediction tracks the received
        // price more closely.
        assert!(
            fig4.price_rmse <= fig3.price_rmse + 1e-9,
            "aware rmse {} vs naive {}",
            fig4.price_rmse,
            fig3.price_rmse
        );
    }

    #[test]
    fn table1_reports_are_typed_rows() {
        let t = Table1Experiment {
            no_detection_par: 1.65,
            naive_par: 1.54,
            aware_par: 1.41,
            normalized_labor: Some(1.0067),
            labor_costs: (100.0, 100.67),
        };
        let reports = t.reports();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].label, "No Detection");
        assert!(reports[2].label.contains("Considering Net Metering"));
        assert_eq!(reports[2].normalized_labor_cost, Some(1.0067));
        assert!(reports[2].to_string().contains("1.4100"));
    }

    #[test]
    fn fig5_attack_raises_par_and_moves_peak() {
        let s = scenario();
        let fig5 = run_fig5(&s).unwrap();
        assert!(
            fig5.attacked_par > fig5.clean_par,
            "attack {} vs clean {}",
            fig5.attacked_par,
            fig5.clean_par
        );
        assert!(
            (16..=17).contains(&fig5.peak_slot),
            "peak at {}",
            fig5.peak_slot
        );
        assert!(fig5.render().contains("Fig 5"));
    }
}
