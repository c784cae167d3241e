//! Serde round-trips for the workspace's data-structure types (C-SERDE):
//! scenario files and experiment artifacts must survive serialization.

use netmeter_sentinel::attack::PriceAttack;
use netmeter_sentinel::pricing::{NetMeteringTariff, PriceSignal, UtilityConfig};
use netmeter_sentinel::sim::PaperScenario;
use netmeter_sentinel::smarthome::{Appliance, ApplianceKind, PowerLevels, TaskSpec};
use netmeter_sentinel::solver::{CeConfig, GameConfig};
use netmeter_sentinel::types::{Horizon, Kw, Kwh, TimeSeries};

/// JSON round-trip through serde; equality must hold.
fn roundtrip<T>(value: &T)
where
    T: serde::Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(*value, back);
}

#[test]
fn quantities_and_series_roundtrip() {
    roundtrip(&Kwh::new(3.25));
    roundtrip(&Kw::new(1.5));
    roundtrip(&Horizon::hourly_day());
    roundtrip(&TimeSeries::from_fn(Horizon::hourly_day(), |h| h as f64));
}

#[test]
fn smarthome_types_roundtrip() {
    let appliance = Appliance::new(
        netmeter_sentinel::types::ApplianceId::new(3),
        ApplianceKind::ElectricVehicle,
        PowerLevels::stepped(Kw::new(3.3), 3).unwrap(),
        TaskSpec::new(Kwh::new(7.5), 18, 23).unwrap(),
    );
    roundtrip(&appliance);
    roundtrip(&ApplianceKind::Custom("sauna".into()));
}

#[test]
fn pricing_types_roundtrip() {
    roundtrip(&NetMeteringTariff::new(1.75).unwrap());
    roundtrip(&UtilityConfig::default());
    roundtrip(&PriceSignal::time_of_use(Horizon::hourly_day(), 0.05, 0.2).unwrap());
}

#[test]
fn attack_types_roundtrip() {
    roundtrip(&PriceAttack::zero_window(16.0, 17.0).unwrap());
    roundtrip(&PriceAttack::InvertAroundMean);
}

#[test]
fn solver_and_scenario_configs_roundtrip() {
    roundtrip(&CeConfig::default());
    roundtrip(&GameConfig::fast());
    roundtrip(&PaperScenario::small(20, 42));
    roundtrip(&PaperScenario::paper(7));
}

#[test]
fn parallelism_roundtrips_and_defaults_sequential() {
    use netmeter_sentinel::sim::Parallelism;

    roundtrip(&Parallelism::SEQUENTIAL);
    roundtrip(&Parallelism::new(8));

    // Files written while `GameConfig` carried the Jacobi knob hold
    // `"parallelism":{"threads":N}` after `response`, and those written
    // while the solver memo caches existed add `"cache_quantum":0.0` after
    // it and `"price_quantum":0.0` after the UtilityConfig's price cap. The
    // keys are ignored on load, so those files equal today's defaults and
    // run Gauss–Seidel whatever thread count they name.
    let game = serde_json::to_string(&GameConfig::default()).expect("serialize");
    assert!(!game.contains("parallelism"), "{game}");
    let scenario = PaperScenario::paper(7);
    let scenario_game = serde_json::to_string(&scenario.game).expect("serialize game");
    let scenario_json = serde_json::to_string(&scenario).expect("serialize scenario");
    assert!(scenario_json.contains(&scenario_game), "{scenario_json}");
    let with_parent_keys = |game: &str, threads: usize| {
        let body = game.strip_suffix('}').expect("a JSON object");
        format!("{body},\"parallelism\":{{\"threads\":{threads}}},\"cache_quantum\":0.0}}")
    };
    for threads in [1, 4] {
        let parent_game = with_parent_keys(&game, threads);
        let config: GameConfig = serde_json::from_str(&parent_game).expect("parent config loads");
        assert_eq!(config, GameConfig::default(), "{parent_game}");

        let json = scenario_json.replace(&scenario_game, &with_parent_keys(&scenario_game, threads));
        let cap = json.find("\"price_cap\":").map(|at| at + json[at..].find('}').unwrap());
        let parent_scenario = match cap {
            Some(end) => format!("{},\"price_quantum\":0.0{}", &json[..end], &json[end..]),
            None => json,
        };
        assert!(
            parent_scenario.contains(&format!("\"parallelism\":{{\"threads\":{threads}}}"))
                && parent_scenario.contains("\"cache_quantum\":0.0")
                && parent_scenario.contains("\"price_quantum\":0.0}"),
            "{parent_scenario}"
        );
        let loaded: PaperScenario =
            serde_json::from_str(&parent_scenario).expect("parent scenario loads");
        assert_eq!(loaded, scenario);
    }
}

/// A `LongTermRunConfig` file written while `RetryPolicy` still carried
/// `reseed_stride` (the CE battery chain's reseed offset), or while
/// `LongTermConfig` still carried its `solver` choice, loads: the key is
/// ignored and everything else lands on the same values.
#[test]
fn parent_run_config_with_reseed_stride_loads() {
    use netmeter_sentinel::core::{DetectorMode, FrameworkConfig};
    use netmeter_sentinel::sim::experiments::paper_timeline;
    use netmeter_sentinel::sim::{FaultPlan, LongTermRunConfig};
    use netmeter_sentinel::types::{RetryPolicy, SolveBudget};

    let config = LongTermRunConfig {
        detection_days: 3,
        detector: Some(FrameworkConfig::new(DetectorMode::NetMeteringAware, 24)),
        timeline: paper_timeline(12),
        buckets: 6,
        bucket_fraction_step: 0.1,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: Some(FaultPlan::degraded(5, 0.05)),
        sanitize: Default::default(),
        retry: RetryPolicy::default(),
        budget: SolveBudget::unlimited(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    };
    let today = serde_json::to_string(&config).expect("serialize");
    // The parent's default stride, 0x9e37_79b9_7f4a_7c15, right after the
    // growth factor as the parent's field order wrote it.
    let growth = "\"iteration_growth\":2.0";
    let stride = "\"reseed_stride\":11400714819323198485";
    let with_stride = today.replace(growth, &format!("{growth},{stride}"));
    assert!(with_stride.contains("reseed_stride"), "{with_stride}");
    // The detector's only solver choice, QMDP, as the last field of
    // `long_term` where the parent's field order wrote it.
    let long_term = today.find("\"long_term\":{").expect("long_term section");
    let close = long_term + today[long_term..].find('}').expect("long_term closes");
    let with_solver = format!("{},\"solver\":\"Qmdp\"{}", &today[..close], &today[close..]);
    assert!(
        with_solver.contains("\"discount\":0.9,\"solver\":\"Qmdp\"}"),
        "{with_solver}"
    );
    // The single-event PAR threshold `δ_P`, between `load` and
    // `long_term` where the parent's field order wrote it.
    let with_threshold = today.replace("\"long_term\":{", "\"par_threshold\":0.05,\"long_term\":{");
    assert!(
        with_threshold.contains("\"par_threshold\":0.05"),
        "{with_threshold}"
    );

    for parent in [with_stride, with_solver, with_threshold] {
        let loaded: LongTermRunConfig = serde_json::from_str(&parent).expect("parent config loads");
        assert_eq!(loaded.retry, RetryPolicy::default());
        assert_eq!(serde_json::to_string(&loaded).expect("serialize"), today);
    }
}

#[test]
fn robustness_types_roundtrip() {
    use netmeter_sentinel::sim::FaultPlan;
    use netmeter_sentinel::types::{FallbackRecord, FaultKind, FaultCounts, RetryPolicy, RunHealth};

    roundtrip(&FaultPlan::none(3));
    roundtrip(&FaultPlan::degraded(11, 0.05));
    roundtrip(&RetryPolicy::default());
    roundtrip(&RetryPolicy::single_attempt());

    let mut counts = FaultCounts::default();
    counts.record(FaultKind::Dropped);
    counts.record(FaultKind::NonFinite);
    counts.record(FaultKind::Garbage);
    roundtrip(&counts);

    let mut health = RunHealth::new();
    health.faults_injected = counts;
    health.slots_observed = 48;
    health.slots_imputed = 3;
    health.record_retries(2);
    health.record_fallback(FallbackRecord::new(
        "battery-optimizer",
        "cross-entropy",
        "coordinate-descent",
        "did not converge",
    ));
    roundtrip(&health);
    assert!(health.degraded());
    roundtrip(&RunHealth::new());
}

/// A customer read back from JSON skips `Customer::build`, so its
/// appliance ids can repeat. Its plans must still fail the plan check
/// with the appliance-set mismatch, even listed in the customer's order.
#[test]
fn deserialized_customer_with_repeated_ids_fails_the_plan_check() {
    use netmeter_sentinel::smarthome::{check_plan, Customer, ScheduleError};
    use netmeter_sentinel::types::{ApplianceId, CustomerId};

    let horizon = Horizon::hourly_day();
    let appliance = |id: usize| {
        Appliance::new(
            ApplianceId::new(id),
            ApplianceKind::Dishwasher,
            PowerLevels::on_off(Kw::new(1.0)).unwrap(),
            TaskSpec::new(Kwh::new(1.0), 8, 12).unwrap(),
        )
    };
    let customer = Customer::builder(CustomerId::new(0), horizon)
        .appliance(appliance(0))
        .appliance(appliance(7))
        .build()
        .unwrap();
    let json = serde_json::to_string(&customer).expect("serialize");
    assert_eq!(json.matches(":7").count(), 1, "{json}");
    let repeated: Customer = serde_json::from_str(&json.replace(":7", ":0")).expect("deserialize");
    let ids: Vec<ApplianceId> = repeated.appliances().iter().map(|a| a.id()).collect();
    assert_eq!(ids, [ApplianceId::new(0), ApplianceId::new(0)]);

    let mut lane = vec![0.0; 24];
    lane[8] = 1.0;
    let battery = vec![Kwh::ZERO; 25];
    let plan = ids.iter().map(|&id| (id, lane.as_slice()));
    assert_eq!(
        check_plan(&repeated, plan, &battery),
        Err(ScheduleError::ApplianceSetMismatch {
            customer: CustomerId::new(0)
        })
    );
    // The same plan passes for the customer as built.
    let built = [ApplianceId::new(0), ApplianceId::new(7)].map(|id| (id, lane.as_slice()));
    assert_eq!(check_plan(&customer, built, &battery), Ok(()));
}
