//! Serde round-trips for the workspace's data-structure types (C-SERDE):
//! scenario files and experiment artifacts must survive serialization.

use netmeter_sentinel::attack::{AttackerConfig, PriceAttack};
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
    roundtrip(&AttackerConfig::default());
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
    use netmeter_sentinel::solver::Parallelism;

    roundtrip(&Parallelism::SEQUENTIAL);
    roundtrip(&Parallelism::new(8));

    // A GameConfig serialized before the parallelism knob existed must
    // still load, landing on the sequential default that keeps old runs
    // bit-identical: strip the key from today's JSON to reconstruct a
    // pre-knob config file.
    let parallelism = "\"parallelism\":{\"threads\":1}";
    let full = serde_json::to_string(&GameConfig::default()).expect("serialize");
    let legacy = full
        .replace(&format!(",{parallelism}"), "")
        .replace(&format!("{parallelism},"), "");
    assert!(
        !legacy.contains("parallelism"),
        "failed to strip the parallelism key from {legacy}"
    );
    let config: GameConfig = serde_json::from_str(&legacy).expect("legacy config loads");
    assert_eq!(config, GameConfig::default());

    // Files written while the solver memo caches existed carry
    // `"cache_quantum":0.0` after every GameConfig's parallelism and
    // `"price_quantum":0.0` after the UtilityConfig's price cap. The keys
    // are ignored on load, so those files equal today's defaults.
    let with_cache_keys = |json: &str| {
        let json = json.replace(parallelism, &format!("{parallelism},\"cache_quantum\":0.0"));
        let cap = json.find("\"price_cap\":").map(|at| at + json[at..].find('}').unwrap());
        match cap {
            Some(end) => format!("{},\"price_quantum\":0.0{}", &json[..end], &json[end..]),
            None => json,
        }
    };
    let parent_game = with_cache_keys(&full);
    assert!(parent_game.contains("\"cache_quantum\":0.0"), "{parent_game}");
    let config: GameConfig = serde_json::from_str(&parent_game).expect("parent config loads");
    assert_eq!(config, GameConfig::default());

    let scenario = PaperScenario::paper(7);
    let parent_scenario =
        with_cache_keys(&serde_json::to_string(&scenario).expect("serialize scenario"));
    assert!(
        parent_scenario.contains("\"cache_quantum\":0.0")
            && parent_scenario.contains("\"price_quantum\":0.0}"),
        "{parent_scenario}"
    );
    let loaded: PaperScenario =
        serde_json::from_str(&parent_scenario).expect("parent scenario loads");
    assert_eq!(loaded, scenario);
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
