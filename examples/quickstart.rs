//! Quickstart: build a small smart home community, solve the scheduling
//! game under a time-of-use price, and inspect loads and bills.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::error::Error;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use netmeter_sentinel::obs::NoopRecorder;
use netmeter_sentinel::pricing::{BillingEngine, NetMeteringTariff, PriceSignal};
use netmeter_sentinel::smarthome::{
    clear_sky_profile, Appliance, ApplianceKind, Battery, Community, Customer, PowerLevels,
    PvPanel, TaskSpec,
};
use netmeter_sentinel::solver::{GameConfig, GameEngine};
use netmeter_sentinel::types::{ApplianceId, CustomerId, Horizon, Kw, Kwh};

fn main() -> Result<(), Box<dyn Error>> {
    let horizon = Horizon::hourly_day();

    // --- Build four homes: an EV household, a PV+battery prosumer, a   ---
    // --- laundry-heavy home, and a minimal apartment.                  ---
    let customers = vec![
        Customer::builder(CustomerId::new(0), horizon)
            .appliance(Appliance::new(
                ApplianceId::new(0),
                ApplianceKind::ElectricVehicle,
                PowerLevels::stepped(Kw::new(3.3), 3)?,
                TaskSpec::new(Kwh::new(9.0), 18, 23)?,
            ))
            .appliance(Appliance::new(
                ApplianceId::new(1),
                ApplianceKind::Refrigerator,
                PowerLevels::on_off(Kw::new(0.25))?,
                TaskSpec::new(Kwh::new(2.0), 0, 23)?,
            ))
            .build()?,
        Customer::builder(CustomerId::new(1), horizon)
            .appliance(Appliance::new(
                ApplianceId::new(0),
                ApplianceKind::WaterHeater,
                PowerLevels::stepped(Kw::new(4.0), 4)?,
                TaskSpec::new(Kwh::new(4.0), 0, 23)?,
            ))
            .pv(PvPanel::new(
                Kw::new(4.0),
                clear_sky_profile(horizon, Kw::new(4.0)),
            )?)
            .battery(Battery::new(Kwh::new(8.0), Kwh::new(2.0))?)
            .build()?,
        Customer::builder(CustomerId::new(2), horizon)
            .appliance(Appliance::new(
                ApplianceId::new(0),
                ApplianceKind::WashingMachine,
                PowerLevels::on_off(Kw::new(1.0))?,
                TaskSpec::new(Kwh::new(1.5), 8, 20)?,
            ))
            .appliance(Appliance::new(
                ApplianceId::new(1),
                ApplianceKind::Dryer,
                PowerLevels::stepped(Kw::new(3.0), 2)?,
                TaskSpec::new(Kwh::new(2.5), 10, 22)?,
            ))
            .build()?,
        Customer::builder(CustomerId::new(3), horizon)
            .appliance(Appliance::new(
                ApplianceId::new(0),
                ApplianceKind::Lighting,
                PowerLevels::on_off(Kw::new(0.4))?,
                TaskSpec::new(Kwh::new(1.6), 17, 23)?,
            ))
            .build()?,
    ];

    let community = Community::new(horizon, customers)?;
    println!(
        "community: {} homes, {} can trade energy back, {:.1} of schedulable task energy",
        community.len(),
        community.trading_customers(),
        community.total_task_energy()
    );

    // --- Solve the net-metering scheduling game under a TOU price. ---
    let prices = PriceSignal::time_of_use(horizon, 0.06, 0.22)?;
    let tariff = NetMeteringTariff::default();
    let engine = GameEngine::new(&community, &prices, tariff, GameConfig::default())?;
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let outcome = engine.solve(&mut rng, &NoopRecorder)?;
    println!(
        "game: {} rounds, converged = {}",
        outcome.rounds, outcome.converged
    );

    let schedule = outcome.into_schedule(&community)?;
    let clock = horizon.clock();
    println!("\nhour   grid demand (kWh)");
    for h in 0..horizon.slots() {
        let demand = schedule.grid_demand()[h].max(0.0);
        let bar = "#".repeat((demand * 4.0).round() as usize);
        println!("{}  {demand:6.2}  {bar}", clock.label(h));
    }
    if let Some(par) = schedule.grid_par() {
        println!("\ngrid PAR: {par:.4}");
    }

    // --- Bill everyone. ---
    let engine = BillingEngine::new(prices, tariff);
    println!("\nbills:");
    for bill in engine.bill(&schedule)? {
        println!(
            "  {}: purchases {:.3}, net-metering credits {:.3}, net {:.3}",
            bill.customer,
            bill.purchases,
            bill.credits,
            bill.net()
        );
    }
    Ok(())
}
