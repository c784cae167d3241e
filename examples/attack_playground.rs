//! Attack playground: measure how each pricing-attack class distorts the
//! community load shape and the customers' bills.
//!
//! ```sh
//! cargo run --release --example attack_playground -- --customers 30
//! ```

use std::error::Error;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use netmeter_sentinel::attack::{AttackImpact, CompromiseSet, PriceAttack};
use netmeter_sentinel::obs::NoopRecorder;
use netmeter_sentinel::pricing::BillingEngine;
use netmeter_sentinel::sim::{render_table, Market, PaperScenario};

fn main() -> Result<(), Box<dyn Error>> {
    let mut customers = 30usize;
    let mut seed = 99u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--customers" | "-n" => customers = args.next().ok_or("need value")?.parse()?,
            "--seed" | "-s" => seed = args.next().ok_or("need value")?.parse()?,
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }

    let scenario = PaperScenario::small(customers, seed);
    let market = Market::new(&scenario)?;
    let generator = scenario.generator();
    let weather = scenario.weather_factors(1);
    let community = generator.community_for_day(0, weather[0]);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let clean = market.clear_day(&community, 2, rng.gen(), &NoopRecorder)?;
    let clean_response = clean.response.into_scheduled(&community)?;
    let billing = BillingEngine::new(clean.price.clone(), scenario.tariff);
    let clean_bill = billing.total_revenue(&clean_response.schedule)?;
    println!(
        "clean day: PAR {:.4}, community bill {:.2}\n",
        clean_response.par, clean_bill
    );
    drop(billing);

    let attacks: Vec<(&str, PriceAttack)> = vec![
        (
            "zero 16:00-18:00 (paper)",
            PriceAttack::zero_window(16.0, 18.0)?,
        ),
        ("zero 02:00-04:00", PriceAttack::zero_window(2.0, 4.0)?),
        (
            "half-price evening",
            PriceAttack::scale_window(17.0, 21.0, 0.5)?,
        ),
        ("double everything", PriceAttack::scale_all(2.0)?),
        ("invert around mean", PriceAttack::InvertAroundMean),
    ];

    // Every meter is compromised in this playground.
    let all_hacked: CompromiseSet = (0..community.len())
        .map(netmeter_sentinel::types::MeterId::new)
        .collect();

    let mut rows = Vec::new();
    for (label, attack) in &attacks {
        let manipulated = attack.apply(&clean.price);
        // The whole community believes the manipulated price…
        let mut attacked_rng = ChaCha8Rng::seed_from_u64(seed);
        let attacked = market
            .truth_model()
            .predict(&community, &manipulated, &mut attacked_rng, &NoopRecorder)?
            .into_scheduled(&community)?;
        // …but is billed at the real one.
        let impact = AttackImpact::assess(
            &clean_response.schedule,
            &attacked.schedule,
            &clean.price,
            scenario.tariff,
            &all_hacked,
        )?;
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", impact.attacked_par),
            format!("{:+.2}%", impact.par_increase * 100.0),
            format!("{:+.2}%", impact.peak_increase * 100.0),
            format!("{:+.2}", impact.community_bill_change.value()),
            if impact.is_par_attack(0.1) {
                "PAR"
            } else {
                "-"
            }
            .into(),
        ]);
    }

    println!(
        "{}",
        render_table(
            &["attack", "PAR", "ΔPAR", "Δpeak", "Δbill ($)", "class"],
            &rows
        )
    );
    println!("(every meter compromised; bills are computed at the true price)");
    let _ = clean_bill;
    Ok(())
}
