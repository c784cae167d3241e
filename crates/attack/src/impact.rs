//! Attack impact assessment: what the attacker gains and what the
//! community loses when schedules respond to a manipulated price but are
//! billed at the real one.
//!
//! The companion attacks of \[8\] target either the victims' *bills* (honest
//! homes pay more) or the grid's *PAR* (stability damage); both are
//! quantified here from a clean/attacked schedule pair.

use serde::{Deserialize, Serialize};

use nms_pricing::{BillingEngine, NetMeteringTariff, PriceSignal};
use nms_smarthome::CommunitySchedule;
use nms_types::{Dollars, HorizonMismatchError};

use crate::CompromiseSet;

/// The measured impact of a pricing attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackImpact {
    /// Clean grid PAR.
    pub clean_par: f64,
    /// Attacked grid PAR.
    pub attacked_par: f64,
    /// Relative PAR increase (`(attacked − clean) / clean`).
    pub par_increase: f64,
    /// Relative peak-demand increase.
    pub peak_increase: f64,
    /// Net bill change of the compromised homes (negative = they saved —
    /// a successful bill attack from the hacker's clients' viewpoint).
    pub hacked_bill_change: Dollars,
    /// Net bill change of the honest homes (positive = collateral cost).
    pub honest_bill_change: Dollars,
    /// Change in the community's total billed amount.
    pub community_bill_change: Dollars,
}

impl AttackImpact {
    /// Compares a clean and an attacked schedule of the *same* community,
    /// billing both at the real broadcast price.
    ///
    /// # Errors
    ///
    /// Returns [`HorizonMismatchError`] when the schedules and the price
    /// signal disagree on slot count.
    ///
    /// # Panics
    ///
    /// Panics if the two schedules cover different customer counts.
    pub fn assess(
        clean: &CommunitySchedule,
        attacked: &CommunitySchedule,
        real_price: &PriceSignal,
        tariff: NetMeteringTariff,
        compromised: &CompromiseSet,
    ) -> Result<Self, HorizonMismatchError> {
        assert_eq!(
            clean.customer_schedules().len(),
            attacked.customer_schedules().len(),
            "schedules cover different communities"
        );
        let engine = BillingEngine::new(real_price.clone(), tariff);
        let clean_bills = engine.bill(clean)?;
        let attacked_bills = engine.bill(attacked)?;

        let mut hacked_bill_change = Dollars::ZERO;
        let mut honest_bill_change = Dollars::ZERO;
        for (before, after) in clean_bills.iter().zip(&attacked_bills) {
            let delta = after.net() - before.net();
            if compromised.is_hacked(before.customer.meter()) {
                hacked_bill_change += delta;
            } else {
                honest_bill_change += delta;
            }
        }

        let clean_demand = clean.grid_demand_clamped();
        let attacked_demand = attacked.grid_demand_clamped();
        let clean_par = clean_demand.par().unwrap_or(1.0);
        let attacked_par = attacked_demand.par().unwrap_or(1.0);
        let clean_peak = clean_demand.peak().max(1e-9);

        Ok(Self {
            clean_par,
            attacked_par,
            par_increase: (attacked_par - clean_par) / clean_par.max(1e-9),
            peak_increase: (attacked_demand.peak() - clean_peak) / clean_peak,
            hacked_bill_change,
            honest_bill_change,
            community_bill_change: hacked_bill_change + honest_bill_change,
        })
    }

    /// `true` when the attack succeeded as a PAR (grid-stability) attack at
    /// threshold `delta` (relative PAR increase).
    pub fn is_par_attack(&self, delta: f64) -> bool {
        self.par_increase > delta
    }
}

impl std::fmt::Display for AttackImpact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PAR {:.4} → {:.4} ({:+.1}%), hacked bills {:+.3}, honest bills {:+.3}",
            self.clean_par,
            self.attacked_par,
            self.par_increase * 100.0,
            self.hacked_bill_change,
            self.honest_bill_change
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_smarthome::{
        Appliance, ApplianceKind, ApplianceSchedule, Customer, CustomerSchedule, PowerLevels,
        TaskSpec,
    };
    use nms_types::{ApplianceId, CustomerId, Horizon, Kw, Kwh, MeterId, TimeSeries};

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    /// Two customers; schedules differ in which slot the flexible load
    /// lands.
    fn schedule_pair() -> (CommunitySchedule, CommunitySchedule) {
        let appliance = Appliance::new(
            ApplianceId::new(0),
            ApplianceKind::WaterHeater,
            PowerLevels::on_off(Kw::new(2.0)).unwrap(),
            TaskSpec::new(Kwh::new(2.0), 0, 23).unwrap(),
        );
        let build = |slots: [usize; 2]| -> CommunitySchedule {
            let schedules: Vec<CustomerSchedule> = (0..2)
                .map(|i| {
                    let customer = Customer::builder(CustomerId::new(i), day())
                        .appliance(appliance.clone())
                        .build()
                        .unwrap();
                    let mut energy = TimeSeries::filled(day(), 0.0);
                    energy[slots[i]] = 2.0;
                    let plan = ApplianceSchedule::new(&appliance, day(), energy).unwrap();
                    CustomerSchedule::with_idle_battery(&customer, vec![plan]).unwrap()
                })
                .collect();
            CommunitySchedule::new(day(), schedules).unwrap()
        };
        // Clean: spread over slots 2 and 14. Attacked: both pile on 16.
        (build([2, 14]), build([16, 16]))
    }

    #[test]
    fn par_attack_detected() {
        let (clean, attacked) = schedule_pair();
        let price = PriceSignal::flat(day(), 0.1).unwrap();
        let impact = AttackImpact::assess(
            &clean,
            &attacked,
            &price,
            NetMeteringTariff::default(),
            &CompromiseSet::new(),
        )
        .unwrap();
        assert!(impact.attacked_par > impact.clean_par);
        assert!(impact.is_par_attack(0.1));
        assert!(impact.peak_increase > 0.5);
        assert!(impact.to_string().contains("PAR"));
    }

    #[test]
    fn bill_changes_split_by_compromise() {
        let (clean, attacked) = schedule_pair();
        let price = PriceSignal::flat(day(), 0.1).unwrap();
        let compromised: CompromiseSet = [MeterId::new(0)].into_iter().collect();
        let impact = AttackImpact::assess(
            &clean,
            &attacked,
            &price,
            NetMeteringTariff::default(),
            &compromised,
        )
        .unwrap();
        // Piling both loads into one slot raises the quadratic unit price:
        // everyone pays more, so this is not a successful bill attack.
        assert!(impact.community_bill_change.value() > 0.0);
        assert!(
            impact.hacked_bill_change.value() >= 0.0 || impact.honest_bill_change.value() <= 0.0
        );
        assert!(
            (impact.community_bill_change
                - (impact.hacked_bill_change + impact.honest_bill_change))
                .abs()
                .value()
                < 1e-9
        );
    }

    #[test]
    fn identical_schedules_have_zero_impact() {
        let (clean, _) = schedule_pair();
        let price = PriceSignal::flat(day(), 0.1).unwrap();
        let impact = AttackImpact::assess(
            &clean,
            &clean,
            &price,
            NetMeteringTariff::default(),
            &CompromiseSet::new(),
        )
        .unwrap();
        assert!(impact.par_increase.abs() < 1e-12);
        assert_eq!(impact.community_bill_change, Dollars::ZERO);
        assert!(!impact.is_par_attack(0.0));
    }

    #[test]
    fn horizon_mismatch_is_an_error() {
        let (clean, attacked) = schedule_pair();
        let wrong = PriceSignal::flat(Horizon::hourly(48), 0.1).unwrap();
        assert!(AttackImpact::assess(
            &clean,
            &attacked,
            &wrong,
            NetMeteringTariff::default(),
            &CompromiseSet::new()
        )
        .is_err());
    }
}
