//! Attacker behavior over time: who gets hacked, and when.

use serde::{Deserialize, Serialize};

use nms_types::{MeterId, ValidateError};

use crate::{CompromiseSet, PriceAttack};

/// A deterministic, scripted attack timeline: at each listed slot, the given
/// number of additional meters is compromised. Used by reproducible
/// experiments (Fig 6 / Table 1) where the ground truth must be identical
/// across detector configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackTimeline {
    /// `(slot, meters_to_hack)` events, sorted by slot.
    events: Vec<(usize, usize)>,
    /// The manipulation installed on compromised meters.
    attack: PriceAttack,
}

impl AttackTimeline {
    /// Builds a timeline from `(slot, meters_to_hack)` events.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] if any event hacks zero meters.
    pub fn new(
        mut events: Vec<(usize, usize)>,
        attack: PriceAttack,
    ) -> Result<Self, ValidateError> {
        if events.iter().any(|&(_, n)| n == 0) {
            return Err(ValidateError::new(
                "timeline events must hack at least one meter",
            ));
        }
        events.sort_by_key(|&(slot, _)| slot);
        Ok(Self { events, attack })
    }

    /// The manipulation compromised meters apply.
    #[inline]
    pub fn attack(&self) -> &PriceAttack {
        &self.attack
    }

    /// The scripted events, sorted by slot.
    #[inline]
    pub fn events(&self) -> &[(usize, usize)] {
        &self.events
    }

    /// Executes the events scheduled for `slot`: compromises the
    /// lowest-indexed healthy meters (deterministic), returning them.
    pub fn step(
        &self,
        slot: usize,
        compromised: &mut CompromiseSet,
        fleet_size: usize,
    ) -> Vec<MeterId> {
        let mut newly = Vec::new();
        for &(event_slot, count) in &self.events {
            if event_slot != slot {
                continue;
            }
            let mut remaining = count;
            for index in 0..fleet_size {
                if remaining == 0 {
                    break;
                }
                let meter = MeterId::new(index);
                if compromised.hack(meter) {
                    newly.push(meter);
                    remaining -= 1;
                }
            }
        }
        newly
    }

    /// Total meters the timeline attempts to hack.
    pub fn total_meters(&self) -> usize {
        self.events.iter().map(|&(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_hacks_scripted_counts() {
        let timeline = AttackTimeline::new(
            vec![(5, 3), (2, 2)],
            PriceAttack::zero_window(16.0, 17.0).unwrap(),
        )
        .unwrap();
        // Events get sorted.
        assert_eq!(timeline.events()[0].0, 2);
        assert_eq!(timeline.total_meters(), 5);

        let mut compromised = CompromiseSet::new();
        assert!(timeline.step(0, &mut compromised, 10).is_empty());
        let at2 = timeline.step(2, &mut compromised, 10);
        assert_eq!(at2.len(), 2);
        let at5 = timeline.step(5, &mut compromised, 10);
        assert_eq!(at5.len(), 3);
        assert_eq!(compromised.count(), 5);
        // Deterministic: lowest ids first.
        assert!(compromised.is_hacked(MeterId::new(0)));
        assert!(compromised.is_hacked(MeterId::new(4)));
        assert!(!compromised.is_hacked(MeterId::new(5)));
    }

    #[test]
    fn timeline_saturates_at_fleet_size() {
        let timeline = AttackTimeline::new(vec![(0, 10)], PriceAttack::InvertAroundMean).unwrap();
        let mut compromised = CompromiseSet::new();
        let newly = timeline.step(0, &mut compromised, 4);
        assert_eq!(newly.len(), 4);
        assert_eq!(compromised.count(), 4);
    }

    #[test]
    fn timeline_rejects_empty_events() {
        assert!(AttackTimeline::new(vec![(0, 0)], PriceAttack::InvertAroundMean).is_err());
    }
}
