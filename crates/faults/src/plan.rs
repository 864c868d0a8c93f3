//! The deterministic fault plan.
//!
//! [`FaultPlan::generate`] pre-computes the correlated failure-domain
//! schedule (which rack/PDU fails, when) as a pure function of the fault
//! seed, so a simulation can schedule every domain event up front and two
//! runs with the same seed replay the same schedule byte-for-byte.
//! Sensor faults are drawn online by the engine's fault plane, actuator
//! faults by the resource manager's retrying actuator, each from its own
//! stream.

use crate::config::FaultConfig;
use epa_simcore::rng::SimRng;
use epa_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One correlated failure event: a whole failure domain (rack/PDU group)
/// goes down at `t`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainEvent {
    /// Event time.
    pub t: SimTime,
    /// Index of the failing domain (cabinet index in the cluster model).
    pub domain: u32,
    /// Repair time for the affected nodes.
    pub repair_time: SimDuration,
}

/// The pre-generated schedule of correlated failure events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Domain events in chronological order.
    pub domain_events: Vec<DomainEvent>,
}

impl FaultPlan {
    /// Generates the domain-event schedule for `num_domains` failure
    /// domains over `[0, horizon]`. Inter-arrival times are exponential
    /// with the configured MTBF; the failing domain is uniform.
    #[must_use]
    pub fn generate(config: &FaultConfig, horizon: SimTime, num_domains: u32) -> FaultPlan {
        let Some(domain) = &config.domain else {
            return FaultPlan::default();
        };
        if num_domains == 0 {
            return FaultPlan::default();
        }
        let mut rng = SimRng::new(config.seed).stream("faults-domain");
        let rate = 1.0 / domain.mtbf.as_secs().max(1e-9);
        let mut events = Vec::new();
        let mut t = SimTime::from_secs(rng.exponential(rate));
        while t <= horizon {
            let d = rng.uniform_usize(0, num_domains as usize) as u32;
            events.push(DomainEvent {
                t,
                domain: d,
                repair_time: domain.repair_time,
            });
            t += SimDuration::from_secs(rng.exponential(rate));
        }
        FaultPlan {
            domain_events: events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DomainFaultConfig;

    fn domain_config(seed: u64) -> FaultConfig {
        FaultConfig {
            domain: Some(DomainFaultConfig {
                mtbf: SimDuration::from_hours(6.0),
                repair_time: SimDuration::from_hours(2.0),
            }),
            sensor: None,
            actuator: None,
            seed,
        }
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let horizon = SimTime::from_days(7.0);
        let a = FaultPlan::generate(&domain_config(1), horizon, 8);
        let b = FaultPlan::generate(&domain_config(1), horizon, 8);
        let c = FaultPlan::generate(&domain_config(2), horizon, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.domain_events.is_empty());
    }

    #[test]
    fn plan_respects_horizon_and_domains() {
        let horizon = SimTime::from_days(30.0);
        let plan = FaultPlan::generate(&domain_config(3), horizon, 4);
        assert!(
            plan.domain_events.len() > 50,
            "30 days at 6 h MTBF should yield many"
        );
        for e in &plan.domain_events {
            assert!(e.t <= horizon);
            assert!(e.domain < 4);
        }
        // Chronological order.
        for w in plan.domain_events.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn no_domain_config_means_empty_plan() {
        let plan = FaultPlan::generate(&FaultConfig::default(), SimTime::from_days(30.0), 8);
        assert!(plan.domain_events.is_empty());
        let plan0 = FaultPlan::generate(&domain_config(1), SimTime::from_days(30.0), 0);
        assert!(plan0.domain_events.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::DomainFaultConfig;
    use epa_cluster::alloc::{AllocStrategy, Allocator};
    use epa_cluster::node::NodeId;
    use epa_cluster::topology::Topology;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Capacity recovers after faults: under any generated fault
        /// schedule, once every repair has been applied the allocator's
        /// available-node count equals the original system size.
        #[test]
        fn capacity_recovers_after_all_repairs(
            seed in any::<u64>(),
            domains in 1u32..8,
            nodes_per_domain in 1u32..16,
            mtbf_h in 0.5f64..24.0,
            repair_h in 0.5f64..12.0,
        ) {
            let total = domains * nodes_per_domain;
            let config = FaultConfig {
                domain: Some(DomainFaultConfig {
                    mtbf: SimDuration::from_hours(mtbf_h),
                    repair_time: SimDuration::from_hours(repair_h),
                }),
                seed,
                ..FaultConfig::default()
            };
            let plan = FaultPlan::generate(&config, SimTime::from_days(7.0), domains);
            let mut alloc = Allocator::new(
                total,
                AllocStrategy::FirstFit,
                Topology::FatTree { arity: 8 },
            );
            // Replay the plan chronologically, interleaving repairs:
            // nodes already down ride through an overlapping event.
            let mut repairs: BTreeMap<(u64, u32), NodeId> = BTreeMap::new();
            let mut down = vec![false; total as usize];
            let mut seq = 0u32;
            for event in &plan.domain_events {
                // Apply repairs due before this event. Keys are
                // (time.to_bits(), seq); to_bits ordering matches numeric
                // ordering for non-negative times.
                let due: Vec<(u64, u32)> = repairs
                    .keys()
                    .copied()
                    .take_while(|&(t_bits, _)| f64::from_bits(t_bits) <= event.t.as_secs())
                    .collect();
                for k in due {
                    let n = repairs.remove(&k).unwrap();
                    down[n.index()] = false;
                    prop_assert!(alloc.mark_available(n));
                }
                let lo = event.domain * nodes_per_domain;
                for i in lo..lo + nodes_per_domain {
                    let n = NodeId(i);
                    if !down[n.index()] {
                        down[n.index()] = true;
                        prop_assert!(alloc.mark_unavailable(n));
                        let t_repair = event.t + event.repair_time;
                        repairs.insert((t_repair.as_secs().to_bits(), seq), n);
                        seq += 1;
                    }
                }
            }
            // Drain every outstanding repair.
            for (_, n) in std::mem::take(&mut repairs) {
                prop_assert!(alloc.mark_available(n));
            }
            prop_assert_eq!(alloc.free_count(), total as usize);
        }
    }
}
