//! Hierarchical power-budget ledger.
//!
//! Power-aware schedulers reason about power the way ordinary schedulers
//! reason about nodes: a fixed system budget is granted to jobs and
//! reclaimed when they finish (Bodas et al., Ellsworth et al., Borghesi's
//! power-capping CP model — all cited by the survey). The ledger enforces
//! the single invariant everything else relies on: **granted power never
//! exceeds the budget** (property-tested).
//!
//! Budgets can be re-sized at runtime (Tokyo Tech's seasonal caps, RIKEN's
//! emergency reductions); shrinking below the currently-granted amount
//! leaves the ledger temporarily over-committed (zero headroom) until
//! callers release grants by killing or throttling jobs.

use crate::error::PowerError;
use epa_obs::{TraceBus, TraceEvent};
use epa_simcore::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier for a power grant (usually a job id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct GrantId(pub u64);

/// A fixed-size power budget with named grants.
#[derive(Debug, Clone)]
pub struct PowerBudget {
    total_watts: f64,
    grants: BTreeMap<GrantId, f64>,
    granted_watts: f64,
}

impl PowerBudget {
    /// Creates a budget of `total_watts`.
    pub fn new(total_watts: f64) -> Result<Self, PowerError> {
        if !total_watts.is_finite() || total_watts <= 0.0 {
            return Err(PowerError::InvalidConfig(format!(
                "budget must be positive and finite, got {total_watts}"
            )));
        }
        Ok(PowerBudget {
            total_watts,
            grants: BTreeMap::new(),
            granted_watts: 0.0,
        })
    }

    /// The budget size in watts.
    #[must_use]
    pub fn total_watts(&self) -> f64 {
        self.total_watts
    }

    /// Remaining headroom in watts (0 when over-committed).
    #[must_use]
    pub fn headroom_watts(&self) -> f64 {
        (self.total_watts - self.granted_watts).max(0.0)
    }

    /// The wattage of one grant, if live.
    #[must_use]
    pub fn grant_watts(&self, id: GrantId) -> Option<f64> {
        self.grants.get(&id).copied()
    }

    /// The ids holding a live grant, in ascending order.
    pub fn grant_ids(&self) -> impl Iterator<Item = GrantId> + '_ {
        self.grants.keys().copied()
    }

    /// Requests `watts` for `id`. Fails without mutation if the headroom is
    /// insufficient or the id already holds a grant.
    pub fn request(&mut self, id: GrantId, watts: f64) -> Result<(), PowerError> {
        if !watts.is_finite() || watts < 0.0 {
            return Err(PowerError::InvalidConfig(format!(
                "grant must be non-negative and finite, got {watts}"
            )));
        }
        if self.grants.contains_key(&id) {
            return Err(PowerError::DuplicateGrant(id.0));
        }
        if self.granted_watts + watts > self.total_watts + 1e-9 {
            return Err(PowerError::BudgetExceeded {
                requested: watts,
                headroom: self.headroom_watts(),
            });
        }
        self.grants.insert(id, watts);
        self.granted_watts += watts;
        Ok(())
    }

    /// Releases the grant held by `id`, returning its watts.
    pub fn release(&mut self, id: GrantId) -> Result<f64, PowerError> {
        match self.grants.remove(&id) {
            Some(w) => {
                self.granted_watts -= w;
                if self.granted_watts < 0.0 {
                    self.granted_watts = 0.0;
                }
                Ok(w)
            }
            None => Err(PowerError::UnknownGrant(id.0)),
        }
    }

    /// Resizes the budget. Shrinking below the granted total is allowed and
    /// leaves the ledger over-committed (see module docs).
    pub fn resize(&mut self, new_total_watts: f64) -> Result<(), PowerError> {
        if !new_total_watts.is_finite() || new_total_watts <= 0.0 {
            return Err(PowerError::InvalidConfig(format!(
                "budget must be positive and finite, got {new_total_watts}"
            )));
        }
        self.total_watts = new_total_watts;
        Ok(())
    }

    /// Encodes the full ledger — budget, grants, running total —
    /// bit-exactly.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        w.f64(self.total_watts);
        let grants: Vec<(u64, f64)> = self.grants.iter().map(|(&id, &g)| (id.0, g)).collect();
        w.seq(&grants, |w, &(id, g)| {
            w.u64(id);
            w.f64(g);
        });
        w.f64(self.granted_watts);
    }

    /// Decodes a ledger written by [`PowerBudget::snapshot_into`]. The
    /// frame is held to the rules [`PowerBudget::new`] and
    /// [`PowerBudget::request`] enforce — a positive finite budget,
    /// non-negative finite grants under distinct ids, a non-negative
    /// finite running total — or rejected as corrupt.
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        let corrupt = |detail: String| epa_simcore::snap::SnapshotError::Corrupt { detail };
        let total_watts = r.f64()?;
        if !total_watts.is_finite() || total_watts <= 0.0 {
            return Err(corrupt(format!("budget total {total_watts} W")));
        }
        let mut grants = BTreeMap::new();
        for (id, watts) in r.seq(|r| Ok((GrantId(r.u64()?), r.f64()?)))? {
            if !watts.is_finite() || watts < 0.0 {
                return Err(corrupt(format!("grant {} of {watts} W", id.0)));
            }
            if grants.insert(id, watts).is_some() {
                return Err(corrupt(format!("duplicate grant id {}", id.0)));
            }
        }
        let granted_watts = r.f64()?;
        if !granted_watts.is_finite() || granted_watts < 0.0 {
            return Err(corrupt(format!("granted total {granted_watts} W")));
        }
        Ok(PowerBudget {
            total_watts,
            grants,
            granted_watts,
        })
    }

    /// [`PowerBudget::request`] with decision tracing: the grant or denial
    /// is recorded on `bus` ([`TraceBus::record`] drops it when the
    /// `Budget` category is masked off). Semantics are identical to the
    /// untraced call.
    pub fn request_traced(
        &mut self,
        id: GrantId,
        watts: f64,
        t: SimTime,
        bus: &mut TraceBus,
    ) -> Result<(), PowerError> {
        let result = self.request(id, watts);
        let headroom_watts = self.headroom_watts();
        bus.record(
            t,
            match result {
                Ok(()) => TraceEvent::BudgetGrant {
                    grant: id.0,
                    watts,
                    headroom_watts,
                },
                Err(_) => TraceEvent::BudgetDenied {
                    grant: id.0,
                    watts,
                    headroom_watts,
                },
            },
        );
        result
    }

    /// [`PowerBudget::release`] with decision tracing (successful releases
    /// only; releasing an unknown grant is an error, not a decision).
    pub fn release_traced(
        &mut self,
        id: GrantId,
        t: SimTime,
        bus: &mut TraceBus,
    ) -> Result<f64, PowerError> {
        let result = self.release(id);
        if let Ok(watts) = result {
            bus.record(t, TraceEvent::BudgetRelease { grant: id.0, watts });
        }
        result
    }

    /// [`PowerBudget::resize`] with decision tracing: every attempt is
    /// recorded with whether it was accepted (demand-response audit).
    pub fn resize_traced(
        &mut self,
        new_total_watts: f64,
        t: SimTime,
        bus: &mut TraceBus,
    ) -> Result<(), PowerError> {
        let result = self.resize(new_total_watts);
        bus.record(
            t,
            TraceEvent::BudgetResize {
                total_watts: new_total_watts,
                ok: result.is_ok(),
            },
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u64) -> GrantId {
        GrantId(i)
    }

    #[test]
    fn grants_and_releases_balance() {
        let mut b = PowerBudget::new(1000.0).unwrap();
        b.request(g(1), 400.0).unwrap();
        b.request(g(2), 500.0).unwrap();
        assert_eq!(b.granted_watts, 900.0);
        assert!((b.headroom_watts() - 100.0).abs() < 1e-9);
        assert_eq!(b.release(g(1)).unwrap(), 400.0);
        assert_eq!(b.granted_watts, 500.0);
        assert_eq!(b.grants.len(), 1);
    }

    #[test]
    fn over_budget_request_rejected() {
        let mut b = PowerBudget::new(1000.0).unwrap();
        b.request(g(1), 900.0).unwrap();
        let err = b.request(g(2), 200.0).unwrap_err();
        assert!(matches!(err, PowerError::BudgetExceeded { .. }));
        assert_eq!(b.granted_watts, 900.0);
    }

    #[test]
    fn duplicate_grant_rejected() {
        let mut b = PowerBudget::new(1000.0).unwrap();
        b.request(g(1), 100.0).unwrap();
        assert!(matches!(
            b.request(g(1), 100.0),
            Err(PowerError::DuplicateGrant(1))
        ));
    }

    #[test]
    fn unknown_release_rejected() {
        let mut b = PowerBudget::new(1000.0).unwrap();
        assert!(matches!(b.release(g(9)), Err(PowerError::UnknownGrant(9))));
    }

    #[test]
    fn shrink_creates_overcommit() {
        let mut b = PowerBudget::new(1000.0).unwrap();
        b.request(g(1), 900.0).unwrap();
        b.resize(600.0).unwrap();
        assert_eq!(b.granted_watts, 900.0);
        assert_eq!(b.headroom_watts(), 0.0);
        assert!(b.request(g(2), 1.0).is_err());
        // Releasing resolves the overcommit.
        b.release(g(1)).unwrap();
        assert_eq!(b.headroom_watts(), 600.0);
    }

    #[test]
    fn zero_watt_grant_allowed() {
        let mut b = PowerBudget::new(100.0).unwrap();
        b.request(g(1), 0.0).unwrap();
        assert_eq!(b.granted_watts, 0.0);
    }

    #[test]
    fn traced_ops_record_grant_denial_release_resize() {
        use epa_obs::{CategoryMask, TraceBus, TraceEvent};
        let t0 = epa_simcore::time::SimTime::from_secs(5.0);
        let mut bus = TraceBus::new(CategoryMask::ALL, 64);
        let mut b = PowerBudget::new(1000.0).unwrap();
        b.request_traced(g(1), 900.0, t0, &mut bus).unwrap();
        assert!(b.request_traced(g(2), 200.0, t0, &mut bus).is_err());
        b.release_traced(g(1), t0, &mut bus).unwrap();
        assert!(b.release_traced(g(9), t0, &mut bus).is_err());
        b.resize_traced(500.0, t0, &mut bus).unwrap();
        let events: Vec<&TraceEvent> = bus.iter().map(|r| &r.event).collect();
        assert!(matches!(
            events[0],
            TraceEvent::BudgetGrant { grant: 1, .. }
        ));
        assert!(matches!(
            events[1],
            TraceEvent::BudgetDenied { grant: 2, .. }
        ));
        assert!(
            matches!(events[2], TraceEvent::BudgetRelease { grant: 1, watts } if *watts == 900.0)
        );
        // The failed release recorded nothing; the resize comes next.
        assert!(matches!(
            events[3],
            TraceEvent::BudgetResize { ok: true, .. }
        ));
        assert_eq!(events.len(), 4);

        // A masked bus records nothing and changes no semantics.
        let mut off = TraceBus::disabled();
        let mut b2 = PowerBudget::new(1000.0).unwrap();
        b2.request_traced(g(1), 900.0, t0, &mut off).unwrap();
        assert!(off.is_empty());
        assert_eq!(b2.granted_watts, 900.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(PowerBudget::new(0.0).is_err());
        assert!(PowerBudget::new(f64::INFINITY).is_err());
        let mut b = PowerBudget::new(100.0).unwrap();
        assert!(b.request(g(1), f64::NAN).is_err());
        assert!(b.request(g(1), -5.0).is_err());
        assert!(b.resize(-1.0).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Request(u64, f64),
        Release(u64),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                ((0u64..16), (0.0f64..600.0)).prop_map(|(i, w)| Op::Request(i, w)),
                (0u64..16).prop_map(Op::Release),
            ],
            1..120,
        )
    }

    proptest! {
        /// Without resizes, granted power never exceeds the budget, and the
        /// ledger total always equals the sum of live grants.
        #[test]
        fn never_over_budget(ops in arb_ops()) {
            let mut b = PowerBudget::new(1000.0).unwrap();
            for op in ops {
                match op {
                    Op::Request(i, w) => { let _ = b.request(GrantId(i), w); }
                    Op::Release(i) => { let _ = b.release(GrantId(i)); }
                }
                prop_assert!(b.granted_watts <= b.total_watts() + 1e-6);
                let sum: f64 = b.grants.values().sum();
                prop_assert!((sum - b.granted_watts).abs() < 1e-6);
            }
        }
    }
}
