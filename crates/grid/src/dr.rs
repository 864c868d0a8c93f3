//! Demand-response contracts: curtailment events with contractual
//! targets and penalty accounting.
//!
//! A DR contract is a list of events. During an event the utility asks
//! the site to hold facility draw at or below `target_frac` of the
//! nominal budget; energy drawn above the target during the window is
//! "excess", and if the excess over a window exceeds the contractual
//! tolerance the operator pays a penalty per excess kWh. At a window's
//! start the engine calls its budget-resize operation and, for an
//! enforced event, its emergency-shed operation; this module owns the
//! contract semantics and the accounting.

use crate::error::GridError;
use epa_simcore::snap::Fingerprint;
use epa_simcore::SimTime;
use serde::Serialize;

/// One curtailment window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DrEvent {
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// Curtailment target as a fraction of the nominal budget (0, 1].
    pub target_frac: f64,
    /// When true the engine also arms an emergency shed if observed
    /// draw is above the target at event start (hard curtailment); when
    /// false the event only resizes the budget (soft curtailment).
    pub enforce: bool,
}

impl DrEvent {
    /// Target draw in watts for a given nominal budget.
    #[must_use]
    pub fn target_watts(&self, nominal_watts: f64) -> f64 {
        nominal_watts * self.target_frac
    }
}

/// A demand-response contract: events plus penalty terms.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct DrContract {
    /// Curtailment windows, in ascending, non-overlapping order.
    pub events: Vec<DrEvent>,
    /// Penalty per kWh of excess beyond the tolerance, in the same
    /// currency as the price trace.
    pub penalty_per_excess_kwh: f64,
    /// Excess energy forgiven per event before penalties apply, kWh.
    pub tolerance_kwh: f64,
}

/// Per-event settlement produced by [`DrContract::account`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DrEventOutcome {
    /// Index of the event in the contract.
    pub event: usize,
    /// Seconds during the window where draw exceeded the target.
    pub violation_secs: f64,
    /// Energy above the target during the window, kWh.
    pub excess_kwh: f64,
    /// Penalty charged for this event.
    pub penalty: f64,
}

/// Contract-wide settlement.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct DrAccounting {
    /// One settlement row per event.
    pub events: Vec<DrEventOutcome>,
    /// Sum of per-event penalties.
    pub penalty_total: f64,
}

impl DrContract {
    /// Validates event ordering and penalty terms.
    pub fn validate(&self) -> Result<(), GridError> {
        let mut prev_end = f64::NEG_INFINITY;
        for (i, ev) in self.events.iter().enumerate() {
            if ev.start >= ev.end {
                return Err(GridError::InvalidConfig(format!(
                    "DR event {i} has an empty window [{}, {})",
                    ev.start.as_secs(),
                    ev.end.as_secs()
                )));
            }
            if ev.start.as_secs() < prev_end {
                return Err(GridError::InvalidConfig(format!(
                    "DR event {i} overlaps the previous event"
                )));
            }
            if !(ev.target_frac > 0.0 && ev.target_frac <= 1.0) {
                return Err(GridError::InvalidConfig(format!(
                    "DR event {i} target fraction {} outside (0, 1]",
                    ev.target_frac
                )));
            }
            prev_end = ev.end.as_secs();
        }
        if self.penalty_per_excess_kwh < 0.0 || self.tolerance_kwh < 0.0 {
            return Err(GridError::InvalidConfig(
                "penalty and tolerance must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// The legacy budget-schedule encoding of this contract: each event
    /// becomes a resize down to the target at `start` and a resize back
    /// to nominal at `end`. This is exactly the shape the old inline
    /// `e12_demand_response` schedule used, and the adapter the rework
    /// proves byte-identical against.
    #[must_use]
    pub fn budget_schedule(&self, nominal_watts: f64) -> Vec<(SimTime, f64)> {
        self.events
            .iter()
            .flat_map(|ev| {
                [
                    (ev.start, ev.target_watts(nominal_watts)),
                    (ev.end, nominal_watts),
                ]
            })
            .collect()
    }

    /// Settles the contract against a recorded power trace of
    /// `(seconds, watts)` samples (the engine's `power_trace`), treating
    /// each sample as holding until the next. Penalty applies iff an
    /// event's excess energy exceeds the tolerance.
    #[must_use]
    pub fn account(&self, nominal_watts: f64, power_trace: &[(f64, f64)]) -> DrAccounting {
        let mut out = DrAccounting::default();
        for (i, ev) in self.events.iter().enumerate() {
            let target = ev.target_watts(nominal_watts);
            let (start, end) = (ev.start.as_secs(), ev.end.as_secs());
            let mut violation_secs = 0.0;
            let mut excess_joules = 0.0;
            for pair in power_trace.windows(2) {
                let (t0, w) = pair[0];
                let (t1, _) = pair[1];
                let lo = t0.max(start);
                let hi = t1.min(end);
                if hi > lo && w > target {
                    violation_secs += hi - lo;
                    excess_joules += (w - target) * (hi - lo);
                }
            }
            let excess_kwh = excess_joules / 3.6e6;
            let penalty = if excess_kwh > self.tolerance_kwh {
                (excess_kwh - self.tolerance_kwh) * self.penalty_per_excess_kwh
            } else {
                0.0
            };
            out.events.push(DrEventOutcome {
                event: i,
                violation_secs,
                excess_kwh,
                penalty,
            });
            out.penalty_total += penalty;
        }
        out
    }

    /// Folds the contract into a config fingerprint.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.u64(self.events.len() as u64);
        for ev in &self.events {
            fp.f64(ev.start.as_secs());
            fp.f64(ev.end.as_secs());
            fp.f64(ev.target_frac);
            fp.u64(u64::from(ev.enforce));
        }
        fp.f64(self.penalty_per_excess_kwh);
        fp.f64(self.tolerance_kwh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn event(start: f64, end: f64, frac: f64) -> DrEvent {
        DrEvent {
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            target_frac: frac,
            enforce: false,
        }
    }

    fn one_event(start: f64, end: f64, frac: f64) -> DrContract {
        DrContract {
            events: vec![event(start, end, frac)],
            penalty_per_excess_kwh: 10.0,
            tolerance_kwh: 1.0,
        }
    }

    #[test]
    fn validation_rejects_bad_contracts() {
        one_event(0.0, 10.0, 0.5).validate().unwrap();
        assert!(one_event(10.0, 10.0, 0.5).validate().is_err());
        assert!(one_event(0.0, 10.0, 0.0).validate().is_err());
        assert!(one_event(0.0, 10.0, 1.5).validate().is_err());
        let mut c = one_event(0.0, 10.0, 0.5);
        c.events.push(event(5.0, 15.0, 0.5));
        assert!(c.validate().is_err(), "overlap must be rejected");
        let mut c = one_event(0.0, 10.0, 0.5);
        c.tolerance_kwh = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn budget_schedule_matches_legacy_shape() {
        let nominal = 1000.0;
        let c = one_event(3600.0, 7200.0, 0.5);
        assert_eq!(
            c.budget_schedule(nominal),
            vec![
                (SimTime::from_secs(3600.0), 500.0),
                (SimTime::from_secs(7200.0), 1000.0)
            ]
        );
    }

    #[test]
    fn accounting_integrates_excess() {
        let c = one_event(0.0, 3600.0, 0.5);
        // 1000 W flat against a 500 W target for one hour: 0.5 kWh excess,
        // under the 1 kWh tolerance, so no penalty.
        let trace = vec![(0.0, 1000.0), (3600.0, 1000.0)];
        let acc = c.account(1000.0, &trace);
        assert!((acc.events[0].excess_kwh - 0.5).abs() < 1e-9);
        assert_eq!(acc.penalty_total, 0.0);
        // Four hours of the same draw inside a longer event: 2 kWh excess,
        // 1 kWh over tolerance → penalty 10.
        let c = one_event(0.0, 4.0 * 3600.0, 0.5);
        let trace = vec![(0.0, 1000.0), (4.0 * 3600.0, 1000.0)];
        let acc = c.account(1000.0, &trace);
        assert!((acc.events[0].excess_kwh - 2.0).abs() < 1e-9);
        assert!((acc.penalty_total - 10.0).abs() < 1e-9);
    }

    proptest! {
        /// Penalty is charged iff the curtailment target was missed by
        /// more than the tolerance, and never for compliant traces.
        #[test]
        fn penalty_iff_target_missed(
            draw_frac in 0.0f64..1.5,
            target_frac in 0.05f64..1.0,
            hours in 1.0f64..12.0,
            tolerance in 0.0f64..5.0,
        ) {
            let nominal = 1000.0;
            let end = hours * 3600.0;
            let c = DrContract {
                events: vec![event(0.0, end, target_frac)],
                penalty_per_excess_kwh: 7.0,
                tolerance_kwh: tolerance,
            };
            let trace = vec![(0.0, nominal * draw_frac), (end, nominal * draw_frac)];
            let acc = c.account(nominal, &trace);
            let excess_kwh = ((draw_frac - target_frac).max(0.0) * nominal * end) / 3.6e6;
            prop_assert!((acc.events[0].excess_kwh - excess_kwh).abs() < 1e-9);
            if excess_kwh > tolerance {
                prop_assert!(acc.penalty_total > 0.0, "missed target must be penalized");
                prop_assert!((acc.penalty_total - (excess_kwh - tolerance) * 7.0).abs() < 1e-9);
            } else {
                prop_assert_eq!(acc.penalty_total, 0.0);
            }
        }
    }
}
