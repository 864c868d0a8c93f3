//! The grid co-simulation model: configuration the engine is handed at
//! build time, the mutable state it advances at every window barrier,
//! and the settled summary it reports at the end of a run.
//!
//! The coupling contract with the engine is deliberately narrow:
//!
//! - at every power tick the engine calls [`GridState::on_tick`] with
//!   the elapsed interval and the metered IT draw, and gets back the
//!   *target IT budget* the facility can sustain right now (cooling
//!   head-room × follow-the-renewables derating × any active DR
//!   curtailment). The engine resizes the budget to a changed target —
//!   the grid never touches scheduler internals directly;
//! - DR event boundaries arrive as ordinary global simulation events and
//!   call [`GridState::on_event_start`] / [`GridState::on_event_end`];
//! - [`GridState`] snapshots into its own named section of the engine
//!   snapshot, so crash-safe resume replays cost/carbon/penalty
//!   accounting byte-exactly.

use crate::cooling::CoolingModel;
use crate::dr::{DrAccounting, DrContract, DrEvent, DrEventOutcome};
use crate::error::GridError;
use crate::trace::{GridTrace, TraceCursor};
use epa_simcore::snap::{Fingerprint, SnapReader, SnapWriter, SnapshotError};
use epa_simcore::SimTime;
use serde::Serialize;

/// Immutable grid configuration — re-supplied at resume and guarded by
/// the engine's config fingerprint, like the rest of `EngineConfig`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GridConfig {
    /// Electricity price trace, currency per MWh.
    pub price: GridTrace,
    /// Carbon-intensity trace, gCO₂ per kWh.
    pub carbon: GridTrace,
    /// Demand-response contract (may have zero events).
    pub contract: DrContract,
    /// Cooling loop; when absent, PUE falls back to the engine's static
    /// facility model and no cooling feedback applies.
    pub cooling: Option<CoolingModel>,
    /// Nominal (uncurtailed) IT power budget, watts.
    pub nominal_it_watts: f64,
    /// Follow-the-renewables price response in `[0, 1]`: how much of the
    /// budget to shed when the price sits at its trace maximum.
    pub price_follow: f64,
    /// Carbon analog of `price_follow`.
    pub carbon_follow: f64,
}

/// Floor on the follow-the-renewables derating: the budget target never
/// drops below this fraction of its cooling-limited base, so the site
/// keeps running (and draining its queue) even at peak price + carbon.
const FOLLOW_FLOOR: f64 = 0.05;

impl GridConfig {
    /// A fully synthetic site configuration: diurnal price and carbon
    /// traces in the site's local time, a simple cooling loop sized for
    /// `site_budget_watts`, and an empty DR contract.
    #[must_use]
    pub fn synthetic(
        nominal_it_watts: f64,
        site_budget_watts: f64,
        base_price_per_mwh: f64,
        base_carbon_g_per_kwh: f64,
        days: u32,
        tz_offset_hours: f64,
        seed: u64,
    ) -> Self {
        GridConfig {
            price: GridTrace::synthetic_price(
                base_price_per_mwh,
                0.35,
                days,
                tz_offset_hours,
                seed,
            ),
            carbon: GridTrace::synthetic_carbon(
                base_carbon_g_per_kwh,
                0.5,
                days,
                tz_offset_hours,
                seed.wrapping_add(1),
            ),
            contract: DrContract::default(),
            cooling: Some(CoolingModel::simple(site_budget_watts)),
            nominal_it_watts,
            price_follow: 0.0,
            carbon_follow: 0.0,
        }
    }

    /// Validates traces, contract, cooling, and follow weights.
    pub fn validate(&self) -> Result<(), GridError> {
        self.contract.validate()?;
        if let Some(c) = &self.cooling {
            c.validate()?;
        }
        if !self.nominal_it_watts.is_finite() || self.nominal_it_watts <= 0.0 {
            return Err(GridError::InvalidConfig(
                "nominal IT budget must be positive".into(),
            ));
        }
        for (name, w) in [
            ("price_follow", self.price_follow),
            ("carbon_follow", self.carbon_follow),
        ] {
            if !(0.0..=1.0).contains(&w) {
                return Err(GridError::InvalidConfig(format!(
                    "{name} must lie in [0, 1], got {w}"
                )));
            }
        }
        Ok(())
    }

    /// Folds the whole config into the engine's resume fingerprint.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        self.price.fingerprint(fp);
        self.carbon.fingerprint(fp);
        self.contract.fingerprint(fp);
        fp.u64(u64::from(self.cooling.is_some()));
        if let Some(c) = &self.cooling {
            c.fingerprint(fp);
        }
        fp.f64(self.nominal_it_watts);
        fp.f64(self.price_follow);
        fp.f64(self.carbon_follow);
    }

    /// The DR event with the given index, if any.
    #[must_use]
    pub fn event(&self, idx: u32) -> Option<&DrEvent> {
        self.contract.events.get(idx as usize)
    }
}

/// Mutable grid runtime state, advanced at window barriers only, over
/// the configuration it owns.
#[derive(Debug, Clone, PartialEq)]
pub struct GridState {
    config: GridConfig,
    price_cursor: TraceCursor,
    carbon_cursor: TraceCursor,
    /// Cached trace bounds (config-derived; rebuilt at resume).
    price_bounds: (f64, f64),
    carbon_bounds: (f64, f64),
    /// Index of the DR event currently in force.
    active_event: Option<u32>,
    /// Per-event accumulated excess energy (joules of IT draw above the
    /// curtailment target) and violation seconds.
    event_excess_joules: Vec<f64>,
    event_violation_secs: Vec<f64>,
    /// Settled totals.
    cost_total: f64,
    carbon_kg_total: f64,
    energy_it_joules: f64,
    energy_facility_joules: f64,
    /// Most recent per-tick readings, exposed to `Observation`.
    last_price: f64,
    last_carbon: f64,
    last_pue: f64,
    dr_active: bool,
}

impl GridState {
    /// Fresh state for a config (reads the traces at t = 0).
    #[must_use]
    pub fn new(cfg: GridConfig) -> Self {
        GridState {
            price_cursor: TraceCursor::new(),
            carbon_cursor: TraceCursor::new(),
            price_bounds: cfg.price.bounds(),
            carbon_bounds: cfg.carbon.bounds(),
            active_event: None,
            event_excess_joules: vec![0.0; cfg.contract.events.len()],
            event_violation_secs: vec![0.0; cfg.contract.events.len()],
            cost_total: 0.0,
            carbon_kg_total: 0.0,
            energy_it_joules: 0.0,
            energy_facility_joules: 0.0,
            last_price: cfg.price.value_at(SimTime::ZERO),
            last_carbon: cfg.carbon.value_at(SimTime::ZERO),
            last_pue: 1.0,
            dr_active: false,
            config: cfg,
        }
    }

    /// The configuration this state runs over.
    #[must_use]
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Advances the twin over `(t - dt_secs, t]`: settles cost/carbon
    /// for the interval at the metered IT draw, accumulates DR excess,
    /// and returns the IT budget target the facility can sustain at `t`.
    ///
    /// `fallback_pue` is used when the config carries no cooling loop
    /// (the engine passes its static facility PUE, or 1.0).
    pub fn on_tick(
        &mut self,
        t: SimTime,
        dt_secs: f64,
        it_watts: f64,
        temp_c: f64,
        fallback_pue: f64,
    ) -> f64 {
        let cfg = &self.config;
        let price = self.price_cursor.value(&cfg.price, t);
        let carbon = self.carbon_cursor.value(&cfg.carbon, t);
        let pue = match &cfg.cooling {
            Some(c) => c.pue(temp_c, it_watts, cfg.nominal_it_watts),
            None => fallback_pue.max(1.0),
        };
        let facility_watts = it_watts * pue;

        // Settle the elapsed interval.
        if dt_secs > 0.0 {
            let it_j = it_watts * dt_secs;
            let fac_j = facility_watts * dt_secs;
            self.energy_it_joules += it_j;
            self.energy_facility_joules += fac_j;
            // price is per MWh (3.6e9 J); carbon is g per kWh (3.6e6 J).
            self.cost_total += fac_j / 3.6e9 * price;
            self.carbon_kg_total += fac_j / 3.6e6 * carbon / 1000.0;
            if let Some(i) = self.active_event {
                if let Some(ev) = cfg.event(i) {
                    let target = ev.target_watts(cfg.nominal_it_watts);
                    if it_watts > target {
                        self.event_excess_joules[i as usize] += (it_watts - target) * dt_secs;
                        self.event_violation_secs[i as usize] += dt_secs;
                    }
                }
            }
        }

        self.last_price = price;
        self.last_carbon = carbon;
        self.last_pue = pue;

        self.budget_target(temp_c)
    }

    /// The IT budget target at the current readings: cooling-limited
    /// base, derated by the follow-the-renewables weights, then capped
    /// by any active DR curtailment.
    #[must_use]
    pub fn budget_target(&self, temp_c: f64) -> f64 {
        let cfg = &self.config;
        let base = match &cfg.cooling {
            Some(c) => c
                .effective_it_budget(temp_c, cfg.nominal_it_watts)
                .min(cfg.nominal_it_watts),
            None => cfg.nominal_it_watts,
        };
        let price_norm = normalize(self.last_price, self.price_bounds);
        let carbon_norm = normalize(self.last_carbon, self.carbon_bounds);
        let follow = (1.0 - cfg.price_follow * price_norm - cfg.carbon_follow * carbon_norm)
            .clamp(FOLLOW_FLOOR, 1.0);
        let mut target = base * follow;
        if let Some(ev) = self.active_event.and_then(|i| cfg.event(i)) {
            target = target.min(ev.target_watts(cfg.nominal_it_watts));
        }
        target
    }

    /// Marks DR event `idx` as in force.
    pub fn on_event_start(&mut self, idx: u32) {
        self.active_event = Some(idx);
        self.dr_active = true;
    }

    /// Marks DR event `idx` as over.
    pub fn on_event_end(&mut self, idx: u32) {
        if self.active_event == Some(idx) {
            self.active_event = None;
        }
        self.dr_active = false;
    }

    /// Most recent electricity price, currency per MWh.
    #[must_use]
    pub fn price(&self) -> f64 {
        self.last_price
    }

    /// Most recent carbon intensity, gCO₂ per kWh.
    #[must_use]
    pub fn carbon(&self) -> f64 {
        self.last_carbon
    }

    /// Most recent PUE.
    #[must_use]
    pub fn pue(&self) -> f64 {
        self.last_pue
    }

    /// Whether a DR event is currently in force.
    #[must_use]
    pub fn dr_active(&self) -> bool {
        self.dr_active
    }

    /// Settles the run into a summary (penalties per the contract).
    #[must_use]
    pub fn summary(&self) -> GridSummary {
        let cfg = &self.config;
        let mut dr = DrAccounting::default();
        for (i, _ev) in cfg.contract.events.iter().enumerate() {
            let excess_kwh = self.event_excess_joules[i] / 3.6e6;
            let penalty = if excess_kwh > cfg.contract.tolerance_kwh {
                (excess_kwh - cfg.contract.tolerance_kwh) * cfg.contract.penalty_per_excess_kwh
            } else {
                0.0
            };
            dr.events.push(DrEventOutcome {
                event: i,
                violation_secs: self.event_violation_secs[i],
                excess_kwh,
                penalty,
            });
            dr.penalty_total += penalty;
        }
        let energy_it_mwh = self.energy_it_joules / 3.6e9;
        let energy_facility_mwh = self.energy_facility_joules / 3.6e9;
        GridSummary {
            energy_it_mwh,
            energy_facility_mwh,
            mean_pue: if self.energy_it_joules > 0.0 {
                self.energy_facility_joules / self.energy_it_joules
            } else {
                1.0
            },
            cost: self.cost_total,
            carbon_kg: self.carbon_kg_total,
            penalty: dr.penalty_total,
            cost_with_penalty: self.cost_total + dr.penalty_total,
            dr,
        }
    }

    /// Encodes the state into the engine snapshot's `grid` section.
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        self.price_cursor.snapshot_into(w);
        self.carbon_cursor.snapshot_into(w);
        w.opt(self.active_event.as_ref(), |w, v| w.u32(*v));
        w.seq(&self.event_excess_joules, |w, v| w.f64(*v));
        w.seq(&self.event_violation_secs, |w, v| w.f64(*v));
        w.f64(self.cost_total);
        w.f64(self.carbon_kg_total);
        w.f64(self.energy_it_joules);
        w.f64(self.energy_facility_joules);
        w.f64(self.last_price);
        w.f64(self.last_carbon);
        w.f64(self.last_pue);
        w.bool(self.dr_active);
    }

    /// Overwrites the state with one written by
    /// [`GridState::snapshot_into`] over the same config (the engine's
    /// resume fingerprint guards it). Cursors, the active event and the
    /// per-event accumulators must fit the config's traces and contract,
    /// or the frame is [`SnapshotError::Corrupt`].
    pub fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let cfg = &self.config;
        let price_cursor = TraceCursor::restore_from(r, &cfg.price)?;
        let carbon_cursor = TraceCursor::restore_from(r, &cfg.carbon)?;
        let active_event = r.opt(|r| r.u32())?;
        let event_excess_joules = r.seq(|r| r.f64())?;
        let event_violation_secs = r.seq(|r| r.f64())?;
        let events = cfg.contract.events.len();
        if active_event.is_some_and(|i| i as usize >= events) {
            return Err(SnapshotError::Corrupt {
                detail: format!("active DR event {active_event:?} of {events}"),
            });
        }
        if event_excess_joules.len() != events || event_violation_secs.len() != events {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "DR accumulators have {} and {} entries for {events} events",
                    event_excess_joules.len(),
                    event_violation_secs.len()
                ),
            });
        }
        self.price_cursor = price_cursor;
        self.carbon_cursor = carbon_cursor;
        self.active_event = active_event;
        self.event_excess_joules = event_excess_joules;
        self.event_violation_secs = event_violation_secs;
        self.cost_total = r.f64()?;
        self.carbon_kg_total = r.f64()?;
        self.energy_it_joules = r.f64()?;
        self.energy_facility_joules = r.f64()?;
        self.last_price = r.f64()?;
        self.last_carbon = r.f64()?;
        self.last_pue = r.f64()?;
        self.dr_active = r.bool()?;
        Ok(())
    }
}

fn normalize(v: f64, (lo, hi): (f64, f64)) -> f64 {
    if hi - lo <= 1e-12 {
        return 0.5;
    }
    ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
}

/// Settled grid results for one run — reported alongside (never inside)
/// `SimOutcome`, so grid-disabled outcomes stay byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GridSummary {
    /// IT-side energy over the run, MWh.
    pub energy_it_mwh: f64,
    /// Facility-side energy (IT × PUE), MWh.
    pub energy_facility_mwh: f64,
    /// Energy-weighted mean PUE.
    pub mean_pue: f64,
    /// Electricity cost at the time-of-day price, facility-side.
    pub cost: f64,
    /// Carbon emitted, kg CO₂.
    pub carbon_kg: f64,
    /// Total DR penalties.
    pub penalty: f64,
    /// Cost plus penalties.
    pub cost_with_penalty: f64,
    /// Per-event DR settlement.
    pub dr: DrAccounting,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::DrEvent;

    fn cfg() -> GridConfig {
        let mut c = GridConfig::synthetic(1000.0, 1500.0, 100.0, 400.0, 2, 0.0, 42);
        c.contract = DrContract {
            events: vec![DrEvent {
                start: SimTime::from_hours(10.0),
                end: SimTime::from_hours(12.0),
                target_frac: 0.5,
                enforce: false,
            }],
            penalty_per_excess_kwh: 5.0,
            tolerance_kwh: 0.1,
        };
        c
    }

    #[test]
    fn synthetic_config_validates() {
        cfg().validate().unwrap();
        let mut bad = cfg();
        bad.price_follow = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = cfg();
        bad.nominal_it_watts = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn tick_settles_cost_and_carbon() {
        let c = cfg();
        let mut s = GridState::new(c.clone());
        // One hour at full IT draw.
        let target = s.on_tick(SimTime::from_hours(1.0), 3600.0, 1000.0, 15.0, 1.0);
        assert!(target > 0.0 && target <= c.nominal_it_watts);
        let sum = s.summary();
        assert!((sum.energy_it_mwh - 1e-3).abs() < 1e-12);
        assert!(sum.energy_facility_mwh > sum.energy_it_mwh, "PUE > 1");
        assert!(sum.cost > 0.0 && sum.carbon_kg > 0.0);
        assert!(sum.mean_pue > 1.0);
    }

    #[test]
    fn dr_event_caps_target_and_accrues_excess() {
        let mut s = GridState::new(cfg());
        s.on_event_start(0);
        assert!(s.dr_active());
        // Draw 1000 W against the 500 W target for an hour inside the event.
        let target = s.on_tick(SimTime::from_hours(11.0), 3600.0, 1000.0, 15.0, 1.0);
        assert!(target <= 500.0 + 1e-9, "target {target} not capped by DR");
        s.on_event_end(0);
        assert!(!s.dr_active());
        let sum = s.summary();
        assert!((sum.dr.events[0].excess_kwh - 0.5).abs() < 1e-9);
        assert!((sum.penalty - (0.5 - 0.1) * 5.0).abs() < 1e-9);
        assert!((sum.cost_with_penalty - (sum.cost + sum.penalty)).abs() < 1e-12);
    }

    #[test]
    fn follow_weights_shrink_target() {
        let mut s = GridState::new(cfg());
        let t = SimTime::from_hours(18.0); // evening price peak
        let base = s.on_tick(t, 0.0, 800.0, 15.0, 1.0);
        s.config.price_follow = 0.8;
        let derated = s.budget_target(15.0);
        assert!(derated < base, "derated {derated} vs base {base}");
        assert!(derated >= base * FOLLOW_FLOOR - 1e-9);
    }

    #[test]
    fn state_snapshot_roundtrips() {
        let mut s = GridState::new(cfg());
        s.on_event_start(0);
        for h in 1..30 {
            s.on_tick(SimTime::from_hours(f64::from(h)), 3600.0, 900.0, 18.0, 1.0);
        }
        let mut w = SnapWriter::new();
        s.snapshot_into(&mut w);
        let bytes = w.finish(1);
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        let mut back = GridState::new(cfg());
        back.restore_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
        // And the restored state re-snapshots byte-identically.
        let mut w2 = SnapWriter::new();
        back.snapshot_into(&mut w2);
        assert_eq!(w2.finish(1), {
            let mut w3 = SnapWriter::new();
            s.snapshot_into(&mut w3);
            w3.finish(1)
        });
    }
}
