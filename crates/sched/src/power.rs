//! The power plane: one owner for the power side of the control loop
//! (the survey's Figure 1): the node power model, the energy meter with
//! one group per running job, the budget whose grants the running jobs
//! hold, the run history and predictor, the violation tally, the
//! emergency start hold, and the policies it acts on, taken out of the
//! [`EngineConfig`] at build: emergency response, the concurrency gate
//! and the facility. Each power step is one method; a start's operating
//! point is a pure function of the plane. The plane encodes the `power`
//! section, and restore checks it against the clock.

use crate::emergency::EmergencyPolicy;
use crate::engine::EngineConfig;
use crate::error::SchedError;
use crate::jobs::RunningJob;
use crate::limiting::JobLimitGate;
use crate::snapshot::restore_part;
use epa_cluster::node::NodeId;
use epa_cluster::nodeset::NodeSet;
use epa_cluster::system::System;
use epa_obs::{Obs, TraceBus, TraceEvent};
use epa_power::budget::{GrantId, PowerBudget};
use epa_power::dvfs::DvfsModel;
use epa_power::facility::Facility;
use epa_power::meter::{EnergyMeter, GroupId};
use epa_power::node_power::{CappedOperatingPoint, NodePowerModel, NodePowerState};
use epa_predict::history::HistoryStore;
use epa_predict::predictors::{PowerPredictor, TagMeanPredictor};
use epa_simcore::snap::{Fingerprint, SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::job::{Job, JobId, Phase};

/// Grid interval of the exported system power trace. The meter samples
/// on it as power steps arrive, so the export matches a full change-point
/// series' resample bit-for-bit.
fn power_trace_grid() -> SimDuration {
    SimDuration::from_mins(5.0)
}

/// A start's operating point after any request or cap, its per-node
/// draw at the job's mean utilization, the grant it needs, and its
/// runtime and phases under the point.
pub(crate) struct StartPoint {
    pub(crate) op: CappedOperatingPoint,
    pub(crate) watts_per_node: f64,
    pub(crate) need: f64,
    /// The cap was lowered so the job fits the whole budget.
    pub(crate) capped_to_fit: bool,
    /// Physical runtime, before any actuation delay.
    pub(crate) run: SimDuration,
    pub(crate) phase_watts: Vec<f64>,
    pub(crate) phase_ends: Vec<SimTime>,
}

pub(crate) struct PowerPlane {
    model: NodePowerModel,
    meter: EnergyMeter,
    budget: Option<PowerBudget>,
    history: HistoryStore,
    record_history: bool,
    predictor: Box<dyn PowerPredictor>,
    /// Seconds the metered draw spent over the live budget.
    violation_secs: f64,
    last_tick: SimTime,
    /// No new starts before this instant (emergency cooldown), and
    /// whether the first tick past it must reschedule.
    hold_until: SimTime,
    hold_resume_pending: bool,
    emergency: Option<EmergencyPolicy>,
    limit_gate: Option<JobLimitGate>,
    facility: Option<Facility>,
}

impl PowerPlane {
    /// The plane for `system` under `config`, whose emergency, gate and
    /// facility it takes. Every node starts metered idle.
    pub(crate) fn new(config: &mut EngineConfig, system: &System) -> Result<Self, SchedError> {
        let spec = &system.spec().node;
        let budget = (config.power_budget_watts.map(PowerBudget::new).transpose())
            .map_err(|e| SchedError::InvalidConfig(e.to_string()))?;
        let mut meter = EnergyMeter::new(power_trace_grid());
        let all_nodes: Vec<NodeId> = system.nodes().collect();
        meter.set_alloc_watts(&all_nodes, SimTime::ZERO, spec.idle_watts);
        Ok(PowerPlane {
            model: NodePowerModel::new(spec.clone()),
            meter,
            budget,
            history: HistoryStore::new(),
            record_history: config.record_history,
            predictor: Box::new(TagMeanPredictor),
            violation_secs: 0.0,
            last_tick: SimTime::ZERO,
            hold_until: SimTime::ZERO,
            hold_resume_pending: false,
            emergency: config.emergency.take(),
            limit_gate: config.limit_gate.take(),
            facility: config.facility.take(),
        })
    }

    pub(crate) fn set_predictor(&mut self, p: Box<dyn PowerPredictor>) {
        self.predictor = p;
    }

    /// Folds the emergency policy and the gate field by field, and the
    /// facility by presence, into the resume fingerprint.
    pub(crate) fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.u64(u64::from(self.emergency.is_some()));
        self.emergency.iter().for_each(|em| em.fingerprint(fp));
        fp.u64(u64::from(self.limit_gate.is_some()));
        self.limit_gate.iter().for_each(|gate| gate.fingerprint(fp));
        fp.u64(u64::from(self.facility.is_some()));
    }

    /// Outdoor temperature at `t` (a mild 18 °C without a facility).
    pub(crate) fn ambient_c(&self, t: SimTime) -> f64 {
        self.facility.as_ref().map_or(18.0, |f| f.temperature_c(t))
    }

    pub(crate) fn pue(&self, t: SimTime) -> f64 {
        self.facility.as_ref().map_or(1.0, |f| f.pue(t))
    }

    /// Day of the year at t = 0, for seasonal idle shutdown.
    pub(crate) fn start_day_of_year(&self) -> u32 {
        (self.facility.as_ref()).map_or(0, |f| f.config().weather.start_day_of_year)
    }

    pub(crate) fn dvfs(&self) -> &DvfsModel {
        self.model.dvfs()
    }

    pub(crate) fn system_watts(&self) -> f64 {
        self.meter.system_watts()
    }

    pub(crate) fn energy_joules(&self, t: SimTime) -> f64 {
        self.meter.system_energy_joules(t)
    }

    pub(crate) fn violation_secs(&self) -> f64 {
        self.violation_secs
    }

    /// A node's draw with no job on it, in `state`.
    fn bare_watts(&self, state: NodePowerState) -> f64 {
        (self.model).watts(state, 0.0, self.model.spec().cpu.base_freq_ghz)
    }

    /// Meters `node` at its draw in `state`, after its node-table
    /// transition.
    pub(crate) fn meter_node(&mut self, node: NodeId, state: NodePowerState, t: SimTime) {
        let watts = self.bare_watts(state);
        self.meter.set_node_watts(node, t, watts);
    }

    /// Opens a started job's meter group: phase changes retarget it in
    /// O(1), and its close yields the job's energy.
    pub(crate) fn open_group(&mut self, nodes: &NodeSet, t: SimTime, watts: f64) -> GroupId {
        self.meter.open_group(nodes, t, watts)
    }

    pub(crate) fn set_group_watts(&mut self, group: GroupId, t: SimTime, watts: f64) {
        self.meter.set_group_watts(group, t, watts);
    }

    /// Closes departing job `r` at `t`, `run_secs` after its start, and
    /// returns its energy: the group closes with its nodes back at idle
    /// draw, `departure` turns the energy into the trace record written
    /// before the grant's release, and the run is archived.
    pub(crate) fn close_job(
        &mut self,
        r: &RunningJob,
        t: SimTime,
        run_secs: f64,
        bus: &mut TraceBus,
        departure: impl FnOnce(f64) -> TraceEvent,
    ) -> f64 {
        let idle_watts = self.bare_watts(NodePowerState::Idle);
        let energy = (self.meter).close_group(r.meter_group, &r.nodes, t, idle_watts);
        bus.record(t, departure(energy));
        self.release_grant(r.grant, t, bus);
        if self.record_history && run_secs > 0.0 {
            let wpn = energy / run_secs / f64::from(r.nodes.len());
            self.history
                .record_job(&r.job, run_secs, wpn, self.ambient_c(t));
        }
        energy
    }

    /// Accounts the power tick at `t`, drawing `watts`, against the live
    /// budget: ground truth, whatever the sensors claim. Returns the
    /// seconds since the previous tick.
    pub(crate) fn account_tick(&mut self, t: SimTime, watts: f64) -> f64 {
        let dt = (t - self.last_tick).as_secs();
        if let Some(limit) = self.budget.as_ref().map(PowerBudget::total_watts) {
            if watts > limit + 1e-6 {
                self.violation_secs += dt;
            }
        }
        self.last_tick = t;
        dt
    }

    /// The emergency response due at `t` for an `observed` draw, if any.
    pub(crate) fn emergency_due(&self, t: SimTime, observed: f64) -> Option<&EmergencyPolicy> {
        (self.emergency.as_ref()).filter(|em| em.should_respond(t, observed))
    }

    pub(crate) fn emergency_armed(&self, t: SimTime) -> bool {
        (self.emergency.as_ref()).is_some_and(|em| em.armed_at(t))
    }

    /// Holds new starts from `t` for `cooldown`.
    pub(crate) fn hold(&mut self, t: SimTime, cooldown: SimDuration) {
        self.hold_until = t + cooldown;
        self.hold_resume_pending = !cooldown.is_zero();
    }

    pub(crate) fn holds_starts(&self, t: SimTime) -> bool {
        t < self.hold_until
    }

    /// Whether the tick at `t` ends a cooldown with work `waiting` and so
    /// must reschedule (once).
    pub(crate) fn resume_after_hold(&mut self, t: SimTime, waiting: bool) -> bool {
        let resume = self.hold_resume_pending && t >= self.hold_until && waiting;
        if resume {
            self.hold_resume_pending = false;
        }
        resume
    }

    /// The gate's concurrency cap at `t`, if a gate is configured.
    pub(crate) fn gate_limit(&self, t: SimTime) -> Option<usize> {
        (self.limit_gate.as_ref()).map(|gate| gate.limit_at(self.ambient_c(t)))
    }

    pub(crate) fn budget_watts(&self) -> Option<f64> {
        self.budget.as_ref().map(PowerBudget::total_watts)
    }

    /// Resizes the budget, if there is one, to `watts` at `t`.
    pub(crate) fn resize(&mut self, watts: f64, t: SimTime, obs: &mut Obs) {
        if let Some(budget) = self.budget.as_mut() {
            if budget.resize_traced(watts, t, &mut obs.bus).is_ok() {
                obs.registry.incr("power/budget_resizes", 1);
            }
        }
    }

    /// Budget headroom and total, each infinite without a budget.
    pub(crate) fn headroom_and_total(&self) -> (f64, f64) {
        match &self.budget {
            Some(b) => (b.headroom_watts(), b.total_watts()),
            None => (f64::INFINITY, f64::INFINITY),
        }
    }

    /// The view's per-node power prediction at `now`: nameplate peak plus
    /// the `stale_margin` while telemetry is stale, else the predictor
    /// over the history, falling back to nominal.
    pub(crate) fn predictor(
        &self,
        now: SimTime,
        stale_margin: Option<f64>,
    ) -> impl Fn(&Job) -> f64 + '_ {
        let (predictor, history) = (&self.predictor, &self.history);
        let ambient = self.ambient_c(now);
        let spec = self.model.spec();
        let (nominal, peak) = (spec.nominal_watts, spec.peak_watts);
        move |job: &Job| match stale_margin {
            Some(margin) => peak * (1.0 + margin),
            None => predictor
                .predict_watts_per_node(job, history, ambient)
                .unwrap_or(nominal),
        }
    }

    /// The operating point of `job` starting at `now` on `nodes` nodes
    /// for `base_runtime`: the frequency request, then the hardware cap.
    /// A job whose demand exceeds the *total* budget could never start,
    /// so, as production sites do (KAUST's static CAPMC caps, Trinity's
    /// admin caps), the point takes a per-node ceiling that makes it fit,
    /// when one exists.
    pub(crate) fn start_point(
        &self,
        job: &Job,
        nodes: u32,
        base_runtime: SimDuration,
        now: SimTime,
        freq_ghz: Option<f64>,
        node_cap_watts: Option<f64>,
    ) -> StartPoint {
        let (model, dvfs) = (&self.model, self.model.dvfs());
        let spec_base = model.spec().cpu.base_freq_ghz;
        let demand_freq = freq_ghz.unwrap_or(spec_base);
        let beta = job.app.mean_cpu_boundness();
        let util = job.app.mean_utilization();
        let mut op = match node_cap_watts {
            Some(cap) => model.apply_cap(cap, demand_freq, beta),
            None => {
                // Quantize only explicit requests; the default (base) is a
                // legal operating point on every CPU.
                let f = match freq_ghz {
                    Some(req) => dvfs.cpu().quantize_frequency(req),
                    None => spec_base,
                };
                CappedOperatingPoint {
                    freq_ghz: f,
                    watts: dvfs.busy_watts(f),
                    slowdown: dvfs.slowdown(f, beta),
                }
            }
        };
        // Actual per-node draw scales with utilization.
        let idle = model.spec().idle_watts;
        let mut watts_per_node = idle + util * (op.watts - idle);
        let mut need = watts_per_node * f64::from(nodes);
        let mut capped_to_fit = false;
        if let Some(total) = self.budget_watts() {
            if need > total {
                let per_node_ceiling = total / f64::from(nodes);
                // Cap the *busy* draw such that the utilization-weighted
                // draw stays under the ceiling.
                let busy_cap = if util > 0.0 {
                    idle + (per_node_ceiling - idle) / util
                } else {
                    per_node_ceiling
                };
                let capped = model.apply_cap(busy_cap, op.freq_ghz, beta);
                let capped_wpn = idle + util * (capped.watts - idle);
                if capped_wpn * f64::from(nodes) <= total + 1e-9 {
                    op = capped;
                    watts_per_node = capped_wpn;
                    need = capped_wpn * f64::from(nodes);
                    capped_to_fit = true;
                }
            }
        }
        // Phase-resolved power: the job draws a different wattage in each
        // phase (utilization differs), producing the intra-job power
        // fluctuations the survey's introduction motivates. Phase k lasts
        // base × wₖ × slowdown(f, βₖ) and draws idle + utilₖ·(busy − idle);
        // the physical runtime is their sum.
        let phases = job.normalized_phases();
        let slowdown = |p: &Phase| dvfs.slowdown(op.freq_ghz, p.cpu_boundness);
        let factor: f64 = phases.iter().map(|p| p.weight * slowdown(p)).sum();
        let draw = |p: &Phase| idle + p.utilization.clamp(0.0, 1.0) * (op.watts - idle);
        let mut acc = 0.0;
        let mut end = |p: &Phase| {
            acc += base_runtime.as_secs() * p.weight * slowdown(p);
            now + SimDuration::from_secs(acc)
        };
        StartPoint {
            run: SimDuration::from_secs(base_runtime.as_secs() * factor.max(0.0)),
            phase_watts: phases.iter().map(draw).collect(),
            phase_ends: phases.iter().map(&mut end).collect(),
            op,
            watts_per_node,
            need,
            capped_to_fit,
        }
    }

    /// Requests `watts` for job `id` at `t`: `Err` is a denial, and
    /// without a budget nothing is granted.
    pub(crate) fn request_grant(
        &mut self,
        id: JobId,
        watts: f64,
        t: SimTime,
        bus: &mut TraceBus,
    ) -> Result<Option<GrantId>, ()> {
        let Some(budget) = self.budget.as_mut() else {
            return Ok(None);
        };
        let gid = GrantId(id.0);
        match budget.request_traced(gid, watts, t, bus) {
            Ok(()) => Ok(Some(gid)),
            Err(_) => Err(()),
        }
    }

    pub(crate) fn release_grant(&mut self, grant: Option<GrantId>, t: SimTime, bus: &mut TraceBus) {
        if let (Some(budget), Some(g)) = (self.budget.as_mut(), grant) {
            let _ = budget.release_traced(g, t, bus);
        }
    }

    pub(crate) fn grant_watts(&self, grant: Option<GrantId>) -> Option<f64> {
        grant.and_then(|g| self.budget.as_ref()?.grant_watts(g))
    }

    /// The outcome's energy, peak and average system draw over `[0, end]`,
    /// and its power trace as `(seconds, watts)` rows.
    pub(crate) fn report(&self, end: SimTime) -> (f64, f64, f64, Vec<(f64, f64)>) {
        let m = &self.meter;
        let rows = m.power_trace_rows(end).into_iter();
        let trace = rows.map(|(t, w)| (t.as_secs(), w)).collect();
        let (peak, avg) = (m.peak_system_watts(end), m.avg_system_watts(end));
        (m.system_energy_joules(end), peak, avg, trace)
    }

    /// Checks restored running jobs against the plane: they hold exactly
    /// the live grants, and each open meter group is one job's node spans.
    pub(crate) fn check_holders<'a>(
        &self,
        running: impl Iterator<Item = &'a RunningJob> + Clone,
    ) -> Result<(), SnapshotError> {
        let mut held: Vec<GrantId> = running.clone().filter_map(|r| r.grant).collect();
        held.sort_unstable();
        let live: Vec<GrantId> =
            (self.budget.as_ref()).map_or_else(Vec::new, |b| b.grant_ids().collect());
        if held != live {
            return Err(SnapshotError::Corrupt {
                detail: format!("running jobs hold grants {held:?}, the budget {live:?}"),
            });
        }
        (self.meter).check_groups(running.map(|r| (r.meter_group, &r.nodes)))
    }

    /// Encodes the `power` section: the violation seconds, the last tick,
    /// the hold's end and its resume flag, then the budget option, the
    /// meter and the history.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.f64(self.violation_secs);
        w.f64(self.last_tick.as_secs());
        w.f64(self.hold_until.as_secs());
        w.bool(self.hold_resume_pending);
        w.opt(self.budget.as_ref(), |w, b| b.snapshot_into(w));
        self.meter.snapshot_into(w);
        self.history.snapshot_into(w);
    }

    /// Decodes the `power` section, written at clock `now` on a
    /// `total`-node machine, over this freshly built plane: neither the
    /// last tick nor the violation time may pass the clock (a hold may).
    pub(crate) fn restore_from(
        &mut self,
        r: &mut SnapReader<'_>,
        now: SimTime,
        total: u32,
    ) -> Result<(), SnapshotError> {
        let violation_secs = r.f64()?;
        let last_tick = r.time()?;
        if !(violation_secs >= 0.0 && violation_secs <= now.as_secs()) || last_tick > now {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "{violation_secs} s over budget and a tick at {last_tick} by the clock {now}"
                ),
            });
        }
        self.violation_secs = violation_secs;
        self.last_tick = last_tick;
        self.hold_until = r.time()?;
        self.hold_resume_pending = r.bool()?;
        restore_part(r, "the power budget", &mut self.budget, |r, b| {
            *b = PowerBudget::restore_from(r)?;
            Ok(())
        })?;
        self.meter = EnergyMeter::restore_from(r, power_trace_grid(), total)?;
        self.history = HistoryStore::restore_from(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_cluster::node::NodeSpec;
    use epa_cluster::system::SystemSpec;
    use epa_cluster::topology::Topology;
    use epa_workload::job::JobBuilder;

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn plane(budget: Option<f64>) -> PowerPlane {
        let system = SystemSpec {
            name: "power".into(),
            cabinets: 1,
            nodes_per_cabinet: 8,
            node: NodeSpec::typical_xeon(),
            topology: Topology::FatTree { arity: 8 },
            peak_tflops: 1.0,
        }
        .build();
        let mut config = EngineConfig::new(at(3600.0));
        config.power_budget_watts = budget;
        PowerPlane::new(&mut config, &system).expect("valid config")
    }

    fn frame(p: &PowerPlane) -> Vec<u8> {
        let mut w = SnapWriter::new();
        p.snapshot_into(&mut w);
        w.finish(1)
    }

    /// Restores `bytes` at clock `now` over a fresh plane with `budget`.
    fn restore(bytes: &[u8], budget: Option<f64>, now: f64) -> Result<PowerPlane, SnapshotError> {
        let mut p = plane(budget);
        let mut r = SnapReader::open(bytes, 1).expect("framed");
        p.restore_from(&mut r, at(now), 8)?;
        r.finish().map(|()| p)
    }

    /// A plane after each power step: a node switched off, two jobs
    /// started (each with a meter group and, under a budget, a grant), a
    /// tick over the budget, an emergency hold, and one job's departure
    /// into the history.
    fn stepped(budget: Option<f64>) -> PowerPlane {
        let mut p = plane(budget);
        let bus = &mut TraceBus::disabled();
        p.meter_node(NodeId(7), NodePowerState::Off, at(30.0));
        let mut running = Vec::new();
        for (id, first) in [(1, 0), (2, 2)] {
            let nodes = NodeSet::from_run(first, 2);
            let job = JobBuilder::new(id).nodes(2).build();
            let point = p.start_point(&job, 2, job.base_runtime, at(60.0), None, None);
            let grant = p.request_grant(job.id, point.need, at(60.0), bus);
            running.push(RunningJob {
                grant: grant.expect("granted"),
                meter_group: p.open_group(&nodes, at(60.0), point.watts_per_node),
                job,
                token: 0,
                nodes,
                start: at(60.0),
                estimated_end: at(3600.0),
                watts_per_node: point.watts_per_node,
                killed_at_walltime: false,
                base_effective: SimDuration::from_secs(600.0),
                true_run_secs: 600.0,
                phase_watts: vec![point.watts_per_node],
            });
        }
        p.account_tick(at(60.0), 0.0);
        p.account_tick(at(120.0), 1e6);
        p.hold(at(120.0), SimDuration::from_mins(10.0));
        let done = running.remove(0);
        let energy = p.close_job(&done, at(600.0), 540.0, bus, |_| TraceEvent::SensorDropout);
        assert!(energy > 0.0);
        p.check_holders(running.iter()).expect("consistent");
        p
    }

    #[test]
    fn the_power_section_round_trips_with_and_without_a_budget() {
        for budget in [Some(1200.0), None] {
            let p = stepped(budget);
            let bytes = frame(&p);
            let back = restore(&bytes, budget, 600.0).expect("consistent");
            assert_eq!(frame(&back), bytes, "{budget:?}");
            assert_eq!(back.headroom_and_total(), p.headroom_and_total());
            assert_eq!(back.violation_secs(), p.violation_secs());
            assert!(back.holds_starts(at(600.0)) && !back.holds_starts(at(720.0)));
            let other = budget.xor(Some(1200.0));
            let mismatch = restore(&bytes, other, 600.0).err();
            assert!(
                matches!(mismatch, Some(SnapshotError::ConfigMismatch { .. })),
                "{budget:?}: {mismatch:?}"
            );
        }
        let p = stepped(Some(1200.0));
        assert_eq!(p.violation_secs(), 60.0, "one interval over the budget");
        assert_eq!(p.history.len(), 1);
    }

    #[test]
    fn restore_rejects_a_tick_or_violation_time_past_the_clock() {
        let corrupt = |bytes: &[u8], now| {
            let err = restore(bytes, Some(1200.0), now).err();
            matches!(err, Some(SnapshotError::Corrupt { .. }))
        };
        let bytes = frame(&stepped(Some(1200.0)));
        assert!(corrupt(&bytes, 100.0), "last tick at 120 s after the clock");
        for violation in [f64::NAN, f64::INFINITY, -1.0, 601.0] {
            let mut p = stepped(Some(1200.0));
            p.violation_secs = violation;
            assert!(corrupt(&frame(&p), 600.0), "{violation} s over budget");
        }
        let mut p = stepped(Some(1200.0));
        p.hold(at(600.0), SimDuration::from_hours(5.0));
        assert!(!corrupt(&frame(&p), 600.0), "a hold may end in the future");
    }
}
