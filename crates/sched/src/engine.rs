//! The cluster scheduling engine.
//!
//! [`ClusterSim`] dispatches one event loop over crate-private owners of
//! its state: the event loop, the node and job tables, the power plane
//! and the fault plane. A [`Policy`] makes the scheduling choices; the
//! engine owns physical truth: allocations (a policy can never
//! double-book a node), piecewise-exact energy metering, the power-budget
//! ledger, walltime enforcement, and the optional idle shutdown,
//! emergency response, maintenance windows and concurrency gate (the
//! Table I/II production mechanisms).
//!
//! The engine reports a [`SimOutcome`] with the metrics every experiment
//! consumes: utilization, wait/slowdown statistics, energy, peak power,
//! violations, kills, and per-policy counters.

use crate::control::{ControlAction, ControlPlane, Observation};
use crate::emergency::{EmergencyPolicy, VictimOrder};
use crate::error::SchedError;
use crate::events::{Ev, EventLoop, Next};
use crate::faults::FaultPlane;
use crate::jobs::{JobTable, RunningJob};
use crate::limiting::JobLimitGate;
use crate::nodes::NodeTable;
use crate::power::{PowerPlane, StartPoint};
use crate::shutdown::ShutdownPolicy;
use crate::snapshot::{restore_part, Snapshot, SNAPSHOT_SCHEMA_VERSION};
use crate::view::{Decision, Policy, SchedView};
use epa_cluster::alloc::AllocStrategy;
use epa_cluster::layout::FacilityLayout;
use epa_cluster::node::NodeId;
use epa_cluster::nodeset::NodeSet;
use epa_cluster::system::System;
use epa_faults::FaultConfig;
use epa_grid::{GridConfig, GridState, GridSummary};
use epa_obs::{KillReason, Obs, ObsBundle, RejectReason, Scope, TraceConfig, TraceEvent};
use epa_power::budget::GrantId;
use epa_power::facility::Facility;
use epa_power::node_power::NodePowerState;
use epa_predict::predictors::PowerPredictor;
use epa_simcore::snap::{Fingerprint, SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::job::{Job, JobId};
use epa_workload::source::{JobSource, MaterializedSource};
use serde::Serialize;

pub use crate::jobs::CompletedJob;

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Simulation horizon; events past it are dropped and accounting stops.
    pub horizon: SimTime,
    /// Node placement strategy.
    pub alloc_strategy: AllocStrategy,
    /// System power budget for admission control, if any (IT watts).
    pub power_budget_watts: Option<f64>,
    /// Idle-node shutdown policy, if enabled.
    pub shutdown: Option<ShutdownPolicy>,
    /// Emergency response policy, if enabled.
    pub emergency: Option<EmergencyPolicy>,
    /// Concurrency gate (MS3-style), if enabled.
    pub limit_gate: Option<JobLimitGate>,
    /// Facility model for temperature/PUE (optional; a default mild
    /// climate is used when absent).
    pub facility: Option<Facility>,
    /// Facility layout for maintenance-aware scheduling, if any.
    pub layout: Option<FacilityLayout>,
    /// Record per-job history into the prediction store.
    pub record_history: bool,
    /// Scheduled budget resizes `(time, new IT watts)` — the demand-
    /// response events of the ESP–SC interaction (Bates et al., the
    /// survey's motivating work). Requires `power_budget_watts`.
    pub budget_schedule: Vec<(SimTime, f64)>,
    /// Requeue jobs killed by emergencies or failures instead of losing
    /// them (Tokyo Tech: the RM "interacts with job scheduler to avoid
    /// killing jobs" — at minimum, killed work re-enters the queue).
    pub requeue_killed: bool,
    /// Checkpoint interval: when set, a requeued job resumes from its
    /// last checkpoint instead of restarting from zero.
    pub checkpoint_interval: Option<SimDuration>,
    /// Mean time between node failures across the whole system
    /// (exponential); `None` disables failure injection.
    pub node_mtbf: Option<SimDuration>,
    /// Repair time after a node failure.
    pub repair_time: SimDuration,
    /// Seed for engine-internal randomness (failure injection).
    pub seed: u64,
    /// Deterministic fault model: correlated rack/PDU events, telemetry
    /// sensor faults with staleness-based degradation, and unreliable
    /// actuators with retry/fence escalation. `None` injects nothing and
    /// leaves every code path byte-identical to a fault-free engine.
    pub faults: Option<FaultConfig>,
    /// Observability: the decision-trace enable mask, ring capacity, and
    /// profiling switch. The default records nothing; with categories
    /// masked off every trace site costs one branch on a bitset, and the
    /// simulated outcome is byte-identical either way.
    pub trace: TraceConfig,
    /// Keep per-job [`CompletedJob`] records in memory. Streaming runs
    /// turn this off: completions fold into incremental aggregates,
    /// `SimOutcome::jobs` comes back empty, and every other outcome field
    /// is byte-identical either way.
    pub retain_completed: bool,
    /// Has no effect: the system power trace is always the bounded
    /// 5-minute-grid accumulator, so the outcome, trace and snapshot are
    /// the same either way and the field is not fingerprinted. It stays
    /// only because the `perfbench` harness still assigns it.
    pub bounded_power_trace: bool,
    /// Facility digital twin: price/carbon traces, demand-response
    /// contract, cooling loop. `None` (the default) leaves every code
    /// path byte-identical to the grid-less engine; `Some` co-simulates
    /// the twin at power-tick barriers, steering the IT budget through
    /// budget resizes and emergency sheds and settling cost/carbon/penalty
    /// into [`ClusterSim::grid_summary`].
    pub grid: Option<GridConfig>,
}

impl EngineConfig {
    /// A sensible default configuration for a given horizon.
    #[must_use]
    pub fn new(horizon: SimTime) -> Self {
        EngineConfig {
            horizon,
            alloc_strategy: AllocStrategy::FirstFit,
            power_budget_watts: None,
            shutdown: None,
            emergency: None,
            limit_gate: None,
            facility: None,
            layout: None,
            record_history: true,
            budget_schedule: Vec::new(),
            requeue_killed: false,
            checkpoint_interval: None,
            node_mtbf: None,
            repair_time: SimDuration::from_hours(4.0),
            seed: 0xe9a,
            faults: None,
            trace: TraceConfig::default(),
            retain_completed: true,
            bounded_power_trace: false,
            grid: None,
        }
    }

    /// Rejects degenerate settings: a zero/negative node MTBF, a zero
    /// repair time, a zero checkpoint interval, a shutdown policy with a
    /// zero shutdown or boot time, an invalid [`FaultConfig`] or
    /// [`GridConfig`], a non-finite or non-positive budget or scheduled
    /// budget, and a budget schedule or steering grid config without a
    /// budget. Called at engine construction.
    pub fn validate(&self) -> Result<(), SchedError> {
        if self.node_mtbf.is_some_and(|d| d.as_secs() <= 0.0) {
            return Err(SchedError::NonPositiveMtbf);
        }
        if self.repair_time.as_secs() <= 0.0 {
            return Err(SchedError::NonPositiveRepairTime);
        }
        if self.checkpoint_interval.is_some_and(|d| d.is_zero()) {
            return Err(SchedError::ZeroCheckpointInterval);
        }
        if self.shutdown.as_ref().is_some_and(|sd| !sd.is_valid()) {
            return Err(SchedError::InvalidConfig(
                "a shutdown policy needs positive shutdown and boot times".to_owned(),
            ));
        }
        if let Some(f) = &self.faults {
            f.validate()
                .map_err(|e| SchedError::InvalidConfig(e.to_string()))?;
        }
        let budgets = self
            .power_budget_watts
            .iter()
            .chain(self.budget_schedule.iter().map(|(_, w)| w));
        if let Some(w) = budgets.copied().find(|w| !w.is_finite() || *w <= 0.0) {
            return Err(SchedError::InvalidConfig(format!(
                "power budgets must be positive and finite, got {w}"
            )));
        }
        // A resize needs a budget to resize; without one it would
        // silently do nothing.
        if !self.budget_schedule.is_empty() && self.power_budget_watts.is_none() {
            return Err(SchedError::InvalidConfig(
                "budget_schedule requires power_budget_watts".to_owned(),
            ));
        }
        if let Some(g) = &self.grid {
            g.validate()
                .map_err(|e| SchedError::InvalidConfig(e.to_string()))?;
            // The twin steers through budget resizes; a steering config
            // without a budget would silently do nothing.
            let steers = !g.contract.events.is_empty()
                || g.cooling.is_some()
                || g.price_follow > 0.0
                || g.carbon_follow > 0.0;
            if steers && self.power_budget_watts.is_none() {
                return Err(SchedError::InvalidConfig(
                    "a steering grid config (DR events, cooling, or follow weights) \
                     requires power_budget_watts"
                        .to_owned(),
                ));
            }
        }
        Ok(())
    }
}

/// Histogram bucket bounds for the observability registry. Wait times
/// span minutes to days; queue depth is powers of two; actuation delay
/// follows the retry backoff scale; staleness age follows telemetry
/// tick/staleness-bound scales.
const WAIT_BUCKETS: [f64; 8] = [
    60.0, 300.0, 900.0, 3600.0, 14_400.0, 43_200.0, 86_400.0, 259_200.0,
];
const QUEUE_DEPTH_BUCKETS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];
const ACTUATION_DELAY_BUCKETS: [f64; 8] = [0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0];
const STALENESS_AGE_BUCKETS: [f64; 6] = [60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0];

/// Interval between power ticks (telemetry, emergency checks, shutdown
/// scans).
fn power_tick() -> SimDuration {
    SimDuration::from_mins(1.0)
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct SimOutcome {
    /// Policy name.
    pub policy: String,
    /// Jobs completed (including walltime kills).
    pub completed: u64,
    /// Jobs killed at their walltime limit.
    pub walltime_kills: u64,
    /// Jobs killed by emergency response.
    pub emergency_kills: u64,
    /// Jobs still queued or running at the horizon.
    pub unfinished: u64,
    /// Node utilization: busy node-seconds / (total nodes × span).
    pub utilization: f64,
    /// Mean wait time, seconds.
    pub mean_wait_secs: f64,
    /// Maximum wait time, seconds.
    pub max_wait_secs: f64,
    /// Mean bounded slowdown (bound 10 s).
    pub mean_bounded_slowdown: f64,
    /// Total IT energy over the run, joules.
    pub energy_joules: f64,
    /// Peak IT power, watts.
    pub peak_watts: f64,
    /// Average IT power, watts.
    pub avg_watts: f64,
    /// Seconds during which the configured budget was exceeded.
    pub budget_violation_secs: f64,
    /// Completed jobs per simulated day.
    pub throughput_per_day: f64,
    /// Energy per completed job, joules (∞-safe: 0 when none completed).
    pub energy_per_job_joules: f64,
    /// Total node-failure events (independent + correlated + fenced).
    pub node_failures: u64,
    /// Failure count per node, indexed by node id.
    pub per_node_failures: Vec<u64>,
    /// Total node-downtime seconds (completed repairs plus nodes still
    /// down at the horizon, accrued to the end of the run).
    pub node_downtime_secs: f64,
    /// Mean time to repair over completed repairs, seconds (0 when none).
    pub mttr_secs: f64,
    /// Jobs requeued after being killed (requires `requeue_killed`).
    pub requeues: u64,
    /// Telemetry staleness fallback transitions (flips into the
    /// conservative-estimate degraded mode).
    pub telemetry_fallbacks: u64,
    /// Nodes fenced after crossing the consecutive actuation-failure
    /// threshold.
    pub fenced_nodes: u64,
    /// Nodes still down (awaiting repair) when the run ended.
    pub nodes_down_at_end: u64,
    /// Per-job records.
    pub jobs: Vec<CompletedJob>,
    /// Engine counters (submissions, starts, boots, shutdowns, emergency
    /// events, …) for interaction analysis.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// System power trace sampled every 5 simulated minutes:
    /// `(seconds, watts)` rows for time-of-day analyses (E5's hot-hour
    /// peak, diurnal plots).
    pub power_trace: Vec<(f64, f64)>,
}

/// A point-in-time reading of the cumulative quantities the environment
/// reward is computed from ([`ClusterSim::reward_probe`]). Differences
/// between two probes give the per-interval energy, slowdown mass,
/// violation time, and kill count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RewardProbe {
    /// Simulation time of the probe.
    pub t: SimTime,
    /// Cumulative system IT energy since t=0, joules.
    pub energy_joules: f64,
    /// Jobs completed so far.
    pub completed: u64,
    /// Sum of bounded slowdowns over completed jobs (the outcome's
    /// `mean_bounded_slowdown × completed`).
    pub slowdown_sum: f64,
    /// Cumulative budget-violation seconds.
    pub violation_secs: f64,
    /// Jobs killed by emergency responses so far.
    pub emergency_kills: u64,
}

/// The simulation engine.
pub struct ClusterSim<'p> {
    config: EngineConfig,
    system: System,
    /// The scheduling policy, borrowed (the classic constructors) or owned
    /// (the [`crate::env::PolicyEnv`] constructors, which need a `'static`
    /// engine they can hold across decision steps).
    policy: Box<dyn Policy + 'p>,

    /// The clock, the runtime event queue and the staged arrival.
    events: EventLoop,
    /// Allocation and the per-node power-state machine.
    nodes: NodeTable,
    /// Queued, running and departed jobs.
    jobs: JobTable,
    /// Meter, budget, history and predictor, the emergency hold, and the
    /// power-side policies, which it takes out of the [`EngineConfig`].
    power: PowerPlane,
    /// Node and domain failures, sensor and actuator faults.
    faults: FaultPlane,
    /// Observability: trace bus, metrics registry, wall-clock profiler.
    /// Its registry is the engine's only one: every counter lands there,
    /// and the outcome's counter map is collected from it at finalize.
    obs: Obs,
    /// The knobs in force: the external job limit, the default DVFS
    /// frequency and the idle-shutdown policy, which starts as the
    /// configured one.
    control: ControlPlane,
    /// Facility digital twin over the grid config, which the engine takes
    /// out of its [`EngineConfig`] at build. Advanced only at power-tick
    /// barriers and DR-window events; snapshot as its own section.
    grid: Option<GridState>,
}

impl<'p> ClusterSim<'p> {
    /// Creates an engine over `system` running `jobs` under `policy`. The
    /// job list is wrapped in a [`MaterializedSource`] — submit-time
    /// order with input order preserved among ties, exactly the order the
    /// event queue produced when every Submit was pre-scheduled.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is degenerate; use
    /// [`Self::try_new_with_source`] over a [`MaterializedSource`] to
    /// handle the error.
    pub fn new(
        system: System,
        jobs: Vec<Job>,
        policy: &'p mut dyn Policy,
        config: EngineConfig,
    ) -> Self {
        Self::try_new_with_source(
            system,
            Box::new(MaterializedSource::new(jobs)),
            policy,
            config,
        )
        .expect("invalid engine config")
    }

    /// Creates an engine over a pull-based [`JobSource`]. Arrivals are
    /// staged one at a time — peak memory is flat in the job count —
    /// and a [`MaterializedSource`] reproduces [`ClusterSim::new`]
    /// byte-for-byte.
    pub fn try_new_with_source(
        system: System,
        source: Box<dyn JobSource>,
        policy: &'p mut dyn Policy,
        config: EngineConfig,
    ) -> Result<Self, SchedError> {
        Self::build(system, source, Box::new(policy), config)
    }

    fn build(
        system: System,
        source: Box<dyn JobSource>,
        policy: Box<dyn Policy + 'p>,
        mut config: EngineConfig,
    ) -> Result<Self, SchedError> {
        config.validate()?;
        let mut events = EventLoop::new(config.horizon, source);
        events.schedule_at(SimTime::ZERO, Ev::PowerTick);
        for &(t, w) in &config.budget_schedule {
            events.schedule_at(t, Ev::BudgetResize(w));
        }
        // Grid DR windows ride the same event queue as everything else.
        let grid = config.grid.take().map(GridState::new);
        if let Some(g) = &grid {
            for (i, ev) in g.config().contract.events.iter().enumerate() {
                events.schedule_at(ev.start, Ev::GridDrStart(i as u32));
                events.schedule_at(ev.end, Ev::GridDrEnd(i as u32));
            }
        }
        let spec = system.spec();
        let mut faults = FaultPlane::new(&config, spec.cabinets, spec.idle_watts());
        faults.schedule(&mut events);
        let power = PowerPlane::new(&mut config, &system)?;
        let mut obs = Obs::new(&config.trace);
        obs.registry
            .register_histogram("sched/wait_secs", &WAIT_BUCKETS);
        obs.registry
            .register_histogram("sched/queue_depth", &QUEUE_DEPTH_BUCKETS);
        obs.registry
            .register_histogram("rm/actuation_delay_secs", &ACTUATION_DELAY_BUCKETS);
        obs.registry
            .register_histogram("telemetry/staleness_age_secs", &STALENESS_AGE_BUCKETS);
        let total = system.spec().total_nodes();
        let nodes = NodeTable::new(total, config.alloc_strategy, system.topology().clone());
        let jobs = JobTable::new(config.retain_completed);
        let control = ControlPlane::new(config.shutdown.clone());
        Ok(ClusterSim {
            config,
            system,
            policy,
            events,
            nodes,
            jobs,
            power,
            faults,
            obs,
            control,
            grid,
        })
    }

    /// Creates an engine that *owns* its policy, so the engine has no
    /// borrowed lifetime. This is the [`crate::env::PolicyEnv`]
    /// construction path: the environment holds the engine across
    /// decision steps, which a borrowed policy's lifetime would forbid.
    pub fn try_new_owned(
        system: System,
        jobs: Vec<Job>,
        policy: Box<dyn Policy>,
        config: EngineConfig,
    ) -> Result<ClusterSim<'static>, SchedError> {
        ClusterSim::build(
            system,
            Box::new(MaterializedSource::new(jobs)),
            policy,
            config,
        )
    }

    /// [`ClusterSim::resume`] with an owned policy — see
    /// [`ClusterSim::try_new_owned`].
    pub fn resume_owned(
        system: System,
        jobs: Vec<Job>,
        policy: Box<dyn Policy>,
        config: EngineConfig,
        snapshot: &Snapshot,
    ) -> Result<ClusterSim<'static>, SnapshotError> {
        let mut engine = ClusterSim::try_new_owned(system, jobs, policy, config).map_err(|e| {
            SnapshotError::ConfigMismatch {
                detail: format!("engine construction failed: {e}"),
            }
        })?;
        engine.restore_state(snapshot.as_bytes())?;
        Ok(engine)
    }

    /// Replaces the power predictor used for admission control.
    pub fn set_predictor(&mut self, p: Box<dyn PowerPredictor>) {
        self.power.set_predictor(p);
    }

    /// Runs the simulation to completion and reports the outcome.
    pub fn run(self) -> SimOutcome {
        self.run_traced().0
    }

    /// Runs the simulation and additionally returns the observability
    /// bundle: the decision trace, the metrics registry, and the
    /// wall-clock profile. The [`SimOutcome`] is byte-identical to what
    /// [`ClusterSim::run`] returns for the same inputs regardless of the
    /// trace configuration.
    pub fn run_traced(mut self) -> (SimOutcome, ObsBundle) {
        while !self.step() {}
        self.finalize()
    }

    /// The settled facility-twin results at the current barrier: energy,
    /// cost at time-of-day prices, carbon, PUE, and DR penalties. `None`
    /// when the engine runs without a grid config — [`SimOutcome`] never
    /// carries grid fields, so grid-disabled outcomes stay byte-identical
    /// to the pre-grid engine.
    #[must_use]
    pub fn grid_summary(&self) -> Option<GridSummary> {
        self.grid.as_ref().map(GridState::summary)
    }

    /// Runs the simulation to completion and reports the outcome plus
    /// the grid settlement (when a grid config is present).
    pub fn run_with_grid(mut self) -> (SimOutcome, Option<GridSummary>) {
        while !self.step() {}
        let grid = self.grid_summary();
        (self.finalize().0, grid)
    }

    /// Dispatches the next event. Returns `true` when the run is over
    /// (queue exhausted or the horizon reached) — and stays idempotent
    /// from then on, so callers may keep stepping safely. Every instant
    /// *between* two `step` calls is a legal snapshot point.
    fn step(&mut self) -> bool {
        let Some((t, next)) = self.events.next() else {
            return true;
        };
        let t_dispatch = self.obs.profiler.start();
        match next {
            Next::Arrival(job) => self.on_arrival(t, job),
            Next::Event(ev) => self.on_event(t, ev),
        }
        self.obs.profiler.stop(Scope::Dispatch, t_dispatch);
        false
    }

    /// A job arrives: it joins the queue and a scheduling round runs.
    fn on_arrival(&mut self, t: SimTime, job: Job) {
        let (jid, jnodes) = (job.id.0, job.nodes);
        self.obs.registry.incr("jobs/submitted", 1);
        self.jobs.queue(job);
        let depth = self.jobs.queued().len();
        self.obs.registry.observe("sched/queue_depth", depth as f64);
        self.obs.bus.record(
            t,
            TraceEvent::JobSubmitted {
                job: jid,
                nodes: jnodes,
                queue_depth: depth as u64,
            },
        );
        self.try_schedule();
    }

    fn on_event(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::Finish(id, token) => {
                if let Some(r) = self.jobs.take(id, token) {
                    self.complete(r, t, None);
                }
                self.try_schedule();
            }
            Ev::PowerTick => self.on_power_tick(t),
            Ev::BootDone(n) => self.bring_up(n, t),
            Ev::BudgetResize(w) => {
                self.power.resize(w, t, &mut self.obs);
                self.try_schedule();
            }
            Ev::NodeFail => {
                let operational = self.nodes.operational();
                let (victim, next) = self.faults.node_fail(t, &operational, self.config.horizon);
                if let Some(victim) = victim {
                    self.obs.bus.record(
                        t,
                        TraceEvent::NodeFailed {
                            node: victim.0,
                            correlated: false,
                        },
                    );
                    self.take_node_down(victim, t, self.faults.repair_time());
                    self.try_schedule();
                }
                if let Some(next) = next {
                    self.events.schedule_at(next, Ev::NodeFail);
                }
            }
            Ev::RepairDone(n) => {
                if let Some(down_secs) = self.nodes.repair(n, t) {
                    self.obs.bus.record(
                        t,
                        TraceEvent::NodeRepaired {
                            node: n.0,
                            down_secs,
                        },
                    );
                }
                self.obs.registry.incr("rm/repairs", 1);
                self.bring_up(n, t);
            }
            Ev::DomainFail(idx) => {
                let event = self.faults.domain_event(idx);
                self.obs.registry.incr("faults/domain_events", 1);
                // Only operational nodes go down; Off/Booting nodes
                // ride through (their state machines are elsewhere).
                for n in self.system.cabinet_nodes(event.domain) {
                    if self.nodes.is_operational(n) {
                        self.obs.bus.record(
                            t,
                            TraceEvent::NodeFailed {
                                node: n.0,
                                correlated: true,
                            },
                        );
                        self.take_node_down(n, t, event.repair_time);
                    }
                }
                self.try_schedule();
            }
            Ev::GridDrStart(idx) => {
                self.on_grid_dr_start(t, idx);
                self.try_schedule();
            }
            Ev::GridDrEnd(idx) => {
                self.on_grid_dr_end(t, idx);
                self.try_schedule();
            }
            Ev::PhaseChange(id, token, phase) => {
                if let Some(r) = self.jobs.started(id, token) {
                    if let Some(&watts) = r.phase_watts.get(phase) {
                        self.power.set_group_watts(r.meter_group, t, watts);
                        self.obs.registry.incr("jobs/phase_changes", 1);
                    }
                }
            }
            Ev::ShutdownDone(n) => {
                if self.nodes.shutdown_done(n) {
                    self.power.meter_node(n, NodePowerState::Off, t);
                }
            }
        }
    }

    /// A DR curtailment window opens: mark it active in the twin, drop
    /// the budget to the contractual target, and — for enforced events —
    /// shed load immediately if the system is already drawing above the
    /// target.
    fn on_grid_dr_start(&mut self, t: SimTime, idx: u32) {
        let Some(gs) = self.grid.as_mut() else {
            return;
        };
        let g = gs.config();
        let Some((target, enforce)) =
            (g.event(idx)).map(|ev| (ev.target_watts(g.nominal_it_watts), ev.enforce))
        else {
            return;
        };
        gs.on_event_start(idx);
        self.obs.registry.incr("grid/dr_events", 1);
        self.power.resize(target, t, &mut self.obs);
        let observed = self.power.system_watts();
        if enforce && observed > target {
            let (order, cooldown) = (VictimOrder::Youngest, SimDuration::ZERO);
            self.emergency_shed(t, observed, target, target * 0.95, order, cooldown);
        }
    }

    /// A DR window closes: clear the active flag and restore the budget
    /// toward its nominal level (the next grid tick re-derates it for
    /// cooling/follow conditions).
    fn on_grid_dr_end(&mut self, t: SimTime, idx: u32) {
        let temp = self.power.ambient_c(t);
        let Some(gs) = self.grid.as_mut() else {
            return;
        };
        gs.on_event_end(idx);
        let target = gs.budget_target(temp);
        self.power.resize(target, t, &mut self.obs);
    }

    /// The per-tick grid co-simulation step: settle cost/carbon/DR for
    /// the `dt` seconds since the last tick at the metered IT draw, then
    /// steer the IT budget to the twin's current target (cooling
    /// head-room × follow-the-renewables derating × DR cap) when it moved.
    fn grid_tick(&mut self, t: SimTime, it_watts: f64, dt: f64) {
        let Some(gs) = self.grid.as_mut() else {
            return;
        };
        let (temp, fallback_pue) = (self.power.ambient_c(t), self.power.pue(t));
        let target = gs.on_tick(t, dt, it_watts, temp, fallback_pue);
        if let Some(cur) = self.power.budget_watts() {
            if (target - cur).abs() > 1e-6 {
                self.power.resize(target, t, &mut self.obs);
                // A raised budget can admit queued work right now; a cut
                // only constrains future starts, so no reschedule needed.
                if target > cur {
                    self.try_schedule();
                }
            }
        }
    }

    /// Runs the simulation up to (at most) `until` — every event at or
    /// before `until` is applied — and returns a [`Snapshot`] of the full
    /// engine state at that point. If the run finishes before `until`,
    /// the snapshot captures the finished state (resuming it finalizes
    /// immediately with the identical outcome). Call repeatedly to
    /// checkpoint a run at several points, and [`ClusterSim::run`] /
    /// [`ClusterSim::run_traced`] to finish it.
    pub fn run_until(&mut self, until: SimTime) -> Snapshot {
        let _ = self.advance_until(until);
        self.snapshot()
    }

    /// Applies every event at or before `until` without snapshotting —
    /// the [`crate::env::PolicyEnv`] stepping primitive (exactly
    /// [`ClusterSim::run_until`]'s loop). Returns `true` when the run is
    /// over (event queue exhausted or the horizon reached); finishing the
    /// engine with [`ClusterSim::run`] afterwards finalizes the outcome.
    pub fn advance_until(&mut self, until: SimTime) -> bool {
        loop {
            if self.events.peek_time().is_some_and(|t| t > until) {
                return false;
            }
            if self.step() {
                return true;
            }
        }
    }

    /// The current simulation time (the time of the last applied event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Fingerprint of everything the snapshot does *not* store but the
    /// resumed engine depends on: the outcome-affecting configuration,
    /// the workload, the policy name, and the machine shape. Stored in
    /// the snapshot and re-checked at resume so a mismatched resume fails
    /// with a typed error instead of silently diverging.
    fn fingerprint(&self) -> u64 {
        let c = &self.config;
        let mut fp = Fingerprint::new();
        fp.u64(c.seed);
        fp.f64(c.horizon.as_secs());
        fp.u64(u64::from(c.power_budget_watts.is_some()));
        if let Some(w) = c.power_budget_watts {
            fp.f64(w);
        }
        fp.u64(c.budget_schedule.len() as u64);
        for &(t, w) in &c.budget_schedule {
            fp.f64(t.as_secs());
            fp.f64(w);
        }
        fp.u64(u64::from(c.requeue_killed));
        for d in [c.checkpoint_interval, c.node_mtbf] {
            fp.u64(u64::from(d.is_some()));
            if let Some(d) = d {
                fp.f64(d.as_secs());
            }
        }
        fp.f64(c.repair_time.as_secs());
        fp.u64(match c.alloc_strategy {
            AllocStrategy::FirstFit => 0,
            AllocStrategy::Contiguous => 1,
            AllocStrategy::TopologyAware => 2,
        });
        fp.u64(u64::from(c.faults.is_some()));
        c.faults.iter().for_each(|f| f.fingerprint(&mut fp));
        fp.u64(u64::from(c.shutdown.is_some()));
        c.shutdown.iter().for_each(|sd| sd.fingerprint(&mut fp));
        self.power.fingerprint(&mut fp);
        fp.u64(u64::from(c.layout.is_some()));
        fp.u64(u64::from(c.record_history));
        fp.u64(u64::from(c.retain_completed));
        fp.u64(u64::from(self.grid.is_some()));
        (self.grid.iter()).for_each(|g| g.config().fingerprint(&mut fp));
        fp.str(self.policy.name());
        self.events.source().fingerprint(&mut fp);
        fp.u64(u64::from(self.system.spec().total_nodes()));
        fp.u64(u64::from(self.system.spec().cabinets));
        fp.finish()
    }

    /// Freezes the full engine state into a [`Snapshot`].
    ///
    /// Legal between events — between [`ClusterSim::run_until`] calls,
    /// or before the run starts. Everything mutable is captured, one
    /// section per owner: the event loop, the power plane, the job and
    /// node tables, the control knobs, the fault plane, the arrivals,
    /// observability and the grid twin. Configuration is *not* stored
    /// (the caller re-supplies it at [`ClusterSim::resume`]); a
    /// fingerprint guards against mismatches.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut w = SnapWriter::new();
        w.section("meta");
        w.u64(self.fingerprint());
        w.u32(self.system.spec().total_nodes());
        w.f64(self.events.now().as_secs());
        w.u64(self.events.processed());
        w.section("sim");
        self.events.snapshot_queue(&mut w);
        w.section("power");
        self.power.snapshot_into(&mut w);
        w.section("jobs");
        self.jobs.snapshot_into(&mut w);
        w.section("nodes");
        self.nodes.snapshot_into(&mut w);
        w.section("control");
        self.control.snapshot_into(&mut w);
        w.section("faults");
        self.faults.snapshot_into(&mut w);
        w.section("arrivals");
        self.events.snapshot_arrivals(&mut w);
        w.section("obs");
        self.obs.snapshot_into(&mut w);
        w.section("grid");
        w.opt(self.grid.as_ref(), |w, g| g.snapshot_into(w));
        Snapshot::from_bytes(w.finish(SNAPSHOT_SCHEMA_VERSION))
    }

    /// Rebuilds an engine from a [`Snapshot`], validating schema version,
    /// checksum, topology (node count), and the config
    /// fingerprint before touching any state. On success the engine is
    /// indistinguishable from the one that took the snapshot: finishing
    /// the run produces a byte-identical [`SimOutcome`] and decision
    /// trace.
    ///
    /// The caller re-supplies `system`, `jobs`, `policy`, and `config`
    /// exactly as given to the original [`ClusterSim::new`] — they
    /// are configuration, not state, and a disagreement is rejected as
    /// [`SnapshotError::ConfigMismatch`] / [`SnapshotError::TopologyMismatch`].
    /// A non-default predictor ([`ClusterSim::set_predictor`]) must be
    /// re-set after resume; built-in policies keep no cross-call state.
    pub fn resume(
        system: System,
        jobs: Vec<Job>,
        policy: &'p mut dyn Policy,
        config: EngineConfig,
        snapshot: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        Self::resume_with_source(
            system,
            Box::new(MaterializedSource::new(jobs)),
            policy,
            config,
            snapshot,
        )
    }

    /// [`ClusterSim::resume`] for an engine built over a pull-based
    /// source ([`ClusterSim::try_new_with_source`]): the caller supplies
    /// a *fresh* source over the same workload (same trace, same
    /// generator parameters — checked via the fingerprint) and the
    /// cursor is restored to the snapshot's read position.
    pub fn resume_with_source(
        system: System,
        source: Box<dyn JobSource>,
        policy: &'p mut dyn Policy,
        config: EngineConfig,
        snapshot: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        let mut engine =
            Self::try_new_with_source(system, source, policy, config).map_err(|e| {
                SnapshotError::ConfigMismatch {
                    detail: format!("engine construction failed: {e}"),
                }
            })?;
        engine.restore_state(snapshot.as_bytes())?;
        Ok(engine)
    }

    /// Overwrites this freshly-constructed engine's state from snapshot
    /// bytes. Pure-config-derived state (fault plan, predictor, power
    /// model, grid config) keeps the constructor's values; everything
    /// mutable is replaced; derived structures (node tallies, running
    /// summaries) are rebuilt from the restored primaries.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let n = self.system.spec().total_nodes() as usize;
        let mut r = SnapReader::open(bytes, SNAPSHOT_SCHEMA_VERSION)?;
        r.section("meta")?;
        let fp = r.u64()?;
        if fp != self.fingerprint() {
            return Err(SnapshotError::ConfigMismatch {
                detail: format!(
                    "snapshot fingerprint {fp:#018x} does not match the supplied \
                     config/workload/policy/system (expected {:#018x})",
                    self.fingerprint()
                ),
            });
        }
        let total = r.u32()?;
        if total as usize != n {
            return Err(SnapshotError::TopologyMismatch {
                detail: format!("snapshot has {total} nodes, system has {n}"),
            });
        }
        let now = r.time()?;
        let processed = r.u64()?;
        r.section("sim")?;
        // A restored event must not carry an index its handler would use
        // out of range: a node past the machine, a domain event past the
        // fault plan, or a DR event past the grid contract; nor may a node
        // failure be queued without an MTBF.
        let (faults, grid) = (&self.faults, &self.grid);
        self.events
            .restore_queue(&mut r, now, processed, |ev| match *ev {
                Ev::BootDone(node) | Ev::RepairDone(node) | Ev::ShutdownDone(node) => {
                    node.index() < n
                }
                Ev::GridDrStart(idx) | Ev::GridDrEnd(idx) => grid
                    .as_ref()
                    .is_some_and(|g| g.config().event(idx).is_some()),
                _ => faults.queues(ev),
            })?;
        r.section("power")?;
        self.power.restore_from(&mut r, now, total)?;
        r.section("jobs")?;
        let retain = self.config.retain_completed;
        self.jobs = JobTable::restore_from(&mut r, total, now, retain, &self.power)?;
        r.section("nodes")?;
        let (strategy, topology) = (self.config.alloc_strategy, self.system.topology().clone());
        let claims = self.jobs.running().map(|rj| &rj.nodes);
        self.nodes = NodeTable::restore_from(&mut r, total, strategy, topology, now, claims)?;
        self.nodes.check_queued(self.events.queued())?;
        r.section("control")?;
        let has_gate = self.power.gate_limit(now).is_some();
        self.control = ControlPlane::restore_from(&mut r, has_gate)?;
        r.section("faults")?;
        self.faults.restore_from(&mut r, now)?;
        r.section("arrivals")?;
        self.events.restore_arrivals(&mut r)?;
        r.section("obs")?;
        let obs = Obs::restore_from(&mut r, self.config.trace.profile)?;
        // The engine observes into the histograms it registered at build;
        // a frame that renamed, dropped, or reshaped one would panic at
        // the next observation instead of failing here.
        let shape = |(k, h): (&str, &epa_obs::Histogram)| (k.to_owned(), h.bounds.clone());
        let built: Vec<_> = self.obs.registry.histograms().map(shape).collect();
        let restored: Vec<_> = obs.registry.histograms().map(shape).collect();
        if restored != built {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "snapshot histograms {restored:?} differ from the engine's {built:?}"
                ),
            });
        }
        self.obs = obs;
        r.section("grid")?;
        restore_part(&mut r, "the grid model", &mut self.grid, |r, g| {
            g.restore_from(r)
        })?;
        r.finish()
    }

    /// Takes one operational node down: kill its job (if any), drain it
    /// from the allocator, power it off, and schedule the repair. Shared
    /// by independent failures, correlated domain events, and actuator
    /// fencing — the operation order is load-bearing for determinism.
    fn take_node_down(&mut self, victim: NodeId, t: SimTime, repair: SimDuration) {
        self.obs.registry.incr("rm/failures", 1);
        // Kill the job occupying the node, if any.
        if let Some(r) = self.jobs.take_holder(victim) {
            self.complete(r, t, Some(KillReason::Failure));
        }
        // Take the node down (it is free/idle now).
        self.nodes.take_down(victim, t);
        self.power.meter_node(victim, NodePowerState::Off, t);
        self.events.schedule_in(repair, Ev::RepairDone(victim));
    }

    /// A booted or repaired node comes up idle and may take queued work.
    fn bring_up(&mut self, node: NodeId, t: SimTime) {
        self.nodes.bring_up(node, t);
        self.power.meter_node(node, NodePowerState::Idle, t);
        self.try_schedule();
    }

    /// Applies a batch of external (learned-controller) actions at the
    /// current barrier, in order, and returns how many were accepted.
    /// Each action is validated, executed over the operations the
    /// engineered mechanisms call, counted under
    /// `control/actions_applied` or `control/actions_rejected`, and
    /// recorded on the `Control` trace category.
    pub fn apply_external_actions(&mut self, actions: &[ControlAction]) -> u32 {
        let t = self.events.now();
        let has_budget = self.power.budget_watts().is_some();
        let has_gate = self.power.gate_limit(t).is_some();
        let mut applied = 0;
        for action in actions {
            let accepted = action.is_valid(has_budget, has_gate);
            if accepted {
                self.execute(t, action);
            }
            applied += u32::from(accepted);
            let counter = if accepted {
                "control/actions_applied"
            } else {
                "control/actions_rejected"
            };
            self.obs.registry.incr(counter, 1);
            let (kind, value) = (action.kind(), action.trace_value());
            let record = TraceEvent::ControlAction {
                kind,
                value,
                accepted,
            };
            self.obs.bus.record(t, record);
        }
        applied
    }

    /// Executes a validated external action over the engine's operations.
    fn execute(&mut self, t: SimTime, action: &ControlAction) {
        match action {
            ControlAction::SetJobLimit { limit } => self.control.job_limit = *limit,
            ControlAction::SetDefaultFrequency { freq_ghz } => {
                // Quantize at set time so every start sees a legal
                // operating point without re-quantizing.
                self.control.default_freq_ghz =
                    freq_ghz.map(|f| self.power.dvfs().cpu().quantize_frequency(f));
            }
            ControlAction::ResizeBudget { watts } => self.power.resize(*watts, t, &mut self.obs),
            ControlAction::SetIdleShutdown { policy } => self.control.shutdown = policy.clone(),
            ControlAction::PowerOffIdle {
                idle_threshold,
                min_idle_reserve,
                shutdown_time,
            } => self.power_off_idle(t, *idle_threshold, *min_idle_reserve, *shutdown_time),
            ControlAction::EmergencyShed {
                observed_watts,
                limit_watts,
                target_watts,
                victim_order,
                cooldown,
            } => {
                let (observed, limit, target) = (*observed_watts, *limit_watts, *target_watts);
                self.emergency_shed(t, observed, limit, target, *victim_order, *cooldown);
            }
        }
    }

    /// A fixed-interval observation for an external controller: queue
    /// pressure, fleet state, power posture, and fault state, read from
    /// the engine's existing bookkeeping without mutating anything.
    #[must_use]
    pub fn control_observation(&self) -> Observation {
        let now = self.events.now();
        let (system_watts, stale) = self.observed_watts(now);
        let (headroom_watts, budget_watts) = self.power.headroom_and_total();
        let (wait_p50_secs, wait_p90_secs) = self
            .obs
            .registry
            .histogram("sched/wait_secs")
            .map_or((0.0, 0.0), |h| (h.quantile(0.5), h.quantile(0.9)));
        Observation {
            t: now,
            queue_depth: self.jobs.queued().len() as u64,
            queued_node_demand: self.jobs.queued().iter().map(|j| u64::from(j.nodes)).sum(),
            wait_p50_secs,
            wait_p90_secs,
            free_nodes: self.nodes.free_count(),
            off_nodes: self.nodes.off_count(),
            down_nodes: self.nodes.down_count(),
            booting_nodes: self.nodes.booting_count(),
            total_nodes: self.system.spec().total_nodes(),
            running_jobs: self.jobs.running_count() as u64,
            system_watts,
            budget_watts,
            headroom_watts,
            temperature_c: self.power.ambient_c(now),
            telemetry_stale: stale.is_some(),
            emergency_armed: self.power.emergency_armed(now),
            start_hold: self.power.holds_starts(now),
            price_per_mwh: self.grid.as_ref().map_or(0.0, GridState::price),
            carbon_g_per_kwh: self.grid.as_ref().map_or(0.0, GridState::carbon),
            dr_active: self.grid.as_ref().is_some_and(GridState::dr_active),
            pue: (self.grid.as_ref()).map_or_else(|| self.power.pue(now), GridState::pue),
        }
    }

    /// The observed system draw at `now` between ticks, and the safety
    /// margin while telemetry is stale.
    fn observed_watts(&self, now: SimTime) -> (f64, Option<f64>) {
        let nameplate = || nameplate_watts(&self.system, &self.nodes, &self.jobs);
        self.faults
            .observed(now, self.power.system_watts(), nameplate)
    }

    /// Reads the cumulative reward inputs at the current barrier. The
    /// environment differences two probes to get per-interval energy,
    /// slowdown mass, and violation time.
    #[must_use]
    pub fn reward_probe(&self) -> RewardProbe {
        let now = self.events.now();
        let agg = self.jobs.aggregates();
        RewardProbe {
            t: now,
            energy_joules: self.power.energy_joules(now),
            completed: agg.count,
            slowdown_sum: agg.slowdown_sum,
            violation_secs: self.power.violation_secs(),
            emergency_kills: agg.emergency_kills,
        }
    }

    /// Sheds running jobs until the projected draw falls to
    /// `target_watts`, then holds new starts for `cooldown`. Its
    /// operation order is load-bearing for byte determinism.
    fn emergency_shed(
        &mut self,
        t: SimTime,
        observed: f64,
        limit_watts: f64,
        target_watts: f64,
        victim_order: VictimOrder,
        cooldown: SimDuration,
    ) {
        self.obs.registry.incr("emergency/breaches", 1);
        self.obs.bus.record(
            t,
            TraceEvent::EmergencyBreach {
                observed_watts: observed,
                limit_watts,
            },
        );
        let victims = victim_order.victims(self.jobs.running(), observed - target_watts);
        for (id, token, shed) in victims {
            let r = self.jobs.take(id, token).expect("victim is running");
            self.obs.registry.incr("emergency/kills", 1);
            self.obs.bus.record(
                t,
                TraceEvent::EmergencyKill {
                    job: id.0,
                    shed_watts: shed,
                },
            );
            self.complete(r, t, Some(KillReason::Emergency));
        }
        self.power.hold(t, cooldown);
        self.try_schedule();
    }

    /// Powers off the nodes idle for at least `threshold` at `t`, keeping
    /// `reserve` idle nodes on; each stops drawing after `shutdown_time`.
    fn power_off_idle(
        &mut self,
        t: SimTime,
        threshold: SimDuration,
        reserve: u32,
        shutdown_time: SimDuration,
    ) {
        for n in self.nodes.drain_idle(t, threshold, reserve) {
            self.obs.registry.incr("rm/shutdowns", 1);
            self.events
                .schedule_at(t + shutdown_time, Ev::ShutdownDone(n));
        }
    }

    fn try_schedule(&mut self) {
        let t_sched = self.obs.profiler.start();
        self.try_schedule_inner();
        self.obs.profiler.stop(Scope::Schedule, t_sched);
    }

    fn try_schedule_inner(&mut self) {
        // Emergency cooldown: after a response, hold new starts.
        if self.power.holds_starts(self.events.now()) {
            return;
        }
        // The concurrency gate (or else an external limit) caps how many
        // jobs may run at once; ambient temperature cannot change within
        // one round.
        let now = self.events.now();
        let limit = self.power.gate_limit(now).or(self.control.job_limit);
        let admits = |jobs: &JobTable| limit.is_none_or(|l| jobs.running_count() < l);
        if !admits(&self.jobs) {
            return;
        }
        let (headroom, budget_total) = self.power.headroom_and_total();
        // Graceful degradation: past the staleness bound the scheduler
        // sees the conservative estimate, and per-job prediction falls
        // back to nameplate peak plus the safety margin.
        let (observed_watts, stale_margin) = self.observed_watts(now);
        let decisions = {
            let predict = self.power.predictor(now, stale_margin);
            let view = SchedView {
                now,
                free_nodes: self.nodes.free_count(),
                off_nodes: self.nodes.off_count(),
                total_nodes: self.system.spec().total_nodes(),
                running: self.jobs.summaries(),
                power_headroom_watts: headroom,
                power_budget_watts: budget_total,
                system_watts: observed_watts,
                temperature_c: self.power.ambient_c(now),
                dvfs: self.power.dvfs(),
                predicted_watts_per_node: &predict,
            };
            self.policy.schedule(&view, self.jobs.queued())
        };
        let mut started_any = false;
        for d in decisions {
            // The concurrency gate bounds *each* start, not just round
            // entry — one scheduling round may otherwise blow through the
            // limit with a batch of starts.
            if !admits(&self.jobs) {
                break;
            }
            match d {
                Decision::Start {
                    job,
                    nodes_override,
                    freq_ghz,
                    node_cap_watts,
                } => {
                    let started = match self.plan(job, nodes_override, freq_ghz, node_cap_watts) {
                        Ok(plan) => self.commit(plan),
                        Err(reason) => self.reject(job, reason),
                    };
                    if started {
                        started_any = true;
                        if stale_margin.is_some() {
                            self.obs.registry.incr("faults/conservative_admissions", 1);
                        }
                    }
                }
            }
        }
        // Demand-driven boot: if queued work cannot fit in free+busy nodes
        // but off nodes would help, boot them.
        self.boot_for_demand();
        if started_any {
            self.obs.registry.incr("sched/rounds_with_starts", 1);
        }
    }

    fn boot_for_demand(&mut self) {
        let Some(boot_time) = self.control.shutdown.as_ref().map(|sd| sd.boot_time) else {
            return;
        };
        let Some(head) = self.jobs.queued().first() else {
            return;
        };
        let need = head
            .nodes
            .saturating_sub(self.nodes.free_count() + self.nodes.booting_count());
        if need == 0 || self.nodes.off_count() == 0 {
            return;
        }
        let now = self.events.now();
        for n in self.nodes.bootable(need) {
            self.nodes.boot(n);
            self.power.meter_node(n, NodePowerState::Booting, now);
            self.obs.registry.incr("rm/boots", 1);
            self.events.schedule_in(boot_time, Ev::BootDone(n));
        }
    }

    /// Counts a start rejection under its `sched/start_*` counter and
    /// records it on the trace (mask-gated). Returns `false`, the start's
    /// result.
    fn reject(&mut self, id: JobId, reason: RejectReason) -> bool {
        let counter = match reason {
            RejectReason::UnknownJob => "sched/start_unknown_job",
            RejectReason::InsufficientNodes => "sched/start_insufficient_nodes",
            RejectReason::PowerDenied => "sched/start_power_denied",
            RejectReason::AllocFailed => "sched/start_alloc_failed",
            RejectReason::ActuationFailed => "sched/start_actuation_failed",
        };
        self.obs.registry.incr(counter, 1);
        self.obs.bus.record(
            self.events.now(),
            TraceEvent::StartRejected { job: id.0, reason },
        );
        false
    }

    /// Plans a start of queued job `id`, changing nothing: the moldable
    /// resize, the free-node check, the operating point with any
    /// cap-to-fit, the runtime and the phase draws and ends. The job
    /// stays queued until [`ClusterSim::commit`], so a rejection leaves
    /// the queue as it was.
    fn plan(
        &self,
        id: JobId,
        nodes_override: Option<u32>,
        freq_ghz: Option<f64>,
        node_cap_watts: Option<f64>,
    ) -> Result<StartPlan, RejectReason> {
        // The default-frequency knob applies to any start without an
        // explicit frequency request. Only an external controller sets it.
        let freq_ghz = freq_ghz.or(self.control.default_freq_ghz);
        let queue = self.jobs.queued();
        let job = (queue.iter().find(|j| j.id == id)).ok_or(RejectReason::UnknownJob)?;
        let now = self.events.now();
        // Moldable override.
        let mut nodes = job.nodes;
        let mut base_runtime = job.base_runtime;
        if let (Some(n), Some(m)) = (nodes_override, job.moldable.as_ref()) {
            let n = n.clamp(m.min_nodes, m.max_nodes);
            base_runtime = m.runtime_on(n, job.nodes, job.base_runtime);
            nodes = n;
        }
        if nodes > self.nodes.free_count() {
            return Err(RejectReason::InsufficientNodes);
        }
        let point =
            (self.power).start_point(job, nodes, base_runtime, now, freq_ghz, node_cap_watts);
        // Layout-aware allocation avoids nodes under maintenance while the
        // job may run.
        let est_run = SimDuration::from_secs(job.walltime_estimate.as_secs() * point.op.slowdown);
        let excluded = self.config.layout.as_ref().map(|layout| {
            layout
                .affected_nodes(&self.system, now, now + est_run)
                .into_iter()
                .collect()
        });
        Ok(StartPlan {
            id,
            // A start for a job that is not at the head of the queue is a
            // backfill decision (recorded on the trace, not used otherwise).
            backfilled: queue.first().is_some_and(|h| h.id != id),
            nodes,
            excluded,
            actuate: node_cap_watts.is_some() || freq_ghz.is_some() || point.capped_to_fit,
            walltime: job.walltime_estimate,
            wait_secs: (now - job.submit).as_secs(),
            base_runtime,
            point,
        })
    }

    /// Commits a planned start: takes the grant, then the nodes, then
    /// the actuator write, and launches the job. A stage that fails hands
    /// what the earlier ones took to [`ClusterSim::unwind`].
    fn commit(&mut self, plan: StartPlan) -> bool {
        if plan.point.capped_to_fit {
            self.obs.registry.incr("sched/start_capped_to_fit", 1);
        }
        let (id, now, bus) = (plan.id, self.events.now(), &mut self.obs.bus);
        let Ok(grant) = self.power.request_grant(id, plan.point.need, now, bus) else {
            return self.unwind(id, None, None, Vec::new(), RejectReason::PowerDenied);
        };
        let t_alloc = self.obs.profiler.start();
        let alloc = self.nodes.allocate(plan.nodes, plan.excluded.as_ref());
        self.obs.profiler.stop(Scope::Allocator, t_alloc);
        let Ok(nodes) = alloc else {
            return self.unwind(id, grant, None, Vec::new(), RejectReason::AllocFailed);
        };
        match self.actuate(&plan, &nodes) {
            Ok(delay) => {
                self.launch(plan, grant, nodes, delay);
                true
            }
            Err(fence) => self.unwind(id, grant, Some(nodes), fence, RejectReason::ActuationFailed),
        }
    }

    /// Programs the operating point through the (possibly unreliable)
    /// actuator when the start needs a cap or frequency write. Returns the
    /// accumulated retry backoff, which delays the job, or on failure the
    /// nodes past the consecutive-failure threshold, to be fenced.
    fn actuate(&mut self, plan: &StartPlan, nodes: &NodeSet) -> Result<SimDuration, Vec<NodeId>> {
        let act = match self.faults.actuator() {
            Some(act) if plan.actuate => act,
            _ => return Ok(SimDuration::ZERO),
        };
        let now = self.events.now();
        let watts = Some(plan.point.op.watts);
        let report = act.program_caps_traced(now, &nodes.to_vec(), watts, &mut self.obs.bus);
        let registry = &mut self.obs.registry;
        registry.incr("faults/actuator_attempts", report.attempts);
        if report.succeeded {
            registry.observe("rm/actuation_delay_secs", report.total_delay.as_secs());
            Ok(report.total_delay)
        } else {
            registry.incr("faults/actuator_cap_failures", 1);
            Err(report.fence)
        }
    }

    /// Releases what a failed commit took, in reverse order — the nodes,
    /// then the grant — fences the nodes the actuator gave up on, and
    /// records the rejection.
    fn unwind(
        &mut self,
        id: JobId,
        grant: Option<GrantId>,
        nodes: Option<NodeSet>,
        fence: Vec<NodeId>,
        reason: RejectReason,
    ) -> bool {
        let now = self.events.now();
        if let Some(nodes) = &nodes {
            self.nodes.release_unoccupied(nodes);
        }
        (self.power).release_grant(grant, now, &mut self.obs.bus);
        for n in fence {
            self.obs.registry.incr("faults/fenced_nodes", 1);
            self.take_node_down(n, now, self.faults.repair_time());
        }
        self.reject(id, reason)
    }

    /// Launches a committed start on `nodes`, holding `grant`, after the
    /// actuator's `delay`: the nodes turn Busy, the job's meter group
    /// opens, the job leaves the queue, and its finish and phase changes
    /// are queued. A job whose runtime passes its walltime estimate is
    /// killed at the estimate.
    fn launch(
        &mut self,
        plan: StartPlan,
        grant: Option<GrantId>,
        nodes: NodeSet,
        delay: SimDuration,
    ) {
        let (now, id, point) = (self.events.now(), plan.id, plan.point);
        let true_run = point.run + delay;
        let killed = true_run > plan.walltime;
        let end = now + if killed { plan.walltime } else { true_run };
        let watts_per_node = point.watts_per_node;
        let first_watts = point.phase_watts.first().copied().unwrap_or(watts_per_node);
        self.nodes.occupy(&nodes);
        let meter_group = self.power.open_group(&nodes, now, first_watts);
        self.obs.registry.incr("jobs/started", 1);
        self.obs.registry.observe("sched/wait_secs", plan.wait_secs);
        self.obs.bus.record(
            now,
            TraceEvent::JobStarted {
                job: id.0,
                nodes: nodes.len(),
                watts_per_node,
                wait_secs: plan.wait_secs,
                backfilled: plan.backfilled,
                capped_to_fit: point.capped_to_fit,
            },
        );
        let phases = point.phase_watts.len();
        let token = self
            .jobs
            .start(id, self.power.grant_watts(grant), |job, token| RunningJob {
                job,
                token,
                nodes,
                start: now,
                estimated_end: now + plan.walltime,
                watts_per_node,
                killed_at_walltime: killed,
                grant,
                base_effective: plan.base_runtime,
                true_run_secs: true_run.as_secs(),
                phase_watts: point.phase_watts,
                meter_group,
            });
        self.events.schedule_at(end, Ev::Finish(id, token));
        // Stage the phase transitions that occur before the job ends.
        for (k, &t_k) in point.phase_ends.iter().enumerate() {
            if k + 1 < phases && t_k < end {
                self.events
                    .schedule_at(t_k, Ev::PhaseChange(id, token, k + 1));
            }
        }
    }

    /// A running job departs at `t`: killed for `kill`, or at its natural
    /// end (or walltime limit) when `None`.
    fn complete(&mut self, r: RunningJob, t: SimTime, kill: Option<KillReason>) {
        let run_secs = (t - r.start).as_secs();
        self.nodes.vacate(&r.nodes, t);
        let id = r.job.id;
        let reason = kill.or(r.killed_at_walltime.then_some(KillReason::Walltime));
        let departure = |energy_joules| match reason {
            Some(reason) => TraceEvent::JobKilled {
                job: id.0,
                reason,
                run_secs,
            },
            None => TraceEvent::JobFinished {
                job: id.0,
                run_secs,
                energy_joules,
            },
        };
        let energy = (self.power).close_job(&r, t, run_secs, &mut self.obs.bus, departure);
        self.obs.registry.incr("jobs/completed", 1);
        if r.killed_at_walltime {
            self.obs.registry.incr("jobs/walltime_kills", 1);
        }
        self.jobs.record(&r, run_secs, energy, reason);
        if kill.is_some() && self.config.requeue_killed {
            let checkpoint = self.config.checkpoint_interval;
            let remaining_secs = self.jobs.requeue(r, run_secs, t, checkpoint);
            self.obs.registry.incr("jobs/requeued", 1);
            let requeued = TraceEvent::JobRequeued {
                job: id.0,
                remaining_secs,
            };
            self.obs.bus.record(t, requeued);
        }
    }

    fn on_power_tick(&mut self, t: SimTime) {
        let t_meter = self.obs.profiler.start();
        let watts = self.power.system_watts();
        self.obs.registry.incr("rm/power_ticks", 1);
        // What the control plane *sees* — subject to sensor dropout,
        // stuck-at windows, and the staleness fallback. Identical to
        // `watts` when sensor faults are off.
        let nameplate = || nameplate_watts(&self.system, &self.nodes, &self.jobs);
        let observed = self.faults.sample(t, watts, nameplate, &mut self.obs);
        // Budget violation accounting, then the grid co-simulation
        // settles the same interval and steers the budget target.
        let dt = self.power.account_tick(t, watts);
        self.grid_tick(t, watts, dt);
        // Emergency response (RIKEN) drives on *observed* power — a stale
        // sensor makes the response conservative (the fallback estimate
        // errs high), never blind.
        if let Some(em) = self.power.emergency_due(t, observed) {
            let (limit, target) = (em.limit_watts, em.target_watts());
            let (order, cooldown) = (em.victim_order, em.start_cooldown);
            self.emergency_shed(t, observed, limit, target, order, cooldown);
        }
        // Idle shutdown (Mämmelä / Tokyo Tech) under the policy in force;
        // seasonal gating follows the facility's calendar (its weather
        // model's start day).
        let start_day = self.power.start_day_of_year();
        let shutdown = self.control.shutdown.as_ref();
        if let Some(sd) = shutdown.filter(|sd| sd.season_active_on(t, start_day)) {
            let (threshold, reserve, shutdown_time) =
                (sd.idle_threshold, sd.min_idle_reserve, sd.shutdown_time);
            self.power_off_idle(t, threshold, reserve, shutdown_time);
        }
        self.obs.profiler.stop(Scope::Meter, t_meter);
        // The tick after an emergency cooldown expires resumes
        // scheduling (a full heartbeat on *every* tick would be
        // quadratic with conservative backfilling's planning).
        let waiting = !self.jobs.queued().is_empty();
        if self.power.resume_after_hold(t, waiting) {
            self.try_schedule();
        }
        let next = t + power_tick();
        if next <= self.config.horizon {
            self.events.schedule_at(next, Ev::PowerTick);
        }
    }

    fn finalize(mut self) -> (SimOutcome, ObsBundle) {
        let end = self.events.now().max(self.config.horizon);
        let span = end.as_secs().max(1e-9);
        let total_nodes = f64::from(self.system.spec().total_nodes());
        self.obs
            .registry
            .incr("sim/events_processed", self.events.processed());
        let (energy, peak, avg, power_trace) = self.power.report(end);
        let agg = *self.jobs.aggregates();
        let n_completed = agg.count;
        // Failure observability: downtime over completed repairs plus
        // nodes still down at the horizon, accrued to the end.
        let (node_downtime_secs, mttr_secs) = self.nodes.downtime_to(end);
        let nodes_down_at_end = u64::from(self.nodes.down_count());
        let counters = self
            .obs
            .registry
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        let requeues = self.obs.registry.counter("jobs/requeued");
        let telemetry_fallbacks = self.obs.registry.counter("faults/telemetry_fallbacks");
        let fenced_nodes = self.obs.registry.counter("faults/fenced_nodes");
        let bundle = self.obs.into_bundle();
        let per_node_failures = self.nodes.into_failure_counts();
        let outcome = SimOutcome {
            policy: self.policy.name().to_owned(),
            completed: n_completed,
            walltime_kills: agg.walltime_kills,
            emergency_kills: agg.emergency_kills,
            unfinished: self.jobs.unfinished(),
            // Busy time of still-running jobs counts up to the horizon.
            utilization: self.jobs.busy_node_seconds(end) / (total_nodes * span),
            mean_wait_secs: agg.mean_wait(),
            max_wait_secs: agg.wait_max,
            mean_bounded_slowdown: agg.mean_slowdown(),
            energy_joules: energy,
            peak_watts: peak,
            avg_watts: avg,
            budget_violation_secs: self.power.violation_secs(),
            throughput_per_day: n_completed as f64 / (span / 86_400.0).max(1e-9),
            energy_per_job_joules: if n_completed > 0 {
                energy / n_completed as f64
            } else {
                0.0
            },
            node_failures: per_node_failures.iter().sum(),
            per_node_failures,
            node_downtime_secs,
            mttr_secs,
            requeues,
            telemetry_fallbacks,
            fenced_nodes,
            nodes_down_at_end,
            jobs: self.jobs.into_completed(),
            counters,
            power_trace,
        };
        (outcome, bundle)
    }
}

/// A start planned against the current state ([`ClusterSim::plan`]).
struct StartPlan {
    id: JobId,
    /// The job is not at the head of the queue.
    backfilled: bool,
    /// Nodes to allocate, after any moldable resize.
    nodes: u32,
    /// Free nodes the allocation must avoid (maintenance windows).
    excluded: Option<NodeSet>,
    /// The operating point, the runtime and the phases.
    point: StartPoint,
    /// The start writes a cap or frequency through the actuator.
    actuate: bool,
    walltime: SimDuration,
    wait_secs: f64,
    /// Base runtime after any moldable resize.
    base_runtime: SimDuration,
}

/// Conservative static draw used while telemetry is stale: busy nodes at
/// nameplate peak, every other powered node at idle (the fault plane
/// adds its safety margin).
fn nameplate_watts(system: &System, nodes: &NodeTable, jobs: &JobTable) -> f64 {
    let node = &system.spec().node;
    let busy = nodes.busy_count();
    debug_assert_eq!(
        busy,
        jobs.summaries().iter().map(|s| s.nodes).sum::<u32>(),
        "busy tally must match the running-summary scan"
    );
    let on_others = (system.spec().total_nodes()).saturating_sub(nodes.off_count() + busy);
    f64::from(busy) * node.peak_watts + f64::from(on_others) * node.idle_watts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fcfs::Fcfs;
    use epa_cluster::node::NodeSpec;
    use epa_cluster::system::SystemSpec;
    use epa_cluster::topology::Topology;
    use epa_workload::job::JobBuilder;

    pub(crate) fn small_system(nodes: u32) -> System {
        SystemSpec {
            name: "test".into(),
            cabinets: 1,
            nodes_per_cabinet: nodes,
            node: NodeSpec::typical_xeon(),
            topology: Topology::FatTree { arity: 8 },
            peak_tflops: 1.0,
        }
        .build()
    }

    fn run_jobs(jobs: Vec<Job>, nodes: u32, horizon_h: f64) -> SimOutcome {
        let mut policy = Fcfs;
        let config = EngineConfig::new(SimTime::from_hours(horizon_h));
        ClusterSim::new(small_system(nodes), jobs, &mut policy, config).run()
    }

    #[test]
    fn streaming_mode_matches_default_outcome_bitwise() {
        // retain_completed=false is the bounded-memory streaming
        // configuration; every scalar the outcome reports (and the
        // gridded power trace) must stay bit-identical to the default
        // mode.
        let jobs: Vec<Job> = (0..40)
            .map(|i| {
                JobBuilder::new(i + 1)
                    .nodes(1 + (i % 5) as u32)
                    .runtime(SimDuration::from_mins(20.0 + 13.0 * (i % 7) as f64))
                    .estimate(SimDuration::from_hours(2.0))
                    .submit(SimTime::from_secs(360.0 * i as f64))
                    .build()
            })
            .collect();
        let horizon = SimTime::from_hours(24.0);
        let mut policy = Fcfs;
        let default_out = ClusterSim::new(
            small_system(8),
            jobs.clone(),
            &mut policy,
            EngineConfig::new(horizon),
        )
        .run();
        let mut streaming_cfg = EngineConfig::new(horizon);
        streaming_cfg.retain_completed = false;
        let streaming_out =
            ClusterSim::new(small_system(8), jobs.clone(), &mut policy, streaming_cfg).run();

        // The retired trace-mode flag is inert: either value gives the
        // same mid-run snapshot bytes and the same outcome.
        let flagged = |bounded_power_trace: bool| {
            let mut config = EngineConfig::new(horizon);
            config.bounded_power_trace = bounded_power_trace;
            let mut policy = Fcfs;
            let mut sim = ClusterSim::new(small_system(8), jobs.clone(), &mut policy, config);
            let snapshot = sim.run_until(SimTime::from_hours(6.0));
            (snapshot, format!("{:?}", sim.run()))
        };
        let (off, on) = (flagged(false), flagged(true));
        assert_eq!(off.0.as_bytes(), on.0.as_bytes(), "snapshot bytes");
        assert_eq!(off.1, on.1, "outcome");

        assert_eq!(default_out.completed, streaming_out.completed);
        assert_eq!(default_out.walltime_kills, streaming_out.walltime_kills);
        assert_eq!(default_out.unfinished, streaming_out.unfinished);
        for (name, a, b) in [
            (
                "mean_wait",
                default_out.mean_wait_secs,
                streaming_out.mean_wait_secs,
            ),
            (
                "max_wait",
                default_out.max_wait_secs,
                streaming_out.max_wait_secs,
            ),
            (
                "slowdown",
                default_out.mean_bounded_slowdown,
                streaming_out.mean_bounded_slowdown,
            ),
            (
                "energy",
                default_out.energy_joules,
                streaming_out.energy_joules,
            ),
            ("peak", default_out.peak_watts, streaming_out.peak_watts),
            ("avg", default_out.avg_watts, streaming_out.avg_watts),
            ("util", default_out.utilization, streaming_out.utilization),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} vs {b}");
        }
        assert_eq!(
            default_out.power_trace.len(),
            streaming_out.power_trace.len()
        );
        for ((dt_, dw), (st, sw)) in default_out
            .power_trace
            .iter()
            .zip(&streaming_out.power_trace)
        {
            assert_eq!(dt_.to_bits(), st.to_bits());
            assert_eq!(
                dw.to_bits(),
                sw.to_bits(),
                "power trace diverges at t={dt_}"
            );
        }
        assert_eq!(default_out.jobs.len(), 40);
        assert!(
            streaming_out.jobs.is_empty(),
            "streaming mode must not retain per-job records"
        );
    }

    #[test]
    fn single_job_lifecycle() {
        let job = JobBuilder::new(1)
            .nodes(4)
            .runtime(SimDuration::from_hours(1.0))
            .estimate(SimDuration::from_hours(2.0))
            .build();
        let out = run_jobs(vec![job], 8, 12.0);
        assert_eq!(out.completed, 1);
        assert_eq!(out.walltime_kills, 0);
        assert_eq!(out.unfinished, 0);
        let c = &out.jobs[0];
        assert_eq!(c.nodes, 4);
        assert!(c.wait_secs < 1e-9);
        assert!((c.run_secs - 3600.0).abs() < 1e-6);
        // Energy: 4 nodes × ~290 W × 3600 s (balanced profile has util<1,
        // so between idle and nominal).
        assert!(c.energy_joules > 4.0 * 90.0 * 3600.0);
        assert!(c.energy_joules < 4.0 * 290.0 * 3600.0 + 1.0);
    }

    #[test]
    fn arrival_precedes_an_event_at_the_same_instant() {
        // A fills the machine and finishes at exactly 1 h, when B arrives:
        // B's submission must be handled before A's finish.
        let job = |id, submit| {
            JobBuilder::new(id)
                .nodes(8)
                .runtime(SimDuration::from_hours(1.0))
                .estimate(SimDuration::from_hours(2.0))
                .submit(SimTime::from_hours(submit))
                .build()
        };
        let mut policy = Fcfs;
        let mut config = EngineConfig::new(SimTime::from_hours(4.0));
        config.trace = TraceConfig::all();
        let jobs = vec![job(1, 0.0), job(2, 1.0)];
        let (out, obs) = ClusterSim::new(small_system(8), jobs, &mut policy, config).run_traced();
        assert_eq!(out.completed, 2);
        let at = |want: fn(&TraceEvent) -> bool| {
            let r = obs.trace.iter().find(|r| want(&r.event)).unwrap();
            (r.t, r.seq)
        };
        let submitted = at(|e| matches!(e, TraceEvent::JobSubmitted { job: 2, .. }));
        let finished = at(|e| matches!(e, TraceEvent::JobFinished { job: 1, .. }));
        assert_eq!(submitted.0, SimTime::from_hours(1.0));
        assert_eq!(finished.0, SimTime::from_hours(1.0));
        assert!(submitted.1 < finished.1, "{submitted:?} vs {finished:?}");
    }

    #[test]
    fn walltime_kill_enforced() {
        let job = JobBuilder::new(1)
            .nodes(1)
            .runtime(SimDuration::from_hours(5.0))
            .estimate(SimDuration::from_hours(1.0))
            .build();
        let out = run_jobs(vec![job], 4, 12.0);
        assert_eq!(out.completed, 1);
        assert_eq!(out.walltime_kills, 1);
        assert!((out.jobs[0].run_secs - 3600.0).abs() < 1e-6);
    }

    #[test]
    fn jobs_queue_when_machine_full() {
        let j1 = JobBuilder::new(1)
            .nodes(4)
            .runtime(SimDuration::from_hours(1.0))
            .build();
        let j2 = JobBuilder::new(2)
            .nodes(4)
            .runtime(SimDuration::from_hours(1.0))
            .build();
        let out = run_jobs(vec![j1, j2], 4, 12.0);
        assert_eq!(out.completed, 2);
        let waits: Vec<f64> = out.jobs.iter().map(|c| c.wait_secs).collect();
        // One waited for the other.
        assert!(waits.iter().any(|&w| w < 1e-9));
        assert!(waits.iter().any(|&w| (w - 3600.0).abs() < 1e-6));
    }

    #[test]
    fn horizon_cuts_off_unfinished() {
        let job = JobBuilder::new(1)
            .nodes(1)
            .runtime(SimDuration::from_hours(10.0))
            .estimate(SimDuration::from_hours(20.0))
            .build();
        let out = run_jobs(vec![job], 4, 2.0);
        assert_eq!(out.completed, 0);
        assert_eq!(out.unfinished, 1);
        // Utilization counts the partial execution.
        assert!(out.utilization > 0.2);
    }

    #[test]
    fn budget_admission_blocks_and_recovers() {
        // Budget admits ~one 2-node job at a time (2×290 = 580 W busy).
        let jobs: Vec<Job> = (0..2)
            .map(|i| {
                JobBuilder::new(i)
                    .nodes(2)
                    .runtime(SimDuration::from_hours(1.0))
                    .estimate(SimDuration::from_hours(1.5))
                    .build()
            })
            .collect();
        let mut policy = Fcfs;
        let mut config = EngineConfig::new(SimTime::from_hours(12.0));
        // Idle floor: 8 nodes × 90 = 720 W always drawn, but the budget
        // ledger tracks only job grants; give room for one job (~530 W at
        // util 0.845) but not two.
        config.power_budget_watts = Some(600.0);
        let out = ClusterSim::new(small_system(8), jobs, &mut policy, config).run();
        assert_eq!(out.completed, 2);
        // The second job must have waited for the first grant.
        let waits: Vec<f64> = out.jobs.iter().map(|c| c.wait_secs).collect();
        assert!(waits.iter().any(|&w| w > 3000.0), "waits {waits:?}");
    }

    #[test]
    fn energy_conservation_against_meter() {
        let jobs: Vec<Job> = (0..5)
            .map(|i| {
                JobBuilder::new(i)
                    .nodes(2)
                    .runtime(SimDuration::from_hours(1.0))
                    .submit(SimTime::from_hours(f64::from(i as u32)))
                    .build()
            })
            .collect();
        let out = run_jobs(jobs, 8, 24.0);
        assert_eq!(out.completed, 5);
        // System energy >= sum of job energies (idle draw on top).
        let job_energy: f64 = out.jobs.iter().map(|c| c.energy_joules).sum();
        assert!(out.energy_joules > job_energy);
        // Idle-only floor: 8 nodes × 90 W × 24 h.
        let idle_floor = 8.0 * 90.0 * 24.0 * 3600.0;
        assert!(out.energy_joules >= idle_floor * 0.99);
    }

    #[test]
    fn phase_changes_modulate_power() {
        // A balanced job has three phases with utilizations .95/.8/.5 —
        // the system trace must step through distinct levels.
        let job = JobBuilder::new(1)
            .nodes(4)
            .runtime(SimDuration::from_hours(2.0))
            .estimate(SimDuration::from_hours(4.0))
            .build();
        let mut policy = Fcfs;
        let config = EngineConfig::new(SimTime::from_hours(6.0));
        let out = ClusterSim::new(small_system(8), vec![job], &mut policy, config).run();
        assert_eq!(
            out.counters.get("jobs/phase_changes").copied().unwrap_or(0),
            2
        );
        // Distinct power levels appear in the trace while the job runs:
        // phase utils .95/.8/.5 → per-node 280/250/190 W + 4 idle nodes.
        let levels: std::collections::BTreeSet<i64> = out
            .power_trace
            .iter()
            .filter(|(t, _)| *t > 0.0 && *t < 2.0 * 3600.0)
            .map(|(_, w)| w.round() as i64)
            .collect();
        assert!(
            levels.len() >= 3,
            "expected >=3 power levels, got {levels:?}"
        );
        // Energy conservation still exact: job energy equals the phase-
        // weighted analytic value.
        let e = out.jobs[0].energy_joules;
        let expect = 4.0
            * 3600.0
            * (0.5 * 2.0 * (90.0 + 0.95 * 200.0)
                + 0.3 * 2.0 * (90.0 + 0.8 * 200.0)
                + 0.2 * 2.0 * (90.0 + 0.5 * 200.0));
        assert!(
            (e - expect).abs() < expect * 1e-6,
            "energy {e} vs analytic {expect}"
        );
    }

    #[test]
    fn node_failures_kill_jobs_and_repair() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| {
                JobBuilder::new(i)
                    .nodes(4)
                    .runtime(SimDuration::from_hours(2.0))
                    .estimate(SimDuration::from_hours(3.0))
                    .submit(SimTime::from_hours(f64::from(i as u32) * 0.5))
                    .build()
            })
            .collect();
        let mut policy = Fcfs;
        let mut config = EngineConfig::new(SimTime::from_days(3.0));
        config.node_mtbf = Some(SimDuration::from_hours(3.0));
        config.repair_time = SimDuration::from_hours(1.0);
        let out = ClusterSim::new(small_system(8), jobs, &mut policy, config).run();
        let failures = out.counters.get("rm/failures").copied().unwrap_or(0);
        assert!(failures > 5, "expected failures, got {failures}");
        let repairs = out.counters.get("rm/repairs").copied().unwrap_or(0);
        assert!(repairs > 0, "nodes must come back");
        let failed_jobs = out.jobs.iter().filter(|j| j.killed_by_failure).count();
        assert!(failed_jobs > 0, "some job should die to a failure");
        // Work continues despite failures.
        let ok = out
            .jobs
            .iter()
            .filter(|j| !j.killed_by_failure && !j.killed_at_walltime)
            .count();
        assert!(ok > 5, "only {ok} clean completions");
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let mk = || {
            let jobs: Vec<Job> = (0..10)
                .map(|i| {
                    JobBuilder::new(i)
                        .nodes(2)
                        .runtime(SimDuration::from_hours(1.0))
                        .build()
                })
                .collect();
            let mut policy = Fcfs;
            let mut config = EngineConfig::new(SimTime::from_days(1.0));
            config.node_mtbf = Some(SimDuration::from_hours(4.0));
            ClusterSim::new(small_system(8), jobs, &mut policy, config).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.counters.get("rm/failures"), b.counters.get("rm/failures"));
        assert_eq!(a.completed, b.completed);
        assert!((a.energy_joules - b.energy_joules).abs() < 1e-6);
    }

    #[test]
    fn requeued_killed_jobs_eventually_finish() {
        use crate::emergency::EmergencyPolicy;
        // Heavy jobs + an emergency limit that forces kills; with requeue
        // the work survives kills and completes later.
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                JobBuilder::new(i)
                    .nodes(4)
                    .runtime(SimDuration::from_hours(2.0))
                    .estimate(SimDuration::from_hours(6.0))
                    .build()
            })
            .collect();
        let mut policy = Fcfs;
        let mut config = EngineConfig::new(SimTime::from_days(6.0));
        // 8-node machine: two jobs run (~2100 W); the limit sits between
        // one and two jobs' draw, so the second start breaches it.
        config.emergency = Some(EmergencyPolicy::new(1500.0));
        config.requeue_killed = true;
        let out = ClusterSim::new(small_system(8), jobs, &mut policy, config).run();
        let requeued = out.counters.get("jobs/requeued").copied().unwrap_or(0);
        assert!(requeued > 0, "emergency must requeue at least one job");
        // All six logical jobs eventually finish cleanly.
        let ok: std::collections::HashSet<u64> = out
            .jobs
            .iter()
            .filter(|j| !j.killed_by_emergency && !j.killed_at_walltime)
            .map(|j| j.id.0)
            .collect();
        assert_eq!(ok.len(), 6, "all jobs finish despite kills: {ok:?}");
    }

    #[test]
    fn checkpointing_bounds_lost_work() {
        use crate::emergency::EmergencyPolicy;
        let mk = |ckpt: Option<SimDuration>| {
            let jobs: Vec<Job> = (0..6)
                .map(|i| {
                    JobBuilder::new(i)
                        .nodes(4)
                        .runtime(SimDuration::from_hours(2.0))
                        .estimate(SimDuration::from_hours(6.0))
                        .build()
                })
                .collect();
            let mut policy = Fcfs;
            let mut config = EngineConfig::new(SimTime::from_days(6.0));
            config.emergency = Some(EmergencyPolicy::new(1500.0));
            config.requeue_killed = true;
            config.checkpoint_interval = ckpt;
            ClusterSim::new(small_system(8), jobs, &mut policy, config).run()
        };
        let without = mk(None);
        let with = mk(Some(SimDuration::from_mins(15.0)));
        // Total busy node-seconds shrink with checkpointing: killed work
        // is not redone from scratch.
        let busy = |o: &SimOutcome| -> f64 {
            o.jobs.iter().map(|j| f64::from(j.nodes) * j.run_secs).sum()
        };
        assert!(
            busy(&with) <= busy(&without) + 1e-6,
            "checkpointing must not increase total work: {} vs {}",
            busy(&with),
            busy(&without)
        );
        assert!(with.counters.get("jobs/requeued").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn stale_finish_does_not_complete_continuation() {
        use crate::emergency::EmergencyPolicy;
        // A killed-and-requeued job's continuation must run its full
        // remaining time, not be cut short by the original Finish event.
        let jobs = vec![
            JobBuilder::new(0)
                .nodes(4)
                .runtime(SimDuration::from_hours(3.0))
                .estimate(SimDuration::from_hours(8.0))
                .build(),
            JobBuilder::new(1)
                .nodes(4)
                .runtime(SimDuration::from_hours(3.0))
                .estimate(SimDuration::from_hours(8.0))
                .submit(SimTime::from_secs(600.0))
                .build(),
        ];
        let mut policy = Fcfs;
        let mut config = EngineConfig::new(SimTime::from_days(4.0));
        config.emergency = Some(EmergencyPolicy::new(1500.0));
        config.requeue_killed = true;
        let out = ClusterSim::new(small_system(8), jobs, &mut policy, config).run();
        // Every *clean* completion ran its full three hours.
        for j in out.jobs.iter().filter(|j| !j.killed_by_emergency) {
            assert!(
                (j.run_secs - 3.0 * 3600.0).abs() < 1.0,
                "job {} ran {} s",
                j.id,
                j.run_secs
            );
        }
    }

    #[test]
    fn demand_response_resize_blocks_then_recovers() {
        // Budget 1200 W: a 2-node job fits (~510 W). At t=1h demand
        // response cuts to 250 W — below even the min-frequency draw of
        // two nodes, so cap-to-fit cannot rescue a start; a job submitted
        // during the window must wait for the 3 h restore.
        let early: Vec<Job> = (0..1)
            .map(|i| {
                JobBuilder::new(i)
                    .nodes(2)
                    .runtime(SimDuration::from_mins(30.0))
                    .estimate(SimDuration::from_hours(1.0))
                    .build()
            })
            .collect();
        let mut jobs = early;
        jobs.push(
            JobBuilder::new(10)
                .nodes(2)
                .runtime(SimDuration::from_mins(30.0))
                .estimate(SimDuration::from_hours(1.0))
                .submit(SimTime::from_hours(1.5))
                .build(),
        );
        let mut policy = Fcfs;
        let mut config = EngineConfig::new(SimTime::from_hours(8.0));
        config.power_budget_watts = Some(1200.0);
        config.budget_schedule = vec![
            (SimTime::from_hours(1.0), 250.0),
            (SimTime::from_hours(3.0), 1200.0),
        ];
        let out = ClusterSim::new(small_system(8), jobs, &mut policy, config).run();
        assert_eq!(out.completed, 2);
        assert_eq!(
            out.counters
                .get("power/budget_resizes")
                .copied()
                .unwrap_or(0),
            2
        );
        let late = out.jobs.iter().find(|j| j.id == JobId(10)).unwrap();
        // Submitted at 1.5 h into a 500 W window; could only start at 3 h.
        assert!(
            late.wait_secs >= 1.4 * 3600.0,
            "late job waited only {} s",
            late.wait_secs
        );
    }

    #[test]
    fn capped_to_fit_counter_fires() {
        // A full-machine compute-bound job over the budget gets capped
        // rather than starved.
        let job = JobBuilder::new(1)
            .nodes(8)
            .app(epa_workload::job::AppProfile::compute_bound("hpl"))
            .runtime(SimDuration::from_hours(1.0))
            .estimate(SimDuration::from_hours(3.0))
            .build();
        let mut policy = Fcfs;
        let mut config = EngineConfig::new(SimTime::from_hours(8.0));
        // 8 × 290 W = 2320 W demand; budget below it but above min-freq draw.
        config.power_budget_watts = Some(1900.0);
        let out = ClusterSim::new(small_system(8), vec![job], &mut policy, config).run();
        assert_eq!(out.completed, 1);
        assert_eq!(
            out.counters
                .get("sched/start_capped_to_fit")
                .copied()
                .unwrap_or(0),
            1
        );
        // The capped job ran slower than its base runtime.
        assert!(out.jobs[0].run_secs > 3600.0);
    }

    /// Queues `job` (submitted at t = 0, never startable under `config`)
    /// on 8 nodes, then commits a start of it by hand: the commit must
    /// fail for `reason` and leave the budget and meter, the free nodes
    /// and the queue exactly as before the attempt.
    fn assert_commit_unwinds(config: EngineConfig, job: Job, reason: RejectReason) {
        let mut policy = Fcfs;
        let mut sim = ClusterSim::new(small_system(8), vec![job], &mut policy, config);
        sim.advance_until(SimTime::ZERO);
        let state = |sim: &ClusterSim| {
            let mut w = SnapWriter::new();
            sim.power.snapshot_into(&mut w);
            let queue: Vec<JobId> = sim.jobs.queued().iter().map(|j| j.id).collect();
            let (headroom, _) = sim.power.headroom_and_total();
            (w.finish(1), headroom, sim.nodes.free_count(), queue)
        };
        let before = state(&sim);
        assert_eq!(before.3, [JobId(1)], "{reason:?}: the job waits");
        let counter = |sim: &ClusterSim| sim.obs.registry.counter(reject_counter(reason));
        let rejected = counter(&sim);
        let plan = sim.plan(JobId(1), None, None, None).expect("plannable");
        assert!(!sim.commit(plan), "{reason:?}");
        assert_eq!(counter(&sim), rejected + 1, "{reason:?}");
        assert!(state(&sim) == before, "{reason:?}: state changed");
        (sim.power.check_holders(sim.jobs.running())).expect("groups and grants");
    }

    fn reject_counter(reason: RejectReason) -> &'static str {
        match reason {
            RejectReason::PowerDenied => "sched/start_power_denied",
            RejectReason::AllocFailed => "sched/start_alloc_failed",
            _ => "sched/start_actuation_failed",
        }
    }

    fn full_machine_job() -> Job {
        JobBuilder::new(1)
            .nodes(8)
            .app(epa_workload::job::AppProfile::compute_bound("hpl"))
            .runtime(SimDuration::from_hours(1.0))
            .estimate(SimDuration::from_hours(3.0))
            .build()
    }

    #[test]
    fn a_denied_grant_takes_nothing() {
        // 250 W is below even the minimum-frequency draw of eight nodes.
        let mut config = EngineConfig::new(SimTime::from_hours(8.0));
        config.power_budget_watts = Some(250.0);
        assert_commit_unwinds(config, full_machine_job(), RejectReason::PowerDenied);
    }

    #[test]
    fn a_failed_allocation_returns_the_grant() {
        use epa_cluster::layout::{Equipment, MaintenanceWindow, PduId};
        // The only PDU is under maintenance for the whole run, so every
        // node is excluded from the allocation.
        let mut config = EngineConfig::new(SimTime::from_hours(8.0));
        config.power_budget_watts = Some(10_000.0);
        let mut layout = FacilityLayout::regular(&small_system(8), 1, 1);
        layout.add_maintenance(MaintenanceWindow {
            equipment: Equipment::Pdu(PduId(0)),
            start: SimTime::ZERO,
            end: SimTime::from_hours(100.0),
        });
        config.layout = Some(layout);
        assert_commit_unwinds(config, full_machine_job(), RejectReason::AllocFailed);
    }

    #[test]
    fn a_failed_actuation_returns_the_nodes_and_the_grant() {
        use epa_faults::{ActuatorFaultConfig, FaultConfig};
        // The job only fits the budget capped, and every cap write fails;
        // no node is fenced, so nothing else moves.
        let mut config = EngineConfig::new(SimTime::from_hours(8.0));
        config.power_budget_watts = Some(1900.0);
        config.faults = Some(FaultConfig {
            actuator: Some(ActuatorFaultConfig {
                fail_prob: 1.0,
                max_retries: 0,
                fence_after: u32::MAX,
                ..ActuatorFaultConfig::default()
            }),
            ..FaultConfig::default()
        });
        assert_commit_unwinds(config, full_machine_job(), RejectReason::ActuationFailed);
    }

    /// An 8-node engine under a 10 kW budget, fully traced, at t = 1 h:
    /// four one-node jobs running, four nodes idle since t = 0.
    fn external_engine(gate: bool) -> ClusterSim<'static> {
        let jobs = (0..4)
            .map(|i| {
                JobBuilder::new(i)
                    .nodes(1)
                    .runtime(SimDuration::from_hours(10.0))
                    .estimate(SimDuration::from_hours(12.0))
                    .build()
            })
            .collect();
        let mut config = EngineConfig::new(SimTime::from_hours(24.0));
        config.power_budget_watts = Some(10_000.0);
        config.trace = TraceConfig::all();
        config.limit_gate = gate.then_some(JobLimitGate {
            normal_limit: 6,
            hot_limit: 6,
            hot_threshold_c: 100.0,
        });
        let mut sim = ClusterSim::try_new_owned(small_system(8), jobs, Box::new(Fcfs), config)
            .expect("valid config");
        sim.advance_until(SimTime::from_hours(1.0));
        assert_eq!((sim.jobs.running_count(), sim.nodes.free_count()), (4, 4));
        sim
    }

    /// The kind and accepted flag of every recorded external action.
    fn control_records(sim: &ClusterSim) -> Vec<(epa_obs::ControlKind, bool)> {
        (sim.obs.bus.iter())
            .filter_map(|r| match r.event {
                TraceEvent::ControlAction { kind, accepted, .. } => Some((kind, accepted)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn external_job_limit_under_a_gate_is_rejected() {
        // The gate owns the limit: an external one would be overwritten
        // before anything read it.
        let mut sim = external_engine(true);
        let limit = ControlAction::SetJobLimit { limit: Some(2) };
        assert_eq!(sim.apply_external_actions(&[limit]), 0);
        assert_eq!(sim.control.job_limit, None);
        assert_eq!(sim.obs.registry.counter("control/actions_rejected"), 1);
        assert_eq!(sim.obs.registry.counter("control/actions_applied"), 0);
    }

    #[test]
    fn external_actions_are_validated_counted_traced_and_applied() {
        type Effect = fn(&ClusterSim) -> bool;
        let eager = ShutdownPolicy {
            idle_threshold: SimDuration::from_mins(10.0),
            ..ShutdownPolicy::default()
        };
        let bootless = ShutdownPolicy {
            boot_time: SimDuration::ZERO,
            ..ShutdownPolicy::default()
        };
        let shed = |observed_watts| ControlAction::EmergencyShed {
            observed_watts,
            limit_watts: 1_500.0,
            target_watts: 0.0,
            victim_order: VictimOrder::Youngest,
            cooldown: SimDuration::from_hours(1.0),
        };
        let power_off = |shutdown_time| ControlAction::PowerOffIdle {
            idle_threshold: SimDuration::from_mins(30.0),
            min_idle_reserve: 1,
            shutdown_time,
        };
        // (valid, invalid, the valid one's effect)
        let cases: [(ControlAction, ControlAction, Effect); 6] = [
            (
                ControlAction::SetJobLimit { limit: Some(2) },
                ControlAction::SetJobLimit { limit: Some(0) },
                |sim| sim.control.job_limit == Some(2),
            ),
            (
                ControlAction::SetDefaultFrequency {
                    freq_ghz: Some(1.75),
                },
                ControlAction::SetDefaultFrequency {
                    freq_ghz: Some(f64::NAN),
                },
                |sim| {
                    let cpu = sim.power.dvfs().cpu();
                    sim.control.default_freq_ghz == Some(cpu.quantize_frequency(1.75))
                },
            ),
            (
                ControlAction::ResizeBudget { watts: 5_000.0 },
                ControlAction::ResizeBudget { watts: -1.0 },
                |sim| sim.power.budget_watts() == Some(5_000.0),
            ),
            (
                ControlAction::SetIdleShutdown {
                    policy: Some(eager.clone()),
                },
                ControlAction::SetIdleShutdown {
                    policy: Some(bootless),
                },
                |sim| {
                    (sim.control.shutdown.as_ref())
                        .is_some_and(|p| p.idle_threshold.as_secs() == 600.0)
                },
            ),
            (
                power_off(SimDuration::from_mins(2.0)),
                power_off(SimDuration::ZERO),
                |sim| sim.nodes.free_count() == 1 && sim.obs.registry.counter("rm/shutdowns") == 3,
            ),
            (shed(2_000.0), shed(f64::NAN), |sim| {
                sim.jobs.running_count() == 0 && sim.power.holds_starts(sim.now())
            }),
        ];
        for gate in [false, true] {
            for (valid, invalid, effect) in &cases {
                // Under a gate the job limit is not the controller's to set.
                let owned = gate && matches!(valid, ControlAction::SetJobLimit { .. });
                let mut sim = external_engine(gate);
                let accepted = sim.apply_external_actions(&[valid.clone(), invalid.clone()]);
                let case = format!("{valid:?} (gate: {gate})");
                let registry = &sim.obs.registry;
                let counted = ["control/actions_applied", "control/actions_rejected"]
                    .map(|name| registry.counter(name));
                let want = [u64::from(!owned), 1 + u64::from(owned)];
                assert_eq!((accepted, counted), (u32::from(!owned), want), "{case}");
                let kind = valid.kind();
                let records = [(kind, !owned), (kind, false)];
                assert_eq!(control_records(&sim), records, "{case}");
                assert_eq!(effect(&sim), !owned, "{case}");
            }
        }
    }

    #[test]
    fn degenerate_configs_rejected() {
        use crate::error::SchedError;
        let mk = || {
            (
                small_system(4),
                vec![JobBuilder::new(1).nodes(1).build()],
                EngineConfig::new(SimTime::from_hours(1.0)),
            )
        };
        let build = |sys, jobs, policy: &mut Fcfs, config| {
            let source = Box::new(MaterializedSource::new(jobs));
            ClusterSim::try_new_with_source(sys, source, policy, config).err()
        };
        let (sys, jobs, mut config) = mk();
        config.node_mtbf = Some(SimDuration::ZERO);
        let mut policy = Fcfs;
        let err = build(sys, jobs, &mut policy, config);
        assert_eq!(err, Some(SchedError::NonPositiveMtbf));

        let (sys, jobs, mut config) = mk();
        config.repair_time = SimDuration::ZERO;
        let err = build(sys, jobs, &mut policy, config);
        assert_eq!(err, Some(SchedError::NonPositiveRepairTime));

        let (sys, jobs, mut config) = mk();
        config.checkpoint_interval = Some(SimDuration::ZERO);
        let err = build(sys, jobs, &mut policy, config);
        assert_eq!(err, Some(SchedError::ZeroCheckpointInterval));

        let (sys, jobs, mut config) = mk();
        config.faults = Some(epa_faults::FaultConfig {
            sensor: Some(epa_faults::SensorFaultConfig {
                dropout_prob: 2.0,
                ..epa_faults::SensorFaultConfig::default()
            }),
            ..epa_faults::FaultConfig::default()
        });
        let err = build(sys, jobs, &mut policy, config);
        assert!(matches!(err, Some(SchedError::InvalidConfig(_))));

        let (sys, jobs, mut config) = mk();
        config.shutdown = Some(ShutdownPolicy {
            boot_time: SimDuration::ZERO,
            ..ShutdownPolicy::default()
        });
        let err = build(sys, jobs, &mut policy, config);
        assert!(matches!(err, Some(SchedError::InvalidConfig(_))));

        // A valid config still constructs.
        let (sys, jobs, config) = mk();
        assert!(build(sys, jobs, &mut policy, config).is_none());
    }

    #[test]
    fn invalid_budgets_are_typed_config_errors() {
        // (budget, one scheduled resize at hour 1)
        let cases = [
            (Some(0.0), None),
            (Some(-5.0), None),
            (Some(f64::NAN), None),
            (Some(f64::INFINITY), None),
            (Some(1000.0), Some(0.0)),
            (Some(1000.0), Some(f64::NAN)),
            (None, Some(500.0)),
        ];
        for (budget, resize) in cases {
            let mut config = EngineConfig::new(SimTime::from_hours(2.0));
            config.power_budget_watts = budget;
            config.budget_schedule = resize
                .map(|w| (SimTime::from_hours(1.0), w))
                .into_iter()
                .collect();
            let jobs = Box::new(MaterializedSource::new(vec![JobBuilder::new(1).build()]));
            let err =
                ClusterSim::try_new_with_source(small_system(4), jobs, &mut Fcfs, config).err();
            assert!(
                matches!(err, Some(SchedError::InvalidConfig(_))),
                "{budget:?} {resize:?}: {err:?}"
            );
        }
    }

    #[test]
    fn domain_faults_take_whole_cabinets_down() {
        use epa_faults::{DomainFaultConfig, FaultConfig};
        // 4 cabinets × 4 nodes; aggressive domain MTBF over 3 days.
        let sys = SystemSpec {
            name: "test".into(),
            cabinets: 4,
            nodes_per_cabinet: 4,
            node: NodeSpec::typical_xeon(),
            topology: Topology::FatTree { arity: 8 },
            peak_tflops: 1.0,
        }
        .build();
        let jobs: Vec<Job> = (0..30)
            .map(|i| {
                JobBuilder::new(i)
                    .nodes(4)
                    .runtime(SimDuration::from_hours(2.0))
                    .estimate(SimDuration::from_hours(3.0))
                    .submit(SimTime::from_hours(f64::from(i as u32)))
                    .build()
            })
            .collect();
        let mut policy = Fcfs;
        let mut config = EngineConfig::new(SimTime::from_days(3.0));
        config.requeue_killed = true;
        config.faults = Some(FaultConfig {
            domain: Some(DomainFaultConfig {
                mtbf: SimDuration::from_hours(8.0),
                repair_time: SimDuration::from_hours(1.0),
            }),
            ..FaultConfig::default()
        });
        let out = ClusterSim::new(sys, jobs, &mut policy, config).run();
        let events = out
            .counters
            .get("faults/domain_events")
            .copied()
            .unwrap_or(0);
        assert!(events > 3, "3 days at 8 h MTBF should fire, got {events}");
        // A domain event downs up to a whole 4-node cabinet at once, so
        // failures outnumber events.
        assert!(out.node_failures > events, "correlated events down groups");
        assert_eq!(out.per_node_failures.len(), 16);
        assert_eq!(out.per_node_failures.iter().sum::<u64>(), out.node_failures);
        assert!(out.node_downtime_secs > 0.0);
        assert!(out.mttr_secs > 0.0, "completed repairs must yield MTTR");
        // MTTR cannot be below the configured repair time.
        assert!(out.mttr_secs >= 3600.0 - 1e-6);
    }

    #[test]
    fn domain_fault_runs_are_deterministic() {
        use epa_faults::{DomainFaultConfig, FaultConfig};
        let mk = || {
            let jobs: Vec<Job> = (0..10)
                .map(|i| {
                    JobBuilder::new(i)
                        .nodes(2)
                        .runtime(SimDuration::from_hours(1.0))
                        .build()
                })
                .collect();
            let mut policy = Fcfs;
            let mut config = EngineConfig::new(SimTime::from_days(1.0));
            config.requeue_killed = true;
            config.faults = Some(FaultConfig {
                domain: Some(DomainFaultConfig {
                    mtbf: SimDuration::from_hours(4.0),
                    repair_time: SimDuration::from_hours(1.0),
                }),
                seed: 42,
                ..FaultConfig::default()
            });
            ClusterSim::new(small_system(8), jobs, &mut policy, config).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.node_failures, b.node_failures);
        assert_eq!(a.per_node_failures, b.per_node_failures);
        assert_eq!(a.completed, b.completed);
        assert!((a.energy_joules - b.energy_joules).abs() < 1e-6);
        assert!((a.node_downtime_secs - b.node_downtime_secs).abs() < 1e-9);
    }

    #[test]
    fn throughput_metric() {
        let jobs: Vec<Job> = (0..10)
            .map(|i| {
                JobBuilder::new(i)
                    .nodes(1)
                    .runtime(SimDuration::from_mins(10.0))
                    .estimate(SimDuration::from_mins(30.0))
                    .build()
            })
            .collect();
        let out = run_jobs(jobs, 16, 24.0);
        assert_eq!(out.completed, 10);
        assert!((out.throughput_per_day - 10.0).abs() < 1e-6);
        assert!(out.energy_per_job_joules > 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::policies::backfill::EasyBackfill;
    use crate::policies::fcfs::Fcfs;
    use epa_workload::job::JobBuilder;
    use proptest::prelude::*;

    fn arb_jobs() -> impl Strategy<Value = Vec<(u32, f64, f64, f64)>> {
        // (nodes, runtime h, estimate factor, submit h)
        proptest::collection::vec(
            ((1u32..8), (0.1f64..4.0), (1.0f64..3.0), (0.0f64..12.0)),
            1..25,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Engine invariants hold for arbitrary small workloads under both
        /// baseline policies: job conservation, bounded utilization,
        /// physical energy bounds, non-negative waits.
        #[test]
        fn engine_invariants(specs in arb_jobs(), easy in proptest::bool::ANY) {
            let jobs: Vec<epa_workload::job::Job> = specs
                .iter()
                .enumerate()
                .map(|(i, &(nodes, rt_h, est_f, sub_h))| {
                    JobBuilder::new(i as u64)
                        .nodes(nodes)
                        .runtime(SimDuration::from_hours(rt_h))
                        .estimate(SimDuration::from_hours(rt_h * est_f))
                        .submit(SimTime::from_hours(sub_h))
                        .build()
                })
                .collect();
            let n = jobs.len() as u64;
            let horizon = SimTime::from_days(3.0);
            let mut fcfs = Fcfs;
            let mut ez = EasyBackfill;
            let policy: &mut dyn crate::view::Policy =
                if easy { &mut ez } else { &mut fcfs };
            let config = EngineConfig::new(horizon);
            let out = ClusterSim::new(
                tests::small_system(8),
                jobs,
                policy,
                config,
            )
            .run();
            prop_assert_eq!(out.completed + out.unfinished, n, "job conservation");
            prop_assert!(out.utilization >= 0.0 && out.utilization <= 1.0 + 1e-9);
            let span = horizon.as_secs();
            let idle_floor = 8.0 * 90.0 * span;
            let peak_ceiling = 8.0 * 400.0 * span;
            prop_assert!(out.energy_joules >= idle_floor * 0.999);
            prop_assert!(out.energy_joules <= peak_ceiling * 1.001);
            prop_assert!(out.peak_watts <= 8.0 * 400.0 + 1e-6);
            for j in &out.jobs {
                prop_assert!(j.wait_secs >= -1e-9);
                prop_assert!(j.energy_joules >= 0.0);
            }
        }

        /// With a power budget, granted job power never exceeds it: the
        /// peak system draw stays under budget + idle draw of non-busy
        /// nodes.
        #[test]
        fn budget_never_structurally_exceeded(
            specs in arb_jobs(),
            budget_frac in 0.4f64..1.0,
        ) {
            let jobs: Vec<epa_workload::job::Job> = specs
                .iter()
                .enumerate()
                .map(|(i, &(nodes, rt_h, est_f, sub_h))| {
                    JobBuilder::new(i as u64)
                        .nodes(nodes)
                        .runtime(SimDuration::from_hours(rt_h))
                        .estimate(SimDuration::from_hours(rt_h * est_f))
                        .submit(SimTime::from_hours(sub_h))
                        .build()
                })
                .collect();
            let nominal = 8.0 * 290.0;
            let mut config = EngineConfig::new(SimTime::from_days(3.0));
            config.power_budget_watts = Some(nominal * budget_frac);
            let mut policy = EasyBackfill;
            let out = ClusterSim::new(tests::small_system(8), jobs, &mut policy, config).run();
            let idle_slack = 8.0 * 90.0;
            prop_assert!(
                out.peak_watts <= nominal * budget_frac + idle_slack + 1e-6,
                "peak {} vs budget {} + slack {}",
                out.peak_watts,
                nominal * budget_frac,
                idle_slack
            );
        }
    }
}
