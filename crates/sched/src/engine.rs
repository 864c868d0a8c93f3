//! The cluster scheduling engine.
//!
//! [`ClusterSim`] wires every substrate together: the event queue
//! (`epa-simcore`), the machine model and allocator (`epa-cluster`), the
//! power models, meter, and budget (`epa-power`), the workload
//! (`epa-workload`), and prediction (`epa-predict`). A [`Policy`] makes
//! the scheduling choices; the engine owns physical truth:
//!
//! - allocations (a policy can never double-book a node),
//! - power accounting (piecewise-exact energy metering),
//! - the power-budget ledger (grants made and reclaimed on start/finish),
//! - walltime enforcement (jobs are killed at their estimate),
//! - optional idle-node shutdown, emergency response, maintenance
//!   windows, and concurrency gating (the Table I/II production
//!   mechanisms).
//!
//! The engine reports a [`SimOutcome`] with the metrics every experiment
//! consumes: utilization, wait/slowdown statistics, energy, peak power,
//! violations, kills, and per-policy counters.

use crate::control::{ActionSource, ControlAction, ControlState, Observation};
use crate::emergency::{EmergencyPolicy, VictimOrder};
use crate::error::SchedError;
use crate::events::{Ev, EventLoop, Next};
use crate::faults::FaultPlane;
use crate::jobs::{JobTable, RunningJob};
use crate::limiting::JobLimitGate;
use crate::nodes::NodeTable;
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
use epa_power::budget::{GrantId, PowerBudget};
use epa_power::facility::Facility;
use epa_power::meter::EnergyMeter;
use epa_power::node_power::{NodePowerModel, NodePowerState};
use epa_predict::history::HistoryStore;
use epa_predict::predictors::{PowerPredictor, TagMeanPredictor};
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
    /// `ControlAction::ResizeBudget` / `EmergencyShed` and settling
    /// cost/carbon/penalty into [`ClusterSim::grid_summary`].
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
    /// repair time, a zero checkpoint interval, an invalid
    /// [`FaultConfig`] or [`GridConfig`], a non-finite or non-positive
    /// budget or scheduled budget, and a budget schedule or steering grid
    /// config without a budget. Called at engine construction.
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

/// Grid interval of the exported system power trace
/// ([`SimOutcome::power_trace`]). The meter samples on this grid as power
/// steps arrive, so the whole-run export matches a full change-point
/// series' resample bit-for-bit.
fn power_trace_grid() -> SimDuration {
    SimDuration::from_mins(5.0)
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
    power_model: NodePowerModel,
    /// The scheduling policy, borrowed (the classic constructors) or owned
    /// (the [`crate::env::PolicyEnv`] constructors, which need a `'static`
    /// engine they can hold across decision steps).
    policy: Box<dyn Policy + 'p>,
    predictor: Box<dyn PowerPredictor>,

    /// The clock, the runtime event queue and the staged arrival.
    events: EventLoop,
    /// Allocation and the per-node power-state machine.
    nodes: NodeTable,
    meter: EnergyMeter,
    budget: Option<PowerBudget>,
    /// Queued, running and departed jobs.
    jobs: JobTable,
    history: HistoryStore,
    violation_accum_secs: f64,
    last_tick: SimTime,
    /// No new starts before this instant (emergency cooldown).
    start_hold_until: SimTime,
    /// A cooldown is in effect; the first tick past it must reschedule.
    hold_resume_pending: bool,
    /// Node and domain failures, sensor and actuator faults.
    faults: FaultPlane,
    /// Observability: trace bus, metrics registry, wall-clock profiler.
    /// Its registry is the engine's only one: every counter lands there,
    /// and the outcome's counter map is collected from it at finalize.
    obs: Obs,
    /// The control plane's persistent knob state: what `Set*` control
    /// actions write and the engine consults (job limit, default DVFS
    /// frequency, backfill depth, shutdown override). Snapshot as its
    /// own section (schema v3).
    control: ControlState,
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
        let power_model = NodePowerModel::new(system.spec().node.clone());
        let budget = (config.power_budget_watts.map(PowerBudget::new).transpose())
            .map_err(|e| SchedError::InvalidConfig(e.to_string()))?;
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
        let mut meter = EnergyMeter::new(power_trace_grid());
        let all_nodes: Vec<NodeId> = system.nodes().collect();
        meter.set_alloc_watts(&all_nodes, SimTime::ZERO, system.spec().node.idle_watts);
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
        Ok(ClusterSim {
            config,
            system,
            power_model,
            policy,
            predictor: Box::new(TagMeanPredictor),
            events,
            nodes,
            meter,
            budget,
            jobs,
            history: HistoryStore::new(),
            violation_accum_secs: 0.0,
            last_tick: SimTime::ZERO,
            start_hold_until: SimTime::ZERO,
            hold_resume_pending: false,
            faults,
            obs,
            control: ControlState::default(),
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
        self.predictor = p;
    }

    fn ambient_c(&self, t: SimTime) -> f64 {
        self.config
            .facility
            .as_ref()
            .map_or(18.0, |f| f.temperature_c(t))
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
            Ev::PowerTick => {
                let t_meter = self.obs.profiler.start();
                self.on_power_tick(t);
                self.obs.profiler.stop(Scope::Meter, t_meter);
                // The tick after an emergency cooldown expires resumes
                // scheduling (a full heartbeat on *every* tick would be
                // quadratic with conservative backfilling's planning).
                let waiting = !self.jobs.queued().is_empty();
                if self.hold_resume_pending && t >= self.start_hold_until && waiting {
                    self.hold_resume_pending = false;
                    self.try_schedule();
                }
                let next = t + power_tick();
                if next <= self.config.horizon {
                    self.events.schedule_at(next, Ev::PowerTick);
                }
            }
            Ev::BootDone(n) => self.bring_up(n, t),
            Ev::BudgetResize(w) => {
                // The demand-response schedule is an engineered adapter:
                // the resize flows through the unified apply path.
                let _ = self.apply_action(
                    t,
                    &ControlAction::ResizeBudget { watts: w },
                    ActionSource::Engineered,
                );
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
                        self.meter.set_group_watts(r.meter_group, t, watts);
                        self.obs.registry.incr("jobs/phase_changes", 1);
                    }
                }
            }
            Ev::ShutdownDone(n) => {
                if self.nodes.shutdown_done(n) {
                    self.meter_node(n, NodePowerState::Off, t);
                }
            }
        }
    }

    /// A DR curtailment window opens: mark it active in the twin, drop
    /// the budget to the contractual target through the control plane,
    /// and — for enforced events — shed load immediately if the system
    /// is already drawing above the target.
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
        let _ = self.apply_action(
            t,
            &ControlAction::ResizeBudget { watts: target },
            ActionSource::Engineered,
        );
        if enforce {
            let observed = self.meter.system_watts();
            if observed > target {
                let _ = self.apply_action(
                    t,
                    &ControlAction::EmergencyShed {
                        observed_watts: observed,
                        limit_watts: target,
                        target_watts: target * 0.95,
                        victim_order: VictimOrder::Youngest,
                        cooldown: SimDuration::ZERO,
                    },
                    ActionSource::Engineered,
                );
            }
        }
    }

    /// A DR window closes: clear the active flag and restore the budget
    /// toward its nominal level (the next grid tick re-derates it for
    /// cooling/follow conditions).
    fn on_grid_dr_end(&mut self, t: SimTime, idx: u32) {
        let temp = self.ambient_c(t);
        let Some(gs) = self.grid.as_mut() else {
            return;
        };
        gs.on_event_end(idx);
        let target = gs.budget_target(temp);
        let _ = self.apply_action(
            t,
            &ControlAction::ResizeBudget { watts: target },
            ActionSource::Engineered,
        );
    }

    /// The per-tick grid co-simulation step: settle cost/carbon/DR for
    /// the elapsed interval at the metered IT draw, then steer the IT
    /// budget to the twin's current target (cooling head-room ×
    /// follow-the-renewables derating × DR cap) when it moved.
    fn grid_tick(&mut self, t: SimTime, it_watts: f64) {
        if self.grid.is_none() {
            return;
        }
        let temp = self.ambient_c(t);
        let fallback_pue = self.config.facility.as_ref().map_or(1.0, |f| f.pue(t));
        let dt = (t - self.last_tick).as_secs();
        let Some(gs) = self.grid.as_mut() else {
            return;
        };
        let target = gs.on_tick(t, dt, it_watts, temp, fallback_pue);
        let current = self.budget.as_ref().map(PowerBudget::total_watts);
        if let Some(cur) = current {
            if (target - cur).abs() > 1e-6 {
                let _ = self.apply_action(
                    t,
                    &ControlAction::ResizeBudget { watts: target },
                    ActionSource::Engineered,
                );
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
        if let Some(f) = &c.faults {
            f.fingerprint(&mut fp);
        }
        fp.u64(u64::from(c.shutdown.is_some()));
        fp.u64(u64::from(c.emergency.is_some()));
        fp.u64(u64::from(c.limit_gate.is_some()));
        fp.u64(u64::from(c.facility.is_some()));
        fp.u64(u64::from(c.layout.is_some()));
        fp.u64(u64::from(c.record_history));
        fp.u64(u64::from(c.retain_completed));
        fp.u64(u64::from(self.grid.is_some()));
        if let Some(g) = &self.grid {
            g.config().fingerprint(&mut fp);
        }
        fp.str(self.policy.name());
        self.events.source().fingerprint(&mut fp);
        fp.u64(u64::from(self.system.spec().total_nodes()));
        fp.u64(u64::from(self.system.spec().cabinets));
        fp.finish()
    }

    /// Freezes the full engine state into a [`Snapshot`].
    ///
    /// Legal between events — between [`ClusterSim::run_until`] calls,
    /// or before the run starts. Everything mutable is captured: the
    /// event queue with its sequence counter, the staged arrival and the
    /// source cursor, RNG stream positions, allocator spans, the meter's
    /// run index, open allocation groups and bounded power trace, the
    /// budget ledger, queued and running jobs, fault state, the
    /// prediction history, metrics, completed-job records, and the
    /// observability ring. Configuration is *not*
    /// stored (the caller re-supplies it at [`ClusterSim::resume`]); a
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
        w.section("meter");
        self.meter.snapshot_into(&mut w);
        w.section("budget");
        w.opt(self.budget.as_ref(), |w, b| b.snapshot_into(w));
        w.section("jobs");
        self.jobs.snapshot_into(&mut w);
        w.section("nodes");
        self.nodes.snapshot_into(&mut w);
        w.section("engine");
        w.f64(self.violation_accum_secs);
        w.f64(self.last_tick.as_secs());
        w.f64(self.start_hold_until.as_secs());
        w.bool(self.hold_resume_pending);
        w.section("control");
        self.control.snapshot_into(&mut w);
        w.section("faults");
        self.faults.snapshot_into(&mut w);
        w.section("history");
        self.history.snapshot_into(&mut w);
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
        r.section("meter")?;
        self.meter = EnergyMeter::restore_from(&mut r, power_trace_grid(), n as u32)?;
        r.section("budget")?;
        restore_part(&mut r, "the power budget", &mut self.budget, |r, b| {
            *b = PowerBudget::restore_from(r)?;
            Ok(())
        })?;
        r.section("jobs")?;
        let (retain, budget) = (self.config.retain_completed, self.budget.as_ref());
        self.jobs = JobTable::restore_from(&mut r, total, now, retain, budget, &self.meter)?;
        r.section("nodes")?;
        let (strategy, topology) = (self.config.alloc_strategy, self.system.topology().clone());
        let claims = self.jobs.running().map(|rj| &rj.nodes);
        self.nodes = NodeTable::restore_from(&mut r, total, strategy, topology, now, claims)?;
        r.section("engine")?;
        self.violation_accum_secs = r.f64()?;
        self.last_tick = r.time()?;
        self.start_hold_until = r.time()?;
        self.hold_resume_pending = r.bool()?;
        r.section("control")?;
        self.control = ControlState::restore_from(&mut r)?;
        r.section("faults")?;
        self.faults.restore_from(&mut r, now)?;
        r.section("history")?;
        self.history = HistoryStore::restore_from(&mut r)?;
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
        self.meter_node(victim, NodePowerState::Off, t);
        self.events.schedule_in(repair, Ev::RepairDone(victim));
    }

    /// Meters `node` at its draw in `state`, after its node-table
    /// transition.
    fn meter_node(&mut self, node: NodeId, state: NodePowerState, t: SimTime) {
        let watts = self
            .power_model
            .watts(state, 0.0, self.system.spec().node.cpu.base_freq_ghz);
        self.meter.set_node_watts(node, t, watts);
    }

    /// A booted or repaired node comes up idle and may take queued work.
    fn bring_up(&mut self, node: NodeId, t: SimTime) {
        self.nodes.bring_up(node, t);
        self.meter_node(node, NodePowerState::Idle, t);
        self.try_schedule();
    }

    /// Applies one control action through the unified apply path — the
    /// single funnel every knob goes through, whether an engineered
    /// adapter or an external (learned) controller pulled it.
    ///
    /// External actions are validated first (an invalid one is counted,
    /// traced as rejected, and ignored) and recorded on the `Control`
    /// trace category; engineered actions skip both so an engineered run
    /// stays byte-identical to the pre-refactor engine even with tracing
    /// on. Returns `true` when the action was applied (for `Start`, when
    /// the job actually started).
    fn apply_action(&mut self, t: SimTime, action: &ControlAction, src: ActionSource) -> bool {
        if src == ActionSource::External && !self.validate_action(action) {
            self.obs.registry.incr("control/actions_rejected", 1);
            self.trace_control(t, action, false);
            return false;
        }
        let applied = self.execute_action(t, action);
        if src == ActionSource::External {
            if applied {
                self.obs.registry.incr("control/actions_applied", 1);
            } else {
                self.obs.registry.incr("control/actions_rejected", 1);
            }
            self.trace_control(t, action, applied);
        }
        applied
    }

    /// Records an external control action on the trace (mask-gated).
    fn trace_control(&mut self, t: SimTime, action: &ControlAction, accepted: bool) {
        self.obs.bus.record(
            t,
            TraceEvent::ControlAction {
                kind: action.kind(),
                value: action.trace_value(),
                accepted,
            },
        );
    }

    /// Sanity bounds for *external* actions. Engineered adapters emit
    /// well-formed actions by construction and skip this; a learned
    /// controller's action must never corrupt engine state, so anything
    /// non-physical is rejected here before execution.
    fn validate_action(&self, action: &ControlAction) -> bool {
        match action {
            // Start is validated by the start path itself (unknown job,
            // insufficient nodes, budget denial all reject cleanly).
            ControlAction::Start { .. } => true,
            ControlAction::SetJobLimit { limit } => limit.is_none_or(|l| l >= 1),
            ControlAction::SetDefaultFrequency { freq_ghz } => {
                freq_ghz.is_none_or(|f| f.is_finite() && f > 0.0)
            }
            ControlAction::SetBackfillDepth { depth } => depth.is_none_or(|d| d >= 1),
            ControlAction::ResizeBudget { watts } => {
                self.budget.is_some() && watts.is_finite() && *watts > 0.0
            }
            ControlAction::SetIdleShutdown { policy } => policy.as_ref().is_none_or(|p| {
                p.idle_threshold.as_secs() >= 0.0
                    && p.shutdown_time.as_secs() > 0.0
                    && p.boot_time.as_secs() > 0.0
            }),
            ControlAction::PowerOffIdle {
                idle_threshold,
                shutdown_time,
                ..
            } => idle_threshold.as_secs() >= 0.0 && shutdown_time.as_secs() > 0.0,
            ControlAction::EmergencyShed {
                target_watts,
                limit_watts,
                ..
            } => target_watts.is_finite() && *target_watts >= 0.0 && target_watts <= limit_watts,
        }
    }

    /// Executes a (validated) control action. Returns `true` when it took
    /// effect (`Start` reports whether the job started).
    fn execute_action(&mut self, t: SimTime, action: &ControlAction) -> bool {
        match action {
            ControlAction::Start {
                job,
                nodes_override,
                freq_ghz,
                node_cap_watts,
            } => self.start_job(*job, *nodes_override, *freq_ghz, *node_cap_watts),
            ControlAction::SetJobLimit { limit } => {
                self.control.job_limit = *limit;
                true
            }
            ControlAction::SetDefaultFrequency { freq_ghz } => {
                // Quantize at set time so every start sees a legal
                // operating point without re-quantizing.
                self.control.default_freq_ghz =
                    freq_ghz.map(|f| self.power_model.dvfs().cpu().quantize_frequency(f));
                true
            }
            ControlAction::SetBackfillDepth { depth } => {
                self.control.backfill_depth = *depth;
                true
            }
            ControlAction::ResizeBudget { watts } => {
                if let Some(budget) = self.budget.as_mut() {
                    if budget.resize_traced(*watts, t, &mut self.obs.bus).is_ok() {
                        self.obs.registry.incr("power/budget_resizes", 1);
                    }
                }
                true
            }
            ControlAction::SetIdleShutdown { policy } => {
                self.control.shutdown_override = Some(policy.clone());
                true
            }
            ControlAction::PowerOffIdle {
                idle_threshold,
                min_idle_reserve,
                shutdown_time,
            } => {
                self.power_off_idle(t, *idle_threshold, *min_idle_reserve, *shutdown_time);
                true
            }
            ControlAction::EmergencyShed {
                observed_watts,
                limit_watts,
                target_watts,
                victim_order,
                cooldown,
            } => {
                self.emergency_shed(
                    t,
                    *observed_watts,
                    *limit_watts,
                    *target_watts,
                    *victim_order,
                    *cooldown,
                );
                true
            }
        }
    }

    /// Applies a batch of external (learned-controller) actions at the
    /// current barrier, in order, and returns how many were accepted.
    /// Each action is validated, counted, and recorded on the `Control`
    /// trace category.
    pub fn apply_external_actions(&mut self, actions: &[ControlAction]) -> u32 {
        let now = self.events.now();
        let mut applied = 0;
        for action in actions {
            if self.apply_action(now, action, ActionSource::External) {
                applied += 1;
            }
        }
        applied
    }

    /// A fixed-interval observation for an external controller: queue
    /// pressure, fleet state, power posture, and fault state, read from
    /// the engine's existing bookkeeping without mutating anything.
    #[must_use]
    pub fn control_observation(&self) -> Observation {
        let now = self.events.now();
        let (system_watts, stale) = self.observed_watts(now);
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
            budget_watts: self
                .budget
                .as_ref()
                .map_or(f64::INFINITY, PowerBudget::total_watts),
            headroom_watts: self
                .budget
                .as_ref()
                .map_or(f64::INFINITY, PowerBudget::headroom_watts),
            temperature_c: self.ambient_c(now),
            telemetry_stale: stale.is_some(),
            emergency_armed: self
                .config
                .emergency
                .as_ref()
                .is_some_and(|em| em.armed_at(now)),
            start_hold: now < self.start_hold_until,
            price_per_mwh: self.grid.as_ref().map_or(0.0, GridState::price),
            carbon_g_per_kwh: self.grid.as_ref().map_or(0.0, GridState::carbon),
            dr_active: self.grid.as_ref().is_some_and(GridState::dr_active),
            pue: match &self.grid {
                Some(g) => g.pue(),
                None => self.config.facility.as_ref().map_or(1.0, |f| f.pue(now)),
            },
        }
    }

    /// The observed system draw at `now` between ticks, and the safety
    /// margin while telemetry is stale.
    fn observed_watts(&self, now: SimTime) -> (f64, Option<f64>) {
        let nameplate = || nameplate_watts(&self.system, &self.nodes, &self.jobs);
        self.faults
            .observed(now, self.meter.system_watts(), nameplate)
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
            energy_joules: self.meter.system_energy_joules(now),
            completed: agg.count,
            slowdown_sum: agg.slowdown_sum,
            violation_secs: self.violation_accum_secs,
            emergency_kills: agg.emergency_kills,
        }
    }

    /// The idle-shutdown policy in effect: the control-plane override
    /// when one is set (`Some(None)` disables shutdown entirely), else
    /// the configured policy.
    fn effective_shutdown(&self) -> Option<&ShutdownPolicy> {
        match &self.control.shutdown_override {
            Some(o) => o.as_ref(),
            None => self.config.shutdown.as_ref(),
        }
    }

    /// Concurrency admission: the control plane's job-limit knob, which
    /// [`ClusterSim::refresh_gate_limit`] re-derives from the gate each
    /// scheduling round (ambient temperature cannot change within one).
    fn admits_start(&self) -> bool {
        self.control
            .job_limit
            .is_none_or(|l| self.jobs.running_count() < l)
    }

    /// Gate adapter: re-derives the temperature-conditioned concurrency
    /// cap and writes it through the control plane.
    fn refresh_gate_limit(&mut self) {
        let now = self.events.now();
        let limit = match &self.config.limit_gate {
            Some(gate) => gate.limit_at(self.ambient_c(now)),
            None => return,
        };
        let _ = self.apply_action(
            now,
            &ControlAction::SetJobLimit { limit: Some(limit) },
            ActionSource::Engineered,
        );
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
        let mut excess = observed - target_watts;
        // Victim ordering per policy: youngest-first (least sunk cost)
        // or most-powerful-first (fewest kills per watt).
        let mut victims: Vec<&RunningJob> = self.jobs.running().collect();
        match victim_order {
            VictimOrder::Youngest => {
                victims.sort_by_key(|r| std::cmp::Reverse(r.start.as_secs().to_bits()));
            }
            VictimOrder::MostPowerful => {
                victims.sort_by_key(|r| {
                    std::cmp::Reverse(((r.watts_per_node * f64::from(r.nodes.len())) * 1e3) as u64)
                });
            }
        }
        let victims: Vec<(JobId, u32)> = victims.iter().map(|r| (r.job.id, r.token)).collect();
        for (id, token) in victims {
            if excess <= 0.0 {
                break;
            }
            let r = self.jobs.take(id, token).expect("victim is running");
            let shed = r.watts_per_node * f64::from(r.nodes.len());
            excess -= shed;
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
        self.start_hold_until = t + cooldown;
        self.hold_resume_pending = !cooldown.is_zero();
        self.try_schedule();
    }

    /// Powers off idle nodes under the given aggressiveness knobs.
    fn power_off_idle(
        &mut self,
        t: SimTime,
        idle_threshold: SimDuration,
        min_idle_reserve: u32,
        shutdown_time: SimDuration,
    ) {
        // Keep a reserve of idle nodes for responsiveness. The O(1)
        // tally gates the candidate scan entirely: on the common tick
        // (nothing shuttable) no per-node work runs.
        let can_shut = self.nodes.idle_count().saturating_sub(min_idle_reserve);
        if can_shut == 0 {
            return;
        }
        for n in self.nodes.shutdown_candidates(t, idle_threshold, can_shut) {
            self.nodes.drain(n);
            self.obs.registry.incr("rm/shutdowns", 1);
            // Shutdown takes effect after a short drain.
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
        if self.events.now() < self.start_hold_until {
            return;
        }
        // The gate may cap how many jobs can run concurrently: refresh
        // the control plane's job-limit knob from it, then check the knob.
        self.refresh_gate_limit();
        if !self.admits_start() {
            return;
        }
        let now = self.events.now();
        let headroom = self
            .budget
            .as_ref()
            .map_or(f64::INFINITY, PowerBudget::headroom_watts);
        let budget_total = self
            .budget
            .as_ref()
            .map_or(f64::INFINITY, PowerBudget::total_watts);
        // Graceful degradation: past the staleness bound the scheduler
        // sees the conservative estimate, and per-job prediction falls
        // back to nameplate peak plus the safety margin.
        let (observed_watts, stale_margin) = self.observed_watts(now);
        let decisions = {
            // Build the prediction closure over immutable parts.
            let predictor = &self.predictor;
            let history = &self.history;
            let ambient = self.ambient_c(now);
            let nominal = self.system.spec().node.nominal_watts;
            let peak = self.system.spec().node.peak_watts;
            let predict = move |job: &Job| match stale_margin {
                Some(margin) => peak * (1.0 + margin),
                None => predictor
                    .predict_watts_per_node(job, history, ambient)
                    .unwrap_or(nominal),
            };
            let view = SchedView {
                now,
                free_nodes: self.nodes.free_count(),
                off_nodes: self.nodes.off_count(),
                total_nodes: self.system.spec().total_nodes(),
                running: self.jobs.summaries(),
                power_headroom_watts: headroom,
                power_budget_watts: budget_total,
                system_watts: observed_watts,
                temperature_c: self.ambient_c(now),
                dvfs: self.power_model.dvfs(),
                predicted_watts_per_node: &predict,
            };
            // Backfill-depth knob: cap how far into the queue the policy
            // may look. `None` hands the policy the full queue, the
            // pre-refactor behaviour.
            let queue = self.jobs.queued();
            let queue = match self.control.backfill_depth {
                Some(d) => &queue[..queue.len().min(d as usize)],
                None => queue,
            };
            self.policy.schedule(&view, queue)
        };
        let mut started_any = false;
        for d in decisions {
            // The concurrency gate bounds *each* start, not just round
            // entry — one scheduling round may otherwise blow through the
            // limit with a batch of starts.
            if !self.admits_start() {
                break;
            }
            match d {
                Decision::Start {
                    job,
                    nodes_override,
                    freq_ghz,
                    node_cap_watts,
                } => {
                    let started = self.apply_action(
                        now,
                        &ControlAction::Start {
                            job,
                            nodes_override,
                            freq_ghz,
                            node_cap_watts,
                        },
                        ActionSource::Engineered,
                    );
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
        let Some(sd) = self.effective_shutdown().cloned() else {
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
            self.meter_node(n, NodePowerState::Booting, now);
            self.obs.registry.incr("rm/boots", 1);
            self.events.schedule_in(sd.boot_time, Ev::BootDone(n));
        }
    }

    /// Records a start rejection on the trace (mask-gated, no-op when
    /// scheduler tracing is off).
    fn trace_reject(&mut self, id: JobId, reason: RejectReason) {
        self.obs.bus.record(
            self.events.now(),
            TraceEvent::StartRejected { job: id.0, reason },
        );
    }

    fn start_job(
        &mut self,
        id: JobId,
        nodes_override: Option<u32>,
        freq_ghz: Option<f64>,
        node_cap_watts: Option<f64>,
    ) -> bool {
        // The control plane's default-frequency knob applies to any start
        // without an explicit frequency request. Engineered runs never
        // set it, so the default path is untouched.
        let freq_ghz = freq_ghz.or(self.control.default_freq_ghz);
        // A start for a job that is not at the head of the queue is a
        // backfill decision (recorded on the trace, not used otherwise).
        let backfilled = self.jobs.queued().first().is_some_and(|h| h.id != id);
        // The job stays queued until the start commits, so a rejection
        // leaves the queue as it was.
        let Some(job) = self.jobs.queued().iter().find(|j| j.id == id) else {
            self.obs.registry.incr("sched/start_unknown_job", 1);
            self.trace_reject(id, RejectReason::UnknownJob);
            return false;
        };
        let now = self.events.now();
        // Moldable override.
        let mut nodes_requested = job.nodes;
        let mut base_runtime = job.base_runtime;
        if let (Some(n), Some(m)) = (nodes_override, job.moldable.as_ref()) {
            let n = n.clamp(m.min_nodes, m.max_nodes);
            base_runtime = m.runtime_on(n, job.nodes, job.base_runtime);
            nodes_requested = n;
        }
        if nodes_requested > self.nodes.free_count() {
            self.obs.registry.incr("sched/start_insufficient_nodes", 1);
            self.trace_reject(id, RejectReason::InsufficientNodes);
            return false;
        }

        // Operating point: frequency request then hardware cap.
        let spec_base = self.system.spec().node.cpu.base_freq_ghz;
        let demand_freq = freq_ghz.unwrap_or(spec_base);
        let beta = job.app.mean_cpu_boundness();
        let util = job.app.mean_utilization();
        let op = match node_cap_watts {
            Some(cap) => self.power_model.apply_cap(cap, demand_freq, beta),
            None => {
                // Quantize only explicit requests; the default (base) is a
                // legal operating point on every CPU.
                let f = match freq_ghz {
                    Some(req) => self.power_model.dvfs().cpu().quantize_frequency(req),
                    None => spec_base,
                };
                epa_power::node_power::CappedOperatingPoint {
                    freq_ghz: f,
                    watts: self.power_model.dvfs().busy_watts(f),
                    slowdown: self.power_model.dvfs().slowdown(f, beta),
                }
            }
        };
        // Actual per-node draw scales with utilization.
        let idle = self.system.spec().node.idle_watts;
        let mut op = op;
        let mut watts_per_node = idle + util * (op.watts - idle);

        // Budget admission (engine-enforced). A job whose demand exceeds
        // the *total* budget can never start as requested — production
        // sites cap such jobs instead of starving the queue (KAUST's
        // static CAPMC caps, Trinity's admin caps), so the engine programs
        // a per-node ceiling that makes the job fit and retries.
        let mut capped_to_fit = false;
        let grant = if let Some(budget) = self.budget.as_mut() {
            let mut need = watts_per_node * f64::from(nodes_requested);
            if need > budget.total_watts() {
                let per_node_ceiling = budget.total_watts() / f64::from(nodes_requested);
                // Cap the *busy* draw such that the utilization-weighted
                // draw stays under the ceiling.
                let busy_cap = if util > 0.0 {
                    idle + (per_node_ceiling - idle) / util
                } else {
                    per_node_ceiling
                };
                let capped = self.power_model.apply_cap(busy_cap, op.freq_ghz, beta);
                let capped_wpn = idle + util * (capped.watts - idle);
                if capped_wpn * f64::from(nodes_requested) <= budget.total_watts() + 1e-9 {
                    op = capped;
                    watts_per_node = capped_wpn;
                    need = capped_wpn * f64::from(nodes_requested);
                    capped_to_fit = true;
                    self.obs.registry.incr("sched/start_capped_to_fit", 1);
                }
            }
            let gid = GrantId(job.id.0);
            match budget.request_traced(gid, need, now, &mut self.obs.bus) {
                Ok(()) => Some(gid),
                Err(_) => {
                    self.obs.registry.incr("sched/start_power_denied", 1);
                    self.trace_reject(id, RejectReason::PowerDenied);
                    return false;
                }
            }
        } else {
            None
        };

        // Allocation, avoiding maintenance-affected nodes when layout-aware.
        // The exclusion leaves unavailability alone: affected nodes that
        // are off or booting stay out of the free pool.
        let est_run = SimDuration::from_secs(job.walltime_estimate.as_secs() * op.slowdown);
        let affected: Option<NodeSet> = self.config.layout.as_ref().map(|layout| {
            layout
                .affected_nodes(&self.system, now, now + est_run)
                .into_iter()
                .collect()
        });
        let t_alloc = self.obs.profiler.start();
        let alloc_result = self.nodes.allocate(nodes_requested, affected.as_ref());
        self.obs.profiler.stop(Scope::Allocator, t_alloc);
        let nodes = match alloc_result {
            Ok(nodes) => nodes,
            Err(_) => {
                if let (Some(budget), Some(g)) = (self.budget.as_mut(), grant) {
                    let _ = budget.release_traced(g, now, &mut self.obs.bus);
                }
                self.obs.registry.incr("sched/start_alloc_failed", 1);
                self.trace_reject(id, RejectReason::AllocFailed);
                return false;
            }
        };

        // Program the operating point through the (possibly unreliable)
        // actuator when the start needs a cap or frequency write. On
        // failure the start is rolled back, the job stays queued, and any
        // node past the consecutive-failure threshold is fenced; on
        // success the accumulated retry backoff delays the job.
        let mut actuation_delay = SimDuration::ZERO;
        if node_cap_watts.is_some() || freq_ghz.is_some() || capped_to_fit {
            if let Some(act) = self.faults.actuator() {
                let report = act.program_caps_traced(
                    now,
                    &nodes.to_vec(),
                    Some(op.watts),
                    &mut self.obs.bus,
                );
                self.obs
                    .registry
                    .incr("faults/actuator_attempts", report.attempts);
                if report.succeeded {
                    actuation_delay = report.total_delay;
                    self.obs
                        .registry
                        .observe("rm/actuation_delay_secs", report.total_delay.as_secs());
                } else {
                    self.obs.registry.incr("faults/actuator_cap_failures", 1);
                    self.obs.registry.incr("sched/start_actuation_failed", 1);
                    self.nodes.release_unoccupied(&nodes);
                    if let (Some(budget), Some(g)) = (self.budget.as_mut(), grant) {
                        let _ = budget.release_traced(g, now, &mut self.obs.bus);
                    }
                    for n in report.fence {
                        self.obs.registry.incr("faults/fenced_nodes", 1);
                        self.take_node_down(n, now, self.faults.repair_time());
                    }
                    self.trace_reject(id, RejectReason::ActuationFailed);
                    return false;
                }
            }
        }

        // Physical runtime under the operating point, clipped by walltime.
        let slowdown_fn = {
            let dvfs = self.power_model.dvfs().clone();
            let f = op.freq_ghz;
            move |beta: f64| dvfs.slowdown(f, beta)
        };
        let true_run = {
            let mut j = job.clone();
            j.base_runtime = base_runtime;
            j.runtime_under(slowdown_fn)
        } + actuation_delay;
        let killed = true_run > job.walltime_estimate;
        let run = if killed {
            job.walltime_estimate
        } else {
            true_run
        };
        let end = now + run;
        let estimated_end = now + job.walltime_estimate;

        // Phase-resolved power: the job draws a different wattage in each
        // phase (utilization differs), producing the intra-job power
        // fluctuations the survey's introduction motivates. Phase k lasts
        // base × wₖ × slowdown(f, βₖ) and draws idle + utilₖ·(busy − idle).
        let idle_w = self.system.spec().node.idle_watts;
        let phases = job.normalized_phases();
        let phase_watts: Vec<f64> = phases
            .iter()
            .map(|p| idle_w + p.utilization.clamp(0.0, 1.0) * (op.watts - idle_w))
            .collect();
        let dvfs = self.power_model.dvfs();
        let phase_ends: Vec<SimTime> = {
            let mut acc = 0.0;
            phases
                .iter()
                .map(|p| {
                    acc += base_runtime.as_secs()
                        * p.weight
                        * dvfs.slowdown(op.freq_ghz, p.cpu_boundness);
                    now + SimDuration::from_secs(acc)
                })
                .collect()
        };

        let first_watts = phase_watts.first().copied().unwrap_or(watts_per_node);
        let wait_secs = (now - job.submit).as_secs();
        self.nodes.occupy(&nodes);
        // One allocation group per running job: phase changes retarget
        // the whole allocation in O(1), and closing the group at job end
        // yields the job's energy directly.
        let meter_group = self.meter.open_group(&nodes, now, first_watts);
        self.obs.registry.incr("jobs/started", 1);
        self.obs.registry.observe("sched/wait_secs", wait_secs);
        self.obs.bus.record(
            now,
            TraceEvent::JobStarted {
                job: id.0,
                nodes: nodes.len(),
                watts_per_node,
                wait_secs,
                backfilled,
                capped_to_fit,
            },
        );
        let granted_watts = grant.and_then(|g| self.budget.as_ref()?.grant_watts(g));
        let token = self.jobs.start(id, granted_watts, |job, token| RunningJob {
            job,
            token,
            nodes,
            start: now,
            estimated_end,
            watts_per_node,
            killed_at_walltime: killed,
            grant,
            base_effective: base_runtime,
            true_run_secs: true_run.as_secs(),
            phase_watts,
            meter_group,
        });
        self.events.schedule_at(end, Ev::Finish(id, token));
        // Stage the phase transitions that occur before the job ends.
        for (k, &t_k) in phase_ends.iter().enumerate() {
            if k + 1 < phases.len() && t_k < end {
                self.events
                    .schedule_at(t_k, Ev::PhaseChange(id, token, k + 1));
            }
        }
        true
    }

    /// A running job departs at `t`: killed for `kill`, or at its natural
    /// end (or walltime limit) when `None`.
    fn complete(&mut self, r: RunningJob, t: SimTime, kill: Option<KillReason>) {
        let run_secs = (t - r.start).as_secs();
        self.nodes.vacate(&r.nodes, t);
        let idle_watts = self.power_model.watts(
            NodePowerState::Idle,
            0.0,
            self.system.spec().node.cpu.base_freq_ghz,
        );
        // Closing the group folds the job's accumulated energy (shared by
        // every member node), resets the nodes to idle draw, and returns
        // the job's total energy — no per-node mark/diff needed.
        let energy = self
            .meter
            .close_group(r.meter_group, &r.nodes, t, idle_watts);
        let id = r.job.id;
        let reason = kill.or(r.killed_at_walltime.then_some(KillReason::Walltime));
        let event = match reason {
            Some(reason) => TraceEvent::JobKilled {
                job: id.0,
                reason,
                run_secs,
            },
            None => TraceEvent::JobFinished {
                job: id.0,
                run_secs,
                energy_joules: energy,
            },
        };
        self.obs.bus.record(t, event);
        if let (Some(budget), Some(g)) = (self.budget.as_mut(), r.grant) {
            let _ = budget.release_traced(g, t, &mut self.obs.bus);
        }
        if self.config.record_history && run_secs > 0.0 {
            let wpn = energy / run_secs / f64::from(r.nodes.len());
            self.history
                .record_job(&r.job, run_secs, wpn, self.ambient_c(t));
        }
        self.obs.registry.incr("jobs/completed", 1);
        if r.killed_at_walltime {
            self.obs.registry.incr("jobs/walltime_kills", 1);
        }
        // Node ids are materialized only when completions are retained;
        // the aggregates never read them.
        let node_ids = if self.config.retain_completed {
            r.nodes.iter().map(|n| n.0).collect()
        } else {
            Vec::new()
        };
        self.jobs.record(CompletedJob {
            id,
            nodes: r.nodes.len(),
            wait_secs: (r.start - r.job.submit).as_secs(),
            run_secs,
            energy_joules: energy,
            killed_at_walltime: reason == Some(KillReason::Walltime),
            killed_by_emergency: kill == Some(KillReason::Emergency),
            killed_by_failure: kill == Some(KillReason::Failure),
            node_ids,
            start_secs: r.start.as_secs(),
        });
        // Requeue killed work (Tokyo Tech: avoid *losing* jobs to power
        // actions). With checkpointing the continuation resumes from the
        // last checkpoint; without it, from the beginning.
        if kill.is_some() && self.config.requeue_killed {
            let frac = if r.true_run_secs > 0.0 {
                (run_secs / r.true_run_secs).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let base_done = r.base_effective.as_secs() * frac;
            let saved = match self.config.checkpoint_interval {
                Some(ckpt) if !ckpt.is_zero() => {
                    (base_done / ckpt.as_secs()).floor() * ckpt.as_secs()
                }
                _ => 0.0,
            };
            let remaining = (r.base_effective.as_secs() - saved).max(1.0);
            let mut continuation = r.job;
            continuation.base_runtime = SimDuration::from_secs(remaining);
            continuation.nodes = r.nodes.len();
            continuation.moldable = None; // the continuation is rigid
            continuation.submit = t;
            self.obs.registry.incr("jobs/requeued", 1);
            self.obs.bus.record(
                t,
                TraceEvent::JobRequeued {
                    job: id.0,
                    remaining_secs: remaining,
                },
            );
            self.jobs.queue(continuation);
        }
    }

    fn on_power_tick(&mut self, t: SimTime) {
        let watts = self.meter.system_watts();
        self.obs.registry.incr("rm/power_ticks", 1);
        // What the control plane *sees* — subject to sensor dropout,
        // stuck-at windows, and the staleness fallback. Identical to
        // `watts` when sensor faults are off.
        let nameplate = || nameplate_watts(&self.system, &self.nodes, &self.jobs);
        let observed = self.faults.sample(t, watts, nameplate, &mut self.obs);
        // Budget violation accounting against the *live* budget (demand-
        // response resizes move it during the run). This is ground truth,
        // deliberately independent of what the sensors claim.
        if let Some(limit) = self.budget.as_ref().map(PowerBudget::total_watts) {
            let dt = (t - self.last_tick).as_secs();
            if watts > limit + 1e-6 {
                self.violation_accum_secs += dt;
            }
        }
        // Grid co-simulation settles the same interval (it reads
        // `last_tick` for its dt), then steers the budget target.
        self.grid_tick(t, watts);
        self.last_tick = t;

        // Emergency response (RIKEN) and idle shutdown (Mämmelä / Tokyo
        // Tech), both through the unified action apply path — the same
        // funnel a learned controller uses.
        self.engineered_tick_actions(t, observed);
    }

    /// The engineered emergency and idle-shutdown policies emit
    /// [`ControlAction`]s through the unified apply path.
    fn engineered_tick_actions(&mut self, t: SimTime, observed: f64) {
        // Emergency response drives on *observed* power — a stale sensor
        // makes the response conservative (the fallback estimate errs
        // high), never blind.
        if let Some(em) = self.config.emergency.clone() {
            if em.should_respond(t, observed) {
                let _ = self.apply_action(
                    t,
                    &ControlAction::EmergencyShed {
                        observed_watts: observed,
                        limit_watts: em.limit_watts,
                        target_watts: em.target_watts(),
                        victim_order: em.victim_order,
                        cooldown: em.start_cooldown,
                    },
                    ActionSource::Engineered,
                );
            }
        }
        // Idle shutdown honours the control plane's override (a learned
        // controller can retune or disable it); seasonal gating follows
        // the facility's calendar (its weather model's start day).
        if let Some(sd) = self.effective_shutdown().cloned() {
            let doy0 = self
                .config
                .facility
                .as_ref()
                .map_or(0, |f| f.config().weather.start_day_of_year);
            if sd.season_active_on(t, doy0) {
                let _ = self.apply_action(
                    t,
                    &ControlAction::PowerOffIdle {
                        idle_threshold: sd.idle_threshold,
                        min_idle_reserve: sd.min_idle_reserve,
                        shutdown_time: sd.shutdown_time,
                    },
                    ActionSource::Engineered,
                );
            }
        }
    }

    fn finalize(mut self) -> (SimOutcome, ObsBundle) {
        let end = self.events.now().max(self.config.horizon);
        let span = end.as_secs().max(1e-9);
        let total_nodes = f64::from(self.system.spec().total_nodes());
        self.obs
            .registry
            .incr("sim/events_processed", self.events.processed());
        let energy = self.meter.system_energy_joules(end);
        let peak = self.meter.peak_system_watts(end);
        let avg = self.meter.avg_system_watts(end);
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
            budget_violation_secs: self.violation_accum_secs,
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
            power_trace: self
                .meter
                .power_trace_rows(end)
                .into_iter()
                .map(|(t, w)| (t.as_secs(), w))
                .collect(),
        };
        (outcome, bundle)
    }
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
