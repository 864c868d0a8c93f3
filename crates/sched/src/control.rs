//! The unified control plane: every knob the engine exposes — start
//! decisions, DVFS defaults, idle shutdown, budget resizes, backfill
//! depth, emergency shed — expressed as one [`ControlAction`] vocabulary
//! applied through a single engine path.
//!
//! The survey's Table I shows sites pulling five separate levers
//! (scheduling policy, DVFS, shutdown, capping, emergency response);
//! before this module each lever had its own hardwired code path in
//! `sched::engine`. Now the engineered mechanisms (`ShutdownPolicy`,
//! `EmergencyPolicy`, the governor, `JobLimitGate`) are *adapters* that
//! emit `ControlAction`s, and learned controllers (see [`crate::env`])
//! submit the same actions externally. Both go through
//! `ClusterSim::apply_action`, so the engine's physical-constraint
//! enforcement (allocation, budget, quantized frequencies) is identical
//! for both — a bad learner can be unprofitable but never corrupting.
//!
//! Determinism contract: actions from [`ActionSource::Engineered`] record
//! nothing (no trace events, no counters), so an engineered run through
//! the adapter path is byte-identical to the pre-refactor engine — the
//! `control` rows of `tests/control_equivalence.rs` pin outcome and trace
//! fingerprints recorded from the former inline dispatch.

use crate::emergency::VictimOrder;
use crate::shutdown::ShutdownPolicy;
use epa_obs::ControlKind;
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::job::JobId;
use serde::Serialize;

/// One control decision, from an engineered adapter or an external
/// (learned) controller. "Set" variants with `None` clear the knob back
/// to its engine default; imperative variants (`Start`, `PowerOffIdle`,
/// `EmergencyShed`) act immediately.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ControlAction {
    /// Start a queued job now (the scheduler-policy decision, routed
    /// through the same apply path). The engine still enforces node
    /// availability, the power budget, and frequency quantization.
    Start {
        /// The queued job to start.
        job: JobId,
        /// Moldable node-count override.
        nodes_override: Option<u32>,
        /// Requested DVFS frequency, GHz (quantized to the ladder).
        freq_ghz: Option<f64>,
        /// Per-node power cap to program, watts.
        node_cap_watts: Option<f64>,
    },
    /// Cap the number of concurrently running jobs (`None` = uncapped).
    SetJobLimit {
        /// Maximum running jobs, if any.
        limit: Option<usize>,
    },
    /// Default DVFS frequency for starts that do not request one
    /// (`None` = the hardware base frequency). Quantized at apply time.
    SetDefaultFrequency {
        /// Frequency in GHz, if overridden.
        freq_ghz: Option<f64>,
    },
    /// How deep into the queue the scheduling policy may look
    /// (`None` = the whole queue).
    SetBackfillDepth {
        /// Queue prefix length visible to the policy, if limited.
        depth: Option<u32>,
    },
    /// Resize the facility power budget (demand response).
    ResizeBudget {
        /// New budget total, watts.
        watts: f64,
    },
    /// Override the idle-shutdown policy: `Some(Some(p))` replaces it,
    /// `Some(None)` disables shutdown entirely. (The outer level is the
    /// action; clearing the override is not expressible — engineered
    /// configuration resumes only on reset.)
    SetIdleShutdown {
        /// The override: a policy, or `None` to disable shutdown.
        policy: Option<ShutdownPolicy>,
    },
    /// Power off idle nodes now, under the given aggressiveness knobs.
    PowerOffIdle {
        /// Minimum continuous idle time before a node is eligible.
        idle_threshold: SimDuration,
        /// Idle nodes always kept on for responsiveness.
        min_idle_reserve: u32,
        /// Time until a shut node stops drawing power.
        shutdown_time: SimDuration,
    },
    /// Shed running jobs until projected draw falls to `target_watts`,
    /// then hold new starts for `cooldown`.
    EmergencyShed {
        /// The draw that triggered the shed, watts.
        observed_watts: f64,
        /// The breached limit, watts (recorded on the breach trace).
        limit_watts: f64,
        /// Shed until projected draw is at or below this, watts.
        target_watts: f64,
        /// Which running jobs die first.
        victim_order: VictimOrder,
        /// Start-hold duration after the shed.
        cooldown: SimDuration,
    },
}

impl ControlAction {
    /// The action's kind tag (for the control trace).
    #[must_use]
    pub fn kind(&self) -> ControlKind {
        match self {
            ControlAction::Start { .. } => ControlKind::Start,
            ControlAction::SetJobLimit { .. } => ControlKind::JobLimit,
            ControlAction::SetDefaultFrequency { .. } => ControlKind::DefaultFrequency,
            ControlAction::SetBackfillDepth { .. } => ControlKind::BackfillDepth,
            ControlAction::ResizeBudget { .. } => ControlKind::BudgetResize,
            ControlAction::SetIdleShutdown { .. } => ControlKind::IdleShutdown,
            ControlAction::PowerOffIdle { .. } => ControlKind::PowerOffIdle,
            ControlAction::EmergencyShed { .. } => ControlKind::EmergencyShed,
        }
    }

    /// A kind-specific scalar summary for the control trace (`-1.0`
    /// encodes "cleared" for the `Set*` knobs).
    #[must_use]
    pub fn trace_value(&self) -> f64 {
        match self {
            ControlAction::Start { job, .. } => job.0 as f64,
            ControlAction::SetJobLimit { limit } => limit.map_or(-1.0, |l| l as f64),
            ControlAction::SetDefaultFrequency { freq_ghz } => freq_ghz.unwrap_or(-1.0),
            ControlAction::SetBackfillDepth { depth } => depth.map_or(-1.0, f64::from),
            ControlAction::ResizeBudget { watts } => *watts,
            ControlAction::SetIdleShutdown { policy } => {
                policy.as_ref().map_or(-1.0, |p| p.idle_threshold.as_secs())
            }
            ControlAction::PowerOffIdle { idle_threshold, .. } => idle_threshold.as_secs(),
            ControlAction::EmergencyShed { target_watts, .. } => *target_watts,
        }
    }
}

/// Where a control action came from. Engineered applications must stay
/// byte-invisible (no traces, no counters); external ones are validated,
/// counted, and traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionSource {
    /// Emitted by an engine-internal adapter (shutdown, emergency,
    /// gate, budget-resize event, scheduler decision).
    Engineered,
    /// Submitted by an external controller through
    /// `ClusterSim::apply_external_actions` (e.g. a learned policy).
    External,
}

/// The control plane's persistent knob state — what `Set*` actions write
/// and the engine consults. Snapshot as its own section (schema v3), so
/// a resumed run continues under the same learned overrides.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControlState {
    /// Cap on concurrently running jobs (written by the gate adapter
    /// each round, or externally).
    pub job_limit: Option<usize>,
    /// Default DVFS frequency for new starts, GHz (already quantized).
    pub default_freq_ghz: Option<f64>,
    /// Queue prefix length visible to the scheduling policy.
    pub backfill_depth: Option<u32>,
    /// Idle-shutdown override: `Some(Some(p))` replaces the configured
    /// policy, `Some(None)` disables shutdown, `None` = no override.
    pub shutdown_override: Option<Option<ShutdownPolicy>>,
}

impl ControlState {
    /// Encodes the control section of an engine snapshot.
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        w.opt(self.job_limit.as_ref(), |w, &l| w.usize(l));
        w.opt(self.default_freq_ghz.as_ref(), |w, &f| w.f64(f));
        w.opt(self.backfill_depth.as_ref(), |w, &d| w.u32(d));
        w.opt(self.shutdown_override.as_ref(), |w, o| {
            w.opt(o.as_ref(), write_shutdown_policy);
        });
    }

    /// Decodes a section written by [`ControlState::snapshot_into`].
    pub fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ControlState {
            job_limit: r.opt(SnapReader::usize)?,
            default_freq_ghz: r.opt(SnapReader::f64)?,
            backfill_depth: r.opt(SnapReader::u32)?,
            shutdown_override: r.opt(|r| r.opt(read_shutdown_policy))?,
        })
    }
}

fn write_shutdown_policy(w: &mut SnapWriter, p: &ShutdownPolicy) {
    w.f64(p.idle_threshold.as_secs());
    w.f64(p.shutdown_time.as_secs());
    w.f64(p.boot_time.as_secs());
    w.u32(p.min_idle_reserve);
    w.opt(p.season.as_ref(), |w, &(s, e)| {
        w.u32(s);
        w.u32(e);
    });
}

fn read_shutdown_policy(r: &mut SnapReader<'_>) -> Result<ShutdownPolicy, SnapshotError> {
    Ok(ShutdownPolicy {
        idle_threshold: r.duration()?,
        shutdown_time: r.duration()?,
        boot_time: r.duration()?,
        min_idle_reserve: r.u32()?,
        season: r.opt(|r| Ok((r.u32()?, r.u32()?)))?,
    })
}

/// A fixed-interval snapshot of everything an external controller may
/// observe: queue pressure, fleet state, power posture, and fault state.
/// Built from the engine's existing bookkeeping (the same state
/// [`crate::SchedView`] exposes plus the obs registry's wait histogram) —
/// no new plumbing, and constructing one mutates nothing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Observation {
    /// Simulation time of the snapshot.
    pub t: SimTime,
    /// Jobs waiting in the queue.
    pub queue_depth: u64,
    /// Total nodes requested by waiting jobs.
    pub queued_node_demand: u64,
    /// Median job wait so far, seconds (bucket resolution).
    pub wait_p50_secs: f64,
    /// 90th-percentile job wait so far, seconds (bucket resolution).
    pub wait_p90_secs: f64,
    /// Nodes idle and allocatable.
    pub free_nodes: u32,
    /// Nodes powered off (shutdown policy).
    pub off_nodes: u32,
    /// Nodes down for repair.
    pub down_nodes: u32,
    /// Nodes mid-boot.
    pub booting_nodes: u32,
    /// Fleet size.
    pub total_nodes: u32,
    /// Jobs currently running.
    pub running_jobs: u64,
    /// Observed system draw, watts (telemetry, possibly stale).
    pub system_watts: f64,
    /// Power-budget total, watts (`inf` when unbudgeted).
    pub budget_watts: f64,
    /// Budget headroom, watts (`inf` when unbudgeted).
    pub headroom_watts: f64,
    /// Facility ambient temperature, °C.
    pub temperature_c: f64,
    /// Telemetry is past the staleness bound (engine is on conservative
    /// fallback estimates).
    pub telemetry_stale: bool,
    /// An emergency policy is armed at this time.
    pub emergency_armed: bool,
    /// Starts are held (post-emergency cooldown).
    pub start_hold: bool,
    /// Electricity price at the last grid tick, currency per MWh (0.0
    /// when the engine runs without a grid config).
    pub price_per_mwh: f64,
    /// Carbon intensity at the last grid tick, gCO₂ per kWh (0.0 when
    /// grid-less).
    pub carbon_g_per_kwh: f64,
    /// A demand-response curtailment window is currently in force.
    pub dr_active: bool,
    /// Current PUE: the cooling loop's when a grid config carries one,
    /// else the static facility model's (1.0 without either).
    pub pue: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_values_summarize_payloads() {
        assert_eq!(
            ControlAction::SetJobLimit { limit: Some(4) }.trace_value(),
            4.0
        );
        assert_eq!(
            ControlAction::SetJobLimit { limit: None }.trace_value(),
            -1.0
        );
        assert_eq!(
            ControlAction::SetDefaultFrequency {
                freq_ghz: Some(1.8)
            }
            .kind(),
            ControlKind::DefaultFrequency
        );
        assert_eq!(
            ControlAction::ResizeBudget { watts: 5e5 }.trace_value(),
            5e5
        );
    }

    #[test]
    fn control_state_snapshot_roundtrip() {
        let states = [
            ControlState::default(),
            ControlState {
                job_limit: Some(7),
                default_freq_ghz: Some(1.5),
                backfill_depth: Some(16),
                shutdown_override: Some(None),
            },
            ControlState {
                job_limit: None,
                default_freq_ghz: None,
                backfill_depth: None,
                shutdown_override: Some(Some(ShutdownPolicy {
                    season: Some((120, 270)),
                    ..ShutdownPolicy::default()
                })),
            },
        ];
        for state in states {
            let mut w = SnapWriter::new();
            w.section("control");
            state.snapshot_into(&mut w);
            let bytes = w.finish(1);
            let mut r = SnapReader::open(&bytes, 1).expect("open");
            r.section("control").expect("section");
            let back = ControlState::restore_from(&mut r).expect("restore");
            assert_eq!(back, state);
        }
    }
}
