//! The control plane: the knobs an external (learned) controller may
//! set, and the one vocabulary it sets them with.
//!
//! The survey's Table I shows sites pulling five levers: scheduling
//! policy, DVFS, idle shutdown, capping and emergency response. The
//! engine models each lever once, as an operation: the start (`plan`,
//! then `commit` or `reject`), the budget resize, the emergency shed, the
//! idle power-off, and the knobs held here. The engineered mechanisms
//! (the scheduling policy, the budget schedule, the grid twin,
//! `EmergencyPolicy`, `ShutdownPolicy`, `JobLimitGate`) call those
//! operations directly and record nothing of their own.
//!
//! An external controller (see [`crate::env`]) submits [`ControlAction`]s
//! through `ClusterSim::apply_external_actions`, which validates each
//! one, executes it over the same operations, counts it under
//! `control/actions_applied` or `control/actions_rejected`, and records
//! it on the `Control` trace category. The engine's physical constraints
//! (allocation, budget, quantized frequencies) hold for both callers, so
//! a bad learner can be unprofitable but never corrupting.
//!
//! The knobs in force (the external job limit, the default DVFS
//! frequency and the idle-shutdown policy) form the engine's `control`
//! snapshot section. Restore checks each knob with the rule that guards
//! the action setting it, so a crafted frame cannot install a knob that
//! no action could.

use crate::emergency::VictimOrder;
use crate::shutdown::ShutdownPolicy;
use epa_obs::ControlKind;
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use serde::Serialize;

/// One control decision from an external (learned) controller. "Set"
/// variants with `None` clear the knob back to its engine default;
/// `PowerOffIdle` and `EmergencyShed` act immediately.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ControlAction {
    /// Cap the number of concurrently running jobs (`None` = uncapped).
    /// Invalid when a concurrency gate is configured: the gate owns the
    /// limit then.
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
    /// Resize the facility power budget (demand response). Invalid
    /// without a configured budget.
    ResizeBudget {
        /// New budget total, watts.
        watts: f64,
    },
    /// Replace the idle-shutdown policy in force; `None` disables
    /// shutdown. The configured policy comes back only with a new run.
    SetIdleShutdown {
        /// The new policy, or `None` to disable shutdown.
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
            ControlAction::SetJobLimit { .. } => ControlKind::JobLimit,
            ControlAction::SetDefaultFrequency { .. } => ControlKind::DefaultFrequency,
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
            ControlAction::SetJobLimit { limit } => limit.map_or(-1.0, |l| l as f64),
            ControlAction::SetDefaultFrequency { freq_ghz } => freq_ghz.unwrap_or(-1.0),
            ControlAction::ResizeBudget { watts } => *watts,
            ControlAction::SetIdleShutdown { policy } => {
                policy.as_ref().map_or(-1.0, |p| p.idle_threshold.as_secs())
            }
            ControlAction::PowerOffIdle { idle_threshold, .. } => idle_threshold.as_secs(),
            ControlAction::EmergencyShed { target_watts, .. } => *target_watts,
        }
    }

    /// Whether the engine may execute the action on a machine with or
    /// without a budget and a concurrency gate: every payload must be
    /// physical, a resize needs a budget, and a job limit needs the gate
    /// not to own it. `ControlPlane::restore_from` holds the knobs in a
    /// snapshot to the same rule.
    pub(crate) fn is_valid(&self, has_budget: bool, has_gate: bool) -> bool {
        match self {
            ControlAction::SetJobLimit { limit } => !has_gate && limit.is_none_or(|l| l >= 1),
            ControlAction::SetDefaultFrequency { freq_ghz } => {
                freq_ghz.is_none_or(|f| f.is_finite() && f > 0.0)
            }
            ControlAction::ResizeBudget { watts } => {
                has_budget && watts.is_finite() && *watts > 0.0
            }
            ControlAction::SetIdleShutdown { policy } => {
                policy.as_ref().is_none_or(ShutdownPolicy::is_valid)
            }
            ControlAction::PowerOffIdle {
                idle_threshold,
                shutdown_time,
                ..
            } => idle_threshold.as_secs() >= 0.0 && shutdown_time.as_secs() > 0.0,
            ControlAction::EmergencyShed {
                observed_watts,
                target_watts,
                limit_watts,
                ..
            } => {
                observed_watts.is_finite()
                    && target_watts.is_finite()
                    && *target_watts >= 0.0
                    && target_watts <= limit_watts
            }
        }
    }
}

/// The knobs in force, which the engine consults: the external job
/// limit, the default DVFS frequency and the idle-shutdown policy.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ControlPlane {
    /// Cap on concurrently running jobs, set only externally. A
    /// configured concurrency gate takes its place.
    pub(crate) job_limit: Option<usize>,
    /// Default DVFS frequency for new starts, GHz (already quantized).
    pub(crate) default_freq_ghz: Option<f64>,
    /// The idle-shutdown policy in force: the configured one until an
    /// external `SetIdleShutdown` replaces it.
    pub(crate) shutdown: Option<ShutdownPolicy>,
}

impl ControlPlane {
    /// The knobs at the start of a run, under the configured shutdown
    /// policy.
    pub(crate) fn new(shutdown: Option<ShutdownPolicy>) -> Self {
        ControlPlane {
            job_limit: None,
            default_freq_ghz: None,
            shutdown,
        }
    }

    /// Encodes the `control` section: three options.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.opt(self.job_limit.as_ref(), |w, &l| w.usize(l));
        w.opt(self.default_freq_ghz.as_ref(), |w, &f| w.f64(f));
        w.opt(self.shutdown.as_ref(), |w, p| {
            for d in [p.idle_threshold, p.shutdown_time, p.boot_time] {
                w.f64(d.as_secs());
            }
            w.u32(p.min_idle_reserve);
            w.opt(p.season.as_ref(), |w, &(s, e)| {
                w.u32(s);
                w.u32(e);
            });
        });
    }

    /// Decodes a section written by [`ControlPlane::snapshot_into`]. A
    /// knob that the action setting it could not set on this machine is
    /// `Corrupt`.
    pub(crate) fn restore_from(
        r: &mut SnapReader<'_>,
        has_gate: bool,
    ) -> Result<Self, SnapshotError> {
        let plane = ControlPlane {
            job_limit: r.opt(SnapReader::usize)?,
            default_freq_ghz: r.opt(SnapReader::f64)?,
            shutdown: r.opt(|r| {
                Ok(ShutdownPolicy {
                    idle_threshold: r.duration()?,
                    shutdown_time: r.duration()?,
                    boot_time: r.duration()?,
                    min_idle_reserve: r.u32()?,
                    season: r.opt(|r| Ok((r.u32()?, r.u32()?)))?,
                })
            })?,
        };
        let knobs = [
            (plane.job_limit).map(|l| ControlAction::SetJobLimit { limit: Some(l) }),
            (plane.default_freq_ghz)
                .map(|f| ControlAction::SetDefaultFrequency { freq_ghz: Some(f) }),
            (plane.shutdown.clone()).map(|p| ControlAction::SetIdleShutdown { policy: Some(p) }),
        ];
        match knobs.iter().flatten().find(|a| !a.is_valid(true, has_gate)) {
            Some(knob) => Err(SnapshotError::Corrupt {
                detail: format!("control knob {knob:?} could not have been set"),
            }),
            None => Ok(plane),
        }
    }
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
    fn control_plane_snapshot_roundtrip() {
        let planes = [
            ControlPlane::new(None),
            ControlPlane {
                job_limit: Some(7),
                default_freq_ghz: Some(1.5),
                shutdown: None,
            },
            ControlPlane::new(Some(ShutdownPolicy {
                season: Some((120, 270)),
                ..ShutdownPolicy::default()
            })),
        ];
        let restore = |plane: &ControlPlane, has_gate| {
            let mut w = SnapWriter::new();
            w.section("control");
            plane.snapshot_into(&mut w);
            let bytes = w.finish(1);
            let mut r = SnapReader::open(&bytes, 1).expect("open");
            r.section("control").expect("section");
            ControlPlane::restore_from(&mut r, has_gate)
        };
        for plane in &planes {
            assert_eq!(restore(plane, false).as_ref(), Ok(plane));
        }
        // A gate owns the limit, so no action could have set one.
        assert!(matches!(
            restore(&planes[1], true),
            Err(SnapshotError::Corrupt { .. })
        ));
        assert_eq!(restore(&planes[2], true).as_ref(), Ok(&planes[2]));
    }
}
