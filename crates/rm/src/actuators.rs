//! Actuators: the control half of the monitoring/control loop.
//!
//! Every privileged operation the resource manager can perform on the
//! machine is an [`Actuation`]; the [`ActuatorLog`] records them with
//! timestamps and feeds the interaction ledger. This is the audit trail a
//! production site needs ("has there been much non-portable work?" — Q5c
//! asks precisely about such custom control paths).
//!
//! Actuators are not reliable: CAPMC calls time out, RAPL writes bounce.
//! [`RetryingActuator`] wraps command execution in the retry-with-
//! exponential-backoff policy of [`epa_faults::ActuatorFaultConfig`],
//! logs every attempt to the audit log and interaction ledger, and
//! escalates: after N *consecutive* failed cap writes on one node it
//! reports the node for fencing (Trinity-style drain of a misbehaving
//! node).

use crate::interactions::{Component, InteractionKind, InteractionLedger};
use epa_cluster::node::NodeId;
use epa_faults::{execute_with_retry_traced, ActuatorFaultConfig};
use epa_obs::{TraceBus, TraceCategory, TraceEvent};
use epa_simcore::rng::SimRng;
use epa_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A privileged control operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Actuation {
    /// Set a node's DVFS frequency (GHz).
    SetFrequency {
        /// Target node.
        node: NodeId,
        /// Frequency in GHz.
        ghz: f64,
    },
    /// Program a node power cap (watts).
    SetNodeCap {
        /// Target node.
        node: NodeId,
        /// Cap in watts; `None` clears.
        watts: Option<f64>,
    },
    /// Program the system-wide cap.
    SetSystemCap {
        /// Cap in watts; `None` clears.
        watts: Option<f64>,
    },
    /// Power a node on.
    PowerOn {
        /// Target node.
        node: NodeId,
    },
    /// Power a node off.
    PowerOff {
        /// Target node.
        node: NodeId,
    },
    /// Kill a job (emergency response).
    KillJob {
        /// Job id.
        job: u64,
    },
    /// Split a node into virtual machines (Tokyo Tech).
    SplitVm {
        /// Target node.
        node: NodeId,
        /// Number of VMs.
        vms: u32,
    },
    /// Switch facility supply source (RIKEN grid / gas turbine).
    SelectSupply {
        /// Index into the facility's supply list.
        source: usize,
    },
}

impl Actuation {
    /// Encodes the actuation as a tag byte plus its fields.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        match self {
            Actuation::SetFrequency { node, ghz } => {
                w.u8(0);
                w.u32(node.0);
                w.f64(*ghz);
            }
            Actuation::SetNodeCap { node, watts } => {
                w.u8(1);
                w.u32(node.0);
                w.opt(watts.as_ref(), |w, &v| w.f64(v));
            }
            Actuation::SetSystemCap { watts } => {
                w.u8(2);
                w.opt(watts.as_ref(), |w, &v| w.f64(v));
            }
            Actuation::PowerOn { node } => {
                w.u8(3);
                w.u32(node.0);
            }
            Actuation::PowerOff { node } => {
                w.u8(4);
                w.u32(node.0);
            }
            Actuation::KillJob { job } => {
                w.u8(5);
                w.u64(*job);
            }
            Actuation::SplitVm { node, vms } => {
                w.u8(6);
                w.u32(node.0);
                w.u32(*vms);
            }
            Actuation::SelectSupply { source } => {
                w.u8(7);
                w.usize(*source);
            }
        }
    }

    /// Decodes an actuation written by [`Actuation::snapshot_into`].
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        Ok(match r.u8()? {
            0 => Actuation::SetFrequency {
                node: NodeId(r.u32()?),
                ghz: r.f64()?,
            },
            1 => Actuation::SetNodeCap {
                node: NodeId(r.u32()?),
                watts: r.opt(epa_simcore::snap::SnapReader::f64)?,
            },
            2 => Actuation::SetSystemCap {
                watts: r.opt(epa_simcore::snap::SnapReader::f64)?,
            },
            3 => Actuation::PowerOn {
                node: NodeId(r.u32()?),
            },
            4 => Actuation::PowerOff {
                node: NodeId(r.u32()?),
            },
            5 => Actuation::KillJob { job: r.u64()? },
            6 => Actuation::SplitVm {
                node: NodeId(r.u32()?),
                vms: r.u32()?,
            },
            7 => Actuation::SelectSupply { source: r.usize()? },
            tag => {
                return Err(epa_simcore::snap::SnapshotError::Corrupt {
                    detail: format!("unknown actuation tag {tag}"),
                })
            }
        })
    }

    /// The interaction-ledger classification of this actuation.
    #[must_use]
    pub fn kind(&self) -> InteractionKind {
        match self {
            Actuation::SetFrequency { .. }
            | Actuation::SetNodeCap { .. }
            | Actuation::SetSystemCap { .. }
            | Actuation::SelectSupply { .. } => InteractionKind::PowerControl,
            Actuation::PowerOn { .. }
            | Actuation::PowerOff { .. }
            | Actuation::KillJob { .. }
            | Actuation::SplitVm { .. } => InteractionKind::ResourceControl,
        }
    }

    /// The component this actuation targets.
    #[must_use]
    pub fn target(&self) -> Component {
        match self {
            Actuation::SelectSupply { .. } => Component::Facility,
            _ => Component::Hardware,
        }
    }
}

/// A timestamped actuation record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActuationRecord {
    /// When the actuation happened.
    pub t: SimTime,
    /// What was done.
    pub actuation: Actuation,
}

/// The actuation audit log.
#[derive(Debug, Clone, Default)]
pub struct ActuatorLog {
    records: Vec<ActuationRecord>,
}

impl ActuatorLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an actuation and mirrors it into the interaction ledger as
    /// a ResourceManager → target edge.
    pub fn record(&mut self, t: SimTime, actuation: Actuation, ledger: &mut InteractionLedger) {
        ledger.record(
            t,
            Component::ResourceManager,
            actuation.target(),
            actuation.kind(),
        );
        self.records.push(ActuationRecord { t, actuation });
    }

    /// All records in order.
    #[must_use]
    pub fn records(&self) -> &[ActuationRecord] {
        &self.records
    }

    /// Number of actuations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was actuated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of actuations matching a predicate.
    pub fn count_matching(&self, pred: impl Fn(&Actuation) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.actuation)).count()
    }

    /// Encodes the full audit log.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        w.seq(&self.records, |w, rec| {
            w.f64(rec.t.as_secs());
            rec.actuation.snapshot_into(w);
        });
    }

    /// Decodes a log written by [`ActuatorLog::snapshot_into`].
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        let records = r.seq(|r| {
            Ok(ActuationRecord {
                t: r.time()?,
                actuation: Actuation::restore_from(r)?,
            })
        })?;
        Ok(ActuatorLog { records })
    }
}

/// Result of programming one command across a node set through the
/// retry policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CapWriteReport {
    /// True when every node's command eventually succeeded.
    pub succeeded: bool,
    /// Total attempts made across all nodes (first tries + retries).
    pub attempts: u64,
    /// Worst-case accumulated backoff latency over the node set — the
    /// actuation latency the caller must pay before the command is live
    /// everywhere (per-node sequences run in parallel).
    pub total_delay: SimDuration,
    /// Nodes whose command failed after all retries.
    pub failed: Vec<NodeId>,
    /// Nodes that crossed the consecutive-failure threshold and must be
    /// fenced by the caller.
    pub fence: Vec<NodeId>,
}

/// An actuator front-end that executes unreliable commands with
/// retry/backoff, full attempt logging, and fence escalation.
#[derive(Debug, Clone)]
pub struct RetryingActuator {
    config: ActuatorFaultConfig,
    rng: SimRng,
    /// Consecutive failed cap writes per node index.
    consecutive_failures: BTreeMap<u32, u32>,
}

impl RetryingActuator {
    /// Creates an actuator over its own deterministic fault stream.
    #[must_use]
    pub fn new(config: ActuatorFaultConfig, seed: u64) -> Self {
        RetryingActuator {
            config,
            rng: SimRng::new(seed).stream("rm-actuator-faults"),
            consecutive_failures: BTreeMap::new(),
        }
    }

    /// The retry/escalation configuration.
    #[must_use]
    pub fn config(&self) -> &ActuatorFaultConfig {
        &self.config
    }

    /// Current consecutive-failure count for a node.
    #[must_use]
    pub fn consecutive_failures(&self, node: NodeId) -> u32 {
        self.consecutive_failures.get(&node.0).copied().unwrap_or(0)
    }

    /// Encodes the retry stream position and per-node escalation counters.
    /// The fault config is re-supplied at [`RetryingActuator::restore_from`].
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        let (seed, pos) = self.rng.snapshot_state();
        w.u64(seed);
        w.u64(pos);
        let failures: Vec<(u32, u32)> = self
            .consecutive_failures
            .iter()
            .map(|(&n, &c)| (n, c))
            .collect();
        w.seq(&failures, |w, &(n, c)| {
            w.u32(n);
            w.u32(c);
        });
    }

    /// Rebuilds an actuator at the exact stream position and escalation
    /// state written by [`RetryingActuator::snapshot_into`].
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
        config: ActuatorFaultConfig,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        let rng = SimRng::from_state(r.u64()?, r.u64()?);
        let consecutive_failures: BTreeMap<u32, u32> =
            r.seq(|r| Ok((r.u32()?, r.u32()?)))?.into_iter().collect();
        Ok(RetryingActuator {
            config,
            rng,
            consecutive_failures,
        })
    }

    /// Programs a per-node power cap (`watts`; `None` clears) on every
    /// node in `nodes`. Each node runs its own attempt/retry sequence;
    /// every attempt is recorded in `log` (and mirrored into `ledger`).
    /// Nodes whose consecutive-failure count reaches the fence threshold
    /// are returned in [`CapWriteReport::fence`] with their counters
    /// reset (the fence/repair cycle clears the fault).
    pub fn program_caps(
        &mut self,
        t: SimTime,
        nodes: &[NodeId],
        watts: Option<f64>,
        log: &mut ActuatorLog,
        ledger: &mut InteractionLedger,
    ) -> CapWriteReport {
        let mut bus = TraceBus::disabled();
        self.program_caps_traced(t, nodes, watts, log, ledger, &mut bus)
    }

    /// [`RetryingActuator::program_caps`] with decision tracing: per-node
    /// retry anomalies, fence escalations, and a summary
    /// [`TraceEvent::CapWrite`] are recorded on `bus`. RNG consumption,
    /// audit logging, and escalation are identical to the untraced call.
    pub fn program_caps_traced(
        &mut self,
        t: SimTime,
        nodes: &[NodeId],
        watts: Option<f64>,
        log: &mut ActuatorLog,
        ledger: &mut InteractionLedger,
        bus: &mut TraceBus,
    ) -> CapWriteReport {
        let mut report = CapWriteReport {
            succeeded: true,
            attempts: 0,
            total_delay: SimDuration::ZERO,
            failed: Vec::new(),
            fence: Vec::new(),
        };
        for &node in nodes {
            let r = execute_with_retry_traced(&self.config, &mut self.rng, t, node.0, bus);
            for _ in 0..r.attempts {
                log.record(t, Actuation::SetNodeCap { node, watts }, ledger);
            }
            report.attempts += u64::from(r.attempts);
            report.total_delay = report.total_delay.max(r.total_delay);
            if r.succeeded {
                self.consecutive_failures.remove(&node.0);
            } else {
                report.succeeded = false;
                report.failed.push(node);
                let count = self.consecutive_failures.entry(node.0).or_insert(0);
                *count += 1;
                if *count >= self.config.fence_after {
                    self.consecutive_failures.remove(&node.0);
                    report.fence.push(node);
                    if bus.enabled(TraceCategory::Actuation) {
                        bus.record(t, TraceEvent::NodeFenced { node: node.0 });
                    }
                }
            }
        }
        if bus.enabled(TraceCategory::Actuation) {
            bus.record(
                t,
                TraceEvent::CapWrite {
                    nodes: nodes.len() as u32,
                    watts: watts.unwrap_or(0.0),
                    attempts: report.attempts,
                    succeeded: report.succeeded,
                    delay_secs: report.total_delay.as_secs(),
                },
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn actuations_classify_correctly() {
        assert_eq!(
            Actuation::SetFrequency {
                node: NodeId(0),
                ghz: 2.0
            }
            .kind(),
            InteractionKind::PowerControl
        );
        assert_eq!(
            Actuation::PowerOff { node: NodeId(0) }.kind(),
            InteractionKind::ResourceControl
        );
        assert_eq!(
            Actuation::SelectSupply { source: 1 }.target(),
            Component::Facility
        );
        assert_eq!(Actuation::KillJob { job: 7 }.target(), Component::Hardware);
    }

    #[test]
    fn log_mirrors_into_ledger() {
        let mut log = ActuatorLog::new();
        let mut ledger = InteractionLedger::new();
        log.record(
            t(1.0),
            Actuation::SetSystemCap { watts: Some(1e6) },
            &mut ledger,
        );
        log.record(t(2.0), Actuation::PowerOff { node: NodeId(3) }, &mut ledger);
        assert_eq!(log.len(), 2);
        assert_eq!(ledger.total(), 2);
        assert_eq!(
            ledger.count(
                Component::ResourceManager,
                Component::Hardware,
                InteractionKind::PowerControl
            ),
            1
        );
    }

    #[test]
    fn count_matching_filters() {
        let mut log = ActuatorLog::new();
        let mut ledger = InteractionLedger::new();
        for i in 0..5 {
            log.record(
                t(f64::from(i)),
                Actuation::PowerOff {
                    node: NodeId(i as u32),
                },
                &mut ledger,
            );
        }
        log.record(t(9.0), Actuation::PowerOn { node: NodeId(0) }, &mut ledger);
        assert_eq!(
            log.count_matching(|a| matches!(a, Actuation::PowerOff { .. })),
            5
        );
        assert!(!log.is_empty());
    }

    fn fault_cfg(fail_prob: f64) -> ActuatorFaultConfig {
        ActuatorFaultConfig {
            fail_prob,
            max_retries: 2,
            backoff_base: SimDuration::from_secs(1.0),
            backoff_factor: 2.0,
            fence_after: 3,
        }
    }

    #[test]
    fn reliable_actuator_logs_one_attempt_per_node() {
        let mut act = RetryingActuator::new(fault_cfg(0.0), 7);
        let mut log = ActuatorLog::new();
        let mut ledger = InteractionLedger::new();
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let report = act.program_caps(t(5.0), &nodes, Some(200.0), &mut log, &mut ledger);
        assert!(report.succeeded);
        assert_eq!(report.attempts, 4);
        assert_eq!(report.total_delay, SimDuration::ZERO);
        assert!(report.failed.is_empty());
        assert!(report.fence.is_empty());
        assert_eq!(log.len(), 4);
        assert_eq!(ledger.total(), 4);
        assert_eq!(act.consecutive_failures(NodeId(0)), 0);
    }

    #[test]
    fn broken_actuator_fences_after_threshold() {
        let mut act = RetryingActuator::new(fault_cfg(1.0), 7);
        let mut log = ActuatorLog::new();
        let mut ledger = InteractionLedger::new();
        let nodes = [NodeId(9)];
        for round in 1..=2u32 {
            let report = act.program_caps(t(1.0), &nodes, Some(150.0), &mut log, &mut ledger);
            assert!(!report.succeeded);
            assert_eq!(report.failed, vec![NodeId(9)]);
            assert!(report.fence.is_empty());
            // max_retries = 2 → 3 attempts per call, all logged.
            assert_eq!(report.attempts, 3);
            // Backoff 1s then 2s between the three attempts.
            assert_eq!(report.total_delay, SimDuration::from_secs(3.0));
            assert_eq!(act.consecutive_failures(NodeId(9)), round);
        }
        let report = act.program_caps(t(2.0), &nodes, Some(150.0), &mut log, &mut ledger);
        assert_eq!(report.fence, vec![NodeId(9)]);
        // Fencing resets the escalation counter.
        assert_eq!(act.consecutive_failures(NodeId(9)), 0);
        assert_eq!(log.len(), 9);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut act = RetryingActuator::new(fault_cfg(1.0), 7);
        let mut log = ActuatorLog::new();
        let mut ledger = InteractionLedger::new();
        let nodes = [NodeId(2)];
        act.program_caps(t(1.0), &nodes, None, &mut log, &mut ledger);
        assert_eq!(act.consecutive_failures(NodeId(2)), 1);
        // Flip to a reliable channel; the next success must clear history.
        let mut fixed = RetryingActuator::new(fault_cfg(0.0), 7);
        fixed.consecutive_failures = act.consecutive_failures.clone();
        fixed.program_caps(t(2.0), &nodes, None, &mut log, &mut ledger);
        assert_eq!(fixed.consecutive_failures(NodeId(2)), 0);
    }

    #[test]
    fn traced_cap_write_records_summary_and_fences() {
        use epa_obs::{CategoryMask, TraceEvent};
        let mut bus = epa_obs::TraceBus::new(CategoryMask::ALL, 256);
        let mut act = RetryingActuator::new(fault_cfg(1.0), 7);
        let mut log = ActuatorLog::new();
        let mut ledger = InteractionLedger::new();
        let nodes = [NodeId(4)];
        for _ in 0..3 {
            act.program_caps_traced(t(1.0), &nodes, Some(150.0), &mut log, &mut ledger, &mut bus);
        }
        let events: Vec<&TraceEvent> = bus.iter().map(|r| &r.event).collect();
        // Each round: one ActuationRetry (exhausted), one CapWrite summary;
        // the third round adds the fence escalation before its summary.
        assert_eq!(events.len(), 7);
        assert!(matches!(
            events[0],
            TraceEvent::ActuationRetry {
                node: 4,
                succeeded: false,
                ..
            }
        ));
        assert!(matches!(
            events[1],
            TraceEvent::CapWrite {
                nodes: 1,
                succeeded: false,
                ..
            }
        ));
        assert!(matches!(events[5], TraceEvent::NodeFenced { node: 4 }));
        // The untraced wrapper draws the same RNG sequence.
        let untraced = {
            let mut act = RetryingActuator::new(fault_cfg(0.4), 3);
            let mut log = ActuatorLog::new();
            let mut ledger = InteractionLedger::new();
            let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
            act.program_caps(t(2.0), &nodes, Some(180.0), &mut log, &mut ledger)
        };
        let traced = {
            let mut act = RetryingActuator::new(fault_cfg(0.4), 3);
            let mut log = ActuatorLog::new();
            let mut ledger = InteractionLedger::new();
            let mut bus = epa_obs::TraceBus::new(CategoryMask::ALL, 256);
            let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
            act.program_caps_traced(t(2.0), &nodes, Some(180.0), &mut log, &mut ledger, &mut bus)
        };
        assert_eq!(untraced, traced);
    }

    #[test]
    fn actuator_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut act = RetryingActuator::new(fault_cfg(0.4), seed);
            let mut log = ActuatorLog::new();
            let mut ledger = InteractionLedger::new();
            let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
            let mut trace = Vec::new();
            for round in 0..8 {
                let r = act.program_caps(
                    t(f64::from(round)),
                    &nodes,
                    Some(180.0),
                    &mut log,
                    &mut ledger,
                );
                trace.push((r.attempts, r.failed.len(), r.fence.len()));
            }
            (trace, log.len())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
