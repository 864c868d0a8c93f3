//! Actuators: the control half of the monitoring/control loop.
//!
//! Actuators are not reliable: CAPMC calls time out, RAPL writes bounce.
//! [`RetryingActuator`] wraps command execution in the retry-with-
//! exponential-backoff policy of [`epa_faults::ActuatorFaultConfig`],
//! reports every attempt in its [`CapWriteReport`] and on the decision
//! trace, and escalates: after N *consecutive* failed cap writes on one
//! node it reports the node for fencing (Trinity-style drain of a
//! misbehaving node).

use epa_cluster::node::NodeId;
use epa_faults::{execute_with_retry_traced, ActuatorFaultConfig};
use epa_obs::{TraceBus, TraceEvent};
use epa_simcore::rng::SimRng;
use epa_simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

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
/// retry/backoff and fence escalation.
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

    /// Current consecutive-failure count for a node.
    #[cfg(test)]
    fn consecutive_failures(&self, node: NodeId) -> u32 {
        self.consecutive_failures.get(&node.0).copied().unwrap_or(0)
    }

    /// Encodes the retry stream position and per-node escalation counters.
    /// The fault config is not stored: [`RetryingActuator::restore_from`]
    /// restores over an actuator built from it.
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

    /// Overwrites the stream position and escalation state with those
    /// written by [`RetryingActuator::snapshot_into`]; the config stays.
    pub fn restore_from(
        &mut self,
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<(), epa_simcore::snap::SnapshotError> {
        self.rng = SimRng::from_state(r.u64()?, r.u64()?);
        self.consecutive_failures = r.seq(|r| Ok((r.u32()?, r.u32()?)))?.into_iter().collect();
        Ok(())
    }

    /// Programs a per-node power cap (`watts`; `None` clears) on every
    /// node in `nodes`. Each node runs its own attempt/retry sequence.
    /// Nodes whose consecutive-failure count reaches the fence threshold
    /// are returned in [`CapWriteReport::fence`] with their counters
    /// reset (the fence/repair cycle clears the fault). Per-node retry
    /// anomalies, fence escalations, and a summary [`TraceEvent::CapWrite`]
    /// are recorded on `bus`; RNG consumption does not depend on its mask.
    pub fn program_caps_traced(
        &mut self,
        t: SimTime,
        nodes: &[NodeId],
        watts: Option<f64>,
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
                    bus.record(t, TraceEvent::NodeFenced { node: node.0 });
                }
            }
        }
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
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_obs::CategoryMask;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
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

    fn program(
        act: &mut RetryingActuator,
        t: SimTime,
        nodes: &[NodeId],
        watts: Option<f64>,
    ) -> CapWriteReport {
        act.program_caps_traced(t, nodes, watts, &mut TraceBus::disabled())
    }

    #[test]
    fn reliable_actuator_takes_one_attempt_per_node() {
        let mut act = RetryingActuator::new(fault_cfg(0.0), 7);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let report = program(&mut act, t(5.0), &nodes, Some(200.0));
        assert!(report.succeeded);
        assert_eq!(report.attempts, 4);
        assert_eq!(report.total_delay, SimDuration::ZERO);
        assert!(report.failed.is_empty());
        assert!(report.fence.is_empty());
        assert_eq!(act.consecutive_failures(NodeId(0)), 0);
    }

    #[test]
    fn broken_actuator_fences_after_threshold() {
        let mut act = RetryingActuator::new(fault_cfg(1.0), 7);
        let nodes = [NodeId(9)];
        for round in 1..=2u32 {
            let report = program(&mut act, t(1.0), &nodes, Some(150.0));
            assert!(!report.succeeded);
            assert_eq!(report.failed, vec![NodeId(9)]);
            assert!(report.fence.is_empty());
            // max_retries = 2 → 3 attempts per call.
            assert_eq!(report.attempts, 3);
            // Backoff 1s then 2s between the three attempts.
            assert_eq!(report.total_delay, SimDuration::from_secs(3.0));
            assert_eq!(act.consecutive_failures(NodeId(9)), round);
        }
        let report = program(&mut act, t(2.0), &nodes, Some(150.0));
        assert_eq!(report.attempts, 3);
        assert_eq!(report.failed, vec![NodeId(9)]);
        assert_eq!(report.fence, vec![NodeId(9)]);
        // Fencing resets the escalation counter.
        assert_eq!(act.consecutive_failures(NodeId(9)), 0);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut act = RetryingActuator::new(fault_cfg(1.0), 7);
        let nodes = [NodeId(2)];
        program(&mut act, t(1.0), &nodes, None);
        assert_eq!(act.consecutive_failures(NodeId(2)), 1);
        // Flip to a reliable channel; the next success must clear history.
        let mut fixed = RetryingActuator::new(fault_cfg(0.0), 7);
        fixed.consecutive_failures = act.consecutive_failures.clone();
        let report = program(&mut fixed, t(2.0), &nodes, None);
        assert!(report.succeeded);
        assert_eq!(report.attempts, 1);
        assert!(report.fence.is_empty());
        assert_eq!(fixed.consecutive_failures(NodeId(2)), 0);
    }

    #[test]
    fn traced_cap_write_records_summary_and_fences() {
        let mut bus = TraceBus::new(CategoryMask::ALL, 256);
        let mut act = RetryingActuator::new(fault_cfg(1.0), 7);
        let nodes = [NodeId(4)];
        for _ in 0..3 {
            act.program_caps_traced(t(1.0), &nodes, Some(150.0), &mut bus);
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
        // A masked-off bus draws the same RNG sequence.
        let run = |mut bus: TraceBus| {
            let mut act = RetryingActuator::new(fault_cfg(0.4), 3);
            let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
            act.program_caps_traced(t(2.0), &nodes, Some(180.0), &mut bus)
        };
        assert_eq!(
            run(TraceBus::disabled()),
            run(TraceBus::new(CategoryMask::ALL, 256))
        );
    }

    #[test]
    fn actuator_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut act = RetryingActuator::new(fault_cfg(0.4), seed);
            let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
            (0..8)
                .map(|round| {
                    let r = program(&mut act, t(f64::from(round)), &nodes, Some(180.0));
                    (r.attempts, r.failed.len(), r.fence.len())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
