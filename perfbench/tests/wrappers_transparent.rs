//! The timing wrappers must be invisible: a short prefix of every
//! workload, with every trace category on, gives byte-identical outcome
//! and trace exports with and without them.

use epa_obs::CategoryMask;
use epa_perfbench::harness::outcome_and_trace;
use epa_perfbench::workloads::ALL_WORKLOADS;
use epa_simcore::time::SimTime;

const PREFIX_HOURS: u32 = 24;

#[test]
fn wrappers_leave_outcome_and_trace_unchanged() {
    for workload in ALL_WORKLOADS {
        let mut policy_calls = 0;
        let mut predict_calls = 0;
        for mut spec in workload.cells(3) {
            spec.horizon_h = PREFIX_HOURS;
            spec.config.horizon = SimTime::from_hours(f64::from(PREFIX_HOURS));
            spec.config.trace.mask = CategoryMask::ALL;
            let (plain_outcome, plain_trace, _) =
                outcome_and_trace(&spec, false).expect("plain run");
            let (outcome, trace, probes) = outcome_and_trace(&spec, true).expect("wrapped run");
            let probes = probes.expect("a wrapped run returns its tallies");
            assert_eq!(
                outcome,
                plain_outcome,
                "{}/{}: wrapped outcome differs",
                workload.name(),
                spec.label
            );
            assert_eq!(
                trace,
                plain_trace,
                "{}/{}: wrapped trace differs",
                workload.name(),
                spec.label
            );
            assert!(
                plain_trace.lines().count() > 1,
                "{}/{}: the trace recorded nothing to compare",
                workload.name(),
                spec.label
            );
            assert!(probes.source.jobs() > 0, "{}: source unwrapped", spec.label);
            policy_calls += probes.policy.timer.calls();
            predict_calls += probes.predict.calls();
        }
        assert!(policy_calls > 0, "{}: policy never called", workload.name());
        if workload.name() == "sites_twin" {
            assert!(predict_calls > 0, "sites_twin: predictor never called");
        }
    }
}
