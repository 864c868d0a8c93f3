//! Retry with exponential backoff for unreliable actuator commands.
//!
//! Production power actuators (CAPMC, RAPL writers, DVFS sysfs) fail
//! transiently; resource managers retry with backoff and eventually
//! declare the node bad. [`execute_with_retry`] simulates one command's
//! full retry sequence as a deterministic function of the RNG stream, so
//! identical seeds replay identical attempt histories.

use crate::config::ActuatorFaultConfig;
use epa_obs::{TraceBus, TraceEvent};
use epa_simcore::rng::SimRng;
use epa_simcore::time::{SimDuration, SimTime};

/// Outcome of one command's attempt sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptReport {
    /// Total attempts made (first try + retries), at least 1.
    pub attempts: u32,
    /// Whether any attempt succeeded.
    pub succeeded: bool,
    /// Accumulated backoff latency across failed attempts. A command
    /// that succeeds on retry k still paid the backoffs before it.
    pub total_delay: SimDuration,
}

/// Runs one command through the retry policy: attempt, and on failure
/// back off exponentially and retry up to `cfg.max_retries` times.
#[must_use]
pub fn execute_with_retry(cfg: &ActuatorFaultConfig, rng: &mut SimRng) -> AttemptReport {
    let mut attempts = 0u32;
    let mut delay_secs = 0.0;
    loop {
        attempts += 1;
        if !rng.bernoulli(cfg.fail_prob) {
            return AttemptReport {
                attempts,
                succeeded: true,
                total_delay: SimDuration::from_secs(delay_secs),
            };
        }
        if attempts > cfg.max_retries {
            return AttemptReport {
                attempts,
                succeeded: false,
                total_delay: SimDuration::from_secs(delay_secs),
            };
        }
        delay_secs += cfg.backoff_delay(attempts).as_secs();
    }
}

/// [`execute_with_retry`] with decision tracing: commands that needed
/// more than one attempt (or failed outright) record an
/// [`TraceEvent::ActuationRetry`] for the target node. First-try
/// successes — the overwhelmingly common case — record nothing, keeping
/// the trace focused on anomalies. RNG consumption is identical to the
/// untraced call, so seeded runs replay the same attempt histories.
#[must_use]
pub fn execute_with_retry_traced(
    cfg: &ActuatorFaultConfig,
    rng: &mut SimRng,
    t: SimTime,
    node: u32,
    bus: &mut TraceBus,
) -> AttemptReport {
    let report = execute_with_retry(cfg, rng);
    if report.attempts > 1 || !report.succeeded {
        bus.record(
            t,
            TraceEvent::ActuationRetry {
                node,
                attempts: report.attempts,
                succeeded: report.succeeded,
            },
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(fail_prob: f64) -> ActuatorFaultConfig {
        ActuatorFaultConfig {
            fail_prob,
            max_retries: 3,
            backoff_base: SimDuration::from_secs(1.0),
            backoff_factor: 2.0,
            fence_after: 3,
        }
    }

    #[test]
    fn reliable_commands_succeed_first_try() {
        let mut rng = SimRng::new(1);
        let r = execute_with_retry(&cfg(0.0), &mut rng);
        assert!(r.succeeded);
        assert_eq!(r.attempts, 1);
        assert!(r.total_delay.is_zero());
    }

    #[test]
    fn always_failing_commands_exhaust_retries() {
        let mut rng = SimRng::new(1);
        let r = execute_with_retry(&cfg(1.0), &mut rng);
        assert!(!r.succeeded);
        // First try + 3 retries.
        assert_eq!(r.attempts, 4);
        // Backoffs: 1 + 2 + 4 seconds.
        assert!((r.total_delay.as_secs() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn retry_sequence_is_deterministic() {
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            (0..100)
                .map(|_| execute_with_retry(&cfg(0.5), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn traced_retry_records_only_anomalies() {
        use epa_obs::{CategoryMask, TraceBus, TraceEvent};
        let t0 = SimTime::from_secs(1.0);
        let mut bus = TraceBus::new(CategoryMask::ALL, 256);
        // Reliable channel: first-try successes leave the trace empty.
        let mut rng = SimRng::new(1);
        let r = execute_with_retry_traced(&cfg(0.0), &mut rng, t0, 3, &mut bus);
        assert!(r.succeeded);
        assert!(bus.is_empty());
        // Dead channel: the exhausted sequence is recorded.
        let r = execute_with_retry_traced(&cfg(1.0), &mut rng, t0, 3, &mut bus);
        assert!(!r.succeeded);
        assert_eq!(bus.len(), 1);
        let rec = bus.iter().next().unwrap();
        assert!(matches!(
            rec.event,
            TraceEvent::ActuationRetry {
                node: 3,
                attempts: 4,
                succeeded: false
            }
        ));
        // Tracing must not perturb the RNG stream.
        let run = |traced: bool| {
            let mut rng = SimRng::new(9);
            let mut bus = TraceBus::disabled();
            (0..50)
                .map(|_| {
                    if traced {
                        execute_with_retry_traced(&cfg(0.5), &mut rng, t0, 0, &mut bus)
                    } else {
                        execute_with_retry(&cfg(0.5), &mut rng)
                    }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn partial_failures_accumulate_delay() {
        // With 50% failure some commands succeed after >= 1 retry and
        // carry non-zero delay.
        let mut rng = SimRng::new(42);
        let reports: Vec<AttemptReport> = (0..200)
            .map(|_| execute_with_retry(&cfg(0.5), &mut rng))
            .collect();
        assert!(reports
            .iter()
            .any(|r| r.succeeded && !r.total_delay.is_zero()));
        assert!(reports.iter().any(|r| !r.succeeded));
    }
}
