//! RAPL-style windowed average power limiting.
//!
//! Intel's Running Average Power Limit (David et al., cited by the survey)
//! enforces an *average* power over a sliding time window rather than an
//! instantaneous ceiling: short bursts above the limit are allowed as long
//! as the windowed mean stays under it. We model the accounting exactly
//! (piecewise integration over the trailing window) — this is the
//! mechanism behind SLURM's and Ellsworth's per-node budget allocation.

use crate::error::PowerError;
use epa_simcore::series::TimeSeries;
use epa_simcore::time::{SimDuration, SimTime};

/// One RAPL domain (a node or socket) with a windowed power limit.
#[derive(Debug, Clone)]
pub struct RaplDomain {
    limit_watts: f64,
    window: SimDuration,
    trace: TimeSeries,
}

impl RaplDomain {
    /// Creates a domain with a power limit and an averaging window.
    pub fn new(limit_watts: f64, window: SimDuration) -> Result<Self, PowerError> {
        if limit_watts <= 0.0 {
            return Err(PowerError::InvalidConfig(format!(
                "RAPL limit must be positive, got {limit_watts}"
            )));
        }
        if window.is_zero() {
            return Err(PowerError::InvalidConfig(
                "RAPL window must be positive".into(),
            ));
        }
        Ok(RaplDomain {
            limit_watts,
            window,
            trace: TimeSeries::new(),
        })
    }

    /// Records that the domain draws `watts` starting at time `t`.
    pub fn record(&mut self, t: SimTime, watts: f64) {
        self.trace.push(t, watts);
    }

    /// Windowed average power over `[now - window, now]`.
    ///
    /// Matches hardware accounting: the divisor is always the full window
    /// length, and time before the trace (or before t = 0) counts as zero
    /// draw — at startup the window is "filled with zeros".
    #[must_use]
    pub fn windowed_average(&self, now: SimTime) -> f64 {
        let start = if now.as_secs() > self.window.as_secs() {
            now - self.window
        } else {
            SimTime::ZERO
        };
        self.trace.integrate(start, now) / self.window.as_secs()
    }

    /// True when the windowed average exceeds the limit at `now`.
    #[must_use]
    pub fn check(&self, now: SimTime) -> bool {
        self.windowed_average(now) > self.limit_watts + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn constant_draw_average() {
        let mut r = RaplDomain::new(200.0, d(10.0)).unwrap();
        r.record(t(0.0), 150.0);
        assert!((r.windowed_average(t(20.0)) - 150.0).abs() < 1e-9);
        assert!(!r.check(t(20.0)));
    }

    #[test]
    fn burst_above_limit_tolerated_within_window() {
        let mut r = RaplDomain::new(200.0, d(10.0)).unwrap();
        r.record(t(0.0), 100.0);
        r.record(t(9.0), 400.0); // 1 s burst inside a 10 s window
                                 // Window [0,10]: (9*100 + 1*400)/10 = 130 <= 200.
        assert!(!r.check(t(10.0)));
        // Sustained burst eventually violates.
        assert!(r.check(t(15.0))); // (4*100+6*400)/10 = 280 > 200
    }

    #[test]
    fn early_time_window_fills_with_zeros() {
        let mut r = RaplDomain::new(200.0, d(100.0)).unwrap();
        r.record(t(0.0), 300.0);
        // At t=10 only 10 s of the 100 s window carry draw: 300*10/100.
        assert!((r.windowed_average(t(10.0)) - 30.0).abs() < 1e-9);
        // Once the window is full the average converges to the draw.
        assert!((r.windowed_average(t(200.0)) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(RaplDomain::new(0.0, d(1.0)).is_err());
        assert!(RaplDomain::new(-5.0, d(1.0)).is_err());
        assert!(RaplDomain::new(100.0, d(0.0)).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// If every recorded draw is at or below the limit, the windowed
        /// average can never violate it.
        #[test]
        fn under_limit_draws_never_violate(
            steps in proptest::collection::vec((0.1f64..50.0, 0.0f64..200.0), 1..40),
        ) {
            let mut r = RaplDomain::new(200.0, SimDuration::from_secs(30.0)).unwrap();
            let mut clock = 0.0;
            for (dt, w) in &steps {
                r.record(SimTime::from_secs(clock), *w);
                clock += dt;
            }
            prop_assert!(!r.check(SimTime::from_secs(clock)));
        }
    }
}
