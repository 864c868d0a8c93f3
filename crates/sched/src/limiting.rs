//! Concurrency limiting — CINECA's MS3, "do less when it's too hot".
//!
//! Borghesi et al. (cited by the survey, and a survey co-author) limit
//! the number of jobs running concurrently instead of throttling
//! frequencies: above a temperature threshold the scheduler admits fewer
//! jobs, trading throughput for thermal/power safety without touching the
//! processing elements' performance.

use serde::{Deserialize, Serialize};

/// A temperature-conditioned concurrency gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobLimitGate {
    /// Maximum concurrent jobs under normal conditions.
    pub normal_limit: usize,
    /// Maximum concurrent jobs when the facility is hot.
    pub hot_limit: usize,
    /// Outdoor temperature (°C) above which the hot limit applies.
    pub hot_threshold_c: f64,
}

impl JobLimitGate {
    /// The limit in force at `temperature_c`.
    #[must_use]
    pub fn limit_at(&self, temperature_c: f64) -> usize {
        if temperature_c > self.hot_threshold_c {
            self.hot_limit
        } else {
            self.normal_limit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> JobLimitGate {
        JobLimitGate {
            normal_limit: 10,
            hot_limit: 4,
            hot_threshold_c: 28.0,
        }
    }

    #[test]
    fn normal_conditions_use_normal_limit() {
        assert_eq!(gate().limit_at(20.0), 10);
    }

    #[test]
    fn hot_conditions_tighten() {
        let g = gate();
        assert_eq!(g.limit_at(30.0), 4);
        // Exactly at threshold: still normal.
        assert_eq!(g.limit_at(28.0), 10);
    }
}
