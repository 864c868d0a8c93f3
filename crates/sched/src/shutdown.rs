//! Idle-node shutdown policy.
//!
//! Table I, Tokyo Tech production: "Resource manager dynamically boots or
//! shuts down nodes to stay under power cap (summer only) … shuts down
//! nodes that have been idle for a long time." The same mechanism is
//! Mämmelä et al.'s energy-aware scheduler from the related work.
//!
//! The engine consults this policy on every power tick: idle nodes past
//! the threshold are drained and powered off (minus a responsiveness
//! reserve); the engine boots nodes back on demand.

use epa_simcore::snap::Fingerprint;
use epa_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Idle-node shutdown configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShutdownPolicy {
    /// How long a node must sit idle before shutdown.
    pub idle_threshold: SimDuration,
    /// Time from shutdown initiation to the node drawing off-power.
    pub shutdown_time: SimDuration,
    /// Time from boot initiation to the node being allocatable.
    pub boot_time: SimDuration,
    /// Idle nodes always kept on for responsiveness.
    pub min_idle_reserve: u32,
    /// Restrict activity to a season: `(start_day_of_year, end_day_of_year)`
    /// half-open, wrapping allowed. `None` = always active. Tokyo Tech
    /// enforces only in summer.
    pub season: Option<(u32, u32)>,
}

impl Default for ShutdownPolicy {
    fn default() -> Self {
        ShutdownPolicy {
            idle_threshold: SimDuration::from_mins(15.0),
            shutdown_time: SimDuration::from_mins(2.0),
            boot_time: SimDuration::from_mins(5.0),
            min_idle_reserve: 2,
            season: None,
        }
    }
}

impl ShutdownPolicy {
    /// True when the policy is active at simulation time `t` for a
    /// simulation whose t = 0 falls on `start_day_of_year`.
    #[must_use]
    pub fn season_active_on(&self, t: SimTime, start_day_of_year: u32) -> bool {
        match self.season {
            None => true,
            Some((start, end)) => {
                let doy = ((u64::from(start_day_of_year) + t.day_index()) % 365) as u32;
                if start <= end {
                    doy >= start && doy < end
                } else {
                    // Wrapping season (e.g. Nov–Feb).
                    doy >= start || doy < end
                }
            }
        }
    }

    /// Whether the policy is physical: a non-negative idle threshold and
    /// positive shutdown and boot times.
    pub(crate) fn is_valid(&self) -> bool {
        self.idle_threshold.as_secs() >= 0.0
            && self.shutdown_time.as_secs() > 0.0
            && self.boot_time.as_secs() > 0.0
    }

    /// Folds every field into the engine's resume fingerprint.
    pub(crate) fn fingerprint(&self, fp: &mut Fingerprint) {
        for d in [self.idle_threshold, self.shutdown_time, self.boot_time] {
            fp.f64(d.as_secs());
        }
        fp.u64(u64::from(self.min_idle_reserve));
        fp.u64(u64::from(self.season.is_some()));
        if let Some((start, end)) = self.season {
            fp.u64(u64::from(start)).u64(u64::from(end));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_season_always_active() {
        let p = ShutdownPolicy::default();
        assert!(p.season_active_on(SimTime::ZERO, 0));
        assert!(p.season_active_on(SimTime::from_days(400.0), 0));
    }

    #[test]
    fn summer_season() {
        let p = ShutdownPolicy {
            season: Some((152, 244)), // Jun–Aug
            ..Default::default()
        };
        assert!(!p.season_active_on(SimTime::from_days(10.0), 0));
        assert!(p.season_active_on(SimTime::from_days(180.0), 0));
        assert!(!p.season_active_on(SimTime::from_days(300.0), 0));
        // Wraps into the next year.
        assert!(p.season_active_on(SimTime::from_days(365.0 + 180.0), 0));
    }

    #[test]
    fn wrapping_season() {
        let p = ShutdownPolicy {
            season: Some((330, 60)), // Nov–Feb
            ..Default::default()
        };
        assert!(p.season_active_on(SimTime::from_days(340.0), 0));
        assert!(p.season_active_on(SimTime::from_days(10.0), 0));
        assert!(!p.season_active_on(SimTime::from_days(180.0), 0));
    }
}
