//! Emergency power response.
//!
//! Table I, RIKEN production: "Automated emergency job killing if power
//! limit exceeded." When the system draw crosses `limit_watts`, the engine
//! kills the youngest running jobs until the projected draw is below the
//! limit minus a hysteresis margin (so a single breach doesn't oscillate).

use epa_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Which running jobs the response kills first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum VictimOrder {
    /// Kill the most recently started jobs first (least sunk cost).
    #[default]
    Youngest,
    /// Kill the highest-draw jobs first (fewest kills per shed watt; the
    /// choice that pairs well with checkpointing since long-running hogs
    /// have checkpoints to fall back on).
    MostPowerful,
}

/// Emergency-response configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmergencyPolicy {
    /// Hard power limit in IT watts; crossing it triggers the response.
    pub limit_watts: f64,
    /// Hysteresis: the response drives draw below
    /// `limit_watts × (1 − hysteresis_fraction)`.
    pub hysteresis_fraction: f64,
    /// When set, the response is armed only inside `[start, end)` — the
    /// shape of a demand-response compliance window or a contractual
    /// peak-hours limit. `None` = always armed.
    pub window: Option<(SimTime, SimTime)>,
    /// After a response, hold all new job starts for this long. Prevents
    /// the kill–restart thrash loop: without a cooldown the scheduler
    /// refills the machine on the very next round and breaches again.
    pub start_cooldown: SimDuration,
    /// Kill ordering.
    pub victim_order: VictimOrder,
}

impl EmergencyPolicy {
    /// Creates an always-armed policy with a 5% hysteresis and no
    /// cooldown (legacy instantaneous behaviour).
    #[must_use]
    pub fn new(limit_watts: f64) -> Self {
        EmergencyPolicy {
            limit_watts,
            hysteresis_fraction: 0.05,
            window: None,
            start_cooldown: SimDuration::ZERO,
            victim_order: VictimOrder::Youngest,
        }
    }

    /// Creates a policy armed only inside `[start, end)`.
    #[must_use]
    pub fn windowed(limit_watts: f64, start: SimTime, end: SimTime) -> Self {
        EmergencyPolicy {
            limit_watts,
            hysteresis_fraction: 0.05,
            window: Some((start, end)),
            start_cooldown: SimDuration::ZERO,
            victim_order: VictimOrder::Youngest,
        }
    }

    /// Sets the post-response start cooldown.
    #[must_use]
    pub fn with_cooldown(mut self, cooldown: SimDuration) -> Self {
        self.start_cooldown = cooldown;
        self
    }

    /// Sets the victim ordering.
    #[must_use]
    pub fn with_victim_order(mut self, order: VictimOrder) -> Self {
        self.victim_order = order;
        self
    }

    /// True when the response is armed at `t`.
    #[must_use]
    pub fn armed_at(&self, t: SimTime) -> bool {
        match self.window {
            None => true,
            Some((start, end)) => t >= start && t < end,
        }
    }

    /// The draw level the response aims for after a breach.
    #[must_use]
    pub fn target_watts(&self) -> f64 {
        self.limit_watts * (1.0 - self.hysteresis_fraction.clamp(0.0, 1.0))
    }

    /// True when the policy should respond at `t` with draw `observed`:
    /// armed *and* over the limit.
    ///
    /// The breach test is a strict `>`: drawing exactly the limit is
    /// compliant. Combined with the `[start, end)` arming window this
    /// pins down every boundary: a degenerate window (`start == end`)
    /// never arms, and `t == end` is already disarmed.
    #[must_use]
    pub fn should_respond(&self, t: SimTime, observed_watts: f64) -> bool {
        self.armed_at(t) && observed_watts > self.limit_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_below_limit() {
        let p = EmergencyPolicy::new(1000.0);
        assert!((p.target_watts() - 950.0).abs() < 1e-9);
    }

    #[test]
    fn hysteresis_clamped() {
        let p = EmergencyPolicy {
            limit_watts: 1000.0,
            hysteresis_fraction: 2.0,
            window: None,
            start_cooldown: SimDuration::ZERO,
            victim_order: VictimOrder::Youngest,
        };
        assert_eq!(p.target_watts(), 0.0);
    }

    #[test]
    fn window_arms_and_disarms() {
        let p =
            EmergencyPolicy::windowed(1000.0, SimTime::from_hours(10.0), SimTime::from_hours(14.0));
        assert!(!p.armed_at(SimTime::from_hours(9.0)));
        assert!(p.armed_at(SimTime::from_hours(10.0)));
        assert!(p.armed_at(SimTime::from_hours(13.9)));
        assert!(!p.armed_at(SimTime::from_hours(14.0)));
        assert!(EmergencyPolicy::new(1.0).armed_at(SimTime::from_days(99.0)));
    }

    #[test]
    fn degenerate_window_never_arms() {
        // start == end is the empty interval [t, t): no instant arms,
        // not even the boundary itself.
        let t0 = SimTime::from_hours(10.0);
        let p = EmergencyPolicy::windowed(1000.0, t0, t0);
        assert!(!p.armed_at(SimTime::from_hours(9.999)));
        assert!(!p.armed_at(t0));
        assert!(!p.armed_at(SimTime::from_hours(10.001)));
        assert!(!p.should_respond(t0, 1e9));
    }

    #[test]
    fn exact_end_is_disarmed_even_under_breach() {
        let p =
            EmergencyPolicy::windowed(1000.0, SimTime::from_hours(10.0), SimTime::from_hours(14.0));
        // One tick inside the window responds; the closing boundary does
        // not, no matter how large the breach.
        assert!(p.should_respond(SimTime::from_secs(14.0 * 3600.0 - 1.0), 2000.0));
        assert!(!p.should_respond(SimTime::from_hours(14.0), 2000.0));
    }

    #[test]
    fn draw_at_limit_is_compliant() {
        // The breach test is strict: exactly at the limit never triggers,
        // so a response that settles the draw on the limit cannot
        // immediately re-trigger.
        let p = EmergencyPolicy::new(1000.0);
        assert!(!p.should_respond(SimTime::ZERO, 1000.0));
        assert!(p.should_respond(SimTime::ZERO, 1000.0 + 1e-9));
    }

    #[test]
    fn rebreach_inside_hysteresis_band_does_not_retrigger() {
        // After a response the draw sits near target_watts. Anywhere in
        // the hysteresis band (target, limit] must stay quiet; only a
        // full re-breach above the limit re-arms the response.
        let p = EmergencyPolicy::new(1000.0);
        let target = p.target_watts();
        assert!(target < p.limit_watts);
        assert!(!p.should_respond(SimTime::from_hours(1.0), target));
        assert!(!p.should_respond(SimTime::from_hours(1.0), (target + p.limit_watts) / 2.0));
        assert!(!p.should_respond(SimTime::from_hours(1.0), p.limit_watts));
        assert!(p.should_respond(SimTime::from_hours(1.0), p.limit_watts * 1.01));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `armed_at` is exactly the half-open interval test: armed iff
        /// `start <= t < end`, for every window shape including the
        /// degenerate `start == end` and inverted (`end < start`) ones.
        #[test]
        fn armed_iff_in_half_open_window(
            start_s in 0.0f64..200_000.0,
            len_s in -50_000.0f64..200_000.0,
            t_s in 0.0f64..400_000.0,
        ) {
            let start = SimTime::from_secs(start_s);
            let end = SimTime::from_secs((start_s + len_s).max(0.0));
            let p = EmergencyPolicy::windowed(1000.0, start, end);
            let t = SimTime::from_secs(t_s);
            prop_assert_eq!(p.armed_at(t), t >= start && t < end);
        }

        /// `should_respond` decomposes as armed ∧ strictly-over-limit;
        /// in particular the hysteresis band (target, limit] never
        /// triggers, which is what prevents shed→re-trigger oscillation.
        #[test]
        fn respond_iff_armed_and_over_limit(
            limit in 100.0f64..10_000.0,
            hyst in 0.0f64..0.5,
            frac in 0.0f64..2.0,
            t_s in 0.0f64..100_000.0,
            windowed in proptest::bool::ANY,
        ) {
            let mut p = EmergencyPolicy::new(limit);
            p.hysteresis_fraction = hyst;
            if windowed {
                p.window = Some((
                    SimTime::from_secs(25_000.0),
                    SimTime::from_secs(75_000.0),
                ));
            }
            let t = SimTime::from_secs(t_s);
            let observed = limit * frac;
            prop_assert_eq!(
                p.should_respond(t, observed),
                p.armed_at(t) && observed > limit
            );
            // The post-response level is always compliant: settling on
            // target can never immediately re-trigger.
            prop_assert!(!p.should_respond(t, p.target_watts()));
        }
    }
}
