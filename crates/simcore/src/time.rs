//! Simulation time.
//!
//! Time is measured in seconds since simulation start, stored as `f64`.
//! [`SimTime`] is an absolute instant; [`SimDuration`] is a span. Both
//! reject NaN at construction so they can carry a total order, which the
//! event queue relies on.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock, in seconds since start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct SimTime(f64);

/// A span of simulation time in seconds. Always finite, may be zero.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds. Panics on NaN or negative values.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and >= 0, got {secs}"
        );
        SimTime(secs)
    }

    /// Creates a time from whole hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Creates a time from whole days.
    #[must_use]
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * 86_400.0)
    }

    /// Seconds since simulation start.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Days since simulation start.
    #[must_use]
    pub fn as_days(self) -> f64 {
        self.0 / 86_400.0
    }

    /// Seconds into the current simulated day (diurnal phase, `[0, 86400)`).
    #[must_use]
    pub fn second_of_day(self) -> f64 {
        self.0.rem_euclid(86_400.0)
    }

    /// Hour of the simulated day in `[0, 24)`.
    #[must_use]
    pub fn hour_of_day(self) -> f64 {
        self.second_of_day() / 3600.0
    }

    /// Day index since start (0-based).
    #[must_use]
    pub fn day_index(self) -> u64 {
        (self.0 / 86_400.0) as u64
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is later.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs((self.0 - earlier.0).max(0.0))
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds. Panics on NaN, infinity, or negatives.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration must be finite and >= 0, got {secs}"
        );
        SimDuration(secs)
    }

    /// Creates a duration from minutes.
    #[must_use]
    pub fn from_mins(mins: f64) -> Self {
        Self::from_secs(mins * 60.0)
    }

    /// Creates a duration from hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Creates a duration from days.
    #[must_use]
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * 86_400.0)
    }

    /// Span length in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// True when the span has zero length.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The longer of two spans.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The shorter of two spans.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Construction guarantees finiteness, so partial_cmp cannot fail.
        self.partial_cmp(other).expect("SimTime is always finite")
    }
}

impl Eq for SimDuration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other)
            .expect("SimDuration is always finite")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0;
        let days = (total / 86_400.0) as u64;
        let rem = total % 86_400.0;
        let h = (rem / 3600.0) as u64;
        let m = ((rem % 3600.0) / 60.0) as u64;
        let s = rem % 60.0;
        if days > 0 {
            write!(f, "{days}d {h:02}:{m:02}:{s:04.1}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:04.1}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 86_400.0 {
            write!(f, "{:.2}d", self.0 / 86_400.0)
        } else if self.0 >= 3600.0 {
            write!(f, "{:.2}h", self.0 / 3600.0)
        } else if self.0 >= 60.0 {
            write!(f, "{:.2}m", self.0 / 60.0)
        } else {
            write!(f, "{:.2}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_hours(25.0);
        assert!((t.as_secs() - 90_000.0).abs() < 1e-9);
        assert_eq!(t.day_index(), 1);
        assert!((t.hour_of_day() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(100.0);
        let d = SimDuration::from_mins(2.0);
        let t2 = t + d;
        assert_eq!(t2.since(t), d);
        assert_eq!(t2 - d, t);
        assert_eq!(t2 - t, d);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_secs(10.0);
        let b = SimTime::from_secs(20.0);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_secs(), 10.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(v[0].as_secs(), 1.0);
        assert_eq!(v[2].as_secs(), 3.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(3725.0)), "01:02:05.0");
        assert_eq!(format!("{}", SimDuration::from_secs(90.0)), "1.50m");
        assert_eq!(format!("{}", SimDuration::from_days(2.0)), "2.00d");
    }

    #[test]
    fn duration_ratio() {
        let a = SimDuration::from_hours(2.0);
        let b = SimDuration::from_hours(1.0);
        assert!((a / b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1.0);
        let db = SimDuration::from_secs(2.0);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }
}
