//! Time series with piecewise-constant semantics.
//!
//! Power traces in this framework are *step functions*: a node draws a
//! constant wattage between two state-change events. [`TimeSeries`]
//! stores `(t, value)` change points and provides exact integration
//! (energy = ∫ P dt), time-weighted averages, and resampling for
//! telemetry-style reporting.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A piecewise-constant time series: the value set at `t_i` holds on
/// `[t_i, t_{i+1})`. Change points must be appended in non-decreasing
/// time order.
///
/// Alongside the change points the series maintains a cumulative-energy
/// prefix-sum array: `cum[i]` is the exact integral of the step function
/// from the first change point up to `points[i].0`. Window queries
/// ([`integrate`](Self::integrate), [`max_on`](Self::max_on),
/// [`time_weighted_mean`](Self::time_weighted_mean)) binary-search the
/// change points instead of scanning the whole trace, so a query costs
/// O(log n) (plus the window's own length for `max_on`) rather than O(n).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
    /// `cum[i]` = ∫ from `points[0].0` to `points[i].0`; always the same
    /// length as `points` (`cum[0]` is 0).
    cum: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        TimeSeries {
            points: Vec::new(),
            cum: Vec::new(),
        }
    }

    /// Appends a change point. Equal-time appends overwrite the previous
    /// value at that instant (last write wins), matching event semantics
    /// where several updates may land on one timestamp.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the last change point.
    pub fn push(&mut self, t: SimTime, value: f64) {
        debug_assert!(value.is_finite());
        if let Some(&(last_t, last_v)) = self.points.last() {
            assert!(t >= last_t, "time series must be appended in order");
            if t == last_t {
                // `cum` is unaffected: cum[last] covers only up to last_t,
                // and the segment starting there has not elapsed yet.
                let last = self.points.last_mut().expect("nonempty");
                last.1 = value;
                return;
            }
            // Skip redundant points to keep traces compact.
            if last_v == value {
                return;
            }
            let total = self.cum.last().expect("cum tracks points");
            self.cum.push(total + last_v * (t - last_t).as_secs());
        } else {
            self.cum.push(0.0);
        }
        self.points.push((t, value));
    }

    /// Cumulative integral from the first change point to `x`, read from
    /// the prefix-sum array in O(log n).
    fn energy_to(&self, x: SimTime) -> f64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&x)) {
            Ok(i) => self.cum[i],
            Err(0) => 0.0,
            Err(i) => {
                let (t_prev, v_prev) = self.points[i - 1];
                self.cum[i - 1] + v_prev * (x - t_prev).as_secs()
            }
        }
    }

    /// Number of stored change points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no change points are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The value in effect at time `t` (the most recent change point at or
    /// before `t`). `None` before the first change point.
    #[must_use]
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// The last change point, if any.
    #[must_use]
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Encodes the series into a snapshot. The prefix-sum array is
    /// serialized alongside the change points (rather than recomputed on
    /// restore) so the restored series is bit-identical state, not just
    /// equivalent.
    pub fn snapshot_into(&self, w: &mut crate::snap::SnapWriter) {
        w.seq(&self.points, |w, &(t, v)| {
            w.f64(t.as_secs());
            w.f64(v);
        });
        w.seq(&self.cum, |w, &c| w.f64(c));
    }

    /// Decodes a series written by [`TimeSeries::snapshot_into`].
    pub fn restore_from(
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<Self, crate::snap::SnapshotError> {
        let points = r.seq(|r| Ok((r.time()?, r.f64()?)))?;
        let cum = r.seq(crate::snap::SnapReader::f64)?;
        if cum.len() != points.len() {
            return Err(crate::snap::SnapshotError::Corrupt {
                detail: format!(
                    "time series has {} points but {} prefix sums",
                    points.len(),
                    cum.len()
                ),
            });
        }
        Ok(TimeSeries { points, cum })
    }

    /// Exact integral of the step function over `[a, b]`, in O(log n) as
    /// the difference of two prefix-sum reads.
    ///
    /// Intervals before the first change point contribute zero. For a power
    /// trace in watts this returns joules.
    #[must_use]
    pub fn integrate(&self, a: SimTime, b: SimTime) -> f64 {
        assert!(b >= a, "integration bounds reversed");
        if self.points.is_empty() || b == a {
            return 0.0;
        }
        self.energy_to(b) - self.energy_to(a)
    }

    /// Reference O(n) implementation of [`integrate`](Self::integrate):
    /// a direct scan over every segment. Kept for the equivalence
    /// property tests and the naive-vs-prefix benchmarks.
    #[must_use]
    pub fn integrate_naive(&self, a: SimTime, b: SimTime) -> f64 {
        assert!(b >= a, "integration bounds reversed");
        if self.points.is_empty() || b == a {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, &(t_i, v_i)) in self.points.iter().enumerate() {
            let seg_start = t_i.max(a);
            let seg_end = match self.points.get(i + 1) {
                Some(&(t_next, _)) => t_next.min(b),
                None => b,
            };
            if seg_end > seg_start {
                acc += v_i * (seg_end - seg_start).as_secs();
            }
            if t_i >= b {
                break;
            }
        }
        acc
    }

    /// Time-weighted mean over `[a, b]` counting only time at or after the
    /// first change point.
    #[must_use]
    pub fn time_weighted_mean(&self, a: SimTime, b: SimTime) -> f64 {
        if self.points.is_empty() || b <= a {
            return 0.0;
        }
        let eff_start = self.points[0].0.max(a);
        if b <= eff_start {
            return 0.0;
        }
        self.integrate(a, b) / (b - eff_start).as_secs()
    }

    /// Maximum value attained on `[a, b]` (considering the value in effect
    /// at `a`). `None` if the series has no value anywhere on the interval.
    ///
    /// Costs O(log n + k) where k is the number of change points inside
    /// the window: the window start is located by binary search instead of
    /// scanning from the beginning of the trace.
    #[must_use]
    pub fn max_on(&self, a: SimTime, b: SimTime) -> Option<f64> {
        let mut best: Option<f64> = self.value_at(a);
        let start = self.points.partition_point(|&(t, _)| t < a);
        for &(t, v) in &self.points[start..] {
            if t > b {
                break;
            }
            best = Some(best.map_or(v, |m| m.max(v)));
        }
        best
    }

    /// Samples the series at a fixed interval over `[a, b]`, producing
    /// telemetry-style `(t, value)` rows. Times before the first change
    /// point sample as 0.
    #[must_use]
    pub fn resample(&self, a: SimTime, b: SimTime, dt: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!dt.is_zero(), "resample interval must be positive");
        let mut out = Vec::new();
        let mut t = a;
        while t <= b {
            out.push((t, self.value_at(t).unwrap_or(0.0)));
            t += dt;
        }
        out
    }

    /// Iterates over the raw change points.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }
}

/// A bounded-memory stand-in for [`TimeSeries`] that answers the four
/// whole-run queries a power trace exists for — `∫ from 0`, max, time-
/// weighted mean from 0, and a fixed-interval sample grid — without
/// storing the change points. State is O(1) plus the sample grid
/// (horizon / grid interval), instead of O(change points).
///
/// Every answer is bit-identical to the [`TimeSeries`] it replaces: the
/// integral accumulator performs the same `acc + v·Δt` additions in the
/// same order as the prefix-sum array, the max folds committed values in
/// append order exactly as [`TimeSeries::max_on`] does over `[0, end]`,
/// and the grid advances by the same `t += dt` float steps as
/// [`TimeSeries::resample`]. The one-point *pending* stage mirrors the
/// last stored change point, so equal-time overwrites and redundant-value
/// skips behave exactly like [`TimeSeries::push`] — a transient value
/// overwritten at the same instant never touches the accumulators.
///
/// Queries are only defined for windows `[0, b]` with `b` at or after
/// the last pushed time (the whole-run window); anything else panics.
#[derive(Debug, Clone)]
pub struct BoundedSeries {
    grid_dt: SimDuration,
    /// Next grid instant not yet emitted: `grid_vals.len()` steps of
    /// `t += grid_dt` from t = 0. Grid values are final once a strictly
    /// later change point exists.
    next_grid: SimTime,
    /// Sampled values at the emitted grid instants `0, dt, 2·dt, …`.
    grid_vals: Vec<f64>,
    /// The last change point — not yet folded into `acc`/`vmax` because
    /// an equal-time push may still overwrite it.
    pending: Option<(SimTime, f64)>,
    first_t: SimTime,
    /// Integral of committed segments (the prefix-sum array's last entry).
    acc: f64,
    /// Max over committed point values, in append order.
    vmax: Option<f64>,
    len: u64,
}

impl BoundedSeries {
    /// Creates an empty bounded series sampling on a `grid_dt` grid
    /// anchored at t = 0.
    ///
    /// # Panics
    /// Panics if `grid_dt` is zero (as [`TimeSeries::resample`] would).
    #[must_use]
    pub fn new(grid_dt: SimDuration) -> Self {
        assert!(!grid_dt.is_zero(), "resample interval must be positive");
        BoundedSeries {
            grid_dt,
            next_grid: SimTime::ZERO,
            grid_vals: Vec::new(),
            pending: None,
            first_t: SimTime::ZERO,
            acc: 0.0,
            vmax: None,
            len: 0,
        }
    }

    /// Emits every grid instant strictly before `t`: their sampled value
    /// (the pending point's value, or 0 before the first point) can no
    /// longer change.
    fn emit_grid_to(&mut self, t: SimTime) {
        let v = self.pending.map_or(0.0, |(_, v)| v);
        while self.next_grid < t {
            self.grid_vals.push(v);
            self.next_grid += self.grid_dt;
        }
    }

    /// Appends a change point — the exact semantics (ordering assert,
    /// equal-time overwrite, redundant-value skip) of
    /// [`TimeSeries::push`].
    pub fn push(&mut self, t: SimTime, value: f64) {
        debug_assert!(value.is_finite());
        let Some((last_t, last_v)) = self.pending else {
            self.emit_grid_to(t);
            self.first_t = t;
            self.pending = Some((t, value));
            self.len = 1;
            return;
        };
        assert!(t >= last_t, "time series must be appended in order");
        if t == last_t {
            self.pending = Some((t, value));
            return;
        }
        if last_v == value {
            return;
        }
        self.emit_grid_to(t);
        self.acc += last_v * (t - last_t).as_secs();
        self.vmax = Some(self.vmax.map_or(last_v, |m| m.max(last_v)));
        self.pending = Some((t, value));
        self.len += 1;
    }

    /// Number of stored change points ([`TimeSeries::len`] equivalent).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no change points have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_none()
    }

    fn assert_whole_run(&self, b: SimTime) {
        if let Some((last_t, _)) = self.pending {
            assert!(
                b >= last_t,
                "bounded series answers whole-run queries only: end {b} precedes last point {last_t}",
            );
        }
    }

    /// `TimeSeries::integrate(0, b)` for `b` at/after the last point.
    #[must_use]
    pub fn integrate_from_start(&self, b: SimTime) -> f64 {
        self.assert_whole_run(b);
        let Some((last_t, last_v)) = self.pending else {
            return 0.0;
        };
        if b == SimTime::ZERO {
            return 0.0;
        }
        if b == last_t {
            self.acc
        } else {
            self.acc + last_v * (b - last_t).as_secs()
        }
    }

    /// `TimeSeries::max_on(0, b)` for `b` at/after the last point.
    #[must_use]
    pub fn max_value(&self, b: SimTime) -> Option<f64> {
        self.assert_whole_run(b);
        let (_, pending_v) = self.pending?;
        Some(self.vmax.map_or(pending_v, |m| m.max(pending_v)))
    }

    /// `TimeSeries::time_weighted_mean(0, b)` for `b` at/after the last
    /// point.
    #[must_use]
    pub fn mean_from_start(&self, b: SimTime) -> f64 {
        self.assert_whole_run(b);
        if self.pending.is_none() || b <= SimTime::ZERO {
            return 0.0;
        }
        let eff_start = self.first_t.max(SimTime::ZERO);
        if b <= eff_start {
            return 0.0;
        }
        self.integrate_from_start(b) / (b - eff_start).as_secs()
    }

    /// `TimeSeries::resample(0, b, grid_dt)` for `b` at/after the last
    /// point: the already-final grid values plus the tail sampled at the
    /// pending value, on instants rebuilt by the same `t += dt` steps.
    #[must_use]
    pub fn sample_grid(&self, b: SimTime) -> Vec<(SimTime, f64)> {
        self.assert_whole_run(b);
        let mut out = Vec::with_capacity(self.grid_vals.len());
        let mut t = SimTime::ZERO;
        for &v in &self.grid_vals {
            out.push((t, v));
            t += self.grid_dt;
        }
        let v = self.pending.map_or(0.0, |(_, v)| v);
        while t <= b {
            out.push((t, v));
            t += self.grid_dt;
        }
        out
    }

    /// Encodes the bounded series into a snapshot (bit-exact state). The
    /// grid interval and the grid instants are not stored: the reader
    /// supplies the interval and replays the `t += dt` steps.
    pub fn snapshot_into(&self, w: &mut crate::snap::SnapWriter) {
        w.seq(&self.grid_vals, |w, &v| w.f64(v));
        w.opt(self.pending.as_ref(), |w, &(t, v)| {
            w.f64(t.as_secs());
            w.f64(v);
        });
        w.f64(self.first_t.as_secs());
        w.f64(self.acc);
        w.opt(self.vmax.as_ref(), |w, &m| w.f64(m));
        w.u64(self.len);
    }

    /// Decodes a series written by [`BoundedSeries::snapshot_into`] on a
    /// `grid_dt` grid. The pending point must lie after the last emitted
    /// grid instant and at or before the next one, and a series with no
    /// point must have emitted none — anything else is
    /// [`SnapshotError::Corrupt`](crate::snap::SnapshotError::Corrupt),
    /// since the next push would otherwise emit a grid the series never
    /// sampled.
    ///
    /// # Panics
    /// Panics if `grid_dt` is zero (as [`BoundedSeries::new`] does).
    pub fn restore_from(
        r: &mut crate::snap::SnapReader<'_>,
        grid_dt: SimDuration,
    ) -> Result<Self, crate::snap::SnapshotError> {
        let mut s = BoundedSeries::new(grid_dt);
        s.grid_vals = r.seq(crate::snap::SnapReader::f64)?;
        s.pending = r.opt(|r| Ok((r.time()?, r.f64()?)))?;
        s.first_t = r.time()?;
        s.acc = r.f64()?;
        s.vmax = r.opt(crate::snap::SnapReader::f64)?;
        s.len = r.u64()?;
        let mut last_emitted = None;
        for _ in &s.grid_vals {
            last_emitted = Some(s.next_grid);
            s.next_grid += grid_dt;
        }
        let consistent = match s.pending {
            None => last_emitted.is_none(),
            Some((t, _)) => last_emitted.is_none_or(|e| e < t) && t <= s.next_grid,
        };
        if !consistent {
            return Err(crate::snap::SnapshotError::Corrupt {
                detail: format!(
                    "bounded series point {:?} does not follow its {} grid samples",
                    s.pending,
                    s.grid_vals.len()
                ),
            });
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn value_at_steps() {
        let mut ts = TimeSeries::new();
        ts.push(t(10.0), 100.0);
        ts.push(t(20.0), 200.0);
        assert_eq!(ts.value_at(t(5.0)), None);
        assert_eq!(ts.value_at(t(10.0)), Some(100.0));
        assert_eq!(ts.value_at(t(15.0)), Some(100.0));
        assert_eq!(ts.value_at(t(20.0)), Some(200.0));
        assert_eq!(ts.value_at(t(1e6)), Some(200.0));
    }

    #[test]
    fn equal_time_push_overwrites() {
        let mut ts = TimeSeries::new();
        ts.push(t(10.0), 100.0);
        ts.push(t(10.0), 150.0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.value_at(t(10.0)), Some(150.0));
    }

    #[test]
    fn redundant_points_skipped() {
        let mut ts = TimeSeries::new();
        ts.push(t(0.0), 5.0);
        ts.push(t(10.0), 5.0);
        ts.push(t(20.0), 6.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn integrate_simple_rectangle() {
        let mut ts = TimeSeries::new();
        ts.push(t(0.0), 100.0);
        assert!((ts.integrate(t(0.0), t(10.0)) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn integrate_steps() {
        let mut ts = TimeSeries::new();
        ts.push(t(0.0), 100.0);
        ts.push(t(10.0), 200.0);
        // [0,10) at 100 + [10,20] at 200 = 1000 + 2000
        assert!((ts.integrate(t(0.0), t(20.0)) - 3000.0).abs() < 1e-9);
        // Partial window [5, 15]
        assert!((ts.integrate(t(5.0), t(15.0)) - (500.0 + 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn integrate_before_first_point_is_zero() {
        let mut ts = TimeSeries::new();
        ts.push(t(100.0), 50.0);
        assert_eq!(ts.integrate(t(0.0), t(100.0)), 0.0);
        assert!((ts.integrate(t(0.0), t(102.0)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_ignores_undefined_prefix() {
        let mut ts = TimeSeries::new();
        ts.push(t(10.0), 100.0);
        // Over [0, 20]: integral 1000 over effective 10 s.
        assert!((ts.time_weighted_mean(t(0.0), t(20.0)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn max_on_window() {
        let mut ts = TimeSeries::new();
        ts.push(t(0.0), 1.0);
        ts.push(t(10.0), 5.0);
        ts.push(t(20.0), 2.0);
        assert_eq!(ts.max_on(t(0.0), t(30.0)), Some(5.0));
        assert_eq!(ts.max_on(t(12.0), t(15.0)), Some(5.0)); // value in effect
        assert_eq!(ts.max_on(t(21.0), t(25.0)), Some(2.0));
    }

    #[test]
    fn resample_grid() {
        let mut ts = TimeSeries::new();
        ts.push(t(5.0), 10.0);
        let rows = ts.resample(t(0.0), t(10.0), SimDuration::from_secs(5.0));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, 0.0);
        assert_eq!(rows[1].1, 10.0);
        assert_eq!(rows[2].1, 10.0);
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(t(10.0), 1.0);
        ts.push(t(5.0), 2.0);
    }

    #[test]
    fn prefix_sum_tracks_points_through_overwrite_and_skip() {
        let mut ts = TimeSeries::new();
        ts.push(t(0.0), 100.0);
        ts.push(t(10.0), 100.0); // redundant, skipped
        ts.push(t(20.0), 200.0);
        ts.push(t(20.0), 300.0); // equal-time overwrite
        assert_eq!(ts.len(), 2);
        // [0,20) at 100, then 300 onward.
        assert!((ts.integrate(t(0.0), t(30.0)) - (2000.0 + 3000.0)).abs() < 1e-9);
        assert!(
            (ts.integrate(t(0.0), t(30.0)) - ts.integrate_naive(t(0.0), t(30.0))).abs() < 1e-12
        );
    }

    #[test]
    fn bounded_restore_rejects_points_off_the_grid() {
        let dt = SimDuration::from_secs(300.0);
        // (grid samples, pending point): after 3 samples the emitted
        // instants are 0, 300, 600 and the next one is 900.
        let frame = |samples: usize, pending: Option<f64>| {
            let mut w = crate::snap::SnapWriter::new();
            w.seq(&vec![50.0; samples], |w, &v| w.f64(v));
            w.opt(pending.as_ref(), |w, &at| {
                w.f64(at);
                w.f64(80.0);
            });
            w.f64(0.0);
            w.f64(0.0);
            w.opt(None::<&f64>, |w, &m| w.f64(m));
            w.u64(u64::from(pending.is_some()));
            w.finish(1)
        };
        let restore = |bytes: &[u8]| {
            let mut r = crate::snap::SnapReader::open(bytes, 1).unwrap();
            BoundedSeries::restore_from(&mut r, dt)
        };
        for (samples, pending) in [
            (0, None),
            (0, Some(0.0)),
            (3, Some(601.0)),
            (3, Some(900.0)),
        ] {
            assert!(
                restore(&frame(samples, pending)).is_ok(),
                "{samples} {pending:?}"
            );
        }
        for (samples, pending) in [
            (3, None),
            (0, Some(1.0)),
            (3, Some(600.0)),
            (3, Some(900.5)),
            (3, Some(-1.0)),
            (3, Some(f64::NAN)),
        ] {
            assert!(
                matches!(
                    restore(&frame(samples, pending)),
                    Err(crate::snap::SnapshotError::Corrupt { .. })
                ),
                "{samples} {pending:?}"
            );
        }
    }

    #[test]
    fn integrate_matches_naive_on_window_edges() {
        let mut ts = TimeSeries::new();
        for i in 0..50 {
            ts.push(t(f64::from(i) * 3.0), f64::from(i % 7) * 10.0 + 1.0);
        }
        for &(a, b) in &[
            (0.0, 147.0),
            (1.5, 1.5),
            (10.0, 11.0),
            (0.0, 500.0),
            (140.0, 300.0),
        ] {
            let fast = ts.integrate(t(a), t(b));
            let naive = ts.integrate_naive(t(a), t(b));
            assert!(
                (fast - naive).abs() < 1e-9 * (1.0 + naive.abs()),
                "[{a},{b}]: {fast} vs {naive}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    proptest! {
        /// Integration is additive over adjacent windows:
        /// ∫[a,c] = ∫[a,b] + ∫[b,c].
        #[test]
        fn integral_additivity(
            steps in proptest::collection::vec((0.0f64..100.0, 0.0f64..500.0), 1..40),
            cuts in proptest::collection::vec(0.0f64..120.0, 2..3),
        ) {
            let mut ts = TimeSeries::new();
            let mut clock = 0.0;
            for (dt, v) in steps {
                clock += dt;
                ts.push(t(clock), v);
            }
            let mut sorted = cuts.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (a, c) = (sorted[0], sorted[sorted.len() - 1]);
            let b = (a + c) / 2.0;
            let whole = ts.integrate(t(a), t(c));
            let parts = ts.integrate(t(a), t(b)) + ts.integrate(t(b), t(c));
            prop_assert!((whole - parts).abs() < 1e-6 * (1.0 + whole.abs()));
        }

        /// The integral of a constant-valued series over [a,b] equals
        /// value * overlap with the defined region.
        #[test]
        fn constant_series_integral(v in 0.0f64..1e4, start in 0.0f64..100.0, len in 0.0f64..100.0) {
            let mut ts = TimeSeries::new();
            ts.push(t(start), v);
            let b = start + len;
            let got = ts.integrate(t(0.0), t(b));
            prop_assert!((got - v * len).abs() < 1e-6 * (1.0 + got.abs()));
        }

        /// The prefix-sum integral agrees with the naive full scan on
        /// arbitrary traces and windows, including equal-time overwrites.
        #[test]
        fn prefix_sum_matches_naive_scan(
            steps in proptest::collection::vec((0.0f64..20.0, 0.0f64..500.0), 1..120),
            window in (0.0f64..2400.0, 0.0f64..2400.0),
        ) {
            let mut ts = TimeSeries::new();
            let mut clock = 0.0;
            for (dt, v) in steps {
                clock += dt; // dt may be 0: exercises last-write-wins
                ts.push(t(clock), v);
            }
            let (lo, hi) = if window.0 <= window.1 { window } else { (window.1, window.0) };
            let fast = ts.integrate(t(lo), t(hi));
            let naive = ts.integrate_naive(t(lo), t(hi));
            prop_assert!(
                (fast - naive).abs() < 1e-6 * (1.0 + naive.abs()),
                "window [{}, {}]: prefix {} vs naive {}", lo, hi, fast, naive
            );
        }

        /// The bounded accumulator answers every whole-run query
        /// bit-identically to the full series it replaces, on arbitrary
        /// traces including equal-time overwrites (dt = 0) and redundant
        /// repeated values.
        #[test]
        fn bounded_matches_full_series_bitwise(
            steps in proptest::collection::vec(
                (0.0f64..600.0, 0.0f64..500.0, 0u8..4), 1..80),
            tail in 0.0f64..900.0,
            grid_secs in 30.0f64..900.0,
        ) {
            let dt = SimDuration::from_secs(grid_secs);
            let mut full = TimeSeries::new();
            let mut bounded = BoundedSeries::new(dt);
            let mut clock = 0.0f64;
            let mut last_v = 0.0f64;
            for (gap, v, kind) in steps {
                // kind 0: normal step; 1: equal-time overwrite;
                // 2: redundant value repeat; 3: normal step.
                let (g, val) = match kind {
                    1 => (0.0, v),
                    2 => (gap, last_v),
                    _ => (gap, v),
                };
                clock += g;
                last_v = val;
                full.push(t(clock), val);
                bounded.push(t(clock), val);
            }
            let end = t(clock + tail);
            // A snapshot roundtrip must answer identically too.
            let mut w = crate::snap::SnapWriter::new();
            bounded.snapshot_into(&mut w);
            let bytes = w.finish(1);
            let mut r = crate::snap::SnapReader::open(&bytes, 1).unwrap();
            let restored = BoundedSeries::restore_from(&mut r, dt).unwrap();
            r.finish().unwrap();
            prop_assert_eq!(restored.next_grid, bounded.next_grid);
            prop_assert_eq!(
                restored.sample_grid(end).len(), bounded.sample_grid(end).len());
            for (&(rt, rv), &(bt, bv)) in
                restored.sample_grid(end).iter().zip(&bounded.sample_grid(end))
            {
                prop_assert_eq!(rt, bt);
                prop_assert_eq!(rv.to_bits(), bv.to_bits());
            }
            prop_assert_eq!(
                restored.integrate_from_start(end).to_bits(),
                bounded.integrate_from_start(end).to_bits()
            );
            prop_assert_eq!(full.len() as u64, bounded.len());
            let (fi, bi) = (full.integrate(t(0.0), end), bounded.integrate_from_start(end));
            prop_assert_eq!(fi.to_bits(), bi.to_bits(), "integrate: {} vs {}", fi, bi);
            let (fm, bm) = (full.max_on(t(0.0), end), bounded.max_value(end));
            prop_assert_eq!(fm.map(f64::to_bits), bm.map(f64::to_bits));
            let (fa, ba) = (
                full.time_weighted_mean(t(0.0), end),
                bounded.mean_from_start(end),
            );
            prop_assert_eq!(fa.to_bits(), ba.to_bits(), "mean: {} vs {}", fa, ba);
            let fr = full.resample(t(0.0), end, dt);
            let br = bounded.sample_grid(end);
            prop_assert_eq!(fr.len(), br.len());
            for (i, (&(ft, fv), &(bt, bv))) in fr.iter().zip(&br).enumerate() {
                prop_assert_eq!(ft, bt, "grid time {} diverges", i);
                prop_assert_eq!(fv.to_bits(), bv.to_bits(), "grid value {} diverges", i);
            }
        }

        /// `max_on` with the binary-searched window start agrees with a
        /// naive scan over all change points.
        #[test]
        fn max_on_matches_naive_scan(
            steps in proptest::collection::vec((0.1f64..20.0, 0.0f64..500.0), 1..60),
            window in (0.0f64..1300.0, 0.0f64..1300.0),
        ) {
            let mut ts = TimeSeries::new();
            let mut clock = 0.0;
            for (dt, v) in steps {
                clock += dt;
                ts.push(t(clock), v);
            }
            let (lo, hi) = if window.0 <= window.1 { window } else { (window.1, window.0) };
            let fast = ts.max_on(t(lo), t(hi));
            let mut naive: Option<f64> = ts.value_at(t(lo));
            for (pt, v) in ts.iter() {
                if pt > t(hi) { break; }
                if pt >= t(lo) {
                    naive = Some(naive.map_or(v, |m| m.max(v)));
                }
            }
            prop_assert_eq!(fast, naive);
        }
    }
}
