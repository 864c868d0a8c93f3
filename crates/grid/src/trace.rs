//! Piecewise-linear grid traces: time-of-day electricity price and
//! carbon intensity.
//!
//! A [`GridTrace`] is an immutable sequence of `(time, value)` nodes with
//! strictly increasing times; queries interpolate linearly between nodes
//! and clamp outside the covered span. Traces come from two sources:
//!
//! - **seeded synthetic generators** ([`GridTrace::synthetic_price`],
//!   [`GridTrace::synthetic_carbon`]) — deterministic diurnal shapes with
//!   per-hour jitter drawn from indexed [`SimRng`] substreams, so every
//!   query order reproduces the same trace;
//! - **a CSV-ish offline format** ([`GridTrace::parse_csv`]) — `hours,value`
//!   rows, `#` comments — hand-parsed to keep the workspace
//!   dependency-free (the shim/offline discipline).
//!
//! [`TraceCursor`] is the engine-side read position: monotone-time
//! queries advance it instead of binary-searching, and it snapshots into
//! the engine's crash-safe state (the cursor is *runtime* state, the
//! trace itself is configuration and is re-supplied at resume).

use crate::error::GridError;
use epa_simcore::rng::SimRng;
use epa_simcore::snap::{Fingerprint, SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::SimTime;
use serde::Serialize;

/// An immutable piecewise-linear time series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GridTrace {
    /// `(seconds, value)` nodes, strictly increasing in time.
    nodes: Vec<(f64, f64)>,
}

impl GridTrace {
    /// Builds a trace from `(seconds, value)` nodes. Requires at least
    /// one node, strictly increasing times, and finite values.
    pub fn new(nodes: Vec<(f64, f64)>) -> Result<Self, GridError> {
        if nodes.is_empty() {
            return Err(GridError::InvalidTrace(
                "trace needs at least one node".into(),
            ));
        }
        for w in nodes.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(GridError::InvalidTrace(format!(
                    "node times must strictly increase ({} then {})",
                    w[0].0, w[1].0
                )));
            }
        }
        for &(t, v) in &nodes {
            if !t.is_finite() || !v.is_finite() {
                return Err(GridError::InvalidTrace(format!(
                    "non-finite node ({t}, {v})"
                )));
            }
        }
        Ok(GridTrace { nodes })
    }

    /// The trace nodes.
    #[must_use]
    pub fn nodes(&self) -> &[(f64, f64)] {
        &self.nodes
    }

    /// Linear interpolation at `t`, clamped to the first/last node value
    /// outside the covered span.
    #[must_use]
    pub fn value_at(&self, t: SimTime) -> f64 {
        self.value_from(t, self.seek_index(t.as_secs()))
    }

    /// `(min, max)` over the node values.
    #[must_use]
    pub fn bounds(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(_, v) in &self.nodes {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Index of the last node at or before `t_secs` (0 when `t` precedes
    /// the trace).
    fn seek_index(&self, t_secs: f64) -> usize {
        match self
            .nodes
            .binary_search_by(|&(nt, _)| nt.partial_cmp(&t_secs).expect("finite node time"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Interpolates at `t` given a hint index (the last node at or
    /// before `t`, as maintained by [`TraceCursor`]).
    fn value_from(&self, t: SimTime, idx: usize) -> f64 {
        let ts = t.as_secs();
        let (t0, v0) = self.nodes[idx];
        if ts <= t0 {
            return v0;
        }
        match self.nodes.get(idx + 1) {
            Some(&(t1, v1)) => v0 + (v1 - v0) * (ts - t0) / (t1 - t0),
            None => v0,
        }
    }

    /// Parses the CSV-ish offline format: one `hours,value` row per
    /// line, blank lines and `#` comments ignored.
    pub fn parse_csv(text: &str) -> Result<Self, GridError> {
        let mut nodes = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (h, v) = line.split_once(',').ok_or_else(|| GridError::Parse {
                line: i + 1,
                detail: format!("expected 'hours,value', got {line:?}"),
            })?;
            let hours: f64 = h.trim().parse().map_err(|_| GridError::Parse {
                line: i + 1,
                detail: format!("{:?} is not a number", h.trim()),
            })?;
            let value: f64 = v.trim().parse().map_err(|_| GridError::Parse {
                line: i + 1,
                detail: format!("{:?} is not a number", v.trim()),
            })?;
            nodes.push((hours * 3600.0, value));
        }
        GridTrace::new(nodes)
    }

    /// Folds the trace into a config fingerprint (the engine rejects a
    /// resume whose trace disagrees with the snapshot's).
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.u64(self.nodes.len() as u64);
        for &(t, v) in &self.nodes {
            fp.f64(t);
            fp.f64(v);
        }
    }

    /// Synthetic time-of-day electricity price: a morning and an evening
    /// peak in *local* time (`tz_offset_hours` east of simulation time),
    /// hourly nodes over `days` days, deterministic per-hour jitter.
    #[must_use]
    pub fn synthetic_price(
        base_per_mwh: f64,
        swing_frac: f64,
        days: u32,
        tz_offset_hours: f64,
        seed: u64,
    ) -> Self {
        let rng = SimRng::new(seed);
        let hours = u64::from(days) * 24;
        let nodes = (0..=hours)
            .map(|h| {
                let local = (h as f64 + tz_offset_hours).rem_euclid(24.0);
                // Two-peak demand curve: a broad evening peak near 18:00
                // and a shoulder near 09:00, troughing overnight.
                let evening = (std::f64::consts::PI * (local - 12.0) / 12.0).sin();
                let morning = 0.5 * (std::f64::consts::PI * (local - 3.0) / 6.0).sin();
                let shape = (0.7 * evening + 0.3 * morning).clamp(-1.0, 1.0);
                let mut hour_rng = rng.stream_indexed("grid-price-hour", h);
                let jitter = hour_rng.normal(0.0, 0.04 * base_per_mwh.abs());
                let v =
                    (base_per_mwh * (1.0 + swing_frac * shape) + jitter).max(base_per_mwh * 0.1);
                (h as f64 * 3600.0, v)
            })
            .collect();
        GridTrace::new(nodes).expect("synthetic nodes are valid")
    }

    /// Synthetic carbon intensity (gCO₂/kWh): a midday solar dip in
    /// local time — the "renewables are plentiful" window
    /// follow-the-renewables scheduling chases — with per-hour jitter.
    #[must_use]
    pub fn synthetic_carbon(
        base_g_per_kwh: f64,
        swing_frac: f64,
        days: u32,
        tz_offset_hours: f64,
        seed: u64,
    ) -> Self {
        let rng = SimRng::new(seed);
        let hours = u64::from(days) * 24;
        let nodes = (0..=hours)
            .map(|h| {
                let local = (h as f64 + tz_offset_hours).rem_euclid(24.0);
                // Solar availability: zero outside 06:00–18:00 local,
                // sinusoidal hump peaking at noon.
                let sun = if (6.0..=18.0).contains(&local) {
                    (std::f64::consts::PI * (local - 6.0) / 12.0).sin()
                } else {
                    0.0
                };
                let mut hour_rng = rng.stream_indexed("grid-carbon-hour", h);
                let jitter = hour_rng.normal(0.0, 0.03 * base_g_per_kwh.abs());
                let v =
                    (base_g_per_kwh * (1.0 - swing_frac * sun) + jitter).max(base_g_per_kwh * 0.05);
                (h as f64 * 3600.0, v)
            })
            .collect();
        GridTrace::new(nodes).expect("synthetic nodes are valid")
    }
}

/// A monotone read position into a [`GridTrace`] — engine runtime state,
/// snapshotted with the rest of the grid section so a resumed run reads
/// the trace from exactly where the interrupted run stood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCursor {
    /// Index of the last node at or before the last queried time.
    idx: u32,
}

impl TraceCursor {
    /// A cursor at the start of a trace.
    #[must_use]
    pub fn new() -> Self {
        TraceCursor { idx: 0 }
    }

    /// Advances to `t` (monotone queries only) and interpolates. Equal
    /// to [`GridTrace::value_at`] for any non-decreasing query sequence.
    pub fn value(&mut self, trace: &GridTrace, t: SimTime) -> f64 {
        let ts = t.as_secs();
        let nodes = trace.nodes();
        while (self.idx as usize) + 1 < nodes.len() && nodes[self.idx as usize + 1].0 <= ts {
            self.idx += 1;
        }
        trace.value_from(t, self.idx as usize)
    }

    /// Encodes the cursor into a snapshot section.
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        w.u32(self.idx);
    }

    /// Decodes a cursor written by [`TraceCursor::snapshot_into`] for
    /// `trace`, rejecting a position past its last node.
    pub fn restore_from(r: &mut SnapReader<'_>, trace: &GridTrace) -> Result<Self, SnapshotError> {
        let idx = r.u32()?;
        if idx as usize >= trace.nodes().len() {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "trace cursor {idx} is past the trace's {} nodes",
                    trace.nodes().len()
                ),
            });
        }
        Ok(TraceCursor { idx })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp() -> GridTrace {
        GridTrace::new(vec![(0.0, 10.0), (3600.0, 20.0), (7200.0, 40.0)]).unwrap()
    }

    #[test]
    fn rejects_degenerate_traces() {
        assert!(GridTrace::new(vec![]).is_err());
        assert!(GridTrace::new(vec![(0.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(GridTrace::new(vec![(10.0, 1.0), (5.0, 2.0)]).is_err());
        assert!(GridTrace::new(vec![(0.0, f64::NAN)]).is_err());
    }

    #[test]
    fn interpolates_and_clamps() {
        let tr = ramp();
        assert_eq!(tr.value_at(SimTime::ZERO), 10.0);
        assert!((tr.value_at(SimTime::from_secs(1800.0)) - 15.0).abs() < 1e-9);
        assert_eq!(tr.value_at(SimTime::from_secs(3600.0)), 20.0);
        assert_eq!(tr.value_at(SimTime::from_secs(99_999.0)), 40.0);
    }

    #[test]
    fn csv_roundtrip_and_errors() {
        let tr = GridTrace::parse_csv("# price trace\n0, 80\n1.5, 95.5\n\n24, 70\n").unwrap();
        assert_eq!(tr.nodes().len(), 3);
        assert!((tr.value_at(SimTime::from_hours(1.5)) - 95.5).abs() < 1e-9);
        assert_eq!(
            GridTrace::parse_csv("0 80"),
            Err(GridError::Parse {
                line: 1,
                detail: "expected 'hours,value', got \"0 80\"".into()
            })
        );
        assert!(matches!(
            GridTrace::parse_csv("0,x"),
            Err(GridError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn synthetic_traces_are_deterministic_and_positive() {
        let a = GridTrace::synthetic_price(100.0, 0.3, 3, 9.0, 7);
        let b = GridTrace::synthetic_price(100.0, 0.3, 3, 9.0, 7);
        assert_eq!(a, b);
        assert_ne!(a, GridTrace::synthetic_price(100.0, 0.3, 3, 9.0, 8));
        assert!(a.nodes().iter().all(|&(_, v)| v > 0.0));
        let c = GridTrace::synthetic_carbon(400.0, 0.5, 3, 9.0, 7);
        assert!(c.nodes().iter().all(|&(_, v)| v > 0.0));
    }

    #[test]
    fn carbon_dips_at_local_noon() {
        let c = GridTrace::synthetic_carbon(400.0, 0.6, 2, 0.0, 3);
        let noon = c.value_at(SimTime::from_hours(12.0));
        let midnight = c.value_at(SimTime::from_hours(0.0));
        assert!(noon < midnight, "noon {noon} vs midnight {midnight}");
    }

    proptest! {
        /// Monotone cursor queries match stateless interpolation exactly,
        /// hit node values exactly at node times, and the cursor
        /// snapshot-roundtrips byte-exactly mid-stream.
        #[test]
        fn cursor_matches_value_at(
            raw in proptest::collection::vec((0.0f64..500_000.0, -50.0f64..50.0), 2..24),
            queries in proptest::collection::vec(0.0f64..600_000.0, 1..40),
        ) {
            let mut nodes: Vec<(f64, f64)> = raw;
            nodes.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            nodes.dedup_by(|a, b| (a.0 - b.0).abs() < 1.0);
            prop_assume!(nodes.len() >= 2);
            let trace = GridTrace::new(nodes.clone()).unwrap();
            let mut sorted = queries;
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut cursor = TraceCursor::new();
            for (i, q) in sorted.iter().enumerate() {
                let t = SimTime::from_secs(*q);
                let via_cursor = cursor.value(&trace, t);
                let via_search = trace.value_at(t);
                prop_assert_eq!(via_cursor.to_bits(), via_search.to_bits());
                if i == sorted.len() / 2 {
                    // Snapshot the cursor mid-stream and byte-compare.
                    let mut w = SnapWriter::new();
                    cursor.snapshot_into(&mut w);
                    let bytes = w.finish(1);
                    let mut r = SnapReader::open(&bytes, 1).unwrap();
                    let back = TraceCursor::restore_from(&mut r, &trace).unwrap();
                    prop_assert_eq!(back, cursor);
                }
            }
            // Node times report node values exactly.
            for &(nt, nv) in trace.nodes() {
                prop_assert_eq!(trace.value_at(SimTime::from_secs(nt)).to_bits(), nv.to_bits());
            }
        }
    }
}
