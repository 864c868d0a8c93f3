//! The metrics registry: counters and fixed-bucket histograms
//! with Prometheus-text and JSON exposition.
//!
//! It is the engine's only registry: every engine counter lands here, and
//! `SimOutcome::counters` is collected from it, so one exposition carries
//! every counter behind a policy decision.
//!
//! - **Allocation-free hot path.** Names are `&str` keys; an `incr` or
//!   `observe` on an existing name allocates nothing (a counter's key
//!   `String` is made once, on first use).
//! - **Exposable.** [`ObsRegistry::to_prometheus_text`] renders the
//!   standard exposition format; [`ObsRegistry::to_json`] emits a
//!   schema-versioned document for diff tooling.
//!
//! All storage is `BTreeMap`-keyed, so exposition order is deterministic.

use crate::OBS_SCHEMA_VERSION;
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// A fixed-bucket histogram (Prometheus semantics: cumulative-free bucket
/// storage here, rendered cumulatively with `le` labels on exposition).
///
/// Buckets are defined by ascending finite upper bounds; an observation
/// lands in the first bucket whose bound is `>= value`, or in the implicit
/// overflow (`+Inf`) bucket past the last bound. Bucket counts therefore
/// always sum to `total` (proptested).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    /// Ascending finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`, the last
    /// entry being the overflow (`+Inf`) bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Histogram {
    /// Creates an empty histogram over the given ascending upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty, non-finite, or not strictly ascending.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly ascending");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (overflow bucket is implicit)"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Mean observed value, or 0 with no observations.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Bucket-resolution quantile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `q * total`. Observations in
    /// the overflow bucket saturate to the last finite bound (histograms
    /// carry no information past it), and an empty histogram reports 0.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum as f64 >= target {
                return self.bounds.get(i).copied().unwrap_or_else(|| {
                    *self
                        .bounds
                        .last()
                        .expect("histogram has at least one bound")
                });
            }
        }
        *self
            .bounds
            .last()
            .expect("histogram has at least one bound")
    }
}

/// The registry: string-keyed counters and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl ObsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        ObsRegistry::default()
    }

    /// Increments counter `name` by `by`, creating it at `by` (even when
    /// `by == 0`) on first use. Only that first use allocates.
    pub fn incr(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_owned(), by);
            }
        }
    }

    /// Reads counter `name` (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Registers histogram `name` over the given bounds (no-op if it
    /// already exists with the same bounds).
    ///
    /// # Panics
    /// If `name` exists with different bounds.
    pub fn register_histogram(&mut self, name: &str, bounds: &[f64]) {
        match self.histograms.get(name) {
            Some(h) => assert_eq!(
                h.bounds, bounds,
                "histogram {name:?} re-registered with different bounds"
            ),
            None => {
                self.histograms
                    .insert(name.to_string(), Histogram::new(bounds));
            }
        }
    }

    /// Records one observation into histogram `name`.
    ///
    /// # Panics
    /// If the histogram was never registered — an unregistered observe is
    /// an instrumentation bug, not a runtime condition.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram {name:?} observed before registration"))
            .observe(value);
    }

    /// Reads histogram `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Encodes the full registry (counters, histograms).
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        let counters: Vec<_> = self.counters.iter().collect();
        w.seq(&counters, |w, (k, v)| {
            w.str(k);
            w.u64(**v);
        });
        let histograms: Vec<_> = self.histograms.iter().collect();
        w.seq(&histograms, |w, (k, h)| {
            w.str(k);
            w.seq(&h.bounds, |w, &b| w.f64(b));
            w.seq(&h.counts, |w, &c| w.u64(c));
            w.u64(h.total);
            w.f64(h.sum);
        });
    }

    /// Decodes a registry written by [`ObsRegistry::snapshot_into`].
    ///
    /// Every histogram must have the shape [`Histogram::new`] builds and
    /// [`Histogram::observe`] maintains — non-empty, finite, strictly
    /// ascending bounds, one count per bucket plus the overflow bucket,
    /// counts summing to `total` — or the frame is rejected as corrupt.
    pub fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let counters = r.seq(|r| Ok((r.str()?, r.u64()?)))?.into_iter().collect();
        let histograms: BTreeMap<String, Histogram> = r
            .seq(|r| {
                let name = r.str()?;
                let bounds = r.seq(SnapReader::f64)?;
                let counts = r.seq(SnapReader::u64)?;
                let total = r.u64()?;
                let sum = r.f64()?;
                let corrupt = |what: String| SnapshotError::Corrupt {
                    detail: format!("histogram {name:?}: {what}"),
                };
                if bounds.is_empty()
                    || !bounds.iter().all(|b| b.is_finite())
                    || bounds.windows(2).any(|w| w[0] >= w[1])
                {
                    return Err(corrupt(format!(
                        "bounds {bounds:?} are not non-empty, finite and strictly ascending"
                    )));
                }
                if counts.len() != bounds.len() + 1 {
                    return Err(corrupt(format!(
                        "{} counts for {} bounds",
                        counts.len(),
                        bounds.len()
                    )));
                }
                let counted = counts.iter().try_fold(0u64, |acc, &c| acc.checked_add(c));
                if counted != Some(total) {
                    return Err(corrupt(format!("bucket counts do not sum to {total}")));
                }
                Ok((
                    name,
                    Histogram {
                        bounds,
                        counts,
                        total,
                        sum,
                    },
                ))
            })?
            .into_iter()
            .collect();
        Ok(ObsRegistry {
            counters,
            histograms,
        })
    }

    /// Renders the Prometheus text exposition format. Metric names are
    /// sanitized (`/`, `-`, etc. become `_`) and prefixed `epa_`.
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, &v) in &self.counters {
            let m = prom_name(name);
            out.push_str(&format!("# TYPE {m} counter\n{m} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let m = prom_name(name);
            out.push_str(&format!("# TYPE {m} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &bound) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                out.push_str(&format!("{m}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{m}_bucket{{le=\"+Inf\"}} {}\n", h.total));
            out.push_str(&format!("{m}_sum {}\n", h.sum));
            out.push_str(&format!("{m}_count {}\n", h.total));
        }
        out
    }

    /// Emits the schema-versioned JSON exposition document.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "schema_version".to_string(),
                Value::UInt(u64::from(OBS_SCHEMA_VERSION)),
            ),
            ("kind".to_string(), Value::String("epa-obs-metrics".into())),
            ("counters".to_string(), self.counters.to_value()),
            ("histograms".to_string(), self.histograms.to_value()),
        ])
    }
}

impl Serialize for ObsRegistry {
    fn to_value(&self) -> Value {
        self.to_json()
    }
}

/// Sanitizes a slash-namespaced metric name into a Prometheus metric name:
/// `sched/wait_secs` → `epa_sched_wait_secs`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("epa_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = ObsRegistry::new();
        r.incr("jobs/started", 3);
        r.incr("jobs/started", 2);
        assert_eq!(r.counter("jobs/started"), 5);
        assert_eq!(r.counter("jobs/never"), 0);
    }

    #[test]
    fn histogram_bucket_placement() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(0.5); // <= 1.0
        h.observe(1.0); // <= 1.0 (inclusive upper bound)
        h.observe(5.0); // <= 10.0
        h.observe(1000.0); // overflow
        assert_eq!(h.counts, vec![2, 1, 0, 1]);
        assert_eq!(h.total, 4);
        assert!((h.sum - 1006.5).abs() < 1e-9);
        assert!((h.mean() - 251.625).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unordered_bounds_rejected() {
        let _ = Histogram::new(&[10.0, 1.0]);
    }

    #[test]
    fn quantile_walks_cumulative_buckets() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        assert_eq!(h.quantile(0.5), 0.0); // empty
        for v in [0.5, 0.6, 5.0, 5.0, 50.0, 50.0, 50.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(0.5), 10.0);
        assert_eq!(h.quantile(0.9), 100.0);
        // Overflow observations saturate to the last finite bound.
        h.observe(1e6);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "before registration")]
    fn unregistered_observe_panics() {
        let mut r = ObsRegistry::new();
        r.observe("nope", 1.0);
    }

    #[test]
    fn prometheus_exposition_format() {
        let mut r = ObsRegistry::new();
        r.incr("jobs/started", 5);
        r.register_histogram("sched/wait_secs", &[60.0, 300.0]);
        r.observe("sched/wait_secs", 10.0);
        r.observe("sched/wait_secs", 100.0);
        r.observe("sched/wait_secs", 999.0);
        let text = r.to_prometheus_text();
        assert!(text.contains("# TYPE epa_jobs_started counter\nepa_jobs_started 5\n"));
        // Buckets are cumulative in the exposition.
        assert!(text.contains("epa_sched_wait_secs_bucket{le=\"60\"} 1\n"));
        assert!(text.contains("epa_sched_wait_secs_bucket{le=\"300\"} 2\n"));
        assert!(text.contains("epa_sched_wait_secs_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("epa_sched_wait_secs_count 3\n"));
    }

    #[test]
    fn json_exposition_is_schema_versioned() {
        let mut r = ObsRegistry::new();
        r.incr("c", 1);
        let text = serde_json::to_string(&r.to_json()).unwrap();
        assert!(text.starts_with("{\"schema_version\":1,\"kind\":\"epa-obs-metrics\""));
        assert!(text.contains("\"counters\":{\"c\":1}"));
    }

    /// A registry frame with no counters and one histogram
    /// `h` written field by field, as a crafted snapshot would carry it.
    fn histogram_frame(bounds: &[f64], counts: &[u64], total: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.seq::<u8>(&[], |_, _| {});
        w.seq(&[()], |w, ()| {
            w.str("h");
            w.seq(bounds, |w, &b| w.f64(b));
            w.seq(counts, |w, &c| w.u64(c));
            w.u64(total);
            w.f64(0.0);
        });
        w.finish(1)
    }

    fn restore(frame: &[u8]) -> Result<ObsRegistry, SnapshotError> {
        ObsRegistry::restore_from(&mut SnapReader::open(frame, 1).unwrap())
    }

    #[test]
    fn restore_roundtrips_a_valid_registry() {
        let mut r = ObsRegistry::new();
        r.incr("c", 2);
        r.register_histogram("h", &[1.0, 10.0]);
        r.observe("h", 5.0);
        let mut w = SnapWriter::new();
        r.snapshot_into(&mut w);
        assert_eq!(restore(&w.finish(1)).unwrap(), r);
        assert!(restore(&histogram_frame(&[1.0, 10.0], &[0, 1, 2], 3)).is_ok());
    }

    #[test]
    fn restore_rejects_malformed_histograms() {
        for (bounds, counts, total) in [
            (&[][..], &[4][..], 4), // no bounds: quantile would have none to report
            (&[1.0, f64::NAN], &[0, 0, 0], 0),
            (&[1.0, f64::INFINITY], &[0, 0, 0], 0),
            (&[10.0, 1.0], &[0, 0, 0], 0),
            (&[1.0, 1.0], &[0, 0, 0], 0),
            (&[1.0], &[1, 1, 1], 3), // one count too many
            (&[1.0], &[1, 1], 3),    // counts short of the total
            (&[1.0], &[u64::MAX, 1], 0),
        ] {
            let err = restore(&histogram_frame(bounds, counts, total)).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt { .. }),
                "{bounds:?} {counts:?} {total}: expected Corrupt, got {err:?}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Bucket counts always sum to the total observation count.
        #[test]
        fn bucket_counts_sum_to_total(
            obs in proptest::collection::vec(-1_000.0f64..10_000.0, 0..200),
        ) {
            let mut h = Histogram::new(&[0.0, 10.0, 100.0, 1000.0]);
            for &v in &obs {
                h.observe(v);
            }
            prop_assert_eq!(h.counts.iter().sum::<u64>(), h.total);
            prop_assert_eq!(h.total, obs.len() as u64);
        }
    }
}
