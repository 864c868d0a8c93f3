//! Exact percentiles.
//!
//! Question 3(e) of the survey asks each center for the min / 10th / 25th /
//! median / 75th / 90th / max percentiles of job size and wallclock time —
//! [`Percentiles`] and [`SummaryStats`] produce exactly that report.

use serde::{Deserialize, Serialize};

/// Exact percentile computation over stored samples.
///
/// Uses the linear-interpolation definition (type 7, the numpy default):
/// for a sorted sample `x[0..n]`, `quantile(q) = x[i] + frac * (x[i+1] - x[i])`
/// with `i = floor(q * (n - 1))`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty sample set.
    #[must_use]
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.samples.push(x);
        self.sorted = false;
    }

    /// Adds many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Quantile `q` in `[0, 1]`. Returns `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 1 {
            return Some(self.samples[0]);
        }
        let pos = q * (n - 1) as f64;
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        let lo = self.samples[i];
        let hi = self.samples[(i + 1).min(n - 1)];
        Some(lo + frac * (hi - lo))
    }

    /// The survey's Q3(e) report: min, p10, p25, median, p75, p90, max, mean.
    pub fn summary(&mut self) -> Option<SummaryStats> {
        if self.samples.is_empty() {
            return None;
        }
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        Some(SummaryStats {
            count: self.samples.len() as u64,
            min: self.quantile(0.0)?,
            p10: self.quantile(0.10)?,
            p25: self.quantile(0.25)?,
            median: self.quantile(0.50)?,
            p75: self.quantile(0.75)?,
            p90: self.quantile(0.90)?,
            max: self.quantile(1.0)?,
            mean,
        })
    }
}

/// The percentile summary shape requested by survey question Q3(e).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of observations summarized.
    pub count: u64,
    /// Minimum observation.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_known_values() {
        let mut p = Percentiles::new();
        p.extend((1..=100).map(f64::from));
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert!((p.quantile(0.5).unwrap() - 50.5).abs() < 1e-9);
        assert!((p.quantile(0.25).unwrap() - 25.75).abs() < 1e-9);
    }

    #[test]
    fn percentiles_single_sample() {
        let mut p = Percentiles::new();
        p.push(7.0);
        assert_eq!(p.quantile(0.0), Some(7.0));
        assert_eq!(p.quantile(0.5), Some(7.0));
        assert_eq!(p.quantile(1.0), Some(7.0));
    }

    #[test]
    fn percentiles_empty_is_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        assert!(p.summary().is_none());
    }

    #[test]
    fn summary_is_q3e_shape() {
        let mut p = Percentiles::new();
        p.extend((1..=1000).map(f64::from));
        let s = p.summary().unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        assert!((s.median - 500.5).abs() < 1e-9);
        assert!((s.p10 - 100.9).abs() < 0.2);
        assert!((s.p90 - 900.1).abs() < 0.2);
        assert!((s.mean - 500.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Interpolated quantiles are monotone in q and bounded by min/max.
        #[test]
        fn quantiles_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
            let mut p = Percentiles::new();
            p.extend(xs.iter().copied());
            let mut prev = f64::NEG_INFINITY;
            for i in 0..=20 {
                let q = f64::from(i) / 20.0;
                let v = p.quantile(q).unwrap();
                prop_assert!(v >= prev - 1e-9);
                prev = v;
            }
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p.quantile(0.0).unwrap() >= lo - 1e-9);
            prop_assert!(p.quantile(1.0).unwrap() <= hi + 1e-9);
        }
    }
}
