//! Online multivariate linear regression via normal equations.
//!
//! Predicts watts-per-node from job features (node count, runtime
//! estimate, mean cpu-boundness, ambient temperature) the way the
//! model-regression line of work does (Shoukourian et al., Sîrbu &
//! Babaoglu — both cited by the survey). Feature dimensionality is tiny
//! (≤ 8), so we accumulate `XᵀX` and `Xᵀy` incrementally and solve by
//! Gaussian elimination with partial pivoting at query time; a ridge term
//! keeps the system well-posed before enough samples arrive.

use crate::history::HistoryStore;
use crate::predictors::PowerPredictor;
use epa_workload::job::Job;

/// Incrementally-fitted least-squares model `y ≈ wᵀx + b`.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    dim: usize,
    xtx: Vec<f64>,
    xty: Vec<f64>,
    n: u64,
    ridge: f64,
}

impl LinearRegression {
    /// Creates a model for `dim` features (the intercept is handled
    /// internally as an extra constant feature).
    #[must_use]
    pub fn new(dim: usize) -> Self {
        let d = dim + 1;
        LinearRegression {
            dim,
            xtx: vec![0.0; d * d],
            xty: vec![0.0; d],
            n: 0,
            ridge: 1e-6,
        }
    }

    /// Number of samples observed.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Adds one observation.
    ///
    /// # Panics
    /// Panics if `x.len() != dim`.
    pub fn observe(&mut self, x: &[f64], y: f64) {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let d = self.dim + 1;
        let mut xe = Vec::with_capacity(d);
        xe.extend_from_slice(x);
        xe.push(1.0);
        for i in 0..d {
            for j in 0..d {
                self.xtx[i * d + j] += xe[i] * xe[j];
            }
            self.xty[i] += xe[i] * y;
        }
        self.n += 1;
    }

    /// Solves for the weights (last entry is the intercept). `None` when
    /// no samples have been observed.
    #[must_use]
    pub fn weights(&self) -> Option<Vec<f64>> {
        if self.n == 0 {
            return None;
        }
        let d = self.dim + 1;
        let mut a = self.xtx.clone();
        for i in 0..d {
            a[i * d + i] += self.ridge * self.n as f64;
        }
        let mut b = self.xty.clone();
        solve_in_place(&mut a, &mut b, d)
    }

    /// Predicts `y` for features `x`.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> Option<f64> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let w = self.weights()?;
        let mut y = w[self.dim]; // intercept
        for i in 0..self.dim {
            y += w[i] * x[i];
        }
        Some(y)
    }
}

/// Gaussian elimination with partial pivoting; returns the solution or
/// `None` for a singular system.
fn solve_in_place(a: &mut [f64], b: &mut [f64], d: usize) -> Option<Vec<f64>> {
    for col in 0..d {
        // Pivot.
        let mut pivot = col;
        let mut best = a[col * d + col].abs();
        for row in (col + 1)..d {
            let v = a[row * d + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if pivot != col {
            for k in 0..d {
                a.swap(col * d + k, pivot * d + k);
            }
            b.swap(col, pivot);
        }
        // Eliminate below.
        for row in (col + 1)..d {
            let f = a[row * d + col] / a[col * d + col];
            for k in col..d {
                a[row * d + k] -= f * a[col * d + k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; d];
    for col in (0..d).rev() {
        let mut acc = b[col];
        for k in (col + 1)..d {
            acc -= a[col * d + k] * x[k];
        }
        x[col] = acc / a[col * d + col];
    }
    Some(x)
}

/// The feature vector used by the regression power predictor.
#[must_use]
pub fn job_features(job: &Job, ambient_c: f64) -> Vec<f64> {
    vec![
        f64::from(job.nodes).ln(),
        job.walltime_estimate.as_secs().ln(),
        job.app.mean_cpu_boundness(),
        job.app.mean_utilization(),
        ambient_c,
    ]
}

/// A [`PowerPredictor`] backed by [`LinearRegression`], trained from the
/// history store at query time (stateless wrt. the trait, cached fits are
/// the caller's concern at this scale).
#[derive(Debug, Clone, Copy, Default)]
pub struct RegressionPredictor;

impl PowerPredictor for RegressionPredictor {
    fn predict_watts_per_node(
        &self,
        job: &Job,
        history: &HistoryStore,
        ambient_c: f64,
    ) -> Option<f64> {
        if history.is_empty() {
            return None;
        }
        let mut lr = LinearRegression::new(5);
        for r in history.records() {
            // Reconstruct approximate features from the record.
            let x = vec![
                f64::from(r.nodes).ln(),
                r.runtime_secs.max(1.0).ln(),
                0.5,
                0.8,
                r.ambient_c,
            ];
            lr.observe(&x, r.watts_per_node);
        }
        lr.predict(&job_features(job, ambient_c))
    }

    fn name(&self) -> &'static str {
        "regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_on_linear_data() {
        let mut lr = LinearRegression::new(2);
        // y = 3x1 - 2x2 + 5
        for (x1, x2) in [
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (2.0, 3.0),
            (4.0, 1.0),
            (1.5, 2.5),
        ] {
            lr.observe(&[x1, x2], 3.0 * x1 - 2.0 * x2 + 5.0);
        }
        let y = lr.predict(&[10.0, 7.0]).unwrap();
        assert!((y - (30.0 - 14.0 + 5.0)).abs() < 1e-4, "got {y}");
        let w = lr.weights().unwrap();
        assert!((w[0] - 3.0).abs() < 1e-4);
        assert!((w[1] + 2.0).abs() < 1e-4);
        assert!((w[2] - 5.0).abs() < 1e-4);
    }

    #[test]
    fn unfitted_returns_none() {
        let lr = LinearRegression::new(3);
        assert!(lr.predict(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn underdetermined_is_regularized_not_singular() {
        let mut lr = LinearRegression::new(3);
        lr.observe(&[1.0, 2.0, 3.0], 10.0);
        // One sample, four unknowns: ridge keeps it solvable.
        let y = lr.predict(&[1.0, 2.0, 3.0]);
        assert!(y.is_some());
        assert!((y.unwrap() - 10.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut lr = LinearRegression::new(2);
        lr.observe(&[1.0], 1.0);
    }

    #[test]
    fn noisy_fit_recovers_trend() {
        let mut lr = LinearRegression::new(1);
        // y = 2x + 1 with deterministic "noise".
        for i in 0..100 {
            let x = f64::from(i) * 0.1;
            let noise = if i % 2 == 0 { 0.05 } else { -0.05 };
            lr.observe(&[x], 2.0 * x + 1.0 + noise);
        }
        let w = lr.weights().unwrap();
        assert!((w[0] - 2.0).abs() < 0.05);
        assert!((w[1] - 1.0).abs() < 0.1);
    }

    #[test]
    fn regression_predictor_on_history() {
        use crate::history::{HistoryStore, RunRecord};
        use epa_workload::job::JobBuilder;
        let mut h = HistoryStore::new();
        // Power grows with ambient temperature.
        for i in 0..50 {
            h.record(RunRecord {
                user: 0,
                tag: "x".into(),
                nodes: 8,
                runtime_secs: 3600.0,
                watts_per_node: 200.0 + f64::from(i % 10),
                ambient_c: 15.0 + f64::from(i % 10),
            });
        }
        let p = RegressionPredictor;
        let job = JobBuilder::new(1).nodes(8).build();
        let cold = p.predict_watts_per_node(&job, &h, 15.0).unwrap();
        let hot = p.predict_watts_per_node(&job, &h, 24.0).unwrap();
        assert!(hot > cold, "hot {hot} cold {cold}");
    }
}
