//! The job model.
//!
//! A [`Job`] is one batch submission: resources requested, the user's
//! walltime estimate, and the *true* execution profile the simulator
//! knows but schedulers must predict — base runtime at nominal frequency
//! and a sequence of [`Phase`]s with distinct cpu-boundness and
//! utilization (the compute / memory / communication structure that
//! DVFS-based policies exploit, per Freeh et al.).

use crate::moldable::MoldableConfig;
use epa_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique job identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// One execution phase of an application.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Fraction of the base runtime this phase occupies (weights are
    /// normalized by [`Job::normalized_phases`]).
    pub weight: f64,
    /// How strongly runtime scales with CPU frequency: 1 = compute bound,
    /// 0 = memory/communication bound.
    pub cpu_boundness: f64,
    /// Core utilization during the phase, `[0,1]`.
    pub utilization: f64,
}

/// An application profile: the per-tag behaviour predictors key on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Application tag ("lattice-qcd", "cfd", …). The survey's related
    /// work (Auweter, Borghesi, Sîrbu) all key predictions on such tags.
    pub tag: String,
    /// Execution phases.
    pub phases: Vec<Phase>,
}

impl AppProfile {
    /// A balanced mixed compute/memory profile.
    #[must_use]
    pub fn balanced(tag: &str) -> Self {
        AppProfile {
            tag: tag.to_owned(),
            phases: vec![
                Phase {
                    weight: 0.5,
                    cpu_boundness: 0.9,
                    utilization: 0.95,
                },
                Phase {
                    weight: 0.3,
                    cpu_boundness: 0.3,
                    utilization: 0.8,
                },
                Phase {
                    weight: 0.2,
                    cpu_boundness: 0.1,
                    utilization: 0.5,
                },
            ],
        }
    }

    /// A compute-bound profile (dense linear algebra).
    #[must_use]
    pub fn compute_bound(tag: &str) -> Self {
        AppProfile {
            tag: tag.to_owned(),
            phases: vec![Phase {
                weight: 1.0,
                cpu_boundness: 0.95,
                utilization: 1.0,
            }],
        }
    }

    /// A memory-bound profile (stencils, graph codes).
    #[must_use]
    pub fn memory_bound(tag: &str) -> Self {
        AppProfile {
            tag: tag.to_owned(),
            phases: vec![Phase {
                weight: 1.0,
                cpu_boundness: 0.15,
                utilization: 0.85,
            }],
        }
    }

    /// Weighted-average cpu-boundness across phases.
    #[must_use]
    pub fn mean_cpu_boundness(&self) -> f64 {
        let total: f64 = self.phases.iter().map(|p| p.weight).sum();
        if total <= 0.0 {
            return 0.5;
        }
        self.phases
            .iter()
            .map(|p| p.weight * p.cpu_boundness)
            .sum::<f64>()
            / total
    }

    /// Weighted-average utilization across phases.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        let total: f64 = self.phases.iter().map(|p| p.weight).sum();
        if total <= 0.0 {
            return 0.8;
        }
        self.phases
            .iter()
            .map(|p| p.weight * p.utilization)
            .sum::<f64>()
            / total
    }
}

/// One batch job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Unique id.
    pub id: JobId,
    /// Submitting user (index into a site's user population).
    pub user: u32,
    /// Application behaviour.
    pub app: AppProfile,
    /// Submission time.
    pub submit: SimTime,
    /// Nodes requested.
    pub nodes: u32,
    /// The user's walltime request (over-estimate of the true runtime);
    /// schedulers kill jobs exceeding it.
    pub walltime_estimate: SimDuration,
    /// True runtime at base frequency, uncapped (hidden from schedulers).
    pub base_runtime: SimDuration,
    /// Queue priority (larger = more important).
    pub priority: i32,
    /// Moldable operating points, if the job is moldable.
    pub moldable: Option<MoldableConfig>,
}

impl Job {
    /// Encodes the full job (identity, profile, request, moldability).
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        w.u64(self.id.0);
        w.u32(self.user);
        w.str(&self.app.tag);
        w.seq(&self.app.phases, |w, p| {
            w.f64(p.weight);
            w.f64(p.cpu_boundness);
            w.f64(p.utilization);
        });
        w.f64(self.submit.as_secs());
        w.u32(self.nodes);
        w.f64(self.walltime_estimate.as_secs());
        w.f64(self.base_runtime.as_secs());
        w.i64(i64::from(self.priority));
        w.opt(self.moldable.as_ref(), |w, m| {
            w.u32(m.min_nodes);
            w.u32(m.max_nodes);
            w.f64(m.serial_fraction);
        });
    }

    /// Decodes a job written by [`Job::snapshot_into`].
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        let id = JobId(r.u64()?);
        let user = r.u32()?;
        let tag = r.str()?;
        let phases = r.seq(|r| {
            Ok(Phase {
                weight: r.f64()?,
                cpu_boundness: r.f64()?,
                utilization: r.f64()?,
            })
        })?;
        let submit = r.time()?;
        let nodes = r.u32()?;
        let walltime_estimate = r.duration()?;
        let base_runtime = r.duration()?;
        let priority =
            i32::try_from(r.i64()?).map_err(|_| epa_simcore::snap::SnapshotError::Corrupt {
                detail: format!("priority out of i32 range for job {}", id.0),
            })?;
        let moldable = r.opt(|r| {
            Ok(MoldableConfig {
                min_nodes: r.u32()?,
                max_nodes: r.u32()?,
                serial_fraction: r.f64()?,
            })
        })?;
        Ok(Job {
            id,
            user,
            app: AppProfile { tag, phases },
            submit,
            nodes,
            walltime_estimate,
            base_runtime,
            priority,
            moldable,
        })
    }

    /// Phases with weights normalized to sum to 1.
    #[must_use]
    pub fn normalized_phases(&self) -> Vec<Phase> {
        let total: f64 = self.app.phases.iter().map(|p| p.weight).sum();
        if total <= 0.0 {
            return vec![Phase {
                weight: 1.0,
                cpu_boundness: 0.5,
                utilization: 0.8,
            }];
        }
        self.app
            .phases
            .iter()
            .map(|p| Phase {
                weight: p.weight / total,
                ..*p
            })
            .collect()
    }

    /// Runtime when every phase is slowed by the DVFS law at a fixed
    /// frequency ratio slowdown function. `slowdown(beta)` maps a phase's
    /// cpu-boundness to its runtime inflation.
    #[must_use]
    pub fn runtime_under(&self, slowdown: impl Fn(f64) -> f64) -> SimDuration {
        let factor: f64 = self
            .normalized_phases()
            .iter()
            .map(|p| p.weight * slowdown(p.cpu_boundness))
            .sum();
        SimDuration::from_secs(self.base_runtime.as_secs() * factor.max(0.0))
    }

    /// Node-seconds of the request (the standard accounting unit).
    #[must_use]
    pub fn node_seconds(&self) -> f64 {
        f64::from(self.nodes) * self.base_runtime.as_secs()
    }

    /// Validates basic job sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err(format!("{}: zero nodes", self.id));
        }
        if self.base_runtime.is_zero() {
            return Err(format!("{}: zero runtime", self.id));
        }
        if self.walltime_estimate.is_zero() {
            return Err(format!("{}: zero walltime estimate", self.id));
        }
        if self.app.phases.is_empty() {
            return Err(format!("{}: no phases", self.id));
        }
        for p in &self.app.phases {
            if !(0.0..=1.0).contains(&p.cpu_boundness) || !(0.0..=1.0).contains(&p.utilization) {
                return Err(format!("{}: phase parameters out of range", self.id));
            }
            if p.weight < 0.0 {
                return Err(format!("{}: negative phase weight", self.id));
            }
        }
        if let Some(m) = &self.moldable {
            m.validate().map_err(|e| format!("{}: {e}", self.id))?;
        }
        Ok(())
    }
}

/// Builder for tests and examples.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    job: Job,
}

impl JobBuilder {
    /// Starts a builder with sensible defaults.
    #[must_use]
    pub fn new(id: u64) -> Self {
        JobBuilder {
            job: Job {
                id: JobId(id),
                user: 0,
                app: AppProfile::balanced("generic"),
                submit: SimTime::ZERO,
                nodes: 1,
                walltime_estimate: SimDuration::from_hours(2.0),
                base_runtime: SimDuration::from_hours(1.0),
                priority: 0,
                moldable: None,
            },
        }
    }

    /// Sets the node count.
    #[must_use]
    pub fn nodes(mut self, n: u32) -> Self {
        self.job.nodes = n;
        self
    }

    /// Sets the true base runtime.
    #[must_use]
    pub fn runtime(mut self, d: SimDuration) -> Self {
        self.job.base_runtime = d;
        self
    }

    /// Sets the user's walltime estimate.
    #[must_use]
    pub fn estimate(mut self, d: SimDuration) -> Self {
        self.job.walltime_estimate = d;
        self
    }

    /// Sets the submit time.
    #[must_use]
    pub fn submit(mut self, t: SimTime) -> Self {
        self.job.submit = t;
        self
    }

    /// Sets the application profile.
    #[must_use]
    pub fn app(mut self, app: AppProfile) -> Self {
        self.job.app = app;
        self
    }

    /// Sets the user index.
    #[must_use]
    pub fn user(mut self, u: u32) -> Self {
        self.job.user = u;
        self
    }

    /// Sets the priority.
    #[must_use]
    pub fn priority(mut self, p: i32) -> Self {
        self.job.priority = p;
        self
    }

    /// Sets moldability.
    #[must_use]
    pub fn moldable(mut self, m: MoldableConfig) -> Self {
        self.job.moldable = Some(m);
        self
    }

    /// Finalizes the job.
    ///
    /// # Panics
    /// Panics if the job fails validation.
    #[must_use]
    pub fn build(self) -> Job {
        self.job.validate().expect("invalid job");
        self.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let j = JobBuilder::new(1).build();
        assert_eq!(j.id, JobId(1));
        assert!(j.walltime_estimate >= j.base_runtime);
        assert!(j.validate().is_ok());
    }

    #[test]
    fn normalized_phases_sum_to_one() {
        let j = JobBuilder::new(1).app(AppProfile::balanced("x")).build();
        let total: f64 = j.normalized_phases().iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn runtime_under_identity_slowdown() {
        let j = JobBuilder::new(1).build();
        let r = j.runtime_under(|_| 1.0);
        assert!((r.as_secs() - j.base_runtime.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn runtime_under_phase_sensitive_slowdown() {
        // Only compute-bound phases slow down under |2x slowdown of beta=1|.
        let j = JobBuilder::new(1)
            .app(AppProfile::compute_bound("hpl"))
            .build();
        let r = j.runtime_under(|beta| 1.0 + beta);
        assert!((r.as_secs() / j.base_runtime.as_secs() - 1.95).abs() < 1e-9);
        let m = JobBuilder::new(2)
            .app(AppProfile::memory_bound("stream"))
            .build();
        let rm = m.runtime_under(|beta| 1.0 + beta);
        assert!((rm.as_secs() / m.base_runtime.as_secs() - 1.15).abs() < 1e-9);
    }

    #[test]
    fn mean_profile_statistics() {
        let app = AppProfile::balanced("x");
        let b = app.mean_cpu_boundness();
        assert!(b > 0.4 && b < 0.8, "got {b}");
        let u = app.mean_utilization();
        assert!(u > 0.7 && u <= 1.0, "got {u}");
    }

    #[test]
    fn node_seconds() {
        let j = JobBuilder::new(1)
            .nodes(4)
            .runtime(SimDuration::from_secs(100.0))
            .build();
        assert!((j.node_seconds() - 400.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid job")]
    fn zero_nodes_rejected() {
        let _ = JobBuilder::new(1).nodes(0).build();
    }

    #[test]
    fn out_of_range_phase_rejected() {
        let mut j = JobBuilder::new(1).build();
        j.app.phases[0].cpu_boundness = 1.5;
        assert!(j.validate().is_err());
    }

    #[test]
    fn degenerate_phases_get_default_normalization() {
        let mut j = JobBuilder::new(1).build();
        j.app.phases = vec![Phase {
            weight: 0.0,
            cpu_boundness: 0.5,
            utilization: 0.5,
        }];
        let ps = j.normalized_phases();
        assert_eq!(ps.len(), 1);
        assert!((ps[0].weight - 1.0).abs() < 1e-12);
    }
}
