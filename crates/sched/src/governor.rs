//! GEOPM-style per-phase frequency governance.
//!
//! LRZ and STFC both report *research* activities "investigating merging
//! SLURM and GEOPM for system energy & power control" (Tables I/II).
//! GEOPM's key idea over job-level energy-aware scheduling: the governor
//! follows the application's *phases*, picking a different operating
//! point for compute-bound and memory-bound regions instead of one
//! frequency for the whole job.
//!
//! [`PhaseGovernor::plan`] produces a per-phase frequency plan for one of
//! three objectives; experiment E11 quantifies the per-phase advantage
//! over the single-frequency LoadLeveler-style policy of
//! [`crate::policies::energy_aware::EnergyAwareScheduler`].

use epa_power::dvfs::DvfsModel;
use epa_workload::job::Phase;
use serde::{Deserialize, Serialize};

/// What the governor optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GovernorObjective {
    /// Minimize energy subject to an aggregate runtime-inflation bound.
    EnergyWithinSlowdown {
        /// Maximum tolerated aggregate slowdown (e.g. 1.1 = 10%).
        max_slowdown: f64,
    },
    /// Keep every phase's busy power at or below a cap.
    PowerCap {
        /// Per-node cap in watts.
        watts: f64,
    },
    /// Run everything at maximum frequency.
    MaxPerformance,
}

/// A per-phase frequency plan and its predicted consequences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasePlan {
    /// One frequency (GHz) per input phase.
    pub freqs_ghz: Vec<f64>,
    /// Aggregate runtime inflation relative to base frequency.
    pub slowdown: f64,
    /// Energy relative to running every phase at base frequency.
    pub energy_ratio: f64,
    /// Highest per-phase busy power in the plan, watts.
    pub peak_watts: f64,
}

/// The phase governor.
#[derive(Debug, Clone)]
pub struct PhaseGovernor {
    dvfs: DvfsModel,
    objective: GovernorObjective,
}

impl PhaseGovernor {
    /// Creates a governor over a node's DVFS model.
    #[must_use]
    pub fn new(dvfs: DvfsModel, objective: GovernorObjective) -> Self {
        PhaseGovernor { dvfs, objective }
    }

    /// The objective.
    #[must_use]
    pub fn objective(&self) -> GovernorObjective {
        self.objective
    }

    /// Plans frequencies for normalized phases (weights should sum to 1;
    /// they are re-normalized defensively).
    ///
    /// # Panics
    /// Panics if `phases` is empty.
    #[must_use]
    pub fn plan(&self, phases: &[Phase]) -> PhasePlan {
        assert!(!phases.is_empty(), "governor needs at least one phase");
        let total_w: f64 = phases.iter().map(|p| p.weight).sum();
        let norm: Vec<Phase> = phases
            .iter()
            .map(|p| Phase {
                weight: if total_w > 0.0 {
                    p.weight / total_w
                } else {
                    1.0 / phases.len() as f64
                },
                ..*p
            })
            .collect();
        let base = self.dvfs.cpu().base_freq_ghz;
        let freqs = match self.objective {
            GovernorObjective::MaxPerformance => {
                vec![self.dvfs.cpu().max_freq_ghz; norm.len()]
            }
            GovernorObjective::PowerCap { watts } => norm
                .iter()
                .map(|_| {
                    self.dvfs
                        .max_frequency_under_cap(watts)
                        .unwrap_or(self.dvfs.cpu().min_freq_ghz)
                })
                .collect(),
            GovernorObjective::EnergyWithinSlowdown { max_slowdown } => {
                self.plan_energy(&norm, max_slowdown)
            }
        };
        self.evaluate_internal(&norm, freqs, base)
    }

    /// Greedy energy plan: start each phase at its per-phase energy
    /// optimum; while the aggregate slowdown bound is violated, raise the
    /// frequency of whichever phase buys the most slowdown reduction per
    /// joule added.
    fn plan_energy(&self, phases: &[Phase], max_slowdown: f64) -> Vec<f64> {
        // The ladder plus the base point: base frequency is always a legal
        // operating point even when the discrete ladder skips over it.
        let mut ladder = self.dvfs.cpu().frequency_ladder();
        ladder.push(self.dvfs.cpu().base_freq_ghz);
        ladder.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ladder.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let mut idx: Vec<usize> = phases
            .iter()
            .map(|p| {
                let opt = self.dvfs.energy_optimal_frequency(p.cpu_boundness);
                ladder
                    .iter()
                    .position(|&f| (f - opt).abs() < 1e-9)
                    .unwrap_or(ladder.len() - 1)
            })
            .collect();
        let agg_slowdown = |idx: &[usize]| -> f64 {
            phases
                .iter()
                .zip(idx)
                .map(|(p, &i)| p.weight * self.dvfs.slowdown(ladder[i], p.cpu_boundness))
                .sum()
        };
        let mut guard = 0;
        while agg_slowdown(&idx) > max_slowdown && guard < ladder.len() * phases.len() {
            guard += 1;
            // Pick the phase whose next ladder step up reduces weighted
            // slowdown the most per unit of weighted energy increase.
            let mut best: Option<(usize, f64)> = None;
            for (k, p) in phases.iter().enumerate() {
                if idx[k] + 1 >= ladder.len() {
                    continue;
                }
                let cur = ladder[idx[k]];
                let next = ladder[idx[k] + 1];
                let d_slow = p.weight
                    * (self.dvfs.slowdown(cur, p.cpu_boundness)
                        - self.dvfs.slowdown(next, p.cpu_boundness));
                let d_energy = p.weight
                    * (self.dvfs.phase_energy(1.0, next, p.cpu_boundness)
                        - self.dvfs.phase_energy(1.0, cur, p.cpu_boundness));
                let score = d_slow / d_energy.max(1e-12);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((k, score));
                }
            }
            match best {
                Some((k, _)) => idx[k] += 1,
                None => break, // everything already at max
            }
        }
        idx.into_iter().map(|i| ladder[i]).collect()
    }

    /// Control-plane adapter: collapses the per-phase plan into one
    /// [`ControlAction::SetDefaultFrequency`](crate::control::ControlAction::SetDefaultFrequency) carrying the phase-weighted
    /// mean frequency — the closest job-level default the engine's
    /// unified apply path can enforce (the engine has no intra-job phase
    /// actuation point). The action goes through the same validation
    /// funnel as every learned controller's frequency request.
    ///
    /// # Panics
    /// Panics if `phases` is empty (same contract as [`Self::plan`]).
    #[must_use]
    pub fn as_control_action(&self, phases: &[Phase]) -> crate::control::ControlAction {
        let plan = self.plan(phases);
        let total_w: f64 = phases.iter().map(|p| p.weight).sum();
        let mean = if total_w > 0.0 {
            phases
                .iter()
                .zip(&plan.freqs_ghz)
                .map(|(p, &f)| p.weight / total_w * f)
                .sum()
        } else {
            plan.freqs_ghz.iter().sum::<f64>() / plan.freqs_ghz.len() as f64
        };
        crate::control::ControlAction::SetDefaultFrequency {
            freq_ghz: Some(mean),
        }
    }

    fn evaluate_internal(&self, phases: &[Phase], freqs: Vec<f64>, base: f64) -> PhasePlan {
        let slowdown: f64 = phases
            .iter()
            .zip(&freqs)
            .map(|(p, &f)| p.weight * self.dvfs.slowdown(f, p.cpu_boundness))
            .sum();
        let energy: f64 = phases
            .iter()
            .zip(&freqs)
            .map(|(p, &f)| p.weight * self.dvfs.phase_energy(1.0, f, p.cpu_boundness))
            .sum();
        let base_energy: f64 = phases
            .iter()
            .map(|p| p.weight * self.dvfs.phase_energy(1.0, base, p.cpu_boundness))
            .sum();
        let peak = freqs
            .iter()
            .map(|&f| self.dvfs.busy_watts(f))
            .fold(0.0, f64::max);
        PhasePlan {
            freqs_ghz: freqs,
            slowdown,
            energy_ratio: energy / base_energy.max(1e-12),
            peak_watts: peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_cluster::node::NodeSpec;
    use epa_workload::job::AppProfile;

    fn governor(obj: GovernorObjective) -> PhaseGovernor {
        PhaseGovernor::new(DvfsModel::new(NodeSpec::typical_xeon()), obj)
    }

    #[test]
    fn max_performance_pins_to_max() {
        let g = governor(GovernorObjective::MaxPerformance);
        let plan = g.plan(&AppProfile::balanced("x").phases);
        for f in &plan.freqs_ghz {
            assert_eq!(*f, g.dvfs.cpu().max_freq_ghz);
        }
        assert!(plan.slowdown < 1.0, "turbo speeds up compute phases");
    }

    #[test]
    fn power_cap_respected_per_phase() {
        let g = governor(GovernorObjective::PowerCap { watts: 220.0 });
        let plan = g.plan(&AppProfile::balanced("x").phases);
        assert!(plan.peak_watts <= 220.0 + 1e-9, "peak {}", plan.peak_watts);
    }

    #[test]
    fn energy_plan_honors_slowdown_bound() {
        for bound in [1.02, 1.05, 1.1, 1.3] {
            let g = governor(GovernorObjective::EnergyWithinSlowdown {
                max_slowdown: bound,
            });
            for app in [
                AppProfile::balanced("a"),
                AppProfile::compute_bound("b"),
                AppProfile::memory_bound("c"),
            ] {
                let plan = g.plan(&app.phases);
                assert!(
                    plan.slowdown <= bound + 1e-6,
                    "{}: slowdown {} > bound {bound}",
                    app.tag,
                    plan.slowdown
                );
            }
        }
    }

    #[test]
    fn energy_plan_saves_energy() {
        let g = governor(GovernorObjective::EnergyWithinSlowdown { max_slowdown: 1.1 });
        let plan = g.plan(&AppProfile::balanced("x").phases);
        assert!(plan.energy_ratio < 1.0, "ratio {}", plan.energy_ratio);
    }

    #[test]
    fn per_phase_beats_single_frequency() {
        // The GEOPM pitch: on a mixed workload, per-phase control attains
        // lower energy than any single frequency meeting the same bound.
        let bound = 1.08;
        let g = governor(GovernorObjective::EnergyWithinSlowdown {
            max_slowdown: bound,
        });
        let app = AppProfile::balanced("mixed");
        let plan = g.plan(&app.phases);
        // Best single frequency meeting the bound.
        let dvfs = DvfsModel::new(NodeSpec::typical_xeon());
        let total_w: f64 = app.phases.iter().map(|p| p.weight).sum();
        let mut best_single = f64::INFINITY;
        for f in dvfs.cpu().frequency_ladder() {
            let slow: f64 = app
                .phases
                .iter()
                .map(|p| p.weight / total_w * dvfs.slowdown(f, p.cpu_boundness))
                .sum();
            if slow > bound {
                continue;
            }
            let e: f64 = app
                .phases
                .iter()
                .map(|p| p.weight / total_w * dvfs.phase_energy(1.0, f, p.cpu_boundness))
                .sum();
            best_single = best_single.min(e);
        }
        let base_e: f64 = app
            .phases
            .iter()
            .map(|p| {
                p.weight / total_w
                    * dvfs.phase_energy(1.0, dvfs.cpu().base_freq_ghz, p.cpu_boundness)
            })
            .sum();
        let single_ratio = best_single / base_e;
        assert!(
            plan.energy_ratio <= single_ratio + 1e-9,
            "per-phase {} vs single {}",
            plan.energy_ratio,
            single_ratio
        );
    }

    #[test]
    fn memory_phases_run_slow_compute_phases_fast() {
        let g = governor(GovernorObjective::EnergyWithinSlowdown { max_slowdown: 1.05 });
        let app = AppProfile::balanced("x"); // phase 0 compute (β=.9), phase 2 memory (β=.1)
        let plan = g.plan(&app.phases);
        assert!(
            plan.freqs_ghz[2] <= plan.freqs_ghz[0],
            "memory phase should not run faster than compute phase: {:?}",
            plan.freqs_ghz
        );
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_panic() {
        let g = governor(GovernorObjective::MaxPerformance);
        let _ = g.plan(&[]);
    }

    #[test]
    fn control_action_carries_weighted_mean_frequency() {
        let g = governor(GovernorObjective::MaxPerformance);
        let app = AppProfile::balanced("x");
        // MaxPerformance pins every phase to max, so the weighted mean is
        // exactly the max frequency.
        match g.as_control_action(&app.phases) {
            crate::control::ControlAction::SetDefaultFrequency { freq_ghz: Some(f) } => {
                assert!((f - g.dvfs.cpu().max_freq_ghz).abs() < 1e-9, "{f}");
            }
            other => panic!("unexpected action {other:?}"),
        }
        // An energy plan's mean sits inside the ladder's range.
        let g = governor(GovernorObjective::EnergyWithinSlowdown { max_slowdown: 1.1 });
        match g.as_control_action(&app.phases) {
            crate::control::ControlAction::SetDefaultFrequency { freq_ghz: Some(f) } => {
                assert!(f >= g.dvfs.cpu().min_freq_ghz && f <= g.dvfs.cpu().max_freq_ghz);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }
}
