//! Dynamic voltage and frequency scaling.
//!
//! The standard first-order model used throughout the power-aware HPC
//! literature the survey cites (Freeh et al., Etinski et al., Auweter et
//! al.):
//!
//! - **Power**: dynamic power scales as `P_dyn ∝ V²·f`, and voltage scales
//!   roughly linearly with frequency inside the DVFS range, giving the
//!   cubic rule `P_dyn ∝ f³`. Static/leakage power does not scale.
//! - **Performance**: compute-bound phases slow down proportionally to
//!   `f_base / f`; memory/communication-bound phases are largely frequency
//!   insensitive. A phase's *cpu-boundness* `β ∈ [0,1]` interpolates:
//!   `slowdown(f) = β·(f_base/f) + (1-β)`.
//!
//! This is exactly the structure that makes mid-range frequencies
//! energy-optimal for memory-bound codes (reproduced by experiment E2).

use epa_cluster::node::{CpuSpec, NodeSpec};
use serde::{Deserialize, Serialize};

/// DVFS power/performance model for one node type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DvfsModel {
    /// Fraction of the *active* (nominal − idle) power that is dynamic and
    /// scales with f³; the rest is static. Typical values 0.6–0.8.
    pub dynamic_fraction: f64,
    node: NodeSpec,
}

impl DvfsModel {
    /// Creates the model with a typical 70% dynamic-power fraction.
    #[must_use]
    pub fn new(node: NodeSpec) -> Self {
        DvfsModel {
            dynamic_fraction: 0.7,
            node,
        }
    }

    /// The CPU spec this model describes.
    #[must_use]
    pub fn cpu(&self) -> &CpuSpec {
        &self.node.cpu
    }

    /// Active power at full utilization and frequency `f` (GHz), in watts.
    ///
    /// At base frequency this returns exactly `nominal_watts`. The dynamic
    /// share scales with `(f / f_base)³`, the static share is constant.
    #[must_use]
    pub fn busy_watts(&self, freq_ghz: f64) -> f64 {
        let f = self.clamp_freq(freq_ghz);
        let active = self.node.nominal_watts - self.node.idle_watts;
        let ratio = f / self.node.cpu.base_freq_ghz;
        let dynamic = active * self.dynamic_fraction * ratio.powi(3);
        let static_part = active * (1.0 - self.dynamic_fraction);
        self.node.idle_watts + dynamic + static_part
    }

    /// Runtime slowdown factor (≥ ~1 for f < base) for a phase with
    /// cpu-boundness `beta` run at frequency `f`.
    ///
    /// `slowdown = β·(f_base/f) + (1−β)`; running *above* base frequency
    /// yields a speedup (< 1) on compute-bound phases.
    #[must_use]
    pub fn slowdown(&self, freq_ghz: f64, cpu_boundness: f64) -> f64 {
        let f = self.clamp_freq(freq_ghz);
        let beta = cpu_boundness.clamp(0.0, 1.0);
        beta * (self.node.cpu.base_freq_ghz / f) + (1.0 - beta)
    }

    /// Energy (J) to execute a phase that takes `base_secs` at base
    /// frequency, when run at `freq_ghz`, for a phase of the given
    /// cpu-boundness. This is the objective energy-aware scheduling
    /// minimizes (LRZ "energy-to-solution" goal).
    #[must_use]
    pub fn phase_energy(&self, base_secs: f64, freq_ghz: f64, cpu_boundness: f64) -> f64 {
        let t = base_secs * self.slowdown(freq_ghz, cpu_boundness);
        self.busy_watts(freq_ghz) * t
    }

    /// The ladder frequency minimizing energy-to-solution for a phase.
    #[must_use]
    pub fn energy_optimal_frequency(&self, cpu_boundness: f64) -> f64 {
        let ladder = self.node.cpu.frequency_ladder();
        *ladder
            .iter()
            .min_by(|a, b| {
                self.phase_energy(1.0, **a, cpu_boundness)
                    .partial_cmp(&self.phase_energy(1.0, **b, cpu_boundness))
                    .expect("finite energies")
            })
            .expect("ladder nonempty")
    }

    /// The highest ladder frequency whose busy power fits under `cap_watts`
    /// (the mechanism RAPL-style capping uses to enforce a limit).
    /// Returns `None` when even the lowest frequency exceeds the cap.
    #[must_use]
    pub fn max_frequency_under_cap(&self, cap_watts: f64) -> Option<f64> {
        self.node
            .cpu
            .frequency_ladder()
            .into_iter()
            .rev()
            .find(|&f| self.busy_watts(f) <= cap_watts)
    }

    fn clamp_freq(&self, f: f64) -> f64 {
        f.clamp(self.node.cpu.min_freq_ghz, self.node.cpu.max_freq_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DvfsModel {
        DvfsModel::new(NodeSpec::typical_xeon())
    }

    #[test]
    fn base_frequency_gives_nominal_power() {
        let m = model();
        let base = m.cpu().base_freq_ghz;
        assert!((m.busy_watts(base) - 290.0).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_in_frequency() {
        let m = model();
        let ladder = m.cpu().frequency_ladder();
        for w in ladder.windows(2) {
            assert!(m.busy_watts(w[1]) > m.busy_watts(w[0]));
        }
    }

    #[test]
    fn frequency_clamped_to_range() {
        let m = model();
        assert_eq!(m.busy_watts(0.1), m.busy_watts(m.cpu().min_freq_ghz));
        assert_eq!(m.busy_watts(99.0), m.busy_watts(m.cpu().max_freq_ghz));
    }

    #[test]
    fn compute_bound_slowdown_is_inverse_frequency() {
        let m = model();
        let base = m.cpu().base_freq_ghz;
        let f = m.cpu().min_freq_ghz; // in range, below base
        let s = m.slowdown(f, 1.0);
        assert!((s - base / f).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_is_frequency_insensitive() {
        let m = model();
        assert!((m.slowdown(m.cpu().min_freq_ghz, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn above_base_speeds_up_compute_bound() {
        let m = model();
        let s = m.slowdown(m.cpu().max_freq_ghz, 1.0);
        assert!(s < 1.0);
    }

    #[test]
    fn energy_optimum_below_max_for_memory_bound() {
        let m = model();
        // For a fully memory-bound phase, lower frequency always saves
        // energy: the optimum is the minimum frequency.
        let f = m.energy_optimal_frequency(0.0);
        assert!((f - m.cpu().min_freq_ghz).abs() < 1e-9);
    }

    #[test]
    fn energy_optimum_for_compute_bound_is_above_min() {
        let m = model();
        // For a fully compute-bound phase the t ∝ 1/f inflation fights the
        // P ∝ f³ saving; with a static share the optimum sits strictly
        // above the ladder minimum.
        let f = m.energy_optimal_frequency(1.0);
        assert!(f > m.cpu().min_freq_ghz);
    }

    #[test]
    fn cap_lookup_finds_highest_fitting() {
        let m = model();
        let cap = m.busy_watts(2.0) + 0.1;
        let f = m.max_frequency_under_cap(cap).unwrap();
        assert!(m.busy_watts(f) <= cap);
        // The next ladder step up must violate the cap.
        let ladder = m.cpu().frequency_ladder();
        if let Some(next) = ladder.iter().find(|&&x| x > f) {
            assert!(m.busy_watts(*next) > cap);
        }
    }

    #[test]
    fn impossible_cap_returns_none() {
        let m = model();
        assert!(m.max_frequency_under_cap(10.0).is_none());
    }

    #[test]
    fn phase_energy_consistency() {
        let m = model();
        let base = m.cpu().base_freq_ghz;
        let e = m.phase_energy(100.0, base, 0.5);
        assert!((e - 290.0 * 100.0).abs() < 1e-6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Busy power stays within the node's physical envelope
        /// [idle, ~peak-ish] for any in-range frequency and dynamic share.
        #[test]
        fn power_bounded(f in 0.5f64..4.0, dyn_frac in 0.0f64..1.0) {
            let m = DvfsModel {
                dynamic_fraction: dyn_frac,
                ..DvfsModel::new(NodeSpec::typical_xeon())
            };
            let w = m.busy_watts(f);
            prop_assert!(w >= m.cpu().min_freq_ghz * 0.0 + 90.0 - 1e-9);
            // At max frequency the cubic blowup is bounded by
            // idle + active * (dyn*(max/base)^3 + (1-dyn)).
            let bound = 90.0 + 200.0 * (dyn_frac * (2.9f64/2.3).powi(3) + (1.0 - dyn_frac)) + 1e-9;
            prop_assert!(w <= bound);
        }

        /// Slowdown is monotone non-increasing in frequency for any phase mix.
        #[test]
        fn slowdown_monotone(beta in 0.0f64..1.0) {
            let m = DvfsModel::new(NodeSpec::typical_xeon());
            let ladder = m.cpu().frequency_ladder();
            for w in ladder.windows(2) {
                prop_assert!(m.slowdown(w[1], beta) <= m.slowdown(w[0], beta) + 1e-12);
            }
        }
    }
}
