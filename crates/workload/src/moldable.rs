//! Moldable job configurations.
//!
//! A moldable job can start with different node counts; runtime follows a
//! parallel-efficiency law. Power-constrained schedulers (Sarood et al.,
//! Patki et al. — both cited in the survey's related work) pick the
//! configuration that best uses the instantaneous power budget: fewer
//! nodes when power is scarce, more when it is plentiful.
//!
//! Runtime model (Amdahl-flavoured): relative to the reference point
//! `(n0, t0)`, running on `n` nodes takes
//! `t(n) = t0 · (serial + (1−serial)·n0/n) / eff(n)` with
//! `eff(n) = 1` at `n = n0` — we fold efficiency loss into the serial
//! fraction for a single-parameter law that is monotone and realistic.

use epa_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Moldability descriptor: admissible node counts and the scaling law.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoldableConfig {
    /// Minimum node count the job accepts.
    pub min_nodes: u32,
    /// Maximum node count the job can exploit.
    pub max_nodes: u32,
    /// Serial (non-parallelizable) fraction of the work, `[0,1)`.
    pub serial_fraction: f64,
}

impl MoldableConfig {
    /// Creates a config; `serial_fraction` is clamped into `[0, 0.95]`.
    #[must_use]
    pub fn new(min_nodes: u32, max_nodes: u32, serial_fraction: f64) -> Self {
        MoldableConfig {
            min_nodes,
            max_nodes,
            serial_fraction: serial_fraction.clamp(0.0, 0.95),
        }
    }

    /// Validates the range.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_nodes == 0 {
            return Err("moldable min_nodes must be positive".into());
        }
        if self.min_nodes > self.max_nodes {
            return Err(format!(
                "moldable range inverted: {}..{}",
                self.min_nodes, self.max_nodes
            ));
        }
        if !(0.0..1.0).contains(&self.serial_fraction) {
            return Err(format!(
                "serial fraction must be in [0,1), got {}",
                self.serial_fraction
            ));
        }
        Ok(())
    }

    /// Runtime on `nodes`, given the reference point `(ref_nodes,
    /// ref_runtime)`. `nodes` is clamped into the admissible range.
    #[must_use]
    pub fn runtime_on(&self, nodes: u32, ref_nodes: u32, ref_runtime: SimDuration) -> SimDuration {
        let n = f64::from(nodes.clamp(self.min_nodes, self.max_nodes));
        let n0 = f64::from(ref_nodes.max(1));
        let s = self.serial_fraction;
        // Work at the reference point normalizes the law to t(n0) = t0.
        let denom = s + (1.0 - s); // = 1, by construction at n0
        let factor = (s + (1.0 - s) * n0 / n) / denom;
        SimDuration::from_secs(ref_runtime.as_secs() * factor)
    }

    /// Admissible node counts (powers of two within range, plus both
    /// endpoints) — the discrete menu schedulers pick from.
    #[must_use]
    pub fn candidate_nodes(&self) -> Vec<u32> {
        let mut out = vec![self.min_nodes];
        let mut p = 1u32;
        while p <= self.max_nodes {
            if p > self.min_nodes && p < self.max_nodes {
                out.push(p);
            }
            p = match p.checked_mul(2) {
                Some(v) => v,
                None => break,
            };
        }
        if self.max_nodes != self.min_nodes {
            out.push(self.max_nodes);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Parallel efficiency at `nodes` relative to the reference point:
    /// `eff = t(n0)·n0 / (t(n)·n)`. The scaling tests check
    /// [`Self::runtime_on`] through it.
    #[cfg(test)]
    fn efficiency_at(&self, nodes: u32, ref_nodes: u32, ref_runtime: SimDuration) -> f64 {
        let t_n = self.runtime_on(nodes, ref_nodes, ref_runtime).as_secs();
        let n = f64::from(nodes.clamp(self.min_nodes, self.max_nodes));
        (ref_runtime.as_secs() * f64::from(ref_nodes.max(1))) / (t_n * n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hours(h: f64) -> SimDuration {
        SimDuration::from_hours(h)
    }

    #[test]
    fn reference_point_is_identity() {
        let m = MoldableConfig::new(4, 64, 0.05);
        let t = m.runtime_on(16, 16, hours(2.0));
        assert!((t.as_secs() / 3600.0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn more_nodes_is_faster_but_sublinear() {
        let m = MoldableConfig::new(4, 64, 0.1);
        let t16 = m.runtime_on(16, 16, hours(2.0));
        let t32 = m.runtime_on(32, 16, hours(2.0));
        let t64 = m.runtime_on(64, 16, hours(2.0));
        assert!(t32 < t16);
        assert!(t64 < t32);
        // Sublinear: doubling nodes less than halves the runtime.
        assert!(t32.as_secs() > t16.as_secs() / 2.0);
        assert!(t64.as_secs() > t16.as_secs() / 4.0);
    }

    #[test]
    fn fewer_nodes_is_slower() {
        let m = MoldableConfig::new(4, 64, 0.1);
        let t8 = m.runtime_on(8, 16, hours(2.0));
        assert!(t8 > hours(2.0));
    }

    #[test]
    fn nodes_clamped_to_range() {
        let m = MoldableConfig::new(4, 64, 0.1);
        assert_eq!(
            m.runtime_on(1, 16, hours(2.0)),
            m.runtime_on(4, 16, hours(2.0))
        );
        assert_eq!(
            m.runtime_on(1000, 16, hours(2.0)),
            m.runtime_on(64, 16, hours(2.0))
        );
    }

    #[test]
    fn candidates_cover_range() {
        let m = MoldableConfig::new(3, 48, 0.1);
        let c = m.candidate_nodes();
        assert_eq!(c.first(), Some(&3));
        assert_eq!(c.last(), Some(&48));
        assert!(c.contains(&4));
        assert!(c.contains(&32));
        for w in c.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn single_point_range() {
        let m = MoldableConfig::new(8, 8, 0.1);
        assert_eq!(m.candidate_nodes(), vec![8]);
    }

    #[test]
    fn efficiency_declines_with_scale() {
        let m = MoldableConfig::new(4, 256, 0.05);
        let e16 = m.efficiency_at(16, 16, hours(1.0));
        let e128 = m.efficiency_at(128, 16, hours(1.0));
        assert!((e16 - 1.0).abs() < 1e-9);
        assert!(e128 < e16);
        assert!(e128 > 0.0);
    }

    #[test]
    fn validation() {
        assert!(MoldableConfig::new(0, 8, 0.1).validate().is_err());
        assert!(MoldableConfig::new(9, 8, 0.1).validate().is_err());
        assert!(MoldableConfig::new(2, 8, 0.1).validate().is_ok());
        // Clamp keeps serial fraction legal.
        assert!(MoldableConfig::new(2, 8, 2.0).validate().is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Runtime is monotone non-increasing in node count within range.
        #[test]
        fn runtime_monotone(serial in 0.0f64..0.9, ref_nodes in 1u32..128) {
            let m = MoldableConfig::new(1, 1024, serial);
            let t0 = SimDuration::from_hours(1.0);
            let mut prev = f64::INFINITY;
            for n in [1u32, 2, 4, 8, 16, 64, 256, 1024] {
                let t = m.runtime_on(n, ref_nodes, t0).as_secs();
                prop_assert!(t <= prev + 1e-9);
                prev = t;
            }
        }

        /// Efficiency is within (0, 1] at or above the reference point.
        #[test]
        fn efficiency_bounded(serial in 0.0f64..0.9, n in 8u32..512) {
            let m = MoldableConfig::new(8, 512, serial);
            let e = m.efficiency_at(n, 8, SimDuration::from_hours(1.0));
            prop_assert!(e > 0.0 && e <= 1.0 + 1e-9, "eff {}", e);
        }
    }
}
