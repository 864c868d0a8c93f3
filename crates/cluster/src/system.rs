//! System specification: the Q2(c) description of a machine.

use crate::node::{NodeId, NodeSpec};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Static description of one HPC system, mirroring survey question Q2(c):
/// cabinets, nodes, cores, peak performance, node architecture,
/// interconnect, and power envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    /// System name (e.g. "Shaheen II", "SuperMUC").
    pub name: String,
    /// Number of cabinets/racks.
    pub cabinets: u32,
    /// Nodes per cabinet.
    pub nodes_per_cabinet: u32,
    /// Per-node hardware description.
    pub node: NodeSpec,
    /// Interconnect topology.
    pub topology: Topology,
    /// Peak performance in teraflops (descriptive; used for reports only).
    pub peak_tflops: f64,
}

impl SystemSpec {
    /// Total node count.
    #[must_use]
    pub fn total_nodes(&self) -> u32 {
        self.cabinets * self.nodes_per_cabinet
    }

    /// Total core count.
    #[must_use]
    pub fn total_cores(&self) -> u64 {
        u64::from(self.total_nodes()) * u64::from(self.node.cpu.cores)
    }

    /// System-wide idle power draw in watts (all nodes on, idle).
    #[must_use]
    pub fn idle_watts(&self) -> f64 {
        f64::from(self.total_nodes()) * self.node.idle_watts
    }

    /// System-wide peak power draw in watts.
    #[must_use]
    pub fn peak_watts(&self) -> f64 {
        f64::from(self.total_nodes()) * self.node.peak_watts
    }

    /// System-wide nominal power draw in watts.
    #[must_use]
    pub fn nominal_watts(&self) -> f64 {
        f64::from(self.total_nodes()) * self.node.nominal_watts
    }

    /// Validates the specification.
    pub fn validate(&self) -> Result<(), String> {
        if self.cabinets == 0 || self.nodes_per_cabinet == 0 {
            return Err("system must have at least one cabinet and node".into());
        }
        self.node.validate()
    }

    /// Builds the runtime [`System`].
    #[must_use]
    pub fn build(self) -> System {
        System::new(self)
    }
}

/// A built system: the spec plus derived node bookkeeping.
#[derive(Debug, Clone)]
pub struct System {
    spec: SystemSpec,
}

impl System {
    /// Creates a system from a validated spec.
    ///
    /// # Panics
    /// Panics if the spec fails validation.
    #[must_use]
    pub fn new(spec: SystemSpec) -> Self {
        spec.validate().expect("invalid system spec");
        System { spec }
    }

    /// The static specification.
    #[must_use]
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.spec.total_nodes()).map(NodeId)
    }

    /// All nodes in one cabinet.
    #[must_use]
    pub fn cabinet_nodes(&self, cabinet: u32) -> Vec<NodeId> {
        let lo = cabinet * self.spec.nodes_per_cabinet;
        let hi = (lo + self.spec.nodes_per_cabinet).min(self.spec.total_nodes());
        (lo..hi).map(NodeId).collect()
    }

    /// The interconnect topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.spec.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;

    fn small_spec() -> SystemSpec {
        SystemSpec {
            name: "test".into(),
            cabinets: 4,
            nodes_per_cabinet: 16,
            node: NodeSpec::typical_xeon(),
            topology: Topology::FatTree { arity: 16 },
            peak_tflops: 100.0,
        }
    }

    #[test]
    fn derived_totals() {
        let spec = small_spec();
        assert_eq!(spec.total_nodes(), 64);
        assert_eq!(spec.total_cores(), 64 * 32);
        assert!((spec.idle_watts() - 64.0 * 90.0).abs() < 1e-9);
        assert!((spec.peak_watts() - 64.0 * 400.0).abs() < 1e-9);
    }

    #[test]
    fn cabinet_mapping() {
        let sys = small_spec().build();
        assert_eq!(sys.spec().total_nodes(), 64);
        assert_eq!(
            sys.cabinet_nodes(3),
            (48..64).map(NodeId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nodes_iterator_is_dense() {
        let sys = small_spec().build();
        let ids: Vec<_> = sys.nodes().collect();
        assert_eq!(ids.len(), 64);
        assert_eq!(ids[0], NodeId(0));
        assert_eq!(ids[63], NodeId(63));
    }

    #[test]
    #[should_panic(expected = "invalid system spec")]
    fn zero_cabinet_rejected() {
        let mut spec = small_spec();
        spec.cabinets = 0;
        let _ = spec.build();
    }
}
