//! Facility layout: PDUs, chillers, and maintenance windows.
//!
//! Models CEA's "layout logic" from Table I: the scheduler must be able to
//! tell which PDUs and chillers a node or rack depends on, and avoid
//! scheduling jobs onto equipment that will undergo maintenance. The layout
//! is a two-level dependency map — cabinets draw power from PDUs and
//! cooling from chillers — plus a calendar of maintenance windows.

use crate::node::NodeId;
use crate::nodeset::NodeSet;
use crate::system::System;
use epa_simcore::snap::Fingerprint;
use epa_simcore::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a power distribution unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PduId(pub u32);

/// Identifier of a chiller (cooling loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ChillerId(pub u32);

/// The piece of facility equipment a maintenance window affects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Equipment {
    /// A power distribution unit.
    Pdu(PduId),
    /// A chiller / cooling loop.
    Chiller(ChillerId),
}

/// A scheduled maintenance window on one piece of equipment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceWindow {
    /// Affected equipment.
    pub equipment: Equipment,
    /// Window start.
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

impl MaintenanceWindow {
    /// True when `t` falls inside the window.
    #[must_use]
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// True when the window overlaps `[from, to)`.
    #[must_use]
    pub fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.start < to && from < self.end
    }
}

/// Facility dependency map: cabinet → PDU and cabinet → chiller, plus the
/// maintenance calendar.
#[derive(Debug, Clone, Default)]
pub struct FacilityLayout {
    cabinet_pdu: BTreeMap<u32, PduId>,
    cabinet_chiller: BTreeMap<u32, ChillerId>,
    windows: Vec<MaintenanceWindow>,
    nodes_per_cabinet: u32,
}

impl FacilityLayout {
    /// Builds a layout where `cabinets_per_pdu` consecutive cabinets share
    /// a PDU and `cabinets_per_chiller` share a chiller.
    #[must_use]
    pub fn regular(system: &System, cabinets_per_pdu: u32, cabinets_per_chiller: u32) -> Self {
        let cabinets = system.spec().cabinets;
        let cpp = cabinets_per_pdu.max(1);
        let cpc = cabinets_per_chiller.max(1);
        let mut cabinet_pdu = BTreeMap::new();
        let mut cabinet_chiller = BTreeMap::new();
        for c in 0..cabinets {
            cabinet_pdu.insert(c, PduId(c / cpp));
            cabinet_chiller.insert(c, ChillerId(c / cpc));
        }
        FacilityLayout {
            cabinet_pdu,
            cabinet_chiller,
            windows: Vec::new(),
            nodes_per_cabinet: system.spec().nodes_per_cabinet,
        }
    }

    /// The PDU a node depends on.
    #[must_use]
    pub fn pdu_of(&self, node: NodeId) -> Option<PduId> {
        self.cabinet_pdu
            .get(&(node.0 / self.nodes_per_cabinet.max(1)))
            .copied()
    }

    /// The chiller a node depends on.
    #[must_use]
    pub fn chiller_of(&self, node: NodeId) -> Option<ChillerId> {
        self.cabinet_chiller
            .get(&(node.0 / self.nodes_per_cabinet.max(1)))
            .copied()
    }

    /// Registers a maintenance window.
    pub fn add_maintenance(&mut self, window: MaintenanceWindow) {
        self.windows.push(window);
    }

    /// All registered windows.
    #[must_use]
    pub fn windows(&self) -> &[MaintenanceWindow] {
        &self.windows
    }

    /// True when the node's PDU or chiller has maintenance overlapping
    /// `[from, to)` — the CEA layout-logic check: "can I safely run a job
    /// on this node for this long?"
    #[must_use]
    pub fn node_affected_during(&self, node: NodeId, from: SimTime, to: SimTime) -> bool {
        self.cabinet_affected_during(node.0 / self.nodes_per_cabinet.max(1), from, to)
    }

    /// True when the cabinet's PDU or chiller has maintenance overlapping
    /// `[from, to)`.
    fn cabinet_affected_during(&self, cabinet: u32, from: SimTime, to: SimTime) -> bool {
        let pdu = self.cabinet_pdu.get(&cabinet).copied();
        let chiller = self.cabinet_chiller.get(&cabinet).copied();
        self.windows.iter().any(|w| {
            w.overlaps(from, to)
                && match w.equipment {
                    Equipment::Pdu(p) => Some(p) == pdu,
                    Equipment::Chiller(c) => Some(c) == chiller,
                }
        })
    }

    /// All nodes affected by maintenance during `[from, to)`, one run per
    /// affected cabinet (adjacent cabinets merge into one run).
    #[must_use]
    pub fn affected_nodes(&self, from: SimTime, to: SimTime) -> NodeSet {
        let npc = self.nodes_per_cabinet.max(1);
        let mut affected = NodeSet::new();
        for &cabinet in self.cabinet_pdu.keys() {
            if self.cabinet_affected_during(cabinet, from, to) {
                affected.push_run(cabinet * npc, npc);
            }
        }
        affected
    }

    /// Folds every field — the cabinet maps, the cabinet size and each
    /// maintenance window — into a resume fingerprint.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.u64(u64::from(self.nodes_per_cabinet));
        fp.u64(self.cabinet_pdu.len() as u64);
        for (&cabinet, pdu) in &self.cabinet_pdu {
            fp.u64(u64::from(cabinet)).u64(u64::from(pdu.0));
        }
        fp.u64(self.cabinet_chiller.len() as u64);
        for (&cabinet, chiller) in &self.cabinet_chiller {
            fp.u64(u64::from(cabinet)).u64(u64::from(chiller.0));
        }
        fp.u64(self.windows.len() as u64);
        for w in &self.windows {
            let (tag, id) = match w.equipment {
                Equipment::Pdu(p) => (0, p.0),
                Equipment::Chiller(c) => (1, c.0),
            };
            fp.u64(tag).u64(u64::from(id));
            fp.f64(w.start.as_secs()).f64(w.end.as_secs());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use crate::system::SystemSpec;
    use crate::topology::Topology;

    fn system() -> System {
        SystemSpec {
            name: "layout-test".into(),
            cabinets: 8,
            nodes_per_cabinet: 4,
            node: NodeSpec::typical_xeon(),
            topology: Topology::FatTree { arity: 4 },
            peak_tflops: 1.0,
        }
        .build()
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn regular_layout_mapping() {
        let sys = system();
        let layout = FacilityLayout::regular(&sys, 2, 4);
        // Cabinets 0,1 → PDU 0; 2,3 → PDU 1; chillers: 0..4 → chiller 0.
        assert_eq!(layout.pdu_of(NodeId(0)), Some(PduId(0)));
        assert_eq!(layout.pdu_of(NodeId(7)), Some(PduId(0))); // cabinet 1
        assert_eq!(layout.pdu_of(NodeId(8)), Some(PduId(1))); // cabinet 2
        assert_eq!(layout.chiller_of(NodeId(15)), Some(ChillerId(0))); // cabinet 3
        assert_eq!(layout.chiller_of(NodeId(16)), Some(ChillerId(1))); // cabinet 4
    }

    #[test]
    fn maintenance_affects_dependent_nodes_only() {
        let sys = system();
        let mut layout = FacilityLayout::regular(&sys, 2, 4);
        layout.add_maintenance(MaintenanceWindow {
            equipment: Equipment::Pdu(PduId(0)),
            start: t(100.0),
            end: t(200.0),
        });
        // Node 0 depends on PDU 0: affected if interval overlaps.
        assert!(layout.node_affected_during(NodeId(0), t(150.0), t(160.0)));
        assert!(layout.node_affected_during(NodeId(0), t(50.0), t(101.0)));
        assert!(!layout.node_affected_during(NodeId(0), t(200.0), t(300.0)));
        // Node 8 depends on PDU 1: never affected.
        assert!(!layout.node_affected_during(NodeId(8), t(150.0), t(160.0)));
    }

    #[test]
    fn chiller_maintenance_covers_whole_loop() {
        let sys = system();
        let mut layout = FacilityLayout::regular(&sys, 2, 4);
        layout.add_maintenance(MaintenanceWindow {
            equipment: Equipment::Chiller(ChillerId(0)),
            start: t(0.0),
            end: t(10.0),
        });
        let affected = layout.affected_nodes(t(0.0), t(5.0));
        // Chiller 0 cools cabinets 0..4 = nodes 0..16, one run.
        assert_eq!(affected, NodeSet::from_run(0, 16));
        assert!(layout.affected_nodes(t(10.0), t(20.0)).is_empty());
    }

    #[test]
    fn affected_nodes_are_the_affected_cabinets_spans() {
        let sys = system();
        let mut layout = FacilityLayout::regular(&sys, 2, 4);
        for pdu in [0, 3] {
            layout.add_maintenance(MaintenanceWindow {
                equipment: Equipment::Pdu(PduId(pdu)),
                start: t(0.0),
                end: t(10.0),
            });
        }
        // PDU 0 feeds cabinets 0, 1 (nodes 0..8); PDU 3 cabinets 6, 7.
        let affected = layout.affected_nodes(t(5.0), t(6.0));
        assert_eq!(affected.runs(), [(0, 8), (24, 8)]);
        let per_node: Vec<NodeId> = sys
            .nodes()
            .filter(|&n| layout.node_affected_during(n, t(5.0), t(6.0)))
            .collect();
        assert_eq!(affected.to_vec(), per_node);
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let hash = |l: &FacilityLayout| {
            let mut fp = Fingerprint::new();
            l.fingerprint(&mut fp);
            fp.finish()
        };
        let window = MaintenanceWindow {
            equipment: Equipment::Pdu(PduId(1)),
            start: t(100.0),
            end: t(200.0),
        };
        let layout = |per_pdu, per_chiller| {
            let mut l = FacilityLayout::regular(&system(), per_pdu, per_chiller);
            l.add_maintenance(window);
            l
        };
        let base = layout(2, 4);
        let edit = |f: &dyn Fn(&mut FacilityLayout)| {
            let mut l = base.clone();
            f(&mut l);
            hash(&l)
        };
        let variants = [
            hash(&layout(1, 4)),
            hash(&layout(2, 2)),
            edit(&|l| l.nodes_per_cabinet = 8),
            edit(&|l| l.windows.clear()),
            edit(&|l| l.add_maintenance(window)),
            edit(&|l| l.windows[0].equipment = Equipment::Chiller(ChillerId(1))),
            edit(&|l| l.windows[0].equipment = Equipment::Pdu(PduId(2))),
            edit(&|l| l.windows[0].start = t(150.0)),
            edit(&|l| l.windows[0].end = t(250.0)),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(*v, hash(&base), "edit {i} left the fingerprint unchanged");
        }
        assert_eq!(hash(&base.clone()), hash(&base));
    }

    #[test]
    fn window_overlap_semantics() {
        let w = MaintenanceWindow {
            equipment: Equipment::Pdu(PduId(0)),
            start: t(10.0),
            end: t(20.0),
        };
        assert!(w.contains(t(10.0)));
        assert!(!w.contains(t(20.0)));
        assert!(w.overlaps(t(0.0), t(11.0)));
        assert!(!w.overlaps(t(20.0), t(30.0)));
        assert!(!w.overlaps(t(0.0), t(10.0))); // half-open
    }
}
