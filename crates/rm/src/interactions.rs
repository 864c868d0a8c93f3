//! The component-interaction ledger (regenerates Figure 1).
//!
//! The survey's Figure 1 shows "interactions among multiple components
//! that make up a typical EPA JSRM solution": job scheduler, resource
//! manager, telemetry/monitoring, the hardware (nodes, processors,
//! memory, network, storage), and the physical plant (power delivery,
//! cooling). The ledger records every cross-component message as a typed
//! edge; the `figure1` experiment binary renders the resulting adjacency
//! matrix as the reproduction of the figure.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The functional components of an EPA JSRM solution (Figure 1 boxes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Component {
    /// Batch job scheduler.
    JobScheduler,
    /// Resource manager.
    ResourceManager,
    /// Telemetry / monitoring infrastructure.
    Telemetry,
    /// Compute hardware (nodes, CPUs, memory, network).
    Hardware,
    /// Power delivery and cooling plant.
    Facility,
    /// Users (submission, reports).
    Users,
    /// Prediction / analytics services.
    Analytics,
}

impl Component {
    /// All components, in rendering order.
    pub const ALL: [Component; 7] = [
        Component::Users,
        Component::JobScheduler,
        Component::ResourceManager,
        Component::Telemetry,
        Component::Analytics,
        Component::Hardware,
        Component::Facility,
    ];

    /// Short label for matrix rendering.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Component::JobScheduler => "JS",
            Component::ResourceManager => "RM",
            Component::Telemetry => "TEL",
            Component::Hardware => "HW",
            Component::Facility => "FAC",
            Component::Users => "USR",
            Component::Analytics => "ANA",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The four functional categories of Figure 1 ("monitoring and control of
/// energy/power consumed by the resources, and their availability").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum InteractionKind {
    /// Reading energy/power state (telemetry pull, sensor sample).
    PowerMonitor,
    /// Actuating energy/power (cap set, DVFS set, supply switch).
    PowerControl,
    /// Reading resource availability (node states, queue state).
    ResourceMonitor,
    /// Actuating resources (allocate, boot, shutdown, kill).
    ResourceControl,
}

impl InteractionKind {
    /// All kinds, in rendering order.
    pub const ALL: [InteractionKind; 4] = [
        InteractionKind::PowerMonitor,
        InteractionKind::PowerControl,
        InteractionKind::ResourceMonitor,
        InteractionKind::ResourceControl,
    ];

    /// Short label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InteractionKind::PowerMonitor => "power-monitor",
            InteractionKind::PowerControl => "power-control",
            InteractionKind::ResourceMonitor => "resource-monitor",
            InteractionKind::ResourceControl => "resource-control",
        }
    }
}

/// A ledger of component interactions.
#[derive(Debug, Clone, Default)]
pub struct InteractionLedger {
    counts: BTreeMap<(Component, Component, InteractionKind), u64>,
    total: u64,
}

impl InteractionLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one interaction `from → to` of the given kind.
    pub fn record(&mut self, from: Component, to: Component, kind: InteractionKind) {
        *self.counts.entry((from, to, kind)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total interactions recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count on a specific edge.
    #[must_use]
    pub fn count(&self, from: Component, to: Component, kind: InteractionKind) -> u64 {
        self.counts.get(&(from, to, kind)).copied().unwrap_or(0)
    }

    /// Totals per interaction kind (the four Figure 1 categories).
    #[must_use]
    pub fn kind_totals(&self) -> BTreeMap<InteractionKind, u64> {
        let mut out = BTreeMap::new();
        for ((_, _, k), c) in &self.counts {
            *out.entry(*k).or_insert(0) += c;
        }
        out
    }

    /// Renders the adjacency matrix (rows = from, cols = to, cells = total
    /// messages) — the textual reproduction of Figure 1.
    #[must_use]
    pub fn render_matrix(&self) -> String {
        let mut out = String::new();
        out.push_str("      ");
        for c in Component::ALL {
            out.push_str(&format!("{:>8}", c.label()));
        }
        out.push('\n');
        for from in Component::ALL {
            out.push_str(&format!("{:>6}", from.label()));
            for to in Component::ALL {
                let n: u64 = InteractionKind::ALL
                    .iter()
                    .map(|&k| self.count(from, to, k))
                    .sum();
                if n == 0 {
                    out.push_str(&format!("{:>8}", "."));
                } else {
                    out.push_str(&format!("{n:>8}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &InteractionLedger) {
        for (k, v) in &other.counts {
            *self.counts.entry(*k).or_insert(0) += v;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut l = InteractionLedger::new();
        l.record(
            Component::JobScheduler,
            Component::ResourceManager,
            InteractionKind::ResourceControl,
        );
        l.record(
            Component::JobScheduler,
            Component::ResourceManager,
            InteractionKind::ResourceControl,
        );
        l.record(
            Component::Telemetry,
            Component::Hardware,
            InteractionKind::PowerMonitor,
        );
        assert_eq!(l.total(), 3);
        assert_eq!(
            l.count(
                Component::JobScheduler,
                Component::ResourceManager,
                InteractionKind::ResourceControl
            ),
            2
        );
    }

    #[test]
    fn kind_totals_cover_categories() {
        let mut l = InteractionLedger::new();
        l.record(
            Component::Telemetry,
            Component::Hardware,
            InteractionKind::PowerMonitor,
        );
        l.record(
            Component::ResourceManager,
            Component::Hardware,
            InteractionKind::PowerControl,
        );
        l.record(
            Component::JobScheduler,
            Component::ResourceManager,
            InteractionKind::ResourceMonitor,
        );
        l.record(
            Component::ResourceManager,
            Component::Hardware,
            InteractionKind::ResourceControl,
        );
        let totals = l.kind_totals();
        assert_eq!(totals.len(), 4);
        for k in InteractionKind::ALL {
            assert_eq!(totals[&k], 1);
        }
    }

    #[test]
    fn matrix_renders_all_components() {
        let mut l = InteractionLedger::new();
        l.record(
            Component::Users,
            Component::JobScheduler,
            InteractionKind::ResourceControl,
        );
        let m = l.render_matrix();
        for c in Component::ALL {
            assert!(m.contains(c.label()), "missing {c}");
        }
        assert!(m.contains('1'));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = InteractionLedger::new();
        let mut b = InteractionLedger::new();
        a.record(
            Component::Users,
            Component::JobScheduler,
            InteractionKind::ResourceControl,
        );
        b.record(
            Component::Users,
            Component::JobScheduler,
            InteractionKind::ResourceControl,
        );
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(
            a.count(
                Component::Users,
                Component::JobScheduler,
                InteractionKind::ResourceControl
            ),
            2
        );
    }
}
