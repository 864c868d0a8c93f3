//! The component-interaction ledger (regenerates Figure 1).
//!
//! The survey's Figure 1 shows "interactions among multiple components
//! that make up a typical EPA JSRM solution": job scheduler, resource
//! manager, telemetry/monitoring, the hardware (nodes, processors,
//! memory, network, storage), and the physical plant (power delivery,
//! cooling). The ledger records every cross-component message as a typed
//! edge; the `figure1` experiment binary renders the resulting adjacency
//! matrix as the reproduction of the figure.

use epa_simcore::time::SimTime;
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
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl InteractionLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one interaction `from → to` of the given kind at `t`.
    pub fn record(&mut self, t: SimTime, from: Component, to: Component, kind: InteractionKind) {
        *self.counts.entry((from, to, kind)).or_insert(0) += 1;
        self.total += 1;
        if self.first.is_none() {
            self.first = Some(t);
        }
        self.last = Some(t);
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

    /// Total traffic between two components, all kinds, both directions.
    #[must_use]
    pub fn edge_total(&self, a: Component, b: Component) -> u64 {
        self.counts
            .iter()
            .filter(|((f, t, _), _)| (*f == a && *t == b) || (*f == b && *t == a))
            .map(|(_, c)| c)
            .sum()
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

    /// Encodes the full ledger (edge counts, total, first/last times).
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        fn comp_tag(c: Component) -> u8 {
            match c {
                Component::JobScheduler => 0,
                Component::ResourceManager => 1,
                Component::Telemetry => 2,
                Component::Hardware => 3,
                Component::Facility => 4,
                Component::Users => 5,
                Component::Analytics => 6,
            }
        }
        fn kind_tag(k: InteractionKind) -> u8 {
            match k {
                InteractionKind::PowerMonitor => 0,
                InteractionKind::PowerControl => 1,
                InteractionKind::ResourceMonitor => 2,
                InteractionKind::ResourceControl => 3,
            }
        }
        let counts: Vec<_> = self.counts.iter().collect();
        w.seq(&counts, |w, (&(from, to, kind), &n)| {
            w.u8(comp_tag(from));
            w.u8(comp_tag(to));
            w.u8(kind_tag(kind));
            w.u64(n);
        });
        w.u64(self.total);
        w.opt(self.first.as_ref(), |w, t| w.f64(t.as_secs()));
        w.opt(self.last.as_ref(), |w, t| w.f64(t.as_secs()));
    }

    /// Decodes a ledger written by [`InteractionLedger::snapshot_into`].
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        use epa_simcore::snap::SnapshotError;
        fn comp(tag: u8) -> Result<Component, SnapshotError> {
            Ok(match tag {
                0 => Component::JobScheduler,
                1 => Component::ResourceManager,
                2 => Component::Telemetry,
                3 => Component::Hardware,
                4 => Component::Facility,
                5 => Component::Users,
                6 => Component::Analytics,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        detail: format!("unknown component tag {tag}"),
                    })
                }
            })
        }
        fn kind(tag: u8) -> Result<InteractionKind, SnapshotError> {
            Ok(match tag {
                0 => InteractionKind::PowerMonitor,
                1 => InteractionKind::PowerControl,
                2 => InteractionKind::ResourceMonitor,
                3 => InteractionKind::ResourceControl,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        detail: format!("unknown interaction tag {tag}"),
                    })
                }
            })
        }
        let counts: BTreeMap<(Component, Component, InteractionKind), u64> = r
            .seq(|r| Ok(((comp(r.u8()?)?, comp(r.u8()?)?, kind(r.u8()?)?), r.u64()?)))?
            .into_iter()
            .collect();
        let total = r.u64()?;
        let first = r.opt(epa_simcore::snap::SnapReader::time)?;
        let last = r.opt(epa_simcore::snap::SnapReader::time)?;
        Ok(InteractionLedger {
            counts,
            total,
            first,
            last,
        })
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &InteractionLedger) {
        for (k, v) in &other.counts {
            *self.counts.entry(*k).or_insert(0) += v;
        }
        self.total += other.total;
        self.first = match (self.first, other.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last = match (self.last, other.last) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn record_and_count() {
        let mut l = InteractionLedger::new();
        l.record(
            t(1.0),
            Component::JobScheduler,
            Component::ResourceManager,
            InteractionKind::ResourceControl,
        );
        l.record(
            t(2.0),
            Component::JobScheduler,
            Component::ResourceManager,
            InteractionKind::ResourceControl,
        );
        l.record(
            t(3.0),
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
        assert_eq!(
            l.edge_total(Component::ResourceManager, Component::JobScheduler),
            2
        );
    }

    #[test]
    fn kind_totals_cover_categories() {
        let mut l = InteractionLedger::new();
        l.record(
            t(0.0),
            Component::Telemetry,
            Component::Hardware,
            InteractionKind::PowerMonitor,
        );
        l.record(
            t(0.0),
            Component::ResourceManager,
            Component::Hardware,
            InteractionKind::PowerControl,
        );
        l.record(
            t(0.0),
            Component::JobScheduler,
            Component::ResourceManager,
            InteractionKind::ResourceMonitor,
        );
        l.record(
            t(0.0),
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
            t(0.0),
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
            t(1.0),
            Component::Users,
            Component::JobScheduler,
            InteractionKind::ResourceControl,
        );
        b.record(
            t(5.0),
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
