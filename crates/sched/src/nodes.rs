//! The node table: one owner for every node's power state and allocation.
//!
//! Idle-node shutdown, boot on demand (Tables I/II: Tokyo Tech, CEA) and
//! failure/repair act on one per-node machine: Off → Booting → Idle ⇄
//! Busy, Idle → draining → Off, and Idle | Busy → down (Off) → Idle. Each
//! transition is one [`NodeTable`] method that moves allocator
//! availability, state, timestamps and tallies together (the engine
//! re-meters the node afterwards). Transitions keep, and restore checks:
//! - a node is Busy ⇔ a running job claims it ⇔ the allocator holds it
//!   neither free nor unavailable;
//! - a free node is Idle with `idle_since` set;
//! - an unavailable node is Off, Booting, or Idle without `idle_since`
//!   (draining);
//! - a down node (`down_since` set) is Off and unavailable.
//!
//! The table also tallies completed repairs and their downtime, the
//! outcome's downtime and MTTR.

use crate::events::Ev;
use epa_cluster::alloc::{AllocStrategy, Allocator};
use epa_cluster::error::ClusterError;
use epa_cluster::node::NodeId;
use epa_cluster::nodeset::NodeSet;
use epa_cluster::topology::Topology;
use epa_power::node_power::NodePowerState::{self, Booting, Busy, Idle, Off};
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// `NodePowerState`s by snapshot wire tag (stable, append-only).
const WIRE_STATES: [NodePowerState; 4] = [Off, Booting, Idle, Busy];

/// Per-node state indexed by `NodeId::index()`, the allocator, the
/// off/booting/down tallies (busy is the allocator's own count) and the
/// repair tallies.
pub(crate) struct NodeTable {
    alloc: Allocator,
    state: Vec<NodePowerState>,
    /// When each free node became idle; `None` for every other node.
    idle_since: Vec<Option<SimTime>>,
    failure_counts: Vec<u64>,
    /// When each down node failed; `None` for every other node.
    down_since: Vec<Option<SimTime>>,
    off: u32,
    booting: u32,
    down: u32,
    /// Downtime seconds over completed repairs, and their count.
    repair_secs: f64,
    repairs: u64,
}

impl NodeTable {
    /// A machine of `total` nodes, all idle and free since t = 0.
    pub(crate) fn new(total: u32, strategy: AllocStrategy, topology: Topology) -> Self {
        let n = total as usize;
        NodeTable {
            alloc: Allocator::new(total, strategy, topology),
            state: vec![Idle; n],
            idle_since: vec![Some(SimTime::ZERO); n],
            failure_counts: vec![0; n],
            down_since: vec![None; n],
            off: 0,
            booting: 0,
            down: 0,
            repair_secs: 0.0,
            repairs: 0,
        }
    }

    pub(crate) fn free_count(&self) -> u32 {
        self.alloc.free_count() as u32
    }

    pub(crate) fn busy_count(&self) -> u32 {
        self.alloc.busy_count() as u32
    }

    pub(crate) fn off_count(&self) -> u32 {
        self.off
    }

    pub(crate) fn booting_count(&self) -> u32 {
        self.booting
    }

    pub(crate) fn down_count(&self) -> u32 {
        self.down
    }

    /// Idle nodes, derived from the tallies (each node is exactly one of
    /// idle/busy/off/booting), which debug builds check against a scan.
    pub(crate) fn idle_count(&self) -> u32 {
        let (off, booting, busy) = (self.off, self.booting, self.busy_count());
        debug_assert_eq!(self.scan(), (off, booting, busy, self.down));
        self.alloc.total().saturating_sub(busy + off + booting)
    }

    /// Off, Booting, Busy and down nodes, counted by a full scan.
    fn scan(&self) -> (u32, u32, u32, u32) {
        let count = |s| self.state.iter().filter(|&&x| x == s).count() as u32;
        let down = self.down_since.iter().flatten().count() as u32;
        (count(Off), count(Booting), count(Busy), down)
    }

    /// Allocates `count` free nodes as if the free nodes in `excluded` did
    /// not exist. They stay Idle until [`NodeTable::occupy`].
    pub(crate) fn allocate(
        &mut self,
        count: u32,
        excluded: Option<&NodeSet>,
    ) -> Result<NodeSet, ClusterError> {
        match excluded {
            Some(excluded) => self.alloc.allocate_excluding(count, excluded),
            None => self.alloc.allocate(count),
        }
    }

    pub(crate) fn occupy(&mut self, nodes: &NodeSet) {
        self.fill(nodes, Idle, Busy, None);
    }

    /// Returns an allocation that was never occupied (a start rolled back
    /// after a failed actuation).
    pub(crate) fn release_unoccupied(&mut self, nodes: &NodeSet) {
        self.alloc.release(nodes);
    }

    /// A departing job's nodes turn Idle at `t`, back in the free pool.
    pub(crate) fn vacate(&mut self, nodes: &NodeSet, t: SimTime) {
        self.fill(nodes, Busy, Idle, Some(t));
        self.alloc.release(nodes);
    }

    /// Moves `nodes` from `from` to `to`, one slice fill per span.
    fn fill(
        &mut self,
        nodes: &NodeSet,
        from: NodePowerState,
        to: NodePowerState,
        since: Option<SimTime>,
    ) {
        for &(start, len) in nodes.runs() {
            let span = start as usize..(start + len) as usize;
            debug_assert!(self.state[span.clone()].iter().all(|&s| s == from));
            self.state[span.clone()].fill(to);
            self.idle_since[span].fill(since);
        }
    }

    fn set_state(&mut self, n: NodeId, to: NodePowerState) {
        let from = std::mem::replace(&mut self.state[n.index()], to);
        match from {
            Off => self.off -= 1,
            Booting => self.booting -= 1,
            Idle | Busy => {}
        }
        match to {
            Off => self.off += 1,
            Booting => self.booting += 1,
            Idle | Busy => {}
        }
    }

    /// Starts draining a shutdown candidate: it leaves the free pool now
    /// and turns Off at [`NodeTable::shutdown_done`].
    pub(crate) fn drain(&mut self, n: NodeId) {
        let drained = self.alloc.mark_unavailable(n);
        debug_assert!(drained, "a shutdown candidate is free");
        self.idle_since[n.index()] = None;
    }

    /// Ends a drain: a node still draining turns Off. A failure can
    /// overtake the drain, and a repair can bring the node back up before
    /// this runs; such a node keeps its state. Returns whether the node is
    /// Off, down or not, so the engine meters it as before.
    pub(crate) fn shutdown_done(&mut self, n: NodeId) -> bool {
        let i = n.index();
        if self.state[i] == Idle && self.idle_since[i].is_none() {
            self.set_state(n, Off);
        }
        self.state[i] == Off
    }

    pub(crate) fn boot(&mut self, n: NodeId) {
        self.set_state(n, Booting);
    }

    /// A booted or repaired node comes up Idle at `t`, in the free pool.
    pub(crate) fn bring_up(&mut self, n: NodeId, t: SimTime) {
        self.set_state(n, Idle);
        self.alloc.mark_available(n);
        self.idle_since[n.index()] = Some(t);
    }

    /// Fails a node whose job, if any, has already departed: counted, out
    /// of the free pool, Off and down from `t` until [`NodeTable::repair`].
    pub(crate) fn take_down(&mut self, n: NodeId, t: SimTime) {
        let i = n.index();
        self.failure_counts[i] += 1;
        self.alloc.mark_unavailable(n);
        self.idle_since[i] = None;
        self.down += u32::from(self.down_since[i].replace(t).is_none());
        self.set_state(n, Off);
    }

    /// Ends a node's downtime at `t` and tallies it; returns its length
    /// in seconds (`None` when the node was not down).
    /// [`NodeTable::bring_up`] powers it back on.
    pub(crate) fn repair(&mut self, n: NodeId, t: SimTime) -> Option<f64> {
        let since = self.down_since[n.index()].take()?;
        let secs = (t - since).as_secs();
        self.down -= 1;
        self.repair_secs += secs;
        self.repairs += 1;
        Some(secs)
    }

    /// Idle or Busy, and not down: a node a failure can hit.
    pub(crate) fn is_operational(&self, n: NodeId) -> bool {
        matches!(self.state[n.index()], Idle | Busy) && self.down_since[n.index()].is_none()
    }

    /// Up to `k` nodes matching `pred`, in ascending id order — the order
    /// the failure RNG's `choose` and the boot and shutdown picks rely on.
    fn find(&self, k: u32, pred: impl Fn(usize) -> bool) -> Vec<NodeId> {
        let ids = (0..self.state.len()).filter(|&i| pred(i)).take(k as usize);
        ids.map(|i| NodeId(i as u32)).collect()
    }

    pub(crate) fn operational(&self) -> Vec<NodeId> {
        self.find(u32::MAX, |i| self.is_operational(NodeId(i as u32)))
    }

    /// Up to `k` Off nodes that are not down (a down node belongs to the
    /// repair machine: booting it would leave its repair pending).
    pub(crate) fn bootable(&self, k: u32) -> Vec<NodeId> {
        self.find(k, |i| self.state[i] == Off && self.down_since[i].is_none())
    }

    /// Drains the Idle nodes idle for at least `limit` at `now`, keeping
    /// `reserve` idle nodes for responsiveness, and returns them. The O(1)
    /// idle tally gates the scan: on the common tick nothing is shuttable
    /// and no per-node work runs.
    pub(crate) fn drain_idle(
        &mut self,
        now: SimTime,
        limit: SimDuration,
        reserve: u32,
    ) -> Vec<NodeId> {
        let k = self.idle_count().saturating_sub(reserve);
        if k == 0 {
            return Vec::new();
        }
        let idle_for = |i: usize| self.idle_since[i].map(|s| now - s);
        let nodes = self.find(k, |i| self.state[i] == Idle && idle_for(i) >= Some(limit));
        nodes.iter().for_each(|&n| self.drain(n));
        nodes
    }

    /// The downtime to `end` — completed repairs' plus every down node's
    /// accrued to `end`, added in node order — and the mean time to
    /// repair over completed repairs (0 when none).
    pub(crate) fn downtime_to(&self, end: SimTime) -> (f64, f64) {
        let accrued = |acc, &s: &SimTime| acc + end.saturating_since(s).as_secs();
        let downtime = self
            .down_since
            .iter()
            .flatten()
            .fold(self.repair_secs, accrued);
        (downtime, self.repair_secs / self.repairs.max(1) as f64)
    }

    pub(crate) fn into_failure_counts(self) -> Vec<u64> {
        self.failure_counts
    }

    /// Encodes the `nodes` section: state tags, idle and down timestamps
    /// and failure counts (the `meta` node count sizes them), the
    /// allocator's spans, then the repair tallies.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        for s in &self.state {
            let tag = WIRE_STATES.iter().position(|w| w == s);
            w.u8(tag.expect("every state has a wire tag") as u8);
        }
        for since in self.idle_since.iter().chain(&self.down_since) {
            w.opt(since.as_ref(), |w, t| w.f64(t.as_secs()));
        }
        for &c in &self.failure_counts {
            w.u64(c);
        }
        self.alloc.snapshot_into(w);
        w.f64(self.repair_secs);
        w.u64(self.repairs);
    }

    /// Decodes a `total`-node table written at clock `now`, given the
    /// restored running jobs' node sets, and recounts the tallies. The
    /// frame is `Corrupt` when two jobs claim one node or any node breaks
    /// an invariant of the module docs or is stamped after `now`.
    pub(crate) fn restore_from<'a>(
        r: &mut SnapReader<'_>,
        total: u32,
        strategy: AllocStrategy,
        topology: Topology,
        now: SimTime,
        claims: impl Iterator<Item = &'a NodeSet>,
    ) -> Result<Self, SnapshotError> {
        let n = total as usize;
        let mut t = NodeTable::new(total, strategy, topology.clone());
        t.state = per_node(r, n, |r| {
            let tag = r.u8()?;
            let state = WIRE_STATES.get(usize::from(tag)).copied();
            state.ok_or_else(|| SnapshotError::Corrupt {
                detail: format!("unknown node power state tag {tag}"),
            })
        })?;
        t.idle_since = per_node(r, n, |r| r.opt(SnapReader::time))?;
        t.down_since = per_node(r, n, |r| r.opt(SnapReader::time))?;
        t.failure_counts = per_node(r, n, SnapReader::u64)?;
        t.alloc = Allocator::restore_from(r, strategy, topology)?;
        t.repair_secs = r.duration()?.as_secs();
        t.repairs = r.u64()?;
        let (mut claimed, mut claims_len) = (vec![false; n], 0);
        for &(start, len) in claims.flat_map(NodeSet::runs) {
            claimed[start as usize..(start + len) as usize].fill(true);
            claims_len += len;
        }
        let busy;
        (t.off, t.booting, busy, t.down) = t.scan();
        // With every claimed node Busy and every free and unavailable node
        // matching its state (checked below), the claims are disjoint and
        // the allocator's busy set is the Busy nodes iff the counts agree.
        if t.alloc.total() != total || t.busy_count() != busy || claims_len != busy {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "allocator over {} nodes holds {} busy, running jobs claim {claims_len}, \
                     {busy} nodes are Busy",
                    t.alloc.total(),
                    t.busy_count()
                ),
            });
        }
        match (0..n).find(|&i| !t.consistent(i, claimed[i], now)) {
            Some(i) => Err(SnapshotError::Corrupt {
                detail: format!(
                    "node {i} ({:?}, idle since {:?}, down since {:?}, claimed: {}) contradicts \
                     the allocator, the running jobs or the clock {now}",
                    t.state[i], t.idle_since[i], t.down_since[i], claimed[i]
                ),
            }),
            None => Ok(t),
        }
    }

    /// Checks the restored queue's node events against the node states:
    /// a queued `BootDone` names a Booting node, a `RepairDone` a down
    /// node, and no node has two of either queued. `ShutdownDone` stays
    /// unchecked: a drain overtaken by a failure and a repair leaves its
    /// completion queued for a node that is up, or draining again.
    pub(crate) fn check_queued<'a>(
        &self,
        events: impl Iterator<Item = &'a Ev>,
    ) -> Result<(), SnapshotError> {
        let mut seen = BTreeSet::new();
        for ev in events {
            let (repair, node, expected) = match *ev {
                Ev::BootDone(n) => (false, n, self.state[n.index()] == Booting),
                Ev::RepairDone(n) => (true, n, self.down_since[n.index()].is_some()),
                _ => continue,
            };
            if !expected || !seen.insert((repair, node.0)) {
                return Err(SnapshotError::Corrupt {
                    detail: format!(
                        "queued {ev:?} contradicts node {} ({:?}, down since {:?}) or repeats",
                        node.0,
                        self.state[node.index()],
                        self.down_since[node.index()]
                    ),
                });
            }
        }
        Ok(())
    }

    /// Whether node `i`, `claimed` or not by a running job, keeps the
    /// module invariants and carries no timestamp after `now`.
    fn consistent(&mut self, i: usize, claimed: bool, now: SimTime) -> bool {
        let node = NodeId(i as u32);
        let free = self.alloc.is_free(node);
        let (idle, down) = (self.idle_since[i], self.down_since[i]);
        // `mark_unavailable` changes nothing for a node that is not free,
        // and reports whether the allocator holds it unavailable (not busy).
        let mut unavailable = || !free && self.alloc.mark_unavailable(node);
        idle.into_iter().chain(down).all(|t| t <= now)
            && claimed == (self.state[i] == Busy)
            && match (self.state[i], idle.is_some(), down.is_some()) {
                (Busy, false, false) => !free,
                (Idle, true, false) => free,
                (Idle | Booting, false, false) | (Off, false, _) => unavailable(),
                _ => false,
            }
    }
}

/// Reads `n` values, one per node.
fn per_node<'a, T>(
    r: &mut SnapReader<'a>,
    n: usize,
    mut f: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapshotError>,
) -> Result<Vec<T>, SnapshotError> {
    std::iter::repeat_with(|| f(r)).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPOLOGY: Topology = Topology::FatTree { arity: 8 };

    fn frame(t: &NodeTable) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.snapshot_into(&mut w);
        w.finish(1)
    }

    fn restore(
        bytes: &[u8],
        total: u32,
        now: f64,
        claims: &[NodeSet],
    ) -> Result<NodeTable, SnapshotError> {
        let mut r = SnapReader::open(bytes, 1).expect("framed");
        let now = SimTime::from_secs(now);
        let t = NodeTable::restore_from(
            &mut r,
            total,
            AllocStrategy::FirstFit,
            TOPOLOGY,
            now,
            claims.iter(),
        )?;
        r.finish().map(|()| t)
    }

    fn counts(t: &NodeTable) -> [u32; 6] {
        let idle = t.idle_count();
        [
            t.free_count(),
            t.busy_count(),
            t.off_count(),
            t.booting_count(),
            t.down_count(),
            idle,
        ]
    }

    #[test]
    fn every_transition_survives_a_restore() {
        let at = SimTime::from_secs;
        let mut t = NodeTable::new(8, AllocStrategy::FirstFit, TOPOLOGY);
        let job = t.allocate(3, None).expect("3 free nodes");
        t.occupy(&job);
        t.drain(NodeId(3));
        for n in [4, 5] {
            t.drain(NodeId(n));
            assert!(t.shutdown_done(NodeId(n)));
        }
        t.boot(NodeId(5));
        t.take_down(NodeId(6), at(10.0));
        t.take_down(NodeId(7), at(5.0));
        assert_eq!(t.repair(NodeId(7), at(8.0)), Some(3.0));
        assert_eq!(t.repair(NodeId(7), at(9.0)), None, "already up");
        t.bring_up(NodeId(7), at(20.0));
        // Busy 0-2, draining 3, off 4, booting 5, down 6, idle 7.
        assert_eq!(counts(&t), [1, 3, 2, 1, 1, 2]);
        assert_eq!(t.operational(), [0, 1, 2, 3, 7].map(NodeId));
        assert_eq!(t.bootable(8), [NodeId(4)]);
        assert_eq!(t.downtime_to(at(30.0)), (23.0, 3.0));
        let bytes = frame(&t);
        let back = restore(&bytes, 8, 20.0, std::slice::from_ref(&job)).expect("consistent");
        assert_eq!(frame(&back), bytes);
        assert_eq!(counts(&back), counts(&t));
        assert_eq!(back.downtime_to(at(30.0)), (23.0, 3.0));
        t.vacate(&job, at(30.0));
        assert_eq!(counts(&t), [4, 0, 2, 1, 1, 5]);
        restore(&frame(&t), 8, 30.0, &[]).expect("consistent after the job left");
        let limit = SimDuration::from_secs(15.0);
        assert_eq!(t.drain_idle(at(40.0), limit, 5), [], "the reserve");
        assert_eq!(t.drain_idle(at(40.0), limit, 0), [NodeId(7)]);
        assert_eq!(counts(&t), [3, 0, 2, 1, 1, 5], "drained, idle until Off");
    }

    #[test]
    fn a_drain_overtaken_by_failure_and_repair_leaves_the_node_up() {
        let at = SimTime::from_secs;
        let mut t = NodeTable::new(2, AllocStrategy::FirstFit, TOPOLOGY);
        t.drain(NodeId(0));
        t.take_down(NodeId(0), at(10.0));
        assert!(t.shutdown_done(NodeId(0)), "still down: Off");
        assert_eq!(t.repair(NodeId(0), at(15.0)), Some(5.0));
        t.bring_up(NodeId(0), at(20.0));
        assert!(!t.shutdown_done(NodeId(0)), "up before the drain ended");
        assert_eq!(counts(&t), [2, 0, 0, 0, 0, 2]);
        let back = restore(&frame(&t), 2, 30.0, &[]).expect("consistent");
        assert_eq!(counts(&back), counts(&t));
    }

    /// A two-node frame: state tags, idle and down timestamps (seconds),
    /// then the allocator's free runs and unavailable runs.
    fn crafted(
        tags: [u8; 2],
        idle: [Option<f64>; 2],
        down: [Option<f64>; 2],
        free: &[(u32, u32)],
        unavailable: &[(u32, u32)],
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        tags.iter().for_each(|&tag| w.u8(tag));
        for since in idle.iter().chain(&down) {
            w.opt(since.as_ref(), |w, &s| w.f64(s));
        }
        (0..2).for_each(|_| w.u64(0));
        w.u32(2);
        for runs in [free, unavailable] {
            w.seq(runs, |w, &(start, len)| {
                w.u32(start);
                w.u32(len);
            });
        }
        w.f64(0.0);
        w.u64(0);
        w.finish(1)
    }

    #[test]
    fn restore_rejects_node_states_that_contradict_each_other() {
        let (busy, off, idle) = (3, 0, 2);
        let job = [NodeSet::from_run(0, 1)];
        let ok = crafted([busy, off], [None; 2], [None; 2], &[], &[(1, 1)]);
        restore(&ok, 2, 10.0, &job).expect("node 0 busy, node 1 off");
        let cases: [(&str, Vec<u8>, &[NodeSet]); 5] = [
            (
                "busy node held unavailable, off node held busy",
                crafted([busy, off], [None; 2], [None; 2], &[], &[(0, 1)]),
                &job,
            ),
            (
                "one node claimed by two jobs",
                crafted([busy, idle], [None, Some(0.0)], [None; 2], &[(1, 1)], &[]),
                &[job[0].clone(), job[0].clone()],
            ),
            (
                "unclaimed busy node",
                crafted([busy, off], [None; 2], [None; 2], &[], &[(1, 1)]),
                &[],
            ),
            (
                "idle since after the clock",
                crafted(
                    [idle, idle],
                    [Some(50.0), Some(0.0)],
                    [None; 2],
                    &[(0, 2)],
                    &[],
                ),
                &[],
            ),
            (
                "down node that is idle",
                crafted([idle, off], [None; 2], [Some(1.0), None], &[], &[(0, 2)]),
                &[],
            ),
        ];
        for (name, bytes, claims) in cases {
            let err = restore(&bytes, 2, 10.0, claims).err();
            assert!(
                matches!(err, Some(SnapshotError::Corrupt { .. })),
                "{name}: {err:?}"
            );
        }
    }

    #[test]
    fn queued_node_events_must_match_the_node_states() {
        let mut t = NodeTable::new(4, AllocStrategy::FirstFit, TOPOLOGY);
        t.take_down(NodeId(1), SimTime::from_secs(5.0));
        t.drain(NodeId(2));
        assert!(t.shutdown_done(NodeId(2)));
        t.boot(NodeId(2));
        let (idle, down, booting) = (NodeId(0), NodeId(1), NodeId(2));
        let check = |events: &[Ev]| t.check_queued(events.iter()).is_ok();
        assert!(check(&[Ev::BootDone(booting), Ev::RepairDone(down)]));
        assert!(
            check(&[Ev::ShutdownDone(idle), Ev::ShutdownDone(idle)]),
            "shutdown completions stay unchecked"
        );
        for (name, events) in [
            ("boot completion for an idle node", vec![Ev::BootDone(idle)]),
            ("boot completion for a down node", vec![Ev::BootDone(down)]),
            ("repair for an idle node", vec![Ev::RepairDone(idle)]),
            ("repair for a booting node", vec![Ev::RepairDone(booting)]),
            (
                "two boot completions",
                vec![Ev::BootDone(booting), Ev::BootDone(booting)],
            ),
            (
                "two repairs",
                vec![Ev::RepairDone(down), Ev::RepairDone(down)],
            ),
        ] {
            assert!(!check(&events), "{name}");
        }
    }
}
