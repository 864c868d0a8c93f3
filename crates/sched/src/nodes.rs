//! The node table: the one record of every node's power state and
//! availability.
//!
//! Idle-node shutdown, boot on demand (Tables I/II: Tokyo Tech, CEA) and
//! failure/repair act on one per-node machine: Off → Booting → Idle ⇄
//! Busy, Idle → draining → Off, and Idle | Busy → down (Off) → Idle. Each
//! transition is one [`NodeTable`] method that moves state, timestamps,
//! tallies and the free-run index together (the engine re-meters the node
//! afterwards). Transitions keep, and restore checks:
//! - a node is Busy ⇔ a running job claims it;
//! - a node is free ⇔ it is Idle with `idle_since` set; an Idle node
//!   without `idle_since` is draining;
//! - a down node (`down_since` set) is Off.
//!
//! The free nodes are also kept as maximal runs of consecutive ids for
//! first-fit placement. That index is derived from the states, so the
//! snapshot does not store it and restore rebuilds it. Between
//! [`NodeTable::allocate`] and [`NodeTable::occupy`] (or
//! [`NodeTable::release_unoccupied`]) the picked nodes are still Idle but
//! out of the index; no snapshot falls in that window.
//!
//! The table also tallies completed repairs and their downtime, the
//! outcome's downtime and MTTR.

use crate::events::Ev;
use epa_cluster::node::NodeId;
use epa_cluster::nodeset::NodeSet;
use epa_power::node_power::NodePowerState::{self, Booting, Busy, Idle, Off};
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// `NodePowerState`s by snapshot wire tag (stable, append-only).
const WIRE_STATES: [NodePowerState; 4] = [Off, Booting, Idle, Busy];

/// Per-node state indexed by `NodeId::index()`, the free-run index, the
/// free/busy/off/booting/down tallies and the repair tallies.
pub(crate) struct NodeTable {
    state: Vec<NodePowerState>,
    /// When each free node became idle; `None` for every other node.
    idle_since: Vec<Option<SimTime>>,
    failure_counts: Vec<u64>,
    /// When each down node failed; `None` for every other node.
    down_since: Vec<Option<SimTime>>,
    /// Maximal runs of consecutive free node ids, `start → len`: no two
    /// runs touch or overlap.
    free_runs: BTreeMap<u32, u32>,
    free: u32,
    busy: u32,
    off: u32,
    booting: u32,
    down: u32,
    /// Downtime seconds over completed repairs, and their count.
    repair_secs: f64,
    repairs: u64,
}

impl NodeTable {
    /// A machine of `total` nodes, all idle and free since t = 0.
    pub(crate) fn new(total: u32) -> Self {
        let n = total as usize;
        NodeTable {
            state: vec![Idle; n],
            idle_since: vec![Some(SimTime::ZERO); n],
            failure_counts: vec![0; n],
            down_since: vec![None; n],
            free_runs: (total > 0).then_some((0, total)).into_iter().collect(),
            free: total,
            busy: 0,
            off: 0,
            booting: 0,
            down: 0,
            repair_secs: 0.0,
            repairs: 0,
        }
    }

    pub(crate) fn free_count(&self) -> u32 {
        self.free
    }

    pub(crate) fn busy_count(&self) -> u32 {
        self.busy
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
        let (off, booting, busy) = (self.off, self.booting, self.busy);
        debug_assert_eq!(self.scan(), (off, booting, busy, self.down));
        (self.state.len() as u32).saturating_sub(busy + off + booting)
    }

    /// Off, Booting, Busy and down nodes, counted by a full scan.
    fn scan(&self) -> (u32, u32, u32, u32) {
        let count = |s| self.state.iter().filter(|&&x| x == s).count() as u32;
        let down = self.down_since.iter().flatten().count() as u32;
        (count(Off), count(Booting), count(Busy), down)
    }

    /// Whether node `i` is Idle with `idle_since` set: free, unless it is
    /// picked by an allocation that is not yet occupied.
    fn is_free(&self, i: usize) -> bool {
        self.state[i] == Idle && self.idle_since[i].is_some()
    }

    /// The free runs the node states imply, and their node count.
    fn derived_free_runs(&self) -> (BTreeMap<u32, u32>, u32) {
        let mut runs = BTreeMap::new();
        let mut run: Option<(u32, u32)> = None;
        for i in 0..self.state.len() {
            match (self.is_free(i), &mut run) {
                (true, Some((_, len))) => *len += 1,
                (true, None) => run = Some((i as u32, 1)),
                (false, _) => runs.extend(run.take()),
            }
        }
        runs.extend(run);
        let free = runs.values().sum();
        (runs, free)
    }

    /// Takes the lowest `count` free nodes outside `excluded` out of the
    /// free pool. They stay Idle until [`NodeTable::occupy`]. A zero-node
    /// request, or one for more nodes than are free outside `excluded`,
    /// fails and changes nothing. O(runs visited · log n).
    pub(crate) fn allocate(&mut self, count: u32, excluded: &NodeSet) -> Option<NodeSet> {
        if count == 0 || count > self.free {
            return None;
        }
        let picks = self.lowest_free(count, excluded)?;
        for &(start, len) in picks.runs() {
            self.take_span(start, len);
        }
        Some(picks)
    }

    /// The `count` lowest free ids outside `excluded`, or `None` when
    /// fewer remain. Walks the free runs and the excluded runs together.
    fn lowest_free(&self, count: u32, excluded: &NodeSet) -> Option<NodeSet> {
        let mut picks = NodeSet::new();
        let mut cuts = excluded.runs().iter().peekable();
        for (&start, &len) in &self.free_runs {
            let (mut lo, hi) = (start, start + len);
            while lo < hi {
                while cuts.next_if(|&&(s, l)| s + l <= lo).is_some() {}
                match cuts.peek() {
                    Some(&&(s, l)) if s <= lo => lo = (s + l).min(hi),
                    next => {
                        let end = next.map_or(hi, |&&(s, _)| s.min(hi));
                        picks.push_run(lo, (end - lo).min(count - picks.len()));
                        if picks.len() == count {
                            return Some(picks);
                        }
                        lo = end;
                    }
                }
            }
        }
        None
    }

    pub(crate) fn occupy(&mut self, nodes: &NodeSet) {
        self.fill(nodes, Idle, Busy, None);
        self.busy += nodes.len();
    }

    /// Returns an allocation that was never occupied (a start rolled back
    /// after a failed actuation) to the free pool.
    pub(crate) fn release_unoccupied(&mut self, nodes: &NodeSet) {
        for &(start, len) in nodes.runs() {
            self.give_span(start, len);
        }
    }

    /// A departing job's nodes turn Idle at `t`, back in the free pool.
    pub(crate) fn vacate(&mut self, nodes: &NodeSet, t: SimTime) {
        self.fill(nodes, Busy, Idle, Some(t));
        self.busy -= nodes.len();
        self.release_unoccupied(nodes);
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

    /// Removes `k` consecutive free ids starting at `s` from the index.
    /// The span lies in one maximal run (its ids are consecutive and all
    /// free). O(log n).
    fn take_span(&mut self, s: u32, k: u32) {
        let (&start, &len) = (self.free_runs.range(..=s).next_back())
            .filter(|&(&start, &len)| s + k <= start + len)
            .expect("span must lie in a free run");
        self.free_runs.remove(&start);
        if s > start {
            self.free_runs.insert(start, s - start);
        }
        if s + k < start + len {
            self.free_runs.insert(s + k, start + len - (s + k));
        }
        self.free -= k;
    }

    /// Returns `k` consecutive ids starting at `s` to the index,
    /// coalescing with both neighbouring runs. O(log n) per span.
    fn give_span(&mut self, s: u32, k: u32) {
        let (mut start, mut len) = (s, k);
        if let Some((&ls, &ll)) = self.free_runs.range(..s).next_back() {
            debug_assert!(ls + ll <= s, "span {s}+{k} is already free");
            if ls + ll == s {
                self.free_runs.remove(&ls);
                (start, len) = (ls, len + ll);
            }
        }
        if let Some((&rs, &rl)) = self.free_runs.range(s..).next() {
            debug_assert!(rs >= s + k, "span {s}+{k} is already free");
            if rs == s + k {
                self.free_runs.remove(&rs);
                len += rl;
            }
        }
        self.free_runs.insert(start, len);
        self.free += k;
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
        debug_assert!(self.is_free(n.index()), "a shutdown candidate is free");
        self.leave_pool(n);
    }

    /// Takes a free node out of the free pool by clearing `idle_since`;
    /// any other node is already out.
    fn leave_pool(&mut self, n: NodeId) {
        if self.is_free(n.index()) {
            self.take_span(n.0, 1);
        }
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
        self.give_span(n.0, 1);
        self.set_state(n, Idle);
        self.idle_since[n.index()] = Some(t);
    }

    /// Fails a node whose job, if any, has already departed: counted, out
    /// of the free pool, Off and down from `t` until [`NodeTable::repair`].
    pub(crate) fn take_down(&mut self, n: NodeId, t: SimTime) {
        let i = n.index();
        self.failure_counts[i] += 1;
        self.leave_pool(n);
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
    /// and failure counts (the `meta` node count sizes them), then the
    /// repair tallies. The free-run index is derived, so it is not stored.
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
        w.f64(self.repair_secs);
        w.u64(self.repairs);
    }

    /// Decodes a `total`-node table written at clock `now`, given the
    /// restored running jobs' node sets, then recounts the tallies and
    /// rebuilds the free-run index from the states. The frame is
    /// `Corrupt` when two jobs claim one node or any node breaks an
    /// invariant of the module docs or is stamped after `now`.
    pub(crate) fn restore_from<'a>(
        r: &mut SnapReader<'_>,
        total: u32,
        now: SimTime,
        claims: impl Iterator<Item = &'a NodeSet>,
    ) -> Result<Self, SnapshotError> {
        let n = total as usize;
        let mut t = NodeTable::new(total);
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
        t.repair_secs = r.duration()?.as_secs();
        t.repairs = r.u64()?;
        let (mut claimed, mut claims_len) = (vec![false; n], 0);
        for &(start, len) in claims.flat_map(NodeSet::runs) {
            claimed[start as usize..(start + len) as usize].fill(true);
            claims_len += len;
        }
        (t.off, t.booting, t.busy, t.down) = t.scan();
        (t.free_runs, t.free) = t.derived_free_runs();
        // With every claimed node Busy and every Busy node claimed
        // (checked below), the claims are disjoint iff the counts agree.
        if claims_len != t.busy {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "running jobs claim {claims_len} nodes, {} nodes are Busy",
                    t.busy
                ),
            });
        }
        match (0..n).find(|&i| !t.consistent(i, claimed[i], now)) {
            Some(i) => Err(SnapshotError::Corrupt {
                detail: format!(
                    "node {i} ({:?}, idle since {:?}, down since {:?}, claimed: {}) contradicts \
                     its state, the running jobs or the clock {now}",
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
    fn consistent(&self, i: usize, claimed: bool, now: SimTime) -> bool {
        let (idle, down) = (self.idle_since[i], self.down_since[i]);
        idle.into_iter().chain(down).all(|t| t <= now)
            && claimed == (self.state[i] == Busy)
            && matches!(
                (self.state[i], idle.is_some(), down.is_some()),
                (Busy | Booting, false, false) | (Idle, _, false) | (Off, false, _)
            )
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
        let t = NodeTable::restore_from(&mut r, total, now, claims.iter())?;
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

    /// The free-run index equals the one the node states imply.
    fn check_index(t: &NodeTable) {
        assert_eq!((t.free_runs.clone(), t.free), t.derived_free_runs());
    }

    #[test]
    fn every_transition_survives_a_restore() {
        let at = SimTime::from_secs;
        let mut t = NodeTable::new(8);
        let job = t.allocate(3, &NodeSet::new()).expect("3 free nodes");
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
        check_index(&t);
        let bytes = frame(&t);
        let back = restore(&bytes, 8, 20.0, std::slice::from_ref(&job)).expect("consistent");
        assert_eq!(frame(&back), bytes);
        assert_eq!(counts(&back), counts(&t));
        assert_eq!(back.free_runs, t.free_runs);
        assert_eq!(back.downtime_to(at(30.0)), (23.0, 3.0));
        t.vacate(&job, at(30.0));
        assert_eq!(counts(&t), [4, 0, 2, 1, 1, 5]);
        restore(&frame(&t), 8, 30.0, &[]).expect("consistent after the job left");
        let limit = SimDuration::from_secs(15.0);
        assert_eq!(t.drain_idle(at(40.0), limit, 5), [], "the reserve");
        assert_eq!(t.drain_idle(at(40.0), limit, 0), [NodeId(7)]);
        assert_eq!(counts(&t), [3, 0, 2, 1, 1, 5], "drained, idle until Off");
        check_index(&t);
    }

    #[test]
    fn a_drain_overtaken_by_failure_and_repair_leaves_the_node_up() {
        let at = SimTime::from_secs;
        let mut t = NodeTable::new(2);
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

    #[test]
    fn allocate_takes_the_lowest_free_nodes_outside_the_exclusion() {
        // The layout-aware start: node 1 is draining, nodes 6 and 7 are
        // busy, and nodes 0..4 sit under a maintenance window.
        let mut t = NodeTable::new(10);
        t.drain(NodeId(1));
        let probe = t.allocate(2, &NodeSet::from_run(3, 3)).expect("0 and 2");
        assert_eq!(probe.runs(), [(0, 1), (2, 1)]);
        t.release_unoccupied(&probe);
        let job = t.allocate(2, &NodeSet::from_run(0, 6)).expect("6 and 7");
        assert_eq!(job, NodeSet::from_run(6, 2));
        t.occupy(&job);
        let excluded = NodeSet::from_run(0, 4);
        let before = (t.free_runs.clone(), counts(&t));
        for count in [0, 5] {
            assert_eq!(t.allocate(count, &excluded), None, "{count} nodes");
            assert_eq!(
                (t.free_runs.clone(), counts(&t)),
                before,
                "a failed request"
            );
        }
        let got = t.allocate(4, &excluded).expect("4, 5, 8, 9");
        assert_eq!(got.runs(), [(4, 2), (8, 2)]);
        assert!(!got.contains(NodeId(1)), "a draining node is never picked");
        t.occupy(&got);
        assert_eq!(t.free_runs, BTreeMap::from([(0, 1), (2, 2)]));
        check_index(&t);
    }

    #[test]
    fn release_coalesces_runs() {
        let mut t = NodeTable::new(8);
        let all = t.allocate(8, &NodeSet::new()).expect("8 free nodes");
        assert_eq!(all, NodeSet::from_run(0, 8));
        assert!(t.free_runs.is_empty());
        for run in [(3, 1), (5, 1), (4, 1), (0, 3), (6, 2)] {
            t.release_unoccupied(&NodeSet::from_run(run.0, run.1));
        }
        assert_eq!(t.free_runs, BTreeMap::from([(0, 8)]));
        assert_eq!(t.free_count(), 8);
    }

    /// A two-node frame: state tags, idle and down timestamps (seconds),
    /// zero failure counts and repair tallies.
    fn crafted(tags: [u8; 2], idle: [Option<f64>; 2], down: [Option<f64>; 2]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        tags.iter().for_each(|&tag| w.u8(tag));
        for since in idle.iter().chain(&down) {
            w.opt(since.as_ref(), |w, &s| w.f64(s));
        }
        (0..2).for_each(|_| w.u64(0));
        w.f64(0.0);
        w.u64(0);
        w.finish(1)
    }

    #[test]
    fn restore_rejects_node_states_that_contradict_each_other() {
        let (busy, off, idle) = (3, 0, 2);
        let job = [NodeSet::from_run(0, 1)];
        let ok = crafted([busy, off], [None; 2], [None; 2]);
        restore(&ok, 2, 10.0, &job).expect("node 0 busy, node 1 off");
        let cases: [(&str, Vec<u8>, &[NodeSet]); 5] = [
            (
                "off node idle since a time",
                crafted([busy, off], [None, Some(1.0)], [None; 2]),
                &job,
            ),
            (
                "one node claimed by two jobs",
                crafted([busy, idle], [None, Some(0.0)], [None; 2]),
                &[job[0].clone(), job[0].clone()],
            ),
            (
                "unclaimed busy node",
                crafted([busy, off], [None; 2], [None; 2]),
                &[],
            ),
            (
                "idle since after the clock",
                crafted([idle, idle], [Some(50.0), Some(0.0)], [None; 2]),
                &[],
            ),
            (
                "down node that is idle",
                crafted([idle, off], [None; 2], [Some(1.0), None]),
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
        let mut t = NodeTable::new(4);
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

    /// The node table against a per-node model of first-fit placement and
    /// the node machine: same picks, same per-node states and tallies, no
    /// double booking, and byte-exact snapshot roundtrips along the way.
    mod proptests {
        use super::*;
        use proptest::prelude::*;

        const TOTAL: u32 = 48;

        /// A node as the model sees it; times are seconds.
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum M {
            Free(f64),
            Busy,
            Draining,
            Off,
            Booting,
            Down(f64),
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// Allocate `count` nodes avoiding `excluded`, then occupy them
            /// or, when `unwind`, hand them back unoccupied.
            Start {
                count: u32,
                excluded: Option<(u32, u32)>,
                unwind: bool,
            },
            Finish(usize),
            Drain(usize),
            DrainIdle(u32, u32),
            ShutdownDone(u32),
            Boot(u32),
            BootDone(usize),
            Fail(usize),
            Repair(usize),
            Snapshot,
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            let excluded = prop_oneof![
                Just(None),
                (0u32..TOTAL, 1u32..16).prop_map(|(s, l)| Some((s, l.min(TOTAL - s)))),
            ];
            proptest::collection::vec(
                prop_oneof![
                    (0u32..20, excluded, any::<bool>()).prop_map(|(count, excluded, unwind)| {
                        Op::Start {
                            count,
                            excluded,
                            unwind,
                        }
                    }),
                    (0usize..8).prop_map(Op::Finish),
                    (0usize..48).prop_map(Op::Drain),
                    (0u32..8, 0u32..20).prop_map(|(r, l)| Op::DrainIdle(r, l)),
                    (0u32..TOTAL).prop_map(Op::ShutdownDone),
                    (1u32..6).prop_map(Op::Boot),
                    (0usize..8).prop_map(Op::BootDone),
                    (0usize..48).prop_map(Op::Fail),
                    (0usize..8).prop_map(Op::Repair),
                    Just(Op::Snapshot),
                ],
                1..80,
            )
        }

        /// The table's nodes in the model's terms.
        fn observe(t: &NodeTable) -> Vec<M> {
            (0..t.state.len())
                .map(|i| match (t.state[i], t.idle_since[i], t.down_since[i]) {
                    (Idle, Some(s), None) => M::Free(s.as_secs()),
                    (Idle, None, None) => M::Draining,
                    (Busy, None, None) => M::Busy,
                    (Off, None, Some(d)) => M::Down(d.as_secs()),
                    (Off, None, None) => M::Off,
                    (Booting, None, None) => M::Booting,
                    other => panic!("node {i} in no model state: {other:?}"),
                })
                .collect()
        }

        /// Ids of the model nodes matching `pred`, ascending.
        fn ids(model: &[M], pred: impl Fn(M) -> bool) -> Vec<u32> {
            (0..model.len() as u32)
                .filter(|&i| pred(model[i as usize]))
                .collect()
        }

        proptest! {
            #[test]
            fn one_record_matches_a_per_node_model(ops in arb_ops()) {
                let mut t = NodeTable::new(TOTAL);
                let mut model = vec![M::Free(0.0); TOTAL as usize];
                let mut live: Vec<NodeSet> = Vec::new();
                for (step, op) in ops.into_iter().enumerate() {
                    let now = (step + 1) as f64;
                    let at = SimTime::from_secs(now);
                    match op {
                        Op::Start { count, excluded, unwind } => {
                            let excluded = excluded
                                .map_or_else(NodeSet::new, |(s, l)| NodeSet::from_run(s, l));
                            let free = ids(&model, |m| matches!(m, M::Free(_)));
                            let outside: Vec<u32> =
                                free.into_iter().filter(|&n| !excluded.contains(NodeId(n))).collect();
                            let want = (count > 0 && count as usize <= outside.len())
                                .then(|| outside[..count as usize].to_vec());
                            let got = t.allocate(count, &excluded);
                            let got_ids = got.as_ref().map(|g| g.iter().map(|n| n.0).collect());
                            prop_assert_eq!(&got_ids, &want, "allocate({})", count);
                            if let Some(got) = got {
                                for job in &live {
                                    prop_assert!(
                                        got.iter().all(|n| !job.contains(n)),
                                        "double booked"
                                    );
                                }
                                if unwind {
                                    t.release_unoccupied(&got);
                                } else {
                                    t.occupy(&got);
                                    got.iter().for_each(|n| model[n.index()] = M::Busy);
                                    live.push(got);
                                }
                            }
                        }
                        Op::Finish(i) => {
                            if !live.is_empty() {
                                let job = live.swap_remove(i % live.len());
                                t.vacate(&job, at);
                                job.iter().for_each(|n| model[n.index()] = M::Free(now));
                            }
                        }
                        Op::Drain(i) => {
                            let free = ids(&model, |m| matches!(m, M::Free(_)));
                            if !free.is_empty() {
                                let n = free[i % free.len()];
                                t.drain(NodeId(n));
                                model[n as usize] = M::Draining;
                            }
                        }
                        Op::DrainIdle(reserve, limit) => {
                            let idle = ids(&model, |m| matches!(m, M::Free(_) | M::Draining));
                            let k = (idle.len() as u32).saturating_sub(reserve) as usize;
                            let old = ids(&model, |m| {
                                matches!(m, M::Free(s) if now - s >= f64::from(limit))
                            });
                            let want: Vec<NodeId> = old.into_iter().take(k).map(NodeId).collect();
                            let limit = SimDuration::from_secs(f64::from(limit));
                            prop_assert_eq!(t.drain_idle(at, limit, reserve), want.clone());
                            want.iter().for_each(|n| model[n.index()] = M::Draining);
                        }
                        Op::ShutdownDone(n) => {
                            let m = &mut model[n as usize];
                            if *m == M::Draining {
                                *m = M::Off;
                            }
                            let off = matches!(*m, M::Off | M::Down(_));
                            prop_assert_eq!(t.shutdown_done(NodeId(n)), off);
                        }
                        Op::Boot(k) => {
                            let off = ids(&model, |m| m == M::Off);
                            let want: Vec<NodeId> =
                                off.into_iter().take(k as usize).map(NodeId).collect();
                            prop_assert_eq!(t.bootable(k), want.clone());
                            for n in want {
                                t.boot(n);
                                model[n.index()] = M::Booting;
                            }
                        }
                        Op::BootDone(i) => {
                            let booting = ids(&model, |m| m == M::Booting);
                            if !booting.is_empty() {
                                let n = booting[i % booting.len()];
                                t.bring_up(NodeId(n), at);
                                model[n as usize] = M::Free(now);
                            }
                        }
                        Op::Fail(i) => {
                            let up = ids(&model, |m| matches!(m, M::Free(_) | M::Busy | M::Draining));
                            let want: Vec<NodeId> = up.iter().copied().map(NodeId).collect();
                            prop_assert_eq!(t.operational(), want);
                            if !up.is_empty() {
                                let n = NodeId(up[i % up.len()]);
                                if let Some(j) = live.iter().position(|job| job.contains(n)) {
                                    let job = live.swap_remove(j);
                                    t.vacate(&job, at);
                                    job.iter().for_each(|m| model[m.index()] = M::Free(now));
                                }
                                t.take_down(n, at);
                                model[n.index()] = M::Down(now);
                            }
                        }
                        Op::Repair(i) => {
                            let down = ids(&model, |m| matches!(m, M::Down(_)));
                            if !down.is_empty() {
                                let n = down[i % down.len()];
                                let M::Down(since) = model[n as usize] else { unreachable!() };
                                prop_assert_eq!(t.repair(NodeId(n), at), Some(now - since));
                                t.bring_up(NodeId(n), at);
                                model[n as usize] = M::Free(now);
                            }
                        }
                        Op::Snapshot => {
                            let bytes = frame(&t);
                            let back = restore(&bytes, TOTAL, now, &live).expect("consistent");
                            prop_assert_eq!(frame(&back), bytes, "restore lost state");
                            prop_assert_eq!(&back.free_runs, &t.free_runs);
                            t = back;
                        }
                    }
                    prop_assert_eq!(observe(&t), model.clone());
                    check_index(&t);
                    let tally = |pred: fn(M) -> bool| ids(&model, pred).len() as u32;
                    let want = [
                        tally(|m| matches!(m, M::Free(_))),
                        tally(|m| m == M::Busy),
                        tally(|m| matches!(m, M::Off | M::Down(_))),
                        tally(|m| m == M::Booting),
                        tally(|m| matches!(m, M::Down(_))),
                        tally(|m| matches!(m, M::Free(_) | M::Draining)),
                    ];
                    prop_assert_eq!(counts(&t), want);
                    let busy: u32 = live.iter().map(NodeSet::len).sum();
                    prop_assert_eq!(t.busy_count(), busy);
                }
            }
        }
    }
}
