//! Node allocation strategies.
//!
//! The allocator owns the free/busy partition of a system's nodes and
//! hands out node sets to the scheduler. Besides the first-fit baseline it
//! implements the contiguous and topology-aware placements that survey
//! question Q6 asks about: topology-aware allocation reduces the average
//! pairwise hop distance of a job's nodes, which shortens communication
//! phases and thereby *indirectly* reduces energy-to-solution — the exact
//! mechanism Q6's rationale describes.
//!
//! The free set is stored as maximal runs of consecutive node ids
//! (`start → len`) with a `(len, start)` mirror for best-fit, and
//! allocations travel as [`NodeSet`] runs, so allocate and release cost
//! O(spans · log n) whatever the allocation size: first-fit consumes run
//! prefixes, contiguous best-fit is one range query on the mirror, and
//! release coalesces each span back into its neighbours. Busy nodes are
//! not stored at all — a node is busy when it is neither free nor
//! unavailable. Observable behaviour (which nodes each strategy picks,
//! tie-breaks, error cases, drain semantics) is identical to the original
//! per-node set-based code — property-tested against a model of it below.
//!
//! Invariant (property-tested): a node is never allocated to two jobs at
//! once, and release returns exactly the allocated set.

use crate::error::ClusterError;
use crate::node::NodeId;
use crate::nodeset::NodeSet;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Placement strategy for picking nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AllocStrategy {
    /// Lowest-numbered free nodes (the classic default).
    #[default]
    FirstFit,
    /// The contiguous run of free nodes with the smallest span that fits;
    /// falls back to first-fit when no contiguous run exists.
    Contiguous,
    /// Greedy topology-aware packing: grow the allocation around a seed
    /// node, always taking the free node closest (in hop distance) to the
    /// already-chosen set.
    TopologyAware,
}

/// Tracks which nodes are free, allocated, or administratively unavailable.
#[derive(Debug, Clone)]
pub struct Allocator {
    total: u32,
    /// Maximal runs of consecutive free node ids: `start → len`. No two
    /// runs touch or overlap.
    free_runs: BTreeMap<u32, u32>,
    /// Mirror of `free_runs` keyed `(len, start)` — best-fit is one range
    /// query instead of a scan. Kept only under
    /// [`AllocStrategy::Contiguous`], the one strategy that reads it; the
    /// others would pay a second ordered-set update on every run change.
    runs_by_len: BTreeSet<(u32, u32)>,
    free_count: usize,
    busy_count: usize,
    unavailable: BTreeSet<NodeId>,
    strategy: AllocStrategy,
    topology: Topology,
}

impl Allocator {
    /// Creates an allocator over nodes `0..total`, all free.
    #[must_use]
    pub fn new(total: u32, strategy: AllocStrategy, topology: Topology) -> Self {
        let mut a = Allocator {
            total,
            free_runs: BTreeMap::new(),
            runs_by_len: BTreeSet::new(),
            free_count: total as usize,
            busy_count: 0,
            unavailable: BTreeSet::new(),
            strategy,
            topology,
        };
        if total > 0 {
            a.run_insert(0, total);
        }
        a
    }

    /// Total number of nodes managed.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Number of currently free (allocatable) nodes.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    /// Number of nodes currently allocated to jobs.
    #[must_use]
    pub fn busy_count(&self) -> usize {
        self.busy_count
    }

    /// Number of administratively unavailable nodes (off, maintenance).
    #[cfg(test)]
    fn unavailable_count(&self) -> usize {
        self.unavailable.len()
    }

    /// True if `node` is currently free.
    #[must_use]
    pub fn is_free(&self, node: NodeId) -> bool {
        self.free_runs
            .range(..=node.0)
            .next_back()
            .is_some_and(|(&start, &len)| node.0 < start + len)
    }

    /// True if `node` is currently allocated.
    #[cfg(test)]
    fn is_busy(&self, node: NodeId) -> bool {
        node.0 < self.total && !self.is_free(node) && !self.unavailable.contains(&node)
    }

    /// Iterates over the free set in ascending order.
    pub fn free_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.free_runs
            .iter()
            .flat_map(|(&start, &len)| (start..start + len).map(NodeId))
    }

    /// Iterates over the busy set in ascending order. O(n log n) — for
    /// tests, not the scheduling path.
    #[cfg(test)]
    fn busy_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.total).map(NodeId).filter(|&n| self.is_busy(n))
    }

    /// The maximal free runs intersected with `[lo, hi)`, as
    /// `(start, len)` pairs in ascending order. A run straddling the
    /// interval boundary is clipped to it. O(log n + runs-in-range).
    fn free_runs_in(&self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        if lo >= hi {
            return Vec::new();
        }
        let mut out = Vec::new();
        // A run starting before `lo` may still reach into the interval.
        if let Some((&start, &len)) = self.free_runs.range(..lo).next_back() {
            if start + len > lo {
                out.push((lo, (start + len).min(hi) - lo));
            }
        }
        for (&start, &len) in self.free_runs.range(lo..hi) {
            out.push((start, len.min(hi - start)));
        }
        out
    }

    // ---- snapshot -----------------------------------------------------

    /// Encodes the allocator's dynamic state as spans: the free runs and
    /// the unavailable set. Strategy and topology are configuration and
    /// must be re-supplied at [`Allocator::restore_from`]; the `(len,
    /// start)` mirror and the counts are derived, so they are rebuilt
    /// rather than stored.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        w.u32(self.total);
        let runs: Vec<(u32, u32)> = self.free_runs.iter().map(|(&s, &l)| (s, l)).collect();
        w.seq(&runs, |w, &(s, l)| {
            w.u32(s);
            w.u32(l);
        });
        let unavailable: NodeSet = self.unavailable.iter().copied().collect();
        unavailable.snapshot_into(w);
    }

    /// Decodes an allocator written by [`Allocator::snapshot_into`],
    /// rebuilding the best-fit mirror and the free/busy counts. Free runs
    /// and the unavailable set must be canonical, in range and disjoint,
    /// else the frame is [`SnapshotError::Corrupt`](epa_simcore::snap::SnapshotError::Corrupt).
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
        strategy: AllocStrategy,
        topology: Topology,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        use epa_simcore::snap::SnapshotError;
        let total = r.u32()?;
        // Free runs are maximal, so they decode with the node-set rules
        // (sorted, disjoint, non-adjacent, nonempty, in range).
        let free = NodeSet::restore_from(r, total)?;
        let unavailable = NodeSet::restore_from(r, total)?;
        let mut a = Allocator {
            total,
            free_runs: BTreeMap::new(),
            runs_by_len: BTreeSet::new(),
            free_count: free.len() as usize,
            busy_count: 0,
            unavailable: unavailable.iter().collect(),
            strategy,
            topology,
        };
        for &(start, len) in free.runs() {
            a.run_insert(start, len);
        }
        if let Some(n) = unavailable.iter().find(|&n| a.is_free(n)) {
            return Err(SnapshotError::Corrupt {
                detail: format!("node {n} is both free and unavailable"),
            });
        }
        a.busy_count = total as usize - a.free_count - a.unavailable.len();
        Ok(a)
    }

    // ---- free-run structure maintenance -------------------------------

    fn run_insert(&mut self, start: u32, len: u32) {
        debug_assert!(len > 0);
        self.free_runs.insert(start, len);
        if self.strategy == AllocStrategy::Contiguous {
            self.runs_by_len.insert((len, start));
        }
    }

    fn run_remove(&mut self, start: u32, len: u32) {
        let removed = self.free_runs.remove(&start);
        debug_assert_eq!(removed, Some(len));
        if self.strategy == AllocStrategy::Contiguous {
            self.runs_by_len.remove(&(len, start));
        }
    }

    /// Removes `k` consecutive free ids starting at `s`. The span lies in
    /// a single maximal run by construction (its ids are consecutive and
    /// all free). O(log n).
    fn remove_free_span(&mut self, s: u32, k: u32) {
        let (&start, &len) = self
            .free_runs
            .range(..=s)
            .next_back()
            .expect("span must lie in a free run");
        debug_assert!(s >= start && s + k <= start + len, "span exceeds its run");
        self.run_remove(start, len);
        if s > start {
            self.run_insert(start, s - start);
        }
        if s + k < start + len {
            self.run_insert(s + k, start + len - (s + k));
        }
        self.free_count -= k as usize;
    }

    /// Returns `k` consecutive non-free ids starting at `s` to the free
    /// set, coalescing with both neighbouring runs. O(log n) per span —
    /// releasing a whole contiguous allocation costs one coalesce, not
    /// one per node.
    fn insert_free_span(&mut self, s: u32, k: u32) {
        debug_assert!(k > 0);
        debug_assert!(
            !self.is_free(NodeId(s)) && !self.is_free(NodeId(s + k - 1)),
            "span already free"
        );
        let mut start = s;
        let mut len = k;
        if let Some((&ls, &ll)) = self.free_runs.range(..s).next_back() {
            if ls + ll == s {
                self.run_remove(ls, ll);
                start = ls;
                len += ll;
            }
        }
        if let Some((&rs, &rl)) = self.free_runs.range(s + k..).next() {
            if rs == s + k {
                self.run_remove(rs, rl);
                len += rl;
            }
        }
        self.run_insert(start, len);
        self.free_count += k as usize;
    }

    /// The `count` lowest free node ids, without mutation. O(spans).
    fn peek_lowest(&self, count: u32) -> NodeSet {
        debug_assert!(count as usize <= self.free_count);
        let mut out = NodeSet::new();
        for (&start, &len) in &self.free_runs {
            out.push_run(start, (count - out.len()).min(len));
            if out.len() == count {
                break;
            }
        }
        out
    }

    // ---- public mutation ----------------------------------------------

    /// Allocates `count` nodes using the configured strategy.
    ///
    /// Returns the chosen nodes or [`ClusterError::InsufficientNodes`]
    /// without mutating state. First-fit and contiguous picks cost
    /// O(spans · log n) regardless of `count`.
    pub fn allocate(&mut self, count: u32) -> Result<NodeSet, ClusterError> {
        if count == 0 {
            return Err(ClusterError::InvalidRequest("zero-node allocation".into()));
        }
        if count as usize > self.free_count {
            return Err(ClusterError::InsufficientNodes {
                requested: count,
                free: self.free_count as u32,
            });
        }
        let chosen = match self.strategy {
            AllocStrategy::FirstFit => self.peek_lowest(count),
            AllocStrategy::Contiguous => self.pick_contiguous(count),
            AllocStrategy::TopologyAware => self.pick_topology_aware(count),
        };
        // Every run of the chosen set lies inside one maximal free run.
        for &(start, len) in chosen.runs() {
            self.remove_free_span(start, len);
        }
        self.busy_count += count as usize;
        Ok(chosen)
    }

    /// Allocates `count` nodes as [`Allocator::allocate`] would if the
    /// free nodes in `excluded` did not exist — the layout-aware start
    /// that keeps jobs off maintenance-affected nodes. Unavailability is
    /// left untouched: excluded nodes that were off or booting stay
    /// unavailable, and excluded free nodes stay free.
    pub fn allocate_excluding(
        &mut self,
        count: u32,
        excluded: &NodeSet,
    ) -> Result<NodeSet, ClusterError> {
        let hidden: Vec<(u32, u32)> = excluded
            .runs()
            .iter()
            .flat_map(|&(start, len)| self.free_runs_in(start, start + len))
            .collect();
        for &(start, len) in &hidden {
            self.remove_free_span(start, len);
        }
        let result = self.allocate(count);
        for &(start, len) in &hidden {
            self.insert_free_span(start, len);
        }
        result
    }

    /// Returns an allocation to the free pool, one coalesce per span.
    /// Draining members (marked unavailable while busy) stay out.
    ///
    /// # Panics
    /// Panics (debug) if a node was not busy — releasing twice is a logic
    /// error in the scheduler.
    pub fn release(&mut self, nodes: &NodeSet) {
        for &(start, len) in nodes.runs() {
            debug_assert!(
                self.free_runs_in(start, start + len).is_empty(),
                "released span {start}+{len} holds a free node"
            );
            self.busy_count -= len as usize;
            if self.unavailable.is_empty() {
                self.insert_free_span(start, len);
                continue;
            }
            let draining: Vec<u32> = self
                .unavailable
                .range(NodeId(start)..NodeId(start + len))
                .map(|n| n.0)
                .collect();
            let mut cur = start;
            for d in draining.into_iter().chain(std::iter::once(start + len)) {
                if d > cur {
                    self.insert_free_span(cur, d - cur);
                }
                cur = d + 1;
            }
        }
    }

    /// Marks a free node administratively unavailable (powered off or under
    /// maintenance). Busy nodes cannot be taken; returns `false` for them.
    pub fn mark_unavailable(&mut self, node: NodeId) -> bool {
        if self.is_free(node) {
            self.remove_free_span(node.0, 1);
            self.unavailable.insert(node);
            true
        } else {
            self.unavailable.contains(&node)
        }
    }

    /// Returns an unavailable node to the free pool (boot complete,
    /// maintenance over).
    pub fn mark_available(&mut self, node: NodeId) -> bool {
        if self.unavailable.remove(&node) {
            self.insert_free_span(node.0, 1);
            true
        } else {
            false
        }
    }

    // ---- strategy picks -----------------------------------------------

    fn pick_contiguous(&self, count: u32) -> NodeSet {
        // Best-fit on runs: the shortest run that fits, lowest start among
        // equal lengths — one range query on the (len, start) mirror. The
        // tie-break matches the old ascending-id scan (first fitting run
        // encountered wins, i.e. lowest start).
        match self.runs_by_len.range((count, 0)..).next() {
            Some(&(_, start)) => NodeSet::from_run(start, count),
            None => self.peek_lowest(count),
        }
    }

    fn pick_topology_aware(&self, count: u32) -> NodeSet {
        let count = count as usize;
        // Seed: the free node whose locality block has the most free nodes,
        // then grow greedily by minimum total distance to the chosen set.
        let free: Vec<NodeId> = self.free_nodes().collect();
        let unit = self.topology.locality_unit();
        let seed = *free
            .iter()
            .max_by_key(|n| {
                let block = n.0 / unit;
                free.iter().filter(|m| m.0 / unit == block).count()
            })
            .expect("free set nonempty");
        let mut chosen = vec![seed];
        let mut remaining: Vec<NodeId> = free.iter().copied().filter(|&n| n != seed).collect();
        while chosen.len() < count {
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, &cand)| {
                    chosen
                        .iter()
                        .map(|&c| u64::from(self.topology.distance(cand, c)))
                        .sum::<u64>()
                })
                .expect("remaining nonempty while count unmet");
            chosen.push(remaining.swap_remove(idx));
        }
        chosen.into_iter().collect()
    }

    /// Structural self-check used by the property tests: runs are maximal
    /// and disjoint, counts match, mirrors agree.
    #[cfg(test)]
    fn check_structure(&self) {
        let mirrored = self.strategy == AllocStrategy::Contiguous;
        let mut prev_end: Option<u32> = None;
        let mut total_free = 0usize;
        for (&start, &len) in &self.free_runs {
            assert!(len > 0, "empty run at {start}");
            if let Some(pe) = prev_end {
                assert!(start > pe, "runs must be disjoint and non-adjacent");
            }
            assert!(
                !mirrored || self.runs_by_len.contains(&(len, start)),
                "mirror missing ({len},{start})"
            );
            prev_end = Some(start + len);
            total_free += len as usize;
        }
        let mirror_len = if mirrored { self.free_runs.len() } else { 0 };
        assert_eq!(self.runs_by_len.len(), mirror_len);
        assert_eq!(total_free, self.free_count);
        assert_eq!(self.busy_nodes().count(), self.busy_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dragonfly() -> Topology {
        Topology::Dragonfly {
            nodes_per_router: 4,
            routers_per_group: 4,
        }
    }

    #[test]
    fn first_fit_takes_lowest_ids() {
        let mut a = Allocator::new(16, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(4).unwrap();
        assert_eq!(got.to_vec(), (0..4).map(NodeId).collect::<Vec<_>>());
        assert_eq!(a.free_count(), 12);
        assert_eq!(a.busy_count(), 4);
    }

    #[test]
    fn insufficient_nodes_is_error_without_mutation() {
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        a.allocate(3).unwrap();
        let err = a.allocate(2).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::InsufficientNodes {
                requested: 2,
                free: 1
            }
        ));
        assert_eq!(a.free_count(), 1);
    }

    #[test]
    fn zero_allocation_rejected() {
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        assert!(a.allocate(0).is_err());
    }

    #[test]
    fn release_returns_nodes() {
        let mut a = Allocator::new(8, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(8).unwrap();
        a.release(&got);
        assert_eq!(a.free_count(), 8);
        assert_eq!(a.busy_count(), 0);
    }

    #[test]
    fn free_runs_in_clips_to_the_window() {
        let mut a = Allocator::new(16, AllocStrategy::FirstFit, dragonfly());
        // Occupy 0..4 and 6..9, leaving free runs {4,5} and {9..16}.
        let first = a.allocate(4).unwrap();
        let _hole = a.allocate(2).unwrap(); // 4,5
        let second = a.allocate(3).unwrap(); // 6,7,8
        a.release(&_hole);
        assert_eq!(a.free_runs_in(0, 16), vec![(4, 2), (9, 7)]);
        // A window cutting through the second run clips it on both sides.
        assert_eq!(a.free_runs_in(10, 12), vec![(10, 2)]);
        assert!(a.free_runs_in(0, 0).is_empty());
        drop((first, second));
    }

    #[test]
    fn release_coalesces_runs() {
        let mut a = Allocator::new(8, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(8).unwrap();
        assert_eq!(got, NodeSet::from_run(0, 8));
        // Release out of order; the free set must coalesce back into the
        // single maximal run 0..8 (observable via a full-width contiguous
        // allocation succeeding).
        a.release(&NodeSet::from_run(3, 1));
        a.release(&NodeSet::from_run(5, 1));
        a.release(&NodeSet::from_run(4, 1));
        a.release(&[0, 1, 2, 6, 7].into_iter().map(NodeId).collect());
        assert_eq!(a.free_count(), 8);
        let again = a.allocate(8).unwrap();
        assert_eq!(again.to_vec(), (0..8).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn contiguous_prefers_tight_runs() {
        let mut a = Allocator::new(16, AllocStrategy::Contiguous, dragonfly());
        // Occupy 0..6 and 8..10, leaving free: {6,7} and {10..16}.
        let first = a.allocate(6).unwrap();
        assert_eq!(first.to_vec(), (0..6).map(NodeId).collect::<Vec<_>>());
        // Free run {6,7} has length 2; run {8..16} length 8 — after taking
        // 6 more the allocator state is what we set up next.
        a.allocate(2).unwrap(); // takes 6,7 (shortest fitting run of len 2)
        let third = a.allocate(2).unwrap();
        assert_eq!(third.to_vec(), vec![NodeId(8), NodeId(9)]);
    }

    #[test]
    fn contiguous_best_fit_picks_smallest_fitting_run() {
        let mut a = Allocator::new(20, AllocStrategy::Contiguous, dragonfly());
        let all = a.allocate(20).unwrap();
        a.release(&NodeSet::from_run(2, 3)); // run of 3
        a.release(&NodeSet::from_run(10, 2)); // run of 2
        let got = a.allocate(2).unwrap();
        assert_eq!(
            got.to_vec(),
            vec![NodeId(10), NodeId(11)],
            "best-fit should pick the run of 2"
        );
        let _ = all;
    }

    #[test]
    fn contiguous_ties_break_to_lowest_start() {
        let mut a = Allocator::new(20, AllocStrategy::Contiguous, dragonfly());
        let all = a.allocate(20).unwrap();
        a.release(&NodeSet::from_run(12, 2)); // run of 2 (higher start)
        a.release(&NodeSet::from_run(5, 2)); // run of 2 (lower start)
        let got = a.allocate(2).unwrap();
        assert_eq!(got.to_vec(), vec![NodeId(5), NodeId(6)]);
        let _ = all;
    }

    #[test]
    fn topology_aware_is_compact() {
        let topo = dragonfly();
        let mut ta = Allocator::new(64, AllocStrategy::TopologyAware, topo.clone());
        let mut ff = Allocator::new(64, AllocStrategy::FirstFit, topo.clone());
        // Fragment both allocators the same way: occupy every other router.
        for alloc in [&mut ta, &mut ff] {
            for r in (0..16).step_by(2) {
                for i in 0..2 {
                    // half of each even router
                    let node = NodeId(r * 4 + i);
                    assert!(alloc.mark_unavailable(node));
                }
            }
        }
        let a = ta.allocate(8).unwrap().to_vec();
        let b = ff.allocate(8).unwrap().to_vec();
        assert!(
            topo.avg_pairwise_distance(&a) <= topo.avg_pairwise_distance(&b),
            "topology-aware ({:?}) should not be more spread than first-fit ({:?})",
            a,
            b
        );
    }

    #[test]
    fn unavailable_nodes_are_not_allocated() {
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        assert!(a.mark_unavailable(NodeId(0)));
        let got = a.allocate(3).unwrap();
        assert!(!got.contains(NodeId(0)));
        assert!(a.allocate(1).is_err());
        assert!(a.mark_available(NodeId(0)));
        assert_eq!(a.allocate(1).unwrap(), NodeSet::from_run(0, 1));
    }

    #[test]
    fn excluding_allocation_never_hands_out_powered_off_nodes() {
        // The layout-aware start: node 1 is powered off (unavailable) and
        // nodes 0..4 sit under a maintenance window. Excluding them must
        // neither hand out node 1 nor return it to the free pool.
        for strategy in [
            AllocStrategy::FirstFit,
            AllocStrategy::Contiguous,
            AllocStrategy::TopologyAware,
        ] {
            let mut a = Allocator::new(8, strategy, dragonfly());
            assert!(a.mark_unavailable(NodeId(1)));
            let affected = NodeSet::from_run(0, 4);
            let got = a.allocate_excluding(2, &affected).unwrap();
            assert!(got.runs().iter().all(|&(s, _)| s >= 4), "{got:?}");
            assert!(!a.is_free(NodeId(1)), "off node returned to the free pool");
            assert!(a.is_free(NodeId(0)) && a.is_free(NodeId(2)) && a.is_free(NodeId(3)));
            assert_eq!(a.unavailable_count(), 1);
            // Drain the rest: node 1 is never among the picks.
            while let Ok(more) = a.allocate(1) {
                assert!(!more.contains(NodeId(1)));
            }
            assert_eq!(a.free_count(), 0);
            assert_eq!(a.busy_count() + a.unavailable_count(), 8);
        }
    }

    #[test]
    fn excluding_allocation_fails_without_mutation() {
        let mut a = Allocator::new(6, AllocStrategy::FirstFit, dragonfly());
        let err = a
            .allocate_excluding(3, &NodeSet::from_run(1, 4))
            .unwrap_err();
        assert!(matches!(
            err,
            ClusterError::InsufficientNodes {
                requested: 3,
                free: 2
            }
        ));
        assert_eq!(a.free_count(), 6);
        a.check_structure();
    }

    #[test]
    fn busy_node_cannot_be_marked_unavailable() {
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(1).unwrap();
        assert!(!a.mark_unavailable(got.first().unwrap()));
    }

    #[test]
    fn release_respects_unavailability() {
        // A node marked unavailable while busy stays out of the free pool
        // on release (it is draining toward maintenance).
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(2).unwrap();
        let drained = got.first().unwrap();
        a.unavailable.insert(drained); // direct: simulate drain mark
        a.release(&got);
        assert!(!a.is_free(drained));
        assert!(a.is_free(NodeId(1)));
        assert_eq!(a.unavailable_count(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Alloc(u32),
        /// Allocate avoiding the nodes `start..start + len` (layout-aware).
        AllocExcluding(u32, u32, u32),
        Release(usize),
        MarkUnavailable(u32),
        MarkAvailable(u32),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (1u32..20).prop_map(Op::Alloc),
                (1u32..12, 0u32..48, 1u32..16).prop_map(|(n, s, l)| Op::AllocExcluding(
                    n,
                    s,
                    l.min(48 - s)
                )),
                (0usize..8).prop_map(Op::Release),
                (0u32..48).prop_map(Op::MarkUnavailable),
                (0u32..48).prop_map(Op::MarkAvailable),
            ],
            1..60,
        )
    }

    fn arb_strategy() -> impl Strategy<Value = AllocStrategy> {
        prop_oneof![
            Just(AllocStrategy::FirstFit),
            Just(AllocStrategy::Contiguous),
            Just(AllocStrategy::TopologyAware),
        ]
    }

    /// The original `BTreeSet`-per-node allocator, kept verbatim as the
    /// behavioural model the interval implementation must match.
    struct ModelAllocator {
        free: BTreeSet<NodeId>,
        busy: BTreeSet<NodeId>,
        unavailable: BTreeSet<NodeId>,
        strategy: AllocStrategy,
        topology: Topology,
    }

    impl ModelAllocator {
        fn new(total: u32, strategy: AllocStrategy, topology: Topology) -> Self {
            ModelAllocator {
                free: (0..total).map(NodeId).collect(),
                busy: BTreeSet::new(),
                unavailable: BTreeSet::new(),
                strategy,
                topology,
            }
        }

        /// The excluded allocation as the model spells it: hide the free
        /// excluded nodes, allocate, put them back.
        fn allocate_excluding(&mut self, count: u32, excluded: &[NodeId]) -> Option<Vec<NodeId>> {
            let hidden: Vec<NodeId> = excluded
                .iter()
                .copied()
                .filter(|n| self.free.remove(n))
                .collect();
            let got = self.allocate(count);
            self.free.extend(hidden);
            got
        }

        fn allocate(&mut self, count: u32) -> Option<Vec<NodeId>> {
            let count = count as usize;
            if count == 0 || count > self.free.len() {
                return None;
            }
            let mut chosen = match self.strategy {
                AllocStrategy::FirstFit => {
                    self.free.iter().copied().take(count).collect::<Vec<_>>()
                }
                AllocStrategy::Contiguous => self.pick_contiguous(count),
                AllocStrategy::TopologyAware => self.pick_topology_aware(count),
            };
            chosen.sort_unstable();
            for &n in &chosen {
                self.free.remove(&n);
                self.busy.insert(n);
            }
            Some(chosen)
        }

        fn release(&mut self, nodes: &[NodeId]) {
            for &n in nodes {
                let was_busy = self.busy.remove(&n);
                if was_busy && !self.unavailable.contains(&n) {
                    self.free.insert(n);
                }
            }
        }

        fn mark_unavailable(&mut self, node: NodeId) -> bool {
            if self.free.remove(&node) {
                self.unavailable.insert(node);
                true
            } else {
                self.unavailable.contains(&node)
            }
        }

        fn mark_available(&mut self, node: NodeId) -> bool {
            if self.unavailable.remove(&node) {
                self.free.insert(node);
                true
            } else {
                false
            }
        }

        fn pick_contiguous(&self, count: usize) -> Vec<NodeId> {
            let free: Vec<NodeId> = self.free.iter().copied().collect();
            let mut best: Option<(usize, usize)> = None;
            let mut run_start = 0;
            for i in 1..=free.len() {
                let broken = i == free.len() || free[i].0 != free[i - 1].0 + 1;
                if broken {
                    let run_len = i - run_start;
                    if run_len >= count {
                        let better = match best {
                            None => true,
                            Some((_, blen)) => run_len < blen,
                        };
                        if better {
                            best = Some((run_start, run_len));
                        }
                    }
                    run_start = i;
                }
            }
            match best {
                Some((start, _)) => free[start..start + count].to_vec(),
                None => free.into_iter().take(count).collect(),
            }
        }

        fn pick_topology_aware(&self, count: usize) -> Vec<NodeId> {
            let free: Vec<NodeId> = self.free.iter().copied().collect();
            let unit = self.topology.locality_unit();
            let seed = *free
                .iter()
                .max_by_key(|n| {
                    let block = n.0 / unit;
                    free.iter().filter(|m| m.0 / unit == block).count()
                })
                .expect("free set nonempty");
            let mut chosen = vec![seed];
            let mut remaining: Vec<NodeId> = free.iter().copied().filter(|&n| n != seed).collect();
            while chosen.len() < count {
                let (idx, _) = remaining
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &cand)| {
                        chosen
                            .iter()
                            .map(|&c| u64::from(self.topology.distance(cand, c)))
                            .sum::<u64>()
                    })
                    .expect("remaining nonempty while count unmet");
                chosen.push(remaining.swap_remove(idx));
            }
            chosen
        }
    }

    proptest! {
        /// Under any operation sequence: no double-booking, conservation of
        /// nodes, and allocations return exactly the requested count.
        #[test]
        fn no_double_booking(ops in arb_ops(), strategy in arb_strategy()) {
            let topo = Topology::Dragonfly { nodes_per_router: 4, routers_per_group: 4 };
            let mut a = Allocator::new(48, strategy, topo);
            let mut live: Vec<NodeSet> = Vec::new();
            for op in ops {
                let got = match op {
                    Op::Alloc(n) => a.allocate(n).ok().map(|g| (n, g)),
                    Op::AllocExcluding(n, s, l) => {
                        let got = a.allocate_excluding(n, &NodeSet::from_run(s, l)).ok();
                        if let Some(g) = &got {
                            prop_assert!(g.iter().all(|x| x.0 < s || x.0 >= s + l));
                        }
                        got.map(|g| (n, g))
                    }
                    _ => None,
                };
                if let Some((n, got)) = got {
                    prop_assert_eq!(got.len(), n);
                    // No overlap with any live allocation.
                    for other in &live {
                        for node in got.iter() {
                            prop_assert!(!other.contains(node), "double booked {:?}", node);
                        }
                    }
                    live.push(got);
                }
                match op {
                    Op::Alloc(_) | Op::AllocExcluding(..) => {}
                    Op::Release(i) => {
                        if !live.is_empty() {
                            let idx = i % live.len();
                            let nodes = live.swap_remove(idx);
                            a.release(&nodes);
                        }
                    }
                    Op::MarkUnavailable(n) => { a.mark_unavailable(NodeId(n)); }
                    Op::MarkAvailable(n) => { a.mark_available(NodeId(n)); }
                }
                let live_total: usize = live.iter().map(|s| s.len() as usize).sum();
                prop_assert_eq!(a.busy_count(), live_total);
                prop_assert_eq!(a.free_count() + a.busy_count() + a.unavailable_count(), 48);
            }
        }

        /// The interval-run allocator is observationally identical to the
        /// old per-node `BTreeSet` implementation under random
        /// allocate/release/mark_unavailable/mark_available sequences, for
        /// every strategy: same picks, same results, same free/busy/
        /// unavailable partitions after every step.
        #[test]
        fn interval_matches_btreeset_model(ops in arb_ops(), strategy in arb_strategy()) {
            let topo = Topology::Dragonfly { nodes_per_router: 4, routers_per_group: 4 };
            let mut real = Allocator::new(48, strategy, topo.clone());
            let mut model = ModelAllocator::new(48, strategy, topo);
            let mut live: Vec<NodeSet> = Vec::new();
            for op in ops {
                match op {
                    Op::Alloc(n) => {
                        let got_real = real.allocate(n).ok();
                        let got_model = model.allocate(n);
                        prop_assert_eq!(got_real.as_ref().map(NodeSet::to_vec), got_model,
                            "allocate({}) diverged", n);
                        if let Some(nodes) = got_real {
                            live.push(nodes);
                        }
                    }
                    Op::AllocExcluding(n, s, l) => {
                        let excluded = NodeSet::from_run(s, l);
                        let got_real = real.allocate_excluding(n, &excluded).ok();
                        let got_model = model.allocate_excluding(n, &excluded.to_vec());
                        prop_assert_eq!(got_real.as_ref().map(NodeSet::to_vec), got_model,
                            "allocate_excluding({}, {}+{}) diverged", n, s, l);
                        if let Some(nodes) = got_real {
                            live.push(nodes);
                        }
                    }
                    Op::Release(i) => {
                        if !live.is_empty() {
                            let idx = i % live.len();
                            let nodes = live.swap_remove(idx);
                            real.release(&nodes);
                            model.release(&nodes.to_vec());
                        }
                    }
                    Op::MarkUnavailable(n) => {
                        prop_assert_eq!(
                            real.mark_unavailable(NodeId(n)),
                            model.mark_unavailable(NodeId(n))
                        );
                    }
                    Op::MarkAvailable(n) => {
                        prop_assert_eq!(
                            real.mark_available(NodeId(n)),
                            model.mark_available(NodeId(n))
                        );
                    }
                }
                real.check_structure();
                let real_free: Vec<NodeId> = real.free_nodes().collect();
                let model_free: Vec<NodeId> = model.free.iter().copied().collect();
                prop_assert_eq!(real_free, model_free, "free sets diverged");
                let real_busy: Vec<NodeId> = real.busy_nodes().collect();
                let model_busy: Vec<NodeId> = model.busy.iter().copied().collect();
                prop_assert_eq!(real_busy, model_busy, "busy sets diverged");
                prop_assert_eq!(real.unavailable.clone(), model.unavailable.clone());
            }
        }
    }
}
