//! Exact energy metering.
//!
//! Every node's power draw is a step function of time; the meter keeps
//! the running system draw (their sum) and integrates it exactly into a
//! bounded system trace. Per-node state is an ordered run index that
//! partitions the node ids into runs of consecutive nodes sharing a
//! draw, so updates cost O(runs touched), not O(nodes). The core
//! invariant — metered energy equals the analytic integral of the
//! recorded power steps — is property-tested here and is the foundation
//! of every energy number the framework reports (Q7 results, post-job
//! user energy reports, E1–E10).
//!
//! Job energy comes from *allocation groups*. [`EnergyMeter::open_group`]
//! takes a job's [`NodeSet`] and turns each of the set's spans into a
//! run owned by the group, which then carries one shared `(watts, since,
//! energy-per-node)` record for all of them. A phase change
//! ([`EnergyMeter::set_group_watts`]) is O(1) however wide the job is, and
//! [`EnergyMeter::close_group`] returns the job's energy directly and
//! hands the spans back to the index at the post-job draw.
//!
//! System energy, peak, average and the exported power trace come from a
//! [`BoundedSeries`] on a fixed sample grid: its memory is
//! O(horizon / grid interval) however many power steps the run makes,
//! and it answers only the whole run `[0, end]`, the one window the
//! engine asks about.
//!
//! Bit-exactness: the running system draw is the same floating-point
//! value a per-node meter computes. Its ordered chains — each update's
//! `delta += watts - prev` over the nodes in order, and the periodic
//! resync `Iterator::sum` over every node — are evaluated run by run with
//! [`repeat_add`], which returns the bits of `k` identical sequential adds
//! in O(binades) instead of O(k). Those bits do not depend on where the
//! runs split, so neighbouring runs with the same draw merge.

use epa_cluster::node::NodeId;
use epa_cluster::NodeSet;
use epa_simcore::fsum::repeat_add;
use epa_simcore::series::BoundedSeries;
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};

/// How many incremental updates may accumulate before `system_watts` is
/// recomputed from the per-node values. Long runs make millions of
/// `+= new - old` updates whose float cancellation slowly drifts the
/// running sum; a periodic resync (O(runs) via [`repeat_add`]) bounds
/// that drift without measurable cost.
const RESYNC_INTERVAL: u32 = 4096;

/// Sentinel for "this run is not in any allocation group".
const NO_GROUP: u32 = u32::MAX;

/// One run of the node index: `len` consecutive nodes starting at the
/// slot holding this record. An ungrouped run's nodes each draw `watts`;
/// a grouped run (`group != NO_GROUP`) belongs to an open allocation
/// group, which carries its live draw (`watts` is then unused).
#[derive(Debug, Clone, Copy)]
struct Run {
    len: u32,
    group: u32,
    watts: f64,
}

impl Run {
    fn ungrouped(len: u32, watts: f64) -> Self {
        Run {
            len,
            group: NO_GROUP,
            watts,
        }
    }

    /// Two neighbouring ungrouped runs with the same draw are one run.
    fn merges_with(&self, other: &Run) -> bool {
        self.group == NO_GROUP
            && other.group == NO_GROUP
            && self.watts.to_bits() == other.watts.to_bits()
    }
}
/// Run heads as a two-level bitset: bit `i` of `words` marks a head at
/// node `i`, and bit `w` of `summary` marks a nonzero `words[w]`, so the
/// nearest head at or before a node costs two word scans plus at most one
/// summary word per 4,096 nodes between them.
#[derive(Debug, Clone, Default)]
struct HeadSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl HeadSet {
    /// Makes room for node ids `0..n`.
    fn grow(&mut self, n: usize) {
        self.words.resize(n.div_ceil(64), 0);
        self.summary.resize(n.div_ceil(64 * 64), 0);
    }

    fn contains(&self, i: u32) -> bool {
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    fn insert(&mut self, i: u32) {
        let w = (i / 64) as usize;
        self.words[w] |= 1 << (i % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    fn remove(&mut self, i: u32) {
        let w = (i / 64) as usize;
        self.words[w] &= !(1 << (i % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    /// The largest member at or before `i`, which must exist.
    fn last_at_or_before(&self, i: u32) -> u32 {
        let w = (i / 64) as usize;
        let bits = self.words[w] & (u64::MAX >> (63 - i % 64));
        if bits != 0 {
            return w as u32 * 64 + 63 - bits.leading_zeros();
        }
        // The nearest nonzero word strictly before `w`.
        let mut s = w / 64;
        let mut sbits = self.summary[s] & ((1u64 << (w % 64)) - 1);
        while sbits == 0 {
            s -= 1;
            sbits = self.summary[s];
        }
        let w = s * 64 + 63 - sbits.leading_zeros() as usize;
        w as u32 * 64 + 63 - self.words[w].leading_zeros()
    }
}

/// Handle to an open allocation group (a running job's node set drawing
/// one uniform wattage). Returned by [`EnergyMeter::open_group`] and
/// consumed by [`EnergyMeter::close_group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupId(u32);

impl GroupId {
    /// The raw slot index, for snapshot encoding.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a snapshot-encoded raw slot index. Only
    /// valid for indices previously obtained from [`GroupId::raw`] against
    /// the same (restored) meter.
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        GroupId(raw)
    }
}

/// Shared metering state for one allocation drawing a uniform per-node
/// wattage: a job's whole node set steps power together at every phase
/// change, so one `(watts, since, acc)` triple serves the entire group
/// and a phase change is O(1) instead of O(allocation size).
#[derive(Debug, Clone, Copy)]
struct AllocGroup {
    /// Current uniform per-node draw.
    watts: f64,
    /// When that draw started.
    since: SimTime,
    /// Energy accrued *per member node* since the group opened, through
    /// `since` (identical for every member — the draw is uniform).
    acc_per_node: f64,
    /// Member count (for the system-draw delta and resync).
    members: u32,
    in_use: bool,
}

/// System-wide energy meter over dense node ids.
///
/// The run index is a `Vec` indexed by [`NodeId`]: a run's record sits at
/// its first node's slot and a two-level bitset marks those heads. Its
/// length is the meter's node extent, grown on first write.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    /// Run records, meaningful at run heads only. The runs partition
    /// `0..runs.len()`, so the run after head `h` starts at
    /// `h + runs[h].len`.
    runs: Vec<Run>,
    /// Run heads over `0..runs.len()`.
    heads: HeadSet,
    /// Allocation groups, indexed by `GroupId`; closed slots are recycled
    /// through `free_groups` so long runs do not grow this vector.
    groups: Vec<AllocGroup>,
    free_groups: Vec<u32>,
    system_watts: f64,
    system_trace: BoundedSeries,
    updates_since_resync: u32,
}

impl EnergyMeter {
    /// Creates an empty meter whose system trace samples on a `grid_dt`
    /// grid anchored at t = 0 (see [`power_trace_rows`](Self::power_trace_rows)).
    ///
    /// # Panics
    /// Panics if `grid_dt` is zero.
    #[must_use]
    pub fn new(grid_dt: SimDuration) -> Self {
        EnergyMeter {
            runs: Vec::new(),
            heads: HeadSet::default(),
            groups: Vec::new(),
            free_groups: Vec::new(),
            system_watts: 0.0,
            system_trace: BoundedSeries::new(grid_dt),
            updates_since_resync: 0,
        }
    }

    // ---- run index ----------------------------------------------------

    fn extent(&self) -> u32 {
        self.runs.len() as u32
    }

    /// Start of the run holding node `i` (`i` below the extent; node 0
    /// is always a head).
    fn head_of(&self, i: u32) -> u32 {
        self.heads.last_at_or_before(i)
    }

    /// Runs in id order as `(head, run)`.
    fn run_iter(&self) -> impl Iterator<Item = (u32, Run)> + '_ {
        let mut h = 0;
        std::iter::from_fn(move || {
            (h < self.extent()).then(|| {
                let run = self.runs[h as usize];
                let at = h;
                h += run.len;
                (at, run)
            })
        })
    }

    /// Grows the extent to `end`. The new nodes form one run at the
    /// per-node default of 0 W.
    fn ensure(&mut self, end: u32) {
        let old = self.extent();
        if end <= old {
            return;
        }
        self.runs
            .resize(end as usize, Run::ungrouped(end - old, 0.0));
        self.heads.grow(end as usize);
        self.heads.insert(old);
        self.coalesce_left(old);
    }

    /// Makes `i` a run head by splitting the run holding it (no-op at a
    /// head or at the extent).
    fn split_at(&mut self, i: u32) {
        if i >= self.extent() || self.heads.contains(i) {
            return;
        }
        let h = self.head_of(i);
        let run = self.runs[h as usize];
        self.runs[h as usize].len = i - h;
        self.runs[i as usize] = Run {
            len: h + run.len - i,
            ..run
        };
        self.heads.insert(i);
    }

    /// Merges the run at head `h` into its left neighbour when they are
    /// the same draw; returns the surviving head.
    fn coalesce_left(&mut self, h: u32) -> u32 {
        if h == 0 {
            return h;
        }
        let p = self.head_of(h - 1);
        if self.runs[p as usize].merges_with(&self.runs[h as usize]) {
            self.runs[p as usize].len += self.runs[h as usize].len;
            self.heads.remove(h);
            p
        } else {
            h
        }
    }

    /// Merges the run at head `h` with either neighbour where possible.
    fn coalesce(&mut self, h: u32) {
        let h = self.coalesce_left(h);
        let next = h + self.runs[h as usize].len;
        if next < self.extent() && self.runs[h as usize].merges_with(&self.runs[next as usize]) {
            self.runs[h as usize].len += self.runs[next as usize].len;
            self.heads.remove(next);
        }
    }

    /// Prepares `start..start + len` (all ungrouped) for a new draw
    /// `watts`, leaving it as one run headed at `start` whose record the
    /// caller writes. Per run of the old index, extends the ordered
    /// `delta` chain by `watts - prev` once per node.
    fn fold_span(&mut self, start: u32, len: u32, watts: f64, delta: &mut f64) {
        debug_assert!(watts >= 0.0, "negative power draw");
        let end = start + len;
        self.ensure(end);
        self.split_at(start);
        self.split_at(end);
        let mut h = start;
        while h < end {
            let run = self.runs[h as usize];
            debug_assert!(
                run.group == NO_GROUP,
                "grouped node updated individually; close its group first \
                 (node {h}, group {})",
                run.group
            );
            *delta = repeat_add(*delta, watts - run.watts, u64::from(run.len));
            if h != start {
                self.heads.remove(h);
            }
            h += run.len;
        }
    }

    /// Sets every node of `start..start + len` to draw `watts`.
    fn set_span(&mut self, start: u32, len: u32, watts: f64, delta: &mut f64) {
        self.fold_span(start, len, watts, delta);
        self.runs[start as usize] = Run::ungrouped(len, watts);
        self.coalesce(start);
    }

    /// Folds a system-draw delta into the running sum, resyncing from the
    /// per-node values periodically to cancel accumulated float drift,
    /// and records the new system draw at `t`.
    fn commit_delta(&mut self, t: SimTime, delta: f64, batch: u32) {
        self.system_watts += delta;
        self.updates_since_resync += batch;
        if self.updates_since_resync >= RESYNC_INTERVAL {
            self.updates_since_resync = 0;
            // The per-node `Iterator::sum` in node order, seeded as
            // `sum` seeds it, evaluated one run at a time. Grouped runs
            // carry their live draw in the group record and are skipped.
            let mut nodes = std::iter::empty::<f64>().sum::<f64>();
            for (_, run) in self.run_iter() {
                if run.group == NO_GROUP {
                    nodes = repeat_add(nodes, run.watts, u64::from(run.len));
                }
            }
            self.system_watts = nodes
                + self
                    .groups
                    .iter()
                    .filter(|g| g.in_use)
                    .map(|g| g.watts * f64::from(g.members))
                    .sum::<f64>();
        }
        // Guard tiny negative residue from float cancellation.
        if self.system_watts < 0.0 && self.system_watts > -1e-6 {
            self.system_watts = 0.0;
        }
        self.system_trace.push(t, self.system_watts);
    }

    /// Records that `node` draws `watts` from time `t` onward.
    pub fn set_node_watts(&mut self, node: NodeId, t: SimTime, watts: f64) {
        // -0.0 is the additive identity, so `delta` is exactly the node's
        // `watts - prev`.
        let mut delta = -0.0;
        self.set_span(node.0, 1, watts, &mut delta);
        self.commit_delta(t, delta, 1);
    }

    /// Records that every node in `nodes` draws `watts` from time `t`
    /// onward — one allocation-wide power step (job start, phase change,
    /// batch idle/off transition).
    ///
    /// Equivalent to calling [`set_node_watts`](Self::set_node_watts) per
    /// node (equal-time pushes to the system trace collapse to its final
    /// value), but folds the whole batch into one system-trace update.
    /// Runs of consecutive ascending ids are updated as spans.
    pub fn set_alloc_watts(&mut self, nodes: &[NodeId], t: SimTime, watts: f64) {
        if nodes.is_empty() {
            return;
        }
        let mut delta = 0.0;
        for span in nodes.chunk_by(|a, b| b.0 == a.0 + 1) {
            self.set_span(span[0].0, span.len() as u32, watts, &mut delta);
        }
        self.commit_delta(t, delta, nodes.len() as u32);
    }

    /// Opens an allocation group: every node in `nodes` draws `watts`
    /// from `t` onward, and subsequent uniform power steps over the same
    /// set cost O(1) via [`EnergyMeter::set_group_watts`] instead of a
    /// walk over the allocation. Bit-exact with the per-node batch update
    /// it replaces. O(spans) run-index work.
    ///
    /// # Panics
    /// Panics if `nodes` is empty.
    pub fn open_group(&mut self, nodes: &NodeSet, t: SimTime, watts: f64) -> GroupId {
        assert!(!nodes.is_empty(), "cannot open an empty group");
        let gid = self.free_groups.pop().unwrap_or_else(|| {
            self.groups.push(AllocGroup {
                watts: 0.0,
                since: SimTime::ZERO,
                acc_per_node: 0.0,
                members: 0,
                in_use: false,
            });
            (self.groups.len() - 1) as u32
        });
        let mut delta = 0.0;
        for &(start, len) in nodes.runs() {
            self.fold_span(start, len, watts, &mut delta);
            self.runs[start as usize] = Run {
                len,
                group: gid,
                watts,
            };
        }
        self.groups[gid as usize] = AllocGroup {
            watts,
            since: t,
            acc_per_node: 0.0,
            members: nodes.len(),
            in_use: true,
        };
        self.commit_delta(t, delta, nodes.len());
        GroupId(gid)
    }

    /// Steps an open group's uniform per-node draw to `watts` at `t`.
    /// O(1) — this is what makes per-phase power fluctuation affordable
    /// on allocations spanning thousands of nodes.
    pub fn set_group_watts(&mut self, gid: GroupId, t: SimTime, watts: f64) {
        debug_assert!(watts >= 0.0, "negative power draw");
        let g = &mut self.groups[gid.0 as usize];
        debug_assert!(g.in_use, "group already closed");
        debug_assert!(t >= g.since, "meter updates must be time-monotone");
        g.acc_per_node += g.watts * t.saturating_since(g.since).as_secs();
        let delta = (watts - g.watts) * f64::from(g.members);
        g.since = t;
        g.watts = watts;
        self.commit_delta(t, delta, 1);
    }

    /// Closes a group at `t`: sets every member's individual draw to
    /// `next_watts` (the post-job draw, typically idle) and returns the
    /// total energy the group consumed over its lifetime. `nodes` must be
    /// the exact member set the group was opened with.
    pub fn close_group(
        &mut self,
        gid: GroupId,
        nodes: &NodeSet,
        t: SimTime,
        next_watts: f64,
    ) -> f64 {
        let g = &mut self.groups[gid.0 as usize];
        debug_assert!(g.in_use, "group already closed");
        debug_assert_eq!(g.members, nodes.len(), "member set mismatch");
        debug_assert!(t >= g.since, "meter updates must be time-monotone");
        g.acc_per_node += g.watts * t.saturating_since(g.since).as_secs();
        let energy = g.acc_per_node * f64::from(g.members);
        let group_watts = g.watts;
        let members = g.members;
        g.in_use = false;
        for &(start, len) in nodes.runs() {
            debug_assert!(
                self.heads.contains(start)
                    && self.runs[start as usize].group == gid.0
                    && self.runs[start as usize].len == len,
                "span {start}+{len} is not a run of group {}",
                gid.0
            );
            self.runs[start as usize] = Run::ungrouped(len, next_watts);
            self.coalesce(start);
        }
        // Every member steps by the same `next_watts - group_watts`.
        let delta = repeat_add(0.0, next_watts - group_watts, u64::from(members));
        self.free_groups.push(gid.0);
        self.commit_delta(t, delta, members);
        energy
    }

    /// Encodes the full metering state — the node extent, the run index
    /// as `(start, len, group, watts)` spans, open and recycled groups,
    /// the running system sum, the system trace, and the resync counter —
    /// bit-exactly, so a restored meter produces the same floating-point
    /// results as one that was never snapshotted.
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        w.u32(self.extent());
        let runs: Vec<(u32, Run)> = self.run_iter().collect();
        w.seq(&runs, |w, &(start, run)| {
            w.u32(start);
            w.u32(run.len);
            w.u32(run.group);
            w.f64(run.watts);
        });
        w.seq(&self.groups, |w, g| {
            w.f64(g.watts);
            w.f64(g.since.as_secs());
            w.f64(g.acc_per_node);
            w.u32(g.members);
            w.bool(g.in_use);
        });
        w.seq(&self.free_groups, |w, &g| w.u32(g));
        w.f64(self.system_watts);
        self.system_trace.snapshot_into(w);
        w.u32(self.updates_since_resync);
    }

    /// Decodes a meter written by [`EnergyMeter::snapshot_into`] whose
    /// system trace samples on a `grid_dt` grid. The extent must not
    /// exceed `max_nodes`, the run index must tile it exactly, every
    /// grouped run must name an open group whose member count its runs
    /// add up to, and recycled slots must be closed groups — anything
    /// else is [`SnapshotError::Corrupt`].
    ///
    /// # Panics
    /// Panics if `grid_dt` is zero.
    pub fn restore_from(
        r: &mut SnapReader<'_>,
        grid_dt: SimDuration,
        max_nodes: u32,
    ) -> Result<Self, SnapshotError> {
        let corrupt = |detail: String| SnapshotError::Corrupt { detail };
        let extent = r.u32()?;
        if extent > max_nodes {
            return Err(corrupt(format!(
                "meter covers {extent} nodes, the machine has {max_nodes}"
            )));
        }
        let runs = r.seq(|r| {
            Ok((
                r.u32()?,
                Run {
                    len: r.u32()?,
                    group: r.u32()?,
                    watts: r.f64()?,
                },
            ))
        })?;
        let mut m = EnergyMeter::new(grid_dt);
        m.groups = r.seq(|r| {
            Ok(AllocGroup {
                watts: r.f64()?,
                since: r.time()?,
                acc_per_node: r.f64()?,
                members: r.u32()?,
                in_use: r.bool()?,
            })
        })?;
        m.free_groups = r.seq(SnapReader::u32)?;
        m.system_watts = r.f64()?;
        m.system_trace = BoundedSeries::restore_from(r, grid_dt)?;
        m.updates_since_resync = r.u32()?;
        m.runs = vec![Run::ungrouped(0, 0.0); extent as usize];
        m.heads.grow(extent as usize);
        let mut grouped = vec![0u64; m.groups.len()];
        let mut next = 0u32;
        for (start, run) in runs {
            let end = start.checked_add(run.len).filter(|&e| e <= extent);
            if start != next || run.len == 0 || end.is_none() {
                return Err(corrupt(format!(
                    "run ({start},{}) does not continue the index at {next} of {extent}",
                    run.len
                )));
            }
            if run.group != NO_GROUP {
                match m.groups.get(run.group as usize) {
                    Some(g) if g.in_use => grouped[run.group as usize] += u64::from(run.len),
                    _ => {
                        return Err(corrupt(format!(
                            "run at {start} names group {} that is not open",
                            run.group
                        )))
                    }
                }
            }
            m.runs[start as usize] = run;
            m.heads.insert(start);
            next = start + run.len;
        }
        if next != extent {
            return Err(corrupt(format!("runs cover {next} of {extent} nodes")));
        }
        for (i, g) in m.groups.iter().enumerate() {
            if g.in_use && grouped[i] != u64::from(g.members) {
                return Err(corrupt(format!(
                    "group {i} has {} members but its runs hold {}",
                    g.members, grouped[i]
                )));
            }
        }
        if let Some(&g) = m
            .free_groups
            .iter()
            .find(|&&g| m.groups.get(g as usize).is_none_or(|g| g.in_use))
        {
            return Err(corrupt(format!("recycled group slot {g} is not closed")));
        }
        Ok(m)
    }

    /// Checks a restored meter against the running jobs, given as each
    /// job's `(group, node set)`: every open group must belong to exactly
    /// one job, and its runs must be exactly that job's spans. Anything
    /// else is [`SnapshotError::Corrupt`] — closing a group that is not
    /// open, or that another job holds, would panic or meter the wrong
    /// nodes.
    pub fn check_groups<'a>(
        &self,
        owners: impl IntoIterator<Item = (GroupId, &'a NodeSet)>,
    ) -> Result<(), SnapshotError> {
        let corrupt = |detail: String| Err(SnapshotError::Corrupt { detail });
        let mut owned = vec![false; self.groups.len()];
        for (gid, nodes) in owners {
            let g = gid.0 as usize;
            if !self.groups.get(g).is_some_and(|g| g.in_use)
                || std::mem::replace(&mut owned[g], true)
            {
                return corrupt(format!("group {g} is not open or has two owners"));
            }
            let is_run = |&(start, len): &(u32, u32)| {
                start < self.extent()
                    && self.heads.contains(start)
                    && self.runs[start as usize].group == gid.0
                    && self.runs[start as usize].len == len
            };
            if self.groups[g].members != nodes.len() || !nodes.runs().iter().all(is_run) {
                return corrupt(format!("group {g}'s runs are not its owner's node spans"));
            }
        }
        match (0..owned.len()).find(|&g| self.groups[g].in_use && !owned[g]) {
            Some(g) => corrupt(format!("open group {g} has no owner")),
            None => Ok(()),
        }
    }

    /// Current draw of one node in watts (0 if never recorded). Grouped
    /// nodes report their group's live draw. The per-node reference
    /// proptests check it after every operation.
    #[cfg(test)]
    fn node_watts(&self, node: NodeId) -> f64 {
        if node.0 >= self.extent() {
            return 0.0;
        }
        let run = &self.runs[self.head_of(node.0) as usize];
        if run.group == NO_GROUP {
            run.watts
        } else {
            self.groups[run.group as usize].watts
        }
    }

    /// Current system draw in watts.
    #[must_use]
    pub fn system_watts(&self) -> f64 {
        self.system_watts
    }

    /// System energy over `[0, end]`, joules. `end` must be at or after
    /// the last power step.
    #[must_use]
    pub fn system_energy_joules(&self, end: SimTime) -> f64 {
        self.system_trace.integrate_from_start(end)
    }

    /// The system power trace sampled every grid interval over
    /// `[0, end]` — the rows the engine exports in its outcome. `end` must
    /// be at or after the last power step.
    #[must_use]
    pub fn power_trace_rows(&self, end: SimTime) -> Vec<(SimTime, f64)> {
        self.system_trace.sample_grid(end)
    }

    /// Peak system draw on `[0, end]`, watts (0 before any power step).
    /// `end` must be at or after the last power step.
    #[must_use]
    pub fn peak_system_watts(&self, end: SimTime) -> f64 {
        self.system_trace.max_value(end).unwrap_or(0.0)
    }

    /// Average system draw on `[0, end]`, watts, counting from the first
    /// power step. `end` must be at or after the last power step.
    #[must_use]
    pub fn avg_system_watts(&self, end: SimTime) -> f64 {
        self.system_trace.mean_from_start(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_simcore::series::TimeSeries;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().map(NodeId).collect()
    }

    fn meter() -> EnergyMeter {
        EnergyMeter::new(SimDuration::from_mins(5.0))
    }

    #[test]
    fn single_node_energy() {
        let mut m = meter();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(0), t(10.0), 200.0);
        // [0,10) at 100 + [10,20) at 200.
        assert!((m.system_energy_joules(t(20.0)) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn system_tracks_sum_of_nodes() {
        let mut m = meter();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(1), t(0.0), 50.0);
        assert_eq!(m.system_watts(), 150.0);
        m.set_node_watts(n(0), t(5.0), 20.0);
        assert_eq!(m.system_watts(), 70.0);
        // System energy: [0,5) at 150 + [5,10) at 70.
        assert!((m.system_energy_joules(t(10.0)) - (750.0 + 350.0)).abs() < 1e-9);
    }

    #[test]
    fn peak_and_average() {
        let mut m = meter();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(0), t(10.0), 300.0);
        m.set_node_watts(n(0), t(20.0), 100.0);
        assert_eq!(m.peak_system_watts(t(30.0)), 300.0);
        let avg = m.avg_system_watts(t(30.0));
        assert!((avg - (100.0 * 10.0 + 300.0 * 10.0 + 100.0 * 10.0) / 30.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_node_reads_zero() {
        let m = meter();
        assert_eq!(m.node_watts(n(9)), 0.0);
    }

    #[test]
    fn batched_update_equals_sequential() {
        let nodes = [n(0), n(1), n(2), n(3)];
        let mut batched = meter();
        let mut sequential = meter();
        batched.set_alloc_watts(&nodes, t(0.0), 100.0);
        batched.set_alloc_watts(&nodes[..2], t(10.0), 250.0);
        for &nd in &nodes {
            sequential.set_node_watts(nd, t(0.0), 100.0);
        }
        for &nd in &nodes[..2] {
            sequential.set_node_watts(nd, t(10.0), 250.0);
        }
        assert_eq!(batched.system_watts(), sequential.system_watts());
        let b = t(20.0);
        assert!(
            (batched.system_energy_joules(b) - sequential.system_energy_joules(b)).abs() < 1e-9
        );
        for &nd in &nodes {
            assert_eq!(batched.node_watts(nd), sequential.node_watts(nd));
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut m = meter();
        m.set_alloc_watts(&[], t(0.0), 100.0);
        assert_eq!(m.system_watts(), 0.0);
        assert!(m.system_trace.is_empty());
    }

    #[test]
    fn group_lifecycle_matches_ungrouped_sequence() {
        let nodes = [n(0), n(1), n(2)];
        let members = set(&[0, 1, 2]);
        let mut grouped = meter();
        let mut plain = meter();
        for m in [&mut grouped, &mut plain] {
            m.set_alloc_watts(&nodes, t(0.0), 50.0); // idle history
        }

        // Grouped job: open at 100 W, phase to 300 W, phase to 80 W, close.
        let gid = grouped.open_group(&members, t(10.0), 100.0);
        grouped.set_group_watts(gid, t(20.0), 300.0);
        grouped.set_group_watts(gid, t(30.0), 80.0);
        let energy_g = grouped.close_group(gid, &members, t(40.0), 50.0);

        // Same schedule through the ungrouped API; the meter holds only
        // the job's nodes, so the job energy is a system-energy window.
        plain.set_alloc_watts(&nodes, t(10.0), 100.0);
        let mark_p = plain.system_energy_joules(t(10.0));
        plain.set_alloc_watts(&nodes, t(20.0), 300.0);
        plain.set_alloc_watts(&nodes, t(30.0), 80.0);
        let energy_p = plain.system_energy_joules(t(40.0)) - mark_p;
        plain.set_alloc_watts(&nodes, t(40.0), 50.0);

        // Per-node: (100*10 + 300*10 + 80*10) * 3 nodes = 14400.
        assert!((energy_g - 14400.0).abs() < 1e-9);
        assert!((energy_g - energy_p).abs() < 1e-9);
        assert!((grouped.system_watts() - plain.system_watts()).abs() < 1e-9);
        for &nd in &nodes {
            assert_eq!(grouped.node_watts(nd), plain.node_watts(nd));
        }
        let (sg, sp) = (
            grouped.system_energy_joules(t(50.0)),
            plain.system_energy_joules(t(50.0)),
        );
        assert!((sg - sp).abs() < 1e-9, "{sg} vs {sp}");
    }

    #[test]
    fn grouped_nodes_answer_live_queries() {
        let nodes = [n(0), n(1)];
        let mut m = meter();
        m.set_alloc_watts(&nodes, t(0.0), 10.0);
        let gid = m.open_group(&set(&[0, 1]), t(5.0), 200.0);
        assert_eq!(m.node_watts(n(0)), 200.0);
        assert!((m.system_watts() - 400.0).abs() < 1e-9);
        m.set_group_watts(gid, t(10.0), 400.0);
        assert_eq!(m.node_watts(n(1)), 400.0);
        assert!((m.system_watts() - 800.0).abs() < 1e-9);
        // 20 W for 5 s, 400 W for 5 s, 800 W for 2 s.
        assert!((m.system_energy_joules(t(12.0)) - (100.0 + 2000.0 + 1600.0)).abs() < 1e-9);
    }

    #[test]
    fn group_slots_are_recycled() {
        let mut m = meter();
        let g1 = m.open_group(&set(&[0]), t(0.0), 100.0);
        m.close_group(g1, &set(&[0]), t(1.0), 0.0);
        let g2 = m.open_group(&set(&[1, 2]), t(2.0), 50.0);
        assert_eq!(g1, g2, "closed slot must be reused");
        assert_eq!(m.groups.len(), 1);
        let e = m.close_group(g2, &set(&[1, 2]), t(4.0), 0.0);
        assert!((e - 200.0).abs() < 1e-9);
    }

    #[test]
    fn group_check_wants_each_open_group_owned_once_over_its_spans() {
        let mut m = meter();
        m.set_alloc_watts(&(0..8).map(n).collect::<Vec<_>>(), t(0.0), 10.0);
        let (a, b) = (set(&[0, 1, 4]), set(&[2, 3]));
        let ga = m.open_group(&a, t(0.0), 100.0);
        let gb = m.open_group(&b, t(0.0), 100.0);
        let closed = m.open_group(&set(&[6]), t(0.0), 100.0);
        m.close_group(closed, &set(&[6]), t(1.0), 10.0);
        m.check_groups([(ga, &a), (gb, &b)])
            .expect("one owner each");
        let other = set(&[0, 1, 5]);
        let cases = [
            ("unowned open group", vec![(ga, &a)]),
            ("two owners", vec![(ga, &a), (gb, &b), (gb, &b)]),
            ("closed group", vec![(ga, &a), (gb, &b), (closed, &b)]),
            ("unknown group", vec![(ga, &a), (gb, &b), (GroupId(9), &b)]),
            ("spans of another set", vec![(ga, &other), (gb, &b)]),
            ("swapped owners", vec![(ga, &b), (gb, &a)]),
        ];
        for (name, owners) in cases {
            let err = m.check_groups(owners).err();
            assert!(
                matches!(err, Some(SnapshotError::Corrupt { .. })),
                "{name}: {err:?}"
            );
        }
    }

    #[test]
    fn resync_counts_open_groups_once() {
        let mut m = meter();
        let gid = m.open_group(&set(&[0, 1, 2, 3]), t(0.0), 100.0);
        m.set_node_watts(n(4), t(0.0), 7.0);
        // Force many resyncs while the group is open; the grouped slots'
        // stale wattage must not leak into the system sum.
        for i in 0..2 * RESYNC_INTERVAL {
            m.set_node_watts(n(4), t(f64::from(i) + 1.0), 7.0);
        }
        assert!((m.system_watts() - 407.0).abs() < 1e-9);
        m.set_group_watts(gid, t(9000.0), 25.0);
        for i in 0..RESYNC_INTERVAL {
            m.set_node_watts(n(4), t(9001.0 + f64::from(i)), 7.0);
        }
        assert!((m.system_watts() - 107.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "grouped node updated individually")]
    #[cfg(debug_assertions)]
    fn individual_update_of_grouped_node_panics() {
        let mut m = meter();
        let _gid = m.open_group(&set(&[0]), t(0.0), 100.0);
        m.set_node_watts(n(0), t(1.0), 50.0);
    }

    #[test]
    fn whole_run_queries_match_a_full_time_series() {
        // The meter records its system draw after every operation; a full
        // change-point series fed the same pushes is the reference.
        let dt = SimDuration::from_mins(5.0);
        let mut m = EnergyMeter::new(dt);
        let mut full = TimeSeries::new();
        let sync = |full: &mut TimeSeries, m: &EnergyMeter, at: f64| {
            full.push(t(at), m.system_watts());
        };
        m.set_alloc_watts(&[n(0), n(1)], t(0.0), 50.0);
        sync(&mut full, &m, 0.0);
        let gid = m.open_group(&set(&[0, 1]), t(100.0), 200.0);
        sync(&mut full, &m, 100.0);
        m.set_group_watts(gid, t(400.0), 350.0);
        sync(&mut full, &m, 400.0);
        m.set_node_watts(n(2), t(400.0), 9.0);
        sync(&mut full, &m, 400.0);
        m.close_group(gid, &set(&[0, 1]), t(900.0), 50.0);
        sync(&mut full, &m, 900.0);
        m.set_node_watts(n(0), t(1200.0), 0.0);
        sync(&mut full, &m, 1200.0);
        m.set_node_watts(n(0), t(1500.0), 0.0);
        sync(&mut full, &m, 1500.0);
        let end = t(1800.0);
        let a = SimTime::ZERO;
        assert_eq!(
            full.integrate(a, end).to_bits(),
            m.system_energy_joules(end).to_bits()
        );
        assert_eq!(
            full.max_on(a, end).unwrap().to_bits(),
            m.peak_system_watts(end).to_bits()
        );
        assert_eq!(
            full.time_weighted_mean(a, end).to_bits(),
            m.avg_system_watts(end).to_bits()
        );
        let (fr, mr) = (full.resample(a, end, dt), m.power_trace_rows(end));
        assert_eq!(fr.len(), mr.len());
        for ((ft, fv), (mt, mv)) in fr.iter().zip(&mr) {
            assert_eq!(ft, mt);
            assert_eq!(fv.to_bits(), mv.to_bits());
        }
    }

    #[test]
    fn bounded_trace_snapshot_roundtrip() {
        let dt = SimDuration::from_mins(5.0);
        let mut m = EnergyMeter::new(dt);
        m.set_node_watts(n(0), t(0.0), 100.0);
        let gid = m.open_group(&set(&[2, 3, 5]), t(300.0), 250.0);
        m.set_node_watts(n(0), t(700.0), 40.0);
        let mut w = SnapWriter::new();
        m.snapshot_into(&mut w);
        let bytes = w.finish(1);
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        let mut restored = EnergyMeter::restore_from(&mut r, dt, 6).unwrap();
        r.finish().unwrap();
        let mut again = SnapWriter::new();
        restored.snapshot_into(&mut again);
        assert_eq!(again.finish(1), bytes, "re-encoding is byte-identical");
        let e = m.close_group(gid, &set(&[2, 3, 5]), t(1000.0), 10.0);
        let re = restored.close_group(gid, &set(&[2, 3, 5]), t(1000.0), 10.0);
        assert_eq!(e.to_bits(), re.to_bits());
        let end = t(2000.0);
        assert_eq!(
            m.system_energy_joules(end).to_bits(),
            restored.system_energy_joules(end).to_bits()
        );
        assert_eq!(m.power_trace_rows(end), restored.power_trace_rows(end));
        // The same frame on a smaller machine is refused, not allocated.
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        assert!(matches!(
            EnergyMeter::restore_from(&mut r, dt, 5),
            Err(SnapshotError::Corrupt { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(SimDuration::from_mins(5.0))
    }

    proptest! {
        /// Energy conservation: the system energy over the full horizon
        /// equals the sum over nodes of each node's analytic step-function
        /// integral, for arbitrary time-monotone update sequences.
        #[test]
        fn system_energy_equals_node_sum(
            updates in proptest::collection::vec(
                (0u32..6, 0.1f64..50.0, 0.0f64..400.0), 1..80),
        ) {
            let mut m = meter();
            let mut clock = 0.0;
            let mut steps: Vec<(u32, f64, f64)> = Vec::new(); // (node, t, w)
            for (node, dt, w) in &updates {
                m.set_node_watts(NodeId(*node), SimTime::from_secs(clock), *w);
                steps.push((*node, clock, *w));
                clock += dt;
            }
            let end = clock + 10.0;
            let sys = m.system_energy_joules(SimTime::from_secs(end));
            let mut node_sum = 0.0;
            for node in 0..6u32 {
                // Analytic: sum over this node's steps of w * (next_t - t).
                let mine: Vec<(f64, f64)> = steps.iter()
                    .filter(|(n, _, _)| *n == node)
                    .map(|&(_, t, w)| (t, w))
                    .collect();
                for (i, &(t, w)) in mine.iter().enumerate() {
                    let next = mine.get(i + 1).map_or(end, |&(nt, _)| nt);
                    node_sum += w * (next - t);
                }
            }
            prop_assert!((sys - node_sum).abs() < 1e-6 * (1.0 + sys.abs()),
                "system {} != node sum {}", sys, node_sum);
        }

        /// The incrementally-maintained system wattage equals the sum of
        /// the latest per-node values.
        #[test]
        fn incremental_sum_correct(
            updates in proptest::collection::vec((0u32..8, 0.0f64..500.0), 1..100),
        ) {
            let mut m = meter();
            let mut latest = [0.0f64; 8];
            for (i, (node, w)) in updates.iter().enumerate() {
                m.set_node_watts(NodeId(*node), SimTime::from_secs(i as f64), *w);
                latest[*node as usize] = *w;
            }
            let expect: f64 = latest.iter().sum();
            prop_assert!((m.system_watts() - expect).abs() < 1e-6);
        }

        /// Long-horizon drift: after 10k updates the running system sum
        /// must still match the per-node values exactly (the periodic
        /// resync crosses RESYNC_INTERVAL twice in this sequence, so this
        /// exercises the resync path, not just incremental accumulation).
        #[test]
        fn incremental_sum_correct_long_horizon(
            seed_updates in proptest::collection::vec((0u32..16, 0.0f64..500.0), 32),
        ) {
            let mut m = meter();
            let mut latest = [0.0f64; 16];
            let mut k = 0usize;
            // Tile the 32 generated updates into a 10_000-step sequence
            // with per-step perturbed wattages.
            for rep in 0..10_000usize / seed_updates.len() + 1 {
                for (node, w) in &seed_updates {
                    if k >= 10_000 { break; }
                    let w = w + (rep as f64) * 1e-3;
                    m.set_node_watts(NodeId(*node), SimTime::from_secs(k as f64), w);
                    latest[*node as usize] = w;
                    k += 1;
                }
            }
            let expect: f64 = latest.iter().sum();
            prop_assert!(
                (m.system_watts() - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "drift after {} updates: {} vs {}", k, m.system_watts(), expect
            );
        }

        /// Batched `set_alloc_watts` is observationally identical to the
        /// per-node loop: same system wattage, energy and node draws.
        #[test]
        fn batched_matches_per_node_loop(
            batches in proptest::collection::vec(
                // (node-subset bitmask, watts) per batch step
                (1u32..256, 0.0f64..400.0), 1..60),
        ) {
            let mut batched = meter();
            let mut sequential = meter();
            for (i, (mask, w)) in batches.iter().enumerate() {
                let t = SimTime::from_secs(i as f64 * 3.0);
                let nodes: Vec<NodeId> =
                    (0..8).filter(|b| mask & (1 << b) != 0).map(NodeId).collect();
                batched.set_alloc_watts(&nodes, t, *w);
                for &nd in &nodes {
                    sequential.set_node_watts(nd, t, *w);
                }
            }
            prop_assert!((batched.system_watts() - sequential.system_watts()).abs() < 1e-9);
            let end = SimTime::from_secs(batches.len() as f64 * 3.0 + 5.0);
            let (eb, es) = (
                batched.system_energy_joules(end),
                sequential.system_energy_joules(end),
            );
            prop_assert!((eb - es).abs() < 1e-6 * (1.0 + es.abs()), "{} vs {}", eb, es);
            for nd in (0..8).map(NodeId) {
                prop_assert_eq!(batched.node_watts(nd).to_bits(), sequential.node_watts(nd).to_bits());
            }
        }

        /// A group open / phase-steps / close cycle is observationally
        /// identical to the same power schedule issued through
        /// `set_alloc_watts` (same job energy and system draw afterwards,
        /// to rounding), and bit-identical to the per-node reference meter
        /// after every operation: system draw, group energy and every
        /// node's draw.
        #[test]
        fn group_cycle_matches_alloc_updates(
            members in 1u32..6,
            idle in 0.0f64..80.0,
            phases in proptest::collection::vec(0.0f64..500.0, 1..10),
            dt in 0.5f64..20.0,
        ) {
            let nodes: Vec<NodeId> = (0..members).map(NodeId).collect();
            let set: NodeSet = nodes.iter().copied().collect();
            let mut grouped = meter();
            let mut plain = meter();
            let mut reference = RefMeter::default();
            grouped.set_alloc_watts(&nodes, SimTime::ZERO, idle);
            plain.set_alloc_watts(&nodes, SimTime::ZERO, idle);
            reference.set_alloc_watts(&nodes, idle);
            let same = |m: &EnergyMeter, r: &RefMeter| -> Result<(), TestCaseError> {
                prop_assert_eq!(m.system_watts().to_bits(), r.system_watts.to_bits());
                for i in 0..8 {
                    prop_assert_eq!(m.node_watts(NodeId(i)).to_bits(),
                        r.node_watts(i).to_bits(), "node {}", i);
                }
                Ok(())
            };

            let start = SimTime::from_secs(dt);
            let gid = grouped.open_group(&set, start, phases[0]);
            let rgid = reference.open_group(&nodes, start, phases[0]);
            prop_assert_eq!(gid.raw(), rgid);
            same(&grouped, &reference)?;
            // The plain meter holds only the job's nodes, so the job
            // energy is a window of its system energy.
            plain.set_alloc_watts(&nodes, start, phases[0]);
            let mark_p = plain.system_energy_joules(start);

            let mut clock = dt;
            for w in &phases[1..] {
                clock += dt;
                let t = SimTime::from_secs(clock);
                grouped.set_group_watts(gid, t, *w);
                reference.set_group_watts(rgid, t, *w);
                same(&grouped, &reference)?;
                plain.set_alloc_watts(&nodes, t, *w);
            }
            clock += dt;
            let end = SimTime::from_secs(clock);
            let energy_g = grouped.close_group(gid, &set, end, idle);
            let energy_r = reference.close_group(rgid, &nodes, end, idle);
            prop_assert_eq!(energy_g.to_bits(), energy_r.to_bits());
            same(&grouped, &reference)?;
            let energy_p = plain.system_energy_joules(end) - mark_p;
            plain.set_alloc_watts(&nodes, end, idle);

            let tol = 1e-9 * (1.0 + energy_p.abs());
            prop_assert!((energy_g - energy_p).abs() < tol,
                "job energy {} vs {}", energy_g, energy_p);
            prop_assert!(
                (grouped.system_watts() - plain.system_watts()).abs() < 1e-9);
            let probe = SimTime::from_secs(clock + 3.0);
            let (eg, ep) = (
                grouped.system_energy_joules(probe),
                plain.system_energy_joules(probe),
            );
            prop_assert!((eg - ep).abs() < 1e-9 * (1.0 + ep.abs()), "{} vs {}", eg, ep);
        }

        /// Random interleavings of single-node updates, batch updates,
        /// multi-span group opens, phase steps and closes over a 160-node
        /// meter — with repeated wattages and zero-length time steps so
        /// runs split and coalesce, and enough node updates to cross the
        /// resync interval — match the per-node reference bit for bit
        /// after every operation.
        #[test]
        fn span_meter_matches_per_node_reference(
            ops in proptest::collection::vec(
                (0u8..5, 0u32..160, 1u32..160, 0u32..4, arb_watts(), arb_dt()), 1..120),
        ) {
            const N: u32 = 160;
            let mut m = meter();
            let mut r = RefMeter::default();
            // Open groups: (meter handle, reference handle, members).
            let mut open: Vec<(GroupId, u32, NodeSet)> = Vec::new();
            let mut grouped = vec![false; N as usize];
            let mut clock = 0.0;
            for (kind, a, b, gap, watts, dt) in ops {
                clock += dt;
                let t = SimTime::from_secs(clock);
                // The ungrouped nodes of a..a+b, every `gap + 1`-th.
                let pick: Vec<NodeId> = (a..(a + b).min(N))
                    .filter(|&i| !grouped[i as usize] && (i - a) % (gap + 1) == 0)
                    .map(NodeId)
                    .collect();
                match kind {
                    0 => {
                        if let Some(&nd) = pick.first() {
                            m.set_node_watts(nd, t, watts);
                            r.set_node_watts(nd.0, watts);
                        }
                    }
                    1 => {
                        m.set_alloc_watts(&pick, t, watts);
                        r.set_alloc_watts(&pick, watts);
                    }
                    2 if !pick.is_empty() => {
                        let set: NodeSet = pick.iter().copied().collect();
                        let gid = m.open_group(&set, t, watts);
                        let rgid = r.open_group(&pick, t, watts);
                        prop_assert_eq!(gid.raw(), rgid);
                        for nd in &pick {
                            grouped[nd.index()] = true;
                        }
                        open.push((gid, rgid, set));
                    }
                    3 if !open.is_empty() => {
                        let (gid, rgid, _) = open[a as usize % open.len()];
                        m.set_group_watts(gid, t, watts);
                        r.set_group_watts(rgid, t, watts);
                    }
                    4 if !open.is_empty() => {
                        let (gid, rgid, set) = open.swap_remove(a as usize % open.len());
                        let members = set.to_vec();
                        let e = m.close_group(gid, &set, t, watts);
                        let re = r.close_group(rgid, &members, t, watts);
                        prop_assert_eq!(e.to_bits(), re.to_bits(), "group energy");
                        for nd in &members {
                            grouped[nd.index()] = false;
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(m.system_watts().to_bits(), r.system_watts.to_bits(),
                    "system draw {} vs {}", m.system_watts(), r.system_watts);
                for i in 0..N {
                    prop_assert_eq!(m.node_watts(NodeId(i)).to_bits(),
                        r.node_watts(i).to_bits(), "node {} draw", i);
                }
            }
        }
    }

    /// Machine-wide groups (each open or close crosses the resync
    /// interval on its own) with ties, zero draws and interleaved
    /// single-node steps: bit-identical to the per-node reference through
    /// dozens of resyncs.
    #[test]
    fn wide_groups_resync_like_the_per_node_meter() {
        const N: u32 = 20_000;
        let mut m = meter();
        let mut r = RefMeter::default();
        let all: Vec<NodeId> = (0..N).map(NodeId).collect();
        m.set_alloc_watts(&all, SimTime::ZERO, 97.3);
        r.set_alloc_watts(&all, 97.3);
        let mut open: Vec<(GroupId, u32, NodeSet)> = Vec::new();
        let wattages = [0.1, 333.3, 0.0, 97.3, 250.0 + 2f64.powi(-45), 1e-3];
        for step in 0..60u32 {
            let t = SimTime::from_secs(f64::from(step) * 7.5);
            let w = wattages[step as usize % wattages.len()];
            if step % 3 == 2 && !open.is_empty() {
                let (gid, rgid, set) = open.remove(0);
                let e = m.close_group(gid, &set, t, w);
                assert_eq!(
                    e.to_bits(),
                    r.close_group(rgid, &set.to_vec(), t, w).to_bits()
                );
            } else {
                // Two runs: a wide block and a strided tail.
                let base = (step * 4_391) % (N - 6_000);
                let mut set = NodeSet::new();
                set.push_run(base, 4_500);
                set.push_run(base + 4_600, 700);
                let free = set.iter().all(|nd| r.nodes[nd.index()].1 == NO_GROUP);
                if free {
                    let gid = m.open_group(&set, t, w);
                    assert_eq!(gid.raw(), r.open_group(&set.to_vec(), t, w));
                    open.push((gid, gid.raw(), set));
                }
            }
            let loner = NodeId(N - 1 - step);
            if r.nodes[loner.index()].1 == NO_GROUP {
                m.set_node_watts(loner, t, w);
                r.set_node_watts(loner.0, w);
            }
            assert_eq!(
                m.system_watts().to_bits(),
                r.system_watts.to_bits(),
                "step {step}"
            );
            for i in (0..N).step_by(97) {
                assert_eq!(m.node_watts(NodeId(i)).to_bits(), r.node_watts(i).to_bits());
            }
        }
        assert!(r.resyncs >= 20, "only {} resyncs", r.resyncs);
    }

    proptest! {
        /// The two-level head bitset answers "nearest head at or before"
        /// exactly like an ordered set, across summary-word boundaries.
        #[test]
        fn head_set_matches_ordered_set(
            ops in proptest::collection::vec((any::<bool>(), 0u32..20_000), 1..200),
            probes in proptest::collection::vec(0u32..20_000, 32),
        ) {
            let mut heads = HeadSet::default();
            heads.grow(20_000);
            heads.insert(0);
            let mut model = std::collections::BTreeSet::from([0u32]);
            for (add, i) in ops {
                if add || i == 0 {
                    heads.insert(i);
                    model.insert(i);
                } else {
                    heads.remove(i);
                    model.remove(&i);
                }
            }
            for p in probes {
                prop_assert_eq!(heads.contains(p), model.contains(&p));
                prop_assert_eq!(heads.last_at_or_before(p), *model.range(..=p).next_back().unwrap());
            }
        }
    }

    fn arb_watts() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(85.5), Just(310.25), 0.0f64..500.0]
    }

    fn arb_dt() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), 0.25f64..40.0]
    }

    /// The original per-node meter, retained verbatim in its arithmetic
    /// as the bit-exact reference: every node carries `(watts, group)`,
    /// updates walk nodes one by one, and the resync sums every node. No
    /// system trace.
    #[derive(Default)]
    struct RefMeter {
        nodes: Vec<(f64, u32)>,
        groups: Vec<(f64, SimTime, f64, u32, bool)>,
        free_groups: Vec<u32>,
        system_watts: f64,
        updates: u32,
        resyncs: u32,
    }

    impl RefMeter {
        fn apply_node(&mut self, node: u32, watts: f64) -> f64 {
            let idx = node as usize;
            if idx >= self.nodes.len() {
                self.nodes.resize(idx + 1, (0.0, NO_GROUP));
            }
            let slot = &mut self.nodes[idx];
            assert_eq!(slot.1, NO_GROUP);
            let prev = slot.0;
            slot.0 = watts;
            watts - prev
        }

        fn commit_delta(&mut self, delta: f64, batch: u32) {
            self.system_watts += delta;
            self.updates += batch;
            if self.updates >= RESYNC_INTERVAL {
                self.updates = 0;
                self.resyncs += 1;
                self.system_watts = self
                    .nodes
                    .iter()
                    .filter(|n| n.1 == NO_GROUP)
                    .map(|n| n.0)
                    .sum::<f64>()
                    + self
                        .groups
                        .iter()
                        .filter(|g| g.4)
                        .map(|g| g.0 * f64::from(g.3))
                        .sum::<f64>();
            }
            if self.system_watts < 0.0 && self.system_watts > -1e-6 {
                self.system_watts = 0.0;
            }
        }

        fn set_node_watts(&mut self, node: u32, watts: f64) {
            let delta = self.apply_node(node, watts);
            self.commit_delta(delta, 1);
        }

        fn set_alloc_watts(&mut self, nodes: &[NodeId], watts: f64) {
            if nodes.is_empty() {
                return;
            }
            let mut delta = 0.0;
            for n in nodes {
                delta += self.apply_node(n.0, watts);
            }
            self.commit_delta(delta, nodes.len() as u32);
        }

        fn open_group(&mut self, nodes: &[NodeId], t: SimTime, watts: f64) -> u32 {
            let gid = self.free_groups.pop().unwrap_or_else(|| {
                self.groups.push((0.0, SimTime::ZERO, 0.0, 0, false));
                (self.groups.len() - 1) as u32
            });
            let mut delta = 0.0;
            for n in nodes {
                delta += self.apply_node(n.0, watts);
                self.nodes[n.index()].1 = gid;
            }
            self.groups[gid as usize] = (watts, t, 0.0, nodes.len() as u32, true);
            self.commit_delta(delta, nodes.len() as u32);
            gid
        }

        fn set_group_watts(&mut self, gid: u32, t: SimTime, watts: f64) {
            let g = &mut self.groups[gid as usize];
            g.2 += g.0 * t.saturating_since(g.1).as_secs();
            let delta = (watts - g.0) * f64::from(g.3);
            g.1 = t;
            g.0 = watts;
            self.commit_delta(delta, 1);
        }

        fn close_group(&mut self, gid: u32, nodes: &[NodeId], t: SimTime, next: f64) -> f64 {
            let g = &mut self.groups[gid as usize];
            g.2 += g.0 * t.saturating_since(g.1).as_secs();
            let (acc, watts) = (g.2, g.0);
            let energy = acc * f64::from(g.3);
            g.4 = false;
            let mut delta = 0.0;
            for n in nodes {
                self.nodes[n.index()] = (next, NO_GROUP);
                delta += next - watts;
            }
            self.free_groups.push(gid);
            self.commit_delta(delta, nodes.len() as u32);
            energy
        }

        fn node_watts(&self, node: u32) -> f64 {
            self.nodes.get(node as usize).map_or(0.0, |n| {
                if n.1 == NO_GROUP {
                    n.0
                } else {
                    self.groups[n.1 as usize].0
                }
            })
        }
    }
}
