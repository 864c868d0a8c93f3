//! Exact energy metering.
//!
//! Every node's power draw is a step function of time; the meter
//! integrates those steps exactly. Each node keeps one word of its own —
//! the energy it accumulated up to the start of its current draw — and
//! everything else is stored per *run* of consecutive nodes: an ordered
//! run index partitions the node ids into runs that share a draw and the
//! instant it started, so updates and energy queries cost O(runs
//! touched), not O(nodes). The core invariant — metered energy equals the
//! analytic integral of the recorded power steps — is property-tested
//! here and is the foundation of every energy number the framework
//! reports (Q7 results, post-job user energy reports, E1–E10).
//!
//! Job energy comes from *allocation groups*. [`EnergyMeter::open_group`]
//! takes a job's [`NodeSet`]: it folds the members' earlier draw into
//! their accumulators and turns each of the set's spans into a run owned
//! by the group, which then carries one shared `(watts, since,
//! energy-per-node)` record for all of them. A phase change
//! ([`EnergyMeter::set_group_watts`]) is O(1) however wide the job is, and
//! [`EnergyMeter::close_group`] returns the job's energy directly and
//! hands the spans back to the index at the post-job draw. Queries must be
//! at-or-after the last update of each node involved (simulation time is
//! monotone, so this holds by construction); historical window queries
//! remain available at the system level through the retained system
//! trace.
//!
//! Bit-exactness: the running system draw and the per-node energies are
//! the same floating-point values a per-node meter computes. Its ordered
//! chains — each update's `delta += watts - prev` over the nodes in order,
//! and the periodic resync `Iterator::sum` over every node — are evaluated
//! run by run with [`repeat_add`], which returns the bits of `k` identical
//! sequential adds in O(binades) instead of O(k). The per-node fold
//! `acc[i] += prev · (t − since)` adds the same product to every node of a
//! run, so it is one slice add with no loop-carried float dependency.

use epa_cluster::node::NodeId;
use epa_cluster::NodeSet;
use epa_simcore::fsum::repeat_add;
use epa_simcore::series::{BoundedSeries, TimeSeries};
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
/// slot holding this record. An ungrouped run's nodes each draw `watts`
/// since `since`; a grouped run (`group != NO_GROUP`) belongs to an open
/// allocation group, which carries its live draw (`watts`/`since` are then
/// unused).
#[derive(Debug, Clone, Copy)]
struct Run {
    len: u32,
    group: u32,
    watts: f64,
    since: SimTime,
}

impl Run {
    fn ungrouped(len: u32, watts: f64, since: SimTime) -> Self {
        Run {
            len,
            group: NO_GROUP,
            watts,
            since,
        }
    }

    /// Two neighbouring runs with the same draw since the same instant
    /// are one run.
    fn merges_with(&self, other: &Run) -> bool {
        self.group == NO_GROUP
            && other.group == NO_GROUP
            && self.watts.to_bits() == other.watts.to_bits()
            && self.since.as_secs().to_bits() == other.since.as_secs().to_bits()
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

/// Storage backing the system-level power trace: either the full
/// change-point [`TimeSeries`] (every historical window query available)
/// or a [`BoundedSeries`] whose memory is O(horizon / grid interval)
/// regardless of how many power steps the run makes — the million-job
/// streaming mode. Bounded mode answers the whole-run queries the engine
/// actually issues (`[0, end]` energy, peak, average, and the fixed-grid
/// resample) bit-identically to the full series.
#[derive(Debug, Clone)]
enum TraceStore {
    Full(TimeSeries),
    Bounded(BoundedSeries),
}

impl TraceStore {
    fn push(&mut self, t: SimTime, v: f64) {
        match self {
            TraceStore::Full(s) => s.push(t, v),
            TraceStore::Bounded(s) => s.push(t, v),
        }
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::Full(TimeSeries::new())
    }
}

/// Per-node and system-wide energy meter.
///
/// Node ids in a cluster are dense, so the per-node accumulators and the
/// run index are `Vec`s indexed by [`NodeId`]; a run's record sits at its
/// first node's slot and a two-level bitset marks those heads.
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    /// Energy of each node through its run's `since` (ungrouped) or its
    /// group's opening (grouped). Its length is the meter's node extent,
    /// grown on first write.
    acc: Vec<f64>,
    /// Run records, meaningful at run heads only. The runs partition
    /// `0..acc.len()`, so the run after head `h` starts at
    /// `h + runs[h].len`.
    runs: Vec<Run>,
    /// Run heads over `0..acc.len()`.
    heads: HeadSet,
    /// Allocation groups, indexed by `GroupId`; closed slots are recycled
    /// through `free_groups` so long runs do not grow this vector.
    groups: Vec<AllocGroup>,
    free_groups: Vec<u32>,
    system_watts: f64,
    system_trace: TraceStore,
    updates_since_resync: u32,
}

impl EnergyMeter {
    /// Creates an empty meter with a full system trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a meter whose system trace is a bounded accumulator on a
    /// `grid_dt` sample grid: memory stays O(horizon / `grid_dt`) no
    /// matter how many power steps the run makes. Whole-run queries
    /// (energy, peak, average over `[0, end]`, and
    /// [`power_trace_rows`](Self::power_trace_rows) at exactly `grid_dt`)
    /// are bit-identical to full mode; [`system_trace`](Self::system_trace)
    /// and arbitrary-window queries panic.
    #[must_use]
    pub fn with_bounded_trace(grid_dt: SimDuration) -> Self {
        EnergyMeter {
            system_trace: TraceStore::Bounded(BoundedSeries::new(grid_dt)),
            ..Self::default()
        }
    }

    // ---- run index ----------------------------------------------------

    fn extent(&self) -> u32 {
        self.acc.len() as u32
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
    /// per-node default: 0 W since t = 0, no energy.
    fn ensure(&mut self, end: u32) {
        let old = self.extent();
        if end <= old {
            return;
        }
        let fresh = Run::ungrouped(end - old, 0.0, SimTime::ZERO);
        self.acc.resize(end as usize, 0.0);
        self.runs.resize(end as usize, fresh);
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
    /// the same draw since the same instant; returns the surviving head.
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
    /// `watts` at `t`, leaving it as one run headed at `start` whose record
    /// the caller writes. Per run of the old index: folds the run's draw
    /// since its `since` into each node's accumulator (one slice add of
    /// the same product the per-node update computes) and extends the
    /// ordered `delta` chain by `watts - prev` once per node.
    fn fold_span(&mut self, start: u32, len: u32, t: SimTime, watts: f64, delta: &mut f64) {
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
                 (node {h}, t {t}, group {})",
                run.group
            );
            debug_assert!(
                t >= run.since,
                "meter updates must be time-monotone per node"
            );
            let add = run.watts * t.saturating_since(run.since).as_secs();
            for a in &mut self.acc[h as usize..(h + run.len) as usize] {
                *a += add;
            }
            *delta = repeat_add(*delta, watts - run.watts, u64::from(run.len));
            if h != start {
                self.heads.remove(h);
            }
            h += run.len;
        }
    }

    /// Sets every node of `start..start + len` to draw `watts` from `t`.
    fn set_span(&mut self, start: u32, len: u32, t: SimTime, watts: f64, delta: &mut f64) {
        self.fold_span(start, len, t, watts, delta);
        self.runs[start as usize] = Run::ungrouped(len, watts, t);
        self.coalesce(start);
    }

    /// Folds a system-draw delta into the running sum, resyncing from the
    /// per-node values periodically to cancel accumulated float drift.
    fn commit_delta(&mut self, delta: f64, batch: u32) {
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
    }

    /// Records that `node` draws `watts` from time `t` onward.
    ///
    /// Maintains the system-level trace incrementally: the system draw is
    /// the sum of all node draws, updated at each change point.
    pub fn set_node_watts(&mut self, node: NodeId, t: SimTime, watts: f64) {
        // -0.0 is the additive identity, so `delta` is exactly the node's
        // `watts - prev`.
        let mut delta = -0.0;
        self.set_span(node.0, 1, t, watts, &mut delta);
        self.commit_delta(delta, 1);
        self.system_trace.push(t, self.system_watts);
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
            self.set_span(span[0].0, span.len() as u32, t, watts, &mut delta);
        }
        self.commit_delta(delta, nodes.len() as u32);
        self.system_trace.push(t, self.system_watts);
    }

    /// Opens an allocation group: every node in `nodes` draws `watts`
    /// from `t` onward, and subsequent uniform power steps over the same
    /// set cost O(1) via [`EnergyMeter::set_group_watts`] instead of a
    /// walk over the allocation. Bit-exact with the per-node batch update
    /// it replaces. O(spans) run-index work plus one slice add per run.
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
            self.fold_span(start, len, t, watts, &mut delta);
            self.runs[start as usize] = Run {
                len,
                group: gid,
                watts,
                since: t,
            };
        }
        self.groups[gid as usize] = AllocGroup {
            watts,
            since: t,
            acc_per_node: 0.0,
            members: nodes.len(),
            in_use: true,
        };
        self.commit_delta(delta, nodes.len());
        self.system_trace.push(t, self.system_watts);
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
        self.commit_delta(delta, 1);
        self.system_trace.push(t, self.system_watts);
    }

    /// Closes a group at `t`: folds the group energy back into each
    /// member's accumulator, sets every member's individual draw to
    /// `next_watts` (the post-job draw, typically idle), and returns the
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
        let acc_per_node = g.acc_per_node;
        let group_watts = g.watts;
        let members = g.members;
        let energy = acc_per_node * f64::from(members);
        g.in_use = false;
        for &(start, len) in nodes.runs() {
            debug_assert!(
                self.heads.contains(start)
                    && self.runs[start as usize].group == gid.0
                    && self.runs[start as usize].len == len,
                "span {start}+{len} is not a run of group {}",
                gid.0
            );
            for a in &mut self.acc[start as usize..(start + len) as usize] {
                *a += acc_per_node;
            }
            self.runs[start as usize] = Run::ungrouped(len, next_watts, t);
            self.coalesce(start);
        }
        // Every member steps by the same `next_watts - group_watts`.
        let delta = repeat_add(0.0, next_watts - group_watts, u64::from(members));
        self.free_groups.push(gid.0);
        self.commit_delta(delta, members);
        self.system_trace.push(t, self.system_watts);
        energy
    }

    /// Encodes the full metering state — per-node accumulators, the run
    /// index as `(start, len, group, watts, since)` spans, open and
    /// recycled groups, the running system sum, the system trace, and the
    /// resync counter — bit-exactly, so a restored meter produces the same
    /// floating-point results as one that was never snapshotted.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        w.seq(&self.acc, |w, &a| w.f64(a));
        let runs: Vec<(u32, Run)> = self.run_iter().collect();
        w.seq(&runs, |w, &(start, run)| {
            w.u32(start);
            w.u32(run.len);
            w.u32(run.group);
            w.f64(run.watts);
            w.f64(run.since.as_secs());
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
        match &self.system_trace {
            TraceStore::Full(s) => {
                w.u8(0);
                s.snapshot_into(w);
            }
            TraceStore::Bounded(s) => {
                w.u8(1);
                s.snapshot_into(w);
            }
        }
        w.u32(self.updates_since_resync);
    }

    /// Decodes a meter written by [`EnergyMeter::snapshot_into`]. The run
    /// index must tile the accumulators exactly, every grouped run must
    /// name an open group whose member count its runs add up to, and
    /// recycled slots must be closed groups — anything else is
    /// [`SnapshotError::Corrupt`](epa_simcore::snap::SnapshotError::Corrupt).
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        let acc = r.seq(epa_simcore::snap::SnapReader::f64)?;
        let runs = r.seq(|r| {
            Ok((
                r.u32()?,
                Run {
                    len: r.u32()?,
                    group: r.u32()?,
                    watts: r.f64()?,
                    since: SimTime::from_secs(r.f64()?),
                },
            ))
        })?;
        let groups = r.seq(|r| {
            Ok(AllocGroup {
                watts: r.f64()?,
                since: SimTime::from_secs(r.f64()?),
                acc_per_node: r.f64()?,
                members: r.u32()?,
                in_use: r.bool()?,
            })
        })?;
        let free_groups = r.seq(epa_simcore::snap::SnapReader::u32)?;
        let system_watts = r.f64()?;
        let system_trace = match r.u8()? {
            0 => TraceStore::Full(TimeSeries::restore_from(r)?),
            1 => TraceStore::Bounded(BoundedSeries::restore_from(r)?),
            tag => {
                return Err(epa_simcore::snap::SnapshotError::Corrupt {
                    detail: format!("unknown system-trace mode tag {tag}"),
                })
            }
        };
        let updates_since_resync = r.u32()?;
        let corrupt = |detail: String| epa_simcore::snap::SnapshotError::Corrupt { detail };
        let extent = u32::try_from(acc.len()).map_err(|_| {
            corrupt(format!(
                "{} accumulators exceed the node-id range",
                acc.len()
            ))
        })?;
        let mut m = EnergyMeter {
            acc,
            runs: Vec::new(),
            heads: HeadSet::default(),
            groups,
            free_groups,
            system_watts,
            system_trace,
            updates_since_resync,
        };
        let placeholder = Run::ungrouped(0, 0.0, SimTime::ZERO);
        m.runs = vec![placeholder; extent as usize];
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

    /// Current draw of one node in watts (0 if never recorded). Grouped
    /// nodes report their group's live draw.
    #[must_use]
    pub fn node_watts(&self, node: NodeId) -> f64 {
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

    /// Total energy consumed by one node from time zero through `t`,
    /// joules. O(1) plus a head lookup. `t` must be at-or-after the node's
    /// latest update (simulation time is monotone, so callers get this for
    /// free).
    #[must_use]
    pub fn node_energy_to(&self, node: NodeId, t: SimTime) -> f64 {
        if node.0 >= self.extent() {
            return 0.0;
        }
        let acc = self.acc[node.0 as usize];
        let run = &self.runs[self.head_of(node.0) as usize];
        if run.group == NO_GROUP {
            debug_assert!(t >= run.since, "meter energy queries must be time-monotone");
            acc + run.watts * t.saturating_since(run.since).as_secs()
        } else {
            // Grouped: the accumulator is frozen at group open; the
            // energy since then lives in the shared group record.
            let g = &self.groups[run.group as usize];
            debug_assert!(t >= g.since, "meter energy queries must be time-monotone");
            acc + g.acc_per_node + g.watts * t.saturating_since(g.since).as_secs()
        }
    }

    /// Total energy of `nodes` from time zero through `t`, joules —
    /// summed in the order given. This is the number Tokyo Tech and
    /// JCAHPC hand users at the end of every job.
    #[must_use]
    pub fn alloc_energy_to(&self, nodes: &[NodeId], t: SimTime) -> f64 {
        nodes.iter().map(|&n| self.node_energy_to(n, t)).sum()
    }

    /// System energy over `[a, b]`, joules. In bounded-trace mode only
    /// the whole-run window is answerable: `a` must be zero and `b`
    /// at-or-after the last power step.
    #[must_use]
    pub fn system_energy_joules(&self, a: SimTime, b: SimTime) -> f64 {
        match &self.system_trace {
            TraceStore::Full(s) => s.integrate(a, b),
            TraceStore::Bounded(s) => {
                assert!(
                    a == SimTime::ZERO,
                    "bounded trace answers whole-run energy only (a must be 0, got {a})"
                );
                s.integrate_from_start(b)
            }
        }
    }

    /// The system power trace (for telemetry, peak analysis, reports).
    ///
    /// # Panics
    /// Panics in bounded-trace mode — the raw change-point series is not
    /// retained there; use [`power_trace_rows`](Self::power_trace_rows).
    #[must_use]
    pub fn system_trace(&self) -> &TimeSeries {
        match &self.system_trace {
            TraceStore::Full(s) => s,
            TraceStore::Bounded(_) => panic!(
                "raw system trace unavailable in bounded mode; \
                 use power_trace_rows for the gridded trace"
            ),
        }
    }

    /// The system power trace resampled on a fixed grid over `[a, b]` —
    /// the rows the engine exports in its outcome. In bounded-trace mode
    /// `a` must be zero and `dt` must equal the meter's grid interval;
    /// the result is bit-identical to full mode's
    /// `system_trace().resample(a, b, dt)`.
    #[must_use]
    pub fn power_trace_rows(&self, a: SimTime, b: SimTime, dt: SimDuration) -> Vec<(SimTime, f64)> {
        match &self.system_trace {
            TraceStore::Full(s) => s.resample(a, b, dt),
            TraceStore::Bounded(s) => {
                assert!(
                    a == SimTime::ZERO,
                    "bounded trace resamples from time zero only (a must be 0, got {a})"
                );
                assert!(
                    dt == s.grid_dt(),
                    "bounded trace resamples at its own grid interval only"
                );
                s.sample_grid(b)
            }
        }
    }

    /// Peak system draw on `[a, b]`, watts. In bounded-trace mode `a`
    /// must be zero and `b` at-or-after the last power step.
    #[must_use]
    pub fn peak_system_watts(&self, a: SimTime, b: SimTime) -> f64 {
        match &self.system_trace {
            TraceStore::Full(s) => s.max_on(a, b).unwrap_or(0.0),
            TraceStore::Bounded(s) => {
                assert!(
                    a == SimTime::ZERO,
                    "bounded trace answers whole-run peak only (a must be 0, got {a})"
                );
                s.max_value(b).unwrap_or(0.0)
            }
        }
    }

    /// Average system draw on `[a, b]`, watts. In bounded-trace mode `a`
    /// must be zero and `b` at-or-after the last power step.
    #[must_use]
    pub fn avg_system_watts(&self, a: SimTime, b: SimTime) -> f64 {
        match &self.system_trace {
            TraceStore::Full(s) => s.time_weighted_mean(a, b),
            TraceStore::Bounded(s) => {
                assert!(
                    a == SimTime::ZERO,
                    "bounded trace answers whole-run average only (a must be 0, got {a})"
                );
                s.mean_from_start(b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn single_node_energy() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(0), t(10.0), 200.0);
        // [0,10) at 100 + [10,20) at 200.
        assert!((m.node_energy_to(n(0), t(20.0)) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn mark_diff_measures_a_window() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 50.0); // idle history before the job
        let mark = m.alloc_energy_to(&[n(0)], t(5.0));
        m.set_node_watts(n(0), t(5.0), 200.0); // job starts
        let end = m.alloc_energy_to(&[n(0)], t(15.0));
        assert!((end - mark - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn system_tracks_sum_of_nodes() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(1), t(0.0), 50.0);
        assert_eq!(m.system_watts(), 150.0);
        m.set_node_watts(n(0), t(5.0), 20.0);
        assert_eq!(m.system_watts(), 70.0);
        // System energy: [0,5) at 150 + [5,10) at 70.
        assert!((m.system_energy_joules(t(0.0), t(10.0)) - (750.0 + 350.0)).abs() < 1e-9);
    }

    #[test]
    fn alloc_energy_sums_member_nodes() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(1), t(0.0), 100.0);
        m.set_node_watts(n(2), t(0.0), 999.0); // not in the job
        let e = m.alloc_energy_to(&[n(0), n(1)], t(10.0));
        assert!((e - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn peak_and_average() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(0), t(10.0), 300.0);
        m.set_node_watts(n(0), t(20.0), 100.0);
        assert_eq!(m.peak_system_watts(t(0.0), t(30.0)), 300.0);
        let avg = m.avg_system_watts(t(0.0), t(30.0));
        assert!((avg - (100.0 * 10.0 + 300.0 * 10.0 + 100.0 * 10.0) / 30.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_node_reads_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.node_watts(n(9)), 0.0);
        assert_eq!(m.node_energy_to(n(9), t(10.0)), 0.0);
    }

    #[test]
    fn batched_update_equals_sequential() {
        let nodes = [n(0), n(1), n(2), n(3)];
        let mut batched = EnergyMeter::new();
        let mut sequential = EnergyMeter::new();
        batched.set_alloc_watts(&nodes, t(0.0), 100.0);
        batched.set_alloc_watts(&nodes[..2], t(10.0), 250.0);
        for &nd in &nodes {
            sequential.set_node_watts(nd, t(0.0), 100.0);
        }
        for &nd in &nodes[..2] {
            sequential.set_node_watts(nd, t(10.0), 250.0);
        }
        assert_eq!(batched.system_watts(), sequential.system_watts());
        let (a, b) = (t(0.0), t(20.0));
        assert!(
            (batched.system_energy_joules(a, b) - sequential.system_energy_joules(a, b)).abs()
                < 1e-9
        );
        for &nd in &nodes {
            assert_eq!(
                batched.node_energy_to(nd, b),
                sequential.node_energy_to(nd, b)
            );
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut m = EnergyMeter::new();
        m.set_alloc_watts(&[], t(0.0), 100.0);
        assert_eq!(m.system_watts(), 0.0);
        assert!(m.system_trace().is_empty());
    }

    #[test]
    fn group_lifecycle_matches_ungrouped_sequence() {
        let nodes = [n(0), n(1), n(2)];
        let members = set(&[0, 1, 2]);
        let mut grouped = EnergyMeter::new();
        let mut plain = EnergyMeter::new();
        for m in [&mut grouped, &mut plain] {
            m.set_alloc_watts(&nodes, t(0.0), 50.0); // idle history
        }

        // Grouped job: open at 100 W, phase to 300 W, phase to 80 W, close.
        let gid = grouped.open_group(&members, t(10.0), 100.0);
        let mark_g = grouped.alloc_energy_to(&nodes, t(10.0));
        grouped.set_group_watts(gid, t(20.0), 300.0);
        grouped.set_group_watts(gid, t(30.0), 80.0);
        let energy_g = grouped.close_group(gid, &members, t(40.0), 50.0);

        // Same schedule through the ungrouped API.
        plain.set_alloc_watts(&nodes, t(10.0), 100.0);
        let mark_p = plain.alloc_energy_to(&nodes, t(10.0));
        plain.set_alloc_watts(&nodes, t(20.0), 300.0);
        plain.set_alloc_watts(&nodes, t(30.0), 80.0);
        let energy_p = plain.alloc_energy_to(&nodes, t(40.0)) - mark_p;
        plain.set_alloc_watts(&nodes, t(40.0), 50.0);

        assert_eq!(mark_g, mark_p, "open mark must be bit-exact");
        // Per-node: (100*10 + 300*10 + 80*10) * 3 nodes = 14400.
        assert!((energy_g - 14400.0).abs() < 1e-9);
        assert!((energy_g - energy_p).abs() < 1e-9);
        assert!((grouped.system_watts() - plain.system_watts()).abs() < 1e-9);
        for &nd in &nodes {
            let (eg, ep) = (
                grouped.node_energy_to(nd, t(50.0)),
                plain.node_energy_to(nd, t(50.0)),
            );
            assert!((eg - ep).abs() < 1e-9, "node {}: {eg} vs {ep}", nd.0);
        }
        let (sg, sp) = (
            grouped.system_energy_joules(t(0.0), t(50.0)),
            plain.system_energy_joules(t(0.0), t(50.0)),
        );
        assert!((sg - sp).abs() < 1e-9, "{sg} vs {sp}");
    }

    #[test]
    fn grouped_nodes_answer_live_queries() {
        let nodes = [n(0), n(1)];
        let mut m = EnergyMeter::new();
        m.set_alloc_watts(&nodes, t(0.0), 10.0);
        let gid = m.open_group(&set(&[0, 1]), t(5.0), 200.0);
        assert_eq!(m.node_watts(n(0)), 200.0);
        // 10 W for 5 s of history + 200 W for 5 s in-group.
        assert!((m.node_energy_to(n(0), t(10.0)) - 1050.0).abs() < 1e-9);
        m.set_group_watts(gid, t(10.0), 400.0);
        assert_eq!(m.node_watts(n(1)), 400.0);
        assert!((m.node_energy_to(n(1), t(12.0)) - (50.0 + 1000.0 + 800.0)).abs() < 1e-9);
        assert!((m.system_watts() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn group_slots_are_recycled() {
        let mut m = EnergyMeter::new();
        let g1 = m.open_group(&set(&[0]), t(0.0), 100.0);
        m.close_group(g1, &set(&[0]), t(1.0), 0.0);
        let g2 = m.open_group(&set(&[1, 2]), t(2.0), 50.0);
        assert_eq!(g1, g2, "closed slot must be reused");
        assert_eq!(m.groups.len(), 1);
        let e = m.close_group(g2, &set(&[1, 2]), t(4.0), 0.0);
        assert!((e - 200.0).abs() < 1e-9);
    }

    #[test]
    fn resync_counts_open_groups_once() {
        let mut m = EnergyMeter::new();
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
        let mut m = EnergyMeter::new();
        let _gid = m.open_group(&set(&[0]), t(0.0), 100.0);
        m.set_node_watts(n(0), t(1.0), 50.0);
    }

    #[test]
    fn bounded_trace_matches_full_on_whole_run_queries() {
        let dt = epa_simcore::time::SimDuration::from_mins(5.0);
        let mut full = EnergyMeter::new();
        let mut bounded = EnergyMeter::with_bounded_trace(dt);
        for m in [&mut full, &mut bounded] {
            m.set_alloc_watts(&[n(0), n(1)], t(0.0), 50.0);
            let gid = m.open_group(&set(&[0, 1]), t(100.0), 200.0);
            m.set_group_watts(gid, t(400.0), 350.0);
            m.close_group(gid, &set(&[0, 1]), t(900.0), 50.0);
            m.set_node_watts(n(0), t(1200.0), 0.0);
        }
        let end = t(1800.0);
        let a = SimTime::ZERO;
        assert_eq!(
            full.system_energy_joules(a, end).to_bits(),
            bounded.system_energy_joules(a, end).to_bits()
        );
        assert_eq!(
            full.peak_system_watts(a, end).to_bits(),
            bounded.peak_system_watts(a, end).to_bits()
        );
        assert_eq!(
            full.avg_system_watts(a, end).to_bits(),
            bounded.avg_system_watts(a, end).to_bits()
        );
        let (fr, br) = (
            full.power_trace_rows(a, end, dt),
            bounded.power_trace_rows(a, end, dt),
        );
        assert_eq!(fr.len(), br.len());
        for ((ft, fv), (bt, bv)) in fr.iter().zip(&br) {
            assert_eq!(ft, bt);
            assert_eq!(fv.to_bits(), bv.to_bits());
        }
    }

    #[test]
    fn bounded_trace_snapshot_roundtrip() {
        let dt = epa_simcore::time::SimDuration::from_mins(5.0);
        let mut m = EnergyMeter::with_bounded_trace(dt);
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(0), t(700.0), 40.0);
        let mut w = epa_simcore::snap::SnapWriter::new();
        m.snapshot_into(&mut w);
        let bytes = w.finish(1);
        let mut r = epa_simcore::snap::SnapReader::open(&bytes, 1).unwrap();
        let restored = EnergyMeter::restore_from(&mut r).unwrap();
        let end = t(2000.0);
        assert_eq!(
            m.system_energy_joules(SimTime::ZERO, end).to_bits(),
            restored.system_energy_joules(SimTime::ZERO, end).to_bits()
        );
        assert_eq!(
            m.power_trace_rows(SimTime::ZERO, end, dt),
            restored.power_trace_rows(SimTime::ZERO, end, dt)
        );
    }

    #[test]
    #[should_panic(expected = "raw system trace unavailable in bounded mode")]
    fn bounded_trace_raw_access_panics() {
        let m = EnergyMeter::with_bounded_trace(epa_simcore::time::SimDuration::from_mins(5.0));
        let _ = m.system_trace();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    proptest! {
        /// Energy conservation: the system energy over the full horizon
        /// equals the sum of per-node energies, for arbitrary
        /// time-monotone update sequences.
        #[test]
        fn system_energy_equals_node_sum(
            updates in proptest::collection::vec(
                (0u32..6, 0.1f64..50.0, 0.0f64..400.0), 1..80),
        ) {
            let mut m = EnergyMeter::new();
            let mut clock = 0.0;
            for (node, dt, w) in &updates {
                m.set_node_watts(NodeId(*node), SimTime::from_secs(clock), *w);
                clock += dt;
            }
            let end = SimTime::from_secs(clock + 10.0);
            let sys = m.system_energy_joules(SimTime::ZERO, end);
            let node_sum: f64 = (0..6)
                .map(|i| m.node_energy_to(NodeId(i), end))
                .sum();
            prop_assert!((sys - node_sum).abs() < 1e-6 * (1.0 + sys.abs()),
                "system {} != node sum {}", sys, node_sum);
        }

        /// O(1) accumulator energy equals the analytic step-function
        /// integral computed from the raw update list.
        #[test]
        fn accumulator_matches_analytic_integral(
            updates in proptest::collection::vec(
                (0u32..4, 0.1f64..50.0, 0.0f64..400.0), 1..60),
        ) {
            let mut m = EnergyMeter::new();
            let mut clock = 0.0;
            let mut steps: Vec<(u32, f64, f64)> = Vec::new(); // (node, t, w)
            for (node, dt, w) in &updates {
                m.set_node_watts(NodeId(*node), SimTime::from_secs(clock), *w);
                steps.push((*node, clock, *w));
                clock += dt;
            }
            let end = clock + 7.0;
            for node in 0..4u32 {
                // Analytic: sum over this node's steps of w * (next_t - t).
                let mine: Vec<(f64, f64)> = steps.iter()
                    .filter(|(n, _, _)| *n == node)
                    .map(|&(_, t, w)| (t, w))
                    .collect();
                let mut analytic = 0.0;
                for (i, &(t, w)) in mine.iter().enumerate() {
                    let next = mine.get(i + 1).map_or(end, |&(nt, _)| nt);
                    analytic += w * (next - t);
                }
                let got = m.node_energy_to(NodeId(node), SimTime::from_secs(end));
                prop_assert!((got - analytic).abs() < 1e-6 * (1.0 + analytic.abs()),
                    "node {}: {} vs analytic {}", node, got, analytic);
            }
        }

        /// The incrementally-maintained system wattage equals the sum of
        /// the latest per-node values.
        #[test]
        fn incremental_sum_correct(
            updates in proptest::collection::vec((0u32..8, 0.0f64..500.0), 1..100),
        ) {
            let mut m = EnergyMeter::new();
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
            let mut m = EnergyMeter::new();
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
        /// per-node loop: same system wattage, same energies.
        #[test]
        fn batched_matches_per_node_loop(
            batches in proptest::collection::vec(
                // (node-subset bitmask, watts) per batch step
                (1u32..256, 0.0f64..400.0), 1..60),
        ) {
            let mut batched = EnergyMeter::new();
            let mut sequential = EnergyMeter::new();
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
                batched.system_energy_joules(SimTime::ZERO, end),
                sequential.system_energy_joules(SimTime::ZERO, end),
            );
            prop_assert!((eb - es).abs() < 1e-6 * (1.0 + es.abs()), "{} vs {}", eb, es);
            for nd in (0..8).map(NodeId) {
                let (nb, ns) = (
                    batched.node_energy_to(nd, end),
                    sequential.node_energy_to(nd, end),
                );
                prop_assert!((nb - ns).abs() < 1e-9 * (1.0 + ns.abs()));
            }
        }

        /// A group open / phase-steps / close cycle is observationally
        /// identical to the same power schedule issued through
        /// `set_alloc_watts` (same job energy, per-node energies and system
        /// draw afterwards, to rounding), and bit-identical to the retained
        /// per-node reference meter after every operation: system draw,
        /// group energy and every node's energy.
        #[test]
        fn group_cycle_matches_alloc_updates(
            members in 1u32..6,
            idle in 0.0f64..80.0,
            phases in proptest::collection::vec(0.0f64..500.0, 1..10),
            dt in 0.5f64..20.0,
        ) {
            let nodes: Vec<NodeId> = (0..members).map(NodeId).collect();
            let set: NodeSet = nodes.iter().copied().collect();
            let mut grouped = EnergyMeter::new();
            let mut plain = EnergyMeter::new();
            let mut reference = RefMeter::default();
            grouped.set_alloc_watts(&nodes, SimTime::ZERO, idle);
            plain.set_alloc_watts(&nodes, SimTime::ZERO, idle);
            reference.set_alloc_watts(&nodes, SimTime::ZERO, idle);
            let same = |m: &EnergyMeter, r: &RefMeter, at: SimTime| -> Result<(), TestCaseError> {
                prop_assert_eq!(m.system_watts().to_bits(), r.system_watts.to_bits());
                for i in 0..8 {
                    prop_assert_eq!(m.node_energy_to(NodeId(i), at).to_bits(),
                        r.node_energy_to(i, at).to_bits(), "node {}", i);
                }
                Ok(())
            };

            let start = SimTime::from_secs(dt);
            let gid = grouped.open_group(&set, start, phases[0]);
            let rgid = reference.open_group(&nodes, start, phases[0]);
            prop_assert_eq!(gid.raw(), rgid);
            same(&grouped, &reference, start)?;
            plain.set_alloc_watts(&nodes, start, phases[0]);
            let mark_p = plain.alloc_energy_to(&nodes, start);
            prop_assert_eq!(grouped.alloc_energy_to(&nodes, start), mark_p);

            let mut clock = dt;
            for w in &phases[1..] {
                clock += dt;
                let t = SimTime::from_secs(clock);
                grouped.set_group_watts(gid, t, *w);
                reference.set_group_watts(rgid, t, *w);
                same(&grouped, &reference, t)?;
                plain.set_alloc_watts(&nodes, t, *w);
            }
            clock += dt;
            let end = SimTime::from_secs(clock);
            let energy_g = grouped.close_group(gid, &set, end, idle);
            let energy_r = reference.close_group(rgid, &nodes, end, idle);
            prop_assert_eq!(energy_g.to_bits(), energy_r.to_bits());
            same(&grouped, &reference, end)?;
            let energy_p = plain.alloc_energy_to(&nodes, end) - mark_p;
            plain.set_alloc_watts(&nodes, end, idle);

            let tol = 1e-9 * (1.0 + energy_p.abs());
            prop_assert!((energy_g - energy_p).abs() < tol,
                "job energy {} vs {}", energy_g, energy_p);
            prop_assert!(
                (grouped.system_watts() - plain.system_watts()).abs() < 1e-9);
            let probe = SimTime::from_secs(clock + 3.0);
            for &nd in &nodes {
                let (eg, ep) = (
                    grouped.node_energy_to(nd, probe),
                    plain.node_energy_to(nd, probe),
                );
                prop_assert!((eg - ep).abs() < 1e-9 * (1.0 + ep.abs()),
                    "node {}: {} vs {}", nd.0, eg, ep);
            }
            same(&grouped, &reference, probe)?;
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
            let mut m = EnergyMeter::new();
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
                            r.set_node_watts(nd.0, t, watts);
                        }
                    }
                    1 => {
                        m.set_alloc_watts(&pick, t, watts);
                        r.set_alloc_watts(&pick, t, watts);
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
                    prop_assert_eq!(m.node_energy_to(NodeId(i), t).to_bits(),
                        r.node_energy_to(i, t).to_bits(), "node {} energy", i);
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
        let mut m = EnergyMeter::new();
        let mut r = RefMeter::default();
        let all: Vec<NodeId> = (0..N).map(NodeId).collect();
        m.set_alloc_watts(&all, SimTime::ZERO, 97.3);
        r.set_alloc_watts(&all, SimTime::ZERO, 97.3);
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
                let free = set.iter().all(|nd| r.nodes[nd.index()].3 == NO_GROUP);
                if free {
                    let gid = m.open_group(&set, t, w);
                    assert_eq!(gid.raw(), r.open_group(&set.to_vec(), t, w));
                    open.push((gid, gid.raw(), set));
                }
            }
            let loner = NodeId(N - 1 - step);
            if r.nodes[loner.index()].3 == NO_GROUP {
                m.set_node_watts(loner, t, w);
                r.set_node_watts(loner.0, t, w);
            }
            assert_eq!(
                m.system_watts().to_bits(),
                r.system_watts.to_bits(),
                "step {step}"
            );
            for i in (0..N).step_by(97) {
                assert_eq!(
                    m.node_energy_to(NodeId(i), t).to_bits(),
                    r.node_energy_to(i, t).to_bits()
                );
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
    /// as the bit-exact reference: every node carries `(watts, since,
    /// acc, group)`, updates walk nodes one by one, and the resync sums
    /// every node. No system trace.
    #[derive(Default)]
    struct RefMeter {
        nodes: Vec<(f64, SimTime, f64, u32)>,
        groups: Vec<(f64, SimTime, f64, u32, bool)>,
        free_groups: Vec<u32>,
        system_watts: f64,
        updates: u32,
        resyncs: u32,
    }

    impl RefMeter {
        fn apply_node(&mut self, node: u32, t: SimTime, watts: f64) -> f64 {
            let idx = node as usize;
            if idx >= self.nodes.len() {
                self.nodes
                    .resize(idx + 1, (0.0, SimTime::ZERO, 0.0, NO_GROUP));
            }
            let slot = &mut self.nodes[idx];
            assert_eq!(slot.3, NO_GROUP);
            let prev = slot.0;
            slot.2 += prev * t.saturating_since(slot.1).as_secs();
            slot.1 = t;
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
                    .filter(|n| n.3 == NO_GROUP)
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

        fn set_node_watts(&mut self, node: u32, t: SimTime, watts: f64) {
            let delta = self.apply_node(node, t, watts);
            self.commit_delta(delta, 1);
        }

        fn set_alloc_watts(&mut self, nodes: &[NodeId], t: SimTime, watts: f64) {
            if nodes.is_empty() {
                return;
            }
            let mut delta = 0.0;
            for n in nodes {
                delta += self.apply_node(n.0, t, watts);
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
                delta += self.apply_node(n.0, t, watts);
                self.nodes[n.index()].3 = gid;
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
                let slot = &mut self.nodes[n.index()];
                slot.2 += acc;
                slot.1 = t;
                slot.0 = next;
                slot.3 = NO_GROUP;
                delta += next - watts;
            }
            self.free_groups.push(gid);
            self.commit_delta(delta, nodes.len() as u32);
            energy
        }

        fn node_watts(&self, node: u32) -> f64 {
            self.nodes.get(node as usize).map_or(0.0, |n| {
                if n.3 == NO_GROUP {
                    n.0
                } else {
                    self.groups[n.3 as usize].0
                }
            })
        }

        fn node_energy_to(&self, node: u32, t: SimTime) -> f64 {
            let Some(n) = self.nodes.get(node as usize) else {
                return 0.0;
            };
            if n.3 == NO_GROUP {
                n.2 + n.0 * t.saturating_since(n.1).as_secs()
            } else {
                let g = &self.groups[n.3 as usize];
                n.2 + g.2 + g.0 * t.saturating_since(g.1).as_secs()
            }
        }
    }
}
