//! Node sets stored as runs of consecutive ids.
//!
//! Allocations on large machines are a handful of contiguous runs no
//! matter how many nodes they hold, so a [`NodeSet`] carries them as
//! sorted, disjoint, non-adjacent `(start, len)` runs. Everything that
//! walks a job's nodes — the node table, the engine's start/finish
//! bookkeeping, the energy meter — works per run instead of per node.
//! One or two runs are stored inline, so the 1–4-node allocations that
//! dominate small-job streams never touch the heap.

use crate::node::NodeId;
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use std::fmt;

/// Runs held without a heap allocation.
const INLINE_RUNS: usize = 2;

/// A set of node ids as sorted, disjoint, non-adjacent `(start, len)`
/// runs (the canonical form: two sets are equal iff their runs are).
#[derive(Clone, Default)]
pub struct NodeSet {
    /// The runs while there are at most [`INLINE_RUNS`] of them.
    inline: [(u32, u32); INLINE_RUNS],
    inline_len: u8,
    /// All runs once there are more than [`INLINE_RUNS`] (`inline` is
    /// then unused).
    spill: Vec<(u32, u32)>,
    /// Total node count.
    len: u32,
}

impl NodeSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The set `start..start + len`.
    #[must_use]
    pub fn from_run(start: u32, len: u32) -> Self {
        let mut s = Self::new();
        s.push_run(start, len);
        s
    }

    /// Number of nodes in the set.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when the set holds no node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs in ascending order.
    #[must_use]
    pub fn runs(&self) -> &[(u32, u32)] {
        if self.spill.is_empty() {
            &self.inline[..usize::from(self.inline_len)]
        } else {
            &self.spill
        }
    }

    /// Appends the run `start..start + len`, which must lie at or after
    /// the end of the last run; a run touching the last one extends it.
    /// Empty runs are ignored.
    ///
    /// # Panics
    /// Panics if the run starts before the end of the last run, or ends
    /// past `u32::MAX`.
    pub fn push_run(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let end = start.checked_add(len).expect("node run overflows u32");
        if let Some(&(ls, ll)) = self.runs().last() {
            assert!(
                start >= ls + ll,
                "runs must be pushed in ascending order ({start} after {ls}+{ll})"
            );
            if start == ls + ll {
                self.last_mut().1 = end - ls;
                self.len += len;
                return;
            }
        }
        if !self.spill.is_empty() {
            self.spill.push((start, len));
        } else if usize::from(self.inline_len) < INLINE_RUNS {
            self.inline[usize::from(self.inline_len)] = (start, len);
            self.inline_len += 1;
        } else {
            self.spill.reserve(INLINE_RUNS * 2);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push((start, len));
            self.inline = [(0, 0); INLINE_RUNS];
            self.inline_len = 0;
        }
        self.len += len;
    }

    fn last_mut(&mut self) -> &mut (u32, u32) {
        if self.spill.is_empty() {
            &mut self.inline[usize::from(self.inline_len) - 1]
        } else {
            self.spill.last_mut().expect("spill is nonempty")
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.runs()
            .iter()
            .flat_map(|&(s, l)| (s..s + l).map(NodeId))
    }

    /// The lowest member.
    #[must_use]
    pub fn first(&self) -> Option<NodeId> {
        self.runs().first().map(|&(s, _)| NodeId(s))
    }

    /// True if `node` is a member. O(log runs).
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        let runs = self.runs();
        let i = runs.partition_point(|&(s, _)| s <= node.0);
        i > 0 && node.0 < runs[i - 1].0 + runs[i - 1].1
    }

    /// The members as a vector of ids, ascending.
    #[must_use]
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// Encodes the runs as a length-prefixed `(start, len)` sequence.
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        w.seq(self.runs(), |w, &(s, l)| {
            w.u32(s);
            w.u32(l);
        });
    }

    /// Decodes a set written by [`NodeSet::snapshot_into`] over node ids
    /// `0..total`. Anything but canonical runs — unsorted, overlapping,
    /// adjacent, zero-length, or reaching past `total` — is a typed
    /// [`SnapshotError::Corrupt`]; a sequence length larger than the
    /// remaining payload is rejected before anything is allocated.
    pub fn restore_from(r: &mut SnapReader<'_>, total: u32) -> Result<Self, SnapshotError> {
        let runs = r.seq(|r| Ok((r.u32()?, r.u32()?)))?;
        let mut set = NodeSet::new();
        let mut prev_end: Option<u32> = None;
        for (start, len) in runs {
            let corrupt = |why: &str| SnapshotError::Corrupt {
                detail: format!("node run ({start},{len}) over {total} nodes: {why}"),
            };
            if len == 0 {
                return Err(corrupt("zero length"));
            }
            let end = start
                .checked_add(len)
                .filter(|&e| e <= total)
                .ok_or_else(|| corrupt("out of range"))?;
            if prev_end.is_some_and(|pe| start <= pe) {
                return Err(corrupt("unsorted, overlapping or adjacent"));
            }
            set.push_run(start, len);
            prev_end = Some(end);
        }
        Ok(set)
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.runs() == other.runs()
    }
}

impl Eq for NodeSet {}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.runs().iter().map(|&(s, l)| s..s + l))
            .finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Collects ids in any order; duplicates collapse.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut ids: Vec<u32> = iter.into_iter().map(|n| n.0).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut set = NodeSet::new();
        for id in ids {
            set.push_run(id, 1);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_pushes_coalesce_and_runs_spill() {
        let mut s = NodeSet::new();
        s.push_run(3, 1);
        s.push_run(4, 1);
        s.push_run(5, 2);
        assert_eq!(s.runs(), &[(3, 4)]);
        s.push_run(10, 1);
        s.push_run(20, 5);
        assert_eq!(s.runs(), &[(3, 4), (10, 1), (20, 5)]);
        assert_eq!(s.len(), 10);
        s.push_run(25, 1);
        assert_eq!(s.runs(), &[(3, 4), (10, 1), (20, 6)]);
        assert!(s.contains(NodeId(6)) && !s.contains(NodeId(7)) && s.contains(NodeId(25)));
        assert_eq!(s.first(), Some(NodeId(3)));
    }

    #[test]
    fn equality_ignores_storage() {
        let a: NodeSet = [5, 1, 2, 9].into_iter().map(NodeId).collect();
        let mut b = NodeSet::new();
        b.push_run(1, 2);
        b.push_run(5, 1);
        b.push_run(9, 1);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[1..3, 5..6, 9..10]");
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn out_of_order_push_panics() {
        let mut s = NodeSet::from_run(10, 2);
        s.push_run(3, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// A NodeSet built from ids in any order behaves exactly like the
        /// sorted, deduplicated `Vec<NodeId>` of those ids: same members,
        /// length, membership answers and first element, and canonical
        /// runs (sorted, disjoint, non-adjacent, nonempty).
        #[test]
        fn matches_sorted_vec_model(
            ids in proptest::collection::vec(0u32..200, 0..80),
            probes in proptest::collection::vec(0u32..210, 16),
        ) {
            let set: NodeSet = ids.iter().copied().map(NodeId).collect();
            let model: Vec<NodeId> = ids
                .iter()
                .copied()
                .collect::<BTreeSet<u32>>()
                .into_iter()
                .map(NodeId)
                .collect();
            prop_assert_eq!(set.to_vec(), model.clone());
            prop_assert_eq!(set.len() as usize, model.len());
            prop_assert_eq!(set.first(), model.first().copied());
            for p in probes {
                prop_assert_eq!(set.contains(NodeId(p)), model.contains(&NodeId(p)));
            }
            let mut prev_end: Option<u32> = None;
            for &(s, l) in set.runs() {
                prop_assert!(l > 0);
                prop_assert!(prev_end.is_none_or(|pe| s > pe));
                prev_end = Some(s + l);
            }
            // Ascending pushes build the same set.
            let mut pushed = NodeSet::new();
            for &n in &model {
                pushed.push_run(n.0, 1);
            }
            prop_assert_eq!(&pushed, &set);
        }

        /// Mutated frames never panic or over-allocate the decoder: every
        /// byte flip, truncation or length rewrite of a valid payload
        /// either decodes to canonical in-range runs or fails with a
        /// typed error.
        #[test]
        fn decoder_survives_mutated_frames(
            ids in proptest::collection::vec(0u32..64, 1..40),
            flips in proptest::collection::vec((0usize..512, any::<u8>()), 1..6),
            cut in 0usize..512,
            truncate in any::<bool>(),
        ) {
            let set: NodeSet = ids.into_iter().map(NodeId).collect();
            let mut w = SnapWriter::new();
            set.snapshot_into(&mut w);
            // Mutate the payload, then re-frame it so the checksum passes
            // and the decoder itself sees the damage.
            let payload_len = w.len();
            let frame = w.finish(1);
            let mut payload = frame[frame.len() - payload_len..].to_vec();
            for &(at, byte) in &flips {
                let i = at % payload.len();
                payload[i] = byte;
            }
            if truncate {
                payload.truncate(cut % (payload.len() + 1));
            }
            let reframed = reframe(&payload);
            match decode(&reframed, 64) {
                Ok(got) => {
                    let mut prev_end: Option<u32> = None;
                    for &(s, l) in got.runs() {
                        prop_assert!(l > 0 && s + l <= 64);
                        prop_assert!(prev_end.is_none_or(|pe| s > pe));
                        prev_end = Some(s + l);
                    }
                }
                Err(e) => prop_assert!(
                    matches!(e, SnapshotError::Corrupt { .. } | SnapshotError::Truncated { .. }),
                    "unexpected error {:?}", e
                ),
            }
        }
    }

    /// Frames raw payload bytes with a valid header and checksum.
    fn reframe(payload: &[u8]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for &b in payload {
            w.u8(b);
        }
        w.finish(1)
    }

    fn encode(runs: &[(u32, u32)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.seq(runs, |w, &(s, l)| {
            w.u32(s);
            w.u32(l);
        });
        w.finish(1)
    }

    fn decode(bytes: &[u8], total: u32) -> Result<NodeSet, SnapshotError> {
        let mut r = SnapReader::open(bytes, 1)?;
        let set = NodeSet::restore_from(&mut r, total)?;
        r.finish()?;
        Ok(set)
    }

    #[test]
    fn decoder_rejects_non_canonical_runs() {
        let bad: [&[(u32, u32)]; 6] = [
            &[(5, 2), (1, 1)], // unsorted
            &[(1, 4), (3, 2)], // overlapping
            &[(1, 2), (3, 2)], // adjacent
            &[(1, 0)],         // zero length
            &[(60, 8)],        // past total
            &[(u32::MAX, 2)],  // overflows
        ];
        for runs in bad {
            let err = decode(&encode(runs), 64).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt { .. }),
                "{runs:?} gave {err:?}"
            );
        }
        let ok = decode(&encode(&[(0, 3), (4, 60)]), 64).unwrap();
        assert_eq!(ok.len(), 63);
    }
}
