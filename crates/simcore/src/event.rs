//! Stable time-ordered event queue.
//!
//! A thin wrapper over [`std::collections::BinaryHeap`] that delivers
//! events in non-decreasing time order and, for equal timestamps, in FIFO
//! insertion order. Stability matters: EPA policies schedule cascades of
//! zero-delay follow-up events (e.g. "cap enforced" → "telemetry sampled")
//! whose relative order must be deterministic for reproducible runs.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queue delivering `(SimTime, E)` pairs in stable time order.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Inserts an event at an absolute time.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Re-inserts a snapshotted event under its saved sequence number
    /// (snapshot restore only). Does not advance the queue's own counter.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, payload: E) {
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The next sequence number this queue would allocate. Snapshot
    /// state: restoring it (with [`EventQueue::set_seq`]) preserves the
    /// global `(time, seq)` numbering across a save/resume boundary.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Overwrites the sequence counter (snapshot restore).
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Every pending event as `(time, seq, &payload)`, sorted by key.
    ///
    /// The heap's internal layout depends on insertion history, so a
    /// byte-stable serialization (snapshot→restore→snapshot equality)
    /// must iterate in key order, which this provides without draining.
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<(SimTime, u64, &E)> = self
            .heap
            .iter()
            .map(|e| (e.time, e.seq, &e.payload))
            .collect();
        out.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
        out
    }

    /// Drains all events in time order into a vector.
    #[cfg(test)]
    fn drain_sorted(&mut self) -> Vec<(SimTime, E)> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = q.drain_sorted().into_iter().map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = q.drain_sorted().into_iter().map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10.0), 10);
        q.push(SimTime::from_secs(5.0), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        q.push(SimTime::from_secs(7.0), 7);
        q.push(SimTime::from_secs(20.0), 20);
        assert_eq!(q.pop().unwrap().1, 7);
        assert_eq!(q.pop().unwrap().1, 10);
        assert_eq!(q.pop().unwrap().1, 20);
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always pop in non-decreasing time order, and events that
        /// share a timestamp pop in insertion order (stability).
        #[test]
        fn ordering_and_stability(times in proptest::collection::vec(0u32..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_secs(f64::from(*t)), i);
            }
            let drained = q.drain_sorted();
            for w in drained.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time order violated");
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "stability violated");
                }
            }
            prop_assert_eq!(drained.len(), times.len());
        }

        /// Popping after arbitrary interleavings never yields an event
        /// earlier than one already popped.
        #[test]
        fn monotone_under_interleaving(ops in proptest::collection::vec((0u32..100, proptest::bool::ANY), 1..200)) {
            let mut q = EventQueue::new();
            let mut last_popped: Option<SimTime> = None;
            let mut pending_min: Option<SimTime> = None;
            for (t, is_push) in ops {
                if is_push {
                    // Never push into the past relative to what we already popped:
                    // mimic the engine contract (schedule at >= now).
                    let base = last_popped.map_or(0.0, SimTime::as_secs);
                    let time = SimTime::from_secs(base + f64::from(t));
                    q.push(time, ());
                    pending_min = Some(pending_min.map_or(time, |m| m.min(time)));
                } else if let Some((pt, ())) = q.pop() {
                    if let Some(lp) = last_popped {
                        prop_assert!(pt >= lp);
                    }
                    last_popped = Some(pt);
                }
            }
        }
    }
}
