//! A fixed reference workload that measures how fast the host runs
//! right now.
//!
//! The host's speed drifts by up to half over minutes, far more than
//! the changes the benchmark must resolve. The reference uses none of
//! the repository's code — an event heap, an ordered map, and a vector
//! scan, the same mix of work the engine does — so a change to the
//! engine never moves it, while a slow phase of the host slows both.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Runs of the reference per measurement; the fastest is kept.
const RUNS: usize = 5;

/// Wall time of the fastest of several runs of the reference workload,
/// seconds.
#[must_use]
pub fn reference_seconds() -> f64 {
    (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(reference_work(black_box(0x5eed)));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// About 20 ms of event-queue, ordered-map and scan work on a 2-core
/// x86-64 host. Returns a checksum so none of it can be elided.
#[must_use]
pub fn reference_work(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut events: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut running: BTreeMap<u64, u64> = BTreeMap::new();
    let mut watts = vec![0.0f64; 16_384];
    for id in 0..4_096u32 {
        events.push(std::cmp::Reverse((next() % 1_000_000, id)));
    }
    let mut checksum = 0u64;
    for step in 0..60_000u64 {
        let std::cmp::Reverse((t, id)) = events.pop().expect("the heap never drains");
        let key = next() % 8_192;
        if let Some(v) = running.remove(&key) {
            checksum = checksum.wrapping_add(v);
        } else {
            running.insert(key, t);
        }
        let node = (next() % watts.len() as u64) as usize;
        watts[node] += f64::from(id % 7) * 0.5;
        if step % 512 == 0 {
            checksum = checksum.wrapping_add(watts.iter().sum::<f64>() as u64);
        }
        events.push(std::cmp::Reverse((t + 1 + next() % 10_000, id)));
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_timed() {
        assert_eq!(reference_work(7), reference_work(7));
        assert_ne!(reference_work(7), reference_work(8));
        assert!(reference_seconds() > 0.0);
    }
}
