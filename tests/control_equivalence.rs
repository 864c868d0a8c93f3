//! Control-plane equivalence: the engineered mechanisms, each calling
//! its operation directly (budget resize, emergency shed, idle power-off,
//! the gate's limit read each round), produce **byte-identical** outcomes
//! and JSONL traces to the inline dispatch the engine had before it had a
//! control plane.
//!
//! That dispatch is gone; what it produced is pinned in
//! `tests/common/matrix.rs` as FNV fingerprints of the serialized outcome
//! plus the JSONL trace, recorded from it for seed `0xC0` and six fixed
//! seeds. Each seed runs its full `control` row of the determinism
//! matrix, so every crash point must reproduce the pinned bytes too.
//!
//! The scenario exercises every mechanism: a power budget with scheduled
//! resizes, idle shutdown, windowed emergency kills with a start
//! cooldown, a temperature-conditioned job-limit gate, plus
//! failures/requeues so the interleaving is rich.

mod common;

use common::matrix::{
    assert_clean, check_pinned, control, matrix, thread_cells, PINNED, PINNED_C0,
};

#[test]
fn adapters_match_pinned_legacy_fingerprint_across_threads() {
    let mut failures = Vec::new();
    let s = control(0xC0);
    let base = rayon::with_num_threads(1, || matrix(&s, None, &mut failures));
    check_pinned(&s, &base, PINNED_C0, &mut failures);
    if !base.trace.contains("\"EmergencyBreach\"") {
        failures.push(format!("{}: the emergency path never fired", s.name));
    }
    thread_cells(&s, &base, &mut failures);
    assert_clean(&failures);
}

#[test]
fn adapters_match_pinned_legacy_fingerprints_fixed_seeds() {
    let mut failures = Vec::new();
    for (seed, pinned) in PINNED {
        let s = control(seed);
        let base = matrix(&s, None, &mut failures);
        check_pinned(&s, &base, pinned, &mut failures);
    }
    assert_clean(&failures);
}
