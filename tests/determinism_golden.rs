//! Golden determinism: a fixed-seed simulation serializes to a
//! byte-for-byte identical `SimOutcome` across runs, crashes and
//! refactors. This is the `golden` row of the determinism matrix
//! (`tests/common/matrix.rs`).
//!
//! The scenario deliberately crosses every engine subsystem whose order
//! of operations a hot-path change could disturb: backfilling, a power
//! budget with a demand-response resize, idle shutdown with demand boot,
//! emergency kills with requeue + checkpointing, and node failures.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test determinism_golden
//! ```

mod common;

use common::matrix::{assert_clean, check_golden_file, golden, matrix, thread_cells};

#[test]
fn fixed_seed_outcome_matches_golden() {
    let mut failures = Vec::new();
    check_golden_file(&golden(), &mut failures);
    assert_clean(&failures);
}

/// The full `golden` row: a second straight run and every crash point
/// reproduce the straight run's outcome, trace and snapshot bytes.
#[test]
fn fixed_seed_outcome_is_run_to_run_deterministic() {
    let mut failures = Vec::new();
    matrix(&golden(), None, &mut failures);
    assert_clean(&failures);
}

/// The golden run is invariant under the thread pool, including a pool
/// size that changes across a crash.
#[test]
fn golden_outcome_invariant_under_thread_count() {
    let mut failures = Vec::new();
    let s = golden();
    let base = rayon::with_num_threads(1, || s.run(&[]));
    thread_cells(&s, &base, &mut failures);
    assert_clean(&failures);
}
