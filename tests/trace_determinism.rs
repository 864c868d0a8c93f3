//! Trace determinism: the exported JSONL decision trace of the `golden`
//! scenario (`tests/common/matrix.rs`) is a pure function of (config,
//! seed) — byte-identical run to run and invariant under the thread-pool
//! size. Payloads are keyed on `SimTime` and bus sequence numbers only;
//! any wall-clock leakage or thread-order sensitivity shows up here as a
//! byte diff.

mod common;

use common::matrix::{assert_clean, check_header, check_untraced, compare, golden, row, Crash};

#[test]
fn trace_is_run_to_run_deterministic() {
    let mut failures = Vec::new();
    let base = row(&golden(), &[Crash::None], None, &mut failures);
    assert_clean(&failures);
    assert!(
        base.trace.lines().count() > 1,
        "scenario must produce trace events"
    );
}

#[test]
fn trace_is_invariant_under_thread_count() {
    let mut failures = Vec::new();
    let s = golden();
    let serial = rayon::with_num_threads(1, || s.run(&[]));
    let par = rayon::with_num_threads(4, || s.run(&[]));
    compare(
        "golden @ 1 vs 4 threads",
        &serial,
        &serial,
        &par,
        &mut failures,
    );
    assert_clean(&failures);
}

#[test]
fn trace_header_carries_schema_version() {
    let mut failures = Vec::new();
    let s = golden();
    check_header(&s, &s.run(&[]), &mut failures);
    assert_clean(&failures);
}

/// The traced run and an untraced run of the same scenario agree on the
/// outcome bytes: observability is read-only.
#[test]
fn outcome_is_unchanged_by_tracing() {
    let mut failures = Vec::new();
    let s = golden();
    check_untraced(&s, &s.run(&[]), &mut failures);
    assert_clean(&failures);
}
