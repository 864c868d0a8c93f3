//! The determinism matrix rows of the `layout`, `stream`, `grid` and `env`
//! scenarios. The table, its crash points and what each cell compares are
//! described in `tests/common/matrix.rs`, which also lists where the
//! other rows run.

mod common;

use common::matrix::{assert_clean, compare, grid, layout, matrix, stream, Crash, Run, PROBES};
use common::{make_env, ENV_SEED};
use epa_sched::learn::ActionCatalog;

#[test]
fn layout_matrix() {
    let mut failures = Vec::new();
    for seed in 3..=8 {
        matrix(&layout(seed), None, &mut failures);
    }
    assert_clean(&failures);
}

/// The lazy engine must reproduce the materialized engine's outcome and
/// trace. Its snapshots are compared with the lazy straight run, because
/// a snapshot stores the source cursor.
#[test]
fn stream_matrix() {
    let mut failures = Vec::new();
    for seed in [11, 2088, 90_210] {
        let materialized = stream(seed, false).run(&[]);
        matrix(&stream(seed, true), Some(&materialized), &mut failures);
    }
    assert_clean(&failures);
}

#[test]
fn grid_matrix() {
    let mut failures = Vec::new();
    for seed in [5, 7] {
        let base = matrix(&grid(seed), None, &mut failures);
        if !base
            .grid
            .as_ref()
            .is_some_and(|g| g.contains("\"violation_secs\""))
        {
            failures.push(format!("grid/{seed}: no DR settlement in the summary"));
        }
    }
    assert_clean(&failures);
}

// ---------------------------------------------------------------------
// The `env` scenario: a PolicyEnv episode, crashed between decisions.
// ---------------------------------------------------------------------

/// Decision steps in the 24 h episode at a 2 h interval.
const ENV_STEPS: f64 = 12.0;

/// Runs one episode, cycling through the standard action catalog, and
/// crashes after each decision step `crashes` names. Fractions map to
/// steps of the episode; past the horizon means after the last step.
fn env_run(crashes: &[f64]) -> Run {
    let catalog = ActionCatalog::standard();
    let step_of = |frac: f64| (frac * ENV_STEPS).round() as u64;
    let last = crashes.last().copied().unwrap_or(0.0);
    let probes: Vec<f64> = PROBES.into_iter().filter(|&p| p >= last).collect();
    let mut episode = make_env().reset();
    let (mut trace, mut snapshots) = (String::new(), Vec::new());
    let (mut step, mut done) = (0u64, false);
    loop {
        let due = |frac: f64| step_of(frac) == step || (done && step_of(frac) > step);
        for _ in crashes.iter().filter(|&&f| due(f)) {
            let bytes = episode.snapshot();
            // The crash: only the bytes survive.
            episode = make_env().restore(&bytes).expect("env snapshot restores");
        }
        for &p in probes.iter().filter(|&&p| due(p)) {
            snapshots.push((p, episode.snapshot()));
        }
        if done {
            break;
        }
        let entry = &catalog.entries[step as usize % catalog.entries.len()];
        let r = episode.step(&entry.actions);
        trace += &format!("{} {}\n", entry.name, serde_json::to_string(&r).unwrap());
        step += 1;
        done = r.done;
    }
    Run {
        json: serde_json::to_string(&episode.finish()).expect("outcome serializes"),
        trace,
        grid: None,
        snapshots,
    }
}

#[test]
fn env_matrix() {
    let mut failures = Vec::new();
    let base = env_run(&[]);
    assert!(
        base.trace.lines().count() > 10,
        "the episode must take steps"
    );
    for crash in Crash::ALL {
        let cell = format!("env x {}", crash.name());
        compare(
            &cell,
            &base,
            &base,
            &env_run(&crash.fractions(ENV_SEED)),
            &mut failures,
        );
    }
    assert_clean(&failures);
}
