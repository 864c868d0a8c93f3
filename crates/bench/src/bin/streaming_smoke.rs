//! Million-job streaming smoke: bounded memory plus prefix equivalence.
//!
//! CI runs this under `ulimit -v` (the `streaming-memory` job), so an
//! unbounded buffer anywhere on the streaming path OOMs here instead of
//! landing on main. Two phases:
//!
//! 1. **10k-job prefix equivalence** — the lazy-generator engine versus
//!    the materialized engine over the same horizon, plus a mid-run
//!    snapshot/resume of the streaming engine. The serialized
//!    [`SimOutcome`](epa_sched::engine::SimOutcome) and the exported
//!    JSONL decision trace of both must be byte-identical to the
//!    materialized run.
//! 2. **1M-job streaming run** — must complete inside the CI
//!    address-space cap, and its peak RSS must stay within
//!    [`RSS_BOUND`]× of the process high-water mark after phase 1 (a
//!    10k-job workload), the bounded-memory acceptance bound.
//!
//! ```text
//! cargo run --release -p epa-bench --bin streaming_smoke
//! ```

use epa_bench::{experiment_system, peak_rss_bytes, streaming_workload_params};
use epa_obs::{trace_to_jsonl, CategoryMask, TraceConfig};
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::policies::backfill::EasyBackfill;
use epa_simcore::time::SimTime;
use epa_workload::generator::WorkloadGenerator;
use epa_workload::source::LazyGeneratorSource;
use std::time::Instant;

const NODES: u32 = 256;
const RATE_PER_HOUR: f64 = 1000.0;
const SEED: u64 = 2088;
const PREFIX_JOBS: u64 = 10_000;
const FULL_JOBS: u64 = 1_000_000;

/// Peak RSS of the 1M-job run, relative to the high-water mark the
/// 10k-job phase left behind.
const RSS_BOUND: f64 = 2.0;

fn horizon_for(jobs: u64) -> SimTime {
    SimTime::from_hours(jobs as f64 / RATE_PER_HOUR)
}

/// The streaming engine configuration: aggregate-only completions,
/// bounded power trace, no prediction history, full decision tracing
/// (so the trace comparison exercises the ring across the crash
/// boundary too).
fn config(horizon: SimTime) -> EngineConfig {
    let mut config = EngineConfig::new(horizon);
    config.seed = SEED;
    config.record_history = false;
    config.retain_completed = false;
    config.bounded_power_trace = true;
    config.trace = TraceConfig {
        mask: CategoryMask::ALL,
        ..TraceConfig::default()
    };
    config
}

/// Serialized outcome + exported JSONL trace of a finished run.
fn fingerprint(sim: ClusterSim<'_>) -> (String, String) {
    let (out, bundle) = sim.run_traced();
    let outcome = serde_json::to_string(&out).expect("outcome serializes");
    (outcome, trace_to_jsonl(&bundle.trace))
}

fn materialized_run(horizon: SimTime) -> (String, String) {
    let params = streaming_workload_params(RATE_PER_HOUR, SEED);
    let jobs = WorkloadGenerator::new(params).generate(horizon, 0);
    let mut policy = EasyBackfill;
    fingerprint(ClusterSim::new(
        experiment_system(NODES),
        jobs,
        &mut policy,
        config(horizon),
    ))
}

fn source(horizon: SimTime) -> Box<LazyGeneratorSource> {
    Box::new(LazyGeneratorSource::new(
        streaming_workload_params(RATE_PER_HOUR, SEED),
        horizon,
        0,
    ))
}

fn streaming_run(horizon: SimTime) -> (String, String) {
    let mut policy = EasyBackfill;
    fingerprint(
        ClusterSim::try_new_with_source(
            experiment_system(NODES),
            source(horizon),
            &mut policy,
            config(horizon),
        )
        .expect("valid streaming config"),
    )
}

/// Streaming run killed at mid-horizon and resumed from the snapshot
/// with a fresh source (the snapshot carries the source cursor).
fn streaming_resumed_run(horizon: SimTime) -> (String, String) {
    let mut policy = EasyBackfill;
    let mut sim = ClusterSim::try_new_with_source(
        experiment_system(NODES),
        source(horizon),
        &mut policy,
        config(horizon),
    )
    .expect("valid streaming config");
    let snap = sim.run_until(SimTime::from_secs(horizon.as_secs() / 2.0));
    drop(sim); // the crash
    let mut policy = EasyBackfill;
    fingerprint(
        ClusterSim::resume_with_source(
            experiment_system(NODES),
            source(horizon),
            &mut policy,
            config(horizon),
            &snap,
        )
        .expect("streaming snapshot resumes"),
    )
}

fn main() {
    // Phase 1: 10k-job prefix, materialized vs streaming vs
    // streaming-with-crash.
    let horizon = horizon_for(PREFIX_JOBS);
    let (base_outcome, base_trace) = materialized_run(horizon);
    for (label, (out, trace)) in [
        ("streaming", streaming_run(horizon)),
        ("streaming+resume", streaming_resumed_run(horizon)),
    ] {
        assert_eq!(out, base_outcome, "{label} outcome diverged");
        assert_eq!(trace, base_trace, "{label} trace diverged");
    }
    eprintln!(
        "prefix: {PREFIX_JOBS}-job outcome+trace identical across the materialized, \
         streaming, and crash/resume runs"
    );

    // Phase 2: the million-job run, in bounded memory.
    let rss_after_prefix = peak_rss_bytes();
    let t0 = Instant::now();
    let horizon = horizon_for(FULL_JOBS);
    let mut policy = EasyBackfill;
    let out = ClusterSim::try_new_with_source(
        experiment_system(NODES),
        source(horizon),
        &mut policy,
        // Tracing off for the long run: the ring would just rotate.
        {
            let mut c = config(horizon);
            c.trace = TraceConfig::default();
            c
        },
    )
    .expect("valid streaming config")
    .run();
    let wall = t0.elapsed().as_secs_f64();
    let rss_after_full = peak_rss_bytes();
    let ratio = rss_after_full as f64 / (rss_after_prefix as f64).max(1.0);
    eprintln!(
        "full: {} jobs completed in {wall:.1} s wall; peak RSS {:.1} MiB \
         vs {:.1} MiB after the {PREFIX_JOBS}-job phase -> {ratio:.2}x (bound {RSS_BOUND}x)",
        out.completed,
        rss_after_full as f64 / (1024.0 * 1024.0),
        rss_after_prefix as f64 / (1024.0 * 1024.0),
    );
    assert!(
        out.completed > FULL_JOBS / 2,
        "million-job run completed implausibly few jobs: {}",
        out.completed
    );
    assert!(
        rss_after_prefix == 0 || ratio <= RSS_BOUND,
        "streaming memory is not bounded: {ratio:.2}x peak-RSS growth from \
         {PREFIX_JOBS} to {FULL_JOBS} jobs (bound {RSS_BOUND}x)"
    );
    println!("streaming smoke passed");
}
