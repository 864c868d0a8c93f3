//! Streaming-path equivalence properties.
//!
//! Two contracts under test:
//!
//! 1. **SWF parsing** — a trace pulled job-by-job through the streaming
//!    [`SwfStreamSource`] yields exactly the jobs the materialized
//!    `read_swf` parser yields, both for round-tripped generated
//!    workloads and for adversarial hand-built traces: `-1` missing
//!    fields, cancelled lines (non-positive runtime or node count),
//!    `; App:` tag-table lines interleaved between job lines, plain
//!    comments, and blank lines.
//! 2. **Engine equivalence** — an engine fed by a
//!    [`LazyGeneratorSource`] is byte-identical (pretty-JSON outcome
//!    plus exported JSONL decision trace) to the materialized engine
//!    over the same horizon, across threads {1, 4},
//!    including a mid-run snapshot/crash/resume of the streaming
//!    engine in every grid cell. This is the small-scale property twin
//!    of the `streaming_smoke` CI binary: proptest varies the workload
//!    seed instead of pinning one.
//!
//! [`SwfStreamSource`]: epa_workload::source::SwfStreamSource
//! [`LazyGeneratorSource`]: epa_workload::source::LazyGeneratorSource

use epa_cluster::node::NodeSpec;
use epa_cluster::system::{System, SystemSpec};
use epa_cluster::topology::Topology;
use epa_obs::{trace_to_jsonl, CategoryMask, TraceConfig};
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::policies::backfill::EasyBackfill;
use epa_simcore::time::SimTime;
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};
use epa_workload::job::Job;
use epa_workload::source::{collect_source, swf_text_source, JobSource, LazyGeneratorSource};
use epa_workload::trace::{read_swf, write_swf};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Part 1: SWF streaming parse == materialized parse.
// ---------------------------------------------------------------------------

/// Parses `text` both ways and asserts the job lists are identical and
/// the streaming cursor agrees with the number of jobs it handed out.
fn assert_swf_paths_agree(text: String) -> Vec<Job> {
    let materialized = read_swf(&text).expect("generated SWF text parses");
    let mut source = swf_text_source(text, "prop");
    let streamed = collect_source(&mut source);
    assert_eq!(source.emitted(), streamed.len() as u64);
    assert_eq!(streamed, materialized);
    materialized
}

/// An SWF integer field that is present or `-1` (missing).
fn maybe(present: std::ops::Range<i64>) -> BoxedStrategy<i64> {
    prop_oneof![Just(-1i64), present].boxed()
}

/// One 18-field SWF job line with the columns this parser reads
/// (id, submit, runtime, allocated procs, requested procs, requested
/// time, user, application id) randomized — any of them possibly `-1`.
/// Lines whose runtime and node count do not both come out positive
/// are cancelled entries both parsers must skip.
fn job_line() -> BoxedStrategy<String> {
    (
        (1u64..10_000, 0i64..100_000, maybe(1..86_400), maybe(1..64)),
        (maybe(1..64), maybe(60..100_000), maybe(0..32), maybe(0..8)),
    )
        .prop_map(
            |((id, submit, runtime, alloc), (req, req_time, user, app))| {
                format!(
                    "{id} {submit} -1 {runtime} {alloc} -1 -1 {req} {req_time} \
                 -1 -1 {user} -1 {app} -1 -1 -1 -1"
                )
            },
        )
        .boxed()
}

/// One line of an adversarial SWF file. Job lines are weighted up so a
/// typical case still parses a few dozen jobs.
fn swf_line() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        Just("; an ordinary comment".to_owned()),
        (0i64..8, 0u32..5).prop_map(|(id, tag)| format!("; App: {id} tag{tag}")),
        job_line(),
        job_line(),
        job_line(),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round trip: a generated workload written with `write_swf` parses
    /// to the same jobs through the streaming and materialized paths.
    #[test]
    fn swf_stream_matches_read_on_roundtripped_workloads(seed in 0u64..1_000_000) {
        let params = WorkloadParams::typical(64, seed);
        let jobs = WorkloadGenerator::new(params).generate(SimTime::from_hours(12.0), 0);
        let parsed = assert_swf_paths_agree(write_swf(&jobs));
        // Cross-check against the writer: every written job survives
        // (ids in order), since the generator never emits cancelled rows.
        assert_eq!(
            parsed.iter().map(|j| j.id).collect::<Vec<_>>(),
            jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
        );
    }

    /// Adversarial traces: random interleavings of blank lines,
    /// comments, `; App:` tag-table entries (which only apply to job
    /// lines *after* them — both parsers are single-pass), and job
    /// lines with `-1` holes and cancelled rows.
    #[test]
    fn swf_stream_matches_read_on_adversarial_traces(
        lines in proptest::collection::vec(swf_line(), 0..60),
        trailing_newline in proptest::bool::ANY,
    ) {
        let mut text = lines.join("\n");
        if trailing_newline {
            text.push('\n');
        }
        assert_swf_paths_agree(text);
    }
}

// ---------------------------------------------------------------------------
// Part 2: lazy-generator engine == materialized engine, across the grid.
// ---------------------------------------------------------------------------

const NODES: u32 = 32;
const HORIZON_HOURS: f64 = 24.0;

fn grid_system() -> System {
    SystemSpec {
        name: "stream-eq-32".into(),
        cabinets: 4,
        nodes_per_cabinet: 8,
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity: 16 },
        peak_tflops: 32.0,
    }
    .build()
}

fn horizon() -> SimTime {
    SimTime::from_hours(HORIZON_HOURS)
}

/// The streaming engine configuration (aggregate-only completions,
/// bounded power trace, no prediction history) with full decision
/// tracing on, applied to *both* sides so outcomes are comparable
/// byte for byte.
fn grid_config(seed: u64) -> EngineConfig {
    let mut config = EngineConfig::new(horizon());
    config.seed = seed;
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
fn run_fingerprint(sim: ClusterSim<'_>) -> (String, String) {
    let (out, bundle) = sim.run_traced();
    let outcome = serde_json::to_string(&out).expect("outcome serializes");
    (outcome, trace_to_jsonl(&bundle.trace))
}

fn materialized_run(seed: u64) -> (String, String) {
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(NODES, seed)).generate(horizon(), 0);
    let mut policy = EasyBackfill;
    run_fingerprint(ClusterSim::new(
        grid_system(),
        jobs,
        &mut policy,
        grid_config(seed),
    ))
}

fn lazy_source(seed: u64) -> Box<LazyGeneratorSource> {
    Box::new(LazyGeneratorSource::new(
        WorkloadParams::typical(NODES, seed),
        horizon(),
        0,
    ))
}

fn streaming_run(seed: u64) -> (String, String) {
    let mut policy = EasyBackfill;
    run_fingerprint(
        ClusterSim::try_new_with_source(
            grid_system(),
            lazy_source(seed),
            &mut policy,
            grid_config(seed),
        )
        .expect("valid streaming config"),
    )
}

/// Streaming run killed at mid-horizon and resumed from the snapshot
/// with a freshly constructed source (the snapshot carries the source
/// cursor, which replays the generator up to the crash point).
fn streaming_resumed_run(seed: u64) -> (String, String) {
    let mut policy = EasyBackfill;
    let mut sim = ClusterSim::try_new_with_source(
        grid_system(),
        lazy_source(seed),
        &mut policy,
        grid_config(seed),
    )
    .expect("valid streaming config");
    let snap = sim.run_until(SimTime::from_secs(horizon().as_secs() / 2.0));
    drop(sim); // the crash
    let mut policy = EasyBackfill;
    run_fingerprint(
        ClusterSim::resume_with_source(
            grid_system(),
            lazy_source(seed),
            &mut policy,
            grid_config(seed),
            &snap,
        )
        .expect("streaming snapshot resumes"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Outcome + trace of the lazy-generator engine match the
    /// materialized engine at every thread count, with and without a
    /// mid-run crash/resume.
    #[test]
    fn lazy_engine_is_byte_identical_across_the_grid(seed in 0u64..1_000_000) {
        let base = rayon::with_num_threads(1, || materialized_run(seed));
        for threads in [1usize, 4] {
            let m = rayon::with_num_threads(threads, || materialized_run(seed));
            let s = rayon::with_num_threads(threads, || streaming_run(seed));
            let r = rayon::with_num_threads(threads, || streaming_resumed_run(seed));
            for (label, got) in
                [("materialized", &m), ("streaming", &s), ("streaming+resume", &r)]
            {
                assert_eq!(
                    got, &base,
                    "{label} run diverged from the 1-thread materialized baseline \
                     at seed {seed}, {threads} threads"
                );
            }
        }
    }
}
