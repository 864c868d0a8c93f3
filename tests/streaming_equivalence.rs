//! Streaming-path equivalence properties for SWF parsing.
//!
//! A trace pulled job-by-job through the streaming [`SwfStreamSource`]
//! yields exactly the jobs the materialized `read_swf` parser yields,
//! both for round-tripped generated workloads and for adversarial
//! hand-built traces: `-1` missing fields, cancelled lines (non-positive
//! runtime or node count), `; App:` tag-table lines interleaved between
//! job lines, plain comments, and blank lines. That an engine fed by a
//! lazy generator source replays the materialized engine byte for byte,
//! straight and across crashes, is checked by
//! `tests/determinism_matrix.rs`.
//!
//! [`SwfStreamSource`]: epa_workload::source::SwfStreamSource

use epa_simcore::time::SimTime;
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};
use epa_workload::job::Job;
use epa_workload::source::{collect_source, swf_text_source, JobSource};
use epa_workload::trace::{read_swf, write_swf};
use proptest::prelude::*;

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
