//! Standard Workload Format (SWF) compatible traces.
//!
//! The Parallel Workloads Archive's SWF is the lingua franca for job
//! traces (one job per line, 18 whitespace-separated fields, `;` header
//! comments). We write the fields the simulator knows and read them back;
//! unknown/inapplicable fields carry the SWF convention value `-1`.
//!
//! Field mapping (1-based SWF columns):
//! 1 job id · 2 submit (s) · 4 run time (s) · 5 allocated processors
//! (nodes here) · 8 requested processors · 9 requested time (s) ·
//! 12 user id · 14 application id (index into a tag table emitted in the
//! header) — all others `-1`.

use crate::error::WorkloadError;
use crate::job::{AppProfile, Job, JobId};
use epa_simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Parses one SWF line. Comments (including `; App:` tag-table lines,
/// which update `tag_table`), blank lines, and cancelled jobs yield
/// `Ok(None)`; a job line yields the decoded job. The single-pass tag
/// table matches [`read_swf`]'s historical semantics: a job line sees
/// only the `; App:` entries that preceded it.
pub(crate) fn parse_swf_line(
    lineno: usize,
    line: &str,
    tag_table: &mut BTreeMap<usize, String>,
) -> Result<Option<Job>, WorkloadError> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    if let Some(rest) = line.strip_prefix(';') {
        let rest = rest.trim();
        if let Some(app) = rest.strip_prefix("App:") {
            let mut it = app.split_whitespace();
            if let (Some(id), Some(tag)) = (it.next(), it.next()) {
                if let Ok(id) = id.parse::<usize>() {
                    tag_table.insert(id, tag.to_owned());
                }
            }
        }
        return Ok(None);
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 14 {
        return Err(WorkloadError::Parse {
            line: lineno + 1,
            message: format!("expected >=14 SWF fields, got {}", fields.len()),
        });
    }
    let parse_i64 = |idx: usize| -> Result<i64, WorkloadError> {
        fields[idx].parse().map_err(|_| WorkloadError::Parse {
            line: lineno + 1,
            message: format!("field {} not an integer: '{}'", idx + 1, fields[idx]),
        })
    };
    let id = parse_i64(0)?;
    let submit = parse_i64(1)?;
    let runtime = parse_i64(3)?;
    let alloc = parse_i64(4)?;
    let req_procs = parse_i64(7)?;
    let req_time = parse_i64(8)?;
    let user = parse_i64(11)?;
    let app_id = parse_i64(13)?;

    let (nodes_idx, nodes) = if alloc > 0 {
        (4, alloc)
    } else {
        (7, req_procs)
    };
    if nodes <= 0 || runtime <= 0 {
        // SWF traces carry cancelled jobs with -1; skip them.
        return Ok(None);
    }
    // Sizes and user ids are u32 in the job model; a wider value is a
    // malformed trace, not something to wrap into a different job.
    let to_u32 = |idx: usize, v: i64| -> Result<u32, WorkloadError> {
        u32::try_from(v).map_err(|_| WorkloadError::Parse {
            line: lineno + 1,
            message: format!("field {} out of range for u32: {v}", idx + 1),
        })
    };
    let nodes = to_u32(nodes_idx, nodes)?;
    let user = to_u32(11, user.max(0))?;
    let tag = tag_table
        .get(&(app_id.max(0) as usize))
        .cloned()
        .unwrap_or_else(|| format!("app{}", app_id.max(0)));
    let est = if req_time > 0 { req_time } else { runtime };
    Ok(Some(Job {
        id: JobId(id.max(0) as u64),
        user,
        app: AppProfile::balanced(&tag),
        submit: SimTime::from_secs(submit.max(0) as f64),
        nodes,
        walltime_estimate: SimDuration::from_secs(est.max(runtime) as f64),
        base_runtime: SimDuration::from_secs(runtime as f64),
        priority: 0,
        moldable: None,
    }))
}

/// Streaming SWF writer: header up front, one [`SwfWriter::push_job`]
/// per job, `; App:` tag-table lines emitted the first time each tag
/// appears. Export of a streaming run never materializes the job list;
/// [`write_swf`] is a convenience wrapper over this.
#[derive(Debug)]
pub struct SwfWriter<W: Write> {
    out: W,
    app_ids: BTreeMap<String, usize>,
}

impl<W: Write> SwfWriter<W> {
    /// Creates a writer and emits the SWF header comments.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"; SWF trace written by epa-workload\n; Version: 2.2\n")?;
        Ok(SwfWriter {
            out,
            app_ids: BTreeMap::new(),
        })
    }

    /// Appends one job line (preceded by its `; App:` table line when
    /// the tag is new).
    pub fn push_job(&mut self, j: &Job) -> io::Result<()> {
        let app = match self.app_ids.get(j.app.tag.as_str()) {
            Some(&id) => id,
            None => {
                let id = self.app_ids.len();
                writeln!(self.out, "; App: {id} {}", j.app.tag)?;
                self.app_ids.insert(j.app.tag.clone(), id);
                id
            }
        };
        // Columns:       1   2  3   4   5  6  7   8   9 10  11  12 13  14 15 16 17 18
        writeln!(
            self.out,
            "{} {} -1 {} {} -1 -1 {} {} -1 -1 {} -1 {} -1 -1 -1 -1",
            j.id.0,
            j.submit.as_secs().round() as i64,
            j.base_runtime.as_secs().round() as i64,
            j.nodes,
            j.nodes,
            j.walltime_estimate.as_secs().round() as i64,
            j.user,
            app,
        )
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Serializes jobs to SWF text (a materialized convenience over
/// [`SwfWriter`]).
#[must_use]
pub fn write_swf(jobs: &[Job]) -> String {
    let mut buf: Vec<u8> = Vec::new();
    {
        let mut w = SwfWriter::new(&mut buf).expect("write to Vec cannot fail");
        for j in jobs {
            w.push_job(j).expect("write to Vec cannot fail");
        }
        let _ = w.finish().expect("flush to Vec cannot fail");
    }
    String::from_utf8(buf).expect("SWF output is ASCII")
}

/// Parses an SWF text back into jobs. Application tags are recovered from
/// the `; App:` header lines when present; otherwise tags are `app<N>`.
/// A job id that repeats is a parse error naming both lines: the engine
/// keys every job by its id.
pub fn read_swf(text: &str) -> Result<Vec<Job>, WorkloadError> {
    let mut tag_table: BTreeMap<usize, String> = BTreeMap::new();
    let mut first_line: BTreeMap<JobId, usize> = BTreeMap::new();
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if let Some(job) = parse_swf_line(lineno, line, &mut tag_table)? {
            if let Some(first) = first_line.insert(job.id, lineno + 1) {
                return Err(WorkloadError::Parse {
                    line: lineno + 1,
                    message: format!("job id {} repeats line {first}", job.id.0),
                });
            }
            jobs.push(job);
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadGenerator, WorkloadParams};
    use crate::job::JobBuilder;

    #[test]
    fn roundtrip_preserves_scheduling_fields() {
        let params = WorkloadParams::typical(256, 11);
        let jobs = WorkloadGenerator::new(params).generate(SimTime::from_days(2.0), 0);
        let text = write_swf(&jobs);
        let back = read_swf(&text).unwrap();
        assert_eq!(back.len(), jobs.len());
        for (a, b) in jobs.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.user, b.user);
            assert_eq!(a.app.tag, b.app.tag);
            assert!((a.submit.as_secs() - b.submit.as_secs()).abs() < 1.0);
            assert!((a.base_runtime.as_secs() - b.base_runtime.as_secs()).abs() < 1.0);
            assert!(
                (a.walltime_estimate.as_secs() - b.walltime_estimate.as_secs()).abs() < 1.0
                    || b.walltime_estimate >= b.base_runtime
            );
        }
    }

    #[test]
    fn a_repeated_job_id_is_an_error_naming_both_lines() {
        let jobs = [0.0, 60.0].map(|submit| {
            JobBuilder::new(7)
                .nodes(2)
                .submit(SimTime::from_secs(submit))
                .build()
        });
        let text = write_swf(&jobs);
        let lines: Vec<usize> = (text.lines().enumerate())
            .filter(|(_, l)| l.starts_with("7 "))
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(lines.len(), 2, "{text}");
        match read_swf(&text) {
            Err(WorkloadError::Parse { line, message }) => {
                assert_eq!(line, lines[1]);
                assert!(message.contains(&format!("line {}", lines[0])), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn header_carries_app_tags() {
        let jobs = vec![JobBuilder::new(1).build()];
        let text = write_swf(&jobs);
        assert!(text.contains("; App: 0 generic"));
    }

    #[test]
    fn skips_cancelled_jobs() {
        let text = "; header\n1 100 -1 -1 -1 -1 -1 4 3600 -1 -1 7 -1 0 -1 -1 -1 -1\n";
        let jobs = read_swf(text).unwrap();
        assert!(jobs.is_empty(), "runtime -1 should be skipped");
    }

    #[test]
    fn parses_minimal_line() {
        let text = "5 250 -1 1200 16 -1 -1 16 7200 -1 -1 3 -1 0 -1 -1 -1 -1\n";
        let jobs = read_swf(text).unwrap();
        assert_eq!(jobs.len(), 1);
        let j = &jobs[0];
        assert_eq!(j.id, JobId(5));
        assert_eq!(j.nodes, 16);
        assert_eq!(j.user, 3);
        assert_eq!(j.base_runtime.as_secs(), 1200.0);
        assert_eq!(j.walltime_estimate.as_secs(), 7200.0);
    }

    #[test]
    fn short_line_is_error() {
        let err = read_swf("1 2 3\n").unwrap_err();
        assert!(matches!(err, WorkloadError::Parse { line: 1, .. }));
    }

    #[test]
    fn garbage_field_is_error() {
        let text = "x 250 -1 1200 16 -1 -1 16 7200 -1 -1 3 -1 0 -1 -1 -1 -1\n";
        assert!(read_swf(text).is_err());
    }

    #[test]
    fn streaming_writer_emits_tags_on_first_use() {
        let a = JobBuilder::new(0)
            .app(AppProfile::compute_bound("hpl"))
            .build();
        let b = JobBuilder::new(1).build(); // "generic"
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut w = SwfWriter::new(&mut buf).unwrap();
            w.push_job(&a).unwrap();
            w.push_job(&b).unwrap();
            let _ = w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("; App: 0 hpl"));
        assert!(text.contains("; App: 1 generic"));
        let back = read_swf(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].app.tag, "hpl");
        assert_eq!(back[1].app.tag, "generic");
    }

    #[test]
    fn streaming_writer_matches_write_swf() {
        let params = WorkloadParams::typical(128, 21);
        let jobs = WorkloadGenerator::new(params).generate(SimTime::from_days(1.0), 0);
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut w = SwfWriter::new(&mut buf).unwrap();
            for j in &jobs {
                w.push_job(j).unwrap();
            }
            let _ = w.finish().unwrap();
        }
        assert_eq!(String::from_utf8(buf).unwrap(), write_swf(&jobs));
    }

    #[test]
    fn oversized_node_count_is_error_not_wrapped() {
        // 2^32 + 1 nodes used to wrap to a valid 1-node job, 2^32 to 0.
        for nodes in ["4294967297", "4294967296"] {
            let text = format!("1 0 -1 60 {nodes} -1 -1 -1 60 -1 -1 0 -1 0 -1 -1 -1 -1\n");
            let err = read_swf(&text).unwrap_err();
            assert!(
                matches!(err, WorkloadError::Parse { line: 1, .. }),
                "{nodes}: {err}"
            );
        }
        // Requested processors (field 8) stand in when field 5 is -1.
        let text = "1 0 -1 60 -1 -1 -1 4294967297 60 -1 -1 0 -1 0 -1 -1 -1 -1\n";
        assert!(matches!(
            read_swf(text),
            Err(WorkloadError::Parse { line: 1, .. })
        ));
        let max = format!(
            "1 0 -1 60 {} -1 -1 -1 60 -1 -1 0 -1 0 -1 -1 -1 -1\n",
            u32::MAX
        );
        assert_eq!(read_swf(&max).unwrap()[0].nodes, u32::MAX);
    }

    #[test]
    fn oversized_user_id_is_error_not_wrapped() {
        let text = "; c\n1 0 -1 60 4 -1 -1 4 60 -1 -1 4294967299 -1 0 -1 -1 -1 -1\n";
        let err = read_swf(text).unwrap_err();
        assert!(matches!(err, WorkloadError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn estimate_never_below_runtime_after_parse() {
        // req_time (field 9) below runtime gets clamped up.
        let text = "1 0 -1 5000 8 -1 -1 8 100 -1 -1 0 -1 0 -1 -1 -1 -1\n";
        let jobs = read_swf(text).unwrap();
        assert!(jobs[0].walltime_estimate >= jobs[0].base_runtime);
    }
}
