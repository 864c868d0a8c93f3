//! Streaming job sources.
//!
//! Million-job runs cannot afford a materialized `Vec<Job>`: a
//! [`JobSource`] hands the engine one arrival at a time, in
//! non-decreasing submit order, so peak memory stays flat in the job
//! count. Three implementations cover the workload paths the repo
//! already has:
//!
//! - [`MaterializedSource`] — an owned `Vec<Job>` (the pre-existing
//!   path), stable-sorted by submit time so arbitrary input order is
//!   legal;
//! - [`SwfStreamSource`] — lazy line-at-a-time parsing of a Standard
//!   Workload Format trace from any [`BufRead`], sharing the exact
//!   parser of [`crate::trace::read_swf`];
//! - [`LazyGeneratorSource`] — on-demand synthesis from
//!   [`WorkloadParams`], byte-identical (jobs, ids, order) to
//!   [`WorkloadGenerator::generate`] without ever holding more than one
//!   campaign's reorder buffer.
//!
//! [`WorkloadGenerator::generate`]: crate::generator::WorkloadGenerator::generate
//!
//! # Contract
//!
//! `next_job` must yield jobs with non-decreasing `submit` and must keep
//! returning `None` once exhausted. `fingerprint` must identify the
//! workload independently of the cursor position (the engine folds it
//! into its config fingerprint, which is checked on snapshot resume).
//! `snapshot_cursor` / `restore_cursor` serialize the read position; the
//! default encoding is the emitted-job count with a replay-based
//! restore, which sources with cheap random access (or expensive
//! replay) override.

use crate::arrival::ArrivalProcess;
use crate::generator::WorkloadParams;
use crate::job::{AppProfile, Job, JobId};
use crate::moldable::MoldableConfig;
use crate::trace::parse_swf_line;
use epa_simcore::rng::SimRng;
use epa_simcore::snap::{Fingerprint, SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::io::BufRead;

/// A pull-based stream of jobs in non-decreasing submit order.
pub trait JobSource: Send {
    /// The next job, or `None` when the source is exhausted.
    fn next_job(&mut self) -> Option<Job>;

    /// Number of jobs emitted so far.
    fn emitted(&self) -> u64;

    /// Total jobs this source will emit, when cheaply known.
    fn total_hint(&self) -> Option<u64> {
        None
    }

    /// Folds a cursor-independent identity of the workload into `fp`.
    fn fingerprint(&self, fp: &mut Fingerprint);

    /// Serializes the read cursor. The default stores the emitted count.
    fn snapshot_cursor(&self, w: &mut SnapWriter) {
        w.u64(self.emitted());
    }

    /// Restores the cursor written by
    /// [`JobSource::snapshot_cursor`] onto a freshly-constructed source.
    /// The default replays `next_job` up to the stored count.
    fn restore_cursor(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let target = r.u64()?;
        if self.emitted() > target {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "source cursor {} already past snapshot cursor {target}",
                    self.emitted()
                ),
            });
        }
        while self.emitted() < target {
            if self.next_job().is_none() {
                return Err(SnapshotError::Corrupt {
                    detail: format!(
                        "source exhausted at {} jobs, snapshot cursor is {target}",
                        self.emitted()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The materialized path: an owned job list, stable-sorted by submit
/// time at construction (ties keep input order), with an O(1) cursor.
#[derive(Debug, Clone)]
pub struct MaterializedSource {
    jobs: Vec<Job>,
    cursor: usize,
}

impl MaterializedSource {
    /// Takes ownership of `jobs`; input order among equal submit times
    /// is preserved (stable sort).
    #[must_use]
    pub fn new(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| j.submit);
        MaterializedSource { jobs, cursor: 0 }
    }

    /// The sorted job list.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }
}

impl JobSource for MaterializedSource {
    fn next_job(&mut self) -> Option<Job> {
        let job = self.jobs.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(job)
    }

    fn emitted(&self) -> u64 {
        self.cursor as u64
    }

    fn total_hint(&self) -> Option<u64> {
        Some(self.jobs.len() as u64)
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.u64(self.jobs.len() as u64);
        for j in &self.jobs {
            fp.u64(j.id.0);
            fp.f64(j.submit.as_secs());
            fp.u64(u64::from(j.nodes));
            fp.u64(i64::from(j.priority) as u64);
            fp.f64(j.base_runtime.as_secs());
            fp.f64(j.walltime_estimate.as_secs());
            fp.str(&j.app.tag);
        }
    }

    fn restore_cursor(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let target = r.u64()?;
        if target > self.jobs.len() as u64 {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "snapshot cursor {target} exceeds workload of {} jobs",
                    self.jobs.len()
                ),
            });
        }
        self.cursor = target as usize;
        Ok(())
    }
}

/// Lazy SWF trace reader: parses one line per [`JobSource::next_job`]
/// call from any [`BufRead`], so a multi-gigabyte archive trace streams
/// through in constant memory. Uses the exact single-pass parser of
/// [`crate::trace::read_swf`], including the incremental `; App:` tag
/// table and cancelled-job skipping.
///
/// The `label` names the trace (e.g. its path) and is the workload's
/// snapshot-resume identity: resuming a snapshotted run requires a
/// fresh reader over the *same* trace under the same label.
#[derive(Debug)]
pub struct SwfStreamSource<R> {
    reader: R,
    label: String,
    line_buf: String,
    lineno: usize,
    tag_table: BTreeMap<usize, String>,
    emitted: u64,
    done: bool,
}

impl<R: BufRead> SwfStreamSource<R> {
    /// Wraps a buffered reader over SWF text.
    #[must_use]
    pub fn new(reader: R, label: &str) -> Self {
        SwfStreamSource {
            reader,
            label: label.to_owned(),
            line_buf: String::new(),
            lineno: 0,
            tag_table: BTreeMap::new(),
            emitted: 0,
            done: false,
        }
    }

    /// The next job, surfacing parse and I/O failures as typed errors
    /// ([`JobSource::next_job`] panics on them instead).
    pub fn try_next(&mut self) -> Result<Option<Job>, crate::error::WorkloadError> {
        if self.done {
            return Ok(None);
        }
        loop {
            self.line_buf.clear();
            let n = self.reader.read_line(&mut self.line_buf).map_err(|e| {
                crate::error::WorkloadError::Parse {
                    line: self.lineno + 1,
                    message: format!("read failed: {e}"),
                }
            })?;
            if n == 0 {
                self.done = true;
                return Ok(None);
            }
            let lineno = self.lineno;
            self.lineno += 1;
            if let Some(job) = parse_swf_line(lineno, &self.line_buf, &mut self.tag_table)? {
                self.emitted += 1;
                return Ok(Some(job));
            }
        }
    }
}

impl<R: BufRead + Send> JobSource for SwfStreamSource<R> {
    /// # Panics
    /// Panics on a malformed line or reader failure; use
    /// [`SwfStreamSource::try_next`] to handle those as errors (e.g. in
    /// a validation pre-pass).
    fn next_job(&mut self) -> Option<Job> {
        self.try_next().expect("SWF stream")
    }

    fn emitted(&self) -> u64 {
        self.emitted
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.str("swf-stream");
        fp.str(&self.label);
    }
}

/// Builds a streaming source over in-memory SWF text.
#[must_use]
pub fn swf_text_source(text: String, label: &str) -> SwfStreamSource<std::io::Cursor<String>> {
    SwfStreamSource::new(std::io::Cursor::new(text), label)
}

/// Unbounded lazy workload synthesis: draws arrivals by incremental
/// Lewis–Shedler thinning and job attributes from the same substreams,
/// in the same order, as [`WorkloadGenerator::generate`] — collecting
/// this source yields a byte-identical job list (including the dense
/// post-sort ids) while holding only a small campaign reorder buffer.
///
/// Campaign expansion staggers replicas past later arrivals;
/// [`WorkloadGenerator::generate`] fixes that with a global sort. Here a
/// `(submit, generation-seq)` keyed buffer is flushed exactly when no
/// future arrival can precede its minimum, reproducing the sorted order
/// online. Ids are assigned densely at emission.
///
/// [`WorkloadGenerator::generate`]: crate::generator::WorkloadGenerator::generate
#[derive(Debug)]
pub struct LazyGeneratorSource {
    params: WorkloadParams,
    horizon: SimTime,
    first_id: u64,
    lambda_max: f64,
    weights: Vec<f64>,
    arr_rng: SimRng,
    attr_rng: SimRng,
    /// Current envelope-process time of the thinning loop.
    t: SimTime,
    arrivals_done: bool,
    /// The next accepted raw arrival, drawn but not yet expanded.
    next_arrival: Option<SimTime>,
    /// Reorder buffer over `(submit, generation seq)` — the exact sort
    /// key `generate` uses (pre-sort ids increase in generation order).
    buffer: BTreeMap<(SimTime, u64), Job>,
    gen_seq: u64,
    emitted: u64,
}

impl LazyGeneratorSource {
    /// Creates a lazy source equivalent to
    /// `WorkloadGenerator::new(params).generate(horizon, first_id)`.
    #[must_use]
    pub fn new(params: WorkloadParams, horizon: SimTime, first_id: u64) -> Self {
        let root = SimRng::new(params.seed);
        let arr_rng = root.stream("arrivals");
        let attr_rng = root.stream("attributes");
        let lambda_max = params.arrivals.peak_intensity();
        let weights: Vec<f64> = params.app_mix.iter().map(|(_, w)| *w).collect();
        let mut src = LazyGeneratorSource {
            params,
            horizon,
            first_id,
            lambda_max,
            weights,
            arr_rng,
            attr_rng,
            t: SimTime::ZERO,
            arrivals_done: lambda_max <= 0.0,
            next_arrival: None,
            buffer: BTreeMap::new(),
            gen_seq: 0,
            emitted: 0,
        };
        src.next_arrival = src.pull_arrival();
        src
    }

    /// The workload parameters.
    #[must_use]
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// One accepted arrival from the thinning loop — draw-for-draw the
    /// loop body of [`ArrivalProcess::generate`].
    fn pull_arrival(&mut self) -> Option<SimTime> {
        if self.arrivals_done {
            return None;
        }
        loop {
            let gap_hours = self.arr_rng.exponential(self.lambda_max);
            self.t += SimDuration::from_hours(gap_hours);
            if self.t >= self.horizon {
                self.arrivals_done = true;
                return None;
            }
            if self.arr_rng.uniform() < self.params.arrivals.intensity(self.t) / self.lambda_max {
                return Some(self.t);
            }
        }
    }

    /// Expands one arrival into its (possibly campaign) batch — the
    /// per-arrival body of
    /// [`WorkloadGenerator::generate`](crate::generator::WorkloadGenerator::generate), same
    /// attribute-stream draw order. Ids are placeholders until emission.
    fn expand(&mut self, submit: SimTime) {
        let nodes = self.params.sizes.sample(&mut self.attr_rng);
        let runtime = self.params.runtimes.sample(&mut self.attr_rng);
        let estimate = self.params.runtimes.sample_estimate(
            runtime,
            self.params.accurate_estimate_fraction,
            self.params.overestimate_mean,
            &mut self.attr_rng,
        );
        let app = if self.weights.is_empty() {
            AppProfile::balanced("generic")
        } else {
            self.params.app_mix[self.attr_rng.choose_weighted(&self.weights)]
                .0
                .clone()
        };
        let moldable = if self.attr_rng.bernoulli(self.params.moldable_fraction) && nodes > 1 {
            Some(MoldableConfig::new(
                (nodes / 4).max(1),
                nodes.saturating_mul(2).min(self.params.sizes.max_nodes),
                self.attr_rng.uniform_range(0.02, 0.15),
            ))
        } else {
            None
        };
        let user = self
            .attr_rng
            .uniform_usize(0, self.params.users.max(1) as usize) as u32;
        let seed_job = Job {
            id: JobId(0),
            user,
            app,
            submit,
            nodes,
            walltime_estimate: estimate,
            base_runtime: runtime,
            priority: 0,
            moldable,
        };
        let replicas = if self
            .attr_rng
            .bernoulli(self.params.campaign_probability.clamp(0.0, 1.0))
        {
            let (lo, hi) = self.params.campaign_size;
            let hi = hi.max(lo).max(1);
            self.attr_rng
                .uniform_usize(lo.max(1) as usize, hi as usize + 1)
        } else {
            1
        };
        for r in 0..replicas {
            let mut j = seed_job.clone();
            j.submit = submit + SimDuration::from_secs(r as f64 * 2.0);
            if r > 0 {
                let jitter = self.attr_rng.uniform_range(0.9, 1.1);
                j.base_runtime = SimDuration::from_secs(seed_job.base_runtime.as_secs() * jitter);
                if j.walltime_estimate < j.base_runtime {
                    j.walltime_estimate = j.base_runtime;
                }
            }
            self.buffer.insert((j.submit, self.gen_seq), j);
            self.gen_seq += 1;
        }
    }
}

impl JobSource for LazyGeneratorSource {
    fn next_job(&mut self) -> Option<Job> {
        loop {
            if let Some((&key, _)) = self.buffer.iter().next() {
                // Safe to emit once no undrawn arrival can precede it:
                // every future job's submit is >= the next raw arrival,
                // and ties lose to the buffer's smaller generation seq.
                let ready = match self.next_arrival {
                    Some(na) => key.0 <= na,
                    None => true,
                };
                if ready {
                    let mut job = self.buffer.remove(&key).expect("key just observed");
                    job.id = JobId(self.first_id + self.emitted);
                    self.emitted += 1;
                    return Some(job);
                }
            } else if self.next_arrival.is_none() {
                return None;
            }
            let na = self
                .next_arrival
                .take()
                .expect("buffer not ready => arrival pending");
            self.expand(na);
            self.next_arrival = self.pull_arrival();
        }
    }

    fn emitted(&self) -> u64 {
        self.emitted
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.str("lazy-generator");
        let p = &self.params;
        match &p.arrivals {
            ArrivalProcess::Poisson { rate_per_hour } => {
                fp.str("poisson").f64(*rate_per_hour);
            }
            ArrivalProcess::DiurnalPoisson {
                peak_rate_per_hour,
                night_fraction,
                weekend_fraction,
            } => {
                fp.str("diurnal")
                    .f64(*peak_rate_per_hour)
                    .f64(*night_fraction)
                    .f64(*weekend_fraction);
            }
        }
        fp.u64(u64::from(p.sizes.min_nodes))
            .u64(u64::from(p.sizes.max_nodes))
            .f64(p.sizes.pow2_bias)
            .f64(p.sizes.capability_fraction);
        fp.f64(p.runtimes.median.as_secs())
            .f64(p.runtimes.sigma)
            .f64(p.runtimes.min.as_secs())
            .f64(p.runtimes.max.as_secs());
        fp.u64(u64::from(p.users))
            .f64(p.accurate_estimate_fraction)
            .f64(p.overestimate_mean);
        fp.u64(p.app_mix.len() as u64);
        for (app, w) in &p.app_mix {
            fp.str(&app.tag).f64(*w);
            fp.u64(app.phases.len() as u64);
            for ph in &app.phases {
                fp.f64(ph.weight).f64(ph.cpu_boundness).f64(ph.utilization);
            }
        }
        fp.f64(p.moldable_fraction)
            .f64(p.campaign_probability)
            .u64(u64::from(p.campaign_size.0))
            .u64(u64::from(p.campaign_size.1))
            .u64(p.seed);
        fp.f64(self.horizon.as_secs()).u64(self.first_id);
    }

    /// Full-state cursor: RNG word positions, thinning clock, and the
    /// reorder buffer — O(buffer) to restore, no replay of the stream.
    fn snapshot_cursor(&self, w: &mut SnapWriter) {
        w.u64(self.emitted);
        let (seed, pos) = self.arr_rng.snapshot_state();
        w.u64(seed);
        w.u64(pos);
        let (seed, pos) = self.attr_rng.snapshot_state();
        w.u64(seed);
        w.u64(pos);
        w.f64(self.t.as_secs());
        w.bool(self.arrivals_done);
        w.opt(self.next_arrival.as_ref(), |w, t| w.f64(t.as_secs()));
        w.u64(self.gen_seq);
        let entries: Vec<(&(SimTime, u64), &Job)> = self.buffer.iter().collect();
        w.seq(&entries, |w, (&(t, seq), job)| {
            w.f64(t.as_secs());
            w.u64(seq);
            job.snapshot_into(w);
        });
    }

    fn restore_cursor(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.emitted = r.u64()?;
        let (seed, pos) = (r.u64()?, r.u64()?);
        self.arr_rng = SimRng::from_state(seed, pos);
        let (seed, pos) = (r.u64()?, r.u64()?);
        self.attr_rng = SimRng::from_state(seed, pos);
        self.t = r.time()?;
        self.arrivals_done = r.bool()?;
        self.next_arrival = r.opt(SnapReader::time)?;
        self.gen_seq = r.u64()?;
        let entries = r.seq(|r| {
            let t = r.time()?;
            let seq = r.u64()?;
            let job = Job::restore_from(r)?;
            Ok(((t, seq), job))
        })?;
        self.buffer = entries.into_iter().collect();
        Ok(())
    }
}

/// Collects a source into a job list (tests, small runs, and the
/// materialized baselines streaming runs are verified against).
#[must_use]
pub fn collect_source(source: &mut dyn JobSource) -> Vec<Job> {
    let mut out = Vec::new();
    while let Some(j) = source.next_job() {
        out.push(j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadGenerator, WorkloadParams};
    use crate::job::JobBuilder;
    use crate::trace::{read_swf, write_swf};

    #[test]
    fn materialized_sorts_stably_and_seeks() {
        let a = JobBuilder::new(0).submit(SimTime::from_secs(50.0)).build();
        let b = JobBuilder::new(1).submit(SimTime::from_secs(10.0)).build();
        let c = JobBuilder::new(2).submit(SimTime::from_secs(10.0)).build();
        let mut src = MaterializedSource::new(vec![a, b, c]);
        assert_eq!(src.total_hint(), Some(3));
        let order: Vec<u64> = collect_source(&mut src).iter().map(|j| j.id.0).collect();
        // Stable: ties at t=10 keep input order (b before c).
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(src.emitted(), 3);
        assert!(src.next_job().is_none());
    }

    #[test]
    fn materialized_cursor_snapshot_roundtrip() {
        let jobs: Vec<Job> = (0..5)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(SimTime::from_secs(i as f64))
                    .build()
            })
            .collect();
        let mut src = MaterializedSource::new(jobs.clone());
        let _ = src.next_job();
        let _ = src.next_job();
        let mut w = SnapWriter::new();
        src.snapshot_cursor(&mut w);
        let bytes = w.finish(1);
        let mut fresh = MaterializedSource::new(jobs);
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        fresh.restore_cursor(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.emitted(), 2);
        assert_eq!(fresh.next_job().unwrap().id, src.next_job().unwrap().id);
    }

    #[test]
    fn swf_stream_matches_read_swf() {
        let params = WorkloadParams::typical(256, 17);
        let jobs = WorkloadGenerator::new(params).generate(SimTime::from_days(2.0), 0);
        let text = write_swf(&jobs);
        let materialized = read_swf(&text).unwrap();
        let mut src = swf_text_source(text, "test");
        let streamed = collect_source(&mut src);
        assert_eq!(streamed, materialized);
        assert_eq!(src.emitted(), materialized.len() as u64);
    }

    #[test]
    fn swf_stream_replay_restore() {
        let params = WorkloadParams::typical(64, 3);
        let jobs = WorkloadGenerator::new(params).generate(SimTime::from_days(1.0), 0);
        let text = write_swf(&jobs);
        let mut src = swf_text_source(text.clone(), "t");
        for _ in 0..3 {
            let _ = src.next_job();
        }
        let mut w = SnapWriter::new();
        src.snapshot_cursor(&mut w);
        let bytes = w.finish(1);
        let mut fresh = swf_text_source(text, "t");
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        fresh.restore_cursor(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(collect_source(&mut fresh), collect_source(&mut src));
    }

    #[test]
    fn swf_stream_parse_error_is_typed() {
        let mut src = swf_text_source("1 2 3\n".to_owned(), "bad");
        assert!(src.try_next().is_err());
    }

    #[test]
    fn swf_stream_rejects_oversized_fields() {
        let ok = "1 0 -1 60 4 -1 -1 4 60 -1 -1 0 -1 0 -1 -1 -1 -1\n";
        for bad in [
            "2 0 -1 60 4294967297 -1 -1 4 60 -1 -1 0 -1 0 -1 -1 -1 -1\n",
            "2 0 -1 60 4 -1 -1 4 60 -1 -1 4294967296 -1 0 -1 -1 -1 -1\n",
        ] {
            let mut src = swf_text_source(format!("{ok}{bad}"), "big");
            assert_eq!(src.try_next().unwrap().map(|j| j.nodes), Some(4));
            let err = src.try_next().unwrap_err();
            assert!(
                matches!(err, crate::error::WorkloadError::Parse { line: 2, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn lazy_generator_matches_generate() {
        for seed in [1u64, 7, 42] {
            let params = WorkloadParams::typical(256, seed);
            let horizon = SimTime::from_days(3.0);
            let expected = WorkloadGenerator::new(params.clone()).generate(horizon, 5);
            let mut src = LazyGeneratorSource::new(params, horizon, 5);
            let got = collect_source(&mut src);
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn lazy_generator_matches_generate_with_heavy_campaigns() {
        let mut params = WorkloadParams::typical(128, 9);
        params.campaign_probability = 0.5;
        params.campaign_size = (4, 8);
        let horizon = SimTime::from_days(2.0);
        let expected = WorkloadGenerator::new(params.clone()).generate(horizon, 0);
        let mut src = LazyGeneratorSource::new(params, horizon, 0);
        assert_eq!(collect_source(&mut src), expected);
    }

    #[test]
    fn lazy_generator_cursor_snapshot_roundtrip() {
        let params = WorkloadParams::typical(128, 11);
        let horizon = SimTime::from_days(2.0);
        let mut src = LazyGeneratorSource::new(params.clone(), horizon, 0);
        for _ in 0..25 {
            let _ = src.next_job();
        }
        let mut w = SnapWriter::new();
        src.snapshot_cursor(&mut w);
        let bytes = w.finish(1);
        let mut fresh = LazyGeneratorSource::new(params, horizon, 0);
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        fresh.restore_cursor(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.emitted(), 25);
        assert_eq!(collect_source(&mut fresh), collect_source(&mut src));
    }

    #[test]
    fn lazy_generator_fingerprint_distinguishes_seeds() {
        let horizon = SimTime::from_days(1.0);
        let mut a = Fingerprint::new();
        LazyGeneratorSource::new(WorkloadParams::typical(64, 1), horizon, 0).fingerprint(&mut a);
        let mut b = Fingerprint::new();
        LazyGeneratorSource::new(WorkloadParams::typical(64, 2), horizon, 0).fingerprint(&mut b);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn zero_rate_lazy_source_is_empty() {
        let mut params = WorkloadParams::typical(64, 1);
        params.arrivals = ArrivalProcess::Poisson { rate_per_hour: 0.0 };
        let mut src = LazyGeneratorSource::new(params, SimTime::from_days(1.0), 0);
        assert!(src.next_job().is_none());
        assert_eq!(src.emitted(), 0);
    }
}
