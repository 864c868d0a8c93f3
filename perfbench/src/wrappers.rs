//! Pass-through timing wrappers around the engine's pluggable layers:
//! the scheduling policy, the job source, and the power predictor.
//!
//! Each wrapper forwards every call unchanged and only adds time and
//! work counts to shared atomic tallies, so a wrapped run produces the
//! same outcome, trace, and snapshot bytes as an unwrapped one. The
//! policy wrapper forwards `name()` verbatim: the policy name enters the
//! snapshot fingerprint.

use epa_predict::history::HistoryStore;
use epa_predict::predictors::PowerPredictor;
use epa_sched::view::{Decision, Policy, SchedView};
use epa_simcore::snap::{Fingerprint, SnapReader, SnapWriter, SnapshotError};
use epa_workload::job::{Job, JobId};
use epa_workload::source::JobSource;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Calls into one layer and the wall time spent inside them. The
/// counters publish no other data, so relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct Timer {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Timer {
    /// Runs `f`, adding one call and its duration.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Relaxed);
        self.nanos.fetch_add(ns, Relaxed);
        out
    }

    /// Calls timed so far.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Seconds spent inside timed calls.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 * 1e-9
    }
}

/// Scheduling-policy tallies.
#[derive(Debug, Default)]
pub struct PolicyStats {
    /// `schedule` calls and their time.
    pub timer: Timer,
    queue_scanned: AtomicU64,
    starts: AtomicU64,
    nodes_started: AtomicU64,
}

impl PolicyStats {
    /// Queue entries handed to the policy, summed over calls.
    #[must_use]
    pub fn queue_scanned(&self) -> u64 {
        self.queue_scanned.load(Relaxed)
    }

    /// Start decisions returned.
    #[must_use]
    pub fn starts(&self) -> u64 {
        self.starts.load(Relaxed)
    }

    /// Nodes requested by the start decisions (moldable overrides win).
    #[must_use]
    pub fn nodes_started(&self) -> u64 {
        self.nodes_started.load(Relaxed)
    }
}

/// Times a [`Policy`] and counts the queue it scans and the starts it
/// decides.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    stats: Arc<PolicyStats>,
}

impl TimedPolicy {
    /// Wraps `inner`, tallying into `stats`.
    #[must_use]
    pub fn new(inner: Box<dyn Policy>, stats: Arc<PolicyStats>) -> Self {
        TimedPolicy { inner, stats }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision> {
        let inner = &mut self.inner;
        let decisions = self.stats.timer.time(|| inner.schedule(view, queue));
        let mut started: Vec<(JobId, Option<u32>)> = decisions
            .iter()
            .map(|d| match d {
                Decision::Start {
                    job,
                    nodes_override,
                    ..
                } => (*job, *nodes_override),
            })
            .collect();
        started.sort_by_key(|(id, _)| *id);
        let mut nodes = 0u64;
        for job in queue {
            if let Ok(i) = started.binary_search_by_key(&job.id, |(id, _)| *id) {
                nodes += u64::from(started[i].1.unwrap_or(job.nodes));
            }
        }
        self.stats
            .queue_scanned
            .fetch_add(queue.len() as u64, Relaxed);
        self.stats.starts.fetch_add(decisions.len() as u64, Relaxed);
        self.stats.nodes_started.fetch_add(nodes, Relaxed);
        decisions
    }
}

/// Job-source tallies.
#[derive(Debug, Default)]
pub struct SourceStats {
    /// `next_job` pulls and their time.
    pub timer: Timer,
    jobs: AtomicU64,
}

impl SourceStats {
    /// Jobs the source yielded.
    #[must_use]
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Relaxed)
    }
}

/// Times pulls from a [`JobSource`]; every other method forwards.
pub struct TimedSource {
    inner: Box<dyn JobSource>,
    stats: Arc<SourceStats>,
}

impl TimedSource {
    /// Wraps `inner`, tallying into `stats`.
    #[must_use]
    pub fn new(inner: Box<dyn JobSource>, stats: Arc<SourceStats>) -> Self {
        TimedSource { inner, stats }
    }
}

impl JobSource for TimedSource {
    fn next_job(&mut self) -> Option<Job> {
        let inner = &mut self.inner;
        let job = self.stats.timer.time(|| inner.next_job());
        if job.is_some() {
            self.stats.jobs.fetch_add(1, Relaxed);
        }
        job
    }

    fn emitted(&self) -> u64 {
        self.inner.emitted()
    }

    fn total_hint(&self) -> Option<u64> {
        self.inner.total_hint()
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        self.inner.fingerprint(fp);
    }

    fn snapshot_cursor(&self, w: &mut SnapWriter) {
        self.inner.snapshot_cursor(w);
    }

    fn restore_cursor(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_cursor(r)
    }
}

/// Times a [`PowerPredictor`].
pub struct TimedPredictor {
    inner: Box<dyn PowerPredictor>,
    timer: Arc<Timer>,
}

impl TimedPredictor {
    /// Wraps `inner`, tallying into `timer`.
    #[must_use]
    pub fn new(inner: Box<dyn PowerPredictor>, timer: Arc<Timer>) -> Self {
        TimedPredictor { inner, timer }
    }
}

impl PowerPredictor for TimedPredictor {
    fn predict_watts_per_node(
        &self,
        job: &Job,
        history: &HistoryStore,
        ambient_c: f64,
    ) -> Option<f64> {
        self.timer
            .time(|| self.inner.predict_watts_per_node(job, history, ambient_c))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The tallies of every wrapper in one traced run.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    /// Scheduling policy.
    pub policy: Arc<PolicyStats>,
    /// Job source.
    pub source: Arc<SourceStats>,
    /// Power predictor.
    pub predict: Arc<Timer>,
}
