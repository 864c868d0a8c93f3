//! The job table: one owner for every job's lifecycle.
//!
//! A job waits in the priority queue from its arrival, runs from the
//! start that commits it, and departs as a [`CompletedJob`] folded into
//! the completion aggregates; a killed job may come back as a queued
//! continuation (Tokyo Tech's requeue instead of losing the work). Each
//! step is one [`JobTable`] method. Every start takes a token from one
//! counter, and the `Finish` and `PhaseChange` events it schedules carry
//! that token, so an event left behind by a killed start never touches a
//! later start of the same job.
//!
//! The table keeps, and restore checks:
//! - no running id appears twice, and no job is both queued and running;
//! - no running job started after the clock;
//! - the running jobs hold exactly the power budget's live grants, and
//!   every open meter group belongs to exactly one running job, its runs
//!   that job's node spans ([`PowerPlane::check_holders`]).

use crate::power::PowerPlane;
use crate::view::RunningSummary;
use epa_cluster::node::NodeId;
use epa_cluster::nodeset::NodeSet;
use epa_obs::KillReason;
use epa_power::budget::GrantId;
use epa_power::meter::GroupId;
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::job::{Job, JobId};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// One committed start of a job.
pub(crate) struct RunningJob {
    pub(crate) job: Job,
    /// This start's token (see the module docs).
    pub(crate) token: u32,
    pub(crate) nodes: NodeSet,
    pub(crate) start: SimTime,
    /// Scheduler-visible end estimate.
    pub(crate) estimated_end: SimTime,
    pub(crate) watts_per_node: f64,
    pub(crate) killed_at_walltime: bool,
    pub(crate) grant: Option<GrantId>,
    /// Base runtime after any moldable override (progress accounting).
    pub(crate) base_effective: SimDuration,
    /// Physical runtime the job would take uninterrupted, seconds.
    pub(crate) true_run_secs: f64,
    /// Per-node draw in each phase, watts.
    pub(crate) phase_watts: Vec<f64>,
    /// The meter's allocation group for this start: opened at start,
    /// stepped O(1) on each phase change, closed at completion (which
    /// yields the job's energy directly — no per-node walk per phase).
    pub(crate) meter_group: GroupId,
}

impl RunningJob {
    fn snapshot_into(&self, w: &mut SnapWriter) {
        self.job.snapshot_into(w);
        self.nodes.snapshot_into(w);
        w.f64(self.start.as_secs());
        w.f64(self.estimated_end.as_secs());
        w.f64(self.watts_per_node);
        w.bool(self.killed_at_walltime);
        w.opt(self.grant.as_ref(), |w, g| w.u64(g.0));
        w.f64(self.base_effective.as_secs());
        w.f64(self.true_run_secs);
        w.seq(&self.phase_watts, |w, &p| w.f64(p));
        w.u32(self.meter_group.raw());
        w.u32(self.token);
    }

    /// Decodes a running job on a `total`-node machine; its node spans
    /// must be canonical and in range (typed `Corrupt` otherwise).
    fn restore_from(r: &mut SnapReader<'_>, total: u32) -> Result<Self, SnapshotError> {
        Ok(RunningJob {
            job: Job::restore_from(r)?,
            nodes: NodeSet::restore_from(r, total)?,
            start: r.time()?,
            estimated_end: r.time()?,
            watts_per_node: r.f64()?,
            killed_at_walltime: r.bool()?,
            grant: r.opt(|r| Ok(GrantId(r.u64()?)))?,
            base_effective: r.duration()?,
            true_run_secs: r.f64()?,
            phase_watts: r.seq(SnapReader::f64)?,
            meter_group: GroupId::from_raw(r.u32()?),
            token: r.u32()?,
        })
    }

    /// What a policy sees of this job, holding a grant of
    /// `granted_watts`.
    fn summary(&self, granted_watts: Option<f64>) -> RunningSummary {
        RunningSummary {
            id: self.job.id,
            nodes: self.nodes.len(),
            estimated_end: self.estimated_end,
            watts: self.watts_per_node * f64::from(self.nodes.len()),
            granted_watts,
        }
    }
}

/// Completed-job record for metrics.
#[derive(Debug, Clone, Serialize)]
pub struct CompletedJob {
    /// Job id.
    pub id: JobId,
    /// Nodes used.
    pub nodes: u32,
    /// Submit → start wait.
    pub wait_secs: f64,
    /// Actual execution time.
    pub run_secs: f64,
    /// Energy consumed by the job's nodes during execution, joules.
    pub energy_joules: f64,
    /// True when the job hit its walltime limit.
    pub killed_at_walltime: bool,
    /// True when the job was killed by the emergency policy.
    pub killed_by_emergency: bool,
    /// True when the job was killed by a node failure.
    pub killed_by_failure: bool,
    /// The node ids the job ran on.
    pub node_ids: Vec<u32>,
    /// Start time of the execution, seconds.
    pub start_secs: f64,
}

impl CompletedJob {
    fn snapshot_into(&self, w: &mut SnapWriter) {
        w.u64(self.id.0);
        w.u32(self.nodes);
        w.f64(self.wait_secs);
        w.f64(self.run_secs);
        w.f64(self.energy_joules);
        w.bool(self.killed_at_walltime);
        w.bool(self.killed_by_emergency);
        w.bool(self.killed_by_failure);
        w.seq(&self.node_ids, |w, &n| w.u32(n));
        w.f64(self.start_secs);
    }

    fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CompletedJob {
            id: JobId(r.u64()?),
            nodes: r.u32()?,
            wait_secs: r.f64()?,
            run_secs: r.f64()?,
            energy_joules: r.f64()?,
            killed_at_walltime: r.bool()?,
            killed_by_emergency: r.bool()?,
            killed_by_failure: r.bool()?,
            node_ids: r.seq(SnapReader::u32)?,
            start_secs: r.f64()?,
        })
    }
}

/// Streaming completion accounting: every [`CompletedJob`] folds into
/// these as it finishes, in completion order, so the outcome's wait /
/// slowdown / kill / utilization statistics never need the retained
/// record list. The folds replicate the retained path bit-for-bit:
/// `wait_sum` is the same left-to-right f64 sum `Percentiles::summary`
/// computes for its mean, and `wait_max` the same max over non-negative
/// samples.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CompletionAggregates {
    pub(crate) count: u64,
    wait_sum: f64,
    pub(crate) wait_max: f64,
    pub(crate) slowdown_sum: f64,
    pub(crate) walltime_kills: u64,
    pub(crate) emergency_kills: u64,
    /// Node-seconds of every departed job.
    busy_node_seconds: f64,
}

impl CompletionAggregates {
    fn fold(&mut self, c: &CompletedJob) {
        self.count += 1;
        self.wait_sum += c.wait_secs;
        self.wait_max = self.wait_max.max(c.wait_secs);
        let denom = c.run_secs.max(10.0);
        self.slowdown_sum += ((c.wait_secs + c.run_secs) / denom).max(1.0);
        self.walltime_kills += u64::from(c.killed_at_walltime);
        self.emergency_kills += u64::from(c.killed_by_emergency);
        self.busy_node_seconds += c.run_secs * f64::from(c.nodes);
    }

    /// Both sums are 0 while nothing has departed.
    pub(crate) fn mean_wait(&self) -> f64 {
        self.wait_sum / self.count.max(1) as f64
    }

    pub(crate) fn mean_slowdown(&self) -> f64 {
        self.slowdown_sum / self.count.max(1) as f64
    }

    fn snapshot_into(&self, w: &mut SnapWriter) {
        w.u64(self.count);
        w.f64(self.wait_sum);
        w.f64(self.wait_max);
        w.f64(self.slowdown_sum);
        w.u64(self.walltime_kills);
        w.u64(self.emergency_kills);
        w.f64(self.busy_node_seconds);
    }

    fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CompletionAggregates {
            count: r.u64()?,
            wait_sum: r.f64()?,
            wait_max: r.f64()?,
            slowdown_sum: r.f64()?,
            walltime_kills: r.u64()?,
            emergency_kills: r.u64()?,
            busy_node_seconds: r.f64()?,
        })
    }
}

/// Queued, running and departed jobs.
#[derive(Default)]
pub(crate) struct JobTable {
    /// Waiting jobs in scheduling order: descending priority, then
    /// ascending submit, then ascending id.
    queue: Vec<Job>,
    running: BTreeMap<JobId, RunningJob>,
    /// Running-job summaries kept sorted by `(estimated_end, id)` —
    /// exactly the order `SchedView` promises — and updated on start and
    /// departure instead of rebuilt and re-sorted per decision.
    /// `granted_watts` is read at start: grant amounts are fixed for a
    /// grant's lifetime (`PowerBudget` cannot resize a live grant).
    summaries: Vec<RunningSummary>,
    /// The next start's token.
    next_token: u32,
    /// Keep each [`CompletedJob`] (streaming runs fold them only).
    retain: bool,
    completed: Vec<CompletedJob>,
    /// Kept in both retain modes; the only source of the outcome's
    /// completion statistics.
    agg: CompletionAggregates,
}

impl JobTable {
    pub(crate) fn new(retain: bool) -> Self {
        JobTable {
            retain,
            ..JobTable::default()
        }
    }

    /// Queues an arrival or a continuation at its priority position.
    pub(crate) fn queue(&mut self, job: Job) {
        let key = |j: &Job| (Reverse(j.priority), j.submit, j.id);
        let at = self.queue.partition_point(|j| key(j) <= key(&job));
        self.queue.insert(at, job);
    }

    /// Requeues killed job `r`, `run_secs` into its run, as a rigid
    /// continuation submitted at `t` (Tokyo Tech: avoid *losing* jobs to
    /// power actions). It resumes from the last `checkpoint` before the
    /// kill, or from the beginning without one. Returns its remaining
    /// base runtime, seconds.
    pub(crate) fn requeue(
        &mut self,
        r: RunningJob,
        run_secs: f64,
        t: SimTime,
        checkpoint: Option<SimDuration>,
    ) -> f64 {
        let frac = if r.true_run_secs > 0.0 {
            (run_secs / r.true_run_secs).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let base_done = r.base_effective.as_secs() * frac;
        let saved = match checkpoint {
            Some(ckpt) if !ckpt.is_zero() => (base_done / ckpt.as_secs()).floor() * ckpt.as_secs(),
            _ => 0.0,
        };
        let remaining = (r.base_effective.as_secs() - saved).max(1.0);
        self.queue(Job {
            base_runtime: SimDuration::from_secs(remaining),
            nodes: r.nodes.len(),
            moldable: None,
            submit: t,
            ..r.job
        });
        remaining
    }

    /// The waiting jobs in scheduling order.
    pub(crate) fn queued(&self) -> &[Job] {
        &self.queue
    }

    /// Commits a start of queued job `id`: the job leaves the queue and
    /// `launch` builds its running record from it and this start's token,
    /// which is returned. The summary reports a grant of `granted_watts`.
    ///
    /// # Panics
    /// Panics if `id` is not queued.
    pub(crate) fn start(
        &mut self,
        id: JobId,
        granted_watts: Option<f64>,
        launch: impl FnOnce(Job, u32) -> RunningJob,
    ) -> u32 {
        let at = self.queue.iter().position(|j| j.id == id);
        let job = self.queue.remove(at.expect("a start commits a queued job"));
        let token = self.next_token;
        self.next_token = token.wrapping_add(1);
        let r = launch(job, token);
        let s = r.summary(granted_watts);
        let at = self
            .summaries
            .partition_point(|x| (x.estimated_end, x.id) < (s.estimated_end, s.id));
        self.summaries.insert(at, s);
        self.running.insert(id, r);
        token
    }

    /// Running-job summaries, soonest estimated end first.
    pub(crate) fn summaries(&self) -> &[RunningSummary] {
        &self.summaries
    }

    pub(crate) fn running_count(&self) -> usize {
        self.running.len()
    }

    /// The running jobs in id order.
    pub(crate) fn running(&self) -> impl Iterator<Item = &RunningJob> + Clone {
        self.running.values()
    }

    /// The running job `id` if `token` names its current start.
    pub(crate) fn started(&self, id: JobId, token: u32) -> Option<&RunningJob> {
        self.running.get(&id).filter(|r| r.token == token)
    }

    /// Takes the running job holding `node` off the machine, if any: a
    /// span lookup over the running jobs, O(running · log spans). Only
    /// failures and fencing ask, so no per-node owner index is kept up to
    /// date on every start and departure.
    pub(crate) fn take_holder(&mut self, node: NodeId) -> Option<RunningJob> {
        let r = self.running.values().find(|r| r.nodes.contains(node))?;
        self.take(r.job.id, r.token)
    }

    /// Takes running job `id` off the machine if `token` names its
    /// current start; a stale event's older token takes nothing.
    pub(crate) fn take(&mut self, id: JobId, token: u32) -> Option<RunningJob> {
        self.started(id, token)?;
        let r = self.running.remove(&id)?;
        let at = self
            .summaries
            .partition_point(|x| (x.estimated_end, x.id) < (r.estimated_end, id));
        debug_assert!(
            self.summaries.get(at).is_some_and(|s| s.id == id),
            "summary for {id:?} must exist at its sort position"
        );
        self.summaries.remove(at);
        Some(r)
    }

    /// Records the departure of `r` after `run_secs`, having used
    /// `energy_joules`, killed for `reason` if at all: folded into the
    /// aggregates, and kept, with its node ids, when completions are
    /// retained.
    pub(crate) fn record(
        &mut self,
        r: &RunningJob,
        run_secs: f64,
        energy_joules: f64,
        reason: Option<KillReason>,
    ) {
        let c = CompletedJob {
            id: r.job.id,
            nodes: r.nodes.len(),
            wait_secs: (r.start - r.job.submit).as_secs(),
            run_secs,
            energy_joules,
            killed_at_walltime: reason == Some(KillReason::Walltime),
            killed_by_emergency: reason == Some(KillReason::Emergency),
            killed_by_failure: reason == Some(KillReason::Failure),
            // The aggregates never read the node ids.
            node_ids: if self.retain {
                r.nodes.iter().map(|n| n.0).collect()
            } else {
                Vec::new()
            },
            start_secs: r.start.as_secs(),
        };
        self.agg.fold(&c);
        if self.retain {
            self.completed.push(c);
        }
    }

    pub(crate) fn aggregates(&self) -> &CompletionAggregates {
        &self.agg
    }

    /// Jobs still queued or running.
    pub(crate) fn unfinished(&self) -> u64 {
        (self.queue.len() + self.running.len()) as u64
    }

    /// Busy node-seconds up to `end`: every departed job's, then each
    /// running job's so far, added in id order.
    pub(crate) fn busy_node_seconds(&self, end: SimTime) -> f64 {
        let so_far = |r: &RunningJob| end.saturating_since(r.start).as_secs();
        self.running
            .values()
            .fold(self.agg.busy_node_seconds, |acc, r| {
                acc + so_far(r) * f64::from(r.nodes.len())
            })
    }

    pub(crate) fn into_completed(self) -> Vec<CompletedJob> {
        self.completed
    }

    /// Encodes the `jobs` section: the queue, the running jobs in id
    /// order, the token counter, the retained completions and the
    /// aggregates.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.seq(&self.queue, |w, j| j.snapshot_into(w));
        let running: Vec<&RunningJob> = self.running.values().collect();
        w.seq(&running, |w, r| r.snapshot_into(w));
        w.u32(self.next_token);
        w.seq(&self.completed, |w, c| c.snapshot_into(w));
        self.agg.snapshot_into(w);
    }

    /// Decodes a table written at clock `now` on a `total`-node machine
    /// whose restored power plane is `power`. The frame is `Corrupt` when
    /// it breaks an invariant of the module docs.
    pub(crate) fn restore_from(
        r: &mut SnapReader<'_>,
        total: u32,
        now: SimTime,
        retain: bool,
        power: &PowerPlane,
    ) -> Result<Self, SnapshotError> {
        let corrupt = |detail: String| SnapshotError::Corrupt { detail };
        let mut t = JobTable::new(retain);
        for job in r.seq(Job::restore_from)? {
            t.queue(job);
        }
        let queued: BTreeSet<JobId> = t.queue.iter().map(|j| j.id).collect();
        for rj in r.seq(|r| RunningJob::restore_from(r, total))? {
            let id = rj.job.id;
            if rj.start > now {
                return Err(corrupt(format!(
                    "job {id} started at {} after the clock {now}",
                    rj.start
                )));
            }
            if queued.contains(&id) {
                return Err(corrupt(format!("job {id} is both queued and running")));
            }
            if t.running.insert(id, rj).is_some() {
                return Err(corrupt(format!("job {id} is running twice")));
            }
        }
        t.next_token = r.u32()?;
        t.completed = r.seq(CompletedJob::restore_from)?;
        t.agg = CompletionAggregates::restore_from(r)?;
        power.check_holders(t.running.values())?;
        let granted = |r: &RunningJob| power.grant_watts(r.grant);
        t.summaries = t.running.values().map(|r| r.summary(granted(r))).collect();
        t.summaries
            .sort_unstable_by_key(|s| (s.estimated_end, s.id));
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use epa_cluster::node::NodeSpec;
    use epa_cluster::system::SystemSpec;
    use epa_cluster::topology::Topology;
    use epa_obs::TraceBus;
    use epa_workload::job::JobBuilder;

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn job(id: u64, prio: i32, submit: f64) -> Job {
        JobBuilder::new(id)
            .priority(prio)
            .submit(at(submit))
            .build()
    }

    /// A start at `start` on `nodes`, metered as `group`, holding the
    /// grant named after the job, with a walltime estimate of `estimate`
    /// seconds.
    fn launch(
        start: f64,
        estimate: f64,
        nodes: NodeSet,
        group: GroupId,
    ) -> impl FnOnce(Job, u32) -> RunningJob {
        move |job, token| RunningJob {
            grant: Some(GrantId(job.id.0)),
            job,
            token,
            nodes,
            start: at(start),
            estimated_end: at(start + estimate),
            watts_per_node: 100.0,
            killed_at_walltime: false,
            base_effective: SimDuration::from_secs(estimate),
            true_run_secs: estimate,
            phase_watts: vec![100.0],
            meter_group: group,
        }
    }

    /// The fixture's running jobs: id, first node and estimate.
    const STARTS: [(u64, u32, f64); 2] = [(1, 0, 500.0), (2, 4, 300.0)];

    /// A power plane over 8 nodes with a 1000 W budget (`None` without
    /// one) holding `grants`, and one open meter group per fixture start.
    fn plane(budget: Option<f64>, grants: &[(u64, f64)]) -> PowerPlane {
        let system = SystemSpec {
            name: "jobs".into(),
            cabinets: 1,
            nodes_per_cabinet: 8,
            node: NodeSpec::typical_xeon(),
            topology: Topology::FatTree { arity: 8 },
            peak_tflops: 1.0,
        }
        .build();
        let mut config = EngineConfig::new(at(100.0));
        config.power_budget_watts = budget;
        let mut power = PowerPlane::new(&mut config, &system).expect("valid");
        for (_, first, _) in STARTS {
            power.open_group(&NodeSet::from_run(first, 2), at(10.0), 100.0);
        }
        let bus = &mut TraceBus::disabled();
        for &(id, watts) in grants {
            let granted = power.request_grant(JobId(id), watts, at(10.0), bus);
            assert!(granted.is_ok_and(|g| g.is_some()));
        }
        power
    }

    /// Jobs 1–3 queued; 1 (nodes 0–1) and 2 (nodes 4–5) started at
    /// t = 10 s, each with an open meter group and a 200 W grant.
    fn fixture() -> (JobTable, PowerPlane) {
        let power = plane(Some(1000.0), &[(1, 200.0), (2, 200.0)]);
        let mut t = JobTable::new(true);
        (1..=3).for_each(|id| t.queue(job(id, 0, 0.0)));
        for (k, (id, first, estimate)) in STARTS.into_iter().enumerate() {
            let group = GroupId::from_raw(k as u32);
            let launch = launch(10.0, estimate, NodeSet::from_run(first, 2), group);
            t.start(JobId(id), Some(200.0), launch);
        }
        (t, power)
    }

    fn frame(t: &JobTable) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.snapshot_into(&mut w);
        w.finish(1)
    }

    fn restore(bytes: &[u8], now: f64, power: &PowerPlane) -> Result<JobTable, SnapshotError> {
        let mut r = SnapReader::open(bytes, 1).expect("framed");
        let t = JobTable::restore_from(&mut r, 8, at(now), true, power)?;
        r.finish().map(|()| t)
    }

    fn ids(summaries: &[RunningSummary]) -> Vec<u64> {
        summaries.iter().map(|s| s.id.0).collect()
    }

    #[test]
    fn a_start_runs_until_its_own_token_takes_it() {
        let (mut t, _) = fixture();
        assert_eq!(order(&t), [3]);
        assert_eq!(ids(t.summaries()), [2, 1], "soonest estimated end first");
        let token = t.started(JobId(1), 0).expect("first start").token;
        assert!(t.take(JobId(1), token + 1).is_none(), "a stale token");
        let r = t.take(JobId(1), token).expect("the current start");
        assert!(t.started(JobId(1), token).is_none());
        assert_eq!(ids(t.summaries()), [2]);
        t.record(&r, 40.0, 0.0, Some(KillReason::Emergency));
        let agg = t.aggregates();
        assert_eq!((agg.count, agg.emergency_kills), (1, 1));
        assert_eq!(t.busy_node_seconds(at(60.0)), 2.0 * 40.0 + 2.0 * 50.0);
        t.queue(r.job);
        assert_eq!(order(&t), [1, 3]);
        assert_eq!(t.unfinished(), 3);
        let nodes = NodeSet::from_run(0, 2);
        let again = t.start(JobId(1), None, launch(60.0, 500.0, nodes, r.meter_group));
        assert_eq!(again, 2, "one counter across starts");
    }

    #[test]
    fn every_step_survives_a_restore() {
        let (t, power) = fixture();
        let bytes = frame(&t);
        let back = restore(&bytes, 10.0, &power).expect("consistent");
        assert_eq!(frame(&back), bytes);
        assert_eq!(ids(back.summaries()), ids(t.summaries()));
        let granted: Vec<_> = back.summaries().iter().map(|s| s.granted_watts).collect();
        assert_eq!(granted, [Some(200.0); 2]);
    }

    #[test]
    fn restore_rejects_jobs_that_contradict_each_other_or_the_clock() {
        let (t, power) = fixture();
        let edit = |f: fn(&mut JobTable)| {
            let mut t = fixture().0;
            f(&mut t);
            frame(&t)
        };
        let extra = plane(Some(1000.0), &[(1, 200.0), (2, 200.0), (3, 1.0)]);
        let missing = plane(Some(1000.0), &[(1, 200.0)]);
        let unbudgeted = plane(None, &[]);
        let cases: [(&str, Vec<u8>, f64, &PowerPlane); 7] = [
            ("started after the clock", frame(&t), 9.0, &power),
            (
                "one id running twice",
                edit(|t| t.running.get_mut(&JobId(2)).unwrap().job.id = JobId(1)),
                10.0,
                &power,
            ),
            (
                "queued and running",
                edit(|t| t.running.get_mut(&JobId(2)).unwrap().job.id = JobId(3)),
                10.0,
                &power,
            ),
            ("a grant held by no job", frame(&t), 10.0, &extra),
            ("a job's grant not live", frame(&t), 10.0, &missing),
            ("grants without a budget", frame(&t), 10.0, &unbudgeted),
            (
                "swapped meter groups",
                edit(|t| {
                    let g = t.running[&JobId(1)].meter_group;
                    let r2 = t.running.get_mut(&JobId(2)).unwrap();
                    let g2 = std::mem::replace(&mut r2.meter_group, g);
                    t.running.get_mut(&JobId(1)).unwrap().meter_group = g2;
                }),
                10.0,
                &power,
            ),
        ];
        for (name, bytes, now, power) in cases {
            let err = restore(&bytes, now, power).err();
            assert!(
                matches!(err, Some(SnapshotError::Corrupt { .. })),
                "{name}: {err:?}"
            );
        }
    }

    fn order(t: &JobTable) -> Vec<u64> {
        t.queued().iter().map(|j| j.id.0).collect()
    }

    #[test]
    fn fifo_within_priority() {
        let mut t = JobTable::new(true);
        t.queue(job(1, 0, 10.0));
        t.queue(job(2, 0, 5.0));
        t.queue(job(3, 0, 7.0));
        assert_eq!(order(&t), vec![2, 3, 1]);
    }

    #[test]
    fn priority_dominates() {
        let mut t = JobTable::new(true);
        t.queue(job(1, 0, 1.0));
        t.queue(job(2, 10, 99.0));
        assert_eq!(order(&t), vec![2, 1]);
    }

    #[test]
    fn equal_everything_breaks_by_id() {
        let mut t = JobTable::new(true);
        t.queue(job(5, 0, 1.0));
        t.queue(job(3, 0, 1.0));
        assert_eq!(order(&t), vec![3, 5]);
    }
}
