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
//! - the running jobs hold exactly the power budget's live grants;
//! - every open meter group belongs to exactly one running job and its
//!   runs are that job's node spans ([`EnergyMeter::check_groups`]).

use crate::view::RunningSummary;
use epa_cluster::node::NodeId;
use epa_cluster::nodeset::NodeSet;
use epa_power::budget::{GrantId, PowerBudget};
use epa_power::meter::{EnergyMeter, GroupId};
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
    pub(crate) fn running(&self) -> impl Iterator<Item = &RunningJob> {
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

    /// Records a departure: folded into the aggregates, and kept when
    /// completions are retained.
    pub(crate) fn record(&mut self, c: CompletedJob) {
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
    /// whose restored power budget and meter are `budget` and `meter`.
    /// The frame is `Corrupt` when it breaks an invariant of the module
    /// docs.
    pub(crate) fn restore_from(
        r: &mut SnapReader<'_>,
        total: u32,
        now: SimTime,
        retain: bool,
        budget: Option<&PowerBudget>,
        meter: &EnergyMeter,
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
        let mut held: Vec<GrantId> = t.running.values().filter_map(|r| r.grant).collect();
        held.sort_unstable();
        let live: Vec<GrantId> = budget.map_or_else(Vec::new, |b| b.grant_ids().collect());
        if held != live {
            return Err(corrupt(format!(
                "running jobs hold grants {held:?}, the budget {live:?}"
            )));
        }
        meter.check_groups(t.running.values().map(|r| (r.meter_group, &r.nodes)))?;
        let granted = |r: &RunningJob| r.grant.and_then(|g| budget?.grant_watts(g));
        t.summaries = t.running.values().map(|r| r.summary(granted(r))).collect();
        t.summaries
            .sort_unstable_by_key(|s| (s.estimated_end, s.id));
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Jobs 1–3 queued; 1 (nodes 0–1) and 2 (nodes 4–5) started at
    /// t = 10 s, each with an open meter group and a 200 W grant.
    fn fixture() -> (JobTable, EnergyMeter, PowerBudget) {
        let mut meter = EnergyMeter::new(SimDuration::from_mins(5.0));
        meter.set_alloc_watts(&(0..8).map(NodeId).collect::<Vec<_>>(), at(0.0), 10.0);
        let mut budget = PowerBudget::new(1000.0).unwrap();
        let mut t = JobTable::new(true);
        (1..=3).for_each(|id| t.queue(job(id, 0, 0.0)));
        for (id, first, estimate) in [(1, 0, 500.0), (2, 4, 300.0)] {
            let nodes = NodeSet::from_run(first, 2);
            let group = meter.open_group(&nodes, at(10.0), 100.0);
            budget.request(GrantId(id), 200.0).unwrap();
            t.start(JobId(id), Some(200.0), launch(10.0, estimate, nodes, group));
        }
        (t, meter, budget)
    }

    fn frame(t: &JobTable) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.snapshot_into(&mut w);
        w.finish(1)
    }

    fn restore(
        bytes: &[u8],
        now: f64,
        budget: Option<&PowerBudget>,
        meter: &EnergyMeter,
    ) -> Result<JobTable, SnapshotError> {
        let mut r = SnapReader::open(bytes, 1).expect("framed");
        let t = JobTable::restore_from(&mut r, 8, at(now), true, budget, meter)?;
        r.finish().map(|()| t)
    }

    fn ids(summaries: &[RunningSummary]) -> Vec<u64> {
        summaries.iter().map(|s| s.id.0).collect()
    }

    #[test]
    fn a_start_runs_until_its_own_token_takes_it() {
        let (mut t, _, _) = fixture();
        assert_eq!(order(&t), [3]);
        assert_eq!(ids(t.summaries()), [2, 1], "soonest estimated end first");
        let token = t.started(JobId(1), 0).expect("first start").token;
        assert!(t.take(JobId(1), token + 1).is_none(), "a stale token");
        let r = t.take(JobId(1), token).expect("the current start");
        assert!(t.started(JobId(1), token).is_none());
        assert_eq!(ids(t.summaries()), [2]);
        t.record(CompletedJob {
            id: r.job.id,
            nodes: r.nodes.len(),
            wait_secs: 10.0,
            run_secs: 40.0,
            energy_joules: 0.0,
            killed_at_walltime: false,
            killed_by_emergency: true,
            killed_by_failure: false,
            node_ids: Vec::new(),
            start_secs: 10.0,
        });
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
        let (t, meter, budget) = fixture();
        let bytes = frame(&t);
        let back = restore(&bytes, 10.0, Some(&budget), &meter).expect("consistent");
        assert_eq!(frame(&back), bytes);
        assert_eq!(ids(back.summaries()), ids(t.summaries()));
        let granted: Vec<_> = back.summaries().iter().map(|s| s.granted_watts).collect();
        assert_eq!(granted, [Some(200.0); 2]);
    }

    #[test]
    fn restore_rejects_jobs_that_contradict_each_other_or_the_clock() {
        let (t, meter, budget) = fixture();
        let edit = |f: fn(&mut JobTable)| {
            let mut t = fixture().0;
            f(&mut t);
            frame(&t)
        };
        let mut extra = budget.clone();
        extra.request(GrantId(3), 1.0).unwrap();
        let mut missing = budget.clone();
        missing.release(GrantId(2)).unwrap();
        let cases: [(&str, Vec<u8>, f64, Option<&PowerBudget>); 7] = [
            ("started after the clock", frame(&t), 9.0, Some(&budget)),
            (
                "one id running twice",
                edit(|t| t.running.get_mut(&JobId(2)).unwrap().job.id = JobId(1)),
                10.0,
                Some(&budget),
            ),
            (
                "queued and running",
                edit(|t| t.running.get_mut(&JobId(2)).unwrap().job.id = JobId(3)),
                10.0,
                Some(&budget),
            ),
            ("a grant held by no job", frame(&t), 10.0, Some(&extra)),
            ("a job's grant not live", frame(&t), 10.0, Some(&missing)),
            ("grants without a budget", frame(&t), 10.0, None),
            (
                "swapped meter groups",
                edit(|t| {
                    let g = t.running[&JobId(1)].meter_group;
                    let r2 = t.running.get_mut(&JobId(2)).unwrap();
                    let g2 = std::mem::replace(&mut r2.meter_group, g);
                    t.running.get_mut(&JobId(1)).unwrap().meter_group = g2;
                }),
                10.0,
                Some(&budget),
            ),
        ];
        for (name, bytes, now, budget) in cases {
            let err = restore(&bytes, now, budget, &meter).err();
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
