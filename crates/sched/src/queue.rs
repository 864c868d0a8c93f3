//! The pending-job queue.
//!
//! Jobs wait in priority order (higher priority first, FIFO within a
//! priority). Policies receive the queue as a slice in that order; the
//! engine removes jobs by id when they start or are dropped.

use epa_workload::job::{Job, JobId};

/// Priority-then-FIFO pending queue.
#[derive(Debug, Clone, Default)]
pub struct JobQueue {
    // Kept sorted: descending priority, ascending submit, ascending id.
    jobs: Vec<Job>,
}

impl JobQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a job at its priority position.
    pub fn push(&mut self, job: Job) {
        let idx = self
            .jobs
            .iter()
            .position(|j| {
                (j.priority < job.priority)
                    || (j.priority == job.priority && j.submit > job.submit)
                    || (j.priority == job.priority && j.submit == job.submit && j.id > job.id)
            })
            .unwrap_or(self.jobs.len());
        self.jobs.insert(idx, job);
    }

    /// Removes and returns the job with `id`, if queued.
    pub fn remove(&mut self, id: JobId) -> Option<Job> {
        let idx = self.jobs.iter().position(|j| j.id == id)?;
        Some(self.jobs.remove(idx))
    }

    /// The queue contents in scheduling order.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The head job (next to schedule), if any.
    #[must_use]
    pub fn head(&self) -> Option<&Job> {
        self.jobs.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_simcore::time::SimTime;
    use epa_workload::job::JobBuilder;

    fn job(id: u64, prio: i32, submit: f64) -> Job {
        JobBuilder::new(id)
            .priority(prio)
            .submit(SimTime::from_secs(submit))
            .build()
    }

    #[test]
    fn fifo_within_priority() {
        let mut q = JobQueue::new();
        q.push(job(1, 0, 10.0));
        q.push(job(2, 0, 5.0));
        q.push(job(3, 0, 7.0));
        let order: Vec<u64> = q.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn priority_dominates() {
        let mut q = JobQueue::new();
        q.push(job(1, 0, 1.0));
        q.push(job(2, 10, 99.0));
        assert_eq!(q.head().unwrap().id.0, 2);
    }

    #[test]
    fn equal_everything_breaks_by_id() {
        let mut q = JobQueue::new();
        q.push(job(5, 0, 1.0));
        q.push(job(3, 0, 1.0));
        let order: Vec<u64> = q.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![3, 5]);
    }

    #[test]
    fn remove_by_id() {
        let mut q = JobQueue::new();
        q.push(job(1, 0, 1.0));
        q.push(job(2, 0, 2.0));
        assert!(q.remove(JobId(1)).is_some());
        assert!(q.remove(JobId(1)).is_none());
        assert_eq!(q.len(), 1);
    }
}
