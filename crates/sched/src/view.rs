//! The policy interface: what schedulers see and what they decide.
//!
//! A [`Policy`] is invoked by the engine whenever scheduling state changes
//! (job arrival, job completion, node boot, power tick). It receives an
//! immutable [`SchedView`] — the information a real scheduler would have:
//! free nodes, running jobs with *estimated* (not true) end times, power
//! headroom, temperature — and returns [`Decision`]s. The engine applies
//! them, enforcing physical constraints (allocation, power budget) so a
//! buggy policy can never corrupt the machine state.

use epa_power::dvfs::DvfsModel;
use epa_simcore::time::SimTime;
use epa_workload::job::{Job, JobId};
use serde::Serialize;

/// What a policy knows about one running job.
#[derive(Debug, Clone, Serialize)]
pub struct RunningSummary {
    /// Job id.
    pub id: JobId,
    /// Nodes held.
    pub nodes: u32,
    /// Estimated end time (start + walltime estimate — the scheduler does
    /// not know true runtimes).
    pub estimated_end: SimTime,
    /// Power currently drawn by the job's nodes, watts.
    pub watts: f64,
    /// Power grant held, if the engine runs a budget, watts.
    pub granted_watts: Option<f64>,
}

/// The scheduler's view of the machine at a decision point.
pub struct SchedView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Nodes free and allocatable right now.
    pub free_nodes: u32,
    /// Nodes powered off that the engine could boot on demand.
    pub off_nodes: u32,
    /// Total nodes in the system.
    pub total_nodes: u32,
    /// Running jobs, soonest estimated end first.
    pub running: &'a [RunningSummary],
    /// Power budget headroom (`f64::INFINITY` when no budget is active).
    pub power_headroom_watts: f64,
    /// Total power budget (`f64::INFINITY` when none).
    pub power_budget_watts: f64,
    /// Current system IT power draw, watts.
    pub system_watts: f64,
    /// Outdoor temperature, °C.
    pub temperature_c: f64,
    /// DVFS model of the node type (for frequency planning).
    pub dvfs: &'a DvfsModel,
    /// Predicted watts-per-node for a queued job, as configured in the
    /// engine (prediction-based policies read this instead of cheating
    /// with true power).
    pub predicted_watts_per_node: &'a dyn Fn(&Job) -> f64,
}

/// A policy's instruction to the engine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Decision {
    /// Start the queued job with this id.
    Start {
        /// The job to start.
        job: JobId,
        /// Moldable node-count override (must satisfy the job's moldable
        /// range; ignored for rigid jobs).
        nodes_override: Option<u32>,
        /// Frequency to run at (GHz); `None` = base frequency.
        freq_ghz: Option<f64>,
        /// Per-node hardware cap to program before launch, watts.
        node_cap_watts: Option<f64>,
    },
}

impl Decision {
    /// Convenience: start a job with defaults.
    #[must_use]
    pub fn start(job: JobId) -> Self {
        Decision::Start {
            job,
            nodes_override: None,
            freq_ghz: None,
            node_cap_watts: None,
        }
    }
}

/// A scheduling policy.
pub trait Policy {
    /// Name for reports.
    fn name(&self) -> &str;

    /// Produce decisions for the current state. `queue` is in priority
    /// order. Jobs not started simply wait.
    fn schedule(&mut self, view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision>;
}

/// A borrowed policy schedules as the policy it borrows.
impl<P: Policy + ?Sized> Policy for &mut P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn schedule(&mut self, view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision> {
        (**self).schedule(view, queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_start_defaults() {
        let d = Decision::start(JobId(7));
        assert_eq!(
            d,
            Decision::Start {
                job: JobId(7),
                nodes_override: None,
                freq_ghz: None,
                node_cap_watts: None
            }
        );
    }
}
