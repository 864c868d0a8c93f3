//! # epa-jsrm — Energy and Power Aware Job Scheduling and Resource Management
//!
//! A full-system reproduction of *"Energy and Power Aware Job Scheduling
//! and Resource Management: Global Survey — Initial Analysis"* (Maiterth
//! et al., IPDPSW 2018): a discrete-event HPC cluster simulation framework
//! in which every EPA JSRM technique the survey catalogues is a working
//! implementation, the nine surveyed centers are runnable site models, and
//! the paper's tables and figures are regenerated from simulation.
//!
//! This crate is the facade: it re-exports the workspace's layers under
//! one namespace and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! ```
//! use epa_jsrm::prelude::*;
//!
//! // Simulate one of the surveyed centers for a day.
//! let mut site = epa_jsrm::sites::centers::stfc::config(42);
//! site.horizon = SimTime::from_hours(24.0);
//! let report = run_site(&site);
//! assert!(report.outcome.completed > 0);
//! ```

/// Simulation kernel: events, time, RNG, statistics.
pub use epa_simcore as simcore;

/// Machine model: nodes, topologies, allocators, facility layout.
pub use epa_cluster as cluster;

/// Power substrate: DVFS, RAPL, facility, meters, telemetry, budgets.
pub use epa_power as power;

/// Jobs and workload generation, SWF traces.
pub use epa_workload as workload;

/// Job power/energy/runtime prediction.
pub use epa_predict as predict;

/// Scheduling engine and every EPA policy.
pub use epa_sched as sched;

/// Facility digital twin: price/carbon traces, demand response, cooling
/// loop, follow-the-renewables federation.
pub use epa_grid as grid;

/// Resource management: retrying actuators, the interaction ledger, user
/// energy reports.
pub use epa_rm as rm;

/// Deterministic fault model: correlated failure domains, sensor and
/// actuator faults, retry/backoff policies.
pub use epa_faults as faults;

/// Observability: decision tracing, metrics registry, replay verifier
/// ([`epa_obs`]).
pub use epa_obs as obs;

/// The nine surveyed site models.
pub use epa_sites as sites;

/// The survey engine: questionnaire, capability matrix, tables, figures.
pub use epa_core as survey;

/// The most commonly used items, for `use epa_jsrm::prelude::*`.
pub mod prelude {
    pub use epa_cluster::alloc::AllocStrategy;
    pub use epa_cluster::system::{System, SystemSpec};
    pub use epa_core::report::SurveyReport;
    pub use epa_sched::control::{ControlAction, Observation};
    pub use epa_sched::engine::{ClusterSim, EngineConfig, SimOutcome};
    pub use epa_sched::policies::registry::{make_policy, POLICY_NAMES};
    pub use epa_sched::policies::{
        ConservativeBackfill, EasyBackfill, EnergyAwareScheduler, Fcfs, OverprovisionScheduler,
        PowerAwareBackfill,
    };
    pub use epa_sched::view::{Decision, Policy, SchedView};
    pub use epa_simcore::time::{SimDuration, SimTime};
    pub use epa_sites::runner::{run_site, SiteReport};
    pub use epa_workload::generator::{WorkloadGenerator, WorkloadParams};
    pub use epa_workload::job::{Job, JobBuilder, JobId};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let _ = SimTime::from_hours(1.0);
        let _ = JobBuilder::new(1).build();
        let _ = EasyBackfill;
    }
}
