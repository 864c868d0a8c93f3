//! # epa-sched — job scheduling framework and EPA policies
//!
//! The heart of the reproduction: a discrete-event cluster scheduling
//! engine ([`engine::ClusterSim`]) plus one policy implementation for
//! every energy/power-aware technique the survey catalogues.
//!
//! ## Baselines (Mu'alem & Feitelson)
//! - [`policies::fcfs::Fcfs`] — first-come-first-served.
//! - [`policies::backfill::EasyBackfill`] — aggressive (EASY) backfilling.
//! - [`policies::backfill::ConservativeBackfill`] — conservative
//!   backfilling (every queued job holds a reservation).
//!
//! ## EPA policies from the survey's Tables I/II and related work
//! - [`policies::power_aware::PowerAwareBackfill`] — backfilling with a
//!   power-budget admission test and optional DVFS fitting (Etinski).
//! - [`policies::energy_aware::EnergyAwareScheduler`] — per-job frequency
//!   selection toward an administrator goal: energy-to-solution or
//!   performance (LRZ's LoadLeveler/LSF capability).
//! - [`policies::overprovision::OverprovisionScheduler`] — moldable-job
//!   configuration selection under a hard system power budget
//!   (Sarood, Patki).
//! - [`policies::power_sharing::PowerSharingManager`] — Ellsworth-style
//!   dynamic redistribution of unused power among running jobs.
//! - [`emergency::EmergencyPolicy`] — RIKEN's automated job killing when
//!   the site power limit is breached.
//! - [`shutdown::ShutdownPolicy`] — idle-node power-down
//!   (Mämmelä; Tokyo Tech's production capability).
//! - [`limiting::JobLimitGate`] — CINECA MS3: cap concurrent jobs when the
//!   facility is hot ("do less when it's too hot").
//! - [`intersystem::InterSystemCoordinator`] — Tokyo Tech's shared
//!   facility budget between two systems (TSUBAME 2 and 3).
//!
//! [`engine::ClusterSim`] keeps its state in crate-private owners that
//! each encode and check their own snapshot sections: the event loop
//! (`events`), the node table (`nodes`), the job table (`jobs`), the
//! power plane (`power`: meter, budget, history, violation tally and
//! emergency hold) and the fault plane (`faults`).

pub mod control;
pub mod emergency;
pub mod engine;
pub mod env;
pub mod error;
mod events;
mod faults;
pub mod governor;
pub mod intersystem;
mod jobs;
pub mod learn;
pub mod limiting;
mod nodes;
pub mod policies;
mod power;
pub mod shutdown;
pub mod snapshot;
pub mod view;

pub use control::{ActionSource, ControlAction, ControlState, Observation};
pub use emergency::EmergencyPolicy;
pub use engine::{ClusterSim, EngineConfig, RewardProbe, SimOutcome};
pub use env::{EnvConfig, PolicyEnv, RewardConfig, StepResult};
pub use error::SchedError;
pub use governor::{GovernorObjective, PhaseGovernor, PhasePlan};
pub use intersystem::InterSystemCoordinator;
pub use learn::{ActionCatalog, BanditConfig, ContextualBandit, QConfig, QLearner, TileCoding};
pub use limiting::JobLimitGate;
pub use shutdown::ShutdownPolicy;
pub use snapshot::{Snapshot, SNAPSHOT_SCHEMA_VERSION};
pub use view::{Decision, Policy, RunningSummary, SchedView};
