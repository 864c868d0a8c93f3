//! # epa-faults — deterministic fault injection for the EPA JSRM stack
//!
//! The survey's Figure 1 control loop is "heavily dependent on telemetry
//! sensors" and on privileged actuators (RAPL/CAPMC/DVFS); production
//! sites run it against sensors that go stale and commands that fail.
//! This crate is the framework's fault model:
//!
//! - [`config::FaultConfig`] — what can go wrong: correlated failure
//!   domains (rack/PDU events), sensor dropout/stuck-at, actuator
//!   command failures with retry/backoff/fencing parameters.
//! - [`FaultPlan`] — the pre-generated, seed-deterministic schedule of
//!   correlated domain events.
//! - [`retry::execute_with_retry`] — the exponential-backoff retry
//!   machinery the resource manager's retrying actuator builds on; it
//!   draws actuator faults from its own stream.
//!
//! The engine draws sensor faults online from its own `faults-sensor`
//! stream. Determinism is the design center: every fault is a pure
//! function of the fault seed, so chaos tests can assert byte-identical
//! outcomes and bisect regressions by seed.

pub mod config;
pub mod error;
mod plan;
pub mod retry;

pub use config::{ActuatorFaultConfig, DomainFaultConfig, FaultConfig, SensorFaultConfig};
pub use error::FaultError;
pub use plan::{DomainEvent, FaultPlan};
pub use retry::{execute_with_retry, execute_with_retry_traced, AttemptReport};
