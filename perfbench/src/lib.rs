//! The repository benchmark: end-to-end and per-layer timings of the
//! EPA JSRM engine on three workloads. See README.md for the workloads,
//! the metrics, and how to run it.

pub mod calibrate;
pub mod harness;
pub mod report;
pub mod stats;
pub mod workloads;
pub mod wrappers;
