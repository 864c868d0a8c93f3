//! # epa-grid — the facility digital twin
//!
//! The survey's sites do not run in a vacuum: operators steer to
//! electricity price, carbon intensity, demand-response contracts, and
//! cooling limits, not just node watts. This crate models that facility
//! layer and co-simulates it with the discrete-event engine at window
//! barriers:
//!
//! - [`GridTrace`] — piecewise-linear time-of-day price and carbon
//!   traces, from seeded synthetic generators or a CSV-ish offline file;
//! - [`DrContract`] / [`DrEvent`] — demand-response curtailment windows
//!   with contractual targets, tolerance, and penalty accounting;
//! - [`CoolingModel`] — a PUE that responds to IT load and outdoor
//!   temperature, and the fixed point it induces on the IT budget;
//! - [`GridConfig`] / [`GridState`] / [`GridSummary`] — the engine-side
//!   coupling: per-tick settlement, budget targets, snapshot codec.
//!
//! The engine couples to the twin only through its budget-resize and
//! emergency-shed operations and ordinary simulation events, which is
//! what preserves the standing invariant:
//! byte-identical replays, also across a crash and resume, and
//! byte-identical to the grid-less engine when no [`GridConfig`] is
//! supplied.

#![warn(missing_docs)]

pub mod cooling;
pub mod dr;
pub mod error;
pub mod model;
pub mod trace;

pub use cooling::CoolingModel;
pub use dr::{DrAccounting, DrContract, DrEvent, DrEventOutcome};
pub use error::GridError;
pub use model::{GridConfig, GridState, GridSummary};
pub use trace::{GridTrace, TraceCursor};
