//! # epa-simcore — discrete-event simulation primitives
//!
//! Foundation crate for the EPA JSRM framework: the building blocks of a
//! deterministic discrete-event simulation plus the numeric utilities
//! every other crate builds on.
//!
//! The design follows the classic event-list pattern: a stable priority
//! queue of timestamped events that a consumer (the scheduling engine's
//! event loop in `epa-sched`) pops in order, advancing its own monotonic
//! clock. Power accounting elsewhere in the workspace is *piecewise
//! between events*, so the queue's ordering and stability are the base
//! invariant of the whole reproduction — they are covered by property
//! tests here.
//!
//! Modules:
//! - [`time`] — simulation time and durations (seconds as `f64`, checked).
//! - [`event`] — stable time-ordered event queue.
//! - [`rng`] — seedable, stream-splittable deterministic RNG.
//! - [`stats`] — exact percentiles (the survey's Q3(e) summary shape).
//! - [`series`] — time series with piecewise-constant integration.
//! - [`fsum`] — bit-exact O(binades) evaluation of repeated float adds.
//! - [`snap`] — versioned, checksummed binary snapshot codec (resumable
//!   runs).

pub mod error;
pub mod event;
pub mod fsum;
pub mod rng;
pub mod series;
pub mod snap;
pub mod stats;
pub mod time;

pub use error::SimError;
pub use event::EventQueue;
pub use rng::SimRng;
pub use series::{BoundedSeries, TimeSeries};
pub use snap::{SnapReader, SnapWriter, SnapshotError};
pub use stats::{Percentiles, SummaryStats};
pub use time::{SimDuration, SimTime};
