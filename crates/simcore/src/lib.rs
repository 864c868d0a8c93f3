//! # epa-simcore — discrete-event simulation engine
//!
//! Foundation crate for the EPA JSRM framework: a deterministic
//! discrete-event simulation kernel plus the numeric utilities every other
//! crate builds on.
//!
//! The design follows the classic event-list pattern: a [`Simulation`]
//! owns a monotonic clock and a stable priority queue of events; consumers
//! pop events, advance the clock, and react. Power accounting elsewhere in
//! the workspace is *piecewise between events*, so correctness of the engine
//! (ordering, stability, monotonicity) is the base invariant of the whole
//! reproduction — it is covered by property tests here.
//!
//! Modules:
//! - [`time`] — simulation time and durations (seconds as `f64`, checked).
//! - [`event`] — stable time-ordered event queue.
//! - [`engine`] — the [`Simulation`] driver combining clock + queue.
//! - [`rng`] — seedable, stream-splittable deterministic RNG.
//! - [`stats`] — exact percentiles (the survey's Q3(e) summary shape).
//! - [`series`] — time series with piecewise-constant integration.
//! - [`fsum`] — bit-exact O(binades) evaluation of repeated float adds.
//! - [`snap`] — versioned, checksummed binary snapshot codec (resumable
//!   runs).

pub mod engine;
pub mod error;
pub mod event;
pub mod fsum;
pub mod rng;
pub mod series;
pub mod snap;
pub mod stats;
pub mod time;

pub use engine::Simulation;
pub use error::SimError;
pub use event::EventQueue;
pub use rng::SimRng;
pub use series::{BoundedSeries, TimeSeries};
pub use snap::{SnapReader, SnapWriter, SnapshotError};
pub use stats::{Percentiles, SummaryStats};
pub use time::{SimDuration, SimTime};
