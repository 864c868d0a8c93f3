//! # epa-power — power and energy substrate
//!
//! Implements every power mechanism the surveyed centers report using:
//!
//! - [`dvfs`] — dynamic voltage/frequency scaling: the cubic power law and
//!   the phase-sensitive performance model (CEA, LRZ, STFC experiments).
//! - [`node_power`] — the per-node power envelope: state- and
//!   utilization-dependent draw, cap-induced throttling.
//! - [`rapl`] — Intel RAPL-style windowed average power limiting
//!   (Ellsworth-style dynamic sharing builds on this).
//! - [`facility`] — the data-center envelope: site power budget, cooling
//!   capacity, weather-driven PUE, dual supply sources (RIKEN grid vs. gas
//!   turbine), and demand-response events.
//! - [`meter`] — exact piecewise energy metering per node and system-wide.
//! - [`telemetry`] — sampled sensor readings with noise/quantization, the
//!   "monitoring" half of the survey's Figure 1 loop.
//! - [`budget`] — a hierarchical power-budget ledger for schedulers that
//!   grant and reclaim power allocations.

pub mod budget;
pub mod dvfs;
pub mod error;
pub mod facility;
pub mod meter;
pub mod node_power;
pub mod rapl;
pub mod telemetry;

pub use budget::PowerBudget;
pub use dvfs::DvfsModel;
pub use error::PowerError;
pub use facility::{Facility, FacilityConfig, SupplySource, WeatherModel};
pub use meter::EnergyMeter;
pub use node_power::{NodePowerModel, NodePowerState};
pub use rapl::RaplDomain;
pub use telemetry::{Telemetry, TelemetryConfig};
