//! # epa-cluster — HPC machine model
//!
//! Describes the hardware the surveyed centers run: nodes grouped into
//! cabinets, wired by an interconnect topology, and fed by a facility
//! layout of PDUs and chillers.
//!
//! Survey relevance:
//! - Q2(c) asks each center for cabinets/nodes/cores, node architecture and
//!   interconnect — [`SystemSpec`] captures exactly those fields.
//! - Q6 asks about topology-aware task allocation. The survey answer comes
//!   from each site's mechanism taxonomy; the engine places jobs first-fit
//!   over [`NodeSet`] runs, and [`Topology`] stays a description of each
//!   site's interconnect.
//! - CEA's "layout logic" (know which PDUs/chillers a node depends on and
//!   avoid scheduling onto them during maintenance) is modeled by
//!   [`layout::FacilityLayout`].

pub mod layout;
pub mod node;
pub mod nodeset;
pub mod system;
pub mod topology;

pub use layout::{ChillerId, FacilityLayout, MaintenanceWindow, PduId};
pub use node::{CpuSpec, NodeId, NodeSpec};
pub use nodeset::NodeSet;
pub use system::{System, SystemSpec};
pub use topology::Topology;
