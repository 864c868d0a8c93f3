//! # epa-rm — resource management
//!
//! The "resource manager" half of EPA JSRM: privileged control over the
//! physical machine, as §II-A of the survey defines it. Where `epa-sched`
//! decides *what* runs, this crate models *how* the machine is actuated
//! and what the resource manager reports back:
//!
//! - [`actuators`] — the actuation interface (DVFS, caps, power on/off,
//!   VM splits) with a full audit log, and the retrying, fencing actuator
//!   the engine drives — the arrows of the survey's Figure 1.
//! - [`interactions`] — the component-interaction ledger that regenerates
//!   Figure 1: who talks to whom, how often.
//! - [`reports`] — post-job user energy reports and efficiency marks
//!   (Tokyo Tech, JCAHPC production capabilities).

pub mod actuators;
pub mod interactions;
pub mod reports;

pub use actuators::{Actuation, ActuatorLog};
pub use interactions::{Component, InteractionLedger};
pub use reports::{EfficiencyMark, UserEnergyReport};
