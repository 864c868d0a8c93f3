//! # epa-obs — the observability subsystem
//!
//! The survey's Figure 1 puts monitoring at the center of every EPA JSRM
//! control loop, and the questionnaire (Q6/Q7) asks centers what they can
//! *measure and explain* about their own scheduling decisions. This crate
//! is the simulator observing *itself*: a first-class, replayable record
//! of why the scheduler started, delayed, capped, requeued, or killed
//! every job — the Operational Data Analytics (ODA) stream that turns the
//! simulator into an analysis platform.
//!
//! Four pieces, each with a strict determinism contract:
//!
//! - [`trace`] — a typed **trace bus**: [`trace::TraceEvent`] variants for
//!   job lifecycle, cap actuations and retries, budget and emergency
//!   transitions, fault injections, and telemetry-fallback flips, recorded
//!   into a bounded ring buffer. A per-category enable mask makes the
//!   disabled path a single branch on a bitset.
//! - [`registry`] — the engine's one **metrics registry**: counters,
//!   gauges, and fixed-bucket histograms with Prometheus-text and JSON
//!   exposition. Every engine counter lands here (the outcome's counter
//!   map is collected from it), and bumping an existing name allocates
//!   nothing.
//! - [`export`] — a **JSONL trace exporter** plus a replay verifier that
//!   re-runs a seed and byte-diffs the decision trace. Every payload is
//!   keyed on `SimTime`, never wall clock, so traces join the existing
//!   determinism contract across `EPA_JSRM_THREADS`.
//! - [`profile`] — **wall-clock profiling scopes** around engine dispatch,
//!   allocator, and meter phases. Profiles are *explicitly excluded* from
//!   golden comparisons: wall time is the one non-deterministic output.

pub mod export;
pub mod profile;
pub mod registry;
pub mod trace;

pub use export::{trace_to_jsonl, verify_replay, ReplayDivergence, ReplayReport};
pub use profile::{ProfileReport, Profiler, Scope};
pub use registry::{Histogram, ObsRegistry};
pub use trace::{
    CategoryMask, ControlKind, KillReason, RejectReason, TraceBus, TraceCategory, TraceConfig,
    TraceEvent, TraceRecord, ALL_CATEGORIES,
};

/// Schema version stamped on every JSON/JSONL export this crate emits
/// (trace exports, registry expositions) and on the `BENCH_*.json`
/// emitters, so downstream diff tooling can detect format drift.
pub const OBS_SCHEMA_VERSION: u32 = 1;

/// The observability side-channel a simulation run produces: the decision
/// trace, the metrics registry, and the wall-clock profile.
///
/// The trace and registry are deterministic (same seed, same bytes at any
/// thread count); the profile is wall clock and must never enter a golden
/// comparison.
#[derive(Debug)]
pub struct ObsBundle {
    /// The recorded decision trace.
    pub trace: TraceBus,
    /// Counters, gauges, and histograms recorded during the run.
    pub registry: ObsRegistry,
    /// Aggregated wall-clock profile (non-deterministic; excluded from
    /// golden comparisons).
    pub profile: ProfileReport,
}

/// Live observability state owned by an instrumented component (the
/// engine): the bus and registry it records into, and the profiler it
/// times with. [`Obs::into_bundle`] freezes it into an [`ObsBundle`].
#[derive(Debug)]
pub struct Obs {
    /// The trace bus (masked; recording is a bitset branch when off).
    pub bus: TraceBus,
    /// The always-on metrics registry.
    pub registry: ObsRegistry,
    /// Wall-clock scope profiler (off unless configured).
    pub profiler: Profiler,
}

impl Obs {
    /// Builds the observability state from a trace configuration.
    #[must_use]
    pub fn new(config: &TraceConfig) -> Self {
        Obs {
            bus: TraceBus::new(config.mask, config.capacity),
            registry: ObsRegistry::new(),
            profiler: Profiler::new(config.profile),
        }
    }

    /// Fully disabled observability: every trace category masked off,
    /// profiling off. The registry stays live (counters are part of the
    /// outcome contract).
    #[must_use]
    pub fn disabled() -> Self {
        Obs::new(&TraceConfig::default())
    }

    /// Encodes the deterministic halves (trace bus and registry). The
    /// profiler is wall clock and excluded from goldens, so it is not
    /// captured; restore starts a fresh one.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        self.bus.snapshot_into(w);
        self.registry.snapshot_into(w);
    }

    /// Decodes observability state written by [`Obs::snapshot_into`],
    /// attaching a fresh profiler (enabled when `profile` is set).
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
        profile: bool,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        Ok(Obs {
            bus: TraceBus::restore_from(r)?,
            registry: ObsRegistry::restore_from(r)?,
            profiler: Profiler::new(profile),
        })
    }

    /// Freezes the live state into the bundle a finished run returns.
    #[must_use]
    pub fn into_bundle(self) -> ObsBundle {
        ObsBundle {
            trace: self.bus,
            registry: self.registry,
            profile: self.profiler.report(),
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}
