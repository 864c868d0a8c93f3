//! The typed trace bus: structured decision events in a bounded ring
//! buffer behind a per-category enable mask.
//!
//! Design constraints, in priority order:
//!
//! 1. **Disabled is free.** With a category masked off, recording is one
//!    branch on a `u32` bitset and nothing allocates: [`TraceBus::record`]
//!    and [`TraceEvent::category`] inline into the call site, so callers
//!    pass their small, copy-only payloads without guarding first.
//! 2. **Deterministic.** Every payload is keyed on [`SimTime`], never wall
//!    clock; the ring buffer, sampling strides, and sequence numbers are
//!    pure functions of the event stream. Identical seeds produce
//!    byte-identical exported traces, also across a crash and resume
//!    (the determinism matrix, `tests/common/matrix.rs`).
//! 3. **Bounded.** The ring drops the *oldest* records past capacity and
//!    counts the drops, so a week-long campaign cannot OOM on tracing.

use epa_simcore::time::SimTime;
use serde::Serialize;

/// Trace event categories — one bit each in a [`CategoryMask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[repr(u8)]
pub enum TraceCategory {
    /// Job lifecycle: submit, start, finish, kill, requeue.
    Job = 0,
    /// Scheduler decisions that did *not* start a job (rejections).
    Sched = 1,
    /// Cap actuations, retries, and fence escalations.
    Actuation = 2,
    /// Power-budget grants, denials, releases, and resizes.
    Budget = 3,
    /// Emergency-response breaches and kills.
    Emergency = 4,
    /// Fault injections: node failures, repairs.
    Fault = 5,
    /// Telemetry sensor faults and staleness-fallback flips.
    Telemetry = 6,
    /// Windowed cap-enforcement evaluations. No engine component emits
    /// these today; the bit stays reserved so masks keep their meaning.
    Enforcement = 7,
    /// Control actions from external (learned) controllers. Engineered
    /// mechanisms call the engine's operations directly and record none
    /// here.
    Control = 8,
}

/// Number of trace categories (bitset width in use).
pub const N_CATEGORIES: usize = 9;

/// All categories, in bit order (for mask parsing and display).
pub const ALL_CATEGORIES: [TraceCategory; N_CATEGORIES] = [
    TraceCategory::Job,
    TraceCategory::Sched,
    TraceCategory::Actuation,
    TraceCategory::Budget,
    TraceCategory::Emergency,
    TraceCategory::Fault,
    TraceCategory::Telemetry,
    TraceCategory::Enforcement,
    TraceCategory::Control,
];

impl TraceCategory {
    /// The category's stable lowercase name (mask parsing, exports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Job => "job",
            TraceCategory::Sched => "sched",
            TraceCategory::Actuation => "actuation",
            TraceCategory::Budget => "budget",
            TraceCategory::Emergency => "emergency",
            TraceCategory::Fault => "fault",
            TraceCategory::Telemetry => "telemetry",
            TraceCategory::Enforcement => "enforcement",
            TraceCategory::Control => "control",
        }
    }
}

/// What kind of control-plane action a [`TraceEvent::ControlAction`]
/// records. Mirrors `epa_sched`'s `ControlAction` variants (the kind
/// lives here because `epa-obs` sits below the scheduler in the crate
/// graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ControlKind {
    /// Set (or clear) the concurrent-job limit.
    JobLimit,
    /// Set (or clear) the default DVFS frequency for new starts.
    DefaultFrequency,
    /// Resize the power budget.
    BudgetResize,
    /// Override (or clear) the idle-shutdown policy.
    IdleShutdown,
    /// Power off idle nodes now.
    PowerOffIdle,
    /// Shed running jobs to an emergency target.
    EmergencyShed,
}

impl ControlKind {
    /// The kind's stable lowercase name (exports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ControlKind::JobLimit => "job_limit",
            ControlKind::DefaultFrequency => "default_frequency",
            ControlKind::BudgetResize => "budget_resize",
            ControlKind::IdleShutdown => "idle_shutdown",
            ControlKind::PowerOffIdle => "power_off_idle",
            ControlKind::EmergencyShed => "emergency_shed",
        }
    }
}

/// A bitset of enabled trace categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CategoryMask(pub u32);

impl CategoryMask {
    /// Nothing enabled — the zero-overhead default.
    pub const NONE: CategoryMask = CategoryMask(0);
    /// Every category enabled.
    pub const ALL: CategoryMask = CategoryMask((1 << N_CATEGORIES as u32) - 1);

    /// True when `cat`'s bit is set. This is the whole cost of a disabled
    /// trace site.
    #[inline]
    #[must_use]
    pub fn enabled(self, cat: TraceCategory) -> bool {
        self.0 & (1 << (cat as u32)) != 0
    }

    /// Returns the mask with `cat` enabled.
    #[must_use]
    pub fn with(self, cat: TraceCategory) -> CategoryMask {
        CategoryMask(self.0 | (1 << (cat as u32)))
    }

    /// Parses a mask spec: `"all"`, `"off"`/`""`, or a comma-separated
    /// list of category names (`"job,budget,fault"`). Unknown names are
    /// ignored rather than fatal — an operator typo must not change
    /// simulation results, only trace coverage.
    #[must_use]
    pub fn parse(spec: &str) -> CategoryMask {
        Self::parse_with_unknown(spec).0
    }

    /// [`CategoryMask::parse`], additionally reporting the names it did
    /// not recognize so callers (the env reader) can warn instead of
    /// silently narrowing trace coverage.
    #[must_use]
    pub fn parse_with_unknown(spec: &str) -> (CategoryMask, Vec<String>) {
        match spec.trim() {
            "" | "off" | "none" | "0" => (CategoryMask::NONE, Vec::new()),
            "all" | "1" | "on" => (CategoryMask::ALL, Vec::new()),
            list => {
                let mut mask = CategoryMask::NONE;
                let mut unknown = Vec::new();
                for part in list.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    match ALL_CATEGORIES.into_iter().find(|cat| part == cat.name()) {
                        Some(cat) => mask = mask.with(cat),
                        None => unknown.push(part.to_owned()),
                    }
                }
                (mask, unknown)
            }
        }
    }
}

/// Trace configuration: the enable mask, ring capacity, and whether
/// wall-clock profiling scopes are active.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Which categories to record.
    pub mask: CategoryMask,
    /// Ring-buffer capacity in records; oldest are dropped (and counted)
    /// past it.
    pub capacity: usize,
    /// Enable wall-clock profiling scopes (excluded from golden output).
    pub profile: bool,
}

impl Default for TraceConfig {
    /// Tracing off, profiling off — byte-identical behavior and hot-path
    /// cost of one bitset branch per instrumented site.
    fn default() -> Self {
        TraceConfig {
            mask: CategoryMask::NONE,
            capacity: 65_536,
            profile: false,
        }
    }
}

impl TraceConfig {
    /// Everything on: all categories, profiling active.
    #[must_use]
    pub fn all() -> Self {
        TraceConfig {
            mask: CategoryMask::ALL,
            capacity: 65_536,
            profile: true,
        }
    }

    /// Reads the `EPA_JSRM_TRACE` environment variable (`"all"`, `"off"`,
    /// or a comma list like `"job,budget,fault"`). Unset means disabled.
    /// Unknown category names are skipped, but *not* silently: a
    /// one-time stderr warning names the variable, the value, and the
    /// rejected names — the same contract as the `EPA_JSRM_THREADS`
    /// parser, so a typo'd `EPA_JSRM_TRACE=jobs`
    /// cannot masquerade as "job tracing on".
    #[must_use]
    pub fn from_env() -> Self {
        use std::sync::OnceLock;
        static WARNED: OnceLock<()> = OnceLock::new();
        let mask = std::env::var("EPA_JSRM_TRACE").map_or(CategoryMask::NONE, |spec| {
            let (mask, unknown) = CategoryMask::parse_with_unknown(&spec);
            if !unknown.is_empty() {
                WARNED.get_or_init(|| {
                    eprintln!(
                        "warning: EPA_JSRM_TRACE={spec:?} names unknown trace \
                         categories {unknown:?} (ignored; known names: {})",
                        ALL_CATEGORIES
                            .iter()
                            .map(|c| c.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                });
            }
            mask
        });
        TraceConfig {
            mask,
            ..TraceConfig::default()
        }
    }
}

/// Why a job was killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum KillReason {
    /// Hit its walltime estimate.
    Walltime,
    /// Killed by the emergency power response.
    Emergency,
    /// Killed by a node failure.
    Failure,
}

/// Why a scheduler `Start` decision was rejected by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RejectReason {
    /// The decision named a job not in the queue.
    UnknownJob,
    /// Not enough free nodes at execution time.
    InsufficientNodes,
    /// The power-budget ledger denied the grant.
    PowerDenied,
    /// The allocator could not place the job.
    AllocFailed,
    /// The cap write failed after all retries.
    ActuationFailed,
}

/// A structured decision event. Every variant's payload is a pure
/// function of simulation state — no wall clock, no addresses, no
/// iteration-order artifacts — so the exported trace is replayable.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// A job entered the queue.
    JobSubmitted {
        /// Job id.
        job: u64,
        /// Requested node count.
        nodes: u32,
        /// Queue depth after the push.
        queue_depth: u64,
    },
    /// A job started executing.
    JobStarted {
        /// Job id.
        job: u64,
        /// Allocated node count.
        nodes: u32,
        /// Per-node draw at start, watts.
        watts_per_node: f64,
        /// Submit → start wait, seconds.
        wait_secs: f64,
        /// The job started ahead of an earlier-queued job (backfill).
        backfilled: bool,
        /// The engine programmed a per-node cap to fit the budget.
        capped_to_fit: bool,
    },
    /// A job ran to its natural end (or walltime limit — see
    /// [`TraceEvent::JobKilled`] with [`KillReason::Walltime`]).
    JobFinished {
        /// Job id.
        job: u64,
        /// Actual execution time, seconds.
        run_secs: f64,
        /// Energy consumed, joules.
        energy_joules: f64,
    },
    /// A job was killed.
    JobKilled {
        /// Job id.
        job: u64,
        /// Why.
        reason: KillReason,
        /// Seconds it had been running.
        run_secs: f64,
    },
    /// A killed job re-entered the queue as a continuation.
    JobRequeued {
        /// Job id.
        job: u64,
        /// Base runtime remaining in the continuation, seconds.
        remaining_secs: f64,
    },
    /// The engine rejected a policy `Start` decision.
    StartRejected {
        /// Job id.
        job: u64,
        /// Why.
        reason: RejectReason,
    },
    /// A cap write across a job's node set (through the possibly
    /// unreliable actuator).
    CapWrite {
        /// Node count written.
        nodes: u32,
        /// Cap value, watts.
        watts: f64,
        /// Total attempts across the node set (first tries + retries).
        attempts: u64,
        /// Whether every node's write eventually succeeded.
        succeeded: bool,
        /// Worst-case accumulated backoff latency, seconds.
        delay_secs: f64,
    },
    /// One node's command needed retries or failed outright.
    ActuationRetry {
        /// Node id.
        node: u32,
        /// Attempts made for this node's command.
        attempts: u32,
        /// Whether the command eventually succeeded.
        succeeded: bool,
    },
    /// A node crossed the consecutive-failure threshold and was fenced.
    NodeFenced {
        /// Node id.
        node: u32,
    },
    /// The budget ledger granted power to a job.
    BudgetGrant {
        /// Grant id (job id).
        grant: u64,
        /// Granted watts.
        watts: f64,
        /// Headroom remaining after the grant, watts.
        headroom_watts: f64,
    },
    /// The budget ledger denied a request.
    BudgetDenied {
        /// Grant id (job id).
        grant: u64,
        /// Requested watts.
        watts: f64,
        /// Headroom at denial time, watts.
        headroom_watts: f64,
    },
    /// A grant was released.
    BudgetRelease {
        /// Grant id (job id).
        grant: u64,
        /// Released watts.
        watts: f64,
    },
    /// The budget total was resized (demand response).
    BudgetResize {
        /// New total, watts.
        total_watts: f64,
        /// Whether the resize was accepted.
        ok: bool,
    },
    /// Observed power breached the emergency limit.
    EmergencyBreach {
        /// Observed system draw, watts.
        observed_watts: f64,
        /// The armed limit, watts.
        limit_watts: f64,
    },
    /// The emergency response killed a job.
    EmergencyKill {
        /// Job id.
        job: u64,
        /// Draw shed by the kill, watts.
        shed_watts: f64,
    },
    /// A node went down (independent failure, correlated domain event,
    /// or fence).
    NodeFailed {
        /// Node id.
        node: u32,
        /// Part of a correlated rack/PDU domain event.
        correlated: bool,
    },
    /// A node came back from repair.
    NodeRepaired {
        /// Node id.
        node: u32,
        /// Downtime, seconds.
        down_secs: f64,
    },
    /// A telemetry sample was lost (sensor dropout).
    SensorDropout,
    /// The sensor entered a stuck-at window.
    SensorStuck {
        /// The value it will keep re-reporting, watts.
        held_watts: f64,
    },
    /// Telemetry staleness crossed the bound (or recovered): the
    /// scheduler flipped to/from the conservative fallback estimate.
    TelemetryFallback {
        /// True when entering the fallback, false when recovering.
        engaged: bool,
        /// Age of the last accepted reading, seconds.
        age_secs: f64,
    },
    /// A windowed cap-enforcement evaluation. No engine component emits
    /// it today; wire tag 20 stays reserved so the trace schema is
    /// unchanged.
    Enforcement {
        /// Windowed average draw, watts.
        window_avg_watts: f64,
        /// The enforced cap, watts.
        cap_watts: f64,
        /// Recommended node delta: positive allows boots, negative shuts
        /// down, zero holds.
        delta_nodes: i64,
    },
    /// An external (learned) controller submitted a control action.
    /// Engineered mechanisms call the engine's operations directly and
    /// record none.
    ControlAction {
        /// What kind of action.
        kind: ControlKind,
        /// A kind-specific scalar summary of the action's payload
        /// (e.g. the new limit, target watts, or -1 for "clear").
        value: f64,
        /// Whether the engine accepted it (validation + execution).
        accepted: bool,
    },
}

impl TraceEvent {
    /// Encodes the event as a tag byte plus its fields.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        fn kill_tag(r: KillReason) -> u8 {
            match r {
                KillReason::Walltime => 0,
                KillReason::Emergency => 1,
                KillReason::Failure => 2,
            }
        }
        fn reject_tag(r: RejectReason) -> u8 {
            match r {
                RejectReason::UnknownJob => 0,
                RejectReason::InsufficientNodes => 1,
                RejectReason::PowerDenied => 2,
                RejectReason::AllocFailed => 3,
                RejectReason::ActuationFailed => 4,
            }
        }
        // Tags 0 and 3, the retired start and backfill-depth kinds, are
        // not reused.
        fn control_tag(k: ControlKind) -> u8 {
            match k {
                ControlKind::JobLimit => 1,
                ControlKind::DefaultFrequency => 2,
                ControlKind::BudgetResize => 4,
                ControlKind::IdleShutdown => 5,
                ControlKind::PowerOffIdle => 6,
                ControlKind::EmergencyShed => 7,
            }
        }
        match self {
            TraceEvent::JobSubmitted {
                job,
                nodes,
                queue_depth,
            } => {
                w.u8(0);
                w.u64(*job);
                w.u32(*nodes);
                w.u64(*queue_depth);
            }
            TraceEvent::JobStarted {
                job,
                nodes,
                watts_per_node,
                wait_secs,
                backfilled,
                capped_to_fit,
            } => {
                w.u8(1);
                w.u64(*job);
                w.u32(*nodes);
                w.f64(*watts_per_node);
                w.f64(*wait_secs);
                w.bool(*backfilled);
                w.bool(*capped_to_fit);
            }
            TraceEvent::JobFinished {
                job,
                run_secs,
                energy_joules,
            } => {
                w.u8(2);
                w.u64(*job);
                w.f64(*run_secs);
                w.f64(*energy_joules);
            }
            TraceEvent::JobKilled {
                job,
                reason,
                run_secs,
            } => {
                w.u8(3);
                w.u64(*job);
                w.u8(kill_tag(*reason));
                w.f64(*run_secs);
            }
            TraceEvent::JobRequeued {
                job,
                remaining_secs,
            } => {
                w.u8(4);
                w.u64(*job);
                w.f64(*remaining_secs);
            }
            TraceEvent::StartRejected { job, reason } => {
                w.u8(5);
                w.u64(*job);
                w.u8(reject_tag(*reason));
            }
            TraceEvent::CapWrite {
                nodes,
                watts,
                attempts,
                succeeded,
                delay_secs,
            } => {
                w.u8(6);
                w.u32(*nodes);
                w.f64(*watts);
                w.u64(*attempts);
                w.bool(*succeeded);
                w.f64(*delay_secs);
            }
            TraceEvent::ActuationRetry {
                node,
                attempts,
                succeeded,
            } => {
                w.u8(7);
                w.u32(*node);
                w.u32(*attempts);
                w.bool(*succeeded);
            }
            TraceEvent::NodeFenced { node } => {
                w.u8(8);
                w.u32(*node);
            }
            TraceEvent::BudgetGrant {
                grant,
                watts,
                headroom_watts,
            } => {
                w.u8(9);
                w.u64(*grant);
                w.f64(*watts);
                w.f64(*headroom_watts);
            }
            TraceEvent::BudgetDenied {
                grant,
                watts,
                headroom_watts,
            } => {
                w.u8(10);
                w.u64(*grant);
                w.f64(*watts);
                w.f64(*headroom_watts);
            }
            TraceEvent::BudgetRelease { grant, watts } => {
                w.u8(11);
                w.u64(*grant);
                w.f64(*watts);
            }
            TraceEvent::BudgetResize { total_watts, ok } => {
                w.u8(12);
                w.f64(*total_watts);
                w.bool(*ok);
            }
            TraceEvent::EmergencyBreach {
                observed_watts,
                limit_watts,
            } => {
                w.u8(13);
                w.f64(*observed_watts);
                w.f64(*limit_watts);
            }
            TraceEvent::EmergencyKill { job, shed_watts } => {
                w.u8(14);
                w.u64(*job);
                w.f64(*shed_watts);
            }
            TraceEvent::NodeFailed { node, correlated } => {
                w.u8(15);
                w.u32(*node);
                w.bool(*correlated);
            }
            TraceEvent::NodeRepaired { node, down_secs } => {
                w.u8(16);
                w.u32(*node);
                w.f64(*down_secs);
            }
            TraceEvent::SensorDropout => w.u8(17),
            TraceEvent::SensorStuck { held_watts } => {
                w.u8(18);
                w.f64(*held_watts);
            }
            TraceEvent::TelemetryFallback { engaged, age_secs } => {
                w.u8(19);
                w.bool(*engaged);
                w.f64(*age_secs);
            }
            TraceEvent::Enforcement {
                window_avg_watts,
                cap_watts,
                delta_nodes,
            } => {
                w.u8(20);
                w.f64(*window_avg_watts);
                w.f64(*cap_watts);
                w.i64(*delta_nodes);
            }
            TraceEvent::ControlAction {
                kind,
                value,
                accepted,
            } => {
                w.u8(21);
                w.u8(control_tag(*kind));
                w.f64(*value);
                w.bool(*accepted);
            }
        }
    }

    /// Decodes an event written by [`TraceEvent::snapshot_into`].
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        use epa_simcore::snap::SnapshotError;
        fn kill(tag: u8) -> Result<KillReason, SnapshotError> {
            Ok(match tag {
                0 => KillReason::Walltime,
                1 => KillReason::Emergency,
                2 => KillReason::Failure,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        detail: format!("unknown kill-reason tag {tag}"),
                    })
                }
            })
        }
        fn reject(tag: u8) -> Result<RejectReason, SnapshotError> {
            Ok(match tag {
                0 => RejectReason::UnknownJob,
                1 => RejectReason::InsufficientNodes,
                2 => RejectReason::PowerDenied,
                3 => RejectReason::AllocFailed,
                4 => RejectReason::ActuationFailed,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        detail: format!("unknown reject-reason tag {tag}"),
                    })
                }
            })
        }
        fn control(tag: u8) -> Result<ControlKind, SnapshotError> {
            Ok(match tag {
                1 => ControlKind::JobLimit,
                2 => ControlKind::DefaultFrequency,
                4 => ControlKind::BudgetResize,
                5 => ControlKind::IdleShutdown,
                6 => ControlKind::PowerOffIdle,
                7 => ControlKind::EmergencyShed,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        detail: format!("unknown control-kind tag {tag}"),
                    })
                }
            })
        }
        Ok(match r.u8()? {
            0 => TraceEvent::JobSubmitted {
                job: r.u64()?,
                nodes: r.u32()?,
                queue_depth: r.u64()?,
            },
            1 => TraceEvent::JobStarted {
                job: r.u64()?,
                nodes: r.u32()?,
                watts_per_node: r.f64()?,
                wait_secs: r.f64()?,
                backfilled: r.bool()?,
                capped_to_fit: r.bool()?,
            },
            2 => TraceEvent::JobFinished {
                job: r.u64()?,
                run_secs: r.f64()?,
                energy_joules: r.f64()?,
            },
            3 => TraceEvent::JobKilled {
                job: r.u64()?,
                reason: kill(r.u8()?)?,
                run_secs: r.f64()?,
            },
            4 => TraceEvent::JobRequeued {
                job: r.u64()?,
                remaining_secs: r.f64()?,
            },
            5 => TraceEvent::StartRejected {
                job: r.u64()?,
                reason: reject(r.u8()?)?,
            },
            6 => TraceEvent::CapWrite {
                nodes: r.u32()?,
                watts: r.f64()?,
                attempts: r.u64()?,
                succeeded: r.bool()?,
                delay_secs: r.f64()?,
            },
            7 => TraceEvent::ActuationRetry {
                node: r.u32()?,
                attempts: r.u32()?,
                succeeded: r.bool()?,
            },
            8 => TraceEvent::NodeFenced { node: r.u32()? },
            9 => TraceEvent::BudgetGrant {
                grant: r.u64()?,
                watts: r.f64()?,
                headroom_watts: r.f64()?,
            },
            10 => TraceEvent::BudgetDenied {
                grant: r.u64()?,
                watts: r.f64()?,
                headroom_watts: r.f64()?,
            },
            11 => TraceEvent::BudgetRelease {
                grant: r.u64()?,
                watts: r.f64()?,
            },
            12 => TraceEvent::BudgetResize {
                total_watts: r.f64()?,
                ok: r.bool()?,
            },
            13 => TraceEvent::EmergencyBreach {
                observed_watts: r.f64()?,
                limit_watts: r.f64()?,
            },
            14 => TraceEvent::EmergencyKill {
                job: r.u64()?,
                shed_watts: r.f64()?,
            },
            15 => TraceEvent::NodeFailed {
                node: r.u32()?,
                correlated: r.bool()?,
            },
            16 => TraceEvent::NodeRepaired {
                node: r.u32()?,
                down_secs: r.f64()?,
            },
            17 => TraceEvent::SensorDropout,
            18 => TraceEvent::SensorStuck {
                held_watts: r.f64()?,
            },
            19 => TraceEvent::TelemetryFallback {
                engaged: r.bool()?,
                age_secs: r.f64()?,
            },
            20 => TraceEvent::Enforcement {
                window_avg_watts: r.f64()?,
                cap_watts: r.f64()?,
                delta_nodes: r.i64()?,
            },
            21 => TraceEvent::ControlAction {
                kind: control(r.u8()?)?,
                value: r.f64()?,
                accepted: r.bool()?,
            },
            tag => {
                return Err(SnapshotError::Corrupt {
                    detail: format!("unknown trace-event tag {tag}"),
                })
            }
        })
    }

    /// The category this event records under.
    #[inline]
    #[must_use]
    pub fn category(&self) -> TraceCategory {
        match self {
            TraceEvent::JobSubmitted { .. }
            | TraceEvent::JobStarted { .. }
            | TraceEvent::JobFinished { .. }
            | TraceEvent::JobKilled { .. }
            | TraceEvent::JobRequeued { .. } => TraceCategory::Job,
            TraceEvent::StartRejected { .. } => TraceCategory::Sched,
            TraceEvent::CapWrite { .. }
            | TraceEvent::ActuationRetry { .. }
            | TraceEvent::NodeFenced { .. } => TraceCategory::Actuation,
            TraceEvent::BudgetGrant { .. }
            | TraceEvent::BudgetDenied { .. }
            | TraceEvent::BudgetRelease { .. }
            | TraceEvent::BudgetResize { .. } => TraceCategory::Budget,
            TraceEvent::EmergencyBreach { .. } | TraceEvent::EmergencyKill { .. } => {
                TraceCategory::Emergency
            }
            TraceEvent::NodeFailed { .. } | TraceEvent::NodeRepaired { .. } => TraceCategory::Fault,
            TraceEvent::SensorDropout
            | TraceEvent::SensorStuck { .. }
            | TraceEvent::TelemetryFallback { .. } => TraceCategory::Telemetry,
            TraceEvent::Enforcement { .. } => TraceCategory::Enforcement,
            TraceEvent::ControlAction { .. } => TraceCategory::Control,
        }
    }
}

/// One recorded trace entry: simulation time, a global sequence number
/// (order within equal timestamps), and the event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub t: SimTime,
    /// Global sequence number across all categories (pre-sampling events
    /// that were masked off do not consume numbers).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// The bounded trace bus.
#[derive(Debug)]
pub struct TraceBus {
    mask: CategoryMask,
    capacity: usize,
    /// Ring storage; once full, `head` marks the logical start.
    records: Vec<TraceRecord>,
    head: usize,
    seq: u64,
    dropped: u64,
    /// Per-category sampling stride: record every `stride`-th enabled
    /// event of that category (1 = every event).
    stride: [u32; N_CATEGORIES],
    /// Enabled events seen per category (pre-sampling).
    seen: [u64; N_CATEGORIES],
    sampled_out: u64,
}

impl TraceBus {
    /// Creates a bus with the given mask and ring capacity.
    #[must_use]
    pub fn new(mask: CategoryMask, capacity: usize) -> Self {
        TraceBus {
            mask,
            capacity: capacity.max(1),
            records: Vec::new(),
            head: 0,
            seq: 0,
            dropped: 0,
            stride: [1; N_CATEGORIES],
            seen: [0; N_CATEGORIES],
            sampled_out: 0,
        }
    }

    /// A fully masked bus: recording is a no-op, nothing ever allocates.
    #[must_use]
    pub fn disabled() -> Self {
        TraceBus::new(CategoryMask::NONE, 1)
    }

    /// The enable mask.
    #[must_use]
    pub fn mask(&self) -> CategoryMask {
        self.mask
    }

    /// Sets the sampling stride for a category: every `stride`-th enabled
    /// event is recorded (0 is treated as 1).
    pub fn set_stride(&mut self, cat: TraceCategory, stride: u32) {
        self.stride[cat as usize] = stride.max(1);
    }

    /// Records an event at time `t`. A single bitset branch when the
    /// event's category is masked off.
    #[inline]
    pub fn record(&mut self, t: SimTime, event: TraceEvent) {
        let cat = event.category();
        if !self.mask.enabled(cat) {
            return;
        }
        self.record_enabled(t, cat, event);
    }

    /// Cold half of [`TraceBus::record`]: sampling, sequence numbering,
    /// and the ring push.
    fn record_enabled(&mut self, t: SimTime, cat: TraceCategory, event: TraceEvent) {
        let i = cat as usize;
        self.seen[i] += 1;
        let stride = u64::from(self.stride[i]);
        if stride > 1 && !(self.seen[i] - 1).is_multiple_of(stride) {
            self.sampled_out += 1;
            return;
        }
        let rec = TraceRecord {
            t,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            // Ring overwrite: drop the oldest record.
            self.records[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded (or everything was masked).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Oldest records dropped to the ring bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events skipped by sampling strides.
    #[must_use]
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Enabled events seen for a category, before sampling.
    #[must_use]
    pub fn seen(&self, cat: TraceCategory) -> u64 {
        self.seen[cat as usize]
    }

    /// Iterates records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (tail, head) = self.records.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    /// Encodes the full bus — mask, capacity, ring contents in raw slot
    /// order with the head position, sequence/drop/sampling counters — so
    /// a restored bus continues the ring exactly where it left off.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        w.u32(self.mask.0);
        w.usize(self.capacity);
        w.seq(&self.records, |w, rec| {
            w.f64(rec.t.as_secs());
            w.u64(rec.seq);
            rec.event.snapshot_into(w);
        });
        w.usize(self.head);
        w.u64(self.seq);
        w.u64(self.dropped);
        for s in &self.stride {
            w.u32(*s);
        }
        for s in &self.seen {
            w.u64(*s);
        }
        w.u64(self.sampled_out);
    }

    /// Decodes a bus written by [`TraceBus::snapshot_into`].
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        let mask = CategoryMask(r.u32()?);
        let capacity = r.usize()?;
        let records = r.seq(|r| {
            Ok(TraceRecord {
                t: r.time()?,
                seq: r.u64()?,
                event: TraceEvent::restore_from(r)?,
            })
        })?;
        let head = r.usize()?;
        let seq = r.u64()?;
        let dropped = r.u64()?;
        let mut stride = [0u32; N_CATEGORIES];
        for s in &mut stride {
            *s = r.u32()?;
        }
        let mut seen = [0u64; N_CATEGORIES];
        for s in &mut seen {
            *s = r.u64()?;
        }
        let sampled_out = r.u64()?;
        if capacity == 0 || records.len() > capacity || (head != 0 && head >= records.len()) {
            return Err(epa_simcore::snap::SnapshotError::Corrupt {
                detail: format!(
                    "trace ring inconsistent: {} records, capacity {capacity}, head {head}",
                    records.len()
                ),
            });
        }
        Ok(TraceBus {
            mask,
            capacity,
            records,
            head,
            seq,
            dropped,
            stride,
            seen,
            sampled_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn ev(job: u64) -> TraceEvent {
        TraceEvent::JobSubmitted {
            job,
            nodes: 1,
            queue_depth: 1,
        }
    }

    #[test]
    fn mask_parsing() {
        assert_eq!(CategoryMask::parse("all"), CategoryMask::ALL);
        assert_eq!(CategoryMask::parse("off"), CategoryMask::NONE);
        assert_eq!(CategoryMask::parse(""), CategoryMask::NONE);
        let m = CategoryMask::parse("job, budget,fault");
        assert!(m.enabled(TraceCategory::Job));
        assert!(m.enabled(TraceCategory::Budget));
        assert!(m.enabled(TraceCategory::Fault));
        assert!(!m.enabled(TraceCategory::Emergency));
        // Typos change coverage, not behavior.
        assert_eq!(CategoryMask::parse("jbo,nope"), CategoryMask::NONE);
    }

    #[test]
    fn mask_parsing_reports_unknown_names() {
        // Keywords and valid lists report nothing unknown.
        assert_eq!(
            CategoryMask::parse_with_unknown("all").1,
            Vec::<String>::new()
        );
        assert_eq!(
            CategoryMask::parse_with_unknown("off").1,
            Vec::<String>::new()
        );
        assert_eq!(
            CategoryMask::parse_with_unknown("job,budget").1,
            Vec::<String>::new()
        );
        // Typos surface by name, while valid names in the same list
        // still take effect; empty segments are not "unknown".
        let (mask, unknown) = CategoryMask::parse_with_unknown("job, jbo, ,nope");
        assert!(mask.enabled(TraceCategory::Job));
        assert_eq!(unknown, vec!["jbo".to_owned(), "nope".to_owned()]);
        // The two parse entry points agree on the mask.
        assert_eq!(
            CategoryMask::parse("job,jbo"),
            CategoryMask::parse_with_unknown("job,jbo").0
        );
    }

    #[test]
    fn masked_categories_record_nothing() {
        let mut bus = TraceBus::new(CategoryMask::NONE.with(TraceCategory::Budget), 16);
        bus.record(t(1.0), ev(1)); // Job: masked off
        bus.record(
            t(2.0),
            TraceEvent::BudgetResize {
                total_watts: 100.0,
                ok: true,
            },
        );
        assert_eq!(bus.len(), 1);
        assert_eq!(bus.seen(TraceCategory::Job), 0);
        assert_eq!(bus.seen(TraceCategory::Budget), 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut bus = TraceBus::new(CategoryMask::ALL, 4);
        for i in 0..10u64 {
            bus.record(t(i as f64), ev(i));
        }
        assert_eq!(bus.len(), 4);
        assert_eq!(bus.dropped(), 6);
        let jobs: Vec<u64> = bus
            .iter()
            .map(|r| match r.event {
                TraceEvent::JobSubmitted { job, .. } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(jobs, vec![6, 7, 8, 9]);
        // Sequence numbers stay global and monotone.
        let seqs: Vec<u64> = bus.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn sampling_stride_thins_deterministically() {
        let mut bus = TraceBus::new(CategoryMask::ALL, 128);
        bus.set_stride(TraceCategory::Job, 3);
        for i in 0..9u64 {
            bus.record(t(i as f64), ev(i));
        }
        // Every 3rd: events 0, 3, 6.
        assert_eq!(bus.len(), 3);
        assert_eq!(bus.sampled_out(), 6);
        assert_eq!(bus.seen(TraceCategory::Job), 9);
    }

    #[test]
    fn every_variant_maps_to_a_category() {
        // Spot checks across the taxonomy.
        assert_eq!(ev(1).category(), TraceCategory::Job);
        assert_eq!(
            TraceEvent::StartRejected {
                job: 1,
                reason: RejectReason::PowerDenied
            }
            .category(),
            TraceCategory::Sched
        );
        assert_eq!(
            TraceEvent::NodeFenced { node: 3 }.category(),
            TraceCategory::Actuation
        );
        assert_eq!(
            TraceEvent::SensorDropout.category(),
            TraceCategory::Telemetry
        );
        assert_eq!(
            TraceEvent::Enforcement {
                window_avg_watts: 1.0,
                cap_watts: 2.0,
                delta_nodes: 0
            }
            .category(),
            TraceCategory::Enforcement
        );
        assert_eq!(
            TraceEvent::ControlAction {
                kind: ControlKind::JobLimit,
                value: 4.0,
                accepted: true
            }
            .category(),
            TraceCategory::Control
        );
    }

    /// The wire tag of each variant. The exhaustive match makes a new
    /// variant a compile error here until its tag is pinned.
    fn wire_tag(e: &TraceEvent) -> u8 {
        match e {
            TraceEvent::JobSubmitted { .. } => 0,
            TraceEvent::JobStarted { .. } => 1,
            TraceEvent::JobFinished { .. } => 2,
            TraceEvent::JobKilled { .. } => 3,
            TraceEvent::JobRequeued { .. } => 4,
            TraceEvent::StartRejected { .. } => 5,
            TraceEvent::CapWrite { .. } => 6,
            TraceEvent::ActuationRetry { .. } => 7,
            TraceEvent::NodeFenced { .. } => 8,
            TraceEvent::BudgetGrant { .. } => 9,
            TraceEvent::BudgetDenied { .. } => 10,
            TraceEvent::BudgetRelease { .. } => 11,
            TraceEvent::BudgetResize { .. } => 12,
            TraceEvent::EmergencyBreach { .. } => 13,
            TraceEvent::EmergencyKill { .. } => 14,
            TraceEvent::NodeFailed { .. } => 15,
            TraceEvent::NodeRepaired { .. } => 16,
            TraceEvent::SensorDropout => 17,
            TraceEvent::SensorStuck { .. } => 18,
            TraceEvent::TelemetryFallback { .. } => 19,
            TraceEvent::Enforcement { .. } => 20,
            TraceEvent::ControlAction { .. } => 21,
        }
    }

    #[test]
    fn every_variant_roundtrips_with_its_wire_tag() {
        use epa_simcore::snap::{SnapReader, SnapWriter};
        let all = vec![
            ev(1),
            TraceEvent::JobStarted {
                job: 2,
                nodes: 8,
                watts_per_node: 312.5,
                wait_secs: 60.0,
                backfilled: true,
                capped_to_fit: false,
            },
            TraceEvent::JobFinished {
                job: 3,
                run_secs: 3600.0,
                energy_joules: 1.5e9,
            },
            TraceEvent::JobKilled {
                job: 4,
                reason: KillReason::Failure,
                run_secs: 12.0,
            },
            TraceEvent::JobRequeued {
                job: 5,
                remaining_secs: 99.0,
            },
            TraceEvent::StartRejected {
                job: 6,
                reason: RejectReason::ActuationFailed,
            },
            TraceEvent::CapWrite {
                nodes: 4,
                watts: 250.0,
                attempts: 5,
                succeeded: true,
                delay_secs: 0.25,
            },
            TraceEvent::ActuationRetry {
                node: 7,
                attempts: 3,
                succeeded: false,
            },
            TraceEvent::NodeFenced { node: 9 },
            TraceEvent::BudgetGrant {
                grant: 10,
                watts: 1e4,
                headroom_watts: 2e4,
            },
            TraceEvent::BudgetDenied {
                grant: 11,
                watts: 3e4,
                headroom_watts: 1e3,
            },
            TraceEvent::BudgetRelease {
                grant: 12,
                watts: 1e4,
            },
            TraceEvent::BudgetResize {
                total_watts: 5e5,
                ok: false,
            },
            TraceEvent::EmergencyBreach {
                observed_watts: 6e5,
                limit_watts: 5e5,
            },
            TraceEvent::EmergencyKill {
                job: 13,
                shed_watts: 4e3,
            },
            TraceEvent::NodeFailed {
                node: 14,
                correlated: true,
            },
            TraceEvent::NodeRepaired {
                node: 14,
                down_secs: 7200.0,
            },
            TraceEvent::SensorDropout,
            TraceEvent::SensorStuck { held_watts: 4.2e5 },
            TraceEvent::TelemetryFallback {
                engaged: true,
                age_secs: 900.0,
            },
            TraceEvent::Enforcement {
                window_avg_watts: 4.9e5,
                cap_watts: 5e5,
                delta_nodes: -3,
            },
            TraceEvent::ControlAction {
                kind: ControlKind::EmergencyShed,
                value: -1.0,
                accepted: true,
            },
        ];
        let tags: Vec<u8> = all.iter().map(wire_tag).collect();
        assert_eq!(tags, (0..=21).collect::<Vec<u8>>(), "one event per variant");
        for event in &all {
            let mut w = SnapWriter::new();
            event.snapshot_into(&mut w);
            let bytes = w.finish(1);
            // Frame header: magic, version, length, checksum (28 bytes).
            assert_eq!(bytes[28], wire_tag(event), "{event:?}");
            let mut r = SnapReader::open(&bytes, 1).unwrap();
            let back = TraceEvent::restore_from(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(&back, event);
            let mut w2 = SnapWriter::new();
            back.snapshot_into(&mut w2);
            assert_eq!(w2.finish(1), bytes, "{event:?}");
        }
    }

    #[test]
    fn disabled_bus_never_allocates() {
        let mut bus = TraceBus::disabled();
        for i in 0..1000u64 {
            bus.record(t(0.0), ev(i));
        }
        assert!(bus.is_empty());
        assert_eq!(bus.records.capacity(), 0);
    }
}
