//! The determinism matrix: every run can be replayed byte for byte.
//!
//! One table of scenario × crash point. The scenario axis:
//!
//! - `golden` — the committed `tests/golden/sim_outcome.json` run: backfill,
//!   a budget with demand-response resizes, idle shutdown with demand boot,
//!   emergency kills with requeue and checkpointing, and node failures;
//! - `control` — every engineered control-plane adapter at once, pinned to
//!   fingerprints recorded from the inline dispatch they replaced;
//! - `chaos` — the full fault model (correlated domain failures, sensor
//!   dropout and stuck-at, failing actuators) over 12 seeds;
//! - `layout` — CEA-style layout-aware starts around a PDU maintenance
//!   window, with aggressive idle shutdown;
//! - `stream` — a lazy generator source against the materialized job list;
//! - `grid` — the facility twin with an enforced demand-response event;
//! - `env` — a `PolicyEnv` episode, crashed at decision steps.
//!
//! The crash-point axis: `none` (a second straight run), `one` (a crash at
//! half the horizon), `chain` (three crashes at seed-derived fractions) and
//! `after-completion` (a snapshot taken past the horizon). A crash drops
//! the engine; only the snapshot bytes survive, and a fresh engine resumes
//! from them.
//!
//! Every cell must reproduce its scenario's straight run exactly: the
//! outcome JSON, the JSONL decision trace (plus the grid settlement where a
//! twin is configured), and the snapshot bytes `run_until` writes after the
//! last resume at 0.9 of the horizon and past it. A failure names the cell
//! and the first differing line or byte.
//!
//! Nothing inside a run touches the thread pool, so the table has no
//! thread axis; [`thread_cells`] runs a few cells under another pool size
//! to keep it that way.
//!
//! Where each slice of the table runs:
//!
//! | slice                               | test                                   |
//! |-------------------------------------|----------------------------------------|
//! | `golden` row, committed file        | `tests/determinism_golden.rs`          |
//! | `golden` tracing checks             | `tests/trace_determinism.rs`           |
//! | `control` rows, pinned fingerprints | `tests/control_equivalence.rs`         |
//! | `chaos` × none, one                 | `tests/chaos.rs`                       |
//! | `chaos` × chain, after-completion   | `tests/resume_determinism.rs`          |
//! | `layout`, `stream`, `grid`, `env`   | `tests/determinism_matrix.rs`          |
//!
//! To regenerate the golden outcome after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test determinism_golden
//! ```

use super::{chaos_config, chaos_system, system, typical_jobs};
use epa_cluster::layout::{Equipment, FacilityLayout, MaintenanceWindow, PduId};
use epa_cluster::system::System;
use epa_grid::{DrContract, DrEvent, GridConfig};
use epa_obs::{trace_to_jsonl, CategoryMask, TraceConfig, OBS_SCHEMA_VERSION};
use epa_sched::emergency::EmergencyPolicy;
use epa_sched::engine::{ClusterSim, EngineConfig, SimOutcome};
use epa_sched::limiting::JobLimitGate;
use epa_sched::policies::backfill::EasyBackfill;
use epa_sched::shutdown::ShutdownPolicy;
use epa_sched::Snapshot;
use epa_simcore::snap::Fingerprint;
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::generator::WorkloadParams;
use epa_workload::job::Job;
use epa_workload::source::{JobSource, LazyGeneratorSource, MaterializedSource};

pub const GOLDEN_PATH: &str = "tests/golden/sim_outcome.json";

/// `(seed, fingerprint)` pairs recorded from the inline dispatch.
pub const PINNED: [(u64, u64); 6] = [
    (162, 0xaab9_f134_6671_870c),
    (404, 0x4879_03d5_1dc1_fa37),
    (782, 0x3f62_04ec_7d3b_8ee1),
    (801, 0x8c6a_8512_17a1_5e99),
    (882, 0xb792_a577_23e9_a6c8),
    (996, 0x1e85_6887_8319_21c9),
];

/// The seed-`0xC0` fingerprint recorded from the inline dispatch.
pub const PINNED_C0: u64 = 0x1423_fb13_6bfa_5ffa;

/// A horizon multiple far enough out that every run has completed.
const PAST_HORIZON: f64 = 10.0;

/// Where each run snapshots for comparison, as fractions of the horizon.
/// A run takes the probes at or after its last crash.
pub const PROBES: [f64; 2] = [0.9, PAST_HORIZON];

// ---------------------------------------------------------------------
// The crash-point axis.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
pub enum Crash {
    None,
    One,
    Chain,
    AfterCompletion,
}

impl Crash {
    pub const ALL: [Crash; 4] = [
        Crash::None,
        Crash::One,
        Crash::Chain,
        Crash::AfterCompletion,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Crash::None => "none",
            Crash::One => "one",
            Crash::Chain => "chain",
            Crash::AfterCompletion => "after-completion",
        }
    }

    /// The crash points, ascending fractions of the horizon.
    pub fn fractions(self, seed: u64) -> Vec<f64> {
        match self {
            Crash::None => Vec::new(),
            Crash::One => vec![0.5],
            Crash::Chain => kill_fractions(seed).to_vec(),
            Crash::AfterCompletion => vec![PAST_HORIZON],
        }
    }
}

/// Deterministic pseudo-random kill fractions of the horizon, ascending,
/// derived from the seed so every seed crashes at different points.
fn kill_fractions(seed: u64) -> [f64; 3] {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut fracs = [0.0f64; 3];
    for (i, slot) in fracs.iter_mut().enumerate() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jitter = (x % 1000) as f64 / 1000.0;
        *slot = 0.12 + 0.25 * i as f64 + 0.12 * jitter;
    }
    fracs
}

/// The bytes a run leaves behind: what every cell compares.
pub struct Run {
    /// Compact outcome JSON.
    pub json: String,
    /// JSONL decision trace (for `env`, the step trajectory).
    pub trace: String,
    /// Grid settlement JSON, when a twin is configured.
    pub grid: Option<String>,
    /// `(probe, snapshot bytes)` for each probe taken.
    pub snapshots: Vec<(f64, Vec<u8>)>,
}

impl Run {
    /// FNV fingerprint of the outcome and trace, as the `control`
    /// baselines are pinned.
    pub fn fingerprint(&self) -> u64 {
        Fingerprint::new().str(&self.json).str(&self.trace).finish()
    }
}

/// Appends a failure for each artifact where `got` differs from `want`.
/// Outcome and trace come from `reference`, snapshots from `want_snaps`.
pub fn compare(
    cell: &str,
    reference: &Run,
    want_snaps: &Run,
    got: &Run,
    failures: &mut Vec<String>,
) {
    let mut check = |what: &str, want: &[u8], got: &[u8]| {
        if want != got {
            failures.push(format!("{cell}: {what} differs: {}", first_diff(want, got)));
        }
    };
    check("outcome", reference.json.as_bytes(), got.json.as_bytes());
    check("trace", reference.trace.as_bytes(), got.trace.as_bytes());
    if reference.grid.is_some() || got.grid.is_some() {
        let grid = |r: &Run| r.grid.clone().unwrap_or_default().into_bytes();
        check("grid settlement", &grid(reference), &grid(got));
    }
    for (probe, bytes) in &got.snapshots {
        let want = want_snaps.snapshots.iter().find(|(p, _)| p == probe);
        let want = &want.expect("the straight run takes every probe").1;
        check(&format!("snapshot at {probe} x horizon"), want, bytes);
    }
}

/// Where two byte strings first differ: the line for text, else the byte.
fn first_diff(want: &[u8], got: &[u8]) -> String {
    let at = want.iter().zip(got).take_while(|(a, b)| a == b).count();
    let line = want[..at].iter().filter(|&&b| b == b'\n').count() + 1;
    format!(
        "first at byte {at} (line {line}); {} bytes expected, {} got",
        want.len(),
        got.len()
    )
}

pub fn assert_clean(failures: &[String]) {
    assert!(
        failures.is_empty(),
        "{} cell check(s) failed:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

// ---------------------------------------------------------------------
// Engine scenarios.
// ---------------------------------------------------------------------

enum Workload {
    Jobs(Vec<Job>),
    Lazy(WorkloadParams),
}

pub struct Scenario {
    pub name: String,
    /// Seeds the chain's kill fractions.
    pub seed: u64,
    system: System,
    workload: Workload,
    config: EngineConfig,
}

impl Scenario {
    /// `config` on the standard 32-node machine, over the typical
    /// workload of `seed`.
    fn typical(name: String, seed: u64, config: EngineConfig) -> Self {
        Scenario {
            name,
            seed,
            system: chaos_system(),
            workload: jobs(32, seed, config.horizon),
            config,
        }
    }

    fn at(&self, frac: f64) -> SimTime {
        SimTime::from_secs(self.config.horizon.as_secs() * frac)
    }

    fn source(&self) -> Box<dyn JobSource> {
        match &self.workload {
            Workload::Jobs(jobs) => Box::new(MaterializedSource::new(jobs.clone())),
            Workload::Lazy(params) => Box::new(LazyGeneratorSource::new(
                params.clone(),
                self.config.horizon,
                0,
            )),
        }
    }

    /// A fresh engine, or one resumed from `snap`.
    fn engine<'p>(
        &self,
        policy: &'p mut EasyBackfill,
        config: EngineConfig,
        snap: Option<&Snapshot>,
    ) -> ClusterSim<'p> {
        let (system, source) = (self.system.clone(), self.source());
        match snap {
            None => ClusterSim::try_new_with_source(system, source, policy, config)
                .unwrap_or_else(|e| panic!("{}: invalid config: {e}", self.name)),
            Some(snap) => ClusterSim::resume_with_source(system, source, policy, config, snap)
                .unwrap_or_else(|e| panic!("{}: resume failed: {e}", self.name)),
        }
    }

    /// Starts (or resumes from `snap`), runs to `frac` of the horizon and
    /// crashes there: only the snapshot bytes survive.
    pub fn crash(&self, snap: Option<&Snapshot>, frac: f64) -> Snapshot {
        let mut policy = EasyBackfill;
        let mut sim = self.engine(&mut policy, self.config.clone(), snap);
        let bytes = sim.run_until(self.at(frac)).into_bytes();
        drop(sim);
        Snapshot::from_bytes(bytes)
    }

    /// Starts (or resumes from `snap`, written at `last` of the horizon),
    /// takes the probes at or after `last` and finishes the run.
    pub fn finish(&self, snap: Option<&Snapshot>, last: f64) -> Run {
        let mut policy = EasyBackfill;
        let mut sim = self.engine(&mut policy, self.config.clone(), snap);
        let snapshots = PROBES
            .iter()
            .filter(|&&p| p >= last)
            .map(|&p| (p, sim.run_until(self.at(p)).into_bytes()))
            .collect();
        let grid = sim
            .grid_summary()
            .map(|g| serde_json::to_string_pretty(&g).expect("grid summary serializes"));
        let (outcome, bundle) = sim.run_traced();
        Run {
            json: serde_json::to_string(&outcome).expect("outcome serializes"),
            trace: trace_to_jsonl(&bundle.trace),
            grid,
            snapshots,
        }
    }

    /// Runs the scenario, crashing at each fraction of `crashes`, then
    /// takes the probes and finishes the run.
    pub fn run(&self, crashes: &[f64]) -> Run {
        let snap = crashes
            .iter()
            .fold(None, |snap, &frac| Some(self.crash(snap.as_ref(), frac)));
        self.finish(snap.as_ref(), crashes.last().copied().unwrap_or(0.0))
    }

    /// The outcome of a plain run with tracing off.
    pub fn untraced(&self) -> SimOutcome {
        let mut config = self.config.clone();
        config.trace = TraceConfig::default();
        let mut policy = EasyBackfill;
        self.engine(&mut policy, config, None).run()
    }
}

/// Runs the straight run of `s` and then each cell of `crashes` against
/// it, and returns the straight run. Outcome and trace must match
/// `reference` when one is given (the `stream` family compares the lazy
/// engine to the materialized one).
pub fn row(
    s: &Scenario,
    crashes: &[Crash],
    reference: Option<&Run>,
    failures: &mut Vec<String>,
) -> Run {
    let base = s.run(&[]);
    let reference = reference.unwrap_or(&base);
    for &crash in crashes {
        let cell = format!("{} x {}", s.name, crash.name());
        compare(
            &cell,
            reference,
            &base,
            &s.run(&crash.fractions(s.seed)),
            failures,
        );
    }
    base
}

/// The trace of `base` opens with a header carrying the schema version
/// and holds at least one event.
pub fn check_header(s: &Scenario, base: &Run, failures: &mut Vec<String>) {
    let header = format!("{{\"schema_version\":{OBS_SCHEMA_VERSION},\"kind\":\"epa-obs-trace\"");
    let mut lines = base.trace.lines();
    if !lines.next().is_some_and(|h| h.starts_with(&header)) {
        failures.push(format!("{}: trace header lacks the schema version", s.name));
    }
    if lines.next().is_none() {
        failures.push(format!("{}: the scenario traced no events", s.name));
    }
}

/// An untraced run of `s` lands on the outcome bytes of the traced `base`:
/// observability is read-only.
pub fn check_untraced(s: &Scenario, base: &Run, failures: &mut Vec<String>) {
    if serde_json::to_string(&s.untraced()).expect("outcome serializes") != base.json {
        failures.push(format!("{}: tracing perturbed the outcome", s.name));
    }
}

/// The full row of `s`: every crash point, plus the header and untraced
/// checks. Returns the straight run.
pub fn matrix(s: &Scenario, reference: Option<&Run>, failures: &mut Vec<String>) -> Run {
    let base = row(s, &Crash::ALL, reference, failures);
    check_header(s, &base, failures);
    check_untraced(s, &base, failures);
    base
}

/// Runs `s` under pool sizes other than that of `base`'s straight run: a
/// straight run on four threads, and a crash at half the horizon whose
/// thread count changes across the crash boundary (1 to 4, and 4 to 1).
pub fn thread_cells(s: &Scenario, base: &Run, failures: &mut Vec<String>) {
    let straight = rayon::with_num_threads(4, || s.run(&[]));
    compare(
        &format!("{} x none @ 4 threads", s.name),
        base,
        base,
        &straight,
        failures,
    );
    for (before, after) in [(1, 4), (4, 1)] {
        let snap = rayon::with_num_threads(before, || s.crash(None, 0.5));
        let got = rayon::with_num_threads(after, || s.finish(Some(&snap), 0.5));
        let cell = format!("{} x one @ {before} -> {after} threads", s.name);
        compare(&cell, base, base, &got, failures);
    }
}

/// `WorkloadParams::typical(nodes, seed)` materialized over `horizon`.
fn jobs(nodes: u32, seed: u64, horizon: SimTime) -> Workload {
    Workload::Jobs(typical_jobs(nodes, seed, horizon))
}

/// Two days under a budget with demand-response resizes, idle shutdown,
/// requeue with checkpointing and node failures, fully traced: the base
/// of the `golden` and `control` scenarios.
fn budgeted(seed: u64) -> EngineConfig {
    let mut config = EngineConfig::new(SimTime::from_days(2.0));
    config.trace = TraceConfig::all();
    config.power_budget_watts = Some(32.0 * 290.0 * 0.7);
    config.budget_schedule = vec![
        (SimTime::from_hours(20.0), 32.0 * 290.0 * 0.4),
        (SimTime::from_hours(26.0), 32.0 * 290.0 * 0.7),
    ];
    config.shutdown = Some(ShutdownPolicy::default());
    config.requeue_killed = true;
    config.checkpoint_interval = Some(SimDuration::from_mins(30.0));
    config.node_mtbf = Some(SimDuration::from_hours(18.0));
    config.repair_time = SimDuration::from_hours(2.0);
    config.seed = seed;
    config
}

/// The golden run: the budgeted base plus emergency kills.
pub fn golden() -> Scenario {
    let mut config = budgeted(0xD5);
    config.emergency = Some(EmergencyPolicy::new(32.0 * 290.0 * 0.65));
    Scenario {
        name: "golden".into(),
        seed: 0xD5,
        system: system("golden-32", 2, 16, 16),
        workload: jobs(32, 42, config.horizon),
        config,
    }
}

/// The untraced golden outcome must equal the committed file; with
/// `UPDATE_GOLDEN` set, it rewrites the file instead.
pub fn check_golden_file(s: &Scenario, failures: &mut Vec<String>) {
    let got = serde_json::to_string_pretty(&s.untraced()).expect("outcome serializes") + "\n";
    let want = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
    } else if got != want {
        failures.push(format!(
            "golden: outcome drifted from the committed {GOLDEN_PATH}: {}. If the change \
             is intentional, regenerate with UPDATE_GOLDEN=1.",
            first_diff(want.as_bytes(), got.as_bytes())
        ));
    }
}

/// Every engineered adapter at once: the budgeted base plus windowed
/// emergency kills with a start cooldown and a temperature-conditioned
/// job-limit gate.
pub fn control(seed: u64) -> Scenario {
    let mut config = budgeted(seed ^ 0xD5);
    config.emergency = Some(
        EmergencyPolicy::windowed(
            32.0 * 290.0 * 0.65,
            SimTime::from_hours(6.0),
            SimTime::from_hours(40.0),
        )
        .with_cooldown(SimDuration::from_mins(10.0)),
    );
    config.limit_gate = Some(JobLimitGate {
        normal_limit: 24,
        hot_limit: 6,
        hot_threshold_c: 26.0,
    });
    Scenario {
        name: format!("control/{seed:#x}"),
        seed,
        system: system("ctl-eq-32", 4, 8, 8),
        workload: jobs(32, seed, config.horizon),
        config,
    }
}

/// The straight run of `s` must hit its pinned fingerprint.
pub fn check_pinned(s: &Scenario, base: &Run, pinned: u64, failures: &mut Vec<String>) {
    let fp = base.fingerprint();
    if fp != pinned {
        failures.push(format!(
            "{}: fingerprint {fp:#018x}, pinned {pinned:#018x}",
            s.name
        ));
    }
}

/// The full fault model at aggressive rates, fully traced.
pub fn chaos(seed: u64) -> Scenario {
    let mut config = chaos_config(seed);
    config.trace = TraceConfig::all();
    Scenario::typical(format!("chaos/{seed}"), seed, config)
}

/// A CEA-style layout-aware machine: PDU 0 (the first cabinet) goes into
/// maintenance mid-run, so every start avoids its nodes, while aggressive
/// idle shutdown keeps some of them off or booting — states a
/// layout-aware start must leave untouched.
pub fn layout(seed: u64) -> Scenario {
    let mut config = EngineConfig::new(SimTime::from_days(2.0));
    config.trace = TraceConfig::all();
    config.seed = seed;
    config.shutdown = Some(ShutdownPolicy {
        idle_threshold: SimDuration::from_mins(5.0),
        min_idle_reserve: 0,
        ..ShutdownPolicy::default()
    });
    let mut facility = FacilityLayout::regular(&chaos_system(), 1, 2);
    facility.add_maintenance(MaintenanceWindow {
        equipment: Equipment::Pdu(PduId(0)),
        start: SimTime::from_hours(14.0),
        end: SimTime::from_hours(30.0),
    });
    config.layout = Some(facility);
    Scenario::typical(format!("layout/{seed}"), seed, config)
}

/// The streaming configuration (aggregate-only completions, no
/// prediction history) with full decision tracing, over either a lazy
/// generator or the same jobs materialized.
pub fn stream(seed: u64, lazy: bool) -> Scenario {
    let mut config = EngineConfig::new(SimTime::from_hours(24.0));
    config.seed = seed;
    config.record_history = false;
    config.retain_completed = false;
    config.trace = TraceConfig {
        mask: CategoryMask::ALL,
        ..TraceConfig::default()
    };
    if !lazy {
        return Scenario::typical(format!("stream/{seed}/materialized"), seed, config);
    }
    Scenario {
        workload: Workload::Lazy(WorkloadParams::typical(32, seed)),
        ..Scenario::typical(format!("stream/{seed}/lazy"), seed, config)
    }
}

/// The facility twin under a budget, with an enforced demand-response
/// event from hour 20 to 24; the seed-derived chains crash inside it.
pub fn grid(seed: u64) -> Scenario {
    let nominal = 32.0 * chaos_system().spec().node.nominal_watts;
    let mut twin = GridConfig::synthetic(nominal, nominal * 1.3, 90.0, 300.0, 2, 1.0, 77);
    twin.price_follow = 0.4;
    twin.carbon_follow = 0.2;
    twin.contract = DrContract {
        events: vec![DrEvent {
            start: SimTime::from_hours(20.0),
            end: SimTime::from_hours(24.0),
            target_frac: 0.6,
            enforce: true,
        }],
        penalty_per_excess_kwh: 10.0,
        tolerance_kwh: 0.5,
    };
    let mut config = EngineConfig::new(SimTime::from_days(2.0));
    config.trace = TraceConfig::all();
    config.power_budget_watts = Some(nominal);
    config.seed = seed;
    config.grid = Some(twin);
    Scenario::typical(format!("grid/{seed}"), seed, config)
}
