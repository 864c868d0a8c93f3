//! One repetition of a workload, run in its own process: set up each
//! cell, drive it in one-simulated-hour steps, finalize, export, check
//! the result, and tally the per-layer numbers.

use crate::stats::self_time;
use crate::workloads::{controller_action, CellSpec, JobsSource};
use crate::wrappers::{Probes, TimedPolicy, TimedPredictor, TimedSource};
use epa_obs::{trace_to_jsonl, CategoryMask};
use epa_predict::predictors::{PowerPredictor, TagMeanPredictor, TemperatureScaledPredictor};
use epa_sched::engine::{ClusterSim, EngineConfig, SimOutcome};
use epa_sched::policies::registry::make_policy;
use epa_sched::snapshot::Snapshot;
use epa_sched::view::Policy;
use epa_simcore::snap::Fingerprint;
use epa_simcore::time::SimTime;
use epa_workload::generator::WorkloadGenerator;
use epa_workload::source::{JobSource, LazyGeneratorSource, MaterializedSource};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Each cell is set up this many times per repetition; the median
/// setup time is reported and the last engine is the one that runs.
pub const SETUP_REPEATS: usize = 5;

/// What a repetition measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload as configured: the end-to-end measurement.
    Plain,
    /// Timing wrappers, engine profiler scopes, and a mid-horizon
    /// snapshot/resume check on every cell: the per-layer measurement.
    Traced,
    /// Plain, with the trace mask flipped (none ↔ all), to price the
    /// decision trace.
    FlipMask,
}

impl Mode {
    /// Name used on the child-process command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::FlipMask => "flipmask",
        }
    }

    /// Parses a mode name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        [Mode::Plain, Mode::Traced, Mode::FlipMask]
            .into_iter()
            .find(|m| m.name() == name)
    }

    fn config(self, spec: &CellSpec) -> EngineConfig {
        let mut config = spec.config.clone();
        match self {
            Mode::Plain => {}
            Mode::Traced => config.trace.profile = true,
            Mode::FlipMask => {
                config.trace.mask = if config.trace.mask.0 == CategoryMask::NONE.0 {
                    CategoryMask::ALL
                } else {
                    CategoryMask::NONE
                };
            }
        }
        config
    }

    /// Whether cells check resume from their mid-horizon checkpoint:
    /// always in the traced pass; in a plain pass that asks for it, on
    /// cells that take checkpoints anyway.
    fn resume_check(self, spec: &CellSpec, asked: bool) -> bool {
        match self {
            Mode::Plain => asked && spec.checkpoint_every_h.is_some(),
            Mode::Traced => true,
            Mode::FlipMask => false,
        }
    }
}

/// Results of one repetition (all cells).
#[derive(Debug, Default)]
pub struct RepReport {
    /// Sum over cells of each cell's median setup time, seconds.
    pub setup_s: f64,
    /// Stepping, finalize, checkpoints, and trace export, seconds.
    pub wall_s: f64,
    /// Jobs completed.
    pub completed: u64,
    /// Engine events processed.
    pub events: u64,
    /// Wall time of every one-hour step, milliseconds.
    pub steps_ms: Vec<f64>,
    /// Fold of every cell's serialized outcome.
    pub fingerprint: u64,
    /// Operations checked: one per cell run plus one per resume check.
    pub attempted: u64,
    /// What went wrong, one entry per failed operation.
    pub failures: Vec<String>,
    /// Per-layer tallies (summed over cells; ratios derived at the end).
    pub layers: BTreeMap<String, f64>,
    /// Profiler scopes whose children exceeded them.
    pub self_time_flags: Vec<String>,
}

/// Runs every cell of one repetition. `resume_check` asks a plain
/// repetition to check resume on the cells that take checkpoints.
#[must_use]
pub fn run_rep(cells: &[CellSpec], mode: Mode, resume_check: bool) -> RepReport {
    let mut rep = RepReport::default();
    let mut fp = Fingerprint::new();
    for spec in cells {
        rep.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| run_cell(spec, mode, resume_check)));
        let cell = match result {
            Ok(Ok(cell)) => cell,
            Ok(Err(e)) => {
                rep.failures.push(format!("{}: {e}", spec.label));
                continue;
            }
            Err(panic) => {
                rep.failures
                    .push(format!("{}: panicked: {}", spec.label, panic_text(&*panic)));
                continue;
            }
        };
        rep.setup_s += cell.setup_s;
        rep.wall_s += cell.wall_s;
        rep.completed += cell.outcome.completed;
        rep.events += counter(&cell.outcome, "sim/events_processed");
        rep.steps_ms.extend_from_slice(&cell.steps_ms);
        rep.failures.extend(
            check_outcome(&cell.outcome)
                .into_iter()
                .map(|e| format!("{}: {e}", spec.label)),
        );
        fp.str(&cell.outcome_json);
        for (k, v) in cell.layers {
            *rep.layers.entry(k).or_insert(0.0) += v;
        }
        if let Some(check) = cell.resume {
            rep.attempted += 1;
            if let Err(e) = check {
                rep.failures.push(format!("{}: resume: {e}", spec.label));
            }
        }
    }
    rep.fingerprint = fp.finish();
    if mode == Mode::Traced {
        rep.self_time_flags = derive_layers(&mut rep.layers);
    } else {
        rep.layers.clear();
    }
    rep
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

fn counter(outcome: &SimOutcome, key: &str) -> u64 {
    outcome.counters.get(key).copied().unwrap_or(0)
}

/// The correctness oracle for one finished run: no job lost, and a
/// finite, positive energy total.
#[must_use]
pub fn check_outcome(o: &SimOutcome) -> Vec<String> {
    let mut errors = Vec::new();
    let submitted = counter(o, "jobs/submitted");
    // Every departure (normal end or kill) folds into `completed`, and a
    // requeued kill is submitted again; whatever has not left is
    // `unfinished`.
    if submitted + o.requeues != o.completed + o.unfinished {
        errors.push(format!(
            "jobs lost: submitted {submitted} + requeued {} != completed {} + unfinished {}",
            o.requeues, o.completed, o.unfinished
        ));
    }
    if !(o.energy_joules.is_finite() && o.energy_joules > 0.0) {
        errors.push(format!(
            "energy {} J is not finite and positive",
            o.energy_joules
        ));
    }
    if o.completed == 0 {
        errors.push("no job completed".to_owned());
    }
    errors
}

/// Turns summed raw tallies into the reported per-layer metrics:
/// profiler scopes become exclusive times, counts become ratios.
/// Returns the parent scopes whose children exceeded them.
fn derive_layers(layers: &mut BTreeMap<String, f64>) -> Vec<String> {
    let get = |l: &BTreeMap<String, f64>, k: &str| l.get(k).copied().unwrap_or(0.0);
    let scope = |l: &BTreeMap<String, f64>, name: &str| get(l, &format!("scope.{name}_s"));
    let mut flags = Vec::new();

    let dispatch = self_time(
        scope(layers, "dispatch"),
        &[scope(layers, "schedule"), scope(layers, "meter")],
    );
    if dispatch.children_exceed_parent {
        flags.push("dispatch".to_owned());
    }
    let schedule = self_time(
        scope(layers, "schedule"),
        &[scope(layers, "allocator"), get(layers, "sched.policy_s")],
    );
    if schedule.children_exceed_parent {
        flags.push("schedule".to_owned());
    }
    let alloc = scope(layers, "allocator");
    let nodes = get(layers, "sched.nodes_started");
    let derived = [
        ("engine.dispatch_self_s", dispatch.secs),
        ("sched.schedule_self_s", schedule.secs),
        ("cluster.alloc_s", alloc),
        ("power.meter_tick_s", scope(layers, "meter")),
        // A scope the engine no longer has reads as zero time.
        ("sched.shard_drain_s", scope(layers, "shard_drain")),
        (
            "sched.policy_start_ratio",
            ratio(
                get(layers, "sched.policy_starts"),
                get(layers, "sched.policy_queue_scanned"),
            ),
        ),
        (
            "engine.ns_per_node_started",
            ratio((dispatch.secs + schedule.secs + alloc) * 1e9, nodes),
        ),
    ];
    layers.retain(|k, _| !k.starts_with("scope."));
    for (k, v) in derived {
        layers.insert(k.to_owned(), v);
    }
    flags
}

/// Where two texts first differ, with a little context from each.
fn first_difference(expected: &str, got: &str) -> String {
    let at = expected
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    let context = |s: &str| {
        let from = s.floor_char_boundary(at.saturating_sub(60));
        let to = s.ceil_char_boundary((at + 60).min(s.len()));
        s[from..to].to_owned()
    };
    format!(
        "at byte {at}: expected ...{}... got ...{}...",
        context(expected),
        context(got)
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One finished cell.
struct CellRun {
    setup_s: f64,
    wall_s: f64,
    steps_ms: Vec<f64>,
    outcome: SimOutcome,
    outcome_json: String,
    layers: BTreeMap<String, f64>,
    /// `None` when the mode does not check resume on this cell.
    resume: Option<Result<(), String>>,
}

/// The engine inputs one setup builds.
struct Inputs {
    source: Box<dyn JobSource>,
    generate_s: f64,
}

fn make_inputs(spec: &CellSpec, probes: Option<&Probes>) -> Inputs {
    let t0 = Instant::now();
    let source: Box<dyn JobSource> = match &spec.jobs {
        JobsSource::Lazy(params) => {
            Box::new(LazyGeneratorSource::new(params.clone(), spec.horizon(), 0))
        }
        JobsSource::Materialized(params) => Box::new(MaterializedSource::new(
            WorkloadGenerator::new(params.clone()).generate(spec.horizon(), 0),
        )),
    };
    let generate_s = t0.elapsed().as_secs_f64();
    let source = match probes {
        Some(p) => Box::new(TimedSource::new(source, p.source.clone())),
        None => source,
    };
    Inputs { source, generate_s }
}

fn make_policy_for(spec: &CellSpec, probes: Option<&Probes>) -> Result<Box<dyn Policy>, String> {
    let policy = make_policy(spec.policy).map_err(|e| e.to_string())?;
    Ok(match probes {
        Some(p) => Box::new(TimedPolicy::new(policy, p.policy.clone())),
        None => policy,
    })
}

/// The predictor the cell runs with, when it is not the engine default
/// (or when it must be timed).
fn predictor_for(spec: &CellSpec, probes: Option<&Probes>) -> Option<Box<dyn PowerPredictor>> {
    let base: Box<dyn PowerPredictor> = if spec.riken_predictor {
        Box::new(TemperatureScaledPredictor::new(TagMeanPredictor))
    } else if probes.is_some() {
        Box::new(TagMeanPredictor)
    } else {
        return None;
    };
    Some(match probes {
        Some(p) => Box::new(TimedPredictor::new(base, p.predict.clone())),
        None => base,
    })
}

/// Builds the machine and the workload and constructs the engine.
fn setup<'p>(
    spec: &CellSpec,
    config: &EngineConfig,
    policy: &'p mut dyn Policy,
    probes: Option<&Probes>,
) -> Result<(ClusterSim<'p>, f64), String> {
    let system = spec.system.build();
    let inputs = make_inputs(spec, probes);
    let mut sim = ClusterSim::try_new_with_source(system, inputs.source, policy, config.clone())
        .map_err(|e| format!("engine construction: {e}"))?;
    if let Some(p) = predictor_for(spec, probes) {
        sim.set_predictor(p);
    }
    Ok((sim, inputs.generate_s))
}

/// Harness-side time spent in the control plane and checkpoints.
#[derive(Default)]
struct DriveTally {
    steps_ms: Vec<f64>,
    observe_s: f64,
    apply_s: f64,
    save_s: f64,
    snapshot_bytes: u64,
    mid: Option<Snapshot>,
}

/// Steps `sim` one simulated hour at a time from hour `from_h` to the
/// horizon. After each step the controller reads the control
/// observation and applies its action, and due checkpoints are taken;
/// the one at `mid_h` is kept.
fn drive(
    sim: &mut ClusterSim<'_>,
    spec: &CellSpec,
    from_h: u32,
    checkpoints: bool,
    mid_h: Option<u32>,
    tally: &mut DriveTally,
) {
    for h in from_h + 1..=spec.horizon_h {
        let t_step = Instant::now();
        let done = sim.advance_until(SimTime::from_hours(f64::from(h)));
        if !done {
            let t0 = Instant::now();
            let obs = black_box(sim.control_observation());
            tally.observe_s += t0.elapsed().as_secs_f64();
            let action = controller_action(&obs);
            let t0 = Instant::now();
            black_box(sim.apply_external_actions(&[action]));
            tally.apply_s += t0.elapsed().as_secs_f64();
            let due = checkpoints && spec.checkpoint_every_h.is_some_and(|every| h % every == 0);
            if due || mid_h == Some(h) {
                let t0 = Instant::now();
                let snap = sim.snapshot();
                tally.save_s += t0.elapsed().as_secs_f64();
                tally.snapshot_bytes += snap.len() as u64;
                if mid_h == Some(h) {
                    tally.mid = Some(snap);
                }
            }
        }
        tally.steps_ms.push(t_step.elapsed().as_secs_f64() * 1e3);
        if done {
            break;
        }
    }
}

fn run_cell(spec: &CellSpec, mode: Mode, resume_check: bool) -> Result<CellRun, String> {
    let config = mode.config(spec);
    let traced = mode == Mode::Traced;

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let probes = traced.then(Probes::default);
        let t0 = Instant::now();
        let mut policy = make_policy_for(spec, probes.as_ref())?;
        let (sim, _) = setup(spec, &config, policy.as_mut(), probes.as_ref())?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(black_box(sim));
    }
    let probes = traced.then(Probes::default);
    let t0 = Instant::now();
    let mut policy = make_policy_for(spec, probes.as_ref())?;
    let (mut sim, generate_s) = setup(spec, &config, policy.as_mut(), probes.as_ref())?;
    setups.push(t0.elapsed().as_secs_f64());
    let setup_s = crate::stats::median(&setups).unwrap_or(0.0);

    let mid_h = mode
        .resume_check(spec, resume_check)
        .then_some(spec.horizon_h / 2);
    let mut tally = DriveTally::default();
    let t_wall = Instant::now();
    drive(&mut sim, spec, 0, true, mid_h, &mut tally);
    let (outcome, bundle) = sim.run_traced();
    let t_export = Instant::now();
    let trace = trace_to_jsonl(&bundle.trace);
    let export_s = t_export.elapsed().as_secs_f64();
    let wall_s = t_wall.elapsed().as_secs_f64();

    let outcome_json = serde_json::to_string(&outcome).map_err(|e| e.to_string())?;
    let mut restore_s = 0.0;
    let resume = match (mid_h, tally.mid.as_ref()) {
        (None, _) => None,
        (Some(_), None) => Some(Err(
            "the run ended before its mid-horizon checkpoint".to_owned()
        )),
        (Some(h), Some(snap)) => Some(
            resume_from(spec, &config, snap, h, traced, &mut restore_s).and_then(|(o, t)| {
                if o != outcome_json {
                    Err(format!(
                        "resumed outcome differs from the uninterrupted run {}",
                        first_difference(&outcome_json, &o)
                    ))
                } else if t != trace {
                    Err(format!(
                        "resumed trace differs from the uninterrupted run {}",
                        first_difference(&trace, &t)
                    ))
                } else {
                    Ok(())
                }
            }),
        ),
    };

    let mut layers = BTreeMap::new();
    if let Some(p) = &probes {
        let mut put = |k: &str, v: f64| {
            layers.insert(k.to_owned(), v);
        };
        put("workload.generate_s", generate_s);
        put("workload.source_pull_s", p.source.timer.secs());
        put("workload.source_jobs", p.source.jobs() as f64);
        put("sched.policy_calls", p.policy.timer.calls() as f64);
        put("sched.policy_s", p.policy.timer.secs());
        put(
            "sched.policy_queue_scanned",
            p.policy.queue_scanned() as f64,
        );
        put("sched.policy_starts", p.policy.starts() as f64);
        put("sched.nodes_started", p.policy.nodes_started() as f64);
        put(
            "engine.events",
            counter(&outcome, "sim/events_processed") as f64,
        );
        put("predict.calls", p.predict.calls() as f64);
        put("predict.s", p.predict.secs());
        put("control.observe_s", tally.observe_s);
        put("control.apply_s", tally.apply_s);
        put(
            "control.actions_applied",
            counter(&outcome, "control/actions_applied") as f64,
        );
        put(
            "control.actions_rejected",
            counter(&outcome, "control/actions_rejected") as f64,
        );
        put("snapshot.save_s", tally.save_s);
        put("snapshot.bytes", tally.snapshot_bytes as f64);
        put("snapshot.restore_s", restore_s);
        put("obs.trace_records", bundle.trace.len() as f64);
        put("obs.trace_dropped", bundle.trace.dropped() as f64);
        put("obs.export_s", export_s);
        put("obs.export_bytes", trace.len() as f64);
        // Scopes are read by name so a scope the engine drops simply
        // stops appearing.
        for s in epa_obs::profile::ALL_SCOPES {
            let secs = bundle.profile.scope(s).total_ns as f64 * 1e-9;
            put(&format!("scope.{}_s", s.name()), secs);
        }
    }

    Ok(CellRun {
        setup_s,
        wall_s,
        steps_ms: tally.steps_ms,
        outcome,
        outcome_json,
        layers,
        resume,
    })
}

/// Resumes a fresh engine from `snap`, taken after hour `from_h`, and
/// finishes the run, returning
/// its serialized outcome and exported trace. The restore itself (engine
/// construction from the snapshot) is timed into `restore_s`.
fn resume_from(
    spec: &CellSpec,
    config: &EngineConfig,
    snap: &Snapshot,
    from_h: u32,
    wrapped: bool,
    restore_s: &mut f64,
) -> Result<(String, String), String> {
    // Throwaway tallies: the resumed half must not count twice.
    let probes = wrapped.then(Probes::default);
    let mut policy = make_policy_for(spec, probes.as_ref())?;
    let system = spec.system.build();
    let inputs = make_inputs(spec, probes.as_ref());
    let t0 = Instant::now();
    let mut sim = ClusterSim::resume_with_source(
        system,
        inputs.source,
        policy.as_mut(),
        config.clone(),
        snap,
    )
    .map_err(|e| e.to_string())?;
    if let Some(p) = predictor_for(spec, probes.as_ref()) {
        sim.set_predictor(p);
    }
    *restore_s += t0.elapsed().as_secs_f64();
    drive(
        &mut sim,
        spec,
        from_h,
        false,
        None,
        &mut DriveTally::default(),
    );
    let (outcome, bundle) = sim.run_traced();
    let json = serde_json::to_string(&outcome).map_err(|e| e.to_string())?;
    Ok((json, trace_to_jsonl(&bundle.trace)))
}

/// Runs `spec` to its horizon — with every timing wrapper (policy,
/// source, predictor) or with none — and returns the serialized outcome,
/// the exported trace, and the wrappers' tallies when wrapped.
///
/// # Errors
/// Engine construction failed.
pub fn outcome_and_trace(
    spec: &CellSpec,
    wrapped: bool,
) -> Result<(String, String, Option<Probes>), String> {
    let probes = wrapped.then(Probes::default);
    let mut policy = make_policy_for(spec, probes.as_ref())?;
    let (mut sim, _) = setup(spec, &spec.config, policy.as_mut(), probes.as_ref())?;
    drive(&mut sim, spec, 0, false, None, &mut DriveTally::default());
    let (outcome, bundle) = sim.run_traced();
    let json = serde_json::to_string(&outcome).map_err(|e| e.to_string())?;
    Ok((json, trace_to_jsonl(&bundle.trace), probes))
}
