//! Chaos invariant harness: the full fault model — correlated rack/PDU
//! events, sensor dropout/stuck-at with staleness fallback, unreliable
//! actuators with retry/fence escalation — switched on simultaneously
//! over many seeds, asserting the invariants that graceful degradation
//! must preserve:
//!
//! 1. **No job is lost** with `requeue_killed` on: every submitted job
//!    either reaches exactly one clean terminal record or is still
//!    queued/running at the horizon.
//! 2. **Energy is conserved**: system energy dominates the sum of job
//!    energies and sits between the idle floor and the nameplate ceiling.
//! 3. **The power budget is never exceeded beyond the declared margin**:
//!    peak draw stays under budget + the idle draw of non-granted nodes,
//!    even while sensors lie — the grant ledger is structural, not
//!    telemetry-driven.
//!
//! Plus failure-accounting consistency (per-node counts sum to the
//! total, MTTR respects the configured repair times) on every run.
//!
//! Every seed also replays byte for byte: the `chaos` rows of the
//! determinism matrix (`tests/common/matrix.rs`) run straight and crashed
//! at half the horizon here, and their crash chains in
//! `tests/resume_determinism.rs`.

mod common;

use common::matrix::{assert_clean, chaos, check_header, check_untraced, row, Crash};
use common::{
    chaos_config, chaos_system, typical_jobs, BUDGET_FRAC, CHAOS_SEEDS, NODES, NOMINAL_W,
    REPAIR_HOURS,
};
use epa_cluster::node::NodeSpec;
use epa_cluster::system::SystemSpec;
use epa_cluster::topology::Topology;
use epa_faults::{ActuatorFaultConfig, FaultConfig, SensorFaultConfig};
use epa_obs::ObsRegistry;
use epa_sched::engine::{ClusterSim, EngineConfig, SimOutcome};
use epa_sched::policies::backfill::EasyBackfill;
use epa_sched::policies::fcfs::Fcfs;
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::job::JobBuilder;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};

const IDLE_W: f64 = 90.0;
const PEAK_W: f64 = 400.0;

/// One fully-loaded chaos run: budget + demand response, emergency
/// response, requeue + checkpointing, independent node failures, and
/// every fault stream. Returns the outcome, the run's metrics registry,
/// and the submitted-job count.
fn chaos_run(seed: u64) -> (SimOutcome, ObsRegistry, u64) {
    let jobs = typical_jobs(NODES, seed, SimTime::from_days(2.0));
    let n = jobs.len() as u64;
    let mut policy = EasyBackfill;
    let (out, bundle) =
        ClusterSim::new(chaos_system(), jobs, &mut policy, chaos_config(seed)).run_traced();
    (out, bundle.registry, n)
}

fn assert_invariants(out: &SimOutcome, registry: &ObsRegistry, n: u64, seed: u64) {
    // 1. No job lost: exactly one clean terminal record per finished id,
    //    and terminal ids + unfinished account for every submission.
    let mut terminal: HashMap<u64, u64> = HashMap::new();
    for j in &out.jobs {
        if !j.killed_by_emergency && !j.killed_by_failure {
            *terminal.entry(j.id.0).or_insert(0) += 1;
        }
    }
    for (id, count) in &terminal {
        assert_eq!(*count, 1, "seed {seed}: job {id} finished {count} times");
    }
    assert_eq!(
        terminal.len() as u64 + out.unfinished,
        n,
        "seed {seed}: jobs lost (terminal {} + unfinished {} != submitted {n})",
        terminal.len(),
        out.unfinished
    );

    // 2. Energy conservation.
    let job_energy: f64 = out.jobs.iter().map(|j| j.energy_joules).sum();
    assert!(
        out.energy_joules >= job_energy,
        "seed {seed}: system energy {} below job sum {job_energy}",
        out.energy_joules
    );
    let span = 2.0 * 86_400.0;
    let idle_floor = f64::from(NODES) * IDLE_W * span;
    let peak_ceiling = f64::from(NODES) * PEAK_W * span;
    assert!(out.energy_joules >= idle_floor * 0.9, "seed {seed}");
    assert!(out.energy_joules <= peak_ceiling * 1.001, "seed {seed}");

    // 3. Budget never exceeded beyond the declared margin: granted power
    //    is bounded by the ledger; non-granted nodes add at most idle.
    let budget = f64::from(NODES) * NOMINAL_W * BUDGET_FRAC;
    let idle_slack = f64::from(NODES) * IDLE_W;
    assert!(
        out.peak_watts <= budget + idle_slack + 1e-6,
        "seed {seed}: peak {} vs budget {budget} + idle slack {idle_slack}",
        out.peak_watts
    );

    // Failure accounting is internally consistent.
    assert_eq!(
        out.per_node_failures.iter().sum::<u64>(),
        out.node_failures,
        "seed {seed}"
    );
    if out.node_failures > 0 {
        assert!(out.node_downtime_secs > 0.0, "seed {seed}");
    }
    if out.mttr_secs > 0.0 {
        assert!(
            out.mttr_secs >= REPAIR_HOURS * 3600.0 - 1e-6,
            "seed {seed}: MTTR {} below configured repair time",
            out.mttr_secs
        );
    }
    assert!(
        out.utilization >= 0.0 && out.utilization <= 1.0 + 1e-9,
        "seed {seed}"
    );

    // One namespace: the outcome's counter map is the run's registry,
    // so every counter behind a decision is in its exposition too.
    for (k, &v) in &out.counters {
        assert_eq!(registry.counter(k), v, "seed {seed}: counter {k}");
    }
    assert_eq!(
        registry.counters().count(),
        out.counters.len(),
        "seed {seed}"
    );
    assert!(
        registry.to_prometheus_text().contains("epa_jobs_started"),
        "seed {seed}"
    );

    // The typed robustness fields and the counter map must agree.
    let c = |k: &str| out.counters.get(k).copied().unwrap_or(0);
    assert_eq!(out.requeues, c("jobs/requeued"), "seed {seed}");
    assert_eq!(
        out.telemetry_fallbacks,
        c("faults/telemetry_fallbacks"),
        "seed {seed}"
    );
    assert_eq!(out.fenced_nodes, c("faults/fenced_nodes"), "seed {seed}");
}

#[test]
fn chaos_invariants_hold_across_seeds() {
    // Seeds are independent simulations — fan them across the pool and
    // assert over the collected outcomes in seed order.
    let outcomes: Vec<(SimOutcome, ObsRegistry, u64)> = CHAOS_SEEDS
        .par_iter()
        .map(|&seed| chaos_run(seed))
        .collect();
    let mut total_faults = 0u64;
    for (&seed, (out, registry, n)) in CHAOS_SEEDS.iter().zip(&outcomes) {
        assert_invariants(out, registry, *n, seed);
        total_faults += out.node_failures;
    }
    // The harness must actually be chaotic: faults fired somewhere.
    assert!(total_faults > 0, "no fault ever fired across all seeds");
}

/// The `chaos` × none cells: a second straight run of every seed lands on
/// the same outcome, trace and snapshot bytes; the trace carries its
/// schema header, and switching tracing off leaves the outcome unchanged.
#[test]
fn chaos_runs_are_byte_identical_per_seed() {
    let mut failures = Vec::new();
    for s in CHAOS_SEEDS.map(chaos) {
        let base = row(&s, &[Crash::None], None, &mut failures);
        check_header(&s, &base, &mut failures);
        check_untraced(&s, &base, &mut failures);
    }
    assert_clean(&failures);
}

/// The `chaos` × one cells: every seed crashed at half the horizon and
/// resumed from the snapshot bytes replays the straight run.
#[test]
fn chaos_resume_mid_horizon_is_byte_identical() {
    let mut failures = Vec::new();
    for s in CHAOS_SEEDS.map(chaos) {
        row(&s, &[Crash::One], None, &mut failures);
    }
    assert_clean(&failures);
}

/// Total sensor dropout drives telemetry past the staleness bound: the
/// scheduler must fall back to conservative estimates (counter fires),
/// keep completing work, and never let the degraded mode push draw past
/// the budget + margin.
#[test]
fn sensor_blackout_triggers_fallback_without_budget_breach() {
    let horizon = SimTime::from_days(1.0);
    let jobs = typical_jobs(NODES, 7, horizon);
    let mut config = EngineConfig::new(horizon);
    config.power_budget_watts = Some(f64::from(NODES) * NOMINAL_W * BUDGET_FRAC);
    config.requeue_killed = true;
    config.faults = Some(FaultConfig {
        sensor: Some(SensorFaultConfig {
            dropout_prob: 1.0,
            stuck_prob: 0.0,
            ..SensorFaultConfig::default()
        }),
        ..FaultConfig::default()
    });
    let mut policy = EasyBackfill;
    let out = ClusterSim::new(chaos_system(), jobs, &mut policy, config).run();
    let stale_ticks = out
        .counters
        .get("faults/telemetry_stale_ticks")
        .copied()
        .unwrap_or(0);
    // The typed field is fed by the obs registry; the counter map carries
    // the same value (one source of truth, two views).
    assert!(
        out.telemetry_fallbacks > 0,
        "staleness must trigger the fallback"
    );
    assert_eq!(
        out.telemetry_fallbacks,
        out.counters
            .get("faults/telemetry_fallbacks")
            .copied()
            .unwrap_or(0)
    );
    assert!(stale_ticks > 0, "blackout keeps telemetry stale");
    assert!(
        out.counters
            .get("faults/telemetry_dropouts")
            .copied()
            .unwrap_or(0)
            > 0
    );
    assert!(out.completed > 0, "degraded mode must keep scheduling");
    let budget = f64::from(NODES) * NOMINAL_W * BUDGET_FRAC;
    let idle_slack = f64::from(NODES) * IDLE_W;
    assert!(
        out.peak_watts <= budget + idle_slack + 1e-6,
        "degraded mode exceeded the budget: peak {}",
        out.peak_watts
    );
}

/// A dead actuation channel escalates to fencing: cap writes fail on
/// every attempt, the engine rolls the starts back (no job lost), and
/// nodes that keep failing cap writes are fenced and repaired.
#[test]
fn dead_actuator_fences_nodes_without_losing_jobs() {
    let horizon = SimTime::from_hours(24.0);
    // 8-node jobs over an 8-node machine with a sub-demand budget: every
    // start needs a cap-to-fit write, which always fails.
    let jobs: Vec<_> = (0..4)
        .map(|i| {
            JobBuilder::new(i)
                .nodes(8)
                .app(epa_workload::job::AppProfile::compute_bound("hpl"))
                .runtime(SimDuration::from_hours(1.0))
                .estimate(SimDuration::from_hours(3.0))
                .submit(SimTime::from_hours(f64::from(i as u32)))
                .build()
        })
        .collect();
    let n = jobs.len() as u64;
    let sys = SystemSpec {
        name: "fence-8".into(),
        cabinets: 1,
        nodes_per_cabinet: 8,
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity: 8 },
        peak_tflops: 1.0,
    }
    .build();
    let mut config = EngineConfig::new(horizon);
    config.power_budget_watts = Some(1900.0);
    config.requeue_killed = true;
    config.repair_time = SimDuration::from_hours(2.0);
    config.faults = Some(FaultConfig {
        actuator: Some(ActuatorFaultConfig {
            fail_prob: 1.0,
            max_retries: 1,
            fence_after: 2,
            ..ActuatorFaultConfig::default()
        }),
        ..FaultConfig::default()
    });
    let mut policy = Fcfs;
    let out = ClusterSim::new(sys, jobs, &mut policy, config).run();
    let failed_starts = out
        .counters
        .get("sched/start_actuation_failed")
        .copied()
        .unwrap_or(0);
    let fenced = out.fenced_nodes;
    assert!(failed_starts > 0, "cap writes must fail");
    assert!(fenced > 0, "repeated failures must fence nodes");
    assert_eq!(
        fenced,
        out.counters
            .get("faults/fenced_nodes")
            .copied()
            .unwrap_or(0),
        "typed field and counter map must agree"
    );
    assert!(
        out.counters
            .get("faults/actuator_attempts")
            .copied()
            .unwrap_or(0)
            >= 2 * failed_starts,
        "retries must be attempted and logged"
    );
    // No job can ever start, but none is lost either.
    let terminal: HashSet<u64> = out
        .jobs
        .iter()
        .filter(|j| !j.killed_by_emergency && !j.killed_by_failure)
        .map(|j| j.id.0)
        .collect();
    assert_eq!(terminal.len() as u64 + out.unfinished, n, "jobs lost");
    // Fenced nodes were repaired and counted.
    assert!(out.node_failures >= fenced);
}
