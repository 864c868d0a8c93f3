//! Control-plane equivalence: the engineered adapters routed through the
//! unified `ControlAction` apply path produce **byte-identical** outcomes
//! and JSONL traces to the pre-refactor inline dispatch they replaced.
//!
//! The inline dispatch is gone; what it produced is pinned here as FNV
//! fingerprints of the serialized outcome plus the JSONL trace, recorded
//! from it for seed `0xC0` and six fixed seeds. (At the time of
//! recording, the adapter path matched the inline path byte for byte on
//! every one of them.)
//!
//! The scenario exercises every adapter: a power budget with scheduled
//! resizes (budget adapter), idle shutdown (shutdown adapter), windowed
//! emergency kills with a start cooldown (emergency adapter), a
//! temperature-conditioned job-limit gate (gate adapter), plus
//! failures/requeues so the interleaving is rich.

use epa_cluster::node::NodeSpec;
use epa_cluster::system::{System, SystemSpec};
use epa_cluster::topology::Topology;
use epa_obs::{trace_to_jsonl, TraceConfig};
use epa_sched::emergency::EmergencyPolicy;
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::limiting::JobLimitGate;
use epa_sched::policies::backfill::EasyBackfill;
use epa_sched::shutdown::ShutdownPolicy;
use epa_simcore::snap::Fingerprint;
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};

/// `(seed, fingerprint)` pairs recorded from the inline dispatch.
const PINNED: [(u64, u64); 6] = [
    (162, 0xaab9_f134_6671_870c),
    (404, 0x4879_03d5_1dc1_fa37),
    (782, 0x3f62_04ec_7d3b_8ee1),
    (801, 0x8c6a_8512_17a1_5e99),
    (882, 0xb792_a577_23e9_a6c8),
    (996, 0x1e85_6887_8319_21c9),
];

/// The seed-`0xC0` fingerprint recorded from the inline dispatch.
const PINNED_C0: u64 = 0x1423_fb13_6bfa_5ffa;

fn system() -> System {
    SystemSpec {
        name: "ctl-eq-32".into(),
        cabinets: 4,
        nodes_per_cabinet: 8,
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity: 8 },
        peak_tflops: 32.0,
    }
    .build()
}

/// Serialized (outcome, trace) for one run of the full-feature scenario.
fn outcome_and_trace(seed: u64) -> (String, String) {
    let horizon = SimTime::from_days(2.0);
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(32, seed)).generate(horizon, 0);
    let mut config = EngineConfig::new(horizon);
    config.trace = TraceConfig::all();
    config.power_budget_watts = Some(32.0 * 290.0 * 0.7);
    config.budget_schedule = vec![
        (SimTime::from_hours(20.0), 32.0 * 290.0 * 0.4),
        (SimTime::from_hours(26.0), 32.0 * 290.0 * 0.7),
    ];
    config.shutdown = Some(ShutdownPolicy::default());
    config.emergency = Some(EmergencyPolicy::windowed(
        32.0 * 290.0 * 0.65,
        SimTime::from_hours(6.0),
        SimTime::from_hours(40.0),
    ))
    .map(|e| e.with_cooldown(SimDuration::from_mins(10.0)));
    config.limit_gate = Some(JobLimitGate {
        normal_limit: 24,
        hot_limit: 6,
        hot_threshold_c: 26.0,
    });
    config.requeue_killed = true;
    config.checkpoint_interval = Some(SimDuration::from_mins(30.0));
    config.node_mtbf = Some(SimDuration::from_hours(18.0));
    config.repair_time = SimDuration::from_hours(2.0);
    config.seed = seed ^ 0xD5;
    let mut policy = EasyBackfill;
    let (outcome, bundle) = ClusterSim::new(system(), jobs, &mut policy, config).run_traced();
    (
        serde_json::to_string(&outcome).expect("serializes"),
        trace_to_jsonl(&bundle.trace),
    )
}

fn fingerprint(out: &str, trace: &str) -> u64 {
    Fingerprint::new().str(out).str(trace).finish()
}

#[test]
fn adapters_match_pinned_legacy_fingerprint_across_threads() {
    for threads in [1usize, 4] {
        let (out, trace) = rayon::with_num_threads(threads, || outcome_and_trace(0xC0));
        assert!(
            trace.contains("emergency_breach") || out.contains("emergency_kills"),
            "scenario should exercise the emergency path"
        );
        let fp = fingerprint(&out, &trace);
        assert!(
            fp == PINNED_C0,
            "seed 0xC0 at {threads} threads: fingerprint {fp:#018x}, pinned {PINNED_C0:#018x}"
        );
    }
}

#[test]
fn adapters_match_pinned_legacy_fingerprints_fixed_seeds() {
    for (seed, pinned) in PINNED {
        let (out, trace) = outcome_and_trace(seed);
        let fp = fingerprint(&out, &trace);
        assert!(
            fp == pinned,
            "seed {seed}: fingerprint {fp:#018x}, pinned {pinned:#018x}"
        );
    }
}
