//! Machines and scenario configs shared by the integration tests.

// Each test target uses a subset of these.
#![allow(dead_code)]

pub mod matrix;

use epa_cluster::node::NodeSpec;
use epa_cluster::system::{System, SystemSpec};
use epa_cluster::topology::Topology;
use epa_faults::{ActuatorFaultConfig, DomainFaultConfig, FaultConfig, SensorFaultConfig};
use epa_sched::emergency::EmergencyPolicy;
use epa_sched::engine::EngineConfig;
use epa_sched::env::{EnvConfig, PolicyEnv, RewardConfig};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};
use epa_workload::job::Job;

/// Nodes of the chaos machine.
pub const NODES: u32 = 32;
/// Nominal draw of one node, watts.
pub const NOMINAL_W: f64 = 290.0;
/// The chaos budget as a fraction of nominal machine draw.
pub const BUDGET_FRAC: f64 = 0.7;
/// Repair time of a failed node or domain in the chaos config, hours.
pub const REPAIR_HOURS: f64 = 1.0;

/// The chaos seed set; ≥10 per the chaos harness contract.
pub const CHAOS_SEEDS: [u64; 12] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233];

/// A fat-tree machine of typical Xeon nodes, one teraflop per node.
pub fn system(name: &str, cabinets: u32, nodes_per_cabinet: u32, arity: u32) -> System {
    SystemSpec {
        name: name.into(),
        cabinets,
        nodes_per_cabinet,
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity },
        peak_tflops: f64::from(cabinets * nodes_per_cabinet),
    }
    .build()
}

/// The four-cabinet machine of [`NODES`] nodes most scenarios run on.
pub fn chaos_system() -> System {
    system("chaos-32", 4, 8, 16)
}

/// `WorkloadParams::typical(nodes, seed)` materialized over `horizon`.
pub fn typical_jobs(nodes: u32, seed: u64, horizon: SimTime) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadParams::typical(nodes, seed)).generate(horizon, 0)
}

/// Two days of the full fault model at aggressive rates — correlated
/// domain failures, sensor dropout and stuck-at, failing actuators — on
/// top of a budget, emergency response, requeue with checkpointing and
/// independent node failures. Tracing is off.
pub fn chaos_config(seed: u64) -> EngineConfig {
    let mut config = EngineConfig::new(SimTime::from_days(2.0));
    config.power_budget_watts = Some(f64::from(NODES) * NOMINAL_W * BUDGET_FRAC);
    config.emergency = Some(EmergencyPolicy::new(f64::from(NODES) * NOMINAL_W * 0.65));
    config.requeue_killed = true;
    config.checkpoint_interval = Some(SimDuration::from_mins(30.0));
    config.node_mtbf = Some(SimDuration::from_hours(24.0));
    config.repair_time = SimDuration::from_hours(REPAIR_HOURS);
    config.seed = seed;
    config.faults = Some(FaultConfig {
        domain: Some(DomainFaultConfig {
            mtbf: SimDuration::from_hours(12.0),
            repair_time: SimDuration::from_hours(REPAIR_HOURS),
        }),
        sensor: Some(SensorFaultConfig {
            dropout_prob: 0.25,
            stuck_prob: 0.05,
            ..SensorFaultConfig::default()
        }),
        actuator: Some(ActuatorFaultConfig {
            fail_prob: 0.15,
            ..ActuatorFaultConfig::default()
        }),
        seed,
    });
    config
}

/// Seed of the [`make_env`] engine.
pub const ENV_SEED: u64 = 0xE16;

/// A 24-hour EASY-backfill episode on 24 nodes under a budget, with a
/// decision every 2 hours.
pub fn make_env() -> PolicyEnv {
    let horizon = SimTime::from_hours(24.0);
    let mut config = EngineConfig::new(horizon);
    config.power_budget_watts = Some(24.0 * NOMINAL_W * 0.8);
    config.seed = ENV_SEED;
    let env_config = EnvConfig {
        decision_interval: SimDuration::from_hours(2.0),
        reward: RewardConfig::default(),
    };
    let jobs = typical_jobs(24, 11, horizon);
    PolicyEnv::new(
        system("env-det-24", 3, 8, 8),
        jobs,
        "easy-backfill",
        config,
        env_config,
    )
    .expect("valid env config")
}
