//! Learned-controller determinism: training is a pure function of the
//! seed. A fixed-seed Q-learning run produces an identical trajectory
//! (every episode, step, chosen action, observation, and reward) every
//! time it is repeated, and a mid-training environment can be frozen and
//! revived without perturbing a byte of the remaining episode.
//!
//! CI runs the `e16_policy_env` bench twice and byte-diffs the emitted
//! trajectory + JSON fingerprints; this suite is the fast in-tree check.

use epa_cluster::node::NodeSpec;
use epa_cluster::system::{System, SystemSpec};
use epa_cluster::topology::Topology;
use epa_sched::engine::EngineConfig;
use epa_sched::env::{EnvConfig, PolicyEnv, RewardConfig};
use epa_sched::learn::{
    context_bucket, observation_features, standard_tiling, ActionCatalog, BanditConfig,
    ContextualBandit, QConfig, QLearner, N_CONTEXTS,
};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};

fn system() -> System {
    SystemSpec {
        name: "env-det-24".into(),
        cabinets: 3,
        nodes_per_cabinet: 8,
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity: 8 },
        peak_tflops: 24.0,
    }
    .build()
}

fn make_env() -> PolicyEnv {
    let horizon = SimTime::from_hours(24.0);
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(24, 11)).generate(horizon, 0);
    let mut config = EngineConfig::new(horizon);
    config.power_budget_watts = Some(24.0 * 290.0 * 0.8);
    config.seed = 0xE16;
    let env_config = EnvConfig {
        decision_interval: SimDuration::from_hours(2.0),
        reward: RewardConfig::default(),
    };
    PolicyEnv::new(system(), jobs, "easy-backfill", config, env_config).unwrap()
}

/// Trains a Q-learner for `episodes` episodes and returns the full
/// trajectory, one line per step: `episode step action reward obs-json`.
fn q_trajectory(episodes: u32) -> Vec<String> {
    let catalog = ActionCatalog::standard();
    let config = QConfig {
        episodes,
        ..QConfig::default()
    };
    let mut learner = QLearner::new(standard_tiling(), catalog.len(), config);
    let mut env = make_env();
    let mut lines = Vec::new();
    for ep in 0..episodes {
        let mut obs = env.reset();
        loop {
            let x = observation_features(&obs);
            let a = learner.act(&x);
            let r = env.step(&catalog.entries[a].actions);
            let x_next = observation_features(&r.observation);
            learner.update(&x, a, r.reward, &x_next, r.done);
            lines.push(format!(
                "{ep} {} {} {} {}",
                obs.t.as_secs(),
                catalog.entries[a].name,
                r.reward.to_bits(),
                serde_json::to_string(&r.observation).unwrap()
            ));
            obs = r.observation;
            if r.done {
                break;
            }
        }
        learner.end_episode();
        let outcome = env.finish();
        lines.push(format!(
            "{ep} outcome {}",
            serde_json::to_string(&outcome).unwrap()
        ));
    }
    lines
}

#[test]
fn q_training_is_byte_reproducible_from_seed() {
    let a = q_trajectory(3);
    let b = q_trajectory(3);
    assert!(a.len() > 10, "training must produce steps");
    assert!(a == b, "fixed-seed Q training diverged between two runs");
}

/// Every event at or before a decision point runs in that step, so the
/// step that reaches the run's first past-horizon event reports `done`.
/// In this scenario every episode has a pending event within one
/// interval of the 24 h horizon, so the step starting at the horizon must
/// end its episode — also when that event is a phase change or a
/// shutdown completion rather than a job finish. `q_trajectory` stops an
/// episode at the first `done`, so the line after that step must be the
/// episode's outcome.
#[test]
fn q_training_reports_done_in_the_step_past_the_horizon() {
    let lines = q_trajectory(3);
    let mut checked = 0;
    for (line, next) in lines.iter().zip(&lines[1..]) {
        let mut fields = line.split(' ');
        let (ep, start) = (fields.next().unwrap(), fields.next().unwrap());
        if start != "outcome" && start.parse::<f64>().unwrap() >= 86_400.0 {
            assert!(
                next.starts_with(&format!("{ep} outcome")),
                "episode {ep}: the step from {start} s ran past the horizon without done"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 3, "every episode must reach the horizon");
}

#[test]
fn bandit_training_is_byte_reproducible_from_seed() {
    let run = || {
        let catalog = ActionCatalog::standard();
        let mut bandit = ContextualBandit::new(N_CONTEXTS, catalog.len(), BanditConfig::default());
        let mut env = make_env();
        let mut lines = Vec::new();
        for ep in 0..2 {
            let mut obs = env.reset();
            loop {
                let c = context_bucket(&obs);
                let a = bandit.act(c);
                let r = env.step(&catalog.entries[a].actions);
                bandit.update(c, a, r.reward);
                lines.push(format!(
                    "{ep} {c} {} {}",
                    catalog.entries[a].name,
                    r.reward.to_bits()
                ));
                obs = r.observation;
                if r.done {
                    break;
                }
            }
            env.finish();
        }
        lines
    };
    assert!(run() == run(), "fixed-seed bandit training diverged");
}

#[test]
fn mid_training_env_snapshot_resumes_byte_identically() {
    // Drive an episode with learner-chosen actions, freeze mid-episode,
    // revive into a *fresh* environment, and check the remaining steps
    // and final outcome agree byte-for-byte with the uninterrupted run.
    let catalog = ActionCatalog::standard();
    let drive = |env: &mut PolicyEnv, learner: &mut QLearner, steps: usize| -> Vec<String> {
        let mut out = Vec::new();
        for _ in 0..steps {
            let x = observation_features(&env.observe());
            let a = learner.act(&x);
            let r = env.step(&catalog.entries[a].actions);
            out.push(format!(
                "{} {}",
                catalog.entries[a].name,
                serde_json::to_string(&r).unwrap()
            ));
            if r.done {
                break;
            }
        }
        out
    };

    // Uninterrupted run.
    let mut learner = QLearner::new(standard_tiling(), catalog.len(), QConfig::default());
    let mut env = make_env();
    env.reset();
    let head = drive(&mut env, &mut learner, 4);
    let tail_straight = drive(&mut env, &mut learner, 20);
    let out_straight = serde_json::to_string(&env.finish()).unwrap();

    // Interrupted run: same learner seed, same head, freeze, revive.
    let mut learner2 = QLearner::new(standard_tiling(), catalog.len(), QConfig::default());
    let mut env2 = make_env();
    env2.reset();
    let head2 = drive(&mut env2, &mut learner2, 4);
    assert!(head == head2, "pre-snapshot steps must already agree");
    let frozen = env2.snapshot();
    let mut env3 = make_env();
    env3.restore(&frozen)
        .expect("mid-training snapshot revives");
    let tail_resumed = drive(&mut env3, &mut learner2, 20);
    let out_resumed = serde_json::to_string(&env3.finish()).unwrap();

    assert!(
        tail_straight == tail_resumed,
        "post-resume steps diverged from the uninterrupted run"
    );
    assert!(
        out_straight == out_resumed,
        "final outcome diverged after mid-training resume"
    );
}
