//! Learned-controller determinism: training is a pure function of the
//! seed. A fixed-seed Q-learning run produces an identical trajectory
//! (every episode, step, chosen action, observation, and reward) every
//! time it is repeated. That an episode frozen mid-way revives
//! without perturbing a byte of the rest is checked by
//! `tests/determinism_matrix.rs`.

mod common;

use common::make_env;
use epa_sched::learn::{
    context_bucket, observation_features, standard_tiling, ActionCatalog, BanditConfig,
    ContextualBandit, QConfig, QLearner, N_CONTEXTS,
};

/// Trains a Q-learner for `episodes` episodes and returns the full
/// trajectory, one line per step: `episode step action reward obs-json`.
fn q_trajectory(episodes: u32) -> Vec<String> {
    let catalog = ActionCatalog::standard();
    let config = QConfig {
        episodes,
        ..QConfig::default()
    };
    let mut learner = QLearner::new(standard_tiling(), catalog.len(), config);
    let env = make_env();
    let mut lines = Vec::new();
    for ep in 0..episodes {
        let mut episode = env.reset();
        let mut obs = episode.observe();
        loop {
            let x = observation_features(&obs);
            let a = learner.act(&x);
            let r = episode.step(&catalog.entries[a].actions);
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
        let outcome = episode.finish();
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
        let env = make_env();
        let mut lines = Vec::new();
        for ep in 0..2 {
            let mut episode = env.reset();
            let mut obs = episode.observe();
            loop {
                let c = context_bucket(&obs);
                let a = bandit.act(c);
                let r = episode.step(&catalog.entries[a].actions);
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
        }
        lines
    };
    assert!(run() == run(), "fixed-seed bandit training diverged");
}
