//! E16: learned controllers through the control plane.
//!
//! For each of the nine surveyed centers, trains two dependency-free
//! offline learners — tabular Q-learning over a tile-coded observation
//! and an epsilon-greedy contextual bandit — inside the SPARS-style
//! [`PolicyEnv`], driving the standard macro-action catalog on top of an
//! EASY-backfill engine. Each learner's greedy policy is then evaluated
//! for one episode and scored with the same blended reward
//! (energy + slowdown + budget violation) as four engineered baselines:
//! fcfs, easy-backfill, power-aware-backfill+dvfs, energy-aware(energy).
//!
//! Determinism: training is a pure function of the seeds; CI
//! regenerates the committed `BENCH_policy_env.json` and byte-diffs it.
//!
//! Env vars:
//! - `EPA_E16_SITES` — comma-separated site keys to run (default: all nine).
//! - `EPA_E16_TRAJECTORY` — path to write the full training trajectory
//!   (one line per decision step) for byte-level reproducibility checks.
//!
//! Usage: `e16_policy_env [out.json]` (default `BENCH_policy_env.json`).

use epa_bench::ResultsTable;
use epa_sched::engine::{ClusterSim, EngineConfig, SimOutcome};
use epa_sched::env::{EnvConfig, PolicyEnv, RewardConfig};
use epa_sched::learn::{
    context_bucket, observation_features, standard_tiling, ActionCatalog, BanditConfig,
    ContextualBandit, QConfig, QLearner, N_CONTEXTS,
};
use epa_sched::policies::registry::make_policy;
use epa_simcore::time::{SimDuration, SimTime};
use epa_sites::config::SiteConfig;
use epa_workload::generator::WorkloadGenerator;
use serde_json::json;

/// Two simulated days per episode — long enough for diurnal load and the
/// sites' windowed mechanisms, short enough for nine training loops.
const EPISODE_DAYS: f64 = 2.0;
/// Decision cadence: 24 decision points per episode.
const DECISION_HOURS: f64 = 2.0;
/// Engine seed shared by every run (workloads differ per site).
const ENGINE_SEED: u64 = 0xE16;
/// Site-config seed (workload + weather substreams derive from it).
const SITE_SEED: u64 = 11;
/// "Matching" tolerance: a learned reward within 0.1% of the engineered
/// power-aware baseline counts as matching it.
const MATCH_TOLERANCE: f64 = 1e-3;

const SITE_KEYS: [&str; 9] = [
    "cea",
    "cineca",
    "jcahpc",
    "kaust",
    "lrz",
    "riken",
    "stfc",
    "tokyo_tech",
    "trinity",
];

const BASELINES: [&str; 4] = [
    "fcfs",
    "easy-backfill",
    "power-aware-backfill+dvfs",
    "energy-aware(energy)",
];

fn site_config(key: &str) -> SiteConfig {
    use epa_sites::centers as c;
    let mut site = match key {
        "cea" => c::cea::config(SITE_SEED),
        "cineca" => c::cineca::config(SITE_SEED),
        "jcahpc" => c::jcahpc::config(SITE_SEED),
        "kaust" => c::kaust::config(SITE_SEED),
        "lrz" => c::lrz::config(SITE_SEED),
        "riken" => c::riken::config(SITE_SEED),
        "stfc" => c::stfc::config(SITE_SEED),
        "tokyo_tech" => c::tokyo_tech::config(SITE_SEED),
        "trinity" => c::trinity::config(SITE_SEED),
        other => panic!("unknown site key {other}"),
    };
    site.horizon = SimTime::from_days(EPISODE_DAYS);
    site
}

/// The shared engine config: the site's production mechanisms, so the
/// engineered baselines run exactly as configured and the learners start
/// from the same machine (their actions may override the knobs).
fn engine_config(site: &SiteConfig) -> EngineConfig {
    let mut config = EngineConfig::new(site.horizon);
    config.power_budget_watts = site.power_budget_watts;
    config.shutdown = site.shutdown.clone();
    config.emergency = site.emergency.clone();
    config.limit_gate = site.limit_gate.clone();
    config.seed = ENGINE_SEED;
    config
}

fn baseline_outcome(site: &SiteConfig, policy_name: &str) -> SimOutcome {
    let system = site.system.clone().build();
    let jobs = WorkloadGenerator::new(site.workload.clone()).generate(site.horizon, 0);
    let mut policy = make_policy(policy_name).expect("registered baseline");
    ClusterSim::new(system, jobs, policy.as_mut(), engine_config(site)).run()
}

fn make_env(site: &SiteConfig, env_config: EnvConfig) -> PolicyEnv {
    let system = site.system.clone().build();
    let jobs = WorkloadGenerator::new(site.workload.clone()).generate(site.horizon, 0);
    PolicyEnv::new(
        system,
        jobs,
        "easy-backfill",
        engine_config(site),
        env_config,
    )
    .expect("easy-backfill is registered")
}

/// Trains a Q-learner and returns (greedy-evaluation reward, outcome).
/// Appends one trajectory line per training step.
fn train_q(
    site: &SiteConfig,
    env_config: EnvConfig,
    catalog: &ActionCatalog,
    config: QConfig,
    trajectory: &mut Vec<String>,
) -> (f64, SimOutcome) {
    let key = &site.meta.key;
    let mut learner = QLearner::new(standard_tiling(), catalog.len(), config);
    let env = make_env(site, env_config);
    for ep in 0..config.episodes {
        let mut episode = env.reset();
        let mut obs = episode.observe();
        loop {
            let x = observation_features(&obs);
            let a = learner.act(&x);
            let r = episode.step(&catalog.entries[a].actions);
            let x_next = observation_features(&r.observation);
            learner.update(&x, a, r.reward, &x_next, r.done);
            trajectory.push(format!(
                "{key} q {ep} {} {} {:016x}",
                obs.t.as_secs(),
                catalog.entries[a].name,
                r.reward.to_bits()
            ));
            obs = r.observation;
            if r.done {
                break;
            }
        }
        learner.end_episode();
    }
    // Greedy evaluation episode: exploit only, no updates.
    let mut episode = env.reset();
    let mut obs = episode.observe();
    loop {
        let a = learner.greedy(&observation_features(&obs));
        let r = episode.step(&catalog.entries[a].actions);
        trajectory.push(format!(
            "{key} q eval {} {} {:016x}",
            obs.t.as_secs(),
            catalog.entries[a].name,
            r.reward.to_bits()
        ));
        obs = r.observation;
        if r.done {
            break;
        }
    }
    let outcome = episode.finish();
    (env_config.reward.reward_of_outcome(&outcome), outcome)
}

/// Trains a contextual bandit and returns (greedy reward, outcome).
fn train_bandit(
    site: &SiteConfig,
    env_config: EnvConfig,
    catalog: &ActionCatalog,
    config: BanditConfig,
    trajectory: &mut Vec<String>,
) -> (f64, SimOutcome) {
    let key = &site.meta.key;
    let mut bandit = ContextualBandit::new(N_CONTEXTS, catalog.len(), config);
    let env = make_env(site, env_config);
    for ep in 0..config.episodes {
        let mut episode = env.reset();
        let mut obs = episode.observe();
        loop {
            let c = context_bucket(&obs);
            let a = bandit.act(c);
            let r = episode.step(&catalog.entries[a].actions);
            bandit.update(c, a, r.reward);
            trajectory.push(format!(
                "{key} bandit {ep} {} {} {:016x}",
                obs.t.as_secs(),
                catalog.entries[a].name,
                r.reward.to_bits()
            ));
            obs = r.observation;
            if r.done {
                break;
            }
        }
    }
    let mut episode = env.reset();
    let mut obs = episode.observe();
    loop {
        let a = bandit.greedy(context_bucket(&obs));
        let r = episode.step(&catalog.entries[a].actions);
        trajectory.push(format!(
            "{key} bandit eval {} {} {:016x}",
            obs.t.as_secs(),
            catalog.entries[a].name,
            r.reward.to_bits()
        ));
        obs = r.observation;
        if r.done {
            break;
        }
    }
    let outcome = episode.finish();
    (env_config.reward.reward_of_outcome(&outcome), outcome)
}

fn outcome_json(reward: f64, o: &SimOutcome) -> serde_json::Value {
    json!({
        "reward": reward,
        "completed": o.completed,
        "energy_joules": o.energy_joules,
        "mean_bounded_slowdown": o.mean_bounded_slowdown,
        "budget_violation_secs": o.budget_violation_secs,
    })
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_policy_env.json".to_owned());
    let site_filter: Option<Vec<String>> = std::env::var("EPA_E16_SITES")
        .ok()
        .map(|s| s.split(',').map(|k| k.trim().to_owned()).collect());
    let keys: Vec<&str> = SITE_KEYS
        .iter()
        .copied()
        .filter(|k| {
            site_filter
                .as_ref()
                .is_none_or(|f| f.iter().any(|s| s == k))
        })
        .collect();
    assert!(!keys.is_empty(), "EPA_E16_SITES matched no known site");

    let env_config = EnvConfig {
        decision_interval: SimDuration::from_hours(DECISION_HOURS),
        reward: RewardConfig::default(),
    };
    let catalog = ActionCatalog::standard();
    let q_config = QConfig::default();
    let bandit_config = BanditConfig::default();

    println!(
        "E16: PolicyEnv learners vs engineered baselines, {} sites, {EPISODE_DAYS} days, \
         decision every {DECISION_HOURS} h\n",
        keys.len()
    );
    let mut table = ResultsTable::new(&[
        "site",
        "fcfs",
        "easy",
        "power-aware",
        "energy-aware",
        "q-learn",
        "bandit",
        "winner",
    ]);

    let mut trajectory = Vec::new();
    let mut site_rows = Vec::new();
    let mut matched_sites = 0u32;
    for key in &keys {
        let site = site_config(key);
        let baseline: Vec<(String, f64, SimOutcome)> = BASELINES
            .iter()
            .map(|name| {
                let o = baseline_outcome(&site, name);
                (
                    (*name).to_owned(),
                    env_config.reward.reward_of_outcome(&o),
                    o,
                )
            })
            .collect();
        let (q_reward, q_outcome) = train_q(&site, env_config, &catalog, q_config, &mut trajectory);
        let (b_reward, b_outcome) =
            train_bandit(&site, env_config, &catalog, bandit_config, &mut trajectory);

        let power_aware = baseline
            .iter()
            .find(|(n, _, _)| n == "power-aware-backfill+dvfs")
            .map(|(_, r, _)| *r)
            .expect("baseline present");
        let best_learned = q_reward.max(b_reward);
        // Rewards are negative costs: "matches" means within the
        // tolerance band of the engineered baseline, "beats" means above.
        let matches = best_learned >= power_aware - power_aware.abs() * MATCH_TOLERANCE;
        matched_sites += u32::from(matches);

        let fmt = |r: f64| format!("{:.0}", r);
        table.row(vec![
            (*key).to_owned(),
            fmt(baseline[0].1),
            fmt(baseline[1].1),
            fmt(power_aware),
            fmt(baseline[3].1),
            fmt(q_reward),
            fmt(b_reward),
            if matches { "learned" } else { "engineered" }.to_owned(),
        ]);
        site_rows.push(json!({
            "site": key,
            "baselines": serde_json::Value::Object(
                baseline
                    .iter()
                    .map(|(n, r, o)| (n.clone(), outcome_json(*r, o)))
                    .collect(),
            ),
            "q_learning": outcome_json(q_reward, &q_outcome),
            "bandit": outcome_json(b_reward, &b_outcome),
            "best_learned_reward": best_learned,
            "power_aware_reward": power_aware,
            "learned_matches_power_aware": matches,
        }));
    }

    println!("{}", table.render());
    println!(
        "learned controller matches/beats the engineered power-aware baseline on \
         {matched_sites}/{} sites (blended reward, {MATCH_TOLERANCE:.1e} tolerance)",
        keys.len()
    );

    if let Ok(path) = std::env::var("EPA_E16_TRAJECTORY") {
        std::fs::write(&path, trajectory.join("\n") + "\n").expect("write trajectory");
        eprintln!("wrote trajectory ({} steps) to {path}", trajectory.len());
    }

    let doc = json!({
        "schema_version": epa_bench::BENCH_SCHEMA_VERSION,
        "bench": "policy-env",
        "episode_days": EPISODE_DAYS,
        "decision_interval_secs": env_config.decision_interval.as_secs(),
        "engine_seed": ENGINE_SEED,
        "site_seed": SITE_SEED,
        "reward_config": env_config.reward,
        "q_config": q_config,
        "bandit_config": bandit_config,
        "action_catalog": catalog.entries.iter().map(|e| e.name).collect::<Vec<_>>(),
        "match_tolerance": MATCH_TOLERANCE,
        "sites_where_learned_matches_power_aware": matched_sites,
        "sites_total": keys.len(),
        "results": site_rows,
    });
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&doc).expect("serializable") + "\n",
    )
    .expect("write bench output");
    eprintln!("wrote {out_path}");
}
