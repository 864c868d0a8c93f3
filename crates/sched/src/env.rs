//! SPARS-style policy environment: the engine as a decision process.
//!
//! The survey's forward-looking sections (Q8, "machine learning for
//! scheduling") expect sites to train controllers against their own
//! systems. [`PolicyEnv`] packages the cluster engine as exactly that: a
//! `reset / observe / step(actions) → (observation, reward)` loop at a
//! fixed decision interval, where the actions are the same
//! [`ControlAction`]s the engineered adapters emit — a learned controller
//! and a production mechanism go through one validated apply path.
//!
//! Determinism contract: the environment inherits the engine's guarantee
//! — same seed, same action sequence ⇒ byte-identical observations,
//! rewards, outcomes, and traces. Training
//! loops are therefore exactly reproducible, and a mid-episode
//! environment can be frozen with [`PolicyEnv::snapshot`] and revived
//! with [`PolicyEnv::restore`] without perturbing a single byte of the
//! remaining episode.

use crate::control::{ControlAction, Observation};
use crate::engine::{ClusterSim, EngineConfig, RewardProbe, SimOutcome};
use crate::error::SchedError;
use crate::policies::registry::make_policy;
use crate::snapshot::Snapshot;
use epa_cluster::system::System;
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::job::Job;
use serde::Serialize;

/// Schema version of the environment snapshot frame (env bookkeeping +
/// embedded engine snapshot). Bump on layout change.
pub const ENV_SNAPSHOT_VERSION: u32 = 1;

/// Reward blend weights. The reward for one decision interval is
///
/// ```text
/// r = w_completed_job · Δcompleted
///   − ( w_energy_kwh · ΔkWh
///     + w_slowdown · Δ(bounded-slowdown mass)
///     + w_violation_hours · Δ(budget-violation hours) )
/// ```
///
/// so a controller maximizing return trades throughput against energy,
/// queueing damage, and budget violation — the survey's Q7 effectiveness
/// axes. Zero a weight to ablate that term.
///
/// The completion bonus is load-bearing: without it, the cost-only blend
/// makes "park the machine" (power everything down, stretch every job
/// past the horizon so nothing completes and no slowdown accrues) the
/// optimal policy, and tabular learners find that exploit reliably.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RewardConfig {
    /// Bonus per job completed in the interval.
    pub w_completed_job: f64,
    /// Weight on energy, per kWh consumed in the interval.
    pub w_energy_kwh: f64,
    /// Weight on the bounded-slowdown mass (sum over jobs completed in
    /// the interval of their bounded slowdown).
    pub w_slowdown: f64,
    /// Weight on power-budget violation time, per hour over the limit.
    pub w_violation_hours: f64,
}

impl Default for RewardConfig {
    /// A blend where one kWh, one unit of slowdown mass, and ~72 seconds
    /// of budget violation weigh the same — violation is priced steeply
    /// because production sites treat it as near-inviolable (Trinity's
    /// contractual 8.5 MW, RIKEN's emergency kills). The completion bonus
    /// is sized so a typical mid-size job (tens of kWh, modest slowdown)
    /// is clearly worth finishing.
    fn default() -> Self {
        RewardConfig {
            w_completed_job: 50.0,
            w_energy_kwh: 1.0,
            w_slowdown: 1.0,
            w_violation_hours: 50.0,
        }
    }
}

impl RewardConfig {
    /// The reward accrued between two engine probes.
    #[must_use]
    pub fn reward_between(&self, before: &RewardProbe, after: &RewardProbe) -> f64 {
        let d_done = (after.completed - before.completed) as f64;
        let d_kwh = (after.energy_joules - before.energy_joules) / 3.6e6;
        let d_slow = after.slowdown_sum - before.slowdown_sum;
        let d_viol_h = (after.violation_secs - before.violation_secs) / 3600.0;
        self.w_completed_job * d_done
            - (self.w_energy_kwh * d_kwh
                + self.w_slowdown * d_slow
                + self.w_violation_hours * d_viol_h)
    }

    /// The whole-episode reward of a finished run, computed from the
    /// outcome alone (`slowdown mass = mean bounded slowdown × completed`).
    /// Equals the sum of per-interval rewards over a full episode.
    #[must_use]
    pub fn reward_of_outcome(&self, o: &SimOutcome) -> f64 {
        let kwh = o.energy_joules / 3.6e6;
        let slow = o.mean_bounded_slowdown * o.completed as f64;
        let viol_h = o.budget_violation_secs / 3600.0;
        self.w_completed_job * o.completed as f64
            - (self.w_energy_kwh * kwh + self.w_slowdown * slow + self.w_violation_hours * viol_h)
    }
}

/// Environment configuration: the decision cadence and the reward blend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnvConfig {
    /// Fixed interval between decision points. Each [`PolicyEnv::step`]
    /// advances the simulation by exactly this much (or to the end of the
    /// episode, whichever comes first).
    pub decision_interval: SimDuration,
    /// Reward blend.
    pub reward: RewardConfig,
}

impl EnvConfig {
    /// An hourly decision cadence with the default reward blend.
    #[must_use]
    pub fn hourly() -> Self {
        EnvConfig {
            decision_interval: SimDuration::from_hours(1.0),
            reward: RewardConfig::default(),
        }
    }
}

/// What one [`PolicyEnv::step`] returns.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StepResult {
    /// The observation at the new decision point.
    pub observation: Observation,
    /// Reward accrued over the interval just simulated.
    pub reward: f64,
    /// How many of the submitted actions the engine accepted.
    pub actions_applied: u32,
    /// True when the episode is over (simulation ran to its horizon);
    /// further steps are no-ops with zero reward.
    pub done: bool,
}

/// The engine wrapped as a fixed-interval decision process.
///
/// The environment *owns* its episode ingredients (system, jobs, policy
/// name, engine config), so [`PolicyEnv::reset`] can rebuild a fresh,
/// byte-identical engine for every episode — the RNG substreams are
/// re-derived from the engine config's seed, never shared across
/// episodes.
pub struct PolicyEnv {
    system: System,
    jobs: Vec<Job>,
    policy_name: String,
    engine_config: EngineConfig,
    env_config: EnvConfig,
    sim: Option<ClusterSim<'static>>,
    step_idx: u64,
    done: bool,
    last_probe: Option<RewardProbe>,
    episode_return: f64,
}

impl PolicyEnv {
    /// Creates an environment. The policy name is resolved against the
    /// registry eagerly so an unknown name fails here, not mid-training.
    pub fn new(
        system: System,
        jobs: Vec<Job>,
        policy_name: &str,
        engine_config: EngineConfig,
        env_config: EnvConfig,
    ) -> Result<Self, SchedError> {
        // Validate the name now; the boxed policy itself is rebuilt per
        // episode (policies may be stateful across a run).
        drop(make_policy(policy_name)?);
        Ok(PolicyEnv {
            system,
            jobs,
            policy_name: policy_name.to_owned(),
            engine_config,
            env_config,
            sim: None,
            step_idx: 0,
            done: false,
            last_probe: None,
            episode_return: 0.0,
        })
    }

    /// The environment configuration.
    #[must_use]
    pub fn config(&self) -> &EnvConfig {
        &self.env_config
    }

    /// Starts a fresh episode and returns the initial observation (t = 0,
    /// nothing simulated yet).
    ///
    /// # Panics
    /// Panics only if the engine rejects a configuration that
    /// [`PolicyEnv::new`] accepted, which would be a bug.
    pub fn reset(&mut self) -> Observation {
        let policy = make_policy(&self.policy_name).expect("name validated in new()");
        let sim = ClusterSim::try_new_owned(
            self.system.clone(),
            self.jobs.clone(),
            policy,
            self.engine_config.clone(),
        )
        .expect("engine config validated at env construction");
        self.step_idx = 0;
        self.done = false;
        self.episode_return = 0.0;
        self.last_probe = Some(sim.reward_probe());
        let obs = sim.control_observation();
        self.sim = Some(sim);
        obs
    }

    /// The current observation without advancing time.
    ///
    /// # Panics
    /// Panics if called before [`PolicyEnv::reset`].
    #[must_use]
    pub fn observe(&self) -> Observation {
        self.sim
            .as_ref()
            .expect("reset() before observe()")
            .control_observation()
    }

    /// Applies the controller's actions at the current decision point,
    /// advances one decision interval, and returns the new observation
    /// and the interval's reward.
    ///
    /// # Panics
    /// Panics if called before [`PolicyEnv::reset`].
    pub fn step(&mut self, actions: &[ControlAction]) -> StepResult {
        let sim = self.sim.as_mut().expect("reset() before step()");
        if self.done {
            return StepResult {
                observation: sim.control_observation(),
                reward: 0.0,
                actions_applied: 0,
                done: true,
            };
        }
        let actions_applied = sim.apply_external_actions(actions);
        self.step_idx += 1;
        // The barrier is derived from the step index, not accumulated, so
        // a restored environment lands on exactly the same instants.
        let until =
            SimTime::from_secs(self.env_config.decision_interval.as_secs() * self.step_idx as f64);
        let ran_out = sim.advance_until(until);
        let probe = sim.reward_probe();
        let before = self.last_probe.expect("probe recorded at reset");
        let reward = self.env_config.reward.reward_between(&before, &probe);
        self.last_probe = Some(probe);
        self.episode_return += reward;
        self.done = ran_out;
        StepResult {
            observation: sim.control_observation(),
            reward,
            actions_applied,
            done: self.done,
        }
    }

    /// Total reward accrued this episode so far.
    #[must_use]
    pub fn episode_return(&self) -> f64 {
        self.episode_return
    }

    /// Ends the episode: runs the engine to completion (if steps didn't
    /// already reach the horizon) and returns the final outcome. The
    /// environment needs a [`PolicyEnv::reset`] before its next step.
    ///
    /// # Panics
    /// Panics if called before [`PolicyEnv::reset`].
    pub fn finish(&mut self) -> SimOutcome {
        let sim = self.sim.take().expect("reset() before finish()");
        self.done = true;
        sim.run()
    }

    /// Freezes the mid-episode state: env bookkeeping plus the engine's
    /// own framed snapshot, in one checksummed frame.
    ///
    /// # Panics
    /// Panics if called before [`PolicyEnv::reset`].
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let sim = self.sim.as_ref().expect("reset() before snapshot()");
        let probe = self.last_probe.expect("probe recorded at reset");
        let mut w = SnapWriter::new();
        w.section("env");
        w.u64(self.step_idx);
        w.bool(self.done);
        w.f64(self.episode_return);
        w.f64(probe.t.as_secs());
        w.f64(probe.energy_joules);
        w.u64(probe.completed);
        w.f64(probe.slowdown_sum);
        w.f64(probe.violation_secs);
        w.u64(probe.emergency_kills);
        w.section("engine");
        let engine = sim.snapshot();
        w.seq(engine.as_bytes(), |w, &b| w.u8(b));
        w.finish(ENV_SNAPSHOT_VERSION)
    }

    /// Revives a mid-episode environment frozen by [`PolicyEnv::snapshot`].
    /// The env must have been constructed with the same system, jobs,
    /// policy name, and configs (the engine's config fingerprint rejects a
    /// mismatch).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::open(bytes, ENV_SNAPSHOT_VERSION)?;
        r.section("env")?;
        let step_idx = r.u64()?;
        let done = r.bool()?;
        let episode_return = r.f64()?;
        let probe = RewardProbe {
            t: r.time()?,
            energy_joules: r.f64()?,
            completed: r.u64()?,
            slowdown_sum: r.f64()?,
            violation_secs: r.f64()?,
            emergency_kills: r.u64()?,
        };
        r.section("engine")?;
        let engine_bytes = r.seq(SnapReader::u8)?;
        r.finish()?;
        let policy = make_policy(&self.policy_name).map_err(|e| SnapshotError::ConfigMismatch {
            detail: format!("policy resolution failed: {e}"),
        })?;
        let sim = ClusterSim::resume_owned(
            self.system.clone(),
            self.jobs.clone(),
            policy,
            self.engine_config.clone(),
            &Snapshot::from_bytes(engine_bytes),
        )?;
        self.sim = Some(sim);
        self.step_idx = step_idx;
        self.done = done;
        self.episode_return = episode_return;
        self.last_probe = Some(probe);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlAction;
    use epa_cluster::node::NodeSpec;
    use epa_cluster::system::SystemSpec;
    use epa_cluster::topology::Topology;
    use epa_workload::generator::{WorkloadGenerator, WorkloadParams};

    fn small_env() -> PolicyEnv {
        let spec = SystemSpec {
            name: "env-test".into(),
            cabinets: 2,
            nodes_per_cabinet: 8,
            node: NodeSpec::typical_xeon(),
            topology: Topology::FatTree { arity: 8 },
            peak_tflops: 1.0,
        };
        let horizon = SimTime::from_hours(12.0);
        let jobs = WorkloadGenerator::new(WorkloadParams::typical(16, 7)).generate(horizon, 0);
        let config = EngineConfig::new(horizon);
        PolicyEnv::new(
            spec.build(),
            jobs,
            "easy-backfill",
            config,
            EnvConfig::hourly(),
        )
        .unwrap()
    }

    #[test]
    fn unknown_policy_rejected_at_construction() {
        let spec = SystemSpec {
            name: "x".into(),
            cabinets: 1,
            nodes_per_cabinet: 4,
            node: NodeSpec::typical_xeon(),
            topology: Topology::FatTree { arity: 4 },
            peak_tflops: 1.0,
        };
        let Err(err) = PolicyEnv::new(
            spec.build(),
            vec![],
            "no-such-policy",
            EngineConfig::new(SimTime::from_hours(1.0)),
            EnvConfig::hourly(),
        ) else {
            panic!("unknown policy must not construct an env");
        };
        assert!(matches!(err, SchedError::UnknownPolicy { .. }));
    }

    #[test]
    fn episode_runs_to_done_and_matches_outcome_reward() {
        let mut env = small_env();
        let obs0 = env.reset();
        assert_eq!(obs0.t, SimTime::ZERO);
        let mut steps = 0;
        let mut total = 0.0;
        loop {
            let r = env.step(&[]);
            total += r.reward;
            steps += 1;
            if r.done {
                break;
            }
            assert!(steps < 1000, "episode must terminate");
        }
        let outcome = env.finish();
        let expected = env.config().reward.reward_of_outcome(&outcome);
        assert!(
            (total - expected).abs() < 1e-6,
            "sum of step rewards {total} != outcome reward {expected}"
        );
    }

    #[test]
    fn reset_is_reproducible() {
        let mut env = small_env();
        env.reset();
        let a1 = env.step(&[]);
        let b1 = env.step(&[]);
        env.reset();
        let a2 = env.step(&[]);
        let b2 = env.step(&[]);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn external_actions_steer_the_engine() {
        let mut env = small_env();
        env.reset();
        let r = env.step(&[ControlAction::SetDefaultFrequency {
            freq_ghz: Some(1.2),
        }]);
        assert_eq!(r.actions_applied, 1);
        // An invalid action is rejected, not applied.
        let r = env.step(&[ControlAction::SetJobLimit { limit: Some(0) }]);
        assert_eq!(r.actions_applied, 0);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        // Straight-through episode.
        let mut env = small_env();
        env.reset();
        let mut straight = Vec::new();
        for _ in 0..3 {
            straight.push(env.step(&[ControlAction::SetDefaultFrequency {
                freq_ghz: Some(1.8),
            }]));
        }
        let o_straight = env.finish();

        // Same episode interrupted after step 1 and revived.
        let mut env = small_env();
        env.reset();
        let first = env.step(&[ControlAction::SetDefaultFrequency {
            freq_ghz: Some(1.8),
        }]);
        assert_eq!(first, straight[0]);
        let frozen = env.snapshot();
        let mut env2 = small_env();
        env2.restore(&frozen).unwrap();
        let mut resumed = vec![first];
        for _ in 0..2 {
            resumed.push(env2.step(&[ControlAction::SetDefaultFrequency {
                freq_ghz: Some(1.8),
            }]));
        }
        let o_resumed = env2.finish();
        assert_eq!(straight, resumed);
        assert_eq!(
            serde_json::to_string(&o_straight).unwrap(),
            serde_json::to_string(&o_resumed).unwrap()
        );
    }
}
