//! Dependency-free offline learners over the [`crate::env::PolicyEnv`].
//!
//! The survey's Q8 asks what sites *want* from future JSRM; "let the
//! system tune its own knobs" is the recurring answer. These two learners
//! are deliberately small — a tile-coded tabular Q-learner and an
//! epsilon-greedy contextual bandit — because the point is the *plumbing*:
//! both drive the engine exclusively through validated external
//! [`ControlAction`]s, and both train byte-reproducibly from a
//! seed (all randomness flows through [`SimRng`] substreams).
//!
//! The action space is a small catalog of macro-actions
//! ([`ActionCatalog::standard`]): idle-shutdown aggressiveness presets and
//! DVFS default-frequency presets. Budget resizing is deliberately *not*
//! in the catalog — a learner that can raise its own power cap optimizes
//! away the violation penalty instead of the behaviour.

use crate::control::{ControlAction, Observation};
use crate::shutdown::ShutdownPolicy;
use epa_simcore::rng::SimRng;
use epa_simcore::time::SimDuration;
use serde::Serialize;

/// One dimension of the tile coder: a bounded range split into bins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TileDim {
    /// Lower bound (values below clamp here).
    pub lo: f64,
    /// Upper bound (values above clamp here).
    pub hi: f64,
    /// Number of bins across `[lo, hi]`.
    pub bins: usize,
}

/// A classic tile coder: `tilings` overlapping uniform grids, each offset
/// by a fraction of a bin width, turning a continuous observation vector
/// into a sparse set of active feature indices. Coarse coding gives the
/// tabular learner generalization without any numerical optimization.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TileCoding {
    /// Per-input-dimension ranges and resolutions.
    pub dims: Vec<TileDim>,
    /// Number of overlapping offset grids.
    pub tilings: usize,
}

impl TileCoding {
    /// Total number of features (one weight per feature per action).
    #[must_use]
    pub fn n_features(&self) -> usize {
        let per_tiling: usize = self.dims.iter().map(|d| d.bins).product();
        per_tiling * self.tilings
    }

    /// The active feature index in each tiling for input `x`
    /// (`x.len() == dims.len()`; values are clamped to their ranges).
    ///
    /// # Panics
    /// Panics if `x` has the wrong dimensionality.
    #[must_use]
    pub fn active(&self, x: &[f64]) -> Vec<usize> {
        assert_eq!(x.len(), self.dims.len(), "input dimensionality mismatch");
        let per_tiling: usize = self.dims.iter().map(|d| d.bins).product();
        (0..self.tilings)
            .map(|t| {
                // Each tiling shifts the grid by t/tilings of a bin.
                let frac = t as f64 / self.tilings as f64;
                let mut idx = 0usize;
                for (v, d) in x.iter().zip(&self.dims) {
                    let w = (d.hi - d.lo) / d.bins as f64;
                    let shifted = (v - d.lo) / w + frac;
                    let bin = (shifted.floor() as i64).clamp(0, d.bins as i64 - 1) as usize;
                    idx = idx * d.bins + bin;
                }
                t * per_tiling + idx
            })
            .collect()
    }
}

/// Q-learning hyperparameters, stamped into `BENCH_policy_env.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QConfig {
    /// Learning rate (per active tile; the effective rate is `alpha`
    /// because updates are averaged over tilings).
    pub alpha: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Exploration rate at episode 0.
    pub epsilon0: f64,
    /// Multiplicative epsilon decay per episode.
    pub epsilon_decay: f64,
    /// Training episodes.
    pub episodes: u32,
    /// RNG seed for exploration (isolated substream).
    pub seed: u64,
}

impl Default for QConfig {
    fn default() -> Self {
        QConfig {
            alpha: 0.15,
            gamma: 0.95,
            epsilon0: 0.4,
            epsilon_decay: 0.85,
            episodes: 8,
            seed: 1,
        }
    }
}

/// Tabular Q-learning over tile-coded observations.
pub struct QLearner {
    coder: TileCoding,
    config: QConfig,
    /// `weights[action][feature]`; Q(s,a) = mean over active tiles.
    weights: Vec<Vec<f64>>,
    rng: SimRng,
    epsilon: f64,
}

impl QLearner {
    /// Creates a learner for `n_actions` actions.
    #[must_use]
    pub fn new(coder: TileCoding, n_actions: usize, config: QConfig) -> Self {
        let n = coder.n_features();
        QLearner {
            coder,
            config,
            weights: vec![vec![0.0; n]; n_actions],
            rng: SimRng::new(config.seed).stream("qlearn/epsilon"),
            epsilon: config.epsilon0,
        }
    }

    /// The hyperparameters.
    #[must_use]
    pub fn config(&self) -> &QConfig {
        &self.config
    }

    /// Q(s, a) for tile-coded state `x`.
    #[must_use]
    pub fn q(&self, x: &[f64], action: usize) -> f64 {
        let active = self.coder.active(x);
        let sum: f64 = active.iter().map(|&i| self.weights[action][i]).sum();
        sum / self.coder.tilings as f64
    }

    /// Greedy action: highest Q, lowest index wins ties (determinism).
    #[must_use]
    pub fn greedy(&self, x: &[f64]) -> usize {
        let mut best = 0;
        let mut best_q = f64::NEG_INFINITY;
        for a in 0..self.weights.len() {
            let q = self.q(x, a);
            if q > best_q {
                best_q = q;
                best = a;
            }
        }
        best
    }

    /// Epsilon-greedy action for training.
    pub fn act(&mut self, x: &[f64]) -> usize {
        if self.rng.bernoulli(self.epsilon) {
            self.rng.uniform_usize(0, self.weights.len() - 1)
        } else {
            self.greedy(x)
        }
    }

    /// One TD(0) update: `Q(s,a) ← Q(s,a) + α (r + γ maxₐ' Q(s',a') − Q(s,a))`.
    /// `terminal` drops the bootstrap term.
    pub fn update(
        &mut self,
        x: &[f64],
        action: usize,
        reward: f64,
        x_next: &[f64],
        terminal: bool,
    ) {
        let bootstrap = if terminal {
            0.0
        } else {
            self.config.gamma * self.q(x_next, self.greedy(x_next))
        };
        let td = reward + bootstrap - self.q(x, action);
        let step = self.config.alpha * td / self.coder.tilings as f64;
        for i in self.coder.active(x) {
            self.weights[action][i] += step;
        }
    }

    /// Decays epsilon at an episode boundary.
    pub fn end_episode(&mut self) {
        self.epsilon *= self.config.epsilon_decay;
    }
}

/// Bandit hyperparameters, stamped into `BENCH_policy_env.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BanditConfig {
    /// Exploration rate (constant; the bandit is stateless across steps
    /// so decay buys little over these short horizons).
    pub epsilon: f64,
    /// Training episodes.
    pub episodes: u32,
    /// RNG seed for exploration (isolated substream).
    pub seed: u64,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig {
            epsilon: 0.25,
            episodes: 6,
            seed: 2,
        }
    }
}

/// Epsilon-greedy contextual bandit: a per-(context, action) running mean
/// of immediate reward. The context is a small discrete bucket of the
/// observation ([`context_bucket`]). No credit assignment across steps —
/// the contrast against the Q-learner isolates how much the *temporal*
/// structure of the problem matters.
pub struct ContextualBandit {
    config: BanditConfig,
    n_contexts: usize,
    counts: Vec<Vec<u64>>,
    sums: Vec<Vec<f64>>,
    rng: SimRng,
}

impl ContextualBandit {
    /// Creates a bandit over `n_contexts × n_actions` cells.
    #[must_use]
    pub fn new(n_contexts: usize, n_actions: usize, config: BanditConfig) -> Self {
        ContextualBandit {
            config,
            n_contexts,
            counts: vec![vec![0; n_actions]; n_contexts],
            sums: vec![vec![0.0; n_actions]; n_contexts],
            rng: SimRng::new(config.seed).stream("bandit/epsilon"),
        }
    }

    /// The hyperparameters.
    #[must_use]
    pub fn config(&self) -> &BanditConfig {
        &self.config
    }

    /// Mean observed reward of `action` in `context` (0 when untried).
    #[must_use]
    pub fn mean(&self, context: usize, action: usize) -> f64 {
        let n = self.counts[context][action];
        if n == 0 {
            0.0
        } else {
            self.sums[context][action] / n as f64
        }
    }

    /// Greedy action for a context; untried actions win (optimistic), ties
    /// break to the lowest index (determinism).
    #[must_use]
    pub fn greedy(&self, context: usize) -> usize {
        let n_actions = self.counts[context].len();
        // Prefer any untried action first, in index order.
        if let Some(a) = (0..n_actions).find(|&a| self.counts[context][a] == 0) {
            return a;
        }
        let mut best = 0;
        let mut best_m = f64::NEG_INFINITY;
        for a in 0..n_actions {
            let m = self.mean(context, a);
            if m > best_m {
                best_m = m;
                best = a;
            }
        }
        best
    }

    /// Epsilon-greedy action for training.
    pub fn act(&mut self, context: usize) -> usize {
        let n_actions = self.counts[context].len();
        if self.rng.bernoulli(self.config.epsilon) {
            self.rng.uniform_usize(0, n_actions - 1)
        } else {
            self.greedy(context)
        }
    }

    /// Records an observed immediate reward.
    ///
    /// # Panics
    /// Panics if `context` is out of range.
    pub fn update(&mut self, context: usize, action: usize, reward: f64) {
        assert!(context < self.n_contexts, "context out of range");
        self.counts[context][action] += 1;
        self.sums[context][action] += reward;
    }
}

/// A named macro-action: the control actions one catalog entry emits at a
/// decision point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MacroAction {
    /// Stable name (stamped into trajectories and the bench JSON).
    pub name: &'static str,
    /// The control actions the entry emits.
    pub actions: Vec<ControlAction>,
}

/// The discrete action space both learners act over.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ActionCatalog {
    /// The macro-actions, in stable order.
    pub entries: Vec<MacroAction>,
}

impl ActionCatalog {
    /// The standard catalog: a no-op, three idle-shutdown postures, and
    /// three DVFS default-frequency postures. Deliberately excludes
    /// budget resizing (a learner that can raise its own cap optimizes
    /// away the penalty, not the behaviour) and emergency shedding (a
    /// safety mechanism, not a policy knob).
    #[must_use]
    pub fn standard() -> Self {
        let eager = ShutdownPolicy {
            idle_threshold: SimDuration::from_secs(300.0),
            min_idle_reserve: 1,
            ..ShutdownPolicy::default()
        };
        let lazy = ShutdownPolicy {
            idle_threshold: SimDuration::from_secs(1800.0),
            min_idle_reserve: 4,
            ..ShutdownPolicy::default()
        };
        ActionCatalog {
            entries: vec![
                MacroAction {
                    name: "noop",
                    actions: vec![],
                },
                MacroAction {
                    name: "shutdown-eager",
                    actions: vec![ControlAction::SetIdleShutdown {
                        policy: Some(eager),
                    }],
                },
                MacroAction {
                    name: "shutdown-lazy",
                    actions: vec![ControlAction::SetIdleShutdown { policy: Some(lazy) }],
                },
                MacroAction {
                    name: "shutdown-off",
                    actions: vec![ControlAction::SetIdleShutdown { policy: None }],
                },
                MacroAction {
                    name: "freq-low",
                    actions: vec![ControlAction::SetDefaultFrequency {
                        freq_ghz: Some(1.2),
                    }],
                },
                MacroAction {
                    name: "freq-mid",
                    actions: vec![ControlAction::SetDefaultFrequency {
                        freq_ghz: Some(1.8),
                    }],
                },
                MacroAction {
                    name: "freq-base",
                    actions: vec![ControlAction::SetDefaultFrequency { freq_ghz: None }],
                },
            ],
        }
    }

    /// Number of actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The continuous feature vector the tile coder consumes: queue pressure
/// (log-compressed depth), free fraction, off fraction, and power
/// headroom fraction. All in `[0, 1]`-ish ranges so one set of tile dims
/// fits every site.
#[must_use]
pub fn observation_features(o: &Observation) -> Vec<f64> {
    let total = f64::from(o.total_nodes).max(1.0);
    let queue_pressure = ((o.queue_depth as f64) + 1.0).ln() / 6.0;
    let free_frac = f64::from(o.free_nodes) / total;
    let off_frac = f64::from(o.off_nodes) / total;
    let headroom_frac = if o.budget_watts.is_finite() && o.budget_watts > 0.0 {
        (o.headroom_watts / o.budget_watts).clamp(0.0, 1.0)
    } else {
        1.0
    };
    vec![queue_pressure, free_frac, off_frac, headroom_frac]
}

/// The tile-coding geometry matched to [`observation_features`].
#[must_use]
pub fn standard_tiling() -> TileCoding {
    TileCoding {
        dims: vec![
            TileDim {
                lo: 0.0,
                hi: 1.5,
                bins: 4,
            },
            TileDim {
                lo: 0.0,
                hi: 1.0,
                bins: 4,
            },
            TileDim {
                lo: 0.0,
                hi: 1.0,
                bins: 3,
            },
            TileDim {
                lo: 0.0,
                hi: 1.0,
                bins: 3,
            },
        ],
        tilings: 4,
    }
}

/// Number of discrete contexts [`context_bucket`] can produce.
pub const N_CONTEXTS: usize = 18;

/// A coarse discrete context for the bandit: queue pressure (3 levels) ×
/// free fraction (3 levels) × headroom (2 levels).
#[must_use]
pub fn context_bucket(o: &Observation) -> usize {
    let total = f64::from(o.total_nodes).max(1.0);
    let queue = match o.queue_depth {
        0 => 0,
        1..=8 => 1,
        _ => 2,
    };
    let free_frac = f64::from(o.free_nodes) / total;
    let free = if free_frac < 0.2 {
        0
    } else if free_frac < 0.6 {
        1
    } else {
        2
    };
    let headroom = if o.budget_watts.is_finite() && o.headroom_watts / o.budget_watts.max(1.0) < 0.2
    {
        0
    } else {
        1
    };
    (queue * 3 + free) * 2 + headroom
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_simcore::time::SimTime;

    fn obs(queue: u64, free: u32, off: u32) -> Observation {
        Observation {
            t: SimTime::ZERO,
            queue_depth: queue,
            queued_node_demand: queue * 4,
            wait_p50_secs: 0.0,
            wait_p90_secs: 0.0,
            free_nodes: free,
            off_nodes: off,
            down_nodes: 0,
            booting_nodes: 0,
            total_nodes: 64,
            running_jobs: 3,
            system_watts: 1000.0,
            budget_watts: 2000.0,
            headroom_watts: 1000.0,
            temperature_c: 20.0,
            telemetry_stale: false,
            emergency_armed: false,
            start_hold: false,
            price_per_mwh: 0.0,
            carbon_g_per_kwh: 0.0,
            dr_active: false,
            pue: 1.0,
        }
    }

    #[test]
    fn tile_coding_is_stable_and_in_range() {
        let tc = standard_tiling();
        let x = observation_features(&obs(5, 10, 2));
        let a1 = tc.active(&x);
        let a2 = tc.active(&x);
        assert_eq!(a1, a2);
        assert_eq!(a1.len(), tc.tilings);
        for &i in &a1 {
            assert!(i < tc.n_features());
        }
        // Distinct observations generally land on distinct tiles.
        let y = observation_features(&obs(200, 0, 40));
        assert_ne!(tc.active(&x), tc.active(&y));
    }

    #[test]
    fn q_update_moves_toward_target() {
        let tc = standard_tiling();
        let mut q = QLearner::new(tc, 3, QConfig::default());
        let x = observation_features(&obs(5, 10, 2));
        assert_eq!(q.q(&x, 1), 0.0);
        for _ in 0..200 {
            q.update(&x, 1, -2.0, &x, true);
        }
        assert!((q.q(&x, 1) - (-2.0)).abs() < 1e-3, "{}", q.q(&x, 1));
        // Greedy prefers the best-valued action (others stayed at 0 > −2,
        // so greedy avoids action 1).
        assert_ne!(q.greedy(&x), 1);
    }

    #[test]
    fn learner_randomness_is_reproducible() {
        let tc = standard_tiling();
        let x = observation_features(&obs(5, 10, 2));
        let mut a = QLearner::new(tc.clone(), 5, QConfig::default());
        let mut b = QLearner::new(tc, 5, QConfig::default());
        let seq_a: Vec<usize> = (0..50).map(|_| a.act(&x)).collect();
        let seq_b: Vec<usize> = (0..50).map(|_| b.act(&x)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn bandit_prefers_rewarding_action() {
        let mut b = ContextualBandit::new(N_CONTEXTS, 3, BanditConfig::default());
        let c = context_bucket(&obs(5, 10, 2));
        // Try everything once (optimistic init), then reward action 2.
        for a in 0..3 {
            b.update(c, a, if a == 2 { 1.0 } else { -1.0 });
        }
        assert_eq!(b.greedy(c), 2);
    }

    #[test]
    fn context_bucket_in_range() {
        for (q, f) in [(0u64, 0u32), (5, 20), (100, 60)] {
            let c = context_bucket(&obs(q, f, 0));
            assert!(c < N_CONTEXTS, "{c}");
        }
    }

    #[test]
    fn standard_catalog_excludes_budget_and_emergency() {
        let cat = ActionCatalog::standard();
        assert!(!cat.is_empty());
        for e in &cat.entries {
            for a in &e.actions {
                assert!(
                    !matches!(
                        a,
                        ControlAction::ResizeBudget { .. } | ControlAction::EmergencyShed { .. }
                    ),
                    "{:?} must not be learnable",
                    a
                );
            }
        }
    }
}
