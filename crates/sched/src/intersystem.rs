//! Inter-system power-budget sharing and grid-aware federation.
//!
//! Table I, Tokyo Tech technology development: "Inter-system power
//! capping. TSUBAME2 and TSUBAME3 will need to share the facility power
//! budget." The coordinator owns the facility's IT budget and splits it
//! between systems; each system's engine runs with its share as its
//! `power_budget_watts`. Re-splits happen between simulation episodes
//! (coarse-grained coordination, matching the ~30 min enforcement windows
//! reported in the survey).
//!
//! [`FollowRenewablesPlanner`] extends the same mechanism across the nine
//! surveyed sites: each window it ranks sites by a weighted cost/carbon
//! attractiveness read from their grid traces and water-fills the
//! *deferrable* portion of the federated load into the cheapest/cleanest
//! spare capacity — follow-the-sun meta-scheduling over time zones.

use epa_power::error::PowerError;
use serde::{Deserialize, Serialize};

/// How the shared budget is split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SplitRule {
    /// Fixed fractions per system (must sum to ≤ 1).
    Fixed,
    /// Proportional to each system's reported demand.
    DemandProportional,
}

/// Coordinates one facility budget across multiple systems.
#[derive(Debug, Clone)]
pub struct InterSystemCoordinator {
    total_watts: f64,
    fixed_fractions: Vec<f64>,
    rule: SplitRule,
}

impl InterSystemCoordinator {
    /// Creates a coordinator with fixed fractions (used by
    /// [`SplitRule::Fixed`]; also the fallback when demand is zero).
    pub fn new(
        total_watts: f64,
        fixed_fractions: Vec<f64>,
        rule: SplitRule,
    ) -> Result<Self, PowerError> {
        if total_watts <= 0.0 {
            return Err(PowerError::InvalidConfig(
                "total budget must be positive".into(),
            ));
        }
        if fixed_fractions.is_empty() {
            return Err(PowerError::InvalidConfig("need at least one system".into()));
        }
        let sum: f64 = fixed_fractions.iter().sum();
        if fixed_fractions.iter().any(|&f| f < 0.0) || sum > 1.0 + 1e-9 {
            return Err(PowerError::InvalidConfig(format!(
                "fractions must be non-negative and sum to <= 1, sum = {sum}"
            )));
        }
        Ok(InterSystemCoordinator {
            total_watts,
            fixed_fractions,
            rule,
        })
    }

    /// Number of coordinated systems.
    #[must_use]
    pub fn systems(&self) -> usize {
        self.fixed_fractions.len()
    }

    /// The facility IT budget.
    #[must_use]
    pub fn total_watts(&self) -> f64 {
        self.total_watts
    }

    /// Computes each system's share for the next enforcement window.
    /// `demands` are each system's reported wants in watts (same length
    /// as the system count).
    ///
    /// # Panics
    /// Panics if `demands.len()` differs from the system count.
    #[must_use]
    pub fn split(&self, demands: &[f64]) -> Vec<f64> {
        assert_eq!(demands.len(), self.systems(), "demand vector length");
        match self.rule {
            SplitRule::Fixed => self
                .fixed_fractions
                .iter()
                .map(|f| f * self.total_watts)
                .collect(),
            SplitRule::DemandProportional => {
                let total_demand: f64 = demands.iter().map(|d| d.max(0.0)).sum();
                if total_demand <= 0.0 {
                    return self
                        .fixed_fractions
                        .iter()
                        .map(|f| f * self.total_watts)
                        .collect();
                }
                // Cap each share at its demand; redistribute the surplus to
                // still-hungry systems proportionally (single water-fill pass
                // repeated to fixpoint).
                let mut share: Vec<f64> = demands
                    .iter()
                    .map(|d| self.total_watts * d.max(0.0) / total_demand)
                    .collect();
                for _ in 0..demands.len() {
                    let mut surplus = 0.0;
                    let mut hungry_demand = 0.0;
                    for (s, d) in share.iter_mut().zip(demands) {
                        if *s > *d {
                            surplus += *s - *d;
                            *s = *d;
                        } else if *s < *d {
                            hungry_demand += d - *s;
                        }
                    }
                    if surplus <= 1e-9 || hungry_demand <= 1e-9 {
                        break;
                    }
                    for (s, d) in share.iter_mut().zip(demands) {
                        if *s < *d {
                            *s += surplus * (*d - *s) / hungry_demand;
                        }
                    }
                }
                share
            }
        }
    }
}

/// What the federation optimizes when placing deferrable load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridObjective {
    /// Weight on (normalized) electricity price.
    pub cost_weight: f64,
    /// Weight on (normalized) carbon intensity.
    pub carbon_weight: f64,
}

impl GridObjective {
    /// Pure cost minimization.
    #[cfg(test)]
    fn cheapest() -> Self {
        GridObjective {
            cost_weight: 1.0,
            carbon_weight: 0.0,
        }
    }

    /// Pure carbon minimization.
    #[cfg(test)]
    fn greenest() -> Self {
        GridObjective {
            cost_weight: 0.0,
            carbon_weight: 1.0,
        }
    }
}

/// One site's state for a planning window, as read from its grid traces
/// and engine at the window barrier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SiteWindowState {
    /// Electricity price this window, currency per MWh.
    pub price_per_mwh: f64,
    /// Carbon intensity this window, gCO₂ per kWh.
    pub carbon_g_per_kwh: f64,
    /// IT capacity the site can take this window, watts (its current
    /// grid-derated budget).
    pub capacity_watts: f64,
    /// Non-deferrable local load already placed at the site, watts.
    pub local_demand_watts: f64,
}

impl SiteWindowState {
    /// Spare capacity available for migrated load, watts.
    #[must_use]
    pub fn spare_watts(&self) -> f64 {
        (self.capacity_watts - self.local_demand_watts).max(0.0)
    }
}

/// Plans where the federation's deferrable load runs each window.
#[derive(Debug, Clone)]
pub struct FollowRenewablesPlanner {
    objective: GridObjective,
}

impl FollowRenewablesPlanner {
    /// Creates a planner. Weights must be non-negative and not both zero.
    pub fn new(objective: GridObjective) -> Result<Self, PowerError> {
        if objective.cost_weight < 0.0
            || objective.carbon_weight < 0.0
            || objective.cost_weight + objective.carbon_weight <= 0.0
        {
            return Err(PowerError::InvalidConfig(
                "objective weights must be non-negative and not both zero".into(),
            ));
        }
        Ok(FollowRenewablesPlanner { objective })
    }

    /// Each site's attractiveness score this window — *lower is better*.
    /// Price and carbon are normalized across the federation (so a
    /// cheap-but-dirty site and a clean-but-expensive site trade off on
    /// the weights alone, not on units).
    #[must_use]
    pub fn scores(&self, sites: &[SiteWindowState]) -> Vec<f64> {
        let norm = |get: fn(&SiteWindowState) -> f64| -> Vec<f64> {
            let lo = sites.iter().map(get).fold(f64::INFINITY, f64::min);
            let hi = sites.iter().map(get).fold(f64::NEG_INFINITY, f64::max);
            sites
                .iter()
                .map(|s| {
                    if hi - lo <= 1e-12 {
                        0.5
                    } else {
                        (get(s) - lo) / (hi - lo)
                    }
                })
                .collect()
        };
        let price = norm(|s| s.price_per_mwh);
        let carbon = norm(|s| s.carbon_g_per_kwh);
        price
            .iter()
            .zip(&carbon)
            .map(|(p, c)| self.objective.cost_weight * p + self.objective.carbon_weight * c)
            .collect()
    }

    /// Places `deferrable_watts` of migratable load into the sites'
    /// spare capacity, cheapest/cleanest first (greedy fill in score
    /// order, ties broken by site index for determinism). Returns the
    /// per-site placement; its sum is `min(deferrable, total spare)` —
    /// unplaceable load stays in the federated backlog for the next
    /// window.
    ///
    /// # Panics
    /// Panics if `sites` is empty.
    #[must_use]
    pub fn place(&self, sites: &[SiteWindowState], deferrable_watts: f64) -> Vec<f64> {
        assert!(!sites.is_empty(), "cannot place load on zero sites");
        let scores = self.scores(sites);
        let mut order: Vec<usize> = (0..sites.len()).collect();
        order.sort_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .expect("finite scores")
                .then(a.cmp(&b))
        });
        let mut placed = vec![0.0; sites.len()];
        let mut remaining = deferrable_watts.max(0.0);
        for i in order {
            if remaining <= 0.0 {
                break;
            }
            let take = sites[i].spare_watts().min(remaining);
            placed[i] = take;
            remaining -= take;
        }
        placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_split() {
        let c = InterSystemCoordinator::new(1000.0, vec![0.6, 0.4], SplitRule::Fixed).unwrap();
        assert_eq!(c.split(&[9999.0, 1.0]), vec![600.0, 400.0]);
    }

    #[test]
    fn proportional_split_follows_demand() {
        let c = InterSystemCoordinator::new(1000.0, vec![0.5, 0.5], SplitRule::DemandProportional)
            .unwrap();
        let s = c.split(&[300.0, 900.0]);
        assert!((s[0] - 250.0).abs() < 1e-9);
        assert!((s[1] - 750.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_caps_at_demand_when_budget_exceeds_demand() {
        let c = InterSystemCoordinator::new(1000.0, vec![0.5, 0.5], SplitRule::DemandProportional)
            .unwrap();
        // Total demand (400) below budget: everyone gets exactly their
        // demand, the surplus stays unallocated.
        let s = c.split(&[100.0, 300.0]);
        assert!((s[0] - 100.0).abs() < 1e-6);
        assert!((s[1] - 300.0).abs() < 1e-6);
    }

    #[test]
    fn proportional_rations_scarce_budget() {
        let c = InterSystemCoordinator::new(1000.0, vec![0.5, 0.5], SplitRule::DemandProportional)
            .unwrap();
        // Total demand 2100 > budget: pure proportional rationing.
        let s = c.split(&[100.0, 2000.0]);
        assert!((s[0] - 1000.0 * 100.0 / 2100.0).abs() < 1e-6);
        assert!((s[1] - 1000.0 * 2000.0 / 2100.0).abs() < 1e-6);
    }

    #[test]
    fn zero_demand_falls_back_to_fixed() {
        let c = InterSystemCoordinator::new(1000.0, vec![0.7, 0.3], SplitRule::DemandProportional)
            .unwrap();
        assert_eq!(c.split(&[0.0, 0.0]), vec![700.0, 300.0]);
    }

    #[test]
    fn split_never_exceeds_total() {
        let c = InterSystemCoordinator::new(1000.0, vec![0.5, 0.5], SplitRule::DemandProportional)
            .unwrap();
        for demands in [[100.0, 100.0], [800.0, 900.0], [1500.0, 0.0]] {
            let s = c.split(&demands);
            assert!(s.iter().sum::<f64>() <= 1000.0 + 1e-6);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(InterSystemCoordinator::new(0.0, vec![1.0], SplitRule::Fixed).is_err());
        assert!(InterSystemCoordinator::new(100.0, vec![], SplitRule::Fixed).is_err());
        assert!(InterSystemCoordinator::new(100.0, vec![0.8, 0.4], SplitRule::Fixed).is_err());
        assert!(InterSystemCoordinator::new(100.0, vec![-0.1, 0.5], SplitRule::Fixed).is_err());
    }

    fn site(price: f64, carbon: f64, cap: f64, local: f64) -> SiteWindowState {
        SiteWindowState {
            price_per_mwh: price,
            carbon_g_per_kwh: carbon,
            capacity_watts: cap,
            local_demand_watts: local,
        }
    }

    #[test]
    fn planner_rejects_bad_objectives() {
        assert!(FollowRenewablesPlanner::new(GridObjective {
            cost_weight: 0.0,
            carbon_weight: 0.0
        })
        .is_err());
        assert!(FollowRenewablesPlanner::new(GridObjective {
            cost_weight: -1.0,
            carbon_weight: 2.0
        })
        .is_err());
        FollowRenewablesPlanner::new(GridObjective::cheapest()).unwrap();
    }

    #[test]
    fn cheapest_site_fills_first() {
        let p = FollowRenewablesPlanner::new(GridObjective::cheapest()).unwrap();
        let sites = [
            site(200.0, 100.0, 1000.0, 400.0), // expensive, clean
            site(80.0, 600.0, 1000.0, 400.0),  // cheap, dirty
        ];
        let placed = p.place(&sites, 500.0);
        assert_eq!(placed, vec![0.0, 500.0]);
        // The greenest objective flips the preference.
        let g = FollowRenewablesPlanner::new(GridObjective::greenest()).unwrap();
        assert_eq!(g.place(&sites, 500.0), vec![500.0, 0.0]);
    }

    #[test]
    fn overflow_spills_to_next_best_site() {
        let p = FollowRenewablesPlanner::new(GridObjective::cheapest()).unwrap();
        let sites = [
            site(80.0, 300.0, 1000.0, 800.0),  // cheap but nearly full
            site(120.0, 300.0, 1000.0, 100.0), // mid
            site(300.0, 300.0, 1000.0, 0.0),   // expensive
        ];
        let placed = p.place(&sites, 600.0);
        assert!((placed[0] - 200.0).abs() < 1e-9);
        assert!((placed[1] - 400.0).abs() < 1e-9);
        assert_eq!(placed[2], 0.0);
    }

    #[test]
    fn unplaceable_load_stays_in_backlog() {
        let p = FollowRenewablesPlanner::new(GridObjective::cheapest()).unwrap();
        let sites = [
            site(80.0, 300.0, 100.0, 50.0),
            site(90.0, 300.0, 100.0, 80.0),
        ];
        let placed = p.place(&sites, 500.0);
        let total: f64 = placed.iter().sum();
        assert!((total - 70.0).abs() < 1e-9, "only spare capacity fills");
    }

    #[test]
    fn equal_traces_tie_break_deterministically() {
        let p = FollowRenewablesPlanner::new(GridObjective::cheapest()).unwrap();
        let sites = [
            site(100.0, 300.0, 500.0, 0.0),
            site(100.0, 300.0, 500.0, 0.0),
        ];
        // Same score: lower index fills first.
        assert_eq!(p.place(&sites, 600.0), vec![500.0, 100.0]);
    }
}
