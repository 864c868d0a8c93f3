//! E15: facility digital twin — grid/cooling/carbon co-simulation and
//! follow-the-renewables federation.
//!
//! Two exhibits in one bin:
//!
//! 1. **Per-site Pareto fronts.** Each of the nine surveyed centers runs
//!    its production workload under an `epa-grid` twin (diurnal price and
//!    carbon traces in the site's local time, cooling feedback) while the
//!    follow-the-renewables weights `(price_follow, carbon_follow)` sweep
//!    a small grid. Every sweep point settles into (electricity cost,
//!    carbon, mean bounded slowdown); points are flagged Pareto-optimal
//!    under 3-way dominance. The shape to expect: following the price
//!    trades slowdown for cost, following the carbon trades slowdown for
//!    emissions, and a handful of mixed points sit on the front.
//!
//! 2. **Nine-site federation.** The same sites' traces feed the
//!    [`FollowRenewablesPlanner`]: each hour the federation places a
//!    deferrable-load pool into spare site capacity, cheapest/cleanest
//!    first, with unplaced load carried as backlog (the SLA metric is its
//!    mean deferral). The objective sweeps from pure-cost to pure-carbon;
//!    the resulting (cost, carbon, deferral) triples form the federation
//!    front.
//!
//! Determinism: everything is a pure function of the seeds; CI
//! regenerates the committed `BENCH_grid_cosim.json` and byte-diffs it.
//!
//! Env vars:
//! - `EPA_E15_SITES` — comma-separated site keys (default: all nine).
//! - `EPA_E15_SMOKE` — any value: 1-day episodes and a reduced sweep,
//!   for quick runs.
//!
//! Usage: `e15_grid_cosim [out.json]` (default `BENCH_grid_cosim.json`).

use epa_bench::ResultsTable;
use epa_grid::GridConfig;
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::intersystem::{FollowRenewablesPlanner, GridObjective, SiteWindowState};
use epa_sched::policies::EasyBackfill;
use epa_simcore::time::SimTime;
use epa_sites::config::SiteConfig;
use epa_workload::generator::WorkloadGenerator;
use serde_json::json;

/// Two simulated days per sweep point (one for smoke runs).
const EPISODE_DAYS: f64 = 2.0;
/// Engine seed shared by every run.
const ENGINE_SEED: u64 = 0xE15;
/// Site-config seed (workload + weather substreams derive from it).
const SITE_SEED: u64 = 11;
/// Grid-trace seed base (per-site traces offset from it).
const GRID_SEED: u64 = 0x9157;

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

/// The follow-the-renewables sweep: (price_follow, carbon_follow).
const FOLLOW_SWEEP: [(f64, f64); 6] = [
    (0.0, 0.0),
    (0.3, 0.0),
    (0.6, 0.0),
    (0.0, 0.3),
    (0.0, 0.6),
    (0.3, 0.3),
];
const FOLLOW_SWEEP_SMOKE: [(f64, f64); 2] = [(0.0, 0.0), (0.3, 0.3)];

/// The federation objective sweep, pure cost → pure carbon.
const OBJECTIVE_SWEEP: [(f64, f64); 5] = [
    (1.0, 0.0),
    (0.75, 0.25),
    (0.5, 0.5),
    (0.25, 0.75),
    (0.0, 1.0),
];

fn site_config(key: &str, days: f64) -> SiteConfig {
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
    site.horizon = SimTime::from_days(days);
    site
}

/// The per-site grid economics: a deterministic spread of base price and
/// carbon intensity across the federation (index into [`SITE_KEYS`]), so
/// the planner has real cost/carbon diversity to arbitrage. Traces run in
/// the site's local solar time (longitude / 15°).
fn grid_economics(site: &SiteConfig, idx: usize) -> (f64, f64, f64) {
    let base_price = 45.0 + 12.0 * ((idx * 4) % 9) as f64;
    let base_carbon = 180.0 + 55.0 * ((idx * 7) % 9) as f64;
    let tz_offset_hours = site.meta.lon / 15.0;
    (base_price, base_carbon, tz_offset_hours)
}

/// The site's grid twin at one follow-the-renewables sweep point.
fn grid_config(site: &SiteConfig, idx: usize, days: u32, follow: (f64, f64)) -> GridConfig {
    let nominal = site.system.clone().build().spec().nominal_watts();
    let it_budget = site.power_budget_watts.unwrap_or(nominal);
    let (base_price, base_carbon, tz) = grid_economics(site, idx);
    let mut cfg = GridConfig::synthetic(
        it_budget,
        it_budget * 1.35, // facility feed: headroom above IT + cooling
        base_price,
        base_carbon,
        days,
        tz,
        GRID_SEED.wrapping_add(idx as u64),
    );
    cfg.price_follow = follow.0;
    cfg.carbon_follow = follow.1;
    cfg.validate().expect("synthetic grid config validates");
    cfg
}

/// The shared engine config: the site's production mechanisms plus the
/// grid twin. Sites without a production budget get their nominal draw as
/// the budget (the grid twin steers through `ResizeBudget`, so a budget
/// mechanism must exist).
fn engine_config(site: &SiteConfig, grid: GridConfig) -> EngineConfig {
    let mut config = EngineConfig::new(site.horizon);
    config.power_budget_watts = Some(site.power_budget_watts.unwrap_or(grid.nominal_it_watts));
    config.shutdown = site.shutdown.clone();
    config.emergency = site.emergency.clone();
    config.limit_gate = site.limit_gate.clone();
    config.seed = ENGINE_SEED;
    config.grid = Some(grid);
    config
}

/// One settled sweep point.
#[derive(Debug, Clone, Copy)]
struct FrontPoint {
    cost: f64,
    carbon_kg: f64,
    slowdown: f64,
}

/// 3-way Pareto flags over (cost, carbon, slowdown) — all minimized.
/// `a` dominates `b` when it is no worse on every axis and strictly
/// better on at least one.
fn pareto_flags(points: &[FrontPoint]) -> Vec<bool> {
    points
        .iter()
        .map(|b| {
            !points.iter().any(|a| {
                a.cost <= b.cost
                    && a.carbon_kg <= b.carbon_kg
                    && a.slowdown <= b.slowdown
                    && (a.cost < b.cost || a.carbon_kg < b.carbon_kg || a.slowdown < b.slowdown)
            })
        })
        .collect()
}

/// Hourly diurnal local demand at a site: a deterministic day/night swing
/// around 55% of capacity (20% overnight, 90% mid-afternoon local
/// time), so federation spare capacity breathes with the sun.
fn local_demand_watts(capacity: f64, hour: f64, tz_offset_hours: f64) -> f64 {
    let local = (hour + tz_offset_hours).rem_euclid(24.0);
    let swing = (std::f64::consts::TAU * (local - 15.0) / 24.0).cos();
    capacity * (0.55 + 0.35 * swing)
}

/// The federation exhibit: place a deferrable pool into nine sites' spare
/// capacity each hour under one objective; returns settled
/// (cost, carbon, mean deferral hours, placed fraction).
fn run_federation(
    sites: &[(GridConfig, f64)], // (twin, tz offset)
    objective: GridObjective,
    hours: u32,
    deferrable_watts: f64,
) -> (f64, f64, f64, f64) {
    let planner = FollowRenewablesPlanner::new(objective).expect("valid objective");
    let mut backlog = 0.0f64;
    let (mut cost, mut carbon_kg) = (0.0, 0.0);
    let (mut offered_wh, mut placed_wh, mut deferred_wh) = (0.0, 0.0, 0.0);
    for h in 0..hours {
        let t = SimTime::from_hours(f64::from(h));
        let window: Vec<SiteWindowState> = sites
            .iter()
            .map(|(g, tz)| {
                let capacity = g.nominal_it_watts;
                SiteWindowState {
                    price_per_mwh: g.price.value_at(t),
                    carbon_g_per_kwh: g.carbon.value_at(t),
                    capacity_watts: capacity,
                    local_demand_watts: local_demand_watts(capacity, f64::from(h), *tz),
                }
            })
            .collect();
        offered_wh += deferrable_watts;
        let pool = backlog + deferrable_watts;
        let placed = planner.place(&window, pool);
        for (i, &w) in placed.iter().enumerate() {
            // One hour of facility draw at the site's current PUE.
            let pue = sites[i]
                .0
                .cooling
                .as_ref()
                .map_or(1.0, |c| c.pue(18.0, w, window[i].capacity_watts));
            let kwh = w * pue / 1000.0;
            cost += kwh / 1000.0 * window[i].price_per_mwh;
            carbon_kg += kwh * window[i].carbon_g_per_kwh / 1000.0;
            placed_wh += w;
        }
        backlog = (pool - placed.iter().sum::<f64>()).max(0.0);
        deferred_wh += backlog; // every backlogged watt waits one hour
    }
    let mean_deferral_h = if offered_wh > 0.0 {
        deferred_wh / offered_wh
    } else {
        0.0
    };
    (cost, carbon_kg, mean_deferral_h, placed_wh / offered_wh)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_grid_cosim.json".to_owned());
    let smoke = std::env::var("EPA_E15_SMOKE").is_ok();
    let days = if smoke { 1.0 } else { EPISODE_DAYS };
    let sweep: &[(f64, f64)] = if smoke {
        &FOLLOW_SWEEP_SMOKE
    } else {
        &FOLLOW_SWEEP
    };
    let site_filter: Option<Vec<String>> = std::env::var("EPA_E15_SITES")
        .ok()
        .map(|s| s.split(',').map(|k| k.trim().to_owned()).collect());
    let keys: Vec<(usize, &str)> = SITE_KEYS
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, k)| {
            site_filter
                .as_ref()
                .is_none_or(|f| f.iter().any(|s| s == k))
        })
        .collect();
    assert!(!keys.is_empty(), "EPA_E15_SITES matched no known site");

    println!(
        "E15: grid co-simulation, {} sites × {} follow sweep points, {days} days\n",
        keys.len(),
        sweep.len()
    );
    let mut table = ResultsTable::new(&[
        "site",
        "follow (p,c)",
        "cost",
        "carbon kg",
        "slowdown",
        "mean PUE",
        "pareto",
    ]);

    let mut site_rows = Vec::new();
    for &(idx, key) in &keys {
        let site = site_config(key, days);
        let system = site.system.clone().build();
        let jobs = WorkloadGenerator::new(site.workload.clone()).generate(site.horizon, 0);
        let mut points = Vec::new();
        let mut summaries = Vec::new();
        for &follow in sweep {
            let grid = grid_config(&site, idx, days.ceil() as u32, follow);
            let mut policy = EasyBackfill;
            let (out, summary) = ClusterSim::new(
                system.clone(),
                jobs.clone(),
                &mut policy,
                engine_config(&site, grid),
            )
            .run_with_grid();
            let summary = summary.expect("grid twin was configured");
            points.push(FrontPoint {
                cost: summary.cost_with_penalty,
                carbon_kg: summary.carbon_kg,
                slowdown: out.mean_bounded_slowdown,
            });
            summaries.push((follow, summary, out));
        }
        let flags = pareto_flags(&points);
        for ((follow, summary, out), (&point, &on_front)) in
            summaries.iter().zip(points.iter().zip(&flags))
        {
            table.row(vec![
                key.to_owned(),
                format!("({:.1},{:.1})", follow.0, follow.1),
                format!("{:.0}", point.cost),
                format!("{:.0}", point.carbon_kg),
                format!("{:.2}", point.slowdown),
                format!("{:.3}", summary.mean_pue),
                if on_front { "*" } else { "" }.to_owned(),
            ]);
            let _ = out;
        }
        site_rows.push(json!({
            "site": key,
            "front": summaries
                .iter()
                .zip(points.iter().zip(&flags))
                .map(|((follow, summary, out), (point, &on_front))| json!({
                    "price_follow": follow.0,
                    "carbon_follow": follow.1,
                    "cost": point.cost,
                    "carbon_kg": point.carbon_kg,
                    "mean_bounded_slowdown": point.slowdown,
                    "completed": out.completed,
                    "energy_it_mwh": summary.energy_it_mwh,
                    "energy_facility_mwh": summary.energy_facility_mwh,
                    "mean_pue": summary.mean_pue,
                    "penalty": summary.penalty,
                    "pareto_optimal": on_front,
                }))
                .collect::<Vec<_>>(),
        }));
    }
    println!("{}", table.render());

    // Federation: the planner arbitrages the same sites' traces hourly.
    let fed_hours = (days * 24.0) as u32;
    let fed_sites: Vec<(GridConfig, f64)> = keys
        .iter()
        .map(|&(idx, key)| {
            let site = site_config(key, days);
            let tz = grid_economics(&site, idx).2;
            (grid_config(&site, idx, days.ceil() as u32, (0.0, 0.0)), tz)
        })
        .collect();
    // 42% of federation nominal capacity arrives as deferrable load each
    // hour — enough that placement choices matter and the occasional
    // peak-demand window backlogs, little enough that the backlog drains.
    let deferrable: f64 = 0.42
        * fed_sites
            .iter()
            .map(|(g, _)| g.nominal_it_watts)
            .sum::<f64>();
    let mut fed_table = ResultsTable::new(&[
        "objective (cost,carbon)",
        "cost",
        "carbon kg",
        "mean deferral h",
        "placed %",
        "pareto",
    ]);
    let mut fed_points = Vec::new();
    let mut fed_rows_raw = Vec::new();
    for &(cw, gw) in &OBJECTIVE_SWEEP {
        let objective = GridObjective {
            cost_weight: cw,
            carbon_weight: gw,
        };
        let (cost, carbon_kg, deferral_h, placed_frac) =
            run_federation(&fed_sites, objective, fed_hours, deferrable);
        fed_points.push(FrontPoint {
            cost,
            carbon_kg,
            slowdown: deferral_h,
        });
        fed_rows_raw.push((objective, cost, carbon_kg, deferral_h, placed_frac));
    }
    let fed_flags = pareto_flags(&fed_points);
    let mut fed_rows = Vec::new();
    for ((objective, cost, carbon_kg, deferral_h, placed_frac), &on_front) in
        fed_rows_raw.iter().zip(&fed_flags)
    {
        fed_table.row(vec![
            format!(
                "({:.2},{:.2})",
                objective.cost_weight, objective.carbon_weight
            ),
            format!("{:.0}", cost),
            format!("{:.0}", carbon_kg),
            format!("{:.2}", deferral_h),
            format!("{:.1}", placed_frac * 100.0),
            if on_front { "*" } else { "" }.to_owned(),
        ]);
        fed_rows.push(json!({
            "cost_weight": objective.cost_weight,
            "carbon_weight": objective.carbon_weight,
            "cost": cost,
            "carbon_kg": carbon_kg,
            "mean_deferral_hours": deferral_h,
            "placed_fraction": placed_frac,
            "pareto_optimal": on_front,
        }));
    }
    println!(
        "Federation: {} sites, {fed_hours} hourly windows, {:.1} MW deferrable pool",
        fed_sites.len(),
        deferrable / 1e6
    );
    println!("{}", fed_table.render());
    println!("Expected shape: stronger following cuts cost/carbon at a slowdown price (per-site),");
    println!("and the federation's cost→carbon objective sweep traces the same trade-off.");

    let federation = json!({
        "hours": fed_hours,
        "deferrable_watts": deferrable,
        "results": fed_rows,
    });
    let doc = json!({
        "schema_version": epa_bench::BENCH_SCHEMA_VERSION,
        "bench": "grid-cosim",
        "episode_days": days,
        "smoke": smoke,
        "engine_seed": ENGINE_SEED,
        "site_seed": SITE_SEED,
        "grid_seed": GRID_SEED,
        "follow_sweep": sweep,
        "objective_sweep": OBJECTIVE_SWEEP,
        "sites": site_rows,
        "federation": federation,
    });
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&doc).expect("serializable") + "\n",
    )
    .expect("write bench output");
    eprintln!("wrote {out_path}");
}
