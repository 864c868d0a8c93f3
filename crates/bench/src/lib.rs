//! # epa-bench — the experiment harness
//!
//! One binary per paper exhibit and per quantitative ablation (see
//! DESIGN.md's per-experiment index):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1`, `table2` | Tables I and II |
//! | `figure1` | Figure 1 (component-interaction matrix) |
//! | `figure2` | Figure 2 (geographic map) |
//! | `e1_overprovisioning` … `e10_layout_aware` | ablations E1–E10 |
//!
//! The library half holds the shared experiment plumbing: a small
//! experiment-table formatter, multi-seed replication (parallelized with
//! rayon), and the reduced-scale system builders every experiment uses.

use epa_cluster::node::NodeSpec;
use epa_cluster::system::{System, SystemSpec};
use epa_cluster::topology::Topology;
use epa_sched::engine::SimOutcome;
use serde::Serialize;

/// Schema version stamped into every `BENCH_*.json` document. Bump when
/// a bench output's key set or semantics change, so downstream tooling
/// that diffs committed bench files can detect format drift.
///
/// v4: `bench_baseline` size rows renamed `completed_jobs` to
/// `jobs_completed` and gained `peak_rss_bytes`; added the `streaming`
/// section (materialized vs lazy-source runs at 10k/100k/1M jobs with
/// per-process peak-RSS probes).
///
/// v5: added `BENCH_policy_env.json` (the `policy-env` bench): learner
/// hyperparameters (`q_config`, `bandit_config`), the reward blend
/// (`reward_config`), the macro-action catalog, and per-site learned vs
/// engineered blended rewards.
///
/// v6: added `BENCH_grid_cosim.json` (the `grid-cosim` bench): per-site
/// follow-the-renewables Pareto fronts (cost / carbon / bounded
/// slowdown with `pareto_optimal` flags) and the nine-site federation
/// objective sweep (cost / carbon / mean deferral).
///
/// v7: `bench_baseline` dropped its `shards` section (the partitioned
/// engine is gone; every run uses one event queue).
pub const BENCH_SCHEMA_VERSION: u32 = 7;

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where that interface is unavailable. The
/// high-water mark is monotone over the process lifetime, so
/// attributing a peak to one run requires a fresh process (the
/// `bench_baseline` streaming section spawns itself as a probe per
/// cell for exactly this reason).
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// The million-job streaming workload: small short jobs at a high
/// Poisson rate, sized so the standard 256-node experiment machine
/// keeps up with arrivals (the queue — and therefore engine memory —
/// stays bounded at any job count). At `rate_per_hour` jobs per hour,
/// a horizon of `n / rate_per_hour` hours yields about `n` jobs; the
/// exact count is whatever the thinning process draws, which is why
/// streaming rows record the emitted count rather than the target.
#[must_use]
pub fn streaming_workload_params(
    rate_per_hour: f64,
    seed: u64,
) -> epa_workload::generator::WorkloadParams {
    use epa_simcore::time::SimDuration;
    use epa_workload::arrival::ArrivalProcess;
    use epa_workload::distributions::{RuntimeDistribution, SizeDistribution};
    use epa_workload::job::AppProfile;
    epa_workload::generator::WorkloadParams {
        arrivals: ArrivalProcess::Poisson { rate_per_hour },
        sizes: SizeDistribution {
            min_nodes: 1,
            max_nodes: 4,
            pow2_bias: 0.5,
            capability_fraction: 0.0,
        },
        runtimes: RuntimeDistribution {
            median: SimDuration::from_mins(4.0),
            sigma: 0.6,
            min: SimDuration::from_mins(1.0),
            max: SimDuration::from_mins(30.0),
        },
        users: 32,
        accurate_estimate_fraction: 0.5,
        overestimate_mean: 1.2,
        app_mix: vec![(AppProfile::balanced("stream"), 1.0)],
        moldable_fraction: 0.0,
        campaign_probability: 0.02,
        campaign_size: (2, 4),
        seed,
    }
}

/// Builds the standard experiment machine: `nodes` Xeon nodes, fat-tree.
#[must_use]
pub fn experiment_system(nodes: u32) -> System {
    SystemSpec {
        name: format!("exp-{nodes}"),
        cabinets: nodes.div_ceil(16),
        nodes_per_cabinet: 16.min(nodes),
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity: 16 },
        peak_tflops: f64::from(nodes),
    }
    .build()
}

/// A labeled results table printed by experiment binaries.
#[derive(Debug, Default, Serialize)]
pub struct ResultsTable {
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl ResultsTable {
    /// Creates a table with the given columns.
    #[must_use]
    pub fn new(columns: &[&str]) -> Self {
        ResultsTable {
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:>w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Parallel campaign execution: fan (sweep-point × seed) cells across the
/// thread pool, merging results in deterministic cell order.
pub mod campaign {
    use rayon::prelude::*;

    /// One executed campaign cell.
    #[derive(Debug, Clone)]
    pub struct CellResult<R> {
        /// Index of the sweep point in the campaign's `points` slice.
        pub point_idx: usize,
        /// The replication seed the cell ran with.
        pub seed: u64,
        /// Whatever the cell's run function produced.
        pub result: R,
    }

    /// Runs every (point, seed) cell of a campaign across the thread pool
    /// and returns results in row-major cell order (point-major,
    /// seed-minor) — the exact order a serial double loop would produce.
    ///
    /// Each cell owns an independent RNG substream (the seed), so cells
    /// are embarrassingly parallel; because results are merged by cell
    /// index and any downstream reduction runs over that ordered list,
    /// aggregate outputs are byte-identical to a serial run at any thread
    /// count (enforced by proptest below and the golden thread-invariance
    /// test).
    pub fn run_campaign<P, R, F>(points: &[P], seeds: &[u64], run: F) -> Vec<CellResult<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, u64) -> R + Sync,
    {
        let cells: Vec<(usize, u64)> = points
            .iter()
            .enumerate()
            .flat_map(|(pi, _)| seeds.iter().map(move |&s| (pi, s)))
            .collect();
        cells
            .par_iter()
            .map(|&(pi, seed)| CellResult {
                point_idx: pi,
                seed,
                result: run(&points[pi], seed),
            })
            .collect()
    }
}

/// Mean over replicated runs: executes `run(seed)` for `seeds` in
/// parallel and averages the extracted metric. A one-point campaign —
/// the reduction order is seed order, so the mean is bit-identical to a
/// serial loop regardless of thread count.
pub fn replicate_mean<F>(seeds: &[u64], run: F) -> f64
where
    F: Fn(u64) -> f64 + Sync,
{
    if seeds.is_empty() {
        return 0.0;
    }
    let cells = campaign::run_campaign(&[()], seeds, |(), s| run(s));
    let total: f64 = cells.iter().map(|c| c.result).sum();
    total / seeds.len() as f64
}

/// Summary metrics extracted from a [`SimOutcome`] for experiment tables.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OutcomeRow {
    /// Completed jobs.
    pub completed: u64,
    /// Utilization in percent.
    pub utilization_pct: f64,
    /// Mean wait, hours.
    pub mean_wait_h: f64,
    /// Mean bounded slowdown.
    pub slowdown: f64,
    /// Energy, MWh.
    pub energy_mwh: f64,
    /// Peak power, kW.
    pub peak_kw: f64,
}

impl From<&SimOutcome> for OutcomeRow {
    fn from(o: &SimOutcome) -> Self {
        OutcomeRow {
            completed: o.completed,
            utilization_pct: 100.0 * o.utilization,
            mean_wait_h: o.mean_wait_secs / 3600.0,
            slowdown: o.mean_bounded_slowdown,
            energy_mwh: o.energy_joules / 3.6e9,
            peak_kw: o.peak_watts / 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_system_sizes() {
        let s = experiment_system(64);
        assert_eq!(s.spec().total_nodes(), 64);
        let s2 = experiment_system(100);
        assert!(s2.spec().total_nodes() >= 100);
    }

    #[test]
    fn results_table_renders_aligned() {
        let mut t = ResultsTable::new(&["a", "budget"]);
        t.row(vec!["1".into(), "50%".into()]);
        t.row(vec!["200".into(), "100%".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("budget"));
        assert!(lines[3].contains("200"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_rejected() {
        let mut t = ResultsTable::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        } else {
            assert_eq!(peak_rss_bytes(), 0);
        }
    }

    #[test]
    fn streaming_workload_keeps_the_machine_ahead_of_arrivals() {
        // Mean demand in node-hours per hour must sit under the
        // 256-node supply, or the queue (and engine memory) grows
        // without bound and the streaming-RSS claim is void.
        let p = streaming_workload_params(1000.0, 7);
        let mut rng = epa_simcore::rng::SimRng::new(3);
        let n = 20_000;
        let mut node_hours = 0.0;
        for _ in 0..n {
            let nodes = f64::from(p.sizes.sample(&mut rng));
            let rt = p.runtimes.sample(&mut rng).as_secs() / 3600.0;
            node_hours += nodes * rt;
        }
        let demand_per_hour = 1000.0 * 1.04 * (node_hours / f64::from(n));
        assert!(
            demand_per_hour < 0.9 * 256.0,
            "streaming workload oversubscribes the machine: \
             {demand_per_hour:.0} node-hours/hour of demand vs 256 supply"
        );
    }

    #[test]
    fn replicate_mean_averages() {
        let seeds = [1u64, 2, 3, 4];
        let m = replicate_mean(&seeds, |s| s as f64);
        assert!((m - 2.5).abs() < 1e-12);
        assert_eq!(replicate_mean(&[], |_| 1.0), 0.0);
    }

    #[test]
    fn campaign_cells_are_row_major() {
        let points = ["a", "b"];
        let seeds = [10u64, 20, 30];
        let cells = campaign::run_campaign(&points, &seeds, |p, s| format!("{p}{s}"));
        let order: Vec<(usize, u64)> = cells.iter().map(|c| (c.point_idx, c.seed)).collect();
        assert_eq!(
            order,
            vec![(0, 10), (0, 20), (0, 30), (1, 10), (1, 20), (1, 30)]
        );
        assert_eq!(cells[4].result, "b20");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A deliberately reassociation-sensitive per-cell metric: naive f64
    /// averaging over a seeded pseudo-random stream. If parallel merge
    /// order ever differed from serial, sums over these values would
    /// drift in the last bits.
    fn cell_metric(point: u64, seed: u64) -> f64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ point;
        let mut acc = 0.0f64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += (x as f64 / u64::MAX as f64) * 1e6 - 0.5e6;
        }
        acc
    }

    proptest! {
        /// Satellite requirement: campaign results at any thread count
        /// 1–8 are bit-identical to serial execution for the same seed
        /// set — cell order, per-cell values, and the replicate mean.
        #[test]
        fn parallel_campaign_identical_to_serial(
            points in proptest::collection::vec(0u64..1000, 1..5),
            seeds in proptest::collection::vec(0u64..10_000, 1..9),
            threads in 1usize..9,
        ) {
            let serial = rayon::with_num_threads(1, || {
                campaign::run_campaign(&points, &seeds, |&p, s| cell_metric(p, s))
            });
            let par = rayon::with_num_threads(threads, || {
                campaign::run_campaign(&points, &seeds, |&p, s| cell_metric(p, s))
            });
            prop_assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                prop_assert_eq!(a.point_idx, b.point_idx);
                prop_assert_eq!(a.seed, b.seed);
                prop_assert_eq!(a.result.to_bits(), b.result.to_bits(),
                    "cell ({}, {}) drifted at {} threads", a.point_idx, a.seed, threads);
            }
            // And the one-point wrapper.
            let rs = rayon::with_num_threads(1,
                || replicate_mean(&seeds, |s| cell_metric(7, s)));
            let rp = rayon::with_num_threads(threads,
                || replicate_mean(&seeds, |s| cell_metric(7, s)));
            prop_assert_eq!(rs.to_bits(), rp.to_bits());
        }
    }
}
