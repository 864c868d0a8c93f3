//! The three benchmark workloads, as lists of engine runs ("cells").
//!
//! Every input comes from the `--seed` argument; the engine receives
//! only generated jobs, systems, and configs. See README.md for why
//! each workload was chosen and which layers it loads.

use epa_bench::streaming_workload_params;
use epa_cluster::system::{System, SystemSpec};
use epa_grid::GridConfig;
use epa_obs::{CategoryMask, TraceConfig};
use epa_power::facility::Facility;
use epa_sched::control::{ControlAction, Observation};
use epa_sched::engine::EngineConfig;
use epa_simcore::time::SimTime;
use epa_sites::config::SiteConfig;
use epa_workload::generator::WorkloadParams;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// About a million small jobs streamed through a 256-node machine.
    Stream1m,
    /// Few, wide jobs on a 65,536-node machine.
    Wide65k,
    /// The nine surveyed sites with every production mechanism, a grid
    /// twin, tracing, and checkpoints.
    SitesTwin,
}

/// Every workload, in the order the README lists them.
pub const ALL_WORKLOADS: [Workload; 3] =
    [Workload::Stream1m, Workload::Wide65k, Workload::SitesTwin];

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream1m => "stream_1m",
            Workload::Wide65k => "wide_65k",
            Workload::SitesTwin => "sites_twin",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's own configuration records every trace
    /// category (the others record none).
    #[must_use]
    pub fn traces_all(self) -> bool {
        self == Workload::SitesTwin
    }

    /// The engine runs that make up one repetition of the workload.
    #[must_use]
    pub fn cells(self, seed: u64) -> Vec<CellSpec> {
        match self {
            Workload::Stream1m => vec![stream_1m(seed)],
            Workload::Wide65k => vec![wide_65k(seed)],
            Workload::SitesTwin => SITE_KEYS
                .iter()
                .enumerate()
                .map(|(idx, key)| site_cell(key, idx, seed))
                .collect(),
        }
    }
}

/// How a cell's machine is built.
#[derive(Debug, Clone)]
pub enum SystemSource {
    /// `epa_bench::experiment_system(nodes)`.
    Experiment(u32),
    /// A site's declared machine.
    Spec(SystemSpec),
}

impl SystemSource {
    /// Builds the machine.
    #[must_use]
    pub fn build(&self) -> System {
        match self {
            SystemSource::Experiment(nodes) => epa_bench::experiment_system(*nodes),
            SystemSource::Spec(spec) => spec.clone().build(),
        }
    }
}

/// How a cell's jobs reach the engine.
#[derive(Debug, Clone)]
pub enum JobsSource {
    /// A `LazyGeneratorSource`: jobs are generated as the engine pulls.
    Lazy(WorkloadParams),
    /// Generated up front and handed over as a `MaterializedSource`.
    Materialized(WorkloadParams),
}

/// One engine run: machine, jobs, policy, configuration, and the
/// harness duties around it.
#[derive(Clone)]
pub struct CellSpec {
    /// Cell name (the site key on `sites_twin`).
    pub label: String,
    /// The machine.
    pub system: SystemSource,
    /// The arrivals.
    pub jobs: JobsSource,
    /// Registry name of the scheduling policy.
    pub policy: &'static str,
    /// Engine configuration (horizon, mechanisms, tracing).
    pub config: EngineConfig,
    /// Use RIKEN's temperature-scaled power predictor.
    pub riken_predictor: bool,
    /// Take a checkpoint snapshot every this many hours.
    pub checkpoint_every_h: Option<u32>,
    /// Horizon in whole hours; the harness steps one hour at a time.
    pub horizon_h: u32,
}

impl CellSpec {
    /// The cell's horizon as simulated time.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        SimTime::from_hours(f64::from(self.horizon_h))
    }
}

const STREAM_NODES: u32 = 256;
const STREAM_RATE_PER_HOUR: f64 = 1000.0;
const STREAM_HOURS: u32 = 1000;
const WIDE_NODES: u32 = 65_536;
const WIDE_DAYS: u32 = 56;
const SITE_DAYS: u32 = 14;

/// Follow-the-renewables weights of every site's grid twin.
const FOLLOW: (f64, f64) = (0.3, 0.3);

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

fn stream_1m(seed: u64) -> CellSpec {
    let mut config = EngineConfig::new(SimTime::from_hours(f64::from(STREAM_HOURS)));
    config.seed = seed;
    config.retain_completed = false;
    config.bounded_power_trace = true;
    config.record_history = false;
    CellSpec {
        label: "stream_1m".to_owned(),
        system: SystemSource::Experiment(STREAM_NODES),
        jobs: JobsSource::Lazy(streaming_workload_params(STREAM_RATE_PER_HOUR, seed)),
        policy: "easy-backfill",
        config,
        riken_predictor: false,
        checkpoint_every_h: None,
        horizon_h: STREAM_HOURS,
    }
}

fn wide_65k(seed: u64) -> CellSpec {
    let mut config = EngineConfig::new(SimTime::from_days(f64::from(WIDE_DAYS)));
    config.seed = seed;
    // Completion records are still built per job (each lists its nodes);
    // retaining them would hold about 1 GiB of node lists at this width.
    config.retain_completed = false;
    CellSpec {
        label: "wide_65k".to_owned(),
        system: SystemSource::Experiment(WIDE_NODES),
        jobs: JobsSource::Materialized(WorkloadParams::typical(WIDE_NODES, seed)),
        policy: "easy-backfill",
        config,
        riken_predictor: false,
        checkpoint_every_h: None,
        horizon_h: WIDE_DAYS * 24,
    }
}

fn site_config(key: &str, seed: u64) -> SiteConfig {
    use epa_sites::centers as c;
    match key {
        "cea" => c::cea::config(seed),
        "cineca" => c::cineca::config(seed),
        "jcahpc" => c::jcahpc::config(seed),
        "kaust" => c::kaust::config(seed),
        "lrz" => c::lrz::config(seed),
        "riken" => c::riken::config(seed),
        "stfc" => c::stfc::config(seed),
        "tokyo_tech" => c::tokyo_tech::config(seed),
        "trinity" => c::trinity::config(seed),
        other => unreachable!("SITE_KEYS holds no site {other}"),
    }
}

/// One site: its production mechanisms (as `epa_sites::runner::run_site`
/// wires them) plus the grid twin of the `e15_grid_cosim` experiment.
///
/// CEA's layout-aware allocation is left out: with it, a CEA run
/// resumed from a checkpoint diverges from the uninterrupted run (see
/// README.md), and the benchmark's workloads must pass their own checks.
fn site_cell(key: &str, idx: usize, seed: u64) -> CellSpec {
    let mut site = site_config(key, seed);
    let horizon = SimTime::from_days(f64::from(SITE_DAYS));
    site.horizon = horizon;

    // The twin steers through budget resizes, so every site needs a
    // budget: its production one, or its nominal draw.
    let nominal = site.system.clone().build().spec().nominal_watts();
    let it_budget = site.power_budget_watts.unwrap_or(nominal);
    let base_price = 45.0 + 12.0 * ((idx * 4) % 9) as f64;
    let base_carbon = 180.0 + 55.0 * ((idx * 7) % 9) as f64;
    let mut grid = GridConfig::synthetic(
        it_budget,
        it_budget * 1.35,
        base_price,
        base_carbon,
        SITE_DAYS,
        site.meta.lon / 15.0,
        seed ^ 0x9157_u64.wrapping_add(idx as u64),
    );
    grid.price_follow = FOLLOW.0;
    grid.carbon_follow = FOLLOW.1;

    let mut config = EngineConfig::new(horizon);
    config.seed = seed;
    config.power_budget_watts = Some(it_budget);
    config.shutdown = site.shutdown.clone();
    config.emergency = site.emergency.clone();
    config.limit_gate = site.limit_gate.clone();
    config.facility = Some(Facility::new(site.facility.clone()).expect("site facility validates"));
    config.grid = Some(grid);
    config.trace = TraceConfig {
        mask: CategoryMask::ALL,
        ..TraceConfig::default()
    };
    CellSpec {
        label: key.to_owned(),
        system: SystemSource::Spec(site.system.clone()),
        jobs: JobsSource::Materialized(site.workload.clone()),
        policy: site.policy.registry_name(),
        config,
        riken_predictor: key == "riken",
        checkpoint_every_h: Some(24),
        horizon_h: SITE_DAYS * 24,
    }
}

/// Default DVFS frequency the controller asks for under power pressure.
const CONSTRAINED_FREQ_GHZ: f64 = 1.8;

/// The fixed rule-based external controller every cell runs once per
/// simulated hour: during a demand-response window, or with under a
/// tenth of the power budget left, new starts default to a low DVFS
/// frequency; otherwise the override is cleared. Without a budget (the
/// `stream_1m` and `wide_65k` machines) it only ever clears the unset
/// override, which changes no decision.
#[must_use]
pub fn controller_action(obs: &Observation) -> ControlAction {
    let tight = obs.dr_active || obs.headroom_watts < 0.1 * obs.budget_watts;
    ControlAction::SetDefaultFrequency {
        freq_ghz: tight.then_some(CONSTRAINED_FREQ_GHZ),
    }
}
