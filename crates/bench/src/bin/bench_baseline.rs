//! Engine throughput baseline: simulates one day of a typical workload at
//! 256, 1,024, 4,096, 16,384, and 65,536 nodes under EASY backfilling and
//! writes `BENCH_engine.json` with wall-time and events/sec per size, plus
//! a `threads` section measuring the campaign runner's parallel
//! replication sweep (12 seeds, serial vs 4 threads, recording
//! byte-identity of its outputs), a `snapshot` section (crash-safe
//! snapshot size and save/restore latency at 4,096 and 16,384 nodes,
//! mid-day), and a `streaming` section
//! (materialized vs lazy-source runs at 10k/100k/1M jobs, each measured
//! in a fresh child process so per-run peak RSS is attributable). Run
//! after engine changes to track the hot-path budget (see DESIGN.md,
//! "Performance notes"):
//!
//! ```text
//! cargo run --release -p epa-bench --bin bench_baseline [out.json]
//! ```
//!
//! An output path that cannot be opened for writing fails at once, before
//! any measurement, with the path and the OS error and exit status 2.
//!
//! With `--check-scaling` the binary instead runs the 256- and 4,096-node
//! rows and exits nonzero unless events/sec at 4,096 nodes is within 4×
//! of 256 nodes — the CI guard for the O(active)-per-event invariant —
//! then the 65,536-node row, which must stay within
//! `WIDE_SCALING_BOUND`× of the 256-node rate, and finally the
//! replication-sweep speedup — a cell that is skipped (not failed) when
//! the pool is oversubscribed, because a speedup measured on fewer cores
//! than pool threads is luck, not signal.
//!
//! `--stream-probe <materialized|streaming> <jobs>` is the internal
//! child-process mode of the `streaming` section: one run, one JSON line
//! on stdout carrying wall time, peak RSS, and an outcome fingerprint.

use epa_bench::campaign::run_campaign;
use epa_bench::{
    experiment_system, peak_rss_bytes, streaming_workload_params, BENCH_SCHEMA_VERSION,
};
use epa_obs::{CategoryMask, TraceConfig};
use epa_sched::engine::{ClusterSim, EngineConfig, SimOutcome};
use epa_sched::policies::backfill::EasyBackfill;
use epa_simcore::snap::Fingerprint;
use epa_simcore::time::SimTime;
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};
use epa_workload::source::LazyGeneratorSource;
use serde_json::json;
use std::io::Write;
use std::time::Instant;

const SIM_DAYS: f64 = 1.0;
const REPS: usize = 3;
const SIZES: [u32; 5] = [256, 1024, 4096, 16384, 65536];

/// Replication sweep measured in the `threads` section.
const SWEEP_NODES: u32 = 1024;
const SWEEP_SEEDS: [u64; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
const SWEEP_THREADS: usize = 4;

/// The CI scaling bound: events/sec at 4,096 nodes must be within this
/// factor of the 256-node rate.
const SCALING_BOUND: f64 = 4.0;

/// The wide-machine CI scaling bound: events/sec at 65,536 nodes must be
/// within this factor of the 256-node rate. A 256× machine runs
/// 256×-larger jobs; with span-native allocations the allocator, the
/// start/finish bookkeeping and the meter cost O(spans) per job, so what
/// still grows with width is bandwidth-bound slice work. Measured over 40
/// runs of this check on a 2-core x86-64 host: median 6.8×, worst 8.0×
/// (the per-node engine measured ~35×, up to 45×); the bound is that
/// worst case plus 50 % headroom. The single-queue engine reads higher
/// (34 runs: median 8.4×, worst 11.5×; the sharded engine read median
/// 6.8× in 26 runs interleaved with them): its 256-node row, the
/// denominator, is about 13 % faster.
const WIDE_SCALING_BOUND: f64 = 12.0;

/// Best-of repetitions per `--check-scaling` row. The 256-node row runs
/// in about a millisecond, so with two repetitions its rate (the
/// denominator of both degradations) swung enough to move the 65,536-node
/// figure 5–21×; the minimum of seven is steady.
const CHECK_REPS: usize = 7;

/// The `--check-scaling` sweep cell: with real cores behind every pool
/// thread, the parallel replication sweep must beat serial by at least
/// this factor (deliberately lax — the cell guards "parallelism still
/// works", not a tuning target).
const SWEEP_SPEEDUP_BOUND: f64 = 1.2;

/// The `streaming` section's job-count axis; the smallest count is the
/// peak-RSS baseline the 1M-job ratio is taken against.
const STREAM_JOBS: [u64; 3] = [10_000, 100_000, 1_000_000];
/// Machine size and Poisson arrival rate of the streaming workload —
/// sized so the machine keeps up and queue depth (engine memory) stays
/// flat in the job count.
const STREAM_NODES: u32 = 256;
const STREAM_RATE_PER_HOUR: f64 = 1000.0;
const STREAM_SEED: u64 = 2088;
/// Bounded-memory acceptance: the 1M-job streaming probe's peak RSS
/// must stay within this factor of the 10k-job probe.
const STREAM_RSS_BOUND: f64 = 2.0;

struct SizeResult {
    nodes: u32,
    wall_secs: f64,
    events: u64,
    completed: u64,
    /// Process peak RSS observed once this row's reps finished. The
    /// high-water mark is monotone across rows (sizes run ascending),
    /// so each value bounds everything up to and including its row.
    peak_rss: u64,
}

fn simulate(nodes: u32, seed: u64) -> SimOutcome {
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(nodes, seed))
        .generate(SimTime::from_days(SIM_DAYS), 0);
    let mut policy = EasyBackfill;
    let mut config = EngineConfig::new(SimTime::from_days(SIM_DAYS));
    config.seed = seed;
    ClusterSim::new(experiment_system(nodes), jobs, &mut policy, config).run()
}

fn run_once(nodes: u32) -> (f64, u64, u64) {
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(nodes, 9))
        .generate(SimTime::from_days(SIM_DAYS), 0);
    let mut policy = EasyBackfill;
    let config = EngineConfig::new(SimTime::from_days(SIM_DAYS));
    let sim = ClusterSim::new(experiment_system(nodes), jobs, &mut policy, config);
    // Time only the event loop — setup (workload generation, dense-state
    // init) is O(nodes) by construction and not what this row tracks.
    let t0 = Instant::now();
    let out = sim.run();
    let wall = t0.elapsed().as_secs_f64();
    let events = out
        .counters
        .get("sim/events_processed")
        .copied()
        .unwrap_or(0);
    (wall, events, out.completed)
}

fn best_of_reps(nodes: u32, reps: usize) -> (f64, u64, u64) {
    // Best-of-N wall time: the minimum is the least-noise estimate of
    // the engine's intrinsic cost.
    let mut best: Option<(f64, u64, u64)> = None;
    for _ in 0..reps {
        let r = run_once(nodes);
        if best.is_none_or(|b| r.0 < b.0) {
            best = Some(r);
        }
    }
    best.expect("reps > 0")
}

/// One timed run, like `run_once`, returning wall seconds, events
/// processed, and the serialized outcome. The `--check-scaling` wide row
/// uses it: repetitions must agree byte for byte, and serializing the
/// outcome keeps the row measured the way `WIDE_SCALING_BOUND` was
/// calibrated. (The freed multi-megabyte string leaves the allocator
/// large free blocks that later repetitions reuse instead of faulting in
/// fresh pages; without it the 65,536-node rate reads about a third
/// lower on a 2-core x86-64 host.)
fn run_serialized_once(nodes: u32) -> (f64, u64, String) {
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(nodes, 9))
        .generate(SimTime::from_days(SIM_DAYS), 0);
    let mut policy = EasyBackfill;
    let config = EngineConfig::new(SimTime::from_days(SIM_DAYS));
    let sim = ClusterSim::new(experiment_system(nodes), jobs, &mut policy, config);
    let t0 = Instant::now();
    let out = sim.run();
    let wall = t0.elapsed().as_secs_f64();
    let events = out
        .counters
        .get("sim/events_processed")
        .copied()
        .unwrap_or(0);
    let bytes = serde_json::to_string(&out).expect("outcome serializes");
    (wall, events, bytes)
}

/// Horizon that yields about `jobs` arrivals at the streaming rate.
fn stream_horizon(jobs: u64) -> SimTime {
    SimTime::from_hours(jobs as f64 / STREAM_RATE_PER_HOUR)
}

/// One streaming-probe measurement, exchanged between the parent bench
/// process and its `--stream-probe` children as a single tab-separated
/// stdout line (the vendored `serde_json` shim emits JSON but does not
/// parse it).
struct ProbeReport {
    mode: String,
    target_jobs: u64,
    jobs_completed: u64,
    events: u64,
    wall_secs: f64,
    peak_rss_bytes: u64,
    outcome_fingerprint: String,
}

impl ProbeReport {
    fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.mode,
            self.target_jobs,
            self.jobs_completed,
            self.events,
            self.wall_secs,
            self.peak_rss_bytes,
            self.outcome_fingerprint
        )
    }

    fn parse(line: &str) -> Option<Self> {
        let mut f = line.trim_end().split('\t');
        let report = ProbeReport {
            mode: f.next()?.to_owned(),
            target_jobs: f.next()?.parse().ok()?,
            jobs_completed: f.next()?.parse().ok()?,
            events: f.next()?.parse().ok()?,
            wall_secs: f.next()?.parse().ok()?,
            peak_rss_bytes: f.next()?.parse().ok()?,
            outcome_fingerprint: f.next()?.to_owned(),
        };
        f.next().is_none().then_some(report)
    }

    fn to_json(&self) -> serde_json::Value {
        json!({
            "mode": self.mode,
            "target_jobs": self.target_jobs,
            "jobs_completed": self.jobs_completed,
            "events": self.events,
            "wall_secs": self.wall_secs,
            "peak_rss_bytes": self.peak_rss_bytes,
            "outcome_fingerprint": self.outcome_fingerprint,
        })
    }
}

/// Child-process mode: one streaming-workload run (lazy source or
/// materialized list, same horizon, same engine config either way),
/// reported as a single [`ProbeReport`] line on stdout. Runs in its own
/// process so `VmHWM` attributes the peak RSS to this run alone.
fn stream_probe(mode: &str, jobs: u64) {
    let horizon = stream_horizon(jobs);
    let params = streaming_workload_params(STREAM_RATE_PER_HOUR, STREAM_SEED);
    let mut policy = EasyBackfill;
    let mut config = EngineConfig::new(horizon);
    config.seed = STREAM_SEED;
    // The streaming engine configuration on BOTH sides of the
    // comparison: per-job records fold into aggregates, no prediction
    // history. The two runs then differ only in where jobs come from, so
    // their outcomes must be byte-identical.
    config.record_history = false;
    config.retain_completed = false;
    // Wall time covers construction too: the materialized path pays its
    // full up-front generation there, the lazy path amortizes it into
    // the run — end-to-end is the honest comparison.
    let t0 = Instant::now();
    let sim = match mode {
        "streaming" => ClusterSim::try_new_with_source(
            experiment_system(STREAM_NODES),
            Box::new(LazyGeneratorSource::new(params, horizon, 0)),
            &mut policy,
            config,
        )
        .expect("valid streaming config"),
        "materialized" => {
            let jobs = WorkloadGenerator::new(params).generate(horizon, 0);
            ClusterSim::new(experiment_system(STREAM_NODES), jobs, &mut policy, config)
        }
        other => panic!("unknown stream-probe mode {other:?}"),
    };
    let out = sim.run();
    let wall = t0.elapsed().as_secs_f64();
    let events = out
        .counters
        .get("sim/events_processed")
        .copied()
        .unwrap_or(0);
    let mut fp = Fingerprint::new();
    fp.str(&serde_json::to_string(&out).expect("outcome serializes"));
    let report = ProbeReport {
        mode: mode.to_owned(),
        target_jobs: jobs,
        jobs_completed: out.completed,
        events,
        wall_secs: wall,
        peak_rss_bytes: peak_rss_bytes(),
        outcome_fingerprint: format!("{:016x}", fp.finish()),
    };
    println!("{}", report.to_line());
}

/// Re-executes this binary as a `--stream-probe` child and parses its
/// one-line report.
fn stream_probe_cell(mode: &str, jobs: u64) -> ProbeReport {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .args(["--stream-probe", mode, &jobs.to_string()])
        .output()
        .expect("spawn stream probe");
    assert!(
        out.status.success(),
        "stream probe {mode}/{jobs} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    ProbeReport::parse(&stdout).unwrap_or_else(|| {
        panic!("stream probe {mode}/{jobs} emitted an unparseable report: {stdout:?}")
    })
}

/// The `streaming` section: lazy-source vs materialized runs of the same
/// high-rate workload at 10k, 100k, and 1M jobs, each in a fresh child
/// process. Asserts (a) every pair of runs produced byte-identical
/// outcomes and (b) the 1M-job streaming peak RSS stays within
/// `STREAM_RSS_BOUND`× of the 10k-job streaming peak — the
/// bounded-memory claim, recorded in the committed artifact.
fn streaming_section() -> serde_json::Value {
    let mut rows = Vec::new();
    let mut stream_rss: Vec<(u64, u64)> = Vec::new();
    for &jobs in &STREAM_JOBS {
        let streaming = stream_probe_cell("streaming", jobs);
        let materialized = stream_probe_cell("materialized", jobs);
        let identical = streaming.outcome_fingerprint == materialized.outcome_fingerprint;
        eprintln!(
            "streaming: {jobs:>7} jobs: lazy {:.2} s / {:.1} MiB, \
             materialized {:.2} s / {:.1} MiB, outcomes identical: {identical}",
            streaming.wall_secs,
            streaming.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            materialized.wall_secs,
            materialized.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        );
        assert!(
            identical,
            "streaming outcome drifted from materialized at {jobs} jobs"
        );
        stream_rss.push((jobs, streaming.peak_rss_bytes));
        rows.push(json!({
            "jobs_target": jobs,
            "streaming": streaming.to_json(),
            "materialized": materialized.to_json(),
            "outcomes_identical": identical,
        }));
    }
    let base = stream_rss.first().expect("at least one size").1;
    let top = stream_rss.last().expect("at least one size").1;
    let rss_ratio = top as f64 / (base as f64).max(1.0);
    eprintln!(
        "streaming: peak RSS {}k-job {:.1} MiB vs {}k-job {:.1} MiB -> {rss_ratio:.2}x \
         (bound {STREAM_RSS_BOUND}x)",
        STREAM_JOBS[0] / 1000,
        base as f64 / (1024.0 * 1024.0),
        STREAM_JOBS[STREAM_JOBS.len() - 1] / 1000,
        top as f64 / (1024.0 * 1024.0),
    );
    assert!(
        base == 0 || rss_ratio <= STREAM_RSS_BOUND,
        "streaming run memory is not bounded: {rss_ratio:.2}x peak-RSS growth \
         from {} to {} jobs (bound {STREAM_RSS_BOUND}x)",
        STREAM_JOBS[0],
        STREAM_JOBS[STREAM_JOBS.len() - 1],
    );
    json!({
        "nodes": STREAM_NODES,
        "arrival_rate_per_hour": STREAM_RATE_PER_HOUR,
        "seed": STREAM_SEED,
        "rows": rows,
        "streaming_peak_rss_ratio_max_vs_min_jobs": rss_ratio,
        "streaming_peak_rss_bound": STREAM_RSS_BOUND,
    })
}

/// Runs the 12-seed replication sweep at a fixed thread count, returning
/// wall seconds and the serialized outcome of every cell (in cell order).
fn sweep(threads: usize) -> (f64, Vec<String>) {
    rayon::with_num_threads(threads, || {
        let t0 = Instant::now();
        let cells = run_campaign(&[SWEEP_NODES], &SWEEP_SEEDS, |&nodes, seed| {
            serde_json::to_string(&simulate(nodes, seed)).expect("outcome serializes")
        });
        let wall = t0.elapsed().as_secs_f64();
        (wall, cells.into_iter().map(|c| c.result).collect())
    })
}

/// The `threads` section: serial-vs-parallel wall time for the sweep and
/// byte-equality of the aggregate outputs, recorded in the bench output
/// itself so every committed BENCH_engine.json carries the determinism
/// evidence alongside the speedup claim.
fn threads_section() -> serde_json::Value {
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    eprintln!(
        "sweep: {} seeds x {} nodes, serial vs {} threads ({} cores available)",
        SWEEP_SEEDS.len(),
        SWEEP_NODES,
        SWEEP_THREADS,
        available
    );
    // Record the pool size actually in effect alongside the request and
    // the machine's core count: a 4-thread request on a 1-core box still
    // runs 4 pool threads, but the reader needs all three numbers to
    // interpret the speedup.
    let threads_used = rayon::with_num_threads(SWEEP_THREADS, rayon::current_num_threads);
    let (serial_wall, serial_out) = sweep(1);
    let (par_wall, par_out) = sweep(SWEEP_THREADS);
    let identical = serial_out == par_out;
    let speedup = serial_wall / par_wall.max(1e-12);
    eprintln!(
        "sweep: serial {serial_wall:.3} s, {SWEEP_THREADS} threads {par_wall:.3} s \
         ({speedup:.2}x), outcomes identical: {identical}"
    );
    assert!(
        identical,
        "parallel sweep outcomes must be byte-identical to serial"
    );
    let mut section = json!({
        "sweep_nodes": SWEEP_NODES,
        "replications": SWEEP_SEEDS.len(),
        "threads_requested": SWEEP_THREADS,
        "threads_used": threads_used,
        "available_cores": available,
        "serial_wall_secs": serial_wall,
        "parallel_wall_secs": par_wall,
        "speedup": speedup,
        "serial_parallel_outcomes_identical": identical,
    });
    // More pool threads than cores: the speedup number is a property of
    // the host, not the code — flag it so readers (and the scaling
    // check, which skips this cell) don't treat it as a regression.
    if threads_used > available {
        if let serde_json::Value::Object(entries) = &mut section {
            entries.push(("speedup_note".to_owned(), json!("oversubscribed")));
        }
    }
    section
}

/// Nodes and reps for the observability-overhead row.
const OBS_NODES: u32 = 4096;
const OBS_REPS: usize = 2;

/// One timed run at `OBS_NODES` under the given trace mask, returning
/// (wall seconds, events). The workload and seed match `run_once`.
fn run_obs_once(mask: CategoryMask) -> (f64, u64) {
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(OBS_NODES, 9))
        .generate(SimTime::from_days(SIM_DAYS), 0);
    let mut policy = EasyBackfill;
    let mut config = EngineConfig::new(SimTime::from_days(SIM_DAYS));
    config.trace = TraceConfig {
        mask,
        ..TraceConfig::default()
    };
    let sim = ClusterSim::new(experiment_system(OBS_NODES), jobs, &mut policy, config);
    let t0 = Instant::now();
    let (out, _bundle) = sim.run_traced();
    let wall = t0.elapsed().as_secs_f64();
    let events = out
        .counters
        .get("sim/events_processed")
        .copied()
        .unwrap_or(0);
    (wall, events)
}

/// The `observability` section: events/sec at 4,096 nodes with the trace
/// mask fully off (the default — the hot path is one branch on a bitset)
/// versus every category enabled, quantifying the overhead budget from
/// DESIGN.md §9 (tracing off must stay within 2% of the untraced rate;
/// the off-mask rate here *is* the untraced path).
fn observability_section() -> serde_json::Value {
    let best = |mask: CategoryMask| -> (f64, u64) {
        let mut best: Option<(f64, u64)> = None;
        for _ in 0..OBS_REPS {
            let r = run_obs_once(mask);
            if best.is_none_or(|b| r.0 < b.0) {
                best = Some(r);
            }
        }
        best.expect("reps > 0")
    };
    let (off_wall, off_events) = best(CategoryMask::NONE);
    let (on_wall, on_events) = best(CategoryMask::ALL);
    let off_rate = off_events as f64 / off_wall.max(1e-12);
    let on_rate = on_events as f64 / on_wall.max(1e-12);
    let on_overhead = (off_rate - on_rate) / off_rate.max(1e-12);
    eprintln!(
        "observability: {OBS_NODES} nodes, tracing off {off_rate:.0} events/s, \
         all categories {on_rate:.0} events/s ({:.1}% overhead)",
        on_overhead * 100.0
    );
    json!({
        "nodes": OBS_NODES,
        "reps": OBS_REPS,
        "tracing_off_events_per_sec": off_rate,
        "tracing_all_events_per_sec": on_rate,
        "tracing_all_overhead_frac": on_overhead,
    })
}

/// Machine sizes for the `snapshot` section.
const SNAP_NODES: [u32; 2] = [4096, 16384];
const SNAP_REPS: usize = 2;

/// The `snapshot` section: crash-safe snapshot cost at mid-day on the
/// standard workload — frame size in bytes, save latency (freezing a
/// live engine into a `Snapshot`), and restore latency (rebuilding a
/// resumable engine from the bytes). Best-of-`SNAP_REPS` like the other
/// latency rows.
fn snapshot_section() -> serde_json::Value {
    let mut rows = Vec::new();
    for &nodes in &SNAP_NODES {
        let mut best: Option<(usize, f64, f64)> = None;
        for _ in 0..SNAP_REPS {
            let jobs = WorkloadGenerator::new(WorkloadParams::typical(nodes, 9))
                .generate(SimTime::from_days(SIM_DAYS), 0);
            let mut policy = EasyBackfill;
            let config = EngineConfig::new(SimTime::from_days(SIM_DAYS));
            let mut sim =
                ClusterSim::new(experiment_system(nodes), jobs.clone(), &mut policy, config);
            // Advance to a mid-campaign barrier so the snapshot carries a
            // loaded machine, then time the capture alone.
            let _ = sim.run_until(SimTime::from_hours(12.0));
            let t0 = Instant::now();
            let snap = sim.snapshot();
            let save_secs = t0.elapsed().as_secs_f64();
            let size = snap.len();
            drop(sim);
            let mut policy = EasyBackfill;
            let config = EngineConfig::new(SimTime::from_days(SIM_DAYS));
            let t0 = Instant::now();
            let resumed =
                ClusterSim::resume(experiment_system(nodes), jobs, &mut policy, config, &snap)
                    .expect("bench snapshot resumes");
            let restore_secs = t0.elapsed().as_secs_f64();
            drop(resumed);
            if best.is_none_or(|b| save_secs + restore_secs < b.1 + b.2) {
                best = Some((size, save_secs, restore_secs));
            }
        }
        let (size, save_secs, restore_secs) = best.expect("reps > 0");
        eprintln!(
            "snapshot: {nodes:>5} nodes at mid-day: {:.1} KiB, save {:.3} ms, restore {:.3} ms",
            size as f64 / 1024.0,
            save_secs * 1e3,
            restore_secs * 1e3
        );
        rows.push(json!({
            "nodes": nodes,
            "size_bytes": size,
            "save_secs": save_secs,
            "restore_secs": restore_secs,
        }));
    }
    json!({
        "at_sim_hours": 12.0,
        "reps": SNAP_REPS,
        "results": rows,
    })
}

/// CI guard: events/sec at 4,096 nodes within `SCALING_BOUND`× of 256,
/// and at 65,536 nodes within `WIDE_SCALING_BOUND`× of 256.
fn check_scaling() -> bool {
    let (wall_small, ev_small, _) = best_of_reps(256, CHECK_REPS);
    let (wall_big, ev_big, _) = best_of_reps(4096, CHECK_REPS);
    let rate_small = ev_small as f64 / wall_small.max(1e-12);
    let rate_big = ev_big as f64 / wall_big.max(1e-12);
    let degradation = rate_small / rate_big.max(1e-12);
    eprintln!(
        "scaling check: 256 nodes {rate_small:.0} events/s, 4096 nodes {rate_big:.0} events/s \
         -> {degradation:.2}x degradation (bound {SCALING_BOUND}x)"
    );
    let mut best_huge: Option<(f64, u64)> = None;
    let mut first_bytes: Option<String> = None;
    for _ in 0..CHECK_REPS {
        let (w, e, bytes) = run_serialized_once(65536);
        match &first_bytes {
            None => first_bytes = Some(bytes),
            Some(first) => assert!(*first == bytes, "65536-node outcome drifted between reps"),
        }
        if best_huge.is_none_or(|b| w < b.0) {
            best_huge = Some((w, e));
        }
    }
    let (wall_huge, ev_huge) = best_huge.expect("reps > 0");
    let rate_huge = ev_huge as f64 / wall_huge.max(1e-12);
    let wide_degradation = rate_small / rate_huge.max(1e-12);
    eprintln!(
        "wide scaling check: 65536 nodes {rate_huge:.0} events/s \
         -> {wide_degradation:.2}x degradation vs 256 nodes \
         (bound {WIDE_SCALING_BOUND}x)"
    );
    // Replication-sweep speedup cell — excluded when oversubscribed: a
    // pool wider than the machine can't be expected to beat serial, and
    // whatever number it produces says nothing about the code.
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads_used = rayon::with_num_threads(SWEEP_THREADS, rayon::current_num_threads);
    let sweep_ok = if threads_used > available {
        eprintln!(
            "sweep speedup check: skipped (oversubscribed: {threads_used} pool threads \
             on {available} cores)"
        );
        true
    } else {
        let (serial_wall, _) = sweep(1);
        let (par_wall, _) = sweep(SWEEP_THREADS);
        let speedup = serial_wall / par_wall.max(1e-12);
        eprintln!(
            "sweep speedup check: serial {serial_wall:.3} s, {SWEEP_THREADS} threads \
             {par_wall:.3} s -> {speedup:.2}x (bound {SWEEP_SPEEDUP_BOUND}x)"
        );
        speedup >= SWEEP_SPEEDUP_BOUND
    };
    degradation <= SCALING_BOUND && wide_degradation <= WIDE_SCALING_BOUND && sweep_ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--stream-probe") {
        let mode = args.get(1).expect("--stream-probe <mode> <jobs>");
        let jobs: u64 = args
            .get(2)
            .expect("--stream-probe <mode> <jobs>")
            .parse()
            .expect("job count");
        stream_probe(mode, jobs);
        return;
    }
    if args.iter().any(|a| a == "--check-scaling") {
        if check_scaling() {
            eprintln!("scaling check passed");
        } else {
            eprintln!("scaling check FAILED");
            std::process::exit(1);
        }
        return;
    }
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_owned());
    // Open the output before measuring, so an unwritable path fails in
    // milliseconds rather than after the run. It is emptied only when the
    // results are written.
    let mut out = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&out_path)
        .unwrap_or_else(|e| unwritable(&out_path, &e));
    let mut results = Vec::new();
    for nodes in SIZES {
        let (wall_secs, events, completed) = best_of_reps(nodes, REPS);
        let peak_rss = peak_rss_bytes();
        eprintln!(
            "{nodes:>5} nodes: {wall_secs:.3} s/simulated-day, {events} events \
             ({:.0} events/s), {completed} jobs completed, peak RSS {:.1} MiB",
            events as f64 / wall_secs.max(1e-12),
            peak_rss as f64 / (1024.0 * 1024.0)
        );
        results.push(SizeResult {
            nodes,
            wall_secs,
            events,
            completed,
            peak_rss,
        });
    }
    let threads = threads_section();
    let observability = observability_section();
    let snapshot = snapshot_section();
    let streaming = streaming_section();
    let rows: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            json!({
                "nodes": r.nodes,
                "wall_secs_per_sim_day": r.wall_secs,
                "events": r.events,
                "events_per_sec": r.events as f64 / r.wall_secs.max(1e-12),
                "jobs_completed": r.completed,
                "peak_rss_bytes": r.peak_rss,
            })
        })
        .collect();
    let doc = json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": "engine-simulated-day",
        "policy": "easy-backfill",
        "sim_days": SIM_DAYS,
        "reps": REPS,
        "results": rows,
        "threads": threads,
        "observability": observability,
        "snapshot": snapshot,
        "streaming": streaming,
    });
    let text = serde_json::to_string_pretty(&doc).expect("serializable") + "\n";
    (out.set_len(0).and_then(|()| out.write_all(text.as_bytes())))
        .unwrap_or_else(|e| unwritable(&out_path, &e));
    eprintln!("wrote {out_path}");
}

/// Reports an output path that cannot be written and exits with status 2.
fn unwritable(path: &str, err: &std::io::Error) -> ! {
    eprintln!("bench_baseline: cannot write {path}: {err}");
    std::process::exit(2);
}
