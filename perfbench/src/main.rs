//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <stream_1m|wide_65k|sites_twin> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs repetitions of the workload, each in a fresh single-threaded
//! process, until `--seconds` have passed (and at least a minimum count
//! has run). Repetition `i` runs the inputs of sub-seed
//! `8 * seed + i % 8`, so a result is a median over up to eight
//! independently drawn inputs rather than one draw's luck. `--trace 0` runs the plain workload and reports the
//! end-to-end metrics; `--trace 1` alternates plain, traced, and
//! trace-mask-flipped repetitions and reports the per-layer metrics.
//! The last stdout line is the result object; the line before it holds
//! the manifest and the per-repetition details.

use epa_perfbench::calibrate::reference_seconds;
use epa_perfbench::harness::{run_rep, Mode};
use epa_perfbench::report::{end_to_end, per_layer, Metric, RepSummary, REF_NOMINAL_S};
use epa_perfbench::stats::median;
use epa_perfbench::workloads::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Variables that would change what the engine runs; the benchmark
/// refuses to start under any of them rather than measure something else.
const FORBIDDEN_ENV: [&str; 3] = ["EPA_JSRM_SHARDS", "EPA_JSRM_THREADS", "EPA_JSRM_TRACE"];

/// Minimum plain repetitions behind an end-to-end result.
const MIN_PLAIN_REPS: usize = 3;

/// Distinct inputs a run cycles through.
const SUB_SEEDS: u64 = 8;

/// The inputs of repetition (or traced cycle) `i`.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS)
        .wrapping_add(i as u64 % SUB_SEEDS)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<Mode>,
    resume_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut resume_check = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be between 1 and 600".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--resume-check" => resume_check = value == "1",
            "--child" => {
                child = Some(Mode::parse(&value).ok_or_else(|| format!("unknown mode {value:?}"))?);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        child,
        resume_check,
    })
}

fn main() -> ExitCode {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; unset it and retry");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = args.child {
        let cells = args.workload.cells(args.seed);
        let before = reference_seconds();
        let rep = rayon::with_num_threads(1, || run_rep(&cells, mode, args.resume_check));
        let ref_s = before.min(reference_seconds());
        let summary = RepSummary::from_report(rep, epa_bench::peak_rss_bytes(), ref_s);
        print!("{}", summary.to_lines());
        return ExitCode::SUCCESS;
    }
    match run_parent(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one repetition in a fresh process of this executable.
fn run_child(args: &Args, mode: Mode, seed: u64, resume_check: bool) -> Result<RepSummary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            mode.name(),
            "--workload",
            args.workload.name(),
            "--seed",
            &seed.to_string(),
            "--resume-check",
            if resume_check { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a {} repetition: {e}", mode.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} repetition exited with {}",
            mode.name(),
            out.status
        ));
    }
    RepSummary::parse(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{} repetition output: {e}", mode.name()))
}

fn run_parent(args: &Args) -> Result<(), String> {
    let plan: &[Mode] = if args.trace {
        &[Mode::Plain, Mode::Traced, Mode::FlipMask]
    } else {
        &[Mode::Plain]
    };
    let min_cycles = if args.trace { 1 } else { MIN_PLAIN_REPS };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<(Mode, u64, RepSummary)> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut notes: Vec<String> = Vec::new();
    let mut cycles = 0;
    while cycles < min_cycles || start.elapsed() < budget {
        let seed = sub_seed(args.seed, cycles);
        for &mode in plan {
            // Plain repetitions repeat the traced pass's resume checks
            // only once a run: a check costs half a repetition.
            match run_child(args, mode, seed, cycles == 0) {
                Ok(rep) => {
                    attempted += rep.attempted;
                    failed += rep.failed;
                    notes.extend(
                        rep.notes
                            .iter()
                            .map(|n| format!("{} seed {seed}: {n}", mode.name())),
                    );
                    reps.push((mode, seed, rep));
                }
                Err(e) => {
                    attempted += 1;
                    failed += 1;
                    notes.push(format!("failure: {e}"));
                }
            }
        }
        cycles += 1;
    }

    // Same seed, same inputs: every repetition of a sub-seed, traced or
    // not, must reach the same outcome.
    let mut first: BTreeMap<u64, u64> = BTreeMap::new();
    for (mode, seed, rep) in &reps {
        match first.get(seed) {
            None => {
                first.insert(*seed, rep.fingerprint);
            }
            Some(&reference) => {
                attempted += 1;
                if rep.fingerprint != reference {
                    failed += 1;
                    notes.push(format!(
                        "failure: {} seed {seed}: outcome fingerprint {:016x} differs from \
                         {reference:016x}",
                        mode.name(),
                        rep.fingerprint,
                    ));
                }
            }
        }
    }

    let of = |m: Mode| -> Vec<RepSummary> {
        reps.iter()
            .filter(|(mode, _, _)| *mode == m)
            .map(|(_, _, r)| r.clone())
            .collect()
    };
    let plain = of(Mode::Plain);
    if plain.is_empty() {
        return Err(format!("no repetition finished: {}", notes.join("; ")));
    }
    let metrics = if args.trace {
        let traced = of(Mode::Traced);
        let flipped = of(Mode::FlipMask);
        if traced.is_empty() || flipped.is_empty() {
            return Err(format!(
                "no traced repetition finished: {}",
                notes.join("; ")
            ));
        }
        per_layer(&plain, &traced, &flipped, args.workload.traces_all())
    } else {
        end_to_end(&plain)
    };

    for n in &notes {
        eprintln!("perfbench: {n}");
    }
    println!("{}", manifest(args, &reps, &plain, &notes));
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::String(m.unit.to_owned())),
                ]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serializes")
}

fn manifest(
    args: &Args,
    reps: &[(Mode, u64, RepSummary)],
    plain: &[RepSummary],
    notes: &[String],
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let rep_rows = reps
        .iter()
        .map(|(mode, seed, r)| {
            let steps = r.step_stats();
            let highest = match steps.highest {
                Some((bp, v)) => obj(vec![
                    ("percentile", Value::Float(bp as f64 / 100.0)),
                    ("ms", Value::Float(v)),
                ]),
                None => Value::Null,
            };
            obj(vec![
                ("mode", Value::String(mode.name().to_owned())),
                ("sub_seed", Value::UInt(*seed)),
                ("wall_s", Value::Float(r.wall_s)),
                ("setup_s", Value::Float(r.setup_s)),
                ("completed", Value::UInt(r.completed)),
                ("events", Value::UInt(r.events)),
                ("steps", Value::UInt(steps.samples as u64)),
                ("step_ms_p50", Value::Float(steps.p50_ms)),
                ("step_ms_p99", Value::Float(steps.p99_ms)),
                ("samples_beyond_p99", Value::UInt(steps.beyond_p99 as u64)),
                ("highest_with_10_beyond", highest),
                ("peak_rss_bytes", Value::UInt(r.peak_rss_bytes)),
                ("ref_s", Value::Float(r.ref_s)),
                (
                    "fingerprint",
                    Value::String(format!("{:016x}", r.fingerprint)),
                ),
            ])
        })
        .collect();
    let line = obj(vec![(
        "manifest",
        obj(vec![
            ("commit", Value::String(git_commit())),
            ("rustc", Value::String(rustc_version())),
            ("nproc", Value::UInt(cores as u64)),
            ("workload", Value::String(args.workload.name().to_owned())),
            ("seed", Value::UInt(args.seed)),
            ("seconds", Value::UInt(args.seconds)),
            ("trace", Value::Bool(args.trace)),
            (
                "step_percentiles",
                Value::String(
                    "step_ms_p50/p99 are medians over plain repetitions of each repetition's \
                     nearest-rank percentile of its scaled step times; see each row's sample \
                     counts"
                        .to_owned(),
                ),
            ),
            ("plain_reps_behind_medians", Value::UInt(plain.len() as u64)),
            (
                "plain_wall_s_unscaled_median",
                Value::Float(
                    median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>()).unwrap_or(0.0),
                ),
            ),
            (
                "plain_ref_s_median",
                Value::Float(
                    median(&plain.iter().map(|r| r.ref_s).collect::<Vec<_>>()).unwrap_or(0.0),
                ),
            ),
            ("ref_nominal_s", Value::Float(REF_NOMINAL_S)),
            ("reps", Value::Array(rep_rows)),
            (
                "notes",
                Value::Array(notes.iter().map(|n| Value::String(n.clone())).collect()),
            ),
        ]),
    )]);
    serde_json::to_string(&line).expect("manifest serializes")
}

/// The checked-out commit, read from `.git` in the working directory
/// only (a checkout without one reports "unknown").
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty() && !id.starts_with('#'))
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}
