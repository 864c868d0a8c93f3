//! The line protocol a repetition's process reports in, and the
//! aggregation of repetitions into the metrics the benchmark prints.

use crate::harness::RepReport;
use crate::stats::{highest_supported_bp, median, percentile_bp, samples_beyond};
use std::collections::BTreeMap;

/// What one repetition's process reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepSummary {
    /// Median setup time, seconds.
    pub setup_s: f64,
    /// Measured wall time, seconds.
    pub wall_s: f64,
    /// Jobs completed.
    pub completed: u64,
    /// Engine events processed.
    pub events: u64,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Outcome fingerprint.
    pub fingerprint: u64,
    /// `VmHWM` of the repetition's process, bytes.
    pub peak_rss_bytes: u64,
    /// Reference-workload time around the repetition, seconds
    /// ([`crate::calibrate`]).
    pub ref_s: f64,
    /// Wall time of each one-hour step, milliseconds.
    pub steps_ms: Vec<f64>,
    /// Per-layer metrics (traced pass only).
    pub layers: BTreeMap<String, f64>,
    /// Failure descriptions and self-time flags.
    pub notes: Vec<String>,
}

impl RepSummary {
    /// Summarizes a finished repetition.
    #[must_use]
    pub fn from_report(rep: RepReport, peak_rss_bytes: u64, ref_s: f64) -> Self {
        let mut notes: Vec<String> = rep
            .failures
            .iter()
            .map(|f| format!("failure: {f}"))
            .collect();
        notes.extend(
            rep.self_time_flags
                .iter()
                .map(|s| format!("self-time clamped: children of scope {s} exceed it")),
        );
        RepSummary {
            setup_s: rep.setup_s,
            wall_s: rep.wall_s,
            completed: rep.completed,
            events: rep.events,
            attempted: rep.attempted,
            failed: rep.failures.len() as u64,
            fingerprint: rep.fingerprint,
            peak_rss_bytes,
            ref_s,
            steps_ms: rep.steps_ms,
            layers: rep.layers,
            notes,
        }
    }

    /// Encodes as `key value` lines.
    #[must_use]
    pub fn to_lines(&self) -> String {
        let mut out = format!(
            "setup_s {}\nwall_s {}\ncompleted {}\nevents {}\nattempted {}\nfailed {}\n\
             fingerprint {}\npeak_rss_bytes {}\nref_s {}\n",
            self.setup_s,
            self.wall_s,
            self.completed,
            self.events,
            self.attempted,
            self.failed,
            self.fingerprint,
            self.peak_rss_bytes,
            self.ref_s
        );
        let steps: Vec<String> = self.steps_ms.iter().map(f64::to_string).collect();
        out.push_str(&format!("steps_ms {}\n", steps.join(",")));
        for (k, v) in &self.layers {
            out.push_str(&format!("layer {k} {v}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note {}\n", n.replace('\n', " ")));
        }
        out
    }

    /// Decodes [`RepSummary::to_lines`] output.
    ///
    /// # Errors
    /// A missing or malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut s = RepSummary::default();
        let mut seen = 0;
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{key}: {e}"));
            let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{key}: {e}"));
            match key {
                "setup_s" => s.setup_s = num(rest)?,
                "wall_s" => s.wall_s = num(rest)?,
                "completed" => s.completed = int(rest)?,
                "events" => s.events = int(rest)?,
                "attempted" => s.attempted = int(rest)?,
                "failed" => s.failed = int(rest)?,
                "fingerprint" => s.fingerprint = int(rest)?,
                "peak_rss_bytes" => s.peak_rss_bytes = int(rest)?,
                "ref_s" => s.ref_s = num(rest)?,
                "steps_ms" => {
                    s.steps_ms = rest
                        .split(',')
                        .filter(|x| !x.is_empty())
                        .map(num)
                        .collect::<Result<_, _>>()?;
                }
                "layer" => {
                    let (name, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("layer line without a value: {line}"))?;
                    s.layers.insert(name.to_owned(), num(v)?);
                    continue;
                }
                "note" => {
                    s.notes.push(rest.to_owned());
                    continue;
                }
                _ => return Err(format!("unknown line {line:?}")),
            }
            seen += 1;
        }
        if seen != 10 {
            return Err(format!("expected 10 fields, read {seen}"));
        }
        Ok(s)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Reference-workload time on a nominal host, seconds (about what
/// [`crate::calibrate::reference_seconds`] reads on a quiet 2-core
/// x86-64 host). End-to-end times are reported scaled to this speed.
pub const REF_NOMINAL_S: f64 = 0.015;

impl RepSummary {
    /// Scales this repetition's times to the nominal host speed: a
    /// repetition that ran while the reference took twice as long as
    /// nominal counts at half its measured time.
    #[must_use]
    pub fn speed_scale(&self) -> f64 {
        if self.ref_s > 0.0 {
            REF_NOMINAL_S / self.ref_s
        } else {
            1.0
        }
    }
}

fn median_of(reps: &[RepSummary], f: impl Fn(&RepSummary) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Step-time percentiles of one repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Steps timed.
    pub samples: usize,
    /// Median step, ms.
    pub p50_ms: f64,
    /// 99th-percentile step, ms.
    pub p99_ms: f64,
    /// Samples beyond the p99.
    pub beyond_p99: usize,
    /// The highest percentile (basis points) with at least ten samples
    /// beyond it, and its value.
    pub highest: Option<(u64, f64)>,
}

impl RepSummary {
    /// This repetition's step percentiles, scaled to the nominal host
    /// speed.
    #[must_use]
    pub fn step_stats(&self) -> StepStats {
        let scale = self.speed_scale();
        let mut steps: Vec<f64> = self.steps_ms.iter().map(|s| s * scale).collect();
        steps.sort_by(f64::total_cmp);
        let n = steps.len();
        StepStats {
            samples: n,
            p50_ms: percentile_bp(&steps, 5_000).unwrap_or(0.0),
            p99_ms: percentile_bp(&steps, 9_900).unwrap_or(0.0),
            beyond_p99: samples_beyond(n, 9_900),
            highest: highest_supported_bp(n)
                .and_then(|bp| percentile_bp(&steps, bp).map(|v| (bp, v))),
        }
    }
}

/// The end-to-end metrics: medians over the plain repetitions, with
/// times scaled to the nominal host speed ([`RepSummary::speed_scale`]).
#[must_use]
pub fn end_to_end(plain: &[RepSummary]) -> Vec<Metric> {
    let wall = |r: &RepSummary| r.wall_s * r.speed_scale();
    vec![
        Metric {
            name: "wall_s",
            unit: "s",
            value: median_of(plain, wall),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median_of(plain, |r| r.setup_s * r.speed_scale()),
        },
        Metric {
            name: "jobs_per_s",
            unit: "1/s",
            value: median_of(plain, |r| r.completed as f64 / wall(r).max(1e-12)),
        },
        Metric {
            name: "step_ms_p50",
            unit: "ms",
            value: median_of(plain, |r| r.step_stats().p50_ms),
        },
        Metric {
            name: "step_ms_p99",
            unit: "ms",
            value: median_of(plain, |r| r.step_stats().p99_ms),
        },
        Metric {
            name: "peak_rss_mib",
            unit: "MiB",
            value: median_of(plain, |r| r.peak_rss_bytes as f64 / (1024.0 * 1024.0)),
        },
    ]
}

/// Per-layer metrics read from the traced repetitions, with units.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("workload.generate_s", "s"),
    ("workload.source_pull_s", "s"),
    ("workload.source_jobs", "count"),
    ("sched.policy_calls", "count"),
    ("sched.policy_s", "s"),
    ("sched.policy_queue_scanned", "count"),
    ("sched.policy_starts", "count"),
    ("sched.policy_start_ratio", "ratio"),
    ("sched.nodes_started", "count"),
    ("engine.dispatch_self_s", "s"),
    ("sched.schedule_self_s", "s"),
    ("cluster.alloc_s", "s"),
    ("power.meter_tick_s", "s"),
    ("sched.shard_drain_s", "s"),
    ("engine.events", "count"),
    ("engine.ns_per_node_started", "ns"),
    ("predict.calls", "count"),
    ("predict.s", "s"),
    ("control.observe_s", "s"),
    ("control.apply_s", "s"),
    ("control.actions_applied", "count"),
    ("control.actions_rejected", "count"),
    ("snapshot.save_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.restore_s", "s"),
    ("obs.trace_records", "count"),
    ("obs.trace_dropped", "count"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "bytes"),
    ("engine.ns_per_event", "ns"),
];

/// The per-layer metrics: medians over the traced repetitions, plus
/// the costs that compare passes. `traces_all` says whether the plain
/// pass records every trace category (the flipped pass then records
/// none) or none.
#[must_use]
pub fn per_layer(
    plain: &[RepSummary],
    traced: &[RepSummary],
    flipped: &[RepSummary],
    traces_all: bool,
) -> Vec<Metric> {
    // The passes ran at different moments, so their walls are compared at
    // the nominal host speed.
    let scaled = |r: &RepSummary| r.wall_s * r.speed_scale();
    let plain_wall = median_of(plain, scaled);
    let traced_wall = median_of(traced, scaled);
    let flipped_wall = median_of(flipped, scaled);
    let events = median_of(plain, |r| r.events as f64);
    let mut out: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: if name == "engine.ns_per_event" {
                median_of(plain, |r| r.wall_s) * 1e9 / events.max(1.0)
            } else {
                median_of(traced, |r| r.layers.get(name).copied().unwrap_or(0.0))
            },
        })
        .collect();
    let (all_wall, none_wall) = if traces_all {
        (plain_wall, flipped_wall)
    } else {
        (flipped_wall, plain_wall)
    };
    out.push(Metric {
        name: "obs.trace_overhead_frac",
        unit: "ratio",
        value: all_wall / none_wall.max(1e-12) - 1.0,
    });
    out.push(Metric {
        name: "bench.trace_overhead_frac",
        unit: "ratio",
        value: traced_wall / plain_wall.max(1e-12) - 1.0,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RepSummary {
        RepSummary {
            setup_s: 0.25,
            wall_s: 1.5,
            completed: 10,
            events: 40,
            attempted: 2,
            failed: 0,
            fingerprint: u64::MAX,
            peak_rss_bytes: 4096,
            ref_s: REF_NOMINAL_S,
            steps_ms: vec![0.5, 1.25],
            layers: [("sched.policy_s".to_owned(), 0.125)].into_iter().collect(),
            notes: vec!["failure: x: y".to_owned()],
        }
    }

    #[test]
    fn line_protocol_round_trips() {
        let s = sample();
        assert_eq!(RepSummary::parse(&s.to_lines()), Ok(s));
        assert!(RepSummary::parse("wall_s 1\n").is_err());
        assert!(RepSummary::parse("bogus 1\n").is_err());
    }

    #[test]
    fn step_percentiles_per_repetition() {
        let mut a = sample();
        a.steps_ms = (1..=1000).map(f64::from).collect();
        let st = a.step_stats();
        assert_eq!(st.samples, 1000);
        assert_eq!(st.p50_ms, 500.0);
        assert_eq!(st.p99_ms, 990.0);
        assert_eq!(st.beyond_p99, 10);
        assert_eq!(st.highest, Some((9_900, 990.0)));
        let mut b = a.clone();
        b.steps_ms.iter_mut().for_each(|s| *s *= 3.0);
        let m = end_to_end(&[a.clone(), a, b]);
        assert_eq!(m[3].value, 500.0);
        assert_eq!(m[4].value, 990.0);
    }

    #[test]
    fn times_scale_to_the_nominal_host_speed() {
        let mut slow = sample();
        slow.ref_s = 2.0 * REF_NOMINAL_S;
        slow.wall_s = 3.0;
        let m = end_to_end(&[slow]);
        assert_eq!(m[0].name, "wall_s");
        assert!((m[0].value - 1.5).abs() < 1e-12);
        assert!((m[2].value - 10.0 / 1.5).abs() < 1e-9);
        let mut unknown = sample();
        unknown.ref_s = 0.0;
        assert_eq!(unknown.speed_scale(), 1.0);
    }

    #[test]
    fn every_per_layer_metric_is_reported_once() {
        let m = per_layer(&[sample()], &[sample()], &[sample()], false);
        let mut names: Vec<&str> = m.iter().map(|x| x.name).collect();
        assert_eq!(names.len(), PER_LAYER.len() + 2);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len() + 2);
        let policy = m
            .iter()
            .find(|x| x.name == "sched.policy_s")
            .expect("listed");
        assert_eq!(policy.value, 0.125);
    }
}
