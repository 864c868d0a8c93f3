//! The fault plane: one owner for every fault injected into a run.
//!
//! The survey's Figure 1 loop rests on telemetry sensors and privileged
//! actuators, and production machines lose nodes and whole racks. The
//! plane holds each fault source the engine draws from, present only
//! when configured:
//! - independent node failures: the MTBF and the `engine-failures`
//!   stream, drawn at each `NodeFail` for the victim and the next gap;
//! - correlated domain events: the [`FaultPlan`] pre-generated from the
//!   fault seed and queued at build;
//! - sensor faults: dropout and stuck-at draws from the `faults-sensor`
//!   stream, the last accepted reading and the staleness fallback;
//! - actuator faults: the [`RetryingActuator`] cap writes go through.
//!
//! Each source draws from its own stream, so a faultless run makes no
//! extra draw. The plane encodes the `faults` section, each part present
//! exactly when its config is (restore returns `ConfigMismatch`
//! otherwise), and restore rejects a reading stamped after the clock.

use crate::engine::EngineConfig;
use crate::events::{Ev, EventLoop};
use crate::snapshot::restore_part;
use epa_cluster::node::NodeId;
use epa_faults::{DomainEvent, FaultPlan, SensorFaultConfig};
use epa_obs::{Obs, TraceEvent};
use epa_rm::actuators::RetryingActuator;
use epa_simcore::rng::SimRng;
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};

pub(crate) struct FaultPlane {
    /// Repair time of an independent failure or a fenced node.
    repair_time: SimDuration,
    /// Independent node failures: the MTBF and the failure stream.
    failures: Option<(SimDuration, SimRng)>,
    /// Correlated domain events (empty without a domain config).
    plan: FaultPlan,
    sensor: Option<Sensor>,
    actuator: Option<RetryingActuator>,
}

impl FaultPlane {
    /// The plane for `config` on a machine of `domains` failure domains
    /// whose telemetry first reads `idle_watts`.
    pub(crate) fn new(config: &EngineConfig, domains: u32, idle_watts: f64) -> Self {
        let faults = config.faults.as_ref();
        let stream = |seed, label| SimRng::new(seed).stream(label);
        FaultPlane {
            repair_time: config.repair_time,
            failures: (config.node_mtbf).map(|m| (m, stream(config.seed, "engine-failures"))),
            plan: faults.map_or_else(FaultPlan::default, |f| {
                FaultPlan::generate(f, config.horizon, domains)
            }),
            sensor: faults.and_then(|f| {
                Some(Sensor {
                    config: f.sensor.clone()?,
                    rng: stream(f.seed, "faults-sensor"),
                    last: (SimTime::ZERO, idle_watts),
                    stuck_until: None,
                    stale: false,
                })
            }),
            actuator: faults.and_then(|f| Some(RetryingActuator::new(f.actuator.clone()?, f.seed))),
        }
    }

    /// Queues the first independent failure, then every domain event.
    /// The engine calls this after queueing the grid's DR windows: the
    /// sequence numbers that order equal times depend on it.
    pub(crate) fn schedule(&mut self, events: &mut EventLoop) {
        if let Some((mtbf, rng)) = &mut self.failures {
            let first = rng.exponential(rate(*mtbf));
            events.schedule_at(SimTime::from_secs(first), Ev::NodeFail);
        }
        for (i, e) in self.plan.domain_events.iter().enumerate() {
            events.schedule_at(e.t, Ev::DomainFail(i as u32));
        }
    }

    /// An independent failure at `t`: the victim, drawn from the
    /// `operational` nodes (none when there are none), then the next
    /// failure's time, `None` past `horizon`.
    pub(crate) fn node_fail(
        &mut self,
        t: SimTime,
        operational: &[NodeId],
        horizon: SimTime,
    ) -> (Option<NodeId>, Option<SimTime>) {
        let Some((mtbf, rng)) = &mut self.failures else {
            return (None, None);
        };
        let victim = (!operational.is_empty()).then(|| *rng.choose(operational));
        let next = t + SimDuration::from_secs(rng.exponential(rate(*mtbf)));
        (victim, (next <= horizon).then_some(next))
    }

    pub(crate) fn repair_time(&self) -> SimDuration {
        self.repair_time
    }

    /// Domain event `idx` of the plan (restore checks queued indices).
    pub(crate) fn domain_event(&self, idx: u32) -> DomainEvent {
        self.plan.domain_events[idx as usize]
    }

    /// Whether a restored queue may hold `ev`: a `NodeFail` only with an
    /// MTBF, a domain event only inside the plan.
    pub(crate) fn queues(&self, ev: &Ev) -> bool {
        match *ev {
            Ev::NodeFail => self.failures.is_some(),
            Ev::DomainFail(idx) => (idx as usize) < self.plan.domain_events.len(),
            _ => true,
        }
    }

    pub(crate) fn actuator(&mut self) -> Option<&mut RetryingActuator> {
        self.actuator.as_mut()
    }

    /// Advances the sensor one power tick: a live reading of
    /// `true_watts`, a dropout, or a held stuck-at value. Returns the
    /// observed draw (`true_watts` itself without sensor faults); counts
    /// and traces the faults and each flip into or out of the fallback.
    /// `nameplate` is the static draw estimate, read only while stale.
    pub(crate) fn sample(
        &mut self,
        t: SimTime,
        true_watts: f64,
        nameplate: impl FnOnce() -> f64,
        obs: &mut Obs,
    ) -> f64 {
        let Some(s) = &mut self.sensor else {
            return true_watts;
        };
        // Stuck-at window: the sensor keeps re-reporting its held value
        // with fresh timestamps — wrong data that staleness cannot catch.
        if let Some((until, held)) = s.stuck_until {
            if t < until {
                s.last = (t, held);
            } else {
                s.stuck_until = None;
            }
        }
        if s.stuck_until.is_none() {
            if s.rng.bernoulli(s.config.dropout_prob) {
                // The sample is lost; the last reading ages.
                obs.registry.incr("faults/telemetry_dropouts", 1);
                obs.bus.record(t, TraceEvent::SensorDropout);
            } else if s.rng.bernoulli(s.config.stuck_prob) {
                let held = s.last.1;
                s.stuck_until = Some((t + s.config.stuck_duration, held));
                s.last = (t, held);
                obs.registry.incr("faults/telemetry_stuck", 1);
                obs.bus
                    .record(t, TraceEvent::SensorStuck { held_watts: held });
            } else {
                s.last = (t, true_watts);
            }
        }
        let (watts, margin) = s.observe(t, nameplate);
        let (stale, age_secs) = (margin.is_some(), t.saturating_since(s.last.0).as_secs());
        if stale != std::mem::replace(&mut s.stale, stale) {
            if stale {
                obs.registry.incr("faults/telemetry_fallbacks", 1);
            }
            let engaged = stale;
            obs.bus
                .record(t, TraceEvent::TelemetryFallback { engaged, age_secs });
        }
        if stale {
            obs.registry.incr("faults/telemetry_stale_ticks", 1);
            obs.registry
                .observe("telemetry/staleness_age_secs", age_secs);
        }
        watts
    }

    /// The observed draw at `now` between ticks, and the safety margin
    /// while telemetry is stale (`None` while it is trusted).
    pub(crate) fn observed(
        &self,
        now: SimTime,
        true_watts: f64,
        nameplate: impl FnOnce() -> f64,
    ) -> (f64, Option<f64>) {
        match &self.sensor {
            Some(s) => s.observe(now, nameplate),
            None => (true_watts, None),
        }
    }

    /// Encodes the `faults` section: the failure stream, the sensor and
    /// the actuator, each as an option. Configuration is not stored.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.opt(self.failures.as_ref(), |w, (_, rng)| rng_into(w, rng));
        w.opt(self.sensor.as_ref(), |w, s| s.snapshot_into(w));
        w.opt(self.actuator.as_ref(), |w, a| a.snapshot_into(w));
    }

    /// Decodes the `faults` section, written at clock `now`, over this
    /// freshly built plane.
    pub(crate) fn restore_from(
        &mut self,
        r: &mut SnapReader<'_>,
        now: SimTime,
    ) -> Result<(), SnapshotError> {
        restore_part(r, "node failures", &mut self.failures, |r, (_, rng)| {
            *rng = rng_from(r)?;
            Ok(())
        })?;
        restore_part(r, "sensor faults", &mut self.sensor, |r, s| {
            s.restore_from(r, now)
        })?;
        restore_part(r, "actuator faults", &mut self.actuator, |r, a| {
            a.restore_from(r)
        })
    }
}

/// Exponential failure rate of an MTBF.
fn rate(mtbf: SimDuration) -> f64 {
    1.0 / mtbf.as_secs().max(1e-9)
}

fn rng_into(w: &mut SnapWriter, rng: &SimRng) {
    let (seed, pos) = rng.snapshot_state();
    w.u64(seed);
    w.u64(pos);
}

fn rng_from(r: &mut SnapReader<'_>) -> Result<SimRng, SnapshotError> {
    Ok(SimRng::from_state(r.u64()?, r.u64()?))
}

/// Telemetry under sensor faults: the stream with its config, the last
/// reading and the fallback state.
struct Sensor {
    config: SensorFaultConfig,
    rng: SimRng,
    /// Last accepted reading `(timestamp, watts)`: a dropout ages it, a
    /// stuck-at window keeps it fresh while the value goes wrong.
    last: (SimTime, f64),
    /// Active stuck-at window `(until, held value)`.
    stuck_until: Option<(SimTime, f64)>,
    /// Stale at the last tick: fallback transitions count, stale ticks
    /// do not.
    stale: bool,
}

impl Sensor {
    /// The observed draw at `now`: the last reading, or — once its age
    /// passes the staleness bound — the `nameplate` estimate raised by
    /// the safety margin, which comes back with it. Deliberately
    /// pessimistic: the degraded mode must never under-estimate draw.
    fn observe(&self, now: SimTime, nameplate: impl FnOnce() -> f64) -> (f64, Option<f64>) {
        let margin = self.config.safety_margin_frac;
        if now.saturating_since(self.last.0) > self.config.staleness_bound {
            (nameplate() * (1.0 + margin), Some(margin))
        } else {
            (self.last.1, None)
        }
    }

    fn snapshot_into(&self, w: &mut SnapWriter) {
        rng_into(w, &self.rng);
        w.f64(self.last.0.as_secs());
        w.f64(self.last.1);
        w.opt(self.stuck_until.as_ref(), |w, &(until, held)| {
            w.f64(until.as_secs());
            w.f64(held);
        });
        w.bool(self.stale);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>, now: SimTime) -> Result<(), SnapshotError> {
        self.rng = rng_from(r)?;
        self.last = (r.time()?, r.f64()?);
        self.stuck_until = r.opt(|r| Ok((r.time()?, r.f64()?)))?;
        self.stale = r.bool()?;
        if self.last.0 > now {
            return Err(SnapshotError::Corrupt {
                detail: format!("telemetry reading at {} after the clock {now}", self.last.0),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SchedError;
    use epa_faults::{ActuatorFaultConfig, FaultConfig};
    use epa_obs::TraceConfig;

    const IDLE: f64 = 500.0;
    const NAMEPLATE: f64 = 4000.0;

    fn config(sensor: Option<SensorFaultConfig>, seed: u64) -> EngineConfig {
        let mut config = EngineConfig::new(SimTime::from_days(1.0));
        config.faults = Some(FaultConfig {
            sensor,
            seed,
            ..FaultConfig::default()
        });
        config
    }

    fn sensor(dropout_prob: f64, stuck_prob: f64) -> Option<SensorFaultConfig> {
        Some(SensorFaultConfig {
            dropout_prob,
            stuck_prob,
            ..SensorFaultConfig::default()
        })
    }

    fn plane(sensor: Option<SensorFaultConfig>) -> FaultPlane {
        FaultPlane::new(&config(sensor, 9), 1, IDLE)
    }

    fn new_obs() -> Obs {
        let mut obs = Obs::new(&TraceConfig::all());
        obs.registry
            .register_histogram("telemetry/staleness_age_secs", &[60.0]);
        obs
    }

    fn minute(k: u32) -> SimTime {
        SimTime::from_secs(60.0 * f64::from(k))
    }

    /// Samples ticks `ticks` (one a minute) at a true draw of 1000 W plus
    /// the tick number; returns the observed draws.
    fn run(p: &mut FaultPlane, obs: &mut Obs, ticks: std::ops::RangeInclusive<u32>) -> Vec<f64> {
        let draw = |k| 1000.0 + f64::from(k);
        ticks
            .map(|k| p.sample(minute(k), draw(k), || NAMEPLATE, obs))
            .collect()
    }

    fn frame(p: &FaultPlane) -> Vec<u8> {
        let mut w = SnapWriter::new();
        p.snapshot_into(&mut w);
        w.finish(1)
    }

    fn restore(p: &mut FaultPlane, bytes: &[u8], now: SimTime) -> Result<(), SnapshotError> {
        let mut r = SnapReader::open(bytes, 1).expect("framed");
        p.restore_from(&mut r, now)?;
        r.finish()
    }

    #[test]
    fn disabled_streams_are_faultless() {
        let (mut p, mut obs) = (plane(None), new_obs());
        let observed = run(&mut p, &mut obs, 1..=100);
        assert_eq!(
            observed,
            (1..=100).map(|k| 1000.0 + f64::from(k)).collect::<Vec<_>>()
        );
        assert_eq!(p.observed(minute(200), 7.0, || NAMEPLATE), (7.0, None));
        assert_eq!(obs.registry.counters().count(), 0);
        assert_eq!(frame(&p), frame(&plane(None)), "nothing to draw or hold");
        assert!(!p.queues(&Ev::NodeFail) && !p.queues(&Ev::DomainFail(0)));
    }

    #[test]
    fn sensor_faults_mix_outcomes() {
        let (mut p, mut obs) = (plane(sensor(0.3, 0.3)), new_obs());
        let observed = run(&mut p, &mut obs, 1..=500);
        let live = (1..=500).filter(|&k| observed[k as usize - 1] == 1000.0 + f64::from(k));
        assert!(live.count() > 0);
        assert!(obs.registry.counter("faults/telemetry_dropouts") > 0);
        assert!(obs.registry.counter("faults/telemetry_stuck") > 0);
    }

    #[test]
    fn sensor_streams_deterministic() {
        let draws = |seed| {
            let mut p = FaultPlane::new(&config(sensor(0.2, 0.05), seed), 1, IDLE);
            run(&mut p, &mut new_obs(), 1..=200)
        };
        assert_eq!(draws(9), draws(9));
        assert_ne!(draws(9), draws(10));
    }

    #[test]
    fn invalid_fault_configs_are_rejected_before_the_plane() {
        let mut bad = config(None, 9);
        bad.faults.as_mut().expect("faults").actuator = Some(ActuatorFaultConfig {
            fail_prob: 2.0,
            ..ActuatorFaultConfig::default()
        });
        assert!(matches!(bad.validate(), Err(SchedError::InvalidConfig(_))));
    }

    #[test]
    fn a_dropout_ages_the_reading() {
        // Every sample is lost: the idle reading from t = 0 ages until it
        // passes the 5-minute bound.
        let (mut p, mut obs) = (plane(sensor(1.0, 0.0)), new_obs());
        assert_eq!(run(&mut p, &mut obs, 1..=5), [IDLE; 5]);
        assert_eq!(p.observed(minute(5), 0.0, || NAMEPLATE), (IDLE, None));
        let between = minute(5) + SimDuration::from_secs(1.0);
        assert_eq!(
            p.observed(between, 0.0, || NAMEPLATE),
            (NAMEPLATE * 1.1, Some(0.1))
        );
        assert_eq!(run(&mut p, &mut obs, 6..=6), [NAMEPLATE * 1.1]);
        assert_eq!(obs.registry.counter("faults/telemetry_dropouts"), 6);
    }

    #[test]
    fn a_stuck_window_rereports_the_held_value_with_fresh_timestamps() {
        // Every draw opens a 10-minute window holding the last reading,
        // so the idle reading repeats, always fresh, never stale.
        let (mut p, mut obs) = (plane(sensor(0.0, 1.0)), new_obs());
        assert_eq!(run(&mut p, &mut obs, 1..=30), [IDLE; 30]);
        assert_eq!(p.observed(minute(30), 0.0, || NAMEPLATE), (IDLE, None));
        assert_eq!(obs.registry.counter("faults/telemetry_stuck"), 3);
        assert_eq!(obs.registry.counter("faults/telemetry_fallbacks"), 0);
    }

    #[test]
    fn the_fallback_counts_one_transition_per_engagement() {
        let (mut p, mut obs) = (plane(sensor(1.0, 0.0)), new_obs());
        let set_dropout = |p: &mut FaultPlane, prob| {
            p.sensor.as_mut().expect("sensor").config.dropout_prob = prob;
        };
        run(&mut p, &mut obs, 1..=20);
        set_dropout(&mut p, 0.0);
        assert_eq!(run(&mut p, &mut obs, 21..=21), [1021.0], "a live reading");
        set_dropout(&mut p, 1.0);
        run(&mut p, &mut obs, 22..=40);
        let registry = &obs.registry;
        assert_eq!(registry.counter("faults/telemetry_fallbacks"), 2);
        assert_eq!(registry.counter("faults/telemetry_stale_ticks"), 15 + 14);
        let flips: Vec<bool> = (obs.bus.iter())
            .filter_map(|rec| match rec.event {
                TraceEvent::TelemetryFallback { engaged, .. } => Some(engaged),
                _ => None,
            })
            .collect();
        assert_eq!(flips, [true, false, true]);
    }

    #[test]
    fn the_plane_roundtrips_through_a_snapshot() {
        let mut config = config(sensor(0.2, 0.1), 5);
        config.node_mtbf = Some(SimDuration::from_hours(1.0));
        let faults = config.faults.as_mut().expect("faults");
        faults.actuator = Some(ActuatorFaultConfig {
            fail_prob: 0.5,
            ..ActuatorFaultConfig::default()
        });
        let build = || FaultPlane::new(&config, 1, IDLE);
        let (mut p, mut obs) = (build(), new_obs());
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        run(&mut p, &mut obs, 1..=30);
        p.node_fail(minute(30), &nodes, minute(600));
        let act = p.actuator().expect("actuator faults");
        act.program_caps_traced(minute(30), &nodes, Some(300.0), &mut obs.bus);
        let bytes = frame(&p);
        let mut back = build();
        restore(&mut back, &bytes, minute(30)).expect("consistent");
        assert_eq!(frame(&back), bytes);
        let next = |p: &mut FaultPlane| {
            let draws = run(p, &mut new_obs(), 31..=60);
            (draws, p.node_fail(minute(60), &nodes, minute(600)))
        };
        assert_eq!(next(&mut back), next(&mut p));

        let err = restore(&mut plane(None), &bytes, minute(30)).err();
        assert!(
            matches!(err, Some(SnapshotError::ConfigMismatch { .. })),
            "{err:?}"
        );
        let err = restore(&mut build(), &bytes, SimTime::ZERO).err();
        assert!(
            matches!(err, Some(SnapshotError::Corrupt { .. })),
            "{err:?}"
        );
    }
}
