//! Fault-model configuration: what can go wrong, and how often.
//!
//! The model covers the three failure surfaces of the survey's Figure 1
//! control loop:
//!
//! - **Correlated hardware failures** ([`DomainFaultConfig`]): a rack or
//!   PDU event takes down a whole node group at once, not just one node.
//! - **Sensor faults** ([`SensorFaultConfig`]): telemetry readings drop
//!   out (staleness grows) or stick at an old value (fresh timestamps,
//!   wrong data).
//! - **Actuator faults** ([`ActuatorFaultConfig`]): privileged commands
//!   (CAPMC/RAPL cap writes, DVFS sets) fail or are delayed, and are
//!   retried with exponential backoff before the node is fenced.

use crate::error::FaultError;
use epa_simcore::snap::Fingerprint;
use epa_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Correlated failure-domain events (rack / PDU loss).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainFaultConfig {
    /// Mean time between domain events across the whole system
    /// (exponential inter-arrival).
    pub mtbf: SimDuration,
    /// Repair time for every node the event takes down.
    pub repair_time: SimDuration,
}

impl DomainFaultConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.mtbf.as_secs() <= 0.0 {
            return Err(FaultError::InvalidConfig(
                "domain MTBF must be positive".into(),
            ));
        }
        if self.repair_time.as_secs() <= 0.0 {
            return Err(FaultError::InvalidConfig(
                "domain repair time must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Telemetry sensor faults and the staleness-based degradation bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorFaultConfig {
    /// Probability a sample is dropped (no reading; staleness grows).
    pub dropout_prob: f64,
    /// Probability a sample starts a stuck-at window (the sensor keeps
    /// reporting its last value with fresh timestamps).
    pub stuck_prob: f64,
    /// Length of a stuck-at window.
    pub stuck_duration: SimDuration,
    /// When the age of the last reading exceeds this bound, consumers
    /// must stop trusting telemetry and fall back to static estimates.
    pub staleness_bound: SimDuration,
    /// Safety margin applied to the conservative (nameplate/TDP) estimate
    /// used while telemetry is stale (0.1 = +10%).
    pub safety_margin_frac: f64,
}

impl Default for SensorFaultConfig {
    fn default() -> Self {
        SensorFaultConfig {
            dropout_prob: 0.05,
            stuck_prob: 0.01,
            stuck_duration: SimDuration::from_mins(10.0),
            staleness_bound: SimDuration::from_mins(5.0),
            safety_margin_frac: 0.1,
        }
    }
}

impl SensorFaultConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), FaultError> {
        for (name, p) in [
            ("dropout_prob", self.dropout_prob),
            ("stuck_prob", self.stuck_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultError::InvalidConfig(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        if self.staleness_bound.as_secs() <= 0.0 {
            return Err(FaultError::InvalidConfig(
                "staleness bound must be positive".into(),
            ));
        }
        if self.safety_margin_frac < 0.0 {
            return Err(FaultError::InvalidConfig(
                "safety margin cannot be negative".into(),
            ));
        }
        Ok(())
    }
}

/// Actuator-command faults and the retry/escalation policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActuatorFaultConfig {
    /// Probability any single command attempt fails.
    pub fail_prob: f64,
    /// Retries after the first failed attempt before giving up.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles by `backoff_factor` per
    /// subsequent retry. Successful commands still pay the accumulated
    /// backoff as actuation latency.
    pub backoff_base: SimDuration,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_factor: f64,
    /// After this many *consecutive* failed cap writes on one node, the
    /// node is fenced (drained and sent to repair).
    pub fence_after: u32,
}

impl Default for ActuatorFaultConfig {
    fn default() -> Self {
        ActuatorFaultConfig {
            fail_prob: 0.02,
            max_retries: 3,
            backoff_base: SimDuration::from_secs(1.0),
            backoff_factor: 2.0,
            fence_after: 3,
        }
    }
}

impl ActuatorFaultConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), FaultError> {
        if !(0.0..=1.0).contains(&self.fail_prob) {
            return Err(FaultError::InvalidConfig(format!(
                "fail_prob must be in [0, 1], got {}",
                self.fail_prob
            )));
        }
        if self.backoff_base.as_secs() < 0.0 {
            return Err(FaultError::InvalidConfig(
                "backoff base cannot be negative".into(),
            ));
        }
        if self.backoff_factor < 1.0 {
            return Err(FaultError::InvalidConfig(
                "backoff factor must be >= 1".into(),
            ));
        }
        if self.fence_after == 0 {
            return Err(FaultError::InvalidConfig(
                "fence_after must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Backoff delay before retry number `retry` (1-based).
    #[must_use]
    pub fn backoff_delay(&self, retry: u32) -> SimDuration {
        let factor = self.backoff_factor.powi(retry.saturating_sub(1) as i32);
        SimDuration::from_secs(self.backoff_base.as_secs() * factor)
    }
}

/// The full fault model handed to the engine. Every sub-model is
/// optional; `FaultConfig::default()` injects nothing.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Correlated rack/PDU events, if enabled.
    pub domain: Option<DomainFaultConfig>,
    /// Telemetry sensor faults, if enabled.
    pub sensor: Option<SensorFaultConfig>,
    /// Actuator-command faults, if enabled.
    pub actuator: Option<ActuatorFaultConfig>,
    /// Seed for all fault streams (independent of the engine seed so the
    /// same fault schedule can be replayed under different workloads).
    pub seed: u64,
}

impl FaultConfig {
    /// Validates every configured sub-model.
    pub fn validate(&self) -> Result<(), FaultError> {
        if let Some(d) = &self.domain {
            d.validate()?;
        }
        if let Some(s) = &self.sensor {
            s.validate()?;
        }
        if let Some(a) = &self.actuator {
            a.validate()?;
        }
        Ok(())
    }

    /// Folds the seed and every field of every sub-model into the
    /// engine's resume fingerprint.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.u64(self.seed);
        fp.u64(u64::from(self.domain.is_some()));
        if let Some(d) = &self.domain {
            fp.f64(d.mtbf.as_secs());
            fp.f64(d.repair_time.as_secs());
        }
        fp.u64(u64::from(self.sensor.is_some()));
        if let Some(s) = &self.sensor {
            fp.f64(s.dropout_prob);
            fp.f64(s.stuck_prob);
            fp.f64(s.stuck_duration.as_secs());
            fp.f64(s.staleness_bound.as_secs());
            fp.f64(s.safety_margin_frac);
        }
        fp.u64(u64::from(self.actuator.is_some()));
        if let Some(a) = &self.actuator {
            fp.f64(a.fail_prob);
            fp.u64(u64::from(a.max_retries));
            fp.f64(a.backoff_base.as_secs());
            fp.f64(a.backoff_factor);
            fp.u64(u64::from(a.fence_after));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        FaultConfig::default().validate().unwrap();
        SensorFaultConfig::default().validate().unwrap();
        ActuatorFaultConfig::default().validate().unwrap();
    }

    #[test]
    fn degenerate_domain_rejected() {
        let bad = DomainFaultConfig {
            mtbf: SimDuration::ZERO,
            repair_time: SimDuration::from_hours(1.0),
        };
        assert!(bad.validate().is_err());
        let bad2 = DomainFaultConfig {
            mtbf: SimDuration::from_hours(1.0),
            repair_time: SimDuration::ZERO,
        };
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn probability_bounds_enforced() {
        let s = SensorFaultConfig {
            dropout_prob: 1.5,
            ..SensorFaultConfig::default()
        };
        assert!(s.validate().is_err());
        let mut a = ActuatorFaultConfig {
            fail_prob: -0.1,
            ..ActuatorFaultConfig::default()
        };
        assert!(a.validate().is_err());
        a.fail_prob = 0.5;
        a.fence_after = 0;
        assert!(a.validate().is_err());
    }

    #[test]
    fn backoff_grows_geometrically() {
        let a = ActuatorFaultConfig {
            backoff_base: SimDuration::from_secs(2.0),
            backoff_factor: 2.0,
            ..ActuatorFaultConfig::default()
        };
        assert!((a.backoff_delay(1).as_secs() - 2.0).abs() < 1e-12);
        assert!((a.backoff_delay(2).as_secs() - 4.0).abs() < 1e-12);
        assert!((a.backoff_delay(3).as_secs() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn full_config_validation_cascades() {
        let bad = FaultConfig {
            sensor: Some(SensorFaultConfig {
                staleness_bound: SimDuration::ZERO,
                ..SensorFaultConfig::default()
            }),
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let hash = |c: &FaultConfig| {
            let mut fp = Fingerprint::new();
            c.fingerprint(&mut fp);
            fp.finish()
        };
        let full = FaultConfig {
            domain: Some(DomainFaultConfig {
                mtbf: SimDuration::from_hours(12.0),
                repair_time: SimDuration::from_hours(2.0),
            }),
            sensor: Some(SensorFaultConfig::default()),
            actuator: Some(ActuatorFaultConfig::default()),
            seed: 1,
        };
        type Edit = fn(&mut FaultConfig);
        let edits: [Edit; 16] = [
            |c| c.seed = 2,
            |c| c.domain = None,
            |c| c.domain.as_mut().unwrap().mtbf = SimDuration::from_hours(3.0),
            |c| c.domain.as_mut().unwrap().repair_time = SimDuration::from_hours(1.0),
            |c| c.sensor = None,
            |c| c.sensor.as_mut().unwrap().dropout_prob = 0.5,
            |c| c.sensor.as_mut().unwrap().stuck_prob = 0.5,
            |c| c.sensor.as_mut().unwrap().stuck_duration = SimDuration::from_mins(1.0),
            |c| c.sensor.as_mut().unwrap().staleness_bound = SimDuration::from_mins(1.0),
            |c| c.sensor.as_mut().unwrap().safety_margin_frac = 0.5,
            |c| c.actuator = None,
            |c| c.actuator.as_mut().unwrap().fail_prob = 0.5,
            |c| c.actuator.as_mut().unwrap().max_retries = 9,
            |c| c.actuator.as_mut().unwrap().backoff_base = SimDuration::from_secs(5.0),
            |c| c.actuator.as_mut().unwrap().backoff_factor = 3.0,
            |c| c.actuator.as_mut().unwrap().fence_after = 9,
        ];
        let mut seen = vec![hash(&full)];
        for edit in edits {
            let mut c = full.clone();
            edit(&mut c);
            let h = hash(&c);
            assert!(!seen.contains(&h), "{c:?} collides");
            seen.push(h);
        }
    }
}
