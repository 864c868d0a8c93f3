//! Telemetry: sampled sensor readings.
//!
//! The survey's Figure 1 puts telemetry sensors at the center of the
//! control loop: "the control of energy/power is heavily dependent on
//! telemetry sensors that are responsible for constantly monitoring the
//! activity of the system resources." Real sensors sample at a finite
//! rate, quantize, and carry noise — policies built on them act on a
//! *degraded* view of the true power. This module models that degradation,
//! and the sampling-interval ablation bench quantifies its effect.
//!
//! Sensor *failures* (dropout, stuck-at) are not modelled here: the
//! engine's fault plane draws them from its own `faults-sensor` stream
//! and tracks reading staleness itself.

use crate::error::PowerError;
use epa_simcore::rng::SimRng;
use epa_simcore::series::TimeSeries;
use epa_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Sensor characteristics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Sampling interval.
    pub interval: SimDuration,
    /// Multiplicative gaussian noise std (0.01 = 1% of reading).
    pub noise_fraction: f64,
    /// Quantization step in watts (0 = no quantization).
    pub quantization_watts: f64,
    /// RNG seed for the noise stream.
    pub seed: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: SimDuration::from_secs(1.0),
            noise_fraction: 0.01,
            quantization_watts: 1.0,
            seed: 0x7e1e,
        }
    }
}

impl TelemetryConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), PowerError> {
        if self.interval.is_zero() {
            return Err(PowerError::InvalidConfig(
                "sampling interval must be positive".into(),
            ));
        }
        if self.noise_fraction < 0.0 {
            return Err(PowerError::InvalidConfig(
                "noise fraction cannot be negative".into(),
            ));
        }
        if self.quantization_watts < 0.0 {
            return Err(PowerError::InvalidConfig(
                "quantization cannot be negative".into(),
            ));
        }
        Ok(())
    }
}

/// One sampled reading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// Sample timestamp.
    pub t: SimTime,
    /// Observed (noisy, quantized) watts.
    pub watts: f64,
}

/// A telemetry pipeline sampling a true power trace.
#[derive(Debug, Clone)]
pub struct Telemetry {
    config: TelemetryConfig,
    readings: Vec<Reading>,
}

impl Telemetry {
    /// Creates a pipeline from a validated config.
    pub fn new(config: TelemetryConfig) -> Result<Self, PowerError> {
        config.validate()?;
        Ok(Telemetry {
            config,
            readings: Vec::new(),
        })
    }

    /// Samples the true trace over `[from, to]` at the configured interval,
    /// appending degraded readings. Returns the number of samples taken.
    pub fn sample_trace(&mut self, trace: &TimeSeries, from: SimTime, to: SimTime) -> usize {
        let mut rng = SimRng::new(self.config.seed).stream_indexed(
            "telemetry",
            // Distinct noise per sampling campaign, deterministic per start.
            from.as_secs().to_bits(),
        );
        let mut t = from;
        let mut taken = 0;
        while t <= to {
            let truth = trace.value_at(t).unwrap_or(0.0);
            let noisy = truth * (1.0 + rng.normal(0.0, self.config.noise_fraction));
            let q = self.config.quantization_watts;
            let watts = if q > 0.0 {
                (noisy / q).round() * q
            } else {
                noisy
            };
            self.readings.push(Reading {
                t,
                watts: watts.max(0.0),
            });
            taken += 1;
            t += self.config.interval;
        }
        taken
    }

    /// All readings so far.
    #[must_use]
    pub fn readings(&self) -> &[Reading] {
        &self.readings
    }

    /// Mean of readings in `[from, to]` — what a monitoring dashboard or a
    /// windowed control loop would report.
    #[must_use]
    pub fn observed_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let xs: Vec<f64> = self
            .readings
            .iter()
            .filter(|r| r.t >= from && r.t <= to)
            .map(|r| r.watts)
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn noiseless() -> TelemetryConfig {
        TelemetryConfig {
            interval: SimDuration::from_secs(1.0),
            noise_fraction: 0.0,
            quantization_watts: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn noiseless_sampling_reads_truth() {
        let mut trace = TimeSeries::new();
        trace.push(t(0.0), 100.0);
        trace.push(t(5.0), 250.0);
        let mut tel = Telemetry::new(noiseless()).unwrap();
        let n = tel.sample_trace(&trace, t(0.0), t(9.0));
        assert_eq!(n, 10);
        assert_eq!(tel.readings()[0].watts, 100.0);
        assert_eq!(tel.readings()[4].watts, 100.0);
        assert_eq!(tel.readings()[5].watts, 250.0);
        assert_eq!(tel.readings().last().unwrap().watts, 250.0);
    }

    #[test]
    fn quantization_rounds() {
        let mut cfg = noiseless();
        cfg.quantization_watts = 10.0;
        let mut trace = TimeSeries::new();
        trace.push(t(0.0), 104.9);
        let mut tel = Telemetry::new(cfg).unwrap();
        tel.sample_trace(&trace, t(0.0), t(0.0));
        assert_eq!(tel.readings()[0].watts, 100.0);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut trace = TimeSeries::new();
        trace.push(t(0.0), 200.0);
        let cfg = TelemetryConfig::default();
        let mut a = Telemetry::new(cfg.clone()).unwrap();
        let mut b = Telemetry::new(cfg).unwrap();
        a.sample_trace(&trace, t(0.0), t(10.0));
        b.sample_trace(&trace, t(0.0), t(10.0));
        assert_eq!(a.readings(), b.readings());
    }

    #[test]
    fn observed_mean_windows() {
        let mut trace = TimeSeries::new();
        trace.push(t(0.0), 100.0);
        let mut tel = Telemetry::new(noiseless()).unwrap();
        tel.sample_trace(&trace, t(0.0), t(9.0));
        assert_eq!(tel.observed_mean(t(0.0), t(9.0)), Some(100.0));
        assert_eq!(tel.observed_mean(t(100.0), t(200.0)), None);
    }

    #[test]
    fn coarse_interval_takes_fewer_samples() {
        let mut trace = TimeSeries::new();
        trace.push(t(0.0), 100.0);
        let mut cfg = noiseless();
        cfg.interval = SimDuration::from_secs(5.0);
        let mut tel = Telemetry::new(cfg).unwrap();
        let n = tel.sample_trace(&trace, t(0.0), t(60.0));
        assert_eq!(n, 13);
        assert_eq!(tel.readings().len(), 13);
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = TelemetryConfig {
            interval: SimDuration::ZERO,
            ..TelemetryConfig::default()
        };
        assert!(Telemetry::new(cfg).is_err());
        let cfg2 = TelemetryConfig {
            noise_fraction: -0.1,
            ..TelemetryConfig::default()
        };
        assert!(Telemetry::new(cfg2).is_err());
    }

    #[test]
    fn readings_never_negative() {
        let mut trace = TimeSeries::new();
        trace.push(t(0.0), 0.5);
        let cfg = TelemetryConfig {
            noise_fraction: 5.0, // extreme noise
            ..TelemetryConfig::default()
        };
        let mut tel = Telemetry::new(cfg).unwrap();
        tel.sample_trace(&trace, t(0.0), t(50.0));
        assert!(tel.readings().iter().all(|r| r.watts >= 0.0));
    }
}
