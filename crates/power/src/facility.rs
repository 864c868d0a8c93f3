//! Data-center facility model: site budget, cooling, weather, supply.
//!
//! Survey question Q2(a)/(b) asks for total site power budget and cooling
//! capacity; several Table I/II capabilities live at this level:
//!
//! - RIKEN integrates job-scheduler information with the decision to draw
//!   from the **grid vs. its gas co-generation turbines** — modeled as two
//!   [`SupplySource`]s with capacities and per-MWh costs.
//! - LRZ links the scheduler to **IT infrastructure + cooling** and may
//!   delay jobs when the infrastructure is inefficient — modeled by a
//!   weather-driven PUE curve: facility draw = IT draw × PUE(T_outside).
//! - Tokyo Tech's **summer-only enforcement** and CINECA's MS3 ("do less
//!   when it's too hot") key off the same weather model.

use crate::error::PowerError;
use epa_simcore::rng::SimRng;
use epa_simcore::snap::Fingerprint;
use epa_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// An electricity supply source with a capacity and a cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupplySource {
    /// Human-readable name ("grid", "gas turbine").
    pub name: String,
    /// Maximum deliverable power in watts.
    pub capacity_watts: f64,
    /// Cost per megawatt-hour in currency units.
    pub cost_per_mwh: f64,
}

/// Sinusoidal diurnal + seasonal outdoor temperature with deterministic
/// per-day jitter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeatherModel {
    /// Annual mean temperature, °C.
    pub mean_c: f64,
    /// Half the summer-to-winter swing, °C.
    pub seasonal_amplitude_c: f64,
    /// Half the day-to-night swing, °C.
    pub diurnal_amplitude_c: f64,
    /// Standard deviation of daily jitter, °C.
    pub noise_std_c: f64,
    /// Day-of-year (0-based) at which the simulation starts; lets a run
    /// start mid-summer (Tokyo Tech's enforcement season).
    pub start_day_of_year: u32,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for WeatherModel {
    fn default() -> Self {
        WeatherModel {
            mean_c: 15.0,
            seasonal_amplitude_c: 10.0,
            diurnal_amplitude_c: 5.0,
            noise_std_c: 1.5,
            start_day_of_year: 0,
            seed: 0x5eed,
        }
    }
}

impl WeatherModel {
    /// Outdoor temperature at simulation time `t`, °C.
    ///
    /// Deterministic in (model, t): the jitter is drawn from a per-day
    /// substream, so queries at any order reproduce the same trace.
    #[must_use]
    pub fn temperature_c(&self, t: SimTime) -> f64 {
        let day = f64::from(self.start_day_of_year) + t.as_days();
        // Seasonal: peak at day 172 (late June, northern hemisphere).
        let seasonal = self.seasonal_amplitude_c
            * (2.0 * std::f64::consts::PI * (day - 172.0 + 91.25) / 365.0).sin();
        // Diurnal: peak at 15:00.
        let hour = t.hour_of_day();
        let diurnal =
            self.diurnal_amplitude_c * (2.0 * std::f64::consts::PI * (hour - 9.0) / 24.0).sin();
        let mut jitter_rng = SimRng::new(self.seed).stream_indexed("weather-day", day as u64);
        let jitter = jitter_rng.normal(0.0, self.noise_std_c);
        self.mean_c + seasonal + diurnal + jitter
    }
}

/// Facility configuration: budget, cooling, supply, PUE curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FacilityConfig {
    /// Q2(a): total site power budget in watts (facility side).
    pub site_budget_watts: f64,
    /// Q2(b): total cooling capacity in watts of heat removal.
    pub cooling_capacity_watts: f64,
    /// PUE at the reference outdoor temperature.
    pub base_pue: f64,
    /// PUE increase per °C above the reference temperature (chillers work
    /// harder when it is hot; free cooling stops helping).
    pub pue_per_degree: f64,
    /// Reference temperature for `base_pue`, °C.
    pub reference_temp_c: f64,
    /// Electricity supply sources, ordered by preference (cheapest first).
    pub supplies: Vec<SupplySource>,
    /// Weather at the site.
    pub weather: WeatherModel,
}

impl FacilityConfig {
    /// A generic single-grid facility with a given budget.
    #[must_use]
    pub fn simple(site_budget_watts: f64) -> Self {
        FacilityConfig {
            site_budget_watts,
            cooling_capacity_watts: site_budget_watts,
            base_pue: 1.25,
            pue_per_degree: 0.008,
            reference_temp_c: 15.0,
            supplies: vec![SupplySource {
                name: "grid".into(),
                capacity_watts: site_budget_watts,
                cost_per_mwh: 80.0,
            }],
            weather: WeatherModel::default(),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), PowerError> {
        if self.site_budget_watts <= 0.0 {
            return Err(PowerError::InvalidConfig(
                "site budget must be positive".into(),
            ));
        }
        if self.base_pue < 1.0 {
            return Err(PowerError::InvalidConfig(format!(
                "PUE cannot be below 1.0, got {}",
                self.base_pue
            )));
        }
        if self.supplies.is_empty() {
            return Err(PowerError::InvalidConfig(
                "at least one supply source required".into(),
            ));
        }
        for s in &self.supplies {
            if s.capacity_watts <= 0.0 {
                return Err(PowerError::InvalidConfig(format!(
                    "supply '{}' capacity must be positive",
                    s.name
                )));
            }
        }
        Ok(())
    }

    /// Folds every field — budget, cooling, PUE curve, each supply and
    /// the weather model — into a resume fingerprint.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.f64(self.site_budget_watts)
            .f64(self.cooling_capacity_watts);
        fp.f64(self.base_pue).f64(self.pue_per_degree);
        fp.f64(self.reference_temp_c);
        fp.u64(self.supplies.len() as u64);
        for s in &self.supplies {
            fp.str(&s.name).f64(s.capacity_watts).f64(s.cost_per_mwh);
        }
        let w = &self.weather;
        fp.f64(w.mean_c).f64(w.seasonal_amplitude_c);
        fp.f64(w.diurnal_amplitude_c).f64(w.noise_std_c);
        fp.u64(u64::from(w.start_day_of_year)).u64(w.seed);
    }
}

/// A dispatch of facility load onto supply sources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupplyDispatch {
    /// Watts drawn from each source, same order as the config.
    pub draws_watts: Vec<f64>,
    /// Cost rate in currency units per hour.
    pub cost_per_hour: f64,
    /// Watts of demand that no source could cover (0 when feasible).
    pub shortfall_watts: f64,
}

/// The facility: answers "what does this IT load mean at the meter?".
#[derive(Debug, Clone)]
pub struct Facility {
    config: FacilityConfig,
}

impl Facility {
    /// Creates a facility from a validated config.
    pub fn new(config: FacilityConfig) -> Result<Self, PowerError> {
        config.validate()?;
        Ok(Facility { config })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FacilityConfig {
        &self.config
    }

    /// Outdoor temperature at `t`.
    #[must_use]
    pub fn temperature_c(&self, t: SimTime) -> f64 {
        self.config.weather.temperature_c(t)
    }

    /// PUE at time `t` (weather dependent, floored at 1.0).
    #[must_use]
    pub fn pue(&self, t: SimTime) -> f64 {
        let temp = self.temperature_c(t);
        (self.config.base_pue + self.config.pue_per_degree * (temp - self.config.reference_temp_c))
            .max(1.0)
    }

    /// Dispatches a facility-side demand onto the supply sources in config
    /// order (cheapest-first by convention), reporting cost and shortfall.
    ///
    /// This is RIKEN's grid-vs-gas-turbine decision: the scheduler can ask
    /// "what would this load cost" and shift work accordingly.
    #[must_use]
    pub fn dispatch(&self, facility_watts: f64) -> SupplyDispatch {
        let mut remaining = facility_watts.max(0.0);
        let mut draws = Vec::with_capacity(self.config.supplies.len());
        let mut cost = 0.0;
        for s in &self.config.supplies {
            let take = remaining.min(s.capacity_watts);
            draws.push(take);
            // W → MW, × cost/MWh = cost/hour.
            cost += take / 1e6 * s.cost_per_mwh;
            remaining -= take;
        }
        SupplyDispatch {
            draws_watts: draws,
            cost_per_hour: cost,
            shortfall_watts: remaining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_simcore::time::SimDuration;

    #[test]
    fn simple_config_validates() {
        Facility::new(FacilityConfig::simple(1e6)).unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = FacilityConfig::simple(1e6);
        c.base_pue = 0.9;
        assert!(Facility::new(c).is_err());
        let mut c2 = FacilityConfig::simple(1e6);
        c2.supplies.clear();
        assert!(Facility::new(c2).is_err());
        assert!(Facility::new(FacilityConfig::simple(-5.0)).is_err());
    }

    #[test]
    fn weather_is_deterministic() {
        let w = WeatherModel::default();
        let t = SimTime::from_hours(30.0);
        assert_eq!(w.temperature_c(t), w.temperature_c(t));
    }

    #[test]
    fn weather_summer_hotter_than_winter() {
        let w = WeatherModel {
            noise_std_c: 0.0,
            ..WeatherModel::default()
        };
        let summer = WeatherModel {
            start_day_of_year: 172,
            ..w.clone()
        };
        let winter = WeatherModel {
            start_day_of_year: 355,
            ..w
        };
        let noon = SimTime::from_hours(12.0);
        assert!(summer.temperature_c(noon) > winter.temperature_c(noon) + 5.0);
    }

    #[test]
    fn weather_afternoon_hotter_than_night() {
        let w = WeatherModel {
            noise_std_c: 0.0,
            ..WeatherModel::default()
        };
        let afternoon = SimTime::from_hours(15.0);
        let night = SimTime::from_hours(3.0);
        assert!(w.temperature_c(afternoon) > w.temperature_c(night));
    }

    #[test]
    fn pue_rises_with_heat_and_floors_at_one() {
        let mut config = FacilityConfig::simple(1e6);
        config.weather.noise_std_c = 0.0;
        config.weather.start_day_of_year = 172; // summer
        let f = Facility::new(config.clone()).unwrap();
        let hot = f.pue(SimTime::from_hours(15.0));
        config.weather.start_day_of_year = 355; // winter
        let f2 = Facility::new(config).unwrap();
        let cold = f2.pue(SimTime::from_hours(15.0));
        assert!(hot > cold);
        assert!(cold >= 1.0);
    }

    #[test]
    fn dispatch_prefers_first_source() {
        let mut config = FacilityConfig::simple(1e6);
        config.supplies = vec![
            SupplySource {
                name: "grid".into(),
                capacity_watts: 500e3,
                cost_per_mwh: 60.0,
            },
            SupplySource {
                name: "gas-turbine".into(),
                capacity_watts: 800e3,
                cost_per_mwh: 110.0,
            },
        ];
        let f = Facility::new(config).unwrap();
        let d = f.dispatch(700e3);
        assert!((d.draws_watts[0] - 500e3).abs() < 1e-6);
        assert!((d.draws_watts[1] - 200e3).abs() < 1e-6);
        assert_eq!(d.shortfall_watts, 0.0);
        let expected_cost = 0.5 * 60.0 + 0.2 * 110.0;
        assert!((d.cost_per_hour - expected_cost).abs() < 1e-9);
    }

    #[test]
    fn dispatch_reports_shortfall() {
        let f = Facility::new(FacilityConfig::simple(1e6)).unwrap();
        let d = f.dispatch(2e6);
        assert!((d.shortfall_watts - 1e6).abs() < 1e-6);
    }

    #[test]
    fn dispatch_negative_demand_is_zero() {
        let f = Facility::new(FacilityConfig::simple(1e6)).unwrap();
        let d = f.dispatch(-100.0);
        assert_eq!(d.draws_watts[0], 0.0);
        assert_eq!(d.cost_per_hour, 0.0);
    }

    #[test]
    fn temperature_continuity_across_days() {
        // No giant jumps from the jitter stream across day boundaries.
        let w = WeatherModel {
            noise_std_c: 0.5,
            ..WeatherModel::default()
        };
        let mut t = SimTime::ZERO;
        let mut prev = w.temperature_c(t);
        for _ in 0..48 {
            t += SimDuration::from_hours(1.0);
            let cur = w.temperature_c(t);
            assert!((cur - prev).abs() < 8.0, "jump {} -> {}", prev, cur);
            prev = cur;
        }
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let hash = |c: &FacilityConfig| {
            let mut fp = Fingerprint::new();
            c.fingerprint(&mut fp);
            fp.finish()
        };
        let base = FacilityConfig::simple(1e6);
        type Edit = fn(&mut FacilityConfig);
        let edits: [Edit; 15] = [
            |c| c.site_budget_watts = 2e6,
            |c| c.cooling_capacity_watts = 2e6,
            |c| c.base_pue = 1.5,
            |c| c.pue_per_degree = 0.01,
            |c| c.reference_temp_c = 20.0,
            |c| c.supplies.push(c.supplies[0].clone()),
            |c| c.supplies[0].name = "gas".into(),
            |c| c.supplies[0].capacity_watts = 3e6,
            |c| c.supplies[0].cost_per_mwh = 90.0,
            |c| c.weather.mean_c = 25.0,
            |c| c.weather.seasonal_amplitude_c = 1.0,
            |c| c.weather.diurnal_amplitude_c = 1.0,
            |c| c.weather.noise_std_c = 0.0,
            |c| c.weather.start_day_of_year = 172,
            |c| c.weather.seed = 7,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut c = base.clone();
            edit(&mut c);
            assert_ne!(
                hash(&c),
                hash(&base),
                "edit {i} left the fingerprint unchanged"
            );
        }
        assert_eq!(hash(&base.clone()), hash(&base));
    }
}
