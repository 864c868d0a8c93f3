//! Executes a site model and produces the report the survey engine reads.
//!
//! The runner is the glue between a [`SiteConfig`] and the `epa-sched`
//! engine: it generates the site's workload, wires the policy and
//! production mechanisms, runs the simulated week, and derives the
//! artifacts the survey needs — quantitative Q2/Q3/Q7 answers, the user
//! energy reports, and the component-interaction ledger behind Figure 1.

use crate::config::SiteConfig;
use crate::taxonomy::Capability;
use epa_cluster::layout::{Equipment, FacilityLayout, MaintenanceWindow, PduId};
use epa_power::facility::Facility;
use epa_predict::predictors::{TagMeanPredictor, TemperatureScaledPredictor};
use epa_rm::interactions::{Component, InteractionKind, InteractionLedger};
use epa_rm::reports::{EfficiencyMark, UserEnergyReport};
use epa_sched::engine::{ClusterSim, EngineConfig, SimOutcome};
use epa_sched::policies::registry::make_policy;
use epa_simcore::time::SimTime;
use epa_workload::generator::{WorkloadGenerator, WorkloadSummary};
use std::collections::BTreeMap;

/// Everything a site run produces.
#[derive(Debug)]
pub struct SiteReport {
    /// The site's stable key.
    pub key: String,
    /// Display name.
    pub name: String,
    /// Simulation outcome (Q7: "how well does your solution work?").
    pub outcome: SimOutcome,
    /// Workload summary (Q3, including the Q3e percentiles).
    pub workload: Option<WorkloadSummary>,
    /// Component-interaction ledger (Figure 1).
    pub interactions: InteractionLedger,
    /// Post-job user reports (sites with user reporting), mark → count.
    pub mark_distribution: BTreeMap<String, u64>,
    /// The declared Tables I/II capabilities.
    pub capabilities: Vec<Capability>,
    /// Facility-side figures: mean PUE over the run and supply cost/hour
    /// at mean draw.
    pub mean_pue: f64,
    /// Mean electricity cost rate at the run's average draw, per hour.
    pub mean_cost_per_hour: f64,
    /// Observability bundle: decision trace (per the `EPA_JSRM_TRACE`
    /// enable mask), metrics registry, and wall-clock profile.
    pub obs: epa_obs::ObsBundle,
}

/// Runs a site model to completion.
///
/// # Panics
/// Panics if the site config fails validation (configs in this crate are
/// all validated by tests; external configs should call
/// [`SiteConfig::validate`] first).
#[must_use]
pub fn run_site(site: &SiteConfig) -> SiteReport {
    site.validate().expect("invalid site config");
    let system = site.system.clone().build();
    let jobs = WorkloadGenerator::new(site.workload.clone()).generate(site.horizon, 0);
    let workload_summary = WorkloadSummary::compute(&jobs, site.system.total_nodes(), site.horizon);

    let facility = Facility::new(site.facility.clone()).expect("validated facility");
    let mut config = EngineConfig::new(site.horizon);
    config.trace = epa_obs::TraceConfig::from_env();
    config.power_budget_watts = site.power_budget_watts;
    config.shutdown = site.shutdown.clone();
    config.emergency = site.emergency.clone();
    config.limit_gate = site.limit_gate.clone();
    config.facility = Some(facility.clone());
    if site.layout_aware {
        let mut layout = FacilityLayout::regular(&system, 4, 8);
        // A representative maintenance window mid-week on PDU 0.
        layout.add_maintenance(MaintenanceWindow {
            equipment: Equipment::Pdu(PduId(0)),
            start: SimTime::from_days(3.0),
            end: SimTime::from_days(3.5),
        });
        config.layout = Some(layout);
    }

    let mut policy =
        make_policy(site.policy.registry_name()).expect("PolicyKind maps to a registered policy");

    let mut sim = ClusterSim::new(system, jobs, policy.as_mut(), config);
    if site.meta.key == "riken" {
        // RIKEN's production prediction is temperature-scaled (Table I).
        sim.set_predictor(Box::new(TemperatureScaledPredictor::new(TagMeanPredictor)));
    }
    let (outcome, obs) = sim.run_traced();

    let interactions = synthesize_interactions(site, &outcome);
    let mark_distribution = mark_distribution(site, &outcome);
    let (mean_pue, mean_cost_per_hour) = facility_figures(&facility, &outcome, site.horizon);

    SiteReport {
        key: site.meta.key.clone(),
        name: site.meta.name.clone(),
        outcome,
        workload: workload_summary,
        interactions,
        mark_distribution,
        capabilities: site.capabilities.clone(),
        mean_pue,
        mean_cost_per_hour,
        obs,
    }
}

/// Derives the Figure 1 interaction ledger from engine counters: each
/// engine-event class maps onto a component-to-component message.
fn synthesize_interactions(site: &SiteConfig, outcome: &SimOutcome) -> InteractionLedger {
    let c = &outcome.counters;
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let mut ledger = InteractionLedger::new();
    let mut record_n = |n: u64, from, to, kind| {
        for _ in 0..n.min(1_000_000) {
            ledger.record(from, to, kind);
        }
    };
    // Users submit jobs to the scheduler.
    record_n(
        get("jobs/submitted"),
        Component::Users,
        Component::JobScheduler,
        InteractionKind::ResourceControl,
    );
    // Scheduler instructs the RM to launch each started job.
    record_n(
        get("jobs/started"),
        Component::JobScheduler,
        Component::ResourceManager,
        InteractionKind::ResourceControl,
    );
    // The RM actuates hardware per start (allocate + launch).
    record_n(
        2 * get("jobs/started"),
        Component::ResourceManager,
        Component::Hardware,
        InteractionKind::ResourceControl,
    );
    // Scheduler consults analytics (prediction) per start.
    record_n(
        get("jobs/started"),
        Component::JobScheduler,
        Component::Analytics,
        InteractionKind::ResourceMonitor,
    );
    // Telemetry samples hardware power every tick; the RM reads telemetry.
    record_n(
        get("rm/power_ticks"),
        Component::Telemetry,
        Component::Hardware,
        InteractionKind::PowerMonitor,
    );
    record_n(
        get("rm/power_ticks"),
        Component::ResourceManager,
        Component::Telemetry,
        InteractionKind::PowerMonitor,
    );
    // Boots/shutdowns are RM → hardware power control.
    record_n(
        get("rm/boots") + get("rm/shutdowns"),
        Component::ResourceManager,
        Component::Hardware,
        InteractionKind::PowerControl,
    );
    // Emergency responses touch the facility and kill jobs.
    record_n(
        get("emergency/breaches"),
        Component::Facility,
        Component::ResourceManager,
        InteractionKind::PowerMonitor,
    );
    record_n(
        get("emergency/kills"),
        Component::ResourceManager,
        Component::Hardware,
        InteractionKind::ResourceControl,
    );
    // Sites with user reporting send a report per completed job.
    if site
        .capabilities
        .iter()
        .any(|cap| cap.mechanism == crate::taxonomy::Mechanism::UserReporting)
    {
        record_n(
            get("jobs/completed"),
            Component::ResourceManager,
            Component::Users,
            InteractionKind::ResourceMonitor,
        );
    }
    ledger
}

/// Builds the Tokyo-Tech-style end-of-job mark distribution.
fn mark_distribution(site: &SiteConfig, outcome: &SimOutcome) -> BTreeMap<String, u64> {
    let mut dist = BTreeMap::new();
    let has_reporting = site
        .capabilities
        .iter()
        .any(|c| c.mechanism == crate::taxonomy::Mechanism::UserReporting);
    if !has_reporting {
        return dist;
    }
    for job in &outcome.jobs {
        if job.run_secs <= 0.0 {
            continue;
        }
        let report = UserEnergyReport::new(
            job.id,
            0,
            job.nodes,
            job.run_secs,
            job.energy_joules,
            site.system.node.nominal_watts,
        );
        *dist.entry(report.mark.to_string()).or_insert(0) += 1;
    }
    // Guarantee all marks appear as keys for stable tables.
    for m in [
        EfficiencyMark::A,
        EfficiencyMark::B,
        EfficiencyMark::C,
        EfficiencyMark::D,
        EfficiencyMark::E,
    ] {
        dist.entry(m.to_string()).or_insert(0);
    }
    dist
}

fn facility_figures(facility: &Facility, outcome: &SimOutcome, horizon: SimTime) -> (f64, f64) {
    // Sample PUE across the run at 6 h intervals.
    let mut pue_sum = 0.0;
    let mut n = 0u32;
    let mut t = SimTime::ZERO;
    while t <= horizon {
        pue_sum += facility.pue(t);
        n += 1;
        t += epa_simcore::time::SimDuration::from_hours(6.0);
    }
    let mean_pue = pue_sum / f64::from(n.max(1));
    let dispatch = facility.dispatch(outcome.avg_watts * mean_pue);
    (mean_pue, dispatch.cost_per_hour)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centers;

    #[test]
    fn stfc_runs_and_reports() {
        // STFC: smallest machine, no budget — fastest full-feature run.
        let mut site = centers::stfc::config(7);
        site.horizon = SimTime::from_days(2.0);
        let report = run_site(&site);
        assert!(
            report.outcome.completed > 10,
            "completed {}",
            report.outcome.completed
        );
        assert!(report.outcome.utilization > 0.0);
        let w = report.workload.as_ref().unwrap();
        assert!(w.jobs > 0);
        assert!(report.interactions.total() > 0);
        assert!(report.mean_pue >= 1.0);
        assert!(report.mean_cost_per_hour > 0.0);
    }

    #[test]
    fn tokyo_tech_shutdowns_happen_and_reports_marked() {
        let mut site = centers::tokyo_tech::config(7);
        site.horizon = SimTime::from_days(2.0);
        let report = run_site(&site);
        // Summer-start + 20 min idle threshold: shutdowns must fire.
        assert!(
            report
                .outcome
                .counters
                .get("rm/shutdowns")
                .copied()
                .unwrap_or(0)
                > 0,
            "counters: {:?}",
            report.outcome.counters
        );
        // User reporting capability → mark distribution populated.
        let total: u64 = report.mark_distribution.values().sum();
        assert_eq!(total, report.outcome.completed);
    }

    #[test]
    fn riken_emergency_configured() {
        let mut site = centers::riken::config(7);
        site.horizon = SimTime::from_days(2.0);
        let report = run_site(&site);
        assert!(report.outcome.completed > 0);
        // No marks: RIKEN's Table I row has no user reporting.
        assert!(report.mark_distribution.is_empty());
    }
}
