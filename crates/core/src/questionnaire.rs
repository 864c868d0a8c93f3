//! The Q1–Q8 questionnaire (survey §IV) as a typed schema.
//!
//! The paper's §IV lists eight questions with sub-items. Here each
//! question is a variant of [`Question`], and [`SiteResponse`] holds a
//! site's structured answers — the quantitative ones (Q2 power figures,
//! Q3 workload statistics, Q7 results) computed from the site
//! simulation, the categorical ones (Q1, Q4–Q6, Q8) derived from the
//! site's declared capabilities and metadata.

use epa_simcore::stats::SummaryStats;
use epa_sites::config::SiteConfig;
use epa_sites::runner::SiteReport;
use epa_sites::taxonomy::{Mechanism, Stage};
use serde::Serialize;

/// The eight survey questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Question {
    /// Q1: motivation.
    Q1Motivation,
    /// Q2: data center and system description.
    Q2SystemDescription,
    /// Q3: general workload.
    Q3Workload,
    /// Q4: EPA JSRM capabilities.
    Q4Capabilities,
    /// Q5: elements comprising the solution.
    Q5Elements,
    /// Q6: application/task-level joint optimization.
    Q6JointOptimization,
    /// Q7: how well does the solution work.
    Q7Efficacy,
    /// Q8: next steps.
    Q8NextSteps,
}

impl Question {
    /// All questions in survey order.
    pub const ALL: [Question; 8] = [
        Question::Q1Motivation,
        Question::Q2SystemDescription,
        Question::Q3Workload,
        Question::Q4Capabilities,
        Question::Q5Elements,
        Question::Q6JointOptimization,
        Question::Q7Efficacy,
        Question::Q8NextSteps,
    ];
}

/// Q2's quantitative answer.
#[derive(Debug, Clone, Serialize)]
pub struct SystemAnswer {
    /// Q2(a): site power budget, watts.
    pub site_budget_watts: f64,
    /// Q2(b): cooling capacity, watts.
    pub cooling_capacity_watts: f64,
    /// Q2(c): cabinets.
    pub cabinets: u32,
    /// Q2(c): nodes.
    pub nodes: u32,
    /// Q2(c): cores.
    pub cores: u64,
    /// Q2(c): peak performance, TFLOP/s.
    pub peak_tflops: f64,
    /// Q2(c): idle draw, watts.
    pub idle_watts: f64,
    /// Q2(c): average draw measured in the run, watts.
    pub avg_watts: f64,
    /// Q2(c): peak draw measured in the run, watts.
    pub peak_watts: f64,
}

/// Q3's quantitative answer.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadAnswer {
    /// Q3(c): jobs per month.
    pub jobs_per_month: f64,
    /// Q3(d): capability share of node-seconds.
    pub capability_share: f64,
    /// Q3(e): job size percentiles (nodes).
    pub size: SummaryStats,
    /// Q3(e): wallclock percentiles (seconds).
    pub runtime_secs: SummaryStats,
}

/// Q7's quantitative answer.
#[derive(Debug, Clone, Serialize)]
pub struct EfficacyAnswer {
    /// Node utilization achieved.
    pub utilization: f64,
    /// Mean wait, seconds.
    pub mean_wait_secs: f64,
    /// Energy per completed job, joules.
    pub energy_per_job_joules: f64,
    /// Seconds over the power budget (0 = the solution held the cap).
    pub budget_violation_secs: f64,
    /// Jobs killed by emergency response.
    pub emergency_kills: u64,
}

/// One site's structured questionnaire response.
#[derive(Debug, Clone, Serialize)]
pub struct SiteResponse {
    /// Site key.
    pub site: String,
    /// Q1.
    pub motivation: String,
    /// Q2.
    pub system: SystemAnswer,
    /// Q3 (None when the workload produced no jobs).
    pub workload: Option<WorkloadAnswer>,
    /// Q4: capability descriptions by stage.
    pub capabilities: Vec<(Stage, Mechanism, String)>,
    /// Q5: products/elements involved.
    pub elements: Vec<String>,
    /// Q6: true when the site does topology-/application-aware placement.
    pub joint_optimization: bool,
    /// Q7.
    pub efficacy: EfficacyAnswer,
    /// Q8: the tech-development items are the declared next steps.
    pub next_steps: Vec<String>,
}

impl SiteResponse {
    /// Assembles a response from the site's config and its run report.
    #[must_use]
    pub fn assemble(config: &SiteConfig, report: &SiteReport) -> SiteResponse {
        SiteResponse {
            site: config.meta.key.clone(),
            motivation: config.meta.motivation.clone(),
            system: SystemAnswer {
                site_budget_watts: config.facility.site_budget_watts,
                cooling_capacity_watts: config.facility.cooling_capacity_watts,
                cabinets: config.system.cabinets,
                nodes: config.system.total_nodes(),
                cores: config.system.total_cores(),
                peak_tflops: config.system.peak_tflops,
                idle_watts: config.system.idle_watts(),
                avg_watts: report.outcome.avg_watts,
                peak_watts: report.outcome.peak_watts,
            },
            workload: report.workload.as_ref().map(|w| WorkloadAnswer {
                jobs_per_month: w.jobs_per_month,
                capability_share: w.capability_share,
                size: w.size,
                runtime_secs: w.runtime_secs,
            }),
            capabilities: config
                .capabilities
                .iter()
                .map(|c| (c.stage, c.mechanism, c.description.clone()))
                .collect(),
            elements: config.meta.products.clone(),
            joint_optimization: config
                .capabilities
                .iter()
                .any(|c| c.mechanism == Mechanism::TopologyAware),
            efficacy: EfficacyAnswer {
                utilization: report.outcome.utilization,
                mean_wait_secs: report.outcome.mean_wait_secs,
                energy_per_job_joules: report.outcome.energy_per_job_joules,
                budget_violation_secs: report.outcome.budget_violation_secs,
                emergency_kills: report.outcome.emergency_kills,
            },
            next_steps: config
                .capabilities
                .iter()
                .filter(|c| c.stage == Stage::TechDevelopment)
                .map(|c| c.description.clone())
                .collect(),
        }
    }

    /// Renders the answer to one question as prose + figures.
    #[must_use]
    pub fn answer(&self, q: Question) -> String {
        match q {
            Question::Q1Motivation => self.motivation.clone(),
            Question::Q2SystemDescription => format!(
                "{} cabinets, {} nodes, {} cores, {:.0} TF peak; site budget {:.1} kW, cooling {:.1} kW; idle {:.1} kW, avg {:.1} kW, peak {:.1} kW",
                self.system.cabinets,
                self.system.nodes,
                self.system.cores,
                self.system.peak_tflops,
                self.system.site_budget_watts / 1e3,
                self.system.cooling_capacity_watts / 1e3,
                self.system.idle_watts / 1e3,
                self.system.avg_watts / 1e3,
                self.system.peak_watts / 1e3,
            ),
            Question::Q3Workload => match &self.workload {
                Some(w) => format!(
                    "{:.0} jobs/month; capability share {:.0}%; size min/median/max = {:.0}/{:.0}/{:.0} nodes (p10 {:.0}, p90 {:.0}); wallclock median {:.1} h (p10 {:.1} h, p90 {:.1} h)",
                    w.jobs_per_month,
                    100.0 * w.capability_share,
                    w.size.min,
                    w.size.median,
                    w.size.max,
                    w.size.p10,
                    w.size.p90,
                    w.runtime_secs.median / 3600.0,
                    w.runtime_secs.p10 / 3600.0,
                    w.runtime_secs.p90 / 3600.0,
                ),
                None => "no workload recorded".into(),
            },
            Question::Q4Capabilities => self
                .capabilities
                .iter()
                .filter(|(s, ..)| *s == Stage::Production)
                .map(|(_, _, d)| d.as_str())
                .collect::<Vec<_>>()
                .join("; "),
            Question::Q5Elements => self.elements.join(", "),
            Question::Q6JointOptimization => {
                if self.joint_optimization {
                    "yes: topology-/application-aware placement in production".into()
                } else {
                    "no application/task-level joint optimization reported".into()
                }
            }
            Question::Q7Efficacy => format!(
                "utilization {:.0}%, mean wait {:.1} h, energy/job {:.1} kWh, budget violations {:.0} s, emergency kills {}",
                100.0 * self.efficacy.utilization,
                self.efficacy.mean_wait_secs / 3600.0,
                self.efficacy.energy_per_job_joules / 3.6e6,
                self.efficacy.budget_violation_secs,
                self.efficacy.emergency_kills,
            ),
            Question::Q8NextSteps => {
                if self.next_steps.is_empty() {
                    "continue production operation".into()
                } else {
                    self.next_steps.join("; ")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_simcore::time::SimTime;
    use epa_sites::centers;
    use epa_sites::runner::run_site;

    fn small_report() -> (SiteConfig, SiteReport) {
        let mut site = centers::stfc::config(3);
        site.horizon = SimTime::from_days(1.0);
        let report = run_site(&site);
        (site, report)
    }

    #[test]
    fn assemble_covers_all_questions() {
        let (config, report) = small_report();
        let r = SiteResponse::assemble(&config, &report);
        for q in Question::ALL {
            let text = r.answer(q);
            assert!(!text.is_empty(), "{q:?} answer empty");
        }
        assert_eq!(r.site, "stfc");
        assert_eq!(r.system.nodes, 360);
        assert!(r.workload.is_some());
    }

    #[test]
    fn q8_lists_tech_development() {
        let (config, report) = small_report();
        let r = SiteResponse::assemble(&config, &report);
        assert!(r.answer(Question::Q8NextSteps).contains("reporting tool"));
    }

    #[test]
    fn q6_negative_for_stfc() {
        let (config, report) = small_report();
        let r = SiteResponse::assemble(&config, &report);
        assert!(!r.joint_optimization);
        assert!(r.answer(Question::Q6JointOptimization).starts_with("no"));
    }
}
