//! The run-history archive.
//!
//! Stores one [`RunRecord`] per completed job, indexed by user and
//! application tag. This is the data substrate every predictor consumes —
//! the "power and energy info archived long term" that Tokyo Tech reports
//! analyzing for EPA scheduling.

use epa_workload::job::Job;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One completed run's observed facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Submitting user.
    pub user: u32,
    /// Application tag.
    pub tag: String,
    /// Nodes used.
    pub nodes: u32,
    /// Observed runtime in seconds.
    pub runtime_secs: f64,
    /// Observed average power per node in watts.
    pub watts_per_node: f64,
    /// Outdoor temperature during the run, °C (drives RIKEN's model).
    pub ambient_c: f64,
}

impl RunRecord {
    /// Total energy of the run in joules.
    #[must_use]
    pub fn energy_joules(&self) -> f64 {
        self.watts_per_node * f64::from(self.nodes) * self.runtime_secs
    }
}

/// Archive of completed runs with per-tag and per-(user, tag) indices.
#[derive(Debug, Clone, Default)]
pub struct HistoryStore {
    records: Vec<RunRecord>,
    by_tag: HashMap<String, Vec<usize>>,
    by_user_tag: HashMap<(u32, String), Vec<usize>>,
}

impl HistoryStore {
    /// Creates an empty archive.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed run.
    pub fn record(&mut self, rec: RunRecord) {
        let idx = self.records.len();
        self.by_tag.entry(rec.tag.clone()).or_default().push(idx);
        self.by_user_tag
            .entry((rec.user, rec.tag.clone()))
            .or_default()
            .push(idx);
        self.records.push(rec);
    }

    /// Convenience: records a run derived from a job plus observations.
    pub fn record_job(
        &mut self,
        job: &Job,
        runtime_secs: f64,
        watts_per_node: f64,
        ambient_c: f64,
    ) {
        self.record(RunRecord {
            user: job.user,
            tag: job.app.tag.clone(),
            nodes: job.nodes,
            runtime_secs,
            watts_per_node,
            ambient_c,
        });
    }

    /// Number of archived runs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no runs are archived.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in archive order.
    #[must_use]
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Records matching an application tag.
    pub fn for_tag(&self, tag: &str) -> impl Iterator<Item = &RunRecord> {
        self.by_tag
            .get(tag)
            .into_iter()
            .flatten()
            .map(|&i| &self.records[i])
    }

    /// Records matching (user, tag) — the most specific key.
    pub fn for_user_tag(&self, user: u32, tag: &str) -> impl Iterator<Item = &RunRecord> {
        self.by_user_tag
            .get(&(user, tag.to_owned()))
            .into_iter()
            .flatten()
            .map(|&i| &self.records[i])
    }

    /// Encodes the archive. Only the records are stored; the tag and
    /// (user, tag) indices are rebuilt on restore.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        w.seq(&self.records, |w, rec| {
            w.u32(rec.user);
            w.str(&rec.tag);
            w.u32(rec.nodes);
            w.f64(rec.runtime_secs);
            w.f64(rec.watts_per_node);
            w.f64(rec.ambient_c);
        });
    }

    /// Decodes an archive written by [`HistoryStore::snapshot_into`],
    /// rebuilding both indices.
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        let records = r.seq(|r| {
            Ok(RunRecord {
                user: r.u32()?,
                tag: r.str()?,
                nodes: r.u32()?,
                runtime_secs: r.duration()?.as_secs(),
                watts_per_node: r.f64()?,
                ambient_c: r.f64()?,
            })
        })?;
        let mut store = HistoryStore::new();
        for rec in records {
            store.record(rec);
        }
        Ok(store)
    }

    /// Mean watts-per-node over all history (the global fallback).
    #[must_use]
    pub fn global_mean_watts(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        Some(self.records.iter().map(|r| r.watts_per_node).sum::<f64>() / self.records.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: u32, tag: &str, watts: f64) -> RunRecord {
        RunRecord {
            user,
            tag: tag.into(),
            nodes: 4,
            runtime_secs: 3600.0,
            watts_per_node: watts,
            ambient_c: 20.0,
        }
    }

    #[test]
    fn indices_filter_correctly() {
        let mut h = HistoryStore::new();
        h.record(rec(1, "cfd", 200.0));
        h.record(rec(1, "qcd", 300.0));
        h.record(rec(2, "cfd", 250.0));
        assert_eq!(h.len(), 3);
        assert_eq!(h.for_tag("cfd").count(), 2);
        assert_eq!(h.for_user_tag(1, "cfd").count(), 1);
        assert_eq!(h.for_user_tag(2, "qcd").count(), 0);
        assert_eq!(h.for_tag("nope").count(), 0);
    }

    #[test]
    fn global_mean() {
        let mut h = HistoryStore::new();
        assert_eq!(h.global_mean_watts(), None);
        h.record(rec(1, "a", 100.0));
        h.record(rec(1, "b", 300.0));
        assert_eq!(h.global_mean_watts(), Some(200.0));
    }

    #[test]
    fn energy_accounting() {
        let r = rec(1, "a", 250.0);
        assert!((r.energy_joules() - 250.0 * 4.0 * 3600.0).abs() < 1e-9);
    }
}
