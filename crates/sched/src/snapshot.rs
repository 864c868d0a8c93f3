//! Crash-safe engine snapshots.
//!
//! A [`Snapshot`] is the full mutable state of a
//! [`ClusterSim`](crate::engine::ClusterSim) frozen between two events.
//! It is a self-describing binary frame (see
//! [`epa_simcore::snap`]): magic, schema version, payload length, and an
//! FNV-1a-64 checksum guard the payload; named section markers frame each
//! component's state so a decode failure reports *which* subsystem's
//! bytes went bad.
//!
//! The determinism contract: a run killed at any barrier and resumed from
//! its latest snapshot produces a [`SimOutcome`](crate::engine::SimOutcome)
//! and an exported decision trace byte-identical to the uninterrupted
//! run (the determinism matrix in `tests/common/matrix.rs` checks it for
//! every scenario).
//!
//! Configuration is deliberately *not* stored: the caller re-supplies the
//! system, workload, policy, and [`EngineConfig`](crate::engine::EngineConfig)
//! at resume, and a config fingerprint embedded in the snapshot rejects a
//! mismatched resume with a typed
//! [`SnapshotError`] instead of
//! silently diverging.

use epa_simcore::snap::{SnapReader, SnapshotError};
use std::io;
use std::path::Path;

/// Schema version of the engine snapshot payload. Bump on any layout
/// change; [`SnapReader::open`](epa_simcore::snap::SnapReader::open)
/// rejects mismatches with a typed error. v2 added the `arrivals`
/// section (streaming source cursor + completion aggregates); v3 added
/// the `control` section (control-plane knob state, so a learned
/// controller's overrides survive a crash/resume); v4 added the `grid`
/// section (facility-twin cursors and cost/carbon/DR accumulators, plus
/// two new wire tags for DR-window events in the global queue); v5 stores
/// node sets as spans — running jobs' nodes and the allocator's
/// unavailable set as `(start, len)` runs, the allocator without per-node
/// busy flags, and the meter as per-node energy plus its run index; v6
/// drops the `shards` section and the engine's separate count of
/// phase-change and shutdown events, which are now ordinary event-queue
/// entries (wire tags 10 and 11); v7 drops the `metrics` section — the
/// engine's counters now live in the `obs` section's registry, and the
/// exact wait-percentile store and per-tick power series it carried are
/// gone; v8 drops the meter's per-node energy, its runs' start times and
/// its trace-mode tag — the meter is its node extent, its run index as
/// `(start, len, group, watts)` runs, its groups and the bounded system
/// trace, whose grid instants and interval are no longer stored; v9
/// drops the `faults` section's actuation audit log and interaction
/// ledger and the injector's unused actuator stream, the power budget's
/// high-water mark and rejection count, and the metrics registry's
/// gauges; v10 folds the `alloc` section into `nodes` (the node table's
/// state tags, idle and down timestamps and failure counts, without
/// length prefixes, then the allocator's spans), drops the per-node
/// `down` flags, which duplicated `down_since`, and drops the unread
/// arrival index from `Submit` events; v11 takes arrivals off the event
/// queue — the `sim` section holds runtime events only (wire tag 0,
/// `Submit`, is retired), runtime sequence numbers start at 0 rather
/// than 2⁴⁰, and the `arrivals` section drops its arrival counter,
/// exhaustion flag and last submit time, keeping the staged arrival and
/// the source cursor; the completion aggregates move to the end of the
/// `completed` section; v12 merges the `queue`, `running` and `completed`
/// sections, the completion aggregates and the `engine` section's
/// emergency-kill count and busy node-seconds into one `jobs` section
/// after `budget` (the job table's queue, running jobs, start-token
/// counter, completions and aggregates, which now count emergency kills
/// and departed jobs' node-seconds), replaces the per-job attempt map
/// with a start token on each running job, and drops the map; v13 gives
/// fault state one owner, the fault plane: the `faults` section holds the
/// node-failure stream, the sensor (its stream, last reading, stuck-at
/// window and fallback flag) and the actuator, each present exactly when
/// its config is, the `engine` section keeps only the violation, last-tick
/// and start-hold fields, and the `nodes` section ends with the completed
/// repairs' downtime and count; v14 gives power state one owner, the
/// power plane: the `meter`, `budget`, `engine` and `history` sections
/// merge into one `power` section after `sim` (the violation seconds,
/// last tick, start-hold end and resume flag, then the budget option,
/// the meter and the history), so the sections run `meta`, `sim`,
/// `power`, `jobs`, `nodes`, `control`, `faults`, `arrivals`, `obs`,
/// `grid`; v15 gives the control plane three knobs: the `control`
/// section holds the external job limit, the default frequency and the
/// idle-shutdown policy in force as three options (the backfill depth and
/// the nested shutdown override are gone), and the trace ring no longer
/// decodes the retired start and backfill-depth control kinds.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 15;

/// A frozen engine state: an owned, framed, checksummed byte buffer.
///
/// Produced by [`ClusterSim::snapshot`](crate::engine::ClusterSim::snapshot)
/// or [`ClusterSim::run_until`](crate::engine::ClusterSim::run_until);
/// consumed by [`ClusterSim::resume`](crate::engine::ClusterSim::resume).
/// The bytes are portable across processes — write them to disk with
/// [`Snapshot::save`] and recover after a crash with [`Snapshot::load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps raw bytes (e.g. read from disk). No validation happens here;
    /// [`ClusterSim::resume`](crate::engine::ClusterSim::resume) validates
    /// magic, version, checksum, topology, and config fingerprint.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Snapshot { bytes }
    }

    /// The framed snapshot bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the framed bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Total size in bytes (header + payload).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the buffer is empty (never produced by the engine; an
    /// empty buffer fails restore with a truncation error).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Writes the snapshot to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, &self.bytes)
    }

    /// Reads a snapshot from a file. The contents are validated at
    /// resume, not here.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Snapshot {
            bytes: std::fs::read(path)?,
        })
    }

    /// Cheap structural pre-check: validates the frame (magic, version,
    /// length, checksum) without decoding any state. Useful for picking
    /// the latest *intact* snapshot out of a crash directory.
    pub fn verify_frame(&self) -> Result<(), SnapshotError> {
        epa_simcore::snap::SnapReader::open(&self.bytes, SNAPSHOT_SCHEMA_VERSION).map(|_| ())
    }
}

/// Decodes an optional component over the freshly built `part`: the
/// frame must carry it exactly when the configuration built it, or the
/// resume is a [`SnapshotError::ConfigMismatch`] naming `what`.
pub(crate) fn restore_part<'a, T>(
    r: &mut SnapReader<'a>,
    what: &str,
    part: &mut Option<T>,
    restore: impl FnOnce(&mut SnapReader<'a>, &mut T) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    match (r.opt(|_| Ok(()))?, part) {
        (Some(()), Some(part)) => restore(r, part),
        (None, None) => Ok(()),
        _ => Err(SnapshotError::ConfigMismatch {
            detail: format!("snapshot and config disagree about {what}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_bytes_roundtrip() {
        let s = Snapshot::from_bytes(vec![1, 2, 3]);
        assert_eq!(s.as_bytes(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.clone().into_bytes(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_frame_fails_verification() {
        let s = Snapshot::from_bytes(Vec::new());
        assert!(matches!(
            s.verify_frame().unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("epa-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let s = Snapshot::from_bytes(vec![9, 8, 7, 6]);
        s.save(&path).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded, s);
        let _ = std::fs::remove_file(&path);
    }
}
