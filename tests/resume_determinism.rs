//! Crash and resume: an intact snapshot resumes byte-identically, and a
//! damaged, mismatched or crafted one is rejected typed.
//!
//! The crash chains are the `chaos` × chain and after-completion cells
//! of the determinism matrix (`tests/common/matrix.rs`): each compares
//! outcome, trace and later snapshot bytes with the straight run. Two
//! more cells change the thread count, which no run may depend on.
//!
//! A snapshot frame is untrusted input. Corrupt, truncated,
//! version-skewed, mismatched and crafted frames must be rejected with a
//! typed [`SnapshotError`] — never a panic, never a silently divergent
//! run.

mod common;

use common::matrix::{assert_clean, chaos, compare, row, thread_cells, Crash};
use common::{chaos_system, typical_jobs, CHAOS_SEEDS, NODES, NOMINAL_W};
use epa_grid::{DrContract, DrEvent, GridConfig};
use epa_obs::TraceConfig;
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::policies::backfill::EasyBackfill;
use epa_sched::{Snapshot, SNAPSHOT_SCHEMA_VERSION};
use epa_simcore::snap::{fnv1a64, SnapWriter, SnapshotError, SNAP_MAGIC};
use epa_simcore::time::SimTime;
use epa_workload::job::Job;

fn chaos_jobs(seed: u64) -> Vec<Job> {
    typical_jobs(NODES, seed, SimTime::from_days(2.0))
}

/// The chaos configuration with the trace fully enabled, so the frame
/// carries the trace ring.
fn chaos_config(seed: u64) -> EngineConfig {
    let mut config = common::chaos_config(seed);
    config.trace = TraceConfig::all();
    config
}

/// Mid-campaign crash chains under 4 threads: every seed killed three
/// times at seed-derived points replays the straight run.
#[test]
fn multi_crash_resume_is_byte_identical_4_threads() {
    let mut failures = Vec::new();
    rayon::with_num_threads(4, || {
        for s in CHAOS_SEEDS.map(chaos) {
            row(&s, &[Crash::Chain], None, &mut failures);
        }
    });
    assert_clean(&failures);
}

/// A snapshot taken after the run already completed resumes to the same
/// final state, and `run_until` past the horizon is a clean no-op.
#[test]
fn snapshot_after_completion_resumes_to_identical_outcome() {
    let mut failures = Vec::new();
    for s in CHAOS_SEEDS.map(chaos) {
        row(&s, &[Crash::AfterCompletion], None, &mut failures);
    }
    assert_clean(&failures);
}

/// The thread grid: crashed once at half the horizon under 1 and under 4
/// threads, seed 13 lands on the bytes of the serial straight run.
#[test]
fn crash_resume_matches_across_thread_grid() {
    let mut failures = Vec::new();
    let s = chaos(13);
    let base = rayon::with_num_threads(1, || s.run(&[]));
    for threads in [1, 4] {
        let got = rayon::with_num_threads(threads, || s.run(&[0.5]));
        let cell = format!("{} x one @ {threads} threads", s.name);
        compare(&cell, &base, &base, &got, &mut failures);
    }
    assert_clean(&failures);
}

/// The thread count may change across the crash boundary: seed 21
/// snapshotted under one thread finishes under four, and vice versa.
#[test]
fn thread_count_may_change_across_the_crash_boundary() {
    let mut failures = Vec::new();
    let s = chaos(21);
    let base = rayon::with_num_threads(1, || s.run(&[]));
    thread_cells(&s, &base, &mut failures);
    assert_clean(&failures);
}

// ---------------------------------------------------------------------
// Typed rejection of damaged or mismatched snapshots. None of these may
// panic; each must surface the precise SnapshotError variant.
// ---------------------------------------------------------------------

/// A small, fast snapshot for the corruption tests.
fn small_snapshot(seed: u64) -> Snapshot {
    let mut policy = EasyBackfill;
    let mut sim = ClusterSim::new(
        chaos_system(),
        chaos_jobs(seed),
        &mut policy,
        chaos_config(seed),
    );
    sim.run_until(SimTime::from_hours(6.0))
}

fn try_resume(snapshot: &Snapshot, seed: u64) -> Result<(), SnapshotError> {
    let mut policy = EasyBackfill;
    ClusterSim::resume(
        chaos_system(),
        chaos_jobs(seed),
        &mut policy,
        chaos_config(seed),
        snapshot,
    )
    .map(|_| ())
}

#[test]
fn corrupt_snapshot_is_rejected_with_checksum_mismatch() {
    let snap = small_snapshot(3);
    let mut bytes = snap.into_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // flip a payload bit
    let err = try_resume(&Snapshot::from_bytes(bytes), 3).unwrap_err();
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch { .. }),
        "expected ChecksumMismatch, got {err:?}"
    );
}

#[test]
fn truncated_snapshot_is_rejected_with_truncated() {
    let snap = small_snapshot(3);
    let mut bytes = snap.into_bytes();
    bytes.truncate(bytes.len() - 16);
    let err = try_resume(&Snapshot::from_bytes(bytes), 3).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Truncated { .. }),
        "expected Truncated, got {err:?}"
    );
}

#[test]
fn garbage_magic_is_rejected_with_bad_magic() {
    let snap = small_snapshot(3);
    let mut bytes = snap.into_bytes();
    bytes[0] ^= 0xFF;
    let err = try_resume(&Snapshot::from_bytes(bytes), 3).unwrap_err();
    assert!(
        matches!(err, SnapshotError::BadMagic),
        "expected BadMagic, got {err:?}"
    );
    // Arbitrary junk with no frame at all is equally typed, never a panic.
    let err = try_resume(&Snapshot::from_bytes(vec![0x42; 64]), 3).unwrap_err();
    assert!(matches!(err, SnapshotError::BadMagic), "got {err:?}");
}

#[test]
fn version_skew_is_rejected_with_unsupported_version() {
    let snap = small_snapshot(3);
    let mut bytes = snap.into_bytes();
    // The u32 schema version sits right after the 8-byte magic.
    bytes[8] ^= 0xFF;
    let err = try_resume(&Snapshot::from_bytes(bytes), 3).unwrap_err();
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion { .. }),
        "expected UnsupportedVersion, got {err:?}"
    );
}

#[test]
fn mismatched_config_is_rejected_with_config_mismatch() {
    let snap = small_snapshot(3);
    // Same machine, different seed → different workload + fingerprint.
    let err = try_resume(&snap, 4).unwrap_err();
    assert!(
        matches!(err, SnapshotError::ConfigMismatch { .. }),
        "expected ConfigMismatch, got {err:?}"
    );
}

/// Frame header length: magic, version, payload length, checksum.
const HEADER_LEN: usize = 28;

/// Frames `payload` as `SnapWriter::finish` does — magic, version,
/// length, checksum — so a crafted payload passes the frame checks.
fn reframe(version: u32, payload: &[u8]) -> Snapshot {
    let mut out = SNAP_MAGIC.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Snapshot::from_bytes(out)
}

#[test]
fn crafted_node_count_is_rejected_with_topology_mismatch() {
    let snap = small_snapshot(3);
    let mut payload = snap.as_bytes()[HEADER_LEN..].to_vec();
    assert!(
        reframe(SNAPSHOT_SCHEMA_VERSION, &payload) == snap,
        "reframe is exact"
    );
    // The `meta` section opens with the config fingerprint (u64); the
    // node count (u32) follows it. Measure that prefix with the writer.
    let mut prefix = SnapWriter::new();
    prefix.section("meta");
    prefix.u64(0);
    let at = prefix.finish(SNAPSHOT_SCHEMA_VERSION).len() - HEADER_LEN;
    let nodes = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
    assert_eq!(nodes, NODES, "node count sits right after the fingerprint");
    payload[at..at + 4].copy_from_slice(&(NODES * 2).to_le_bytes());
    let err = try_resume(&reframe(SNAPSHOT_SCHEMA_VERSION, &payload), 3).unwrap_err();
    assert!(
        matches!(err, SnapshotError::TopologyMismatch { .. }),
        "expected TopologyMismatch, got {err:?}"
    );
}

#[test]
fn crafted_histogram_name_is_rejected_before_it_can_panic() {
    // Rename the obs registry's `sched/wait_secs` histogram to a
    // same-length name: the frame stays well-formed, but the engine
    // would observe into a histogram it never finds. Restore must
    // reject the frame rather than resume into a panic.
    let snap = small_snapshot(3);
    let mut payload = snap.as_bytes()[HEADER_LEN..].to_vec();
    let mut marker = SnapWriter::new();
    marker.section("obs");
    let marker = &marker.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    let find = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).position(|w| w == needle);
    let obs = find(&payload, marker).expect("obs section present");
    let at = obs + find(&payload[obs..], b"sched/wait_secs").expect("wait histogram present");
    payload[at..at + 15].copy_from_slice(b"sched/wait_xecs");
    let err = try_resume(&reframe(SNAPSHOT_SCHEMA_VERSION, &payload), 3).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Corrupt { .. }),
        "expected Corrupt, got {err:?}"
    );
}

#[test]
fn previous_schema_frames_are_rejected_with_unsupported_version() {
    // A current payload under each previous schema's version number,
    // checksummed correctly: only the version check can reject it.
    let snap = small_snapshot(3);
    for old in [5, 6, 7] {
        let err = try_resume(&reframe(old, &snap.as_bytes()[HEADER_LEN..]), 3).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::UnsupportedVersion {
                    found,
                    expected: SNAPSHOT_SCHEMA_VERSION
                } if found == old
            ),
            "v{old}: expected UnsupportedVersion, got {err:?}"
        );
    }
}

#[test]
fn snapshot_survives_a_disk_roundtrip() {
    let snap = small_snapshot(5);
    let dir = std::env::temp_dir().join("epa-resume-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("crash.snap");
    snap.save(&path).unwrap();
    let loaded = Snapshot::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, snap);
    loaded.verify_frame().expect("frame intact after roundtrip");
    try_resume(&loaded, 5).expect("resume from disk");
}

/// The seed-3 chaos configuration plus a grid twin with one DR event
/// (hours 20–24), so a 6-hour snapshot holds pending domain failures and
/// a grid section with no event in force.
fn grid_config() -> EngineConfig {
    let mut config = chaos_config(3);
    let nominal = f64::from(NODES) * NOMINAL_W;
    let mut grid = GridConfig::synthetic(nominal, nominal * 1.3, 90.0, 300.0, 2, 1.0, 77);
    grid.contract = DrContract {
        events: vec![DrEvent {
            start: SimTime::from_hours(20.0),
            end: SimTime::from_hours(24.0),
            target_frac: 0.6,
            enforce: true,
        }],
        penalty_per_excess_kwh: 10.0,
        tolerance_kwh: 0.5,
    };
    config.grid = Some(grid);
    config
}

/// Payload offset of the event-queue entry count: right after the `meta`
/// section and the queue's sequence counter.
fn queue_len_at() -> usize {
    let mut prefix = SnapWriter::new();
    prefix.section("meta");
    prefix.u64(0);
    prefix.u32(0);
    prefix.f64(0.0);
    prefix.u64(0);
    prefix.section("sim");
    prefix.u64(0);
    prefix.len()
}

/// Payload offset of the `meta` section's clock (`now`, an f64): after
/// the section marker, the config fingerprint and the node count.
fn now_at() -> usize {
    let mut prefix = SnapWriter::new();
    prefix.section("meta");
    prefix.u64(0);
    prefix.u32(0);
    prefix.len()
}

/// Adds one event to the queue section: at hour 6, with a sequence number
/// no real event uses, and the wire tag and payload `encode` writes.
fn push_entry(payload: &mut Vec<u8>, encode: impl FnOnce(&mut SnapWriter)) {
    let at = queue_len_at();
    let len = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    payload[at..at + 8].copy_from_slice(&(len + 1).to_le_bytes());
    let mut entry = SnapWriter::new();
    entry.f64(SimTime::from_hours(6.0).as_secs());
    entry.u64(u64::MAX);
    encode(&mut entry);
    let entry = &entry.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    payload.splice(at + 8..at + 8, entry.iter().copied());
}

/// [`push_entry`] for an event with wire tag `tag` and a `u32` payload.
fn push_event(payload: &mut Vec<u8>, tag: u8, arg: u32) {
    push_entry(payload, |w| {
        w.u8(tag);
        w.u32(arg);
    });
}

/// Removes the staged arrival's Submit event from the queue section of a
/// 6-hour `chaos_jobs(3)` frame. The staged arrival is the first job, in
/// submit order, after hour 6; its Submit entry is its submit time, then
/// its sequence number, wire tag 0 and an arrival index both equal to its
/// position in that order.
fn drop_submit(payload: &mut Vec<u8>) {
    let mut jobs = chaos_jobs(3);
    jobs.sort_by_key(|j| j.submit);
    let seq = jobs
        .iter()
        .position(|j| j.submit > SimTime::from_hours(6.0))
        .expect("an arrival after hour 6") as u64;
    let mut entry = SnapWriter::new();
    entry.f64(jobs[seq as usize].submit.as_secs());
    entry.u64(seq);
    entry.u8(0);
    entry.usize(seq as usize);
    let entry = &entry.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    let at = queue_len_at();
    let len = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    payload[at..at + 8].copy_from_slice(&(len - 1).to_le_bytes());
    let start = at
        + 8
        + payload[at + 8..]
            .windows(entry.len())
            .position(|w| w == entry)
            .expect("the staged Submit is queued");
    payload.drain(start..start + entry.len());
}

/// Payload offset of the meter's bounded power trace's pending point (an
/// option tag, then its time and value). The meter section holds the
/// node extent (u32), the runs (u64 count, 20 bytes each), the groups
/// (u64 count, 29 bytes each), the free group slots (u64 count, 4 bytes
/// each), the system draw (f64), then the trace: its grid samples (u64
/// count, 8 bytes each) and the pending point.
fn meter_pending_at(payload: &[u8]) -> usize {
    let mut marker = SnapWriter::new();
    marker.section("meter");
    let marker = &marker.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    let mut at = payload
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("meter section present")
        + marker.len()
        + 4;
    for width in [20, 29, 4] {
        let count = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        at += 8 + width * count as usize;
    }
    at += 8;
    let samples = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    at + 8 + 8 * samples as usize
}

/// Payload offset of the grid state, the frame's last section. Its
/// layout: option tag (1), price cursor (u32), carbon cursor (u32),
/// active-event option (0 here), per-event excess joules (u64 length and
/// an f64 per event), per-event violation seconds, then the totals.
fn grid_at(payload: &[u8]) -> usize {
    let mut marker = SnapWriter::new();
    marker.section("grid");
    let marker = &marker.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    let at = payload
        .windows(marker.len())
        .rposition(|w| w == marker)
        .expect("grid section present");
    at + marker.len()
}

#[test]
fn crafted_out_of_range_indices_are_rejected_as_corrupt() {
    // Each frame is well-formed and correctly checksummed, but carries an
    // index, time or pairing that a handler would later use out of range.
    type Edit = fn(&mut Vec<u8>);
    let cases: [(&str, Edit); 14] = [
        ("boot completion for a node past the machine", |p| {
            push_event(p, 3, NODES)
        }),
        ("repair for a node past the machine", |p| {
            push_event(p, 6, NODES)
        }),
        ("shutdown completion for a node past the machine", |p| {
            push_event(p, 11, NODES)
        }),
        ("domain failure past the fault plan", |p| {
            push_event(p, 7, 1_000_000)
        }),
        ("DR start past the contract", |p| push_event(p, 8, 5)),
        ("price cursor past the trace", |p| {
            let g = grid_at(p);
            p[g + 1..g + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        }),
        ("carbon cursor past the trace", |p| {
            let g = grid_at(p);
            p[g + 5..g + 9].copy_from_slice(&u32::MAX.to_le_bytes());
        }),
        ("active DR event past the contract", |p| {
            let g = grid_at(p);
            p.splice(g + 9..g + 10, [1, 5, 0, 0, 0]);
        }),
        ("DR accumulators shorter than the contract", |p| {
            let g = grid_at(p);
            p[g + 10..g + 18].copy_from_slice(&0u64.to_le_bytes());
            p.drain(g + 18..g + 26);
        }),
        ("negative clock", |p| {
            let at = now_at();
            p[at..at + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        }),
        ("NaN clock", |p| {
            let at = now_at();
            p[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        }),
        ("power-trace point past its next grid instant", |p| {
            let at = meter_pending_at(p);
            p[at + 1..at + 9].copy_from_slice(&1e9f64.to_le_bytes());
        }),
        ("Submit queued without a staged arrival", |p| {
            push_entry(p, |w| {
                w.u8(0);
                w.usize(1_000_000);
            })
        }),
        ("staged arrival without a queued Submit", drop_submit),
    ];
    let mut policy = EasyBackfill;
    let jobs = chaos_jobs(3);
    let mut sim = ClusterSim::new(chaos_system(), jobs.clone(), &mut policy, grid_config());
    let snap = sim.run_until(SimTime::from_hours(6.0));
    let payload = &snap.as_bytes()[HEADER_LEN..];
    let g = grid_at(payload);
    assert_eq!(payload[g..g + 1], [1], "grid state present");
    assert_eq!(
        payload[g + 9..g + 18],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        "no event in force"
    );
    let at = meter_pending_at(payload);
    assert_eq!(payload[at], 1, "the power trace has a pending point");
    let pending = f64::from_le_bytes(payload[at + 1..at + 9].try_into().unwrap());
    assert!(
        pending <= 6.0 * 3600.0,
        "pending point {pending} s is in the past"
    );
    let mut failures = Vec::new();
    for (name, edit) in cases {
        let mut crafted = payload.to_vec();
        edit(&mut crafted);
        let crafted = reframe(SNAPSHOT_SCHEMA_VERSION, &crafted);
        let mut policy = EasyBackfill;
        match ClusterSim::resume(
            chaos_system(),
            jobs.clone(),
            &mut policy,
            grid_config(),
            &crafted,
        ) {
            Err(SnapshotError::Corrupt { .. }) => {}
            Err(err) => failures.push(format!("{name}: expected Corrupt, got {err:?}")),
            Ok(sim) => {
                let _ = sim.run_with_grid();
                failures.push(format!("{name}: accepted"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
