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
use epa_faults::FaultConfig;
use epa_grid::{DrContract, DrEvent, GridConfig};
use epa_obs::TraceConfig;
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::policies::backfill::EasyBackfill;
use epa_sched::{JobLimitGate, ShutdownPolicy};
use epa_sched::{Snapshot, SNAPSHOT_SCHEMA_VERSION};
use epa_simcore::snap::{fnv1a64, SnapWriter, SnapshotError, SNAP_MAGIC};
use epa_simcore::time::{SimDuration, SimTime};
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
    for old in [5, 6, 7, 8, 9, 10, 11, 12, 13, 14] {
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

/// A snapshot resumed under changed fault settings is refused: the
/// fingerprint covers every fault sub-config, not just the fault seed.
#[test]
fn changed_fault_settings_are_rejected_with_config_mismatch() {
    let edit = |f: fn(&mut FaultConfig)| {
        let mut config = chaos_config(3);
        f(config.faults.as_mut().expect("chaos faults"));
        config
    };
    let cases = [
        (
            "sensor faults removed",
            chaos_config(3),
            edit(|f| f.sensor = None),
        ),
        (
            "sensor faults added",
            edit(|f| f.sensor = None),
            chaos_config(3),
        ),
        (
            "domain MTBF changed",
            chaos_config(3),
            edit(|f| f.domain.as_mut().expect("domain").mtbf = SimDuration::from_hours(3.0)),
        ),
        (
            "actuator fail_prob changed",
            chaos_config(3),
            edit(|f| f.actuator.as_mut().expect("actuator").fail_prob = 0.3),
        ),
    ];
    let mut failures = Vec::new();
    for (name, taken, resumed) in cases {
        let mut policy = EasyBackfill;
        let mut sim = ClusterSim::new(chaos_system(), chaos_jobs(3), &mut policy, taken);
        let snap = sim.run_until(SimTime::from_hours(12.0));
        let mut policy = EasyBackfill;
        let jobs = chaos_jobs(3);
        match ClusterSim::resume(chaos_system(), jobs, &mut policy, resumed, &snap) {
            Err(SnapshotError::ConfigMismatch { .. }) => {}
            Err(err) => failures.push(format!("{name}: expected ConfigMismatch, got {err:?}")),
            Ok(_) => failures.push(format!("{name}: accepted")),
        };
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A snapshot resumed under a changed emergency limit, idle-shutdown
/// threshold or gate limit is refused: the fingerprint covers every field
/// of those policies, not only whether each is set.
#[test]
fn changed_power_policies_are_rejected_with_config_mismatch() {
    let base = || {
        let mut config = chaos_config(3);
        config.shutdown = Some(ShutdownPolicy::default());
        config.limit_gate = Some(JobLimitGate {
            normal_limit: 64,
            hot_limit: 32,
            hot_threshold_c: 30.0,
        });
        config
    };
    let edit = |f: fn(&mut EngineConfig)| {
        let mut config = base();
        f(&mut config);
        config
    };
    let cases = [
        (
            "emergency limit_watts changed",
            edit(|c| c.emergency.as_mut().expect("emergency").limit_watts *= 0.9),
        ),
        (
            "shutdown idle_threshold changed",
            edit(|c| {
                let sd = c.shutdown.as_mut().expect("shutdown");
                sd.idle_threshold = SimDuration::from_mins(30.0);
            }),
        ),
        (
            "gate hot_limit changed",
            edit(|c| c.limit_gate.as_mut().expect("gate").hot_limit = 16),
        ),
    ];
    let mut policy = EasyBackfill;
    let mut sim = ClusterSim::new(chaos_system(), chaos_jobs(3), &mut policy, base());
    let snap = sim.run_until(SimTime::from_hours(12.0));
    let mut failures = Vec::new();
    for (name, resumed) in cases {
        let mut policy = EasyBackfill;
        let jobs = chaos_jobs(3);
        match ClusterSim::resume(chaos_system(), jobs, &mut policy, resumed, &snap) {
            Err(SnapshotError::ConfigMismatch { .. }) => {}
            Err(err) => failures.push(format!("{name}: expected ConfigMismatch, got {err:?}")),
            Ok(_) => failures.push(format!("{name}: accepted")),
        };
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
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
    push_entry_at(payload, SimTime::from_hours(6.0), encode);
}

/// [`push_entry`] at time `t`.
fn push_entry_at(payload: &mut Vec<u8>, t: SimTime, encode: impl FnOnce(&mut SnapWriter)) {
    let at = queue_len_at();
    let len = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    payload[at..at + 8].copy_from_slice(&(len + 1).to_le_bytes());
    let mut entry = SnapWriter::new();
    entry.f64(t.as_secs());
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

/// Re-encodes the staged arrival of a 6-hour `chaos_jobs(3)` frame with
/// submit time `submit`. The staged arrival is the first job, in submit
/// order, after hour 6; the `arrivals` section opens with it.
fn restage(payload: &mut Vec<u8>, submit: SimTime) {
    let mut jobs = chaos_jobs(3);
    jobs.sort_by_key(|j| j.submit);
    let mut job = jobs
        .into_iter()
        .find(|j| j.submit > SimTime::from_hours(6.0))
        .expect("an arrival after hour 6");
    let encode = |job: &Job| {
        let mut w = SnapWriter::new();
        w.section("arrivals");
        w.opt(Some(job), |w, j| j.snapshot_into(w));
        w.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..].to_vec()
    };
    let staged = encode(&job);
    let at = payload
        .windows(staged.len())
        .position(|w| w == staged)
        .expect("the arrivals section opens with the staged arrival");
    job.submit = submit;
    payload.splice(at..at + staged.len(), encode(&job));
}

/// Payload offset of the meter's bounded power trace's pending point (an
/// option tag, then its time and value). The meter follows the budget
/// in the `power` section and holds the node extent (u32), the runs (u64
/// count, 20 bytes each), the groups (u64 count, 29 bytes each), the free
/// group slots (u64 count, 4 bytes each), the system draw (f64), then the
/// trace: its grid samples (u64 count, 8 bytes each) and the pending
/// point.
fn meter_pending_at(payload: &[u8]) -> usize {
    let b = budget_at(payload);
    let mut at = match payload[b] {
        1 => b + 17 + 16 * len_at(payload, b + 9) + 8,
        _ => b + 1,
    } + 4;
    for width in [20, 29, 4] {
        let count = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        at += 8 + width * count as usize;
    }
    at += 8;
    let samples = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    at + 8 + 8 * samples as usize
}

/// Payload offset of the `power` section. It opens with the violation
/// seconds, the last power tick and the end of the start hold (f64
/// each) and the hold's resume flag (1), then the budget.
fn power_at(payload: &[u8]) -> usize {
    let mut marker = SnapWriter::new();
    marker.section("power");
    let marker = &marker.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    payload
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("power section present")
        + marker.len()
}

/// Payload offset of the power budget. Its layout: option tag (1), total
/// watts (f64), the grants (u64 count, then a u64 id and an f64 wattage
/// each, in ascending id order), then the granted total.
fn budget_at(payload: &[u8]) -> usize {
    power_at(payload) + 25
}

/// Overwrites the `power` section's f64 at byte `offset` with `value`.
fn set_power_f64(payload: &mut [u8], offset: usize, value: f64) {
    let at = power_at(payload) + offset;
    payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// The index of the first busy node (power-state tag 3).
fn busy_node(payload: &[u8]) -> u32 {
    let at = nodes_at(payload);
    let tags = &payload[at..at + NODES as usize];
    tags.iter().position(|&t| t == 3).expect("a busy node") as u32
}

/// Payload offset of the node table. It opens with one power-state tag
/// per node (0 off, 1 booting, 2 idle, 3 busy), with no length prefix.
fn nodes_at(payload: &[u8]) -> usize {
    let mut marker = SnapWriter::new();
    marker.section("nodes");
    let marker = &marker.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    payload
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("nodes section present")
        + marker.len()
}

/// Rewrites every node's power-state tag `from` to `to`.
fn retag_nodes(payload: &mut [u8], from: u8, to: u8) {
    let at = nodes_at(payload);
    for tag in &mut payload[at..at + NODES as usize] {
        if *tag == from {
            *tag = to;
        }
    }
}

/// The little-endian `u64` at `at`, as a length.
fn len_at(payload: &[u8], at: usize) -> usize {
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize
}

/// End of the job encoded at `at`: id (u64), user (u32), app tag (u64
/// length, then bytes), phases (u64 count, 24 bytes each), submit (f64),
/// nodes (u32), walltime and base runtime (f64 each), priority (i64),
/// then the moldable option (1, or 17 when present).
fn job_end(payload: &[u8], at: usize) -> usize {
    let at = at + 12;
    let at = at + 8 + len_at(payload, at);
    let at = at + 8 + 24 * len_at(payload, at);
    let at = at + 36;
    at + if payload[at] == 1 { 17 } else { 1 }
}

/// Payload offsets of one running job's id, start time and meter group.
struct RunningAt {
    id: usize,
    start: usize,
    group: usize,
}

/// Payload offsets in the `jobs` section: the first queued job's id, and
/// each running job's fields in id order. The section opens with the
/// queue (u64 count, then each job) and the running jobs (u64 count, then
/// each job's encoding, its node spans (u64 count, 8 bytes each), start,
/// estimated end and per-node watts (f64 each), the walltime flag (1), the
/// grant option (1, or 9 when present), base and true runtime (f64
/// each), the phase draws (u64 count, 8 bytes each), the meter group and
/// the start token (u32 each)).
fn jobs_at(payload: &[u8]) -> (Option<usize>, Vec<RunningAt>) {
    let mut marker = SnapWriter::new();
    marker.section("jobs");
    let marker = &marker.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    let mut at = payload
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("jobs section present")
        + marker.len();
    let queued = len_at(payload, at);
    at += 8;
    let first_queued = (queued > 0).then_some(at);
    for _ in 0..queued {
        at = job_end(payload, at);
    }
    let running = len_at(payload, at);
    at += 8;
    let mut entries = Vec::new();
    for _ in 0..running {
        let id = at;
        at = job_end(payload, at);
        at += 8 + 8 * len_at(payload, at);
        let start = at;
        at += 25;
        at += if payload[at] == 1 { 9 } else { 1 };
        at += 16;
        at += 8 + 8 * len_at(payload, at);
        entries.push(RunningAt {
            id,
            start,
            group: at,
        });
        at += 8;
    }
    (first_queued, entries)
}

/// Copies the `len` bytes at `from` over those at `to`.
fn copy_within(payload: &mut [u8], from: usize, to: usize, len: usize) {
    payload.copy_within(from..from + len, to);
}

/// Payload offset of the `control` section: three option tags, for the
/// external job limit, the default frequency and the idle-shutdown policy
/// in force, none of them set in these frames.
fn control_at(payload: &[u8]) -> usize {
    let mut marker = SnapWriter::new();
    marker.section("control");
    let marker = &marker.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    payload
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("control section present")
        + marker.len()
}

/// Sets control knob `knob` (0 job limit, 1 default frequency, 2
/// shutdown policy) to the value `encode` writes.
fn set_knob(payload: &mut Vec<u8>, knob: usize, encode: impl FnOnce(&mut SnapWriter)) {
    let at = control_at(payload) + knob;
    let mut value = SnapWriter::new();
    value.u8(1);
    encode(&mut value);
    let value = &value.finish(SNAPSHOT_SCHEMA_VERSION)[HEADER_LEN..];
    payload.splice(at..at + 1, value.iter().copied());
}

/// Puts a shutdown policy in force with the given shutdown and boot
/// times: a 15 min idle threshold, a reserve of 2 and no season.
fn set_shutdown(payload: &mut Vec<u8>, shutdown_secs: f64, boot_secs: f64) {
    set_knob(payload, 2, |w| {
        for secs in [900.0, shutdown_secs, boot_secs] {
            w.f64(secs);
        }
        w.u32(2);
        w.u8(0);
    });
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
    let cases: [(&str, Edit); 37] = [
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
        ("power tick queued before the clock", |p| {
            push_entry_at(p, SimTime::from_hours(1.0), |w| w.u8(2))
        }),
        ("staged arrival before the clock", |p| {
            restage(p, SimTime::from_hours(1.0))
        }),
        ("staged arrival past the horizon", |p| {
            restage(p, SimTime::from_days(3.0))
        }),
        ("NaN budget total", |p| {
            let b = budget_at(p);
            p[b + 1..b + 9].copy_from_slice(&f64::NAN.to_le_bytes());
        }),
        ("negative grant", |p| {
            let b = budget_at(p);
            p[b + 25..b + 33].copy_from_slice(&(-1.0f64).to_le_bytes());
        }),
        ("duplicate grant id", |p| {
            let b = budget_at(p);
            let first: [u8; 8] = p[b + 17..b + 25].try_into().unwrap();
            p[b + 33..b + 41].copy_from_slice(&first);
        }),
        ("busy nodes tagged idle", |p| retag_nodes(p, 3, 2)),
        ("idle nodes tagged off", |p| retag_nodes(p, 2, 0)),
        ("idle nodes tagged busy", |p| retag_nodes(p, 2, 3)),
        ("running job started after the clock", |p| {
            let at = jobs_at(p).1[0].start;
            p[at..at + 8].copy_from_slice(&(7.0f64 * 3600.0).to_le_bytes());
        }),
        ("running job names a meter group that does not exist", |p| {
            let at = jobs_at(p).1.last().unwrap().group;
            p[at..at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        }),
        ("running job names another job's meter group", |p| {
            let running = jobs_at(p).1;
            copy_within(p, running[0].group, running.last().unwrap().group, 4);
        }),
        ("one job id running twice", |p| {
            let running = jobs_at(p).1;
            copy_within(p, running[0].id, running.last().unwrap().id, 8);
        }),
        ("job both queued and running", |p| {
            let (queued, running) = jobs_at(p);
            copy_within(p, queued.unwrap(), running[0].id, 8);
        }),
        ("live grant held by no running job", |p| {
            let b = budget_at(p);
            p[b + 17..b + 25].copy_from_slice(&u64::MAX.to_le_bytes());
        }),
        ("last power tick after the clock", |p| {
            set_power_f64(p, 8, 7.0 * 3600.0)
        }),
        ("NaN violation seconds", |p| set_power_f64(p, 0, f64::NAN)),
        ("negative violation seconds", |p| set_power_f64(p, 0, -1.0)),
        ("violation seconds past the clock", |p| {
            set_power_f64(p, 0, 7.0 * 3600.0)
        }),
        ("repair queued for a busy node", |p| {
            let node = busy_node(p);
            push_event(p, 6, node)
        }),
        ("boot completion queued for a busy node", |p| {
            let node = busy_node(p);
            push_event(p, 3, node)
        }),
        ("zero job limit", |p| set_knob(p, 0, |w| w.usize(0))),
        ("NaN default frequency", |p| {
            set_knob(p, 1, |w| w.f64(f64::NAN))
        }),
        ("shutdown policy with a zero shutdown time", |p| {
            set_shutdown(p, 0.0, 300.0)
        }),
        ("shutdown policy with a zero boot time", |p| {
            set_shutdown(p, 120.0, 0.0)
        }),
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
    let power = power_at(payload);
    let scalar = |at: usize| f64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    assert_eq!(scalar(power + 8), 6.0 * 3600.0, "last tick at the clock");
    assert!(scalar(power) < 6.0 * 3600.0, "violation seconds");
    let b = budget_at(payload);
    assert_eq!(payload[b], 1, "budget present");
    let grants = u64::from_le_bytes(payload[b + 9..b + 17].try_into().unwrap());
    assert!(grants >= 2, "{grants} live grants");
    let at = nodes_at(payload);
    let tags = &payload[at..at + NODES as usize];
    assert!(
        tags.contains(&2) && tags.contains(&3),
        "idle and busy nodes: {tags:?}"
    );
    let (queued, running) = jobs_at(payload);
    assert!(queued.is_some(), "a queued job");
    let c = control_at(payload);
    assert_eq!(payload[c..c + 3], [0, 0, 0], "no control knob set");
    assert_eq!(running.len() as u64, grants, "one grant per running job");
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
        };
    }
    // A hold that ends after the clock, and knobs that an external action
    // could have set, are honest state and stay legal.
    let legal: [(&str, Edit); 3] = [
        ("start hold past the clock", |p| {
            set_power_f64(p, 16, 7.0 * 3600.0)
        }),
        ("job limit of one", |p| set_knob(p, 0, |w| w.usize(1))),
        ("shutdown policy in force", |p| {
            set_shutdown(p, 120.0, 300.0)
        }),
    ];
    for (name, edit) in legal {
        let mut crafted = payload.to_vec();
        edit(&mut crafted);
        let crafted = reframe(SNAPSHOT_SCHEMA_VERSION, &crafted);
        let mut policy = EasyBackfill;
        let resumed = ClusterSim::resume(
            chaos_system(),
            jobs.clone(),
            &mut policy,
            grid_config(),
            &crafted,
        );
        if let Err(err) = resumed {
            failures.push(format!("{name}: {err:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
