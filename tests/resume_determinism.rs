//! Kill-point injection harness for crash-safe snapshot/resume.
//!
//! Per chaos seed, the engine is killed (dropped) at randomized points
//! — including mid-campaign under 4 threads — and
//! resumed from the latest snapshot, possibly several times in a chain
//! (crash → resume → crash again → resume). The contract under test:
//!
//! 1. The final [`SimOutcome`] of the resumed run is **byte-identical**
//!    (pretty-JSON) to the uninterrupted run of the same seed.
//! 2. The exported JSONL decision trace is byte-identical too: the
//!    snapshot carries the trace ring, so a resumed run's trace is
//!    indistinguishable from one that never crashed.
//! 3. Both hold at every thread count, and the thread count is free to
//!    change across the crash boundary.
//! 4. Corrupt, truncated, version-skewed, or mismatched snapshots are
//!    rejected with typed [`SnapshotError`]s — never a panic, never a
//!    silently divergent run.

use epa_cluster::layout::{Equipment, FacilityLayout, MaintenanceWindow, PduId};
use epa_cluster::node::NodeSpec;
use epa_cluster::system::{System, SystemSpec};
use epa_cluster::topology::Topology;
use epa_faults::{ActuatorFaultConfig, DomainFaultConfig, FaultConfig, SensorFaultConfig};
use epa_obs::{trace_to_jsonl, TraceConfig};
use epa_sched::emergency::EmergencyPolicy;
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::policies::backfill::EasyBackfill;
use epa_sched::shutdown::ShutdownPolicy;
use epa_sched::{Snapshot, SNAPSHOT_SCHEMA_VERSION};
use epa_simcore::snap::{fnv1a64, SnapWriter, SnapshotError, SNAP_MAGIC};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};
use epa_workload::job::Job;

const NODES: u32 = 32;
const NOMINAL_W: f64 = 290.0;
const BUDGET_FRAC: f64 = 0.7;
const HORIZON_DAYS: f64 = 2.0;

fn chaos_system() -> System {
    SystemSpec {
        name: "resume-32".into(),
        cabinets: 4,
        nodes_per_cabinet: 8,
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity: 16 },
        peak_tflops: 32.0,
    }
    .build()
}

fn chaos_jobs(seed: u64) -> Vec<Job> {
    let horizon = SimTime::from_days(HORIZON_DAYS);
    WorkloadGenerator::new(WorkloadParams::typical(NODES, seed)).generate(horizon, 0)
}

/// The full chaos configuration from `tests/chaos.rs`, with the trace
/// fully enabled so the JSONL export exercises every category.
fn chaos_config(seed: u64) -> EngineConfig {
    let mut config = EngineConfig::new(SimTime::from_days(HORIZON_DAYS));
    config.power_budget_watts = Some(f64::from(NODES) * NOMINAL_W * BUDGET_FRAC);
    config.emergency = Some(EmergencyPolicy::new(f64::from(NODES) * NOMINAL_W * 0.65));
    config.requeue_killed = true;
    config.checkpoint_interval = Some(SimDuration::from_mins(30.0));
    config.node_mtbf = Some(SimDuration::from_hours(24.0));
    config.repair_time = SimDuration::from_hours(1.0);
    config.seed = seed;
    config.faults = Some(FaultConfig {
        domain: Some(DomainFaultConfig {
            mtbf: SimDuration::from_hours(12.0),
            repair_time: SimDuration::from_hours(1.0),
        }),
        sensor: Some(SensorFaultConfig {
            dropout_prob: 0.25,
            stuck_prob: 0.05,
            ..SensorFaultConfig::default()
        }),
        actuator: Some(ActuatorFaultConfig {
            fail_prob: 0.15,
            ..ActuatorFaultConfig::default()
        }),
        seed,
    });
    config.trace = TraceConfig::all();
    config
}

/// A CEA-style layout-aware machine: PDU 0 (the first cabinet) goes
/// into maintenance mid-run, so every start avoids its nodes, while an
/// aggressive idle shutdown keeps some of those nodes off or booting —
/// the states a layout-aware start must leave untouched.
fn layout_config(seed: u64) -> EngineConfig {
    let mut config = EngineConfig::new(SimTime::from_days(HORIZON_DAYS));
    config.seed = seed;
    config.shutdown = Some(ShutdownPolicy {
        idle_threshold: SimDuration::from_mins(5.0),
        min_idle_reserve: 0,
        ..ShutdownPolicy::default()
    });
    let mut layout = FacilityLayout::regular(&chaos_system(), 1, 2);
    layout.add_maintenance(MaintenanceWindow {
        equipment: Equipment::Pdu(PduId(0)),
        start: SimTime::from_hours(14.0),
        end: SimTime::from_hours(30.0),
    });
    config.layout = Some(layout);
    config.trace = TraceConfig::all();
    config
}

/// Serialized (outcome, trace) pair used for byte comparison.
fn fingerprint_run(
    out: &epa_sched::engine::SimOutcome,
    bundle: &epa_obs::ObsBundle,
) -> (String, String) {
    (
        serde_json::to_string_pretty(out).expect("outcome serializes"),
        trace_to_jsonl(&bundle.trace),
    )
}

/// Straight-through run: no crash, no snapshot.
fn uninterrupted(seed: u64) -> (String, String) {
    uninterrupted_with(seed, || chaos_config(seed))
}

fn uninterrupted_with(seed: u64, config: impl Fn() -> EngineConfig) -> (String, String) {
    let mut policy = EasyBackfill;
    let sim = ClusterSim::new(chaos_system(), chaos_jobs(seed), &mut policy, config());
    let (out, bundle) = sim.run_traced();
    fingerprint_run(&out, &bundle)
}

/// Deterministic pseudo-random kill fractions of the horizon, ascending,
/// derived from the seed so every seed crashes at different barriers.
fn kill_fractions(seed: u64) -> [f64; 3] {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut fracs = [0.0f64; 3];
    for (i, slot) in fracs.iter_mut().enumerate() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jitter = (x % 1000) as f64 / 1000.0;
        *slot = 0.12 + 0.25 * i as f64 + 0.12 * jitter;
    }
    fracs
}

/// Runs the same workload but killed at each fraction of the horizon:
/// the engine is advanced to the kill point, snapshotted, *dropped* (the
/// crash), and a brand-new engine is resumed from the snapshot bytes
/// (round-tripped through `from_bytes` to model a disk read). After the
/// last crash the run is driven to completion with full tracing.
fn killed_and_resumed(seed: u64, fracs: &[f64]) -> (String, String) {
    killed_and_resumed_with(seed, fracs, || chaos_config(seed))
}

fn killed_and_resumed_with(
    seed: u64,
    fracs: &[f64],
    config: impl Fn() -> EngineConfig,
) -> (String, String) {
    let horizon_secs = HORIZON_DAYS * 86_400.0;
    let mut policy = EasyBackfill;
    let mut sim = ClusterSim::new(chaos_system(), chaos_jobs(seed), &mut policy, config());
    let mut snap = sim.run_until(SimTime::from_secs(horizon_secs * fracs[0]));
    drop(sim); // the crash
    for &frac in &fracs[1..] {
        // Model the crash boundary: only the bytes survive.
        let bytes = Snapshot::from_bytes(snap.as_bytes().to_vec());
        bytes.verify_frame().expect("snapshot frame intact");
        let mut policy = EasyBackfill;
        let mut sim = ClusterSim::resume(
            chaos_system(),
            chaos_jobs(seed),
            &mut policy,
            config(),
            &bytes,
        )
        .expect("resume from intact snapshot");
        snap = sim.run_until(SimTime::from_secs(horizon_secs * frac));
        drop(sim);
    }
    let bytes = Snapshot::from_bytes(snap.into_bytes());
    let mut policy = EasyBackfill;
    let sim = ClusterSim::resume(
        chaos_system(),
        chaos_jobs(seed),
        &mut policy,
        config(),
        &bytes,
    )
    .expect("resume from intact snapshot");
    let (out, bundle) = sim.run_traced();
    fingerprint_run(&out, &bundle)
}

/// Layout-aware starts around a maintenance window, with idle shutdown
/// keeping affected nodes off or booting: a three-crash chain (the kill
/// points straddle the window) replays to a byte-identical outcome and
/// trace. Starts exclude the affected nodes without touching
/// unavailability, so no off or booting node ever re-enters the free
/// pool — a state a snapshot could not reproduce.
#[test]
fn layout_aware_crash_resume_is_byte_identical() {
    for seed in [3u64, 4, 5, 6, 7, 8] {
        let fracs = kill_fractions(seed);
        let (base_out, base_trace) = uninterrupted_with(seed, || layout_config(seed));
        let (out, trace) = killed_and_resumed_with(seed, &fracs, || layout_config(seed));
        assert!(
            out == base_out,
            "seed {seed}: layout-aware resumed outcome drifted (kill points {fracs:?})"
        );
        assert!(
            trace == base_trace,
            "seed {seed}: layout-aware resumed trace drifted (kill points {fracs:?})"
        );
    }
}

/// Mid-campaign crashes under 4 threads: a three-crash chain at
/// seed-randomized kill points must replay to a byte-identical outcome
/// and trace.
#[test]
fn multi_crash_resume_is_byte_identical_4_threads() {
    for seed in [1u64, 8, 55] {
        let fracs = kill_fractions(seed);
        let (base_out, base_trace) = rayon::with_num_threads(4, || uninterrupted(seed));
        let (out, trace) = rayon::with_num_threads(4, || killed_and_resumed(seed, &fracs));
        assert!(
            out == base_out,
            "seed {seed}: resumed outcome drifted (kill points {fracs:?})"
        );
        assert!(
            trace == base_trace,
            "seed {seed}: resumed trace drifted (kill points {fracs:?})"
        );
    }
}

/// The thread grid: threads ∈ {1, 4}, crashed once mid-horizon, must
/// land on the same bytes as the uninterrupted serial run.
#[test]
fn crash_resume_matches_across_thread_grid() {
    let seed = 13u64;
    let (base_out, base_trace) = rayon::with_num_threads(1, || uninterrupted(seed));
    for threads in [1usize, 4] {
        let (out, trace) = rayon::with_num_threads(threads, || killed_and_resumed(seed, &[0.5]));
        assert!(
            out == base_out,
            "seed {seed}: outcome drifted at {threads} threads"
        );
        assert!(
            trace == base_trace,
            "seed {seed}: trace drifted at {threads} threads"
        );
    }
}

/// The thread count may change across the crash boundary: snapshot under
/// one thread, finish under four (and vice versa).
#[test]
fn thread_count_may_change_across_the_crash_boundary() {
    let seed = 21u64;
    let (base_out, base_trace) = rayon::with_num_threads(1, || uninterrupted(seed));
    let snap = rayon::with_num_threads(1, || {
        let mut policy = EasyBackfill;
        let mut sim = ClusterSim::new(
            chaos_system(),
            chaos_jobs(seed),
            &mut policy,
            chaos_config(seed),
        );
        sim.run_until(SimTime::from_days(HORIZON_DAYS / 2.0))
    });
    let (out, trace) = rayon::with_num_threads(4, || {
        let mut policy = EasyBackfill;
        let sim = ClusterSim::resume(
            chaos_system(),
            chaos_jobs(seed),
            &mut policy,
            chaos_config(seed),
            &snap,
        )
        .expect("resume across thread-count change");
        let (out, bundle) = sim.run_traced();
        fingerprint_run(&out, &bundle)
    });
    assert!(out == base_out, "outcome drifted across thread change");
    assert!(trace == base_trace, "trace drifted across thread change");
}

/// A snapshot taken after the run already completed resumes to the same
/// final state (and `run_until` past the horizon is a clean no-op).
#[test]
fn snapshot_after_completion_resumes_to_identical_outcome() {
    let seed = 2u64;
    let (base_out, _) = uninterrupted(seed);
    let mut policy = EasyBackfill;
    let mut sim = ClusterSim::new(
        chaos_system(),
        chaos_jobs(seed),
        &mut policy,
        chaos_config(seed),
    );
    let snap = sim.run_until(SimTime::from_days(HORIZON_DAYS * 10.0));
    drop(sim);
    let mut policy = EasyBackfill;
    let sim = ClusterSim::resume(
        chaos_system(),
        chaos_jobs(seed),
        &mut policy,
        chaos_config(seed),
        &snap,
    )
    .expect("resume a completed run");
    let (out, bundle) = sim.run_traced();
    let (out, _) = fingerprint_run(&out, &bundle);
    assert!(out == base_out, "completed-run snapshot drifted");
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
    for old in [5, 6] {
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
