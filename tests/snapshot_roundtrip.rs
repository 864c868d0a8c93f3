//! Per-component snapshot roundtrip properties.
//!
//! Each stateful subsystem the engine snapshot captures is exercised in
//! isolation: drive it through a randomized operation sequence, freeze
//! it (`snapshot_into`), restore it (`restore_from`), and freeze the
//! restored copy again. The two frames must be **byte-equal** — the
//! strongest statement that restore loses nothing, including the bits
//! of every floating-point accumulator.

use epa_cluster::alloc::{AllocStrategy, Allocator};
use epa_cluster::node::NodeId;
use epa_cluster::nodeset::NodeSet;
use epa_cluster::topology::Topology;
use epa_grid::{DrContract, DrEvent, GridConfig, GridState};
use epa_power::meter::EnergyMeter;
use epa_simcore::rng::SimRng;
use epa_simcore::snap::{SnapReader, SnapWriter};
use epa_simcore::time::{SimDuration, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

const VERSION: u32 = 1;

/// The meter's power-trace sample grid (the engine's 5 minutes).
fn grid() -> SimDuration {
    SimDuration::from_mins(5.0)
}

/// Freezes one component into a standalone test frame.
fn freeze(f: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    f(&mut w);
    w.finish(VERSION)
}

/// Opens a test frame, restores a component from it, and checks the
/// payload was consumed exactly.
fn thaw<T>(
    bytes: &[u8],
    f: impl FnOnce(&mut SnapReader<'_>) -> Result<T, epa_simcore::snap::SnapshotError>,
) -> T {
    let mut r = SnapReader::open(bytes, VERSION).expect("frame opens");
    let value = f(&mut r).expect("component restores");
    r.finish().expect("no trailing bytes");
    value
}

proptest! {
    /// Interval-run allocator: random allocate / release / fence
    /// sequences, then snapshot → restore → snapshot byte-equality.
    #[test]
    fn allocator_roundtrip_is_byte_exact(
        ops in vec((0u8..3, 1u32..9), 0..48),
        strategy_pick in 0u8..3,
    ) {
        let strategy = match strategy_pick {
            0 => AllocStrategy::FirstFit,
            1 => AllocStrategy::Contiguous,
            _ => AllocStrategy::TopologyAware,
        };
        let topology = Topology::FatTree { arity: 8 };
        let mut alloc = Allocator::new(32, strategy, topology.clone());
        let mut live: Vec<NodeSet> = Vec::new();
        for &(op, arg) in &ops {
            match op {
                0 => {
                    if let Ok(nodes) = alloc.allocate(arg) {
                        live.push(nodes);
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let idx = arg as usize % live.len();
                        let nodes = live.swap_remove(idx);
                        alloc.release(&nodes);
                    }
                }
                _ => {
                    // Fence/unfence a node; both are no-ops unless the
                    // node is in the right state, which is fine.
                    let node = NodeId(arg % 32);
                    if arg % 2 == 0 {
                        alloc.mark_unavailable(node);
                    } else {
                        alloc.mark_available(node);
                    }
                }
            }
        }
        let a = freeze(|w| alloc.snapshot_into(w));
        let restored = thaw(&a, |r| {
            Allocator::restore_from(r, strategy, topology.clone())
        });
        let b = freeze(|w| restored.snapshot_into(w));
        prop_assert_eq!(&a, &b, "allocator frames diverged");
    }

    /// Energy meter: monotone-time watt updates plus group open/retag/
    /// close cycles, deliberately leaving some groups **open** at the
    /// snapshot point — the mid-campaign case.
    #[test]
    fn meter_roundtrip_is_byte_exact_with_open_groups(
        ops in vec((0u8..4, 0u32..16, 50.0f64..400.0, 0.5f64..600.0), 0..40),
    ) {
        let mut meter = EnergyMeter::new(grid());
        let mut t = 0.0f64;
        // Nodes not currently inside a group (groups must stay disjoint).
        let mut pool: Vec<u32> = (0..16).collect();
        let mut open: Vec<(epa_power::meter::GroupId, NodeSet)> = Vec::new();
        for &(op, pick, watts, dt) in &ops {
            t += dt;
            let now = SimTime::from_secs(t);
            match op {
                0 => {
                    if !pool.is_empty() {
                        let node = NodeId(pool[pick as usize % pool.len()]);
                        meter.set_node_watts(node, now, watts);
                    }
                }
                1 => {
                    // Open a group over 1..=4 pooled nodes.
                    let take = (1 + pick as usize % 4).min(pool.len());
                    if take > 0 {
                        let members: NodeSet =
                            pool.drain(..take).map(NodeId).collect();
                        let gid = meter.open_group(&members, now, watts);
                        open.push((gid, members));
                    }
                }
                2 => {
                    if !open.is_empty() {
                        let (gid, _) = open[pick as usize % open.len()];
                        meter.set_group_watts(gid, now, watts);
                    }
                }
                _ => {
                    if !open.is_empty() {
                        let idx = pick as usize % open.len();
                        let (gid, members) = open.swap_remove(idx);
                        meter.close_group(gid, &members, now, watts);
                        pool.extend(members.iter().map(|n| n.0));
                    }
                }
            }
        }
        let a = freeze(|w| meter.snapshot_into(w));
        let restored = thaw(&a, |r| EnergyMeter::restore_from(r, grid(), 16));
        let b = freeze(|w| restored.snapshot_into(w));
        prop_assert_eq!(&a, &b, "meter frames diverged ({} open groups)", open.len());
    }

    /// RNG substreams: after an arbitrary number of draws, the
    /// (seed, position) state roundtrips byte-exactly and the restored
    /// stream continues with bit-identical draws.
    #[test]
    fn rng_substream_roundtrip_is_byte_exact(
        seed in any::<u64>(),
        stream_idx in 0u64..8,
        draws in 0usize..300,
    ) {
        let mut rng = SimRng::new(seed).stream_indexed("roundtrip", stream_idx);
        for _ in 0..draws {
            rng.uniform();
        }
        let a = freeze(|w| {
            let (s, pos) = rng.snapshot_state();
            w.u64(s);
            w.u64(pos);
        });
        let mut restored = thaw(&a, |r| {
            let s = r.u64()?;
            let pos = r.u64()?;
            Ok(SimRng::from_state(s, pos))
        });
        let b = freeze(|w| {
            let (s, pos) = restored.snapshot_state();
            w.u64(s);
            w.u64(pos);
        });
        prop_assert_eq!(&a, &b, "rng state frames diverged");
        // The continuation is the point: identical bits after restore.
        for i in 0..16 {
            let x = rng.uniform();
            let y = restored.uniform();
            prop_assert_eq!(x.to_bits(), y.to_bits(), "draw {} diverged", i);
        }
    }

    /// Grid twin: random tick sequences (monotone time, varying draw and
    /// temperature) interleaved with DR event boundaries, snapshotted
    /// mid-event. The restored state must re-freeze byte-identically —
    /// trace cursors, per-event accumulators, and every settled
    /// floating-point total included.
    #[test]
    fn grid_state_roundtrip_is_byte_exact(
        seed in any::<u64>(),
        follow in (0.0f64..0.8, 0.0f64..0.8),
        ops in vec((0u8..4, 60.0f64..7200.0, 0.0f64..1200.0, -5.0f64..40.0), 0..60),
    ) {
        let mut cfg = GridConfig::synthetic(1000.0, 1400.0, 80.0, 350.0, 3, 1.5, seed);
        cfg.price_follow = follow.0;
        cfg.carbon_follow = follow.1;
        cfg.contract = DrContract {
            events: vec![
                DrEvent {
                    start: SimTime::from_hours(10.0),
                    end: SimTime::from_hours(14.0),
                    target_frac: 0.5,
                    enforce: false,
                },
                DrEvent {
                    start: SimTime::from_hours(30.0),
                    end: SimTime::from_hours(33.0),
                    target_frac: 0.7,
                    enforce: true,
                },
            ],
            penalty_per_excess_kwh: 8.0,
            tolerance_kwh: 0.25,
        };
        cfg.validate().expect("grid config validates");
        let mut state = GridState::new(cfg.clone());
        let mut t = 0.0f64;
        for &(op, dt, watts, temp) in &ops {
            match op {
                0 => state.on_event_start(0),
                1 => state.on_event_end(0),
                2 => state.on_event_start(1),
                _ => {
                    t += dt;
                    state.on_tick(SimTime::from_secs(t), dt, watts, temp, 1.0);
                }
            }
        }
        let a = freeze(|w| state.snapshot_into(w));
        let mut restored = GridState::new(cfg);
        thaw(&a, |r| restored.restore_from(r));
        let b = freeze(|w| restored.snapshot_into(w));
        prop_assert_eq!(&a, &b, "grid state frames diverged");
        prop_assert_eq!(&restored, &state);
        // Settlement is part of the contract: the restored twin must
        // price the run identically.
        prop_assert_eq!(restored.summary(), state.summary());
    }
}
