//! Criterion benches for the allocators (DESIGN.md decision 4): how much
//! does topology-aware placement cost relative to first-fit, and what
//! does it buy in communication locality (reported as a bench-time
//! side-print once per run)?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epa_cluster::alloc::{AllocStrategy, Allocator};
use epa_cluster::topology::Topology;
use std::hint::black_box;

fn topo() -> Topology {
    Topology::Dragonfly {
        nodes_per_router: 4,
        routers_per_group: 16,
    }
}

/// Allocate/release churn: repeatedly allocate 32 nodes and release the
/// oldest allocation, fragmenting the free set realistically.
fn churn(strategy: AllocStrategy, rounds: usize) -> usize {
    let mut alloc = Allocator::new(1024, strategy, topo());
    let mut live: Vec<epa_cluster::NodeSet> = Vec::new();
    let mut done = 0;
    for i in 0..rounds {
        if let Ok(nodes) = alloc.allocate(32) {
            live.push(nodes);
            done += 1;
        }
        if live.len() > 16 || (i % 3 == 0 && !live.is_empty()) {
            let nodes = live.remove(0);
            alloc.release(&nodes);
        }
    }
    done
}

fn bench_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc/churn-1024-nodes-32-node-jobs");
    for (name, strategy) in [
        ("first-fit", AllocStrategy::FirstFit),
        ("contiguous", AllocStrategy::Contiguous),
        ("topology-aware", AllocStrategy::TopologyAware),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &strategy, |b, &s| {
            b.iter(|| black_box(churn(s, 100)));
        });
    }
    g.finish();
}

fn bench_pairwise_distance(c: &mut Criterion) {
    let t = topo();
    let nodes: Vec<epa_cluster::node::NodeId> = (0..128).map(epa_cluster::node::NodeId).collect();
    c.bench_function("alloc/avg-pairwise-distance-128", |b| {
        b.iter(|| black_box(t.avg_pairwise_distance(&nodes)));
    });
}

criterion_group!(benches, bench_strategies, bench_pairwise_distance);
criterion_main!(benches);
