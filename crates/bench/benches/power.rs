//! Criterion benches for the power substrate: exact trace integration,
//! RAPL window accounting, meter updates, and static vs dynamic power
//! sharing — the inner loops of every power tick (DESIGN.md decision 1's
//! telemetry-interval trade-off is bounded by these costs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epa_power::rapl::RaplDomain;
use epa_sched::policies::power_sharing::{JobPowerNeed, PowerSharingManager};
use epa_simcore::series::TimeSeries;
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::job::JobId;
use std::collections::BTreeMap;
use std::hint::black_box;

fn trace_with(n: usize) -> TimeSeries {
    let mut ts = TimeSeries::new();
    for i in 0..n {
        ts.push(SimTime::from_secs(i as f64), 100.0 + (i % 7) as f64 * 37.0);
    }
    ts
}

fn bench_integration(c: &mut Criterion) {
    let mut g = c.benchmark_group("power/trace-integration");
    for n in [100usize, 10_000] {
        let ts = trace_with(n);
        let end = SimTime::from_secs(n as f64);
        g.bench_with_input(BenchmarkId::from_parameter(n), &ts, |b, ts| {
            b.iter(|| black_box(ts.integrate(SimTime::ZERO, end)));
        });
    }
    g.finish();

    // Prefix-sum lookup vs the retired full scan, on a narrow window in
    // the middle of a long trace — the allocation-energy access pattern
    // (job window ≪ trace span) where the O(log n) path pays off.
    let ts = trace_with(100_000);
    let (a, b_end) = (SimTime::from_secs(50_000.0), SimTime::from_secs(50_600.0));
    let mut g = c.benchmark_group("power/windowed-integrate-100k-trace");
    g.bench_function("prefix-sum", |b| {
        b.iter(|| black_box(ts.integrate(a, b_end)));
    });
    g.bench_function("naive-scan", |b| {
        b.iter(|| black_box(ts.integrate_naive(a, b_end)));
    });
    g.finish();
}

fn bench_meter_updates(c: &mut Criterion) {
    use epa_cluster::node::NodeId;
    use epa_power::meter::EnergyMeter;

    let nodes: Vec<NodeId> = (0..256u32).map(NodeId).collect();
    let mut g = c.benchmark_group("power/meter-update-256-nodes");
    g.bench_function("per-node", |b| {
        b.iter(|| {
            let mut m = EnergyMeter::new(SimDuration::from_mins(5.0));
            for step in 0..16u32 {
                let t = SimTime::from_secs(f64::from(step) * 60.0);
                for &n in &nodes {
                    m.set_node_watts(n, t, 90.0 + f64::from(step));
                }
            }
            black_box(m.system_watts())
        });
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            let mut m = EnergyMeter::new(SimDuration::from_mins(5.0));
            for step in 0..16u32 {
                let t = SimTime::from_secs(f64::from(step) * 60.0);
                m.set_alloc_watts(&nodes, t, 90.0 + f64::from(step));
            }
            black_box(m.system_watts())
        });
    });
    g.finish();
}

fn bench_rapl(c: &mut Criterion) {
    let mut domain = RaplDomain::new(250.0, SimDuration::from_secs(60.0)).unwrap();
    for i in 0..10_000 {
        domain.record(SimTime::from_secs(i as f64), 200.0 + (i % 5) as f64 * 30.0);
    }
    c.bench_function("power/rapl-windowed-average-10k-trace", |b| {
        b.iter(|| black_box(domain.windowed_average(SimTime::from_secs(10_000.0))));
    });
}

fn bench_sharing(c: &mut Criterion) {
    let needs: BTreeMap<_, _> = (0..256u64)
        .map(|i| {
            (
                JobId(i),
                JobPowerNeed {
                    demand_watts: 200.0 + (i % 13) as f64 * 25.0,
                    floor_watts: 80.0,
                },
            )
        })
        .collect();
    let mgr = PowerSharingManager::new(40_000.0);
    let mut g = c.benchmark_group("power/sharing-256-jobs");
    g.bench_function("static", |b| {
        b.iter(|| black_box(mgr.allocate_static(&needs)));
    });
    g.bench_function("dynamic", |b| {
        b.iter(|| black_box(mgr.allocate_dynamic(&needs)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_integration,
    bench_meter_updates,
    bench_rapl,
    bench_sharing
);
criterion_main!(benches);
