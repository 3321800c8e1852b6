//! Criterion benches of the scheduler hot path (PR 5): the optimized
//! NR/RA/RC engines against the slot-by-slot `wsan_core::reference`
//! baselines, over the tracked scenarios of [`wsan_bench::sched`] — both
//! testbed scales, sparse and dense loads.
//!
//! The headline series is `sched/<scenario>/RC` vs
//! `sched/<scenario>/RC-ref` on the dense scenarios: the word-level
//! findSlot + rank-cached laxity path must hold a ≥ 2x advantage there.
//!
//! `network_model/*` and `comm_graph/*` time the per-topology inputs every
//! schedule run starts from.
//!
//! `WSAN_BENCH_SAMPLES` overrides the per-benchmark sample count (ci.sh's
//! smoke step sets it to 2 so the bench compiles-and-runs in seconds).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsan_bench::sched::{contenders, scenarios};
use wsan_core::NetworkModel;
use wsan_net::{testbeds, ChannelId, Prr};

fn sample_size() -> usize {
    std::env::var("WSAN_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(20)
}

fn bench_sched(c: &mut Criterion) {
    for sc in scenarios() {
        let Some((flows, model)) = sc.build(42) else {
            continue;
        };
        let mut group = c.benchmark_group(&format!("sched/{}", sc.name));
        for (name, scheduler) in contenders() {
            // skip combos the scheduler cannot satisfy (e.g. NR at dense
            // loads); the bench measures successful schedule construction
            if scheduler.schedule(&flows, &model).is_err() {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(name, sc.flows), &sc.flows, |b, _| {
                b.iter(|| scheduler.schedule(&flows, &model).expect("schedulable"))
            });
        }
        group.finish();
    }
}

fn bench_network_model(c: &mut Criterion) {
    let topo = testbeds::indriya(1);
    let channels = ChannelId::all().take(5);
    c.bench_function("network_model/indriya-5ch", |b| {
        b.iter(|| NetworkModel::new(&topo, &channels))
    });
    c.bench_function("comm_graph/indriya-5ch", |b| {
        b.iter(|| topo.comm_graph(&channels, Prr::new(0.9).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(sample_size());
    targets = bench_sched, bench_network_model
}
criterion_main!(benches);
