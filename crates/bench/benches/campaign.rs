//! Criterion benches of the campaign engine: the same smoke-scale sweep run
//! sequentially, in parallel (4 pinned workers, regardless of the host's
//! core count), and resumed from a complete manifest. The parallel variant
//! should beat sequential on a multi-core host; the resumed variant only
//! replays checkpoints and should beat both by a wide margin.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsan_expr::campaign::CampaignConfig;
use wsan_expr::campaigns::{run_named, SweepOptions};

fn opts() -> SweepOptions {
    SweepOptions { sets: 4, seed: 11, ..SweepOptions::default() }
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign/smoke");

    group.bench_with_input(BenchmarkId::new("smoke", "sequential"), &(), |b, ()| {
        b.iter(|| {
            run_named("smoke", &opts(), &CampaignConfig { jobs: 1, ..Default::default() })
                .expect("smoke campaign runs")
        })
    });

    group.bench_with_input(BenchmarkId::new("smoke", "parallel-4"), &(), |b, ()| {
        b.iter(|| {
            run_named("smoke", &opts(), &CampaignConfig { jobs: 4, ..Default::default() })
                .expect("smoke campaign runs")
        })
    });

    // pre-populate a manifest once; every iteration then replays it
    let dir = std::env::temp_dir().join("wsan-campaign-bench");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("smoke.manifest.jsonl");
    run_named(
        "smoke",
        &opts(),
        &CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), ..Default::default() },
    )
    .expect("checkpointing run");
    group.bench_with_input(BenchmarkId::new("smoke", "resumed"), &(), |b, ()| {
        b.iter(|| {
            run_named(
                "smoke",
                &opts(),
                &CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), resume: true },
            )
            .expect("resumed campaign runs")
        })
    });
    let _ = std::fs::remove_dir_all(dir);

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_campaign
}
criterion_main!(benches);
