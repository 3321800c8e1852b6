//! Golden-digest tests for the campaign engine (ISSUE 4 acceptance):
//! the parallel aggregate is byte-identical to the sequential one, and an
//! interrupted campaign resumed with `--resume` reproduces the aggregate of
//! an uninterrupted run without re-running checkpointed points.

use wsan_expr::campaign::CampaignConfig;
use wsan_expr::campaigns::{run_named, SweepOptions};

fn opts() -> SweepOptions {
    SweepOptions { sets: 2, seed: 3, ..SweepOptions::default() }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wsan-campaign-golden-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn parallel_aggregate_json_is_byte_identical_to_sequential() {
    let sequential =
        run_named("smoke", &opts(), &CampaignConfig { jobs: 1, ..Default::default() }).unwrap();
    // jobs pinned explicitly: the host may have a single core
    let parallel =
        run_named("smoke", &opts(), &CampaignConfig { jobs: 4, ..Default::default() }).unwrap();
    assert_eq!(sequential.json, parallel.json, "parallel aggregate diverged from sequential");
    assert_eq!(sequential.summary.executed, 3);
    assert_eq!(parallel.summary.executed, 3);
}

#[test]
fn interrupted_campaign_resumes_to_the_uninterrupted_aggregate() {
    let dir = temp_dir("resume");
    let manifest = dir.join("smoke.manifest.jsonl");

    // the reference: one uninterrupted run (no manifest involved)
    let reference = run_named("smoke", &opts(), &CampaignConfig::default()).unwrap();

    // a full run whose manifest we then truncate mid-line, as a kill during
    // the last checkpoint write would leave it
    let first = run_named(
        "smoke",
        &opts(),
        &CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), ..Default::default() },
    )
    .unwrap();
    assert_eq!(first.json, reference.json);
    let text = std::fs::read_to_string(&manifest).unwrap();
    let keep: Vec<&str> = text.lines().take(2).collect(); // header + first point
    let mut truncated = keep.join("\n");
    truncated.push('\n');
    truncated.push_str(&text.lines().nth(2).unwrap()[..10]); // torn third line
    std::fs::write(&manifest, truncated).unwrap();

    let resumed = run_named(
        "smoke",
        &opts(),
        &CampaignConfig { jobs: 1, manifest: Some(manifest), resume: true },
    )
    .unwrap();
    assert_eq!(
        resumed.json, reference.json,
        "resumed aggregate diverged from the uninterrupted run"
    );
    assert_eq!(resumed.summary.resumed, 1, "the intact checkpointed point must be replayed");
    assert_eq!(resumed.summary.executed, 2, "only the missing points may re-run");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resume_of_a_complete_manifest_executes_nothing() {
    let dir = temp_dir("noop");
    let manifest = dir.join("smoke.manifest.jsonl");
    let first = run_named(
        "smoke",
        &opts(),
        &CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), ..Default::default() },
    )
    .unwrap();
    let resumed = run_named(
        "smoke",
        &opts(),
        &CampaignConfig { jobs: 2, manifest: Some(manifest), resume: true },
    )
    .unwrap();
    assert_eq!(resumed.summary.executed, 0);
    assert_eq!(resumed.summary.resumed, 3);
    assert_eq!(resumed.json, first.json);
    let _ = std::fs::remove_dir_all(dir);
}
