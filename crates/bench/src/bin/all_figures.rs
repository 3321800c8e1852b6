//! One-shot reproduction entry point: runs every figure binary and collects
//! their console output under `results/logs/`.
//!
//! Runs as a resumable campaign checkpointed to
//! `results/logs/all_figures.manifest.jsonl` — re-running with `--resume`
//! skips figures that already completed and forwards `--resume` to the
//! unfinished ones so they continue from their own manifests. A failing
//! figure is recorded and reported at the end instead of aborting the rest.
//!
//! ```sh
//! cargo run --release -p wsan-bench --bin all_figures [-- --quick --seed 1 --jobs 2 --resume]
//! ```

use serde::{Deserialize, Serialize};
use std::process::{Command, ExitCode};
use wsan_bench::{results_dir, run_main, write_err, BenchError, RunOptions};
use wsan_expr::campaign::{self, CampaignConfig, PointSpec};
use wsan_expr::table;

const FIGURES: &[&str] = &[
    "fig1_2_3",
    "fig4_5",
    "fig6",
    "fig7",
    "fig8_9",
    "fig10_11",
    "ablation",
    "orchestra_cmp",
    "coexistence",
];

/// What running one figure binary produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FigureOutcome {
    figure: String,
    /// Whether the binary exited successfully (false also covers "could not
    /// be launched").
    success: bool,
    /// The process exit status code, when there was one.
    status: Option<i32>,
    /// Wall-clock run time of the binary.
    elapsed_ms: u64,
}

fn main() -> ExitCode {
    run_main(|| {
        let opts = RunOptions::try_parse(100)?;
        let exe_dir = std::env::current_exe()
            .map_err(|e| BenchError::Run(format!("cannot locate own binary: {e}")))
            .and_then(|p| {
                p.parent().map(|d| d.to_path_buf()).ok_or_else(|| {
                    BenchError::Run("own binary path has no parent directory".to_string())
                })
            })?;
        let log_dir = results_dir().join("logs");
        std::fs::create_dir_all(&log_dir).map_err(write_err(&log_dir))?;

        let manifest = log_dir.join("all_figures.manifest.jsonl");
        if opts.resume {
            // a checkpointed failure must re-run, not replay as failed
            campaign::drop_checkpoints(&manifest, |o: &FigureOutcome| !o.success)?;
        }
        let points: Vec<PointSpec<&str>> =
            FIGURES.iter().map(|&f| PointSpec::new(f.to_string(), f)).collect();
        let cfg = CampaignConfig {
            // each point is a whole process; run them one at a time unless
            // the user explicitly asks for more
            jobs: if opts.jobs == 0 { 1 } else { opts.jobs },
            manifest: Some(manifest),
            resume: opts.resume,
        };
        let mut outcomes: Vec<FigureOutcome> = Vec::new();
        let summary = campaign::run(
            "all_figures",
            &points,
            &cfg,
            |p| {
                let figure = p.input;
                let mut cmd = Command::new(exe_dir.join(figure));
                cmd.arg("--seed").arg(opts.seed.to_string());
                if opts.quick {
                    cmd.arg("--quick");
                }
                if opts.resume {
                    cmd.arg("--resume");
                }
                let started = std::time::Instant::now();
                let (success, status) = match cmd.output() {
                    Ok(output) => {
                        let log = log_dir.join(format!("{figure}.txt"));
                        let mut body = output.stdout;
                        body.extend_from_slice(&output.stderr);
                        std::fs::write(&log, &body)
                            .map_err(|e| format!("cannot write {}: {e}", log.display()))?;
                        (output.status.success(), output.status.code())
                    }
                    Err(e) => {
                        eprintln!(
                            "could not launch {figure} ({e}); build the workspace in release first"
                        );
                        (false, None)
                    }
                };
                Ok(FigureOutcome {
                    figure: figure.to_string(),
                    success,
                    status,
                    elapsed_ms: started.elapsed().as_millis() as u64,
                })
            },
            |_, r: FigureOutcome| {
                let log = log_dir.join(format!("{}.txt", r.figure));
                if r.success {
                    println!("{}: ok ({} ms) → {}", r.figure, r.elapsed_ms, log.display());
                } else {
                    println!("{}: FAILED (status {:?}) → {}", r.figure, r.status, log.display());
                }
                outcomes.push(r);
            },
        )?;

        let timings = log_dir.join("timings.json");
        table::write_json(&timings, &outcomes).map_err(write_err(&timings))?;
        println!("per-figure timings written to {}", timings.display());
        println!("({} figures run, {} resumed)", summary.executed, summary.resumed);

        let failures: Vec<&str> =
            outcomes.iter().filter(|o| !o.success).map(|o| o.figure.as_str()).collect();
        if failures.is_empty() {
            println!("\nall figures regenerated; see EXPERIMENTS.md for paper-vs-measured notes");
            Ok(())
        } else {
            Err(BenchError::Run(format!("failed figures: {failures:?}")))
        }
    })
}
