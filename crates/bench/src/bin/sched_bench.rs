//! `sched_bench` — the tracked scheduler hot-path benchmark.
//!
//! Times full schedule construction for the optimized NR/RA/RC engines and
//! their slot-by-slot `wsan_core::reference` baselines over the scenarios
//! of [`wsan_bench::sched`], then writes `BENCH_scheduler.json` (median
//! ns/placement, schedules/sec, RC speedup vs. reference) so the perf
//! trajectory is comparable across PRs. Unlike the criterion bench this
//! times with [`wsan_bench::harness`], so it runs as an ordinary binary:
//!
//! ```sh
//! cargo run --release -p wsan-bench --bin sched_bench [-- --iters 30 --quick --out PATH]
//! ```
//!
//! * `--iters N` — timed runs per scheduler/scenario (default 30),
//! * `--seed S` — workload generation seed (default 42),
//! * `--quick` — caps iterations at 3 for a smoke pass,
//! * `--out PATH` — output path (default `results/BENCH_scheduler.json`).

use serde::Serialize;
use std::process::ExitCode;
use wsan_bench::harness::{time_runs, BenchArgs};
use wsan_bench::sched::{contenders, scenarios};
use wsan_bench::{run_main, BenchError};

/// The file-format tag checked by ci.sh's smoke step.
const SCHEMA: &str = "wsan.sched_bench/1";

#[derive(Debug, Serialize)]
struct AlgoResult {
    name: String,
    schedulable: bool,
    /// Scheduled entries per run (identical across iterations).
    placements: u64,
    median_ns_per_schedule: Option<u64>,
    median_ns_per_placement: Option<f64>,
    schedules_per_sec: Option<f64>,
}

#[derive(Debug, Serialize)]
struct ScenarioResult {
    name: String,
    flows: u64,
    dense: bool,
    algorithms: Vec<AlgoResult>,
    /// Median-over-median speedup of optimized RC vs. the reference RC —
    /// the acceptance series (≥ 2x on dense scenarios).
    speedup_rc_vs_reference: Option<f64>,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    iters: u64,
    seed: u64,
    scenarios: Vec<ScenarioResult>,
}

fn main() -> ExitCode {
    run_main(|| {
        let opts = BenchArgs::try_parse(30, 3)?;
        let mut report = Report {
            schema: SCHEMA.to_string(),
            iters: opts.iters as u64,
            seed: opts.seed,
            scenarios: Vec::new(),
        };
        println!("== sched_bench: {} iters/scheduler, seed {} ==", opts.iters, opts.seed);
        for sc in scenarios() {
            let (flows, model) = sc.build(opts.seed).ok_or_else(|| {
                BenchError::Run(format!("scenario {} failed to generate a workload", sc.name))
            })?;
            let mut result = ScenarioResult {
                name: sc.name.to_string(),
                flows: sc.flows as u64,
                dense: sc.dense,
                algorithms: Vec::new(),
                speedup_rc_vs_reference: None,
            };
            let mut rc_median: Option<u64> = None;
            let mut rc_ref_median: Option<u64> = None;
            for (name, scheduler) in contenders() {
                // the probe: unschedulable contenders are recorded, not timed
                if scheduler.schedule(&flows, &model).is_err() {
                    println!("  {:>15} {:>7}: unschedulable, skipped", sc.name, name);
                    result.algorithms.push(AlgoResult {
                        name: name.to_string(),
                        schedulable: false,
                        placements: 0,
                        median_ns_per_schedule: None,
                        median_ns_per_placement: None,
                        schedules_per_sec: None,
                    });
                    continue;
                }
                let (median, schedule) =
                    time_runs(&format!("{} {name}", sc.name), opts.iters, || {
                        scheduler.schedule(&flows, &model).expect("schedulable")
                    })?;
                let placements = schedule.entry_count() as u64;
                if name == "RC" {
                    rc_median = Some(median);
                } else if name == "RC-ref" {
                    rc_ref_median = Some(median);
                }
                println!(
                    "  {:>15} {:>7}: {:>12} ns/schedule  {:>9.1} ns/placement  {:>8.1} schedules/s",
                    sc.name,
                    name,
                    median,
                    median as f64 / placements as f64,
                    1e9 / median as f64
                );
                result.algorithms.push(AlgoResult {
                    name: name.to_string(),
                    schedulable: true,
                    placements,
                    median_ns_per_schedule: Some(median),
                    median_ns_per_placement: Some(median as f64 / placements as f64),
                    schedules_per_sec: Some(1e9 / median as f64),
                });
            }
            if let (Some(rc), Some(rc_ref)) = (rc_median, rc_ref_median) {
                let speedup = rc_ref as f64 / rc as f64;
                println!("  {:>15} RC speedup vs reference: {speedup:.2}x", sc.name);
                result.speedup_rc_vs_reference = Some(speedup);
            }
            report.scenarios.push(result);
        }
        opts.write_report("BENCH_scheduler.json", &report)?;
        Ok(())
    })
}
