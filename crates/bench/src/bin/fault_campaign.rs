//! Fault campaign — recovered PDR vs. fault intensity.
//!
//! Peer-to-peer flows at 1 s on channels 11–14 (WUSTL). For each intensity
//! `k`, the `k` busiest scheduled links collapse to PRR 0 mid-run, and the
//! supervised recovery loop (classify → repair → re-validate, shedding
//! flows in inverse deadline-monotonic order when repair cannot restore
//! feasibility) runs until the network is healthy again. The sweep reports
//! how many flows each intensity costs and the PDR of the survivors,
//! against the fault-free baseline.
//!
//! Runs as a resumable campaign — one point per (algorithm, intensity)
//! plus a baseline point per algorithm — checkpointed to
//! `results/fault_campaign.manifest.jsonl`. Algorithms that cannot
//! schedule the workload are skipped, not fatal.
//!
//! ```sh
//! cargo run --release -p wsan-bench --bin fault_campaign [-- --seed 1 --quick --jobs 4 --resume]
//! ```

use std::process::ExitCode;
use wsan_bench::harness::timed;
use wsan_bench::{results_dir, run_main, write_err, RunOptions};
use wsan_expr::campaigns;
use wsan_expr::table;

fn main() -> ExitCode {
    run_main(|| {
        let opts = RunOptions::try_parse(1)?;
        let (campaign_ns, results) =
            timed(|| campaigns::faults(&opts.sweep(), &opts.campaign("fault_campaign")));
        let (results, summary) = results?;
        for result in &results {
            println!(
                "\n==== {} fault campaign: {} flows, fault-free network PDR {} ====",
                result.algorithm,
                result.flows,
                table::f3(result.baseline_pdr)
            );
            let headers =
                ["collapsed links", "shed flows", "surviving", "residual PDR", "converged"];
            let rows: Vec<Vec<String>> = result
                .points
                .iter()
                .map(|p| {
                    vec![
                        p.collapsed_links.to_string(),
                        p.shed_flows.to_string(),
                        p.surviving_flows.to_string(),
                        table::f3(p.residual_pdr),
                        p.converged.to_string(),
                    ]
                })
                .collect();
            print!("{}", table::render(&headers, &rows));
        }
        let path = results_dir().join("fault_campaign.json");
        let (write_ns, written) = timed(|| table::write_json(&path, &results));
        written.map_err(write_err(&path))?;
        println!(
            "\nresults written under {} ({} points executed, {} resumed)",
            results_dir().display(),
            summary.executed,
            summary.resumed
        );
        eprintln!(
            "phase timings: fault campaign {:.3}s, write results {:.3}s",
            campaign_ns as f64 / 1e9,
            write_ns as f64 / 1e9
        );
        Ok(())
    })
}
