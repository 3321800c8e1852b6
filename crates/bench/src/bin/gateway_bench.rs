//! `gateway_bench` — the tracked online-admission benchmark.
//!
//! Measures what the gateway's delta path buys: admissions per second when
//! each admission re-places only the disturbed priority suffix
//! (`GatewayState::add_flow`) versus recomputing the whole flow set from
//! scratch after every admission, on the 80-node Indriya-scale testbed.
//! Writes `BENCH_gateway.json` (schema-checked by ci.sh) so the admission
//! latency trajectory is comparable across PRs.
//!
//! ```sh
//! cargo run --release -p wsan-bench --bin gateway_bench [-- --iters 10 --quick --out PATH]
//! ```
//!
//! * `--iters N` — timed repetitions per scenario (default 10),
//! * `--seed S` — topology seed (default 42),
//! * `--quick` — caps iterations at 3 for a smoke pass,
//! * `--out PATH` — output path (default `results/BENCH_gateway.json`).

use serde::Serialize;
use std::process::ExitCode;
use wsan_bench::harness::{median_ns, timed, BenchArgs};
use wsan_bench::{run_main, BenchError};
use wsan_core::gateway::{FlowSpec, GatewayConfig, GatewayState};
use wsan_core::{NetworkModel, ReuseConservatively, Scheduler};
use wsan_flow::Period;
use wsan_net::{routing, testbeds, ChannelId, NodeId, Prr};

/// The file-format tag checked by ci.sh's smoke step.
const SCHEMA: &str = "wsan.gateway_bench/1";

#[derive(Debug, Serialize)]
struct ScenarioResult {
    name: String,
    /// Flows admitted before timing starts.
    preloaded: u64,
    /// Timed admissions per iteration.
    admissions: u64,
    /// Median over iterations of total ns for the timed admissions,
    /// suffix-delta path.
    median_delta_ns: u64,
    /// Same admissions, but recomputing the entire flow set each time.
    median_full_ns: u64,
    delta_admissions_per_sec: f64,
    full_admissions_per_sec: f64,
    /// `median_full_ns / median_delta_ns` — the acceptance series.
    speedup_delta_vs_full: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    iters: u64,
    seed: u64,
    testbed: String,
    nodes: u64,
    channels: u64,
    scenarios: Vec<ScenarioResult>,
}

/// Deterministic admission specs: shortest-path routes between arithmetic
/// node pairs, all at the same 128-slot period (so the hyperperiod never
/// changes) with the given relative deadline.
fn make_specs(comm: &wsan_net::CommGraph, count: usize, deadline: u32) -> Vec<FlowSpec> {
    let n = comm.node_count();
    let period = Period::from_slots(128).expect("nonzero");
    let mut specs = Vec::new();
    let mut k = 0usize;
    while specs.len() < count && k < count * 8 {
        let src = NodeId::new((k * 13 + 1) % n);
        let dst = NodeId::new((k * 29 + 7) % n);
        k += 1;
        if src == dst {
            continue;
        }
        let Ok(route) = routing::shortest_path(comm, src, dst) else { continue };
        specs.push(FlowSpec { route, period, deadline_slots: deadline });
    }
    specs
}

fn fresh_gateway(model: &NetworkModel, rho_t: u32) -> GatewayState {
    GatewayState::new(
        model.clone(),
        Box::new(ReuseConservatively::new(rho_t)),
        GatewayConfig { rho_t: Some(rho_t), ..GatewayConfig::default() },
    )
}

fn main() -> ExitCode {
    run_main(|| {
        let opts = BenchArgs::try_parse(10, 3)?;
        let topo = testbeds::indriya(opts.seed);
        let channels = ChannelId::range(11, 14).expect("valid range");
        let comm = topo.comm_graph(&channels, Prr::new(0.9).expect("valid"));
        let model = NetworkModel::new(&topo, &channels);
        let oracle = ReuseConservatively::new(2);

        let mut report = Report {
            schema: SCHEMA.to_string(),
            iters: opts.iters as u64,
            seed: opts.seed,
            testbed: topo.name().to_string(),
            nodes: topo.node_count() as u64,
            channels: channels.len() as u64,
            scenarios: Vec::new(),
        };
        println!(
            "== gateway_bench: {} iters, seed {}, {} nodes ==",
            opts.iters,
            opts.seed,
            topo.node_count()
        );

        // `tail-*`: newcomers carry the laxest deadline, sort below every
        // incumbent, and ride the pure suffix path — the gateway's common
        // "add one more monitoring flow" case. `mid-40`/`mixed-80`:
        // newcomers tie the incumbents' deadline and insert mid-order,
        // re-placing about half the set. These sit at ~0.8x of the bare
        // recompute comparator: the gap is admission bookkeeping (candidate
        // clone, flow-set rebuild, prefix replay) that the comparator does
        // not pay, not wasted scheduling. The affected-slot watermark check
        // bounds the worst case — an insertion whose suffix placements start
        // in the first quarter of the timeline skips straight to a full run
        // instead of paying snapshot + replay on top of near-full work.
        for &(name, preload, admissions, preload_deadline, admit_deadline) in &[
            ("tail-20", 20usize, 10usize, 96u32, 128u32),
            ("tail-40", 40, 10, 96, 128),
            ("tail-80", 80, 10, 96, 128),
            ("mid-40", 40, 10, 112, 112),
            ("mixed-80", 80, 10, 128, 128),
        ] {
            let mut specs = make_specs(&comm, preload, preload_deadline);
            specs
                .extend(make_specs(&comm, preload + admissions, admit_deadline).split_off(preload));
            if specs.len() < preload + admissions {
                return Err(BenchError::Run(format!(
                    "scenario {name}: only {} routable specs",
                    specs.len()
                )));
            }
            let mut delta_samples = Vec::with_capacity(opts.iters);
            let mut full_samples = Vec::with_capacity(opts.iters);
            let mut timed_admissions = 0u64;
            for _ in 0..opts.iters {
                let mut gw = fresh_gateway(&model, 2);
                for (i, spec) in specs[..preload].iter().enumerate() {
                    gw.add_flow(&format!("p{i}"), spec.clone())
                        .map_err(|e| BenchError::Run(format!("preload failed: {e}")))?;
                }
                // suffix-delta path: one incremental add per newcomer
                let mut delta_ns = 0u64;
                let mut full_ns = 0u64;
                let mut admitted = 0u64;
                for (j, spec) in specs[preload..].iter().enumerate() {
                    let (elapsed, outcome) = timed(|| gw.add_flow(&format!("a{j}"), spec.clone()));
                    if outcome.is_err() {
                        continue; // infeasible newcomer: not an admission
                    }
                    delta_ns += elapsed;
                    admitted += 1;
                    // the comparator: recompute the identical flow set from
                    // scratch, as a gateway without the delta path must
                    let flows = gw.flow_set();
                    let (elapsed, full) = timed(|| oracle.schedule(&flows, gw.model()));
                    let full =
                        full.map_err(|e| BenchError::Run(format!("full recompute failed: {e}")))?;
                    full_ns += elapsed;
                    if full != *gw.schedule() {
                        return Err(BenchError::Run(format!(
                            "scenario {name}: delta result diverged from recompute"
                        )));
                    }
                }
                if admitted == 0 {
                    return Err(BenchError::Run(format!("scenario {name}: nothing admitted")));
                }
                timed_admissions = admitted;
                delta_samples.push(delta_ns);
                full_samples.push(full_ns);
            }
            let median_delta_ns = median_ns(&mut delta_samples);
            let median_full_ns = median_ns(&mut full_samples);
            let delta_rate = timed_admissions as f64 / (median_delta_ns as f64 / 1e9);
            let full_rate = timed_admissions as f64 / (median_full_ns as f64 / 1e9);
            let speedup = median_full_ns as f64 / median_delta_ns as f64;
            println!(
                "  {name:>8}: delta {delta_rate:>10.0} adm/s   full {full_rate:>10.0} adm/s   speedup {speedup:.2}x"
            );
            report.scenarios.push(ScenarioResult {
                name: name.to_string(),
                preloaded: preload as u64,
                admissions: timed_admissions,
                median_delta_ns,
                median_full_ns,
                delta_admissions_per_sec: delta_rate,
                full_admissions_per_sec: full_rate,
                speedup_delta_vs_full: speedup,
            });
        }

        opts.write_report("BENCH_gateway.json", &report)?;
        Ok(())
    })
}
