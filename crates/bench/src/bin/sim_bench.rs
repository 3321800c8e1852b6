//! `sim_bench` — the tracked simulator-core benchmark.
//!
//! Times identical seeded runs through the every-slot walk
//! (`Simulator::try_run_every_slot`, the oracle) and through
//! `Simulator::run`, which walks only the busy slots of these scenarios,
//! on a dense schedule (18 of 100 frame slots busy) and a sparse
//! long-horizon schedule (2 busy slots per 512-slot frame, where skipping
//! idle slots pays off), then writes `BENCH_sim.json` (median ns/run per
//! walk, their speedup, slot occupancy). Both scenarios sit inside the
//! draw-order contract of DESIGN.md §13, so the two walks' reports are also
//! asserted byte-identical — the benchmark doubles as an equivalence
//! smoke. The schema tag and field names predate the single run loop
//! (`slot_stepper_*` is the every-slot walk, `event_driven_*` is
//! `Simulator::run`), so the tracked series stays comparable. Timed with
//! [`wsan_bench::harness`], ordinary binary:
//!
//! ```sh
//! cargo run --release -p wsan-bench --bin sim_bench [-- --iters 20 --quick --out PATH]
//! ```
//!
//! * `--iters N` — timed runs per walk and scenario (default 20),
//! * `--seed S` — simulation seed (default 42),
//! * `--quick` — caps iterations at 3 for a smoke pass,
//! * `--out PATH` — output path (default `results/BENCH_sim.json`).

use serde::Serialize;
use std::collections::BTreeSet;
use std::process::ExitCode;
use wsan_bench::harness::{time_runs, BenchArgs};
use wsan_bench::{run_main, BenchError};
use wsan_core::{NetworkModel, NoReuse, Schedule, Scheduler};
use wsan_flow::{
    priority, Flow, FlowId, FlowSet, FlowSetConfig, FlowSetGenerator, Period, PeriodRange,
    TrafficPattern,
};
use wsan_net::propagation::PropagationModel;
use wsan_net::{testbeds, ChannelId, ChannelSet, NodeId, Position, Prr, Route, Topology};
use wsan_sim::{SimConfig, Simulator};

/// The file-format tag checked by ci.sh's smoke step.
const SCHEMA: &str = "wsan.sim_bench/1";

#[derive(Debug, Serialize)]
struct ScenarioResult {
    name: String,
    flows: u64,
    horizon: u64,
    /// Distinct busy slots per hyperperiod.
    busy_slots: u64,
    /// `busy_slots / horizon` — the busy-slot walk's work fraction.
    occupancy: f64,
    repetitions: u64,
    /// Median ns/run of the every-slot walk (the oracle).
    slot_stepper_median_ns: u64,
    /// Median ns/run of `Simulator::run`, here the busy-slot walk.
    event_driven_median_ns: u64,
    /// Median-over-median speedup of the busy-slot walk vs. the every-slot
    /// walk — the acceptance series (≥ 3x at ≤ 10% occupancy).
    speedup_events_vs_slots: f64,
    /// Every timed run of both walks produced the same report, byte for
    /// byte (always true when the binary exits zero; recorded so the JSON
    /// is self-describing).
    reports_identical: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    iters: u64,
    seed: u64,
    scenarios: Vec<ScenarioResult>,
}

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// The dense scenario: the WUSTL synthetic testbed under conservative
/// reuse — 18 of 100 frame slots hold a transmission, so skipping the
/// idle ones saves little.
fn dense(seed: u64) -> Result<(Topology, ChannelSet, FlowSet, Schedule), BenchError> {
    let topo = testbeds::wustl(5);
    let channels = ChannelId::range(11, 14).map_err(|e| BenchError::Run(e.to_string()))?;
    let comm =
        topo.comm_graph(&channels, Prr::new(0.9).map_err(|e| BenchError::Run(e.to_string()))?);
    let model = NetworkModel::new(&topo, &channels);
    let fsc = FlowSetConfig::new(
        12,
        PeriodRange::new(0, 0).map_err(|e| BenchError::Run(e.to_string()))?,
        TrafficPattern::PeerToPeer,
    );
    let flows = FlowSetGenerator::new(seed)
        .generate(&comm, &fsc)
        .map_err(|e| BenchError::Run(format!("dense workload generation failed: {e}")))?;
    let schedule = wsan_core::ReuseConservatively::new(2)
        .schedule(&flows, &model)
        .map_err(|e| BenchError::Run(format!("dense scenario unschedulable: {e}")))?;
    Ok((topo, channels, flows, schedule))
}

/// The sparse long-horizon scenario: two one-hop flows with 512-slot
/// periods, so only two of the 512 slots per frame hold transmissions
/// (< 1% occupancy) and the every-slot walk wastes ~99% of its iterations.
fn sparse() -> Result<(Topology, ChannelSet, FlowSet, Schedule), BenchError> {
    let run = || -> Result<_, String> {
        let mut topo = Topology::new(
            "sparse",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(8.0, 0.0, 0.0),
                Position::new(60.0, 0.0, 0.0),
                Position::new(68.0, 0.0, 0.0),
            ],
        );
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 12).map_err(|e| e.to_string())?;
        for (a, b) in [(0, 1), (2, 3)] {
            for ch in &channels {
                topo.set_prr(n(a), n(b), ch, Prr::new(0.8).map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?;
                topo.set_prr(n(b), n(a), ch, Prr::new(0.8).map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?;
            }
        }
        let period = Period::from_slots(512).map_err(|e| e.to_string())?;
        let flows = priority::deadline_monotonic(
            vec![
                Flow::new(FlowId::new(0), Route::new(vec![n(0), n(1)]), period, 512)
                    .map_err(|e| e.to_string())?,
                Flow::new(FlowId::new(1), Route::new(vec![n(2), n(3)]), period, 512)
                    .map_err(|e| e.to_string())?,
            ],
            vec![],
        );
        let model = NetworkModel::new(&topo, &channels);
        let schedule = NoReuse::new().schedule(&flows, &model).map_err(|e| e.to_string())?;
        Ok((topo, channels, flows, schedule))
    };
    run().map_err(|e| BenchError::Run(format!("sparse scenario: {e}")))
}

fn time_scenario(
    name: &str,
    topo: &Topology,
    channels: &ChannelSet,
    flows: &FlowSet,
    schedule: &Schedule,
    cfg: &SimConfig,
    iters: usize,
) -> Result<ScenarioResult, BenchError> {
    let sim = Simulator::try_new(topo, channels, flows, schedule)
        .map_err(|e| BenchError::Run(e.to_string()))?;
    let busy: BTreeSet<u32> = schedule.entries().iter().map(|e| e.slot).collect();
    let horizon = u64::from(schedule.horizon());
    let occupancy = busy.len() as f64 / horizon as f64;
    let (slots_median, oracle) = time_runs(&format!("{name} every-slot"), iters, || {
        sim.try_run_every_slot(cfg, None).map(|(report, _)| report)
    })?;
    let (events_median, report) = time_runs(&format!("{name} run"), iters, || sim.try_run(cfg))?;
    let oracle = oracle.map_err(|e| BenchError::Run(e.to_string()))?;
    if report.map_err(|e| BenchError::Run(e.to_string()))? != oracle {
        return Err(BenchError::Run(format!(
            "{name}: the busy-slot walk diverged from the every-slot walk"
        )));
    }
    let speedup = slots_median as f64 / events_median as f64;
    println!(
        "  {:>12}: {:>6.1}% occupancy  every-slot {:>12} ns  run {:>12} ns  speedup {:.2}x",
        name,
        occupancy * 100.0,
        slots_median,
        events_median,
        speedup
    );
    Ok(ScenarioResult {
        name: name.to_string(),
        flows: flows.len() as u64,
        horizon,
        busy_slots: busy.len() as u64,
        occupancy,
        repetitions: u64::from(cfg.repetitions),
        slot_stepper_median_ns: slots_median,
        event_driven_median_ns: events_median,
        speedup_events_vs_slots: speedup,
        reports_identical: true,
    })
}

fn main() -> ExitCode {
    run_main(|| {
        let opts = BenchArgs::try_parse(20, 3)?;
        println!("== sim_bench: {} iters/walk, seed {} ==", opts.iters, opts.seed);
        let mut report = Report {
            schema: SCHEMA.to_string(),
            iters: opts.iters as u64,
            seed: opts.seed,
            scenarios: Vec::new(),
        };
        let (topo, channels, flows, schedule) = dense(0xFEED)?;
        let cfg =
            SimConfig { seed: opts.seed, repetitions: 50, window_reps: 5, ..SimConfig::default() };
        report.scenarios.push(time_scenario(
            "wustl-dense",
            &topo,
            &channels,
            &flows,
            &schedule,
            &cfg,
            opts.iters,
        )?);
        let (topo, channels, flows, schedule) = sparse()?;
        let cfg = SimConfig {
            seed: opts.seed,
            repetitions: 400,
            window_reps: 10,
            ..SimConfig::default()
        };
        report.scenarios.push(time_scenario(
            "sparse-long",
            &topo,
            &channels,
            &flows,
            &schedule,
            &cfg,
            opts.iters,
        )?);
        opts.write_report("BENCH_sim.json", &report)?;
        Ok(())
    })
}
