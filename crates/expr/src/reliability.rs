//! Network-reliability experiments on the simulated testbed (Figs. 8, 9).
//!
//! Five flow sets of 50 flows (half at 0.5 s, half at 1 s) run on four
//! channels; each schedule executes 100 times and the per-flow Packet
//! Delivery Ratios are summarized as box plots. Fig. 9 reports the
//! Tx/channel distribution of the same schedules.

use crate::schedulable::set_seed;
use crate::Algorithm;
use serde::{Deserialize, Serialize};
use wsan_core::metrics::compute;
use wsan_core::NetworkModel;
use wsan_flow::{FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{ChannelSet, Prr, Topology};
use wsan_sim::{CaptureModel, SimConfig, Simulator};
use wsan_stats::{BoxPlot, Histogram};

/// Parameters of the reliability experiment.
#[derive(Debug, Clone)]
pub struct ReliabilityConfig {
    /// Number of distinct flow sets (paper: 5).
    pub flow_sets: usize,
    /// Flows per set (paper: 50).
    pub flow_count: usize,
    /// Schedule executions per flow set (paper: 100).
    pub repetitions: u32,
    /// Harmonic period range (paper: `[2^-1, 2^0]` s).
    pub periods: PeriodRange,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Base seed.
    pub seed: u64,
    /// Capture model of the PHY.
    pub capture: CaptureModel,
    /// `PRR_t` for the communication graph.
    pub prr_threshold: f64,
    /// How many generation attempts to make per flow set until every
    /// algorithm can schedule it (the paper's five sets are implicitly
    /// feasible for all three algorithms).
    pub feasibility_attempts: usize,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            flow_sets: 5,
            flow_count: 50,
            repetitions: 100,
            periods: PeriodRange::new(-1, 0).expect("valid range"),
            pattern: TrafficPattern::PeerToPeer,
            seed: 0xBEEF,
            capture: CaptureModel::default(),
            prr_threshold: 0.9,
            feasibility_attempts: 50,
        }
    }
}

/// Reliability outcome of one algorithm on one flow set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoReliability {
    /// Algorithm name.
    pub algorithm: String,
    /// Box-plot summary of the per-flow PDRs.
    pub pdr_boxplot: BoxPlot,
    /// Worst per-flow PDR (the paper's key robustness number).
    pub worst_pdr: f64,
    /// Median per-flow PDR.
    pub median_pdr: f64,
    /// Tx/channel distribution of the schedule (Fig. 9).
    pub tx_per_channel: Histogram,
}

/// Reliability outcomes of all algorithms on one flow set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSetReliability {
    /// Index of the flow set (0-based; the paper labels them 1–5).
    pub set_index: usize,
    /// Seed that generated the (feasible) flow set.
    pub set_seed: u64,
    /// Per-algorithm outcomes, in the order requested.
    pub algorithms: Vec<AlgoReliability>,
}

/// Runs the reliability experiment.
///
/// For each of `cfg.flow_sets` workloads, a flow set schedulable by *every*
/// algorithm is drawn (re-sampling deterministically up to
/// `feasibility_attempts` times), each algorithm's schedule is executed
/// `repetitions` times on the PHY, and per-flow PDRs are summarized.
///
/// # Panics
///
/// Panics when no commonly-schedulable flow set can be found — lower the
/// flow count or raise the attempt budget.
pub fn evaluate(
    topology: &Topology,
    channels: &ChannelSet,
    algorithms: &[Algorithm],
    cfg: &ReliabilityConfig,
) -> Vec<FlowSetReliability> {
    let comm = topology.comm_graph(channels, Prr::new(cfg.prr_threshold).expect("valid PRR"));
    let model = NetworkModel::new(topology, channels);
    let fsc = FlowSetConfig::new(cfg.flow_count, cfg.periods, cfg.pattern);
    let mut results = Vec::with_capacity(cfg.flow_sets);
    let mut attempt = 0usize;
    for set_index in 0..cfg.flow_sets {
        // find a flow set schedulable by all algorithms
        let (seed, set, schedules) = loop {
            assert!(
                attempt < cfg.feasibility_attempts + cfg.flow_sets,
                "no flow set schedulable by all algorithms within the attempt budget"
            );
            let seed = set_seed(cfg.seed, attempt);
            attempt += 1;
            let Ok(set) = FlowSetGenerator::new(seed).generate(&comm, &fsc) else {
                continue;
            };
            let schedules: Vec<_> =
                algorithms.iter().filter_map(|a| a.build().schedule(&set, &model).ok()).collect();
            if schedules.len() == algorithms.len() {
                break (seed, set, schedules);
            }
        };
        let algo_results = algorithms
            .iter()
            .zip(&schedules)
            .map(|(algo, schedule)| {
                let sim = Simulator::new(topology, channels, &set, schedule);
                let report = sim.run(&SimConfig {
                    seed: seed ^ 0xABCD_EF01,
                    repetitions: cfg.repetitions,
                    window_reps: cfg.repetitions.max(1),
                    capture: cfg.capture,
                    interferers: Vec::new(),
                    discovery_probes: 0,
                    ..SimConfig::default()
                });
                let pdrs = report.flow_pdrs();
                let boxplot = BoxPlot::of(&pdrs).expect("at least one flow");
                AlgoReliability {
                    algorithm: algo.to_string(),
                    worst_pdr: report.worst_flow_pdr(),
                    median_pdr: boxplot.median,
                    pdr_boxplot: boxplot,
                    tx_per_channel: compute(schedule, &model).tx_per_channel,
                }
            })
            .collect();
        results.push(FlowSetReliability { set_index, set_seed: seed, algorithms: algo_results });
    }
    results
}

/// Campaign-engine variant of [`evaluate`] for a *single* flow set.
///
/// Unlike [`evaluate`], whose feasibility search shares one attempt counter
/// across sets (set `i+1` starts where set `i` stopped), each set here draws
/// candidate seeds from its own range
/// `[set_index · feasibility_attempts, (set_index + 1) · feasibility_attempts)`,
/// so sets are independent: they can run on different workers, in any
/// order, and resume individually without changing each other's workload.
///
/// # Errors
///
/// Returns a message when no commonly-schedulable flow set exists within
/// the set's attempt budget, or when the simulator rejects its inputs.
pub fn evaluate_set(
    topology: &Topology,
    channels: &ChannelSet,
    algorithms: &[Algorithm],
    cfg: &ReliabilityConfig,
    set_index: usize,
) -> Result<FlowSetReliability, String> {
    let prr = Prr::new(cfg.prr_threshold).map_err(|e| e.to_string())?;
    let comm = topology.comm_graph(channels, prr);
    let model = NetworkModel::new(topology, channels);
    let fsc = FlowSetConfig::new(cfg.flow_count, cfg.periods, cfg.pattern);
    let first_attempt = set_index * cfg.feasibility_attempts.max(1);
    let mut found = None;
    for attempt in first_attempt..first_attempt + cfg.feasibility_attempts.max(1) {
        let seed = set_seed(cfg.seed, attempt);
        let Ok(set) = FlowSetGenerator::new(seed).generate(&comm, &fsc) else {
            continue;
        };
        let schedules: Vec<_> =
            algorithms.iter().filter_map(|a| a.build().schedule(&set, &model).ok()).collect();
        if schedules.len() == algorithms.len() {
            found = Some((seed, set, schedules));
            break;
        }
    }
    let Some((seed, set, schedules)) = found else {
        return Err(format!(
            "flow set {set_index}: no workload schedulable by all algorithms within \
             {} attempts — lower the flow count or raise the attempt budget",
            cfg.feasibility_attempts
        ));
    };
    let algo_results = algorithms
        .iter()
        .zip(&schedules)
        .map(|(algo, schedule)| {
            let sim = Simulator::try_new(topology, channels, &set, schedule)
                .map_err(|e| format!("flow set {set_index}: {e}"))?;
            let report = sim
                .try_run(&SimConfig {
                    seed: seed ^ 0xABCD_EF01,
                    repetitions: cfg.repetitions,
                    window_reps: cfg.repetitions.max(1),
                    capture: cfg.capture,
                    interferers: Vec::new(),
                    discovery_probes: 0,
                    ..SimConfig::default()
                })
                .map_err(|e| format!("flow set {set_index}: {e}"))?;
            let pdrs = report.flow_pdrs();
            let boxplot = BoxPlot::of(&pdrs).map_err(|e| format!("flow set {set_index}: {e}"))?;
            Ok(AlgoReliability {
                algorithm: algo.to_string(),
                worst_pdr: report.worst_flow_pdr(),
                median_pdr: boxplot.median,
                pdr_boxplot: boxplot,
                tx_per_channel: compute(schedule, &model).tx_per_channel,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FlowSetReliability { set_index, set_seed: seed, algorithms: algo_results })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_net::{testbeds, ChannelId};

    #[test]
    fn evaluate_set_is_independent_of_other_sets() {
        let topo = testbeds::wustl(8);
        let channels = ChannelId::range(11, 14).unwrap();
        let cfg = ReliabilityConfig {
            flow_sets: 2,
            flow_count: 12,
            repetitions: 20,
            feasibility_attempts: 10,
            ..ReliabilityConfig::default()
        };
        let alone = evaluate_set(&topo, &channels, &Algorithm::paper_suite(), &cfg, 1).unwrap();
        // computing set 0 first must not change what set 1 evaluates to
        let _ = evaluate_set(&topo, &channels, &Algorithm::paper_suite(), &cfg, 0).unwrap();
        let again = evaluate_set(&topo, &channels, &Algorithm::paper_suite(), &cfg, 1).unwrap();
        assert_eq!(alone, again);
        assert_eq!(alone.set_index, 1);
        assert_eq!(alone.algorithms.len(), 3);
    }

    #[test]
    fn reliability_experiment_produces_comparable_outcomes() {
        let topo = testbeds::wustl(8);
        let channels = ChannelId::range(11, 14).unwrap();
        let cfg = ReliabilityConfig {
            flow_sets: 1,
            flow_count: 12,
            repetitions: 30,
            ..ReliabilityConfig::default()
        };
        let results = evaluate(&topo, &channels, &Algorithm::paper_suite(), &cfg);
        assert_eq!(results.len(), 1);
        let algos = &results[0].algorithms;
        assert_eq!(algos.len(), 3);
        for a in algos {
            assert!((0.0..=1.0).contains(&a.worst_pdr), "{}: {}", a.algorithm, a.worst_pdr);
            assert!(a.median_pdr >= a.worst_pdr);
            assert!(a.tx_per_channel.total() > 0);
        }
        // NR must not share channels
        let nr = algos.iter().find(|a| a.algorithm == "NR").unwrap();
        assert_eq!(nr.tx_per_channel.proportion(1), 1.0);
    }
}
