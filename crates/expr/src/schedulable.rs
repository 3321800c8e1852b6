//! Schedulable-ratio experiments (Figs. 1, 2, 3).
//!
//! A flow set is *schedulable* under an algorithm when every transmission
//! of every job meets its deadline; the schedulable ratio is the fraction
//! of randomly generated flow sets that are. The paper sweeps the number of
//! channels and the number of flows on both testbed topologies and both
//! traffic patterns.

use crate::Algorithm;
use serde::{Deserialize, Serialize};
use wsan_core::NetworkModel;
use wsan_flow::{FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::parallel::parallel_map;
use wsan_net::{ChannelId, Prr, Topology};

/// Workload parameters of a schedulability experiment.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Flow sets per configuration point (paper: 100).
    pub flow_sets: usize,
    /// Flows per set.
    pub flow_count: usize,
    /// Harmonic period range.
    pub periods: PeriodRange,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Base seed; set `i` uses a seed derived from `(seed, i)`.
    pub seed: u64,
    /// Communication-graph link threshold `PRR_t` (paper: 0.9).
    pub prr_threshold: f64,
}

impl WorkloadConfig {
    /// The paper's defaults: 100 flow sets, `PRR_t = 0.9`.
    pub fn new(flow_count: usize, periods: PeriodRange, pattern: TrafficPattern) -> Self {
        WorkloadConfig {
            flow_sets: 100,
            flow_count,
            periods,
            pattern,
            seed: 0xD1CE,
            prr_threshold: 0.9,
        }
    }
}

/// Schedulable ratio of each algorithm at one configuration point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioPoint {
    /// The swept parameter's value (#channels or #flows).
    pub x: usize,
    /// `(algorithm name, schedulable ratio)` pairs.
    pub ratios: Vec<(String, f64)>,
}

/// Evaluates the schedulable ratio of `algorithms` on `topology` using the
/// first `m` channels of the 2.4 GHz band.
///
/// Every algorithm sees the *same* sequence of generated flow sets, so
/// ratios are directly comparable. Flow sets that cannot even be generated
/// (no routes) count as unschedulable for everyone.
pub fn ratio_at(
    topology: &Topology,
    m: usize,
    algorithms: &[Algorithm],
    cfg: &WorkloadConfig,
) -> Vec<(Algorithm, f64)> {
    let channels = ChannelId::all().take(m);
    let comm = topology.comm_graph(&channels, Prr::new(cfg.prr_threshold).expect("valid PRR"));
    let model = NetworkModel::new(topology, &channels);
    let fsc = FlowSetConfig::new(cfg.flow_count, cfg.periods, cfg.pattern);
    let outcomes: Vec<Vec<bool>> = parallel_map(cfg.flow_sets, |i| {
        let mut generator = FlowSetGenerator::new(set_seed(cfg.seed, i));
        match generator.generate(&comm, &fsc) {
            Ok(set) => {
                algorithms.iter().map(|a| a.build().schedule(&set, &model).is_ok()).collect()
            }
            Err(_) => vec![false; algorithms.len()],
        }
    });
    algorithms
        .iter()
        .enumerate()
        .map(|(ai, algo)| {
            let ok = outcomes.iter().filter(|o| o[ai]).count();
            (*algo, ok as f64 / cfg.flow_sets.max(1) as f64)
        })
        .collect()
}

/// Sweeps the channel count (Figs. 1(a,b), 2(a,b), 3(a)).
pub fn sweep_channels(
    topology: &Topology,
    channel_counts: &[usize],
    algorithms: &[Algorithm],
    cfg: &WorkloadConfig,
) -> Vec<RatioPoint> {
    channel_counts
        .iter()
        .map(|&m| RatioPoint {
            x: m,
            ratios: ratio_at(topology, m, algorithms, cfg)
                .into_iter()
                .map(|(a, r)| (a.to_string(), r))
                .collect(),
        })
        .collect()
}

/// Sweeps the flow count at a fixed channel count (Figs. 1(c), 2(c), 3(b)).
pub fn sweep_flows(
    topology: &Topology,
    m: usize,
    flow_counts: &[usize],
    algorithms: &[Algorithm],
    cfg: &WorkloadConfig,
) -> Vec<RatioPoint> {
    flow_counts
        .iter()
        .map(|&n| {
            let point_cfg = WorkloadConfig { flow_count: n, ..*cfg };
            RatioPoint {
                x: n,
                ratios: ratio_at(topology, m, algorithms, &point_cfg)
                    .into_iter()
                    .map(|(a, r)| (a.to_string(), r))
                    .collect(),
            }
        })
        .collect()
}

/// Derives the deterministic seed of flow set `i`.
pub fn set_seed(base: u64, i: usize) -> u64 {
    base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_net::testbeds;

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            flow_sets: 8,
            flow_count: 10,
            periods: PeriodRange::new(0, 2).unwrap(),
            pattern: TrafficPattern::PeerToPeer,
            seed: 1,
            prr_threshold: 0.9,
        }
    }

    #[test]
    fn ratios_are_valid_fractions_and_reuse_never_hurts() {
        let topo = testbeds::wustl(2);
        let ratios = ratio_at(&topo, 3, &Algorithm::paper_suite(), &small_cfg());
        let get = |name: &str| {
            ratios.iter().find(|(a, _)| a.to_string() == name).map(|(_, r)| *r).unwrap()
        };
        for (_, r) in &ratios {
            assert!((0.0..=1.0).contains(r));
        }
        // With identical flow sets, RA and RC can only do at least as well
        // as NR: reuse strictly enlarges the feasible placements.
        assert!(get("RA") >= get("NR"));
        assert!(get("RC") >= get("NR"));
    }

    #[test]
    fn sweep_channels_produces_one_point_per_m() {
        let topo = testbeds::wustl(2);
        let mut cfg = small_cfg();
        cfg.flow_sets = 4;
        let points = sweep_channels(&topo, &[3, 4], &[Algorithm::Nr], &cfg);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].x, 3);
        assert_eq!(points[1].x, 4);
        assert_eq!(points[0].ratios.len(), 1);
    }

    #[test]
    fn sweep_flows_overrides_flow_count() {
        let topo = testbeds::wustl(2);
        let mut cfg = small_cfg();
        cfg.flow_sets = 4;
        let points = sweep_flows(&topo, 4, &[5, 15], &[Algorithm::Rc { rho_t: 2 }], &cfg);
        assert_eq!(points.len(), 2);
        // more flows can only lower (or keep) the ratio
        let r5 = points[0].ratios[0].1;
        let r15 = points[1].ratios[0].1;
        assert!(r15 <= r5 + 1e-12);
    }

    #[test]
    fn determinism_across_calls() {
        let topo = testbeds::wustl(2);
        let cfg = small_cfg();
        let a = ratio_at(&topo, 4, &Algorithm::paper_suite(), &cfg);
        let b = ratio_at(&topo, 4, &Algorithm::paper_suite(), &cfg);
        assert_eq!(a, b);
    }
}
