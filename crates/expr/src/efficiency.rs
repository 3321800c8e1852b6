//! Algorithm-efficiency experiments (Figs. 4, 5): how much channel reuse
//! each algorithm introduces, and at what hop distances.

use crate::schedulable::{set_seed, WorkloadConfig};
use crate::Algorithm;
use wsan_core::metrics::{compute, ScheduleMetrics};
use wsan_core::NetworkModel;
use wsan_flow::{FlowSetConfig, FlowSetGenerator};
use wsan_net::parallel::parallel_map_with;
use wsan_net::{ChannelId, Prr, Topology};

/// Aggregated efficiency metrics of one algorithm at one channel count.
#[derive(Debug, Clone)]
pub struct EfficiencyResult {
    /// The algorithm measured.
    pub algorithm: Algorithm,
    /// Channel count used.
    pub channels: usize,
    /// Metrics merged over every schedulable flow set.
    pub metrics: ScheduleMetrics,
    /// Number of flow sets that were schedulable (and therefore counted).
    pub schedulable_sets: usize,
}

/// Evaluates Tx/channel and reuse hop-count distributions for each
/// algorithm over `cfg.flow_sets` generated workloads at `m` channels.
///
/// The same flow sets feed every algorithm; only schedulable sets
/// contribute metrics (an unschedulable run has no schedule to measure).
pub fn evaluate(
    topology: &Topology,
    m: usize,
    algorithms: &[Algorithm],
    cfg: &WorkloadConfig,
) -> Vec<EfficiencyResult> {
    let channels = ChannelId::all().take(m);
    let comm = topology.comm_graph(&channels, Prr::new(cfg.prr_threshold).expect("valid PRR"));
    let model = NetworkModel::new(topology, &channels);
    let fsc = FlowSetConfig::new(cfg.flow_count, cfg.periods, cfg.pattern);
    let per_set: Vec<Vec<Option<ScheduleMetrics>>> = parallel_map_with(cfg.flow_sets, 0, |i| {
        let mut generator = FlowSetGenerator::new(set_seed(cfg.seed, i));
        match generator.generate(&comm, &fsc) {
            Ok(set) => algorithms
                .iter()
                .map(|a| a.build().schedule(&set, &model).ok().map(|s| compute(&s, &model)))
                .collect(),
            Err(_) => vec![None; algorithms.len()],
        }
    });
    algorithms
        .iter()
        .enumerate()
        .map(|(ai, &algorithm)| {
            let mut metrics = ScheduleMetrics::default();
            let mut schedulable_sets = 0;
            for row in &per_set {
                if let Some(m) = &row[ai] {
                    metrics.merge(m);
                    schedulable_sets += 1;
                }
            }
            EfficiencyResult { algorithm, channels: m, metrics, schedulable_sets }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_flow::{PeriodRange, TrafficPattern};
    use wsan_net::testbeds;

    #[test]
    fn rc_has_higher_no_reuse_fraction_than_ra() {
        let topo = testbeds::wustl(4);
        let cfg = WorkloadConfig {
            flow_sets: 6,
            flow_count: 25,
            periods: PeriodRange::new(-1, 1).unwrap(),
            pattern: TrafficPattern::PeerToPeer,
            seed: 11,
            prr_threshold: 0.9,
        };
        let results =
            evaluate(&topo, 3, &[Algorithm::Ra { rho: 2 }, Algorithm::Rc { rho_t: 2 }], &cfg);
        let ra = &results[0];
        let rc = &results[1];
        assert!(ra.schedulable_sets > 0, "need schedulable sets for the comparison");
        assert!(rc.schedulable_sets > 0);
        assert!(
            rc.metrics.no_reuse_fraction() >= ra.metrics.no_reuse_fraction(),
            "RC must not reuse more than RA: RC {} vs RA {}",
            rc.metrics.no_reuse_fraction(),
            ra.metrics.no_reuse_fraction()
        );
    }

    #[test]
    fn reuse_hop_counts_respect_the_floor() {
        let topo = testbeds::wustl(4);
        let cfg = WorkloadConfig {
            flow_sets: 4,
            flow_count: 25,
            periods: PeriodRange::new(-1, 1).unwrap(),
            pattern: TrafficPattern::PeerToPeer,
            seed: 3,
            prr_threshold: 0.9,
        };
        for result in evaluate(&topo, 3, &Algorithm::paper_suite(), &cfg) {
            for (hops, _) in result.metrics.reuse_hop_count.iter() {
                assert!(hops >= 2, "{} produced reuse at {hops} hops", result.algorithm);
            }
        }
    }
}
