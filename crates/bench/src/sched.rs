//! Shared scenarios for the scheduler hot-path benchmarks.
//!
//! The criterion bench (`benches/scheduler.rs`) and the tracked
//! `sched_bench` binary (which writes `BENCH_scheduler.json`) measure the
//! same workloads, defined once here: both testbed scales (Indriya ~80
//! nodes, WUSTL ~60 nodes) under a sparse and a dense peer-to-peer load,
//! five channels each. Dense loads sit near the schedulability cliff the
//! paper's figures sweep, so RC's ρ-shrink loop — the hot path PR 5
//! optimizes — is actually exercised.

use wsan_core::{NetworkModel, Scheduler};
use wsan_flow::{FlowSet, FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{testbeds, ChannelId, Prr};

/// Which generated testbed topology a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Testbed {
    /// The Indriya-like 80-node topology.
    Indriya,
    /// The WUSTL-like 60-node topology.
    Wustl,
}

/// One scheduler-bench workload: a testbed at a fixed flow count.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable identifier used in bench IDs and `BENCH_scheduler.json`.
    pub name: &'static str,
    /// The topology family.
    pub testbed: Testbed,
    /// Peer-to-peer flows in the set.
    pub flows: usize,
    /// Whether this is a dense (near-cliff) load.
    pub dense: bool,
}

/// The tracked scenario set: both testbeds, sparse and dense.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario { name: "indriya-sparse", testbed: Testbed::Indriya, flows: 40, dense: false },
        Scenario { name: "indriya-dense", testbed: Testbed::Indriya, flows: 100, dense: true },
        Scenario { name: "wustl-sparse", testbed: Testbed::Wustl, flows: 30, dense: false },
        Scenario { name: "wustl-dense", testbed: Testbed::Wustl, flows: 80, dense: true },
    ]
}

impl Scenario {
    /// Materializes the workload: the paper's five-channel setup, PRR 0.9,
    /// short periods, peer-to-peer traffic. `None` when flow generation
    /// cannot route the requested load on the seeded topology.
    pub fn build(&self, seed: u64) -> Option<(FlowSet, NetworkModel)> {
        let topo = match self.testbed {
            Testbed::Indriya => testbeds::indriya(1),
            Testbed::Wustl => testbeds::wustl(1),
        };
        let channels = ChannelId::all().take(5);
        let comm = topo.comm_graph(&channels, Prr::new(0.9).unwrap());
        let model = NetworkModel::new(&topo, &channels);
        let cfg = FlowSetConfig::new(
            self.flows,
            PeriodRange::new(0, 2).unwrap(),
            TrafficPattern::PeerToPeer,
        );
        let set = FlowSetGenerator::new(seed).generate(&comm, &cfg).ok()?;
        Some((set, model))
    }
}

/// The benched scheduler lineup: the optimized paper suite plus the
/// slot-by-slot reference implementations from `wsan_core::reference`
/// (suffixed `-ref`) that anchor the speedup claims.
pub fn contenders() -> Vec<(&'static str, Box<dyn Scheduler + Send + Sync>)> {
    vec![
        ("NR", Box::new(wsan_core::NoReuse::new())),
        ("RA", Box::new(wsan_core::ReuseAggressively::new(2))),
        ("RC", Box::new(wsan_core::ReuseConservatively::new(2))),
        ("NR-ref", Box::new(wsan_core::reference::NoReuseRef::new())),
        ("RA-ref", Box::new(wsan_core::reference::ReuseAggressivelyRef::new(2))),
        ("RC-ref", Box::new(wsan_core::reference::ReuseConservativelyRef::new(2))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_builds_and_rc_schedules_it() {
        for sc in scenarios() {
            let (flows, model) = sc.build(42).expect("workload generates");
            let rc = wsan_core::ReuseConservatively::new(2);
            let schedule = rc.schedule(&flows, &model).expect("RC schedules the tracked load");
            assert!(schedule.entry_count() > 0);
        }
    }
}
