//! Conservative channel reuse scheduling for real-time industrial WSANs —
//! the core contribution of the reproduced paper (ICDCS 2018).
//!
//! WirelessHART forbids *channel reuse*: within one gateway's network, a
//! dedicated TSCH slot carries at most one transmission per channel. That
//! protects reliability but caps a slot at `|M|` concurrent transmissions
//! and hurts schedulability. This crate implements the paper's middle road:
//!
//! * [`Schedule`] — a TSCH transmission schedule over one hyperperiod:
//!   each transmission is assigned a slot number and a channel offset,
//! * the *channel reuse constraints* of §V-A ([`constraints`]): transmission
//!   conflicts (shared half-duplex radios) and hop-distance-gated channel
//!   sharing on the reuse graph,
//! * *flow laxity* (Eq. 1, [`laxity`]): an estimate of how much further a
//!   flow's remaining transmissions can slip while still meeting the
//!   deadline,
//! * three fixed-priority schedulers behind the [`Scheduler`] trait:
//!   * [`NoReuse`] (NR) — standard WirelessHART, one transmission per
//!     channel per slot,
//!   * [`ReuseAggressively`] (RA) — reuse whenever the hop-based
//!     interference model allows (à la TASA),
//!   * [`ReuseConservatively`] (RC, Algorithm 1) — reuse *only when laxity
//!     would go negative*, starting from the largest hop distance (the
//!     reuse-graph diameter) and shrinking toward the floor `ρ_t` only as
//!     needed,
//! * schedule [`metrics`] (transmissions per channel, reuse hop counts —
//!   Figs. 4, 5, 9) and an independent post-hoc [`validate`] checker.
//!
//! The hot path ([`constraints`], [`laxity`]) runs word-level bitset scans
//! and rank caches; the pre-optimization slot-by-slot forms live on in
//! [`reference`](mod@reference) as the equivalence and benchmark baseline.
//!
//! # Example
//!
//! ```
//! use wsan_core::{NetworkModel, ReuseConservatively, Scheduler};
//! use wsan_flow::{FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
//! use wsan_net::{testbeds, ChannelId, Prr};
//!
//! let topo = testbeds::wustl(1);
//! let channels = ChannelId::range(11, 14).unwrap();
//! let comm = topo.comm_graph(&channels, Prr::new(0.9).unwrap());
//! let model = NetworkModel::new(&topo, &channels);
//!
//! let cfg = FlowSetConfig::new(10, PeriodRange::new(0, 2).unwrap(), TrafficPattern::PeerToPeer);
//! let flows = FlowSetGenerator::new(7).generate(&comm, &cfg).unwrap();
//!
//! let rc = ReuseConservatively::new(2);
//! let schedule = rc.schedule(&flows, &model).expect("schedulable");
//! assert!(schedule.entry_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod constraints;
mod error;
pub mod export;
pub mod gateway;
pub mod laxity;
pub mod metrics;
mod model;
mod nr;
pub mod orchestra;
mod ra;
mod rc;
pub mod recovery;
pub mod reference;
pub mod render;
pub mod repair;
mod schedule;
mod scheduler;
pub mod shard;
mod transmission;
pub mod validate;

pub use error::ScheduleError;

pub use model::NetworkModel;
pub use nr::NoReuse;
pub use ra::ReuseAggressively;
pub use rc::{ReuseConservatively, ReuseTrigger, RhoReset};
pub use schedule::{Schedule, ScheduleEntry};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use transmission::{Rho, ScheduledTx};

#[cfg(test)]
pub(crate) mod test_util {
    //! Hand-crafted networks and workloads for scheduler unit tests.

    use crate::NetworkModel;
    use wsan_flow::{priority, Flow, FlowId, FlowSet, Period};
    use wsan_net::{NodeId, ReuseGraph, Route};

    /// A path-graph reuse topology with `node_count` nodes.
    pub fn path_graph(node_count: usize) -> ReuseGraph {
        let edges: Vec<_> =
            (0..node_count - 1).map(|i| (NodeId::new(i), NodeId::new(i + 1))).collect();
        ReuseGraph::from_edges(node_count, &edges)
    }

    /// A model over `reuse` with `channels` channel offsets.
    pub fn model_for(reuse: &ReuseGraph, channels: usize) -> NetworkModel {
        NetworkModel::from_reuse_graph(reuse, channels)
    }

    /// `flow_count` flows all sharing the same multi-hop line
    /// `0 → 1 → … → node_count−1`: maximally conflicting traffic.
    pub fn line_set(
        flow_count: usize,
        node_count: usize,
        period: u32,
        deadline: u32,
    ) -> (FlowSet, ReuseGraph) {
        let route = Route::new((0..node_count).map(NodeId::new).collect());
        let flows = (0..flow_count)
            .map(|i| {
                Flow::new(
                    FlowId::new(i),
                    route.clone(),
                    Period::from_slots(period).expect("nonzero"),
                    deadline,
                )
                .expect("deadline ≤ period")
            })
            .collect();
        (priority::deadline_monotonic(flows, vec![]), path_graph(node_count))
    }

    /// `pairs` disjoint single-hop flows spread along a path graph with
    /// `stride` nodes between consecutive senders. With stride `k`, the
    /// minimum sender→other-receiver distance between neighboring pairs is
    /// `k − 1` reuse hops.
    pub fn parallel_set(
        pairs: usize,
        stride: usize,
        period: u32,
        deadline: u32,
    ) -> (FlowSet, ReuseGraph) {
        let node_count = (pairs - 1) * stride + 2;
        let flows = (0..pairs)
            .map(|i| {
                let a = NodeId::new(i * stride);
                let b = NodeId::new(i * stride + 1);
                Flow::new(
                    FlowId::new(i),
                    Route::new(vec![a, b]),
                    Period::from_slots(period).expect("nonzero"),
                    deadline,
                )
                .expect("deadline ≤ period")
            })
            .collect();
        (priority::deadline_monotonic(flows, vec![]), path_graph(node_count))
    }
}
