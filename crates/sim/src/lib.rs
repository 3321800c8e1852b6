//! TSCH network simulator for WSAN schedules.
//!
//! The paper measures reliability (Figs. 8–11) by running schedules on the
//! physical 60-node WUSTL testbed. This crate is the synthetic stand-in: it
//! executes a [`Schedule`](wsan_core::Schedule) slot by slot against a
//! probabilistic PHY and reports exactly the quantities the testbed
//! experiments collect:
//!
//! * per-flow **Packet Delivery Ratio** (fraction of released packets that
//!   reach their destination within the deadline) — Fig. 8,
//! * per-link **PRR samples split by condition** (slots where the link's
//!   channel is shared vs. contention-free) — the input of the §VI
//!   detection policy and Figs. 10–11.
//!
//! ## PHY model
//!
//! Each reception first passes the link's measured per-channel PRR (drawn
//! from the same [`Topology`](wsan_net::Topology) tables the scheduler
//! planned with), then survives concurrent interference with a
//! capture-effect probability driven by the signal-to-interference ratio at
//! the receiver. Interference powers come from the same propagation model
//! and frozen shadowing that produced the PRR tables, so "2 reuse hops
//! apart" means what it meant to the scheduler. External WiFi interference
//! ([`WifiInterferer`]) raises the interference floor on overlapping
//! channels for nearby receivers in both reuse and contention-free slots —
//! which is what lets the K-S classifier tell the two causes apart.
//!
//! Channel hopping follows the standard formula: in absolute slot `asn`,
//! channel offset `c` maps to physical channel `(asn + c) mod |M|` of the
//! channel set, with `asn` running across schedule repetitions.
//!
//! # Example
//!
//! ```
//! use wsan_core::{NetworkModel, ReuseConservatively, Scheduler};
//! use wsan_flow::{FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
//! use wsan_net::{testbeds, ChannelId, Prr};
//! use wsan_sim::{SimConfig, Simulator};
//!
//! let topo = testbeds::wustl(3);
//! let channels = ChannelId::range(11, 14).unwrap();
//! let comm = topo.comm_graph(&channels, Prr::new(0.9).unwrap());
//! let model = NetworkModel::new(&topo, &channels);
//! let cfg = FlowSetConfig::new(8, PeriodRange::new(0, 1).unwrap(), TrafficPattern::PeerToPeer);
//! let flows = FlowSetGenerator::new(1).generate(&comm, &cfg).unwrap();
//! let schedule = ReuseConservatively::new(2).schedule(&flows, &model).unwrap();
//!
//! let sim = Simulator::new(&topo, &channels, &flows, &schedule);
//! let report = sim.run(&SimConfig { repetitions: 50, ..SimConfig::default() });
//! assert!(report.network_pdr() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autonomous;
pub mod coexistence;
mod config;
mod engine;
mod error;
pub mod faults;
pub mod interference;
mod phy;
mod report;
pub mod trace;

pub use autonomous::AutonomousSimulator;
pub use config::{CaptureModel, FadingModel, SimConfig};
pub use engine::Simulator;
pub use error::SimError;
pub use faults::{FaultEvent, FaultKind, FaultLog, FaultPlan, FaultRecord, FaultTrigger};
pub use interference::WifiInterferer;
pub use report::{FlowStats, LinkCondition, PrrSample, SimReport};
pub use trace::{TraceBuffer, TraceEvent};
