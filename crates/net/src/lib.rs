//! Network substrate for real-time industrial wireless sensor-actuator
//! networks (WSANs).
//!
//! This crate models everything the WirelessHART network manager knows about
//! the physical network before any scheduling happens:
//!
//! * [`Topology`] — the set of field devices together with the measured
//!   packet-reception ratio (PRR) of every directed link on every IEEE
//!   802.15.4 channel (the "topology information" collected from testbeds in
//!   the paper),
//! * [`CommGraph`] — the *communication graph* used for routing: a
//!   bidirectional edge exists only when both directions achieve
//!   `PRR >= PRR_t` on **all** channels in use (the network channel-hops, so
//!   a routing link must be reliable everywhere it will hop),
//! * [`ReuseGraph`] — the *channel reuse graph* used for interference
//!   estimation: an edge exists when **any** channel has nonzero PRR in
//!   either direction; hop distances on this graph gate concurrent
//!   same-channel transmissions,
//! * [`testbeds`] — seeded synthetic reconstructions of the two physical
//!   testbeds evaluated in the paper (Indriya, 80 nodes; WUSTL, 60 nodes),
//!   built on a log-distance path-loss + shadowing [`propagation`] model,
//! * [`routing`] — shortest-path route construction over the communication
//!   graph.
//!
//! # Example
//!
//! ```
//! use wsan_net::{testbeds, ChannelId, Prr};
//!
//! // A deterministic 60-node, 3-floor topology in the spirit of the WUSTL
//! // testbed, with per-channel PRR for all 16 channels.
//! let topo = testbeds::wustl(7);
//! let channels = ChannelId::range(11, 14).unwrap();
//! let comm = topo.comm_graph(&channels, Prr::new(0.9).unwrap());
//! let reuse = topo.reuse_graph(&channels);
//! assert!(comm.is_connected());
//! assert!(reuse.diameter() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod error;
pub mod fnv;
mod graph;
pub mod linelog;
mod link;
mod node;
pub mod parallel;
pub mod plants;
pub mod propagation;
pub mod routing;
pub mod selection;
pub mod summary;
mod topology;

pub mod testbeds;

pub use channel::{ChannelId, ChannelSet};
pub use error::NetError;
pub use graph::{CappedHops, CommGraph, HopMatrix, ReuseGraph, UNREACHABLE};
pub use link::{DirectedLink, LinkPrr, Prr};
pub use node::{NodeId, NodeRole, Position};
pub use routing::Route;
pub use selection::ChannelSelection;
pub use summary::TopologySummary;
pub use topology::Topology;
