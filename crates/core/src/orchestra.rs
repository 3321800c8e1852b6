//! An Orchestra-style *autonomous* slotframe — the §II contrast case.
//!
//! Orchestra (Duquennoy et al., SenSys'15) needs no central scheduler: each
//! node derives its receive slot from its own identity, senders wake in the
//! receive slots of their next hops, and colliding transmissions simply
//! contend. The paper positions RC against exactly this trade-off:
//! "Orchestra incurs channel reuse in a best-effort manner, \[RC\] manages
//! channel reuse" (§II). This module implements the receiver-based unicast
//! slotframe so the autonomous approach can run on the same simulator and
//! workloads as NR/RA/RC (see `wsan_sim::AutonomousSimulator`).
//!
//! The slotframe is *stateless*: there is no admission, no deadline
//! awareness, and nothing to become unschedulable — packets queue and
//! retry every slotframe round until they are delivered or their deadline
//! passes. Reliability and latency are whatever contention leaves over.

use serde::{Deserialize, Serialize};
use wsan_net::fnv::splitmix64;
use wsan_net::NodeId;

/// A receiver-based autonomous unicast slotframe.
///
/// Node `v` listens in slot `hash(v) mod L` on channel offset
/// `hash'(v) mod m`; every node with a packet whose next hop is `v`
/// transmits in that slot. Shorter slotframes give more bandwidth and more
/// contention; Orchestra deployments typically use primes (7–47).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AutonomousSlotframe {
    slotframe_len: u32,
    channels: usize,
    rx_slot: Vec<u32>,
    rx_offset: Vec<usize>,
}

impl AutonomousSlotframe {
    /// Builds the receiver-based slotframe for `node_count` nodes with
    /// slotframe length `slotframe_len` over `channels` channel offsets.
    ///
    /// # Panics
    ///
    /// Panics if `slotframe_len` or `channels` is zero.
    pub fn receiver_based(node_count: usize, slotframe_len: u32, channels: usize) -> Self {
        assert!(slotframe_len >= 1, "slotframe needs at least one slot");
        assert!(channels >= 1, "slotframe needs at least one channel");
        let rx_slot =
            (0..node_count).map(|i| (hash(i as u64) % u64::from(slotframe_len)) as u32).collect();
        let rx_offset = (0..node_count)
            .map(|i| (hash(i as u64 ^ 0xABCD_EF12_3456_789A) % channels as u64) as usize)
            .collect();
        AutonomousSlotframe { slotframe_len, channels, rx_slot, rx_offset }
    }

    /// Slotframe length `L`.
    pub fn slotframe_len(&self) -> u32 {
        self.slotframe_len
    }

    /// Channel offsets available.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of nodes the frame was built for.
    pub fn node_count(&self) -> usize {
        self.rx_slot.len()
    }

    /// The slot (within the slotframe) in which `node` listens.
    pub fn rx_slot(&self, node: NodeId) -> u32 {
        self.rx_slot[node.index()]
    }

    /// The channel offset on which `node` listens.
    pub fn rx_offset(&self, node: NodeId) -> usize {
        self.rx_offset[node.index()]
    }

    /// Whether `node` listens in absolute slot `asn`.
    pub fn listens(&self, node: NodeId, asn: u64) -> bool {
        (asn % u64::from(self.slotframe_len)) as u32 == self.rx_slot(node)
    }
}

/// SplitMix64 — cheap deterministic hash for slot derivation.
fn hash(x: u64) -> u64 {
    splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_and_offsets_are_in_range() {
        let f = AutonomousSlotframe::receiver_based(60, 17, 4);
        for i in 0..60 {
            assert!(f.rx_slot(NodeId::new(i)) < 17);
            assert!(f.rx_offset(NodeId::new(i)) < 4);
        }
        assert_eq!(f.node_count(), 60);
    }

    #[test]
    fn derivation_is_deterministic_and_identity_based() {
        let a = AutonomousSlotframe::receiver_based(60, 17, 4);
        let b = AutonomousSlotframe::receiver_based(60, 17, 4);
        assert_eq!(a, b);
        // different nodes mostly land on different slots
        let distinct: std::collections::BTreeSet<u32> =
            (0..60).map(|i| a.rx_slot(NodeId::new(i))).collect();
        assert!(distinct.len() > 8, "hashing should spread receive slots");
    }

    #[test]
    fn listens_matches_modular_arithmetic() {
        let f = AutonomousSlotframe::receiver_based(10, 7, 2);
        let node = NodeId::new(3);
        let slot = f.rx_slot(node);
        assert!(f.listens(node, u64::from(slot)));
        assert!(f.listens(node, u64::from(slot) + 7 * 5));
        assert!(!f.listens(node, u64::from(slot) + 1));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_length_panics() {
        let _ = AutonomousSlotframe::receiver_based(4, 0, 2);
    }
}
