//! Queue-based simulation of autonomous (Orchestra-style) slotframes.
//!
//! Unlike the centrally scheduled engine, packets here are not bound to
//! pre-assigned cells. A packet waits at its current node; whenever the
//! next hop's receive slot comes around, the node transmits. Several
//! packets heading to the same receiver — or to different receivers that
//! happen to share a physical channel — contend, and the capture model
//! decides who survives. Packets retry every slotframe round until
//! delivered or past their deadline.

use crate::phy::{PathLoss, Phy};
use crate::{FlowStats, SimConfig, SimReport, WifiInterferer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use wsan_core::orchestra::AutonomousSlotframe;
use wsan_flow::FlowSet;
use wsan_net::{ChannelSet, DirectedLink, NodeId, Topology};

/// One in-flight packet.
#[derive(Debug, Clone, Copy)]
struct Packet {
    flow: usize,
    release: u64,
    deadline: u64,
    hop: usize,
}

/// Simulator for autonomous slotframes.
///
/// Shares the PHY (capture + fading + WiFi) with the scheduled
/// [`Simulator`](crate::Simulator), so NR/RA/RC and the autonomous baseline
/// are compared under identical radio conditions.
#[derive(Debug)]
pub struct AutonomousSimulator<'a> {
    topo: &'a Topology,
    channels: &'a ChannelSet,
    flows: &'a FlowSet,
    frame: &'a AutonomousSlotframe,
    /// per flow: the node sequence of its route (walk across segments)
    hops: Vec<Vec<DirectedLink>>,
}

impl<'a> AutonomousSimulator<'a> {
    /// Prepares the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the slotframe was built for fewer nodes than the topology
    /// has, or the channel set does not match its channel-offset count.
    pub fn new(
        topo: &'a Topology,
        channels: &'a ChannelSet,
        flows: &'a FlowSet,
        frame: &'a AutonomousSlotframe,
    ) -> Self {
        assert!(
            frame.node_count() >= topo.node_count(),
            "slotframe built for fewer nodes than the topology"
        );
        assert_eq!(
            channels.len(),
            frame.channels(),
            "channel set size must match the slotframe's channel offsets"
        );
        let hops = flows.iter().map(|f| f.links()).collect();
        AutonomousSimulator { topo, channels, flows, frame, hops }
    }

    /// Runs for `config.repetitions` hyperperiods of the flow set and
    /// reports deadline-constrained delivery (a packet counts as delivered
    /// only if it reaches the destination before its deadline).
    pub fn run(&self, config: &SimConfig) -> SimReport {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let path = PathLoss::new(self.topo);
        let phy = Phy::new(config.capture);
        let hyperperiod = u64::from(self.flows.hyperperiod());
        let total_slots = hyperperiod * u64::from(config.repetitions.max(1));
        let mut flow_stats = vec![FlowStats::default(); self.flows.len()];
        let mut latencies: Vec<Vec<u32>> = vec![Vec::new(); self.flows.len()];
        let mut packets: Vec<Packet> = Vec::new();

        for asn in 0..total_slots {
            // releases
            for (fi, flow) in self.flows.iter().enumerate() {
                if asn % u64::from(flow.period().slots()) == 0 {
                    flow_stats[fi].released += 1;
                    packets.push(Packet {
                        flow: fi,
                        release: asn,
                        deadline: asn + u64::from(flow.deadline_slots()),
                        hop: 0,
                    });
                }
            }
            // drop expired packets
            packets.retain(|p| asn < p.deadline);

            // transmission attempts this slot: at most one packet per
            // sender, sender must not be listening itself this slot
            let mut attempt_of_sender: BTreeMap<NodeId, usize> = BTreeMap::new();
            for (pi, p) in packets.iter().enumerate() {
                let link = self.hops[p.flow][p.hop];
                if !self.frame.listens(link.rx, asn) {
                    continue; // next hop not listening now
                }
                attempt_of_sender.entry(link.tx).or_insert(pi); // FIFO per sender
            }
            // Transmission takes precedence over listening (Orchestra's
            // slot-priority rule); a half-duplex node that transmits this
            // slot is deaf, so attempts *to* a transmitting node fail.
            let transmitting: std::collections::BTreeSet<NodeId> =
                attempt_of_sender.keys().copied().collect();
            let deaf = transmitting.clone();
            attempt_of_sender.retain(|_, pi| {
                let link = self.hops[packets[*pi].flow][packets[*pi].hop];
                !deaf.contains(&link.rx)
            });
            if attempt_of_sender.is_empty() {
                continue;
            }
            let active_wifi: Vec<&WifiInterferer> =
                config.interferers.iter().filter(|w| rng.gen::<f64>() < w.duty_cycle).collect();
            // group attempts by physical channel
            let mut by_channel: BTreeMap<u8, Vec<usize>> = BTreeMap::new();
            for (&sender, &pi) in &attempt_of_sender {
                let _ = sender;
                let link = self.hops[packets[pi].flow][packets[pi].hop];
                let channel = self.channels.physical(asn, self.frame.rx_offset(link.rx));
                by_channel.entry(channel.number()).or_default().push(pi);
            }
            // resolve receptions; a receiver can decode at most one frame
            let mut advanced: Vec<usize> = Vec::new();
            for (ch_num, group) in &by_channel {
                let channel = wsan_net::ChannelId::new(*ch_num).expect("from the set");
                // per receiver: the strongest successful attempt wins
                let mut winner_of_rx: BTreeMap<NodeId, (usize, f64)> = BTreeMap::new();
                for &pi in group {
                    let link = self.hops[packets[pi].flow][packets[pi].hop];
                    let interferer_mw: Vec<f64> = group
                        .iter()
                        .filter(|&&o| o != pi)
                        .map(|&o| {
                            let sender = self.hops[packets[o].flow][packets[o].hop].tx;
                            path.received_mw(sender, link.rx, channel)
                        })
                        .collect();
                    let external = path.external_mw(link.rx, channel, active_wifi.iter().copied());
                    let fading = if interferer_mw.is_empty() && external <= 0.0 {
                        0.0
                    } else {
                        config.capture.fading.sample_db(&mut rng)
                    };
                    let p = phy.success_probability(
                        self.topo.prr(link.tx, link.rx, channel).value(),
                        None,
                        path.received_mw(link.tx, link.rx, channel),
                        &interferer_mw,
                        external,
                        fading,
                    );
                    if rng.gen::<f64>() < p {
                        let power = path.received_power_dbm(link.tx, link.rx, channel);
                        let best = winner_of_rx.entry(link.rx).or_insert((pi, power));
                        if power > best.1 {
                            *best = (pi, power);
                        }
                    }
                }
                advanced.extend(winner_of_rx.values().map(|(pi, _)| *pi));
            }
            // apply progress, record deliveries
            let mut delivered: Vec<usize> = Vec::new();
            for pi in advanced {
                let p = &mut packets[pi];
                p.hop += 1;
                if p.hop == self.hops[p.flow].len() {
                    flow_stats[p.flow].delivered += 1;
                    latencies[p.flow].push((asn - p.release + 1) as u32);
                    delivered.push(pi);
                }
            }
            delivered.sort_unstable_by(|a, b| b.cmp(a));
            for pi in delivered {
                packets.swap_remove(pi);
            }
        }
        SimReport { flows: flow_stats, link_samples: BTreeMap::new(), latencies }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_flow::{priority, Flow, FlowId, Period};
    use wsan_net::propagation::PropagationModel;
    use wsan_net::{ChannelId, Position, Prr, Route};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn perfect_pair_topo() -> (Topology, ChannelSet) {
        let mut topo = Topology::new(
            "auto",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(8.0, 0.0, 0.0),
                Position::new(60.0, 0.0, 0.0),
                Position::new(68.0, 0.0, 0.0),
            ],
        );
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 12).unwrap();
        for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (2, 1)] {
            for ch in &channels {
                topo.set_prr(n(a), n(b), ch, Prr::ONE).unwrap();
            }
        }
        (topo, channels)
    }

    fn flows_one_hop(period: u32, deadline: u32) -> FlowSet {
        priority::deadline_monotonic(
            vec![
                Flow::new(
                    FlowId::new(0),
                    Route::new(vec![n(0), n(1)]),
                    Period::from_slots(period).unwrap(),
                    deadline,
                )
                .unwrap(),
                Flow::new(
                    FlowId::new(1),
                    Route::new(vec![n(2), n(3)]),
                    Period::from_slots(period).unwrap(),
                    deadline,
                )
                .unwrap(),
            ],
            vec![],
        )
    }

    #[test]
    fn roomy_deadlines_deliver_over_perfect_links() {
        let (topo, channels) = perfect_pair_topo();
        let flows = flows_one_hop(40, 40);
        let frame = AutonomousSlotframe::receiver_based(4, 7, 2);
        let sim = AutonomousSimulator::new(&topo, &channels, &flows, &frame);
        let report = sim.run(&SimConfig { repetitions: 20, ..SimConfig::default() });
        // a 7-slot frame always comes around within a 40-slot deadline
        assert_eq!(report.network_pdr(), 1.0, "{:?}", report.flows);
        // latency is bounded by the slotframe round per hop
        for lat in &report.latencies[0] {
            assert!(*lat <= 7 + 1);
        }
    }

    #[test]
    fn deadlines_shorter_than_the_slotframe_round_miss() {
        let (topo, channels) = perfect_pair_topo();
        // deadline 3 slots, but the receiver only wakes every 7 — most
        // releases miss by construction
        let flows = flows_one_hop(40, 3);
        let frame = AutonomousSlotframe::receiver_based(4, 7, 2);
        let sim = AutonomousSimulator::new(&topo, &channels, &flows, &frame);
        let report = sim.run(&SimConfig { repetitions: 30, ..SimConfig::default() });
        assert!(
            report.network_pdr() < 0.7,
            "tight deadlines should miss under autonomous scheduling, pdr {}",
            report.network_pdr()
        );
    }

    #[test]
    fn contention_for_one_receiver_serializes_packets() {
        // two flows with the SAME next hop: 0→1 and 2→1; both senders wake
        // in node 1's receive slot and contend every round.
        let (topo, channels) = perfect_pair_topo();
        let flows = priority::deadline_monotonic(
            vec![
                Flow::new(
                    FlowId::new(0),
                    Route::new(vec![n(0), n(1)]),
                    Period::from_slots(8).unwrap(),
                    8,
                )
                .unwrap(),
                Flow::new(
                    FlowId::new(1),
                    Route::new(vec![n(2), n(1)]),
                    Period::from_slots(8).unwrap(),
                    8,
                )
                .unwrap(),
            ],
            vec![],
        );
        let frame = AutonomousSlotframe::receiver_based(4, 7, 2);
        let sim = AutonomousSimulator::new(&topo, &channels, &flows, &frame);
        let report = sim.run(&SimConfig { repetitions: 50, ..SimConfig::default() });
        // Node 1 wakes ~once per 8-slot period and decodes at most one
        // frame per wake; with both senders contending at every wake, one
        // of the two packets usually expires. PDR lands strictly between
        // free-flow and starvation.
        let pdr = report.network_pdr();
        assert!(pdr > 0.3 && pdr < 0.95, "contention should cost something: pdr {pdr}");
        // the stronger (nearer) sender captures more often
        let pdrs = report.flow_pdrs();
        assert!(pdrs[0] >= pdrs[1], "capture should favour the strong sender: {pdrs:?}");
    }

    #[test]
    fn determinism() {
        let (topo, channels) = perfect_pair_topo();
        let flows = flows_one_hop(40, 40);
        let frame = AutonomousSlotframe::receiver_based(4, 7, 2);
        let sim = AutonomousSimulator::new(&topo, &channels, &flows, &frame);
        let cfg = SimConfig { repetitions: 10, seed: 5, ..SimConfig::default() };
        assert_eq!(sim.run(&cfg), sim.run(&cfg));
    }
}

#[cfg(test)]
mod multi_hop_tests {
    use super::*;
    use wsan_flow::{priority, Flow, FlowId, Period};
    use wsan_net::propagation::PropagationModel;
    use wsan_net::{ChannelId, Position, Prr, Route};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// A 3-hop chain under an autonomous slotframe: the packet must catch
    /// three different receive slots in order.
    #[test]
    fn multi_hop_packets_ride_successive_receive_slots() {
        let mut topo = Topology::new(
            "chain",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(10.0, 0.0, 0.0),
                Position::new(20.0, 0.0, 0.0),
                Position::new(30.0, 0.0, 0.0),
            ],
        );
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 12).unwrap();
        for i in 0..3 {
            for ch in &channels {
                topo.set_prr(n(i), n(i + 1), ch, Prr::ONE).unwrap();
                topo.set_prr(n(i + 1), n(i), ch, Prr::ONE).unwrap();
            }
        }
        let flow = Flow::new(
            FlowId::new(0),
            Route::new(vec![n(0), n(1), n(2), n(3)]),
            Period::from_slots(60).unwrap(),
            60,
        )
        .unwrap();
        let flows = priority::deadline_monotonic(vec![flow], vec![]);
        let frame = AutonomousSlotframe::receiver_based(4, 7, 2);
        let sim = AutonomousSimulator::new(&topo, &channels, &flows, &frame);
        let report = sim.run(&SimConfig { repetitions: 15, ..SimConfig::default() });
        // three receive slots always come around within 3 slotframe rounds,
        // far inside the 60-slot deadline
        assert_eq!(report.network_pdr(), 1.0, "{:?}", report.flows);
        // end-to-end latency is at least 3 slots (one per hop)
        for lat in &report.latencies[0] {
            assert!(*lat >= 3, "3 hops need at least 3 slots, got {lat}");
            assert!(*lat <= 3 * 7 + 1, "latency {lat} exceeds 3 slotframe rounds");
        }
    }

    /// Expired packets stop transmitting — they must not keep interfering
    /// after their deadline.
    #[test]
    fn expired_packets_are_dropped() {
        let mut topo =
            Topology::new("exp", vec![Position::new(0.0, 0.0, 0.0), Position::new(10.0, 0.0, 0.0)]);
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 11).unwrap();
        // PRR zero: nothing ever gets through
        let flow = Flow::new(
            FlowId::new(0),
            Route::new(vec![n(0), n(1)]),
            Period::from_slots(10).unwrap(),
            10,
        )
        .unwrap();
        let flows = priority::deadline_monotonic(vec![flow], vec![]);
        let frame = AutonomousSlotframe::receiver_based(2, 7, 1);
        let sim = AutonomousSimulator::new(&topo, &channels, &flows, &frame);
        let report = sim.run(&SimConfig { repetitions: 10, ..SimConfig::default() });
        assert_eq!(report.network_pdr(), 0.0);
        assert_eq!(report.flows[0].released, 10);
    }
}
