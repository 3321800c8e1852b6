//! The probabilistic PHY: reception success under interference.
//!
//! [`Phy::success_probability`] works on received powers in mW. The
//! simulator's hot loops read those powers from link-budget tables built
//! once from the frozen topology: [`LinkBudgets`] per `Simulator` (signal
//! and co-cell interferer powers of the scheduled links) and
//! [`WifiBudgets`] per run (WiFi source powers at the scheduled
//! receivers). [`PathLoss`] is the position formula that fills the tables.
//! It is also the oracle the tables are tested against, and the direct
//! path of the autonomous simulator.

use crate::faults::{FaultKind, FaultPlan};
use crate::{CaptureModel, WifiInterferer};
use std::collections::HashMap;
use wsan_net::propagation::{dbm_to_mw, PropagationModel};
use wsan_net::{ChannelId, ChannelSet, DirectedLink, NodeId, Topology};

/// Resolves signal and interference powers from node positions, against
/// the topology's frozen propagation state.
pub(crate) struct PathLoss<'a> {
    topo: &'a Topology,
    model: PropagationModel,
}

impl<'a> PathLoss<'a> {
    pub fn new(topo: &'a Topology) -> Self {
        let model = topo.propagation_model().cloned().unwrap_or_default();
        PathLoss { topo, model }
    }

    /// Received power (dBm) at `rx` of a signal from `tx` on `channel`,
    /// using the same frozen shadowing that generated the PRR tables.
    pub fn received_power_dbm(&self, tx: NodeId, rx: NodeId, channel: ChannelId) -> f64 {
        let pa = self.topo.position(tx);
        let pb = self.topo.position(rx);
        let mean = self
            .model
            .mean_rssi_dbm(pa.distance(&pb), pa.floors_between(&pb, self.model.floor_height_m));
        mean + self.topo.shadowing_db(tx, rx, channel)
    }

    /// [`Self::received_power_dbm`] in mW.
    pub fn received_mw(&self, tx: NodeId, rx: NodeId, channel: ChannelId) -> f64 {
        dbm_to_mw(self.received_power_dbm(tx, rx, channel))
    }

    /// Power (mW) of `source` at `rx` while it transmits, on any channel
    /// it overlaps.
    pub fn wifi_mw(&self, source: &WifiInterferer, rx: NodeId) -> f64 {
        dbm_to_mw(source.power_at(&self.topo.position(rx), &self.model))
    }

    /// External interference power (mW) at `rx` on `channel` from the
    /// active interferers, summed in iteration order.
    pub fn external_mw<'w>(
        &self,
        rx: NodeId,
        channel: ChannelId,
        active: impl IntoIterator<Item = &'w WifiInterferer>,
    ) -> f64 {
        active.into_iter().filter(|w| w.affects(channel)).map(|w| self.wifi_mw(w, rx)).sum()
    }
}

/// Turns received powers into reception-success probabilities.
pub(crate) struct Phy {
    capture: CaptureModel,
}

impl Phy {
    pub fn new(capture: CaptureModel) -> Self {
        Phy { capture }
    }

    /// Probability that a reception with signal power `signal_mw`
    /// succeeds against the concurrent same-channel senders' powers
    /// `interferer_mw`, `external_mw` of external interference at the
    /// receiver, and a per-reception temporal fading draw `fading_db`
    /// added to the signal-to-interference ratio (0 for the no-fading
    /// expectation; the engine draws it from the capture model's fading).
    ///
    /// The link's `measured_prr` (which already encodes the
    /// quiet-environment noise floor) gates the reception. An injected
    /// fault ceiling `base_override` caps it: a collapse can only make a
    /// link worse, never better. The capture model then discounts it by
    /// the faded signal-to-interference ratio.
    pub fn success_probability(
        &self,
        measured_prr: f64,
        base_override: Option<f64>,
        signal_mw: f64,
        interferer_mw: &[f64],
        external_mw: f64,
        fading_db: f64,
    ) -> f64 {
        let base = base_override.map_or(measured_prr, |o| measured_prr.min(o.clamp(0.0, 1.0)));
        if base == 0.0 {
            return 0.0;
        }
        let interference_mw = interferer_mw.iter().sum::<f64>() + external_mw;
        if interference_mw <= 0.0 {
            return base;
        }
        let sir_db = 10.0 * (signal_mw / interference_mw).log10() + fading_db;
        base * self.capture.capture_probability(sir_db)
    }
}

/// The static link budgets of one schedule, per channel-set position:
/// each scheduled link's measured PRR and signal power, and the power of
/// every co-cell sender at every co-cell receiver of each reuse cell.
/// Sized by the schedule: its links, plus the distinct sender/receiver
/// pairs that share a cell.
#[derive(Debug)]
pub(crate) struct LinkBudgets {
    channels: usize,
    /// Per (scheduled link, channel position): the measured PRR.
    prr: Vec<f64>,
    /// Per (sender/receiver pair row, channel position): received mW. The
    /// scheduled links are the first rows, in order.
    pair_mw: Vec<f64>,
    /// Pair row of each tabulated sender/receiver pair.
    pair_rows: HashMap<(NodeId, NodeId), usize>,
    /// Per reuse cell, per (receiving member, sending member): the pair row.
    cell_pairs: Vec<usize>,
}

impl LinkBudgets {
    /// Tabulates every link of `links`, which must be distinct, on every
    /// channel of `channels`.
    pub fn new(path: &PathLoss<'_>, channels: &ChannelSet, links: &[DirectedLink]) -> Self {
        let mut budgets = LinkBudgets {
            channels: channels.len(),
            prr: Vec::with_capacity(links.len() * channels.len()),
            pair_mw: Vec::with_capacity(links.len() * channels.len()),
            pair_rows: HashMap::with_capacity(links.len()),
            cell_pairs: Vec::new(),
        };
        for (i, link) in links.iter().enumerate() {
            budgets
                .prr
                .extend(channels.iter().map(|ch| path.topo.prr(link.tx, link.rx, ch).value()));
            let row = budgets.pair_row(path, channels, link.tx, link.rx);
            debug_assert_eq!(row, i, "scheduled links must be distinct");
        }
        budgets
    }

    fn pair_row(
        &mut self,
        path: &PathLoss<'_>,
        channels: &ChannelSet,
        tx: NodeId,
        rx: NodeId,
    ) -> usize {
        let next = self.pair_rows.len();
        let row = *self.pair_rows.entry((tx, rx)).or_insert(next);
        if row == next {
            self.pair_mw.extend(channels.iter().map(|ch| path.received_mw(tx, rx, ch)));
        }
        row
    }

    /// Tabulates one reuse cell: the power of each member's sender at each
    /// member's receiver. Returns the start of member 0's row; member `i`'s
    /// row starts `i * members.len()` further on, and holds one entry per
    /// sending member, in `members` order.
    pub fn push_cell(
        &mut self,
        path: &PathLoss<'_>,
        channels: &ChannelSet,
        members: &[DirectedLink],
    ) -> usize {
        let start = self.cell_pairs.len();
        for receiver in members {
            for sender in members {
                let row = self.pair_row(path, channels, sender.tx, receiver.rx);
                self.cell_pairs.push(row);
            }
        }
        start
    }

    /// Measured PRR of scheduled link `link` on channel position `ch`.
    pub fn prr(&self, link: usize, ch: usize) -> f64 {
        self.prr[link * self.channels + ch]
    }

    /// Signal power (mW) of scheduled link `link` on channel position `ch`.
    pub fn signal_mw(&self, link: usize, ch: usize) -> f64 {
        self.pair_mw[link * self.channels + ch]
    }

    /// Power (mW) of cell member `sender`'s transmitter at the receiver
    /// whose cell row starts at `row`, on channel position `ch`.
    pub fn co_cell_mw(&self, row: usize, sender: usize, ch: usize) -> f64 {
        self.pair_mw[self.cell_pairs[row + sender] * self.channels + ch]
    }
}

/// The WiFi budgets of one run: the power of every interference source at
/// the receiver of every scheduled link, and the channel positions each
/// source overlaps. The sources are the environment interferers, then
/// every interferer the fault plan can spawn.
#[derive(Debug)]
pub(crate) struct WifiBudgets {
    links: usize,
    /// Per (source row, scheduled link): mW at the link's receiver.
    mw: Vec<f64>,
    /// Per source row: the overlapped channel positions, as a bit mask.
    overlaps: Vec<u32>,
    /// Per fault-plan event: its source row, if it spawns an interferer.
    spawn_rows: Vec<Option<usize>>,
}

impl WifiBudgets {
    pub fn new(
        path: &PathLoss<'_>,
        channels: &ChannelSet,
        links: &[DirectedLink],
        environment: &[WifiInterferer],
        plan: &FaultPlan,
    ) -> Self {
        let mut budgets = WifiBudgets {
            links: links.len(),
            mw: Vec::new(),
            overlaps: Vec::new(),
            spawn_rows: Vec::new(),
        };
        for source in environment {
            budgets.push_source(path, channels, links, source);
        }
        let spawn_rows = plan
            .events
            .iter()
            .map(|event| match &event.kind {
                FaultKind::SpawnInterferer { interferer } => {
                    Some(budgets.push_source(path, channels, links, interferer))
                }
                _ => None,
            })
            .collect();
        budgets.spawn_rows = spawn_rows;
        budgets
    }

    /// Tabulates `source` as the next row and returns the row.
    fn push_source(
        &mut self,
        path: &PathLoss<'_>,
        channels: &ChannelSet,
        links: &[DirectedLink],
        source: &WifiInterferer,
    ) -> usize {
        self.mw.extend(links.iter().map(|l| path.wifi_mw(source, l.rx)));
        let overlapped = channels.iter().enumerate().filter(|(_, ch)| source.affects(*ch));
        self.overlaps.push(overlapped.fold(0, |mask, (i, _)| mask | 1 << i));
        self.overlaps.len() - 1
    }

    /// External interference power (mW) at scheduled link `link`'s
    /// receiver on channel position `ch`: the active environment
    /// interferers in index order, then the passing spawned ones (by
    /// fault-plan event index) in the order given. That is the summation
    /// order of [`PathLoss::external_mw`] over the same sources.
    pub fn external_mw(
        &self,
        link: usize,
        ch: usize,
        env_active: &[bool],
        spawned: &[usize],
    ) -> f64 {
        let environment = env_active.iter().enumerate().filter(|(_, on)| **on).map(|(i, _)| i);
        let spawned = spawned.iter().filter_map(|&event| self.spawn_rows[event]);
        environment
            .chain(spawned)
            .filter(|&row| self.overlaps[row] >> ch & 1 == 1)
            .map(|row| self.mw[row * self.links + link])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultTrigger};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use wsan_net::{testbeds, Position, Prr};

    fn ch(n: u8) -> ChannelId {
        ChannelId::new(n).unwrap()
    }

    /// Three nodes on a line: 0 --10m-- 1 --30m-- 2.
    fn topo() -> Topology {
        let mut t = Topology::new(
            "phy-test",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(10.0, 0.0, 0.0),
                Position::new(40.0, 0.0, 0.0),
            ],
        );
        t.set_propagation_model(PropagationModel::default());
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    t.set_prr(NodeId::new(a), NodeId::new(b), ch(11), Prr::new(0.95).unwrap())
                        .unwrap();
                }
            }
        }
        t
    }

    /// The position formula end to end: the reference the table path must
    /// match bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn oracle_success(
        topo: &Topology,
        capture: CaptureModel,
        link: DirectedLink,
        channel: ChannelId,
        interferer_senders: &[NodeId],
        external_mw: f64,
        fading_db: f64,
        base_override: Option<f64>,
    ) -> f64 {
        let path = PathLoss::new(topo);
        let measured = topo.prr(link.tx, link.rx, channel).value();
        let base = base_override.map_or(measured, |o| measured.min(o.clamp(0.0, 1.0)));
        if base == 0.0 {
            return 0.0;
        }
        let interference_mw: f64 = interferer_senders
            .iter()
            .map(|&s| dbm_to_mw(path.received_power_dbm(s, link.rx, channel)))
            .sum::<f64>()
            + external_mw;
        if interference_mw <= 0.0 {
            return base;
        }
        let signal_mw = dbm_to_mw(path.received_power_dbm(link.tx, link.rx, channel));
        let sir_db = 10.0 * (signal_mw / interference_mw).log10() + fading_db;
        base * capture.capture_probability(sir_db)
    }

    /// Oracle success through the position formula, for tests that only
    /// care about the value.
    fn p(topo: &Topology, tx: usize, rx: usize, senders: &[usize], external_mw: f64) -> f64 {
        let senders: Vec<NodeId> = senders.iter().map(|&s| NodeId::new(s)).collect();
        let link = DirectedLink { tx: NodeId::new(tx), rx: NodeId::new(rx) };
        let capture = CaptureModel::default();
        oracle_success(topo, capture, link, ch(11), &senders, external_mw, 0.0, None)
    }

    #[test]
    fn no_interference_returns_base_prr() {
        // PRR tables store f32; compare at f32 precision.
        assert!((p(&topo(), 0, 1, &[], 0.0) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn zero_base_prr_never_succeeds() {
        let t = topo();
        let phy = Phy::new(CaptureModel::default());
        let measured = t.prr(NodeId::new(0), NodeId::new(1), ch(12)).value();
        assert_eq!(phy.success_probability(measured, None, 1.0, &[1.0], 0.0, 0.0), 0.0);
    }

    #[test]
    fn nearby_interferer_hurts_more_than_distant() {
        let t = topo();
        // reception 0 → 1 (10 m). Interferer at node 2 is 30 m from rx.
        let with_far = p(&t, 0, 1, &[2], 0.0);
        // reception 2 → 1 (30 m) with interferer node 0 at 10 m from rx:
        // signal weaker than interference → collapse.
        let with_near = p(&t, 2, 1, &[0], 0.0);
        assert!(with_far > with_near);
        assert!(with_far > 0.8, "distant interferer should barely matter, got {with_far}");
        assert!(with_near < 0.1, "near interferer should break capture, got {with_near}");
    }

    #[test]
    fn interference_is_cumulative() {
        let phy = Phy::new(CaptureModel::default());
        let one = phy.success_probability(0.95, None, 1e-6, &[1e-8], 0.0, 0.0);
        let two = phy.success_probability(0.95, None, 1e-6, &[1e-8, 1e-8], 0.0, 0.0);
        assert!(two < one, "adding an interferer must not help ({two} !< {one})");
    }

    #[test]
    fn external_power_behaves_like_interference() {
        let t = topo();
        let clean = p(&t, 0, 1, &[], 0.0);
        let noisy = p(&t, 0, 1, &[], dbm_to_mw(-60.0));
        assert!(noisy < clean);
    }

    #[test]
    fn collapse_caps_but_never_raises_the_base() {
        let phy = Phy::new(CaptureModel::default());
        assert_eq!(phy.success_probability(0.9, Some(0.4), 1.0, &[], 0.0, 0.0), 0.4);
        assert_eq!(phy.success_probability(0.3, Some(0.8), 1.0, &[], 0.0, 0.0), 0.3);
        assert_eq!(phy.success_probability(0.9, Some(-1.0), 1.0, &[], 0.0, 0.0), 0.0);
    }

    #[test]
    fn shadowing_feeds_received_power() {
        let mut t = topo();
        let before = PathLoss::new(&t).received_power_dbm(NodeId::new(0), NodeId::new(1), ch(11));
        t.set_shadowing_db(NodeId::new(0), NodeId::new(1), ch(11), 6.0);
        let after = PathLoss::new(&t).received_power_dbm(NodeId::new(0), NodeId::new(1), ch(11));
        assert!((after - before - 6.0).abs() < 1e-9);
    }

    #[test]
    fn cell_rows_deduplicate_pairs() {
        let t = topo();
        let path = PathLoss::new(&t);
        let channels = ChannelId::range(11, 12).unwrap();
        let l01 = DirectedLink { tx: NodeId::new(0), rx: NodeId::new(1) };
        let l21 = DirectedLink { tx: NodeId::new(2), rx: NodeId::new(1) };
        let mut budgets = LinkBudgets::new(&path, &channels, &[l01, l21]);
        let first = budgets.push_cell(&path, &channels, &[l01, l21]);
        let second = budgets.push_cell(&path, &channels, &[l21, l01]);
        // both receivers are node 1, and both senders are scheduled links:
        // every cell pair is a link row, so no new rows appear
        assert_eq!(budgets.pair_rows.len(), 2);
        assert_eq!(budgets.co_cell_mw(first, 1, 1).to_bits(), budgets.signal_mw(1, 1).to_bits());
        assert_eq!(
            budgets.co_cell_mw(second + 2, 0, 0).to_bits(),
            budgets.signal_mw(1, 0).to_bits()
        );
    }

    /// A testbed with the directed pairs that have a nonzero PRR on some
    /// channel, built once per test binary.
    fn testbed(indriya: bool, seed: u64) -> &'static (Topology, Vec<DirectedLink>) {
        static BEDS: OnceLock<Vec<(Topology, Vec<DirectedLink>)>> = OnceLock::new();
        let beds = BEDS.get_or_init(|| {
            [false, true]
                .into_iter()
                .flat_map(|indriya| (1..3).map(move |seed| (indriya, seed)))
                .map(|(indriya, seed)| {
                    let topo =
                        if indriya { testbeds::indriya(seed) } else { testbeds::wustl(seed) };
                    let all = ChannelId::all();
                    let links = topo
                        .nodes()
                        .flat_map(|tx| topo.nodes().map(move |rx| DirectedLink { tx, rx }))
                        .filter(|l| l.tx != l.rx)
                        .filter(|l| all.iter().any(|c| topo.prr(l.tx, l.rx, c).value() > 0.0))
                        .collect();
                    (topo, links)
                })
                .collect()
        });
        &beds[usize::from(indriya) * 2 + (seed as usize - 1)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every quantity the hot loop reads from the tables — measured
        /// PRR, signal and co-cell interferer mW, external WiFi mW — and
        /// the success probability built from them equal the position
        /// formula's to the bit.
        #[test]
        fn table_path_is_bit_identical_to_the_position_formula(
            (indriya, seed, first, width) in (0u8..2, 1u64..3, 11u8..27, 1u8..5),
            picks in vec(0usize..1_000_000, 1..5),
            (receiver, subset, asn) in (0usize..4, 0u32..16, 0u64..10_000),
            (collapse, ceiling, fading) in (0u8..3, 0.0f64..=1.0, -25.0f64..25.0),
            wifi in vec((0.0f64..75.0, 0.0f64..35.0, 0.0f64..10.5, -10.0f64..15.0, 0u8..3), 0..9),
            (env_on, spawn_on) in (0u32..32, 0u32..32),
        ) {
            let (topo, candidates) = testbed(indriya == 1, seed);
            let channels = ChannelId::range(first, (first + width - 1).min(26)).unwrap();
            let mut members: Vec<DirectedLink> =
                picks.iter().map(|&i| candidates[i % candidates.len()]).collect();
            members.dedup();
            let mut links = members.clone();
            links.sort();
            links.dedup();
            let path = PathLoss::new(topo);
            let mut budgets = LinkBudgets::new(&path, &channels, &links);
            let cell = budgets.push_cell(&path, &channels, &members);

            let i = receiver % members.len();
            let link = members[i];
            let li = links.binary_search(&link).unwrap();
            let c = channels.physical_index(asn, i);
            let channel = channels.at(c);
            let others: Vec<usize> =
                (0..members.len()).filter(|&j| j != i && subset >> j & 1 == 1).collect();
            let senders: Vec<NodeId> = others.iter().map(|&j| members[j].tx).collect();
            let interferer_mw: Vec<f64> = others
                .iter()
                .map(|&j| budgets.co_cell_mw(cell + i * members.len(), j, c))
                .collect();

            // WiFi sources over the whole band or on WiFi channel 1 or 6,
            // split between the environment and spawn events interleaved
            // with other faults
            let sources: Vec<WifiInterferer> = wifi
                .iter()
                .map(|&(x, y, z, dbm, family)| {
                    let mut w = WifiInterferer::wifi_channel_1(Position::new(x, y, z), dbm, 0.5);
                    w.channels = match family {
                        0 => ChannelId::all().iter().collect(),
                        1 => w.channels,
                        _ => ChannelId::range(16, 19).unwrap().iter().collect(),
                    };
                    w
                })
                .collect();
            let (environment, spawns) = sources.split_at(sources.len() / 2);
            let plan = spawns.iter().fold(FaultPlan::new(1), |plan, w| {
                plan.crash_at(0, NodeId::new(0)).spawn_wifi_at(0, w.clone(), None)
            });
            let wifi_budgets = WifiBudgets::new(&path, &channels, &links, environment, &plan);
            let env_active: Vec<bool> =
                (0..environment.len()).map(|k| env_on >> k & 1 == 1).collect();
            let spawned: Vec<usize> =
                (0..spawns.len()).filter(|k| spawn_on >> k & 1 == 1).map(|k| 2 * k + 1).collect();
            let active = environment
                .iter()
                .zip(&env_active)
                .filter(|(_, on)| **on)
                .map(|(w, _)| w)
                .chain(spawned.iter().map(|&event| &spawns[event / 2]));
            let oracle_external = path.external_mw(link.rx, channel, active);
            let external = wifi_budgets.external_mw(li, c, &env_active, &spawned);
            prop_assert_eq!(external.to_bits(), oracle_external.to_bits());

            let measured = topo.prr(link.tx, link.rx, channel).value();
            prop_assert_eq!(budgets.prr(li, c).to_bits(), measured.to_bits());
            prop_assert_eq!(
                budgets.signal_mw(li, c).to_bits(),
                path.received_mw(link.tx, link.rx, channel).to_bits()
            );
            let base_override = match collapse {
                0 => None,
                1 => Some(ceiling),
                _ => Some(0.0),
            };
            let capture = CaptureModel::default();
            let table = Phy::new(capture).success_probability(
                budgets.prr(li, c),
                base_override,
                budgets.signal_mw(li, c),
                &interferer_mw,
                external,
                fading,
            );
            let oracle = oracle_success(
                topo,
                capture,
                link,
                channel,
                &senders,
                oracle_external,
                fading,
                base_override,
            );
            prop_assert_eq!(table.to_bits(), oracle.to_bits(), "{:?} on {:?}", link, channel);
        }
    }

    #[test]
    fn external_mw_is_zero_without_overlapping_sources() {
        let t = topo();
        let path = PathLoss::new(&t);
        let channels = ChannelId::range(15, 16).unwrap();
        let link = DirectedLink { tx: NodeId::new(0), rx: NodeId::new(1) };
        let env = [WifiInterferer::wifi_channel_1(Position::new(5.0, 0.0, 0.0), 10.0, 1.0)];
        let wifi = WifiBudgets::new(&path, &channels, &[link], &env, &FaultPlan::default());
        assert_eq!(wifi.external_mw(0, 0, &[true], &[]), 0.0);
        assert_eq!(wifi.external_mw(0, 1, &[true], &[]), 0.0);
        let plan = FaultPlan::new(1).with(FaultEvent {
            trigger: FaultTrigger::AtSlot(0),
            duration: None,
            kind: FaultKind::SpawnInterferer { interferer: env[0].clone() },
        });
        let all = ChannelId::range(11, 12).unwrap();
        let wifi = WifiBudgets::new(&path, &all, &[link], &[], &plan);
        assert!(wifi.external_mw(0, 1, &[], &[0]) > 0.0);
        assert_eq!(wifi.external_mw(0, 1, &[], &[]), 0.0);
    }
}
