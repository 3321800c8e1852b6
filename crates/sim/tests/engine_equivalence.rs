//! Oracle-equivalence suite: `Simulator::run` against the every-slot walk.
//!
//! Inside the draw-order contract of DESIGN.md §13 (no environment
//! interferers, no stochastic fault triggers, no spawned interferers) a run
//! visits only the busy slots of the slotframe; outside it, every slot. The
//! every-slot walk is the oracle (`Simulator::try_run_every_slot`, whose
//! bytes `golden_report.rs` pins). This suite holds the two walks together:
//!
//! * **inside the contract** they must agree **byte for byte** — reports,
//!   fault logs and traces — across dense, sparse, faulted and traced
//!   scenarios, plus randomized small topologies with faults firing and
//!   clearing at arbitrary ASNs;
//! * **outside the contract** a run must walk every slot, so it again
//!   equals the oracle byte for byte, whichever per-slot source (an
//!   environment interferer, a stochastic trigger, a spawned interferer)
//!   takes it out.

use proptest::prelude::*;
use wsan_core::{NetworkModel, NoReuse, Scheduler};
use wsan_flow::{
    priority, Flow, FlowId, FlowSetConfig, FlowSetGenerator, Period, PeriodRange, TrafficPattern,
};
use wsan_net::propagation::PropagationModel;
use wsan_net::{testbeds, ChannelId, ChannelSet, NodeId, Position, Prr, Route, Topology};
use wsan_sim::{
    FaultEvent, FaultKind, FaultLog, FaultPlan, FaultTrigger, SimConfig, SimReport, Simulator,
    TraceBuffer, WifiInterferer,
};

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// The every-slot walk of `cfg`, untraced.
fn oracle(sim: &Simulator<'_>, cfg: &SimConfig) -> (SimReport, FaultLog) {
    sim.try_run_every_slot(cfg, None).unwrap()
}

/// The dense catalog scenario: the WUSTL synthetic testbed under
/// conservative reuse, 18 of its 100 frame slots busy.
fn dense() -> (Topology, ChannelSet, wsan_flow::FlowSet, wsan_core::Schedule) {
    let topo = testbeds::wustl(5);
    let channels = ChannelId::range(11, 14).unwrap();
    let comm = topo.comm_graph(&channels, Prr::new(0.9).unwrap());
    let model = NetworkModel::new(&topo, &channels);
    let fsc = FlowSetConfig::new(12, PeriodRange::new(0, 0).unwrap(), TrafficPattern::PeerToPeer);
    let flows = FlowSetGenerator::new(0xFEED).generate(&comm, &fsc).unwrap();
    let schedule = wsan_core::ReuseConservatively::new(2).schedule(&flows, &model).unwrap();
    (topo, channels, flows, schedule)
}

/// The sparse catalog scenario: two short flows with 512-slot periods, so
/// only a handful of the 512 slots per frame hold transmissions.
fn sparse() -> (Topology, ChannelSet, wsan_flow::FlowSet) {
    let mut topo = Topology::new(
        "sparse",
        vec![
            Position::new(0.0, 0.0, 0.0),
            Position::new(8.0, 0.0, 0.0),
            Position::new(60.0, 0.0, 0.0),
            Position::new(68.0, 0.0, 0.0),
        ],
    );
    topo.set_propagation_model(PropagationModel::default());
    let channels = ChannelId::range(11, 12).unwrap();
    for (a, b) in [(0, 1), (2, 3)] {
        for ch in &channels {
            topo.set_prr(n(a), n(b), ch, Prr::new(0.8).unwrap()).unwrap();
            topo.set_prr(n(b), n(a), ch, Prr::new(0.8).unwrap()).unwrap();
        }
    }
    let flows = priority::deadline_monotonic(
        vec![
            Flow::new(
                FlowId::new(0),
                Route::new(vec![n(0), n(1)]),
                Period::from_slots(512).unwrap(),
                512,
            )
            .unwrap(),
            Flow::new(
                FlowId::new(1),
                Route::new(vec![n(2), n(3)]),
                Period::from_slots(512).unwrap(),
                512,
            )
            .unwrap(),
        ],
        vec![],
    );
    (topo, channels, flows)
}

/// A contract-respecting fault plan: scheduled triggers only, no spawned
/// interferers — crashes and collapses with finite and permanent durations.
fn contract_faults(horizon: u32, victim: wsan_net::DirectedLink) -> FaultPlan {
    FaultPlan::new(0xBAD).collapse_link_at(u64::from(horizon) * 4, victim, 0.1).with(FaultEvent {
        trigger: FaultTrigger::AtSlot(u64::from(horizon) * 8),
        duration: Some(u64::from(horizon) * 6),
        kind: FaultKind::CrashNode { node: n(3) },
    })
}

#[test]
fn dense_contract_run_is_byte_identical() {
    let (topo, channels, flows, schedule) = dense();
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let cfg = SimConfig { seed: 42, repetitions: 30, window_reps: 5, ..SimConfig::default() };
    assert_eq!(sim.run(&cfg), oracle(&sim, &cfg).0, "dense contract scenario must match");
}

#[test]
fn sparse_contract_run_is_byte_identical() {
    let (topo, channels, flows) = sparse();
    let model = NetworkModel::new(&topo, &channels);
    let schedule = NoReuse::new().schedule(&flows, &model).unwrap();
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let cfg = SimConfig { seed: 7, repetitions: 200, window_reps: 10, ..SimConfig::default() };
    assert_eq!(sim.run(&cfg), oracle(&sim, &cfg).0, "sparse scenario must match byte for byte");
}

#[test]
fn scheduled_faults_match_including_fault_log() {
    let (topo, channels, flows, schedule) = dense();
    let victim = schedule.entries()[0].tx.link;
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let cfg = SimConfig {
        seed: 9,
        repetitions: 30,
        window_reps: 5,
        faults: contract_faults(schedule.horizon(), victim),
        ..SimConfig::default()
    };
    let (report, log) = sim.try_run_faulted(&cfg).unwrap();
    let (oracle_report, oracle_log) = oracle(&sim, &cfg);
    assert_eq!(report, oracle_report, "scheduled-fault reports must match byte for byte");
    assert_eq!(log, oracle_log, "fault logs must match, including firing and clearing slots");
    assert!(log.fired() >= 2, "the plan's events must actually fire");
}

#[test]
fn traced_runs_match_event_for_event() {
    let (topo, channels, flows, schedule) = dense();
    let victim = schedule.entries()[0].tx.link;
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let cfg = SimConfig {
        seed: 11,
        repetitions: 20,
        window_reps: 5,
        faults: contract_faults(schedule.horizon(), victim),
        ..SimConfig::default()
    };
    let mut buf = TraceBuffer::with_capacity(1 << 20);
    let mut oracle_buf = TraceBuffer::with_capacity(1 << 20);
    let (report, _) = sim.try_run_traced(&cfg, &mut buf).unwrap();
    let (oracle_report, _) = sim.try_run_every_slot(&cfg, Some(&mut oracle_buf)).unwrap();
    assert_eq!(report, oracle_report);
    assert!(!oracle_buf.events().is_empty());
    assert_eq!(buf, oracle_buf, "traces must match event for event, ASNs included");
}

#[test]
fn zero_repetitions_agree() {
    let (topo, channels, flows, schedule) = dense();
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let cfg = SimConfig { seed: 1, repetitions: 0, ..SimConfig::default() };
    assert_eq!(sim.run(&cfg), oracle(&sim, &cfg).0);
}

/// Each per-slot randomness source alone takes a run outside the contract,
/// so the run walks every slot and equals the oracle byte for byte. A run
/// that skipped idle slots here would draw no duty gate and fire no
/// stochastic fault in them, and would differ.
#[test]
fn outside_contract_runs_every_slot() {
    let (topo, channels, flows, schedule) = dense();
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let horizon = u64::from(schedule.horizon());
    let wifi = WifiInterferer::wifi_channel_1(Position::new(10.0, 5.0, 0.0), 10.0, 0.3);
    let base = SimConfig { seed: 5, repetitions: 25, window_reps: 5, ..SimConfig::default() };
    let cases = [
        ("environment interferer", SimConfig { interferers: vec![wifi.clone()], ..base.clone() }),
        (
            "stochastic trigger",
            SimConfig {
                faults: FaultPlan::new(0xF0).with(FaultEvent {
                    trigger: FaultTrigger::Stochastic { per_slot: 0.002 },
                    duration: Some(horizon * 5),
                    kind: FaultKind::CrashNode { node: schedule.entries()[0].tx.link.rx },
                }),
                ..base.clone()
            },
        ),
        (
            "spawned interferer",
            SimConfig {
                faults: FaultPlan::new(0xF1).spawn_wifi_at(horizon * 3, wifi, None),
                ..base.clone()
            },
        ),
    ];
    for (label, cfg) in &cases {
        let (report, log) = sim.try_run_faulted(cfg).unwrap();
        let (oracle_report, oracle_log) = oracle(&sim, cfg);
        assert_eq!(report, oracle_report, "{label}: report must equal the every-slot walk");
        assert_eq!(log, oracle_log, "{label}: fault log must equal the every-slot walk");
        assert_eq!(log.fired(), usize::from(!cfg.faults.is_empty()), "{label}: the fault fires");
    }
}

/// Strategy for small random contract scenarios: a chain of 3–6 nodes with
/// randomized spacing and per-link PRR, and 1–3 flows over prefixes of the
/// chain with assorted periods.
fn arb_scenario() -> impl Strategy<Value = (u64, usize, u8, u8)> {
    // (seed, node count, prr decile 5..=10, period selector)
    (0u64..1 << 16, 3usize..=6, 5u8..=10, 0u8..4)
}

/// Strategy for contract fault plans: up to four scheduled events, each
/// (firing point in per-mille of the run, duration selector, kind selector,
/// target selector). Many ASNs of a small schedule are idle, so faults
/// often fire and clear between transmissions.
fn arb_faults() -> impl Strategy<Value = Vec<(u64, u8, u8, usize)>> {
    proptest::collection::vec((0u64..1000, 0u8..4, 0u8..2, 0usize..64), 0..5)
}

/// Builds the plan `arb_faults` drew for a run of `total_slots` slots.
fn contract_plan(
    seed: u64,
    raw: &[(u64, u8, u8, usize)],
    total_slots: u64,
    nodes: usize,
    links: &[wsan_net::DirectedLink],
) -> FaultPlan {
    raw.iter().fold(FaultPlan::new(seed), |plan, &(permille, dsel, ksel, target)| {
        let duration = match dsel {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            _ => Some(2 + target as u64 % 30),
        };
        let kind = if ksel == 0 {
            FaultKind::CrashNode { node: n(target % nodes) }
        } else {
            FaultKind::CollapseLink {
                link: links[target % links.len()],
                channels: None,
                prr: 0.1 * (target % 5) as f64,
            }
        };
        plan.with(FaultEvent {
            trigger: FaultTrigger::AtSlot(permille * total_slots / 1000),
            duration,
            kind,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Inside the contract, every random small scenario agrees byte for
    /// byte with the every-slot walk, plain and under a random scheduled
    /// fault plan.
    #[test]
    fn random_contract_scenarios_are_byte_identical(
        (seed, nodes, prr_decile, psel) in arb_scenario(),
        raw_faults in arb_faults(),
    ) {
        let spacing = 6.0 + (seed % 5) as f64;
        let mut topo = Topology::new(
            "prop",
            (0..nodes).map(|i| Position::new(spacing * i as f64, 0.0, 0.0)).collect(),
        );
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 12).unwrap();
        let prr = Prr::new(f64::from(prr_decile) / 10.0).unwrap();
        for a in 0..nodes - 1 {
            for ch in &channels {
                topo.set_prr(n(a), n(a + 1), ch, prr).unwrap();
                topo.set_prr(n(a + 1), n(a), ch, prr).unwrap();
            }
        }
        let period = [16u32, 20, 32, 40][psel as usize];
        let flow_count = 1 + (seed as usize % 3).min(nodes - 2);
        let mut raw = Vec::new();
        for f in 0..flow_count {
            let len = 2 + (seed as usize + f) % (nodes - 1);
            let route: Vec<NodeId> = (0..len.min(nodes)).map(n).collect();
            raw.push(
                Flow::new(
                    FlowId::new(f),
                    Route::new(route),
                    Period::from_slots(period).unwrap(),
                    period,
                )
                .unwrap(),
            );
        }
        let flows = priority::deadline_monotonic(raw, vec![]);
        let model = NetworkModel::new(&topo, &channels);
        let Ok(schedule) = NoReuse::new().schedule(&flows, &model) else {
            // an unschedulable draw is not a property violation
            return Ok(());
        };
        let sim = Simulator::new(&topo, &channels, &flows, &schedule);
        let cfg = SimConfig { seed, repetitions: 15, window_reps: 4, ..SimConfig::default() };
        prop_assert_eq!(sim.run(&cfg), oracle(&sim, &cfg).0);
        let links: Vec<_> = schedule.entries().iter().map(|e| e.tx.link).collect();
        let total_slots = u64::from(cfg.repetitions) * u64::from(schedule.horizon());
        let faulted = SimConfig {
            faults: contract_plan(seed, &raw_faults, total_slots, nodes, &links),
            ..cfg
        };
        let (report, log) = sim.try_run_faulted(&faulted).unwrap();
        let (oracle_report, oracle_log) = oracle(&sim, &faulted);
        prop_assert_eq!(report, oracle_report);
        prop_assert_eq!(log, oracle_log);
    }
}
