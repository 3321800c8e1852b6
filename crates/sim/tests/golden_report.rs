//! Golden-output pin for the simulation engine.
//!
//! The per-slot run loop is performance-sensitive and gets refactored
//! (scratch-buffer reuse, instrumentation); this test freezes the exact
//! serialized report of a seeded run so any behavioural drift — an RNG
//! draw added, removed, or reordered — fails loudly. The scenario
//! deliberately exercises every hot path: channel reuse cells, WiFi
//! interferers, discovery probes, a mid-run link collapse, a node crash,
//! and roaming (spawned) WiFi from the fault injector.
//!
//! Two more pins cover what that scenario leaves out: an aggressive-reuse
//! run with one WiFi source per floor, where reuse cells and WiFi overlap
//! most, and a run inside the draw-order contract of DESIGN.md §13 (no
//! interferers, scheduled faults only), which skips idle slots and whose
//! faults fire and clear at idle ASNs. All three digests were recorded on
//! a simulator that walked every slot.
//!
//! If an *intentional* semantic change invalidates a digest, rerun with
//! `WSAN_GOLDEN_DUMP=1 cargo test -p wsan-sim --test golden_report -- --nocapture`
//! and update the constant after reviewing the diff.

use std::collections::BTreeMap;
use wsan_core::Scheduler;
use wsan_flow::{FlowSet, FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{testbeds, ChannelId, ChannelSet, NodeId, Position, Prr, Topology};
use wsan_sim::{
    FaultEvent, FaultKind, FaultPlan, FaultTrigger, SimConfig, SimReport, Simulator, WifiInterferer,
};

/// FNV-1a over the serialized report: stable, dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The digest of `report`'s JSON, printed under `WSAN_GOLDEN_DUMP`.
fn digest(label: &str, report: &SimReport) -> u64 {
    let json = serde_json::to_string(report).unwrap();
    let digest = fnv1a(json.as_bytes());
    if std::env::var("WSAN_GOLDEN_DUMP").is_ok() {
        println!("{label}: json bytes {}, digest {digest:#018x}", json.len());
    }
    digest
}

/// The WUSTL scenario of the first pin: 12 flows under conservative reuse
/// with a mid-run collapse, a crash, an environment interferer and a
/// spawned one.
fn wustl_scenario() -> (Topology, ChannelSet, FlowSet, wsan_core::Schedule, SimConfig) {
    let topo = testbeds::wustl(5);
    let channels = ChannelId::range(11, 14).unwrap();
    let comm = topo.comm_graph(&channels, Prr::new(0.9).unwrap());
    let model = wsan_core::NetworkModel::new(&topo, &channels);
    let fsc = FlowSetConfig::new(12, PeriodRange::new(0, 0).unwrap(), TrafficPattern::PeerToPeer);
    let flows = FlowSetGenerator::new(0xFEED).generate(&comm, &fsc).unwrap();
    let schedule = wsan_core::ReuseConservatively::new(2).schedule(&flows, &model).unwrap();
    let victim = schedule.entries()[0].tx.link;
    let faults = FaultPlan::new(0xBAD)
        .collapse_link_at(u64::from(schedule.horizon()) * 10, victim, 0.0)
        .crash_at(u64::from(schedule.horizon()) * 20, NodeId::new(3))
        .spawn_wifi_at(
            u64::from(schedule.horizon()) * 5,
            WifiInterferer::wifi_channel_1(Position::new(30.0, 30.0, 0.0), 10.0, 0.3),
            None,
        );
    let config = SimConfig {
        seed: 42,
        repetitions: 40,
        window_reps: 5,
        discovery_probes: 1,
        interferers: vec![WifiInterferer::wifi_channel_1(Position::new(10.0, 5.0, 0.0), 10.0, 0.2)],
        faults,
        ..SimConfig::default()
    };
    (topo, channels, flows, schedule, config)
}

#[test]
fn seeded_run_matches_golden_digest() {
    let (topo, channels, flows, schedule, config) = wustl_scenario();
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let (report, log) = sim.run_faulted(&config);
    assert_eq!(log.fired(), 3, "collapse, crash and spawn all fire");
    assert_eq!(
        digest("slot-stepper", &report),
        GOLDEN_DIGEST,
        "seeded simulation output drifted from the pinned golden report \
         (rerun with WSAN_GOLDEN_DUMP=1 to inspect)"
    );
    // a second run of the same simulator must also be identical
    let (again, _) = sim.run_faulted(&config);
    assert_eq!(report, again);
}

const GOLDEN_DIGEST: u64 = 0x4bc0_51a1_e997_47a6;

/// One WiFi source at the centroid of each floor's nodes, like
/// `wsan_expr::detection::per_floor_interferers`.
fn per_floor_wifi(topo: &Topology, power_dbm: f64, duty: f64) -> Vec<WifiInterferer> {
    let floor_height = topo.propagation_model().cloned().unwrap_or_default().floor_height_m;
    let mut floors: BTreeMap<i64, (f64, f64, f64, f64)> = BTreeMap::new();
    for node in topo.nodes() {
        let p = topo.position(node);
        let e = floors.entry((p.z / floor_height).round() as i64).or_default();
        *e = (e.0 + p.x, e.1 + p.y, e.2 + p.z, e.3 + 1.0);
    }
    floors
        .values()
        .map(|&(x, y, z, n)| {
            WifiInterferer::wifi_channel_1(Position::new(x / n, y / n, z / n), power_dbm, duty)
        })
        .collect()
}

/// The 20-flow WUSTL workload with two periods (a 200-slot hyperperiod)
/// that the last two pins schedule.
fn two_period_workload() -> (Topology, ChannelSet, FlowSet) {
    let topo = testbeds::wustl(1);
    let channels = ChannelId::range(11, 14).unwrap();
    let comm = topo.comm_graph(&channels, Prr::new(0.9).unwrap());
    let fsc = FlowSetConfig::new(20, PeriodRange::new(0, 1).unwrap(), TrafficPattern::PeerToPeer);
    let flows = FlowSetGenerator::new(0xA11CE).generate(&comm, &fsc).unwrap();
    (topo, channels, flows)
}

#[test]
fn aggressive_reuse_under_per_floor_wifi_matches_golden_digest() {
    let (topo, channels, flows) = two_period_workload();
    let model = wsan_core::NetworkModel::new(&topo, &channels);
    let schedule = wsan_core::ReuseAggressively::new(2).schedule(&flows, &model).unwrap();
    assert!(schedule.occupied_cells().any(|(_, _, c)| c.len() > 2), "needs 3-way reuse cells");
    let interferers = per_floor_wifi(&topo, -3.0, 0.3);
    assert_eq!(interferers.len(), 3, "one source per floor");
    let victim = schedule.entries()[1].tx.link;
    let config = SimConfig {
        seed: 7,
        repetitions: 30,
        window_reps: 5,
        discovery_probes: 1,
        interferers,
        faults: FaultPlan::new(0x5EED).collapse_link_at(
            u64::from(schedule.horizon()) * 15,
            victim,
            0.3,
        ),
        ..SimConfig::default()
    };
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let report = sim.run(&config);
    assert_eq!(
        digest("aggressive reuse", &report),
        RA_WIFI_GOLDEN_DIGEST,
        "seeded RA + per-floor WiFi output drifted from the pinned golden report \
         (rerun with WSAN_GOLDEN_DUMP=1 to inspect)"
    );
}

const RA_WIFI_GOLDEN_DIGEST: u64 = 0x9d98_f9d4_adeb_6afe;

/// A run inside the draw-order contract: no environment interferers and
/// only scheduled faults — a link collapse, a zero-duration crash and a
/// finite crash — each firing and clearing at an ASN whose frame slot holds
/// no transmission, some in the gap between the schedule's two busy
/// stretches and some after the last one. Returns the config and the
/// `(fired_at, cleared_at)` pairs its faults must log.
fn idle_slot_fault_scenario(
    schedule: &wsan_core::Schedule,
) -> (SimConfig, Vec<(u64, Option<u64>)>) {
    let horizon = u64::from(schedule.horizon());
    let busy: Vec<u64> = schedule.entries().iter().map(|e| u64::from(e.slot)).collect();
    let last_busy = *busy.iter().max().expect("a non-empty schedule");
    let (gap, tail): (Vec<u64>, Vec<u64>) =
        (0..horizon).filter(|s| !busy.contains(s)).partition(|&s| s < last_busy);
    let pair = *gap.iter().find(|&&s| gap.contains(&(s + 1))).expect("two adjacent gap slots");
    let collapse = (6 * horizon + gap[0], 12 * horizon + tail[0]);
    let blink = 15 * horizon + pair;
    let crash = (20 * horizon + tail[tail.len() - 1], 26 * horizon + gap[gap.len() - 1]);
    let faults = FaultPlan::new(0xC0DE)
        .with(FaultEvent {
            trigger: FaultTrigger::AtSlot(collapse.0),
            duration: Some(collapse.1 - collapse.0),
            kind: FaultKind::CollapseLink {
                link: schedule.entries()[0].tx.link,
                channels: None,
                prr: 0.2,
            },
        })
        .with(FaultEvent {
            trigger: FaultTrigger::AtSlot(blink),
            duration: Some(0),
            kind: FaultKind::CrashNode { node: NodeId::new(3) },
        })
        .with(FaultEvent {
            trigger: FaultTrigger::AtSlot(crash.0),
            duration: Some(crash.1 - crash.0),
            kind: FaultKind::CrashNode { node: schedule.entries()[1].tx.link.rx },
        });
    let config = SimConfig {
        seed: 42,
        repetitions: 40,
        window_reps: 5,
        discovery_probes: 1,
        faults,
        ..SimConfig::default()
    };
    let expected =
        vec![(collapse.0, Some(collapse.1)), (blink, Some(blink + 1)), (crash.0, Some(crash.1))];
    (config, expected)
}

#[test]
fn contract_run_with_idle_slot_faults_matches_golden_digest() {
    let (topo, channels, flows) = two_period_workload();
    let model = wsan_core::NetworkModel::new(&topo, &channels);
    let schedule = wsan_core::ReuseConservatively::new(2).schedule(&flows, &model).unwrap();
    let (config, expected) = idle_slot_fault_scenario(&schedule);
    let horizon = u64::from(schedule.horizon());
    let busy = |asn: u64| schedule.entries().iter().any(|e| u64::from(e.slot) == asn % horizon);
    for &(fired, cleared) in &expected {
        assert!(!busy(fired) && !cleared.is_some_and(busy), "faults change state at idle ASNs");
    }
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let (report, log) = sim.run_faulted(&config);
    let logged: Vec<(u64, Option<u64>)> =
        log.records.iter().map(|r| (r.fired_at, r.cleared_at)).collect();
    assert_eq!(logged, expected, "every fault fires and clears where the plan says");
    assert_eq!(
        digest("contract, idle-slot faults", &report),
        CONTRACT_GOLDEN_DIGEST,
        "seeded contract-run output drifted from the pinned golden report \
         (rerun with WSAN_GOLDEN_DUMP=1 to inspect)"
    );
}

const CONTRACT_GOLDEN_DIGEST: u64 = 0xa65e_deba_9e4c_1ac4;
