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
//! Two more pins cover what that scenario leaves out: the event engine's
//! own bytes on the same scenario (outside the draw-order contract, so its
//! dedicated duty-gate streams are pinned too), and an aggressive-reuse
//! run with one WiFi source per floor, where reuse cells and WiFi overlap
//! most.
//!
//! If an *intentional* semantic change invalidates a digest, rerun with
//! `WSAN_GOLDEN_DUMP=1 cargo test -p wsan-sim --test golden_report -- --nocapture`
//! and update the constant after reviewing the diff.

use std::collections::BTreeMap;
use wsan_core::Scheduler;
use wsan_flow::{FlowSet, FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{testbeds, ChannelId, ChannelSet, NodeId, Position, Prr, Topology};
use wsan_sim::{FaultPlan, SimConfig, SimReport, Simulator, WifiInterferer};

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

#[test]
fn event_engine_run_matches_golden_digest() {
    let (topo, channels, flows, schedule, config) = wustl_scenario();
    let sim = Simulator::new(&topo, &channels, &flows, &schedule);
    let (report, log) = sim.try_run_events_faulted(&config).unwrap();
    assert_eq!(log.fired(), 3, "collapse, crash and spawn all fire");
    assert_eq!(
        digest("event engine", &report),
        EVENTS_GOLDEN_DIGEST,
        "seeded event-engine output drifted from the pinned golden report \
         (rerun with WSAN_GOLDEN_DUMP=1 to inspect)"
    );
}

const EVENTS_GOLDEN_DIGEST: u64 = 0x95b2_c98e_897b_ae21;

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

#[test]
fn aggressive_reuse_under_per_floor_wifi_matches_golden_digest() {
    let topo = testbeds::wustl(1);
    let channels = ChannelId::range(11, 14).unwrap();
    let comm = topo.comm_graph(&channels, Prr::new(0.9).unwrap());
    let model = wsan_core::NetworkModel::new(&topo, &channels);
    let fsc = FlowSetConfig::new(20, PeriodRange::new(0, 1).unwrap(), TrafficPattern::PeerToPeer);
    let flows = FlowSetGenerator::new(0xA11CE).generate(&comm, &fsc).unwrap();
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
