//! A seeded simulation run with the observability layer switched on (null
//! subscriber installed, metrics recording) must be bit-identical to the
//! plain uninstrumented run: instrumentation never draws from the engine
//! RNG and never changes control flow. The same holds for a traced sharded
//! run, whose stage spans carry the benchmark's stage names.

use std::sync::{Arc, Mutex, PoisonError};
use wsan::core::shard::ShardConfig;
use wsan::core::{NetworkModel, Scheduler};
use wsan::expr::sharding::schedule_sharded;
use wsan::expr::Algorithm;
use wsan::flow::{FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan::net::plants::{generate, PlantConfig};
use wsan::net::{testbeds, ChannelId, NodeId, Prr};
use wsan::sim::{FaultPlan, SimConfig, Simulator};

/// Held by every test here: each installs the process-global subscriber.
static GLOBAL: Mutex<()> = Mutex::new(());

/// Builds a small WUSTL workload, runs the simulator (with a fault plan so
/// the injector paths execute too) and returns the serialized report.
fn seeded_run() -> String {
    let topo = testbeds::wustl(3);
    let channels = ChannelId::range(11, 14).expect("valid channels");
    let comm = topo.comm_graph(&channels, Prr::new(0.9).expect("valid"));
    let model = NetworkModel::new(&topo, &channels);
    let cfg =
        FlowSetConfig::new(12, PeriodRange::new(0, 1).expect("valid"), TrafficPattern::PeerToPeer);
    let set = FlowSetGenerator::new(9).generate(&comm, &cfg).expect("workload");
    let schedule =
        wsan::core::ReuseConservatively::new(2).schedule(&set, &model).expect("schedulable");
    let victim = schedule.entries()[0].tx.link;
    let faults = FaultPlan::new(0xF00D)
        .collapse_link_at(u64::from(schedule.horizon()) * 5, victim, 0.0)
        .crash_at(u64::from(schedule.horizon()) * 10, NodeId::new(3));
    let config = SimConfig { seed: 42, repetitions: 20, faults, ..SimConfig::default() };
    let sim = Simulator::new(&topo, &channels, &set, &schedule);
    let (report, _log) = sim.run_faulted(&config);
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn null_subscriber_and_metrics_do_not_change_a_seeded_run() {
    let _global = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    // baseline: observability fully off (the library default)
    wsan::obs::uninstall();
    wsan::obs::set_metrics_enabled(false);
    let baseline = seeded_run();

    // instrumented: always-off subscriber installed, metrics recording
    wsan::obs::install(Arc::new(wsan::obs::NullSubscriber));
    wsan::obs::set_metrics_enabled(true);
    let instrumented = seeded_run();

    wsan::obs::uninstall();
    wsan::obs::set_metrics_enabled(false);
    assert_eq!(baseline, instrumented, "observability must not perturb the simulation");

    // and the metrics side actually observed the run
    let snapshot = wsan::obs::global_metrics().snapshot();
    assert!(snapshot.counters.get("sim.tx").copied().unwrap_or(0) > 0);
    assert!(snapshot.counters.get("core.schedule.runs").copied().unwrap_or(0) > 0);

    // full-bore: live tracing at trace level into an in-memory JSON sink,
    // flight recorder armed, metrics on — the report must STILL be
    // byte-identical, because instrumentation never draws from the engine
    // RNG and never changes control flow.
    let sink = wsan::obs::SharedBuffer::new();
    wsan::obs::install(Arc::new(wsan::obs::JsonLinesSubscriber::new(
        wsan::obs::Level::Trace,
        sink.clone(),
    )));
    wsan::obs::set_metrics_enabled(true);
    let recorder = wsan::obs::flightrec::arm(4096, wsan::obs::Level::Trace);
    let traced = seeded_run();
    wsan::obs::flightrec::disarm();
    wsan::obs::uninstall();
    wsan::obs::set_metrics_enabled(false);
    assert_eq!(baseline, traced, "tracing + flight recorder must not perturb the simulation");
    assert!(recorder.recorded() > 0, "the armed recorder must have captured the run");
    for record in recorder.dump() {
        // every ring record round-trips through its serde form
        let line = serde_json::to_string(&record).expect("record serializes");
        let back: wsan::obs::FlightRecord = serde_json::from_str(&line).expect("record parses");
        assert_eq!(record, back);
    }
}

#[test]
fn sharded_run_spans_carry_the_stage_names_and_change_nothing() {
    let _global = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    let plant = generate(&PlantConfig::city("city-200", 200), 3);
    let channels = ChannelId::all();
    let cfg = ShardConfig::new(3, 11, 4);
    let run = |plant| {
        schedule_sharded(plant, &channels, &cfg, &Algorithm::Rc { rho_t: 2 }, 2)
            .expect("the plant shards")
            .report
            .digest
    };
    wsan::obs::uninstall();
    let plain = run(&plant);

    let sink = wsan::obs::SharedBuffer::new();
    wsan::obs::install(Arc::new(wsan::obs::JsonLinesSubscriber::new(
        wsan::obs::Level::Debug,
        sink.clone(),
    )));
    // a clone starts with a cold graph memo, so the traced run builds the
    // whole-plant graphs as the plain run did
    let traced = run(&plant.clone());
    wsan::obs::uninstall();
    assert_eq!(plain, traced, "tracing must not change the stitched schedule");

    let log = sink.contents();
    let entered = |name: &str| {
        log.lines().filter(|l| l.contains("\"span_enter\"") && l.contains(name)).count()
    };
    assert_eq!(entered("\"core.shard.plan\""), 1, "{log}");
    assert_eq!(entered("\"core.shard.build_problem\""), cfg.shards, "{log}");
    assert_eq!(entered("\"core.shard.stitch\""), 1, "{log}");
    assert_eq!(entered("\"core.shard.validate\""), 1, "{log}");
}
