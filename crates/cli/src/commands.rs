//! The `wsan` subcommands.

use crate::args::Args;
use wsan_core::{metrics, repair, NetworkModel};
use wsan_detect::LinkVerdict;
use wsan_expr::detection::{evaluate as detection, DetectionConfig};
use wsan_expr::recovery::{campaign, SupervisorConfig};
use wsan_expr::Algorithm;
use wsan_flow::{FlowSet, FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{testbeds, ChannelId, ChannelSet, Prr, Topology};
use wsan_sim::{SimConfig, Simulator, WifiInterferer};

/// Top-level usage text.
pub const USAGE: &str = "usage:
  wsan topology --testbed <indriya|wustl> [--seed N] [--channels a-b] [--dot FILE]
  wsan schedule --testbed <indriya|wustl> --flows N [--algo nr|ra|rc|rc-lite]
                [--pattern p2p|centralized] [--channels a-b] [--seed N]
                [--periods x,y] [--rho N]
  wsan simulate (schedule options) [--reps N] [--wifi] [--autonomous L]
  wsan run      alias for simulate
  wsan export   (schedule options) --out FILE     # CSV slotframe
  wsan detect   --testbed <indriya|wustl> --flows N [--epochs N] [--seed N]
                [--channels a-b] [--algo ra|rc] [--repair]
  wsan faults   --testbed <indriya|wustl> --flows N [--collapse k1,k2,..]
                [--epochs N] [--algo nr|ra|rc] [--channels a-b] [--seed N]
                [--out FILE]                    # fault campaign → JSON
  wsan campaign --name <smoke|schedulable|efficiency|exectime|reliability|detection|faults|churn|scale>
                [--jobs N] [--resume] [--sets N] [--seed N] [--quick]
                [--out FILE] [--manifest FILE]  # checkpointed sweep → JSON
  wsan shard    --nodes N --shards K [--algo nr|ra|rc|rc-lite] [--rho N]
                [--flows-per-shard N] [--pattern p2p|centralized] [--periods x,y]
                [--seed N] [--jobs N] [--channels a-b] [--out FILE]
                                                # city plant → validated stitched schedule
                                                # (all 16 channels unless --channels given)
  wsan serve    --testbed <indriya|wustl> [--algo nr|ra|rc] [--rho N]
                [--channels a-b] [--seed N] [--prr X]
                [--journal FILE | --resume-journal FILE] [--paranoid]
                [--deadline-us N] [--listen SOCKET]
                [--status-socket SOCKET]        # live status/metrics/flightrec plane
                                                # JSONL gateway on stdin/socket
  wsan status   --socket SOCKET [--query status|metrics|flightrec]
                                                # one-shot status-plane client
  wsan trace export --in DUMP.jsonl [--out FILE] [--chrome]
                                                # flight-recorder dump → Chrome trace

observability (accepted by every subcommand):
  --log-level off|error|warn|info|debug|trace   structured events to stderr
  --log-format pretty|json                      event rendering (default pretty)
  --metrics-out FILE                            write a metrics snapshot as JSON
  --metrics-interval-ms N                       also re-flush the snapshot every N ms
  --flightrec [N]                               arm an N-record flight recorder (default 4096)
  --flightrec-dump FILE                         dump the ring as JSONL on exit/error/panic";

/// Dispatches a full argv (without the program name).
///
/// # Errors
///
/// Returns a human-readable message on any misuse or failure.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((command, rest)) = argv.split_first() else {
        return Err("missing subcommand".to_string());
    };
    // `wsan trace export` is the one two-word subcommand: strip the
    // positional verb before the flags-only parser sees it.
    let rest: &[String] = if command == "trace" {
        match rest.split_first() {
            Some((verb, tail)) if verb == "export" => tail,
            _ => {
                return Err(
                    "usage: wsan trace export --in DUMP.jsonl [--out FILE] [--chrome]".to_string()
                )
            }
        }
    } else {
        rest
    };
    let args = Args::parse(rest)?;
    init_observability(&args)?;
    let result = match command.as_str() {
        "topology" => cmd_topology(&args),
        "schedule" => cmd_schedule(&args),
        "simulate" | "run" => cmd_simulate(&args),
        "export" => cmd_export(&args),
        "detect" => cmd_detect(&args),
        "faults" => cmd_faults(&args),
        "campaign" => cmd_campaign(&args),
        "shard" => cmd_shard(&args),
        "serve" => crate::serve::cmd_serve(&args),
        "status" => crate::serve::cmd_status(&args),
        "trace" => cmd_trace_export(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'")),
    };
    wsan_obs::flush();
    if result.is_ok() {
        write_metrics_report(&args)?;
        write_flightrec_dump(&args)?;
    }
    result
}

/// Observability options accepted by every subcommand.
const GLOBAL_OPTS: &[&str] = &[
    "log-level",
    "log-format",
    "metrics-out",
    "metrics-interval-ms",
    "flightrec",
    "flightrec-dump",
];

/// Unknown-option check that also admits the global observability options.
pub(crate) fn known(args: &Args, allowed: &[&str]) -> Result<(), String> {
    let mut all = allowed.to_vec();
    all.extend_from_slice(GLOBAL_OPTS);
    args.ensure_known(&all)
}

/// Turns the observability flags into an installed subscriber, an enabled
/// global metrics registry, an armed flight recorder, a periodic metrics
/// flusher, and/or the crash-flush panic hook, before the command runs.
/// With none of the flags this is a no-op and the stack stays on its
/// zero-overhead path.
fn init_observability(args: &Args) -> Result<(), String> {
    if args.has("metrics-out") {
        wsan_obs::set_metrics_enabled(true);
    }
    if args.has("flightrec") || args.has("flightrec-dump") {
        // Trace level so simulator event dispatch is captured too.
        let capacity = match args.get("flightrec") {
            None | Some("") => 4096,
            Some(raw) => {
                raw.parse().map_err(|_| format!("--flightrec expects a capacity, got '{raw}'"))?
            }
        };
        wsan_obs::flightrec::arm(capacity, wsan_obs::Level::Trace);
    }
    install_panic_hook(args);
    if args.has("metrics-interval-ms") {
        if !args.has("metrics-out") {
            return Err("--metrics-interval-ms requires --metrics-out FILE".to_string());
        }
        let interval: u64 = args.get_or("metrics-interval-ms", 1000)?;
        spawn_metrics_flusher(
            args.get("metrics-out").expect("checked above").to_string(),
            std::time::Duration::from_millis(interval.max(10)),
        );
    }
    let level = match args.get("log-level") {
        Some(raw) => wsan_obs::Level::parse(raw)?,
        // --log-format alone implies logging at the default level
        None if args.has("log-format") => Some(wsan_obs::Level::Info),
        None => None,
    };
    let Some(level) = level else {
        return Ok(());
    };
    match args.get("log-format") {
        None | Some("pretty") => {
            wsan_obs::install(std::sync::Arc::new(wsan_obs::StderrSubscriber::new(level)));
        }
        Some("json") => {
            wsan_obs::install(std::sync::Arc::new(wsan_obs::JsonLinesSubscriber::new(
                level,
                std::io::stderr(),
            )));
        }
        Some(other) => return Err(format!("unknown log format '{other}' (pretty|json)")),
    }
    Ok(())
}

/// Writes the global metrics snapshot to `--metrics-out` after a successful
/// command, creating parent directories as needed.
fn write_metrics_report(args: &Args) -> Result<(), String> {
    let Some(path) = args.get("metrics-out") else {
        return Ok(());
    };
    if path.is_empty() {
        return Err("--metrics-out expects a file path".to_string());
    }
    let snapshot = wsan_obs::global_metrics().snapshot();
    let json = serde_json::to_string_pretty(&snapshot)
        .map_err(|e| format!("cannot serialise metrics: {e}"))?;
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("metrics snapshot written to {path}");
    Ok(())
}

/// Writes `contents` to `path` through a uniquely named temporary file and
/// an atomic rename, so a concurrent reader (or a `kill -9` mid-write)
/// never observes a half-written file.
fn atomic_write(path: &str, contents: &str) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = format!("{path}.tmp{}", TMP_SEQ.fetch_add(1, Ordering::Relaxed));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Paths the panic hook flushes to; refreshed on every dispatch so the
/// hook (installed once per process) always sees the latest flags.
static PANIC_FLUSH: std::sync::OnceLock<std::sync::Mutex<PanicFlushPaths>> =
    std::sync::OnceLock::new();

#[derive(Default)]
struct PanicFlushPaths {
    metrics_out: Option<String>,
    flightrec_dump: Option<String>,
}

/// Installs (once) a panic hook that flushes the metrics snapshot and the
/// flight-recorder ring before unwinding, so a crashing process still
/// leaves its last observations behind. Chains the previous hook.
fn install_panic_hook(args: &Args) {
    let paths = PANIC_FLUSH.get_or_init(std::sync::Mutex::default);
    if let Ok(mut p) = paths.lock() {
        // last dispatch with the flag wins; a later flag-less dispatch (as
        // in the test harness) never un-registers a crash-flush target
        if let Some(out) = args.get("metrics-out") {
            p.metrics_out = Some(out.to_string());
        }
        if let Some(dump) = args.get("flightrec-dump") {
            p.flightrec_dump = Some(dump.to_string());
        }
    }
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            panic_flush();
            previous(info);
        }));
    });
}

/// Best-effort flush performed by the panic hook: metrics to
/// `--metrics-out`, flight-recorder ring to `--flightrec-dump` (or stderr
/// when armed without a dump path). Must not panic or allocate the world —
/// every failure is swallowed.
fn panic_flush() {
    let Some(paths) = PANIC_FLUSH.get() else { return };
    let Ok(paths) = paths.lock() else { return };
    if let Some(path) = &paths.metrics_out {
        if wsan_obs::metrics_enabled() {
            if let Ok(json) = serde_json::to_string_pretty(&wsan_obs::global_metrics().snapshot()) {
                let _ = atomic_write(path, &json);
            }
        }
    }
    if let Some(rec) = wsan_obs::flightrec::armed() {
        let dump = rec.dump_jsonl();
        match &paths.flightrec_dump {
            Some(path) => {
                let _ = atomic_write(path, &dump);
            }
            None => eprint!("{dump}"),
        }
    }
}

/// Spawns the detached `--metrics-interval-ms` flusher: re-renders the
/// global metrics snapshot every `interval` and replaces `--metrics-out`
/// atomically, so a live (or killed) process always leaves a recent,
/// complete report on disk.
fn spawn_metrics_flusher(path: String, interval: std::time::Duration) {
    std::thread::spawn(move || loop {
        std::thread::sleep(interval);
        if let Ok(json) = serde_json::to_string_pretty(&wsan_obs::global_metrics().snapshot()) {
            let _ = atomic_write(&path, &json);
        }
    });
}

/// Writes the armed flight recorder's ring to `--flightrec-dump` after a
/// successful command (the gateway additionally dumps on request errors,
/// and the panic hook on crashes).
fn write_flightrec_dump(args: &Args) -> Result<(), String> {
    let Some(path) = args.get("flightrec-dump") else {
        return Ok(());
    };
    if path.is_empty() {
        return Err("--flightrec-dump expects a file path".to_string());
    }
    let Some(rec) = wsan_obs::flightrec::armed() else {
        return Ok(());
    };
    let records = rec.dump();
    let count = records.len();
    let mut jsonl = String::new();
    for record in &records {
        jsonl.push_str(&serde_json::to_string(record).map_err(|e| e.to_string())?);
        jsonl.push('\n');
    }
    atomic_write(path, &jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("flight recorder dump ({count} records) written to {path}");
    Ok(())
}

/// `wsan trace export`: reads a flight-recorder JSONL dump and re-emits it
/// either normalised (validating every line) or, with `--chrome`, as
/// Chrome `trace_event` JSON loadable in chrome://tracing / Perfetto.
fn cmd_trace_export(args: &Args) -> Result<(), String> {
    known(args, &["in", "out", "chrome"])?;
    let Some(input) = args.get("in") else {
        return Err("--in DUMP.jsonl is required".to_string());
    };
    let raw = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let mut records: Vec<wsan_obs::FlightRecord> = Vec::new();
    for (lineno, line) in raw.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: wsan_obs::FlightRecord = serde_json::from_str(line)
            .map_err(|e| format!("{input}:{}: bad flight record: {e}", lineno + 1))?;
        records.push(record);
    }
    records.sort_by_key(|r| r.seq);
    let rendered = if args.has("chrome") {
        let mut json = wsan_obs::chrome_trace(&records);
        json.push('\n');
        json
    } else {
        let mut jsonl = String::new();
        for record in &records {
            jsonl.push_str(&serde_json::to_string(record).map_err(|e| e.to_string())?);
            jsonl.push('\n');
        }
        jsonl
    };
    match args.get("out") {
        Some(path) if !path.is_empty() => {
            atomic_write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("{} records exported to {path}", records.len());
        }
        _ => print!("{rendered}"),
    }
    Ok(())
}

pub(crate) fn load_testbed(args: &Args) -> Result<Topology, String> {
    if let Some(path) = args.get("load") {
        return Topology::load(path).map_err(|e| format!("cannot load {path}: {e}"));
    }
    let seed: u64 = args.get_or("seed", 1)?;
    match args.get("testbed") {
        Some("indriya") => Ok(testbeds::indriya(seed)),
        Some("wustl") => Ok(testbeds::wustl(seed)),
        Some(other) => Err(format!("unknown testbed '{other}' (indriya|wustl)")),
        None => Err("--testbed is required (or --load FILE)".to_string()),
    }
}

pub(crate) fn channels_of(args: &Args) -> Result<ChannelSet, String> {
    let (a, b) = args.channel_range()?;
    ChannelId::range(a, b).map_err(|e| e.to_string())
}

fn algorithm_of(args: &Args, default: Algorithm) -> Result<Algorithm, String> {
    let rho: u32 = args.get_or("rho", 2)?;
    match args.get("algo") {
        None => Ok(default),
        Some("nr") => Ok(Algorithm::Nr),
        Some("ra") => Ok(Algorithm::Ra { rho }),
        Some("rc") => Ok(Algorithm::Rc { rho_t: rho }),
        Some("rc-lite") => Ok(Algorithm::RcLite { rho_t: rho }),
        Some(other) => Err(format!("unknown algorithm '{other}' (nr|ra|rc|rc-lite)")),
    }
}

fn pattern_of(args: &Args) -> Result<TrafficPattern, String> {
    match args.get("pattern") {
        None | Some("p2p") => Ok(TrafficPattern::PeerToPeer),
        Some("centralized") => Ok(TrafficPattern::Centralized),
        Some(other) => Err(format!("unknown pattern '{other}' (p2p|centralized)")),
    }
}

fn periods_of(args: &Args) -> Result<PeriodRange, String> {
    let raw = args.get("periods").unwrap_or("0,2");
    let (x, y) = raw
        .split_once(',')
        .ok_or_else(|| format!("--periods expects 'x,y' exponents, got '{raw}'"))?;
    let x: i32 = x.parse().map_err(|_| format!("bad exponent '{x}'"))?;
    let y: i32 = y.parse().map_err(|_| format!("bad exponent '{y}'"))?;
    PeriodRange::new(x, y).map_err(|e| e.to_string())
}

fn build_workload(
    args: &Args,
    topo: &Topology,
    channels: &ChannelSet,
) -> Result<(FlowSet, NetworkModel), String> {
    let flows: usize = args.get_or("flows", 0)?;
    if flows == 0 {
        return Err("--flows is required (and must be positive)".to_string());
    }
    let comm = topo.comm_graph(channels, Prr::new(0.9).expect("valid"));
    let model = NetworkModel::new(topo, channels);
    let cfg = FlowSetConfig::new(flows, periods_of(args)?, pattern_of(args)?);
    let seed: u64 = args.get_or("seed", 1)?;
    let set = FlowSetGenerator::new(seed)
        .generate(&comm, &cfg)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    Ok((set, model))
}

fn cmd_topology(args: &Args) -> Result<(), String> {
    known(args, &["testbed", "seed", "channels", "dot", "save", "load"])?;
    let topo = load_testbed(args)?;
    if let Some(path) = args.get("save") {
        topo.save(path).map_err(|e| format!("cannot save {path}: {e}"))?;
        println!("topology (PRR tables included) saved to {path}");
    }
    let channels = channels_of(args)?;
    let comm = topo.comm_graph(&channels, Prr::new(0.9).expect("valid"));
    let reuse = topo.reuse_graph(&channels);
    println!("topology {} ({} nodes)", topo.name(), topo.node_count());
    println!("channels {:?}", channels.iter().map(|c| c.number()).collect::<Vec<_>>());
    println!(
        "communication graph: {} edges, diameter {}, connected: {}",
        comm.edge_count(),
        comm.diameter(),
        comm.is_connected()
    );
    println!(
        "channel reuse graph: {} edges, diameter {} (λ_R)",
        reuse.edge_count(),
        reuse.diameter()
    );
    let aps = comm.select_access_points(2);
    println!("access points: {} and {}", aps[0], aps[1]);
    if let Some(path) = args.get("dot") {
        let mut dot = String::from("graph g {\n  node [shape=point];\n");
        for a in topo.nodes() {
            let p = topo.position(a);
            dot.push_str(&format!(
                "  {} [pos=\"{:.0},{:.0}\"];\n",
                a.index(),
                p.x * 10.0,
                p.y * 10.0 + p.z * 80.0
            ));
        }
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a < b && comm.has_edge(a, b) {
                    dot.push_str(&format!("  {} -- {};\n", a.index(), b.index()));
                }
            }
        }
        dot.push_str("}\n");
        std::fs::write(path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("communication graph written to {path}");
    }
    Ok(())
}

const SCHEDULE_OPTS: &[&str] = &[
    "testbed", "seed", "channels", "flows", "algo", "pattern", "periods", "rho", "load",
    "analysis", "show",
];

fn cmd_schedule(args: &Args) -> Result<(), String> {
    known(args, SCHEDULE_OPTS)?;
    let topo = load_testbed(args)?;
    let channels = channels_of(args)?;
    let (set, model) = build_workload(args, &topo, &channels)?;
    let algo = algorithm_of(args, Algorithm::Rc { rho_t: 2 })?;
    println!(
        "workload: {} flows, hyperperiod {} slots, demand {} tx/hyperperiod",
        set.len(),
        set.hyperperiod(),
        set.transmission_demand()
    );
    if args.has("analysis") {
        let report = wsan_core::analysis::analyse(&set, &model, 2);
        let guaranteed = report.bounds.iter().filter(|b| b.is_bounded()).count();
        println!(
            "delay analysis (sufficient test, no reuse): {}/{} flows guaranteed{}",
            guaranteed,
            set.len(),
            if report.schedulable() { " — admitted" } else { "" }
        );
    }
    match algo.build().schedule(&set, &model) {
        Ok(schedule) => {
            let m = metrics::compute(&schedule, &model);
            println!("{algo}: SCHEDULABLE — {} transmissions placed", schedule.entry_count());
            println!("  cells without reuse: {:.1}%", 100.0 * m.no_reuse_fraction());
            for (hops, count) in m.reuse_hop_count.iter() {
                println!("  shared cells at {hops} reuse hops: {count}");
            }
            if let Some(rt) = metrics::mean_response_time(&schedule, &set) {
                println!("  mean job response time: {rt:.1} slots");
            }
            println!("  {}", wsan_core::render::summary_line(&schedule));
            if args.has("show") {
                let to = schedule.horizon().min(60);
                println!("{}", wsan_core::render::render_grid(&schedule, 0, to));
            }
            Ok(())
        }
        Err(e) => {
            println!("{algo}: UNSCHEDULABLE ({e})");
            Ok(())
        }
    }
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let mut allowed = SCHEDULE_OPTS.to_vec();
    allowed.extend(["reps", "wifi", "autonomous"]);
    known(args, &allowed)?;
    let topo = load_testbed(args)?;
    let channels = channels_of(args)?;
    let (set, model) = build_workload(args, &topo, &channels)?;
    let reps: u32 = args.get_or("reps", 100)?;
    let interferers: Vec<WifiInterferer> = if args.has("wifi") {
        wsan_expr::detection::per_floor_interferers(&topo, -3.0, 0.10)
    } else {
        Vec::new()
    };
    let seed: u64 = args.get_or("seed", 1)?;
    let sim_config =
        SimConfig { seed: seed ^ 0xD00D, repetitions: reps, interferers, ..SimConfig::default() };
    if args.has("autonomous") {
        let len: u32 = args.get_or("autonomous", 17)?;
        let frame = wsan_core::orchestra::AutonomousSlotframe::receiver_based(
            topo.node_count(),
            len.max(1),
            channels.len(),
        );
        let sim = wsan_sim::AutonomousSimulator::new(&topo, &channels, &set, &frame);
        let report = sim.run(&sim_config);
        println!("autonomous slotframe (L={len}) over {reps} hyperperiods:");
        println!("  network PDR : {:.4} (deadline-constrained)", report.network_pdr());
        println!("  worst flow  : {:.4}", report.worst_flow_pdr());
        return Ok(());
    }
    let algo = algorithm_of(args, Algorithm::Rc { rho_t: 2 })?;
    let schedule = algo
        .build()
        .schedule(&set, &model)
        .map_err(|e| format!("{algo} cannot schedule this workload: {e}"))?;
    let sim = Simulator::try_new(&topo, &channels, &set, &schedule).map_err(|e| e.to_string())?;
    let report = sim.try_run(&sim_config).map_err(|e| e.to_string())?;
    let pdrs = report.flow_pdrs();
    let boxplot = wsan_stats::BoxPlot::of(&pdrs).map_err(|e| e.to_string())?;
    println!("{algo} over {reps} hyperperiod executions:");
    println!("  network PDR : {:.4}", report.network_pdr());
    println!("  median flow : {:.4}", boxplot.median);
    println!("  q1 / q3     : {:.4} / {:.4}", boxplot.q1, boxplot.q3);
    println!("  worst flow  : {:.4}", report.worst_flow_pdr());
    println!("  reused links: {}", report.links_with_reuse().len());
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let mut allowed = SCHEDULE_OPTS.to_vec();
    allowed.push("out");
    known(args, &allowed)?;
    let topo = load_testbed(args)?;
    let channels = channels_of(args)?;
    let (set, model) = build_workload(args, &topo, &channels)?;
    let algo = algorithm_of(args, Algorithm::Rc { rho_t: 2 })?;
    let schedule = algo
        .build()
        .schedule(&set, &model)
        .map_err(|e| format!("{algo} cannot schedule this workload: {e}"))?;
    let csv = wsan_core::export::to_csv(&schedule);
    match args.get("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("slotframe with {} transmissions written to {path}", schedule.entry_count());
        }
        _ => print!("{csv}"),
    }
    Ok(())
}

fn cmd_detect(args: &Args) -> Result<(), String> {
    known(args, &["testbed", "seed", "channels", "flows", "epochs", "algo", "repair", "rho"])?;
    let topo = load_testbed(args)?;
    let channels = channels_of(args)?;
    let algo = algorithm_of(args, Algorithm::Ra { rho: 2 })?;
    let seed: u64 = args.get_or("seed", 1)?;
    let cfg = DetectionConfig {
        flow_count: args.get_or("flows", 110)?,
        epochs: args.get_or("epochs", 3)?,
        seed,
        ..DetectionConfig::default()
    };
    let runs = detection(&topo, &channels, &[algo], &cfg);
    let Some(run) = runs.first() else {
        return Err(format!("{algo} cannot schedule the detection workload"));
    };
    println!("{algo}: {} links involved in channel reuse", run.links_with_reuse);
    for (env, epochs) in [("clean", &run.clean), ("wifi", &run.interfered)] {
        println!("[{env}]");
        for epoch in epochs {
            println!(
                "  epoch {}: {} below PRR_t, {} reuse-degraded, {} external",
                epoch.epoch,
                epoch.below_threshold(cfg.policy.prr_threshold).len(),
                epoch.rejected().len(),
                epoch.accepted().len()
            );
            for record in &epoch.records {
                if record.verdict == LinkVerdict::ReuseDegraded {
                    println!(
                        "    reject {} (PRR_r {:.2})",
                        record.link,
                        record.prr_r.unwrap_or(0.0)
                    );
                }
            }
        }
    }
    if args.has("repair") {
        let rejected = run.ever_rejected(true);
        if rejected.is_empty() {
            println!("repair: nothing to do (no rejected links)");
            return Ok(());
        }
        // rebuild the schedule and repair it
        let comm = topo.comm_graph(&channels, Prr::new(0.9).expect("valid"));
        let model = NetworkModel::new(&topo, &channels);
        let fsc = FlowSetConfig::new(
            cfg.flow_count,
            PeriodRange::new(0, 0).expect("valid"),
            TrafficPattern::PeerToPeer,
        );
        let set = FlowSetGenerator::new(seed).generate(&comm, &fsc).map_err(|e| e.to_string())?;
        let schedule =
            algo.build().schedule(&set, &model).map_err(|e| format!("reschedule failed: {e}"))?;
        let rho: u32 = args.get_or("rho", 2)?;
        let (_, report) = repair::reassign_degraded(&schedule, &model, &set, rho, &rejected)
            .map_err(|e| format!("repair failed: {e}"))?;
        println!(
            "repair: {} jobs re-placed ({} transmissions moved), {} jobs need a full reschedule",
            report.repaired_jobs.len(),
            report.moved_transmissions,
            report.failed_jobs.len()
        );
    }
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    known(
        args,
        &[
            "testbed", "seed", "channels", "flows", "pattern", "periods", "algo", "rho", "epochs",
            "collapse", "out", "load",
        ],
    )?;
    let topo = load_testbed(args)?;
    let channels = channels_of(args)?;
    let (set, _) = build_workload(args, &topo, &channels)?;
    let algo = algorithm_of(args, Algorithm::Rc { rho_t: 2 })?;
    let seed: u64 = args.get_or("seed", 1)?;
    let epochs: u32 = args.get_or("epochs", 4)?;
    let intensities: Vec<usize> = args
        .get("collapse")
        .unwrap_or("0,1,2,4")
        .split(',')
        .map(|k| k.trim().parse().map_err(|_| format!("bad collapse count '{k}'")))
        .collect::<Result<_, String>>()?;
    let cfg = SupervisorConfig { seed, epochs, ..SupervisorConfig::default() };
    let result = campaign(&topo, &channels, &set, algo, &cfg, &intensities)
        .map_err(|e| format!("fault campaign failed: {e}"))?;
    println!(
        "{algo} fault campaign: {} flows, fault-free network PDR {:.4}",
        result.flows, result.baseline_pdr
    );
    let headers = ["collapsed", "shed", "surviving", "residual PDR", "converged"];
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                p.collapsed_links.to_string(),
                p.shed_flows.to_string(),
                p.surviving_flows.to_string(),
                format!("{:.4}", p.residual_pdr),
                p.converged.to_string(),
            ]
        })
        .collect();
    print!("{}", wsan_expr::table::render(&headers, &rows));
    let out = args.get("out").unwrap_or("results/fault_campaign.json");
    if let Some(parent) = std::path::Path::new(out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    wsan_expr::table::write_json(out, &result).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("campaign written to {out}");
    Ok(())
}

/// Generates a city-scale plant, partitions it into per-gateway shards,
/// schedules every shard in parallel, stitches, and validates the result
/// against the whole network — the multi-gateway scaling path.
fn cmd_shard(args: &Args) -> Result<(), String> {
    known(
        args,
        &[
            "nodes",
            "shards",
            "algo",
            "rho",
            "flows-per-shard",
            "pattern",
            "periods",
            "seed",
            "jobs",
            "channels",
            "out",
        ],
    )?;
    let nodes: usize = args.get_or("nodes", 0)?;
    if nodes == 0 {
        return Err("--nodes is required (and must be positive)".to_string());
    }
    let shards: usize = args.get_or("shards", 2)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let jobs: usize = args.get_or("jobs", 0)?;
    let algo = algorithm_of(args, Algorithm::Rc { rho_t: 2 })?;
    let reuse_floor = match algo {
        Algorithm::Nr => None,
        Algorithm::Ra { rho } => Some(rho),
        Algorithm::Rc { rho_t } | Algorithm::RcLite { rho_t } | Algorithm::RcPerFlow { rho_t } => {
            Some(rho_t)
        }
    };
    // city plants get the full 2.4 GHz band unless the user narrows it:
    // the spectrum is what gets split between conflicting shards
    let channels = if args.has("channels") { channels_of(args)? } else { ChannelId::all() };
    let shard_cfg = wsan_core::shard::ShardConfig {
        shards,
        seed,
        flows_per_shard: args.get_or("flows-per-shard", 6)?,
        periods: periods_of(args)?,
        pattern: pattern_of(args)?,
        reuse_floor,
        prr_t: Prr::new(0.9).expect("valid"),
    };
    let plant_cfg = wsan_net::plants::PlantConfig::city(format!("city-{nodes}"), nodes);
    let plant = wsan_net::plants::generate(&plant_cfg, seed);
    println!(
        "plant {}: {} nodes, {} links (cutoff {:.1} m)",
        plant.name(),
        plant.node_count(),
        plant.links().len(),
        plant.cutoff_m()
    );
    let outcome = wsan_expr::sharding::schedule_sharded(&plant, &channels, &shard_cfg, &algo, jobs)
        .map_err(|e| format!("sharded scheduling failed: {e}"))?;
    let report = &outcome.report;
    println!(
        "{algo} over {} shard(s), {} spectrum color(s): {} flows, {} entries, horizon {}",
        report.shards, report.colors, report.flows, report.entries, report.horizon
    );
    for shard in outcome.plan.shards() {
        println!(
            "  shard {}: gateway n{}, {} nodes, offsets {}..{}",
            shard.index,
            shard.gateway.index(),
            shard.nodes.len(),
            shard.offset_base,
            shard.offset_base + shard.offsets
        );
    }
    println!(
        "stitched schedule validated against the whole network (plan+build+schedule \
         {:.1} ms, stitch {:.1} ms, validate {:.1} ms, digest {:016x})",
        report.schedule_ns as f64 / 1e6,
        report.stitch_ns as f64 / 1e6,
        report.validate_ns as f64 / 1e6,
        report.digest
    );
    if let Some(out) = args.get("out") {
        wsan_expr::table::write_json(out, report)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("report written to {out}");
    }
    Ok(())
}

/// Runs a named experiment campaign through the checkpointing engine:
/// every sweep point is appended to a manifest as it completes, so an
/// interrupted run re-invoked with `--resume` only computes what's missing.
fn cmd_campaign(args: &Args) -> Result<(), String> {
    known(args, &["name", "jobs", "resume", "sets", "seed", "quick", "out", "manifest"])?;
    let names = wsan_expr::campaigns::NAMES.join("|");
    let Some(name) = args.get("name") else {
        return Err(format!("--name is required ({names})"));
    };
    let opts = wsan_expr::campaigns::SweepOptions {
        sets: args.get_or("sets", 0)?, // 0 = the campaign's own default
        seed: args.get_or("seed", 1)?,
        quick: args.has("quick"),
    };
    let manifest = args
        .get("manifest")
        .map(str::to_string)
        .unwrap_or_else(|| format!("results/{name}.manifest.jsonl"));
    let cfg = wsan_expr::campaign::CampaignConfig {
        jobs: args.get_or("jobs", 0)?,
        window: 0,
        manifest: Some(manifest.into()),
        resume: args.has("resume"),
    };
    let outcome = wsan_expr::campaigns::run_named(name, &opts, &cfg).map_err(|e| e.to_string())?;
    let out = args
        .get("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("results/campaign_{name}.json"));
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let mut json = outcome.json;
    if !json.ends_with('\n') {
        json.push('\n');
    }
    std::fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "campaign '{name}': {} points ({} executed, {} resumed) → {out}",
        outcome.summary.total, outcome.summary.executed, outcome.summary.resumed
    );
    Ok(())
}

/// Serialises tests that arm/disarm the process-global flight recorder.
#[cfg(test)]
pub(crate) fn flightrec_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(parts: &[&str]) -> Result<(), String> {
        dispatch(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn help_works() {
        run(&["help"]).unwrap();
    }

    #[test]
    fn topology_requires_testbed() {
        let err = run(&["topology"]).unwrap_err();
        assert!(err.contains("--testbed"));
    }

    #[test]
    fn topology_runs_on_wustl() {
        run(&["topology", "--testbed", "wustl", "--seed", "2"]).unwrap();
    }

    #[test]
    fn schedule_requires_flows() {
        let err = run(&["schedule", "--testbed", "wustl"]).unwrap_err();
        assert!(err.contains("--flows"));
    }

    #[test]
    fn schedule_small_workload() {
        run(&["schedule", "--testbed", "wustl", "--flows", "8", "--algo", "rc", "--seed", "3"])
            .unwrap();
    }

    #[test]
    fn simulate_small_workload() {
        run(&["simulate", "--testbed", "wustl", "--flows", "8", "--reps", "5", "--seed", "3"])
            .unwrap();
    }

    #[test]
    fn unknown_option_is_rejected() {
        let err =
            run(&["schedule", "--testbed", "wustl", "--flows", "8", "--zap", "1"]).unwrap_err();
        assert!(err.contains("--zap"));
    }

    #[test]
    fn bad_algorithm_is_rejected() {
        let err = run(&["schedule", "--testbed", "wustl", "--flows", "8", "--algo", "magic"])
            .unwrap_err();
        assert!(err.contains("magic"));
    }
}

#[cfg(test)]
mod export_tests {
    use super::*;

    fn run(parts: &[&str]) -> Result<(), String> {
        dispatch(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn export_round_trips_through_the_csv_parser() {
        let dir = std::env::temp_dir().join("wsan-cli-export");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame.csv");
        run(&[
            "export",
            "--testbed",
            "wustl",
            "--flows",
            "6",
            "--seed",
            "4",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let csv = std::fs::read_to_string(&path).unwrap();
        let schedule = wsan_core::export::from_csv(&csv).unwrap();
        assert!(schedule.entry_count() > 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn autonomous_simulation_runs() {
        run(&[
            "simulate",
            "--testbed",
            "wustl",
            "--flows",
            "6",
            "--reps",
            "3",
            "--autonomous",
            "7",
        ])
        .unwrap();
    }

    #[test]
    fn run_alias_with_metrics_out_writes_a_snapshot() {
        let dir = std::env::temp_dir().join("wsan-cli-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        run(&[
            "run",
            "--testbed",
            "wustl",
            "--flows",
            "6",
            "--reps",
            "3",
            "--seed",
            "3",
            "--metrics-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let snapshot: wsan_obs::MetricsSnapshot = serde_json::from_str(&json).unwrap();
        // scheduler decisions and per-slot simulation counters must be present
        assert!(snapshot.counters.contains_key("core.schedule.runs"));
        assert!(snapshot.counters.contains_key("sim.tx"));
        assert!(snapshot.counters["sim.tx"] > 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_log_level_is_rejected() {
        let err = run(&["schedule", "--testbed", "wustl", "--flows", "8", "--log-level", "blah"])
            .unwrap_err();
        assert!(err.contains("blah"));
    }

    #[test]
    fn bad_log_format_is_rejected() {
        let err = run(&["schedule", "--testbed", "wustl", "--flows", "8", "--log-format", "xml"])
            .unwrap_err();
        assert!(err.contains("xml"));
    }

    #[test]
    fn campaign_smoke_runs_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join("wsan-cli-campaign");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("smoke.json");
        let manifest = dir.join("smoke.manifest.jsonl");
        let argv = |resume: bool| {
            let mut v = vec![
                "campaign".to_string(),
                "--name".to_string(),
                "smoke".to_string(),
                "--sets".to_string(),
                "2".to_string(),
                "--seed".to_string(),
                "9".to_string(),
                "--out".to_string(),
                out.to_str().unwrap().to_string(),
                "--manifest".to_string(),
                manifest.to_str().unwrap().to_string(),
            ];
            if resume {
                v.push("--resume".to_string());
            }
            v
        };
        dispatch(&argv(false)).unwrap();
        let first = std::fs::read_to_string(&out).unwrap();
        assert!(manifest.exists(), "manifest must be checkpointed");
        // resuming the finished campaign replays every point from the
        // manifest and reproduces the identical aggregate
        dispatch(&argv(true)).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), first);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn campaign_requires_a_known_name() {
        assert!(run(&["campaign"]).unwrap_err().contains("--name"));
        let err = run(&["campaign", "--name", "nope"]).unwrap_err();
        assert!(err.contains("nope"), "got: {err}");
    }

    #[test]
    fn flightrec_dump_exports_to_chrome_trace() {
        let _guard = super::flightrec_test_lock();
        let dir = std::env::temp_dir().join("wsan-cli-flightrec");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("dump.jsonl");
        let chrome = dir.join("trace.json");
        run(&[
            "run",
            "--testbed",
            "wustl",
            "--flows",
            "6",
            "--reps",
            "3",
            "--seed",
            "3",
            "--flightrec",
            "256",
            "--flightrec-dump",
            dump.to_str().unwrap(),
        ])
        .unwrap();
        wsan_obs::flightrec::disarm();
        let raw = std::fs::read_to_string(&dump).unwrap();
        assert!(!raw.trim().is_empty(), "armed run must leave records behind");
        for line in raw.lines() {
            let _record: wsan_obs::FlightRecord = serde_json::from_str(line).unwrap();
        }
        run(&[
            "trace",
            "export",
            "--in",
            dump.to_str().unwrap(),
            "--out",
            chrome.to_str().unwrap(),
            "--chrome",
        ])
        .unwrap();
        let json = std::fs::read_to_string(&chrome).unwrap();
        let doc: serde::value::Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap();
        assert!(!events.is_empty(), "chrome trace must contain events");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn panic_hook_flushes_the_flight_recorder() {
        let _guard = super::flightrec_test_lock();
        let dir = std::env::temp_dir().join("wsan-cli-panic");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("panic-dump.jsonl");
        let _ = std::fs::remove_file(&dump);
        let argv: Vec<String> = ["--flightrec", "64", "--flightrec-dump", dump.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv).unwrap();
        init_observability(&args).unwrap();
        wsan_obs::event(wsan_obs::Level::Info, "cli-test", "pre-panic breadcrumb", &[]);
        let caught = std::panic::catch_unwind(|| panic!("synthetic crash"));
        assert!(caught.is_err());
        wsan_obs::flightrec::disarm();
        let raw = std::fs::read_to_string(&dump).expect("panic hook must write the dump");
        assert!(raw.contains("pre-panic breadcrumb"), "{raw}");
        for line in raw.lines() {
            let _record: wsan_obs::FlightRecord = serde_json::from_str(line).unwrap();
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn trace_requires_the_export_verb_and_an_input() {
        let err = run(&["trace"]).unwrap_err();
        assert!(err.contains("trace export"), "{err}");
        let err = run(&["trace", "export"]).unwrap_err();
        assert!(err.contains("--in"), "{err}");
    }

    #[test]
    fn metrics_interval_requires_metrics_out() {
        let err =
            run(&["schedule", "--testbed", "wustl", "--flows", "8", "--metrics-interval-ms", "50"])
                .unwrap_err();
        assert!(err.contains("--metrics-out"), "{err}");
    }

    #[test]
    fn fault_campaign_writes_json() {
        let dir = std::env::temp_dir().join("wsan-cli-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        run(&[
            "faults",
            "--testbed",
            "wustl",
            "--flows",
            "6",
            "--seed",
            "5",
            "--epochs",
            "2",
            "--collapse",
            "0,1",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let result: wsan_expr::recovery::CampaignResult = serde_json::from_str(&json).unwrap();
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.points[0].collapsed_links, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shard_requires_nodes() {
        let err = run(&["shard"]).unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
    }

    #[test]
    fn shard_schedules_a_city_plant_and_writes_a_report() {
        let dir = std::env::temp_dir().join("wsan-cli-shard");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.json");
        run(&[
            "shard",
            "--nodes",
            "120",
            "--shards",
            "2",
            "--flows-per-shard",
            "3",
            "--seed",
            "3",
            "--jobs",
            "2",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let report: wsan_expr::sharding::ShardedReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.flows, 6);
        assert!(report.entries > 0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
