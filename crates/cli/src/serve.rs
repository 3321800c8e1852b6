//! `wsan serve` — the long-lived online gateway process.
//!
//! Reads JSONL requests (`add_flow`, `remove_flow`, `update_rate`,
//! `retire_link`, `status`, `export`, `shutdown`) from stdin — or from a
//! Unix socket with `--listen` — and answers one JSON response per line.
//! Every acknowledged mutation is `fsync`ed to the write-ahead journal
//! (`--journal`), so a crashed gateway restarted with `--resume-journal`
//! replays to exactly the schedule it acknowledged. See
//! `wsan_core::gateway` for the delta-scheduling and shedding semantics.
//!
//! ## Status plane
//!
//! `--status-socket PATH` opens a second Unix socket served from a
//! background thread. The request loop publishes its counters into a
//! shared block of atomics after every request, and the status thread
//! answers `status` / `metrics` / `flightrec` query lines (one JSON
//! object per line) purely from those atomics, the global metrics
//! registry, and the armed flight recorder — it never locks or touches
//! the gateway state, so a status read cannot pause or reorder the
//! request loop.

use crate::args::Args;
use crate::commands::{channels_of, known, load_testbed};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsan_core::gateway::journal::JournalHeader;
use wsan_core::gateway::service::GatewayService;
use wsan_core::gateway::{GatewayConfig, GatewayState};
use wsan_core::NetworkModel;
use wsan_expr::Algorithm;
use wsan_net::Prr;

pub(crate) fn cmd_serve(args: &Args) -> Result<(), String> {
    known(
        args,
        &[
            "testbed",
            "load",
            "seed",
            "channels",
            "prr",
            "algo",
            "rho",
            "journal",
            "resume-journal",
            "paranoid",
            "deadline-us",
            "listen",
            "status-socket",
        ],
    )?;
    let mut service = build_service(args)?;

    if args.has("journal") && args.has("resume-journal") {
        return Err("--journal and --resume-journal are mutually exclusive".to_string());
    }
    if let Some(path) = args.get("journal") {
        service.journal_create(path).map_err(|e| format!("cannot create journal: {e}"))?;
        eprintln!("journaling to {path}");
    } else if let Some(path) = args.get("resume-journal") {
        let replayed = service
            .journal_resume(path)
            .map_err(|e| format!("cannot resume journal {path}: {e}"))?;
        eprintln!(
            "resumed {path}: replayed {replayed} operation(s), {} flow(s) admitted",
            service.state().len()
        );
    }

    let shared = Arc::new(StatusShared::new());
    if let Some(path) = args.get("status-socket") {
        if path.is_empty() {
            return Err("--status-socket expects a socket path".to_string());
        }
        spawn_status_plane(path, Arc::clone(&shared))?;
    }

    let result = match args.get("listen") {
        Some(socket) => serve_socket(&mut service, socket, &shared),
        None => serve_stdin(&mut service, &shared),
    };
    if let Some(path) = args.get("status-socket") {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// `wsan status` — one-shot client for the status plane: connects to a
/// `--status-socket`, sends one query line, prints the one-line JSON
/// answer. Keeps CI and operators free of `nc`/`socat` dependencies.
pub(crate) fn cmd_status(args: &Args) -> Result<(), String> {
    known(args, &["socket", "query"])?;
    let Some(path) = args.get("socket") else {
        return Err("--socket PATH is required".to_string());
    };
    let query = args.get("query").unwrap_or("status");
    let mut stream = std::os::unix::net::UnixStream::connect(path)
        .map_err(|e| format!("cannot connect to {path}: {e}"))?;
    writeln!(stream, "{query}").map_err(|e| format!("cannot send query: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(|e| format!("cannot read answer: {e}"))?;
    if line.is_empty() {
        return Err("status plane closed the connection without answering".to_string());
    }
    print!("{line}");
    Ok(())
}

/// Builds the gateway service from the topology/algorithm flags. The same
/// flags must be passed again on restart: the journal header records the
/// configuration identity and a mismatch refuses to resume.
fn build_service(args: &Args) -> Result<GatewayService, String> {
    let topo = load_testbed(args)?;
    let channels = channels_of(args)?;
    let prr_raw: f64 = args.get_or("prr", 0.9)?;
    let prr = Prr::new(prr_raw).map_err(|e| e.to_string())?;
    let comm = topo.comm_graph(&channels, prr);
    let model = NetworkModel::new(&topo, &channels);

    let rho: u32 = args.get_or("rho", 2)?;
    // `algo` names the scheduler in the journal header; resuming checks it
    let (algorithm, algo) = match args.get("algo").unwrap_or("rc") {
        "nr" => (Algorithm::Nr, "nr".to_string()),
        "ra" => (Algorithm::Ra { rho }, format!("ra/{rho}")),
        "rc" => (Algorithm::Rc { rho_t: rho }, format!("rc/{rho}")),
        other => return Err(format!("unknown algorithm '{other}' (nr|ra|rc)")),
    };

    let config = GatewayConfig {
        rho_t: algorithm.reuse_floor(),
        paranoid: args.has("paranoid"),
        ..GatewayConfig::default()
    };
    let state = GatewayState::new(model, algorithm.build(), config);

    let (lo, hi) = args.channel_range()?;
    let seed: u64 = args.get_or("seed", 1)?;
    let network = format!("{}/seed={seed}/ch={lo}-{hi}/prr={prr_raw}", topo.name());
    let header = JournalHeader::new(&network, &algo);

    let budget = match args.get("deadline-us") {
        Some(raw) => {
            let us: u64 = raw.parse().map_err(|_| format!("bad --deadline-us '{raw}'"))?;
            Some(Duration::from_micros(us))
        }
        None => None,
    };

    eprintln!(
        "gateway serving {algo} on {} ({} nodes, {} channels)",
        topo.name(),
        topo.node_count(),
        channels.len()
    );
    Ok(GatewayService::new(state, comm, header)
        .with_budget(budget)
        .with_flightrec_dump(args.get("flightrec-dump").map(std::path::PathBuf::from)))
}

/// Live gateway counters shared between the request loop (sole writer,
/// after every request) and the status plane (reader). Plain relaxed
/// atomics: a status read sees some recent consistent-enough snapshot and
/// never blocks the writer.
struct StatusShared {
    started: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    flows: AtomicU64,
    entries: AtomicU64,
    horizon: AtomicU64,
    retired: AtomicU64,
    overloaded: AtomicBool,
}

impl StatusShared {
    fn new() -> StatusShared {
        StatusShared {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            flows: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            horizon: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            overloaded: AtomicBool::new(false),
        }
    }

    /// Publishes the post-request state of the gateway. Called by the
    /// request loop after every `handle_line`.
    fn publish(&self, service: &GatewayService, ok: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let state = service.state();
        self.flows.store(state.len() as u64, Ordering::Relaxed);
        self.entries.store(state.schedule().entry_count() as u64, Ordering::Relaxed);
        self.horizon.store(u64::from(state.schedule().horizon()), Ordering::Relaxed);
        self.retired.store(state.retired().len() as u64, Ordering::Relaxed);
        self.overloaded.store(service.overloaded(), Ordering::Relaxed);
    }
}

/// Binds the status socket and spawns the answering thread. The thread
/// serves one client at a time and dies with the process.
fn spawn_status_plane(path: &str, shared: Arc<StatusShared>) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|e| format!("cannot bind status socket {path}: {e}"))?;
    eprintln!("status plane listening on {path}");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let Ok(mut writer) = stream.try_clone() else { continue };
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                let query = line.trim();
                if query.is_empty() {
                    continue;
                }
                let response = answer_status_query(query, &shared);
                if writeln!(writer, "{response}").is_err() || writer.flush().is_err() {
                    break;
                }
            }
        }
    });
    Ok(())
}

/// Answers one status-plane query line with one JSON object.
/// Queries: `status` (live request-loop counters), `metrics` (global
/// registry snapshot, quantiles included), `flightrec` (decoded ring
/// contents of the armed flight recorder).
fn answer_status_query(query: &str, shared: &StatusShared) -> String {
    use serde::value::Value;
    use serde::Serialize;
    let render = |fields: Vec<(&str, Value)>| {
        let doc = Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
        serde_json::to_string(&doc).unwrap_or_else(|_| r#"{"ok":false}"#.to_string())
    };
    match query {
        "status" => {
            let recorded = wsan_obs::flightrec::armed().map_or(0, |rec| rec.recorded());
            render(vec![
                ("ok", Value::Bool(true)),
                ("query", Value::Str("status".to_string())),
                (
                    "uptime_ms",
                    Value::UInt(
                        u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX),
                    ),
                ),
                ("requests", Value::UInt(shared.requests.load(Ordering::Relaxed))),
                ("errors", Value::UInt(shared.errors.load(Ordering::Relaxed))),
                ("flows", Value::UInt(shared.flows.load(Ordering::Relaxed))),
                ("entries", Value::UInt(shared.entries.load(Ordering::Relaxed))),
                ("horizon", Value::UInt(shared.horizon.load(Ordering::Relaxed))),
                ("retired", Value::UInt(shared.retired.load(Ordering::Relaxed))),
                ("overloaded", Value::Bool(shared.overloaded.load(Ordering::Relaxed))),
                ("flightrec_recorded", Value::UInt(recorded)),
            ])
        }
        "metrics" => render(vec![
            ("ok", Value::Bool(true)),
            ("query", Value::Str("metrics".to_string())),
            ("metrics", wsan_obs::global_metrics().snapshot().to_value()),
        ]),
        "flightrec" => match wsan_obs::flightrec::armed() {
            Some(rec) => {
                let records = rec.dump();
                render(vec![
                    ("ok", Value::Bool(true)),
                    ("query", Value::Str("flightrec".to_string())),
                    ("recorded", Value::UInt(rec.recorded())),
                    ("capacity", Value::UInt(rec.capacity() as u64)),
                    ("records", records.to_value()),
                ])
            }
            None => render(vec![
                ("ok", Value::Bool(false)),
                ("query", Value::Str("flightrec".to_string())),
                (
                    "error",
                    Value::Str("flight recorder is not armed (run with --flightrec N)".to_string()),
                ),
            ]),
        },
        other => render(vec![
            ("ok", Value::Bool(false)),
            ("error", Value::Str(format!("unknown query '{other}' (status|metrics|flightrec)"))),
        ]),
    }
}

/// Whether a gateway response line reports success. Responses always lead
/// with the `ok` field (see `wsan_core::gateway::service`).
fn response_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true") || response.starts_with("{\"ok\": true")
}

/// One request per stdin line, one response per stdout line, flushed
/// immediately so a client driving us through a pipe sees each ack as soon
/// as it is durable.
fn serve_stdin(service: &mut GatewayService, shared: &StatusShared) -> Result<(), String> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin read failed: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let response = service.handle_line(&line);
        shared.publish(service, response_ok(&response));
        writeln!(out, "{response}").map_err(|e| format!("stdout write failed: {e}"))?;
        out.flush().map_err(|e| format!("stdout flush failed: {e}"))?;
        if service.shutdown_requested() {
            break;
        }
    }
    Ok(())
}

/// Serves connections on a Unix socket, one client at a time, until a
/// client sends `shutdown`. A dropped connection keeps the gateway (and
/// its schedule) alive for the next client.
fn serve_socket(
    service: &mut GatewayService,
    socket: &str,
    shared: &StatusShared,
) -> Result<(), String> {
    let _ = std::fs::remove_file(socket);
    let listener = std::os::unix::net::UnixListener::bind(socket)
        .map_err(|e| format!("cannot bind {socket}: {e}"))?;
    eprintln!("listening on {socket}");
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("accept failed: {e}"))?;
        let mut writer = stream.try_clone().map_err(|e| format!("socket clone failed: {e}"))?;
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let response = service.handle_line(&line);
            shared.publish(service, response_ok(&response));
            if writeln!(writer, "{response}").is_err() {
                break;
            }
            if service.shutdown_requested() {
                let _ = std::fs::remove_file(socket);
                return Ok(());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_queries_render_one_json_object() {
        let shared = StatusShared::new();
        shared.requests.store(5, Ordering::Relaxed);
        shared.errors.store(1, Ordering::Relaxed);
        shared.flows.store(3, Ordering::Relaxed);
        let status = answer_status_query("status", &shared);
        assert!(status.starts_with("{\"ok\":true"), "{status}");
        assert!(status.contains("\"requests\":5"), "{status}");
        assert!(status.contains("\"errors\":1"), "{status}");
        assert!(status.contains("\"flows\":3"), "{status}");
        assert!(!status.contains('\n'));

        let metrics = answer_status_query("metrics", &shared);
        assert!(metrics.contains("\"metrics\""), "{metrics}");

        let unknown = answer_status_query("frobnicate", &shared);
        assert!(unknown.starts_with("{\"ok\":false"), "{unknown}");
        assert!(unknown.contains("frobnicate"), "{unknown}");
    }

    #[test]
    fn flightrec_query_reports_disarmed_and_armed_rings() {
        let _guard = crate::commands::flightrec_test_lock();
        let shared = StatusShared::new();
        // Whether another test armed the global recorder or not, the query
        // must answer with a single well-formed JSON line.
        let answer = answer_status_query("flightrec", &shared);
        assert!(answer.starts_with("{\"ok\":"), "{answer}");

        let _rec = wsan_obs::flightrec::arm(64, wsan_obs::Level::Trace);
        let armed = answer_status_query("flightrec", &shared);
        assert!(armed.starts_with("{\"ok\":true"), "{armed}");
        assert!(armed.contains("\"capacity\":64"), "{armed}");
        wsan_obs::flightrec::disarm();
    }

    #[test]
    fn response_ok_reads_the_leading_field() {
        assert!(response_ok(r#"{"ok":true,"op":"status"}"#));
        assert!(!response_ok(r#"{"ok":false,"error":{"kind":"malformed"}}"#));
    }
}
