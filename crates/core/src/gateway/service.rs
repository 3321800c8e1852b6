//! The hardened request/response front end of the gateway.
//!
//! [`GatewayService`] wraps a [`GatewayState`] behind a line-oriented JSONL
//! protocol (one request object in, one response object out) and adds the
//! robustness layer the long-lived process needs:
//!
//! * **Typed request validation** — malformed JSON, unknown operations, and
//!   missing/mistyped fields produce a structured error response; no input
//!   can panic the service.
//! * **Write-ahead journal** — every *successful* mutating operation is
//!   appended to the [`journal`](super::journal) and `fsync`ed before the
//!   response is emitted, so an acknowledged operation survives `kill -9`
//!   and [`GatewayService::journal_resume`] replays it deterministically.
//! * **Latency budget and load shedding** — with a per-request deadline
//!   configured, an operation that overruns flips the service into an
//!   overloaded state in which admissions that would rank at the bottom of
//!   the DM order (the flows the shedding ladder would sacrifice first) are
//!   rejected up front with a retryable error and a backoff hint; any
//!   in-budget operation clears the state.
//! * **Observability** — `gateway.*` counters and a `gateway.request_us`
//!   HDR quantile histogram (p50/p90/p99/p999) via `wsan-obs`, when global
//!   metrics are enabled. When tracing is enabled every request runs under
//!   a fresh `RequestId` bound with `wsan_obs::request_scope`, with child
//!   spans for parse → admit (delta-schedule) → journal fsync, so a
//!   flight-recorder dump reconstructs the full causal path of a failed
//!   request; [`GatewayService::with_flightrec_dump`] writes that dump as
//!   JSONL whenever a request errors.
//!
//! ## Protocol
//!
//! Requests (one JSON object per line):
//!
//! ```json
//! {"op":"add_flow","name":"f1","source":3,"dest":9,"period":100,"deadline":80}
//! {"op":"remove_flow","name":"f1"}
//! {"op":"update_rate","name":"f1","period":200,"deadline":150}
//! {"op":"retire_link","tx":3,"rx":4}
//! {"op":"status"}
//! {"op":"export","path":"schedule.csv"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`; successes echo `"op"` and report the
//! delta path taken, evictions, and timing; failures carry
//! `{"error":{"kind","message"},"retryable"}` plus `"backoff_ms"` when a
//! retry is sensible. Error kinds: `malformed`, `validation`, `capacity`,
//! `infeasible`, `overloaded`, `journal`, `io`, `internal` — only
//! `overloaded` is retryable.

use super::journal::{GatewayOp, Journal, JournalError, JournalHeader};
use super::{DeltaReport, FlowSpec, GatewayError, GatewayState};
use crate::export;
use serde::value::Value;
use std::time::{Duration, Instant};
use wsan_flow::Period;
use wsan_net::{routing, CommGraph, DirectedLink, NodeId};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
enum Request {
    Mutate(GatewayOp),
    Status,
    Export { path: Option<String> },
    Shutdown,
}

/// `gateway.*` instrument handles, built once when global metrics are on.
struct ServiceMetrics {
    requests: wsan_obs::Counter,
    malformed: wsan_obs::Counter,
    applied: wsan_obs::Counter,
    rejected: wsan_obs::Counter,
    evicted: wsan_obs::Counter,
    overload_rejections: wsan_obs::Counter,
    journal_records: wsan_obs::Counter,
    replayed: wsan_obs::Counter,
    request_us: wsan_obs::HdrHistogram,
}

impl ServiceMetrics {
    fn new() -> Self {
        let reg = wsan_obs::global_metrics();
        ServiceMetrics {
            requests: reg.counter("gateway.requests"),
            malformed: reg.counter("gateway.malformed"),
            applied: reg.counter("gateway.applied"),
            rejected: reg.counter("gateway.rejected"),
            evicted: reg.counter("gateway.evicted"),
            overload_rejections: reg.counter("gateway.overload_rejections"),
            journal_records: reg.counter("gateway.journal.records"),
            replayed: reg.counter("gateway.journal.replayed"),
            request_us: reg.quantile("gateway.request_us"),
        }
    }
}

/// The JSONL gateway service. See the module docs.
pub struct GatewayService {
    state: GatewayState,
    routing: CommGraph,
    header: JournalHeader,
    journal: Option<Journal>,
    budget: Option<Duration>,
    overloaded: bool,
    reject_streak: u32,
    requests: u64,
    shutdown: bool,
    metrics: Option<ServiceMetrics>,
    flightrec_dump: Option<std::path::PathBuf>,
}

impl GatewayService {
    /// Creates a service over `state`, routing admissions on `routing` by
    /// shortest path. `header` identifies the configuration for journal
    /// compatibility checks.
    pub fn new(state: GatewayState, routing: CommGraph, header: JournalHeader) -> Self {
        GatewayService {
            state,
            routing,
            header,
            journal: None,
            budget: None,
            overloaded: false,
            reject_streak: 0,
            requests: 0,
            shutdown: false,
            metrics: wsan_obs::metrics_enabled().then(ServiceMetrics::new),
            flightrec_dump: None,
        }
    }

    /// Dumps the armed flight recorder (if any) as JSONL to `path` whenever
    /// a request produces an error response.
    #[must_use]
    pub fn with_flightrec_dump(mut self, path: Option<std::path::PathBuf>) -> Self {
        self.flightrec_dump = path;
        self
    }

    /// Sets the per-request latency budget that arms overload shedding.
    /// `None` (the default) disables the budget — replay determinism never
    /// depends on wall-clock time.
    #[must_use]
    pub fn with_budget(mut self, budget: Option<Duration>) -> Self {
        self.budget = budget;
        self
    }

    /// The underlying gateway state.
    pub fn state(&self) -> &GatewayState {
        &self.state
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Whether the service is currently shedding low-priority admissions.
    pub fn overloaded(&self) -> bool {
        self.overloaded
    }

    /// Starts a fresh write-ahead journal at `path`.
    ///
    /// # Errors
    ///
    /// See [`Journal::create`].
    pub fn journal_create(
        &mut self,
        path: impl Into<std::path::PathBuf>,
    ) -> Result<(), JournalError> {
        self.journal = Some(Journal::create(path, &self.header)?);
        Ok(())
    }

    /// Resumes from an existing journal: verifies the header, truncates a
    /// torn tail, replays every record through the normal delta pipeline,
    /// and keeps journaling at the right sequence number. Returns the
    /// number of replayed operations.
    ///
    /// # Errors
    ///
    /// See [`Journal::resume`]; additionally reports
    /// [`JournalError::Corrupt`] when a journaled operation no longer
    /// applies cleanly (replay divergence).
    pub fn journal_resume(
        &mut self,
        path: impl Into<std::path::PathBuf>,
    ) -> Result<usize, JournalError> {
        let (journal, replay) = Journal::resume(path, &self.header)?;
        for record in &replay.records {
            self.apply(&record.op).map_err(|e| JournalError::Corrupt {
                line: record.seq as usize + 1,
                reason: format!("replay diverged on {}: {e}", record.op.name()),
            })?;
            if let Some(m) = &self.metrics {
                m.replayed.inc();
            }
        }
        self.journal = Some(journal);
        Ok(replay.records.len())
    }

    /// Handles one request line, returning the response line (no trailing
    /// newline). Never panics on untrusted input.
    ///
    /// With tracing enabled the whole request runs inside a
    /// `gateway.request` span under a fresh [`wsan_obs::RequestId`], so
    /// every child span (parse, admit, journal fsync) and event carries the
    /// same causal id in subscriber output and flight-recorder dumps.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.requests += 1;
        if let Some(m) = &self.metrics {
            m.requests.inc();
        }
        let traced = wsan_obs::enabled(wsan_obs::Level::Debug);
        let _request_scope = traced.then(|| wsan_obs::request_scope(wsan_obs::next_request_id()));
        let _request_span = traced.then(|| {
            wsan_obs::span(
                wsan_obs::Level::Debug,
                "gateway.request",
                vec![wsan_obs::kv("seq", self.requests)],
            )
        });
        let parsed = {
            let _parse_span = traced.then(|| {
                wsan_obs::span(
                    wsan_obs::Level::Debug,
                    "gateway.parse",
                    vec![wsan_obs::kv("bytes", line.len())],
                )
            });
            parse_request(line)
        };
        let response = match parsed {
            Ok(request) => self.handle(request),
            Err(message) => {
                if let Some(m) = &self.metrics {
                    m.malformed.inc();
                }
                error_response(None, "malformed", &message, false, None)
            }
        };
        if response.get("ok") == Some(&Value::Bool(false)) {
            self.on_request_error(&response);
        }
        serde_json::to_string(&response)
            .unwrap_or_else(|_| r#"{"ok":false,"error":{"kind":"internal"}}"#.to_string())
    }

    /// Error-path hooks: an `error`-level event (so the failure itself is
    /// the newest flight-recorder record) and, when configured, a JSONL
    /// dump of the armed recorder.
    fn on_request_error(&self, response: &Value) {
        if wsan_obs::enabled(wsan_obs::Level::Error) {
            let kind = response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| match k {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_default();
            wsan_obs::event(
                wsan_obs::Level::Error,
                "wsan_core::gateway",
                "request failed",
                &[wsan_obs::kv("kind", kind)],
            );
        }
        if let (Some(path), Some(rec)) = (&self.flightrec_dump, wsan_obs::flightrec::armed()) {
            // Best effort: a failed dump must not take down the service.
            let _ = std::fs::write(path, rec.dump_jsonl());
        }
    }

    fn handle(&mut self, request: Request) -> Value {
        match request {
            Request::Mutate(op) => self.handle_mutate(op),
            Request::Status => self.handle_status(),
            Request::Export { path } => self.handle_export(path.as_deref()),
            Request::Shutdown => {
                self.shutdown = true;
                obj(vec![("ok", Value::Bool(true)), ("op", str_value("shutdown"))])
            }
        }
    }

    fn handle_mutate(&mut self, op: GatewayOp) -> Value {
        // Load shedding: while overloaded, reject admissions that would
        // rank at (or below) the bottom of the DM order — exactly the
        // flows the feasibility ladder would shed first anyway.
        if self.overloaded {
            if let GatewayOp::AddFlow { deadline, .. } = &op {
                let lowest = self.state.max_deadline().is_some_and(|d| *deadline >= d);
                if lowest {
                    self.reject_streak += 1;
                    if let Some(m) = &self.metrics {
                        m.overload_rejections.inc();
                    }
                    let backoff = 1000u64.min(10u64 << self.reject_streak.min(7));
                    return error_response(
                        Some(op.name()),
                        "overloaded",
                        "gateway over latency budget; lowest-priority admissions are shed",
                        true,
                        Some(backoff),
                    );
                }
            }
        }
        let started = Instant::now();
        let result = {
            let _admit_span = wsan_obs::enabled(wsan_obs::Level::Debug).then(|| {
                wsan_obs::span(
                    wsan_obs::Level::Debug,
                    "gateway.admit",
                    vec![wsan_obs::kv("op", op.name())],
                )
            });
            self.apply(&op)
        };
        let elapsed = started.elapsed();
        let mut budget_exceeded = false;
        if let Some(budget) = self.budget {
            budget_exceeded = elapsed > budget;
            self.overloaded = budget_exceeded;
            if !budget_exceeded {
                self.reject_streak = 0;
            }
        }
        if let Some(m) = &self.metrics {
            m.request_us.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        }
        match result {
            Ok(report) => {
                if let Some(m) = &self.metrics {
                    m.applied.inc();
                    m.evicted.add(report.evicted.len() as u64);
                }
                let _journal_span = (self.journal.is_some()
                    && wsan_obs::enabled(wsan_obs::Level::Debug))
                .then(|| {
                    wsan_obs::span(wsan_obs::Level::Debug, "gateway.journal_fsync", Vec::new())
                });
                let seq = match &mut self.journal {
                    Some(journal) => match journal.append(&op) {
                        Ok(seq) => {
                            if let Some(m) = &self.metrics {
                                m.journal_records.inc();
                            }
                            Some(seq)
                        }
                        Err(e) => {
                            // The operation is applied in memory but not
                            // durable: report it as failed so the client
                            // does not rely on it surviving a restart.
                            return error_response(
                                Some(op.name()),
                                "journal",
                                &format!("operation applied but not durable: {e}"),
                                false,
                                None,
                            );
                        }
                    },
                    None => None,
                };
                ok_response(&op, seq, &report, elapsed, self.overloaded, budget_exceeded)
            }
            Err(e) => {
                if let Some(m) = &self.metrics {
                    m.rejected.inc();
                }
                let (kind, retryable) = classify(&e);
                error_response(Some(op.name()), kind, &e.to_string(), retryable, None)
            }
        }
    }

    fn handle_status(&self) -> Value {
        let names: Vec<Value> = self.state.flow_names().into_iter().map(str_value).collect();
        obj(vec![
            ("ok", Value::Bool(true)),
            ("op", str_value("status")),
            ("flows", Value::UInt(self.state.len() as u64)),
            ("names", Value::Seq(names)),
            ("horizon", Value::UInt(u64::from(self.state.schedule().horizon()))),
            ("entries", Value::UInt(self.state.schedule().entry_count() as u64)),
            ("retired_links", Value::UInt(self.state.retired().len() as u64)),
            ("overloaded", Value::Bool(self.overloaded)),
            ("requests", Value::UInt(self.requests)),
            (
                "journal_seq",
                match &self.journal {
                    Some(j) => Value::UInt(j.next_seq().saturating_sub(1)),
                    None => Value::Null,
                },
            ),
        ])
    }

    fn handle_export(&self, path: Option<&str>) -> Value {
        let csv = export::to_csv(self.state.schedule());
        match path {
            Some(path) => match std::fs::write(path, &csv) {
                Ok(()) => obj(vec![
                    ("ok", Value::Bool(true)),
                    ("op", str_value("export")),
                    ("path", str_value(path)),
                    ("bytes", Value::UInt(csv.len() as u64)),
                    ("entries", Value::UInt(self.state.schedule().entry_count() as u64)),
                ]),
                Err(e) => error_response(
                    Some("export"),
                    "io",
                    &format!("cannot write {path}: {e}"),
                    false,
                    None,
                ),
            },
            None => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("export")),
                ("csv", Value::Str(csv)),
            ]),
        }
    }

    /// Applies a validated operation to the gateway state. Shared by live
    /// requests and journal replay — both paths are deterministic.
    fn apply(&mut self, op: &GatewayOp) -> Result<DeltaReport, GatewayError> {
        match op {
            GatewayOp::AddFlow { name, source, dest, period, deadline } => {
                let route = self.route_of(*source, *dest)?;
                let period = parse_period(*period)?;
                self.state.add_flow(name, FlowSpec { route, period, deadline_slots: *deadline })
            }
            GatewayOp::RemoveFlow { name } => self.state.remove_flow(name),
            GatewayOp::UpdateRate { name, period, deadline } => {
                let period = parse_period(*period)?;
                self.state.update_rate(name, period, *deadline)
            }
            GatewayOp::RetireLink { tx, rx } => {
                let n = self.state.model().node_count();
                if *tx >= n || *rx >= n || tx == rx {
                    return Err(GatewayError::InvalidSpec {
                        reason: format!("invalid link {tx}->{rx} (network has {n} nodes)"),
                    });
                }
                let a = NodeId::new(*tx);
                let b = NodeId::new(*rx);
                self.remove_routing_edge(a, b);
                self.state.retire_links(&[DirectedLink::new(a, b), DirectedLink::new(b, a)])
            }
        }
    }

    fn route_of(&self, source: usize, dest: usize) -> Result<wsan_net::Route, GatewayError> {
        let n = self.routing.node_count();
        if source >= n || dest >= n {
            return Err(GatewayError::InvalidSpec {
                reason: format!("endpoint out of range (network has {n} nodes)"),
            });
        }
        routing::shortest_path(&self.routing, NodeId::new(source), NodeId::new(dest)).map_err(|e| {
            GatewayError::InvalidSpec { reason: format!("no route {source}->{dest}: {e}") }
        })
    }

    /// Drops the undirected edge `a—b` from the routing graph so future
    /// admissions route around the retired link.
    fn remove_routing_edge(&mut self, a: NodeId, b: NodeId) {
        let n = self.routing.node_count();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for u in 0..n {
            let un = NodeId::new(u);
            for &v in self.routing.neighbors(un) {
                if un < v && !((un == a && v == b) || (un == b && v == a)) {
                    edges.push((un, v));
                }
            }
        }
        self.routing = CommGraph::from_edges(n, &edges);
    }
}

fn classify(e: &GatewayError) -> (&'static str, bool) {
    match e {
        GatewayError::DuplicateFlow { .. }
        | GatewayError::UnknownFlow { .. }
        | GatewayError::InvalidSpec { .. }
        | GatewayError::RetiredLink { .. } => ("validation", false),
        GatewayError::CapacityExceeded { .. } => ("capacity", false),
        GatewayError::Infeasible { .. } => ("infeasible", false),
        GatewayError::Schedule(_) => ("internal", false),
    }
}

fn parse_period(slots: u32) -> Result<Period, GatewayError> {
    Period::from_slots(slots).map_err(|e| GatewayError::InvalidSpec { reason: e.to_string() })
}

// ---- response construction -------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn ok_response(
    op: &GatewayOp,
    seq: Option<u64>,
    report: &DeltaReport,
    elapsed: Duration,
    overloaded: bool,
    budget_exceeded: bool,
) -> Value {
    let evicted: Vec<Value> = report.evicted.iter().map(|n| str_value(n)).collect();
    obj(vec![
        ("ok", Value::Bool(true)),
        ("op", str_value(op.name())),
        (
            "seq",
            match seq {
                Some(s) => Value::UInt(s),
                None => Value::Null,
            },
        ),
        ("path", Value::Str(report.path.to_string())),
        ("evicted", Value::Seq(evicted)),
        ("reschedules", Value::UInt(u64::from(report.reschedules))),
        ("flows", Value::UInt(report.flows as u64)),
        ("horizon", Value::UInt(u64::from(report.horizon))),
        ("entries", Value::UInt(report.entries as u64)),
        ("elapsed_us", Value::UInt(elapsed.as_micros().min(u128::from(u64::MAX)) as u64)),
        ("budget_exceeded", Value::Bool(budget_exceeded)),
        ("overloaded", Value::Bool(overloaded)),
    ])
}

fn error_response(
    op: Option<&str>,
    kind: &str,
    message: &str,
    retryable: bool,
    backoff_ms: Option<u64>,
) -> Value {
    let mut fields = vec![
        ("ok", Value::Bool(false)),
        (
            "op",
            match op {
                Some(o) => str_value(o),
                None => Value::Null,
            },
        ),
        ("error", obj(vec![("kind", str_value(kind)), ("message", str_value(message))])),
        ("retryable", Value::Bool(retryable)),
    ];
    if let Some(ms) = backoff_ms {
        fields.push(("backoff_ms", Value::UInt(ms)));
    }
    obj(fields)
}

// ---- request parsing -------------------------------------------------------

fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let map = value
        .as_map()
        .ok_or_else(|| format!("request must be a JSON object, got {}", value.kind()))?;
    let op = get_str(map, "op")?;
    match op {
        "add_flow" => Ok(Request::Mutate(GatewayOp::AddFlow {
            name: get_str(map, "name")?.to_string(),
            source: get_uint(map, "source")? as usize,
            dest: get_uint(map, "dest")? as usize,
            period: get_u32(map, "period")?,
            deadline: get_u32(map, "deadline")?,
        })),
        "remove_flow" => {
            Ok(Request::Mutate(GatewayOp::RemoveFlow { name: get_str(map, "name")?.to_string() }))
        }
        "update_rate" => Ok(Request::Mutate(GatewayOp::UpdateRate {
            name: get_str(map, "name")?.to_string(),
            period: get_u32(map, "period")?,
            deadline: get_u32(map, "deadline")?,
        })),
        "retire_link" => Ok(Request::Mutate(GatewayOp::RetireLink {
            tx: get_uint(map, "tx")? as usize,
            rx: get_uint(map, "rx")? as usize,
        })),
        "status" => Ok(Request::Status),
        "export" => Ok(Request::Export { path: get_opt_str(map, "path")?.map(str::to_string) }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op {other:?} (expected add_flow, remove_flow, update_rate, \
             retire_link, status, export, or shutdown)"
        )),
    }
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn get_str<'a>(map: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
    match get(map, key)? {
        Value::Str(s) => Ok(s),
        other => Err(format!("field {key:?} must be a string, got {}", other.kind())),
    }
}

fn get_opt_str<'a>(map: &'a [(String, Value)], key: &str) -> Result<Option<&'a str>, String> {
    match map.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(other) => Err(format!("field {key:?} must be a string, got {}", other.kind())),
    }
}

fn get_uint(map: &[(String, Value)], key: &str) -> Result<u64, String> {
    match get(map, key)? {
        Value::UInt(u) => Ok(*u),
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("field {key:?} must be a non-negative integer, got {}", other.kind())),
    }
}

fn get_u32(map: &[(String, Value)], key: &str) -> Result<u32, String> {
    let v = get_uint(map, key)?;
    u32::try_from(v).map_err(|_| format!("field {key:?} too large: {v}"))
}

#[cfg(test)]
mod tests {
    use super::super::GatewayConfig;
    use super::*;
    use crate::test_util::path_graph;
    use crate::{NetworkModel, ReuseConservatively};
    use std::path::PathBuf;

    fn line_network(nodes: usize) -> (NetworkModel, CommGraph) {
        let model = NetworkModel::from_reuse_graph(&path_graph(nodes), 2);
        let edges: Vec<(NodeId, NodeId)> =
            (0..nodes - 1).map(|i| (NodeId::new(i), NodeId::new(i + 1))).collect();
        (model, CommGraph::from_edges(nodes, &edges))
    }

    fn service(nodes: usize) -> GatewayService {
        let (model, comm) = line_network(nodes);
        let state = GatewayState::new(
            model,
            Box::new(ReuseConservatively::new(2)),
            GatewayConfig::default(),
        );
        GatewayService::new(state, comm, JournalHeader::new("test-net", "rc/2"))
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wsan-gateway-service");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn malformed_input_never_panics_and_is_typed() {
        let mut svc = service(6);
        for line in [
            "",
            "not json",
            "[1,2,3]",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"add_flow\"}",
            "{\"op\":\"add_flow\",\"name\":7,\"source\":0,\"dest\":1,\"period\":100,\"deadline\":50}",
            "{\"op\":\"add_flow\",\"name\":\"a\",\"source\":-3,\"dest\":1,\"period\":100,\"deadline\":50}",
            "{\"no_op\":true}",
        ] {
            let resp = svc.handle_line(line);
            assert!(resp.contains("\"ok\":false"), "line {line:?} -> {resp}");
            assert!(resp.contains("\"malformed\""), "line {line:?} -> {resp}");
        }
        assert_eq!(svc.state().len(), 0);
    }

    #[test]
    fn add_status_remove_flow_through_the_protocol() {
        let mut svc = service(8);
        let resp = svc.handle_line(
            "{\"op\":\"add_flow\",\"name\":\"f1\",\"source\":0,\"dest\":3,\"period\":100,\"deadline\":80}",
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"path\":\"full\""), "{resp}");
        let resp = svc.handle_line("{\"op\":\"status\"}");
        assert!(resp.contains("\"flows\":1"), "{resp}");
        assert!(resp.contains("\"f1\""), "{resp}");
        let resp = svc.handle_line("{\"op\":\"remove_flow\",\"name\":\"f1\"}");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = svc.handle_line("{\"op\":\"remove_flow\",\"name\":\"f1\"}");
        assert!(resp.contains("\"validation\""), "{resp}");
        assert!(resp.contains("\"retryable\":false"), "{resp}");
    }

    #[test]
    fn flight_recorder_captures_a_session_and_exports_a_chrome_trace() {
        let dump_path = temp_path("flightrec-dump");
        let _ = std::fs::remove_file(&dump_path);
        let _rec = wsan_obs::flightrec::arm(1024, wsan_obs::Level::Debug);
        let mut svc = service(8).with_flightrec_dump(Some(dump_path.clone()));
        let resp = svc.handle_line(
            "{\"op\":\"add_flow\",\"name\":\"f1\",\"source\":0,\"dest\":3,\"period\":100,\"deadline\":80}",
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // a failing request triggers the on-error JSONL dump of the ring
        let resp = svc.handle_line("{\"op\":\"frobnicate\"}");
        assert!(resp.contains("\"ok\":false"), "{resp}");
        wsan_obs::flightrec::disarm();

        let raw = std::fs::read_to_string(&dump_path).expect("error dump written");
        let records: Vec<wsan_obs::FlightRecord> =
            raw.lines().map(|l| serde_json::from_str(l).expect("record parses")).collect();
        assert!(!records.is_empty());
        assert!(records.iter().any(|r| r.name == "gateway.request"), "{records:?}");
        assert!(records.iter().any(|r| r.name == "gateway.admit"), "{records:?}");
        assert!(
            records.iter().any(|r| r.kind == "event" && r.level == "error"),
            "the failure itself must be recorded: {records:?}"
        );
        // every span/event of one request carries the same request id
        let failed = records.iter().rfind(|r| r.level == "error").expect("error event");
        assert!(failed.request > 0);

        // the dump round-trips through the Chrome trace_event exporter
        let chrome = wsan_obs::chrome_trace(&records);
        let doc: serde::value::Value = serde_json::from_str(&chrome).expect("chrome trace parses");
        let events = doc.get("traceEvents").expect("traceEvents").as_seq().expect("list");
        assert!(!events.is_empty());
        let _ = std::fs::remove_file(&dump_path);
    }

    #[test]
    fn unreachable_and_out_of_range_endpoints_are_validation_errors() {
        let mut svc = service(4);
        let resp = svc.handle_line(
            "{\"op\":\"add_flow\",\"name\":\"a\",\"source\":0,\"dest\":99,\"period\":100,\"deadline\":50}",
        );
        assert!(resp.contains("\"validation\""), "{resp}");
        let resp = svc.handle_line(
            "{\"op\":\"add_flow\",\"name\":\"a\",\"source\":2,\"dest\":2,\"period\":100,\"deadline\":50}",
        );
        assert!(resp.contains("\"validation\""), "{resp}");
    }

    #[test]
    fn retire_link_reroutes_future_admissions() {
        // ring: 0-1-2-3-0 so an alternate route exists
        let model = NetworkModel::from_reuse_graph(&path_graph(4), 2);
        let comm = CommGraph::from_edges(
            4,
            &[
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(1), NodeId::new(2)),
                (NodeId::new(2), NodeId::new(3)),
                (NodeId::new(3), NodeId::new(0)),
            ],
        );
        let state = GatewayState::new(
            model,
            Box::new(ReuseConservatively::new(2)),
            GatewayConfig::default(),
        );
        let mut svc = GatewayService::new(state, comm, JournalHeader::new("ring", "rc/2"));
        let resp = svc.handle_line("{\"op\":\"retire_link\",\"tx\":0,\"rx\":1}");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // 0 -> 1 must now route the long way round: 0-3-2-1
        let resp = svc.handle_line(
            "{\"op\":\"add_flow\",\"name\":\"a\",\"source\":0,\"dest\":1,\"period\":100,\"deadline\":80}",
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let spec = svc.state().spec("a").unwrap();
        assert_eq!(spec.route.hop_count(), 3, "route must avoid the retired link");
    }

    #[test]
    fn journal_records_only_successful_ops_and_resume_replays_them() {
        let path = temp_path("replay");
        let script = [
            "{\"op\":\"add_flow\",\"name\":\"a\",\"source\":0,\"dest\":2,\"period\":100,\"deadline\":80}",
            "{\"op\":\"add_flow\",\"name\":\"a\",\"source\":0,\"dest\":2,\"period\":100,\"deadline\":80}", // duplicate: rejected
            "{\"op\":\"add_flow\",\"name\":\"b\",\"source\":3,\"dest\":5,\"period\":200,\"deadline\":150}",
            "{\"op\":\"update_rate\",\"name\":\"a\",\"period\":200,\"deadline\":100}",
            "{\"op\":\"bogus\"}", // malformed: not journaled
            "{\"op\":\"remove_flow\",\"name\":\"b\"}",
        ];
        let mut svc = service(8);
        svc.journal_create(&path).unwrap();
        for line in script {
            let _ = svc.handle_line(line);
        }
        let reference_csv = export::to_csv(svc.state().schedule());
        let reference_names: Vec<String> =
            svc.state().flow_names().iter().map(|s| s.to_string()).collect();
        drop(svc);

        let mut restored = service(8);
        let replayed = restored.journal_resume(&path).unwrap();
        assert_eq!(replayed, 4, "only the successful mutations are journaled");
        assert_eq!(
            restored.state().flow_names().iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            reference_names
        );
        assert_eq!(export::to_csv(restored.state().schedule()), reference_csv);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overload_sheds_lowest_priority_admissions_with_backoff() {
        // Budget of zero: every operation overruns, arming the shedding
        // policy after the first mutate.
        let mut svc = service(10).with_budget(Some(Duration::from_secs(0)));
        let resp = svc.handle_line(
            "{\"op\":\"add_flow\",\"name\":\"a\",\"source\":0,\"dest\":2,\"period\":100,\"deadline\":50}",
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"budget_exceeded\":true"), "{resp}");
        assert!(svc.overloaded());
        // an admission no more urgent than the least urgent flow is shed
        let resp = svc.handle_line(
            "{\"op\":\"add_flow\",\"name\":\"b\",\"source\":3,\"dest\":5,\"period\":100,\"deadline\":90}",
        );
        assert!(resp.contains("\"overloaded\""), "{resp}");
        assert!(resp.contains("\"retryable\":true"), "{resp}");
        assert!(resp.contains("\"backoff_ms\""), "{resp}");
        assert_eq!(svc.state().len(), 1);
        // a more urgent admission is still processed
        let resp = svc.handle_line(
            "{\"op\":\"add_flow\",\"name\":\"c\",\"source\":3,\"dest\":5,\"period\":100,\"deadline\":20}",
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert_eq!(svc.state().len(), 2);
    }

    #[test]
    fn export_inline_and_to_file() {
        let mut svc = service(6);
        svc.handle_line(
            "{\"op\":\"add_flow\",\"name\":\"a\",\"source\":0,\"dest\":2,\"period\":100,\"deadline\":80}",
        );
        let resp = svc.handle_line("{\"op\":\"export\"}");
        assert!(resp.contains("slot,offset,flow"), "{resp}");
        let path = temp_path("export");
        let resp =
            svc.handle_line(&format!("{{\"op\":\"export\",\"path\":\"{}\"}}", path.display()));
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, export::to_csv(svc.state().schedule()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shutdown_is_acknowledged_and_flagged() {
        let mut svc = service(4);
        assert!(!svc.shutdown_requested());
        let resp = svc.handle_line("{\"op\":\"shutdown\"}");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(svc.shutdown_requested());
    }
}
