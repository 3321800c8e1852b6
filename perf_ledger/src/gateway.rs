//! `gateway-churn`: one op is one `GatewayService::handle_line` request on
//! Indriya-80 (4 channels, RC ρ_t = 2, journal on, no latency budget).
//!
//! A seeded closed-loop client sends `add_flow` (tail and mid-order
//! deadlines), `remove_flow`, `update_rate`, rare `retire_link` and
//! `status`, each after the previous reply, and tracks the admitted
//! population from the replies. It holds the population near the plant's
//! capacity, where an occasional admission is refused. Set-up is
//! the crash-restart cost: `journal_resume` of a warm-up journal recorded
//! by the same client.
//!
//! The traced run keeps two bare replicas — a `GatewayState`, a routing
//! graph and a separate `Journal` each — in step with the service, with one
//! span per call into routing, the delta scheduler and the journal.

use crate::trace::{durations_ms, median, ns_to_ms, quantile, Paired, Tracer};
use crate::{chunk, mix, op_count, timed, Digest, Opts, Outcome};
use serde::value::Value;
use std::path::{Path, PathBuf};
use wsan_core::gateway::journal::{GatewayOp, Journal, JournalHeader};
use wsan_core::gateway::service::GatewayService;
use wsan_core::gateway::{DeltaReport, FlowSpec, GatewayConfig, GatewayError, GatewayState};
use wsan_core::{validate, NetworkModel, ReuseConservatively, Scheduler};
use wsan_expr::sharding::schedule_digest;
use wsan_flow::Period;
use wsan_net::{
    routing, testbeds, ChannelId, ChannelSet, CommGraph, DirectedLink, NodeId, Prr, Topology,
};
use wsan_sim::{SimConfig, Simulator};

/// The testbed is the same for every seed; the request stream varies.
const TOPOLOGY_SEED: u64 = 42;
const RHO_T: u32 = 2;
/// Period (slots) of every admitted flow.
const PERIOD: u32 = 256;
/// Retired links persist and lengthen later routes, so the plant's capacity
/// depends on which links went; a small budget keeps that from drifting the
/// run's admission load apart between seeds.
const MAX_RETIREMENTS: usize = 4;

struct Shape {
    journal_ops: usize,
    setup_reps: usize,
    warmup: usize,
    ops: usize,
}

fn shape(opts: &Opts) -> Shape {
    if opts.tiny {
        Shape { journal_ops: 40, setup_reps: 1, warmup: 5, ops: 30 }
    } else {
        Shape { journal_ops: 3000, setup_reps: 5, warmup: 50, ops: op_count(opts, 700) }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
enum Request {
    Add { name: String, source: usize, dest: usize, period: u32, deadline: u32 },
    Remove { name: String },
    Update { name: String, period: u32, deadline: u32 },
    Retire { a: usize, b: usize },
    Status,
}

impl Request {
    fn line(&self) -> String {
        match self {
            Request::Add { name, source, dest, period, deadline } => format!(
                r#"{{"op":"add_flow","name":"{name}","source":{source},"dest":{dest},"period":{period},"deadline":{deadline}}}"#
            ),
            Request::Remove { name } => format!(r#"{{"op":"remove_flow","name":"{name}"}}"#),
            Request::Update { name, period, deadline } => format!(
                r#"{{"op":"update_rate","name":"{name}","period":{period},"deadline":{deadline}}}"#
            ),
            Request::Retire { a, b } => format!(r#"{{"op":"retire_link","tx":{a},"rx":{b}}}"#),
            Request::Status => r#"{"op":"status"}"#.to_string(),
        }
    }

    fn journal_op(&self) -> Option<GatewayOp> {
        Some(match self.clone() {
            Request::Add { name, source, dest, period, deadline } => {
                GatewayOp::AddFlow { name, source, dest, period, deadline }
            }
            Request::Remove { name } => GatewayOp::RemoveFlow { name },
            Request::Update { name, period, deadline } => {
                GatewayOp::UpdateRate { name, period, deadline }
            }
            Request::Retire { a, b } => GatewayOp::RetireLink { tx: a, rx: b },
            Request::Status => return None,
        })
    }
}

/// The fields of a reply the client and the gates look at.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reply {
    ok: bool,
    /// Error kind of a failed request, empty on success.
    kind: String,
    /// Delta path of a successful mutation, empty otherwise.
    path: String,
    evicted: Vec<String>,
    reschedules: u64,
    flows: u64,
}

impl Reply {
    fn parse(line: &str) -> Result<Reply, String> {
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("unparsable reply {line}: {e}"))?;
        let text = |v: Option<&Value>| match v {
            Some(Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let uint = |v: Option<&Value>| match v {
            Some(Value::UInt(u)) => *u,
            Some(Value::Int(i)) => *i as u64,
            _ => 0,
        };
        let evicted = v
            .get("evicted")
            .and_then(Value::as_seq)
            .map(|s| s.iter().map(|n| text(Some(n))).collect())
            .unwrap_or_default();
        let is_status = text(v.get("op")) == "status";
        Ok(Reply {
            ok: v.get("ok") == Some(&Value::Bool(true)),
            kind: text(v.get("error").and_then(|e| e.get("kind"))),
            path: text(v.get("path")),
            evicted,
            reschedules: uint(v.get("reschedules")),
            flows: if is_status { 0 } else { uint(v.get("flows")) },
        })
    }

    fn from_result(result: &Result<DeltaReport, GatewayError>) -> Reply {
        match result {
            Ok(r) => Reply {
                ok: true,
                kind: String::new(),
                path: r.path.to_string(),
                evicted: r.evicted.clone(),
                reschedules: u64::from(r.reschedules),
                flows: r.flows as u64,
            },
            Err(e) => Reply::error(error_kind(e)),
        }
    }

    fn error(kind: &str) -> Reply {
        Reply {
            ok: false,
            kind: kind.to_string(),
            path: String::new(),
            evicted: Vec::new(),
            reschedules: 0,
            flows: 0,
        }
    }

    fn status() -> Reply {
        Reply { ok: true, ..Reply::error("") }
    }

    /// A correct answer that declines the request for lack of capacity.
    fn refused(&self) -> bool {
        !self.ok && (self.kind == "infeasible" || self.kind == "capacity")
    }

    /// Flows the delta scheduler re-placed to answer a mutation.
    fn replaced_flows(&self) -> u64 {
        match self.path.split_once(':') {
            Some(("suffix", from)) => self.flows.saturating_sub(from.parse().unwrap_or(0)),
            _ if self.path == "full" => self.flows,
            _ if self.path == "recovery" && self.reschedules > 0 => self.flows,
            _ => 0,
        }
    }
}

/// The service's error kind for a gateway error.
fn error_kind(e: &GatewayError) -> &'static str {
    match e {
        GatewayError::CapacityExceeded { .. } => "capacity",
        GatewayError::Infeasible { .. } => "infeasible",
        GatewayError::Schedule(_) => "internal",
        _ => "validation",
    }
}

/// `graph` without the undirected edge `a—b`, as the service rebuilds its
/// routing graph when a link is retired.
fn without_edge(graph: &CommGraph, a: usize, b: usize) -> CommGraph {
    let n = graph.node_count();
    let mut edges = Vec::new();
    for u in 0..n {
        for &v in graph.neighbors(NodeId::new(u)) {
            let (x, y) = (u, v.index());
            if x < y && !((x == a && y == b) || (x == b && y == a)) {
                edges.push((NodeId::new(x), NodeId::new(y)));
            }
        }
    }
    CommGraph::from_edges(n, &edges)
}

/// The two flow classes the client admits. Both use [`PERIOD`], so the
/// hyperperiod never changes and the delta path depends only on where a
/// change lands in the Deadline-Monotonic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Control loops: mid-order deadlines in `[PERIOD/8, 5·PERIOD/8)`,
    /// long-lived. Their admissions and re-rates re-place most flows.
    Control,
    /// Monitoring flows: the laxest deadline (`D = P`), short-lived. They
    /// sort to the tail, where admissions and removals re-place a suffix.
    Monitor,
}

impl Class {
    /// Admitted flows of this class the client keeps. Together they sit
    /// near Indriya-80's capacity on four channels, where an occasional
    /// admission is refused or evicts monitors; fixed, so the cost of a
    /// request does not wander with a freely drifting population or mix.
    fn target(self) -> usize {
        match self {
            Class::Control => 110,
            Class::Monitor => 40,
        }
    }
}

/// The seeded closed-loop client. It decides each request from its own
/// view of the admitted flows and the routing graph, both updated from the
/// previous replies.
///
/// One request in ten is a `status` read and one in a thousand a
/// `retire_link` (at most [`MAX_RETIREMENTS`] per run). Every other request
/// touches a monitor (60 %) or a control flow (40 %): an admission while
/// fewer flows of that class than its [`Class::target`] are admitted, else
/// a removal, or for a control flow one time in four a re-rate.
struct Client {
    rng: u64,
    live: Vec<(String, Class)>,
    next_name: u64,
    graph: CommGraph,
    retirements: usize,
}

impl Client {
    fn new(seed: u64, graph: CommGraph) -> Self {
        Client { rng: seed, live: Vec::new(), next_name: 0, graph, retirements: 0 }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.rng, 0) % n
    }

    fn control_deadline(&mut self) -> u32 {
        PERIOD / 8 + self.below(u64::from(PERIOD / 2)) as u32
    }

    /// A uniformly drawn admitted flow of `class`.
    fn pick(&mut self, class: Class) -> Option<String> {
        let count = self.live.iter().filter(|(_, c)| *c == class).count() as u64;
        if count == 0 {
            return None;
        }
        let k = self.below(count) as usize;
        self.live.iter().filter(|(_, c)| *c == class).nth(k).map(|(n, _)| n.clone())
    }

    fn next(&mut self) -> Request {
        let roll = self.below(1000);
        if roll < 100 {
            return Request::Status;
        }
        if let Some(retire) = (roll == 100).then(|| self.retire()).flatten() {
            return retire;
        }
        let class = if self.below(10) < 6 { Class::Monitor } else { Class::Control };
        if self.live.iter().filter(|(_, c)| *c == class).count() < class.target() {
            return self.add(class);
        }
        let name = self.pick(class).expect("the class is at its target, so it has flows");
        if class == Class::Control && self.below(4) == 0 {
            return Request::Update { name, period: PERIOD, deadline: self.control_deadline() };
        }
        Request::Remove { name }
    }

    fn add(&mut self, class: Class) -> Request {
        let n = self.graph.node_count() as u64;
        let (mut source, mut dest) = (0, 1);
        for _ in 0..32 {
            source = self.below(n) as usize;
            dest = self.below(n) as usize;
            if source != dest
                && routing::shortest_path(&self.graph, NodeId::new(source), NodeId::new(dest))
                    .is_ok()
            {
                break;
            }
        }
        let deadline = match class {
            Class::Control => self.control_deadline(),
            Class::Monitor => PERIOD,
        };
        self.next_name += 1;
        let prefix = if class == Class::Control { "c" } else { "m" };
        Request::Add {
            name: format!("{prefix}{}", self.next_name),
            source,
            dest,
            period: PERIOD,
            deadline,
        }
    }

    /// A link whose retirement keeps the routing graph connected, while
    /// the run's retirement budget lasts.
    fn retire(&mut self) -> Option<Request> {
        if self.retirements == MAX_RETIREMENTS {
            return None;
        }
        let n = self.graph.node_count() as u64;
        for _ in 0..8 {
            let a = self.below(n) as usize;
            let degree = self.graph.neighbors(NodeId::new(a)).len() as u64;
            if degree == 0 {
                continue;
            }
            let pick = self.below(degree) as usize;
            let b = self.graph.neighbors(NodeId::new(a))[pick].index();
            if without_edge(&self.graph, a, b).is_connected() {
                return Some(Request::Retire { a, b });
            }
        }
        None
    }

    fn observe(&mut self, request: &Request, reply: &Reply) {
        match request {
            Request::Add { name, deadline, .. } if reply.ok => {
                let class = if *deadline == PERIOD { Class::Monitor } else { Class::Control };
                self.live.push((name.clone(), class));
            }
            Request::Remove { name } if reply.ok => self.live.retain(|(n, _)| n != name),
            // The service drops the routing edge whether or not the
            // retirement evicts anything.
            Request::Retire { a, b } => {
                self.graph = without_edge(&self.graph, *a, *b);
                self.retirements += 1;
            }
            _ => {}
        }
        self.live.retain(|(n, _)| !reply.evicted.contains(n));
    }
}

struct Setup {
    topology: Topology,
    channels: ChannelSet,
    comm: CommGraph,
    model: NetworkModel,
}

impl Setup {
    fn header(&self) -> JournalHeader {
        JournalHeader::new(
            format!("indriya/seed={TOPOLOGY_SEED}/ch=11-14/prr=0.9"),
            format!("rc/{RHO_T}"),
        )
    }

    fn state(&self) -> GatewayState {
        GatewayState::new(
            self.model.clone(),
            Box::new(ReuseConservatively::new(RHO_T)),
            GatewayConfig { rho_t: Some(RHO_T), ..GatewayConfig::default() },
        )
    }

    fn service(&self) -> GatewayService {
        GatewayService::new(self.state(), self.comm.clone(), self.header())
    }
}

fn fresh_path(dir: &Path, name: &str) -> Result<PathBuf, String> {
    let path = dir.join(name);
    match std::fs::remove_file(&path) {
        Ok(()) => Ok(path),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(path),
        Err(e) => Err(format!("cannot remove {}: {e}", path.display())),
    }
}

/// One closed-loop exchange: the client's next request, the service's
/// reply (and the wall time of `handle_line` in ms), and the client's
/// update from that reply.
fn exchange(
    client: &mut Client,
    service: &mut GatewayService,
    history: &mut Vec<Request>,
) -> Result<(Reply, f64), String> {
    let request = client.next();
    let line = request.line();
    let (response, secs) = timed(|| service.handle_line(&line));
    let reply = Reply::parse(&response)?;
    client.observe(&request, &reply);
    history.push(request);
    Ok((reply, secs * 1e3))
}

/// A bare gateway — `GatewayState`, routing graph and a journal of its
/// own — that a traced run keeps in step with the service by applying the
/// same requests through the layers' public calls.
struct Replica {
    state: GatewayState,
    graph: CommGraph,
    journal: Journal,
}

impl Replica {
    /// A replica in the state of a service that has answered `history`,
    /// journaling to a fresh file at `path`.
    fn new(setup: &Setup, history: &[Request], path: &Path) -> Result<Self, String> {
        let journal = Journal::create(path, &setup.header()).map_err(|e| e.to_string())?;
        let mut replica = Replica { state: setup.state(), graph: setup.comm.clone(), journal };
        let mut idle = Tracer::new(false);
        for request in history {
            replica.apply(&mut idle, request)?;
        }
        Ok(replica)
    }

    /// Applies one request, one span per layer call.
    fn apply(&mut self, t: &mut Tracer, request: &Request) -> Result<Reply, String> {
        let state = &mut self.state;
        let result = match request {
            Request::Status => {
                t.span("core.gateway.status", |_| {
                    std::hint::black_box((
                        state.len(),
                        state.schedule().entry_count(),
                        state.flow_names().len(),
                    ));
                });
                return Ok(Reply::status());
            }
            Request::Add { name, source, dest, period, deadline } => {
                let graph = &self.graph;
                let route = t.span("net.routing.route", |_| {
                    routing::shortest_path(graph, NodeId::new(*source), NodeId::new(*dest))
                });
                let Ok(route) = route else { return Ok(Reply::error("validation")) };
                let period = Period::from_slots(*period).map_err(|e| e.to_string())?;
                let spec = FlowSpec { route, period, deadline_slots: *deadline };
                t.span("core.gateway.admit", |_| state.add_flow(name, spec))
            }
            Request::Remove { name } => t.span("core.gateway.admit", |_| state.remove_flow(name)),
            Request::Update { name, period, deadline } => {
                let period = Period::from_slots(*period).map_err(|e| e.to_string())?;
                t.span("core.gateway.admit", |_| state.update_rate(name, period, *deadline))
            }
            Request::Retire { a, b } => {
                let graph = &self.graph;
                self.graph = t.span("net.routing.retire_edge", |_| without_edge(graph, *a, *b));
                let (a, b) = (NodeId::new(*a), NodeId::new(*b));
                t.span("core.gateway.admit", |_| {
                    state.retire_links(&[DirectedLink::new(a, b), DirectedLink::new(b, a)])
                })
            }
        };
        if result.is_ok() {
            let op = request.journal_op().expect("mutating request");
            let journal = &mut self.journal;
            t.span("core.gateway.journal.append", |_| journal.append(&op))
                .map_err(|e| e.to_string())?;
        }
        Ok(Reply::from_result(&result))
    }
}

/// Network PDR of `state`'s schedule over one fault-free simulated epoch.
fn schedule_pdr(setup: &Setup, state: &GatewayState, seed: u64) -> Result<f64, String> {
    let flows = state.flow_set();
    let sim = Simulator::try_new(&setup.topology, &setup.channels, &flows, state.schedule())
        .map_err(|e| e.to_string())?;
    let report = sim
        .try_run(&SimConfig { seed, repetitions: 20, ..SimConfig::default() })
        .map_err(|e| e.to_string())?;
    Ok(report.network_pdr())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let s = shape(opts);
    let topology = testbeds::indriya(TOPOLOGY_SEED);
    let channels = ChannelId::range(11, 14).map_err(|e| e.to_string())?;
    let comm = topology.comm_graph(&channels, Prr::new(0.9).map_err(|e| e.to_string())?);
    let model = NetworkModel::new(&topology, &channels);
    let setup = Setup { topology, channels, comm, model };

    // Record the warm-up journal with the client itself. The live service
    // resumes from a copy and appends to it; later set-up repetitions
    // resume the untouched original.
    let warm_path = fresh_path(&opts.work_dir, &format!("gateway-warm-seed{}.wal", opts.seed))?;
    let journal_path = fresh_path(&opts.work_dir, &format!("gateway-seed{}.wal", opts.seed))?;
    let mut client = Client::new(mix(opts.seed, 0x6761_7465), setup.comm.clone());
    let mut history = Vec::with_capacity(s.journal_ops + s.warmup + s.ops);
    {
        let mut recorder = setup.service();
        recorder.journal_create(&warm_path).map_err(|e| e.to_string())?;
        for _ in 0..s.journal_ops {
            exchange(&mut client, &mut recorder, &mut history)?;
        }
    }
    std::fs::copy(&warm_path, &journal_path)
        .map_err(|e| format!("cannot copy the journal: {e}"))?;
    let resume = |path: &Path| -> Result<(GatewayService, f64), String> {
        let mut service = setup.service();
        let (resumed, secs) = timed(|| service.journal_resume(path));
        resumed.map_err(|e| format!("journal resume failed: {e}"))?;
        Ok((service, secs))
    };

    // Set-up is the crash-restart cost: resume from the journal. Its
    // repetitions interleave with chunks of the timed ops.
    let (mut service, first_setup) = resume(&journal_path)?;
    let mut setup_samples = vec![first_setup];
    for _ in 0..s.warmup {
        exchange(&mut client, &mut service, &mut history)?;
    }
    // A traced run keeps two replicas in step with the service through the
    // first chunk: each request goes to the service, then untraced and
    // traced to the replicas.
    let traced_ops = if opts.trace { chunk(s.ops, s.setup_reps, 0).end } else { 0 };
    let mut temp_files = vec![warm_path.clone(), journal_path];
    let mut replicas = None;
    if opts.trace {
        let mut make = |name: &str| -> Result<Replica, String> {
            let path =
                fresh_path(&opts.work_dir, &format!("gateway-{name}-seed{}.wal", opts.seed))?;
            temp_files.push(path.clone());
            Replica::new(&setup, &history, &path)
        };
        replicas = Some((make("plain")?, make("traced")?));
    }
    let mut paired = Paired::new();
    let mut traced_replies = Vec::with_capacity(traced_ops);
    let mut op_ms = Vec::with_capacity(s.ops);
    let mut replies = Vec::with_capacity(s.ops);
    for rep in 0..s.setup_reps {
        if rep > 0 {
            setup_samples.push(resume(&warm_path)?.1);
        }
        for k in chunk(s.ops, s.setup_reps, rep) {
            let (reply, ms) = exchange(&mut client, &mut service, &mut history)?;
            op_ms.push(ms);
            replies.push(reply);
            if let (true, Some((plain, traced))) = (k < traced_ops, replicas.as_mut()) {
                let request = history.last().expect("a request was just sent");
                traced_replies.push(paired.run(k as u32, |t, is_traced| {
                    if is_traced {
                        traced.apply(t, request)
                    } else {
                        plain.apply(t, request)
                    }
                })?);
            }
        }
    }
    let setup_s = median(&setup_samples);

    let mut gate_errors = Vec::new();
    let state = service.state();
    let flows = state.flow_set();
    let oracle = ReuseConservatively::new(RHO_T)
        .schedule(&flows, state.model())
        .map_err(|e| format!("recompute oracle failed: {e}"))?;
    let mut served = schedule_digest(state.schedule());
    if opts.corrupt {
        served ^= 1;
    }
    if served != schedule_digest(&oracle) || *state.schedule() != oracle {
        gate_errors
            .push("gateway-churn: final schedule differs from a full RC recompute".to_string());
    }
    if let Err(v) = validate::check(state.schedule(), &flows, state.model(), Some(RHO_T)) {
        gate_errors.push(format!("gateway-churn: final schedule has {} violation(s)", v.len()));
    }
    let residual_pdr = schedule_pdr(&setup, state, mix(opts.seed, 0x7064_7200))?;
    for path in &temp_files {
        std::fs::remove_file(path).map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
    }

    let mut digest = Digest::default();
    for r in &replies {
        digest.eat(u64::from(r.ok));
        digest.eat_str(&r.kind);
        digest.eat_str(&r.path);
        digest.eat(r.evicted.len() as u64);
        digest.eat(r.reschedules);
        digest.eat(r.flows);
    }
    digest.eat(schedule_digest(state.schedule()));
    digest.eat(residual_pdr.to_bits());
    let attempted = replies.len() as u64;
    let ok = replies.iter().filter(|r| r.ok).count() as u64;
    let refused = replies.iter().filter(|r| r.refused()).count() as u64;
    let mut outcome = Outcome {
        attempted,
        failed: attempted - ok - refused,
        metrics: Vec::new(),
        gate_errors,
        outputs_digest: digest.value(),
        tracer: None,
    };
    if !opts.trace {
        outcome.metrics = vec![
            ("setup_s", setup_s),
            ("op_ms", median(&op_ms)),
            ("op_p90_ms", quantile(&op_ms, 0.9)),
            ("ok_ratio", ok as f64 / attempted.max(1) as f64),
            ("residual_pdr", residual_pdr),
        ];
        return Ok(outcome);
    }

    for (i, (traced, served)) in traced_replies.iter().zip(&replies).enumerate() {
        if traced != served {
            outcome
                .gate_errors
                .push(format!("gateway-churn op {i}: traced {traced:?} vs untraced {served:?}"));
        }
    }
    let mutated: Vec<&Reply> =
        traced_replies.iter().filter(|r| r.ok && !r.path.is_empty()).collect();
    let share = |pred: &dyn Fn(&Reply) -> bool| {
        mutated.iter().filter(|r| pred(r)).count() as f64 / mutated.len().max(1) as f64
    };
    let per_mutation = |f: &dyn Fn(&Reply) -> u64| {
        mutated.iter().map(|r| f(r)).sum::<u64>() as f64 / mutated.len().max(1) as f64
    };
    let per_op = |f: &dyn Fn(&Reply) -> u64| {
        traced_replies.iter().map(f).sum::<u64>() as f64 / traced_replies.len().max(1) as f64
    };
    // Service time: the request's wall time minus the time its traced
    // replay, run right after it, spent in routing, admission and journal.
    let overhead = paired.overhead();
    let tracer = paired.traced;
    let mut layer_ns = vec![0u64; traced_replies.len()];
    for (span, ns) in tracer.spans().iter().zip(tracer.self_ns()) {
        if span.parent.is_some() {
            layer_ns[span.op as usize] += ns;
        }
    }
    let service_ms: Vec<f64> =
        op_ms.iter().zip(&layer_ns).map(|(ms, ns)| ms - ns_to_ms(*ns)).collect();
    let admit = durations_ms(tracer.spans(), "core.gateway.admit");
    outcome.metrics = vec![
        ("core.gateway.admit_ms", median(&admit)),
        ("core.gateway.admit_p90_ms", quantile(&admit, 0.9)),
        ("core.gateway.suffix_share", share(&|r| r.path.starts_with("suffix"))),
        ("core.gateway.full_share", share(&|r| r.path == "full")),
        ("core.gateway.replaced_flows", per_mutation(&Reply::replaced_flows)),
        ("core.gateway.reschedules", per_mutation(&|r| r.reschedules)),
        ("core.gateway.evicted", per_op(&|r| r.evicted.len() as u64)),
        ("core.gateway.refused", per_op(&|r| u64::from(r.refused()))),
        (
            "core.gateway.journal.append_ms",
            median(&durations_ms(tracer.spans(), "core.gateway.journal.append")),
        ),
        ("core.gateway.service_ms", median(&service_ms)),
        ("trace.op_ms", median(&tracer.op_ms())),
        ("trace.overhead", overhead),
    ];
    outcome.tracer = Some(tracer);
    Ok(outcome)
}
