//! The gateway's central contract, pinned property-based: after **every**
//! delta operation in a random churn sequence, the incrementally maintained
//! schedule is byte-identical to scheduling the surviving flow set from
//! scratch. Plus crash-safety integration tests: a journal with a torn or
//! garbage tail resumes to exactly the acknowledged state.

use proptest::prelude::*;
use wsan::core::gateway::journal::{JournalError, JournalHeader};
use wsan::core::gateway::service::GatewayService;
use wsan::core::gateway::{FlowSpec, GatewayConfig, GatewayState};
use wsan::core::{export, NetworkModel, ReuseConservatively, Scheduler};
use wsan::flow::Period;
use wsan::net::{CommGraph, DirectedLink, NodeId, ReuseGraph, Route};

/// A small line network: reuse graph and matching communication graph over
/// the path `0 — 1 — … — n-1`.
fn line_network(nodes: usize, channels: usize) -> NetworkModel {
    let edges: Vec<(NodeId, NodeId)> =
        (0..nodes - 1).map(|i| (NodeId::new(i), NodeId::new(i + 1))).collect();
    NetworkModel::from_reuse_graph(&ReuseGraph::from_edges(nodes, &edges), channels)
}

fn rc_gateway(nodes: usize, channels: usize) -> GatewayState {
    GatewayState::new(
        line_network(nodes, channels),
        Box::new(ReuseConservatively::new(2)),
        GatewayConfig { rho_t: Some(2), ..GatewayConfig::default() },
    )
}

/// A route along consecutive path nodes `a..=b` (either direction).
fn line_route(a: usize, b: usize) -> Route {
    let nodes: Vec<NodeId> = if a <= b {
        (a..=b).map(NodeId::new).collect()
    } else {
        (b..=a).rev().map(NodeId::new).collect()
    };
    Route::new(nodes)
}

/// One random churn operation, decoded from raw draws: `kind` 0-3 admits,
/// 4-5 removes, 6-7 re-rates, 8 retires the link `a — a+1`.
#[derive(Debug, Clone)]
enum Op {
    Add { a: usize, b: usize, period_exp: u32, dfrac: u8 },
    Remove { pick: usize },
    Update { pick: usize, period_exp: u32, dfrac: u8 },
    Retire { a: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..9, 0usize..6, 0usize..6, 0u32..3, 0u8..=254).prop_map(
        |(kind, a, b, period_exp, dfrac)| match kind {
            0..=3 => Op::Add { a, b, period_exp, dfrac },
            4 | 5 => Op::Remove { pick: a * 7 + b },
            6 | 7 => Op::Update { pick: a * 7 + b, period_exp, dfrac },
            _ => Op::Retire { a: a.min(4) },
        },
    )
}

/// Timing from the raw draws: period in {8, 16, 32} slots, deadline a
/// fraction of the period but at least the route's retry-doubled length.
fn timing(period_exp: u32, dfrac: u8, hops: u32) -> (Period, u32) {
    let slots = 8u32 << period_exp;
    let min_d = (2 * hops).clamp(1, slots);
    let deadline = (u32::from(dfrac) * slots / 256).clamp(min_d, slots);
    (Period::from_slots(slots).expect("nonzero"), deadline)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ≥1000 random delta operations in total (128 cases × 10 ops): after
    /// every single one, the gateway's schedule equals a fresh
    /// recompute-from-scratch of its surviving flow set.
    #[test]
    fn every_delta_equals_recompute_from_scratch(ops in proptest::collection::vec(arb_op(), 10..11)) {
        let oracle = ReuseConservatively::new(2);
        let mut gw = rc_gateway(6, 2);
        let mut next = 0usize;
        for op in ops {
            match op {
                Op::Add { a, b, period_exp, dfrac } => {
                    if a == b {
                        continue;
                    }
                    let route = line_route(a, b);
                    let (period, deadline) = timing(period_exp, dfrac, route.hop_count() as u32);
                    let name = format!("f{next}");
                    if gw.add_flow(&name, FlowSpec { route, period, deadline_slots: deadline }).is_ok() {
                        next += 1;
                    }
                }
                Op::Remove { pick } => {
                    if !gw.is_empty() {
                        let name = gw.flow_names()[pick % gw.len()].to_string();
                        gw.remove_flow(&name).expect("existing flow removes cleanly");
                    }
                }
                Op::Update { pick, period_exp, dfrac } => {
                    if !gw.is_empty() {
                        let name = gw.flow_names()[pick % gw.len()].to_string();
                        let hops = gw.spec(&name).expect("admitted").route.hop_count() as u32;
                        let (period, deadline) = timing(period_exp, dfrac, hops);
                        let _ = gw.update_rate(&name, period, deadline);
                    }
                }
                Op::Retire { a } => {
                    let (x, y) = (NodeId::new(a), NodeId::new(a + 1));
                    gw.retire_links(&[DirectedLink::new(x, y), DirectedLink::new(y, x)])
                        .expect("a retire within the reschedule budget succeeds");
                }
            }
            let fresh = oracle
                .schedule(&gw.flow_set(), gw.model())
                .expect("admitted set stays schedulable");
            prop_assert_eq!(
                &fresh,
                gw.schedule(),
                "delta schedule diverged from recompute after {} flows",
                gw.len()
            );
        }
    }
}

// ---- crash-safety integration -----------------------------------------------

fn service(tag: &str) -> (GatewayService, std::path::PathBuf) {
    let nodes = 8;
    let edges: Vec<(NodeId, NodeId)> =
        (0..nodes - 1).map(|i| (NodeId::new(i), NodeId::new(i + 1))).collect();
    let comm = CommGraph::from_edges(nodes, &edges);
    let state = GatewayState::new(
        line_network(nodes, 2),
        Box::new(ReuseConservatively::new(2)),
        GatewayConfig::default(),
    );
    let svc = GatewayService::new(state, comm, JournalHeader::new("line8", "rc/2"));
    let dir = std::env::temp_dir().join("wsan-gateway-churn");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.jsonl", std::process::id()));
    (svc, path)
}

const SCRIPT: &[&str] = &[
    r#"{"op":"add_flow","name":"a","source":0,"dest":2,"period":64,"deadline":48}"#,
    r#"{"op":"add_flow","name":"b","source":3,"dest":5,"period":64,"deadline":32}"#,
    r#"{"op":"add_flow","name":"a","source":0,"dest":2,"period":64,"deadline":48}"#, // duplicate
    r#"{"op":"update_rate","name":"a","period":128,"deadline":100}"#,
    r#"{"op":"add_flow","name":"c","source":5,"dest":7,"period":128,"deadline":90}"#,
    r#"{"op":"remove_flow","name":"b"}"#,
    r#"{"op":"retire_link","tx":6,"rx":7}"#,
];

/// The canonical crash test: run a script journaled, "crash" (drop without
/// shutdown), restart from the journal, and require the byte-identical
/// schedule export.
#[test]
fn journal_resume_reproduces_the_acknowledged_schedule() {
    let (mut svc, path) = service("resume");
    svc.journal_create(&path).unwrap();
    for line in SCRIPT {
        let _ = svc.handle_line(line);
    }
    let reference = export::to_csv(svc.state().schedule());
    drop(svc); // kill -9: no shutdown, no flush beyond the per-op fsyncs

    let (mut restored, _) = service("unused");
    let replayed = restored.journal_resume(&path).unwrap();
    assert_eq!(replayed, 6, "the duplicate admission must not be journaled");
    assert_eq!(export::to_csv(restored.state().schedule()), reference);
    std::fs::remove_file(&path).unwrap();
}

/// A torn final record — half a JSON line, as a real `kill -9` mid-write
/// leaves behind — is truncated away; the journal resumes to the prefix.
#[test]
fn torn_tail_is_truncated_and_prefix_replayed() {
    let (mut svc, path) = service("torn");
    svc.journal_create(&path).unwrap();
    for line in &SCRIPT[..2] {
        let _ = svc.handle_line(line);
    }
    let reference = export::to_csv(svc.state().schedule());
    drop(svc);

    // simulate the torn write: an unterminated half-record at the tail
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
    file.write_all(b"{\"seq\":2,\"op\":{\"add_fl").unwrap();
    drop(file);

    let (mut restored, _) = service("unused");
    let replayed = restored.journal_resume(&path).unwrap();
    assert_eq!(replayed, 2);
    assert_eq!(export::to_csv(restored.state().schedule()), reference);

    // and the truncation is durable: resuming again sees a clean journal
    let (mut again, _) = service("unused");
    assert_eq!(again.journal_resume(&path).unwrap(), 2);
    std::fs::remove_file(&path).unwrap();
}

/// Resuming against a different network/algorithm configuration must be
/// refused — replaying ops against the wrong model would fabricate a
/// schedule the original gateway never acknowledged.
#[test]
fn mismatched_journal_header_is_refused() {
    let (mut svc, path) = service("header");
    svc.journal_create(&path).unwrap();
    let _ = svc.handle_line(SCRIPT[0]);
    drop(svc);

    let nodes = 8;
    let edges: Vec<(NodeId, NodeId)> =
        (0..nodes - 1).map(|i| (NodeId::new(i), NodeId::new(i + 1))).collect();
    let state = GatewayState::new(
        line_network(nodes, 2),
        Box::new(ReuseConservatively::new(2)),
        GatewayConfig::default(),
    );
    let mut other = GatewayService::new(
        state,
        CommGraph::from_edges(nodes, &edges),
        JournalHeader::new("line8", "nr"), // different algorithm identity
    );
    let err = other.journal_resume(&path).unwrap_err();
    assert!(err.to_string().contains("journal header"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

/// Truncating a seeded journal at every byte, as a crash could leave it: a
/// cut inside the header is a typed error, and every other cut resumes to
/// exactly the state the acknowledged records it still holds whole built,
/// with the torn bytes cut from disk.
#[test]
fn a_crash_at_any_byte_resumes_to_a_committed_prefix() {
    use rand::{Rng, SeedableRng};
    let (mut svc, path) = service("sweep");
    svc.journal_create(&path).unwrap();
    let snapshot = |svc: &GatewayService| {
        format!("{:?}\n{}", svc.state().flow_names(), export::to_csv(svc.state().schedule()))
    };
    // `states[k]`: the state after the first `k` acknowledged operations
    let mut states = vec![snapshot(&svc)];
    let mut rng = rand::rngs::StdRng::seed_from_u64(28);
    for i in 0..200 {
        let period = [32u32, 64, 128][rng.gen_range(0..3usize)];
        let deadline = rng.gen_range(period / 2..=period);
        let names: Vec<String> = svc.state().flow_names().iter().map(|s| s.to_string()).collect();
        let line = match (rng.gen_range(0..6u32), names.is_empty()) {
            (4, false) => {
                let name = &names[rng.gen_range(0..names.len())];
                format!(r#"{{"op":"remove_flow","name":"{name}"}}"#)
            }
            (5, false) => {
                let name = &names[rng.gen_range(0..names.len())];
                format!(
                    r#"{{"op":"update_rate","name":"{name}","period":{period},"deadline":{deadline}}}"#
                )
            }
            _ => format!(
                r#"{{"op":"add_flow","name":"f{i}","source":{},"dest":{},"period":{period},"deadline":{deadline}}}"#,
                rng.gen_range(0..8usize),
                rng.gen_range(0..8usize),
            ),
        };
        if svc.handle_line(&line).contains("\"ok\":true") {
            states.push(snapshot(&svc));
            if states.len() == 12 {
                break;
            }
        }
    }
    assert_eq!(states.len(), 12, "the script must journal 11 records");
    drop(svc);

    let bytes = std::fs::read(&path).unwrap();
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let (_, cut_path) = service("sweep-cut");
    for cut in 0..=bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let (mut restored, _) = service("unused");
        let outcome = restored.journal_resume(&cut_path);
        if cut < header_end {
            assert!(
                matches!(outcome, Err(JournalError::Corrupt { line: 1, .. })),
                "cut {cut}: {outcome:?}"
            );
            continue;
        }
        let whole = bytes[..cut].iter().filter(|&&b| b == b'\n').count() - 1;
        assert_eq!(outcome.unwrap_or_else(|e| panic!("cut {cut}: {e}")), whole, "cut {cut}");
        assert_eq!(snapshot(&restored), states[whole], "cut {cut}");
        let committed = bytes[..cut].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        assert_eq!(std::fs::metadata(&cut_path).unwrap().len(), committed as u64, "cut {cut}");
    }
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&cut_path).unwrap();
}
