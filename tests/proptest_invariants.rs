//! Property-based tests over the core invariants: any schedule a scheduler
//! emits — for any random workload on any random network — passes the
//! independent validator, and the statistics substrate behaves like the
//! mathematics it implements.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wsan::core::{validate, NetworkModel, Scheduler};
use wsan::expr::Algorithm;
use wsan::flow::{priority, Flow, FlowId, Period};
use wsan::net::{CommGraph, NodeId, ReuseGraph, Route};
use wsan::stats::ks::two_sample;
use wsan::stats::{BoxPlot, Ecdf, Histogram};

/// An (algorithm label, optimized engine, reference engine) triple for the
/// byte-identical-schedules equivalence suite.
type SchedulerPair = (&'static str, Box<dyn Scheduler>, Box<dyn Scheduler>);

/// A random connected reuse graph: a spanning chain plus random extra edges.
fn arb_reuse_graph(max_nodes: usize) -> impl Strategy<Value = ReuseGraph> {
    (4..max_nodes, proptest::collection::vec((0usize..64, 0usize..64), 0..24)).prop_map(
        |(n, extra)| {
            let mut edges: Vec<(NodeId, NodeId)> =
                (0..n - 1).map(|i| (NodeId::new(i), NodeId::new(i + 1))).collect();
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    edges.push((NodeId::new(a), NodeId::new(b)));
                }
            }
            ReuseGraph::from_edges(n, &edges)
        },
    )
}

/// A raw undirected edge list for the CSR builder: `n` is 0 or 1 a quarter
/// of the time, edges come in arbitrary order and are salted with repeated
/// and reversed copies of themselves, and sparse draws leave nodes isolated.
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (
        (0usize..4, 0usize..32),
        proptest::collection::vec((0usize..64, 0usize..64), 0..40),
        proptest::collection::vec((0usize..64, 0usize..2), 0..20),
    )
        .prop_map(|((tiny, size), raw, copies)| {
            let n = if tiny == 0 { size % 2 } else { size };
            let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
            if n >= 2 {
                for (a, b) in raw {
                    let (a, b) = (a % n, b % n);
                    if a != b {
                        edges.push((NodeId::new(a), NodeId::new(b)));
                    }
                }
            }
            for (pick, reversed) in copies {
                if edges.is_empty() {
                    break;
                }
                let (a, b) = edges[pick % edges.len()];
                edges.push(if reversed == 1 { (b, a) } else { (a, b) });
            }
            (n, edges)
        })
}

/// Random flows over a graph: single- or multi-hop walks along node indexes.
fn arb_flows(n_nodes: usize) -> impl Strategy<Value = Vec<Flow>> {
    proptest::collection::vec(
        (0usize..1000, 2usize..5, 1u32..4, proptest::num::f64::POSITIVE),
        1..8,
    )
    .prop_map(move |specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (start, len, period_scale, frac))| {
                let start = start % n_nodes;
                // a path along consecutive node ids, wrapping within range
                let nodes: Vec<NodeId> =
                    (0..len).map(|k| NodeId::new((start + k) % n_nodes)).collect();
                // ensure no immediate repeats after wrap (len < n_nodes here)
                let route = Route::new(nodes);
                let period = Period::from_slots(32 * period_scale).unwrap();
                let frac = frac.fract();
                let frac = if frac.is_finite() { frac } else { 0.5 };
                let deadline =
                    ((period.slots() / 2) as f64 + frac * (period.slots() / 2) as f64) as u32;
                let deadline = deadline.clamp(1, period.slots());
                Flow::new(FlowId::new(i), route, period, deadline).unwrap()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever any scheduler outputs validates against the §V-A
    /// constraints, for arbitrary workloads on arbitrary reuse graphs.
    #[test]
    fn every_emitted_schedule_validates(
        graph in arb_reuse_graph(16),
        flows_proto in arb_flows(8),
        channels in 1usize..4,
    ) {
        // flows were built for up to 8 nodes; graph has >= 4. Clamp node ids
        // by rebuilding flows only if they fit the graph.
        let n = graph.node_count();
        let flows: Vec<Flow> = flows_proto
            .into_iter()
            .filter(|f| f.segments().iter().all(|r| r.nodes().iter().all(|nd| nd.index() < n)))
            .collect();
        prop_assume!(!flows.is_empty());
        let set = priority::deadline_monotonic(flows, vec![]);
        let model = NetworkModel::from_reuse_graph(&graph, channels);
        for algo in [Algorithm::Nr, Algorithm::Ra { rho: 2 }, Algorithm::Rc { rho_t: 2 }, Algorithm::RcPerFlow { rho_t: 2 }] {
            if let Ok(schedule) = algo.build().schedule(&set, &model) {
                let rho_t = match algo { Algorithm::Nr => None, _ => Some(2) };
                if let Err(violations) = validate::check(&schedule, &set, &model, rho_t) {
                    return Err(TestCaseError::fail(format!("{algo}: {violations:?}")));
                }
            }
        }
    }

    /// RC never reuses more cells than RA on the same workload.
    #[test]
    fn rc_never_reuses_more_than_ra(
        graph in arb_reuse_graph(16),
        flows_proto in arb_flows(8),
    ) {
        let n = graph.node_count();
        let flows: Vec<Flow> = flows_proto
            .into_iter()
            .filter(|f| f.segments().iter().all(|r| r.nodes().iter().all(|nd| nd.index() < n)))
            .collect();
        prop_assume!(!flows.is_empty());
        let set = priority::deadline_monotonic(flows, vec![]);
        let model = NetworkModel::from_reuse_graph(&graph, 2);
        let shared = |s: &wsan::core::Schedule| {
            s.occupied_cells().filter(|(_, _, c)| c.len() > 1).count()
        };
        if let (Ok(ra), Ok(rc)) = (
            Algorithm::Ra { rho: 2 }.build().schedule(&set, &model),
            Algorithm::Rc { rho_t: 2 }.build().schedule(&set, &model),
        ) {
            // Not a strict theorem (greedy schedules diverge), but with the
            // shared workload RC reusing *more* would betray its design;
            // allow a tiny slack for divergence artifacts.
            prop_assert!(shared(&rc) <= shared(&ra) + 2,
                "RC shared {} cells, RA {}", shared(&rc), shared(&ra));
        }
    }

    /// ECDF is a valid CDF: monotone, 0 before min, 1 at max.
    #[test]
    fn ecdf_is_a_cdf(sample in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let e = Ecdf::new(&sample).unwrap();
        prop_assert_eq!(e.eval(e.min() - 1.0), 0.0);
        prop_assert_eq!(e.eval(e.max()), 1.0);
        let mut last = 0.0;
        for x in e.support() {
            let v = e.eval(*x);
            prop_assert!(v >= last);
            last = v;
        }
    }

    /// K-S statistic is within [0,1], symmetric in its arguments, and zero
    /// for identical samples.
    #[test]
    fn ks_statistic_properties(
        a in proptest::collection::vec(0.0f64..1.0, 2..30),
        b in proptest::collection::vec(0.0f64..1.0, 2..30),
    ) {
        let r1 = two_sample(&a, &b).unwrap();
        let r2 = two_sample(&b, &a).unwrap();
        prop_assert!((0.0..=1.0).contains(&r1.statistic()));
        prop_assert!((r1.statistic() - r2.statistic()).abs() < 1e-12);
        prop_assert!((r1.p_value() - r2.p_value()).abs() < 1e-12);
        let same = two_sample(&a, &a).unwrap();
        prop_assert_eq!(same.statistic(), 0.0);
        prop_assert_eq!(same.p_value(), 1.0);
    }

    /// Box plots order their five numbers and bound them by the extremes.
    #[test]
    fn boxplot_numbers_are_ordered(sample in proptest::collection::vec(0.0f64..1.0, 1..60)) {
        let b = BoxPlot::of(&sample).unwrap();
        prop_assert!(b.min <= b.whisker_low + 1e-12);
        prop_assert!(b.whisker_low <= b.q1 + 1e-12);
        prop_assert!(b.q1 <= b.median + 1e-12);
        prop_assert!(b.median <= b.q3 + 1e-12);
        prop_assert!(b.q3 <= b.whisker_high + 1e-12);
        prop_assert!(b.whisker_high <= b.max + 1e-12);
    }

    /// Histogram totals and proportions are consistent.
    #[test]
    fn histogram_proportions_sum_to_one(cats in proptest::collection::vec(0usize..12, 1..100)) {
        let h: Histogram = cats.iter().copied().collect();
        prop_assert_eq!(h.total(), cats.len() as u64);
        let max = h.max_category().unwrap();
        let sum: f64 = (0..=max).map(|c| h.proportion(c)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let tail = h.proportions_with_tail(3);
        prop_assert!((tail.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The word-level hot path (PR 5) answers every primitive query
    /// bit-for-bit like the slot-by-slot `reference` module, on schedule
    /// states reached by a real scheduler over random topologies and loads.
    #[test]
    fn equivalence_hot_path_primitives_match_reference(
        graph in arb_reuse_graph(16),
        flows_proto in arb_flows(8),
        channels in 1usize..4,
        queries in proptest::collection::vec(
            (0usize..64, 0usize..64, 0u32..200, 0u32..400, 0u32..6), 1..24),
    ) {
        use wsan::core::laxity::LaxityCache;
        use wsan::core::{constraints, reference, Rho};
        use wsan::net::DirectedLink;

        let n = graph.node_count();
        let flows: Vec<Flow> = flows_proto
            .into_iter()
            .filter(|f| f.segments().iter().all(|r| r.nodes().iter().all(|nd| nd.index() < n)))
            .collect();
        prop_assume!(!flows.is_empty());
        let set = priority::deadline_monotonic(flows, vec![]);
        let model = NetworkModel::from_reuse_graph(&graph, channels);
        // RA leaves the densest occupancy patterns behind; an unschedulable
        // load still exercises the partially filled grid states before it.
        let Ok(schedule) = Algorithm::Ra { rho: 2 }.build().schedule(&set, &model) else {
            return Ok(());
        };
        let mut cache = LaxityCache::new();
        for (a, b, earliest, latest, rho_raw) in queries {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let link = DirectedLink::new(NodeId::new(a), NodeId::new(b));
            let rho = if rho_raw == 0 { Rho::NoReuse } else { Rho::AtLeast(rho_raw) };
            prop_assert_eq!(
                constraints::find_slot(&schedule, &model, link, earliest, latest, rho),
                reference::find_slot(&schedule, &model, link, earliest, latest, rho),
                "find_slot diverged: link {} window [{},{}] rho {:?}",
                link, earliest, latest, rho
            );
            let slot = earliest.min(schedule.horizon() - 1);
            prop_assert_eq!(
                constraints::best_offset(&schedule, &model, slot, link, rho),
                reference::best_offset(&schedule, &model, slot, link, rho)
            );
            for offset in 0..channels {
                prop_assert_eq!(
                    constraints::channel_ok(&schedule, &model, slot, offset, link, rho),
                    reference::channel_ok(&schedule, &model, slot, offset, link, rho)
                );
            }
            let (na, nb) = (NodeId::new(a), NodeId::new(b));
            let plain = schedule.conflict_slot_count(na, nb, earliest, latest);
            prop_assert_eq!(plain, reference::conflict_slot_count(&schedule, na, nb, earliest, latest));
            prop_assert_eq!(plain, cache.conflict_slot_count(&schedule, na, nb, earliest, latest));
            let remaining = [link];
            let lax = wsan::core::laxity::flow_laxity(&schedule, earliest, latest, &remaining);
            prop_assert_eq!(lax, reference::flow_laxity(&schedule, earliest, latest, &remaining));
            prop_assert_eq!(
                lax,
                wsan::core::laxity::flow_laxity_cached(
                    &schedule, &mut cache, earliest, latest, &remaining)
            );
        }
    }

    /// NR/RA/RC (and the RC variants) produce byte-identical schedules —
    /// same entries, same order — through the optimized and the reference
    /// engines, and agree on unschedulability.
    #[test]
    fn equivalence_schedulers_byte_identical_to_reference(
        graph in arb_reuse_graph(16),
        flows_proto in arb_flows(8),
        channels in 1usize..4,
    ) {
        use wsan::core::reference::{NoReuseRef, ReuseAggressivelyRef, ReuseConservativelyRef};
        use wsan::core::{ReuseTrigger, RhoReset};

        let n = graph.node_count();
        let flows: Vec<Flow> = flows_proto
            .into_iter()
            .filter(|f| f.segments().iter().all(|r| r.nodes().iter().all(|nd| nd.index() < n)))
            .collect();
        prop_assume!(!flows.is_empty());
        let set = priority::deadline_monotonic(flows, vec![]);
        let model = NetworkModel::from_reuse_graph(&graph, channels);
        let pairs: Vec<SchedulerPair> = vec![
            ("NR", Box::new(wsan::core::NoReuse::new()), Box::new(NoReuseRef::new())),
            ("RA", Box::new(wsan::core::ReuseAggressively::new(2)),
                Box::new(ReuseAggressivelyRef::new(2))),
            ("RC", Box::new(wsan::core::ReuseConservatively::new(2)),
                Box::new(ReuseConservativelyRef::new(2))),
            ("RC-perflow",
                Box::new(wsan::core::ReuseConservatively::new(2)
                    .with_reset(RhoReset::PerFlow)),
                Box::new(ReuseConservativelyRef::new(2).with_reset(RhoReset::PerFlow))),
            ("RC-lite",
                Box::new(wsan::core::ReuseConservatively::new(2)
                    .with_trigger(ReuseTrigger::DeadlineMissOnly)),
                Box::new(ReuseConservativelyRef::new(2)
                    .with_trigger(ReuseTrigger::DeadlineMissOnly))),
        ];
        for (name, optimized, reference) in pairs {
            match (optimized.schedule(&set, &model), reference.schedule(&set, &model)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a.entries(), b.entries(), "{} schedules diverged", name),
                (Err(_), Err(_)) => {}
                (a, b) => return Err(TestCaseError::fail(format!(
                    "{name}: optimized {:?} vs reference {:?}",
                    a.map(|s| s.entry_count()), b.map(|s| s.entry_count())
                ))),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The delay analysis is *sufficient*: any random workload it accepts
    /// must be schedulable by the greedy NR scheduler.
    #[test]
    fn analysis_acceptance_implies_nr_schedulability(
        graph in arb_reuse_graph(16),
        flows_proto in arb_flows(8),
        channels in 1usize..4,
    ) {
        let n = graph.node_count();
        let flows: Vec<Flow> = flows_proto
            .into_iter()
            .filter(|f| f.segments().iter().all(|r| r.nodes().iter().all(|nd| nd.index() < n)))
            .collect();
        prop_assume!(!flows.is_empty());
        let set = priority::deadline_monotonic(flows, vec![]);
        let model = NetworkModel::from_reuse_graph(&graph, channels);
        let report = wsan::core::analysis::analyse(&set, &model, 2);
        if report.schedulable() {
            prop_assert!(
                wsan::core::NoReuse::new().schedule(&set, &model).is_ok(),
                "analysis accepted a set NR cannot schedule"
            );
        }
    }

    /// Analysis response-time bounds dominate the response times NR
    /// actually achieves.
    #[test]
    fn analysis_bounds_dominate_measured_response_times(
        graph in arb_reuse_graph(16),
        flows_proto in arb_flows(8),
    ) {
        let n = graph.node_count();
        let flows: Vec<Flow> = flows_proto
            .into_iter()
            .filter(|f| f.segments().iter().all(|r| r.nodes().iter().all(|nd| nd.index() < n)))
            .collect();
        prop_assume!(!flows.is_empty());
        let set = priority::deadline_monotonic(flows, vec![]);
        let model = NetworkModel::from_reuse_graph(&graph, 2);
        let report = wsan::core::analysis::analyse(&set, &model, 2);
        if !report.schedulable() {
            return Ok(());
        }
        let Ok(schedule) = wsan::core::NoReuse::new().schedule(&set, &model) else {
            return Err(TestCaseError::fail("sufficiency violated"));
        };
        for (flow, job, measured) in wsan::core::metrics::response_times(&schedule, &set) {
            let bound = report.response_time(flow.index()).expect("schedulable");
            prop_assert!(
                measured <= bound,
                "flow {flow} job {job}: measured {measured} > bound {bound}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The capped hop table is *schedule-identical* to the dense matrix
    /// (DESIGN.md §16): `hops` stores `min(d, cap)` with unreachable pairs
    /// at the cap, `at_least` agrees exactly for every `ρ ≤ cap`, and for
    /// `ρ > cap` it only ever errs on the side of denying reuse.
    #[test]
    fn equivalence_capped_hops_conservative_for_every_rho(
        graph in arb_reuse_graph(24),
        cap in 1u32..12,
    ) {
        let dense = graph.hop_matrix();
        let capped = graph.capped_hops(cap, 1);
        let n = graph.node_count();
        for a in (0..n).map(NodeId::new) {
            for b in (0..n).map(NodeId::new) {
                let d = dense.hops(a, b);
                let want = if d == wsan::net::UNREACHABLE { cap } else { d.min(cap) };
                prop_assert_eq!(capped.hops(a, b), want);
                for rho in 0..=cap {
                    prop_assert_eq!(
                        capped.at_least(a, b, rho),
                        dense.at_least(a, b, rho),
                        "exactness broken at rho {} <= cap {}", rho, cap
                    );
                }
                for rho in cap + 1..cap + 4 {
                    prop_assert!(
                        !capped.at_least(a, b, rho),
                        "rho {} beyond cap {} must deny reuse", rho, cap
                    );
                }
            }
        }
    }

    /// The exact-mode build picks a cap large enough that every query the
    /// schedulers make (`ρ ≤ λ_R + 1`) matches the dense matrix, and its
    /// diameter is the true `λ_R`.
    #[test]
    fn equivalence_exact_hops_matches_dense(graph in arb_reuse_graph(24)) {
        let dense = graph.hop_matrix();
        let exact = graph.exact_hops(1);
        prop_assert!(!exact.saturated());
        prop_assert_eq!(exact.diameter(), dense.diameter());
        let n = graph.node_count();
        for a in (0..n).map(NodeId::new) {
            for b in (0..n).map(NodeId::new) {
                for rho in 0..=exact.cap() {
                    prop_assert_eq!(exact.at_least(a, b, rho), dense.at_least(a, b, rho));
                }
            }
        }
    }

    /// The parallel bit-parallel BFS build is byte-identical to the
    /// sequential one for any worker count, capped and exact modes alike.
    #[test]
    fn equivalence_parallel_capped_build_is_byte_identical(
        graph in arb_reuse_graph(24),
        cap in 1u32..12,
        jobs in 2usize..6,
    ) {
        prop_assert_eq!(graph.capped_hops(cap, 1), graph.capped_hops(cap, jobs));
        prop_assert_eq!(graph.exact_hops(1), graph.exact_hops(jobs));
    }

    /// Restricted extraction (the per-shard path) agrees with restricting
    /// the dense whole-graph matrix to the member rows/columns — member
    /// pair distances keep seeing paths through non-member nodes.
    #[test]
    fn equivalence_restricted_extraction_matches_dense(
        graph in arb_reuse_graph(24),
        picks in proptest::collection::vec(0usize..64, 1..10),
        cap in 1u32..12,
        jobs in 1usize..5,
    ) {
        let n = graph.node_count();
        let mut members: Vec<usize> = picks.into_iter().map(|p| p % n).collect();
        members.sort_unstable();
        members.dedup();
        let members: Vec<NodeId> = members.into_iter().map(NodeId::new).collect();
        let dense = graph.hop_matrix();
        let restricted = graph.capped_hops_restricted(&members, cap, jobs);
        prop_assert_eq!(restricted.node_count(), members.len());
        for (i, &a) in members.iter().enumerate() {
            for (j, &b) in members.iter().enumerate() {
                let d = dense.hops(a, b);
                let want = if d == wsan::net::UNREACHABLE { cap } else { d.min(cap) };
                prop_assert_eq!(
                    restricted.hops(NodeId::new(i), NodeId::new(j)),
                    want,
                    "member pair {:?}->{:?}", a, b
                );
            }
        }
    }

    /// The counting-sort CSR build gives every node exactly the sorted,
    /// deduplicated neighbor set of a `BTreeSet` reference, for any edge
    /// order, duplicates, reversed duplicates, isolated nodes and `n` of 0
    /// or 1 — through both graph flavors' constructors.
    #[test]
    fn equivalence_csr_build_matches_sorted_reference((n, edges) in arb_edge_list()) {
        let mut reference = vec![BTreeSet::new(); n];
        for &(a, b) in &edges {
            reference[a.index()].insert(b);
            reference[b.index()].insert(a);
        }
        let edge_count = reference.iter().map(BTreeSet::len).sum::<usize>() / 2;
        let comm = CommGraph::from_edges(n, &edges);
        let reuse = ReuseGraph::from_edges(n, &edges);
        prop_assert_eq!(comm.node_count(), n);
        prop_assert_eq!(reuse.node_count(), n);
        prop_assert_eq!(comm.edge_count(), edge_count);
        prop_assert_eq!(reuse.edge_count(), edge_count);
        for (v, want) in reference.iter().enumerate() {
            let v = NodeId::new(v);
            let want: Vec<NodeId> = want.iter().copied().collect();
            prop_assert_eq!(comm.neighbors(v), &want[..], "comm row {:?}", v);
            prop_assert_eq!(reuse.neighbors(v), &want[..], "reuse row {:?}", v);
            prop_assert_eq!(comm.degree(v), want.len());
            for w in (0..n).map(NodeId::new) {
                prop_assert_eq!(reuse.has_edge(v, w), want.contains(&w));
            }
        }
    }
}
