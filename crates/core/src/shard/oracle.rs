//! The member-table problem build, kept as the test-only oracle of
//! [`build_problem`], and the proptest that pins the production build to
//! it.
//!
//! [`member_problem`] builds a shard's problem over every shard member:
//! the same flow set in member-local ids, and a hop table over all members
//! whose diameter is `λ_R`. [`build_problem`] keeps only the nodes the
//! flows name, so its `λ_R` is the diameter over those (`D`), which may be
//! smaller; the proptest shows that every scheduler still places every
//! transmission where it did.

use super::*;
use crate::test_util::{random_floor, random_plant};
use crate::{NoReuse, ReuseAggressively, ReuseConservatively, ReuseTrigger, RhoReset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use wsan_net::{ChannelId, DirectedLink};

/// Shard `index`'s problem over every shard member, with `λ_R` the
/// members' diameter: what [`build_problem`] built before it kept only
/// the nodes the flows name.
fn member_problem(
    plant: &Plant,
    channels: &ChannelSet,
    plan: &ShardPlan,
    cfg: &ShardConfig,
    index: usize,
) -> Result<ShardProblem, ShardError> {
    check_plan_inputs(plant, channels, plan, cfg)?;
    let shard = &plan.shards[index];
    let flows = shard_flows(plan, cfg, index)?;
    let hops = plan.reuse.capped_hops_restricted(&shard.nodes, distance_cap(shard), 1);
    Ok(ShardProblem {
        shard: index,
        flows,
        model: NetworkModel::from_capped(hops, shard.nodes.len(), shard.offsets),
        local_to_global: shard.nodes.clone(),
        offset_base: shard.offset_base,
    })
}

/// A node list in global ids.
fn global(nodes: &[NodeId], local_to_global: &[NodeId]) -> Vec<NodeId> {
    nodes.iter().map(|v| local_to_global[v.index()]).collect()
}

/// A flow set in global ids: per flow its id, segments, period and
/// deadline, then the access points.
type GlobalFlows = (Vec<(FlowId, Vec<Vec<NodeId>>, u32, u32)>, Vec<NodeId>);

fn global_flows(problem: &ShardProblem) -> GlobalFlows {
    let l2g = &problem.local_to_global;
    let flows = problem
        .flows
        .iter()
        .map(|f| {
            let segments = f.segments().iter().map(|r| global(r.nodes(), l2g)).collect();
            (f.id(), segments, f.period().slots(), f.deadline_slots())
        })
        .collect();
    (flows, global(problem.flows.access_points(), l2g))
}

/// A shard schedule's shape and entries, in placement order, with global
/// link endpoints.
type GlobalSchedule = (u32, usize, Vec<(u32, usize, ScheduledTx)>);

fn global_schedule(schedule: &Schedule, local_to_global: &[NodeId]) -> GlobalSchedule {
    let entries = schedule
        .entries()
        .iter()
        .map(|e| {
            let [tx, rx] = [e.tx.link.tx, e.tx.link.rx].map(|v| local_to_global[v.index()]);
            (e.slot, e.offset, ScheduledTx { link: DirectedLink::new(tx, rx), ..e.tx })
        })
        .collect();
    (schedule.horizon(), schedule.channel_count(), entries)
}

/// NR, RA, RC (both `ρ` resets) and RC-lite at floor `rho`.
fn schedulers(rho: u32) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(NoReuse::new()),
        Box::new(ReuseAggressively::new(rho)),
        Box::new(ReuseConservatively::new(rho)),
        Box::new(ReuseConservatively::new(rho).with_reset(RhoReset::PerFlow)),
        Box::new(ReuseConservatively::new(rho).with_trigger(ReuseTrigger::DeadlineMissOnly)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kept-node [`build_problem`] gives the member-table oracle's
    /// flows and distances on the nodes it keeps, and every scheduler
    /// (NR, RA, RC with either reset, RC-lite) places every transmission
    /// of every shard where it did on the oracle, so the stitched
    /// schedules are equal too. Random plants, shard counts, floors,
    /// channel sets, traffic patterns and periods; narrow channel sets
    /// make RC shrink `ρ` through `λ_R`.
    #[test]
    fn kept_node_problems_match_the_member_table_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plant = random_plant(&mut rng);
        let width = [1, 2, 3, 4, 8, 16][rng.gen_range(0..6usize)];
        let channels = ChannelId::range(11, 10 + width).expect("valid channels");
        let pattern = if rng.gen_bool(0.5) {
            TrafficPattern::PeerToPeer
        } else {
            TrafficPattern::Centralized
        };
        let cfg = ShardConfig {
            reuse_floor: random_floor(&mut rng),
            pattern,
            periods: PeriodRange::new(-2, rng.gen_range(-1..1)).expect("valid range"),
            ..ShardConfig::new(rng.gen_range(1..4), rng.gen(), rng.gen_range(1..9))
        };
        let plan = plan(&plant, &channels, &cfg, 1);
        prop_assume!(plan.is_ok());
        let plan = plan.expect("checked");
        let schedulers = schedulers(rng.gen_range(1..4));
        let sched_cfg = SchedulerConfig::default();
        let mut parts: Vec<[Vec<ShardPart>; 2]> = vec![[Vec::new(), Vec::new()]; schedulers.len()];
        for index in 0..cfg.shards {
            let oracle = member_problem(&plant, &channels, &plan, &cfg, index);
            let kept = build_problem(&plant, &channels, &plan, &cfg, index, 1);
            let (oracle, kept) = match (oracle, kept) {
                (Ok(oracle), Ok(kept)) => (oracle, kept),
                (oracle, kept) => {
                    prop_assert_eq!(
                        oracle.map(|_| ()).map_err(|e| e.to_string()),
                        kept.map(|_| ()).map_err(|e| e.to_string()),
                        "seed {}, shard {}", seed, index
                    );
                    continue;
                }
            };
            let members = &plan.shards[index].nodes;
            let l2g = &kept.local_to_global;
            prop_assert!(l2g.windows(2).all(|w| w[0] < w[1]), "kept nodes are not ascending");
            prop_assert!(l2g.iter().all(|&g| plan.shard_of(g) == index), "kept node outside the shard");
            let (oracle_flows, oracle_aps) = global_flows(&oracle);
            let named: BTreeSet<NodeId> = oracle_flows
                .iter()
                .flat_map(|(_, segments, _, _)| segments.iter().flatten())
                .chain(&oracle_aps)
                .copied()
                .collect();
            prop_assert_eq!(
                l2g.clone(),
                named.into_iter().collect::<Vec<_>>(),
                "seed {}, shard {}: the kept nodes are not the route nodes and access points",
                seed, index
            );
            prop_assert_eq!(global_flows(&kept), (oracle_flows, oracle_aps), "seed {}", seed);
            prop_assert_eq!(kept.model.node_count(), l2g.len());
            let member = |g: &NodeId| NodeId::new(members.binary_search(g).expect("a member"));
            let mut diameter = 0;
            for (i, a) in l2g.iter().enumerate() {
                for (j, b) in l2g.iter().enumerate() {
                    let d = oracle.model.hops().hops(member(a), member(b));
                    prop_assert_eq!(kept.model.hops().hops(NodeId::new(i), NodeId::new(j)), d);
                    diameter = diameter.max(d);
                }
            }
            prop_assert_eq!(kept.model.lambda_r(), diameter);
            prop_assert!(kept.model.lambda_r() <= oracle.model.lambda_r());

            for (s, scheduler) in schedulers.iter().enumerate() {
                let on_oracle = schedule_shard(&oracle, scheduler.as_ref(), &sched_cfg);
                let on_kept = schedule_shard(&kept, scheduler.as_ref(), &sched_cfg);
                match (on_oracle, on_kept) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(
                            global_schedule(&b, l2g),
                            global_schedule(&a, members),
                            "seed {}, shard {}, {}", seed, index, scheduler.name()
                        );
                        for (path, problem, schedule) in [(0, &oracle, a), (1, &kept, b)] {
                            parts[s][path].push(ShardPart {
                                shard: index,
                                schedule,
                                local_to_global: problem.local_to_global.clone(),
                                offset_base: problem.offset_base,
                                flow_count: problem.flows.len(),
                            });
                        }
                    }
                    (a, b) => prop_assert_eq!(
                        a.map(|_| ()).map_err(|e| e.to_string()),
                        b.map(|_| ()).map_err(|e| e.to_string()),
                        "seed {}, shard {}, {}", seed, index, scheduler.name()
                    ),
                }
            }
        }
        for [on_oracle, on_kept] in &parts {
            if on_oracle.len() == cfg.shards {
                prop_assert_eq!(
                    stitch(plant.node_count(), channels.len(), on_kept).expect("stitches"),
                    stitch(plant.node_count(), channels.len(), on_oracle).expect("stitches"),
                    "seed {}", seed
                );
            }
        }
    }
}
