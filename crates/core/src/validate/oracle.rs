//! A quadratic validator kept as the test-only oracle, and the proptests
//! that pin the production validators to it.
//!
//! [`check`] filters every entry once per job and builds a node set per
//! slot: slow, but plainly correct. The proptests hold
//! [`super::check`] to it whole `Result` by whole `Result`, order
//! included, on scheduler outputs and mutated copies of them; and they
//! hold [`validate_stitched`] to its interference verdicts computed from
//! exact whole-plant hops.

use super::Violation;
use crate::shard::{
    build_problem, plan, schedule_shard, stitch, validate_stitched, ShardConfig, ShardPart,
};
use crate::test_util::{random_floor, random_plant};
use crate::{
    NetworkModel, NoReuse, ReuseAggressively, ReuseConservatively, Schedule, ScheduleEntry,
    Scheduler, SchedulerConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsan_flow::{FlowId, FlowSet, FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{ChannelId, CommGraph, DirectedLink, NodeId, ReuseGraph};

/// Checks every schedule property; `rho_t = None` additionally requires
/// that no channel is ever shared (the NR contract).
///
/// # Errors
///
/// Returns all violations found (empty `Ok` means the schedule is sound).
pub(crate) fn check(
    schedule: &Schedule,
    flows: &FlowSet,
    model: &NetworkModel,
    rho_t: Option<u32>,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    check_jobs(schedule, flows, &mut violations);
    check_conflicts(schedule, &mut violations);
    check_channels(schedule, model, rho_t, &mut violations);
    super::verdict(violations)
}

fn check_jobs(schedule: &Schedule, flows: &FlowSet, out: &mut Vec<Violation>) {
    let horizon = schedule.horizon();
    let entries_of = |flow: FlowId, job: u32| -> Vec<&ScheduleEntry> {
        schedule.entries().iter().filter(|e| e.tx.flow == flow && e.tx.job_index == job).collect()
    };
    // the schedule's attempts per link: the most that any job carries
    let mut attempts = 1;
    for flow in flows.iter() {
        for job in flow.jobs(horizon) {
            let links = flow.links().len().max(1);
            attempts = attempts.max(entries_of(flow.id(), job.index()).len() / links);
        }
    }
    for flow in flows.iter() {
        let links: Vec<_> = flow.links();
        for job in flow.jobs(horizon) {
            let mut entries = entries_of(flow.id(), job.index());
            entries.sort_by_key(|e| e.tx.seq);
            // completeness: seq must be 0..n with each link appearing in
            // route order, `attempts` times each
            let found = entries.len();
            if found == 0 || found != links.len() * attempts {
                out.push(Violation::WrongTransmissionCount {
                    flow: flow.id().index(),
                    job: job.index(),
                    expected: links.len() * attempts,
                    found,
                });
                continue;
            }
            let mut last_slot: Option<u32> = None;
            for (i, entry) in entries.iter().enumerate() {
                let expected_link = links[i / attempts];
                if entry.tx.link != expected_link {
                    out.push(Violation::BadSequencing {
                        flow: flow.id().index(),
                        job: job.index(),
                        why: format!(
                            "transmission {i} uses {} but the route expects {expected_link}",
                            entry.tx.link
                        ),
                    });
                }
                if entry.slot < job.release_slot() || entry.slot >= job.deadline_slot() {
                    out.push(Violation::BadSequencing {
                        flow: flow.id().index(),
                        job: job.index(),
                        why: format!(
                            "slot {} outside window [{}, {})",
                            entry.slot,
                            job.release_slot(),
                            job.deadline_slot()
                        ),
                    });
                }
                if let Some(prev) = last_slot {
                    if entry.slot <= prev {
                        out.push(Violation::BadSequencing {
                            flow: flow.id().index(),
                            job: job.index(),
                            why: format!("slot {} does not follow slot {prev}", entry.slot),
                        });
                    }
                }
                last_slot = Some(entry.slot);
            }
        }
    }
    for entry in schedule.entries() {
        let (flow, job) = (entry.tx.flow, entry.tx.job_index);
        let known = flow.index() < flows.len()
            && flows.flow(flow).jobs(horizon).iter().any(|j| j.index() == job);
        if !known {
            out.push(Violation::UnknownJob { flow: flow.index(), job, slot: entry.slot });
        }
    }
}

/// [`check`]'s slot-conflict and channel passes alone.
fn check_interference(
    schedule: &Schedule,
    model: &NetworkModel,
    rho_t: Option<u32>,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    check_conflicts(schedule, &mut violations);
    check_channels(schedule, model, rho_t, &mut violations);
    super::verdict(violations)
}

fn check_conflicts(schedule: &Schedule, out: &mut Vec<Violation>) {
    for slot in 0..schedule.horizon() {
        let mut nodes = std::collections::HashSet::new();
        let mut conflicted = false;
        for offset in 0..schedule.channel_count() {
            for tx in schedule.cell(slot, offset) {
                for node in [tx.link.tx, tx.link.rx] {
                    if !nodes.insert(node) {
                        conflicted = true;
                    }
                }
            }
        }
        if conflicted {
            out.push(Violation::Conflict { slot });
        }
    }
}

fn check_channels(
    schedule: &Schedule,
    model: &NetworkModel,
    rho_t: Option<u32>,
    out: &mut Vec<Violation>,
) {
    for (slot, offset, cell) in schedule.occupied_cells() {
        if cell.len() < 2 {
            continue;
        }
        match rho_t {
            None => out.push(Violation::ChannelConstraint { slot, offset, observed: 0 }),
            Some(floor) => {
                let mut min_hops = u32::MAX;
                for (i, a) in cell.iter().enumerate() {
                    for b in &cell[i + 1..] {
                        min_hops = min_hops
                            .min(model.hops().hops(a.link.tx, b.link.rx))
                            .min(model.hops().hops(b.link.tx, a.link.rx));
                    }
                }
                if min_hops < floor {
                    out.push(Violation::ChannelConstraint { slot, offset, observed: min_hops });
                }
            }
        }
    }
}

/// A way to break a valid schedule, each aimed at one validator property.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// The schedule as it is.
    Unchanged,
    /// One entry moves to another conflict-free slot.
    MoveSlot,
    /// One retry (or, without retries, any entry) is dropped.
    DropRetry,
    /// Every retry of one job is dropped, leaving its primaries.
    DropJobRetries,
    /// Two entries, of one job where possible, swap their `seq`s.
    SwapSeqs,
    /// One entry moves to a conflict-free slot at or past its deadline.
    PastDeadline,
    /// An extra entry names a flow or a job the flow set does not have.
    UnknownJob,
    /// One entry moves into another's cell, sharing its channel.
    SharedCell,
    /// An extra entry shares a node with another of its slot. Release
    /// builds only: [`Schedule::place`] asserts against it in debug builds.
    NodeConflict,
}

impl Mutation {
    const ALL: [Mutation; 9] = [
        Mutation::Unchanged,
        Mutation::MoveSlot,
        Mutation::DropRetry,
        Mutation::DropJobRetries,
        Mutation::SwapSeqs,
        Mutation::PastDeadline,
        Mutation::UnknownJob,
        Mutation::SharedCell,
        Mutation::NodeConflict,
    ];

    /// The mutations that do not read the flow set.
    const FLOW_FREE: [Mutation; 4] =
        [Mutation::Unchanged, Mutation::MoveSlot, Mutation::SharedCell, Mutation::NodeConflict];

    /// A mutated copy of `schedule`, or `None` when the mutation does not
    /// apply (no entries, no free slot, a debug build for `NodeConflict`).
    fn apply(self, schedule: &Schedule, flows: &FlowSet, rng: &mut StdRng) -> Option<Schedule> {
        let entries = schedule.entries();
        let horizon = schedule.horizon();
        let pick = |rng: &mut StdRng| rng.gen_range(0..entries.len());
        match self {
            Mutation::Unchanged => Some(schedule.clone()),
            _ if entries.is_empty() => None,
            Mutation::MoveSlot => {
                let i = pick(rng);
                let mut s = replay_without(schedule, i);
                let slot = free_slot(&s, entries[i].tx.link, 0, horizon, rng)?;
                s.place(slot, rng.gen_range(0..s.channel_count()), entries[i].tx);
                Some(s)
            }
            Mutation::DropRetry => {
                let retries: Vec<usize> =
                    (0..entries.len()).filter(|&i| entries[i].tx.attempt > 0).collect();
                let i = if retries.is_empty() {
                    pick(rng)
                } else {
                    retries[rng.gen_range(0..retries.len())]
                };
                Some(replay_without(schedule, i))
            }
            Mutation::DropJobRetries => {
                let retries: Vec<usize> =
                    (0..entries.len()).filter(|&i| entries[i].tx.attempt > 0).collect();
                let job = entries[*retries.get(rng.gen_range(0..retries.len().max(1)))?].tx;
                let kept: Vec<ScheduleEntry> = entries
                    .iter()
                    .filter(|e| {
                        (e.tx.flow, e.tx.job_index, e.tx.attempt) == (job.flow, job.job_index, 0)
                            || (e.tx.flow, e.tx.job_index) != (job.flow, job.job_index)
                    })
                    .copied()
                    .collect();
                Some(replay(schedule, &kept))
            }
            Mutation::SwapSeqs => {
                let i = pick(rng);
                let same_job = |j: usize| {
                    let (a, b) = (&entries[i].tx, &entries[j].tx);
                    j != i && a.flow == b.flow && a.job_index == b.job_index && a.seq != b.seq
                };
                let j = (0..entries.len()).find(|&j| same_job(j)).unwrap_or(pick(rng));
                let mut swapped = entries.to_vec();
                swapped[i].tx.seq = entries[j].tx.seq;
                swapped[j].tx.seq = entries[i].tx.seq;
                Some(replay(schedule, &swapped))
            }
            Mutation::PastDeadline => {
                let start = pick(rng);
                (0..entries.len()).map(|k| (start + k) % entries.len()).find_map(|i| {
                    let tx = entries[i].tx;
                    let job = flows.flow(tx.flow).jobs(horizon)[tx.job_index as usize];
                    let mut s = replay_without(schedule, i);
                    let slot = free_slot(&s, tx.link, job.deadline_slot(), horizon, rng)?;
                    s.place(slot, rng.gen_range(0..s.channel_count()), tx);
                    Some(s)
                })
            }
            Mutation::UnknownJob => {
                let mut tx = entries[pick(rng)].tx;
                if rng.gen_bool(0.5) {
                    tx.flow = FlowId::new(flows.len() + rng.gen_range(0..2usize));
                } else {
                    let jobs = flows.flow(tx.flow).jobs(horizon).len() as u32;
                    tx.job_index = jobs + rng.gen_range(0..2u32);
                }
                let mut s = schedule.clone();
                let slot = free_slot(&s, tx.link, 0, horizon, rng)?;
                s.place(slot, rng.gen_range(0..s.channel_count()), tx);
                Some(s)
            }
            Mutation::SharedCell => {
                let (h, start) = (pick(rng), pick(rng));
                let host = entries[h];
                (0..entries.len()).map(|k| (start + k) % entries.len()).find_map(|j| {
                    let mut s = replay_without(schedule, j);
                    let link = entries[j].tx.link;
                    (j != h && !s.conflicts(host.slot, link.tx, link.rx)).then(|| {
                        s.place(host.slot, host.offset, entries[j].tx);
                        s
                    })
                })
            }
            Mutation::NodeConflict => {
                if cfg!(debug_assertions) {
                    return None;
                }
                let host = entries[pick(rng)];
                let other = NodeId::new(rng.gen_range(0..schedule.node_count()));
                let mut tx = host.tx;
                if other != host.tx.link.rx {
                    tx.link = DirectedLink::new(host.tx.link.rx, other);
                }
                let mut s = schedule.clone();
                s.place(host.slot, rng.gen_range(0..s.channel_count()), tx);
                Some(s)
            }
        }
    }
}

/// `entries` placed, in order, on an empty grid shaped like `like`.
fn replay(like: &Schedule, entries: &[ScheduleEntry]) -> Schedule {
    let mut s = Schedule::new(like.horizon(), like.channel_count(), like.node_count());
    for e in entries {
        s.place(e.slot, e.offset, e.tx);
    }
    s
}

/// `schedule` without its `i`-th entry.
fn replay_without(schedule: &Schedule, i: usize) -> Schedule {
    let mut entries = schedule.entries().to_vec();
    entries.remove(i);
    replay(schedule, &entries)
}

/// A slot of `from..to` in which `link` conflicts with nothing in `s`,
/// scanning cyclically from a random start.
fn free_slot(
    s: &Schedule,
    link: DirectedLink,
    from: u32,
    to: u32,
    rng: &mut StdRng,
) -> Option<u32> {
    if from >= to {
        return None;
    }
    let start = rng.gen_range(from..to);
    (start..to).chain(from..start).find(|&slot| !s.conflicts(slot, link.tx, link.rx))
}

/// A random connected network on 6–39 nodes: the comm graph is a spanning
/// chain plus chords, and the reuse graph adds reuse-only chords to it
/// (every comm edge is a reuse edge).
fn random_network(rng: &mut StdRng) -> (CommGraph, ReuseGraph) {
    let n = rng.gen_range(6..40);
    let chords = |count: usize, rng: &mut StdRng| -> Vec<(NodeId, NodeId)> {
        (0..count)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (NodeId::new(a), NodeId::new(b)))
            .collect()
    };
    let mut comm: Vec<_> = (0..n - 1).map(|i| (NodeId::new(i), NodeId::new(i + 1))).collect();
    comm.extend(chords(rng.gen_range(0..n), rng));
    let mut reuse = comm.clone();
    reuse.extend(chords(rng.gen_range(0..2 * n), rng));
    (CommGraph::from_edges(n, &comm), ReuseGraph::from_edges(n, &reuse))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The linear `check` returns exactly the oracle's `Result`, order
    /// included, on NR/RA/RC outputs (and the empty schedule) over random
    /// networks and flow sets, each as scheduled and under every mutation.
    #[test]
    fn linear_check_matches_the_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (comm, reuse) = random_network(&mut rng);
        let model = NetworkModel::from_reuse_graph(&reuse, rng.gen_range(1..5));
        let flow_cfg = FlowSetConfig::new(
            rng.gen_range(1..9),
            PeriodRange::new(-2, 0).expect("valid range"),
            if rng.gen_bool(0.5) { TrafficPattern::PeerToPeer } else { TrafficPattern::Centralized },
        );
        let flows = FlowSetGenerator::new(rng.gen())
            .generate(&comm, &flow_cfg)
            .expect("a connected network routes every flow");
        let rho = rng.gen_range(1..4);
        let schedulers: [Box<dyn Scheduler>; 3] = [
            Box::new(NoReuse::new()),
            Box::new(ReuseAggressively::new(rho)),
            Box::new(ReuseConservatively::new(rho)),
        ];
        let mut inputs = vec![Schedule::new(flows.hyperperiod(), model.channels(), model.node_count())];
        inputs.extend(schedulers.iter().filter_map(|s| s.schedule(&flows, &model).ok()));
        for schedule in &inputs {
            for mutation in Mutation::ALL {
                let Some(mutated) = mutation.apply(schedule, &flows, &mut rng) else { continue };
                let rho_t = random_floor(&mut rng);
                let verdict = super::check(&mutated, &flows, &model, rho_t);
                prop_assert_eq!(
                    &verdict,
                    &check(&mutated, &flows, &model, rho_t),
                    "seed {}, {:?}, rho_t {:?}", seed, mutation, rho_t
                );
                if let Mutation::UnknownJob = mutation {
                    let flagged = verdict.as_ref().is_err_and(|found| {
                        found.iter().any(|v| matches!(v, Violation::UnknownJob { .. }))
                    });
                    prop_assert!(flagged, "seed {}: the unknown job passed", seed);
                }
                // while another job keeps its retries, the stripped job
                // is short of the schedule's attempts
                if let Mutation::DropJobRetries = mutation {
                    let flagged = verdict.as_ref().is_err_and(|found| {
                        found.iter().any(|v| matches!(v, Violation::WrongTransmissionCount { .. }))
                    });
                    let retries_left = mutated.entries().iter().any(|e| e.tx.attempt > 0);
                    prop_assert!(flagged || !retries_left, "seed {}: the stripped job passed", seed);
                }
            }
        }
    }

    /// `validate_stitched`, with its rho-capped BFS distances, returns
    /// exactly the oracle's interference verdict computed from exact
    /// whole-plant hops, on stitched schedules of random plants, valid and
    /// mutated.
    #[test]
    fn stitched_validator_matches_the_exact_hop_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plant = random_plant(&mut rng);
        let channels = ChannelId::range(11, rng.gen_range(14..27)).expect("valid channels");
        let reuse_floor = random_floor(&mut rng);
        let cfg = ShardConfig {
            reuse_floor,
            ..ShardConfig::new(rng.gen_range(1..4), rng.gen(), rng.gen_range(1..4))
        };
        let plan = plan(&plant, &channels, &cfg, 1);
        prop_assume!(plan.is_ok());
        let plan = plan.expect("checked");
        let scheduler: Box<dyn Scheduler> = match reuse_floor {
            None => Box::new(NoReuse::new()),
            Some(rho) if rng.gen_bool(0.5) => Box::new(ReuseAggressively::new(rho)),
            Some(rho) => Box::new(ReuseConservatively::new(rho)),
        };
        let parts: Result<Vec<ShardPart>, _> = (0..cfg.shards)
            .map(|i| {
                let problem = build_problem(&plant, &channels, &plan, &cfg, i, 1)?;
                let schedule = schedule_shard(&problem, scheduler.as_ref(), &SchedulerConfig::default())?;
                Ok::<_, crate::shard::ShardError>(ShardPart {
                    shard: i,
                    flow_count: problem.flows.len(),
                    local_to_global: problem.local_to_global,
                    offset_base: problem.offset_base,
                    schedule,
                })
            })
            .collect();
        prop_assume!(parts.is_ok());
        let stitched = stitch(plant.node_count(), channels.len(), &parts.expect("checked"))
            .expect("harmonic shard horizons stitch");
        let exact = NetworkModel::from_reuse_graph(&plant.reuse_graph(&channels), channels.len());
        let no_flows = FlowSet::new(Vec::new(), Vec::new());
        for mutation in Mutation::FLOW_FREE {
            let Some(mutated) = mutation.apply(&stitched, &no_flows, &mut rng) else { continue };
            prop_assert_eq!(
                validate_stitched(&plant, &channels, reuse_floor, &mutated),
                check_interference(&mutated, &exact, reuse_floor),
                "seed {}, {:?}, floor {:?}", seed, mutation, reuse_floor
            );
        }
    }
}
