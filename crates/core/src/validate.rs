//! Independent post-hoc schedule validation: the one code that judges a
//! schedule.
//!
//! The schedulers maintain their constraints incrementally; this module
//! re-derives every property from scratch, trusting nothing the scheduler
//! kept:
//!
//! 1. **Completeness** — every job of every flow has all its transmissions,
//!    in route order, primaries before their retries. The engine
//!    provisions one number of attempts per link for a whole run, so every
//!    job must carry the most that any job of the schedule carries. The
//!    blind spot left: a schedule that lacks every retry of every job reads
//!    as one scheduled without retries.
//! 2. **Windows** — each job's transmissions lie within
//!    `[release, release + D − 1]` and occupy strictly increasing slots.
//! 3. **Transmission conflicts** — no two transmissions in a slot share a
//!    node.
//! 4. **Channel constraints** — a cell with several transmissions keeps
//!    every sender at least `ρ_t` reuse-graph hops from every other
//!    receiver (`ρ_t = None` asserts no sharing at all, for NR).
//!
//! [`check`] judges all four against a [`NetworkModel`]'s hop table.
//! [`crate::shard::validate_stitched`] judges 3 and 4 on a stitched
//! whole-plant schedule, with distances it derives from the plant itself.
//! Both run the same interference passes, which take the distance source
//! as an argument. Every pass is linear in the grid and the entries, plus
//! the occupant pairs of each shared cell.

use crate::{NetworkModel, Schedule, ScheduleEntry, ScheduledTx};
use std::fmt;
use wsan_flow::{FlowSet, Job};
use wsan_net::NodeId;

/// A violated schedule property.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// A job has the wrong number of transmissions.
    WrongTransmissionCount {
        /// Offending flow index.
        flow: usize,
        /// Offending job index.
        job: u32,
        /// Expected transmissions.
        expected: usize,
        /// Found transmissions.
        found: usize,
    },
    /// A job's transmissions are out of order or outside its window.
    BadSequencing {
        /// Offending flow index.
        flow: usize,
        /// Offending job index.
        job: u32,
        /// Explanation.
        why: String,
    },
    /// Two transmissions in one slot share a node.
    Conflict {
        /// Slot of the conflict.
        slot: u32,
    },
    /// A transmission names a flow or job the flow set does not have, so
    /// it holds a slot and two nodes that no job asks for.
    UnknownJob {
        /// The entry's flow index.
        flow: usize,
        /// The entry's job index.
        job: u32,
        /// Slot of the entry.
        slot: u32,
    },
    /// A shared cell violates the reuse hop-distance floor.
    ChannelConstraint {
        /// Slot of the violation.
        slot: u32,
        /// Channel offset of the violation.
        offset: usize,
        /// The observed minimum hop distance.
        observed: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::WrongTransmissionCount { flow, job, expected, found } => {
                write!(f, "flow {flow} job {job}: expected {expected} transmissions, found {found}")
            }
            Violation::BadSequencing { flow, job, why } => {
                write!(f, "flow {flow} job {job}: {why}")
            }
            Violation::UnknownJob { flow, job, slot } => {
                write!(f, "flow {flow} job {job}: slot {slot} holds a transmission of no known job")
            }
            Violation::Conflict { slot } => write!(f, "transmission conflict in slot {slot}"),
            Violation::ChannelConstraint { slot, offset, observed } => write!(
                f,
                "cell ({slot}, {offset}): concurrent transmissions only {observed} hops apart"
            ),
        }
    }
}

/// Checks every schedule property against `model`'s hop distances;
/// `rho_t = None` additionally requires that no channel is ever shared (the
/// NR contract).
///
/// # Errors
///
/// Returns all violations found (empty `Ok` means the schedule is sound):
/// job violations by flow and job, then entries of unknown jobs in
/// placement order, then slot conflicts by slot, then channel violations
/// by cell.
pub fn check(
    schedule: &Schedule,
    flows: &FlowSet,
    model: &NetworkModel,
    rho_t: Option<u32>,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    check_jobs(schedule, flows, &mut violations);
    check_interference(schedule, rho_t, |a, b| model.hops().hops(a, b), &mut violations);
    verdict(violations)
}

/// `Ok` for an empty violation list, the list otherwise.
pub(crate) fn verdict(violations: Vec<Violation>) -> Result<(), Vec<Violation>> {
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Properties 3 and 4: the slot-conflict pass, then the channel pass with
/// `hops(a, b)` as the reuse-distance source. The source only has to be
/// exact below `rho_t`: a cell is reported when its smallest cross-pair
/// distance is below the floor, and then that distance is the one
/// reported, so a source that saturates at `rho_t` reports exactly what
/// exact hops would.
pub(crate) fn check_interference(
    schedule: &Schedule,
    rho_t: Option<u32>,
    hops: impl FnMut(NodeId, NodeId) -> u32,
    out: &mut Vec<Violation>,
) {
    check_conflicts(schedule.occupied_cells(), schedule.node_count(), out);
    check_channels(schedule.occupied_cells(), rho_t, hops, out);
}

/// Properties 1 and 2. One counting sort buckets the entries by
/// `(flow, job)`, keeping placement order within a bucket; `FlowSet` keeps
/// `FlowId(i)` at position `i`, so job `k` of flow `i` is bucket
/// `first[i] + k`. The largest whole number of attempts per link in any
/// bucket is the schedule's; each bucket is then sorted by `seq` and
/// checked against it, and every entry naming no job of `flows` is
/// reported after the buckets.
fn check_jobs(schedule: &Schedule, flows: &FlowSet, out: &mut Vec<Violation>) {
    let entries = schedule.entries();
    let jobs: Vec<Vec<Job>> = flows.iter().map(|flow| flow.jobs(schedule.horizon())).collect();
    let mut first = vec![0usize; jobs.len() + 1];
    for (f, flow_jobs) in jobs.iter().enumerate() {
        first[f + 1] = first[f] + flow_jobs.len();
    }
    let bucket_of = |e: &ScheduleEntry| {
        let (flow, job) = (e.tx.flow.index(), e.tx.job_index as usize);
        (flow < jobs.len() && job < jobs[flow].len()).then(|| first[flow] + job)
    };
    // `start[b]..start[b + 1]` is bucket `b`'s range of `order`.
    let mut start = vec![0usize; first[jobs.len()] + 1];
    for b in entries.iter().filter_map(bucket_of) {
        start[b + 1] += 1;
    }
    for b in 1..start.len() {
        start[b] += start[b - 1];
    }
    let mut next = start.clone();
    let mut order = vec![0usize; start[start.len() - 1]];
    for (i, e) in entries.iter().enumerate() {
        if let Some(b) = bucket_of(e) {
            order[next[b]] = i;
            next[b] += 1;
        }
    }

    let mut attempts = 1;
    for (f, flow) in flows.iter().enumerate() {
        for b in first[f]..first[f + 1] {
            attempts = attempts.max((start[b + 1] - start[b]) / flow.hop_count().max(1));
        }
    }

    for (f, (flow, flow_jobs)) in flows.iter().zip(&jobs).enumerate() {
        let links = flow.links();
        for (k, job) in flow_jobs.iter().enumerate() {
            let mine = &mut order[start[first[f] + k]..start[first[f] + k + 1]];
            mine.sort_by_key(|&i| entries[i].tx.seq);
            // completeness: the schedule's attempts on every route link
            let (flow, job_index) = (flow.id().index(), job.index());
            let (expected, found) = (links.len() * attempts, mine.len());
            if found != expected || found == 0 {
                out.push(Violation::WrongTransmissionCount {
                    flow,
                    job: job_index,
                    expected,
                    found,
                });
                continue;
            }
            let bad = |why| Violation::BadSequencing { flow, job: job_index, why };
            let mut last_slot: Option<u32> = None;
            for (i, entry) in mine.iter().map(|&i| &entries[i]).enumerate() {
                let (link, expected_link) = (entry.tx.link, links[i / attempts]);
                if link != expected_link {
                    out.push(bad(format!(
                        "transmission {i} uses {link} but the route expects {expected_link}"
                    )));
                }
                let (slot, release, deadline) =
                    (entry.slot, job.release_slot(), job.deadline_slot());
                if slot < release || slot >= deadline {
                    out.push(bad(format!("slot {slot} outside window [{release}, {deadline})")));
                }
                if let Some(prev) = last_slot.filter(|&prev| slot <= prev) {
                    out.push(bad(format!("slot {slot} does not follow slot {prev}")));
                }
                last_slot = Some(slot);
            }
        }
    }
    for e in entries.iter().filter(|e| bucket_of(e).is_none()) {
        out.push(Violation::UnknownJob {
            flow: e.tx.flow.index(),
            job: e.tx.job_index,
            slot: e.slot,
        });
    }
}

/// Property 3 over `cells`, given in `(slot, offset)` order with every node
/// below `node_count`: one [`Violation::Conflict`] per slot in which a node
/// is a sender or receiver twice, found with a per-node stamp of the last
/// slot that used the node.
fn check_conflicts<'a>(
    cells: impl IntoIterator<Item = (u32, usize, &'a [ScheduledTx])>,
    node_count: usize,
    out: &mut Vec<Violation>,
) {
    let mut last_used = vec![u32::MAX; node_count];
    let mut flagged = None;
    for (slot, _, cell) in cells {
        if flagged == Some(slot) {
            continue;
        }
        let clash = cell
            .iter()
            .flat_map(|tx| [tx.link.tx, tx.link.rx])
            .any(|node| std::mem::replace(&mut last_used[node.index()], slot) == slot);
        if clash {
            flagged = Some(slot);
            out.push(Violation::Conflict { slot });
        }
    }
}

/// Property 4 over `cells`: every cell of two or more transmissions keeps
/// each sender at least `rho_t` hops (per `hops`) from every other
/// receiver, reporting the cell's smallest such distance when it does not;
/// under `rho_t = None` any shared cell is a violation.
fn check_channels<'a>(
    cells: impl IntoIterator<Item = (u32, usize, &'a [ScheduledTx])>,
    rho_t: Option<u32>,
    mut hops: impl FnMut(NodeId, NodeId) -> u32,
    out: &mut Vec<Violation>,
) {
    for (slot, offset, cell) in cells {
        if cell.len() < 2 {
            continue;
        }
        let Some(floor) = rho_t else {
            out.push(Violation::ChannelConstraint { slot, offset, observed: 0 });
            continue;
        };
        let mut min_hops = u32::MAX;
        for (i, a) in cell.iter().enumerate() {
            for b in &cell[i + 1..] {
                min_hops = min_hops.min(hops(a.link.tx, b.link.rx)).min(hops(b.link.tx, a.link.rx));
            }
        }
        if min_hops < floor {
            out.push(Violation::ChannelConstraint { slot, offset, observed: min_hops });
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{model_for, parallel_set};
    use crate::Scheduler;
    use wsan_flow::FlowId;
    use wsan_net::DirectedLink;

    #[test]
    fn valid_schedules_pass() {
        let (flows, reuse) = parallel_set(4, 4, 60, 30);
        let model = model_for(&reuse, 2);
        for sched in [
            crate::NoReuse::new().schedule(&flows, &model).unwrap(),
            crate::ReuseConservatively::new(2).schedule(&flows, &model).unwrap(),
        ] {
            check(&sched, &flows, &model, Some(2)).unwrap();
        }
    }

    #[test]
    fn entries_of_a_removed_flow_are_reported() {
        let (flows, reuse) = parallel_set(3, 4, 60, 30);
        let model = model_for(&reuse, 2);
        let s = crate::NoReuse::new().schedule(&flows, &model).unwrap();
        // the same schedule judged after its last flow is removed: every
        // cell that flow left behind is stale
        let removed = flows.len() - 1;
        let kept = FlowSet::new(
            flows.iter().take(removed).cloned().collect(),
            flows.access_points().to_vec(),
        );
        let stale = s.entries().iter().filter(|e| e.tx.flow.index() == removed).count();
        assert!(stale > 0);
        let violations = check(&s, &kept, &model, Some(2)).unwrap_err();
        assert_eq!(violations.len(), stale);
        assert!(violations
            .iter()
            .all(|v| matches!(v, Violation::UnknownJob { flow, .. } if *flow == removed)));
    }

    #[test]
    fn missing_transmissions_are_reported() {
        let (flows, reuse) = parallel_set(2, 4, 60, 30);
        let model = model_for(&reuse, 2);
        let empty = Schedule::new(flows.hyperperiod(), 2, model.node_count());
        let violations = check(&empty, &flows, &model, Some(2)).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::WrongTransmissionCount { found: 0, .. })));
    }

    #[test]
    fn hand_built_conflict_is_reported() {
        // `Schedule::place` asserts against conflicts in debug builds, so
        // the slot-conflict pass is driven directly with hand-built cells:
        // node 1 receives in (3, 0) and sends in (3, 1), while slot 2 and
        // slot 5's two cells share no node.
        let tx = |flow: usize, a: usize, b: usize| ScheduledTx {
            flow: FlowId::new(flow),
            job_index: 0,
            link: DirectedLink::new(NodeId::new(a), NodeId::new(b)),
            seq: 0,
            attempt: 0,
        };
        let cells = [[tx(0, 2, 3)], [tx(1, 0, 1)], [tx(2, 1, 4)], [tx(3, 0, 1)], [tx(4, 2, 3)]];
        let grid = [(2, 0), (3, 0), (3, 1), (5, 0), (5, 1)];
        let mut out = Vec::new();
        check_conflicts(
            grid.iter().zip(&cells).map(|(&(slot, offset), cell)| (slot, offset, &cell[..])),
            5,
            &mut out,
        );
        assert_eq!(out, vec![Violation::Conflict { slot: 3 }]);
    }

    #[test]
    fn shared_cell_below_floor_is_reported() {
        // stride 2: adjacent links 1 hop apart; force them into one cell
        let (flows, reuse) = parallel_set(2, 2, 60, 30);
        let model = model_for(&reuse, 1);
        let mut s = Schedule::new(flows.hyperperiod(), 1, model.node_count());
        let mut iter = flows.iter();
        let f0 = iter.next().unwrap();
        let f1 = iter.next().unwrap();
        let l0 = f0.links()[0];
        let l1 = f1.links()[0];
        s.place(0, 0, ScheduledTx { flow: f0.id(), job_index: 0, link: l0, seq: 0, attempt: 0 });
        s.place(0, 0, ScheduledTx { flow: f1.id(), job_index: 0, link: l1, seq: 0, attempt: 0 });
        let violations = check(&s, &flows, &model, Some(2)).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ChannelConstraint { observed, .. } if *observed < 2)));
    }

    #[test]
    fn nr_contract_flags_any_sharing() {
        let (flows, reuse) = parallel_set(2, 4, 60, 30);
        let model = model_for(&reuse, 1);
        let s = crate::ReuseAggressively::new(2).schedule(&flows, &model).unwrap();
        // under heavy enough packing RA shares; NR contract must flag it if
        // any sharing occurred
        let shared = s.occupied_cells().any(|(_, _, c)| c.len() > 1);
        let result = check(&s, &flows, &model, None);
        assert_eq!(result.is_err(), shared);
    }
}
