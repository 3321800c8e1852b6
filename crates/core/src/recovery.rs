//! Supervised schedule recovery: repair when possible, reschedule when
//! necessary, shed flows when nothing else restores feasibility.
//!
//! The §VI detection policy tells the network manager *which* links channel
//! reuse degrades; [`repair`] moves those links'
//! transmissions into contention-free cells. But injected faults can exceed
//! what local repair fixes: a crashed relay or a fully collapsed link
//! carries no traffic on *any* channel, and a dense workload may leave no
//! contention-free cells to move into. This module implements the fallback
//! ladder the paper's network manager sketch implies:
//!
//! 1. **Repair in place** — minimal disruption, jobs keep their cells
//!    wherever possible.
//! 2. **Reschedule the survivors** — flows that cannot be served at all
//!    (their route crosses a dead link) are removed, the rest get a fresh
//!    schedule, and the degraded links are repaired on it.
//! 3. **Graceful degradation** — while the survivor set remains infeasible,
//!    shed flows in *inverse Deadline-Monotonic order* (longest relative
//!    deadline first): the flows the paper's priority assignment already
//!    ranks as least urgent are sacrificed first, and every sacrifice is
//!    reported.
//!
//! Every successful outcome is re-checked with the independent
//! [`validate`] checker before it is returned, so a
//! recovered schedule is never weaker than a freshly built one.

use crate::repair::{self, RepairReport};
use crate::{validate, NetworkModel, Schedule, ScheduleError, Scheduler};
use std::collections::HashSet;
use wsan_flow::{Flow, FlowId, FlowSet};
use wsan_net::DirectedLink;

/// Tunables of a recovery pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Reuse hop-distance floor `ρ_t` used for repair and validation.
    pub rho_t: u32,
    /// Upper bound on scheduler invocations while shedding. The shedding
    /// loop is already bounded by the flow count; this caps the work spent
    /// on pathological workloads where every reschedule is slow. When the
    /// bound is hit, all remaining flows are shed (reported, not dropped
    /// silently).
    pub max_reschedules: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { rho_t: 2, max_reschedules: 64 }
    }
}

/// What a recovery pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The recovered schedule, already accepted by [`validate::check`].
    pub schedule: Schedule,
    /// The surviving flow set the schedule serves (ids re-tagged dense).
    pub flows: FlowSet,
    /// Flows sacrificed to restore feasibility, by their id in the *input*
    /// flow set, in the order they were shed.
    pub shed: Vec<FlowId>,
    /// For each surviving flow (by its new dense id), its id in the input
    /// flow set.
    pub survivors: Vec<FlowId>,
    /// Scheduler invocations performed (0 = in-place repair sufficed).
    pub reschedules: u32,
    /// The repair report of the accepted schedule.
    pub repair: RepairReport,
}

impl RecoveryOutcome {
    /// Whether recovery had to sacrifice flows.
    pub fn is_degraded(&self) -> bool {
        !self.shed.is_empty()
    }
}

/// Recovers a valid schedule after faults.
///
/// `degraded` lists links the detection policy rejected (reuse hurts them:
/// their transmissions must become contention-free). `dead` lists links
/// that carry no traffic at all (crashed endpoint, fully collapsed PRR):
/// flows routed over them are unservable and are shed immediately.
///
/// The pass tries in-place [`repair`](repair::reassign_degraded) first;
/// when that cannot restore feasibility it reschedules the surviving flows
/// with `scheduler`, shedding flows in inverse Deadline-Monotonic order
/// (see the module docs) until the result validates.
///
/// # Errors
///
/// Returns [`ScheduleError::Inconsistent`] when `schedule` and `flows`
/// disagree structurally. Infeasibility is *not* an error: it is handled
/// by shedding, down to the empty schedule if need be.
pub fn recover(
    schedule: &Schedule,
    model: &NetworkModel,
    flows: &FlowSet,
    scheduler: &dyn Scheduler,
    policy: &RecoveryPolicy,
    degraded: &[DirectedLink],
    dead: &[DirectedLink],
) -> Result<RecoveryOutcome, ScheduleError> {
    let dead_set: HashSet<DirectedLink> = dead.iter().copied().collect();
    let mut shed: Vec<FlowId> = Vec::new();
    // Flows crossing a dead link cannot be served by any schedule.
    let mut survivors: Vec<(FlowId, Flow)> = Vec::new();
    for flow in flows.iter() {
        if flow.links().iter().any(|l| dead_set.contains(l)) {
            shed.push(flow.id());
        } else {
            survivors.push((flow.id(), flow.clone()));
        }
    }

    // Fast path: the topology still serves every flow — try minimal-
    // disruption in-place repair before touching anyone's cells.
    if shed.is_empty() {
        let (repaired, report) =
            repair::reassign_degraded(schedule, model, flows, policy.rho_t, degraded)?;
        if report.is_complete()
            && validate::check(&repaired, flows, model, Some(policy.rho_t)).is_ok()
        {
            return Ok(RecoveryOutcome {
                schedule: repaired,
                flows: flows.clone(),
                shed,
                survivors: flows.iter().map(Flow::id).collect(),
                reschedules: 0,
                repair: report,
            });
        }
    }

    // Reschedule survivors, shedding in inverse-DM order on infeasibility.
    let mut reschedules = 0;
    loop {
        let subset = FlowSet::new(
            survivors.iter().map(|(_, f)| f.clone()).collect(),
            flows.access_points().to_vec(),
        );
        if subset.is_empty() {
            // nothing left to serve: the empty schedule, trivially valid
            return Ok(RecoveryOutcome {
                schedule: Schedule::new(
                    schedule.horizon(),
                    schedule.channel_count(),
                    schedule.node_count(),
                ),
                flows: subset,
                shed,
                survivors: Vec::new(),
                reschedules,
                repair: RepairReport::default(),
            });
        }
        if reschedules < policy.max_reschedules {
            reschedules += 1;
            if let Ok(fresh) = scheduler.schedule(&subset, model) {
                let (repaired, report) =
                    repair::reassign_degraded(&fresh, model, &subset, policy.rho_t, degraded)?;
                if report.is_complete()
                    && validate::check(&repaired, &subset, model, Some(policy.rho_t)).is_ok()
                {
                    return Ok(RecoveryOutcome {
                        schedule: repaired,
                        flows: subset,
                        shed,
                        survivors: survivors.iter().map(|(orig, _)| *orig).collect(),
                        reschedules,
                        repair: report,
                    });
                }
            }
            // infeasible at this size: shed the lowest-priority survivor
            if let Some((orig, _)) = survivors.pop() {
                shed.push(orig);
            }
        } else {
            // retry budget exhausted: report everything left as shed
            while let Some((orig, _)) = survivors.pop() {
                shed.push(orig);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{model_for, parallel_set};
    use crate::{NoReuse, ReuseAggressively, Scheduler};

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy { rho_t: 2, max_reschedules: 64 }
    }

    #[test]
    fn nothing_wrong_is_identity() {
        let (flows, reuse) = parallel_set(4, 4, 60, 30);
        let model = model_for(&reuse, 2);
        let scheduler = ReuseAggressively::new(2);
        let schedule = scheduler.schedule(&flows, &model).unwrap();
        let out = recover(&schedule, &model, &flows, &scheduler, &policy(), &[], &[]).unwrap();
        assert!(!out.is_degraded());
        assert_eq!(out.reschedules, 0);
        assert_eq!(out.schedule.entries(), schedule.entries());
        assert_eq!(out.survivors.len(), flows.len());
    }

    #[test]
    fn dead_link_sheds_exactly_the_crossing_flows() {
        // disjoint single-hop pairs: killing one pair's link dooms only it
        let (flows, reuse) = parallel_set(4, 4, 60, 30);
        let model = model_for(&reuse, 2);
        let scheduler = ReuseAggressively::new(2);
        let schedule = scheduler.schedule(&flows, &model).unwrap();
        let victim = flows.flow(FlowId::new(2)).links()[0];
        let out =
            recover(&schedule, &model, &flows, &scheduler, &policy(), &[], &[victim]).unwrap();
        assert_eq!(out.shed, vec![FlowId::new(2)]);
        assert_eq!(out.flows.len(), 3);
        // survivors keep their relative priority order
        let origs: Vec<usize> = out.survivors.iter().map(|id| id.index()).collect();
        assert_eq!(origs, vec![0, 1, 3]);
        validate::check(&out.schedule, &out.flows, &model, Some(2)).unwrap();
        // the dead link carries nothing
        assert!(out.schedule.entries().iter().all(|e| e.tx.link != victim));
    }

    #[test]
    fn infeasible_repair_sheds_lowest_priority_first() {
        // 1 channel, tight deadlines: making every shared link contention-
        // free cannot fit the full set (repair.rs exercises the same load
        // to show failed repairs). Recovery must shed from the back.
        let (flows, reuse) = parallel_set(8, 4, 40, 10);
        let model = model_for(&reuse, 1);
        let scheduler = ReuseAggressively::new(2);
        let schedule = scheduler.schedule(&flows, &model).unwrap();
        let degraded: Vec<_> = schedule
            .occupied_cells()
            .filter(|(_, _, c)| c.len() > 1)
            .flat_map(|(_, _, c)| c.iter().map(|t| t.link))
            .collect();
        assert!(!degraded.is_empty(), "test requires sharing");
        let out =
            recover(&schedule, &model, &flows, &scheduler, &policy(), &degraded, &[]).unwrap();
        assert!(out.is_degraded(), "this load cannot be made contention-free intact");
        assert!(out.flows.len() < flows.len());
        assert!(!out.flows.is_empty(), "some prefix must fit");
        // shed ids are exactly the lowest-priority suffix of the input set
        let mut expected: Vec<FlowId> = (out.flows.len()..flows.len()).map(FlowId::new).collect();
        let mut got = out.shed.clone();
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
        validate::check(&out.schedule, &out.flows, &model, Some(2)).unwrap();
        // no degraded link shares a cell in the recovered schedule
        for (_, _, cell) in out.schedule.occupied_cells() {
            if cell.len() > 1 {
                assert!(cell.iter().all(|t| !degraded.contains(&t.link)));
            }
        }
    }

    #[test]
    fn killing_everything_yields_the_empty_schedule() {
        let (flows, reuse) = parallel_set(3, 4, 60, 30);
        let model = model_for(&reuse, 2);
        let scheduler = NoReuse::new();
        let schedule = scheduler.schedule(&flows, &model).unwrap();
        let dead: Vec<_> = flows.iter().map(|f| f.links()[0]).collect();
        let out = recover(&schedule, &model, &flows, &scheduler, &policy(), &[], &dead).unwrap();
        assert_eq!(out.shed.len(), 3);
        assert!(out.flows.is_empty());
        assert_eq!(out.schedule.entry_count(), 0);
    }

    #[test]
    fn exhausted_budget_sheds_rather_than_loops() {
        let (flows, reuse) = parallel_set(8, 4, 40, 10);
        let model = model_for(&reuse, 1);
        let scheduler = ReuseAggressively::new(2);
        let schedule = scheduler.schedule(&flows, &model).unwrap();
        let degraded: Vec<_> = schedule
            .occupied_cells()
            .filter(|(_, _, c)| c.len() > 1)
            .flat_map(|(_, _, c)| c.iter().map(|t| t.link))
            .collect();
        let tight = RecoveryPolicy { rho_t: 2, max_reschedules: 1 };
        let out = recover(&schedule, &model, &flows, &scheduler, &tight, &degraded, &[]).unwrap();
        // one reschedule attempt, then everything left is reported shed
        assert_eq!(out.reschedules, 1);
        assert_eq!(out.shed.len() + out.flows.len(), flows.len());
    }
}
