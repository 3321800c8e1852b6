//! Long-lived online gateway state: incremental scheduling under flow churn.
//!
//! The paper schedules a static flow set once. A real WirelessHART gateway
//! admits, evicts, and re-rates flows continuously while the plant keeps
//! running. This module keeps a [`GatewayState`] — the admitted flow set in
//! Deadline-Monotonic order plus its current schedule — and applies churn as
//! *delta* operations:
//!
//! * [`GatewayState::add_flow`] / [`GatewayState::remove_flow`] /
//!   [`GatewayState::update_rate`] find the highest priority position the
//!   operation disturbs and re-place only the flows from there down
//!   ([`Scheduler::schedule_onto`]), keeping every higher-priority flow's
//!   cells untouched;
//! * [`GatewayState::retire_links`] evicts the flows routed over a dead
//!   link and re-places the survivors from the first evicted flow down.
//!
//! All four change state through one commit path: the prefix of the
//! unchanged higher-priority flows is the current schedule copied into a
//! recycled buffer and cut back with `Schedule::truncate`, the scheduler
//! re-places the rest, and the result is validated before it is served.
//!
//! **Why the delta is exact.** The fixed-priority engine processes flows one
//! at a time into a growing schedule; entries are grouped contiguously by
//! flow, and no placement policy carries state across a flow boundary (NR
//! and RA are stateless, RC resets `ρ` per flow and its laxity cache is a
//! proven-exact accelerator). So scheduling flows `k..n` onto the prefix
//! schedule of flows `0..k-1` is byte-identical to rescheduling everything —
//! full recompute is the proven-equal fallback, taken whenever the
//! hyperperiod changes, and `tests/gateway_churn.rs` pins the equivalence
//! over randomized churn sequences.
//!
//! **Feasibility ladder.** When the delta run reports the set unschedulable,
//! flows are shed in *inverse Deadline-Monotonic order* (longest relative
//! deadline first), exactly like the supervised [`crate::recovery`]
//! ladder: the least-urgent flows are sacrificed, and if the newcomer is
//! itself the least urgent it is the one rejected — the operation then
//! fails without touching state. Every operation is atomic: on any error
//! the previous schedule keeps serving.
//!
//! Every accepted delta result, in every build, is re-checked by the
//! independent [`validate`] checker, which also confirms the flow-grouped
//! entry order the next truncation relies on; a violation surfaces as
//! [`ScheduleError::Inconsistent`] instead of a corrupt schedule being
//! served.
//!
//! The process-facing JSONL service (request parsing, write-ahead journal,
//! deadline budgets, load shedding) lives in [`journal`] and [`service`].

pub mod journal;
pub mod service;

use crate::{validate, NetworkModel, Schedule, ScheduleError, Scheduler, SchedulerConfig};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use wsan_flow::{Flow, FlowId, FlowSet, Period};
use wsan_net::{DirectedLink, Route};

/// Tunables of a [`GatewayState`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayConfig {
    /// Reuse hop-distance floor every delta result is validated at. `None`
    /// enforces the NR contract — no cell is ever shared.
    pub rho_t: Option<u32>,
    /// Hard cap on admitted flows.
    pub max_flows: usize,
    /// Hard cap on the hyperperiod (slots) an admission may create.
    pub max_hyperperiod: u32,
    /// Bound on scheduler invocations per operation while shedding.
    pub max_reschedules: u32,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            rho_t: Some(2),
            max_flows: 4096,
            max_hyperperiod: 1 << 20,
            max_reschedules: 64,
        }
    }
}

/// What a client asks the gateway to serve: a route plus timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// The wireless route (single segment).
    pub route: Route,
    /// Release period.
    pub period: Period,
    /// Relative deadline in slots, `1 ≤ D ≤ P`.
    pub deadline_slots: u32,
}

/// Which scheduling path an operation took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPath {
    /// The schedule did not need to change.
    Unchanged,
    /// Only flows from priority position `from` down were re-placed.
    Suffix {
        /// First priority position that was re-placed.
        from: usize,
    },
    /// Full recompute (hyperperiod changed, or the change was at the top).
    Full,
}

impl fmt::Display for DeltaPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaPath::Unchanged => write!(f, "unchanged"),
            DeltaPath::Suffix { from } => write!(f, "suffix:{from}"),
            DeltaPath::Full => write!(f, "full"),
        }
    }
}

/// Outcome of a successful delta operation.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaReport {
    /// The scheduling path taken.
    pub path: DeltaPath,
    /// Names of flows shed to restore feasibility, in shedding order.
    pub evicted: Vec<String>,
    /// Scheduler invocations performed.
    pub reschedules: u32,
    /// Admitted flows after the operation.
    pub flows: usize,
    /// Schedule horizon after the operation.
    pub horizon: u32,
    /// Scheduled transmissions after the operation.
    pub entries: usize,
}

/// Errors of gateway delta operations. Every error leaves the previous
/// state (flow set and schedule) fully intact.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GatewayError {
    /// A flow with this name is already admitted.
    DuplicateFlow {
        /// The requested name.
        name: String,
    },
    /// No admitted flow has this name.
    UnknownFlow {
        /// The requested name.
        name: String,
    },
    /// The spec is invalid (deadline/period relation, unknown node, …).
    InvalidSpec {
        /// What is wrong with the request.
        reason: String,
    },
    /// The route crosses a link that has been retired.
    RetiredLink {
        /// The retired link on the route.
        link: DirectedLink,
    },
    /// A configured capacity cap would be exceeded.
    CapacityExceeded {
        /// Which cap, and the attempted value.
        reason: String,
    },
    /// The flow could not be scheduled, even after shedding every admitted
    /// flow of lower priority. The state is unchanged.
    Infeasible {
        /// The flow that could not be served.
        name: String,
    },
    /// The underlying scheduler failed (including a failed
    /// [`validate`] re-check, surfaced as
    /// [`ScheduleError::Inconsistent`]).
    Schedule(ScheduleError),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::DuplicateFlow { name } => {
                write!(f, "flow {name:?} is already admitted")
            }
            GatewayError::UnknownFlow { name } => write!(f, "no admitted flow named {name:?}"),
            GatewayError::InvalidSpec { reason } => write!(f, "invalid flow spec: {reason}"),
            GatewayError::RetiredLink { link } => {
                write!(f, "route crosses retired link {}->{}", link.tx, link.rx)
            }
            GatewayError::CapacityExceeded { reason } => write!(f, "capacity cap: {reason}"),
            GatewayError::Infeasible { name } => {
                write!(f, "flow {name:?} cannot be scheduled at its priority")
            }
            GatewayError::Schedule(e) => write!(f, "scheduler error: {e}"),
        }
    }
}

impl Error for GatewayError {}

impl From<ScheduleError> for GatewayError {
    fn from(e: ScheduleError) -> Self {
        GatewayError::Schedule(e)
    }
}

/// One admitted flow: its client-chosen name, an admission sequence number
/// (deterministic priority tie-break), and the spec it was admitted with.
#[derive(Debug, Clone, PartialEq)]
struct Admitted {
    name: String,
    seq: u64,
    spec: FlowSpec,
}

impl Admitted {
    /// Deadline-Monotonic sort key, matching
    /// [`wsan_flow::priority::deadline_monotonic`] with the admission
    /// sequence as the final (always unique) tie-break, so churn never
    /// reorders previously admitted equal-key flows.
    fn dm_key(&self) -> (u32, u32, usize, u64) {
        (
            self.spec.deadline_slots,
            self.spec.period.slots(),
            self.spec.route.source().index(),
            self.seq,
        )
    }
}

/// Long-lived gateway state: the admitted flow set (DM order) and its
/// current schedule, mutated by delta operations. See the module docs.
pub struct GatewayState {
    model: NetworkModel,
    scheduler: Box<dyn Scheduler + Send + Sync>,
    sched_config: SchedulerConfig,
    config: GatewayConfig,
    admitted: Vec<Admitted>,
    schedule: Schedule,
    retired: HashSet<DirectedLink>,
    next_seq: u64,
    /// The schedule the last commit displaced. The next delta copies the
    /// current schedule into it with `clone_from`, reusing its cell
    /// allocations instead of allocating a fresh grid on every operation.
    scratch: Option<Schedule>,
    /// What the last successful operation replaced, for
    /// [`GatewayState::revert`].
    undo: Option<Undo>,
}

#[derive(Default)]
struct Undo {
    /// The flow set and admission counter before a commit; the schedule
    /// it displaced is in `scratch`.
    committed: Option<(Vec<Admitted>, u64)>,
    /// Links the operation added to the retired set.
    retired: Vec<DirectedLink>,
}

impl fmt::Debug for GatewayState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GatewayState")
            .field("scheduler", &self.scheduler.name())
            .field("flows", &self.admitted.len())
            .field("horizon", &self.schedule.horizon())
            .field("entries", &self.schedule.entry_count())
            .field("retired", &self.retired.len())
            .finish()
    }
}

impl GatewayState {
    /// Creates an empty gateway over `model`, scheduling with `scheduler`.
    pub fn new(
        model: NetworkModel,
        scheduler: Box<dyn Scheduler + Send + Sync>,
        config: GatewayConfig,
    ) -> Self {
        let schedule = Schedule::new(1, model.channels(), model.node_count());
        GatewayState {
            model,
            scheduler,
            sched_config: SchedulerConfig::default(),
            config,
            admitted: Vec::new(),
            schedule,
            retired: HashSet::new(),
            next_seq: 0,
            scratch: None,
            undo: None,
        }
    }

    /// The current schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The network model the gateway schedules against.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Number of admitted flows.
    pub fn len(&self) -> usize {
        self.admitted.len()
    }

    /// Whether no flow is admitted.
    pub fn is_empty(&self) -> bool {
        self.admitted.is_empty()
    }

    /// Admitted flow names in priority order (highest first).
    pub fn flow_names(&self) -> Vec<&str> {
        self.admitted.iter().map(|a| a.name.as_str()).collect()
    }

    /// The spec the named flow is currently admitted with.
    pub fn spec(&self, name: &str) -> Option<&FlowSpec> {
        self.admitted.iter().find(|a| a.name == name).map(|a| &a.spec)
    }

    /// The longest relative deadline among admitted flows (the first flow
    /// the shedding ladder would sacrifice), if any.
    pub fn max_deadline(&self) -> Option<u32> {
        self.admitted.last().map(|a| a.spec.deadline_slots)
    }

    /// Links retired so far.
    pub fn retired(&self) -> &HashSet<DirectedLink> {
        &self.retired
    }

    /// The admitted flows as a prioritized [`FlowSet`] — recomputing a
    /// schedule for this set from scratch yields exactly
    /// [`GatewayState::schedule`] (the churn proptests pin this).
    pub fn flow_set(&self) -> FlowSet {
        flow_set_of(&self.admitted)
    }

    /// Admits a flow. See the module docs for the delta path and the
    /// inverse-DM shedding ladder.
    ///
    /// # Errors
    ///
    /// [`GatewayError::DuplicateFlow`], [`GatewayError::InvalidSpec`],
    /// [`GatewayError::RetiredLink`], [`GatewayError::CapacityExceeded`],
    /// [`GatewayError::Infeasible`] — all leaving the state unchanged.
    pub fn add_flow(&mut self, name: &str, spec: FlowSpec) -> Result<DeltaReport, GatewayError> {
        if self.admitted.iter().any(|a| a.name == name) {
            return Err(GatewayError::DuplicateFlow { name: name.to_string() });
        }
        if self.admitted.len() >= self.config.max_flows {
            return Err(GatewayError::CapacityExceeded {
                reason: format!("flow cap {} reached", self.config.max_flows),
            });
        }
        self.check_spec(&spec)?;
        let entry = Admitted { name: name.to_string(), seq: self.next_seq, spec };
        let key = entry.dm_key();
        let pos = self.admitted.partition_point(|a| a.dm_key() <= key);
        let mut candidate = self.admitted.clone();
        candidate.insert(pos, entry);
        let report = self.commit(candidate, pos, Some(name))?;
        self.next_seq += 1;
        Ok(report)
    }

    /// Evicts the named flow and re-places everything that was below it.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownFlow`] when the name is not admitted.
    pub fn remove_flow(&mut self, name: &str) -> Result<DeltaReport, GatewayError> {
        let pos = self.position(name)?;
        let mut candidate = self.admitted.clone();
        candidate.remove(pos);
        self.commit(candidate, pos, None)
    }

    /// Changes the named flow's period and deadline in place (route kept),
    /// re-placing from the higher of its old and new priority positions.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownFlow`], [`GatewayError::InvalidSpec`],
    /// [`GatewayError::CapacityExceeded`], [`GatewayError::Infeasible`].
    pub fn update_rate(
        &mut self,
        name: &str,
        period: Period,
        deadline_slots: u32,
    ) -> Result<DeltaReport, GatewayError> {
        let pos = self.position(name)?;
        let mut entry = self.admitted[pos].clone();
        entry.spec.period = period;
        entry.spec.deadline_slots = deadline_slots;
        self.check_spec(&entry.spec)?;
        let mut candidate = self.admitted.clone();
        candidate.remove(pos);
        let key = entry.dm_key();
        let new_pos = candidate.partition_point(|a| a.dm_key() <= key);
        candidate.insert(new_pos, entry);
        self.commit(candidate, pos.min(new_pos), Some(name))
    }

    /// Retires `links` (dead radio links): future admissions may not route
    /// over them, flows currently crossing one are evicted, and the
    /// survivors are re-placed from the first evicted flow down, shedding
    /// like any other operation if they no longer fit.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Infeasible`] when the reschedule budget runs out,
    /// [`GatewayError::Schedule`] when the result fails validation. The
    /// state, retired set included, is then unchanged.
    pub fn retire_links(&mut self, links: &[DirectedLink]) -> Result<DeltaReport, GatewayError> {
        let crosses = |a: &Admitted| a.spec.route.links().any(|l| links.contains(&l));
        let report = match self.admitted.iter().position(crosses) {
            None => {
                self.undo = Some(Undo::default());
                self.report(DeltaPath::Unchanged, Vec::new(), 0)
            }
            Some(first) => {
                let (crossing, survivors): (Vec<Admitted>, Vec<Admitted>) =
                    self.admitted.iter().cloned().partition(crosses);
                let mut report = self.commit(survivors, first, None)?;
                report.evicted.splice(0..0, crossing.into_iter().map(|a| a.name));
                report
            }
        };
        let added = links.iter().copied().filter(|l| self.retired.insert(*l)).collect();
        self.undo.as_mut().expect("a successful operation leaves its undo").retired = added;
        Ok(report)
    }

    /// Takes back the last successful operation, flow set, schedule and
    /// retired set alike. The service calls this right after an operation
    /// whose journal append failed, so the live state never holds an
    /// operation a restart would not replay. Once a later operation has
    /// reached the scheduler there is nothing left to take back.
    fn revert(&mut self) {
        let Some(undo) = self.undo.take() else { return };
        for link in &undo.retired {
            self.retired.remove(link);
        }
        if let Some((admitted, next_seq)) = undo.committed {
            (self.admitted, self.next_seq) = (admitted, next_seq);
            std::mem::swap(&mut self.schedule, self.scratch.as_mut().expect("kept by the commit"));
        }
    }

    fn position(&self, name: &str) -> Result<usize, GatewayError> {
        self.admitted
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| GatewayError::UnknownFlow { name: name.to_string() })
    }

    fn check_spec(&self, spec: &FlowSpec) -> Result<(), GatewayError> {
        if spec.deadline_slots == 0 || spec.deadline_slots > spec.period.slots() {
            return Err(GatewayError::InvalidSpec {
                reason: format!(
                    "deadline must satisfy 1 <= D <= P, got D={} P={}",
                    spec.deadline_slots,
                    spec.period.slots()
                ),
            });
        }
        for node in spec.route.nodes() {
            if node.index() >= self.model.node_count() {
                return Err(GatewayError::InvalidSpec {
                    reason: format!(
                        "route node {} out of range (network has {} nodes)",
                        node,
                        self.model.node_count()
                    ),
                });
            }
        }
        if let Some(link) = spec.route.links().find(|l| self.retired.contains(l)) {
            return Err(GatewayError::RetiredLink { link });
        }
        Ok(())
    }

    /// The schedule prefix holding exactly the placements of flows
    /// `0..from`: the current schedule, copied into the recycled scratch
    /// buffer (`clone_from` reuses its cell allocations) and cut back to
    /// its first entry of flow `from`. Entries are grouped by flow in
    /// priority order, which [`GatewayState::check_result`] confirms for
    /// every schedule served.
    fn prefix_schedule(&mut self, from: usize) -> Schedule {
        let mut prefix = match self.scratch.take() {
            Some(mut buffer) => {
                buffer.clone_from(&self.schedule);
                buffer
            }
            None => self.schedule.clone(),
        };
        prefix.truncate(self.schedule.entries().partition_point(|e| e.tx.flow.index() < from));
        prefix
    }

    /// Schedules `candidate` (unchanged above `changed_from`), shedding in
    /// inverse-DM order on infeasibility, and commits on success. Atomic:
    /// any error returns with `self` untouched. `adding` names the flow the
    /// current operation is trying to serve — if the ladder would shed it,
    /// the operation is instead rejected as [`GatewayError::Infeasible`].
    fn commit(
        &mut self,
        mut candidate: Vec<Admitted>,
        changed_from: usize,
        adding: Option<&str>,
    ) -> Result<DeltaReport, GatewayError> {
        // the scratch buffer is about to be reused
        self.undo = None;
        let old_horizon = self.schedule.horizon();
        let mut evicted: Vec<String> = Vec::new();
        let mut reschedules = 0u32;
        loop {
            let set = flow_set_of(&candidate);
            let horizon = set.hyperperiod();
            if horizon > self.config.max_hyperperiod {
                return Err(GatewayError::CapacityExceeded {
                    reason: format!(
                        "hyperperiod {horizon} exceeds cap {}",
                        self.config.max_hyperperiod
                    ),
                });
            }
            if reschedules >= self.config.max_reschedules {
                return Err(GatewayError::Infeasible {
                    name: adding.unwrap_or("<reschedule budget exhausted>").to_string(),
                });
            }
            // a new hyperperiod re-places everything, from an empty grid
            let from = if horizon == old_horizon { changed_from.min(candidate.len()) } else { 0 };
            let base = match from {
                0 => Schedule::new(horizon, self.model.channels(), self.model.node_count()),
                _ => self.prefix_schedule(from),
            };
            reschedules += 1;
            match self.scheduler.schedule_onto(&set, &self.model, &self.sched_config, base, from) {
                Ok(schedule) => {
                    self.check_result(&schedule, &set)?;
                    let admitted = std::mem::replace(&mut self.admitted, candidate);
                    self.undo =
                        Some(Undo { committed: Some((admitted, self.next_seq)), retired: vec![] });
                    // the displaced schedule becomes the next clone target
                    self.scratch = Some(std::mem::replace(&mut self.schedule, schedule));
                    let path = if from == 0 { DeltaPath::Full } else { DeltaPath::Suffix { from } };
                    return Ok(self.report(path, evicted, reschedules));
                }
                Err(ScheduleError::Unschedulable { .. }) => {
                    let Some(last) = candidate.pop() else {
                        return Err(GatewayError::Schedule(ScheduleError::Inconsistent {
                            reason: "empty flow set reported unschedulable".to_string(),
                        }));
                    };
                    if adding == Some(last.name.as_str()) {
                        return Err(GatewayError::Infeasible { name: last.name });
                    }
                    evicted.push(last.name);
                }
                Err(e) => return Err(GatewayError::Schedule(e)),
            }
        }
    }

    /// Re-checks a delta result with the independent validator, and checks
    /// that its entries are grouped by flow in priority order, which the
    /// next delta's [`Schedule::truncate`] relies on. A failure becomes
    /// [`ScheduleError::Inconsistent`] and the result is discarded.
    fn check_result(&self, schedule: &Schedule, set: &FlowSet) -> Result<(), GatewayError> {
        let inconsistent =
            |reason: String| GatewayError::Schedule(ScheduleError::Inconsistent { reason });
        if schedule.entries().windows(2).any(|w| w[1].tx.flow < w[0].tx.flow) {
            return Err(inconsistent(
                "delta result is not grouped by flow in priority order".into(),
            ));
        }
        validate::check(schedule, set, &self.model, self.config.rho_t).map_err(|violations| {
            let first = violations.first().map(ToString::to_string).unwrap_or_default();
            inconsistent(format!(
                "delta result failed validation with {} violation(s), first: {first}",
                violations.len()
            ))
        })
    }

    fn report(&self, path: DeltaPath, evicted: Vec<String>, reschedules: u32) -> DeltaReport {
        DeltaReport {
            path,
            evicted,
            reschedules,
            flows: self.admitted.len(),
            horizon: self.schedule.horizon(),
            entries: self.schedule.entry_count(),
        }
    }
}

fn flow_set_of(admitted: &[Admitted]) -> FlowSet {
    let flows: Vec<Flow> = admitted
        .iter()
        .enumerate()
        .map(|(i, a)| {
            Flow::new(FlowId::new(i), a.spec.route.clone(), a.spec.period, a.spec.deadline_slots)
                .expect("specs are validated at admission")
        })
        .collect();
    FlowSet::new(flows, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::path_graph;
    use crate::{NoReuse, ReuseConservatively};
    use wsan_net::NodeId;

    fn model(nodes: usize, channels: usize) -> NetworkModel {
        NetworkModel::from_reuse_graph(&path_graph(nodes), channels)
    }

    fn spec(nodes: &[usize], period: u32, deadline: u32) -> FlowSpec {
        FlowSpec {
            route: Route::new(nodes.iter().map(|&i| NodeId::new(i)).collect()),
            period: Period::from_slots(period).unwrap(),
            deadline_slots: deadline,
        }
    }

    fn rc_gateway(nodes: usize, channels: usize) -> GatewayState {
        GatewayState::new(
            model(nodes, channels),
            Box::new(ReuseConservatively::new(2)),
            GatewayConfig::default(),
        )
    }

    fn assert_oracle(gw: &GatewayState) {
        let recomputed = ReuseConservatively::new(2).schedule(&gw.flow_set(), gw.model()).unwrap();
        assert_eq!(gw.schedule(), &recomputed, "delta state must equal recompute-from-scratch");
    }

    #[test]
    fn empty_gateway_serves_the_empty_schedule() {
        let gw = rc_gateway(6, 2);
        assert!(gw.is_empty());
        assert_eq!(gw.schedule().horizon(), 1);
        assert_eq!(gw.schedule().entry_count(), 0);
    }

    #[test]
    fn add_then_remove_round_trips() {
        let mut gw = rc_gateway(8, 2);
        let r = gw.add_flow("a", spec(&[0, 1, 2], 100, 80)).unwrap();
        assert_eq!(r.path, DeltaPath::Full); // horizon 1 -> 100
        assert_eq!(r.flows, 1);
        assert_oracle(&gw);
        let r = gw.add_flow("b", spec(&[4, 5], 100, 90)).unwrap();
        assert_eq!(r.path, DeltaPath::Suffix { from: 1 });
        assert_oracle(&gw);
        gw.remove_flow("a").unwrap();
        assert_eq!(gw.flow_names(), vec!["b"]);
        assert_oracle(&gw);
        gw.remove_flow("b").unwrap();
        assert!(gw.is_empty());
        assert_eq!(gw.schedule().horizon(), 1);
    }

    #[test]
    fn admission_at_the_top_recomputes_below() {
        let mut gw = rc_gateway(8, 2);
        gw.add_flow("low", spec(&[0, 1, 2], 100, 90)).unwrap();
        let r = gw.add_flow("high", spec(&[4, 5], 100, 20)).unwrap();
        // shorter deadline -> higher priority -> position 0 -> full run
        assert_eq!(r.path, DeltaPath::Full);
        assert_eq!(gw.flow_names(), vec!["high", "low"]);
        assert_oracle(&gw);
    }

    #[test]
    fn deep_mid_order_admission_re_places_only_the_suffix() {
        let mut gw = rc_gateway(12, 2);
        gw.add_flow("h1", spec(&[0, 1], 100, 20)).unwrap();
        gw.add_flow("h2", spec(&[2, 3], 100, 30)).unwrap();
        gw.add_flow("l1", spec(&[4, 5], 100, 80)).unwrap();
        gw.add_flow("l2", spec(&[6, 7], 100, 90)).unwrap();
        // the newcomer sorts between h2 and l1, so l1/l2 must re-place,
        // though their current placements sit at the very start of the
        // timeline: the suffix run keeps h1/h2 and still lands on the
        // recompute's schedule
        let r = gw.add_flow("mid", spec(&[8, 9], 100, 60)).unwrap();
        assert_eq!(gw.flow_names(), vec!["h1", "h2", "mid", "l1", "l2"]);
        assert_eq!(r.path, DeltaPath::Suffix { from: 2 });
        assert_oracle(&gw);
    }

    #[test]
    fn duplicate_and_unknown_names_are_typed_errors() {
        let mut gw = rc_gateway(8, 2);
        gw.add_flow("a", spec(&[0, 1], 100, 50)).unwrap();
        assert!(matches!(
            gw.add_flow("a", spec(&[2, 3], 100, 50)),
            Err(GatewayError::DuplicateFlow { .. })
        ));
        assert!(matches!(gw.remove_flow("zz"), Err(GatewayError::UnknownFlow { .. })));
        assert!(matches!(
            gw.update_rate("zz", Period::from_slots(100).unwrap(), 50),
            Err(GatewayError::UnknownFlow { .. })
        ));
    }

    #[test]
    fn invalid_specs_are_rejected_without_state_change() {
        let mut gw = rc_gateway(4, 2);
        gw.add_flow("a", spec(&[0, 1], 100, 50)).unwrap();
        let before = gw.schedule().clone();
        assert!(matches!(
            gw.add_flow("bad-deadline", spec(&[2, 3], 100, 0)),
            Err(GatewayError::InvalidSpec { .. })
        ));
        assert!(matches!(
            gw.add_flow("bad-node", spec(&[2, 9], 100, 50)),
            Err(GatewayError::InvalidSpec { .. })
        ));
        assert_eq!(gw.schedule(), &before);
        assert_eq!(gw.len(), 1);
    }

    #[test]
    fn update_rate_moves_priority_and_stays_oracle_equal() {
        let mut gw = rc_gateway(10, 2);
        gw.add_flow("a", spec(&[0, 1, 2], 100, 40)).unwrap();
        gw.add_flow("b", spec(&[4, 5, 6], 100, 80)).unwrap();
        assert_eq!(gw.flow_names(), vec!["a", "b"]);
        // b becomes the most urgent
        gw.update_rate("b", Period::from_slots(100).unwrap(), 10).unwrap();
        assert_eq!(gw.flow_names(), vec!["b", "a"]);
        assert_oracle(&gw);
        // a changes period: hyperperiod moves, full recompute
        let r = gw.update_rate("a", Period::from_slots(200).unwrap(), 40).unwrap();
        assert_eq!(r.path, DeltaPath::Full);
        assert_eq!(gw.schedule().horizon(), 200);
        assert_oracle(&gw);
    }

    #[test]
    fn infeasible_admission_is_rejected_atomically() {
        // 1 channel, no reuse, retry slots on: a period-4 flow over a
        // 2-hop route (2 links × 2 attempts = 4 slots per job) fills every
        // slot, so a laxer newcomer has nowhere to go and is the first
        // (and only) flow the ladder sheds — i.e. itself.
        let mut gw = GatewayState::new(
            model(3, 1),
            Box::new(NoReuse::new()),
            GatewayConfig { rho_t: None, ..GatewayConfig::default() },
        );
        gw.add_flow("a", spec(&[0, 1, 2], 4, 4)).unwrap();
        let before = gw.schedule().clone();
        let err = gw.add_flow("b", spec(&[0, 1, 2], 8, 8)).unwrap_err();
        assert!(matches!(err, GatewayError::Infeasible { ref name } if name == "b"), "{err}");
        assert_eq!(gw.schedule(), &before);
        assert_eq!(gw.flow_names(), vec!["a"]);
        assert_oracle_nr(&gw);
    }

    fn assert_oracle_nr(gw: &GatewayState) {
        let recomputed = NoReuse::new().schedule(&gw.flow_set(), gw.model()).unwrap();
        assert_eq!(gw.schedule(), &recomputed);
    }

    #[test]
    fn urgent_admission_sheds_the_least_urgent_flow() {
        // Same saturated single-channel line, but now the slot-filling
        // flow is the *newcomer*: it outranks the laxer incumbent, which
        // the ladder sheds to make room.
        let mut gw = GatewayState::new(
            model(3, 1),
            Box::new(NoReuse::new()),
            GatewayConfig { rho_t: None, ..GatewayConfig::default() },
        );
        gw.add_flow("laxer", spec(&[0, 1, 2], 8, 8)).unwrap();
        let r = gw.add_flow("urgent", spec(&[0, 1, 2], 4, 4)).unwrap();
        assert_eq!(r.evicted, vec!["laxer".to_string()]);
        assert_eq!(gw.flow_names(), vec!["urgent"]);
        assert_oracle_nr(&gw);
    }

    fn link(a: usize, b: usize) -> DirectedLink {
        DirectedLink::new(NodeId::new(a), NodeId::new(b))
    }

    #[test]
    fn retire_link_evicts_crossing_flows_and_blocks_new_routes() {
        let mut gw = rc_gateway(10, 2);
        gw.add_flow("a", spec(&[0, 1, 2], 100, 80)).unwrap();
        gw.add_flow("b", spec(&[4, 5], 100, 90)).unwrap();
        let r = gw.retire_links(&[link(1, 2)]).unwrap();
        assert_eq!(r.path, DeltaPath::Full); // the crossing flow was at the top
        assert_eq!(r.evicted, vec!["a".to_string()]);
        assert_eq!(gw.flow_names(), vec!["b"]);
        assert_oracle(&gw);
        // the retired link now rejects admissions routed over it
        assert!(matches!(
            gw.add_flow("c", spec(&[1, 2], 100, 50)),
            Err(GatewayError::RetiredLink { .. })
        ));
        // retiring an uncrossed link is a no-op
        let r = gw.retire_links(&[link(7, 8)]).unwrap();
        assert_eq!(r.path, DeltaPath::Unchanged);
    }

    /// A retire evicts exactly the flows crossing the dead links, in
    /// priority order, and re-places the rest from the first of them down:
    /// the higher-priority flows keep their cells and the result is the
    /// full recompute. When the retire fails, nothing changes, the retired
    /// set included.
    #[test]
    fn retire_re_places_from_the_first_crossing_flow() {
        let mut gw = rc_gateway(12, 2);
        gw.add_flow("h1", spec(&[0, 1], 100, 20)).unwrap();
        gw.add_flow("h2", spec(&[2, 3], 100, 30)).unwrap();
        gw.add_flow("m", spec(&[4, 5, 6], 100, 60)).unwrap();
        gw.add_flow("l1", spec(&[8, 9], 100, 80)).unwrap();
        gw.add_flow("l2", spec(&[6, 5], 100, 90)).unwrap();
        let dead = [link(5, 6), link(6, 5)];

        // out of reschedule budget: refused, state and retired set intact
        let (names, schedule) = (gw.flow_names().join(","), gw.schedule().clone());
        gw.config.max_reschedules = 0;
        let err = gw.retire_links(&dead).unwrap_err();
        assert!(matches!(err, GatewayError::Infeasible { .. }), "{err}");
        assert_eq!(gw.flow_names().join(","), names);
        assert_eq!(gw.schedule(), &schedule);
        assert!(gw.retired().is_empty());

        gw.config.max_reschedules = GatewayConfig::default().max_reschedules;
        let r = gw.retire_links(&dead).unwrap();
        assert_eq!(r.path, DeltaPath::Suffix { from: 2 });
        assert_eq!(r.evicted, vec!["m".to_string(), "l2".to_string()]);
        assert_eq!(r.reschedules, 1);
        assert_eq!(gw.flow_names(), vec!["h1", "h2", "l1"]);
        assert_eq!(gw.retired().len(), 2);
        assert_oracle(&gw);
    }

    /// `revert` takes back the last successful operation of every kind:
    /// flow set, schedule, admission sequence and retired set.
    #[test]
    fn revert_takes_back_the_last_operation() {
        let mut gw = rc_gateway(10, 2);
        gw.add_flow("a", spec(&[0, 1, 2], 100, 40)).unwrap();
        gw.add_flow("b", spec(&[4, 5], 100, 80)).unwrap();
        let snapshot = |gw: &GatewayState| {
            (gw.flow_set(), gw.schedule().clone(), gw.next_seq, gw.retired().clone())
        };
        type Op = fn(&mut GatewayState) -> Result<DeltaReport, GatewayError>;
        let ops: [Op; 6] = [
            |gw| gw.add_flow("c", spec(&[6, 7], 100, 60)),
            |gw| gw.add_flow("top", spec(&[6, 7], 200, 10)),
            |gw| gw.remove_flow("a"),
            |gw| gw.update_rate("b", Period::from_slots(100).unwrap(), 10),
            |gw| gw.retire_links(&[link(1, 2)]),
            |gw| gw.retire_links(&[link(8, 9)]),
        ];
        for (i, op) in ops.iter().enumerate() {
            let before = snapshot(&gw);
            op(&mut gw).unwrap();
            gw.revert();
            assert!(snapshot(&gw) == before, "op {i}");
            // the reverted state keeps serving deltas that match a recompute
            gw.add_flow("d", spec(&[6, 7], 100, 70)).unwrap();
            assert_oracle(&gw);
            gw.remove_flow("d").unwrap();
        }
        // a revert takes back one operation, not the one before it
        gw.add_flow("d", spec(&[6, 7], 100, 70)).unwrap();
        let with_d = snapshot(&gw);
        gw.remove_flow("d").unwrap();
        gw.revert();
        gw.revert();
        assert!(snapshot(&gw) == with_d);
    }

    #[test]
    fn retiring_every_route_empties_the_gateway() {
        let mut gw = rc_gateway(6, 2);
        gw.add_flow("a", spec(&[0, 1], 100, 50)).unwrap();
        gw.add_flow("b", spec(&[3, 4], 100, 60)).unwrap();
        gw.retire_links(&[
            DirectedLink::new(NodeId::new(0), NodeId::new(1)),
            DirectedLink::new(NodeId::new(3), NodeId::new(4)),
        ])
        .unwrap();
        assert!(gw.is_empty());
        assert_eq!(gw.schedule().horizon(), 1);
        assert_eq!(gw.schedule().entry_count(), 0);
    }

    #[test]
    fn capacity_caps_are_enforced() {
        let mut gw = GatewayState::new(
            model(8, 2),
            Box::new(ReuseConservatively::new(2)),
            GatewayConfig { max_flows: 1, ..GatewayConfig::default() },
        );
        gw.add_flow("a", spec(&[0, 1], 100, 50)).unwrap();
        assert!(matches!(
            gw.add_flow("b", spec(&[2, 3], 100, 50)),
            Err(GatewayError::CapacityExceeded { .. })
        ));
        let mut gw = GatewayState::new(
            model(8, 2),
            Box::new(ReuseConservatively::new(2)),
            GatewayConfig { max_hyperperiod: 50, ..GatewayConfig::default() },
        );
        assert!(matches!(
            gw.add_flow("a", spec(&[0, 1], 100, 50)),
            Err(GatewayError::CapacityExceeded { .. })
        ));
    }

    /// RC with a bug: once the set holds two flows, it loses the last
    /// transmission it placed. Its default `schedule_onto` recomputes, so
    /// every delta operation runs through it.
    struct DropsOneTransmission;

    impl Scheduler for DropsOneTransmission {
        fn name(&self) -> &'static str {
            "RC-drops-one"
        }

        fn schedule_with(
            &self,
            flows: &FlowSet,
            model: &NetworkModel,
            config: &SchedulerConfig,
        ) -> Result<Schedule, ScheduleError> {
            let full = ReuseConservatively::new(2).schedule_with(flows, model, config)?;
            let keep = full.entry_count() - usize::from(flows.len() >= 2);
            let mut dropped =
                Schedule::new(full.horizon(), full.channel_count(), full.node_count());
            for e in &full.entries()[..keep] {
                dropped.place(e.slot, e.offset, e.tx);
            }
            Ok(dropped)
        }
    }

    /// The validation guard rejects a corrupt delta result in every build,
    /// leaving the flow set and schedule as they were.
    #[test]
    fn validation_guard_rejects_a_dropped_transmission() {
        // A two-hop newcomer: without its last retry, its job holds three
        // transmissions for two links. A one-hop newcomer: without its
        // retry, its job reads as scheduled without retries, which the
        // two-hop incumbent's retries rule out.
        for newcomer in [&[4, 5, 6][..], &[4, 5]] {
            let mut gw = GatewayState::new(
                model(8, 2),
                Box::new(DropsOneTransmission),
                GatewayConfig::default(),
            );
            gw.add_flow("a", spec(&[0, 1, 2], 100, 80)).unwrap();
            let (flows, schedule) = (gw.flow_set(), gw.schedule().clone());
            let result = gw.add_flow("b", spec(newcomer, 100, 90));
            assert!(
                matches!(result, Err(GatewayError::Schedule(ScheduleError::Inconsistent { .. }))),
                "{newcomer:?}: {result:?}"
            );
            assert_eq!(gw.flow_set(), flows);
            assert_eq!(gw.schedule(), &schedule);
        }
    }

    /// RC that places the flows in reverse priority order: a valid
    /// schedule, but not grouped the way the next truncation needs.
    struct PlacesInReverse;

    impl Scheduler for PlacesInReverse {
        fn name(&self) -> &'static str {
            "RC-reversed"
        }

        fn schedule_with(
            &self,
            flows: &FlowSet,
            model: &NetworkModel,
            config: &SchedulerConfig,
        ) -> Result<Schedule, ScheduleError> {
            let full = ReuseConservatively::new(2).schedule_with(flows, model, config)?;
            let mut reversed =
                Schedule::new(full.horizon(), full.channel_count(), full.node_count());
            for flow in (0..flows.len()).rev() {
                for e in full.entries().iter().filter(|e| e.tx.flow.index() == flow) {
                    reversed.place(e.slot, e.offset, e.tx);
                }
            }
            Ok(reversed)
        }
    }

    /// The guard also refuses entries out of flow order, since cutting
    /// such a schedule back to a prefix would keep the wrong placements.
    #[test]
    fn validation_guard_rejects_entries_out_of_flow_order() {
        let mut gw =
            GatewayState::new(model(8, 2), Box::new(PlacesInReverse), GatewayConfig::default());
        gw.add_flow("a", spec(&[0, 1, 2], 100, 80)).unwrap();
        let err = gw.add_flow("b", spec(&[4, 5], 100, 90)).unwrap_err();
        let GatewayError::Schedule(ScheduleError::Inconsistent { reason }) = err else {
            panic!("{err}")
        };
        assert!(reason.contains("not grouped by flow"), "{reason}");
        assert_eq!(gw.flow_names(), vec!["a"]);
    }
}
