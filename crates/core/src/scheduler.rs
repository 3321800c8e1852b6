//! The `Scheduler` trait and the shared fixed-priority scheduling engine.

use crate::{NetworkModel, Schedule, ScheduleError, ScheduledTx};
use std::time::Instant;
use wsan_flow::FlowSet;
use wsan_net::DirectedLink;

/// Options common to all schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Reserve a retransmission slot for every link transmission, as source
    /// routing requires ("a scheduler must reserve one more time slot for
    /// every transmission over a link", §VII). Enabled by default.
    pub retries: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { retries: true }
    }
}

/// A transmission scheduler for a prioritized flow set.
///
/// Implementations in this crate: [`NoReuse`](crate::NoReuse) (NR),
/// [`ReuseAggressively`](crate::ReuseAggressively) (RA), and
/// [`ReuseConservatively`](crate::ReuseConservatively) (RC, the paper's
/// Algorithm 1).
pub trait Scheduler {
    /// Short display name ("NR", "RA", "RC").
    fn name(&self) -> &'static str;

    /// Schedules every transmission of every job of `flows` over one
    /// hyperperiod, with explicit options.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Unschedulable`] when some transmission
    /// cannot make its job's deadline (Algorithm 1's `return ∅`), or a
    /// configuration error.
    fn schedule_with(
        &self,
        flows: &FlowSet,
        model: &NetworkModel,
        config: &SchedulerConfig,
    ) -> Result<Schedule, ScheduleError>;

    /// Schedules with the default configuration (retry slots reserved).
    ///
    /// # Errors
    ///
    /// See [`Scheduler::schedule_with`].
    fn schedule(&self, flows: &FlowSet, model: &NetworkModel) -> Result<Schedule, ScheduleError> {
        self.schedule_with(flows, model, &SchedulerConfig::default())
    }

    /// Schedules only the flows from priority position `skip` onward, on top
    /// of `base` — a schedule that already holds exactly the placements a
    /// full run would have made for flows `0..skip` of this `flows` set.
    ///
    /// Because the fixed-priority engine processes flows one at a time into
    /// a growing schedule and no per-flow policy state crosses a flow
    /// boundary (NR and RA are stateless; RC resets `ρ` in `begin_flow` and
    /// its laxity cache is a proven-exact accelerator), the result is
    /// byte-identical to `schedule_with` over the whole set. This is the
    /// delta path used by [`gateway`](crate::gateway): an admission at
    /// priority position `k` re-places only flows `k..n`.
    ///
    /// The default implementation ignores `base` and recomputes from
    /// scratch — always correct, never incremental — so third-party
    /// [`Scheduler`]s (including the frozen [`reference`](crate::reference)
    /// baselines) stay valid oracles without changes. NR, RA, and RC
    /// override it with the true suffix run.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::schedule_with`]; implementations additionally
    /// return [`ScheduleError::Inconsistent`] when `base`'s dimensions do
    /// not match `flows` and `model`.
    fn schedule_onto(
        &self,
        flows: &FlowSet,
        model: &NetworkModel,
        config: &SchedulerConfig,
        base: Schedule,
        skip: usize,
    ) -> Result<Schedule, ScheduleError> {
        let _ = (base, skip);
        self.schedule_with(flows, model, config)
    }
}

/// One placement request handed to a reuse policy: schedule `link` no
/// earlier than `earliest`, no later than `deadline_slot`, with `remaining`
/// the links of the job's transmissions still to come (`T_post`).
#[derive(Debug)]
pub(crate) struct PlaceRequest<'a> {
    pub link: DirectedLink,
    pub earliest: u32,
    pub deadline_slot: u32,
    pub remaining: &'a [DirectedLink],
}

/// How a scheduler picks `(slot, offset)` for each transmission — the only
/// thing that differs between NR, RA, and RC.
pub(crate) trait PlacePolicy {
    /// Called when the engine moves to the next flow (RC resets `ρ` here in
    /// per-flow mode).
    fn begin_flow(&mut self) {}

    /// Called before each transmission (RC resets `ρ` here in
    /// per-transmission mode).
    fn begin_transmission(&mut self) {}

    /// Chooses a cell for the request, or `None` for a deadline miss.
    fn place(
        &mut self,
        schedule: &Schedule,
        model: &NetworkModel,
        req: &PlaceRequest<'_>,
    ) -> Option<(u32, usize)>;

    /// Called once when the engine finishes a run (success or miss) — RC
    /// flushes its laxity-cache statistics here.
    fn finish(&mut self) {}
}

/// Instrument handles shared by every scheduler run. Built once per
/// [`run_fixed_priority`] call, and only when global metrics are on.
struct EngineMetrics {
    runs: wsan_obs::Counter,
    placements: wsan_obs::Counter,
    misses: wsan_obs::Counter,
    schedule_ns: wsan_obs::HdrHistogram,
    place_ns: wsan_obs::HdrHistogram,
}

impl EngineMetrics {
    fn new() -> Self {
        let reg = wsan_obs::global_metrics();
        EngineMetrics {
            runs: reg.counter("core.schedule.runs"),
            placements: reg.counter("core.schedule.placements"),
            misses: reg.counter("core.schedule.deadline_misses"),
            schedule_ns: reg.quantile("core.schedule_ns"),
            place_ns: reg.quantile("core.schedule.place_ns"),
        }
    }
}

/// The fixed-priority scheduling engine shared by NR/RA/RC: flows in
/// priority order, each flow's jobs in release order, each job's
/// transmissions in route order (primary then retry per link), every
/// transmission placed at the earliest slot its policy accepts.
pub(crate) fn run_fixed_priority<P: PlacePolicy>(
    flows: &FlowSet,
    model: &NetworkModel,
    config: &SchedulerConfig,
    policy: &mut P,
) -> Result<Schedule, ScheduleError> {
    if model.channels() == 0 {
        return Err(ScheduleError::NoChannels);
    }
    let base = Schedule::new(flows.hyperperiod(), model.channels(), model.node_count());
    run_fixed_priority_onto(flows, model, config, policy, base, 0)
}

/// The suffix form of the engine: flows `skip..n` are placed on top of
/// `base`, which must hold exactly the placements of flows `0..skip`. With
/// an empty `base` and `skip == 0` this *is* [`run_fixed_priority`]; see
/// [`Scheduler::schedule_onto`] for why the suffix run is byte-identical to
/// a full run.
pub(crate) fn run_fixed_priority_onto<P: PlacePolicy>(
    flows: &FlowSet,
    model: &NetworkModel,
    config: &SchedulerConfig,
    policy: &mut P,
    base: Schedule,
    skip: usize,
) -> Result<Schedule, ScheduleError> {
    if model.channels() == 0 {
        return Err(ScheduleError::NoChannels);
    }
    let horizon = flows.hyperperiod();
    if base.horizon() != horizon
        || base.channel_count() != model.channels()
        || base.node_count() != model.node_count()
    {
        return Err(ScheduleError::Inconsistent {
            reason: format!(
                "base schedule is {}x{}x{} but the flow set and model need {}x{}x{}",
                base.horizon(),
                base.channel_count(),
                base.node_count(),
                horizon,
                model.channels(),
                model.node_count()
            ),
        });
    }
    if skip > flows.len() {
        return Err(ScheduleError::Inconsistent {
            reason: format!("cannot skip {} of {} flows", skip, flows.len()),
        });
    }
    let metrics = wsan_obs::metrics_enabled().then(EngineMetrics::new);
    let started = metrics.as_ref().map(|m| {
        m.runs.inc();
        Instant::now()
    });
    let _span = wsan_obs::span(
        wsan_obs::Level::Debug,
        "core.schedule",
        if wsan_obs::enabled(wsan_obs::Level::Debug) {
            vec![wsan_obs::kv("flows", flows.len()), wsan_obs::kv("horizon", horizon)]
        } else {
            Vec::new()
        },
    );
    let mut schedule = base;
    let attempts: u8 = if config.retries { 2 } else { 1 };
    let result = 'run: {
        for flow in flows.iter().skip(skip) {
            policy.begin_flow();
            let links: Vec<DirectedLink> = flow.links();
            // The job's transmission sequence: every link primary + retries.
            let seq: Vec<(DirectedLink, u8)> =
                links.iter().flat_map(|l| (0..attempts).map(move |a| (*l, a))).collect();
            let remaining_links: Vec<DirectedLink> = seq.iter().map(|(l, _)| *l).collect();
            for job in flow.jobs(horizon) {
                let d_i = job.deadline_slot() - 1; // last usable slot
                let mut prev_slot: Option<u32> = None;
                for (i, (link, attempt)) in seq.iter().enumerate() {
                    let earliest = prev_slot.map_or(job.release_slot(), |p| p + 1);
                    policy.begin_transmission();
                    let req = PlaceRequest {
                        link: *link,
                        earliest,
                        deadline_slot: d_i,
                        remaining: &remaining_links[i + 1..],
                    };
                    let place_started = metrics.is_some().then(Instant::now);
                    let placed = policy.place(&schedule, model, &req);
                    if let (Some(m), Some(started)) = (&metrics, place_started) {
                        m.place_ns.record_nanos(started.elapsed());
                    }
                    let Some((slot, offset)) = placed else {
                        if let Some(m) = &metrics {
                            m.misses.inc();
                        }
                        if wsan_obs::enabled(wsan_obs::Level::Debug) {
                            wsan_obs::event(
                                wsan_obs::Level::Debug,
                                "wsan_core::scheduler",
                                "deadline miss: flow set unschedulable",
                                &[
                                    wsan_obs::kv("flow", flow.id().index()),
                                    wsan_obs::kv("job", job.index()),
                                ],
                            );
                        }
                        break 'run Err(ScheduleError::Unschedulable {
                            flow: flow.id(),
                            job_index: job.index(),
                        });
                    };
                    if let Some(m) = &metrics {
                        m.placements.inc();
                    }
                    debug_assert!(slot >= earliest && slot <= d_i);
                    schedule.place(
                        slot,
                        offset,
                        ScheduledTx {
                            flow: flow.id(),
                            job_index: job.index(),
                            link: *link,
                            seq: i as u16,
                            attempt: *attempt,
                        },
                    );
                    prev_slot = Some(slot);
                }
            }
        }
        Ok(schedule)
    };
    policy.finish();
    if let (Some(m), Some(started)) = (&metrics, started) {
        m.schedule_ns.record_nanos(started.elapsed());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_reserves_retries() {
        assert!(SchedulerConfig::default().retries);
    }
}
