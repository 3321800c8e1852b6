//! The simulation engine: one run loop that walks either only the busy
//! slots of the slotframe or every slot (see [`Simulator::run`]).

use crate::error::SimError;
use crate::faults::{FaultInjector, FaultLog};
use crate::phy::{LinkBudgets, PathLoss, Phy, WifiBudgets};
use crate::{FlowStats, LinkCondition, PrrSample, SimConfig, SimReport, TraceBuffer, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use wsan_core::Schedule;
use wsan_flow::FlowSet;
use wsan_net::{ChannelSet, DirectedLink, Topology};

/// One transmission opportunity of the slotframe, precomputed for fast
/// repetition.
#[derive(Debug, Clone, Copy)]
struct SlotTx {
    offset: usize,
    link: DirectedLink,
    /// index of `link` in [`Simulator::scheduled_links`]
    link_idx: usize,
    job_flat: usize,
    hop_index: u32,
    reuse: bool,
    /// position in its cell
    cell_pos: usize,
    /// start of its receiver's row in the cell budgets (reuse cells only)
    cell_row: usize,
}

/// Instrument handles for the per-slot loop, built once per run and only
/// when global metrics are on. Recording never touches the engine RNG, so
/// an instrumented run stays bit-identical to a plain one.
struct SimMetrics {
    tx: wsan_obs::Counter,
    ack: wsan_obs::Counter,
    collisions: wsan_obs::Counter,
    fault_events: wsan_obs::Counter,
    deliveries: wsan_obs::Counter,
    expiries: wsan_obs::Counter,
    prr: wsan_obs::Histogram,
    /// Wall time spent resolving one busy slot's transmissions, with
    /// p50/p90/p99/p999 quantiles.
    slot_batch_ns: wsan_obs::HdrHistogram,
}

impl SimMetrics {
    fn new() -> Self {
        let reg = wsan_obs::global_metrics();
        SimMetrics {
            tx: reg.counter("sim.tx"),
            ack: reg.counter("sim.ack"),
            collisions: reg.counter("sim.collisions"),
            fault_events: reg.counter("sim.fault_events"),
            deliveries: reg.counter("sim.deliveries"),
            expiries: reg.counter("sim.expiries"),
            prr: reg.histogram("sim.prr", &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
            slot_batch_ns: reg.quantile("sim.slot_batch_ns"),
        }
    }

    /// Publishes per-flow end-to-end gauges from a finished report:
    /// `sim.flow.<i>.pdr` and `sim.flow.<i>.latency_mean_slots`. Cold path
    /// (once per run); gauge registration takes the registry write lock.
    fn record_flow_gauges(report: &crate::SimReport) {
        let reg = wsan_obs::global_metrics();
        for (fi, stats) in report.flows.iter().enumerate() {
            let pdr = if stats.released == 0 {
                0.0
            } else {
                stats.delivered as f64 / stats.released as f64
            };
            reg.gauge(&format!("sim.flow.{fi}.pdr")).set(pdr);
            let lat = &report.latencies[fi];
            if !lat.is_empty() {
                let mean = lat.iter().map(|&l| f64::from(l)).sum::<f64>() / lat.len() as f64;
                reg.gauge(&format!("sim.flow.{fi}.latency_mean_slots")).set(mean);
            }
        }
    }
}

/// Executes a schedule against the probabilistic PHY.
///
/// The simulator borrows the planning artifacts — the topology whose PRR
/// tables the scheduler used, the channel set, the flow set, and the
/// schedule — and can then be run any number of times with different
/// [`SimConfig`]s (seeds, interference environments).
#[derive(Debug)]
pub struct Simulator<'a> {
    topo: &'a Topology,
    channels: &'a ChannelSet,
    flows: &'a FlowSet,
    horizon: u32,
    /// transmission opportunities grouped by slot
    per_slot: Vec<Vec<SlotTx>>,
    /// flat job index base per flow
    job_base: Vec<usize>,
    /// route hop count per flow
    flow_hops: Vec<u32>,
    total_jobs: usize,
    /// flow index of each flat job
    job_flow: Vec<usize>,
    /// release slot of each flat job
    job_release: Vec<u32>,
    /// distinct links appearing in the schedule, ascending: discovery
    /// probes, link budgets and sample windows are indexed by position here
    scheduled_links: Vec<DirectedLink>,
    /// slots of the slotframe holding at least one scheduled transmission,
    /// ascending — the busy-slot walk's itinerary
    busy_slots: Vec<u32>,
    /// signal and co-cell interferer powers of the scheduled transmissions
    budgets: LinkBudgets,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulator for `schedule` as planned on `topo` over
    /// `channels` for `flows`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule references flows or nodes outside the given
    /// flow set / topology, or if `channels` does not match the schedule's
    /// channel-offset count.
    pub fn new(
        topo: &'a Topology,
        channels: &'a ChannelSet,
        flows: &'a FlowSet,
        schedule: &Schedule,
    ) -> Self {
        match Self::try_new(topo, channels, flows, schedule) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Simulator::new`]: validates that the schedule,
    /// channel set, flow set, and topology are mutually consistent, and
    /// returns a typed [`SimError`] instead of panicking when they are not.
    ///
    /// # Errors
    ///
    /// [`SimError::ChannelMismatch`] when `channels` does not match the
    /// schedule's channel-offset count; [`SimError::UnknownFlow`] /
    /// [`SimError::NodeOutOfRange`] when the schedule references a flow or
    /// node outside `flows` / `topo`.
    pub fn try_new(
        topo: &'a Topology,
        channels: &'a ChannelSet,
        flows: &'a FlowSet,
        schedule: &Schedule,
    ) -> Result<Self, SimError> {
        if channels.len() != schedule.channel_count() {
            return Err(SimError::ChannelMismatch {
                schedule: schedule.channel_count(),
                channels: channels.len(),
            });
        }
        for e in schedule.entries() {
            if e.tx.flow.index() >= flows.len() {
                return Err(SimError::UnknownFlow {
                    flow_index: e.tx.flow.index(),
                    flows: flows.len(),
                });
            }
            for node in [e.tx.link.tx, e.tx.link.rx] {
                if node.index() >= topo.node_count() {
                    return Err(SimError::NodeOutOfRange {
                        node: node.index(),
                        nodes: topo.node_count(),
                    });
                }
            }
        }
        let horizon = schedule.horizon();
        // flat job indexing
        let mut job_base = Vec::with_capacity(flows.len());
        let mut total_jobs = 0usize;
        let mut flow_hops = Vec::with_capacity(flows.len());
        let mut job_flow = Vec::new();
        let mut job_release = Vec::new();
        for (fi, flow) in flows.iter().enumerate() {
            job_base.push(total_jobs);
            let jobs = horizon.div_ceil(flow.period().slots());
            for k in 0..jobs {
                job_flow.push(fi);
                job_release.push(k * flow.period().slots());
            }
            total_jobs += jobs as usize;
            flow_hops.push(flow.hop_count() as u32);
        }
        // The hop a transmission advances is the link's position on its
        // flow's route. (The historical inference `seq / attempts` assumed
        // every hop gets the same number of attempts; repaired or shed
        // schedules with uneven per-hop retries mislabeled hops, so
        // later-hop transmissions never matched the job's progress and
        // silently never fired.)
        let flow_links: Vec<Vec<DirectedLink>> = flows.iter().map(wsan_flow::Flow::links).collect();
        let mut scheduled_links: Vec<DirectedLink> =
            schedule.entries().iter().map(|e| e.tx.link).collect();
        scheduled_links.sort();
        scheduled_links.dedup();
        let path = PathLoss::new(topo);
        let mut budgets = LinkBudgets::new(&path, channels, &scheduled_links);
        let mut members: Vec<DirectedLink> = Vec::new();
        let mut per_slot: Vec<Vec<SlotTx>> = vec![Vec::new(); horizon as usize];
        for slot in 0..horizon {
            for offset in 0..schedule.channel_count() {
                let cell = schedule.cell(slot, offset);
                let reuse = cell.len() > 1;
                let cell_start = if reuse {
                    members.clear();
                    members.extend(cell.iter().map(|tx| tx.link));
                    budgets.push_cell(&path, channels, &members)
                } else {
                    0
                };
                for (cell_pos, tx) in cell.iter().enumerate() {
                    let fi = tx.flow.index();
                    let hop_index = flow_links[fi].iter().position(|l| *l == tx.link).ok_or(
                        SimError::LinkNotOnRoute {
                            flow_index: fi,
                            link: (tx.link.tx.index(), tx.link.rx.index()),
                        },
                    )? as u32;
                    let link_idx = scheduled_links
                        .binary_search(&tx.link)
                        .expect("scheduled_links lists every entry's link");
                    per_slot[slot as usize].push(SlotTx {
                        offset,
                        link: tx.link,
                        link_idx,
                        job_flat: job_base[fi] + tx.job_index as usize,
                        hop_index,
                        reuse,
                        cell_pos,
                        cell_row: cell_start + cell_pos * cell.len(),
                    });
                }
            }
        }
        let busy_slots: Vec<u32> =
            (0..horizon).filter(|&s| !per_slot[s as usize].is_empty()).collect();
        Ok(Simulator {
            topo,
            channels,
            flows,
            horizon,
            per_slot,
            job_base,
            flow_hops,
            total_jobs,
            job_flow,
            job_release,
            scheduled_links,
            busy_slots,
            budgets,
        })
    }

    /// Runs the schedule `config.repetitions` times and reports delivery and
    /// link statistics. Deterministic in `(self, config)`.
    ///
    /// With no `config.interferers` and a fault plan that draws nothing per
    /// slot (no stochastic trigger, no spawned interferer), idle slots
    /// consume no randomness, and the run visits only the slots that hold
    /// transmissions; otherwise it visits every slot. The choice never
    /// changes the report (DESIGN.md §13).
    ///
    /// # Panics
    ///
    /// Panics if `config.faults` is inconsistent with the simulated world;
    /// use [`Simulator::try_run`] to get a typed error instead.
    pub fn run(&self, config: &SimConfig) -> SimReport {
        self.run_faulted(config).0
    }

    /// Like [`Simulator::run`], but also returns the [`FaultLog`] of fault
    /// events that fired during the run.
    ///
    /// # Panics
    ///
    /// Panics if `config.faults` is inconsistent with the simulated world;
    /// use [`Simulator::try_run_faulted`] to get a typed error instead.
    pub fn run_faulted(&self, config: &SimConfig) -> (SimReport, FaultLog) {
        match self.try_run_faulted(config) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// [`SimError::BadFaultPlan`] when `config.faults` references nodes or
    /// interferers outside the simulated world or carries out-of-range
    /// probabilities.
    pub fn try_run(&self, config: &SimConfig) -> Result<SimReport, SimError> {
        self.try_run_faulted(config).map(|(report, _)| report)
    }

    /// Fallible variant of [`Simulator::run_faulted`]: validates the fault
    /// plan up front so injected faults surface as recoverable errors, not
    /// panics mid-run.
    ///
    /// # Errors
    ///
    /// [`SimError::BadFaultPlan`] under the same conditions as
    /// [`Simulator::try_run`].
    pub fn try_run_faulted(&self, config: &SimConfig) -> Result<(SimReport, FaultLog), SimError> {
        self.run_impl(config, None, false)
    }

    /// Like [`Simulator::try_run_faulted`], but also records per-event
    /// history into `trace` (attempts with their interference counts,
    /// deliveries, expiries). Tracing does not perturb the RNG stream: a
    /// traced run returns the same report as an untraced one with the same
    /// config.
    ///
    /// # Errors
    ///
    /// [`SimError::BadFaultPlan`] under the same conditions as
    /// [`Simulator::try_run`].
    pub fn try_run_traced(
        &self,
        config: &SimConfig,
        trace: &mut TraceBuffer,
    ) -> Result<(SimReport, FaultLog), SimError> {
        self.run_impl(config, Some(trace), false)
    }

    /// Runs the every-slot walk whatever the config: the oracle that the
    /// busy-slot walk of [`Simulator::try_run_faulted`] is tested and
    /// benchmarked against. Not part of the supported API.
    ///
    /// # Errors
    ///
    /// [`SimError::BadFaultPlan`] under the same conditions as
    /// [`Simulator::try_run`].
    #[doc(hidden)]
    pub fn try_run_every_slot(
        &self,
        config: &SimConfig,
        trace: Option<&mut TraceBuffer>,
    ) -> Result<(SimReport, FaultLog), SimError> {
        self.run_impl(config, trace, true)
    }

    /// The one run loop. Inside the draw-order contract of DESIGN.md §13
    /// (no environment interferers, and a fault plan that draws nothing per
    /// slot) an idle slot consumes no RNG draw and the injector's answers
    /// change only at the plan's change slots, so the loop visits only
    /// [`Simulator::busy_slots`] and advances the injector through those
    /// change slots as it goes. Otherwise, or when `every_slot` asks for the
    /// oracle, it visits every slot. The fault plan is validated up front so
    /// injected faults surface as typed errors, not panics mid-run.
    fn run_impl(
        &self,
        config: &SimConfig,
        trace: Option<&mut TraceBuffer>,
        every_slot: bool,
    ) -> Result<(SimReport, FaultLog), SimError> {
        config.faults.validate(self.topo.node_count(), config.interferers.len())?;
        let busy_only =
            !every_slot && config.interferers.is_empty() && !config.faults.draws_per_slot();
        let _span = wsan_obs::span(
            wsan_obs::Level::Debug,
            "sim.run",
            if wsan_obs::enabled(wsan_obs::Level::Debug) {
                vec![
                    wsan_obs::kv("seed", config.seed),
                    wsan_obs::kv("repetitions", config.repetitions),
                    wsan_obs::kv("horizon", self.horizon),
                ]
            } else {
                Vec::new()
            },
        );
        let mut core = RunCore::new(self, config, trace);
        let mut injector = FaultInjector::new(&config.faults);
        let horizon = u64::from(self.horizon);
        let mut changes = if busy_only {
            config.faults.change_slots(u64::from(config.repetitions) * horizon)
        } else {
            Vec::new()
        }
        .into_iter()
        .peekable();
        // Duty-gate buffers reused across every slot of every repetition:
        // the per-slot loop allocates nothing after the first iteration.
        // Spawned interferers are carried as fault-plan event indices.
        let mut spawned: Vec<usize> = Vec::new();
        let mut env_active: Vec<bool> = vec![false; config.interferers.len()];
        for rep in 0..config.repetitions {
            let rep_start = u64::from(rep) * horizon;
            if busy_only {
                for &slot in &self.busy_slots {
                    let asn = rep_start + u64::from(slot);
                    while let Some(change) = changes.next_if(|&c| c <= asn) {
                        injector.advance(change);
                    }
                    core.slot(slot, asn, &injector, &env_active, &spawned);
                }
                while let Some(change) = changes.next_if(|&c| c < rep_start + horizon) {
                    injector.advance(change);
                }
            } else {
                for slot in 0..self.horizon {
                    let asn = rep_start + u64::from(slot);
                    injector.advance(asn);
                    // Environment interferers gate on the engine RNG (one
                    // draw each, silenced or not, so an active fault plan
                    // never perturbs the fault-free stream); injected
                    // interferers gate on the injector's own RNG.
                    injector.sample_spawned_wifi_into(&mut spawned);
                    core.draw_environment_gates(&injector, &mut env_active);
                    core.slot(slot, asn, &injector, &env_active, &spawned);
                }
            }
            // neighbor-discovery probes: contention-free, cycling channels
            for _ in 0..config.discovery_probes {
                for link in 0..self.scheduled_links.len() {
                    injector.sample_spawned_wifi_into(&mut spawned);
                    core.draw_environment_gates(&injector, &mut env_active);
                    core.probe(rep, link, &injector, &env_active, &spawned);
                }
            }
            core.end_repetition(rep);
        }
        let log = injector.into_log();
        let report = core.finish(&log);
        if wsan_obs::enabled(wsan_obs::Level::Info) {
            wsan_obs::event(
                wsan_obs::Level::Info,
                "wsan_sim::engine",
                "simulation run complete",
                &[
                    wsan_obs::kv("network_pdr", report.network_pdr()),
                    wsan_obs::kv("faults_fired", log.fired()),
                ],
            );
        }
        Ok((report, log))
    }
}

/// The two conditions in [`LinkCondition`]'s order: a sample window holds
/// one sample per (scheduled link, condition), link-major, so ascending
/// window positions follow the `(DirectedLink, LinkCondition)` key order of
/// [`SimReport::link_samples`].
const CONDITIONS: [LinkCondition; 2] = [LinkCondition::ContentionFree, LinkCondition::Reuse];

/// Window position of scheduled link `link` under `condition`.
fn window_index(link: usize, condition: LinkCondition) -> usize {
    CONDITIONS.len() * link + condition as usize
}

/// The state of one run, whichever walk drives it: the main RNG stream
/// (fading and success draws), the run's WiFi budgets, job progress, the
/// open PRR sample window and the report being built. Every attempt is
/// resolved here, in slot order.
struct RunCore<'s, 'w, 't> {
    sim: &'s Simulator<'w>,
    config: &'s SimConfig,
    phy: Phy,
    wifi: WifiBudgets,
    rng: StdRng,
    /// Per (scheduled link, condition), see [`window_index`].
    window: Vec<PrrSample>,
    window_reps: u32,
    progress: Vec<u32>,
    flow_stats: Vec<FlowStats>,
    report: SimReport,
    // Per-slot scratch, reused so the hot loop allocates nothing.
    actives: Vec<&'s SlotTx>,
    advanced: Vec<usize>,
    interferer_mw: Vec<f64>,
    trace: Option<&'t mut TraceBuffer>,
    metrics: Option<SimMetrics>,
}

impl<'s, 'w, 't> RunCore<'s, 'w, 't> {
    /// Starts a run of `config`.
    fn new(
        sim: &'s Simulator<'w>,
        config: &'s SimConfig,
        trace: Option<&'t mut TraceBuffer>,
    ) -> Self {
        let path = PathLoss::new(sim.topo);
        RunCore {
            sim,
            config,
            phy: Phy::new(config.capture),
            wifi: WifiBudgets::new(
                &path,
                sim.channels,
                &sim.scheduled_links,
                &config.interferers,
                &config.faults,
            ),
            rng: StdRng::seed_from_u64(config.seed),
            window: vec![PrrSample::default(); CONDITIONS.len() * sim.scheduled_links.len()],
            window_reps: config.window_reps.max(1),
            progress: vec![0; sim.total_jobs],
            flow_stats: vec![FlowStats::default(); sim.flows.len()],
            report: SimReport {
                flows: Vec::new(),
                link_samples: BTreeMap::new(),
                latencies: vec![Vec::new(); sim.flows.len()],
            },
            actives: Vec::new(),
            advanced: Vec::new(),
            interferer_mw: Vec::new(),
            trace,
            metrics: wsan_obs::metrics_enabled().then(SimMetrics::new),
        }
    }

    /// The environment duty gates: one main-stream draw per interferer,
    /// silenced or not.
    fn draw_environment_gates(&mut self, injector: &FaultInjector, active: &mut [bool]) {
        for (i, w) in self.config.interferers.iter().enumerate() {
            let duty = self.rng.gen::<f64>() < w.duty_cycle;
            active[i] = duty && !injector.interferer_silenced(i);
        }
    }

    /// Resolves the scheduled transmissions of slotframe slot `slot` at
    /// absolute slot `asn`, with the environment interferers flagged in
    /// `env_active` and the spawned ones (fault-plan event indices) in
    /// `spawned` on the air.
    fn slot(
        &mut self,
        slot: u32,
        asn: u64,
        injector: &FaultInjector,
        env_active: &[bool],
        spawned: &[usize],
    ) {
        let sim = self.sim;
        let txs = &sim.per_slot[slot as usize];
        if txs.is_empty() {
            return;
        }
        let batch_started = self.metrics.is_some().then(std::time::Instant::now);
        // Which scheduled transmissions actually fire this slot?
        // A crashed sender transmits nothing at all.
        let progress = &self.progress;
        self.actives.clear();
        self.actives.extend(
            txs.iter()
                .filter(|t| progress[t.job_flat] == t.hop_index && !injector.node_down(t.link.tx)),
        );
        // Resolve receptions against the slot-start active set.
        self.advanced.clear();
        for t in &self.actives {
            let ch = sim.channels.physical_index(asn, t.offset);
            // co-cell senders in `actives` order: the summation order is
            // part of the bit-equality contract (DESIGN.md §13)
            self.interferer_mw.clear();
            if t.reuse {
                self.interferer_mw.extend(
                    self.actives
                        .iter()
                        .filter(|o| o.offset == t.offset && o.job_flat != t.job_flat)
                        .map(|o| sim.budgets.co_cell_mw(t.cell_row, o.cell_pos, ch)),
                );
            }
            let external = self.wifi.external_mw(t.link_idx, ch, env_active, spawned);
            // temporal fading perturbs the SIR only when there is
            // interference to compete with
            let fading = if self.interferer_mw.is_empty() && external <= 0.0 {
                0.0
            } else {
                self.config.capture.fading.sample_db(&mut self.rng)
            };
            // A crashed receiver hears (and acknowledges) nothing;
            // a collapsed link caps the base PRR the PHY sees.
            let p = if injector.node_down(t.link.rx) {
                0.0
            } else {
                self.phy.success_probability(
                    sim.budgets.prr(t.link_idx, ch),
                    injector.link_prr_override(t.link, sim.channels.at(ch)),
                    sim.budgets.signal_mw(t.link_idx, ch),
                    &self.interferer_mw,
                    external,
                    fading,
                )
            };
            let success = self.rng.gen::<f64>() < p;
            if let Some(buf) = self.trace.as_deref_mut() {
                buf.push(TraceEvent::Attempt {
                    asn,
                    link: t.link,
                    flow: sim.flows.flow(wsan_flow::FlowId::new(sim.job_flow[t.job_flat])).id(),
                    interferers: self.interferer_mw.len(),
                    success,
                });
            }
            let cond = if t.reuse { LinkCondition::Reuse } else { LinkCondition::ContentionFree };
            let sample = &mut self.window[window_index(t.link_idx, cond)];
            sample.sent += 1;
            if success {
                sample.acked += 1;
                self.advanced.push(t.job_flat);
            }
            if let Some(m) = &self.metrics {
                m.tx.inc();
                if success {
                    m.ack.inc();
                } else if !self.interferer_mw.is_empty() || external > 0.0 {
                    // a loss with competing energy in the air
                    m.collisions.inc();
                }
            }
        }
        for &job in &self.advanced {
            self.progress[job] += 1;
            // record delivery latency the moment the last hop lands
            if self.progress[job] == sim.flow_hops[sim.job_flow[job]] {
                let latency = slot - sim.job_release[job] + 1;
                self.report.latencies[sim.job_flow[job]].push(latency);
                if let Some(m) = &self.metrics {
                    m.deliveries.inc();
                }
                if let Some(buf) = self.trace.as_deref_mut() {
                    buf.push(TraceEvent::Delivered {
                        asn,
                        flow: wsan_flow::FlowId::new(sim.job_flow[job]),
                        latency,
                    });
                }
            }
        }
        if let (Some(m), Some(started)) = (&self.metrics, batch_started) {
            m.slot_batch_ns.record_nanos(started.elapsed());
        }
    }

    /// One contention-free neighbor-discovery probe on scheduled link
    /// `link` in repetition `rep`, on the channel its probes cycle to.
    fn probe(
        &mut self,
        rep: u32,
        link: usize,
        injector: &FaultInjector,
        env_active: &[bool],
        spawned: &[usize],
    ) {
        let sim = self.sim;
        let probed = sim.scheduled_links[link];
        let ch = (rep as usize + link) % sim.channels.len();
        let external = self.wifi.external_mw(link, ch, env_active, spawned);
        let fading =
            if external <= 0.0 { 0.0 } else { self.config.capture.fading.sample_db(&mut self.rng) };
        // a crashed sender probes nothing; a crashed receiver acknowledges
        // nothing — probes see faults exactly like data slots so the §VI
        // classifier gets honest CF samples
        if injector.node_down(probed.tx) {
            return;
        }
        let p = if injector.node_down(probed.rx) {
            0.0
        } else {
            self.phy.success_probability(
                sim.budgets.prr(link, ch),
                injector.link_prr_override(probed, sim.channels.at(ch)),
                sim.budgets.signal_mw(link, ch),
                &[],
                external,
                fading,
            )
        };
        let sample = &mut self.window[window_index(link, LinkCondition::ContentionFree)];
        sample.sent += 1;
        if self.rng.gen::<f64>() < p {
            sample.acked += 1;
        }
    }

    /// End-of-repetition bookkeeping: delivery accounting, a fresh job
    /// progress, and the window flush at window boundaries.
    fn end_repetition(&mut self, rep: u32) {
        let sim = self.sim;
        for (fi, flow) in sim.flows.iter().enumerate() {
            let jobs = sim.horizon.div_ceil(flow.period().slots()) as usize;
            for j in 0..jobs {
                self.flow_stats[fi].released += 1;
                if self.progress[sim.job_base[fi] + j] >= sim.flow_hops[fi] {
                    self.flow_stats[fi].delivered += 1;
                } else {
                    if let Some(m) = &self.metrics {
                        m.expiries.inc();
                    }
                    if let Some(buf) = self.trace.as_deref_mut() {
                        buf.push(TraceEvent::Expired {
                            asn: u64::from(rep) * u64::from(sim.horizon)
                                + u64::from(sim.horizon - 1),
                            flow: wsan_flow::FlowId::new(fi),
                        });
                    }
                }
            }
        }
        self.progress.fill(0);
        if (rep + 1).is_multiple_of(self.window_reps) {
            self.flush();
        }
    }

    /// Appends every window sample that saw a transmission to the report,
    /// in key order, and opens a new window.
    fn flush(&mut self) {
        for (i, sample) in self.window.iter_mut().enumerate() {
            let sample = std::mem::take(sample);
            if sample.sent > 0 {
                if let Some(m) = &self.metrics {
                    // one PRR observation per flushed window sample
                    m.prr.observe(f64::from(sample.acked) / f64::from(sample.sent));
                }
                let key = (
                    self.sim.scheduled_links[i / CONDITIONS.len()],
                    CONDITIONS[i % CONDITIONS.len()],
                );
                self.report.link_samples.entry(key).or_default().push(sample);
            }
        }
    }

    /// Flushes the last window and returns the report of a run whose
    /// injector logged `log`.
    fn finish(mut self, log: &FaultLog) -> SimReport {
        self.flush();
        self.report.flows = self.flow_stats;
        if let Some(m) = &self.metrics {
            m.fault_events.add(log.fired() as u64);
            SimMetrics::record_flow_gauges(&self.report);
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WifiInterferer;
    use wsan_core::{NetworkModel, NoReuse, ReuseAggressively, Scheduler};
    use wsan_flow::{priority, Flow, FlowId, Period};
    use wsan_net::propagation::PropagationModel;
    use wsan_net::NodeId;
    use wsan_net::{ChannelId, Position, Prr, Route};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Two disjoint parallel links far apart, plus perfect PRR everywhere on
    /// 2 channels: 0→1 at x=0, 2→3 at x=60 m.
    fn setup(perfect: bool) -> (Topology, ChannelSet, FlowSet) {
        let mut topo = Topology::new(
            "sim-test",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(8.0, 0.0, 0.0),
                Position::new(60.0, 0.0, 0.0),
                Position::new(68.0, 0.0, 0.0),
            ],
        );
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 12).unwrap();
        let prr = if perfect { Prr::ONE } else { Prr::new(0.8).unwrap() };
        for (a, b) in [(0, 1), (2, 3)] {
            for ch in &channels {
                topo.set_prr(n(a), n(b), ch, prr).unwrap();
                topo.set_prr(n(b), n(a), ch, prr).unwrap();
            }
        }
        let flows = priority::deadline_monotonic(
            vec![
                Flow::new(
                    FlowId::new(0),
                    Route::new(vec![n(0), n(1)]),
                    Period::from_slots(10).unwrap(),
                    10,
                )
                .unwrap(),
                Flow::new(
                    FlowId::new(1),
                    Route::new(vec![n(2), n(3)]),
                    Period::from_slots(10).unwrap(),
                    10,
                )
                .unwrap(),
            ],
            vec![],
        );
        (topo, channels, flows)
    }

    #[test]
    fn perfect_links_deliver_everything() {
        let (topo, channels, flows) = setup(true);
        let model = NetworkModel::new(&topo, &channels);
        let schedule = NoReuse::new().schedule(&flows, &model).unwrap();
        let sim = Simulator::new(&topo, &channels, &flows, &schedule);
        let report =
            sim.run(&SimConfig { repetitions: 20, discovery_probes: 0, ..SimConfig::default() });
        assert_eq!(report.network_pdr(), 1.0);
        assert_eq!(report.worst_flow_pdr(), 1.0);
        // with PRR 1.0 primaries always succeed: retries never fire
        let sent: u32 = report.link_samples.values().flat_map(|v| v.iter()).map(|s| s.sent).sum();
        // 2 flows × 1 primary × 1 job × 20 reps
        assert_eq!(sent, 40);
    }

    #[test]
    fn lossy_links_use_retries_and_still_deliver_most() {
        let (topo, channels, flows) = setup(false);
        let model = NetworkModel::new(&topo, &channels);
        let schedule = NoReuse::new().schedule(&flows, &model).unwrap();
        let sim = Simulator::new(&topo, &channels, &flows, &schedule);
        let report = sim.run(&SimConfig { repetitions: 500, seed: 42, ..SimConfig::default() });
        // per-hop success with one retry: 1 − 0.04 = 0.96
        let pdr = report.network_pdr();
        assert!((pdr - 0.96).abs() < 0.03, "pdr {pdr} should be near 0.96");
        // retries fired: more than 1 tx per job on average
        let sent: u32 = report.link_samples.values().flat_map(|v| v.iter()).map(|s| s.sent).sum();
        assert!(sent > 1000, "retransmissions should add transmissions, got {sent}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let (topo, channels, flows) = setup(false);
        let model = NetworkModel::new(&topo, &channels);
        let schedule = NoReuse::new().schedule(&flows, &model).unwrap();
        let sim = Simulator::new(&topo, &channels, &flows, &schedule);
        let cfg = SimConfig { repetitions: 50, seed: 7, ..SimConfig::default() };
        assert_eq!(sim.run(&cfg), sim.run(&cfg));
        let other = SimConfig { repetitions: 50, seed: 8, ..SimConfig::default() };
        assert_ne!(sim.run(&cfg), sim.run(&other));
    }

    #[test]
    fn distant_reuse_is_nearly_harmless() {
        // Force both links into the same cell (1 channel, RA): 60 m apart,
        // capture holds, PDR stays high.
        let (topo, _channels, flows) = setup(true);
        let one = ChannelId::range(11, 11).unwrap();
        let model = NetworkModel::new(&topo, &one);
        let schedule = ReuseAggressively::new(2).schedule(&flows, &model).unwrap();
        assert!(
            schedule.occupied_cells().any(|(_, _, c)| c.len() > 1),
            "test needs an actual reuse cell"
        );
        let sim = Simulator::new(&topo, &one, &flows, &schedule);
        let report = sim.run(&SimConfig { repetitions: 300, ..SimConfig::default() });
        assert!(report.network_pdr() > 0.95, "pdr {}", report.network_pdr());
        // reuse-labeled samples were recorded
        assert!(!report.links_with_reuse().is_empty());
    }

    #[test]
    fn close_reuse_destroys_reliability() {
        // Crossed links: each sender sits right next to the *other* link's
        // receiver (0→1 with interferer 2 at 2 m from node 1, and 2→3 with
        // interferer 0 at 2 m from node 3). Both signals arrive ~21 dB below
        // the interference, capture fails, and because the schedule repeats,
        // the retries collide too.
        let mut topo = Topology::new(
            "sim-close",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(10.0, 0.0, 0.0),
                Position::new(12.0, 0.0, 0.0),
                Position::new(2.0, 0.0, 0.0),
            ],
        );
        topo.set_propagation_model(PropagationModel::default());
        let one = ChannelId::range(11, 11).unwrap();
        for (a, b) in [(0, 1), (2, 3)] {
            for ch in &one {
                topo.set_prr(n(a), n(b), ch, Prr::ONE).unwrap();
                topo.set_prr(n(b), n(a), ch, Prr::ONE).unwrap();
            }
        }
        let flows = priority::deadline_monotonic(
            vec![
                Flow::new(
                    FlowId::new(0),
                    Route::new(vec![n(0), n(1)]),
                    Period::from_slots(4).unwrap(),
                    2,
                )
                .unwrap(),
                Flow::new(
                    FlowId::new(1),
                    Route::new(vec![n(2), n(3)]),
                    Period::from_slots(4).unwrap(),
                    2,
                )
                .unwrap(),
            ],
            vec![],
        );
        let model = NetworkModel::new(&topo, &one);
        // The reuse graph of this topology is (almost) complete, so pairwise
        // distances are 1; rho=1 lets RA share the single channel.
        let schedule = ReuseAggressively::new(1).schedule(&flows, &model).unwrap();
        let shared = schedule.occupied_cells().any(|(_, _, c)| c.len() > 1);
        assert!(shared, "RA at rho=1 should share the single channel");
        let sim = Simulator::new(&topo, &one, &flows, &schedule);
        let report = sim.run(&SimConfig { repetitions: 300, ..SimConfig::default() });
        assert!(
            report.network_pdr() < 0.3,
            "crossed concurrent transmissions should collapse, pdr {}",
            report.network_pdr()
        );
    }

    #[test]
    fn wifi_interference_degrades_nearby_links_without_reuse() {
        let (topo, channels, flows) = setup(true);
        let model = NetworkModel::new(&topo, &channels);
        let schedule = NoReuse::new().schedule(&flows, &model).unwrap();
        let sim = Simulator::new(&topo, &channels, &flows, &schedule);
        let clean = sim.run(&SimConfig { repetitions: 300, ..SimConfig::default() });
        let noisy = sim.run(&SimConfig {
            repetitions: 300,
            interferers: vec![WifiInterferer::wifi_channel_1(
                Position::new(4.0, 0.0, 0.0), // on top of link 0→1
                10.0,
                0.5,
            )],
            ..SimConfig::default()
        });
        assert!(
            noisy.flow_pdrs()[0] < clean.flow_pdrs()[0] - 0.1
                || noisy.flow_pdrs()[1] < clean.flow_pdrs()[1] - 0.1,
            "WiFi interference near a link must depress its PDR: clean {:?} noisy {:?}",
            clean.flow_pdrs(),
            noisy.flow_pdrs()
        );
    }

    /// Regression: `try_new` used to infer `hop_index = seq / attempts`,
    /// assuming every hop of a flow has the same number of attempts. On a
    /// repaired/shed schedule with uneven per-hop retries (here: two
    /// attempts on hop 0, one on hop 1) the old inference labeled the hop-0
    /// retry as hop 1 — so a "delivery" was counted without the final link
    /// ever transmitting, and the real last hop never fired at all.
    #[test]
    fn uneven_per_hop_attempts_keep_hop_labels_straight() {
        use wsan_core::{Schedule, ScheduledTx};
        let mut topo = Topology::new(
            "uneven",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(8.0, 0.0, 0.0),
                Position::new(16.0, 0.0, 0.0),
            ],
        );
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 11).unwrap();
        for (a, b) in [(0, 1), (1, 2)] {
            for ch in &channels {
                topo.set_prr(n(a), n(b), ch, Prr::ONE).unwrap();
                topo.set_prr(n(b), n(a), ch, Prr::ONE).unwrap();
            }
        }
        let flows = priority::deadline_monotonic(
            vec![Flow::new(
                FlowId::new(0),
                Route::new(vec![n(0), n(1), n(2)]),
                Period::from_slots(10).unwrap(),
                10,
            )
            .unwrap()],
            vec![],
        );
        // hand-built shed schedule: hop 0 keeps its retry, hop 1 lost its
        // retry slot — 3 entries over 2 hops
        let link01 = DirectedLink { tx: n(0), rx: n(1) };
        let link12 = DirectedLink { tx: n(1), rx: n(2) };
        let mut schedule = Schedule::new(10, 1, 3);
        let place = |s: &mut Schedule, slot: u32, link: DirectedLink, seq: u16, attempt: u8| {
            s.place(
                slot,
                0,
                ScheduledTx { flow: FlowId::new(0), job_index: 0, link, seq, attempt },
            );
        };
        place(&mut schedule, 0, link01, 0, 0);
        place(&mut schedule, 1, link01, 1, 1);
        place(&mut schedule, 2, link12, 2, 0);
        let sim = Simulator::new(&topo, &channels, &flows, &schedule);
        let report =
            sim.run(&SimConfig { repetitions: 10, discovery_probes: 0, ..SimConfig::default() });
        // the final hop must actually transmit…
        let last_hop_sent: u32 = report
            .link_samples
            .iter()
            .filter(|((l, _), _)| *l == link12)
            .flat_map(|(_, v)| v.iter())
            .map(|s| s.sent)
            .sum();
        assert!(last_hop_sent > 0, "hop 1→2 never fired: hops are mislabeled");
        // …and with perfect links the packet arrives via slot 0 and slot 2:
        // latency 3 slots, not the hop-0-only lie of 2
        assert_eq!(report.network_pdr(), 1.0);
        assert_eq!(report.latencies[0], vec![3; 10]);
    }

    /// A schedule placing a flow on a link outside its route is rejected
    /// with a typed error instead of silently mislabeling the hop.
    #[test]
    fn off_route_link_is_rejected() {
        let (topo, channels, flows) = setup(true);
        use wsan_core::{Schedule, ScheduledTx};
        let mut schedule = Schedule::new(10, 2, 4);
        schedule.place(
            0,
            0,
            ScheduledTx {
                flow: FlowId::new(0),
                job_index: 0,
                link: DirectedLink { tx: n(2), rx: n(3) }, // flow 0's route is 0→1
                seq: 0,
                attempt: 0,
            },
        );
        match Simulator::try_new(&topo, &channels, &flows, &schedule) {
            Err(SimError::LinkNotOnRoute { flow_index: 0, link: (2, 3) }) => {}
            other => panic!("expected LinkNotOnRoute, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "channel set size")]
    fn mismatched_channel_set_panics() {
        let (topo, channels, flows) = setup(true);
        let model = NetworkModel::new(&topo, &channels);
        let schedule = NoReuse::new().schedule(&flows, &model).unwrap();
        let wrong = ChannelId::range(11, 14).unwrap();
        let _ = Simulator::new(&topo, &wrong, &flows, &schedule);
    }
}

#[cfg(test)]
mod segment_tests {
    use super::*;
    use wsan_core::{NetworkModel, NoReuse, Scheduler};
    use wsan_flow::{priority, Flow, FlowId, Period};
    use wsan_net::propagation::PropagationModel;
    use wsan_net::NodeId;
    use wsan_net::{ChannelId, Position, Prr, Route};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// A centralized flow with two wireless segments joined by the wired
    /// backbone: 0→1 (up to AP 1), wired 1⇢2, 2→3 (down to actuator).
    #[test]
    fn two_segment_flow_delivers_across_the_wired_backbone() {
        let mut topo = Topology::new(
            "wired",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(8.0, 0.0, 0.0),
                Position::new(40.0, 0.0, 0.0),
                Position::new(48.0, 0.0, 0.0),
            ],
        );
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 12).unwrap();
        for (a, b) in [(0, 1), (2, 3)] {
            for ch in &channels {
                topo.set_prr(n(a), n(b), ch, Prr::ONE).unwrap();
                topo.set_prr(n(b), n(a), ch, Prr::ONE).unwrap();
            }
        }
        let flow = Flow::with_segments(
            FlowId::new(0),
            vec![Route::new(vec![n(0), n(1)]), Route::new(vec![n(2), n(3)])],
            Period::from_slots(20).unwrap(),
            20,
        )
        .unwrap();
        let flows = priority::deadline_monotonic(vec![flow], vec![n(1), n(2)]);
        let model = NetworkModel::new(&topo, &channels);
        let schedule = NoReuse::new().schedule(&flows, &model).unwrap();
        // 2 links × 2 attempts
        assert_eq!(schedule.entry_count(), 4);
        let sim = Simulator::new(&topo, &channels, &flows, &schedule);
        let report =
            sim.run(&SimConfig { repetitions: 25, discovery_probes: 0, ..SimConfig::default() });
        assert_eq!(report.network_pdr(), 1.0, "perfect links must deliver across the backbone");
    }

    /// Discovery probes cover every scheduled link under the
    /// contention-free condition even when all data slots are shared.
    #[test]
    fn discovery_probes_provide_cf_samples() {
        let mut topo = Topology::new(
            "probes",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(8.0, 0.0, 0.0),
                Position::new(60.0, 0.0, 0.0),
                Position::new(68.0, 0.0, 0.0),
            ],
        );
        topo.set_propagation_model(PropagationModel::default());
        let one = ChannelId::range(11, 11).unwrap();
        for (a, b) in [(0, 1), (2, 3)] {
            for ch in &one {
                topo.set_prr(n(a), n(b), ch, Prr::ONE).unwrap();
                topo.set_prr(n(b), n(a), ch, Prr::ONE).unwrap();
            }
        }
        let flows = priority::deadline_monotonic(
            vec![
                Flow::new(
                    FlowId::new(0),
                    Route::new(vec![n(0), n(1)]),
                    Period::from_slots(10).unwrap(),
                    10,
                )
                .unwrap(),
                Flow::new(
                    FlowId::new(1),
                    Route::new(vec![n(2), n(3)]),
                    Period::from_slots(10).unwrap(),
                    10,
                )
                .unwrap(),
            ],
            vec![],
        );
        let model = NetworkModel::new(&topo, &one);
        let schedule = wsan_core::ReuseAggressively::new(2).schedule(&flows, &model).unwrap();
        let sim = Simulator::new(&topo, &one, &flows, &schedule);
        let report = sim.run(&SimConfig {
            repetitions: 20,
            window_reps: 5,
            discovery_probes: 1,
            ..SimConfig::default()
        });
        for flow in &flows {
            for link in flow.links() {
                assert!(
                    !report.prr_distribution(link, LinkCondition::ContentionFree).is_empty(),
                    "probes must give {link} contention-free samples"
                );
            }
        }
    }
}

#[cfg(test)]
mod latency_tracking_tests {
    use super::*;
    use wsan_core::{NetworkModel, NoReuse, Scheduler};
    use wsan_flow::{priority, Flow, FlowId, Period};
    use wsan_net::propagation::PropagationModel;
    use wsan_net::NodeId;
    use wsan_net::{ChannelId, Position, Prr, Route};

    #[test]
    fn latencies_match_the_schedule_for_perfect_links() {
        let mut topo =
            Topology::new("lat", vec![Position::new(0.0, 0.0, 0.0), Position::new(8.0, 0.0, 0.0)]);
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 12).unwrap();
        for ch in &channels {
            topo.set_prr(NodeId::new(0), NodeId::new(1), ch, Prr::ONE).unwrap();
            topo.set_prr(NodeId::new(1), NodeId::new(0), ch, Prr::ONE).unwrap();
        }
        let flow = Flow::new(
            FlowId::new(0),
            Route::new(vec![NodeId::new(0), NodeId::new(1)]),
            Period::from_slots(10).unwrap(),
            10,
        )
        .unwrap();
        let flows = priority::deadline_monotonic(vec![flow], vec![]);
        let model = NetworkModel::new(&topo, &channels);
        let schedule = NoReuse::new().schedule(&flows, &model).unwrap();
        // primary lands in slot 0: latency = 1 slot, every repetition
        let sim = Simulator::new(&topo, &channels, &flows, &schedule);
        let report =
            sim.run(&SimConfig { repetitions: 12, discovery_probes: 0, ..SimConfig::default() });
        assert_eq!(report.latencies[0], vec![1; 12]);
        assert_eq!(report.mean_latency(0), Some(1.0));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use wsan_core::{NetworkModel, NoReuse, Scheduler};
    use wsan_flow::{priority, Flow, FlowId, Period};
    use wsan_net::propagation::PropagationModel;
    use wsan_net::NodeId;
    use wsan_net::{ChannelId, Position, Prr, Route};

    #[test]
    fn tracing_does_not_change_the_outcome() {
        let mut topo = Topology::new(
            "traced",
            vec![Position::new(0.0, 0.0, 0.0), Position::new(8.0, 0.0, 0.0)],
        );
        topo.set_propagation_model(PropagationModel::default());
        let channels = ChannelId::range(11, 12).unwrap();
        for ch in &channels {
            topo.set_prr(NodeId::new(0), NodeId::new(1), ch, Prr::new(0.7).unwrap()).unwrap();
            topo.set_prr(NodeId::new(1), NodeId::new(0), ch, Prr::new(0.7).unwrap()).unwrap();
        }
        let flow = Flow::new(
            FlowId::new(0),
            Route::new(vec![NodeId::new(0), NodeId::new(1)]),
            Period::from_slots(10).unwrap(),
            10,
        )
        .unwrap();
        let flows = priority::deadline_monotonic(vec![flow], vec![]);
        let model = NetworkModel::new(&topo, &channels);
        let schedule = NoReuse::new().schedule(&flows, &model).unwrap();
        let sim = Simulator::new(&topo, &channels, &flows, &schedule);
        let cfg =
            SimConfig { repetitions: 40, seed: 9, discovery_probes: 0, ..SimConfig::default() };
        let plain = sim.run(&cfg);
        let mut buf = TraceBuffer::with_capacity(10_000);
        let (traced, _) = sim.try_run_traced(&cfg, &mut buf).unwrap();
        assert_eq!(plain, traced);
        // trace is consistent with the report
        let delivered =
            buf.events().iter().filter(|e| matches!(e, TraceEvent::Delivered { .. })).count()
                as u32;
        let expired =
            buf.events().iter().filter(|e| matches!(e, TraceEvent::Expired { .. })).count() as u32;
        assert_eq!(delivered, traced.flows[0].delivered);
        assert_eq!(delivered + expired, traced.flows[0].released);
        // with PRR 0.7 both outcomes occur in 40 reps
        assert!(delivered > 0 && !buf.losses().is_empty());
    }
}
