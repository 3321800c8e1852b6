//! The discrete-event simulation core.
//!
//! The slot-stepper (`engine::run_impl`) walks every `(repetition, slot)`
//! pair, which makes its cost proportional to the horizon even when almost
//! every slot is empty. This engine replaces the time axis with a
//! time-ordered queue of events over three component kinds:
//!
//! * **SlotBatch** — a slot of the slotframe holding at least one scheduled
//!   transmission. The transmission component schedules its next busy slot
//!   lazily from [`Simulator::busy_slots`], so idle slots are never visited.
//! * **FaultChange** — an absolute slot at which the fault plan's state
//!   machine changes (a firing or an expiry). Computed up front from the
//!   *resolved* plan ([`FaultPlan::resolve_stochastic`]); between change
//!   slots the injector's answers are constant, so it is only advanced at
//!   those slots.
//! * **RepBoundary** — end-of-repetition bookkeeping: neighbor-discovery
//!   probes, delivery accounting, PRR-window flushes.
//!
//! At equal time the processing order is RepBoundary < FaultChange <
//! SlotBatch: the boundary work of repetition `r` happens before a fault
//! firing at the first slot of repetition `r+1`, which in turn precedes that
//! slot's transmissions — exactly the slot-stepper's order.
//!
//! ## RNG draw-order contract (DESIGN.md §13)
//!
//! Within each visited slot the engine consumes the main RNG (fading and
//! success draws) in precisely the slot-stepper's order. The stepper's only
//! *per-slot* draws — environment-interferer duty gates, spawned-interferer
//! duty gates, and pending stochastic triggers — are replaced by dedicated
//! [`mix64`]-derived streams and a one-shot geometric resolution. Therefore:
//!
//! * when `config.interferers` is empty and the fault plan has no stochastic
//!   triggers and no spawned interferers, *no* engine draws ever happen in an
//!   idle slot, and skipping those slots reproduces the slot-stepper's output
//!   **byte for byte** (report and fault log);
//! * otherwise the engines draw the same distributions from independent
//!   streams and are *statistically* equivalent — pinned by the K-S suite in
//!   `tests/engine_equivalence.rs`.

use crate::engine::{RunCore, Simulator};
use crate::faults::{mix64, FaultInjector, FaultKind, FaultLog};
use crate::{SimConfig, SimReport, TraceBuffer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Salt of the per-interferer environment duty-gate streams.
const ENV_DUTY_SALT: u64 = 0xE57_D077;
/// Salt of the per-event spawned-interferer duty-gate streams.
const SPAWN_DUTY_SALT: u64 = 0x5AB_D077;

/// What a queued event does. Variant order is the tie-break priority at
/// equal time (derived `Ord` is declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// End-of-repetition bookkeeping: probes, accounting, window flush.
    RepBoundary,
    /// The fault plan's state machine changes (a firing or an expiry).
    FaultChange,
    /// A slot holding scheduled transmissions is resolved.
    SlotBatch,
}

impl EventKind {
    /// Display name used by dispatch tracing.
    fn as_str(self) -> &'static str {
        match self {
            EventKind::RepBoundary => "rep_boundary",
            EventKind::FaultChange => "fault_change",
            EventKind::SlotBatch => "slot_batch",
        }
    }
}

/// One queued event. Ordered by `(asn, kind)`; `rep` / `busy_idx` are
/// payload for the component that scheduled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    asn: u64,
    kind: EventKind,
    rep: u32,
    busy_idx: usize,
}

/// Runs `config` on the event queue. Interface twin of
/// `Simulator::run_impl`; the caller has already validated the fault plan.
pub(crate) fn run(
    sim: &Simulator<'_>,
    config: &SimConfig,
    trace: Option<&mut TraceBuffer>,
) -> (SimReport, FaultLog) {
    let _span = wsan_obs::span(
        wsan_obs::Level::Debug,
        "sim.run_events",
        if wsan_obs::enabled(wsan_obs::Level::Debug) {
            vec![
                wsan_obs::kv("seed", config.seed),
                wsan_obs::kv("repetitions", config.repetitions),
                wsan_obs::kv("horizon", sim.horizon),
                wsan_obs::kv("busy_slots", sim.busy_slots.len()),
            ]
        } else {
            Vec::new()
        },
    );
    let horizon = u64::from(sim.horizon);
    let total_slots = u64::from(config.repetitions) * horizon;
    let resolved = config.faults.resolve_stochastic(total_slots);
    let mut run = EventRun {
        sim,
        config,
        core: RunCore::new(sim, config, &resolved, trace),
        injector: FaultInjector::new(&resolved),
        env_streams: (0..config.interferers.len())
            .map(|i| StdRng::seed_from_u64(mix64(config.seed, ENV_DUTY_SALT ^ i as u64)))
            .collect(),
        spawn_streams: resolved
            .events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                matches!(e.kind, FaultKind::SpawnInterferer { .. }).then(|| {
                    StdRng::seed_from_u64(mix64(resolved.seed, SPAWN_DUTY_SALT ^ i as u64))
                })
            })
            .collect(),
        spawned: Vec::new(),
        env_active: vec![false; config.interferers.len()],
    };
    let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    if config.repetitions > 0 {
        queue.push(Reverse(Event {
            asn: horizon,
            kind: EventKind::RepBoundary,
            rep: 0,
            busy_idx: 0,
        }));
        if let Some(&s) = sim.busy_slots.first() {
            queue.push(Reverse(Event {
                asn: u64::from(s),
                kind: EventKind::SlotBatch,
                rep: 0,
                busy_idx: 0,
            }));
        }
        for asn in resolved.change_slots(total_slots) {
            queue.push(Reverse(Event { asn, kind: EventKind::FaultChange, rep: 0, busy_idx: 0 }));
        }
    }
    while let Some(Reverse(ev)) = queue.pop() {
        // Per-event dispatch tracing (trace-level firehose). Fired inside
        // the `sim.run_events` span, so every dispatch record carries its
        // span id and any enclosing request id — the causal chain from a
        // gateway request down to a single event stays reconstructable from
        // a flight-recorder dump. Never touches the engine RNG.
        if wsan_obs::enabled(wsan_obs::Level::Trace) {
            wsan_obs::event(
                wsan_obs::Level::Trace,
                "wsan_sim::events",
                ev.kind.as_str(),
                &[wsan_obs::kv("asn", ev.asn), wsan_obs::kv("rep", ev.rep)],
            );
        }
        match ev.kind {
            EventKind::FaultChange => run.injector.advance(ev.asn),
            EventKind::SlotBatch => {
                run.slot_batch(sim.busy_slots[ev.busy_idx], ev.asn);
                // the transmission component re-arms itself for its next
                // busy slot (FlowForge ComponentSlot style)
                if ev.busy_idx + 1 < sim.busy_slots.len() {
                    let slot = sim.busy_slots[ev.busy_idx + 1];
                    queue.push(Reverse(Event {
                        asn: u64::from(ev.rep) * horizon + u64::from(slot),
                        kind: EventKind::SlotBatch,
                        rep: ev.rep,
                        busy_idx: ev.busy_idx + 1,
                    }));
                }
            }
            EventKind::RepBoundary => {
                run.rep_boundary(ev.rep);
                let next = ev.rep + 1;
                if next < config.repetitions {
                    queue.push(Reverse(Event {
                        asn: (u64::from(next) + 1) * horizon,
                        kind: EventKind::RepBoundary,
                        rep: next,
                        busy_idx: 0,
                    }));
                    if let Some(&s) = sim.busy_slots.first() {
                        queue.push(Reverse(Event {
                            asn: u64::from(next) * horizon + u64::from(s),
                            kind: EventKind::SlotBatch,
                            rep: next,
                            busy_idx: 0,
                        }));
                    }
                }
            }
        }
    }
    run.finish()
}

/// The state of one event-driven run: the shared run core plus the
/// event engine's own duty-gate streams and resolved fault injector.
struct EventRun<'s, 'w, 't> {
    sim: &'s Simulator<'w>,
    config: &'s SimConfig,
    /// Main stream (fading and success draws, in slot-stepper order),
    /// sample window and report.
    core: RunCore<'s, 'w, 't>,
    /// Driven on the *resolved* plan, only at change slots.
    injector: FaultInjector,
    /// One duty-gate stream per environment interferer.
    env_streams: Vec<StdRng>,
    /// One duty-gate stream per `SpawnInterferer` plan event (by index).
    spawn_streams: Vec<Option<StdRng>>,
    /// Fault-plan event indices of the spawned interferers on the air.
    spawned: Vec<usize>,
    env_active: Vec<bool>,
}

impl EventRun<'_, '_, '_> {
    /// Refills the duty-gate state (spawned and environment interferers)
    /// from the dedicated streams. The slot-stepper draws these from the
    /// injector / main RNG once per slot; under the draw-order contract both
    /// sets are empty and neither engine consumes anything here.
    fn sample_duty_gates(&mut self) {
        self.spawned.clear();
        for (i, w) in self.injector.active_spawns() {
            let stream = self.spawn_streams[i].as_mut().expect("spawn event has a duty stream");
            let u: f64 = stream.gen();
            if u < w.duty_cycle {
                self.spawned.push(i);
            }
        }
        for i in 0..self.config.interferers.len() {
            let u: f64 = self.env_streams[i].gen();
            let duty = u < self.config.interferers[i].duty_cycle;
            self.env_active[i] = duty && !self.injector.interferer_silenced(i);
        }
    }

    /// Resolves every transmission scheduled in slotframe slot `slot` at
    /// absolute slot `asn`.
    fn slot_batch(&mut self, slot: u32, asn: u64) {
        self.sample_duty_gates();
        self.core.slot(slot, asn, &self.injector, &self.env_active, &self.spawned);
    }

    /// End-of-repetition bookkeeping: discovery probes, then delivery
    /// accounting and window flushes.
    fn rep_boundary(&mut self, rep: u32) {
        // neighbor-discovery probes: contention-free, cycling channels
        for _ in 0..self.config.discovery_probes {
            for link in 0..self.sim.scheduled_links.len() {
                self.sample_duty_gates();
                self.core.probe(rep, link, &self.injector, &self.env_active, &self.spawned);
            }
        }
        self.core.end_repetition(rep);
    }

    fn finish(self) -> (SimReport, FaultLog) {
        let log = self.injector.into_log();
        let report = self.core.finish(&log);
        if wsan_obs::enabled(wsan_obs::Level::Info) {
            wsan_obs::event(
                wsan_obs::Level::Info,
                "wsan_sim::events",
                "event-driven run complete",
                &[
                    wsan_obs::kv("network_pdr", report.network_pdr()),
                    wsan_obs::kv("faults_fired", log.fired()),
                ],
            );
        }
        (report, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ordering_is_rep_fault_slot_at_equal_time() {
        let rep = Event { asn: 10, kind: EventKind::RepBoundary, rep: 0, busy_idx: 0 };
        let fault = Event { asn: 10, kind: EventKind::FaultChange, rep: 0, busy_idx: 0 };
        let slot = Event { asn: 10, kind: EventKind::SlotBatch, rep: 1, busy_idx: 0 };
        let earlier = Event { asn: 9, kind: EventKind::SlotBatch, rep: 0, busy_idx: 3 };
        assert!(earlier < rep, "time dominates kind");
        assert!(rep < fault && fault < slot);
        let mut heap =
            BinaryHeap::from([Reverse(slot), Reverse(rep), Reverse(fault), Reverse(earlier)]);
        let order: Vec<EventKind> =
            std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e.kind)).collect();
        assert_eq!(
            order,
            vec![
                EventKind::SlotBatch,
                EventKind::RepBoundary,
                EventKind::FaultChange,
                EventKind::SlotBatch
            ]
        );
    }
}
