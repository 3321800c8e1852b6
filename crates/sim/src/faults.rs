//! Fault injection: mid-run node crashes, link-PRR collapses, and WiFi
//! interferer spawn/kill, fired at scheduled slots or stochastically.
//!
//! A [`FaultPlan`] is a declarative list of [`FaultEvent`]s carried inside
//! [`SimConfig`](crate::SimConfig). The engine materialises it into a
//! [`FaultInjector`] at the start of each run and consults the injector
//! every slot, so the PHY sees faults the moment they fire.
//!
//! Determinism: the injector owns its *own* RNG stream (seeded from
//! [`FaultPlan::seed`]), entirely separate from the engine's reception RNG.
//! An empty plan therefore leaves the engine's random stream untouched and
//! the simulation output bit-identical to a fault-free run — the property
//! `tests/fault_recovery.rs` pins down.

use crate::error::SimError;
use crate::WifiInterferer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use wsan_net::{ChannelId, DirectedLink, NodeId};

/// When a fault event fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultTrigger {
    /// Fire deterministically at this absolute slot number.
    AtSlot(u64),
    /// Fire once, stochastically: each slot while pending, the event fires
    /// with this probability (drawn from the injector's own seeded RNG).
    Stochastic {
        /// Per-slot firing probability in `[0, 1]`.
        per_slot: f64,
    },
}

/// What a fault event does while active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The node stops transmitting, receiving, and acknowledging.
    CrashNode {
        /// The crashed node.
        node: NodeId,
    },
    /// The directed link's PRR collapses to `prr` on the given channels.
    CollapseLink {
        /// The affected link.
        link: DirectedLink,
        /// Affected channels; `None` collapses every channel.
        channels: Option<Vec<ChannelId>>,
        /// Replacement PRR in `[0, 1]`; the effective PRR is the minimum of
        /// this and the link's measured PRR (faults never improve a link).
        prr: f64,
    },
    /// A WiFi interferer appears mid-run (its duty-cycle gating draws come
    /// from the injector's RNG, not the engine's).
    SpawnInterferer {
        /// The interferer to activate.
        interferer: WifiInterferer,
    },
    /// Silences one of the *environment* interferers declared in
    /// [`SimConfig::interferers`](crate::SimConfig::interferers) — the
    /// "interferer killed mid-run" direction.
    SilenceInterferer {
        /// Index into `SimConfig::interferers`.
        index: usize,
    },
}

/// One fault: a trigger, an optional active duration, and an effect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// How many slots the fault stays active once fired; `None` is
    /// permanent. A finite duration on [`FaultKind::SpawnInterferer`] models
    /// an interferer that appears *and* disappears mid-run.
    pub duration: Option<u64>,
    /// The effect while active.
    pub kind: FaultKind,
}

/// A declarative, seedable fault schedule for one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the injector's private RNG (stochastic triggers and spawned
    /// interferers' duty cycles).
    pub seed: u64,
    /// The fault events, in declaration order.
    pub events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { seed: 0xFA_017, events: Vec::new() }
    }
}

impl FaultPlan {
    /// An empty plan with the given injector seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new() }
    }

    /// Whether the plan contains no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an arbitrary event (builder style).
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Crashes `node` permanently at slot `slot`.
    #[must_use]
    pub fn crash_at(self, slot: u64, node: NodeId) -> Self {
        self.with(FaultEvent {
            trigger: FaultTrigger::AtSlot(slot),
            duration: None,
            kind: FaultKind::CrashNode { node },
        })
    }

    /// Collapses `link` to `prr` on all channels, permanently, at `slot`.
    #[must_use]
    pub fn collapse_link_at(self, slot: u64, link: DirectedLink, prr: f64) -> Self {
        self.with(FaultEvent {
            trigger: FaultTrigger::AtSlot(slot),
            duration: None,
            kind: FaultKind::CollapseLink { link, channels: None, prr },
        })
    }

    /// Spawns `interferer` at `slot` for `duration` slots (`None` = forever).
    #[must_use]
    pub fn spawn_wifi_at(
        self,
        slot: u64,
        interferer: WifiInterferer,
        duration: Option<u64>,
    ) -> Self {
        self.with(FaultEvent {
            trigger: FaultTrigger::AtSlot(slot),
            duration,
            kind: FaultKind::SpawnInterferer { interferer },
        })
    }

    /// The plan as later epochs see it: scheduled permanent damage has
    /// already happened (its trigger moves to slot 0), scheduled transient
    /// events are over and disappear, and stochastic events keep their
    /// per-slot chance. A recovery supervisor re-running the simulator
    /// epoch by epoch passes the original plan to the onset epoch and the
    /// settled plan to every epoch after it.
    #[must_use]
    pub fn settled(&self) -> FaultPlan {
        let events = self
            .events
            .iter()
            .filter(|e| {
                e.duration.is_none() || matches!(e.trigger, FaultTrigger::Stochastic { .. })
            })
            .map(|e| {
                let mut e = e.clone();
                if matches!(e.trigger, FaultTrigger::AtSlot(_)) {
                    e.trigger = FaultTrigger::AtSlot(0);
                }
                e
            })
            .collect();
        FaultPlan { seed: self.seed, events }
    }

    /// Whether executing the plan consumes injector-RNG draws on every slot
    /// (pending stochastic triggers, active spawned interferers). Plans for
    /// which this is false fire at precomputable slots, which is half of the
    /// event engine's draw-order contract (DESIGN.md §13) — the other half
    /// is an empty [`SimConfig::interferers`](crate::SimConfig::interferers).
    pub fn draws_per_slot(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(e.trigger, FaultTrigger::Stochastic { .. })
                || matches!(e.kind, FaultKind::SpawnInterferer { .. })
        })
    }

    /// Event-engine hook: resolves every stochastic trigger to a concrete
    /// firing slot, sampled once from a per-event RNG stream instead of one
    /// Bernoulli draw per slot. The firing slot is geometric in the per-slot
    /// probability — statistically identical to the slot-stepper's
    /// draw-per-slot discipline — and events that would fire at or after
    /// `total_slots` resolve to `AtSlot(total_slots)`, which never fires
    /// within the run. Scheduled triggers and event order are untouched, so
    /// plans without stochastic triggers resolve to themselves.
    #[must_use]
    pub(crate) fn resolve_stochastic(&self, total_slots: u64) -> FaultPlan {
        if self.events.iter().all(|e| !matches!(e.trigger, FaultTrigger::Stochastic { .. })) {
            return self.clone();
        }
        let events = self
            .events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut e = e.clone();
                if let FaultTrigger::Stochastic { per_slot } = e.trigger {
                    let mut rng =
                        StdRng::seed_from_u64(mix64(self.seed, STOCHASTIC_SALT ^ i as u64));
                    e.trigger =
                        FaultTrigger::AtSlot(geometric_slot(&mut rng, per_slot, total_slots));
                }
                e
            })
            .collect();
        FaultPlan { seed: self.seed, events }
    }

    /// Event-engine hook: the absolute slots at which this plan's *resolved*
    /// state machine changes — firings and expiries — clipped to
    /// `total_slots`. Only meaningful on a plan whose triggers are all
    /// `AtSlot` (i.e. after [`FaultPlan::resolve_stochastic`]). Sorted,
    /// deduplicated.
    pub(crate) fn change_slots(&self, total_slots: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for e in &self.events {
            let FaultTrigger::AtSlot(fire) = e.trigger else {
                debug_assert!(false, "change_slots needs a resolved plan");
                continue;
            };
            if fire >= total_slots {
                continue;
            }
            out.push(fire);
            if let Some(d) = e.duration {
                // the slot-stepper notices an expiry at `fired + duration`,
                // except duration 0 which it first re-examines one slot later
                let clear = fire.saturating_add(d.max(1));
                if clear < total_slots {
                    out.push(clear);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Checks the plan against the world it will be injected into.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadFaultPlan`] when a probability or PRR is
    /// outside `[0, 1]`, a crashed node is not in the topology, or a
    /// silenced interferer index is out of range.
    pub fn validate(&self, node_count: usize, interferer_count: usize) -> Result<(), SimError> {
        for (i, event) in self.events.iter().enumerate() {
            if let FaultTrigger::Stochastic { per_slot } = event.trigger {
                if !(0.0..=1.0).contains(&per_slot) || per_slot.is_nan() {
                    return Err(SimError::BadFaultPlan {
                        reason: format!("event {i}: per-slot probability {per_slot} not in [0, 1]"),
                    });
                }
            }
            match &event.kind {
                FaultKind::CrashNode { node } => {
                    if node.index() >= node_count {
                        return Err(SimError::BadFaultPlan {
                            reason: format!(
                                "event {i}: node {} outside topology of {node_count} nodes",
                                node.index()
                            ),
                        });
                    }
                }
                FaultKind::CollapseLink { prr, .. } => {
                    if !(0.0..=1.0).contains(prr) || prr.is_nan() {
                        return Err(SimError::BadFaultPlan {
                            reason: format!("event {i}: collapse PRR {prr} not in [0, 1]"),
                        });
                    }
                }
                FaultKind::SpawnInterferer { .. } => {}
                FaultKind::SilenceInterferer { index } => {
                    if *index >= interferer_count {
                        return Err(SimError::BadFaultPlan {
                            reason: format!(
                                "event {i}: interferer index {index} outside the \
                                 {interferer_count} configured interferers"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// What one fired fault looked like from inside the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Index of the event in [`FaultPlan::events`].
    pub event_index: usize,
    /// Absolute slot at which the event fired.
    pub fired_at: u64,
    /// Absolute slot at which the event expired (`None` = still active at
    /// the end of the run).
    pub cleared_at: Option<u64>,
}

/// Every fault that fired during a run, in firing order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultLog {
    /// One record per fired event.
    pub records: Vec<FaultRecord>,
}

impl FaultLog {
    /// Number of events that fired.
    pub fn fired(&self) -> usize {
        self.records.len()
    }

    /// Whether no fault fired at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Salt of the per-event stochastic-trigger streams (`resolve_stochastic`).
const STOCHASTIC_SALT: u64 = 0x570C_4A57;

/// SplitMix64 finalizer over `base ^ salt`: derives well-separated seeds for
/// the event engine's dedicated RNG streams from one user-facing seed.
pub(crate) fn mix64(base: u64, salt: u64) -> u64 {
    let mut z = base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples the firing slot of a per-slot-Bernoulli(`p`) trigger by inverting
/// the geometric CDF: one uniform draw replaces one draw per slot. Returns
/// `total_slots` (i.e. "never, within this run") for `p = 0` or a tail draw
/// past the end of the run.
fn geometric_slot<R: Rng + ?Sized>(rng: &mut R, p: f64, total_slots: u64) -> u64 {
    if p <= 0.0 {
        return total_slots;
    }
    if p >= 1.0 {
        return 0;
    }
    let u: f64 = rng.gen();
    // floor(ln(1-u) / ln(1-p)): the number of failures before the first
    // success of independent Bernoulli(p) trials
    let delay = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    if !delay.is_finite() || delay >= total_slots as f64 {
        total_slots
    } else {
        delay.max(0.0) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventStatus {
    Pending,
    Active { since: u64 },
    Expired,
}

/// The per-run materialisation of a [`FaultPlan`]: tracks which events are
/// pending / active / expired as the engine advances slot by slot, and
/// answers the PHY's per-transmission queries.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    events: Vec<FaultEvent>,
    status: Vec<EventStatus>,
    rng: StdRng,
    log: FaultLog,
}

impl FaultInjector {
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            events: plan.events.clone(),
            status: vec![EventStatus::Pending; plan.events.len()],
            rng: StdRng::seed_from_u64(plan.seed),
            log: FaultLog::default(),
        }
    }

    /// Advances the injector to `asn`: fires due triggers, expires finished
    /// events. Called once per slot, in slot order.
    pub fn advance(&mut self, asn: u64) {
        for i in 0..self.events.len() {
            match self.status[i] {
                EventStatus::Pending => {
                    let fire = match self.events[i].trigger {
                        FaultTrigger::AtSlot(s) => asn >= s,
                        FaultTrigger::Stochastic { per_slot } => {
                            let u: f64 = self.rng.gen();
                            u < per_slot
                        }
                    };
                    if fire {
                        self.status[i] = EventStatus::Active { since: asn };
                        self.log.records.push(FaultRecord {
                            event_index: i,
                            fired_at: asn,
                            cleared_at: None,
                        });
                    }
                }
                EventStatus::Active { since } => {
                    if let Some(duration) = self.events[i].duration {
                        if asn >= since.saturating_add(duration) {
                            self.status[i] = EventStatus::Expired;
                            if let Some(record) = self
                                .log
                                .records
                                .iter_mut()
                                .find(|r| r.event_index == i && r.cleared_at.is_none())
                            {
                                record.cleared_at = Some(asn);
                            }
                        }
                    }
                }
                EventStatus::Expired => {}
            }
        }
    }

    fn active_kinds(&self) -> impl Iterator<Item = &FaultKind> {
        self.events
            .iter()
            .zip(&self.status)
            .filter(|(_, s)| matches!(s, EventStatus::Active { .. }))
            .map(|(e, _)| &e.kind)
    }

    /// Whether `node` is currently crashed.
    pub fn node_down(&self, node: NodeId) -> bool {
        self.active_kinds().any(|k| matches!(k, FaultKind::CrashNode { node: n } if *n == node))
    }

    /// The collapsed PRR for `link` on `channel`, if any collapse fault is
    /// active for it (the minimum wins when several overlap).
    pub fn link_prr_override(&self, link: DirectedLink, channel: ChannelId) -> Option<f64> {
        self.active_kinds()
            .filter_map(|k| match k {
                FaultKind::CollapseLink { link: l, channels, prr }
                    if *l == link && channels.as_ref().is_none_or(|cs| cs.contains(&channel)) =>
                {
                    Some(*prr)
                }
                _ => None,
            })
            .reduce(f64::min)
    }

    /// Whether the environment interferer at `index` is currently silenced.
    pub fn interferer_silenced(&self, index: usize) -> bool {
        self.active_kinds()
            .any(|k| matches!(k, FaultKind::SilenceInterferer { index: i } if *i == index))
    }

    /// Event indices of the spawned interferers that pass their duty-cycle
    /// gate for this slot. Draws come from the injector's RNG, never the
    /// engine's, so with no spawned interferers this consumes nothing.
    #[cfg(test)]
    pub fn sample_spawned_wifi(&mut self) -> Vec<usize> {
        let mut active = Vec::new();
        self.sample_spawned_wifi_into(&mut active);
        active
    }

    /// Clears and refills a caller-owned buffer with the event indices of
    /// the spawned interferers that pass their duty-cycle gate for this
    /// slot, in event order, so per-slot hot loops allocate nothing. Draws
    /// come from the injector's RNG, never the engine's, so with no spawned
    /// interferers this consumes nothing.
    pub fn sample_spawned_wifi_into(&mut self, active: &mut Vec<usize>) {
        active.clear();
        for i in 0..self.events.len() {
            if !matches!(self.status[i], EventStatus::Active { .. }) {
                continue;
            }
            if let FaultKind::SpawnInterferer { interferer } = &self.events[i].kind {
                let u: f64 = self.rng.gen();
                if u < interferer.duty_cycle {
                    active.push(i);
                }
            }
        }
    }

    /// Event-engine hook: the currently active spawned interferers with
    /// their event indices, *without* consuming any duty-cycle draws — the
    /// event engine gates each spawn on its own dedicated RNG stream.
    pub fn active_spawns(&self) -> impl Iterator<Item = (usize, &WifiInterferer)> {
        self.events.iter().zip(&self.status).enumerate().filter_map(|(i, (e, s))| {
            match (&e.kind, s) {
                (FaultKind::SpawnInterferer { interferer }, EventStatus::Active { .. }) => {
                    Some((i, interferer))
                }
                _ => None,
            }
        })
    }

    /// Consumes the injector, returning what fired.
    pub fn into_log(self) -> FaultLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_net::Position;

    fn link(a: usize, b: usize) -> DirectedLink {
        DirectedLink { tx: NodeId::new(a), rx: NodeId::new(b) }
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::new(&FaultPlan::default());
        for asn in 0..100 {
            inj.advance(asn);
        }
        assert!(!inj.node_down(NodeId::new(0)));
        assert!(inj.link_prr_override(link(0, 1), ChannelId::new(11).unwrap()).is_none());
        assert!(inj.sample_spawned_wifi().is_empty());
        assert!(inj.into_log().is_empty());
    }

    #[test]
    fn scheduled_crash_fires_at_its_slot() {
        let plan = FaultPlan::new(1).crash_at(10, NodeId::new(3));
        let mut inj = FaultInjector::new(&plan);
        inj.advance(9);
        assert!(!inj.node_down(NodeId::new(3)));
        inj.advance(10);
        assert!(inj.node_down(NodeId::new(3)));
        inj.advance(11);
        assert!(inj.node_down(NodeId::new(3)), "permanent faults stay active");
        let log = inj.into_log();
        assert_eq!(log.fired(), 1);
        assert_eq!(log.records[0].fired_at, 10);
        assert_eq!(log.records[0].cleared_at, None);
    }

    #[test]
    fn finite_duration_expires_and_is_logged() {
        let plan = FaultPlan::new(1).with(FaultEvent {
            trigger: FaultTrigger::AtSlot(5),
            duration: Some(3),
            kind: FaultKind::CrashNode { node: NodeId::new(0) },
        });
        let mut inj = FaultInjector::new(&plan);
        for asn in 0..12 {
            inj.advance(asn);
            let expect_down = (5..8).contains(&asn);
            assert_eq!(inj.node_down(NodeId::new(0)), expect_down, "asn {asn}");
        }
        let log = inj.into_log();
        assert_eq!(log.records[0].cleared_at, Some(8));
    }

    #[test]
    fn collapse_respects_channel_scope_and_takes_the_minimum() {
        let ch11 = ChannelId::new(11).unwrap();
        let ch12 = ChannelId::new(12).unwrap();
        let plan = FaultPlan::new(1)
            .with(FaultEvent {
                trigger: FaultTrigger::AtSlot(0),
                duration: None,
                kind: FaultKind::CollapseLink {
                    link: link(0, 1),
                    channels: Some(vec![ch11]),
                    prr: 0.4,
                },
            })
            .collapse_link_at(0, link(0, 1), 0.2);
        let mut inj = FaultInjector::new(&plan);
        inj.advance(0);
        assert_eq!(inj.link_prr_override(link(0, 1), ch11), Some(0.2));
        assert_eq!(inj.link_prr_override(link(0, 1), ch12), Some(0.2));
        assert_eq!(inj.link_prr_override(link(1, 0), ch11), None);
    }

    #[test]
    fn stochastic_trigger_is_deterministic_per_seed() {
        let plan = FaultPlan::new(99).with(FaultEvent {
            trigger: FaultTrigger::Stochastic { per_slot: 0.05 },
            duration: None,
            kind: FaultKind::CrashNode { node: NodeId::new(1) },
        });
        let fired_at = |seed: u64| {
            let mut p = plan.clone();
            p.seed = seed;
            let mut inj = FaultInjector::new(&p);
            for asn in 0..10_000 {
                inj.advance(asn);
            }
            let log = inj.into_log();
            assert_eq!(log.fired(), 1, "p=0.05 over 10k slots fires w.h.p.");
            log.records[0].fired_at
        };
        assert_eq!(fired_at(99), fired_at(99));
        assert_ne!(fired_at(99), fired_at(100));
    }

    #[test]
    fn spawned_wifi_gates_on_its_own_rng() {
        let wifi = WifiInterferer::wifi_channel_1(Position::new(0.0, 0.0, 0.0), 10.0, 0.5);
        let plan = FaultPlan::new(7).spawn_wifi_at(0, wifi, None);
        let mut inj = FaultInjector::new(&plan);
        inj.advance(0);
        let hits = (0..1000).filter(|_| !inj.sample_spawned_wifi().is_empty()).count();
        assert!((380..620).contains(&hits), "duty cycle 0.5 gates ≈half: {hits}");
    }

    #[test]
    fn settled_moves_permanent_damage_to_slot_zero() {
        let wifi = WifiInterferer::wifi_channel_1(Position::new(0.0, 0.0, 0.0), 10.0, 0.5);
        let plan = FaultPlan::new(3)
            .crash_at(40, NodeId::new(1))
            .spawn_wifi_at(50, wifi, Some(20))
            .with(FaultEvent {
                trigger: FaultTrigger::Stochastic { per_slot: 0.01 },
                duration: None,
                kind: FaultKind::CrashNode { node: NodeId::new(2) },
            });
        let settled = plan.settled();
        assert_eq!(settled.events.len(), 2, "transient scheduled event is over");
        assert_eq!(settled.events[0].trigger, FaultTrigger::AtSlot(0));
        assert_eq!(
            settled.events[1].trigger,
            FaultTrigger::Stochastic { per_slot: 0.01 },
            "stochastic events keep their chance"
        );
        assert_eq!(settled.seed, 3);
    }

    #[test]
    fn draws_per_slot_flags_stochastic_and_spawned_sources() {
        assert!(!FaultPlan::default().draws_per_slot());
        assert!(!FaultPlan::new(1).crash_at(5, NodeId::new(0)).draws_per_slot());
        let stochastic = FaultPlan::new(1).with(FaultEvent {
            trigger: FaultTrigger::Stochastic { per_slot: 0.1 },
            duration: None,
            kind: FaultKind::CrashNode { node: NodeId::new(0) },
        });
        assert!(stochastic.draws_per_slot());
        let wifi = WifiInterferer::wifi_channel_1(Position::new(0.0, 0.0, 0.0), 10.0, 0.5);
        assert!(FaultPlan::new(1).spawn_wifi_at(0, wifi, None).draws_per_slot());
    }

    #[test]
    fn resolve_stochastic_is_deterministic_and_geometric() {
        let scheduled = FaultPlan::new(4).crash_at(7, NodeId::new(1));
        assert_eq!(scheduled.resolve_stochastic(100), scheduled, "no stochastic → unchanged");
        let plan = FaultPlan::new(4).with(FaultEvent {
            trigger: FaultTrigger::Stochastic { per_slot: 0.1 },
            duration: None,
            kind: FaultKind::CrashNode { node: NodeId::new(0) },
        });
        assert_eq!(plan.resolve_stochastic(10_000), plan.resolve_stochastic(10_000));
        // the sampled firing slot is geometric: its mean over many seeds
        // approaches (1-p)/p = 9
        let mean = (0..2000u64)
            .map(|s| {
                let mut p = plan.clone();
                p.seed = s;
                match p.resolve_stochastic(1_000_000).events[0].trigger {
                    FaultTrigger::AtSlot(slot) => slot as f64,
                    FaultTrigger::Stochastic { .. } => panic!("must resolve"),
                }
            })
            .sum::<f64>()
            / 2000.0;
        assert!((8.0..11.0).contains(&mean), "geometric mean {mean} should be near 9");
        // p = 0 never fires within the run
        let never = FaultPlan::new(4).with(FaultEvent {
            trigger: FaultTrigger::Stochastic { per_slot: 0.0 },
            duration: None,
            kind: FaultKind::CrashNode { node: NodeId::new(0) },
        });
        assert_eq!(never.resolve_stochastic(50).events[0].trigger, FaultTrigger::AtSlot(50));
    }

    #[test]
    fn change_slots_cover_firings_and_expiries() {
        let plan = FaultPlan::new(1)
            .crash_at(10, NodeId::new(0))
            .with(FaultEvent {
                trigger: FaultTrigger::AtSlot(5),
                duration: Some(3),
                kind: FaultKind::CrashNode { node: NodeId::new(1) },
            })
            .crash_at(99, NodeId::new(2));
        assert_eq!(plan.change_slots(50), vec![5, 8, 10], "out-of-run firings are clipped");
        assert_eq!(plan.change_slots(9), vec![5, 8]);
        assert_eq!(plan.change_slots(8), vec![5], "expiry at the boundary is clipped");
        // duration 0 behaves like duration 1 (the stepper re-examines an
        // active event one slot after it fires at the earliest)
        let zero = FaultPlan::new(1).with(FaultEvent {
            trigger: FaultTrigger::AtSlot(4),
            duration: Some(0),
            kind: FaultKind::CrashNode { node: NodeId::new(0) },
        });
        assert_eq!(zero.change_slots(50), vec![4, 5]);
    }

    #[test]
    fn active_spawns_expose_live_interferers_without_draws() {
        let wifi = WifiInterferer::wifi_channel_1(Position::new(0.0, 0.0, 0.0), 10.0, 0.5);
        let plan =
            FaultPlan::new(7).crash_at(0, NodeId::new(0)).spawn_wifi_at(3, wifi.clone(), Some(4));
        let mut inj = FaultInjector::new(&plan);
        inj.advance(0);
        assert_eq!(inj.active_spawns().count(), 0);
        inj.advance(3);
        let spawns: Vec<_> = inj.active_spawns().map(|(i, _)| i).collect();
        assert_eq!(spawns, vec![1]);
        inj.advance(7);
        assert_eq!(inj.active_spawns().count(), 0, "expired spawn disappears");
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::new(1).crash_at(0, NodeId::new(9)).validate(4, 0).is_err());
        assert!(FaultPlan::new(1).collapse_link_at(0, link(0, 1), 1.5).validate(4, 0).is_err());
        let silence = FaultPlan::new(1).with(FaultEvent {
            trigger: FaultTrigger::AtSlot(0),
            duration: None,
            kind: FaultKind::SilenceInterferer { index: 2 },
        });
        assert!(silence.clone().validate(4, 2).is_err());
        assert!(silence.validate(4, 3).is_ok());
        let stochastic = FaultPlan::new(1).with(FaultEvent {
            trigger: FaultTrigger::Stochastic { per_slot: -0.1 },
            duration: None,
            kind: FaultKind::CrashNode { node: NodeId::new(0) },
        });
        assert!(stochastic.validate(4, 0).is_err());
    }
}
