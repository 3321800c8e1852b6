//! The TSCH transmission schedule: (slot, channel offset) assignments.

use crate::ScheduledTx;
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use wsan_net::{DirectedLink, NodeId};

/// One row of the schedule: a transmission placed in a slot at a channel
/// offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// Slot number within the hyperperiod, `0..horizon`.
    pub slot: u32,
    /// Channel offset, `0..channel_count`.
    pub offset: usize,
    /// The transmission occupying the cell.
    pub tx: ScheduledTx,
}

/// A transmission schedule over one hyperperiod.
///
/// The grid has `horizon` slots × `channel_count` channel offsets; a cell
/// may hold several transmissions when channel reuse is in effect. The
/// structure maintains the occupancy indexes used on schedulers' hot paths:
///
/// * per-slot node-busy bitsets — O(1) transmission-conflict checks,
/// * per-node slot-busy bitsets — word-at-a-time conflict-free slot scans
///   ([`Schedule::free_slots`]) and popcount-speed conflict-slot counts for
///   the laxity estimate (Eq. 1),
/// * a per-slot occupied-offset count plus a full-slot bitset, so no-reuse
///   scans skip fully packed slots at word speed,
/// * per-cell occupant *link* arrays — the channel constraint only needs
///   each occupant's endpoints, so checks touch a dense `DirectedLink`
///   slice instead of the wider [`ScheduledTx`] cell vec,
/// * per-node generation counters that let external rank caches
///   ([`crate::laxity::LaxityCache`]) invalidate lazily on [`Schedule::place`].
#[derive(Debug)]
pub struct Schedule {
    horizon: u32,
    channel_count: usize,
    node_count: usize,
    /// `cells[slot * channel_count + offset]` → transmissions in that cell.
    cells: Vec<Vec<ScheduledTx>>,
    /// `slot_busy[slot * node_words + w]`: bit `b` set ⇔ node `64w+b` is a
    /// sender or receiver in `slot`.
    slot_busy: Vec<u64>,
    node_words: usize,
    /// `node_busy[node * slot_words + w]`: bit `b` set ⇔ the node is busy in
    /// slot `64w+b`.
    node_busy: Vec<u64>,
    slot_words: usize,
    entries: Vec<ScheduleEntry>,
    /// Occupant endpoints per cell, parallel to `cells`. The channel
    /// constraint iterates these instead of the full `ScheduledTx` records.
    cell_links: Vec<Vec<DirectedLink>>,
    /// `occupied_offsets[slot]`: number of non-empty cells in the slot.
    occupied_offsets: Vec<u32>,
    /// Bit `slot` set ⇔ every channel offset of the slot is occupied (a
    /// no-reuse placement cannot land there).
    slot_full: Vec<u64>,
    /// `node_gen[node]` advances whenever the node's busy row changes;
    /// external per-pair rank caches compare it to detect staleness.
    node_gen: Vec<u32>,
    /// Advances on every placement.
    generation: u64,
}

impl Schedule {
    /// Creates an empty schedule grid.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` or `channel_count` is zero — a schedule with no
    /// slots or no channels cannot hold any transmission, and downstream
    /// window arithmetic (`horizon - 1`) relies on at least one slot
    /// existing.
    pub fn new(horizon: u32, channel_count: usize, node_count: usize) -> Self {
        assert!(horizon > 0, "schedule needs at least one slot");
        assert!(channel_count > 0, "schedule needs at least one channel");
        let node_words = node_count.div_ceil(64).max(1);
        let slot_words = (horizon as usize).div_ceil(64);
        Schedule {
            horizon,
            channel_count,
            node_count,
            cells: vec![Vec::new(); horizon as usize * channel_count],
            slot_busy: vec![0; horizon as usize * node_words],
            node_words,
            node_busy: vec![0; node_count * slot_words],
            slot_words,
            entries: Vec::new(),
            cell_links: vec![Vec::new(); horizon as usize * channel_count],
            occupied_offsets: vec![0; horizon as usize],
            slot_full: vec![0; slot_words],
            node_gen: vec![0; node_count],
            generation: 0,
        }
    }

    /// Number of slots in the hyperperiod.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Number of channel offsets `|M|`.
    pub fn channel_count(&self) -> usize {
        self.channel_count
    }

    /// Number of nodes the schedule was sized for.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total number of scheduled transmissions.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// All entries in placement order.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Transmissions sharing `(slot, offset)`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `offset` is out of range.
    pub fn cell(&self, slot: u32, offset: usize) -> &[ScheduledTx] {
        assert!(slot < self.horizon && offset < self.channel_count);
        &self.cells[slot as usize * self.channel_count + offset]
    }

    /// The endpoints of the transmissions sharing `(slot, offset)` — the
    /// dense form of [`Schedule::cell`] the channel constraint iterates.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `offset` is out of range.
    pub fn cell_links(&self, slot: u32, offset: usize) -> &[DirectedLink] {
        assert!(slot < self.horizon && offset < self.channel_count);
        &self.cell_links[slot as usize * self.channel_count + offset]
    }

    /// Whether `node` is a sender or receiver in `slot`.
    pub fn node_busy_in_slot(&self, node: NodeId, slot: u32) -> bool {
        let base = slot as usize * self.node_words;
        let (w, b) = (node.index() / 64, node.index() % 64);
        self.slot_busy[base + w] & (1u64 << b) != 0
    }

    /// Whether placing a transmission over `tx → rx` in `slot` would create
    /// a *transmission conflict* (§III-B): some scheduled transmission in
    /// the slot already uses either node.
    pub fn conflicts(&self, slot: u32, tx: NodeId, rx: NodeId) -> bool {
        self.node_busy_in_slot(tx, slot) || self.node_busy_in_slot(rx, slot)
    }

    /// Whether every channel offset of `slot` already holds at least one
    /// transmission — a no-reuse placement cannot land in the slot.
    pub fn slot_is_full(&self, slot: u32) -> bool {
        self.slot_full[(slot / 64) as usize] & (1u64 << (slot % 64)) != 0
    }

    /// Iterates the slots of `[from, to]` (clamped to the horizon) in which
    /// neither `tx` nor `rx` is busy — the transmission-conflict-free
    /// candidate slots of `findSlot()`. With `skip_full`, slots whose every
    /// channel offset is occupied are skipped too (sound only for no-reuse
    /// placements, which need an empty cell).
    ///
    /// The scan works a 64-slot word at a time: each word of candidates is
    /// computed as `!(busy_tx | busy_rx)` (optionally `& !full`) and bits
    /// are popped via trailing-zeros, so long busy stretches cost one load
    /// per 64 slots instead of one branch per slot.
    pub fn free_slots(
        &self,
        tx: NodeId,
        rx: NodeId,
        from: u32,
        to: u32,
        skip_full: bool,
    ) -> FreeSlots<'_> {
        let to = if self.horizon == 0 { 0 } else { to.min(self.horizon - 1) };
        let empty = self.horizon == 0 || from > to;
        let (first_word, last_word) =
            if empty { (1, 0) } else { ((from / 64) as usize, (to / 64) as usize) };
        let mut iter = FreeSlots {
            tx_row: self.busy_row(tx),
            rx_row: self.busy_row(rx),
            full: &self.slot_full,
            skip_full,
            word: first_word,
            last_word,
            bits: 0,
            lo_mask: u64::MAX << (from % 64),
            hi_mask: if to % 64 == 63 { u64::MAX } else { (1u64 << (to % 64 + 1)) - 1 },
        };
        if !empty {
            iter.bits = iter.word_bits(first_word) & iter.lo_mask;
        }
        iter
    }

    /// Number of slots in the inclusive range `[from, to]` in which some
    /// scheduled transmission conflicts with a transmission over `a ↔ b` —
    /// the `q_t` term of the laxity estimate (Eq. 1).
    ///
    /// Returns 0 when `from > to`.
    pub fn conflict_slot_count(&self, a: NodeId, b: NodeId, from: u32, to: u32) -> u32 {
        if from > to {
            return 0;
        }
        let to = to.min(self.horizon - 1);
        if from > to {
            return 0;
        }
        let base_a = a.index() * self.slot_words;
        let base_b = b.index() * self.slot_words;
        let mut count = 0u32;
        let first_word = (from / 64) as usize;
        let last_word = (to / 64) as usize;
        for w in first_word..=last_word {
            let mut bits = self.node_busy[base_a + w] | self.node_busy[base_b + w];
            if w == first_word {
                let lo = from % 64;
                bits &= u64::MAX << lo;
            }
            if w == last_word {
                let hi = to % 64;
                if hi < 63 {
                    bits &= (1u64 << (hi + 1)) - 1;
                }
            }
            count += bits.count_ones();
        }
        count
    }

    /// Places a transmission into `(slot, offset)`.
    ///
    /// The caller is responsible for having checked the channel reuse
    /// constraints; conflicts are asserted in debug builds.
    ///
    /// # Panics
    ///
    /// Panics if `slot`/`offset` are out of range, and in debug builds if
    /// the placement creates a transmission conflict.
    pub fn place(&mut self, slot: u32, offset: usize, tx: ScheduledTx) {
        assert!(slot < self.horizon, "slot {slot} beyond horizon {}", self.horizon);
        assert!(offset < self.channel_count, "offset {offset} beyond channel count");
        debug_assert!(
            !self.conflicts(slot, tx.link.tx, tx.link.rx),
            "placement of {tx} at slot {slot} creates a transmission conflict"
        );
        let cell_index = slot as usize * self.channel_count + offset;
        if self.cells[cell_index].is_empty() {
            self.occupied_offsets[slot as usize] += 1;
            if self.occupied_offsets[slot as usize] as usize == self.channel_count {
                self.slot_full[(slot / 64) as usize] |= 1u64 << (slot % 64);
            }
        }
        self.cells[cell_index].push(tx);
        self.cell_links[cell_index].push(tx.link);
        for node in [tx.link.tx, tx.link.rx] {
            let (w, b) = (node.index() / 64, node.index() % 64);
            self.slot_busy[slot as usize * self.node_words + w] |= 1u64 << b;
            let (sw, sb) = ((slot / 64) as usize, slot % 64);
            self.node_busy[node.index() * self.slot_words + sw] |= 1u64 << sb;
            self.node_gen[node.index()] = self.node_gen[node.index()].wrapping_add(1);
        }
        self.generation += 1;
        self.entries.push(ScheduleEntry { slot, offset, tx });
    }

    /// Number of transmissions already sharing `(slot, offset)` — the
    /// tie-break key when several offsets satisfy the constraints ("choose a
    /// channel with the fewest number of scheduled transmissions").
    pub fn cell_len(&self, slot: u32, offset: usize) -> usize {
        self.cells[slot as usize * self.channel_count + offset].len()
    }

    /// Iterates over the non-empty cells as `(slot, offset, transmissions)`.
    pub fn occupied_cells(&self) -> impl Iterator<Item = (u32, usize, &[ScheduledTx])> {
        self.cells.iter().enumerate().filter(|(_, c)| !c.is_empty()).map(move |(i, c)| {
            let slot = (i / self.channel_count) as u32;
            let offset = i % self.channel_count;
            (slot, offset, c.as_slice())
        })
    }

    /// A counter advancing on every [`Schedule::place`]; external caches use
    /// it to detect that the schedule changed at all.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-node change counter: advances whenever `node`'s busy row gains a
    /// slot. Rank caches over pairs of busy rows compare these to rebuild
    /// lazily — a placement only invalidates rows of the two nodes it
    /// touches.
    pub(crate) fn node_generation(&self, node: NodeId) -> u32 {
        self.node_gen[node.index()]
    }

    /// The busy-slot bitset words of `node` (`slot_word_count()` words).
    pub(crate) fn busy_row(&self, node: NodeId) -> &[u64] {
        let base = node.index() * self.slot_words;
        &self.node_busy[base..base + self.slot_words]
    }

    /// Number of 64-bit words per node busy row.
    pub(crate) fn slot_word_count(&self) -> usize {
        self.slot_words
    }
}

/// Word-at-a-time iterator over conflict-free slots; see
/// [`Schedule::free_slots`].
#[derive(Debug)]
pub struct FreeSlots<'a> {
    tx_row: &'a [u64],
    rx_row: &'a [u64],
    full: &'a [u64],
    skip_full: bool,
    word: usize,
    last_word: usize,
    bits: u64,
    lo_mask: u64,
    hi_mask: u64,
}

impl FreeSlots<'_> {
    fn word_bits(&self, w: usize) -> u64 {
        let mut busy = self.tx_row[w] | self.rx_row[w];
        if self.skip_full {
            busy |= self.full[w];
        }
        let mut bits = !busy;
        if w == self.last_word {
            bits &= self.hi_mask;
        }
        // `word` only starts at the window's first word, so the low mask is
        // applied exactly once, by the constructor's initial fill.
        bits
    }
}

impl Iterator for FreeSlots<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros();
                self.bits &= self.bits - 1;
                return Some((self.word as u32) * 64 + tz);
            }
            if self.word >= self.last_word {
                return None;
            }
            self.word += 1;
            self.bits = self.word_bits(self.word);
        }
    }
}

/// Hand-written so that `clone_from` propagates to every `Vec` field —
/// `Vec::clone_from` reuses the destination's allocations, which lets a
/// caller that clones schedules repeatedly (the gateway's delta path keeps
/// a scratch buffer) pay a memcpy instead of ~one allocation per occupied
/// cell. A derived `Clone` would fall back to `*self = source.clone()`.
impl Clone for Schedule {
    fn clone(&self) -> Self {
        Schedule {
            horizon: self.horizon,
            channel_count: self.channel_count,
            node_count: self.node_count,
            cells: self.cells.clone(),
            slot_busy: self.slot_busy.clone(),
            node_words: self.node_words,
            node_busy: self.node_busy.clone(),
            slot_words: self.slot_words,
            entries: self.entries.clone(),
            cell_links: self.cell_links.clone(),
            occupied_offsets: self.occupied_offsets.clone(),
            slot_full: self.slot_full.clone(),
            node_gen: self.node_gen.clone(),
            generation: self.generation,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.horizon = source.horizon;
        self.channel_count = source.channel_count;
        self.node_count = source.node_count;
        self.cells.clone_from(&source.cells);
        self.slot_busy.clone_from(&source.slot_busy);
        self.node_words = source.node_words;
        self.node_busy.clone_from(&source.node_busy);
        self.slot_words = source.slot_words;
        self.entries.clone_from(&source.entries);
        self.cell_links.clone_from(&source.cell_links);
        self.occupied_offsets.clone_from(&source.occupied_offsets);
        self.slot_full.clone_from(&source.slot_full);
        self.node_gen.clone_from(&source.node_gen);
        self.generation = source.generation;
    }
}

impl PartialEq for Schedule {
    /// Two schedules are equal when they have the same grid dimensions and
    /// the same entries in the same order — every occupancy index is a
    /// deterministic function of those.
    fn eq(&self, other: &Self) -> bool {
        self.horizon == other.horizon
            && self.channel_count == other.channel_count
            && self.node_count == other.node_count
            && self.entries == other.entries
    }
}

impl Serialize for Schedule {
    /// Emits the same wire shape the pre-optimization derive produced; the
    /// acceleration caches are derived data and never serialized.
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("horizon".to_string(), self.horizon.to_value()),
            ("channel_count".to_string(), self.channel_count.to_value()),
            ("node_count".to_string(), self.node_count.to_value()),
            ("cells".to_string(), self.cells.to_value()),
            ("slot_busy".to_string(), self.slot_busy.to_value()),
            ("node_words".to_string(), self.node_words.to_value()),
            ("node_busy".to_string(), self.node_busy.to_value()),
            ("slot_words".to_string(), self.slot_words.to_value()),
            ("entries".to_string(), self.entries.to_value()),
        ])
    }
}

impl Deserialize for Schedule {
    /// Reads the grid dimensions and entries, then replays the placements —
    /// bitsets and caches are rebuilt rather than trusted from the wire.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
            let f = v.get(name).ok_or_else(|| DeError::custom(format!("missing field {name}")))?;
            T::from_value(f).map_err(|e| e.context(name))
        }
        let horizon: u32 = field(v, "horizon")?;
        let channel_count: usize = field(v, "channel_count")?;
        let node_count: usize = field(v, "node_count")?;
        let entries: Vec<ScheduleEntry> = field(v, "entries")?;
        if horizon == 0 || channel_count == 0 {
            return Err(DeError::custom("schedule needs at least one slot and one channel"));
        }
        let mut schedule = Schedule::new(horizon, channel_count, node_count);
        for e in entries {
            if e.slot >= horizon || e.offset >= channel_count {
                return Err(DeError::custom(format!(
                    "entry at slot {} offset {} outside the {}×{} grid",
                    e.slot, e.offset, horizon, channel_count
                )));
            }
            let max_node = e.tx.link.tx.index().max(e.tx.link.rx.index());
            if max_node >= node_count {
                return Err(DeError::custom(format!(
                    "entry references node {max_node} beyond node count {node_count}"
                )));
            }
            schedule.place(e.slot, e.offset, e.tx);
        }
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_flow::FlowId;
    use wsan_net::DirectedLink;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn tx(a: usize, b: usize) -> ScheduledTx {
        ScheduledTx {
            flow: FlowId::new(0),
            job_index: 0,
            link: DirectedLink::new(n(a), n(b)),
            seq: 0,
            attempt: 0,
        }
    }

    #[test]
    fn empty_schedule_has_no_conflicts() {
        let s = Schedule::new(100, 4, 10);
        assert!(!s.conflicts(0, n(0), n(1)));
        assert_eq!(s.entry_count(), 0);
        assert_eq!(s.conflict_slot_count(n(0), n(1), 0, 99), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_horizon_panics() {
        let _ = Schedule::new(0, 4, 10);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        let _ = Schedule::new(10, 0, 10);
    }

    #[test]
    fn place_updates_all_indexes() {
        let mut s = Schedule::new(100, 4, 10);
        s.place(5, 2, tx(1, 2));
        assert_eq!(s.cell(5, 2), &[tx(1, 2)]);
        assert_eq!(s.cell_links(5, 2), &[DirectedLink::new(n(1), n(2))]);
        assert!(s.node_busy_in_slot(n(1), 5));
        assert!(s.node_busy_in_slot(n(2), 5));
        assert!(!s.node_busy_in_slot(n(3), 5));
        assert!(s.conflicts(5, n(2), n(7)));
        assert!(s.conflicts(5, n(7), n(1)));
        assert!(!s.conflicts(5, n(7), n(8)));
        assert!(!s.conflicts(6, n(1), n(2)));
        assert_eq!(s.entry_count(), 1);
    }

    #[test]
    fn conflict_slot_count_over_ranges() {
        let mut s = Schedule::new(200, 2, 10);
        s.place(10, 0, tx(1, 2));
        s.place(20, 0, tx(2, 3));
        s.place(130, 1, tx(1, 4));
        // node 5-6 never busy
        assert_eq!(s.conflict_slot_count(n(5), n(6), 0, 199), 0);
        // link 1↔9: node 1 busy at 10 and 130
        assert_eq!(s.conflict_slot_count(n(1), n(9), 0, 199), 2);
        assert_eq!(s.conflict_slot_count(n(1), n(9), 11, 199), 1);
        assert_eq!(s.conflict_slot_count(n(1), n(9), 10, 10), 1);
        assert_eq!(s.conflict_slot_count(n(1), n(9), 11, 129), 0);
        // link 2↔9: node 2 busy at 10 and 20
        assert_eq!(s.conflict_slot_count(n(2), n(9), 0, 64), 2);
        // overlapping busy slots count once per slot: link 1↔2 busy at 10 (both), 20, 130
        assert_eq!(s.conflict_slot_count(n(1), n(2), 0, 199), 3);
    }

    #[test]
    fn conflict_slot_count_word_boundaries() {
        let mut s = Schedule::new(200, 1, 4);
        for slot in [63, 64, 127, 128] {
            s.place(slot, 0, tx(0, 1));
        }
        assert_eq!(s.conflict_slot_count(n(0), n(1), 63, 128), 4);
        assert_eq!(s.conflict_slot_count(n(0), n(1), 64, 127), 2);
        assert_eq!(s.conflict_slot_count(n(0), n(1), 0, 62), 0);
        assert_eq!(s.conflict_slot_count(n(0), n(1), 129, 199), 0);
    }

    #[test]
    fn conflict_slot_count_clamps_to_horizon() {
        let mut s = Schedule::new(100, 1, 4);
        s.place(99, 0, tx(0, 1));
        assert_eq!(s.conflict_slot_count(n(0), n(1), 90, 5_000), 1);
    }

    #[test]
    fn inverted_range_is_empty() {
        let s = Schedule::new(100, 1, 4);
        assert_eq!(s.conflict_slot_count(n(0), n(1), 50, 10), 0);
    }

    #[test]
    fn shared_cell_holds_multiple_transmissions() {
        let mut s = Schedule::new(10, 2, 10);
        s.place(3, 1, tx(0, 1));
        s.place(3, 1, tx(4, 5)); // disjoint nodes: no conflict
        assert_eq!(s.cell(3, 1).len(), 2);
        assert_eq!(s.cell_len(3, 1), 2);
        assert_eq!(s.cell_links(3, 1).len(), 2);
        let cells: Vec<_> = s.occupied_cells().collect();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0, 3);
        assert_eq!(cells[0].1, 1);
    }

    // the conflict check is a `debug_assert!`: release builds compile it
    // out, so this test exists only where it does
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "transmission conflict")]
    fn debug_placement_conflict_panics() {
        let mut s = Schedule::new(10, 2, 10);
        s.place(3, 0, tx(0, 1));
        s.place(3, 1, tx(1, 2)); // shares node 1 in the same slot
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn out_of_range_slot_panics() {
        let mut s = Schedule::new(10, 2, 10);
        s.place(10, 0, tx(0, 1));
    }

    #[test]
    fn node_count_above_64_uses_multiple_words() {
        let mut s = Schedule::new(10, 1, 130);
        s.place(1, 0, tx(100, 129));
        assert!(s.node_busy_in_slot(n(100), 1));
        assert!(s.node_busy_in_slot(n(129), 1));
        assert!(!s.node_busy_in_slot(n(64), 1));
        assert!(s.conflicts(1, n(129), n(3)));
    }

    #[test]
    fn slot_fullness_tracks_occupied_offsets() {
        let mut s = Schedule::new(10, 2, 20);
        assert!(!s.slot_is_full(3));
        s.place(3, 0, tx(0, 1));
        assert!(!s.slot_is_full(3));
        s.place(3, 0, tx(4, 5)); // same cell again: still one occupied offset
        assert!(!s.slot_is_full(3));
        s.place(3, 1, tx(8, 9));
        assert!(s.slot_is_full(3));
        assert!(!s.slot_is_full(4));
    }

    #[test]
    fn free_slots_skips_busy_and_respects_window() {
        let mut s = Schedule::new(200, 1, 4);
        for slot in [0, 1, 63, 64, 128] {
            s.place(slot, 0, tx(0, 1));
        }
        let free: Vec<u32> = s.free_slots(n(0), n(2), 0, 5, false).collect();
        assert_eq!(free, vec![2, 3, 4, 5]);
        // word-boundary busy slots are skipped
        let free: Vec<u32> = s.free_slots(n(1), n(2), 62, 66, false).collect();
        assert_eq!(free, vec![62, 65, 66]);
        // nodes not involved see every slot of the window
        let free: Vec<u32> = s.free_slots(n(2), n(3), 126, 130, false).collect();
        assert_eq!(free, vec![126, 127, 128, 129, 130]);
        // inverted and beyond-horizon windows are empty / clamped
        assert_eq!(s.free_slots(n(0), n(1), 50, 10, false).count(), 0);
        assert_eq!(s.free_slots(n(2), n(3), 198, 5_000, false).count(), 2);
    }

    #[test]
    fn free_slots_skip_full_excludes_packed_slots() {
        let mut s = Schedule::new(10, 1, 8);
        s.place(2, 0, tx(0, 1));
        s.place(4, 0, tx(0, 1));
        // node 5 is idle everywhere, but slots 2 and 4 are fully packed
        let free: Vec<u32> = s.free_slots(n(5), n(6), 0, 9, true).collect();
        assert_eq!(free, vec![0, 1, 3, 5, 6, 7, 8, 9]);
        // without skip_full the packed slots come back
        let free: Vec<u32> = s.free_slots(n(5), n(6), 0, 9, false).collect();
        assert_eq!(free, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn node_generations_advance_only_for_touched_nodes() {
        let mut s = Schedule::new(10, 2, 10);
        let before = s.generation();
        s.place(0, 0, tx(1, 2));
        assert_eq!(s.generation(), before + 1);
        assert_eq!(s.node_generation(n(1)), 1);
        assert_eq!(s.node_generation(n(2)), 1);
        assert_eq!(s.node_generation(n(3)), 0);
        s.place(1, 0, tx(2, 3));
        assert_eq!(s.node_generation(n(1)), 1);
        assert_eq!(s.node_generation(n(2)), 2);
        assert_eq!(s.node_generation(n(3)), 1);
    }

    #[test]
    fn serde_roundtrip_rebuilds_indexes() {
        let mut s = Schedule::new(100, 2, 10);
        s.place(10, 0, tx(1, 2));
        s.place(10, 1, tx(4, 5));
        s.place(70, 0, tx(1, 2));
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.entries(), s.entries());
        assert!(back.slot_is_full(10));
        assert!(back.conflicts(70, n(2), n(9)));
        assert_eq!(back.conflict_slot_count(n(1), n(2), 0, 99), 2);
    }

    #[test]
    fn deserialize_rejects_out_of_grid_entries() {
        let mut s = Schedule::new(10, 1, 4);
        s.place(3, 0, tx(0, 1));
        let json = serde_json::to_string(&s).unwrap();
        let bad = json.replace("\"slot\":3", "\"slot\":99");
        assert!(serde_json::from_str::<Schedule>(&bad).is_err());
    }
}
