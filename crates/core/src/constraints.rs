//! The channel reuse constraints of §V-A and the `findSlot()` primitive.
//!
//! This is the scheduler hot path: every placement of every scheduler
//! funnels through [`find_slot`] → [`best_offset`] → the channel
//! constraint. The implementations here lean on the occupancy indexes
//! [`Schedule`] maintains —
//!
//! * candidate slots come from [`Schedule::free_slots`], which scans the
//!   two endpoint busy rows a 64-slot word at a time instead of testing
//!   slots one by one (and, for no-reuse placements, skips fully packed
//!   slots through the full-slot bitset),
//! * the channel constraint iterates the dense per-cell occupant-link
//!   slices ([`Schedule::cell_links`]) rather than the wider cell vecs,
//!   and reports the cell occupancy it already walked so [`best_offset`]
//!   does not fetch it a second time.
//!
//! The pre-optimization, slot-by-slot forms are preserved verbatim in
//! [`crate::reference`]; the proptest equivalence suite pins both paths to
//! identical results.

use crate::{NetworkModel, Rho, Schedule};
use wsan_net::DirectedLink;

/// Whether `link` may join the cell `(slot, offset)` under hop distance
/// `rho` — the *channel constraint* (§V-A, condition 2):
///
/// * `ρ = ∞`: the cell must be empty;
/// * `ρ < ∞`: for every scheduled `x→y` in the cell, the new sender `u`
///   must be at least `ρ` hops from `y`, and `x` at least `ρ` hops from the
///   new receiver `v`, on the channel reuse graph.
///
/// Transmission conflicts are checked separately ([`Schedule::conflicts`]).
pub fn channel_ok(
    schedule: &Schedule,
    model: &NetworkModel,
    slot: u32,
    offset: usize,
    link: DirectedLink,
    rho: Rho,
) -> bool {
    channel_fit(schedule, model, slot, offset, link, rho).is_some()
}

/// The channel constraint plus the tie-break key in one cell walk: returns
/// the cell's occupancy when `link` may join `(slot, offset)` under `rho`,
/// `None` when the constraint rejects it. [`best_offset`] ranks feasible
/// offsets by this occupancy, so returning it here avoids fetching the cell
/// length a second time.
pub(crate) fn channel_fit(
    schedule: &Schedule,
    model: &NetworkModel,
    slot: u32,
    offset: usize,
    link: DirectedLink,
    rho: Rho,
) -> Option<usize> {
    let occupants = schedule.cell_links(slot, offset);
    match rho {
        Rho::NoReuse => occupants.is_empty().then_some(0),
        Rho::AtLeast(h) => {
            let hops = model.hops();
            occupants
                .iter()
                .all(|other| {
                    hops.at_least(link.tx, other.rx, h) && hops.at_least(other.tx, link.rx, h)
                })
                .then_some(occupants.len())
        }
    }
}

/// Picks the best feasible channel offset in `slot` for `link` under `rho`:
/// the offset satisfying the channel constraint with the fewest scheduled
/// transmissions ("to reduce channel contention"), ties toward the lowest
/// offset. `None` if no offset is feasible.
pub fn best_offset(
    schedule: &Schedule,
    model: &NetworkModel,
    slot: u32,
    link: DirectedLink,
    rho: Rho,
) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (cell_len, offset)
    for offset in 0..schedule.channel_count() {
        let Some(len) = channel_fit(schedule, model, slot, offset, link, rho) else {
            continue;
        };
        if best.is_none_or(|(blen, _)| len < blen) {
            best = Some((len, offset));
            if len == 0 {
                break; // cannot do better than an empty cell
            }
        }
    }
    best.map(|(_, offset)| offset)
}

/// `findSlot()` of Algorithm 1: the earliest slot `s ∈ [earliest, latest]`
/// and channel offset `c` satisfying both the transmission-conflict
/// constraint and the channel constraint under `rho`.
///
/// Candidate slots are produced by the word-level
/// [`Schedule::free_slots`] scan; under `ρ = ∞` fully packed slots are
/// skipped outright (no offset of such a slot can accept a no-reuse
/// placement), so dense regions cost one bitset word per 64 slots.
///
/// Returns `None` when no slot in the window works — the caller treats that
/// as a deadline miss (or, in RC, as a cue to relax `ρ`).
pub fn find_slot(
    schedule: &Schedule,
    model: &NetworkModel,
    link: DirectedLink,
    earliest: u32,
    latest: u32,
    rho: Rho,
) -> Option<(u32, usize)> {
    // `Schedule::new` rejects empty grids, but guard the window arithmetic
    // anyway instead of underflowing `horizon - 1`.
    let last = schedule.horizon().checked_sub(1)?;
    let latest = latest.min(last);
    if earliest > latest {
        return None;
    }
    let skip_full = matches!(rho, Rho::NoReuse);
    for slot in schedule.free_slots(link.tx, link.rx, earliest, latest, skip_full) {
        if let Some(c) = best_offset(schedule, model, slot, link, rho) {
            return Some((slot, c));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduledTx;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wsan_flow::FlowId;
    use wsan_net::{NodeId, ReuseGraph};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn stx(a: usize, b: usize) -> ScheduledTx {
        ScheduledTx {
            flow: FlowId::new(0),
            job_index: 0,
            link: DirectedLink::new(n(a), n(b)),
            seq: 0,
            attempt: 0,
        }
    }

    /// Path 0-1-2-3-4-5: hop(0→5) = 5.
    fn path_model(channels: usize) -> NetworkModel {
        let edges: Vec<_> = (0..5).map(|i| (n(i), n(i + 1))).collect();
        NetworkModel::from_reuse_graph(&ReuseGraph::from_edges(6, &edges), channels)
    }

    #[test]
    fn no_reuse_requires_empty_cell() {
        let model = path_model(2);
        let mut s = Schedule::new(10, 2, 6);
        s.place(0, 0, stx(0, 1));
        let far = DirectedLink::new(n(4), n(5));
        assert!(!channel_ok(&s, &model, 0, 0, far, Rho::NoReuse));
        assert!(channel_ok(&s, &model, 0, 1, far, Rho::NoReuse));
    }

    #[test]
    fn channel_fit_reports_cell_occupancy() {
        let model = path_model(2);
        let mut s = Schedule::new(10, 2, 6);
        s.place(0, 0, stx(0, 1));
        s.place(0, 0, stx(5, 4));
        let cand = DirectedLink::new(n(0), n(1));
        assert_eq!(channel_fit(&s, &model, 0, 1, cand, Rho::NoReuse), Some(0));
        assert_eq!(channel_fit(&s, &model, 0, 0, cand, Rho::NoReuse), None);
        assert_eq!(channel_fit(&s, &model, 0, 0, cand, Rho::AtLeast(1)), Some(2));
    }

    #[test]
    fn reuse_respects_hop_distance_both_ways() {
        let model = path_model(1);
        let mut s = Schedule::new(10, 1, 6);
        s.place(0, 0, stx(0, 1));
        // candidate 4→5: sender 4 to receiver 1 = 3 hops; sender 0 to
        // receiver 5 = 5 hops. min = 3.
        let cand = DirectedLink::new(n(4), n(5));
        assert!(channel_ok(&s, &model, 0, 0, cand, Rho::AtLeast(3)));
        assert!(!channel_ok(&s, &model, 0, 0, cand, Rho::AtLeast(4)));
        // candidate 5→4: sender 5 to receiver 1 = 4; sender 0 to receiver 4 = 4.
        let cand2 = DirectedLink::new(n(5), n(4));
        assert!(channel_ok(&s, &model, 0, 0, cand2, Rho::AtLeast(4)));
        assert!(!channel_ok(&s, &model, 0, 0, cand2, Rho::AtLeast(5)));
    }

    #[test]
    fn reuse_checks_every_occupant() {
        let model = path_model(1);
        let mut s = Schedule::new(10, 1, 6);
        s.place(0, 0, stx(0, 1));
        s.place(0, 0, stx(5, 4)); // coexists with 0→1 at rho ≤ 4
                                  // now 2→3 is close to both occupants
        let cand = DirectedLink::new(n(2), n(3));
        assert!(!channel_ok(&s, &model, 0, 0, cand, Rho::AtLeast(2)));
    }

    #[test]
    fn best_offset_prefers_emptiest_cell() {
        let model = path_model(3);
        let mut s = Schedule::new(10, 3, 6);
        s.place(0, 0, stx(0, 1));
        // offsets 1 and 2 empty → lowest empty offset wins
        let cand = DirectedLink::new(n(4), n(5));
        assert_eq!(best_offset(&s, &model, 0, cand, Rho::NoReuse), Some(1));
    }

    #[test]
    fn best_offset_breaks_ties_among_occupied_cells() {
        let model = path_model(2);
        let mut s = Schedule::new(10, 2, 6);
        s.place(0, 0, stx(0, 1));
        s.place(0, 0, stx(4, 5)); // offset 0 holds 2 occupants (3+ hops apart)
        s.place(0, 1, stx(2, 3)); // offset 1 holds 1 occupant
                                  // A rho=1 candidate (distances ≥ 1 are trivially met by distinct
                                  // nodes) must pick offset 1, the cell with fewer occupants. The
                                  // candidate's own node-conflict is find_slot's concern, not
                                  // best_offset's, so reuse nodes 0→1 for the query.
        let cand = DirectedLink::new(n(0), n(1));
        assert_eq!(best_offset(&s, &model, 0, cand, Rho::AtLeast(1)), Some(1));
        // In an empty slot, the lowest empty offset wins.
        assert_eq!(best_offset(&s, &model, 5, cand, Rho::AtLeast(1)), Some(0));
    }

    // the conflict check is a `debug_assert!` in `Schedule::place`: release
    // builds compile it out, so this test exists only where it does
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "transmission conflict")]
    fn panicking_setup_is_detected() {
        // documents that the commented pitfall above really panics in debug
        let mut s = Schedule::new(10, 2, 6);
        s.place(0, 0, stx(0, 1));
        s.place(0, 1, stx(1, 2));
    }

    #[test]
    fn find_slot_skips_conflicts_and_full_cells() {
        let model = path_model(1);
        let mut s = Schedule::new(10, 1, 6);
        s.place(0, 0, stx(2, 3)); // slot 0: conflicts with 3→4
        s.place(1, 0, stx(0, 1)); // slot 1 cell occupied; 3→4 would need reuse
        let cand = DirectedLink::new(n(3), n(4));
        // NoReuse: slot 0 conflict, slot 1 cell occupied → slot 2
        assert_eq!(find_slot(&s, &model, cand, 0, 9, Rho::NoReuse), Some((2, 0)));
        // With reuse at rho=2: slot 1 occupant 0→1; sender 3 to receiver 1
        // = 2 hops; sender 0 to receiver 4 = 4 hops → feasible at slot 1.
        assert_eq!(find_slot(&s, &model, cand, 0, 9, Rho::AtLeast(2)), Some((1, 0)));
        // earliest bound respected
        assert_eq!(find_slot(&s, &model, cand, 5, 9, Rho::AtLeast(2)), Some((5, 0)));
    }

    #[test]
    fn find_slot_honours_latest_bound() {
        let model = path_model(1);
        let mut s = Schedule::new(10, 1, 6);
        for slot in 0..5 {
            s.place(slot, 0, stx(0, 1));
        }
        let cand = DirectedLink::new(n(1), n(2)); // conflicts with all of 0..5
        assert_eq!(find_slot(&s, &model, cand, 0, 4, Rho::NoReuse), None);
        assert_eq!(find_slot(&s, &model, cand, 0, 5, Rho::NoReuse), Some((5, 0)));
    }

    #[test]
    fn find_slot_clamps_latest_to_horizon() {
        let model = path_model(1);
        let s = Schedule::new(10, 1, 6);
        let cand = DirectedLink::new(n(0), n(1));
        assert_eq!(find_slot(&s, &model, cand, 0, 1_000_000, Rho::NoReuse), Some((0, 0)));
        assert_eq!(find_slot(&s, &model, cand, 20, 1_000_000, Rho::NoReuse), None);
    }

    #[test]
    fn find_slot_skips_packed_slots_only_without_reuse() {
        let model = path_model(1);
        let mut s = Schedule::new(10, 1, 6);
        s.place(0, 0, stx(0, 1)); // the single offset of slot 0 is taken
        let cand = DirectedLink::new(n(4), n(5));
        // no reuse: the packed slot is skipped at the bitset level
        assert_eq!(find_slot(&s, &model, cand, 0, 9, Rho::NoReuse), Some((1, 0)));
        // with reuse the packed slot is still a candidate
        assert_eq!(find_slot(&s, &model, cand, 0, 9, Rho::AtLeast(3)), Some((0, 0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Above every hop distance among the nodes a schedule holds and the
        /// link's endpoints, the channel constraint rejects every occupied
        /// cell, so `find_slot` at `Rho::AtLeast(h)` returns its
        /// `Rho::NoReuse` answer. Nodes the schedule never uses may lie
        /// farther apart. This is why a shard problem may take `λ_R` over
        /// the nodes its flows name only (DESIGN.md §15).
        #[test]
        fn find_slot_above_every_pair_distance_is_the_no_reuse_answer(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            // a path with random chords; the schedule uses a prefix of it
            let size = rng.gen_range(3..30);
            let mut edges: Vec<_> = (0..size - 1).map(|i| (n(i), n(i + 1))).collect();
            for _ in 0..rng.gen_range(0..size) {
                let (a, b) = (rng.gen_range(0..size), rng.gen_range(0..size));
                if a != b {
                    edges.push((n(a), n(b)));
                }
            }
            let model = NetworkModel::from_reuse_graph(
                &ReuseGraph::from_edges(size, &edges),
                rng.gen_range(1..4),
            );
            let used = rng.gen_range(2..=size);
            let pick_link = |rng: &mut StdRng| loop {
                let (a, b) = (rng.gen_range(0..used), rng.gen_range(0..used));
                if a != b {
                    break DirectedLink::new(n(a), n(b));
                }
            };
            let link = pick_link(&mut rng);
            let horizon = rng.gen_range(1..40);
            let mut s = Schedule::new(horizon, model.channels(), size);
            for _ in 0..rng.gen_range(0..4 * horizon) {
                let other = pick_link(&mut rng);
                let slot = rng.gen_range(0..horizon);
                // mostly leave the link's endpoints free, so that cells,
                // not node conflicts, decide the slot
                let touches = [other.tx, other.rx].iter().any(|&v| v == link.tx || v == link.rx);
                let skip = touches && rng.gen_bool(0.9);
                if !skip && !s.conflicts(slot, other.tx, other.rx) {
                    let tx = ScheduledTx { link: other, ..stx(0, 1) };
                    s.place(slot, rng.gen_range(0..model.channels()), tx);
                }
            }
            let mut nodes = vec![link.tx, link.rx];
            nodes.extend(s.entries().iter().flat_map(|e| [e.tx.link.tx, e.tx.link.rx]));
            let hops = model.hops();
            let far = nodes
                .iter()
                .flat_map(|&x| nodes.iter().map(move |&y| hops.hops(x, y)))
                .max()
                .expect("the link's endpoints");
            let earliest = rng.gen_range(0..horizon);
            let latest = rng.gen_range(earliest..horizon + 4);
            let no_reuse = find_slot(&s, &model, link, earliest, latest, Rho::NoReuse);
            for h in far + 1..=far + 3 {
                prop_assert_eq!(
                    find_slot(&s, &model, link, earliest, latest, Rho::AtLeast(h)),
                    no_reuse,
                    "seed {}, h {}", seed, h
                );
            }
        }
    }
}
