//! Flow-churn campaign: hammer a long-lived [`GatewayState`] with a
//! deterministic random admit/remove/re-rate/retire sequence and verify —
//! after **every** operation — that the incrementally maintained schedule
//! is byte-identical to a recompute-from-scratch of the same flow set.
//!
//! The record of an episode is fully deterministic in its seed: operation
//! mix, delta-path counts, evictions, rejections, and the final schedule
//! shape. No wall-clock time is recorded, so campaign checkpoints resume
//! bit-identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use wsan_core::gateway::{DeltaPath, FlowSpec, GatewayConfig, GatewayState};
use wsan_core::{NetworkModel, ReuseConservatively, Scheduler};
use wsan_flow::Period;
use wsan_net::{routing, testbeds, ChannelId, CommGraph, NodeId, Prr};

/// One churn episode's knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Operations to attempt.
    pub ops: usize,
    /// Episode seed (topology PRR draw and operation stream).
    pub seed: u64,
    /// Reuse hop-distance floor for the RC gateway and its oracle.
    pub rho_t: u32,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig { ops: 60, seed: 1, rho_t: 2 }
    }
}

/// Deterministic outcome of one churn episode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnRecord {
    /// Episode seed.
    pub seed: u64,
    /// Operations attempted.
    pub ops: usize,
    /// Successful admissions.
    pub admitted: usize,
    /// Successful removals.
    pub removed: usize,
    /// Successful re-rates.
    pub updated: usize,
    /// Link retirements applied.
    pub retired: usize,
    /// Operations rejected (infeasible, retired route, unroutable, …).
    pub rejected: usize,
    /// Flows evicted by link retirements or shed by the feasibility ladder.
    pub evicted: usize,
    /// Delta operations that re-placed only a priority suffix.
    pub suffix_paths: usize,
    /// Delta operations that fell back to a full recompute.
    pub full_paths: usize,
    /// Operations that left the schedule untouched.
    pub unchanged_paths: usize,
    /// Post-operation states whose schedule differed from a fresh
    /// recompute of the same flow set. **Must be zero** — the campaign's
    /// whole point.
    pub oracle_mismatches: usize,
    /// Admitted flows at the end of the episode.
    pub final_flows: usize,
    /// Scheduled transmissions at the end of the episode.
    pub final_entries: usize,
    /// Final schedule horizon in slots.
    pub final_horizon: u32,
}

/// Runs one churn episode on the WUSTL testbed (seeded PRR draw), checking
/// the delta schedule against the recompute oracle after every operation.
pub fn episode(cfg: &ChurnConfig) -> ChurnRecord {
    let topo = testbeds::wustl(cfg.seed);
    let channels = ChannelId::range(11, 14).expect("valid channel range");
    let comm = topo.comm_graph(&channels, Prr::new(0.9).expect("valid PRR"));
    let model = NetworkModel::new(&topo, &channels);
    let oracle = ReuseConservatively::new(cfg.rho_t);
    let mut gw = GatewayState::new(
        model,
        Box::new(ReuseConservatively::new(cfg.rho_t)),
        GatewayConfig { rho_t: Some(cfg.rho_t), ..GatewayConfig::default() },
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let mut rec = ChurnRecord {
        seed: cfg.seed,
        ops: cfg.ops,
        admitted: 0,
        removed: 0,
        updated: 0,
        retired: 0,
        rejected: 0,
        evicted: 0,
        suffix_paths: 0,
        full_paths: 0,
        unchanged_paths: 0,
        oracle_mismatches: 0,
        final_flows: 0,
        final_entries: 0,
        final_horizon: 0,
    };
    let mut next_name = 0usize;
    let mut retires_left = 3usize;

    for _ in 0..cfg.ops {
        let roll: f64 = rng.gen();
        let result = if roll < 0.55 || gw.is_empty() {
            let name = format!("f{next_name}");
            match random_spec(&mut rng, &comm) {
                Some(spec) => match gw.add_flow(&name, spec) {
                    Ok(report) => {
                        rec.admitted += 1;
                        next_name += 1;
                        Some(report)
                    }
                    Err(_) => {
                        rec.rejected += 1;
                        None
                    }
                },
                None => {
                    rec.rejected += 1;
                    None
                }
            }
        } else if roll < 0.75 {
            let name = random_flow(&mut rng, &gw);
            match gw.remove_flow(&name) {
                Ok(report) => {
                    rec.removed += 1;
                    Some(report)
                }
                Err(_) => {
                    rec.rejected += 1;
                    None
                }
            }
        } else if roll < 0.92 || retires_left == 0 {
            let name = random_flow(&mut rng, &gw);
            let (period, deadline) = random_timing(&mut rng, 2);
            match gw.update_rate(&name, period, deadline) {
                Ok(report) => {
                    rec.updated += 1;
                    Some(report)
                }
                Err(_) => {
                    rec.rejected += 1;
                    None
                }
            }
        } else {
            // retire a random communication edge (both directions)
            retires_left -= 1;
            let a = NodeId::new(rng.gen_range(0..comm.node_count()));
            let neighbors = comm.neighbors(a);
            if neighbors.is_empty() {
                rec.rejected += 1;
                None
            } else {
                let b = neighbors[rng.gen_range(0..neighbors.len())];
                match gw.retire_links(&[
                    wsan_net::DirectedLink::new(a, b),
                    wsan_net::DirectedLink::new(b, a),
                ]) {
                    Ok(report) => {
                        rec.retired += 1;
                        Some(report)
                    }
                    Err(_) => {
                        rec.rejected += 1;
                        None
                    }
                }
            }
        };
        if let Some(report) = result {
            rec.evicted += report.evicted.len();
            match report.path {
                DeltaPath::Suffix { .. } => rec.suffix_paths += 1,
                DeltaPath::Full => rec.full_paths += 1,
                DeltaPath::Unchanged => rec.unchanged_paths += 1,
            }
        }
        // the oracle: recompute the whole flow set from scratch
        let fresh = oracle.schedule(&gw.flow_set(), gw.model());
        let matches = match fresh {
            Ok(ref s) => s == gw.schedule(),
            Err(_) => false,
        };
        if !matches {
            rec.oracle_mismatches += 1;
        }
    }

    rec.final_flows = gw.len();
    rec.final_entries = gw.schedule().entry_count();
    rec.final_horizon = gw.schedule().horizon();
    rec
}

/// A random admission spec: shortest-path route between two distinct
/// nodes, period from {32, 64, 128} slots, deadline uniform in the
/// feasible-looking window.
fn random_spec(rng: &mut StdRng, comm: &CommGraph) -> Option<FlowSpec> {
    let n = comm.node_count();
    let src = NodeId::new(rng.gen_range(0..n));
    let dst = NodeId::new(rng.gen_range(0..n));
    if src == dst {
        return None;
    }
    let route = routing::shortest_path(comm, src, dst).ok()?;
    let hops = route.hop_count() as u32;
    let (period, _) = random_timing(rng, hops);
    // retries double the per-job slot demand; keep a plausible window
    let min_d = (2 * hops).min(period.slots());
    let deadline = rng.gen_range(min_d..=period.slots());
    Some(FlowSpec { route, period, deadline_slots: deadline })
}

/// A period from {32, 64, 128} and a deadline within it, at least
/// `2 * hops` when that fits.
fn random_timing(rng: &mut StdRng, hops: u32) -> (Period, u32) {
    let slots = 32u32 << rng.gen_range(0..3u32);
    let period = Period::from_slots(slots).expect("nonzero");
    let min_d = (2 * hops).clamp(1, slots);
    let deadline = rng.gen_range(min_d..=slots);
    (period, deadline)
}

/// A uniformly drawn admitted flow name (caller ensures non-empty).
fn random_flow(rng: &mut StdRng, gw: &GatewayState) -> String {
    let names = gw.flow_names();
    names[rng.gen_range(0..names.len())].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_is_deterministic_and_oracle_clean() {
        let cfg = ChurnConfig { ops: 25, seed: 5, rho_t: 2 };
        let a = episode(&cfg);
        let b = episode(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.oracle_mismatches, 0, "{a:?}");
        assert!(a.admitted > 0, "{a:?}");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = episode(&ChurnConfig { ops: 20, seed: 1, rho_t: 2 });
        let b = episode(&ChurnConfig { ops: 20, seed: 2, rho_t: 2 });
        assert_ne!(a, b);
    }
}
