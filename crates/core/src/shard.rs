//! Multi-gateway sharded scheduling of city-scale plants.
//!
//! A single network manager cannot schedule a 10k-node plant as one
//! problem: the hop-matrix alone is quadratic and every admission would
//! touch the whole timeline. This module partitions a
//! [`Plant`] into per-gateway *shards*, lets each
//! shard schedule independently (in parallel — see `wsan_expr::sharding`),
//! and stitches the per-shard schedules into one whole-network schedule
//! that provably respects the §V-A conservative channel-reuse constraint:
//!
//! 1. **Partition** ([`plan`]): `k` gateway nodes are picked by seeded
//!    farthest-point traversal of the communication graph and every node
//!    joins its hop-nearest gateway (ties toward the lower gateway
//!    index). Graph-Voronoi regions grown this way are connected, so each
//!    shard can route its own flows.
//! 2. **Spectrum coloring**: two shards *conflict* when any cross-shard
//!    node pair is closer than the reuse floor `ρ_t` on the whole-plant
//!    reuse graph — exactly the §V-A test quantified over every
//!    transmission either shard could ever schedule. Conflicting shards
//!    get disjoint channel-offset blocks (greedy coloring); shards far
//!    enough apart *reuse the same block* — conservative channel reuse at
//!    shard granularity. Under NR (no reuse) every pair of shards
//!    conflicts and the spectrum is split `k` ways.
//! 3. **Per-shard scheduling** ([`build_problem`], [`schedule_shard`]):
//!    each shard schedules its own flow set over its offset block with an
//!    unmodified [`Scheduler`]. Its routing graph is the induced subgraph
//!    of the plan's whole-plant comm graph; its hop matrix holds *global*
//!    distances on the plan's whole-plant reuse graph, restricted to the
//!    shard (an induced reuse subgraph would overstate distances and
//!    un-conservatively allow reuse). The plan builds each whole-plant
//!    graph once per run.
//! 4. **Stitch** ([`stitch`]): per-shard schedules are unrolled to the
//!    common hyperperiod and placed into one whole-network
//!    [`Schedule`], offsets translated by each shard's block base.
//! 5. **Validate** ([`validate_stitched`]): an independent whole-network
//!    pass re-checks every shared cell against the §V-A test on a
//!    whole-plant reuse graph it builds from the plant itself (not the
//!    plan's), and every slot for node-level TDMA conflicts — proving the
//!    stitched schedule interference-free without trusting steps 1–4.

use crate::{NetworkModel, Schedule, ScheduleError, ScheduledTx, Scheduler, SchedulerConfig};
use wsan_flow::{
    FlowError, FlowId, FlowSet, FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern,
};
use wsan_net::parallel::parallel_map_with;
use wsan_net::plants::Plant;
use wsan_net::{ChannelSet, CommGraph, NodeId, Prr, ReuseGraph, UNREACHABLE};

/// Knobs of a sharded scheduling run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of gateways (= shards) to partition into.
    pub shards: usize,
    /// Base seed: drives gateway selection and per-shard flow generation.
    pub seed: u64,
    /// Flows generated per shard.
    pub flows_per_shard: usize,
    /// Harmonic period range of the generated flows.
    pub periods: PeriodRange,
    /// Traffic pattern of the generated flows.
    pub pattern: TrafficPattern,
    /// The reuse floor `ρ_t` the §V-A conflict test uses between shards
    /// (and the stitched validator re-checks). `None` means no reuse at
    /// all (NR): every shared cell is a violation and every pair of
    /// shards conflicts.
    pub reuse_floor: Option<u32>,
    /// Link-selection threshold for the communication graphs (paper: 0.9).
    pub prr_t: Prr,
}

impl ShardConfig {
    /// A configuration with the paper's defaults: periods `[2^0, 2^2]` s,
    /// peer-to-peer traffic, `PRR_t = 0.9`, reuse floor 2.
    ///
    /// # Panics
    ///
    /// Never — the default period range is valid.
    pub fn new(shards: usize, seed: u64, flows_per_shard: usize) -> Self {
        ShardConfig {
            shards,
            seed,
            flows_per_shard,
            periods: PeriodRange::new(0, 2).expect("constant range is valid"),
            pattern: TrafficPattern::PeerToPeer,
            reuse_floor: Some(2),
            prr_t: Prr::new(0.9).expect("0.9 is a valid PRR"),
        }
    }
}

/// Why a sharded run failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ShardError {
    /// The configuration cannot be planned (zero shards, more shards than
    /// nodes, …).
    Config {
        /// What is wrong.
        reason: String,
    },
    /// The shard conflict graph needs more channel-offset blocks than
    /// there are channels.
    Channels {
        /// Colors the conflict graph required.
        colors: usize,
        /// Channels available to split.
        channels: usize,
    },
    /// Flow generation failed inside one shard.
    Flows {
        /// The shard index.
        shard: usize,
        /// The underlying flow error.
        source: FlowError,
    },
    /// Scheduling failed inside one shard.
    Schedule {
        /// The shard index.
        shard: usize,
        /// The underlying scheduling error.
        source: ScheduleError,
    },
    /// The per-shard schedules cannot be stitched.
    Stitch {
        /// What is wrong.
        reason: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Config { reason } => write!(f, "shard configuration invalid: {reason}"),
            ShardError::Channels { colors, channels } => write!(
                f,
                "shard conflict graph needs {colors} channel block(s) but only \
                 {channels} channel(s) are available"
            ),
            ShardError::Flows { shard, source } => {
                write!(f, "flow generation failed in shard {shard}: {source}")
            }
            ShardError::Schedule { shard, source } => {
                write!(f, "scheduling failed in shard {shard}: {source}")
            }
            ShardError::Stitch { reason } => write!(f, "cannot stitch shard schedules: {reason}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One shard of the partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Index of the shard within the plan.
    pub index: usize,
    /// The gateway node the shard grew from (a global node id).
    pub gateway: NodeId,
    /// The shard's nodes (global ids, ascending).
    pub nodes: Vec<NodeId>,
    /// Spectrum color: shards with equal color share a channel block.
    pub color: usize,
    /// First global channel offset of the shard's block.
    pub offset_base: usize,
    /// Width of the shard's channel block.
    pub offsets: usize,
    /// Maximum communication-graph hop distance from a member to the
    /// shard's gateway (on the *whole-plant* comm graph). Any two members
    /// `a, b` satisfy `d_reuse(a, b) ≤ d_comm(a, gw) + d_comm(gw, b) ≤
    /// 2 · comm_radius` (every comm edge is a reuse edge), so a capped
    /// distance extraction with `cap = 2 · comm_radius + 1` is provably
    /// exact for every intra-shard pair (DESIGN.md §16).
    pub comm_radius: u32,
}

/// A partition of a plant into per-gateway shards with a conflict-free
/// spectrum coloring.
///
/// The plan also carries the whole-plant communication and reuse graphs
/// it was computed on, with the channel set and `prr_t` they were built
/// for: [`build_problem`] derives every shard's inputs from them, so each
/// graph is built once per sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    shards: Vec<Shard>,
    shard_of: Vec<u32>,
    /// Number of distinct spectrum colors used.
    pub color_count: usize,
    /// Total channels the coloring split.
    pub channels: usize,
    /// The reuse floor the conflict test used (`None` = NR).
    pub reuse_floor: Option<u32>,
    comm: CommGraph,
    reuse: ReuseGraph,
    channel_set: ChannelSet,
    prr_t: Prr,
}

// `Prr` is never NaN, so the derived `PartialEq` is an equivalence.
impl Eq for ShardPlan {}

impl ShardPlan {
    /// The shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Shard index of `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
    }

    /// Number of nodes across all shards.
    pub fn node_count(&self) -> usize {
        self.shard_of.len()
    }
}

/// Splitmix64-style mixer deriving independent sub-seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Partitions `plant` into `cfg.shards` per-gateway shards and colors the
/// shard conflict graph into channel-offset blocks.
///
/// The per-gateway Voronoi sweeps fan out over up to `jobs` workers
/// (`0` = all cores); the plan is byte-identical for any `jobs`.
///
/// # Errors
///
/// [`ShardError::Config`] for degenerate configurations and
/// [`ShardError::Channels`] when conflicting shards need more blocks than
/// `channels` provides.
pub fn plan(
    plant: &Plant,
    channels: &ChannelSet,
    cfg: &ShardConfig,
    jobs: usize,
) -> Result<ShardPlan, ShardError> {
    let n = plant.node_count();
    if cfg.shards == 0 {
        return Err(ShardError::Config { reason: "at least one shard is required".to_string() });
    }
    if cfg.shards > n {
        return Err(ShardError::Config {
            reason: format!("{} shards but only {n} nodes", cfg.shards),
        });
    }
    let comm = plant.comm_graph(channels, cfg.prr_t);
    if !comm.is_connected() {
        return Err(ShardError::Config {
            reason: "communication graph over the selected channels is disconnected".to_string(),
        });
    }

    // Seeded farthest-point gateway selection on the communication graph.
    // The comm graph is connected, so a cap of n never truncates a wave.
    let mut gateways = vec![NodeId::new((mix(cfg.seed, 0x67617465) % n as u64) as usize)];
    while gateways.len() < cfg.shards {
        let dist = comm.multi_bfs_capped(&gateways, n as u32);
        let far = (0..n).max_by_key(|&i| (dist[i], std::cmp::Reverse(i))).expect("plant has nodes");
        gateways.push(NodeId::new(far));
    }

    // Graph-Voronoi assignment: nearest gateway by hops, ties toward the
    // lower gateway index. Regions grown this way are connected. The
    // per-gateway sweeps are independent, so they fan out over the pool;
    // assignment consumes the rows in gateway order either way.
    let per_gateway: Vec<Vec<u32>> =
        parallel_map_with(gateways.len(), jobs, |s| comm.bfs_from(gateways[s]));
    let mut shard_of = vec![0u32; n];
    let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.shards];
    let mut comm_radius = vec![0u32; cfg.shards];
    for v in 0..n {
        let best =
            (0..cfg.shards).min_by_key(|&s| (per_gateway[s][v], s)).expect("at least one shard");
        shard_of[v] = best as u32;
        nodes[best].push(NodeId::new(v));
        comm_radius[best] = comm_radius[best].max(per_gateway[best][v]);
    }

    // Shard conflict graph: shards whose node sets come closer than the
    // reuse floor on the whole-plant reuse graph can interfere (§V-A
    // quantified over every possible cross-shard transmission pair). The
    // plan keeps the graph for every shard's distance extraction.
    let reuse = plant.reuse_graph(channels);
    let mut conflicts = vec![vec![false; cfg.shards]; cfg.shards];
    match cfg.reuse_floor {
        None => {
            for (s, row) in conflicts.iter_mut().enumerate() {
                for (t, cell) in row.iter_mut().enumerate() {
                    *cell = s != t;
                }
            }
        }
        Some(rho) if rho > 0 => {
            // The test only asks `dist < rho`, so the wave is truncated at
            // depth rho — it never visits nodes beyond the shard's
            // rho-neighborhood (distances ≥ rho read back as rho).
            for s in 0..cfg.shards {
                let dist = reuse.multi_bfs_capped(&nodes[s], rho);
                for v in 0..n {
                    let t = shard_of[v] as usize;
                    if t != s && dist[v] < rho {
                        conflicts[s][t] = true;
                        conflicts[t][s] = true;
                    }
                }
            }
        }
        Some(_) => {}
    }

    // Greedy coloring in shard-index order.
    let mut colors = vec![usize::MAX; cfg.shards];
    let mut color_count = 0usize;
    for s in 0..cfg.shards {
        let mut used = vec![false; color_count + 1];
        for t in 0..s {
            if conflicts[s][t] && colors[t] < used.len() {
                used[colors[t]] = true;
            }
        }
        let c = (0..=color_count).find(|&c| !used[c]).expect("one color is always free");
        colors[s] = c;
        color_count = color_count.max(c + 1);
    }

    let m = channels.len();
    let width = m / color_count;
    if width == 0 {
        return Err(ShardError::Channels { colors: color_count, channels: m });
    }

    let shards = nodes
        .into_iter()
        .enumerate()
        .map(|(index, nodes)| Shard {
            index,
            gateway: gateways[index],
            nodes,
            color: colors[index],
            offset_base: colors[index] * width,
            offsets: width,
            comm_radius: comm_radius[index],
        })
        .collect();
    Ok(ShardPlan {
        shards,
        shard_of,
        color_count,
        channels: m,
        reuse_floor: cfg.reuse_floor,
        comm,
        reuse,
        channel_set: channels.clone(),
        prr_t: cfg.prr_t,
    })
}

/// One shard's self-contained scheduling problem.
#[derive(Debug)]
pub struct ShardProblem {
    /// Index of the shard within its plan.
    pub shard: usize,
    /// The shard's generated flow set (local node ids).
    pub flows: FlowSet,
    /// Scheduler inputs: whole-plant reuse distances restricted to the
    /// shard, and the shard's channel-block width.
    pub model: NetworkModel,
    /// Local dense node id → global plant node id.
    pub local_to_global: Vec<NodeId>,
    /// First global channel offset of the shard's block.
    pub offset_base: usize,
}

/// Builds shard `index`'s scheduling problem: local communication graph,
/// globally-derived hop distances, and a seeded flow set.
///
/// Both graphs come from `plan`, which carries the whole-plant graphs it
/// was computed on; nothing is rebuilt from `plant`, which must be the
/// plant the plan partitions.
///
/// Deterministic in `(plant, plan, cfg, index)` — safe to run on any
/// worker of a parallel pool. `jobs` bounds the workers of the internal
/// distance extraction (`0` = all cores) and never changes the result.
///
/// # Errors
///
/// [`ShardError::Config`] when `plant`, `channels` or `cfg.prr_t` differ
/// from what `plan` was built for (its graphs would not describe this
/// problem), and [`ShardError::Flows`] when flow generation fails (e.g. a
/// shard too small to host `cfg.flows_per_shard` routable flows).
pub fn build_problem(
    plant: &Plant,
    channels: &ChannelSet,
    plan: &ShardPlan,
    cfg: &ShardConfig,
    index: usize,
    jobs: usize,
) -> Result<ShardProblem, ShardError> {
    let mismatch = if plant.node_count() != plan.node_count() {
        Some("plant")
    } else if *channels != plan.channel_set {
        Some("channel set")
    } else if cfg.prr_t != plan.prr_t {
        Some("prr_t")
    } else {
        None
    };
    if let Some(what) = mismatch {
        return Err(ShardError::Config {
            reason: format!("the {what} differs from the one the plan was built for"),
        });
    }
    let shard = &plan.shards[index];
    let locals = &shard.nodes;
    let n_local = locals.len();

    // Local communication graph: the plant comm edges with both endpoints
    // inside the shard.
    let comm = plan.comm.induced(locals);

    // Hop distances: *global* reuse distances restricted to the shard. An
    // induced-subgraph matrix would overstate distances (paths through
    // neighboring shards are invisible) and let RC/RA reuse
    // un-conservatively. The capped extraction with `cap = 2·comm_radius
    // + 1` is provably exact for every intra-shard pair (see
    // [`Shard::comm_radius`]), so the resulting schedule is byte-identical
    // to one built from unbounded whole-plant BFS — at a fraction of the
    // cost, since each wave stops at the shard's reuse neighborhood.
    let cap = shard.comm_radius.saturating_mul(2).saturating_add(1);
    let hops = plan.reuse.capped_hops_restricted(locals, cap, jobs);
    debug_assert!(
        hops.diameter() < cap,
        "intra-shard distance reached the cap, violating the radius bound"
    );
    let model = NetworkModel::from_capped(hops, n_local, shard.offsets);

    let mut generator = FlowSetGenerator::new(mix(cfg.seed, 0x666c_6f77 ^ index as u64));
    let flow_cfg = FlowSetConfig {
        flow_count: cfg.flows_per_shard,
        periods: cfg.periods,
        pattern: cfg.pattern,
        access_points: 2,
    };
    let flows = generator
        .generate(&comm, &flow_cfg)
        .map_err(|source| ShardError::Flows { shard: index, source })?;

    Ok(ShardProblem {
        shard: index,
        flows,
        model,
        local_to_global: locals.clone(),
        offset_base: shard.offset_base,
    })
}

/// Schedules one shard's problem with an unmodified [`Scheduler`].
///
/// # Errors
///
/// [`ShardError::Schedule`] when the shard is unschedulable.
pub fn schedule_shard(
    problem: &ShardProblem,
    scheduler: &dyn Scheduler,
    config: &SchedulerConfig,
) -> Result<Schedule, ShardError> {
    scheduler
        .schedule_with(&problem.flows, &problem.model, config)
        .map_err(|source| ShardError::Schedule { shard: problem.shard, source })
}

/// One shard's contribution to the stitched whole-network schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPart {
    /// Index of the shard within its plan.
    pub shard: usize,
    /// The shard-local schedule (local node ids, block-local offsets).
    pub schedule: Schedule,
    /// Local dense node id → global plant node id.
    pub local_to_global: Vec<NodeId>,
    /// First global channel offset of the shard's block.
    pub offset_base: usize,
    /// Number of flows the shard scheduled (for global flow re-tagging).
    pub flow_count: usize,
}

/// Stitches per-shard schedules into one whole-network [`Schedule`].
///
/// Every shard schedule is unrolled to the common hyperperiod (the lcm of
/// the shard horizons — with the paper's harmonic periods, simply the
/// largest), node ids and channel offsets are translated to global, and
/// flow ids are re-tagged with a per-shard base so they stay unique.
/// Iterating shards and entries in order makes the result independent of
/// how the per-shard schedules were computed (sequentially or on a pool).
///
/// # Errors
///
/// [`ShardError::Stitch`] on dimension mismatches or a hyperperiod blowup
/// (non-harmonic horizons).
pub fn stitch(
    node_count: usize,
    channels: usize,
    parts: &[ShardPart],
) -> Result<Schedule, ShardError> {
    if parts.is_empty() {
        return Err(ShardError::Stitch { reason: "no shard schedules".to_string() });
    }
    let mut horizon = 1u64;
    for part in parts {
        let h = u64::from(part.schedule.horizon());
        let g = gcd(horizon, h);
        horizon = horizon / g * h;
        if horizon > (1 << 20) {
            return Err(ShardError::Stitch {
                reason: format!("stitched hyperperiod {horizon} exceeds 2^20 slots"),
            });
        }
        if part.offset_base + part.schedule.channel_count() > channels {
            return Err(ShardError::Stitch {
                reason: format!(
                    "shard {} offsets {}..{} exceed the {channels}-channel band",
                    part.shard,
                    part.offset_base,
                    part.offset_base + part.schedule.channel_count()
                ),
            });
        }
    }
    let horizon = horizon as u32;
    let mut stitched = Schedule::new(horizon, channels, node_count);
    let mut flow_base = 0usize;
    for part in parts {
        let h = part.schedule.horizon();
        for entry in part.schedule.entries() {
            let link = wsan_net::DirectedLink::new(
                part.local_to_global[entry.tx.link.tx.index()],
                part.local_to_global[entry.tx.link.rx.index()],
            );
            let tx = ScheduledTx {
                flow: FlowId::new(flow_base + entry.tx.flow.index()),
                job_index: entry.tx.job_index,
                link,
                seq: entry.tx.seq,
                attempt: entry.tx.attempt,
            };
            let mut slot = entry.slot;
            while slot < horizon {
                stitched.place(slot, part.offset_base + entry.offset, tx);
                slot += h;
            }
        }
        flow_base += part.flow_count;
    }
    Ok(stitched)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// One whole-network interference violation found by the stitched
/// validator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StitchViolation {
    /// Two transmissions in the same slot share a node (TDMA conflict).
    NodeConflict {
        /// The slot.
        slot: u32,
    },
    /// A shared cell violates the §V-A hop-distance test (or exists at
    /// all under NR).
    ChannelConflict {
        /// The slot.
        slot: u32,
        /// The channel offset.
        offset: usize,
        /// The smallest cross-pair hop distance observed in the cell.
        observed: u32,
    },
}

/// Whole-network validator: proves a stitched schedule interference-free
/// against the plant itself, without trusting the partition, coloring, or
/// stitching that produced it.
///
/// Checks every slot for node-level TDMA conflicts and every shared
/// `(slot, offset)` cell against the §V-A conservative test on the
/// whole-plant reuse graph: all concurrent pairs `a, b` must satisfy
/// `min(hops(a.tx, b.rx), hops(b.tx, a.rx)) ≥ reuse_floor`. With
/// `reuse_floor = None` (NR) any shared cell is a violation.
///
/// # Errors
///
/// The list of violations, if any.
pub fn validate_stitched(
    plant: &Plant,
    channels: &ChannelSet,
    reuse_floor: Option<u32>,
    schedule: &Schedule,
) -> Result<(), Vec<StitchViolation>> {
    let mut violations = Vec::new();

    // TDMA: a node participates in at most one transmission per slot.
    let mut by_slot: std::collections::BTreeMap<u32, Vec<wsan_net::DirectedLink>> =
        std::collections::BTreeMap::new();
    for (slot, _, cell) in schedule.occupied_cells() {
        by_slot.entry(slot).or_default().extend(cell.iter().map(|tx| tx.link));
    }
    for (&slot, links) in &by_slot {
        'outer: for (i, a) in links.iter().enumerate() {
            for b in &links[i + 1..] {
                if a.conflicts_with(*b) {
                    violations.push(StitchViolation::NodeConflict { slot });
                    break 'outer;
                }
            }
        }
    }

    // §V-A: shared cells must keep every cross pair at or beyond the
    // reuse floor on the whole-plant reuse graph. Distances are computed
    // by BFS from each distinct transmitter that appears in a shared
    // cell, *truncated at the reuse floor* — the test only asks
    // `dist < rho`, and a rho-capped wave (distances ≥ rho saturate to
    // rho) answers it exactly while visiting only each transmitter's
    // rho-neighborhood. No quadratic whole-plant hop matrix is needed. The
    // graph is built from the plant here, never taken from the plan: the
    // validator trusts nothing the pipeline computed.
    let reuse = plant.reuse_graph(channels);
    let mut dist_from: std::collections::BTreeMap<NodeId, Vec<u32>> =
        std::collections::BTreeMap::new();
    for (slot, offset, cell) in schedule.occupied_cells() {
        if cell.len() < 2 {
            continue;
        }
        let Some(rho) = reuse_floor else {
            violations.push(StitchViolation::ChannelConflict { slot, offset, observed: 0 });
            continue;
        };
        let mut worst = UNREACHABLE;
        for (i, a) in cell.iter().enumerate() {
            for b in &cell[i + 1..] {
                for (src, dst) in [(a.link.tx, b.link.rx), (b.link.tx, a.link.rx)] {
                    let dist =
                        dist_from.entry(src).or_insert_with(|| reuse.multi_bfs_capped(&[src], rho));
                    worst = worst.min(dist[dst.index()]);
                }
            }
        }
        if worst < rho {
            violations.push(StitchViolation::ChannelConflict { slot, offset, observed: worst });
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReuseConservatively;
    use wsan_net::plants::{generate, PlantConfig};
    use wsan_net::propagation::PropagationModel;
    use wsan_net::ChannelId;

    fn test_plant() -> Plant {
        let cfg = PlantConfig {
            name: "shard-test".to_string(),
            buildings_x: 2,
            buildings_y: 2,
            floors: 2,
            nodes_per_floor: 10,
            building_width_m: 40.0,
            building_depth_m: 20.0,
            street_gap_m: 12.0,
            model: PropagationModel::default(),
            channel_offset_sigma_db: 1.5,
        };
        generate(&cfg, 1)
    }

    fn schedule_all(
        plant: &Plant,
        channels: &ChannelSet,
        cfg: &ShardConfig,
    ) -> (ShardPlan, Schedule) {
        let plan = plan(plant, channels, cfg, 1).unwrap();
        let scheduler = ReuseConservatively::new(cfg.reuse_floor.unwrap_or(2));
        let sched_cfg = SchedulerConfig::default();
        let parts: Vec<ShardPart> = (0..cfg.shards)
            .map(|i| {
                let problem = build_problem(plant, channels, &plan, cfg, i, 1).unwrap();
                let schedule = schedule_shard(&problem, &scheduler, &sched_cfg).unwrap();
                ShardPart {
                    shard: i,
                    flow_count: problem.flows.len(),
                    local_to_global: problem.local_to_global.clone(),
                    offset_base: problem.offset_base,
                    schedule,
                }
            })
            .collect();
        let stitched = stitch(plant.node_count(), channels.len(), &parts).unwrap();
        (plan, stitched)
    }

    #[test]
    fn partition_covers_every_node_exactly_once() {
        let plant = test_plant();
        let channels = ChannelId::all();
        let cfg = ShardConfig::new(4, 7, 4);
        let plan = plan(&plant, &channels, &cfg, 1).unwrap();
        let mut seen = vec![0usize; plant.node_count()];
        for shard in plan.shards() {
            assert!(!shard.nodes.is_empty(), "shard {} is empty", shard.index);
            for &node in &shard.nodes {
                seen[node.index()] += 1;
                assert_eq!(plan.shard_of(node), shard.index);
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "partition must be exact");
    }

    #[test]
    fn conflicting_shards_get_disjoint_offset_blocks() {
        let plant = test_plant();
        let channels = ChannelId::all();
        let cfg = ShardConfig::new(4, 3, 4);
        let plan = plan(&plant, &channels, &cfg, 1).unwrap();
        for a in plan.shards() {
            for b in plan.shards() {
                if a.index != b.index && a.color != b.color {
                    let a_range = a.offset_base..a.offset_base + a.offsets;
                    assert!(
                        !a_range.contains(&b.offset_base),
                        "blocks of different colors overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn nr_splits_the_spectrum_k_ways() {
        let plant = test_plant();
        let channels = ChannelId::all();
        let mut cfg = ShardConfig::new(4, 3, 4);
        cfg.reuse_floor = None;
        let plan = plan(&plant, &channels, &cfg, 1).unwrap();
        assert_eq!(plan.color_count, 4);
        assert!(plan.shards().iter().all(|s| s.offsets == 4));
    }

    #[test]
    fn stitched_schedule_validates_whole_network() {
        let plant = test_plant();
        let channels = ChannelId::all();
        let cfg = ShardConfig::new(3, 5, 4);
        let (plan, stitched) = schedule_all(&plant, &channels, &cfg);
        assert!(plan.color_count >= 1);
        validate_stitched(&plant, &channels, cfg.reuse_floor, &stitched)
            .expect("stitched schedule must be interference-free");
        assert!(stitched.entry_count() > 0);
    }

    #[test]
    fn validator_rejects_a_forged_close_reuse() {
        let plant = test_plant();
        let channels = ChannelId::all();
        // forge a schedule sharing one cell between two transmissions whose
        // endpoints are all direct reuse neighbors — §V-A distance 1 < ρ_t = 2
        let reuse = plant.reuse_graph(&channels);
        let hub = (0..plant.node_count())
            .map(NodeId::new)
            .find(|&v| reuse.degree(v) >= 3)
            .expect("a plant hub with three reuse neighbors exists");
        let near = reuse.neighbors(hub);
        let a = wsan_net::DirectedLink::new(hub, near[0]);
        let b = wsan_net::DirectedLink::new(near[1], near[2]);
        let mut forged = Schedule::new(4, channels.len(), plant.node_count());
        for (flow, link) in [(0, a), (1, b)] {
            forged.place(
                0,
                0,
                ScheduledTx { flow: FlowId::new(flow), job_index: 0, link, seq: 0, attempt: 0 },
            );
        }
        let violations = validate_stitched(&plant, &channels, Some(2), &forged).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, StitchViolation::ChannelConflict { observed: 1, .. })));
    }

    #[test]
    fn too_many_conflicting_shards_is_a_channels_error() {
        let plant = test_plant();
        // 2 channels but NR over 3 shards needs 3 disjoint blocks
        let channels = ChannelId::range(11, 12).unwrap();
        let mut cfg = ShardConfig::new(3, 1, 2);
        cfg.reuse_floor = None;
        match plan(&plant, &channels, &cfg, 1) {
            Err(ShardError::Channels { colors, channels }) => {
                assert_eq!(colors, 3);
                assert_eq!(channels, 2);
            }
            other => panic!("expected Channels error, got {other:?}"),
        }
    }

    #[test]
    fn building_against_another_channel_set_or_threshold_is_a_config_error() {
        let plant = test_plant();
        let channels = ChannelId::range(11, 26).unwrap();
        let cfg = ShardConfig::new(2, 3, 2);
        let plan = plan(&plant, &channels, &cfg, 1).unwrap();
        let narrow = ChannelId::range(11, 14).unwrap();
        assert!(matches!(
            build_problem(&plant, &narrow, &plan, &cfg, 0, 1),
            Err(ShardError::Config { .. })
        ));
        let looser = ShardConfig { prr_t: Prr::new(0.8).unwrap(), ..cfg.clone() };
        assert!(matches!(
            build_problem(&plant, &channels, &plan, &looser, 0, 1),
            Err(ShardError::Config { .. })
        ));
        assert!(build_problem(&plant, &channels, &plan, &cfg, 0, 1).is_ok());
    }

    #[test]
    fn planning_is_deterministic() {
        let plant = test_plant();
        let channels = ChannelId::all();
        let cfg = ShardConfig::new(4, 9, 4);
        assert_eq!(
            plan(&plant, &channels, &cfg, 1).unwrap(),
            plan(&plant, &channels, &cfg, 4).unwrap()
        );
    }
}
