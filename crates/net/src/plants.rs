//! Seeded parametric generator of city-scale plants.
//!
//! The paper's evaluation tops out at two ~80-node testbeds. This module
//! generates *plants* — campuses of multi-floor buildings with 1k–10k
//! nodes — whose per-link, per-channel PRR comes from the same indoor
//! [`propagation`](crate::propagation) model the testbeds use. Where a
//! [`Topology`](crate::Topology) stores a dense `n² × 16` PRR table
//! (~19 TB at 10k nodes), a [`Plant`] stores links *sparsely*: the
//! propagation model's hard PRR floor zeroes every link beyond a radio
//! cutoff of a few tens of meters, so only geometric neighbors are kept.
//!
//! Determinism: every draw affecting a pair `{a, b}` comes from an RNG
//! seeded by `(seed, a, b)`, so the generated plant is independent of link
//! enumeration order and identical across runs and worker counts.

use crate::channel::BAND_SIZE;
use crate::fnv::splitmix64;
use crate::parallel::parallel_for_each_ordered;
use crate::propagation::PropagationModel;
use crate::{ChannelSet, CommGraph, NetError, NodeId, Position, Prr, ReuseGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, PoisonError};

/// Layout and scale of a generated plant: a grid of identical multi-floor
/// buildings separated by streets.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantConfig {
    /// Name recorded on the generated [`Plant`].
    pub name: String,
    /// Buildings east-west.
    pub buildings_x: usize,
    /// Buildings north-south.
    pub buildings_y: usize,
    /// Floors per building.
    pub floors: usize,
    /// Nodes placed on each floor of each building.
    pub nodes_per_floor: usize,
    /// Building extent east-west, in meters.
    pub building_width_m: f64,
    /// Building extent north-south, in meters.
    pub building_depth_m: f64,
    /// Street gap between adjacent buildings, in meters. Must stay well
    /// inside radio range or the plant cannot be connected.
    pub street_gap_m: f64,
    /// Radio and environment model (also drives the link cutoff).
    pub model: PropagationModel,
    /// Standard deviation of the campus-wide per-channel quality offset
    /// (dB), modelling channels that are systematically better or worse.
    pub channel_offset_sigma_db: f64,
}

impl PlantConfig {
    /// A campus sized to roughly `target_nodes` nodes: 4-floor buildings
    /// of 25 nodes per floor on a near-square street grid.
    ///
    /// The actual node count is `buildings × floors × nodes_per_floor`,
    /// the smallest such multiple that is ≥ `target_nodes`.
    pub fn city(name: impl Into<String>, target_nodes: usize) -> Self {
        let floors = 4;
        let nodes_per_floor = 25;
        let per_building = floors * nodes_per_floor;
        let buildings = target_nodes.div_ceil(per_building).max(1);
        // the most square grid whose cell count overshoots the least; a
        // campus past the node id space is refused by `try_generate` on
        // any grid, so it keeps one row instead of a search that is linear
        // in its building count
        let (mut bx, mut by) = (buildings, 1);
        let fits = buildings.saturating_mul(per_building) <= NODE_ID_SPACE;
        let searched = if fits { buildings } else { 0 };
        for cand_x in 1..=searched {
            let cand_y = buildings.div_ceil(cand_x);
            let better_fit = cand_x * cand_y < bx * by;
            let as_good = cand_x * cand_y == bx * by;
            let squarer = cand_x.abs_diff(cand_y) < bx.abs_diff(by);
            if better_fit || (as_good && squarer) {
                (bx, by) = (cand_x, cand_y);
            }
        }
        PlantConfig {
            name: name.into(),
            buildings_x: bx,
            buildings_y: by,
            floors,
            nodes_per_floor,
            building_width_m: 40.0,
            building_depth_m: 20.0,
            street_gap_m: 12.0,
            model: PropagationModel::default(),
            channel_offset_sigma_db: 1.5,
        }
    }

    /// Total node count of the configured plant.
    pub fn node_count(&self) -> usize {
        self.buildings_x * self.buildings_y * self.floors * self.nodes_per_floor
    }
}

/// One measured radio link of a plant: an unordered node pair (`a < b`)
/// with directed per-channel PRR in both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantLink {
    /// Lower endpoint.
    pub a: NodeId,
    /// Upper endpoint.
    pub b: NodeId,
    /// PRR of `a → b` per channel (band indices 0..16).
    pub prr_ab: [f32; BAND_SIZE],
    /// PRR of `b → a` per channel.
    pub prr_ba: [f32; BAND_SIZE],
}

/// A generated city-scale plant: node placement plus a sparse per-channel
/// PRR map over the pairs within radio range.
///
/// Pairs without a stored link have PRR 0 on every channel by
/// construction — they are beyond the propagation model's sensitivity
/// cutoff (see [`link_cutoff_m`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Plant {
    name: String,
    positions: Vec<Position>,
    /// Building index of each node (row-major over the street grid).
    building_of: Vec<u32>,
    /// Links sorted by `(a, b)`.
    links: Vec<PlantLink>,
    /// Per-node neighbor list: `(other endpoint, index into links)`.
    adjacency: Vec<Vec<(NodeId, u32)>>,
    cutoff_m: f64,
    graphs: GraphMemo,
}

/// The last whole-plant graph of each kind that [`Plant::shared_comm_graph`]
/// and [`Plant::shared_reuse_graph`] built, keyed by the exact inputs it was
/// built for (DESIGN.md §15).
///
/// Transparent, as the graphs' cached diameter is: equal plants compare
/// equal whatever their memos hold, `Debug` prints no graph, and a clone
/// starts cold. Sound because a plant never changes after generation.
#[derive(Default)]
struct GraphMemo {
    comm: MemoSlot<(ChannelSet, Prr), CommGraph>,
    reuse: MemoSlot<ChannelSet, ReuseGraph>,
}

impl PartialEq for GraphMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Clone for GraphMemo {
    fn clone(&self) -> Self {
        GraphMemo::default()
    }
}

impl std::fmt::Debug for GraphMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphMemo").finish_non_exhaustive()
    }
}

/// One memo slot: the last value built, with the key it was built for.
struct MemoSlot<K, V>(Mutex<Option<(K, Arc<V>)>>);

impl<K, V> Default for MemoSlot<K, V> {
    fn default() -> Self {
        MemoSlot(Mutex::new(None))
    }
}

impl<K: PartialEq, V> MemoSlot<K, V> {
    /// The slot's value if its key equals `key`; otherwise `build()`, which
    /// then replaces the slot.
    ///
    /// The lock is not held while building, and the slot is written only
    /// with a finished `(key, value)` pair, so a lock poisoned by a panic
    /// elsewhere still guards a consistent slot and is used as is.
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let lock = || self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = lock().as_ref().filter(|(k, _)| *k == key).map(|(_, v)| Arc::clone(v));
        hit.unwrap_or_else(|| {
            let value = Arc::new(build());
            *lock() = Some((key, Arc::clone(&value)));
            value
        })
    }
}

impl Plant {
    /// Name of the plant.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Building index of `node` (row-major over the street grid).
    pub fn building(&self, node: NodeId) -> u32 {
        self.building_of[node.index()]
    }

    /// The measured links, sorted by `(a, b)`.
    pub fn links(&self) -> &[PlantLink] {
        &self.links
    }

    /// The geometric link cutoff (meters) used during generation: pairs
    /// farther apart carry no link.
    pub fn cutoff_m(&self) -> f64 {
        self.cutoff_m
    }

    /// PRR of the directed link `tx → rx` on `channel`; zero for pairs
    /// without a stored link (beyond the cutoff).
    pub fn prr(&self, tx: NodeId, rx: NodeId, channel: crate::ChannelId) -> Prr {
        if tx == rx {
            return Prr::ZERO;
        }
        let Some(&(_, idx)) = self.adjacency[tx.index()].iter().find(|(other, _)| *other == rx)
        else {
            return Prr::ZERO;
        };
        let link = &self.links[idx as usize];
        let ch = channel.band_index();
        let raw = if link.a == tx { link.prr_ab[ch] } else { link.prr_ba[ch] };
        Prr::saturating(f64::from(raw))
    }

    /// Builds the communication graph over `channels` with link-selection
    /// threshold `prr_t`: an edge `uv` exists iff `PRR ≥ prr_t` in **both**
    /// directions on **every** channel (the [`Topology::comm_graph`]
    /// rule, evaluated over the sparse link set). Every call scans every
    /// link; [`Plant::shared_comm_graph`] keeps the last build.
    ///
    /// [`Topology::comm_graph`]: crate::Topology::comm_graph
    pub fn comm_graph(&self, channels: &ChannelSet, prr_t: Prr) -> CommGraph {
        let t = prr_t.value() as f32;
        let edges: Vec<(NodeId, NodeId)> = self
            .links
            .iter()
            .filter(|l| {
                channels
                    .iter()
                    .all(|ch| l.prr_ab[ch.band_index()] >= t && l.prr_ba[ch.band_index()] >= t)
            })
            .map(|l| (l.a, l.b))
            .collect();
        CommGraph::from_edges(self.node_count(), &edges)
    }

    /// Builds the channel reuse graph over `channels`: an edge `uv` exists
    /// iff **any** channel has `PRR > 0` in **either** direction (the
    /// [`Topology::reuse_graph`] rule over the sparse link set). Every call
    /// scans every link; [`Plant::shared_reuse_graph`] keeps the last
    /// build.
    ///
    /// [`Topology::reuse_graph`]: crate::Topology::reuse_graph
    pub fn reuse_graph(&self, channels: &ChannelSet) -> ReuseGraph {
        let edges: Vec<(NodeId, NodeId)> = self
            .links
            .iter()
            .filter(|l| {
                channels
                    .iter()
                    .any(|ch| l.prr_ab[ch.band_index()] > 0.0 || l.prr_ba[ch.band_index()] > 0.0)
            })
            .map(|l| (l.a, l.b))
            .collect();
        ReuseGraph::from_edges(self.node_count(), &edges)
    }

    /// [`Plant::comm_graph`], built once per key: a call with the channel
    /// set (in the same order) and `prr_t` of the last build returns that
    /// build's `Arc`; any other call builds the graph afresh and keeps it
    /// in place of the last one.
    pub fn shared_comm_graph(&self, channels: &ChannelSet, prr_t: Prr) -> Arc<CommGraph> {
        self.graphs
            .comm
            .get_or_build((channels.clone(), prr_t), || self.comm_graph(channels, prr_t))
    }

    /// [`Plant::reuse_graph`], built once per channel set (in the same
    /// order), as [`Plant::shared_comm_graph`] is.
    pub fn shared_reuse_graph(&self, channels: &ChannelSet) -> Arc<ReuseGraph> {
        self.graphs.reuse.get_or_build(channels.clone(), || self.reuse_graph(channels))
    }
}

/// The distance beyond which the propagation model cannot yield a nonzero
/// PRR even under a `+margin_db` shadowing draw: the smallest `d` where
/// `prr_from_rssi(mean_rssi(d, 0) + margin_db)` hits the hard floor.
///
/// Link generation only evaluates pairs within this cutoff; everything
/// farther is PRR 0 *by definition of the plant model*. The margin is
/// sized at 4σ of the combined shadowing terms, so the truncation lives
/// far out in the shadowing tail.
pub fn link_cutoff_m(model: &PropagationModel, margin_db: f64) -> f64 {
    let dead = |d: f64| model.prr_from_rssi(model.mean_rssi_dbm(d, 0) + margin_db).value() <= 0.0;
    let mut lo = 0.5;
    let mut hi = 1.0;
    while !dead(hi) {
        hi *= 2.0;
        if hi > 1e6 {
            return hi; // pathological model without a sensitivity floor
        }
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if dead(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Combined 4σ shadowing margin of a configuration, used to size the link
/// cutoff conservatively.
fn shadow_margin_db(config: &PlantConfig) -> f64 {
    let m = &config.model;
    let var = m.pair_shadowing_sigma_db.powi(2)
        + m.channel_shadowing_sigma_db.powi(2)
        + m.asymmetry_sigma_db.powi(2)
        + config.channel_offset_sigma_db.powi(2);
    4.0 * var.sqrt()
}

/// Candidate plants [`try_generate`] draws before it gives up on a
/// connected one.
const ATTEMPTS: u32 = 64;

/// Nodes a plant can hold: one per [`NodeId`].
const NODE_ID_SPACE: usize = u16::MAX as usize + 1;

/// Generates a validated plant from a configuration and seed, evaluating
/// node pairs on `jobs` workers (`0` selects every core, as
/// [`worker_count`](crate::parallel::worker_count) resolves it).
///
/// Determinism: the same `(config, seed)` always yields the same plant,
/// whatever `jobs` is. If a candidate's communication graph (all 16
/// channels, `PRR_t = 0.9`) is disconnected, deterministic retry seeds are
/// derived from `seed` until one passes — the same convention as
/// [`testbeds::generate`](crate::testbeds::generate).
///
/// # Errors
///
/// - [`NetError::DegeneratePlant`] for zero buildings, floors, or nodes
///   per floor;
/// - [`NetError::PlantTooLarge`] for more nodes than the 65 536-node id
///   space holds;
/// - [`NetError::DisconnectedPlant`] when no connected candidate is found
///   within 64 attempts (streets far wider than radio range).
pub fn try_generate(config: &PlantConfig, seed: u64, jobs: usize) -> Result<Plant, NetError> {
    check_config(config)?;
    let all = crate::ChannelId::all();
    let prr_t = Prr::new(0.9).expect("0.9 is a valid PRR");
    for attempt in 0..ATTEMPTS {
        let candidate_seed =
            seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let plant = candidate(config, candidate_seed, |pairs, positions, cutoff| {
            generate_links(pairs, positions, cutoff, jobs)
        });
        // through the memo, so that the accepted plant's first shard plan
        // reuses the graph
        if plant.shared_comm_graph(&all, prr_t).is_connected() {
            return Ok(plant);
        }
    }
    Err(NetError::DisconnectedPlant { name: config.name.clone(), attempts: ATTEMPTS })
}

/// [`try_generate`] on every core, panicking where it would return an
/// error.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero buildings, floors, or
/// nodes per floor; more than 65 536 nodes), or if no connected candidate
/// is found within 64 attempts (streets far wider than radio range).
pub fn generate(config: &PlantConfig, seed: u64) -> Plant {
    try_generate(config, seed, 0).unwrap_or_else(|e| panic!("{e}"))
}

/// The configuration checks of [`try_generate`].
fn check_config(config: &PlantConfig) -> Result<(), NetError> {
    let degenerate = |reason| Err(NetError::DegeneratePlant { reason });
    if config.buildings_x == 0 || config.buildings_y == 0 {
        return degenerate("plant needs at least one building");
    }
    if config.floors == 0 {
        return degenerate("buildings need at least one floor");
    }
    if config.nodes_per_floor == 0 {
        return degenerate("floors need at least one node");
    }
    let nodes = [config.buildings_y, config.floors, config.nodes_per_floor]
        .iter()
        .fold(config.buildings_x, |n, &k| n.saturating_mul(k));
    if nodes > NODE_ID_SPACE {
        return Err(NetError::PlantTooLarge { nodes, limit: NODE_ID_SPACE });
    }
    Ok(())
}

/// Generates a candidate plant without the connectivity check, with
/// `links` evaluating the node pairs of the placed nodes.
fn candidate(
    config: &PlantConfig,
    seed: u64,
    links: impl FnOnce(&PairModel, &[Position], f64) -> Vec<PlantLink>,
) -> Plant {
    let mut rng = StdRng::seed_from_u64(seed);
    // Campus-wide per-channel quality offsets (drawn before any pair state
    // so they do not depend on the layout).
    let channel_offsets: Vec<f64> =
        (0..BAND_SIZE).map(|_| gaussian(&mut rng) * config.channel_offset_sigma_db).collect();
    let (positions, building_of) = place_nodes(config, &mut rng);

    let cutoff = link_cutoff_m(&config.model, shadow_margin_db(config));
    let links = links(&PairModel::new(&config.model, seed, &channel_offsets), &positions, cutoff);

    let mut adjacency = vec![Vec::new(); positions.len()];
    for (i, link) in links.iter().enumerate() {
        adjacency[link.a.index()].push((link.b, i as u32));
        adjacency[link.b.index()].push((link.a, i as u32));
    }
    Plant {
        name: config.name.clone(),
        positions,
        building_of,
        links,
        adjacency,
        cutoff_m: cutoff,
        graphs: GraphMemo::default(),
    }
}

/// Places nodes on a jittered grid per floor per building (the
/// [`testbeds`](crate::testbeds) placement, tiled over the street grid).
fn place_nodes(config: &PlantConfig, rng: &mut StdRng) -> (Vec<Position>, Vec<u32>) {
    let mut positions = Vec::with_capacity(config.node_count());
    let mut building_of = Vec::with_capacity(config.node_count());
    let pitch_x = config.building_width_m + config.street_gap_m;
    let pitch_y = config.building_depth_m + config.street_gap_m;
    let count = config.nodes_per_floor;
    // grid dimensions closest to the floor aspect ratio
    let cols =
        ((count as f64 * config.building_width_m / config.building_depth_m).sqrt()).ceil() as usize;
    let cols = cols.max(1);
    let rows = count.div_ceil(cols);
    let dx = config.building_width_m / cols as f64;
    let dy = config.building_depth_m / rows as f64;
    for by in 0..config.buildings_y {
        for bx in 0..config.buildings_x {
            let building = (by * config.buildings_x + bx) as u32;
            let x0 = bx as f64 * pitch_x;
            let y0 = by as f64 * pitch_y;
            for floor in 0..config.floors {
                let z = floor as f64 * config.model.floor_height_m;
                let mut placed = 0;
                'grid: for r in 0..rows {
                    for c in 0..cols {
                        if placed == count {
                            break 'grid;
                        }
                        let jx = (rng.gen::<f64>() - 0.5) * dx * 0.6;
                        let jy = (rng.gen::<f64>() - 0.5) * dy * 0.6;
                        positions.push(Position::new(
                            x0 + (c as f64 + 0.5) * dx + jx,
                            y0 + (r as f64 + 0.5) * dy + jy,
                            z,
                        ));
                        building_of.push(building);
                        placed += 1;
                    }
                }
            }
        }
    }
    (positions, building_of)
}

/// Nodes per block of the pair loop's fan-out.
const BLOCK_NODES: usize = 16;
/// Blocks per worker in the pool's window. A finished block waits in
/// memory until every earlier block is appended, so the window stays small
/// next to the plant.
const BLOCKS_PER_WORKER: usize = 4;

/// Evaluates every pair within `cutoff` through the propagation model,
/// keeping the links with a nonzero PRR somewhere, in `(a, b)` order.
///
/// The lower endpoints are cut into blocks of [`BLOCK_NODES`] nodes that
/// fan out over `jobs` workers through a window of [`BLOCKS_PER_WORKER`]
/// blocks per worker; each block is appended as soon as every earlier one
/// is, and dropped. A block lists each node's links by ascending upper
/// endpoint, so the concatenation is already sorted.
fn generate_links(
    pairs: &PairModel,
    positions: &[Position],
    cutoff: f64,
    jobs: usize,
) -> Vec<PlantLink> {
    let grid = NeighborGrid::new(positions, cutoff);
    let blocks = positions.len().div_ceil(BLOCK_NODES);
    let window = crate::parallel::worker_count(jobs) * BLOCKS_PER_WORKER;
    let mut links = Vec::new();
    parallel_for_each_ordered(
        blocks,
        jobs,
        window,
        |k| {
            let start = k * BLOCK_NODES;
            let end = (start + BLOCK_NODES).min(positions.len());
            Ok(block_links(pairs, &grid, positions, cutoff, start..end))
        },
        |_, block| links.extend(block),
    )
    .unwrap_or_else(|(block, message)| panic!("plant block {block} panicked: {message}"));
    links
}

/// The links whose lower endpoint lies in `nodes`, by `(a, b)`.
fn block_links(
    pairs: &PairModel,
    grid: &NeighborGrid,
    positions: &[Position],
    cutoff: f64,
    nodes: std::ops::Range<usize>,
) -> Vec<PlantLink> {
    let mut links = Vec::new();
    let mut above = Vec::new();
    for a in nodes {
        let pa = &positions[a];
        above.clear();
        above.extend(grid.near(pa).filter(|&b| b > a));
        above.sort_unstable();
        for &b in &above {
            let pb = &positions[b];
            let d = pa.distance(pb);
            if d <= cutoff {
                links.extend(pairs.link(a, b, pa, pb, d));
            }
        }
    }
    links
}

/// A uniform `cutoff × cutoff` spatial grid over the node positions, so
/// neighbor candidates cost `O(neighborhood)` per node instead of `O(n)`.
struct NeighborGrid {
    cell: f64,
    buckets: std::collections::BTreeMap<(i64, i64), Vec<usize>>,
}

impl NeighborGrid {
    fn new(positions: &[Position], cutoff: f64) -> Self {
        let mut grid = NeighborGrid { cell: cutoff.max(1.0), buckets: Default::default() };
        for (i, p) in positions.iter().enumerate() {
            grid.buckets.entry(grid.key(p)).or_default().push(i);
        }
        grid
    }

    fn key(&self, p: &Position) -> (i64, i64) {
        ((p.x / self.cell).floor() as i64, (p.y / self.cell).floor() as i64)
    }

    /// Every node in the 3 × 3 cells around `p`, a superset of the nodes
    /// within `cell` of `p` in the plane.
    fn near(&self, p: &Position) -> impl Iterator<Item = usize> + '_ {
        let (kx, ky) = self.key(p);
        ((kx - 1)..=(kx + 1))
            .flat_map(move |nx| ((ky - 1)..=(ky + 1)).map(move |ny| (nx, ny)))
            .filter_map(|key| self.buckets.get(&key))
            .flatten()
            .copied()
    }
}

/// Margin, in dB, added to every bound of [`PairModel`] before it is
/// tested. The bounds are sums and products, which correct rounding keeps
/// monotone; `ln`, `cos` and `exp` are not proven exact to the last ulp,
/// and this margin exceeds their error on any dB quantity below ~10⁶ dB.
const SLACK_DB: f64 = 1e-6;

/// One candidate plant's per-pair PRR model: the propagation model, the
/// seed the pair RNGs are keyed on, the campus-wide channel offsets, and
/// the bound terms that let [`PairModel::link`] skip what cannot link
/// (DESIGN.md §15).
struct PairModel<'a> {
    model: &'a PropagationModel,
    seed: u64,
    channel_offsets: &'a [f64],
    /// `B·|σ_channel|`, the largest per-channel shadowing draw.
    channel_reach_db: f64,
    /// The largest campus-wide channel offset.
    offset_max_db: f64,
    /// `B·|σ_asymmetry|`, the largest per-direction asymmetry draw.
    asymmetry_reach_db: f64,
}

impl<'a> PairModel<'a> {
    fn new(model: &'a PropagationModel, seed: u64, channel_offsets: &'a [f64]) -> Self {
        let b = normal_bound();
        PairModel {
            model,
            seed,
            channel_offsets,
            channel_reach_db: b * model.channel_shadowing_sigma_db.abs(),
            offset_max_db: channel_offsets.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            asymmetry_reach_db: b * model.asymmetry_sigma_db.abs(),
        }
    }

    /// Draws one pair's per-channel PRR from an RNG keyed by `(seed, a, b)`;
    /// returns `None` when every direction of every channel lands on zero.
    ///
    /// Exactly the values of the full draw, which evaluates every normal:
    /// a pair whose best channel under the largest draws is below the PRR
    /// floor returns `None` right after its pair shadowing, and a channel
    /// that is below it in both directions under the largest asymmetry
    /// keeps PRR 0 and skips its two asymmetry normals, advancing the RNG
    /// past them.
    fn link(&self, a: usize, b: usize, pa: &Position, pb: &Position, d: f64) -> Option<PlantLink> {
        let model = self.model;
        let floors = pa.floors_between(pb, model.floor_height_m);
        let mean = model.mean_rssi_dbm(d, floors);
        let mut rng = StdRng::seed_from_u64(pair_seed(self.seed, a, b));
        // Pair-level shadowing: one draw for the whole band (the testbeds
        // draw order, replayed from the pair-keyed RNG).
        let pair_shadow = gaussian(&mut rng) * model.pair_shadowing_sigma_db;
        if self.dead(mean + (pair_shadow + self.channel_reach_db + self.offset_max_db)) {
            return None;
        }
        let mut prr_ab = [0.0f32; BAND_SIZE];
        let mut prr_ba = [0.0f32; BAND_SIZE];
        let mut any = false;
        for ch in 0..BAND_SIZE {
            let shadow = pair_shadow
                + gaussian(&mut rng) * model.channel_shadowing_sigma_db
                + self.channel_offsets[ch];
            if self.dead(mean + shadow) {
                skip_normals(&mut rng, 2);
                continue;
            }
            for dir in [&mut prr_ab, &mut prr_ba] {
                // ... plus a small per-direction asymmetry
                let asym = gaussian(&mut rng) * model.asymmetry_sigma_db;
                let prr = model.prr_from_rssi(mean + shadow + asym).value() as f32;
                dir[ch] = prr;
                any |= prr > 0.0;
            }
        }
        any.then(|| PlantLink { a: NodeId::new(a), b: NodeId::new(b), prr_ab, prr_ba })
    }

    /// Whether a direction whose RSSI before asymmetry is at most
    /// `rssi_dbm` has PRR 0 under any asymmetry draw.
    fn dead(&self, rssi_dbm: f64) -> bool {
        let top = rssi_dbm + self.asymmetry_reach_db + SLACK_DB;
        self.model.prr_from_rssi(top).value() <= 0.0
    }
}

/// Order-independent per-pair seed: the SplitMix64 finalizer over the
/// base seed and both endpoints.
fn pair_seed(seed: u64, a: usize, b: usize) -> u64 {
    splitmix64(
        seed ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

/// Standard normal draw via Box–Muller (mirrors `testbeds::gaussian`). It
/// takes two RNG words, one per uniform.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Advances `rng` past `count` [`gaussian`] draws without computing them.
fn skip_normals(rng: &mut StdRng, count: usize) {
    for _ in 0..2 * count {
        rng.next_u64();
    }
}

/// `B`, the largest magnitude [`gaussian`] returns: `u1 ≥ ε` and
/// `|cos| ≤ 1` give `|z| ≤ √(−2 ln ε)` ≈ 8.49.
fn normal_bound() -> f64 {
    (-2.0 * f64::EPSILON.ln()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChannelId;
    use proptest::prelude::*;

    fn small_config() -> PlantConfig {
        PlantConfig {
            name: "small".to_string(),
            buildings_x: 2,
            buildings_y: 1,
            floors: 3,
            nodes_per_floor: 10,
            building_width_m: 40.0,
            building_depth_m: 20.0,
            street_gap_m: 12.0,
            model: PropagationModel::default(),
            channel_offset_sigma_db: 1.5,
        }
    }

    #[test]
    fn small_plant_is_connected_and_sized() {
        let plant = generate(&small_config(), 1);
        assert_eq!(plant.node_count(), 60);
        let g = plant.comm_graph(&ChannelId::all(), Prr::new(0.9).unwrap());
        assert!(g.is_connected());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_config(), 7);
        let b = generate(&small_config(), 7);
        assert_eq!(a, b);
        let c = generate(&small_config(), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn links_are_sparse_and_within_cutoff() {
        let plant = generate(&small_config(), 3);
        let n = plant.node_count();
        assert!(plant.links().len() < n * (n - 1) / 2, "plant must not be a clique");
        for link in plant.links() {
            assert!(link.a < link.b);
            let d = plant.position(link.a).distance(&plant.position(link.b));
            assert!(d <= plant.cutoff_m(), "link of length {d} beyond cutoff");
        }
    }

    #[test]
    fn prr_lookup_matches_link_table_and_defaults_to_zero() {
        // a 3-building row is wider than the ~100 m link cutoff, so the
        // far corners are guaranteed to carry no link
        let mut cfg = small_config();
        cfg.buildings_x = 3;
        let plant = generate(&cfg, 5);
        let ch = ChannelId::new(13).unwrap();
        let link = &plant.links()[0];
        let expect = f64::from(link.prr_ab[ch.band_index()]);
        assert!((plant.prr(link.a, link.b, ch).value() - expect).abs() < 1e-9);
        // the farthest pair must be beyond the cutoff in a 2-building plant
        let (mut far_a, mut far_b, mut far_d) = (NodeId::new(0), NodeId::new(0), 0.0);
        for a in plant.nodes() {
            for b in plant.nodes() {
                let d = plant.position(a).distance(&plant.position(b));
                if d > far_d {
                    (far_a, far_b, far_d) = (a, b, d);
                }
            }
        }
        assert!(far_d > plant.cutoff_m());
        assert_eq!(plant.prr(far_a, far_b, ch), Prr::ZERO);
        assert_eq!(plant.prr(far_a, far_a, ch), Prr::ZERO);
    }

    #[test]
    fn city_config_reaches_the_target_scale() {
        let cfg = PlantConfig::city("kilo", 1000);
        assert!(cfg.node_count() >= 1000);
        assert!(cfg.node_count() <= 1100, "sizing overshoot: {}", cfg.node_count());
    }

    #[test]
    fn reuse_graph_is_denser_than_comm_graph() {
        let plant = generate(&small_config(), 11);
        let chans = ChannelId::range(11, 14).unwrap();
        let comm = plant.comm_graph(&chans, Prr::new(0.9).unwrap());
        let reuse = plant.reuse_graph(&chans);
        assert!(reuse.edge_count() > comm.edge_count());
    }

    /// The memo keys every test below asks with: all 16 channels and
    /// channels 11–14, at `prr_t` 0.9 and 0.8.
    fn memo_keys() -> [(ChannelSet, Prr); 4] {
        let (all, narrow) = (ChannelId::all(), ChannelId::range(11, 14).unwrap());
        let (strict, loose) = (Prr::new(0.9).unwrap(), Prr::new(0.8).unwrap());
        [(all.clone(), strict), (narrow.clone(), strict), (all, loose), (narrow, loose)]
    }

    #[test]
    fn graph_memo_answers_every_key_like_a_fresh_build() {
        let plant = generate(&PlantConfig::city("city-100", 100), 3);
        let keys = memo_keys();
        // the keys must tell the graphs apart, or a memo that ignores part
        // of its key would pass
        let comm: Vec<CommGraph> = keys.iter().map(|(ch, t)| plant.comm_graph(ch, *t)).collect();
        let reuse: Vec<ReuseGraph> = keys.iter().map(|(ch, _)| plant.reuse_graph(ch)).collect();
        assert!(comm[0] != comm[1] && comm[0] != comm[2] && comm[1] != comm[3]);
        assert_ne!(reuse[0], reuse[1]);
        // A, B, A, B, then C and D: every ask after the first changes the
        // key, by channel set, by threshold, or by both
        for k in [0, 1, 0, 1, 2, 0, 3, 1, 2, 3] {
            let (channels, prr_t) = &keys[k];
            assert_eq!(*plant.shared_comm_graph(channels, *prr_t), comm[k], "comm key {k}");
            assert_eq!(*plant.shared_reuse_graph(channels), reuse[k], "reuse key {k}");
        }
        // a reordered channel set is another key, never a hit
        let all = plant.shared_reuse_graph(&ChannelId::all());
        let mut order: Vec<ChannelId> = ChannelId::all().iter().collect();
        order.reverse();
        let reversed = plant.shared_reuse_graph(&ChannelSet::new(order));
        assert!(!Arc::ptr_eq(&all, &reversed));
        assert_eq!(*reversed, reuse[0]);
    }

    #[test]
    fn graph_memo_hit_is_the_same_arc() {
        let plant = generate(&small_config(), 3);
        let (channels, prr_t) = &memo_keys()[1];
        let comm = plant.shared_comm_graph(channels, *prr_t);
        assert!(Arc::ptr_eq(&comm, &plant.shared_comm_graph(channels, *prr_t)));
        let reuse = plant.shared_reuse_graph(channels);
        assert!(Arc::ptr_eq(&reuse, &plant.shared_reuse_graph(channels)));
        // each kind has its own slot: asking for one kind keeps the other
        let other = plant.shared_reuse_graph(&ChannelId::all());
        assert!(Arc::ptr_eq(&comm, &plant.shared_comm_graph(channels, *prr_t)));
        assert!(Arc::ptr_eq(&other, &plant.shared_reuse_graph(&ChannelId::all())));
    }

    #[test]
    fn plant_equality_ignores_the_graph_memo() {
        let plant = generate(&small_config(), 5);
        let cold = plant.clone();
        assert_eq!(plant, cold);
        for (channels, prr_t) in &memo_keys() {
            plant.shared_comm_graph(channels, *prr_t);
            plant.shared_reuse_graph(channels);
        }
        assert_eq!(plant, plant.clone());
        assert_eq!(plant, cold);
        assert!(!format!("{plant:?}").contains("CommGraph"), "Debug prints a memoized graph");
    }

    #[test]
    fn graph_memo_agrees_across_pool_workers() {
        let plant = generate(&small_config(), 7);
        let keys = memo_keys();
        // two workers ask alternately for keys 0 and 3, which differ in
        // both channel set and threshold, so the slots keep changing
        // hands; the barrier makes the workers ask two at a time
        let both = std::sync::Barrier::new(2);
        let answers = crate::parallel::parallel_map_with(32, 2, |i| {
            both.wait();
            let (channels, prr_t) = &keys[if i % 2 == 0 { 0 } else { 3 }];
            (plant.shared_comm_graph(channels, *prr_t), plant.shared_reuse_graph(channels))
        });
        for (i, (comm, reuse)) in answers.iter().enumerate() {
            let (channels, prr_t) = &keys[if i % 2 == 0 { 0 } else { 3 }];
            assert_eq!(**comm, plant.comm_graph(channels, *prr_t), "ask {i}");
            assert_eq!(**reuse, plant.reuse_graph(channels), "ask {i}");
        }
    }

    #[test]
    fn buildings_are_assigned_row_major() {
        let plant = generate(&small_config(), 13);
        assert_eq!(plant.building(NodeId::new(0)), 0);
        assert_eq!(plant.building(NodeId::new(59)), 1);
        // building 1 sits one street east of building 0
        let p0 = plant.position(NodeId::new(0));
        let p1 = plant.position(NodeId::new(30));
        assert!(p1.x > p0.x);
    }

    #[test]
    fn cutoff_is_finite_and_indoor_scale() {
        let cutoff = link_cutoff_m(&PropagationModel::default(), 20.0);
        assert!(cutoff > 10.0 && cutoff < 500.0, "cutoff {cutoff} out of range");
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        for cfg in [
            PlantConfig { buildings_y: 0, ..small_config() },
            PlantConfig { floors: 0, ..small_config() },
            PlantConfig { nodes_per_floor: 0, ..small_config() },
        ] {
            let err = try_generate(&cfg, 1, 1).unwrap_err();
            assert!(matches!(err, NetError::DegeneratePlant { .. }), "got {err:?}");
        }
    }

    #[test]
    fn more_nodes_than_ids_is_a_typed_error() {
        let err = try_generate(&PlantConfig::city("city-70000", 70_000), 1, 1).unwrap_err();
        assert_eq!(err, NetError::PlantTooLarge { nodes: 70_000, limit: 65_536 });
        // a product past usize::MAX saturates instead of wrapping to a
        // small, accepted count
        let huge = PlantConfig { buildings_x: usize::MAX, buildings_y: 2, ..small_config() };
        let err = try_generate(&huge, 1, 1).unwrap_err();
        assert_eq!(err, NetError::PlantTooLarge { nodes: usize::MAX, limit: 65_536 });
    }

    #[test]
    fn streets_beyond_radio_range_are_a_typed_error() {
        let cfg =
            PlantConfig { street_gap_m: 600.0, nodes_per_floor: 4, floors: 1, ..small_config() };
        let err = try_generate(&cfg, 1, 1).unwrap_err();
        assert_eq!(err, NetError::DisconnectedPlant { name: "small".to_string(), attempts: 64 });
    }

    #[test]
    fn a_city_past_the_id_space_is_sized_at_once_and_refused() {
        // a grid search over all 10¹³ building counts would not finish
        let cfg = PlantConfig::city("city-10^15", 1_000_000_000_000_000);
        assert_eq!((cfg.buildings_x, cfg.buildings_y), (10_000_000_000_000, 1));
        let err = try_generate(&cfg, 1, 1).unwrap_err();
        assert!(matches!(err, NetError::PlantTooLarge { .. }), "got {err:?}");
        // a campus that fits still gets the searched, squarer grid
        let fits = PlantConfig::city("city-65500", 65_500);
        assert!(fits.buildings_y > 1 && fits.node_count() <= 65_536, "{fits:?}");
    }

    #[test]
    #[should_panic(expected = "65536-node id space")]
    fn generate_keeps_its_panics() {
        let _ = generate(&PlantConfig::city("city-70000", 70_000), 1);
    }

    #[test]
    fn skipped_normals_leave_the_rng_where_drawn_ones_do() {
        let mut drawn = StdRng::seed_from_u64(pair_seed(9, 3, 4));
        let mut skipped = drawn.clone();
        gaussian(&mut drawn);
        gaussian(&mut drawn);
        skip_normals(&mut skipped, 2);
        assert_eq!(drawn, skipped);
    }

    #[test]
    fn normals_stay_within_the_bound() {
        let b = normal_bound();
        assert!((b - 8.49).abs() < 0.01, "bound {b}");
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..100_000).all(|_| gaussian(&mut rng).abs() <= b));
    }

    /// The pair draw without the dead-pair and dead-channel tests: every
    /// pair evaluates all 49 normals and 32 PRRs.
    #[allow(clippy::too_many_arguments)]
    fn link_between(
        model: &PropagationModel,
        seed: u64,
        a: usize,
        b: usize,
        pa: &Position,
        pb: &Position,
        d: f64,
        channel_offsets: &[f64],
    ) -> Option<PlantLink> {
        let floors = pa.floors_between(pb, model.floor_height_m);
        let mean = model.mean_rssi_dbm(d, floors);
        let mut rng = StdRng::seed_from_u64(pair_seed(seed, a, b));
        let pair_shadow = gaussian(&mut rng) * model.pair_shadowing_sigma_db;
        let mut prr_ab = [0.0f32; BAND_SIZE];
        let mut prr_ba = [0.0f32; BAND_SIZE];
        let mut any = false;
        for ch in 0..BAND_SIZE {
            let shadow = pair_shadow
                + gaussian(&mut rng) * model.channel_shadowing_sigma_db
                + channel_offsets[ch];
            for dir in [&mut prr_ab, &mut prr_ba] {
                let asym = gaussian(&mut rng) * model.asymmetry_sigma_db;
                let prr = model.prr_from_rssi(mean + shadow + asym).value() as f32;
                dir[ch] = prr;
                any |= prr > 0.0;
            }
        }
        any.then(|| PlantLink { a: NodeId::new(a), b: NodeId::new(b), prr_ab, prr_ba })
    }

    /// The oracle's pair loop: every pair within `cutoff`, by brute force
    /// in `(a, b)` order, through [`link_between`] on one thread.
    fn oracle_links(pairs: &PairModel, positions: &[Position], cutoff: f64) -> Vec<PlantLink> {
        let mut links = Vec::new();
        for (a, pa) in positions.iter().enumerate() {
            for (b, pb) in positions.iter().enumerate().skip(a + 1) {
                let d = pa.distance(pb);
                if d <= cutoff {
                    let (model, seed, offsets) = (pairs.model, pairs.seed, pairs.channel_offsets);
                    links.extend(link_between(model, seed, a, b, pa, pb, d, offsets));
                }
            }
        }
        links
    }

    /// Link by link, endpoints and PRR bits, then whole plants.
    fn assert_same_plant(left: &Plant, right: &Plant, what: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(left.links().len(), right.links().len(), "{}: link count", what);
        let bits = |l: &PlantLink| -> Vec<u32> {
            l.prr_ab.iter().chain(&l.prr_ba).map(|p| p.to_bits()).collect()
        };
        for (l, r) in left.links().iter().zip(right.links()) {
            prop_assert_eq!((l.a, l.b), (r.a, r.b), "{}: endpoints", what);
            prop_assert_eq!(bits(l), bits(r), "{}: PRR bits of {}-{}", what, l.a, l.b);
        }
        prop_assert_eq!(left, right, "{}: plant", what);
        Ok(())
    }

    /// A zero, tiny, ordinary or large standard deviation (dB).
    fn random_sigma(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => rng.gen_range(1e-9..1e-3),
            2 => rng.gen_range(0.5..4.0),
            _ => rng.gen_range(10.0..40.0),
        }
    }

    /// A campus of up to 360 nodes: 1–3 × 1–3 buildings of 1–5 floors,
    /// with each shadowing, asymmetry and channel-offset σ drawn by
    /// [`random_sigma`].
    fn random_config(rng: &mut StdRng) -> PlantConfig {
        PlantConfig {
            name: "equivalence".to_string(),
            buildings_x: rng.gen_range(1..=3),
            buildings_y: rng.gen_range(1..=3),
            floors: rng.gen_range(1..=5),
            nodes_per_floor: rng.gen_range(1..=8),
            building_width_m: 40.0,
            building_depth_m: 20.0,
            street_gap_m: rng.gen_range(0.0..30.0),
            model: PropagationModel {
                pair_shadowing_sigma_db: random_sigma(rng),
                channel_shadowing_sigma_db: random_sigma(rng),
                asymmetry_sigma_db: random_sigma(rng),
                ..PropagationModel::default()
            },
            channel_offset_sigma_db: random_sigma(rng),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pruned plants are the oracle's plants, bit for bit: candidates
        /// built at one worker against the unpruned brute-force oracle, and
        /// at two and three workers against one.
        #[test]
        fn pruned_plants_match_the_unpruned_oracle(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = random_config(&mut rng);
            let seed = rng.gen();
            let oracle = candidate(&config, seed, oracle_links);
            let at = |jobs| candidate(&config, seed, |p, pos, c| generate_links(p, pos, c, jobs));
            let sequential = at(1);
            assert_same_plant(&oracle, &sequential, "jobs 1 vs oracle")?;
            for jobs in [2, 3] {
                assert_same_plant(&sequential, &at(jobs), &format!("jobs {jobs} vs jobs 1"))?;
            }
        }
    }
}
