//! The two graphs the network manager derives from PRR measurements:
//! the *communication graph* (for routing) and the *channel reuse graph*
//! (for interference estimation), plus all-pairs hop distances.
//!
//! # Scale notes (DESIGN.md §16)
//!
//! Adjacency is stored in CSR form (flat `offsets` + `targets`), built once
//! by counting sort with a per-row dedup — no per-insert duplicate scans.
//! Hop distances come in two flavors: the dense [`HopMatrix`] (`u32` per
//! cell, kept as the small-graph oracle) and [`CappedHops`], which stores
//! distances *saturated at a cap* in one or two bytes per cell. §V-A only
//! ever asks `hops(a,b) ≥ ρ`, so a saturated distance is exact below the
//! cap and conservative (reuse denied) at or above it. The capped tables
//! are filled by a bit-parallel multi-source BFS that advances 64 sources
//! per sweep, picks push or pull per level, and stops once every wanted
//! cell is filled; blocks fan out over a worker pool and are concatenated
//! in index order, so the output is byte-identical for any worker count.

use crate::parallel::parallel_map_with;
use crate::{ChannelSet, DirectedLink, NodeId, Prr, Topology};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Hop distance that stands for "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// Undirected adjacency shared by both graph flavors, in CSR form:
/// the neighbors of node `v` are `targets[offsets[v]..offsets[v + 1]]`,
/// sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Adjacency {
    n: usize,
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Adjacency {
    /// Builds the CSR layout from undirected edges by counting sort:
    /// degree counts, prefix sums, a scatter of both directions, then each
    /// row sorted and deduplicated in place. Duplicates (including
    /// reversed duplicates) collapse in the dedup. Edge lists in `(a, b)`
    /// order — what `Plant` and `Topology` produce — scatter every row
    /// already sorted.
    fn from_pairs(n: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in pairs {
            debug_assert!(a != b, "self loops are not meaningful");
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![NodeId::new(0); offsets[n] as usize];
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        for &(a, b) in pairs {
            for (row, target) in [(a, b), (b, a)] {
                let slot = &mut fill[row.index()];
                targets[*slot as usize] = target;
                *slot += 1;
            }
        }
        // Compact the deduplicated rows towards the front; the write cursor
        // never passes the read cursor, so no unread target is overwritten.
        let mut write = 0usize;
        let mut start = 0usize;
        for v in 0..n {
            let end = offsets[v + 1] as usize;
            targets[start..end].sort_unstable();
            let row_start = write;
            for i in start..end {
                let t = targets[i];
                if write == row_start || targets[write - 1] != t {
                    targets[write] = t;
                    write += 1;
                }
            }
            offsets[v + 1] = write as u32;
            start = end;
        }
        targets.truncate(write);
        Adjacency { n, offsets, targets }
    }

    /// The subgraph induced by `nodes`, with local id `i` standing for
    /// `nodes[i]`: local `i, j` are adjacent iff `nodes[i], nodes[j]` are.
    /// One pass over the members' rows; rows come out sorted (already so
    /// when `nodes` is ascending), i.e. the canonical CSR of that edge set.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` repeats a node.
    fn induced(&self, nodes: &[NodeId]) -> Self {
        let mut local = vec![u32::MAX; self.n];
        for (l, g) in nodes.iter().enumerate() {
            assert!(local[g.index()] == u32::MAX, "induced subgraph repeats node {g:?}");
            local[g.index()] = l as u32;
        }
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0u32);
        let mut targets = Vec::new();
        for &g in nodes {
            let row_start = targets.len();
            targets.extend(self.neighbors(g).iter().filter_map(|w| {
                let l = local[w.index()];
                (l != u32::MAX).then(|| NodeId::new(l as usize))
            }));
            targets[row_start..].sort_unstable();
            offsets.push(targets.len() as u32);
        }
        Adjacency { n: nodes.len(), offsets, targets }
    }

    fn neighbors(&self, a: NodeId) -> &[NodeId] {
        let i = a.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    fn degree(&self, a: NodeId) -> usize {
        self.neighbors(a).len()
    }

    fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Single-source BFS hop distances.
    fn bfs(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![UNREACHABLE; self.n];
        let mut q = VecDeque::new();
        dist[src.index()] = 0;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            let du = dist[u.index()];
            for &v in self.neighbors(u) {
                if dist[v.index()] == UNREACHABLE {
                    dist[v.index()] = du + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Multi-source BFS truncated at `cap` hops: `dist[v]` is the hop
    /// distance from `v` to the *nearest* source, with every distance `≥
    /// cap` (including unreachable) saturated to `cap`. The wave stops
    /// expanding at depth `cap`, so the cost is bounded by the
    /// `cap`-neighborhood of the sources, not the whole graph.
    fn multi_bfs_capped(&self, sources: &[NodeId], cap: u32) -> Vec<u32> {
        let mut dist = vec![cap; self.n];
        if cap == 0 {
            return dist;
        }
        let mut q = VecDeque::new();
        for &s in sources {
            if dist[s.index()] != 0 {
                dist[s.index()] = 0;
                q.push_back(s);
            }
        }
        while let Some(u) = q.pop_front() {
            let du = dist[u.index()];
            if du + 1 >= cap {
                continue;
            }
            for &v in self.neighbors(u) {
                if dist[v.index()] == cap {
                    dist[v.index()] = du + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Every node id, ascending: the column set of a whole-graph table.
    fn nodes(&self) -> Vec<NodeId> {
        (0..self.n).map(NodeId::new).collect()
    }

    /// The column of each node in a table over `nodes` (`nodes[c]` is
    /// column `c`), `u32::MAX` for nodes outside it.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` repeats a node.
    fn column_map(&self, nodes: &[NodeId]) -> Vec<u32> {
        let mut col_of = vec![u32::MAX; self.n];
        for (c, g) in nodes.iter().enumerate() {
            assert!(col_of[g.index()] == u32::MAX, "restricted hop table repeats node {g:?}");
            col_of[g.index()] = c as u32;
        }
        col_of
    }

    /// Bit-parallel BFS from up to 64 distinct sources at once: each source
    /// owns a bit lane in per-node `u64` masks, and one level-synchronous
    /// pass advances all lanes together. The cells of the block are the
    /// (lane, column) pairs, where node `v` is column `col_of[v]` and
    /// `u32::MAX` marks a node that is no column.
    ///
    /// Each level goes the way that scans fewer CSR entries, judged by two
    /// degree sums kept as the sweep runs: *push* ORs every frontier row
    /// into its neighbors (the frontier's degree sum), *pull* ORs, for each
    /// node some lane has not reached yet, its neighbors' frontier masks
    /// and stops the row once they cover that node's missing lanes (at most
    /// the degree sum of those nodes). Both give the same masks.
    ///
    /// `record(col, lanes, level)` is called once per (column, level) with
    /// the lanes that first reached that column's node at `level` (sources
    /// at level 0). The sweep stops after level `cap`, when nothing new is
    /// reached, or as soon as every cell of the block is filled.
    ///
    /// Returns whether some node was first reached at exactly level `cap`
    /// with cells still unfilled the level before, i.e. whether a cell may
    /// lie at or beyond the cap.
    fn multi_bfs_block<F: FnMut(usize, u64, u32)>(
        &self,
        sources: &[NodeId],
        col_of: &[u32],
        columns: usize,
        cap: u32,
        mut record: F,
    ) -> bool {
        debug_assert!(!sources.is_empty() && sources.len() <= 64, "one bit lane per source");
        debug_assert!(cap >= 1, "cap 0 cannot store even the sources");
        let n = self.n;
        let row = |v: usize| &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize];
        let all = u64::MAX >> (64 - sources.len());
        let mut seen = vec![0u64; n];
        let mut frontier = vec![0u64; n];
        let mut next = vec![0u64; n];
        let mut unfilled = sources.len() * columns;
        // Entries a push scans, and at most the entries a pull scans.
        let mut push_cost = 0usize;
        let mut pull_cost = self.targets.len();
        for (lane, s) in sources.iter().enumerate() {
            let (v, mask) = (s.index(), 1u64 << lane);
            seen[v] |= mask;
            frontier[v] |= mask;
            push_cost += row(v).len();
            if seen[v] == all {
                pull_cost -= row(v).len();
            }
            if col_of[v] != u32::MAX {
                unfilled -= 1;
                record(col_of[v] as usize, mask, 0);
            }
        }
        // A level with no frontier entry to scan reaches nothing new.
        let mut level = 0u32;
        while unfilled > 0 && push_cost > 0 && level < cap {
            level += 1;
            if pull_cost < push_cost {
                for v in 0..n {
                    let missing = all & !seen[v];
                    let mut lanes = 0u64;
                    if missing != 0 {
                        for &w in row(v) {
                            lanes |= frontier[w.index()];
                            if lanes & missing == missing {
                                break;
                            }
                        }
                    }
                    next[v] = lanes;
                }
            } else {
                next.fill(0);
                for (v, &lanes) in frontier.iter().enumerate() {
                    if lanes != 0 {
                        for &w in row(v) {
                            next[w.index()] |= lanes;
                        }
                    }
                }
            }
            push_cost = 0;
            for v in 0..n {
                let new = next[v] & !seen[v];
                next[v] = new;
                if new != 0 {
                    seen[v] |= new;
                    push_cost += row(v).len();
                    if seen[v] == all {
                        pull_cost -= row(v).len();
                    }
                    if col_of[v] != u32::MAX {
                        unfilled -= new.count_ones() as usize;
                        record(col_of[v] as usize, new, level);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        level == cap && push_cost > 0
    }

    /// Matrix-free diameter: the maximum finite eccentricity, computed by
    /// running the bit-parallel kernel over all sources without storing any
    /// rows. O(n/64 · diam · E) time, O(n) extra space.
    fn diameter_scan(&self) -> u32 {
        if self.n < 2 {
            return 0;
        }
        // Distances are < n, so a cap of n can never truncate a level.
        let cap = self.n as u32;
        let nodes = self.nodes();
        let col_of = self.column_map(&nodes);
        let mut max = 0u32;
        for sources in nodes.chunks(64) {
            self.multi_bfs_block(sources, &col_of, self.n, cap, |_, _, level| max = max.max(level));
        }
        max
    }

    fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let dist = self.bfs(NodeId::new(0));
        dist.iter().all(|&d| d != UNREACHABLE)
    }
}

/// All-pairs hop distances of a graph, flattened for O(1) lookup.
///
/// The channel reuse constraint (§V-A) asks, for every candidate concurrent
/// transmission pair, whether two nodes are at least `ρ` hops apart; the
/// schedulers query this matrix on their innermost loop.
///
/// This is the *dense* representation — `u32` per cell, `UNREACHABLE` for
/// disconnected pairs. It remains the reference oracle for tests and small
/// graphs; city-scale paths use [`CappedHops`], which answers the same
/// queries from a quarter of the memory (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopMatrix {
    n: usize,
    dist: Vec<u32>,
}

impl HopMatrix {
    fn from_adjacency(adj: &Adjacency) -> Self {
        let n = adj.n;
        let mut dist = Vec::with_capacity(n * n);
        for src in 0..n {
            dist.extend(adj.bfs(NodeId::new(src)));
        }
        HopMatrix { n, dist }
    }

    /// Hop distance between `a` and `b`; [`UNREACHABLE`] when disconnected.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.dist[a.index() * self.n + b.index()]
    }

    /// Whether `a` and `b` are at least `rho` hops apart.
    ///
    /// Unreachable pairs count as infinitely far apart — a pair with no path
    /// in the reuse graph cannot interfere under the hop-based model.
    pub fn at_least(&self, a: NodeId, b: NodeId, rho: u32) -> bool {
        self.hops(a, b) >= rho
    }

    /// The graph diameter: maximum finite hop distance over all pairs
    /// (`λ_R` for the reuse graph in Algorithm 1). Returns 0 for graphs with
    /// fewer than two nodes or no finite pair distances.
    pub fn diameter(&self) -> u32 {
        self.dist.iter().copied().filter(|&d| d != UNREACHABLE).max().unwrap_or(0)
    }
}

/// One cell of a [`CappedHops`] table.
trait Cell: Copy + Send + 'static {
    /// Largest cap this cell width can store.
    const LIMIT: u32;
    fn encode(level: u32) -> Self;
    fn decode(self) -> u32;
}

impl Cell for u8 {
    const LIMIT: u32 = u8::MAX as u32;
    fn encode(level: u32) -> Self {
        level as u8
    }
    fn decode(self) -> u32 {
        u32::from(self)
    }
}

impl Cell for u16 {
    const LIMIT: u32 = u16::MAX as u32;
    fn encode(level: u32) -> Self {
        level as u16
    }
    fn decode(self) -> u32 {
        u32::from(self)
    }
}

/// The cell storage of a [`CappedHops`]: one byte per pair when the cap
/// fits in `u8`, two otherwise — 4×/2× smaller than the dense `u32` matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum CappedCells {
    /// Caps up to 255.
    U8(Vec<u8>),
    /// Caps up to 65 535.
    U16(Vec<u16>),
}

/// All-pairs hop distances *saturated at a cap*: every stored distance is
/// `min(d, cap)`, with unreachable pairs stored as `cap`.
///
/// # Conservative saturation (DESIGN.md §16)
///
/// The reuse test (§V-A) only ever asks `hops(a, b) ≥ ρ`. For any queried
/// `ρ ≤ cap` the saturated answer is **exact**: if the true distance is
/// below the cap it is stored verbatim, and if it is at or above the cap
/// (or infinite) the stored `cap ≥ ρ` still answers `true`, exactly as the
/// true distance would. For `ρ > cap` the answer degrades *conservatively*
/// — `at_least` returns `false`, denying reuse that the true distance might
/// have allowed, never granting reuse the true distance would deny.
///
/// When built through the exact-mode constructors (`exact_hops`, or a
/// restricted build whose cap provably exceeds every finite distance of
/// interest), `cap ≥ diameter + 1` holds, which additionally makes
/// `hops()` interchangeable with the dense matrix under any clamp
/// `≤ cap` (the metrics layer clamps at `λ_R + 1`) — schedules computed
/// against a `CappedHops` are byte-identical to the dense path, not merely
/// valid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CappedHops {
    n: usize,
    cap: u32,
    max_finite: u32,
    saturated: bool,
    cells: CappedCells,
}

impl CappedHops {
    fn from_cells<C: Cell>(
        n: usize,
        cap: u32,
        max_finite: u32,
        saturated: bool,
        cells: Vec<C>,
        wrap: fn(Vec<C>) -> CappedCells,
    ) -> Self {
        debug_assert_eq!(cells.len(), n * n);
        CappedHops { n, cap, max_finite, saturated, cells: wrap(cells) }
    }

    /// Distances measured on the whole graph between the given `nodes`
    /// (row/column `i` is `nodes[i]`), saturated at `cap`.
    fn build_with<C: Cell>(
        adj: &Adjacency,
        nodes: &[NodeId],
        cap: u32,
        jobs: usize,
        wrap: fn(Vec<C>) -> CappedCells,
    ) -> Self {
        assert!(cap >= 1 && cap <= C::LIMIT, "cap {cap} does not fit the cell width");
        let width = nodes.len();
        let col_of = adj.column_map(nodes);
        // Each block computes its own saturated rows; index-ordered
        // concatenation makes the result identical for any `jobs`.
        let per: Vec<(Vec<C>, u32, bool)> = parallel_map_with(width.div_ceil(64), jobs, |blk| {
            let sources = &nodes[blk * 64..(blk * 64 + 64).min(width)];
            let mut rows = vec![C::encode(cap); sources.len() * width];
            let mut max = 0u32;
            let reached_at_cap =
                adj.multi_bfs_block(sources, &col_of, width, cap, |col, mut lanes, level| {
                    while lanes != 0 {
                        let lane = lanes.trailing_zeros() as usize;
                        lanes &= lanes - 1;
                        rows[lane * width + col] = C::encode(level);
                    }
                    max = max.max(level);
                });
            (rows, max, reached_at_cap)
        });
        let mut cells = Vec::with_capacity(width * width);
        let mut max_finite = 0u32;
        let mut saturated = false;
        for (rows, max, reached) in per {
            cells.extend_from_slice(&rows);
            max_finite = max_finite.max(max);
            saturated |= reached;
        }
        Self::from_cells(width, cap, max_finite, saturated, cells, wrap)
    }

    fn from_adjacency(adj: &Adjacency, nodes: &[NodeId], cap: u32, jobs: usize) -> Self {
        if cap <= u8::MAX as u32 {
            Self::build_with::<u8>(adj, nodes, cap, jobs, CappedCells::U8)
        } else {
            Self::build_with::<u16>(adj, nodes, cap, jobs, CappedCells::U16)
        }
    }

    /// Exact-mode build: tries `u8` with the maximum cap (255); if any node
    /// sits at or beyond that cap, rebuilds as `u16` with cap 65 535, which
    /// no 65 536-node graph can saturate below its true diameter. The
    /// result always satisfies `cap ≥ diameter + 1` (schedule-identical to
    /// the dense matrix) unless the graph's diameter is ≥ 65 535, which the
    /// `NodeId` space cannot quite express anyway.
    fn exact_from_adjacency(adj: &Adjacency, jobs: usize) -> Self {
        let nodes = adj.nodes();
        let first = Self::build_with::<u8>(adj, &nodes, u8::MAX as u32, jobs, CappedCells::U8);
        if !first.saturated {
            return first;
        }
        Self::build_with::<u16>(adj, &nodes, u16::MAX as u32, jobs, CappedCells::U16)
    }

    /// Saturates a dense matrix into capped form with `cap = diameter + 1`
    /// (so the result is schedule-identical to its source; see the type
    /// docs). Caps beyond 65 535 are clamped to 65 535.
    pub fn from_dense(dense: &HopMatrix) -> Self {
        let diam = dense.diameter();
        let cap = (diam + 1).min(u16::MAX as u32);
        let n = dense.n;
        let encode = |d: u32| if d >= cap { cap } else { d };
        let mut max_finite = 0u32;
        let mut saturated = false;
        for &d in &dense.dist {
            if d != UNREACHABLE {
                max_finite = max_finite.max(d.min(cap));
                saturated |= d >= cap;
            }
        }
        let cells = if cap <= u8::MAX as u32 {
            CappedCells::U8(dense.dist.iter().map(|&d| encode(d) as u8).collect())
        } else {
            CappedCells::U16(dense.dist.iter().map(|&d| encode(d) as u16).collect())
        };
        CappedHops { n, cap, max_finite, saturated, cells }
    }

    /// Number of nodes (rows/columns).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The saturation cap: every stored distance is `min(d, cap)`.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Saturated hop distance between `a` and `b`: the true distance when
    /// it is below [`cap`](Self::cap), else `cap` (unreachable included).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let i = a.index() * self.n + b.index();
        match &self.cells {
            CappedCells::U8(cells) => cells[i].decode(),
            CappedCells::U16(cells) => cells[i].decode(),
        }
    }

    /// Whether `a` and `b` are at least `rho` hops apart.
    ///
    /// Exact for every `rho ≤ cap` (see the conservative-saturation
    /// argument in the type docs); for `rho > cap` this is conservative —
    /// always `false`, denying reuse.
    pub fn at_least(&self, a: NodeId, b: NodeId, rho: u32) -> bool {
        self.hops(a, b) >= rho
    }

    /// Maximum finite distance *observed below the cap* — equal to the true
    /// graph diameter (`λ_R`) whenever [`saturated`](Self::saturated) is
    /// `false`, a lower bound otherwise.
    pub fn diameter(&self) -> u32 {
        self.max_finite
    }

    /// Whether any distance may have been truncated: some node was first
    /// reached at exactly `cap` hops, so pairs beyond the cap may exist.
    /// When `false`, `cap ≥ diameter + 1` and every finite distance is
    /// stored exactly. For a table from
    /// [`capped_hops_restricted`](ReuseGraph::capped_hops_restricted) this
    /// speaks of member pairs only.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Bytes used by the cell storage.
    pub fn bytes(&self) -> usize {
        match &self.cells {
            CappedCells::U8(cells) => cells.len(),
            CappedCells::U16(cells) => cells.len() * 2,
        }
    }
}

/// Lazily computed, cached graph diameter. Transparent to comparison,
/// hashing-by-value, and serde (serializes as null, deserializes empty) so
/// the graphs stay plain value types; sound to cache because the graphs are
/// immutable after construction.
#[derive(Debug, Default, Clone)]
struct DiamCache(OnceLock<u32>);

impl PartialEq for DiamCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for DiamCache {}

impl Serialize for DiamCache {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for DiamCache {
    fn from_value(_: &Value) -> Result<Self, DeError> {
        Ok(DiamCache::default())
    }
}

macro_rules! graph_common {
    ($ty:ident) => {
        impl $ty {
            /// Number of nodes.
            pub fn node_count(&self) -> usize {
                self.adj.n
            }

            /// Number of (undirected) edges.
            pub fn edge_count(&self) -> usize {
                self.adj.edge_count()
            }

            /// Whether the bidirectional edge `ab` exists.
            pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
                self.adj.has_edge(a, b)
            }

            /// Neighbors of `a`, sorted ascending.
            pub fn neighbors(&self, a: NodeId) -> &[NodeId] {
                self.adj.neighbors(a)
            }

            /// Degree (neighbor count) of `a`.
            pub fn degree(&self, a: NodeId) -> usize {
                self.adj.degree(a)
            }

            /// Whether every node can reach every other node.
            pub fn is_connected(&self) -> bool {
                self.adj.is_connected()
            }

            /// All-pairs hop distances, dense (`u32` per cell). The
            /// small-graph oracle; city-scale callers should prefer
            /// [`capped_hops`](Self::capped_hops) or
            /// [`exact_hops`](Self::exact_hops).
            pub fn hop_matrix(&self) -> HopMatrix {
                HopMatrix::from_adjacency(&self.adj)
            }

            /// All-pairs distances saturated at `cap` (see [`CappedHops`]),
            /// built by the bit-parallel multi-source BFS on up to `jobs`
            /// workers (`0` = all cores). Byte-identical for any `jobs`.
            pub fn capped_hops(&self, cap: u32, jobs: usize) -> CappedHops {
                CappedHops::from_adjacency(&self.adj, &self.adj.nodes(), cap, jobs)
            }

            /// All-pairs distances with an automatically chosen cap that
            /// provably exceeds the diameter, making the result
            /// schedule-identical to the dense matrix at a quarter (u8) or
            /// half (u16) the memory. `jobs = 0` uses all cores.
            pub fn exact_hops(&self, jobs: usize) -> CappedHops {
                CappedHops::exact_from_adjacency(&self.adj, jobs)
            }

            /// Distances measured on the *whole* graph but recorded only
            /// between the given `nodes` (row/column `i` is `nodes[i]`),
            /// saturated at `cap`. This is the shard-extraction primitive:
            /// per-shard scheduling needs global reuse distances restricted
            /// to the shard nodes its flows name. The `nodes` are the
            /// table's *members* below.
            ///
            /// Each wave stops once it has reached every member, so the
            /// table's [`saturated`](CappedHops::saturated) speaks of
            /// member pairs only: when it is `false`, every member pair's
            /// distance is stored exactly (unreachable pairs at `cap`);
            /// when some member pair lies a finite distance `≥ cap` apart,
            /// it is `true`. Non-members first reached at the cap after
            /// the members are done do not count.
            ///
            /// # Panics
            ///
            /// Panics if `nodes` repeats a node.
            pub fn capped_hops_restricted(
                &self,
                nodes: &[NodeId],
                cap: u32,
                jobs: usize,
            ) -> CappedHops {
                CappedHops::from_adjacency(&self.adj, nodes, cap, jobs)
            }

            /// Graph diameter: the maximum finite shortest-path length.
            /// Matrix-free (eccentricity scan) and cached — the graphs are
            /// immutable, so the first call pays and the rest are loads.
            pub fn diameter(&self) -> u32 {
                *self.diam.0.get_or_init(|| self.adj.diameter_scan())
            }

            /// Single-source BFS hop distances from `src`
            /// ([`UNREACHABLE`] marks unreachable nodes).
            pub fn bfs_from(&self, src: NodeId) -> Vec<u32> {
                self.adj.bfs(src)
            }

            /// Hop distance from every node to its nearest node in
            /// `sources`, saturated at `cap` (distances `≥ cap` and
            /// unreachable both read `cap`). The search is truncated at
            /// depth `cap`, so it only visits the sources' neighborhood.
            pub fn multi_bfs_capped(&self, sources: &[NodeId], cap: u32) -> Vec<u32> {
                self.adj.multi_bfs_capped(sources, cap)
            }
        }
    };
}

/// The communication graph `G_c(V, E)` used to construct routes.
///
/// A bidirectional edge `uv ∈ E` exists iff `PRR(u→v) ≥ PRR_t` and
/// `PRR(v→u) ≥ PRR_t` on **all** channels in use — bidirectionality supports
/// the acknowledgement, and channel hopping forces reliability on every
/// channel the link will visit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommGraph {
    adj: Adjacency,
    diam: DiamCache,
}

graph_common!(CommGraph);

impl CommGraph {
    pub(crate) fn from_topology(topo: &Topology, channels: &ChannelSet, prr_t: Prr) -> Self {
        let n = topo.node_count();
        let mut pairs = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let (na, nb) = (NodeId::new(a), NodeId::new(b));
                let fwd = topo.min_prr_over(DirectedLink::new(na, nb), channels);
                let rev = topo.min_prr_over(DirectedLink::new(nb, na), channels);
                if fwd.value() >= prr_t.value() && rev.value() >= prr_t.value() {
                    pairs.push((na, nb));
                }
            }
        }
        CommGraph { adj: Adjacency::from_pairs(n, &pairs), diam: DiamCache::default() }
    }

    /// Builds a communication graph directly from an undirected edge list
    /// (for hand-crafted test networks).
    pub fn from_edges(node_count: usize, edges: &[(NodeId, NodeId)]) -> Self {
        CommGraph { adj: Adjacency::from_pairs(node_count, edges), diam: DiamCache::default() }
    }

    /// The subgraph induced by `nodes` (distinct), renumbered so that
    /// local node `i` is `nodes[i]`. Byte-identical to building the graph
    /// from the edges among `nodes`, at the cost of the members' rows
    /// rather than the whole edge list — a shard's local routing graph.
    ///
    /// `ReuseGraph` has no counterpart on purpose: hop distances on an
    /// induced reuse graph overstate the true ones (paths through
    /// non-members vanish), which would grant reuse unsoundly.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` repeats a node or holds an out-of-range id.
    pub fn induced(&self, nodes: &[NodeId]) -> Self {
        CommGraph { adj: self.adj.induced(nodes), diam: DiamCache::default() }
    }

    /// Selects `k` access points: well-connected nodes ("nodes with a high
    /// number of neighbors", §VII) that are also *spread out* — real
    /// deployments place access points apart so their wireless
    /// neighbourhoods overlap as little as possible.
    ///
    /// The first pick is the highest-degree node; each further pick is the
    /// highest-degree node at least `⌈diameter/2⌉` hops from every previous
    /// pick, relaxing the distance requirement one hop at a time when no
    /// node qualifies. Ties break toward lower node ids for determinism.
    ///
    /// Matrix-free: only the picked nodes' BFS rows are materialized (at
    /// most `k` rows), never the full n² matrix.
    pub fn select_access_points(&self, k: usize) -> Vec<NodeId> {
        let mut by_degree: Vec<NodeId> = (0..self.node_count()).map(NodeId::new).collect();
        by_degree.sort_by_key(|&id| (std::cmp::Reverse(self.degree(id)), id.index()));
        if k <= 1 || by_degree.len() <= k {
            by_degree.truncate(k);
            return by_degree;
        }
        let mut picked = vec![by_degree[0]];
        // dist_rows[i] is the BFS row of picked[i]; distances are symmetric,
        // so row[candidate] == hops(candidate, picked[i]).
        let mut dist_rows = vec![self.bfs_from(by_degree[0])];
        let mut min_sep = self.diameter().div_ceil(2).max(1);
        while picked.len() < k {
            let candidate = by_degree.iter().copied().find(|&id| {
                !picked.contains(&id) && dist_rows.iter().all(|row| row[id.index()] >= min_sep)
            });
            match candidate {
                Some(id) => {
                    picked.push(id);
                    dist_rows.push(self.bfs_from(id));
                }
                None if min_sep > 1 => min_sep -= 1,
                None => {
                    // fully relaxed: fall back to plain degree order
                    let next = by_degree
                        .iter()
                        .copied()
                        .find(|id| !picked.contains(id))
                        .expect("k < node_count");
                    picked.push(next);
                    dist_rows.push(self.bfs_from(next));
                }
            }
        }
        picked
    }
}

/// The channel reuse graph `G_R(V, E)` used to estimate interference.
///
/// A bidirectional edge `uv ∈ E` exists iff **any** channel in use has
/// `PRR(u→v) > 0` or `PRR(v→u) > 0`: if even occasional packets get through,
/// the pair can interfere, so hop distance on this graph is the conservative
/// proxy for interference attenuation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseGraph {
    adj: Adjacency,
    diam: DiamCache,
}

graph_common!(ReuseGraph);

impl ReuseGraph {
    pub(crate) fn from_topology(topo: &Topology, channels: &ChannelSet) -> Self {
        let n = topo.node_count();
        let mut pairs = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let (na, nb) = (NodeId::new(a), NodeId::new(b));
                if topo.max_pair_prr_over(na, nb, channels).is_positive() {
                    pairs.push((na, nb));
                }
            }
        }
        ReuseGraph { adj: Adjacency::from_pairs(n, &pairs), diam: DiamCache::default() }
    }

    /// Builds a reuse graph directly from an undirected edge list (for
    /// hand-crafted test networks).
    pub fn from_edges(node_count: usize, edges: &[(NodeId, NodeId)]) -> Self {
        ReuseGraph { adj: Adjacency::from_pairs(node_count, edges), diam: DiamCache::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelId, Position};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Path graph 0 - 1 - 2 - 3.
    fn path4() -> ReuseGraph {
        ReuseGraph::from_edges(4, &[(n(0), n(1)), (n(1), n(2)), (n(2), n(3))])
    }

    #[test]
    fn bfs_distances_on_a_path() {
        let g = path4();
        let hm = g.hop_matrix();
        assert_eq!(hm.hops(n(0), n(0)), 0);
        assert_eq!(hm.hops(n(0), n(1)), 1);
        assert_eq!(hm.hops(n(0), n(3)), 3);
        assert_eq!(hm.hops(n(3), n(0)), 3);
        assert_eq!(g.diameter(), 3);
    }

    #[test]
    fn at_least_semantics() {
        let hm = path4().hop_matrix();
        assert!(hm.at_least(n(0), n(3), 3));
        assert!(hm.at_least(n(0), n(3), 2));
        assert!(!hm.at_least(n(0), n(1), 2));
        // zero hops: same node fails any rho >= 1
        assert!(!hm.at_least(n(2), n(2), 1));
    }

    #[test]
    fn unreachable_counts_as_infinitely_far() {
        let g = ReuseGraph::from_edges(4, &[(n(0), n(1)), (n(2), n(3))]);
        let hm = g.hop_matrix();
        assert_eq!(hm.hops(n(0), n(2)), UNREACHABLE);
        assert!(hm.at_least(n(0), n(2), 1_000));
        assert!(!g.is_connected());
        // diameter ignores unreachable pairs
        assert_eq!(hm.diameter(), 1);
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g0 = ReuseGraph::from_edges(0, &[]);
        assert!(g0.is_connected());
        assert_eq!(g0.diameter(), 0);
        let g1 = ReuseGraph::from_edges(1, &[]);
        assert!(g1.is_connected());
        assert_eq!(g1.diameter(), 0);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let g = ReuseGraph::from_edges(2, &[(n(0), n(1)), (n(1), n(0)), (n(0), n(1))]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(n(0)), 1);
    }

    #[test]
    fn neighbors_are_sorted_and_csr_consistent() {
        let g =
            ReuseGraph::from_edges(5, &[(n(3), n(0)), (n(3), n(4)), (n(3), n(1)), (n(0), n(4))]);
        assert_eq!(g.neighbors(n(3)), &[n(0), n(1), n(4)]);
        assert_eq!(g.neighbors(n(0)), &[n(3), n(4)]);
        assert_eq!(g.neighbors(n(2)), &[] as &[NodeId]);
        assert!(g.has_edge(n(4), n(0)));
        assert!(!g.has_edge(n(1), n(4)));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn induced_subgraph_renumbers_in_member_order() {
        // star around 2 plus the chain 4 - 5
        let g = CommGraph::from_edges(
            6,
            &[(n(2), n(0)), (n(2), n(1)), (n(2), n(3)), (n(2), n(4)), (n(4), n(5))],
        );
        // members out of ascending order: local 0 = 5, 1 = 2, 2 = 4, 3 = 0
        let sub = g.induced(&[n(5), n(2), n(4), n(0)]);
        let want = CommGraph::from_edges(4, &[(n(1), n(2)), (n(1), n(3)), (n(2), n(0))]);
        assert_eq!(sub, want);
        assert_eq!(sub.neighbors(n(1)), &[n(2), n(3)]);
        assert_eq!(g.induced(&[]).node_count(), 0);
    }

    #[test]
    #[should_panic(expected = "repeats node")]
    fn induced_subgraph_rejects_repeated_members() {
        let g = CommGraph::from_edges(3, &[(n(0), n(1)), (n(1), n(2))]);
        let _ = g.induced(&[n(1), n(0), n(1)]);
    }

    #[test]
    fn capped_hops_exact_matches_dense_on_a_path() {
        let g = path4();
        let dense = g.hop_matrix();
        let capped = g.exact_hops(1);
        assert_eq!(capped.cap(), 255);
        assert!(!capped.saturated());
        assert_eq!(capped.diameter(), dense.diameter());
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(capped.hops(n(a), n(b)), dense.hops(n(a), n(b)));
                for rho in 0..6 {
                    assert_eq!(
                        capped.at_least(n(a), n(b), rho),
                        dense.at_least(n(a), n(b), rho),
                        "({a},{b}) rho={rho}"
                    );
                }
            }
        }
    }

    #[test]
    fn capped_hops_saturates_conservatively() {
        // path of 8 nodes, cap 3: distances >= 3 all read 3
        let edges: Vec<_> = (0..7).map(|i| (n(i), n(i + 1))).collect();
        let g = ReuseGraph::from_edges(8, &edges);
        let capped = g.capped_hops(3, 1);
        assert!(capped.saturated());
        assert_eq!(capped.hops(n(0), n(2)), 2); // exact below cap
        assert_eq!(capped.hops(n(0), n(3)), 3); // at cap: exact
        assert_eq!(capped.hops(n(0), n(7)), 3); // beyond cap: saturated
                                                // rho <= cap stays exact
        assert!(capped.at_least(n(0), n(3), 3));
        assert!(!capped.at_least(n(0), n(2), 3));
        // rho > cap: conservative false (reuse denied) even though the
        // true distance (7) would have allowed it
        assert!(!capped.at_least(n(0), n(7), 4));
    }

    #[test]
    fn capped_hops_treats_unreachable_as_cap() {
        let g = ReuseGraph::from_edges(4, &[(n(0), n(1)), (n(2), n(3))]);
        let capped = g.exact_hops(1);
        assert_eq!(capped.hops(n(0), n(2)), capped.cap());
        assert!(capped.at_least(n(0), n(2), capped.cap()));
        assert_eq!(capped.diameter(), 1);
        assert!(!capped.saturated());
    }

    #[test]
    fn capped_hops_from_dense_round_trips() {
        let g = path4();
        let dense = g.hop_matrix();
        let via_dense = CappedHops::from_dense(&dense);
        let direct = g.exact_hops(1);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    via_dense.hops(n(a), n(b)).min(via_dense.cap()),
                    direct.hops(n(a), n(b)).min(via_dense.cap())
                );
            }
        }
        assert_eq!(via_dense.diameter(), direct.diameter());
    }

    #[test]
    fn restricted_extraction_matches_dense_restriction() {
        // star + chain so the subset's pairwise paths run through
        // non-member nodes
        let g = ReuseGraph::from_edges(
            6,
            &[(n(2), n(0)), (n(2), n(1)), (n(2), n(3)), (n(2), n(4)), (n(4), n(5))],
        );
        let dense = g.hop_matrix();
        let subset = [n(0), n(3), n(5)];
        let capped = g.capped_hops_restricted(&subset, 10, 1);
        assert_eq!(capped.node_count(), 3);
        for (i, &a) in subset.iter().enumerate() {
            for (j, &b) in subset.iter().enumerate() {
                assert_eq!(capped.hops(n(i), n(j)), dense.hops(a, b), "{a:?}->{b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "repeats node")]
    fn restricted_extraction_rejects_repeated_members() {
        // a repeated member would leave its first column at the cap
        let _ = path4().capped_hops_restricted(&[n(0), n(3), n(0)], 10, 1);
    }

    #[test]
    fn restricted_saturation_speaks_of_members_only() {
        // path 0 - … - 7: members 0 and 2 are done at level 2, before the
        // non-member 7 is reached at the cap of 7
        let edges: Vec<_> = (0..7).map(|i| (n(i), n(i + 1))).collect();
        let g = ReuseGraph::from_edges(8, &edges);
        let near = g.capped_hops_restricted(&[n(0), n(2)], 7, 1);
        assert!(!near.saturated());
        assert_eq!(near.hops(n(0), n(1)), 2);
        assert_eq!(near.diameter(), 2);
        // a member pair exactly at the cap
        let at_cap = g.capped_hops_restricted(&[n(0), n(7)], 7, 1);
        assert!(at_cap.saturated());
        assert_eq!(at_cap.hops(n(0), n(1)), 7);
    }

    #[test]
    fn multi_bfs_capped_truncates_at_depth() {
        let edges: Vec<_> = (0..7).map(|i| (n(i), n(i + 1))).collect();
        let g = ReuseGraph::from_edges(8, &edges);
        let dist = g.multi_bfs_capped(&[n(0), n(7)], 3);
        assert_eq!(dist[n(0).index()], 0);
        assert_eq!(dist[n(2).index()], 2);
        assert_eq!(dist[n(5).index()], 2); // nearest source is 7
        assert_eq!(dist[n(3).index()], 3); // at cap
        assert_eq!(dist[n(4).index()], 3); // true distance 3 from node 7
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        // 130 nodes -> 3 source blocks, enough to exercise block stitching
        let edges: Vec<_> = (0..129).map(|i| (n(i), n(i + 1))).collect();
        let g = ReuseGraph::from_edges(130, &edges);
        let seq = g.capped_hops(9, 1);
        let par = g.capped_hops(9, 4);
        assert_eq!(seq, par);
        let seq_exact = g.exact_hops(1);
        let par_exact = g.exact_hops(4);
        assert_eq!(seq_exact, par_exact);
    }

    #[test]
    fn access_point_selection_prefers_high_degree_spread_apart() {
        // star around node 2, plus a pendant chain: 2 is the hub; the
        // second AP must be well-connected *and* far from the hub.
        let g = CommGraph::from_edges(
            6,
            &[(n(2), n(0)), (n(2), n(1)), (n(2), n(3)), (n(2), n(4)), (n(4), n(5))],
        );
        let aps = g.select_access_points(2);
        assert_eq!(aps[0], n(2)); // degree 4 hub
                                  // diameter 3 ⇒ separation ⌈3/2⌉ = 2: node 5 is the only node 2 hops
                                  // from the hub with the best degree among those (degree 1), node 4
                                  // (degree 2) is only 1 hop away
        assert_eq!(aps[1], n(5));
    }

    #[test]
    fn access_points_on_a_long_path_spread_out() {
        let edges: Vec<_> = (0..9).map(|i| (n(i), n(i + 1))).collect();
        let g = CommGraph::from_edges(10, &edges);
        let aps = g.select_access_points(2);
        let hm = g.hop_matrix();
        assert!(hm.hops(aps[0], aps[1]) >= 5, "APs {aps:?} too close");
    }

    #[test]
    fn access_point_ties_break_by_id() {
        let g = CommGraph::from_edges(4, &[(n(0), n(1)), (n(2), n(3))]);
        let aps = g.select_access_points(2);
        assert_eq!(aps, vec![n(0), n(1)]);
    }

    fn mini_topology() -> Topology {
        // three nodes in a row, 10 m apart
        let mut t = Topology::new(
            "mini",
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(10.0, 0.0, 0.0),
                Position::new(20.0, 0.0, 0.0),
            ],
        );
        let (c11, c12) = (ChannelId::new(11).unwrap(), ChannelId::new(12).unwrap());
        // adjacent pairs: strong on both channels, both directions
        for (a, b) in [(0, 1), (1, 2)] {
            for ch in [c11, c12] {
                t.set_prr(n(a), n(b), ch, Prr::new(0.95).unwrap()).unwrap();
                t.set_prr(n(b), n(a), ch, Prr::new(0.95).unwrap()).unwrap();
            }
        }
        // far pair 0-2: weak on one channel, one direction only
        t.set_prr(n(0), n(2), c11, Prr::new(0.1).unwrap()).unwrap();
        t
    }

    #[test]
    fn comm_graph_requires_threshold_on_all_channels_both_ways() {
        let t = mini_topology();
        let chans = ChannelId::range(11, 12).unwrap();
        let g = t.comm_graph(&chans, Prr::new(0.9).unwrap());
        assert!(g.has_edge(n(0), n(1)));
        assert!(g.has_edge(n(1), n(2)));
        assert!(!g.has_edge(n(0), n(2))); // 0.1 < 0.9, and missing channels
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn comm_graph_drops_link_weak_on_one_channel() {
        let mut t = mini_topology();
        let c12 = ChannelId::new(12).unwrap();
        // degrade one direction on one channel below threshold
        t.set_prr(n(0), n(1), c12, Prr::new(0.5).unwrap()).unwrap();
        let chans = ChannelId::range(11, 12).unwrap();
        let g = t.comm_graph(&chans, Prr::new(0.9).unwrap());
        assert!(!g.has_edge(n(0), n(1)));
        // but with only channel 11 in use the edge qualifies again
        let g11 = t.comm_graph(&ChannelId::range(11, 11).unwrap(), Prr::new(0.9).unwrap());
        assert!(g11.has_edge(n(0), n(1)));
    }

    #[test]
    fn reuse_graph_includes_any_positive_prr() {
        let t = mini_topology();
        let chans = ChannelId::range(11, 12).unwrap();
        let g = t.reuse_graph(&chans);
        // 0-2 has PRR 0.1 on ch11 in one direction: edge exists
        assert!(g.has_edge(n(0), n(2)));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn reuse_graph_is_superset_of_comm_graph() {
        let t = mini_topology();
        let chans = ChannelId::range(11, 12).unwrap();
        let comm = t.comm_graph(&chans, Prr::new(0.9).unwrap());
        let reuse = t.reuse_graph(&chans);
        for a in 0..3 {
            for b in (a + 1)..3 {
                if comm.has_edge(n(a), n(b)) {
                    assert!(reuse.has_edge(n(a), n(b)));
                }
            }
        }
    }

    #[test]
    fn graph_serde_round_trips_without_the_cache() {
        let g = path4();
        let _ = g.diameter(); // warm the cache before serializing
        let v = g.to_value();
        let back = ReuseGraph::from_value(&v).unwrap();
        assert_eq!(g, back);
        assert_eq!(back.diameter(), 3); // recomputed lazily
    }
}
