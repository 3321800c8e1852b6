//! The network-side inputs a scheduler needs, precomputed once.

use wsan_net::{CappedHops, ChannelSet, HopMatrix, ReuseGraph, Topology};

/// Precomputed network model handed to schedulers: the channel reuse graph's
/// all-pairs hop distances, its diameter `λ_R`, and the channel count `|M|`.
///
/// Building this once per (topology, channel set) amortizes the BFS work the
/// channel constraints query on every candidate slot. Distances are stored
/// as a [`CappedHops`] table built in exact mode (`cap ≥ λ_R + 1`), so every
/// query the schedulers, validator, and metrics layer make answers exactly
/// as the dense matrix would, at a quarter of the memory (DESIGN.md §16).
#[derive(Debug, Clone)]
pub struct NetworkModel {
    hops: CappedHops,
    lambda_r: u32,
    channels: usize,
    node_count: usize,
}

impl NetworkModel {
    /// Derives the model from a topology and the channels in use.
    pub fn new(topology: &Topology, channels: &ChannelSet) -> Self {
        let reuse = topology.reuse_graph(channels);
        Self::from_reuse_graph(&reuse, channels.len())
    }

    /// Derives the model from an already-built reuse graph.
    pub fn from_reuse_graph(reuse: &ReuseGraph, channels: usize) -> Self {
        Self::from_reuse_graph_jobs(reuse, channels, 1)
    }

    /// [`from_reuse_graph`](Self::from_reuse_graph) with the all-pairs BFS
    /// fanned out over up to `jobs` workers (`0` = all cores). The result
    /// is byte-identical for any `jobs`.
    pub fn from_reuse_graph_jobs(reuse: &ReuseGraph, channels: usize, jobs: usize) -> Self {
        let hops = reuse.exact_hops(jobs);
        let lambda_r = hops.diameter();
        NetworkModel { hops, lambda_r, channels, node_count: reuse.node_count() }
    }

    /// Builds the model from an externally computed hop matrix — e.g.
    /// whole-plant reuse distances restricted to one shard's nodes, where
    /// building the matrix from an induced subgraph would *overstate*
    /// distances (paths through other shards are invisible) and make reuse
    /// decisions unsound.
    pub fn from_hops(hops: HopMatrix, node_count: usize, channels: usize) -> Self {
        Self::from_capped(CappedHops::from_dense(&hops), node_count, channels)
    }

    /// [`from_hops`](Self::from_hops) for distances already in capped form.
    /// `λ_R` is taken from [`CappedHops::diameter`], so the table should be
    /// exact (unsaturated, or saturated only beyond every finite distance
    /// of interest) for the model to match the dense path.
    ///
    /// The table need not cover the whole network, only every node the
    /// flows and the schedule use. `λ_R` is then the largest distance
    /// among those nodes, which may lie below the network's diameter
    /// without changing a schedule (see [`lambda_r`](Self::lambda_r)).
    /// [`crate::shard`] builds its models this way, over the nodes a
    /// shard's flows name.
    pub fn from_capped(hops: CappedHops, node_count: usize, channels: usize) -> Self {
        let lambda_r = hops.diameter();
        NetworkModel { hops, lambda_r, channels, node_count }
    }

    /// All-pairs hop distances on the channel reuse graph, saturated at the
    /// table's cap (exact for every distance the schedulers query).
    pub fn hops(&self) -> &CappedHops {
        &self.hops
    }

    /// The reuse-graph diameter `λ_R` — the largest hop distance Algorithm 1
    /// starts from when it first introduces reuse.
    ///
    /// Only RC reads it, as the first `ρ` below `∞`. Any value at or above
    /// `D`, the largest distance among the nodes the flows and the schedule
    /// use, gives RC the same placements: at any `ρ > D` the channel
    /// constraint rejects every occupied cell, so `find_slot` returns its
    /// `Rho::NoReuse` answer, and RC's steps from a larger `λ_R` down to
    /// `D + 1` re-find the slot it already holds, whose laxity it has
    /// already computed. Only RC's `rc.rho_shrinks` counter and its
    /// `rc.laxity_at_shrink` histogram see those steps. A model built by
    /// [`from_capped`](Self::from_capped) over a subset of the nodes
    /// relies on this.
    pub fn lambda_r(&self) -> u32 {
        self.lambda_r
    }

    /// Number of channels `|M|` (= number of channel offsets).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Returns a copy of the model with a different channel count (the
    /// evaluation sweeps `|M|` over one topology).
    pub fn with_channels(&self, channels: usize) -> Self {
        NetworkModel { channels, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_net::NodeId;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn model_from_path_graph() {
        let reuse = ReuseGraph::from_edges(4, &[(n(0), n(1)), (n(1), n(2)), (n(2), n(3))]);
        let m = NetworkModel::from_reuse_graph(&reuse, 3);
        assert_eq!(m.lambda_r(), 3);
        assert_eq!(m.channels(), 3);
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.hops().hops(n(0), n(2)), 2);
    }

    #[test]
    fn with_channels_overrides_only_channel_count() {
        let reuse = ReuseGraph::from_edges(3, &[(n(0), n(1)), (n(1), n(2))]);
        let m = NetworkModel::from_reuse_graph(&reuse, 4);
        let m2 = m.with_channels(8);
        assert_eq!(m2.channels(), 8);
        assert_eq!(m2.lambda_r(), m.lambda_r());
    }

    #[test]
    fn parallel_model_build_matches_sequential() {
        let edges: Vec<_> = (0..99).map(|i| (n(i), n(i + 1))).collect();
        let reuse = ReuseGraph::from_edges(100, &edges);
        let seq = NetworkModel::from_reuse_graph_jobs(&reuse, 4, 1);
        let par = NetworkModel::from_reuse_graph_jobs(&reuse, 4, 4);
        assert_eq!(seq.lambda_r(), par.lambda_r());
        assert_eq!(seq.hops(), par.hops());
    }

    #[test]
    fn dense_shim_matches_capped_queries() {
        let reuse = ReuseGraph::from_edges(4, &[(n(0), n(1)), (n(1), n(2)), (n(2), n(3))]);
        let dense = NetworkModel::from_hops(reuse.hop_matrix(), 4, 3);
        let capped = NetworkModel::from_reuse_graph(&reuse, 3);
        assert_eq!(dense.lambda_r(), capped.lambda_r());
        for a in 0..4 {
            for b in 0..4 {
                for rho in 0..5 {
                    assert_eq!(
                        dense.hops().at_least(n(a), n(b), rho),
                        capped.hops().at_least(n(a), n(b), rho)
                    );
                }
            }
        }
    }
}
