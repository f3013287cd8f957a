//! The core [`KnowledgeGraph`] type: immutable CSR topology with mutable
//! edge weights.

use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Role of a node in the *augmented* knowledge graph of the paper
/// (Section III-A): entity nodes form `V`; query and answer nodes are
/// linked into the graph but `Q ∩ V = ∅` and `A ∩ V = ∅`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// An entity of the knowledge graph proper.
    Entity,
    /// A query node `v_q` attached for answering a question.
    Query,
    /// An answer node `v_a` (e.g. a HELP document).
    Answer,
}

/// A resolved view of one directed edge: endpoints, id and current weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Edge identifier (index into the weight vector).
    pub edge: EdgeId,
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Current weight `w(from, to)`.
    pub weight: f64,
}

/// A weighted directed knowledge graph `G = (V, E, W)`.
///
/// Topology (nodes, edges) is fixed at construction time by
/// [`crate::GraphBuilder`]; edge weights are mutable because the voting
/// framework optimizes them. Both adjacency directions are stored in CSR
/// form; weights live in one dense vector indexed by [`EdgeId`].
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    pub(crate) labels: Vec<String>,
    pub(crate) kinds: Vec<NodeKind>,
    // Out-direction CSR.
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<NodeId>,
    pub(crate) out_edge_ids: Vec<EdgeId>,
    // Slot-aligned copy of the weights, parallel to `out_targets`, so the
    // phi kernel walks one contiguous row per source instead of chasing
    // `weights[edge_id]` through the id indirection. Kept coherent with
    // `weights` by `write_weight` (the single mutation funnel).
    pub(crate) out_weights: Vec<f64>,
    // EdgeId -> slot in the out-CSR, for updating `out_weights` on writes.
    pub(crate) edge_out_slot: Vec<u32>,
    // In-direction CSR.
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_sources: Vec<NodeId>,
    pub(crate) in_edge_ids: Vec<EdgeId>,
    // Per-edge data.
    pub(crate) edge_from: Vec<NodeId>,
    pub(crate) edge_to: Vec<NodeId>,
    pub(crate) weights: Vec<f64>,
    // (from, to) -> edge lookup.
    pub(crate) edge_index: HashMap<(u32, u32), EdgeId>,
    // label -> node lookup.
    pub(crate) label_index: HashMap<String, NodeId>,
    // Monotonic weight-mutation counter (0 = as built). Every effective
    // weight change bumps it by one and stamps the edge in `last_changed`,
    // so callers can ask "what moved since version v?" in O(|E|) with no
    // unbounded changelog.
    pub(crate) version: u64,
    pub(crate) last_changed: Vec<u64>,
}

impl KnowledgeGraph {
    /// Number of nodes (entities, queries and answers together).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.weights.len()
    }

    /// All node ids, in dense order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Node ids of the given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter(move |(_, k)| **k == kind)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// The label of a node.
    pub fn label(&self, node: NodeId) -> &str {
        &self.labels[node.index()]
    }

    /// The kind (entity / query / answer) of a node.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// Look a node up by its label. Labels are unique per graph.
    pub fn find_node(&self, label: &str) -> Option<NodeId> {
        self.label_index.get(label).copied()
    }

    /// Returns true if `node` is a valid id for this graph.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    /// Validates a node id.
    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.contains(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node,
                node_count: self.node_count(),
            })
        }
    }

    /// Out-degree of a node.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        let i = node.index();
        (self.out_offsets[i + 1] - self.out_offsets[i]) as usize
    }

    /// In-degree of a node.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        let i = node.index();
        (self.in_offsets[i + 1] - self.in_offsets[i]) as usize
    }

    /// Iterate the out-edges of `node` as [`EdgeRef`]s.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let i = node.index();
        let lo = self.out_offsets[i] as usize;
        let hi = self.out_offsets[i + 1] as usize;
        (lo..hi).map(move |slot| {
            let edge = self.out_edge_ids[slot];
            EdgeRef {
                edge,
                from: node,
                to: self.out_targets[slot],
                weight: self.weights[edge.index()],
            }
        })
    }

    /// The out-adjacency row of `node` as two slot-aligned slices:
    /// targets and the corresponding current weights, sorted by target id.
    /// This is the phi kernel's data layout — one contiguous scan per
    /// frontier node, no per-edge id indirection. The weight values are
    /// identical (bitwise) to reading [`Self::weight`] per edge.
    #[inline]
    pub fn out_row(&self, node: NodeId) -> (&[NodeId], &[f64]) {
        let i = node.index();
        let lo = self.out_offsets[i] as usize;
        let hi = self.out_offsets[i + 1] as usize;
        (&self.out_targets[lo..hi], &self.out_weights[lo..hi])
    }

    /// The in-adjacency row of `node`: sources and the connecting edge
    /// ids, sorted by source id. Used by the serving cache's backward
    /// affected-region search to walk predecessors without building
    /// [`EdgeRef`]s.
    #[inline]
    pub fn in_row(&self, node: NodeId) -> (&[NodeId], &[EdgeId]) {
        let i = node.index();
        let lo = self.in_offsets[i] as usize;
        let hi = self.in_offsets[i + 1] as usize;
        (&self.in_sources[lo..hi], &self.in_edge_ids[lo..hi])
    }

    /// Iterate the in-edges of `node` as [`EdgeRef`]s.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let i = node.index();
        let lo = self.in_offsets[i] as usize;
        let hi = self.in_offsets[i + 1] as usize;
        (lo..hi).map(move |slot| {
            let edge = self.in_edge_ids[slot];
            EdgeRef {
                edge,
                from: self.in_sources[slot],
                to: node,
                weight: self.weights[edge.index()],
            }
        })
    }

    /// Iterate over every edge in id order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.edge_count() as u32).map(move |e| {
            let edge = EdgeId(e);
            EdgeRef {
                edge,
                from: self.edge_from[e as usize],
                to: self.edge_to[e as usize],
                weight: self.weights[e as usize],
            }
        })
    }

    /// Look up the edge `from -> to`, if present.
    pub fn edge_between(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.edge_index.get(&(from.0, to.0)).copied()
    }

    /// Endpoints `(from, to)` of an edge.
    #[inline]
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        (self.edge_from[edge.index()], self.edge_to[edge.index()])
    }

    /// Current weight of an edge.
    #[inline]
    pub fn weight(&self, edge: EdgeId) -> f64 {
        self.weights[edge.index()]
    }

    /// Weight of the edge `from -> to`; `0.0` when the edge is absent
    /// (matching the paper's convention that missing paths contribute
    /// nothing to the extended inverse P-distance).
    pub fn weight_between(&self, from: NodeId, to: NodeId) -> f64 {
        self.edge_between(from, to)
            .map_or(0.0, |e| self.weights[e.index()])
    }

    /// Set the weight of an edge. Weights must be finite and non-negative.
    /// An effective change (the stored value actually moves) bumps
    /// [`Self::version`] and stamps the edge for [`Self::changes_since`];
    /// writing the current value back is free.
    pub fn set_weight(&mut self, edge: EdgeId, weight: f64) -> Result<(), GraphError> {
        if !weight.is_finite() || weight < 0.0 {
            let (from, to) = self.endpoints(edge);
            return Err(GraphError::InvalidWeight { from, to, weight });
        }
        if self.weights[edge.index()] != weight {
            self.write_weight(edge, weight);
            self.mark_changed(edge);
        }
        Ok(())
    }

    /// Stores a weight into both the id-indexed vector and its
    /// slot-aligned out-CSR mirror. Every weight mutation must go through
    /// here so the two views cannot drift.
    pub(crate) fn write_weight(&mut self, edge: EdgeId, weight: f64) {
        self.weights[edge.index()] = weight;
        self.out_weights[self.edge_out_slot[edge.index()] as usize] = weight;
    }

    /// Stamps `edge` as changed at a freshly bumped version.
    pub(crate) fn mark_changed(&mut self, edge: EdgeId) {
        self.version += 1;
        self.last_changed[edge.index()] = self.version;
    }

    /// Monotonic counter of effective weight mutations. `0` for a freshly
    /// built (or deserialized) graph; bumped by [`Self::set_weight`],
    /// normalization and snapshot restore. Cloning preserves it, so a
    /// clone continues the original's version lineage.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Advances the version counter to `v` without touching any weight.
    ///
    /// This exists for point-in-time recovery: WAL replay applies the
    /// recorded weight values through [`Self::set_weight`], which bumps
    /// the counter once per *changed* edge — fewer bumps than the
    /// writing process performed when an edge moved several times
    /// between commits (or when replay lands on weights the graph
    /// already has). Fast-forwarding re-aligns the recovered graph with
    /// the version the WAL commit recorded, so subsequent appends
    /// continue the same lineage.
    ///
    /// # Panics
    /// Panics if `v` is older than the current version — rewinding
    /// would break the monotonicity [`Self::changes_since`] callers
    /// rely on.
    pub fn fast_forward_version(&mut self, v: u64) {
        assert!(
            v >= self.version,
            "cannot rewind graph version {} to {v}",
            self.version
        );
        self.version = v;
    }

    /// Read-only access to the full weight vector, indexed by [`EdgeId`].
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Sum of out-edge weights of a node.
    pub fn out_weight_sum(&self, node: NodeId) -> f64 {
        self.out_edges(node).map(|e| e.weight).sum()
    }

    /// Normalize the out-edge weights of every node so they sum to one
    /// (nodes without out-edges, or whose weights sum to zero, are left
    /// untouched). This is the `NormalizeEdges` step of Algorithm 1.
    pub fn normalize_out_edges(&mut self) {
        let n = self.node_count() as u32;
        for v in 0..n {
            self.normalize_node(NodeId(v));
        }
    }

    /// Normalize the out-edges of a single node (see
    /// [`Self::normalize_out_edges`]).
    pub fn normalize_node(&mut self, node: NodeId) {
        let i = node.index();
        let lo = self.out_offsets[i] as usize;
        let hi = self.out_offsets[i + 1] as usize;
        let sum: f64 = self.out_edge_ids[lo..hi]
            .iter()
            .map(|e| self.weights[e.index()])
            .sum();
        if sum > 0.0 && sum.is_finite() {
            for slot in lo..hi {
                let e = self.out_edge_ids[slot];
                let scaled = self.weights[e.index()] / sum;
                if self.weights[e.index()] != scaled {
                    self.write_weight(e, scaled);
                    self.mark_changed(e);
                }
            }
        }
    }

    /// True when every node with at least one out-edge has out-weights
    /// summing to one within `tol`.
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        self.nodes().all(|v| {
            if self.out_degree(v) == 0 {
                return true;
            }
            (self.out_weight_sum(v) - 1.0).abs() <= tol
        })
    }

    /// The edges whose weight changed after version `since`, as a
    /// [`crate::WeightDelta`] covering `since .. self.version()`. Edges
    /// are reported in id order. `changes_since(0)` lists every edge ever
    /// mutated; `changes_since(self.version())` is empty.
    pub fn changes_since(&self, since: u64) -> crate::WeightDelta {
        let edges = if since >= self.version {
            Vec::new()
        } else {
            self.last_changed
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v > since)
                .map(|(i, _)| EdgeId(i as u32))
                .collect()
        };
        crate::WeightDelta {
            from_version: since,
            to_version: self.version,
            edges,
        }
    }

    /// Validates a pair of nodes and returns the connecting edge, erroring
    /// with a descriptive [`GraphError`] when absent.
    pub fn require_edge(&self, from: NodeId, to: NodeId) -> Result<EdgeId, GraphError> {
        self.check_node(from)?;
        self.check_node(to)?;
        self.edge_between(from, to)
            .ok_or(GraphError::EdgeNotFound { from, to })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> KnowledgeGraph {
        // q -> a, q -> b, a -> t, b -> t
        let mut b = GraphBuilder::new();
        let q = b.add_node("q", NodeKind::Query);
        let x = b.add_node("x", NodeKind::Entity);
        let y = b.add_node("y", NodeKind::Entity);
        let t = b.add_node("t", NodeKind::Answer);
        b.add_edge(q, x, 0.6).unwrap();
        b.add_edge(q, y, 0.4).unwrap();
        b.add_edge(x, t, 1.0).unwrap();
        b.add_edge(y, t, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_lookup() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.find_node("x"), Some(NodeId(1)));
        assert_eq!(g.find_node("missing"), None);
        assert_eq!(g.label(NodeId(3)), "t");
        assert_eq!(g.kind(NodeId(0)), NodeKind::Query);
        assert_eq!(g.kind(NodeId(3)), NodeKind::Answer);
    }

    #[test]
    fn adjacency_both_directions() {
        let g = diamond();
        let q = g.find_node("q").unwrap();
        let t = g.find_node("t").unwrap();
        let out: Vec<_> = g.out_edges(q).map(|e| g.label(e.to).to_string()).collect();
        assert_eq!(out, vec!["x", "y"]);
        let inn: Vec<_> = g.in_edges(t).map(|e| g.label(e.from).to_string()).collect();
        assert_eq!(inn, vec!["x", "y"]);
        assert_eq!(g.out_degree(q), 2);
        assert_eq!(g.in_degree(t), 2);
        assert_eq!(g.out_degree(t), 0);
    }

    #[test]
    fn weight_mutation_is_validated() {
        let mut g = diamond();
        let e = g
            .edge_between(g.find_node("q").unwrap(), g.find_node("x").unwrap())
            .unwrap();
        g.set_weight(e, 0.9).unwrap();
        assert_eq!(g.weight(e), 0.9);
        assert!(g.set_weight(e, f64::NAN).is_err());
        assert!(g.set_weight(e, -0.1).is_err());
        // Failed set leaves the old value.
        assert_eq!(g.weight(e), 0.9);
    }

    #[test]
    fn weight_between_returns_zero_for_missing_edges() {
        let g = diamond();
        let q = g.find_node("q").unwrap();
        let t = g.find_node("t").unwrap();
        assert_eq!(g.weight_between(t, q), 0.0);
        assert!(g.weight_between(q, g.find_node("x").unwrap()) > 0.0);
    }

    #[test]
    fn normalization_makes_rows_stochastic() {
        let mut g = diamond();
        let q = g.find_node("q").unwrap();
        let e = g.edge_between(q, g.find_node("x").unwrap()).unwrap();
        g.set_weight(e, 3.0).unwrap();
        assert!(!g.is_row_stochastic(1e-12));
        g.normalize_out_edges();
        assert!(g.is_row_stochastic(1e-12));
        assert!((g.out_weight_sum(q) - 1.0).abs() < 1e-12);
        // Relative proportions preserved: 3.0 vs 0.4.
        let wx = g.weight_between(q, g.find_node("x").unwrap());
        let wy = g.weight_between(q, g.find_node("y").unwrap());
        assert!((wx / wy - 3.0 / 0.4).abs() < 1e-9);
    }

    #[test]
    fn normalization_skips_sinks_and_zero_rows() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", NodeKind::Entity);
        let t = b.add_node("sink", NodeKind::Entity);
        b.add_edge(a, t, 0.0).unwrap();
        let mut g = b.build();
        g.normalize_out_edges();
        // Zero row untouched, sink has no out edges: still "stochastic".
        assert_eq!(g.weight_between(a, t), 0.0);
        assert!(g.is_row_stochastic(1e-12) || g.out_weight_sum(a) == 0.0);
    }

    #[test]
    fn require_edge_errors() {
        let g = diamond();
        let q = g.find_node("q").unwrap();
        let t = g.find_node("t").unwrap();
        assert!(g.require_edge(q, t).is_err());
        assert!(g.require_edge(NodeId(99), t).is_err());
        assert!(g.require_edge(q, g.find_node("x").unwrap()).is_ok());
    }

    #[test]
    fn edges_iterates_in_id_order() {
        let g = diamond();
        let ids: Vec<u32> = g.edges().map(|e| e.edge.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    /// The slot-aligned weight mirror must track every mutation funnel:
    /// set_weight, normalization, and snapshot restore.
    #[test]
    fn out_row_stays_coherent_with_edge_weights() {
        let assert_coherent = |g: &KnowledgeGraph| {
            for v in g.nodes() {
                let (targets, weights) = g.out_row(v);
                let via_edges: Vec<(NodeId, f64)> =
                    g.out_edges(v).map(|e| (e.to, e.weight)).collect();
                let via_row: Vec<(NodeId, f64)> = targets
                    .iter()
                    .copied()
                    .zip(weights.iter().copied())
                    .collect();
                assert_eq!(via_row, via_edges, "node {v}");
            }
        };
        let mut g = diamond();
        assert_coherent(&g);
        let snap = crate::WeightSnapshot::capture(&g);
        g.set_weight(EdgeId(0), 0.9).unwrap();
        assert_coherent(&g);
        g.normalize_out_edges();
        assert_coherent(&g);
        snap.restore(&mut g);
        assert_coherent(&g);
        assert_eq!(g.weight(EdgeId(0)), 0.6);
    }

    #[test]
    fn in_row_matches_in_edges() {
        let g = diamond();
        let t = g.find_node("t").unwrap();
        let (sources, edge_ids) = g.in_row(t);
        let via_edges: Vec<(NodeId, EdgeId)> = g.in_edges(t).map(|e| (e.from, e.edge)).collect();
        let via_row: Vec<(NodeId, EdgeId)> = sources
            .iter()
            .copied()
            .zip(edge_ids.iter().copied())
            .collect();
        assert_eq!(via_row, via_edges);
    }

    #[test]
    fn nodes_of_kind_filters() {
        let g = diamond();
        assert_eq!(g.nodes_of_kind(NodeKind::Entity).count(), 2);
        assert_eq!(g.nodes_of_kind(NodeKind::Query).count(), 1);
        assert_eq!(g.nodes_of_kind(NodeKind::Answer).count(), 1);
    }
}
