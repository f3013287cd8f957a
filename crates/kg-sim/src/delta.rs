//! Incremental maintenance: which queries a weight change can affect.
//!
//! After an optimization pass adjusts a set of edges, a deployment with
//! cached rankings only needs to re-rank the queries whose similarity
//! could have moved. A query `q`'s scores depend exactly on the edges
//! reachable within `L` hops of `q` — i.e. edge `(u, v)` matters iff `u`
//! lies within `L − 1` hops of `q`. Walking *backward* from the changed
//! edges' sources finds all such queries in one sweep, regardless of how
//! many queries exist ([`affected_region`]; [`affected_queries`] filters
//! a query list by it). The serving cache evicts exactly those queries
//! and recomputes them on their next request.

use crate::config::SimilarityConfig;
use kg_graph::{EdgeId, KnowledgeGraph, NodeId};
use std::collections::HashSet;

/// Returns the subset of `queries` whose similarity scores can change
/// when the weights of `changed` edges change, under path bound
/// `cfg.max_path_len`. Output preserves the order of `queries`.
pub fn affected_queries(
    graph: &KnowledgeGraph,
    changed: &[EdgeId],
    queries: &[NodeId],
    cfg: &SimilarityConfig,
) -> Vec<NodeId> {
    if changed.is_empty() || queries.is_empty() {
        return Vec::new();
    }
    let region = affected_region(graph, changed, cfg);
    queries
        .iter()
        .copied()
        .filter(|q| region.contains(q))
        .collect()
}

/// Every node whose scores, as a query, can change when the weights of
/// `changed` edges change: the nodes within `L − 1` hops upstream of a
/// changed edge's source. [`affected_queries`] filters a query list by
/// this set; callers that test many query lists against one change set
/// compute it once.
pub fn affected_region(
    graph: &KnowledgeGraph,
    changed: &[EdgeId],
    cfg: &SimilarityConfig,
) -> HashSet<NodeId> {
    // Backward multi-source BFS from the changed edges' source nodes, up
    // to depth L-1 (a source at distance d from q puts the edge on walks
    // of length d+1 <= L).
    let mut reached: HashSet<NodeId> = HashSet::new();
    let mut frontier: Vec<NodeId> = Vec::new();
    for &e in changed {
        let (from, _) = graph.endpoints(e);
        if reached.insert(from) {
            frontier.push(from);
        }
    }
    let mut depth = 0usize;
    while !frontier.is_empty() && depth + 1 < cfg.max_path_len {
        depth += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in graph.in_row(v).0 {
                if reached.insert(u) {
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    reached
}

/// A capture of one [`crate::PhiWorkspace::rank_into_recorded`] pass:
/// every level's live frontier with its walk masses, and the resulting
/// phi scores. Filling it costs one append per frontier entry on top of
/// the plain kernel; nothing in the serving path reads it. It is kept so
/// the benchmark's per-layer Φ timing stays comparable across revisions.
#[derive(Debug, Clone, Default)]
pub struct PhiRecord {
    // Every level's live frontier, flattened into one arena of
    // `(node, mass)` pairs in frontier order. Level `l` spans
    // `level_entries[level_offsets[l]..level_offsets[l + 1]]`; level 0
    // is the query seed.
    level_entries: Vec<(NodeId, f64)>,
    level_offsets: Vec<u32>,
    // (node, phi) for exactly the touched set of the pass, in discovery
    // order.
    phi: Vec<(NodeId, f64)>,
}

impl PhiRecord {
    /// An empty record; fill it with
    /// [`crate::PhiWorkspace::rank_into_recorded`].
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn begin(&mut self, query: NodeId) {
        // Level 0: all mass on the query.
        self.level_entries.clear();
        self.level_offsets.clear();
        self.level_offsets.push(0);
        self.level_entries.push((query, 1.0));
        self.level_offsets.push(1);
    }

    pub(crate) fn push_level(&mut self, frontier: &[NodeId], mass: &[f64]) {
        self.level_entries
            .extend(frontier.iter().map(|&v| (v, mass[v.index()])));
        self.level_offsets.push(self.level_entries.len() as u32);
    }

    pub(crate) fn finish(&mut self, touched: &[NodeId], phi: &[f64]) {
        self.phi.clear();
        self.phi
            .extend(touched.iter().map(|&v| (v, phi[v.index()])));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_graph::{GraphBuilder, NodeKind};

    /// q1 -> a -> b -> c -> d (a chain), q2 -> d directly.
    fn chain() -> (KnowledgeGraph, Vec<NodeId>, Vec<EdgeId>) {
        let mut bld = GraphBuilder::new();
        let q1 = bld.add_node("q1", NodeKind::Query);
        let q2 = bld.add_node("q2", NodeKind::Query);
        let a = bld.add_node("a", NodeKind::Entity);
        let b = bld.add_node("b", NodeKind::Entity);
        let c = bld.add_node("c", NodeKind::Entity);
        let d = bld.add_node("d", NodeKind::Entity);
        let e0 = bld.add_edge(q1, a, 1.0).unwrap();
        let e1 = bld.add_edge(a, b, 1.0).unwrap();
        let e2 = bld.add_edge(b, c, 1.0).unwrap();
        let e3 = bld.add_edge(c, d, 1.0).unwrap();
        let e4 = bld.add_edge(q2, d, 1.0).unwrap();
        (bld.build(), vec![q1, q2], vec![e0, e1, e2, e3, e4])
    }

    #[test]
    fn nearby_change_affects_only_reaching_query() {
        let (g, queries, edges) = chain();
        let cfg = SimilarityConfig::new(0.15, 5);
        // a->b is 1 hop from q1 (on its walks), unreachable from q2.
        let hit = affected_queries(&g, &[edges[1]], &queries, &cfg);
        assert_eq!(hit, vec![queries[0]]);
    }

    #[test]
    fn change_beyond_l_hops_does_not_affect() {
        let (g, queries, edges) = chain();
        // c->d lies on q1-walks of length 4; with L = 3 it is out of range.
        let cfg = SimilarityConfig::new(0.15, 3);
        let hit = affected_queries(&g, &[edges[3]], &queries, &cfg);
        assert!(!hit.contains(&queries[0]), "{hit:?}");
        // q2 -> d: the edge c->d is NOT on q2's walks (q2 reaches d, but
        // c is not reachable from q2), so q2 is unaffected too.
        assert!(hit.is_empty(), "{hit:?}");
    }

    #[test]
    fn direct_edge_affects_its_query() {
        let (g, queries, edges) = chain();
        let cfg = SimilarityConfig::new(0.15, 2);
        let hit = affected_queries(&g, &[edges[4]], &queries, &cfg);
        assert_eq!(hit, vec![queries[1]]);
    }

    #[test]
    fn multiple_changes_union_their_queries() {
        let (g, queries, edges) = chain();
        let cfg = SimilarityConfig::new(0.15, 5);
        let hit = affected_queries(&g, &[edges[1], edges[4]], &queries, &cfg);
        assert_eq!(hit, queries);
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let (g, queries, edges) = chain();
        let cfg = SimilarityConfig::default();
        assert!(affected_queries(&g, &[], &queries, &cfg).is_empty());
        assert!(affected_queries(&g, &edges, &[], &cfg).is_empty());
    }

    use crate::workspace::PhiWorkspace;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_graph(seed: u64) -> (KnowledgeGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        let queries: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(format!("q{i}"), NodeKind::Query))
            .collect();
        let hubs: Vec<NodeId> = (0..14)
            .map(|i| b.add_node(format!("h{i}"), NodeKind::Entity))
            .collect();
        let answers: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(format!("a{i}"), NodeKind::Answer))
            .collect();
        for &q in &queries {
            for &h in &hubs {
                if rng.gen::<f64>() < 0.5 {
                    b.add_edge(q, h, rng.gen::<f64>() + 0.01).unwrap();
                }
            }
        }
        for &h in &hubs {
            for &h2 in &hubs {
                if h != h2 && rng.gen::<f64>() < 0.2 {
                    b.add_edge(h, h2, rng.gen::<f64>() + 0.01).unwrap();
                }
            }
            for &a in &answers {
                if rng.gen::<f64>() < 0.4 {
                    b.add_edge(h, a, rng.gen::<f64>() + 0.01).unwrap();
                }
            }
        }
        let mut g = b.build();
        g.normalize_out_edges();
        (g, queries, answers)
    }

    #[test]
    fn recorded_pass_is_bitwise_identical_to_plain_compute() {
        let cfg = SimilarityConfig::default();
        for seed in 0..5 {
            let (g, queries, answers) = random_graph(seed);
            let mut ws = PhiWorkspace::new();
            let mut record = PhiRecord::new();
            let (mut recorded, mut plain) = (Vec::new(), Vec::new());
            for &q in &queries {
                ws.rank_into_recorded(&g, q, &answers, &cfg, 4, &mut recorded, &mut record);
                // The record's score table is exactly the pass's touched set.
                assert_eq!(record.phi.len(), ws.reached().len());
                for &(v, phi) in &record.phi {
                    assert_eq!(phi.to_bits(), ws.phi(v).to_bits());
                }
                assert_eq!(record.level_entries[0], (q, 1.0));
                ws.rank_into(&g, q, &answers, &cfg, 4, &mut plain);
                assert_eq!(recorded, plain);
            }
        }
    }

    /// Soundness against the engine: if a query is NOT reported affected,
    /// changing the edge must not change any of its similarity scores.
    #[test]
    fn unaffected_queries_scores_are_invariant() {
        let (g, queries, edges) = chain();
        for l in 2..=5 {
            let cfg = SimilarityConfig::new(0.15, l);
            for &e in &edges {
                let hit = affected_queries(&g, &[e], &queries, &cfg);
                let mut g2 = g.clone();
                g2.set_weight(e, g.weight(e) * 0.5).unwrap();
                for &q in &queries {
                    if !hit.contains(&q) {
                        let before = crate::pdist::phi_vector(&g, q, &cfg);
                        let after = crate::pdist::phi_vector(&g2, q, &cfg);
                        assert_eq!(before, after, "edge {e:?}, L={l}, query {q}");
                    }
                }
            }
        }
    }
}
