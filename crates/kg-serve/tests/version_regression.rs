//! Version and lineage coherence of the [`SnapshotServer`]:
//!
//! * a weight-snapshot restore on the same graph moves the version
//!   *forward*, so it must ride the delta-eviction path;
//! * a snapshot from an *older* lineage (epoch behind the cache's) is
//!   served by direct, uncached evaluation — shards never move backwards;
//! * [`SnapshotServer::clear`] re-attaches the cache to such a lineage.
//!
//! In every case each ranking served must be byte-identical to an
//! uncached [`kg_sim::rank_answers`] evaluation.

use kg_graph::{
    EdgeId, GraphBuilder, GraphSnapshot, KnowledgeGraph, NodeId, NodeKind, WeightSnapshot,
};
use kg_serve::SnapshotServer;
use kg_sim::rank_answers;

fn scene() -> (KnowledgeGraph, NodeId, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let q = b.add_node("q", NodeKind::Query);
    let hubs: Vec<NodeId> = (0..4)
        .map(|i| b.add_node(format!("h{i}"), NodeKind::Entity))
        .collect();
    let answers: Vec<NodeId> = (0..3)
        .map(|i| b.add_node(format!("a{i}"), NodeKind::Answer))
        .collect();
    for (i, &h) in hubs.iter().enumerate() {
        b.add_edge(q, h, 0.2 + 0.1 * i as f64).unwrap();
        for (j, &a) in answers.iter().enumerate() {
            b.add_edge(h, a, 0.1 + 0.07 * ((i + j) % 5) as f64).unwrap();
        }
    }
    (b.build(), q, answers)
}

/// Bitwise comparison against the uncached oracle.
fn assert_matches_oracle(
    server: &SnapshotServer,
    snap: &GraphSnapshot,
    query: NodeId,
    answers: &[NodeId],
    context: &str,
) {
    let cfg = server.config().sim;
    let served = server.rank_at(snap, query, answers, answers.len());
    let oracle = rank_answers(snap, query, answers, &cfg, answers.len());
    assert_eq!(served.len(), oracle.len(), "{context}: length mismatch");
    for (s, o) in served.iter().zip(&oracle) {
        assert_eq!(s.node, o.node, "{context}: node order differs");
        assert_eq!(s.rank, o.rank, "{context}: rank differs");
        assert_eq!(
            s.score.to_bits(),
            o.score.to_bits(),
            "{context}: score must be byte-identical ({} vs {})",
            s.score,
            o.score
        );
    }
}

#[test]
fn older_lineage_is_served_uncached_until_clear() {
    let (mut graph, q, answers) = scene();
    // An old clone: same starting weights, but its epoch is behind the
    // mutated original's.
    let old = graph.publish();
    graph.set_weight(EdgeId(0), 0.9).unwrap();
    let new = graph.publish();
    assert!(old.epoch() < new.epoch());

    let server = SnapshotServer::default();
    assert_matches_oracle(&server, &new, q, &answers, "warm-up on new graph");
    assert_eq!(server.cached_queries(), 1);

    // The older snapshot is evaluated directly, twice, and never cached:
    // both reads are misses, and the newer entry survives them.
    for round in 0..2 {
        assert_matches_oracle(&server, &old, q, &answers, &format!("older, read {round}"));
    }
    let stats = server.stats();
    assert_eq!(stats.misses, 3, "older-lineage reads bypass the cache");
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.full_clears, 0);
    assert_matches_oracle(&server, &new, q, &answers, "new graph after stragglers");
    assert_eq!(server.stats().hits, 1, "the newer entry survived");

    // clear() re-attaches the cache to the older lineage: its second
    // read is a hit and still oracle-identical.
    server.clear();
    assert_eq!(server.stats().full_clears, 1);
    assert_eq!(server.cached_queries(), 0);
    assert_matches_oracle(&server, &old, q, &answers, "older, after clear");
    let hits_before = server.stats().hits;
    assert_matches_oracle(&server, &old, q, &answers, "older, cached");
    assert_eq!(server.stats().hits, hits_before + 1);
}

#[test]
fn snapshot_restore_invalidates_through_the_delta_path() {
    let (mut graph, q, answers) = scene();
    let weights = WeightSnapshot::capture(&graph);

    let server = SnapshotServer::default();
    assert_matches_oracle(&server, &graph.publish(), q, &answers, "initial weights");

    // Perturb, serve, then roll back via the snapshot. The restore moves
    // the version *forward* (kg-graph's restore re-writes weights), so
    // the server must evict through changes_since, not a full clear.
    graph.set_weight(EdgeId(0), 0.95).unwrap();
    assert_matches_oracle(&server, &graph.publish(), q, &answers, "perturbed weights");
    let before = server.stats();
    weights.restore(&mut graph);
    let restored = graph.publish();
    assert_matches_oracle(&server, &restored, q, &answers, "restored weights");
    let after = server.stats();
    assert!(
        after.invalidated > before.invalidated,
        "the restore must evict the perturbed entry"
    );
    assert_eq!(
        after.full_clears, before.full_clears,
        "forward-version restore must not need a full clear"
    );

    // The restored entry is now cached: a fresh server's uncached fill
    // on the restored graph agrees with it bit for bit.
    let cached = server.rank_at(&restored, q, &answers, answers.len());
    assert_eq!(server.stats().hits, after.hits + 1);
    let uncached = SnapshotServer::default().rank_at(&restored, q, &answers, answers.len());
    for (c, u) in cached.iter().zip(&uncached) {
        assert_eq!(c.node, u.node);
        assert_eq!(c.score.to_bits(), u.score.to_bits());
    }
}
