//! Cache-coherence property: under *arbitrary* interleavings of weight
//! edits, weight-snapshot capture/restore, single and batched lookups,
//! cache clears, and lookups against an older graph lineage, every
//! ranking a [`SnapshotServer`] serves is **bit-identical**
//! (`f64::to_bits`) to an uncached [`kg_sim::rank_answers`] evaluation of
//! the same graph state — whether it came from a cache hit or a fresh
//! fill. Shard and worker counts are generated inputs, so the property
//! covers the single-shard and sharded layouts, inline and parallel
//! batch misses.
//!
//! This is the contract the whole serving design rests on — delta-based
//! eviction is only a performance trick if it can never serve a stale
//! ranking.

use kg_graph::{EdgeId, GraphBuilder, KnowledgeGraph, NodeId, NodeKind, WeightSnapshot};
use kg_serve::{ServeConfig, SnapshotServer};
use kg_sim::{rank_answers, BatchQuery, RankedAnswer, SimilarityConfig};
use proptest::prelude::*;
use std::collections::HashSet;

const N_QUERIES: usize = 4;
const N_HUBS: usize = 10;
const N_ANSWERS: usize = 5;

/// Builds a layered graph (queries → hubs → hubs/answers) from a raw
/// edge-selector list, so topology itself is property-generated.
fn build_graph(edge_picks: &[(u8, u8, f64)]) -> (KnowledgeGraph, Vec<NodeId>, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let queries: Vec<NodeId> = (0..N_QUERIES)
        .map(|i| b.add_node(format!("q{i}"), NodeKind::Query))
        .collect();
    let hubs: Vec<NodeId> = (0..N_HUBS)
        .map(|i| b.add_node(format!("h{i}"), NodeKind::Entity))
        .collect();
    let answers: Vec<NodeId> = (0..N_ANSWERS)
        .map(|i| b.add_node(format!("a{i}"), NodeKind::Answer))
        .collect();
    let mut seen = HashSet::new();
    // Guarantee every query reaches at least one hub and every hub one
    // answer, then sprinkle the generated edges on top.
    for (i, &q) in queries.iter().enumerate() {
        b.add_edge(q, hubs[i % N_HUBS], 0.5).unwrap();
        seen.insert((q, hubs[i % N_HUBS]));
    }
    for (i, &h) in hubs.iter().enumerate() {
        b.add_edge(h, answers[i % N_ANSWERS], 0.5).unwrap();
        seen.insert((h, answers[i % N_ANSWERS]));
    }
    for &(from_sel, to_sel, w) in edge_picks {
        // Sources: queries then hubs. Targets: hubs then answers.
        let from = if (from_sel as usize) < N_QUERIES {
            queries[from_sel as usize]
        } else {
            hubs[(from_sel as usize - N_QUERIES) % N_HUBS]
        };
        let to = if (to_sel as usize) < N_HUBS {
            hubs[to_sel as usize]
        } else {
            answers[(to_sel as usize - N_HUBS) % N_ANSWERS]
        };
        if from != to && seen.insert((from, to)) {
            b.add_edge(from, to, w).unwrap();
        }
    }
    (b.build(), queries, answers)
}

/// Bitwise comparison against the uncached oracle — `==` on `f64` would
/// let `-0.0`/`0.0` confusions slide.
fn bits_equal(served: &[RankedAnswer], oracle: &[RankedAnswer]) -> Result<(), String> {
    if served.len() != oracle.len() {
        return Err(format!(
            "length mismatch: served {} vs oracle {}",
            served.len(),
            oracle.len()
        ));
    }
    for (s, o) in served.iter().zip(oracle) {
        if s.node != o.node || s.rank != o.rank || s.score.to_bits() != o.score.to_bits() {
            return Err(format!("entry diverged: served {s:?} vs oracle {o:?}"));
        }
    }
    Ok(())
}

/// One step of the interleaving, decoded from generated integers:
/// `0` → set_weight, `1` → rank, `2` → batch rank, `3` → capture a
/// weight snapshot, `4` → restore the captured snapshot (the version
/// moves forward) and rank, `5` → rank against an older lineage (a clone
/// of the starting graph) and then the live graph, `6` → clear the cache.
type Op = (u8, u8, f64, u8);

fn arb_scenario() -> impl Strategy<Value = (Vec<(u8, u8, f64)>, Vec<Op>)> {
    (
        proptest::collection::vec(
            (
                0u8..(N_QUERIES + N_HUBS) as u8,
                0u8..(N_HUBS + N_ANSWERS) as u8,
                0.05f64..1.0,
            ),
            0..60,
        ),
        proptest::collection::vec((0u8..7, 0u8..64, 0.05f64..1.0, 1u8..6), 1..40),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn server_is_always_bit_identical_to_uncached_ranking(
        (edge_picks, ops) in arb_scenario(),
        shards in prop_oneof![Just(1usize), Just(16usize)],
        workers in 1usize..3,
    ) {
        let (mut graph, queries, answers) = build_graph(&edge_picks);
        let sim = SimilarityConfig::default();
        let server = SnapshotServer::new(ServeConfig { sim, workers, shards });
        let edge_ids: Vec<EdgeId> = graph.edges().map(|e| e.edge).collect();
        // The older lineage: same weights as the start, epoch behind the
        // live graph as soon as any edit lands.
        let stale = graph.publish();
        let mut captured: Option<WeightSnapshot> = None;
        let mut rank_ops = 0u64;

        for &(op, sel, weight, k) in &ops {
            let q = queries[sel as usize % queries.len()];
            let k = k as usize;
            match op {
                0 => {
                    let e = edge_ids[sel as usize % edge_ids.len()];
                    graph.set_weight(e, weight).unwrap();
                }
                1 => {
                    let snap = graph.publish();
                    let got = server.rank_at(&snap, q, &answers, k);
                    let want = rank_answers(&graph, q, &answers, &sim, k);
                    prop_assert!(bits_equal(&got, &want).is_ok(),
                        "rank: {}", bits_equal(&got, &want).unwrap_err());
                    rank_ops += 1;
                }
                2 => {
                    let snap = graph.publish();
                    let requests: Vec<BatchQuery> = queries
                        .iter()
                        .map(|&q| BatchQuery { query: q, answers: &answers, k })
                        .collect();
                    let got = server.rank_batch_at(&snap, &requests);
                    for (i, &q) in queries.iter().enumerate() {
                        let want = rank_answers(&graph, q, &answers, &sim, k);
                        prop_assert!(bits_equal(&got[i], &want).is_ok(),
                            "batch: {}", bits_equal(&got[i], &want).unwrap_err());
                    }
                    rank_ops += queries.len() as u64;
                }
                3 => captured = Some(WeightSnapshot::capture(&graph)),
                4 => {
                    if let Some(w) = &captured {
                        // Rolling weights back moves the version forward,
                        // so the sync must evict through the delta path
                        // and never serve the pre-restore scores.
                        w.restore(&mut graph);
                        let snap = graph.publish();
                        let got = server.rank_at(&snap, q, &answers, k);
                        let want = rank_answers(&graph, q, &answers, &sim, k);
                        prop_assert!(bits_equal(&got, &want).is_ok(),
                            "post-restore: {}", bits_equal(&got, &want).unwrap_err());
                        rank_ops += 1;
                    }
                }
                5 => {
                    // Shards never move backwards: the older snapshot is
                    // served by direct evaluation of its own weights,
                    // and the live graph is served coherently after it.
                    let got = server.rank_at(&stale, q, &answers, k);
                    let want = rank_answers(&stale, q, &answers, &sim, k);
                    prop_assert!(bits_equal(&got, &want).is_ok(),
                        "older lineage: {}", bits_equal(&got, &want).unwrap_err());
                    let snap = graph.publish();
                    let got = server.rank_at(&snap, q, &answers, k);
                    let want = rank_answers(&graph, q, &answers, &sim, k);
                    prop_assert!(bits_equal(&got, &want).is_ok(),
                        "back on live graph: {}", bits_equal(&got, &want).unwrap_err());
                    rank_ops += 2;
                }
                _ => server.clear(),
            }
        }
        // Every rank op is accounted for as exactly one hit or miss.
        let stats = server.stats();
        prop_assert_eq!(stats.hits + stats.misses, rank_ops);
    }
}

/// Pins that the interleavings above exercise eviction, not only cold
/// fills: a deterministic edit → re-rank loop on the same layered
/// topology keeps unaffected entries as hits and evicts the rest while
/// staying bit-identical. If a regression made every sync clear the
/// whole cache, the property would still pass but this fails.
#[test]
fn edit_rerank_loop_evicts_affected_and_retains_the_rest() {
    let (mut graph, queries, answers) = build_graph(&[]);
    let sim = SimilarityConfig::default();
    let server = SnapshotServer::new(ServeConfig {
        sim,
        ..Default::default()
    });
    let edge_ids: Vec<EdgeId> = graph.edges().map(|e| e.edge).collect();
    let snap = graph.publish();
    for &q in &queries {
        server.rank_at(&snap, q, &answers, answers.len());
    }
    for (i, &e) in edge_ids.iter().enumerate() {
        graph.set_weight(e, 0.05 + 0.09 * (i % 10) as f64).unwrap();
        let snap = graph.publish();
        for &q in &queries {
            let got = server.rank_at(&snap, q, &answers, answers.len());
            let want = rank_answers(&graph, q, &answers, &sim, answers.len());
            assert!(bits_equal(&got, &want).is_ok());
        }
    }
    let stats = server.stats();
    assert!(stats.invalidated > 0, "edits must evict (stats: {stats:?})");
    assert!(stats.retained > 0, "edits must retain (stats: {stats:?})");
    assert!(
        stats.hits > 0,
        "retained entries must hit (stats: {stats:?})"
    );
    assert_eq!(stats.full_clears, 0);
}
