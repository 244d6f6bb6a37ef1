//! The bounded-word index against its specification.
//!
//! Per node and bound the index must hold exactly the node's bounded
//! language — the words of all its walks of length `1..=bound`, what
//! `PathEnumerator::new(bound).with_max_paths(usize::MAX)` yields, with no
//! walk cap — with postings that are its transpose; a smaller bound must be the
//! restriction of a larger one; one node's words at any length, cut from or
//! derived past an index at any bound, must be its bounded language too; an
//! inherited index must equal a cold build;
//! and the pruning refresh that walks its postings must keep the scores of
//! the reference, a rescan of every node's enumerated words.

use gps_graph::{
    CsrGraph, DeltaGraph, Graph, LabelId, NodeId, PathEnumerator, Word, DEFAULT_MAX_PATHS,
};
use gps_interactive::pruning::PruningState;
use gps_learner::ExampleSet;
use gps_rpq::{EvalCache, EvalHandle, NegativeCoverage, WordIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A random multigraph: cycles and parallel edges arise freely, the last
/// fifth of the nodes are sinks or isolated.
fn random_graph(rng: &mut StdRng, nodes: usize, edges: usize, labels: usize) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..nodes).map(|i| g.add_node(format!("v{i}"))).collect();
    let sources = nodes - nodes / 5;
    for _ in 0..edges {
        let source = ids[rng.gen_range(0..sources)];
        let target = ids[rng.gen_range(0..nodes - nodes / 10)];
        let label = format!("l{}", rng.gen_range(0..labels));
        g.add_edge_by_name(source, &label, target);
    }
    g
}

fn index_words(index: &WordIndex, node: NodeId) -> Vec<Word> {
    index[node.index()].iter().map(<[_]>::to_vec).collect()
}

/// The uncapped enumerator's words in the index's (length, labels) order.
fn enumerated(graph: &CsrGraph, node: NodeId, bound: usize) -> Vec<Word> {
    let mut words: Vec<Word> = PathEnumerator::new(bound)
        .with_max_paths(usize::MAX)
        .words_from(graph, node)
        .into_iter()
        .collect();
    words.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    words
}

/// Word → spellers, from the per-node lists.
fn transposed(index: &WordIndex) -> BTreeMap<Word, Vec<NodeId>> {
    let mut spellers: BTreeMap<Word, Vec<NodeId>> = BTreeMap::new();
    for node in 0..index.len() {
        for word in &index[node] {
            spellers
                .entry(word.to_vec())
                .or_default()
                .push(NodeId::from(node));
        }
    }
    spellers
}

/// Everything the index promises about `csr` at `bound`.
fn assert_index_matches(context: &str, index: &WordIndex, csr: &CsrGraph, bound: usize) {
    assert_eq!(index.len(), csr.node_count(), "{context}");
    assert_eq!(index.bound(), bound, "{context}");
    for node in csr.nodes() {
        let expected = enumerated(csr, node, bound);
        assert_eq!(index_words(index, node), expected, "{context}: node {node}");
        assert_eq!(
            index[node.index()].len(),
            expected.len(),
            "{context}: node {node}"
        );
    }
    // Postings are the transpose; dictionary words nobody spells (within
    // this bound) have none.
    let spellers = transposed(index);
    let dict = index.dict();
    for id in 0..dict.len() as u32 {
        let word = dict.word(id);
        let expected = spellers.get(word).map_or(&[][..], Vec::as_slice);
        assert_eq!(index.spellers(word), expected, "{context}: word {word:?}");
    }
    for word in spellers.keys() {
        assert!(dict.id_of(word).is_some(), "{context}: {word:?} interned");
    }
}

#[test]
fn index_equals_the_enumerator_and_its_transpose_at_every_bound() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, 30, 30 + 6 * seed as usize, 3);
        let csr = CsrGraph::from_graph(&graph);
        let largest = WordIndex::build(&csr, 6);
        for bound in 1..=6usize {
            let context = format!("seed {seed}, bound {bound}");
            let built = WordIndex::build(&csr, bound);
            assert_index_matches(&context, &built, &csr, bound);
            // A smaller bound is the larger index cut at that length.
            let restricted = largest.restricted(bound);
            assert_index_matches(&format!("{context} (restricted)"), &restricted, &csr, bound);
        }
        // The cache serves counts and restrictions from one derivation.
        let cache = EvalCache::from_csr(csr.clone());
        cache.bounded_words(4);
        for bound in [4usize, 2, 3] {
            let counts = cache.bounded_word_counts(bound);
            for node in csr.nodes() {
                assert_eq!(
                    counts[node.index()] as usize,
                    enumerated(&csr, node, bound).len(),
                    "seed {seed}, bound {bound}, node {node}"
                );
            }
            assert_eq!(cache.words_bound(), Some(4));
        }
    }
}

/// One node's words at any length, from an index at any bound — cut below
/// the bound, derived for that node alone above it — are the uncapped
/// enumerator's; a restricted view reads the same as a build at its bound.
#[test]
fn words_within_any_length_equal_the_enumerator_from_every_bound() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, 24, 36 + 6 * seed as usize, 3);
        let csr = CsrGraph::from_graph(&graph);
        let largest = WordIndex::build(&csr, 4);
        for bound in 0..=4usize {
            let built = WordIndex::build(&csr, bound);
            let restricted = largest.restricted(bound);
            for node in csr.nodes() {
                for length in 0..=6usize {
                    let expected = enumerated(&csr, node, length);
                    let context =
                        format!("seed {seed}, bound {bound}, node {node}, length {length}");
                    assert_eq!(
                        built.words_within(&csr, node, length),
                        expected,
                        "{context}"
                    );
                    assert_eq!(
                        restricted.words_within(&csr, node, length),
                        expected,
                        "{context} (restricted)"
                    );
                }
            }
        }
    }
}

#[test]
fn nodes_over_the_enumerators_walk_cap_hold_their_complete_language() {
    // A hub pointing 24 times into a 6-clique with 3 parallel labels has
    // 24·18³ walks of length 4: a default enumerator stops at its cap.  The
    // hub's last edge leads down a `z` chain, so the walk spelling x·z·z·z is
    // the last one of the breadth-first order — the one the cap cuts, and
    // the index keeps.
    let mut g = Graph::new();
    let clique: Vec<NodeId> = (0..6).map(|i| g.add_node(format!("c{i}"))).collect();
    for &a in &clique {
        for &b in &clique {
            for label in ["l0", "l1", "l2"] {
                g.add_edge_by_name(a, label, b);
            }
        }
    }
    let hub = g.add_node("hub");
    for (i, &c) in clique.iter().cycle().take(24).enumerate() {
        g.add_edge_by_name(hub, ["l0", "l1", "l2"][i % 3], c);
    }
    let chain: Vec<NodeId> = (0..4).map(|i| g.add_node(format!("t{i}"))).collect();
    g.add_edge_by_name(hub, "x", chain[0]);
    for pair in chain.windows(2) {
        g.add_edge_by_name(pair[0], "z", pair[1]);
    }
    // One step before the hub: under the cap itself; its words extend the
    // hub's length-3 words.
    let before = g.add_node("before");
    g.add_edge_by_name(before, "y", hub);
    let csr = CsrGraph::from_graph(&g);

    let bound = 4;
    assert_eq!(
        PathEnumerator::new(bound).paths_from(&csr, hub).len(),
        DEFAULT_MAX_PATHS,
        "the hub is over the cap"
    );
    assert!(PathEnumerator::new(bound).paths_from(&csr, before).len() < DEFAULT_MAX_PATHS);
    let index = WordIndex::build(&csr, bound);
    assert_index_matches("over the cap", &index, &csr, bound);

    let label = |name: &str| csr.labels().get(name).unwrap();
    let (x, y, z) = (label("x"), label("y"), label("z"));
    let cut: Vec<LabelId> = vec![x, z, z, z];
    assert!(
        !PathEnumerator::new(bound)
            .words_from(&csr, hub)
            .contains(&cut),
        "the default cap cuts the hub's last walk"
    );
    assert!(
        index_words(&index, hub).contains(&cut),
        "the index holds the walk the cap cuts"
    );
    assert!(index_words(&index, before).contains(&vec![y, x, z, z]));
    // Restriction keeps the complete language at every smaller bound.
    for smaller in 1..bound {
        assert_index_matches(
            &format!("over the cap, restricted to {smaller}"),
            &index.restricted(smaller),
            &csr,
            smaller,
        );
    }
}

#[test]
fn inherited_indexes_equal_cold_builds_across_chained_deltas() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let graph = random_graph(&mut rng, 40, 70, 3);
        let mut snapshot = Arc::new(CsrGraph::from_graph(&graph));
        let mut cache = EvalCache::from_csr((*snapshot).clone());
        cache.bounded_words(4);
        cache.bounded_words(2);
        for round in 0..8 {
            let mut overlay = DeltaGraph::new(Arc::clone(&snapshot));
            let mut nodes: Vec<NodeId> = snapshot.nodes().collect();
            for i in 0..rng.gen_range(0..3usize) {
                nodes.push(overlay.add_node(format!("s{seed}r{round}n{i}")));
            }
            // Removals first (of base edges), then inserts — some between
            // old nodes, some on the new ones, every other round on a label
            // the graph has never seen.
            for _ in 0..rng.gen_range(0..4usize) {
                let source = NodeId::from(rng.gen_range(0..snapshot.node_count()));
                if let Some(entry) = snapshot.out(source).first().copied() {
                    overlay.remove_edge(source, entry.label, entry.node);
                }
            }
            for _ in 0..rng.gen_range(1..5usize) {
                let name = if round % 2 == 0 && rng.gen_range(0..2u32) == 0 {
                    format!("fresh{round}")
                } else {
                    format!("l{}", rng.gen_range(0..3u32))
                };
                let label = overlay.label(&name);
                let source = nodes[rng.gen_range(0..nodes.len())];
                let target = nodes[rng.gen_range(0..nodes.len())];
                overlay.add_edge(source, label, target);
            }
            let delta = overlay.delta();
            let next = Arc::new(overlay.compact());
            let next_cache = EvalCache::from_csr((*next).clone());
            next_cache.inherit_words(&cache, &delta);
            assert_eq!(next_cache.words_bound(), Some(4));
            for bound in [4usize, 2, 3] {
                assert_index_matches(
                    &format!("seed {seed}, round {round}, bound {bound}"),
                    &next_cache.bounded_words(bound),
                    &next,
                    bound,
                );
            }
            (snapshot, cache) = (next, next_cache);
        }
    }
}

#[test]
fn untouched_nodes_share_their_id_lists_across_a_publish() {
    // v0 → v1 → … → v7; an edge appended at the tail cannot reach v0..v3
    // within bound 4, so the new index is derived for the last four only.
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..8).map(|i| g.add_node(format!("v{i}"))).collect();
    for pair in nodes.windows(2) {
        g.add_edge_by_name(pair[0], "a", pair[1]);
    }
    let base = Arc::new(CsrGraph::from_graph(&g));
    let old = WordIndex::build(&base, 4);
    let mut overlay = DeltaGraph::new(Arc::clone(&base));
    let a = overlay.label("a");
    overlay.add_edge(nodes[7], a, nodes[7]);
    let delta = overlay.delta();
    let next = overlay.compact();
    let inherited = old.inherit(&base, &next, &delta);
    assert_index_matches("tail insert", &inherited, &next, 4);
    // No new word appeared, so the dictionary itself is shared…
    assert!(std::ptr::eq(old.dict(), inherited.dict()));
    // …and an empty delta shares everything.
    let same = inherited.inherit(&next, &next, &gps_graph::GraphDelta::default());
    assert!(std::ptr::eq(same.dict(), inherited.dict()));
    assert_index_matches("empty delta", &same, &next, 4);
}

#[test]
fn refresh_with_keeps_the_scores_of_a_full_rescan_through_a_dialogue() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let graph = random_graph(&mut rng, 60, 110, 3);
        let csr = CsrGraph::from_graph(&graph);
        let exec = EvalHandle::from_cache(Arc::new(EvalCache::from_csr(csr.clone())));
        let bound = 3;
        let mut examples = ExampleSet::new();
        let mut coverage = NegativeCoverage::new(bound);
        let mut incremental = PruningState::new(bound);
        incremental.refresh_with(&csr, &examples, &coverage, &exec);
        let mut unlabeled: BTreeSet<NodeId> = csr.nodes().collect();
        for step in 0..24 {
            let node = *unlabeled
                .iter()
                .nth(rng.gen_range(0..unlabeled.len()))
                .unwrap();
            unlabeled.remove(&node);
            if rng.gen_range(0..3u32) == 0 {
                examples.add_positive(node);
            } else {
                examples.add_negative(node);
                let words = exec.bounded_words(bound);
                coverage.add_negative_with_words(node, &words[node.index()]);
            }
            incremental.refresh_with(&csr, &examples, &coverage, &exec);
            assert!(incremental.is_synced_to(&coverage));
            // The reference: a node is pruned exactly when it is labeled or
            // every one of its enumerated words is covered.
            let mut pruned = 0;
            for node in csr.nodes() {
                let uncovered = coverage.uncovered_count(&csr, node);
                let expected = examples.is_labeled(node) || uncovered == 0;
                pruned += usize::from(expected);
                assert_eq!(
                    incremental.cached_score(node),
                    Some(uncovered),
                    "seed {seed}, step {step}, node {node}"
                );
                assert_eq!(
                    incremental.is_pruned(node),
                    expected,
                    "seed {seed}, step {step}, node {node}"
                );
            }
            assert_eq!(
                incremental.pruned_count(),
                pruned,
                "seed {seed}, step {step}"
            );
        }
    }
}
