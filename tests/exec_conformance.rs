//! Execution-engine conformance suite: every entry point of the `gps-exec`
//! frontier engine must be **answer-identical** to the naive
//! node-at-a-time evaluator in `gps_rpq::eval`, the oracle.
//!
//! Differential properties over the transport, scale-free, figure1,
//! biological and random corpora:
//!
//! * single-query evaluation and the per-node membership check
//!   (`selects_node`, a witness search) on a spread of nodes;
//! * the fixed point's round count (`gps_exec_frontier_rounds_total`)
//!   against the layers of a backward breadth-first search over the
//!   product graph;
//! * sequential batches through one kept scratch (input order preserved);
//! * a delta-patched index against a fresh build of the compacted snapshot;
//! * the full `gps_core` engine's cached `evaluate`, cold and on a hit.

use gps_automata::{Dfa, Regex};
use gps_core::prelude::*;
use gps_datasets::biological::{self, BiologicalConfig};
use gps_datasets::figure1::figure1_graph;
use gps_datasets::queries;
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_datasets::transport::{self, TransportConfig};
use gps_exec::{BatchEvaluator, ExecMetrics};
use gps_graph::DeltaGraph;
use gps_rpq::DfaEvaluator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small random multigraph over a 4-letter alphabet.
fn random_graph(rng: &mut StdRng, max_nodes: usize, max_edges: usize) -> Graph {
    let n = rng.gen_range(1..=max_nodes);
    let mut g = Graph::new();
    for name in ["a", "b", "c", "d"] {
        g.label(name);
    }
    let ids = g.add_nodes("v", n);
    for _ in 0..rng.gen_range(0..=max_edges) {
        let s = ids[rng.gen_range(0..n)];
        let t = ids[rng.gen_range(0..n)];
        g.add_edge(s, LabelId::new(rng.gen_range(0u32..4)), t);
    }
    g
}

/// The corpora the differential properties run over.
fn corpus() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xE7EC);
    for i in 0..10 {
        graphs.push((format!("random-{i}"), random_graph(&mut rng, 12, 30)));
    }
    graphs.push(("figure1".to_string(), figure1_graph().0));
    graphs.push((
        "transport".to_string(),
        transport::generate(&TransportConfig::with_neighborhoods(25, 7)).graph,
    ));
    graphs.push((
        "scale-free".to_string(),
        scale_free::generate(&ScaleFreeConfig {
            nodes: 200,
            seed: 11,
            ..ScaleFreeConfig::default()
        }),
    ));
    graphs.push((
        "biological".to_string(),
        biological::generate(&BiologicalConfig::with_entities(40, 3)),
    ));
    graphs
}

/// The query set evaluated differentially on each graph: the per-domain
/// workloads plus structural edge cases.
fn query_set(graph: &Graph) -> Vec<Dfa> {
    let mut dfas: Vec<Dfa> = queries::standard_workload(graph)
        .queries
        .iter()
        .chain(queries::batch_workload(graph, 10).queries.iter())
        .map(|q| q.dfa().clone())
        .collect();
    dfas.push(Dfa::from_regex(&Regex::Empty));
    dfas.push(Dfa::from_regex(&Regex::Epsilon));
    if let Some(label) = graph.labels().ids().next() {
        dfas.push(Dfa::from_regex(&Regex::star(Regex::symbol(label))));
    }
    dfas
}

#[test]
fn frontier_evaluation_matches_the_naive_evaluator() {
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        let naive = gps_rpq::NaiveEvaluator::from_csr(csr.clone());
        let engine = BatchEvaluator::from_csr(&csr);
        for (i, dfa) in query_set(&graph).iter().enumerate() {
            let expected = naive.evaluate_dfa(dfa);
            assert_eq!(engine.evaluate(dfa), expected, "{name} query {i}");
            // The per-node membership check, on about eight nodes
            // spread over the graph plus the first selected one.
            let nodes = graph.node_count();
            let spread = (0..nodes).step_by((nodes / 8).max(1)).map(NodeId::from);
            for node in spread.chain(expected.nodes().first().copied()) {
                assert_eq!(
                    engine.selects_node(dfa, node),
                    expected.contains(node),
                    "{name} query {i}: selects {node}"
                );
            }
        }
    }
}

/// The three shapes of the benchmark's unseen-query stream
/// (`a.b.c.d`, `(a+b)*.c.d.a`, `a.b*.c.d`) over eight label tuples drawn
/// from `labels`.
fn unseen_query_shapes(labels: &[LabelId]) -> Vec<Dfa> {
    let symbol = |i: usize| Regex::symbol(labels[i % labels.len()]);
    let mut dfas = Vec::new();
    for i in 0..8 {
        let [a, b, c, d] = [i, i / 2 + 1, i + 3, 2 * i].map(symbol);
        dfas.extend(
            [
                Regex::concat([a.clone(), b.clone(), c.clone(), d.clone()]),
                Regex::concat([
                    Regex::star(Regex::union([a.clone(), b.clone()])),
                    c.clone(),
                    d.clone(),
                    a.clone(),
                ]),
                Regex::concat([a, Regex::star(b), c, d]),
            ]
            .iter()
            .map(Dfa::from_regex),
        );
    }
    dfas
}

/// The round counts a frontier fixed point of `dfa` over `csr` must report,
/// `(uncaptured, captured)`, from a backward breadth-first search over the
/// product graph read off the snapshot's incoming rows.  Layer 0 is every
/// accepting configuration and layer `k` the configurations `k` steps from
/// one; round `k` derives layer `k`.  A captured evaluation runs until a
/// round derives nothing (that round counts); an uncaptured one stops
/// before the first round that starts with every node selected.
fn expected_rounds(csr: &CsrGraph, dfa: &Dfa) -> (u64, u64) {
    let (n, s) = (csr.node_count(), dfa.state_count());
    if n == 0 || s == 0 {
        return (0, 0);
    }
    let mut into: Vec<Vec<(LabelId, usize)>> = vec![Vec::new(); s];
    for p in 0..s {
        for (label, q) in dfa.transitions_from(p) {
            into[q].push((label, p));
        }
    }
    let start = dfa.start();
    let mut seen = vec![vec![false; n]; s];
    let mut layer = Vec::new();
    for q in (0..s).filter(|&q| dfa.is_accepting(q)) {
        seen[q].fill(true);
        layer.extend((0..n).map(|v| (q, v)));
    }
    let mut selected = seen[start].iter().filter(|&&alive| alive).count();
    let mut saturated_at = (selected == n).then_some(0);
    let mut round = 0;
    loop {
        round += 1;
        let mut next = Vec::new();
        for &(q, v) in &layer {
            for entry in csr.inc(NodeId::from(v)) {
                for &(label, p) in &into[q] {
                    let u = entry.node.index();
                    if entry.label == label && !seen[p][u] {
                        seen[p][u] = true;
                        next.push((p, u));
                        selected += usize::from(p == start);
                    }
                }
            }
        }
        if next.is_empty() {
            return (saturated_at.unwrap_or(round), round);
        }
        if saturated_at.is_none() && selected == n {
            saturated_at = Some(round);
        }
        layer = next;
    }
}

/// Every evaluation's `gps_exec_frontier_rounds_total` increment equals the
/// layer count of a backward breadth-first search over the product graph —
/// captured up to the true fixed point, uncaptured up to the start state's
/// saturation — on the conformance corpora and on a corpus built like the
/// benchmark's, under its unseen-query shapes.
#[test]
fn frontier_round_counts_match_a_backward_breadth_first_search() {
    let mut corpora = corpus();
    corpora.push((
        "benchmark-like".to_string(),
        scale_free::generate(&ScaleFreeConfig {
            nodes: 2_000,
            edges_per_node: 2,
            alphabet_size: 8,
            skewed_labels: true,
            seed: 0x6770_7362,
        }),
    ));
    for (name, graph) in corpora {
        let csr = CsrGraph::from_graph(&graph);
        let registry = gps_telemetry::MetricsRegistry::enabled();
        let engine =
            BatchEvaluator::from_csr(&csr).with_metrics(ExecMetrics::from_registry(&registry));
        let rounds = || {
            (registry.snapshot())
                .counter("gps_exec_frontier_rounds_total")
                .unwrap_or(0)
        };
        let labels: Vec<LabelId> = graph.labels().ids().collect();
        let mut dfas = query_set(&graph);
        dfas.extend(unseen_query_shapes(&labels));
        for (i, dfa) in dfas.iter().enumerate() {
            let (uncaptured, captured) = expected_rounds(&csr, dfa);
            let before = rounds();
            engine.evaluate(dfa);
            let after = rounds();
            assert_eq!(after - before, uncaptured, "{name} query {i}: uncaptured");
            engine.evaluate_dfa_captured(dfa);
            assert_eq!(rounds() - after, captured, "{name} query {i}: captured");
        }
    }
}

#[test]
fn batch_and_parallel_executors_preserve_answers_and_order() {
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        let naive = gps_rpq::NaiveEvaluator::from_csr(csr.clone());
        let engine = BatchEvaluator::from_csr(&csr);
        let dfas = query_set(&graph);
        let refs: Vec<&Dfa> = dfas.iter().collect();
        let expected: Vec<QueryAnswer> = refs.iter().map(|d| naive.evaluate_dfa(d)).collect();
        assert_eq!(engine.evaluate_dfas(&refs), expected, "{name}: sequential");
    }
}

#[test]
fn engine_eval_modes_are_observationally_identical() {
    let net = transport::generate(&TransportConfig::with_neighborhoods(25, 7));
    let syntaxes = ["(tram+bus)*.cinema", "cinema", "tram*.cinema", "bus"];
    let oracle = gps_rpq::NaiveEvaluator::from_csr(CsrGraph::from_graph(&net.graph));
    let expected: Vec<QueryAnswer> = syntaxes
        .iter()
        .map(|q| PathQuery::parse(q, net.graph.labels()).unwrap())
        .map(|q| oracle.evaluate_dfa(q.dfa()))
        .collect();
    let engine = Engine::builder(net.graph).build();
    for (syntax, expected) in syntaxes.iter().zip(&expected) {
        assert_eq!(&engine.evaluate(syntax).unwrap(), expected, "{syntax}");
        assert_eq!(
            &engine.evaluate(syntax).unwrap(),
            expected,
            "{syntax} (hit)"
        );
    }
}

#[test]
fn spelling_sweeps_match_the_reference_and_the_acceptor_evaluation() {
    use gps_graph::PathEnumerator;
    use std::collections::BTreeMap;
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        let naive = gps_rpq::NaiveEvaluator::from_csr(csr.clone());
        let engine = BatchEvaluator::from_csr(&csr);
        // What sessions read instead of sweeping: the word index's postings.
        let index = gps_rpq::WordIndex::build(&csr, 3);
        // Word sets as sessions produce them: the bounded words of a few
        // nodes (what a negative label covers), plus edge cases.
        let mut word_sets: Vec<Vec<Word>> = csr
            .nodes()
            .take(4)
            .map(|node| {
                PathEnumerator::new(3)
                    .words_from(&csr, node)
                    .into_iter()
                    .collect()
            })
            .collect();
        word_sets.push(Vec::new());
        if let Some(label) = graph.labels().ids().next() {
            word_sets.push(vec![vec![label], vec![label, label]]);
        }
        for (i, words) in word_sets.iter().enumerate() {
            // Per node, how many of the words the index says it spells.
            let mut counts: BTreeMap<NodeId, u32> = BTreeMap::new();
            for word in words {
                for &node in index.spellers(word) {
                    *counts.entry(node).or_default() += 1;
                }
            }
            let counts: Vec<(NodeId, u32)> = counts.into_iter().collect();
            let reference: Vec<NodeId> = counts.iter().map(|&(node, _)| node).collect();
            // The trait defaults (prefix-tree-acceptor evaluation) on both
            // evaluators agree with the postings.
            for (evaluator, which) in [
                (&naive as &dyn DfaEvaluator, "naive"),
                (&engine as &dyn DfaEvaluator, "frontier"),
            ] {
                assert_eq!(
                    evaluator.nodes_spelling(words),
                    reference,
                    "{name} set {i}: {which} spellers"
                );
                assert_eq!(
                    evaluator.spelling_counts(words),
                    counts,
                    "{name} set {i}: {which} counts"
                );
            }
        }
    }
}

/// Two frontier evaluators must expose the *same* index: every adjacency
/// slice, occupancy word and query answer.  (Not the memory footprint: an
/// untouched partition shared across a node-adding patch keeps its shorter
/// coverage.)
fn assert_indexes_identical(
    context: &str,
    reference: &BatchEvaluator,
    other: &BatchEvaluator,
    dfas: &[Dfa],
) {
    use gps_exec::Direction;
    let a = reference.shared_index();
    let b = other.shared_index();
    assert_eq!(a.node_count(), b.node_count(), "{context}: node count");
    assert_eq!(a.label_count(), b.label_count(), "{context}: label count");
    for label in (0..a.label_count()).map(LabelId::from) {
        for direction in [Direction::Forward, Direction::Reverse] {
            for node in 0..a.node_count() {
                assert_eq!(
                    a.neighbors(direction, label, node),
                    b.neighbors(direction, label, node),
                    "{context}: {direction:?} adjacency of label {label:?}, node {node}"
                );
            }
            // The occupancy words a sweep masks with, chunk by chunk: the
            // reference's, except that a partition shared from before nodes
            // were added covers fewer rows — its last chunk stops short and
            // later chunks are missing — and lacks their (all-zero) words.
            let want = a.rows(direction, label).chunks();
            let got = b.rows(direction, label).chunks();
            assert!(
                got.len() <= want.len(),
                "{context}: {direction:?} {label:?} chunks"
            );
            for (c, (got_chunk, want_chunk)) in got.iter().zip(want).enumerate() {
                assert!(
                    got_chunk.rows() == want_chunk.rows() || c + 1 == got.len(),
                    "{context}: {direction:?} {label:?} chunk {c} rows"
                );
                let (want_words, got_words) = (want_chunk.occupied(), got_chunk.occupied());
                assert!(
                    got_words.len() <= want_words.len(),
                    "{context}: {direction:?} {label:?} chunk {c} words"
                );
                assert_eq!(
                    want_words[..got_words.len()],
                    *got_words,
                    "{context}: {direction:?} occupancy of label {label:?}, chunk {c}"
                );
                assert!(
                    want_words[got_words.len()..].iter().all(|&word| word == 0),
                    "{context}: {direction:?} occupancy of label {label:?} past the shared coverage"
                );
            }
            assert!(
                want[got.len()..]
                    .iter()
                    .all(|chunk| chunk.occupied().iter().all(|&word| word == 0)),
                "{context}: {direction:?} occupancy of label {label:?} past the shared chunks"
            );
        }
    }
    for (i, dfa) in dfas.iter().enumerate() {
        assert_eq!(
            reference.evaluate(dfa),
            other.evaluate(dfa),
            "{context}: query {i}"
        );
    }
}

/// An index patched through three chained random deltas (inserts, removals
/// and a fresh node each round) is, after every round, the index a fresh
/// build over the compacted snapshot produces — on the whole public surface.
#[test]
fn chained_patches_match_a_fresh_build_of_the_compacted_snapshot() {
    let mut rng = StdRng::seed_from_u64(0x5AA5_D00D);
    let mut corpora: Vec<(String, Graph)> = (0..4)
        .map(|i| (format!("random-{i}"), random_graph(&mut rng, 14, 40)))
        .collect();
    corpora.push((
        "scale-free".to_string(),
        scale_free::generate(&ScaleFreeConfig {
            nodes: 250,
            seed: 23,
            ..ScaleFreeConfig::default()
        }),
    ));
    for (name, graph) in corpora {
        let dfas = query_set(&graph);
        let mut base = std::sync::Arc::new(CsrGraph::from_graph(&graph));
        let mut patched = BatchEvaluator::from_csr(&base);
        for round in 0..3 {
            let mut staged = DeltaGraph::new(std::sync::Arc::clone(&base));
            let fresh = staged.add_node(format!("delta-{round}"));
            let nodes: Vec<NodeId> = base.nodes().collect();
            let pick = |rng: &mut StdRng| nodes[rng.gen_range(0..nodes.len())];
            for _ in 0..5 {
                let label = LabelId::new(rng.gen_range(0u32..4));
                staged.add_edge(pick(&mut rng), label, pick(&mut rng));
                staged.add_edge(fresh, label, pick(&mut rng));
            }
            if let Some(edge) = base.edges_by_source().next() {
                staged.remove_edge(edge.source, edge.label, edge.target);
            }
            let delta = staged.delta();
            base = std::sync::Arc::new(staged.compact());
            patched = patched.apply_delta(&base, &delta);
            assert_indexes_identical(
                &format!("{name}, round {round}"),
                &BatchEvaluator::from_csr(&base),
                &patched,
                &dfas,
            );
        }
    }
}

#[test]
fn frontier_cache_stays_correct_under_eviction() {
    let net = transport::generate(&TransportConfig::with_neighborhoods(10, 3));
    let csr = CsrGraph::from_graph(&net.graph);
    let cache =
        gps_rpq::EvalCache::with_evaluator(csr.clone(), Box::new(BatchEvaluator::from_csr(&csr)))
            .with_capacity(2);
    let regexes: Vec<Regex> = queries::batch_workload(&net.graph, 8)
        .queries
        .iter()
        .map(|q| q.regex().clone())
        .collect();
    // Replay the workload twice through the tiny cache: every answer must
    // still match a fresh naive evaluation.
    for round in 0..2 {
        for regex in &regexes {
            let through_cache = cache.evaluate(regex);
            let fresh = gps_rpq::eval::evaluate(&csr, &Dfa::from_regex(regex));
            assert_eq!(*through_cache, fresh, "round {round}");
        }
    }
    assert!(cache.len() <= 2);
    assert!(cache.evictions() > 0, "the workload overflows the capacity");
}
