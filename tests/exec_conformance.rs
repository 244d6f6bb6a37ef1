//! Execution-engine conformance suite: every entry point of the `gps-exec`
//! frontier engine must be **answer-identical** to the naive
//! node-at-a-time evaluator in `gps_rpq::eval`, the oracle.
//!
//! Differential properties over the transport, scale-free, figure1,
//! biological and random corpora:
//!
//! * single-query evaluation under the planner-chosen plan and under every
//!   *forced* plan (push / pull / adaptive), and the forward early-exit
//!   membership check (`selects`) on a spread of nodes;
//! * shared-scratch sequential batches (input order preserved);
//! * a delta-patched index against a fresh build of the compacted snapshot;
//! * the full `gps_core` engine's cached `evaluate` / `evaluate_many`.

use gps_automata::{Dfa, Regex};
use gps_core::prelude::*;
use gps_datasets::biological::{self, BiologicalConfig};
use gps_datasets::figure1::figure1_graph;
use gps_datasets::queries;
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_datasets::transport::{self, TransportConfig};
use gps_exec::{BatchEvaluator, Plan};
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
fn frontier_plans_match_the_naive_evaluator() {
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        let naive = gps_rpq::NaiveEvaluator::from_csr(csr.clone());
        let planner_engine = BatchEvaluator::from_csr(&csr);
        let forced: Vec<(Plan, BatchEvaluator)> =
            [Plan::Reverse, Plan::Forward, Plan::Bidirectional]
                .into_iter()
                .map(|plan| (plan, planner_engine.clone().with_plan(plan)))
                .collect();
        for (i, dfa) in query_set(&graph).iter().enumerate() {
            let expected = naive.evaluate_dfa(dfa);
            assert_eq!(
                planner_engine.evaluate(dfa),
                expected,
                "{name} query {i}: planner-chosen plan"
            );
            for (plan, engine) in &forced {
                assert_eq!(
                    engine.evaluate(dfa),
                    expected,
                    "{name} query {i}: forced {plan:?}"
                );
            }
            // The forward early-exit membership check, on about eight nodes
            // spread over the graph plus the first selected one.
            let nodes = graph.node_count();
            let spread = (0..nodes).step_by((nodes / 8).max(1)).map(NodeId::from);
            for node in spread.chain(expected.nodes().first().copied()) {
                assert_eq!(
                    planner_engine.selects(dfa, node),
                    expected.contains(node),
                    "{name} query {i}: selects {node}"
                );
            }
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
        assert_eq!(engine.evaluate_many(&refs), expected, "{name}: sequential");
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
    let many = engine.evaluate_many(&syntaxes).unwrap();
    for ((syntax, batch_answer), expected) in syntaxes.iter().zip(&many).zip(&expected) {
        assert_eq!(&engine.evaluate(syntax).unwrap(), expected, "{syntax}");
        assert_eq!(batch_answer, expected, "{syntax} (batch)");
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
/// slice, per-label edge count, occupancy word, planner statistic and query
/// answer.  (Not the memory footprint: an untouched partition shared across a
/// node-adding patch keeps its shorter coverage.)
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
        assert_eq!(
            a.label_edge_count(label),
            b.label_edge_count(label),
            "{context}: edge count of label {label:?}"
        );
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
    assert_eq!(reference.stats(), other.stats(), "{context}: planner stats");
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
            if let Some((_, edge)) = base.edges_by_source().next() {
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
