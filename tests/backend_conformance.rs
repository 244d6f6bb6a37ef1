//! Snapshot conformance: the immutable [`CsrGraph`] every algorithm reads
//! must hold exactly what the ingest [`Graph`] was given, and must answer
//! queries like the naive oracle.
//!
//! Over generated graphs (random edge-lists, transport networks, scale-free
//! and biological graphs, synthetic generator seeds) the suite asserts that:
//!
//! * a snapshot holds exactly the ingested nodes, labels, edges and edge ids,
//!   row by row in insertion order;
//! * rebuilding a graph from a snapshot's own edges and snapshotting it again
//!   is a fixed point;
//! * the engine's frontier evaluator answers the standard workloads and
//!   random word queries like the naive evaluator, witnesses included.

use gps_core::prelude::*;
use gps_datasets::biological::{self, BiologicalConfig};
use gps_datasets::queries;
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_datasets::synthetic::{self, SyntheticConfig};
use gps_datasets::transport::{self, TransportConfig};
use gps_graph::CsrEntry;
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

/// The generated corpus the conformance properties run over.
fn corpus() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for i in 0..12 {
        graphs.push((format!("random-{i}"), random_graph(&mut rng, 10, 24)));
    }
    graphs.push((
        "transport".to_string(),
        transport::generate(&TransportConfig::with_neighborhoods(25, 7)).graph,
    ));
    graphs.push((
        "scale-free".to_string(),
        scale_free::generate(&ScaleFreeConfig {
            nodes: 60,
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

/// The snapshot holds exactly `graph`'s nodes, labels and edges: every row,
/// in both directions, lists the node's edges in insertion order with their
/// original ids.
fn assert_holds_the_ingested_graph(name: &str, graph: &Graph, csr: &CsrGraph) {
    assert_eq!(graph.node_count(), csr.node_count(), "{name}: node count");
    assert_eq!(graph.labels(), csr.labels(), "{name}: labels");
    let names = graph.nodes().map(|node| graph.node_name(node));
    assert!(csr.node_names().eq(names), "{name}: node names");
    let mut out = vec![Vec::new(); graph.node_count()];
    let mut inc = out.clone();
    let entry = |label, node| CsrEntry { label, node };
    for (id, edge) in graph.edges() {
        out[edge.source.index()].push((id, entry(edge.label, edge.target)));
        inc[edge.target.index()].push((id, entry(edge.label, edge.source)));
    }
    let row = |ids: &[EdgeId], entries: &[CsrEntry]| -> Vec<(EdgeId, CsrEntry)> {
        ids.iter().copied().zip(entries.iter().copied()).collect()
    };
    for node in csr.nodes() {
        let i = node.index();
        assert_eq!(
            row(csr.out_ids(node), csr.out(node)),
            out[i],
            "{name}: out row of {node}"
        );
        assert_eq!(
            row(csr.in_ids(node), csr.inc(node)),
            inc[i],
            "{name}: in row of {node}"
        );
    }
}

#[test]
fn backends_are_structurally_equivalent() {
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        assert_holds_the_ingested_graph(&name, &graph, &csr);
    }
}

#[test]
fn rpq_answers_agree_on_workload_queries() {
    // The engine serves the snapshot through its frontier evaluator and
    // cache; the oracle is the naive evaluator on the same snapshot.
    for (name, graph) in corpus() {
        let workload = queries::standard_workload(&graph);
        let engine = Engine::builder(graph).build();
        for query in &workload.queries {
            let syntax = query.display(engine.snapshot().labels());
            assert_eq!(
                engine.evaluate(&syntax).unwrap(),
                query.evaluate(engine.snapshot()),
                "{name}: query {syntax} disagrees"
            );
        }
    }
}

#[test]
fn rpq_answers_agree_on_random_word_queries() {
    let mut rng = StdRng::seed_from_u64(0xBAC0BEEF);
    for (name, graph) in corpus() {
        if graph.label_count() == 0 {
            continue;
        }
        let csr = CsrGraph::from_graph(&graph);
        let frontier = BatchEvaluator::from_csr(&csr);
        for _ in 0..8 {
            let len = rng.gen_range(1..=4usize);
            let word: Vec<LabelId> = (0..len)
                .map(|_| LabelId::new(rng.gen_range(0..csr.label_count() as u32)))
                .collect();
            let query = PathQuery::new(gps_automata::Regex::word(&word));
            let answer = query.evaluate(&csr);
            assert_eq!(
                frontier.evaluate_dfa(query.dfa()),
                answer,
                "{name}: word query {word:?} disagrees"
            );
            // Both evaluators find a shortest witness for exactly the answer.
            for node in csr.nodes() {
                let naive = query.witness(&csr, node).map(|path| path.len());
                let indexed = frontier.witness(query.dfa(), node).map(|path| path.len());
                assert_eq!(naive.is_some(), answer.contains(node), "{name}: {node}");
                assert_eq!(indexed, naive, "{name}: witness length of {node}");
            }
        }
    }
}

/// `csr`'s labels, nodes and edges added to a fresh [`Graph`] in edge-id
/// order, so every edge keeps its id.
fn regraph(csr: &CsrGraph) -> Graph {
    let mut graph = Graph::with_capacity(csr.node_count(), csr.edge_count());
    for (_, label) in csr.labels().iter() {
        graph.label(label);
    }
    for name in csr.node_names() {
        graph.add_node(name);
    }
    let mut edges: Vec<(EdgeId, Edge)> = csr.edges_by_source().collect();
    edges.sort_by_key(|&(id, _)| id);
    for (_, edge) in edges {
        graph.add_edge(edge.source, edge.label, edge.target);
    }
    graph
}

#[test]
fn double_snapshot_is_a_fixed_point() {
    for (name, graph) in corpus() {
        let once = CsrGraph::from_graph(&graph);
        let twice = CsrGraph::from_graph(&regraph(&once));
        assert_holds_the_ingested_graph(&name, &graph, &twice);
    }
}

#[test]
fn synthetic_generator_graphs_conform_across_seeds() {
    for seed in 0..6u64 {
        let graph = synthetic::generate(&SyntheticConfig::with_nodes(80, seed));
        let csr = CsrGraph::from_graph(&graph);
        assert_holds_the_ingested_graph(&format!("synthetic-{seed}"), &graph, &csr);
    }
}
