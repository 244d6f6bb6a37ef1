//! Backend-conformance suite: the mutable adjacency [`Graph`] and the
//! immutable [`CsrGraph`] snapshot must be observationally equivalent
//! through the [`GraphBackend`] trait.
//!
//! Property tests over generated graphs (random edge-lists, transport
//! networks, scale-free and biological graphs) assert that the two backends
//! produce identical:
//!
//! * RPQ answers, for every query of the standard workloads and for random
//!   word queries;
//! * neighborhoods (node sets, distance rings, edge id sets, continuation
//!   markers) and zoom deltas;
//! * bounded path enumerations (words and witness paths);
//! * traversals, degrees, statistics and witness extraction;
//! * full interactive sessions against the same simulated user.

use gps_core::prelude::*;
use gps_datasets::biological::{self, BiologicalConfig};
use gps_datasets::queries;
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_datasets::synthetic::{self, SyntheticConfig};
use gps_datasets::transport::{self, TransportConfig};
use gps_graph::stats::GraphStats;
use gps_graph::traversal::{self, Direction};
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

/// Structural equivalence: counts, names, degrees, adjacency.
fn assert_structurally_equal(name: &str, graph: &Graph, csr: &CsrGraph) {
    assert_eq!(graph.node_count(), csr.node_count(), "{name}: node count");
    assert_eq!(graph.edge_count(), csr.edge_count(), "{name}: edge count");
    assert_eq!(graph.label_count(), csr.label_count(), "{name}: labels");
    for node in graph.nodes() {
        assert_eq!(
            graph.node_name(node),
            csr.node_name(node),
            "{name}: name of {node}"
        );
        assert_eq!(graph.out_degree(node), csr.out_degree(node));
        assert_eq!(graph.in_degree(node), csr.in_degree(node));
        let g_succ: Vec<(LabelId, NodeId)> = graph.successors(node).collect();
        let c_succ: Vec<(LabelId, NodeId)> = GraphBackend::successors(csr, node).collect();
        assert_eq!(g_succ, c_succ, "{name}: successors of {node}");
        let mut g_pred: Vec<(LabelId, NodeId)> = graph.predecessors(node).collect();
        let mut c_pred: Vec<(LabelId, NodeId)> = GraphBackend::predecessors(csr, node).collect();
        g_pred.sort();
        c_pred.sort();
        assert_eq!(g_pred, c_pred, "{name}: predecessors of {node}");
    }
}

#[test]
fn backends_are_structurally_equivalent() {
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        assert_structurally_equal(&name, &graph, &csr);
    }
}

#[test]
fn rpq_answers_agree_on_workload_queries() {
    // Standard workloads per family, evaluated on both backends.
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        for query in &queries::standard_workload(&graph).queries {
            assert_eq!(
                query.evaluate(&graph).nodes(),
                query.evaluate(&csr).nodes(),
                "{name}: query {} disagrees",
                query.display(graph.labels())
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
        for _ in 0..8 {
            let len = rng.gen_range(1..=4usize);
            let word: Vec<LabelId> = (0..len)
                .map(|_| LabelId::new(rng.gen_range(0..graph.label_count() as u32)))
                .collect();
            let query = PathQuery::new(gps_automata::Regex::word(&word));
            let graph_answer = query.evaluate(&graph);
            let csr_answer = query.evaluate(&csr);
            assert_eq!(
                graph_answer.nodes(),
                csr_answer.nodes(),
                "{name}: word query {word:?} disagrees"
            );
            // Witnesses must exist on both backends for exactly the answer.
            for node in graph_answer.nodes() {
                assert!(query.witness(&graph, node).is_some());
                assert!(query.witness(&csr, node).is_some());
            }
        }
    }
}

#[test]
fn neighborhoods_and_zoom_deltas_agree() {
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        for node in graph.nodes().step_by(3) {
            for radius in [0u32, 1, 2, 3] {
                let g_hood = Neighborhood::extract(&graph, node, radius);
                let c_hood = Neighborhood::extract(&csr, node, radius);
                assert_eq!(g_hood.nodes(), c_hood.nodes(), "{name}: nodes@r{radius}");
                assert_eq!(g_hood.edges(), c_hood.edges(), "{name}: edges@r{radius}");
                assert_eq!(
                    g_hood.continuations(),
                    c_hood.continuations(),
                    "{name}: continuations@r{radius}"
                );
                let (g_larger, g_delta) = g_hood.zoom_out(&graph);
                let (c_larger, c_delta) = c_hood.zoom_out(&csr);
                assert_eq!(g_larger.node_ids(), c_larger.node_ids());
                assert_eq!(g_delta, c_delta, "{name}: zoom delta@r{radius}");
            }
        }
    }
}

#[test]
fn path_enumerations_agree() {
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        let enumerator = PathEnumerator::new(3).with_max_paths(5_000);
        for node in graph.nodes().step_by(2) {
            assert_eq!(
                enumerator.words_from(&graph, node),
                enumerator.words_from(&csr, node),
                "{name}: words of {node}"
            );
            assert_eq!(
                enumerator.paths_from(&graph, node),
                enumerator.paths_from(&csr, node),
                "{name}: paths of {node}"
            );
        }
    }
}

#[test]
fn traversals_and_stats_agree() {
    for (name, graph) in corpus() {
        let csr = CsrGraph::from_graph(&graph);
        let g_stats = GraphStats::compute(&graph);
        let c_stats = GraphStats::compute(&csr);
        assert_eq!(g_stats, c_stats, "{name}: stats");
        for node in graph.nodes().step_by(4) {
            for direction in [Direction::Forward, Direction::Backward, Direction::Both] {
                let g_bfs = traversal::bfs(&graph, node, Some(3), direction);
                let c_bfs = traversal::bfs(&csr, node, Some(3), direction);
                let g_pairs: Vec<(NodeId, u32)> = g_bfs.reachable().collect();
                let c_pairs: Vec<(NodeId, u32)> = c_bfs.reachable().collect();
                assert_eq!(g_pairs, c_pairs, "{name}: bfs from {node}");
            }
        }
        assert_eq!(
            traversal::weakly_connected_components(&graph),
            traversal::weakly_connected_components(&csr),
            "{name}: components"
        );
    }
}

#[test]
fn negative_coverage_and_pruning_agree() {
    for (name, graph) in corpus() {
        if graph.node_count() < 2 {
            continue;
        }
        let csr = CsrGraph::from_graph(&graph);
        let negatives: Vec<NodeId> = graph.nodes().step_by(2).collect();
        let g_cov = NegativeCoverage::from_negatives(&graph, negatives.iter().copied(), 3);
        let c_cov = NegativeCoverage::from_negatives(&csr, negatives.iter().copied(), 3);
        for node in graph.nodes() {
            assert_eq!(
                g_cov.uncovered_count(&graph, node),
                c_cov.uncovered_count(&csr, node),
                "{name}: uncovered count of {node}"
            );
            assert_eq!(
                g_cov.is_uninformative(&graph, node),
                c_cov.is_uninformative(&csr, node),
                "{name}: informativeness of {node}"
            );
        }
    }
}

#[test]
fn interactive_sessions_agree_end_to_end() {
    // The same goal query, strategy and simulated user must drive identical
    // sessions on both backends: same transcript, same learned answer.
    let net = transport::generate(&TransportConfig::with_neighborhoods(12, 5));
    let graph = net.graph;
    let csr = CsrGraph::from_graph(&graph);
    let goal = match PathQuery::parse("(tram+bus)*.cinema", graph.labels()) {
        Ok(goal) => goal,
        Err(_) => return, // tiny networks may lack a label; not this seed
    };

    let mut graph_user = SimulatedUser::new(goal.clone(), &graph);
    let mut graph_session = Session::new(&graph, SessionConfig::default());
    let graph_outcome =
        graph_session.run(&mut InformativePathsStrategy::default(), &mut graph_user);

    let mut csr_user = SimulatedUser::new(goal.clone(), &csr);
    let mut csr_session: Session<'_, CsrGraph> = Session::new(&csr, SessionConfig::default());
    let csr_outcome = csr_session.run(&mut InformativePathsStrategy::default(), &mut csr_user);

    assert_eq!(graph_outcome.halt_reason, csr_outcome.halt_reason);
    assert_eq!(
        graph_outcome.stats.interactions,
        csr_outcome.stats.interactions
    );
    let graph_nodes: Vec<NodeId> = graph_outcome.transcript.iter().map(|r| r.node).collect();
    let csr_nodes: Vec<NodeId> = csr_outcome.transcript.iter().map(|r| r.node).collect();
    assert_eq!(graph_nodes, csr_nodes, "same nodes proposed in same order");
    assert_eq!(
        graph_outcome.learned.map(|l| l.answer.nodes()),
        csr_outcome.learned.map(|l| l.answer.nodes())
    );
}

#[test]
fn engine_facade_agrees_across_backends_on_every_dataset() {
    // The engine serves a CSR snapshot; the oracle is the naive evaluator on
    // the adjacency graph the snapshot was taken from.
    for (name, graph) in corpus() {
        let engine = Engine::builder(graph.clone()).build();
        for query in &queries::standard_workload(&graph).queries {
            let syntax = query.display(graph.labels());
            assert_eq!(
                engine.evaluate(&syntax).unwrap(),
                query.evaluate(&graph),
                "{name}: engine disagreement on {syntax}"
            );
        }
    }
}

#[test]
fn double_snapshot_is_a_fixed_point() {
    for (name, graph) in corpus() {
        let once = CsrGraph::from_graph(&graph);
        let twice = CsrGraph::from_backend(&once);
        assert_structurally_equal(&name, &graph, &twice);
    }
}

#[test]
fn synthetic_generator_graphs_conform_across_seeds() {
    for seed in 0..6u64 {
        let graph = synthetic::generate(&SyntheticConfig::with_nodes(80, seed));
        let csr = CsrGraph::from_graph(&graph);
        assert_structurally_equal(&format!("synthetic-{seed}"), &graph, &csr);
    }
}
