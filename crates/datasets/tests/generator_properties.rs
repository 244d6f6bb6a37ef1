//! Property-based and cross-cutting tests of the dataset generators: seeds
//! are reproducible, sizes are honoured, generated workloads are usable by
//! the query engine, and the structural traits each generator promises
//! (connectivity, hubs, facilities as sinks) hold across the parameter space.

use gps_datasets::biological::{self, BiologicalConfig};
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_datasets::synthetic::{self, SyntheticConfig};
use gps_datasets::transport::{self, TransportConfig};
use gps_datasets::{queries, Workload};
use gps_graph::stats::GraphStats;
use gps_graph::CsrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn transport_generator_honours_size_and_connectivity() {
    let mut rng = StdRng::seed_from_u64(201);
    for _ in 0..16 {
        let neighborhoods = rng.gen_range(4usize..60);
        let seed = rng.gen_range(0u64..1000);
        let net = transport::generate(&TransportConfig::with_neighborhoods(neighborhoods, seed));
        assert!(net.neighborhoods.len() >= neighborhoods);
        assert_eq!(
            net.graph.node_count(),
            net.neighborhoods.len() + net.facilities.len()
        );
        let stats = GraphStats::compute(&CsrGraph::from_graph(&net.graph));
        assert_eq!(
            stats.weak_component_count, 1,
            "transport networks are connected"
        );
        // Facilities are sinks with exactly one incoming edge.
        for &f in &net.facilities {
            assert_eq!(net.graph.out_degree(f), 0);
            assert_eq!(net.graph.in_degree(f), 1);
        }
    }
}

#[test]
fn synthetic_generator_is_seed_deterministic() {
    let mut rng = StdRng::seed_from_u64(202);
    for _ in 0..16 {
        let nodes = rng.gen_range(1usize..80);
        let seed = rng.gen_range(0u64..1000);
        let a = synthetic::generate(&SyntheticConfig::with_nodes(nodes, seed));
        let b = synthetic::generate(&SyntheticConfig::with_nodes(nodes, seed));
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(
            a.edges().map(|(_, e)| e).collect::<Vec<_>>(),
            b.edges().map(|(_, e)| e).collect::<Vec<_>>()
        );
    }
}

#[test]
fn scale_free_generator_produces_connected_graphs() {
    let mut rng = StdRng::seed_from_u64(203);
    for _ in 0..16 {
        let nodes = rng.gen_range(2usize..120);
        let seed = rng.gen_range(0u64..1000);
        let graph = scale_free::generate(&ScaleFreeConfig {
            nodes,
            seed,
            ..ScaleFreeConfig::default()
        });
        assert_eq!(graph.node_count(), nodes);
        let stats = GraphStats::compute(&CsrGraph::from_graph(&graph));
        assert_eq!(stats.weak_component_count, 1);
    }
}

#[test]
fn biological_generator_keeps_all_interaction_labels() {
    let mut rng = StdRng::seed_from_u64(204);
    for _ in 0..16 {
        let entities = rng.gen_range(5usize..100);
        let seed = rng.gen_range(0u64..1000);
        let graph = biological::generate(&BiologicalConfig::with_entities(entities, seed));
        assert_eq!(graph.node_count(), entities);
        assert_eq!(graph.label_count(), biological::INTERACTION_LABELS.len());
    }
}

#[test]
fn every_workload_query_parses_and_evaluates() {
    for workload in Workload::default_suite(5) {
        let graph = CsrGraph::from_graph(&workload.graph);
        for query in &workload.queries.queries {
            // Evaluation must not panic and facility-free answers must stay
            // within the graph.
            let answer = query.evaluate(&graph);
            for node in answer.nodes() {
                assert!(workload.graph.contains_node(node), "{}", workload.name);
            }
        }
    }
}

#[test]
fn standard_workload_queries_have_increasing_size_on_every_family() {
    for workload in [
        Workload::synthetic(60, 2),
        Workload::scale_free(60, 2),
        Workload::biological(60, 2),
    ] {
        let sizes: Vec<usize> = workload
            .queries
            .queries
            .iter()
            .map(|q| q.regex().size())
            .collect();
        for window in sizes.windows(2) {
            assert!(
                window[0] <= window[1],
                "{}: sizes {sizes:?} not monotone",
                workload.name
            );
        }
    }
}

#[test]
fn transport_workload_contains_the_motivating_query() {
    let net = transport::generate(&TransportConfig::default());
    let workload = queries::transport_workload(&net.graph);
    let motivating = workload
        .queries
        .iter()
        .any(|q| q.display(net.graph.labels()) == "(tram+bus)*·cinema");
    assert!(motivating);
}

#[test]
fn size_sweep_workloads_are_strictly_larger() {
    let sweep = Workload::size_sweep(7);
    for window in sweep.windows(2) {
        assert!(window[0].graph.node_count() < window[1].graph.node_count());
        assert!(window[0].graph.edge_count() < window[1].graph.edge_count());
    }
}
