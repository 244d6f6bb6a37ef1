//! Neighborhood conformance: the radius-bounded extraction behind every
//! proposal and zoom equals the whole-graph breadth-first search it
//! replaced, fragment for fragment.
//!
//! The reference below is that former extraction:
//! [`bfs`] over all `n` nodes, the reached nodes in id order, each node's
//! out-row filtered against the fragment, and a zoom's delta as the node
//! difference plus the multiset difference of the edges.  Seeded scale-free
//! graphs get self-loops, parallel duplicates and back edges (so every
//! radius meets cycles), and every center is checked at radius 0 to 6:
//! nodes with distances, edges in row order, continuations, and the delta of
//! each zoom.

use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_graph::traversal::{bfs, Direction};
use gps_graph::{CsrGraph, Edge, LabelId, Neighborhood, NodeId};
use std::collections::{BTreeSet, HashMap};

/// A fragment as the whole-graph search computed it.
struct Reference {
    nodes: Vec<(NodeId, u32)>,
    edges: Vec<Edge>,
    continuations: Vec<NodeId>,
}

fn reference(graph: &CsrGraph, center: NodeId, radius: u32) -> Reference {
    let distances = bfs(graph, center, Some(radius), Direction::Forward);
    let nodes: Vec<(NodeId, u32)> = distances.reachable().collect();
    let inside: BTreeSet<NodeId> = nodes.iter().map(|&(n, _)| n).collect();
    let mut edges = Vec::new();
    let mut continuations = BTreeSet::new();
    for &(node, dist) in &nodes {
        for entry in graph.out(node) {
            if dist < radius && inside.contains(&entry.node) {
                edges.push(Edge::new(node, entry.label, entry.node));
            } else {
                continuations.insert(node);
            }
        }
    }
    Reference {
        nodes,
        edges,
        continuations: continuations.into_iter().collect(),
    }
}

/// The zoom highlight from `smaller` to `larger`: added nodes in id order,
/// added edges as the multiset difference in `larger`'s row order.
fn reference_delta(smaller: &Reference, larger: &Reference) -> (Vec<NodeId>, Vec<Edge>) {
    let small: BTreeSet<NodeId> = smaller.nodes.iter().map(|&(n, _)| n).collect();
    let added_nodes = (larger.nodes.iter())
        .map(|&(n, _)| n)
        .filter(|n| !small.contains(n))
        .collect();
    let mut left: HashMap<Edge, usize> = HashMap::new();
    for edge in &smaller.edges {
        *left.entry(*edge).or_default() += 1;
    }
    let mut added_edges = Vec::new();
    for edge in &larger.edges {
        match left.get_mut(edge) {
            Some(count) if *count > 0 => *count -= 1,
            _ => added_edges.push(*edge),
        }
    }
    (added_nodes, added_edges)
}

/// A seeded scale-free graph plus a self-loop on every 7th node, a parallel
/// duplicate of every 5th node's first out-edge, and two back edges from
/// every 11th node to lower ids.
fn corpus(nodes: usize, seed: u64) -> CsrGraph {
    let mut g = scale_free::generate(&ScaleFreeConfig {
        nodes,
        edges_per_node: 2,
        alphabet_size: 4,
        skewed_labels: true,
        seed,
    });
    let csr = CsrGraph::from_graph(&g);
    for i in 0..nodes {
        let node = NodeId::from(i);
        let label = LabelId::new((i % 4) as u32);
        if i % 7 == 0 {
            g.add_edge(node, label, node);
        }
        if i % 5 == 0 {
            if let Some(entry) = csr.out(node).first() {
                g.add_edge(node, entry.label, entry.node);
            }
        }
        if i % 11 == 0 && i > 0 {
            g.add_edge(node, label, NodeId::from(i / 2));
            g.add_edge(node, label, NodeId::from(i / 3));
        }
    }
    CsrGraph::from_graph(&g)
}

fn assert_fragment(hood: &Neighborhood, expected: &Reference, context: &str) {
    assert_eq!(hood.nodes(), expected.nodes, "{context}: nodes");
    assert_eq!(hood.edges(), expected.edges, "{context}: edges");
    assert_eq!(
        hood.continuations(),
        expected.continuations,
        "{context}: continuations"
    );
}

fn check_graph(graph: &CsrGraph, centers: impl Iterator<Item = NodeId>, label: &str) {
    let mut saw_cycle = false;
    for center in centers {
        let mut previous: Option<(Neighborhood, Reference)> = None;
        for radius in 0..=6 {
            let context = format!("{label}, center {center}, radius {radius}");
            let expected = reference(graph, center, radius);
            let hood = Neighborhood::extract(graph, center, radius);
            assert_fragment(&hood, &expected, &context);
            saw_cycle |= hood.edges().iter().any(|e| e.target == center);
            if let Some((smaller, smaller_expected)) = previous {
                let (zoomed, delta) = smaller.zoom_out(graph);
                assert_fragment(&zoomed, &expected, &format!("{context}, zoomed"));
                let (added_nodes, added_edges) = reference_delta(&smaller_expected, &expected);
                assert_eq!(delta.added_nodes, added_nodes, "{context}: zoom nodes");
                assert_eq!(delta.added_edges, added_edges, "{context}: zoom edges");
            }
            previous = Some((hood, expected));
        }
    }
    assert!(saw_cycle, "{label}: some fragment must close a cycle");
}

#[test]
fn bounded_extraction_matches_the_whole_graph_search() {
    for seed in [3, 42] {
        let graph = corpus(300, seed);
        check_graph(&graph, graph.nodes(), &format!("300 nodes, seed {seed}"));
    }
}

#[test]
fn bounded_extraction_matches_on_a_larger_graph_around_hubs_and_leaves() {
    let graph = corpus(5_000, 7);
    let mut by_degree: Vec<NodeId> = graph.nodes().collect();
    by_degree.sort_by_key(|&n| std::cmp::Reverse(graph.out(n).len() + graph.inc(n).len()));
    let hubs = by_degree[..8].to_vec();
    let leaves = by_degree[by_degree.len() - 8..].to_vec();
    let spread = (0..5_000usize).step_by(397).map(NodeId::from);
    check_graph(
        &graph,
        hubs.into_iter().chain(leaves).chain(spread),
        "5,000 nodes",
    );
}
