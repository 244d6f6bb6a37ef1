//! *k*-neighborhood extraction (Figure 3(a)/(b) of the paper).
//!
//! Before asking the user to label a node, GPS shows her a small fragment of
//! the graph: all nodes and edges at distance at most *k* from the proposed
//! node (initially *k* = 2).  Parts of the graph reachable from the fragment
//! but not included are marked with "…" continuation markers; when the user
//! zooms out (*k* → *k+1*) the newly revealed nodes and edges are
//! highlighted.  [`Neighborhood`] captures the fragment, frontier and
//! continuation information, and [`NeighborhoodDelta`] captures the zoom
//! highlight.

use crate::csr::CsrGraph;
use crate::graph::Edge;
use crate::ids::{EdgeId, NodeId};
use crate::traversal::{bfs, Direction};
use std::collections::BTreeSet;

/// A fragment of the graph around a center node: all nodes and edges at
/// distance at most `radius` from the center, following outgoing edges (the
/// direction in which paths — and therefore query answers — are defined).
#[derive(Debug, Clone)]
pub struct Neighborhood {
    center: NodeId,
    radius: u32,
    /// Nodes in the fragment, sorted by id, with their BFS distance.
    nodes: Vec<(NodeId, u32)>,
    /// Edges whose both endpoints are in the fragment and which lie on some
    /// path of length at most `radius` from the center.
    edges: Vec<(EdgeId, Edge)>,
    /// Nodes of the fragment that have at least one outgoing edge leaving
    /// the fragment — these are rendered with a "…" continuation marker.
    continuations: Vec<NodeId>,
}

impl Neighborhood {
    /// Extracts the neighborhood of `center` with the given `radius`
    /// (maximum number of edges from the center).
    pub fn extract(graph: &CsrGraph, center: NodeId, radius: u32) -> Self {
        let distances = bfs(graph, center, Some(radius), Direction::Forward);
        let mut nodes: Vec<(NodeId, u32)> = distances.reachable().collect();
        nodes.sort_by_key(|&(n, _)| n);

        let in_fragment: BTreeSet<NodeId> = nodes.iter().map(|&(n, _)| n).collect();

        let mut edges = Vec::new();
        let mut continuations = BTreeSet::new();
        for &(node, dist) in &nodes {
            for (&edge_id, entry) in graph.out_ids(node).iter().zip(graph.out(node)) {
                // The edge is inside the fragment only when it can be part of
                // a path of length <= radius from the center and its target
                // was reached within the radius.
                if dist < radius && in_fragment.contains(&entry.node) {
                    edges.push((edge_id, Edge::new(node, entry.label, entry.node)));
                } else {
                    continuations.insert(node);
                }
            }
        }
        edges.sort_by_key(|&(id, _)| id);

        Self {
            center,
            radius,
            nodes,
            edges,
            continuations: continuations.into_iter().collect(),
        }
    }

    /// The node the neighborhood is centered on.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The radius (maximum distance from the center) of the fragment.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Nodes of the fragment with their distance from the center, sorted by
    /// node id.
    pub fn nodes(&self) -> &[(NodeId, u32)] {
        &self.nodes
    }

    /// Node ids of the fragment, sorted.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|&(n, _)| n).collect()
    }

    /// Edges of the fragment, sorted by edge id.
    pub fn edges(&self) -> &[(EdgeId, Edge)] {
        &self.edges
    }

    /// Nodes that have outgoing edges pointing outside the fragment.  The
    /// renderer draws these with a "…" marker, exactly as in Figure 3.
    pub fn continuations(&self) -> &[NodeId] {
        &self.continuations
    }

    /// Returns `true` if `node` is part of the fragment.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search_by_key(&node, |&(n, _)| n).is_ok()
    }

    /// Distance of `node` from the center, if it is in the fragment.
    pub fn distance(&self, node: NodeId) -> Option<u32> {
        self.nodes
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| self.nodes[i].1)
    }

    /// Number of nodes in the fragment.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the fragment.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Zooms out by one: returns the neighborhood of the same center with
    /// radius `radius + 1` together with the delta against `self`.
    pub fn zoom_out(&self, graph: &CsrGraph) -> (Neighborhood, NeighborhoodDelta) {
        let larger = Neighborhood::extract(graph, self.center, self.radius + 1);
        let delta = NeighborhoodDelta::between(self, &larger);
        (larger, delta)
    }
}

/// The difference between two neighborhoods of the same center — the nodes
/// and edges revealed by a zoom-out, which the UI highlights (drawn in blue
/// in Figure 3(b)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeighborhoodDelta {
    /// Nodes present in the larger fragment but not the smaller one.
    pub added_nodes: Vec<NodeId>,
    /// Edges present in the larger fragment but not the smaller one.
    pub added_edges: Vec<EdgeId>,
}

impl NeighborhoodDelta {
    /// Computes the delta from `smaller` to `larger`.
    ///
    /// Both neighborhoods must be centered on the same node; the delta of
    /// unrelated fragments is not meaningful.
    pub fn between(smaller: &Neighborhood, larger: &Neighborhood) -> Self {
        debug_assert_eq!(smaller.center(), larger.center());
        let small_nodes: BTreeSet<NodeId> = smaller.node_ids().into_iter().collect();
        let small_edges: BTreeSet<EdgeId> = smaller.edges.iter().map(|&(id, _)| id).collect();
        let added_nodes = larger
            .node_ids()
            .into_iter()
            .filter(|n| !small_nodes.contains(n))
            .collect();
        let added_edges = larger
            .edges
            .iter()
            .map(|&(id, _)| id)
            .filter(|id| !small_edges.contains(id))
            .collect();
        Self {
            added_nodes,
            added_edges,
        }
    }

    /// Returns `true` when the zoom revealed nothing new (the fragment had
    /// already saturated its reachable region).
    pub fn is_empty(&self) -> bool {
        self.added_nodes.is_empty() && self.added_edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// The Figure 1 fragment around N2:
    /// N2 -bus-> N1 -tram-> N4 -cinema-> C1, N2 -bus-> N3, N2 -restaurant-> R1,
    /// N3 -bus-> N2 (cycle), N1 -... etc.  We model a simplified version that
    /// has the same radius behaviour.
    fn sample() -> (CsrGraph, Vec<NodeId>) {
        let mut g = Graph::new();
        let n1 = g.add_node("N1");
        let n2 = g.add_node("N2");
        let n3 = g.add_node("N3");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        let r1 = g.add_node("R1");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n2, "bus", n3);
        g.add_edge_by_name(n2, "restaurant", r1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        g.add_edge_by_name(n3, "bus", n2);
        (CsrGraph::from_graph(&g), vec![n1, n2, n3, n4, c1, r1])
    }

    #[test]
    fn radius_two_fragment_contains_two_hop_nodes() {
        let (g, n) = sample();
        let hood = Neighborhood::extract(&g, n[1], 2);
        assert_eq!(hood.center(), n[1]);
        assert_eq!(hood.radius(), 2);
        // N2 itself, N1, N3, R1 (1 hop), N4 (2 hops via N1), N2 via cycle is
        // already present.
        assert!(hood.contains(n[0]));
        assert!(hood.contains(n[3]));
        assert!(!hood.contains(n[4]), "C1 is at distance 3");
        assert_eq!(hood.distance(n[3]), Some(2));
        assert_eq!(hood.distance(n[1]), Some(0));
    }

    #[test]
    fn continuations_mark_frontier_nodes() {
        let (g, n) = sample();
        let hood = Neighborhood::extract(&g, n[1], 2);
        // N4 has an outgoing edge to C1 outside the fragment.
        assert!(hood.continuations().contains(&n[3]));
        // R1 has no outgoing edges, so it is not a continuation.
        assert!(!hood.continuations().contains(&n[5]));
    }

    #[test]
    fn zoom_out_reveals_the_cinema() {
        let (g, n) = sample();
        let hood2 = Neighborhood::extract(&g, n[1], 2);
        let (hood3, delta) = hood2.zoom_out(&g);
        assert_eq!(hood3.radius(), 3);
        assert!(hood3.contains(n[4]), "C1 revealed at radius 3");
        assert!(delta.added_nodes.contains(&n[4]));
        assert!(!delta.is_empty());
        // The delta contains the cinema edge.
        assert_eq!(delta.added_edges.len(), 1);
    }

    #[test]
    fn saturated_zoom_produces_empty_delta() {
        let (g, n) = sample();
        let hood = Neighborhood::extract(&g, n[1], 10);
        let (larger, delta) = hood.zoom_out(&g);
        assert_eq!(larger.node_count(), hood.node_count());
        assert!(delta.is_empty());
    }

    #[test]
    fn radius_zero_is_just_the_center() {
        let (g, n) = sample();
        let hood = Neighborhood::extract(&g, n[1], 0);
        assert_eq!(hood.node_count(), 1);
        assert_eq!(hood.edge_count(), 0);
        assert!(hood.continuations().contains(&n[1]));
    }

    #[test]
    fn edges_do_not_leave_the_radius() {
        let (g, n) = sample();
        let hood = Neighborhood::extract(&g, n[1], 1);
        // Fragment nodes: N2, N1, N3, R1.  The N1 -tram-> N4 edge must not
        // appear even though both look "close".
        assert!(hood.contains(n[0]));
        assert!(!hood.contains(n[3]));
        for (_, e) in hood.edges() {
            assert!(hood.contains(e.source) && hood.contains(e.target));
        }
        // The N3 -bus-> N2 cycle edge is at the frontier: N3 is at distance 1
        // (== radius) so its outgoing edges are continuations, not edges.
        assert!(hood.continuations().contains(&n[2]));
    }

    #[test]
    fn sink_center_has_trivial_neighborhood() {
        let (g, n) = sample();
        let hood = Neighborhood::extract(&g, n[4], 2);
        assert_eq!(hood.node_count(), 1);
        assert!(hood.continuations().is_empty());
    }
}
