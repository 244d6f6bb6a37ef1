//! The mutable, adjacency-list graph database.
//!
//! [`Graph`] is the ingest store: an edge-labeled directed multigraph with
//! named nodes, forward and reverse adjacency lists, and an embedded
//! [`LabelInterner`].  Loaders and generators build one; every algorithm
//! reads the [`crate::CsrGraph`] snapshot taken from it
//! ([`CsrGraph::from_graph`](crate::CsrGraph::from_graph)).

use crate::ids::{EdgeId, LabelId, NodeId};
use crate::labels::LabelInterner;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A directed, labeled edge.  It orders by source, then label, then target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Source node.
    pub source: NodeId,
    /// Edge label.
    pub label: LabelId,
    /// Target node.
    pub target: NodeId,
}

impl Edge {
    /// Builds an edge record.
    pub fn new(source: NodeId, label: LabelId, target: NodeId) -> Self {
        Self {
            source,
            label,
            target,
        }
    }
}

/// An edge-labeled directed multigraph with named nodes.
///
/// Nodes and edges receive dense identifiers in insertion order.  Parallel
/// edges (same source, label and target) are permitted but
/// [`Graph::add_edge_dedup`] can be used to avoid them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    node_names: Vec<String>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node.
    out_adjacency: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    in_adjacency: Vec<Vec<EdgeId>>,
    labels: LabelInterner,
    #[serde(skip)]
    name_index: BTreeMap<String, NodeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity for `nodes` nodes and `edges`
    /// edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            node_names: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_adjacency: Vec::with_capacity(nodes),
            in_adjacency: Vec::with_capacity(nodes),
            labels: LabelInterner::new(),
            name_index: BTreeMap::new(),
        }
    }

    // ----------------------------------------------------------------- nodes

    /// Adds a node with the given display name and returns its identifier.
    ///
    /// Names are not required to be unique, but [`Graph::node_by_name`] only
    /// resolves to the first node bearing a name.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId::from(self.node_names.len());
        let name = name.into();
        self.name_index.entry(name.clone()).or_insert(id);
        self.node_names.push(name);
        self.out_adjacency.push(Vec::new());
        self.in_adjacency.push(Vec::new());
        id
    }

    /// Adds `count` anonymous nodes named `prefix0`, `prefix1`, … and returns
    /// their identifiers.
    pub fn add_nodes(&mut self, prefix: &str, count: usize) -> Vec<NodeId> {
        (0..count)
            .map(|i| self.add_node(format!("{prefix}{i}")))
            .collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_names.is_empty()
    }

    /// Returns the display name of a node.
    ///
    /// # Panics
    /// Panics if `node` does not belong to this graph.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.index()]
    }

    /// Looks up the first node bearing `name`.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Iterates over all node identifiers in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len()).map(NodeId::from)
    }

    /// Returns `true` if `node` is a valid identifier of this graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.node_names.len()
    }

    // ---------------------------------------------------------------- labels

    /// Interns (or looks up) a label string.
    pub fn label(&mut self, name: &str) -> LabelId {
        self.labels.intern(name)
    }

    /// Looks up a label without interning.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name)
    }

    /// Returns the name of a label.
    pub fn label_name(&self, label: LabelId) -> Option<&str> {
        self.labels.name(label)
    }

    /// The label interner (the alphabet of the graph).
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Number of distinct labels (alphabet size).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    // ----------------------------------------------------------------- edges

    /// Adds a directed edge `source --label--> target` and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint does not belong to this graph.
    pub fn add_edge(&mut self, source: NodeId, label: LabelId, target: NodeId) -> EdgeId {
        assert!(self.contains_node(source), "unknown source node {source}");
        assert!(self.contains_node(target), "unknown target node {target}");
        let id = EdgeId::from(self.edges.len());
        self.edges.push(Edge::new(source, label, target));
        self.out_adjacency[source.index()].push(id);
        self.in_adjacency[target.index()].push(id);
        id
    }

    /// Adds an edge unless an identical `(source, label, target)` edge
    /// already exists; returns the id of the existing or new edge.
    pub fn add_edge_dedup(&mut self, source: NodeId, label: LabelId, target: NodeId) -> EdgeId {
        if let Some(existing) = self.out_adjacency[source.index()]
            .iter()
            .copied()
            .find(|&e| {
                let edge = self.edges[e.index()];
                edge.label == label && edge.target == target
            })
        {
            return existing;
        }
        self.add_edge(source, label, target)
    }

    /// Convenience: adds an edge, interning the label by name.
    pub fn add_edge_by_name(&mut self, source: NodeId, label: &str, target: NodeId) -> EdgeId {
        let label = self.label(label);
        self.add_edge(source, label, target)
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (EdgeId::from(i), e))
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_adjacency[node.index()].len()
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_adjacency[node.index()].len()
    }

    /// Rebuilds indexes that are skipped during serialization.  Must be
    /// called after deserializing a graph with `serde`.
    pub fn rebuild_indexes(&mut self) {
        self.labels.rebuild_index();
        self.name_index = self
            .node_names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), NodeId::from(i)))
            .collect();
        // Keep only the first node per name, mirroring insertion behaviour.
        let mut first = BTreeMap::new();
        for (i, name) in self.node_names.iter().enumerate() {
            first.entry(name.clone()).or_insert(NodeId::from(i));
        }
        self.name_index = first;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "y", c);
        g.add_edge_by_name(a, "y", c);
        (g, a, b, c)
    }

    #[test]
    fn nodes_receive_dense_ids() {
        let (g, a, b, c) = tiny();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![a, b, c]);
    }

    #[test]
    fn node_names_and_lookup() {
        let (g, a, _, _) = tiny();
        assert_eq!(g.node_name(a), "A");
        assert_eq!(g.node_by_name("A"), Some(a));
        assert_eq!(g.node_by_name("Z"), None);
    }

    #[test]
    fn edges_and_adjacency() {
        let (g, a, b, c) = tiny();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(c), 2);
        assert_eq!(g.out_degree(c), 0);
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        let edges: Vec<Edge> = g.edges().map(|(_, e)| e).collect();
        assert_eq!(
            edges,
            [Edge::new(a, x, b), Edge::new(b, y, c), Edge::new(a, y, c)]
        );
    }

    #[test]
    fn dedup_edge_insertion() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let x = g.label("x");
        let e1 = g.add_edge_dedup(a, x, b);
        let e2 = g.add_edge_dedup(a, x, b);
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
        // Plain add_edge allows parallel edges.
        g.add_edge(a, x, b);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn add_nodes_uses_prefix() {
        let mut g = Graph::new();
        let ids = g.add_nodes("N", 3);
        assert_eq!(ids.len(), 3);
        assert_eq!(g.node_name(ids[0]), "N0");
        assert_eq!(g.node_name(ids[2]), "N2");
    }

    #[test]
    fn label_interning_is_shared() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge_by_name(a, "t", b);
        g.add_edge_by_name(b, "t", a);
        assert_eq!(g.label_count(), 1);
        assert_eq!(g.label_name(g.label_id("t").unwrap()), Some("t"));
    }

    #[test]
    #[should_panic(expected = "unknown source node")]
    fn adding_edge_with_foreign_node_panics() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let x = g.label("x");
        g.add_edge(NodeId::new(7), x, a);
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let (g, a, _, c) = tiny();
        let json = serde_json::to_string(&g).unwrap();
        let mut restored: Graph = serde_json::from_str(&json).unwrap();
        restored.rebuild_indexes();
        assert_eq!(restored.node_count(), g.node_count());
        assert_eq!(restored.edge_count(), g.edge_count());
        assert_eq!(restored.node_by_name("A"), Some(a));
        assert!(restored.label_id("y").is_some());
        assert_eq!(restored.in_degree(c), 2);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let g = Graph::with_capacity(10, 20);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}
