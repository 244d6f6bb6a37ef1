//! Immutable compressed-sparse-row (CSR) snapshot of a graph.
//!
//! The interactive loop and the RPQ evaluator traverse the graph heavily and
//! never mutate it.  [`CsrGraph`] packs the adjacency into flat arrays
//! (offsets + `(label, target)` pairs) for cache-friendly scans, keeps a
//! reverse CSR for backward traversals used by the evaluator's fixed point,
//! and — since it implements [`GraphBackend`] — serves as a first-class
//! drop-in store for every query layer: RPQ evaluation, neighborhoods, path
//! enumeration, learning and interactive sessions all run directly on the
//! snapshot.
//!
//! The snapshot carries the node names and the label interner of its source
//! so rendering and query parsing work against it; the original edge
//! identifiers are preserved per adjacency entry so neighborhood extraction
//! and zoom deltas agree exactly with the mutable [`Graph`] backend.
//!
//! Node names are append-only across the epochs of a live graph, so a
//! snapshot holds them — and the first-bearer name lookup — behind one `Arc`
//! of chunk-shared storage (`names.rs`): the snapshot
//! [`DeltaGraph::compact`](crate::DeltaGraph::compact) produces shares its
//! base's names outright when the publish added no node, and all but the
//! tail chunk otherwise.  The packed adjacency arrays stay flat `Vec`s (the
//! layout every reader sweeps); compaction copies them at `memcpy` speed.

use crate::backend::GraphBackend;
use crate::graph::{Edge, Graph};
use crate::ids::{EdgeId, LabelId, NodeId};
use crate::labels::LabelInterner;
use crate::names::NodeNames;
use std::sync::Arc;

/// One packed adjacency entry: the label of an edge and its other endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrEntry {
    /// The label carried by the edge.
    pub label: LabelId,
    /// The other endpoint (target for forward CSR, source for reverse CSR).
    pub node: NodeId,
}

/// An immutable CSR snapshot with both forward and reverse adjacency.
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    /// Node names and the first-bearer lookup over them, shared with the
    /// neighbouring epochs of a live graph.
    names: Arc<NodeNames>,
    labels: LabelInterner,
    fwd_offsets: Vec<u32>,
    fwd_entries: Vec<CsrEntry>,
    /// Original edge id of each forward entry (aligned with `fwd_entries`).
    fwd_edge_ids: Vec<EdgeId>,
    rev_offsets: Vec<u32>,
    rev_entries: Vec<CsrEntry>,
    /// Original edge id of each reverse entry (aligned with `rev_entries`).
    rev_edge_ids: Vec<EdgeId>,
    /// Version stamp of the snapshot.  Snapshots built directly from a
    /// backend inherit the backend's epoch (0 for fresh builds);
    /// [`crate::delta::DeltaGraph::compact`] stamps its output with the base
    /// epoch plus one, so every published version of a live graph is
    /// distinguishable even when node and edge counts happen to coincide.
    epoch: u64,
}

impl CsrGraph {
    /// Builds a CSR snapshot from a mutable [`Graph`].
    pub fn from_graph(graph: &Graph) -> Self {
        Self::from_backend(graph)
    }

    /// Builds a CSR snapshot from any backend.
    pub fn from_backend<B: GraphBackend>(backend: &B) -> Self {
        let n = backend.node_count();
        let m = backend.edge_count();

        let node_names: Vec<String> = backend
            .nodes()
            .map(|node| backend.node_name(node).to_string())
            .collect();

        let mut fwd_offsets = Vec::with_capacity(n + 1);
        let mut fwd_entries = Vec::with_capacity(m);
        let mut fwd_edge_ids = Vec::with_capacity(m);
        fwd_offsets.push(0);
        for node in backend.nodes() {
            for (edge_id, edge) in backend.out_edges(node) {
                fwd_entries.push(CsrEntry {
                    label: edge.label,
                    node: edge.target,
                });
                fwd_edge_ids.push(edge_id);
            }
            fwd_offsets.push(fwd_entries.len() as u32);
        }

        let mut rev_offsets = Vec::with_capacity(n + 1);
        let mut rev_entries = Vec::with_capacity(m);
        let mut rev_edge_ids = Vec::with_capacity(m);
        rev_offsets.push(0);
        for node in backend.nodes() {
            for (edge_id, edge) in backend.in_edges(node) {
                rev_entries.push(CsrEntry {
                    label: edge.label,
                    node: edge.source,
                });
                rev_edge_ids.push(edge_id);
            }
            rev_offsets.push(rev_entries.len() as u32);
        }

        Self {
            names: Arc::new(NodeNames::new(node_names)),
            labels: backend.labels().clone(),
            fwd_offsets,
            fwd_entries,
            fwd_edge_ids,
            rev_offsets,
            rev_entries,
            rev_edge_ids,
            epoch: backend.epoch(),
        }
    }

    /// Assembles a snapshot directly from pre-built packed arrays and
    /// already-shared names (the delta-graph compaction path).  The caller
    /// guarantees the parts are mutually consistent — exactly what
    /// [`Self::from_backend`] would have produced for the merged graph.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        names: Arc<NodeNames>,
        labels: LabelInterner,
        fwd_offsets: Vec<u32>,
        fwd_entries: Vec<CsrEntry>,
        fwd_edge_ids: Vec<EdgeId>,
        rev_offsets: Vec<u32>,
        rev_entries: Vec<CsrEntry>,
        rev_edge_ids: Vec<EdgeId>,
        epoch: u64,
    ) -> Self {
        Self {
            names,
            labels,
            fwd_offsets,
            fwd_entries,
            fwd_edge_ids,
            rev_offsets,
            rev_entries,
            rev_edge_ids,
            epoch,
        }
    }

    /// The version stamp of this snapshot (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns the snapshot restamped with `epoch` (used by stores that
    /// assign their own version numbers).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Number of nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.fwd_entries.len()
    }

    /// Alphabet size of the underlying graph at snapshot time.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The label interner captured at snapshot time.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// The display name of a node.
    ///
    /// # Panics
    /// Panics if `node` does not belong to this snapshot.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.names.get(node.index())
    }

    /// The display names of all nodes, in id order (what a checkpoint
    /// writer streams out).
    pub fn node_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.names.iter()
    }

    /// Looks up the first node bearing `name`.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.lookup(name)
    }

    /// Iterates over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from)
    }

    /// Outgoing `(label, target)` entries of `node` as a contiguous slice.
    #[inline]
    pub fn out(&self, node: NodeId) -> &[CsrEntry] {
        let i = node.index();
        let lo = self.fwd_offsets[i] as usize;
        let hi = self.fwd_offsets[i + 1] as usize;
        &self.fwd_entries[lo..hi]
    }

    /// Incoming `(label, source)` entries of `node` as a contiguous slice.
    #[inline]
    pub fn inc(&self, node: NodeId) -> &[CsrEntry] {
        let i = node.index();
        let lo = self.rev_offsets[i] as usize;
        let hi = self.rev_offsets[i + 1] as usize;
        &self.rev_entries[lo..hi]
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out(node).len()
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.inc(node).len()
    }

    /// The raw forward offset array (`node_count + 1` entries): node `i`'s
    /// outgoing entries live at `fwd_entries()[offsets[i]..offsets[i+1]]`.
    ///
    /// Exposed so bulk evaluators (the `gps-exec` frontier engine) can build
    /// derived indexes with flat array sweeps instead of per-node iterators.
    #[inline]
    pub fn fwd_offsets(&self) -> &[u32] {
        &self.fwd_offsets
    }

    /// The raw forward adjacency entries, grouped by source node.
    #[inline]
    pub fn fwd_entries(&self) -> &[CsrEntry] {
        &self.fwd_entries
    }

    /// The raw reverse offset array (`node_count + 1` entries).
    #[inline]
    pub fn rev_offsets(&self) -> &[u32] {
        &self.rev_offsets
    }

    /// The raw reverse adjacency entries, grouped by target node.
    #[inline]
    pub fn rev_entries(&self) -> &[CsrEntry] {
        &self.rev_entries
    }

    /// Original edge ids of the forward entries (aligned with
    /// [`fwd_entries`](Self::fwd_entries)) — the serialization seam used by
    /// checkpoint writers.
    #[inline]
    pub fn fwd_edge_ids(&self) -> &[EdgeId] {
        &self.fwd_edge_ids
    }

    /// Original edge ids of the reverse entries (aligned with
    /// [`rev_entries`](Self::rev_entries)).
    #[inline]
    pub fn rev_edge_ids(&self) -> &[EdgeId] {
        &self.rev_edge_ids
    }

    /// Assembles a snapshot from raw packed arrays — the checkpoint
    /// *deserialization* seam.  The first-bearer name lookup is rebuilt from
    /// the node names; the caller guarantees the arrays are mutually
    /// consistent (offsets monotone and spanning the entry arrays, entry
    /// ids within bounds), exactly what the public accessors of a live
    /// snapshot expose.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        node_names: Vec<String>,
        labels: LabelInterner,
        fwd_offsets: Vec<u32>,
        fwd_entries: Vec<CsrEntry>,
        fwd_edge_ids: Vec<EdgeId>,
        rev_offsets: Vec<u32>,
        rev_entries: Vec<CsrEntry>,
        rev_edge_ids: Vec<EdgeId>,
        epoch: u64,
    ) -> Self {
        Self::from_parts(
            Arc::new(NodeNames::new(node_names)),
            labels,
            fwd_offsets,
            fwd_entries,
            fwd_edge_ids,
            rev_offsets,
            rev_entries,
            rev_edge_ids,
            epoch,
        )
    }

    /// The shared name storage (what [`node_name`](Self::node_name) and
    /// [`node_by_name`](Self::node_by_name) consult) — handed to the next
    /// epoch by the delta overlay instead of being rebuilt per publish.
    #[inline]
    pub(crate) fn names(&self) -> &Arc<NodeNames> {
        &self.names
    }

    /// Original edge ids of `node`'s outgoing entries (aligned with
    /// [`out`](Self::out)).
    #[inline]
    pub(crate) fn out_ids(&self, node: NodeId) -> &[EdgeId] {
        &self.fwd_edge_ids[self.fwd_range(node)]
    }

    #[inline]
    fn fwd_range(&self, node: NodeId) -> std::ops::Range<usize> {
        let i = node.index();
        self.fwd_offsets[i] as usize..self.fwd_offsets[i + 1] as usize
    }

    #[inline]
    fn rev_range(&self, node: NodeId) -> std::ops::Range<usize> {
        let i = node.index();
        self.rev_offsets[i] as usize..self.rev_offsets[i + 1] as usize
    }
}

impl From<&Graph> for CsrGraph {
    fn from(graph: &Graph) -> Self {
        Self::from_graph(graph)
    }
}

/// Iterator over `(label, neighbor)` pairs of a CSR slice.
pub struct CsrNeighbors<'a> {
    entries: std::slice::Iter<'a, CsrEntry>,
}

impl<'a> Iterator for CsrNeighbors<'a> {
    type Item = (LabelId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(LabelId, NodeId)> {
        self.entries.next().map(|entry| (entry.label, entry.node))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl<'a> ExactSizeIterator for CsrNeighbors<'a> {}

/// Iterator over `(EdgeId, Edge)` pairs of a CSR slice, reconstructing the
/// full edge records from the pivot node.
pub struct CsrIncidentEdges<'a> {
    entries: std::slice::Iter<'a, CsrEntry>,
    ids: std::slice::Iter<'a, EdgeId>,
    pivot: NodeId,
    reverse: bool,
}

impl<'a> Iterator for CsrIncidentEdges<'a> {
    type Item = (EdgeId, Edge);

    #[inline]
    fn next(&mut self) -> Option<(EdgeId, Edge)> {
        let entry = self.entries.next()?;
        let id = *self.ids.next().expect("edge ids aligned with entries");
        let edge = if self.reverse {
            Edge::new(entry.node, entry.label, self.pivot)
        } else {
            Edge::new(self.pivot, entry.label, entry.node)
        };
        Some((id, edge))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl<'a> ExactSizeIterator for CsrIncidentEdges<'a> {}

impl GraphBackend for CsrGraph {
    type Neighbors<'a> = CsrNeighbors<'a>;
    type IncidentEdges<'a> = CsrIncidentEdges<'a>;

    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    fn labels(&self) -> &LabelInterner {
        CsrGraph::labels(self)
    }

    fn node_name(&self, node: NodeId) -> &str {
        CsrGraph::node_name(self, node)
    }

    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        CsrGraph::node_by_name(self, name)
    }

    fn successors(&self, node: NodeId) -> CsrNeighbors<'_> {
        CsrNeighbors {
            entries: self.out(node).iter(),
        }
    }

    fn predecessors(&self, node: NodeId) -> CsrNeighbors<'_> {
        CsrNeighbors {
            entries: self.inc(node).iter(),
        }
    }

    fn out_edges(&self, node: NodeId) -> CsrIncidentEdges<'_> {
        let range = self.fwd_range(node);
        CsrIncidentEdges {
            entries: self.fwd_entries[range.clone()].iter(),
            ids: self.fwd_edge_ids[range].iter(),
            pivot: node,
            reverse: false,
        }
    }

    fn in_edges(&self, node: NodeId) -> CsrIncidentEdges<'_> {
        let range = self.rev_range(node);
        CsrIncidentEdges {
            entries: self.rev_entries[range.clone()].iter(),
            ids: self.rev_edge_ids[range].iter(),
            pivot: node,
            reverse: true,
        }
    }

    fn out_degree(&self, node: NodeId) -> usize {
        CsrGraph::out_degree(self, node)
    }

    fn in_degree(&self, node: NodeId) -> usize {
        CsrGraph::in_degree(self, node)
    }

    fn epoch(&self) -> u64 {
        CsrGraph::epoch(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, Vec<NodeId>) {
        // a -x-> b -z-> d ;  a -y-> c -z-> d
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "y", c);
        g.add_edge_by_name(b, "z", d);
        g.add_edge_by_name(c, "z", d);
        (g, vec![a, b, c, d])
    }

    #[test]
    fn csr_preserves_counts() {
        let (g, _) = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.label_count(), 3);
    }

    #[test]
    fn forward_adjacency_matches_graph() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let out_a: Vec<NodeId> = csr.out(n[0]).iter().map(|e| e.node).collect();
        assert_eq!(out_a, vec![n[1], n[2]]);
        assert_eq!(csr.out_degree(n[3]), 0);
        assert_eq!(csr.out_degree(n[0]), 2);
    }

    #[test]
    fn reverse_adjacency_matches_graph() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let in_d: Vec<NodeId> = csr.inc(n[3]).iter().map(|e| e.node).collect();
        assert_eq!(in_d, vec![n[1], n[2]]);
        assert_eq!(csr.in_degree(n[0]), 0);
    }

    #[test]
    fn labels_are_preserved_per_entry() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let z = g.label_id("z").unwrap();
        assert!(csr.out(n[1]).iter().all(|e| e.label == z));
        assert!(csr.inc(n[3]).iter().all(|e| e.label == z));
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = Graph::new();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.nodes().count(), 0);
    }

    #[test]
    fn from_reference_conversion() {
        let (g, _) = diamond();
        let csr: CsrGraph = (&g).into();
        assert_eq!(csr.edge_count(), g.edge_count());
    }

    #[test]
    fn snapshot_carries_names_and_labels() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_name(n[0]), "a");
        assert_eq!(csr.node_by_name("d"), Some(n[3]));
        assert_eq!(csr.node_by_name("missing"), None);
        assert_eq!(csr.labels().get("x"), g.label_id("x"));
    }

    #[test]
    fn incident_edges_preserve_original_ids() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let graph_out: Vec<(EdgeId, Edge)> = g.out_edges(n[0]).collect();
        let csr_out: Vec<(EdgeId, Edge)> = GraphBackend::out_edges(&csr, n[0]).collect();
        assert_eq!(graph_out, csr_out);
        let graph_in: Vec<(EdgeId, Edge)> = g.in_edges(n[3]).collect();
        let csr_in: Vec<(EdgeId, Edge)> = GraphBackend::in_edges(&csr, n[3]).collect();
        assert_eq!(graph_in, csr_in);
    }

    #[test]
    fn raw_accessors_expose_the_packed_arrays() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.fwd_offsets().len(), csr.node_count() + 1);
        assert_eq!(csr.rev_offsets().len(), csr.node_count() + 1);
        assert_eq!(csr.fwd_entries().len(), csr.edge_count());
        assert_eq!(csr.rev_entries().len(), csr.edge_count());
        // The slices agree with the per-node views.
        let lo = csr.fwd_offsets()[n[0].index()] as usize;
        let hi = csr.fwd_offsets()[n[0].index() + 1] as usize;
        assert_eq!(&csr.fwd_entries()[lo..hi], csr.out(n[0]));
        assert_eq!(
            *csr.fwd_offsets().last().unwrap() as usize,
            csr.edge_count()
        );
    }

    #[test]
    fn snapshot_of_a_snapshot_is_identical() {
        let (g, _) = diamond();
        let once = CsrGraph::from_graph(&g);
        let twice = CsrGraph::from_backend(&once);
        assert_eq!(once.node_count(), twice.node_count());
        assert_eq!(once.edge_count(), twice.edge_count());
        for node in once.nodes() {
            assert_eq!(once.out(node), twice.out(node));
            assert_eq!(once.inc(node), twice.inc(node));
        }
    }
}
