//! Immutable compressed-sparse-row (CSR) snapshot of a graph.
//!
//! The interactive loop and the RPQ evaluator traverse the graph heavily and
//! never mutate it.  [`CsrGraph`] packs the adjacency into offsets +
//! `(label, target)` pairs for cache-friendly scans and keeps a reverse CSR
//! for backward traversals.  It is the one graph every query layer reads:
//! RPQ evaluation, neighborhoods, path enumeration, learning and interactive
//! sessions all take `&CsrGraph` and scan its [`out`](CsrGraph::out) /
//! [`inc`](CsrGraph::inc) rows; the mutable [`Graph`] only ingests.
//!
//! The snapshot carries the node names and the label interner of its source
//! so rendering and query parsing work against it.  It keeps no edge
//! identifiers: an edge is its `(source, label, target)` triple, and a row
//! lists its entries in the order the edges were inserted, so parallel
//! duplicates are told apart by their position in the row.  The *k*-th
//! occurrence of an edge in its source's out-row and the *k*-th in its
//! target's in-row are the same edge.
//!
//! Consecutive epochs of a live graph differ in a handful of rows, so a
//! snapshot stores what it can share with its neighbours behind [`Arc`]s:
//!
//! * each direction of the adjacency is cut into fixed node ranges of
//!   [`CHUNK_ROWS`] rows, each chunk holding chunk-local offsets and its
//!   entries.  A row is still one contiguous slice
//!   ([`out`](CsrGraph::out), [`inc`](CsrGraph::inc)), one shift away.  The
//!   snapshot [`DeltaGraph::compact`](crate::DeltaGraph::compact) produces
//!   rebuilds only the chunks holding a row its delta touched (and the tail
//!   chunk when nodes were added); every other chunk is its base's, by
//!   pointer;
//! * node names and the first-bearer name lookup live in chunk-shared
//!   storage of their own (`names.rs`: a byte arena per chunk), shared
//!   outright when a publish added no node and all but the tail chunk
//!   otherwise.
//!
//! [`memory_bytes`](CsrGraph::memory_bytes) counts what a snapshot holds: at
//! 1M nodes / 4M edges, 8 bytes per entry in each direction plus ≈ 15 bytes
//! per node name.

use crate::graph::{Edge, Graph};
use crate::ids::{LabelId, NodeId};
use crate::labels::LabelInterner;
use crate::names::NodeNames;
use std::sync::Arc;

/// Rows per adjacency chunk: the unit a publish copies.  A power of two, so a
/// row lookup is a shift and a mask; chosen by a sweep of 1,024 / 4,096 /
/// 16,384 over publish and word-derivation cost.
pub const CHUNK_ROWS: usize = 1024;

/// One packed adjacency entry: the label of an edge and its other endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrEntry {
    /// The label carried by the edge.
    pub label: LabelId,
    /// The other endpoint (target for forward CSR, source for reverse CSR).
    pub node: NodeId,
}

/// [`CHUNK_ROWS`] consecutive rows of one direction (fewer in the last
/// chunk).
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    /// `rows + 1` chunk-local offsets into `entries`.
    pub(crate) offsets: Arc<[u32]>,
    pub(crate) entries: Arc<[CsrEntry]>,
}

impl Chunk {
    pub(crate) fn new(offsets: Vec<u32>, entries: Vec<CsrEntry>) -> Self {
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(entries.len()));
        Self {
            offsets: offsets.into(),
            entries: entries.into(),
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether both arrays are `other`'s allocations.
    fn is_shared_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.offsets, &other.offsets) && Arc::ptr_eq(&self.entries, &other.entries)
    }

    fn memory_bytes(&self) -> usize {
        self.offsets.len() * size_of::<u32>() + self.entries.len() * size_of::<CsrEntry>()
    }
}

/// One direction of a snapshot's adjacency: chunk `c` holds rows
/// `c * CHUNK_ROWS ..`, every chunk but the last holds exactly
/// [`CHUNK_ROWS`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Adjacency {
    chunks: Vec<Chunk>,
    /// Total entries over all chunks.
    len: usize,
}

impl Adjacency {
    pub(crate) fn new(chunks: Vec<Chunk>) -> Self {
        let len = chunks.iter().map(|chunk| chunk.entries.len()).sum();
        Self { chunks, len }
    }

    pub(crate) fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    #[inline]
    fn entries(&self, node: NodeId) -> &[CsrEntry] {
        let i = node.index();
        let chunk = &self.chunks[i / CHUNK_ROWS];
        let row = i % CHUNK_ROWS;
        &chunk.entries[chunk.offsets[row] as usize..chunk.offsets[row + 1] as usize]
    }

    /// `(shared, new)`: how many of these chunks are `base`'s chunk at the
    /// same position, by pointer, and how many are not.
    fn shared_with(&self, base: &Self) -> (usize, usize) {
        let shared = self
            .chunks
            .iter()
            .zip(&base.chunks)
            .filter(|(mine, theirs)| mine.is_shared_with(theirs))
            .count();
        (shared, self.chunks.len() - shared)
    }
}

/// Builds one direction of a snapshot's adjacency when every row's length is
/// known up front, writing each item straight into its chunk: items may be
/// placed in any row order, and the items of one row keep the order they
/// were placed in.
///
/// ```
/// use gps_graph::csr::AdjacencyBuilder;
/// use gps_graph::{CsrEntry, CsrGraph, LabelInterner, NodeId};
///
/// // One edge 0 -a-> 1, placed in both directions.
/// let mut labels = LabelInterner::new();
/// let a = labels.intern("a");
/// let (mut fwd, mut rev) = (AdjacencyBuilder::new([1, 0]), AdjacencyBuilder::new([0, 1]));
/// let (n0, n1) = (NodeId::new(0), NodeId::new(1));
/// fwd.place(0, CsrEntry { label: a, node: n1 });
/// rev.place(1, CsrEntry { label: a, node: n0 });
/// let csr = CsrGraph::from_adjacency(["x", "y"], labels, fwd, rev, 0);
/// assert_eq!(csr.out(n0), &[CsrEntry { label: a, node: n1 }]);
/// assert_eq!(csr.inc(n1), &[CsrEntry { label: a, node: n0 }]);
/// ```
#[derive(Debug)]
pub struct AdjacencyBuilder {
    /// Per chunk: offsets and entries.  Until every item is placed,
    /// `offsets[r + 1]` is the next free slot of row `r` (it starts at the
    /// row's first slot and ends at its end).
    chunks: Vec<(Vec<u32>, Vec<CsrEntry>)>,
}

impl AdjacencyBuilder {
    /// Sizes the rows: `degrees` yields each row's item count, in row order.
    /// The caller then places exactly that many items in every row.
    pub fn new(degrees: impl IntoIterator<Item = u32>) -> Self {
        let blank = CsrEntry {
            label: LabelId::new(0),
            node: NodeId::new(0),
        };
        let mut degrees = degrees.into_iter().peekable();
        let mut chunks = Vec::new();
        while degrees.peek().is_some() {
            let mut offsets = Vec::with_capacity(CHUNK_ROWS + 1);
            offsets.push(0);
            let mut total = 0u32;
            for degree in degrees.by_ref().take(CHUNK_ROWS) {
                offsets.push(total);
                total += degree;
            }
            chunks.push((offsets, vec![blank; total as usize]));
        }
        Self { chunks }
    }

    /// Appends `entry` to row `row`.
    #[inline]
    pub fn place(&mut self, row: usize, entry: CsrEntry) {
        let (offsets, entries) = &mut self.chunks[row / CHUNK_ROWS];
        let next = &mut offsets[row % CHUNK_ROWS + 1];
        entries[*next as usize] = entry;
        *next += 1;
    }

    fn finish(self) -> Adjacency {
        Adjacency::new(
            self.chunks
                .into_iter()
                .map(|(offsets, entries)| Chunk::new(offsets, entries))
                .collect(),
        )
    }
}

/// An immutable CSR snapshot with both forward and reverse adjacency.
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    /// Node names and the first-bearer lookup over them, shared with the
    /// neighbouring epochs of a live graph.
    names: Arc<NodeNames>,
    labels: LabelInterner,
    fwd: Adjacency,
    rev: Adjacency,
    /// Version stamp of the snapshot: 0 for fresh builds;
    /// [`crate::delta::DeltaGraph::compact`] stamps its output with the base
    /// epoch plus one, so every published version of a live graph is
    /// distinguishable even when node and edge counts happen to coincide.
    epoch: u64,
}

impl CsrGraph {
    /// Builds a CSR snapshot from a mutable [`Graph`]: each row keeps the
    /// graph's insertion order.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut fwd = AdjacencyBuilder::new(graph.nodes().map(|n| graph.out_degree(n) as u32));
        let mut rev = AdjacencyBuilder::new(graph.nodes().map(|n| graph.in_degree(n) as u32));
        // Edge ids ascend, so placing edges in id order keeps every row in
        // the graph's adjacency order.
        for (_, edge) in graph.edges() {
            let forward = CsrEntry {
                label: edge.label,
                node: edge.target,
            };
            fwd.place(edge.source.index(), forward);
            let backward = CsrEntry {
                label: edge.label,
                node: edge.source,
            };
            rev.place(edge.target.index(), backward);
        }
        let names = graph.nodes().map(|node| graph.node_name(node));
        Self::from_adjacency(names, graph.labels().clone(), fwd, rev, 0)
    }

    /// Assembles a snapshot from both directions' filled builders — the
    /// seam of bulk builders that produce the adjacency without a [`Graph`]
    /// (the streamed corpus generator, the checkpoint decoder).
    /// `node_names` (in node-id order) are copied straight into the name
    /// arena, and the first-bearer name lookup is built over them; the
    /// caller guarantees the parts are mutually consistent (one row per node
    /// in each direction, the same edges in both, in the same order within
    /// every `(source, label, target)` group, entry endpoints and labels
    /// within bounds).
    pub fn from_adjacency(
        node_names: impl IntoIterator<Item = impl AsRef<str>>,
        labels: LabelInterner,
        fwd: AdjacencyBuilder,
        rev: AdjacencyBuilder,
        epoch: u64,
    ) -> Self {
        Self::from_parts(
            Arc::new(NodeNames::new(node_names)),
            labels,
            fwd.finish(),
            rev.finish(),
            epoch,
        )
    }

    /// Assembles a snapshot from already-chunked directions and
    /// already-shared names (the delta-graph compaction path).
    pub(crate) fn from_parts(
        names: Arc<NodeNames>,
        labels: LabelInterner,
        fwd: Adjacency,
        rev: Adjacency,
        epoch: u64,
    ) -> Self {
        Self {
            names,
            labels,
            fwd,
            rev,
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
        self.fwd.len
    }

    /// Alphabet size of the underlying graph at snapshot time.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The label interner captured at snapshot time.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// The name of a label, if it exists.
    pub fn label_name(&self, label: LabelId) -> Option<&str> {
        self.labels.name(label)
    }

    /// Looks up a label by name.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name)
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
        self.fwd.entries(node)
    }

    /// Incoming `(label, source)` entries of `node` as a contiguous slice.
    #[inline]
    pub fn inc(&self, node: NodeId) -> &[CsrEntry] {
        self.rev.entries(node)
    }

    /// Every edge, grouped by source node in row order (not in insertion
    /// order, as [`Graph::edges`] lists them).
    pub fn edges_by_source(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |source| {
            let edge = move |entry: &CsrEntry| Edge::new(source, entry.label, entry.node);
            self.out(source).iter().map(edge)
        })
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

    /// How many adjacency chunks this snapshot shares with `base` by
    /// pointer, per direction: `(forward, reverse)`, each `(shared, new)`
    /// where `new` counts this snapshot's chunks that are not `base`'s chunk
    /// at the same position (rebuilt or past `base`'s end).  A
    /// publish of a few edges over a large graph reads `new` in the single
    /// digits.
    pub fn shared_with(&self, base: &CsrGraph) -> ((usize, usize), (usize, usize)) {
        (
            self.fwd.shared_with(&base.fwd),
            self.rev.shared_with(&base.rev),
        )
    }

    /// The bytes of the adjacency (both directions' offsets and entries)
    /// and of the node names (text, name ends and the lookup's runs),
    /// counted from the arrays' lengths.  The label interner and the
    /// per-chunk headers are not counted: they do not grow with the edges.
    pub fn memory_bytes(&self) -> usize {
        let adjacency =
            |side: &Adjacency| -> usize { side.chunks.iter().map(Chunk::memory_bytes).sum() };
        adjacency(&self.fwd) + adjacency(&self.rev) + self.names.memory_bytes()
    }

    /// Whether `other` is this snapshot or a clone of it: the same epoch and
    /// the same name storage, which clones share and separate builds do not.
    pub fn is_same_snapshot(&self, other: &CsrGraph) -> bool {
        self.epoch == other.epoch && Arc::ptr_eq(&self.names, &other.names)
    }

    /// The shared name storage (what [`node_name`](Self::node_name) and
    /// [`node_by_name`](Self::node_by_name) consult) — handed to the next
    /// epoch by the delta overlay instead of being rebuilt per publish.
    #[inline]
    pub(crate) fn names(&self) -> &Arc<NodeNames> {
        &self.names
    }

    /// The forward adjacency (what the delta overlay splices).
    pub(crate) fn forward(&self) -> &Adjacency {
        &self.fwd
    }

    /// The reverse adjacency.
    pub(crate) fn reverse(&self) -> &Adjacency {
        &self.rev
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
    fn snapshot_carries_names_and_labels() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_name(n[0]), "a");
        assert_eq!(csr.node_by_name("d"), Some(n[3]));
        assert_eq!(csr.node_by_name("missing"), None);
        assert_eq!(csr.labels().get("x"), g.label_id("x"));
    }

    /// `node`'s forward and reverse rows as `g` ingested them, in insertion
    /// order.
    fn ingested_rows(g: &Graph, node: NodeId) -> [Vec<CsrEntry>; 2] {
        let entry = |label, node| CsrEntry { label, node };
        [
            g.edges()
                .filter(|(_, e)| e.source == node)
                .map(|(_, e)| entry(e.label, e.target))
                .collect(),
            g.edges()
                .filter(|(_, e)| e.target == node)
                .map(|(_, e)| entry(e.label, e.source))
                .collect(),
        ]
    }

    fn snapshot_rows(csr: &CsrGraph, node: NodeId) -> [Vec<CsrEntry>; 2] {
        [csr.out(node).to_vec(), csr.inc(node).to_vec()]
    }

    #[test]
    fn rows_keep_the_insertion_order() {
        let (g, _) = diamond();
        let csr = CsrGraph::from_graph(&g);
        for node in g.nodes() {
            assert_eq!(snapshot_rows(&csr, node), ingested_rows(&g, node));
        }
    }

    /// A ring over `2 * CHUNK_ROWS + 7` nodes (three chunks, the last
    /// partial) with a chord from every tenth node to node 0.
    fn ring() -> Graph {
        let n = 2 * CHUNK_ROWS + 7;
        let mut g = Graph::new();
        for i in 0..n {
            g.add_node(format!("v{i}"));
        }
        for i in 0..n {
            g.add_edge_by_name(NodeId::from(i), "next", NodeId::from((i + 1) % n));
            if i % 10 == 0 {
                g.add_edge_by_name(NodeId::from(i), "home", NodeId::from(0usize));
            }
        }
        g
    }

    #[test]
    fn rows_are_chunked_and_stay_contiguous() {
        let g = ring();
        let csr = CsrGraph::from_graph(&g);
        let chunks = |adjacency: &Adjacency| -> Vec<usize> {
            adjacency.chunks().iter().map(Chunk::rows).collect()
        };
        assert_eq!(chunks(&csr.fwd), [CHUNK_ROWS, CHUNK_ROWS, 7]);
        assert_eq!(chunks(&csr.rev), [CHUNK_ROWS, CHUNK_ROWS, 7]);
        assert_eq!(csr.edge_count(), g.edge_count());
        for node in g.nodes() {
            assert_eq!(snapshot_rows(&csr, node), ingested_rows(&g, node));
        }
        // Node 0's reverse row (one `next` plus every chord) is one slice.
        assert_eq!(
            csr.in_degree(NodeId::from(0usize)),
            1 + g.node_count().div_ceil(10)
        );

        let copy = CsrGraph::from_graph(&g);
        assert_eq!(
            copy.shared_with(&csr),
            ((0, 3), (0, 3)),
            "a rebuild shares nothing"
        );
        assert_eq!(csr.clone().shared_with(&csr), ((3, 0), (3, 0)));
    }

    #[test]
    fn memory_bytes_counts_entries_offsets_and_names() {
        let g = ring();
        let csr = CsrGraph::from_graph(&g);
        let (n, m) = (g.node_count(), g.edge_count());
        // Per direction: an 8-byte entry per edge and `rows + 1` offsets per
        // chunk.  Names: their text, `len + 1` ends per chunk and one lookup
        // id per name.
        let adjacency = 2 * (8 * m + 4 * (n + 3));
        let text: usize = (0..n).map(|i| format!("v{i}").len()).sum();
        let names = text + 4 * (n + n.div_ceil(crate::names::CHUNK)) + 4 * n;
        assert_eq!(csr.memory_bytes(), adjacency + names);
        assert_eq!(CsrGraph::default().memory_bytes(), 0);
    }
}
