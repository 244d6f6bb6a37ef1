//! Mutable overlay over an immutable snapshot — the write path of a live,
//! epoch-versioned graph.
//!
//! A served graph cannot stop the world to rebuild its [`CsrGraph`] on every
//! edge insertion.  [`DeltaGraph`] layers a small mutable overlay — inserted
//! nodes, inserted edges, and tombstones for deleted edges — over a shared
//! `Arc<CsrGraph>` base.  It is a write overlay, not a graph to read: it
//! answers only what staging itself asks (counts, name lookup, the
//! alphabet), and the staged state is read by compacting it.
//! [`DeltaGraph::compact`] *splices* the overlay into a fresh snapshot —
//! producing byte-for-byte the snapshot a from-scratch [`Graph`](crate::Graph) →
//! [`CsrGraph`] build of the surviving edges would have produced, stamped
//! with the next [`epoch`](CsrGraph::epoch).
//!
//! The overlay is the unit writers stage: a service accumulates
//! [`UpdateOp`]s into a `DeltaGraph` and publishes the compacted snapshot,
//! while readers pinned to the old epoch keep traversing the unchanged base.
//!
//! ## What a publish costs
//!
//! Staging is proportional to the ops: the overlay holds only the names it
//! added and resolves every other name through the base's shared lookup, so
//! [`DeltaGraph::new`] copies nothing that grows with the graph.
//!
//! Compaction never looks at an untouched adjacency entry, and copies none
//! outside the chunks it must rebuild.  Each direction of a snapshot is a
//! list of [`CHUNK_ROWS`]-row chunks behind `Arc`s (see [`CsrGraph`]).  The
//! rows an overlay touches (endpoints of tombstones and of inserted edges)
//! come sorted out of its maps; a chunk holding one is rebuilt by splicing
//! ([`RowSplice`] over its chunk-local offsets: bulk copies between the
//! rewritten rows), and so is the tail chunk when nodes were added.  Every
//! other chunk is the base's, by pointer — a removal too rebuilds only the
//! chunks holding its source's and its target's rows, since no entry
//! carries an identifier that would move.  Node names and their lookup are
//! handed to the next epoch behind the base's `Arc` (plus the overlay's own
//! additions).  What remains proportional to the graph is one pass over the
//! chunk pointers, about a thousand per direction at 1M nodes.
//!
//! ## Identifier semantics
//!
//! Node identifiers are stable across compaction (nodes are never deleted;
//! inserted nodes extend the dense id space).  Edges have no identifier: an
//! edge is its `(source, label, target)` triple, and parallel duplicates
//! are told apart only by their order, which every row keeps as the order
//! the edges were inserted.  A removal takes the earliest surviving
//! occurrence.  The overlay records it as a count per triple — *k*
//! tombstones drop the first *k* matching entries of the base rows, which
//! are the same *k* edges in the source's out-row and in the target's
//! in-row — and falls back to the overlay's own insertions once every base
//! occurrence is tombstoned.

use crate::csr::{Adjacency, Chunk, CsrEntry, CsrGraph, CHUNK_ROWS};
use crate::graph::Edge;
use crate::ids::{LabelId, NodeId};
use crate::labels::LabelInterner;
use crate::splice::RowSplice;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// One staged mutation, with endpoints addressed by display name (the
/// vocabulary of the service update API and the streamed workloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert a node with the given display name.
    AddNode(String),
    /// Insert a `source --label--> target` edge.  Both endpoints must already
    /// exist (insert nodes first); the label is interned on demand.
    AddEdge {
        /// Source node name.
        source: String,
        /// Edge label.
        label: String,
        /// Target node name.
        target: String,
    },
    /// Delete one `source --label--> target` edge (the earliest surviving
    /// occurrence when parallel duplicates exist).
    RemoveEdge {
        /// Source node name.
        source: String,
        /// Edge label.
        label: String,
        /// Target node name.
        target: String,
    },
}

/// Why a staged [`UpdateOp`] could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An edge endpoint name resolved to no node.
    UnknownNode(String),
    /// A [`UpdateOp::RemoveEdge`] matched no surviving edge.
    MissingEdge {
        /// Source node name of the removal.
        source: String,
        /// Label name of the removal.
        label: String,
        /// Target node name of the removal.
        target: String,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownNode(name) => write!(f, "unknown node `{name}`"),
            UpdateError::MissingEdge {
                source,
                label,
                target,
            } => write!(f, "no edge `{source} -{label}-> {target}` to remove"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// The net effect of an overlay, in the id space of the *merged* graph —
/// what the incremental index and cache maintenance paths consume.
///
/// An edge inserted and then deleted inside the same overlay appears in
/// neither list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Epoch of the base snapshot the overlay was staged against.
    pub base_epoch: u64,
    /// Number of inserted nodes.
    pub added_nodes: usize,
    /// Surviving inserted edges, in insertion order.
    pub added_edges: Vec<Edge>,
    /// Deleted base edges, in `(source, label, target)` order, a parallel
    /// duplicate once per deleted copy.
    pub removed_edges: Vec<Edge>,
}

impl GraphDelta {
    /// Returns `true` when the overlay changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added_nodes == 0 && self.added_edges.is_empty() && self.removed_edges.is_empty()
    }

    /// The labels whose adjacency partitions the delta touches.
    pub fn touched_labels(&self) -> BTreeSet<LabelId> {
        self.added_edges
            .iter()
            .chain(&self.removed_edges)
            .map(|e| e.label)
            .collect()
    }

    /// The distinct source nodes of the changed edges, ascending — the seed
    /// set for bounded-reachability cache maintenance (only nodes reaching a
    /// changed edge's source within the bound can change their word sets).
    pub fn changed_sources(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self
            .added_edges
            .iter()
            .chain(&self.removed_edges)
            .map(|e| e.source)
            .collect();
        set.into_iter().collect()
    }

    /// Edges inserted plus edges removed.
    pub fn changed_edges(&self) -> usize {
        self.added_edges.len() + self.removed_edges.len()
    }

    /// The *net* effect of a chain of deltas, each staged over the snapshot
    /// the one before it produced, as one delta from the first one's base.
    ///
    /// Edges are counted as a multiset: an edge inserted by one delta and
    /// removed by a later one cancels, so does a removal later re-inserted,
    /// and parallel copies count one by one.  An edge whose net count is
    /// positive is listed that many times as inserted, one whose count is
    /// negative as removed, each list in order of first appearance (so a
    /// composed removal list is not in base edge-id order).  Node additions
    /// add up.  The empty chain composes to the empty delta.
    pub fn composed<'a>(deltas: impl IntoIterator<Item = &'a GraphDelta>) -> GraphDelta {
        let deltas: Vec<&GraphDelta> = deltas.into_iter().collect();
        let mut net: HashMap<Edge, i64> = HashMap::new();
        for delta in &deltas {
            for edge in &delta.added_edges {
                *net.entry(*edge).or_default() += 1;
            }
            for edge in &delta.removed_edges {
                *net.entry(*edge).or_default() -= 1;
            }
        }
        // Each edge is emitted while its net count still has copies to give.
        fn emit<'a>(
            net: &mut HashMap<Edge, i64>,
            edges: impl Iterator<Item = &'a Edge>,
            sign: i64,
        ) -> Vec<Edge> {
            edges
                .filter(|edge| {
                    let count = net.get_mut(edge).expect("counted above");
                    let keep = *count * sign > 0;
                    if keep {
                        *count -= sign;
                    }
                    keep
                })
                .copied()
                .collect()
        }
        let added_edges = emit(&mut net, deltas.iter().flat_map(|d| &d.added_edges), 1);
        let removed_edges = emit(&mut net, deltas.iter().flat_map(|d| &d.removed_edges), -1);
        GraphDelta {
            base_epoch: deltas.first().map_or(0, |delta| delta.base_epoch),
            added_nodes: deltas.iter().map(|delta| delta.added_nodes).sum(),
            added_edges,
            removed_edges,
        }
    }
}

/// A mutable overlay (node/edge insertions, edge tombstones) over a shared
/// immutable [`CsrGraph`] base.  See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Arc<CsrGraph>,
    labels: LabelInterner,
    added_names: Vec<String>,
    /// First bearer of each name among the *added* nodes; a name the base
    /// already bears resolves there first.
    added_index: BTreeMap<String, NodeId>,
    added_edges: Vec<Edge>,
    /// `false` for overlay edges deleted before publication.
    added_alive: Vec<bool>,
    /// Overlay out-adjacency: indices into `added_edges`, per source node.
    added_out: BTreeMap<NodeId, Vec<usize>>,
    /// Overlay in-adjacency: indices into `added_edges`, per target node.
    added_in: BTreeMap<NodeId, Vec<usize>>,
    /// Deleted base edges: how many of each triple's base occurrences, the
    /// earliest first, are gone.  Never holds a zero.
    tombstones: BTreeMap<Edge, u32>,
}

impl DeltaGraph {
    /// Starts an empty overlay over `base`.
    pub fn new(base: Arc<CsrGraph>) -> Self {
        Self {
            labels: base.labels().clone(),
            base,
            added_names: Vec::new(),
            added_index: BTreeMap::new(),
            added_edges: Vec::new(),
            added_alive: Vec::new(),
            added_out: BTreeMap::new(),
            added_in: BTreeMap::new(),
            tombstones: BTreeMap::new(),
        }
    }

    /// The shared base snapshot.
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Number of nodes of the staged graph: the base's plus the insertions.
    pub fn node_count(&self) -> usize {
        self.base.node_count() + self.added_names.len()
    }

    /// Number of surviving edges of the staged graph.
    pub fn edge_count(&self) -> usize {
        let added = self.added_alive.iter().filter(|&&alive| alive).count();
        let removed: u32 = self.tombstones.values().sum();
        self.base.edge_count() - removed as usize + added
    }

    /// Whether `node` is a base node or a staged insertion.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    /// The first bearer of `name`: a base node if the base has one, else a
    /// staged insertion.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.base
            .node_by_name(name)
            .or_else(|| self.added_index.get(name).copied())
    }

    /// The overlay's alphabet: the base's plus every label staged so far.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Interns (or looks up) a label string in the overlay's alphabet.
    pub fn label(&mut self, name: &str) -> LabelId {
        self.labels.intern(name)
    }

    /// Inserts a node and returns its identifier (dense, continuing the
    /// base's id space).  Mirrors [`Graph::add_node`](crate::Graph::add_node): duplicate names are
    /// permitted, name lookup resolves to the first bearer.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId::from(self.base.node_count() + self.added_names.len());
        let name = name.into();
        self.added_index.entry(name.clone()).or_insert(id);
        self.added_names.push(name);
        id
    }

    /// Inserts a `source --label--> target` edge, after every occurrence
    /// the rows already hold.
    ///
    /// # Panics
    /// Panics when either endpoint does not belong to this overlay, mirroring
    /// [`Graph::add_edge`](crate::Graph::add_edge).
    pub fn add_edge(&mut self, source: NodeId, label: LabelId, target: NodeId) {
        assert!(self.contains_node(source), "unknown source node {source}");
        assert!(self.contains_node(target), "unknown target node {target}");
        let index = self.added_edges.len();
        self.added_edges.push(Edge::new(source, label, target));
        self.added_alive.push(true);
        self.added_out.entry(source).or_default().push(index);
        self.added_in.entry(target).or_default().push(index);
    }

    /// Deletes one `source --label--> target` edge: the earliest surviving
    /// base occurrence, else the earliest surviving overlay occurrence.
    /// Returns `false` when no such edge survives.
    pub fn remove_edge(&mut self, source: NodeId, label: LabelId, target: NodeId) -> bool {
        let edge = Edge::new(source, label, target);
        if source.index() < self.base.node_count() {
            let occurrences = self
                .base
                .out(source)
                .iter()
                .filter(|entry| entry.label == label && entry.node == target)
                .count();
            let dead = self.tombstones.get(&edge).copied().unwrap_or(0);
            if occurrences > dead as usize {
                *self.tombstones.entry(edge).or_default() += 1;
                return true;
            }
        }
        if let Some(indices) = self.added_out.get(&source) {
            for &i in indices {
                let edge = self.added_edges[i];
                if self.added_alive[i] && edge.label == label && edge.target == target {
                    self.added_alive[i] = false;
                    return true;
                }
            }
        }
        false
    }

    /// Applies one name-addressed [`UpdateOp`].
    pub fn apply(&mut self, op: &UpdateOp) -> Result<(), UpdateError> {
        match op {
            UpdateOp::AddNode(name) => {
                self.add_node(name.as_str());
                Ok(())
            }
            UpdateOp::AddEdge {
                source,
                label,
                target,
            } => {
                let source = self.resolve(source)?;
                let target = self.resolve(target)?;
                let label = self.labels.intern(label);
                self.add_edge(source, label, target);
                Ok(())
            }
            UpdateOp::RemoveEdge {
                source,
                label,
                target,
            } => {
                let source_id = self.resolve(source)?;
                let target_id = self.resolve(target)?;
                let removed = self
                    .labels
                    .get(label)
                    .is_some_and(|l| self.remove_edge(source_id, l, target_id));
                if removed {
                    Ok(())
                } else {
                    Err(UpdateError::MissingEdge {
                        source: source.clone(),
                        label: label.clone(),
                        target: target.clone(),
                    })
                }
            }
        }
    }

    /// Applies a batch of ops, stopping at the first failure.
    pub fn apply_all(&mut self, ops: &[UpdateOp]) -> Result<(), UpdateError> {
        ops.iter().try_for_each(|op| self.apply(op))
    }

    fn resolve(&self, name: &str) -> Result<NodeId, UpdateError> {
        self.node_by_name(name)
            .ok_or_else(|| UpdateError::UnknownNode(name.to_string()))
    }

    /// The net effect of the overlay (see [`GraphDelta`]).
    pub fn delta(&self) -> GraphDelta {
        GraphDelta {
            base_epoch: self.base.epoch(),
            added_nodes: self.added_names.len(),
            added_edges: self
                .added_edges
                .iter()
                .zip(&self.added_alive)
                .filter(|&(_, &alive)| alive)
                .map(|(&edge, _)| edge)
                .collect(),
            removed_edges: self
                .tombstones
                .iter()
                .flat_map(|(&edge, &dead)| std::iter::repeat_n(edge, dead as usize))
                .collect(),
        }
    }

    /// Merges the overlay into a fresh snapshot stamped `base.epoch() + 1`.
    ///
    /// Chunks without a touched row are shared with the base and only the
    /// touched rows are rewritten (see the [module docs](self)); the result
    /// is byte-identical to snapshotting a from-scratch [`Graph`](crate::Graph)
    /// holding the surviving edges (base edges in base order, then overlay
    /// insertions) — `tests/mvcc_conformance.rs` proves this over random
    /// update sequences.
    pub fn compact(&self) -> CsrGraph {
        let base = self.base.as_ref();
        let fwd = self.side(base.forward(), &self.added_out, |edge| {
            (edge.source, edge.target)
        });
        let rev = self.side(base.reverse(), &self.added_in, |edge| {
            (edge.target, edge.source)
        });
        let names = if self.added_names.is_empty() {
            Arc::clone(base.names())
        } else {
            Arc::new(base.names().extended(&self.added_names))
        };
        CsrGraph::from_parts(names, self.labels.clone(), fwd, rev, base.epoch() + 1)
    }

    /// One direction of the merged graph: the base's chunks, shared where
    /// no row in them changes.  `added` is the overlay adjacency of this
    /// direction and `ends` splits an edge into (the row it lives in, the
    /// endpoint its entry stores).
    fn side(
        &self,
        base: &Adjacency,
        added: &BTreeMap<NodeId, Vec<usize>>,
        ends: fn(&Edge) -> (NodeId, NodeId),
    ) -> Adjacency {
        // Per touched row: the entries to drop and how many of each.
        let mut dead: BTreeMap<usize, Vec<(CsrEntry, u32)>> = BTreeMap::new();
        for (edge, &count) in &self.tombstones {
            let (row, node) = ends(edge);
            let entry = CsrEntry {
                label: edge.label,
                node,
            };
            dead.entry(row.index()).or_default().push((entry, count));
        }
        let touched: BTreeSet<usize> = dead
            .keys()
            .copied()
            .chain(added.keys().map(|node| node.index()))
            .collect();
        let mut touched = touched.into_iter().peekable();
        let rows = self.node_count();
        let chunks = (0..rows.div_ceil(CHUNK_ROWS))
            .map(|c| {
                let (lo, hi) = (c * CHUNK_ROWS, rows.min((c + 1) * CHUNK_ROWS));
                let own: Vec<usize> =
                    std::iter::from_fn(|| touched.next_if(|&row| row < hi)).collect();
                match base.chunks().get(c) {
                    Some(old) if own.is_empty() && old.rows() == hi - lo => old.clone(),
                    old => self.rebuilt(old, lo..hi, &own, added, &dead, ends),
                }
            })
            .collect();
        Adjacency::new(chunks)
    }

    /// The chunk of `rows` spliced from `old` (`None` past the base's last
    /// chunk): bulk copies around the rewritten rows `touched` (ascending).
    /// A rewritten row drops the first `count` entries equal to each of its
    /// `dead` entries and appends its surviving insertions.
    fn rebuilt(
        &self,
        old: Option<&Chunk>,
        rows: Range<usize>,
        touched: &[usize],
        added: &BTreeMap<NodeId, Vec<usize>>,
        dead: &BTreeMap<usize, Vec<(CsrEntry, u32)>>,
        ends: fn(&Edge) -> (NodeId, NodeId),
    ) -> Chunk {
        let (offsets, entries) = old.map_or((&[][..], &[][..]), |old| {
            (&old.offsets[..], &old.entries[..])
        });
        let mut out = Vec::with_capacity(entries.len() + touched.len());
        let mut splice = RowSplice::new(offsets);
        for &row in touched {
            let (before, own) = splice.seek(row - rows.start);
            out.extend_from_slice(&entries[before]);
            let start = out.len();
            let mut dropping = dead.get(&row).cloned().unwrap_or_default();
            for entry in &entries[own] {
                match dropping
                    .iter_mut()
                    .find(|(gone, left)| gone == entry && *left > 0)
                {
                    Some((_, left)) => *left -= 1,
                    None => out.push(*entry),
                }
            }
            for &i in added.get(&NodeId::from(row)).into_iter().flatten() {
                if self.added_alive[i] {
                    let edge = self.added_edges[i];
                    out.push(CsrEntry {
                        label: edge.label,
                        node: ends(&edge).1,
                    });
                }
            }
            splice.set_len(out.len() - start);
        }
        let (rest, out_offsets) = splice.finish(rows.len());
        out.extend_from_slice(&entries[rest]);
        Chunk::new(out_offsets, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// a -x-> b -y-> c ; a -x-> c
    fn base() -> Arc<CsrGraph> {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "y", c);
        g.add_edge_by_name(a, "x", c);
        Arc::new(CsrGraph::from_graph(&g))
    }

    fn names(delta: &DeltaGraph, node: &str) -> NodeId {
        delta.node_by_name(node).unwrap()
    }

    #[test]
    fn overlay_reads_combine_base_and_staged_state() {
        let mut delta = DeltaGraph::new(base());
        let a = names(&delta, "a");
        let c = names(&delta, "c");
        let d = delta.add_node("d");
        let z = delta.label("z");
        delta.add_edge(c, z, d);
        let x = delta.labels().get("x").unwrap();
        assert!(delta.remove_edge(a, x, c));
        assert!(!delta.remove_edge(a, x, c), "already tombstoned");
        assert_eq!(delta.node_count(), 4);
        assert_eq!(delta.edge_count(), 3);

        let merged = delta.compact();
        assert_eq!(merged.node_count(), 4);
        assert_eq!(merged.edge_count(), 3);
        assert_eq!(merged.node_name(d), "d");
        let b = merged.node_by_name("b").unwrap();
        let entry = |label, node| CsrEntry { label, node };
        assert_eq!(merged.out(a), [entry(x, b)], "a-x->c tombstoned");
        assert_eq!(merged.out(c), [entry(z, d)]);
        assert_eq!(merged.inc(d), [entry(z, c)]);
        assert_eq!(merged.out_degree(a), 1);
        assert_eq!(merged.in_degree(c), 1, "b-y->c survives, a-x->c removed");
    }

    #[test]
    fn insertions_follow_the_base_entries_of_their_rows() {
        let mut delta = DeltaGraph::new(base());
        let a = names(&delta, "a");
        let b = names(&delta, "b");
        let c = names(&delta, "c");
        let (x, y) = (delta.label("x"), delta.label("y"));
        delta.add_edge(b, x, a);
        let entry = |label, node| CsrEntry { label, node };
        let compacted = delta.compact();
        assert_eq!(compacted.out(b), [entry(y, c), entry(x, a)]);
        assert_eq!(compacted.inc(a), [entry(x, b)]);
    }

    #[test]
    fn compact_matches_a_from_scratch_rebuild() {
        let mut delta = DeltaGraph::new(base());
        let a = names(&delta, "a");
        let b = names(&delta, "b");
        let c = names(&delta, "c");
        let d = delta.add_node("d");
        let z = delta.label("z");
        let x = delta.labels().get("x").unwrap();
        delta.add_edge(c, z, d);
        delta.add_edge(d, x, a);
        assert!(delta.remove_edge(a, x, b));
        let compacted = delta.compact();

        // From-scratch: surviving base edges in base order, then overlay.
        let mut g = Graph::new();
        for name in ["x", "y", "z"] {
            g.label(name);
        }
        let ga = g.add_node("a");
        let gb = g.add_node("b");
        let gc = g.add_node("c");
        let gd = g.add_node("d");
        g.add_edge_by_name(gb, "y", gc);
        g.add_edge_by_name(ga, "x", gc);
        g.add_edge_by_name(gc, "z", gd);
        g.add_edge_by_name(gd, "x", ga);
        let expected = CsrGraph::from_graph(&g);

        assert_eq!(compacted.node_count(), expected.node_count());
        assert_eq!(compacted.edge_count(), expected.edge_count());
        assert_eq!(compacted.labels(), expected.labels());
        for node in expected.nodes() {
            assert_eq!(compacted.out(node), expected.out(node), "{node}");
            assert_eq!(compacted.inc(node), expected.inc(node), "{node}");
        }
        assert_eq!(compacted.node_name(d), "d");
        assert_eq!(compacted.epoch(), 1, "base was epoch 0");
    }

    #[test]
    fn epochs_advance_across_chained_compactions() {
        let delta = DeltaGraph::new(base());
        let once = Arc::new(delta.compact());
        assert_eq!(once.epoch(), 1);
        let twice = DeltaGraph::new(once).compact();
        assert_eq!(twice.epoch(), 2);
    }

    #[test]
    fn add_then_remove_inside_one_overlay_nets_out() {
        let mut delta = DeltaGraph::new(base());
        let a = names(&delta, "a");
        let b = names(&delta, "b");
        let w = delta.label("w");
        delta.add_edge(a, w, b);
        assert!(delta.remove_edge(a, w, b));
        let summary = delta.delta();
        assert!(summary.added_edges.is_empty());
        assert!(summary.removed_edges.is_empty());
        assert_eq!(delta.edge_count(), 3);
        let compacted = delta.compact();
        assert_eq!(compacted.edge_count(), 3);
    }

    #[test]
    fn apply_resolves_names_and_surfaces_errors() {
        let mut delta = DeltaGraph::new(base());
        delta
            .apply_all(&[
                UpdateOp::AddNode("d".into()),
                UpdateOp::AddEdge {
                    source: "c".into(),
                    label: "z".into(),
                    target: "d".into(),
                },
                UpdateOp::RemoveEdge {
                    source: "a".into(),
                    label: "x".into(),
                    target: "b".into(),
                },
            ])
            .unwrap();
        let staged = delta.delta();
        assert_eq!(staged.added_nodes, 1);
        assert_eq!(staged.added_edges.len(), 1);
        assert_eq!(staged.removed_edges.len(), 1);

        let unknown = delta.apply(&UpdateOp::AddEdge {
            source: "ghost".into(),
            label: "x".into(),
            target: "a".into(),
        });
        assert_eq!(unknown, Err(UpdateError::UnknownNode("ghost".into())));
        let missing = delta.apply(&UpdateOp::RemoveEdge {
            source: "a".into(),
            label: "nope".into(),
            target: "b".into(),
        });
        assert!(matches!(missing, Err(UpdateError::MissingEdge { .. })));
        assert!(missing.unwrap_err().to_string().contains("nope"));
    }

    #[test]
    fn delta_summary_reports_the_net_effect() {
        let mut delta = DeltaGraph::new(base());
        let a = names(&delta, "a");
        let b = names(&delta, "b");
        let x = delta.label("x");
        let y = delta.label("y");
        delta.add_edge(b, y, a);
        delta.remove_edge(a, x, b);
        let summary = delta.delta();
        assert_eq!(summary.base_epoch, 0);
        assert_eq!(summary.added_edges, vec![Edge::new(b, y, a)]);
        assert_eq!(summary.removed_edges, vec![Edge::new(a, x, b)]);
        assert_eq!(
            summary.touched_labels().into_iter().collect::<Vec<_>>(),
            vec![x, y]
        );
        assert_eq!(summary.changed_sources(), vec![a, b]);
        assert!(!summary.is_empty());
        assert!(DeltaGraph::new(base()).delta().is_empty());
    }

    #[test]
    fn parallel_duplicate_removal_takes_one_occurrence() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "x", b);
        let mut delta = DeltaGraph::new(Arc::new(CsrGraph::from_graph(&g)));
        let x = delta.labels().get("x").unwrap();
        assert!(delta.remove_edge(a, x, b));
        assert_eq!(delta.edge_count(), 1);
        assert!(delta.remove_edge(a, x, b));
        assert_eq!(delta.edge_count(), 0);
        assert!(!delta.remove_edge(a, x, b));
    }

    #[test]
    fn parallel_duplicates_apart_in_a_row_match_a_from_scratch_build() {
        // Node 0's out-row holds three copies of 0 -x-> 1 with other edges
        // between them, and node 1's in-row interleaves them with 3 -x-> 1.
        let spread = || Model {
            nodes: (0..4).map(|i| format!("n{i}")).collect(),
            labels: vec!["x".into(), "y".into()],
            edges: vec![
                (0, 0, 1),
                (0, 1, 2),
                (3, 0, 1),
                (0, 0, 1),
                (0, 0, 2),
                (3, 0, 1),
                (0, 0, 1),
            ],
        };
        let scenarios: &[(&str, &[Op])] = &[
            ("a base occurrence", &[Del(0, "x", 1)]),
            ("two base occurrences", &[Del(0, "x", 1), Del(0, "x", 1)]),
            (
                "every base occurrence, then the overlay's",
                &[
                    Add(0, "x", 1),
                    Add(0, "y", 1),
                    Add(0, "x", 1),
                    Del(0, "x", 1),
                    Del(0, "x", 1),
                    Del(0, "x", 1),
                    Del(0, "x", 1),
                ],
            ),
            (
                "remove, then re-add in one overlay",
                &[Del(0, "x", 1), Add(0, "x", 1), Del(3, "x", 1)],
            ),
            (
                "add, then remove in one overlay takes a base copy",
                &[Add(0, "x", 1), Del(0, "x", 1)],
            ),
        ];
        for (context, ops) in scenarios {
            let mut model = spread();
            let base = Arc::new(model.build());
            let once = publish(&base, &mut model, ops, context);
            publish(&once, &mut model, &[Del(0, "x", 1)], context);
        }

        // Across a chunk boundary: the out-row of node 0 in the first chunk,
        // the in-row of node `CHUNK_ROWS + 1` in the second, each holding
        // two copies apart; a removal rebuilds one chunk per direction.
        let far = CHUNK_ROWS + 1;
        let mut model = chunked_model();
        model
            .edges
            .splice(1..1, [(0, 0, far), (5, 0, far), (0, 1, far), (0, 0, far)]);
        let base = Arc::new(model.build());
        let ops = [Del(0, "x", far), Add(0, "x", far), Del(0, "x", far)];
        let once = publish(&base, &mut model, &ops, "across a chunk boundary");
        assert_eq!(once.shared_with(&base), ((2, 1), (2, 1)));
        let out: Vec<_> = once
            .out(NodeId::from(0usize))
            .iter()
            .map(|e| e.node.index())
            .collect();
        assert_eq!(out, [1, far, 1, far], "the overlay copy survives last");
    }

    // ------------------------------------------------ the splice's corners

    /// One staged mutation of a corner-case scenario, by node index.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Node(&'static str),
        Add(usize, &'static str, usize),
        Del(usize, &'static str, usize),
    }
    use Op::{Add, Del, Node};

    /// What a from-scratch build is made from: node names, label names and
    /// the surviving edges, each in insertion order.
    #[derive(Debug, Clone, Default)]
    struct Model {
        nodes: Vec<String>,
        labels: Vec<String>,
        edges: Vec<(usize, usize, usize)>,
    }

    impl Model {
        fn label(&mut self, name: &str) -> usize {
            self.labels
                .iter()
                .position(|l| l == name)
                .unwrap_or_else(|| {
                    self.labels.push(name.to_string());
                    self.labels.len() - 1
                })
        }

        fn build(&self) -> CsrGraph {
            let mut g = Graph::new();
            for label in &self.labels {
                g.label(label);
            }
            for name in &self.nodes {
                g.add_node(name.clone());
            }
            for &(s, l, t) in &self.edges {
                g.add_edge(NodeId::from(s), LabelId::from(l), NodeId::from(t));
            }
            CsrGraph::from_graph(&g)
        }

        /// Stages `ops` on the overlay and mirrors them here.
        fn stage(&mut self, delta: &mut DeltaGraph, ops: &[Op]) {
            for &op in ops {
                match op {
                    Node(name) => {
                        delta.add_node(name);
                        self.nodes.push(name.to_string());
                    }
                    Add(s, label, t) => {
                        let l = delta.label(label);
                        assert_eq!(l.index(), self.label(label), "interners in step");
                        delta.add_edge(NodeId::from(s), l, NodeId::from(t));
                        self.edges.push((s, l.index(), t));
                    }
                    Del(s, label, t) => {
                        let l = self.label(label);
                        assert!(
                            delta.remove_edge(NodeId::from(s), LabelId::from(l), NodeId::from(t)),
                            "{op:?} matches a live edge"
                        );
                        let first = self.edges.iter().position(|&e| e == (s, l, t));
                        self.edges
                            .remove(first.expect("the model holds the edge too"));
                    }
                }
            }
        }
    }

    /// Every row in both directions, the chunk layout, every name and every
    /// lookup.
    fn assert_identical(got: &CsrGraph, want: &CsrGraph, context: &str) {
        assert!(got.node_names().eq(want.node_names()), "{context}: names");
        assert_eq!(got.labels(), want.labels(), "{context}: labels");
        assert_eq!(got.edge_count(), want.edge_count(), "{context}: edges");
        for node in want.nodes() {
            assert_eq!(got.out(node), want.out(node), "{context}: out({node})");
            assert_eq!(got.inc(node), want.inc(node), "{context}: inc({node})");
        }
        let shape = |csr: &CsrGraph| -> Vec<(usize, usize)> {
            [csr.forward(), csr.reverse()]
                .into_iter()
                .flat_map(Adjacency::chunks)
                .map(|chunk| (chunk.rows(), chunk.entries.len()))
                .collect()
        };
        assert_eq!(shape(got), shape(want), "{context}: chunks");
        for name in want.node_names() {
            assert_eq!(
                got.node_by_name(name),
                want.node_by_name(name),
                "{context}: lookup of {name}"
            );
        }
    }

    /// Publishes `ops` over `snapshot` and checks the result against a
    /// from-scratch build of the mirrored model.
    fn publish(
        snapshot: &Arc<CsrGraph>,
        model: &mut Model,
        ops: &[Op],
        context: &str,
    ) -> Arc<CsrGraph> {
        let mut delta = DeltaGraph::new(Arc::clone(snapshot));
        model.stage(&mut delta, ops);
        let compacted = delta.compact();
        assert_identical(&compacted, &model.build(), context);
        assert_eq!(compacted.epoch(), snapshot.epoch() + 1, "{context}");
        Arc::new(compacted)
    }

    /// Five nodes, labels x/y, eight edges with parallel duplicates: edge 0
    /// leaves the first node, edge 7 (a self-loop) sits on the last.
    fn corner_model() -> Model {
        Model {
            nodes: (0..5).map(|i| format!("n{i}")).collect(),
            labels: vec!["x".into(), "y".into()],
            edges: vec![
                (0, 0, 1),
                (0, 0, 1),
                (1, 1, 2),
                (2, 0, 3),
                (3, 1, 4),
                (4, 0, 0),
                (2, 0, 3),
                (4, 1, 4),
            ],
        }
    }

    #[test]
    fn splice_corners_match_a_from_scratch_build() {
        let scenarios: &[(&str, &[Op])] = &[
            ("empty delta", &[]),
            ("first node touched", &[Add(0, "x", 2)]),
            ("last node touched", &[Add(4, "y", 1)]),
            (
                "adjacent touched nodes",
                &[Add(1, "x", 2), Add(2, "x", 1), Del(3, "y", 4)],
            ),
            (
                "every node touched",
                &[
                    Add(0, "y", 0),
                    Add(1, "y", 1),
                    Add(2, "y", 2),
                    Add(3, "y", 3),
                    Add(4, "y", 4),
                ],
            ),
            ("tombstone of the first edge", &[Del(0, "x", 1)]),
            ("tombstone of the last edge", &[Del(4, "y", 4)]),
            (
                "tombstones of the first and last edges",
                &[Del(4, "y", 4), Del(0, "x", 1)],
            ),
            (
                "two tombstones on one node (parallel duplicates)",
                &[Del(0, "x", 1), Del(0, "x", 1)],
            ),
            (
                "one of two parallel duplicates, the later one survives",
                &[Del(2, "x", 3)],
            ),
            (
                "remove and add on the same node",
                &[Del(2, "x", 3), Add(2, "y", 0)],
            ),
            (
                "add then remove inside one overlay",
                &[Add(1, "x", 3), Del(1, "x", 3)],
            ),
            (
                "add twice, remove once inside one overlay",
                &[
                    Add(1, "x", 3),
                    Add(1, "x", 3),
                    Del(1, "x", 3),
                    Add(3, "x", 1),
                ],
            ),
            (
                "new nodes with in- and out-edges, and an isolated one",
                &[
                    Node("m"),
                    Add(5, "x", 0),
                    Add(4, "y", 5),
                    Node("k"),
                    Node("j"),
                    Add(7, "y", 5),
                ],
            ),
            ("a new label", &[Add(3, "w", 3), Add(0, "w", 4)]),
            (
                "a node emptied on both sides",
                &[Del(2, "x", 3), Del(2, "x", 3), Del(1, "y", 2)],
            ),
            (
                "everything at once",
                &[
                    Del(0, "x", 1),
                    Node("m"),
                    Add(5, "w", 5),
                    Del(4, "y", 4),
                    Add(4, "x", 0),
                    Add(0, "y", 5),
                    Del(4, "x", 0),
                    Del(2, "x", 3),
                ],
            ),
        ];
        for (context, ops) in scenarios {
            let mut model = corner_model();
            let base = Arc::new(model.build());
            let once = publish(&base, &mut model, ops, context);
            // And once more on top, so the spliced arrays are a sound base.
            publish(
                &once,
                &mut model,
                &[Del(4, "x", 0), Add(1, "x", 0)],
                context,
            );
        }

        // The same corners across chunk boundaries, with the chunks each
        // publish must leave shared: (forward, reverse), each (shared, new).
        let (rows, n) = (CHUNK_ROWS, 2 * CHUNK_ROWS + 7);
        let fill = |k: usize| vec![Node("m"); k];
        let scenarios: Vec<(&str, Vec<Op>, _)> = vec![
            (
                "first and last rows of chunks",
                vec![
                    Add(rows - 1, "x", rows),
                    Add(rows, "y", rows - 1),
                    Add(2 * rows - 1, "x", 0),
                    Add(0, "y", 2 * rows - 1),
                ],
                ((1, 2), (1, 2)),
            ),
            (
                "tombstone of the last edge",
                vec![Del(n - 1, "y", n - 1)],
                ((2, 1), (2, 1)),
            ),
            (
                "added nodes fill the tail chunk and open a new one",
                [
                    fill(rows - 7 + 3),
                    vec![Add(5, "y", n), Add(3 * rows + 2, "x", 0)],
                ]
                .concat(),
                ((1, 3), (1, 3)),
            ),
            (
                "a removal shares every chunk without a touched row",
                vec![Del(0, "x", 1)],
                ((2, 1), (2, 1)),
            ),
            (
                "a removal whose rows sit in different chunks",
                vec![Del(rows + 1, "y", (31 * (rows + 1) + 7) % n)],
                ((2, 1), (2, 1)),
            ),
            (
                "a new label on a node past the old last chunk",
                [
                    fill(rows - 6),
                    vec![Add(3 * rows, "w", 3), Add(2, "w", 3 * rows)],
                ]
                .concat(),
                ((1, 3), (1, 3)),
            ),
        ];
        for (context, ops, sharing) in &scenarios {
            let mut model = chunked_model();
            let base = Arc::new(model.build());
            let once = publish(&base, &mut model, ops, context);
            assert_eq!(once.shared_with(&base), *sharing, "{context}");
            publish(
                &once,
                &mut model,
                &[Del(0, "x", 1), Add(rows + 1, "x", 0)],
                context,
            );
        }
    }

    /// `2 * CHUNK_ROWS + 7` nodes (three chunks, the last holding seven
    /// rows), labels x/y: edges 0 and 1 are parallel duplicates leaving the
    /// first node, every other node has one out-edge, and the last edge is
    /// a self-loop on the last node.
    fn chunked_model() -> Model {
        let n = 2 * CHUNK_ROWS + 7;
        let mut edges = vec![(0, 0, 1), (0, 0, 1)];
        edges.extend((1..n).map(|i| (i, i % 2, (i * 31 + 7) % n)));
        edges.push((n - 1, 1, n - 1));
        Model {
            nodes: (0..n).map(|i| format!("n{i}")).collect(),
            labels: vec!["x".into(), "y".into()],
            edges,
        }
    }

    #[test]
    fn empty_bases_compact() {
        for (context, base) in [
            ("empty graph", CsrGraph::from_graph(&Graph::new())),
            ("default snapshot", CsrGraph::default()),
        ] {
            let base = Arc::new(base);
            let mut model = Model::default();
            publish(&base, &mut model, &[], context);
            let grown = publish(
                &base,
                &mut model,
                &[Node("a"), Node("b"), Add(1, "x", 0), Add(1, "x", 1)],
                context,
            );
            publish(&grown, &mut model, &[Del(1, "x", 0), Node("a")], context);
        }
    }

    #[test]
    fn thirty_two_chained_epochs_stay_exact() {
        chained_epochs(corner_model());
        chained_epochs(chunked_model());
    }

    /// Thirty-two random publishes in a row over `model`, each checked
    /// against a from-scratch build.
    fn chained_epochs(mut model: Model) {
        // Dependency-free xorshift64*: the same walk on every run.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        };
        const NAMES: [&str; 4] = ["n0", "dup", "n3", "other"];
        const LABELS: [&str; 3] = ["x", "y", "w"];
        let first_nodes = model.nodes.len();
        let mut snapshot = Arc::new(model.build());
        for epoch in 0..32 {
            let mut ops = Vec::new();
            let mut nodes = model.nodes.len();
            let mut live = model.edges.clone();
            for _ in 0..1 + below(6) {
                match below(10) {
                    0 | 1 => {
                        ops.push(Node(NAMES[below(NAMES.len())]));
                        nodes += 1;
                    }
                    2..=6 => {
                        let (s, l, t) = (below(nodes), below(LABELS.len()), below(nodes));
                        ops.push(Add(s, LABELS[l], t));
                        // `live` only feeds removals; labels resolve by name.
                        live.push((s, usize::MAX, t));
                    }
                    _ => {
                        let removable: Vec<_> =
                            live.iter().filter(|e| e.1 != usize::MAX).copied().collect();
                        if let Some(&(s, l, t)) = removable.get(below(removable.len().max(1))) {
                            let at = live.iter().position(|&e| e == (s, l, t)).expect("live");
                            live.remove(at);
                            let label = LABELS.iter().find(|&&n| n == model.labels[l]);
                            ops.push(Del(s, label.expect("only LABELS are interned"), t));
                        }
                    }
                }
            }
            snapshot = publish(&snapshot, &mut model, &ops, &format!("epoch {epoch}"));
        }
        assert_eq!(snapshot.epoch(), 32);
        assert!(snapshot.node_count() > first_nodes && snapshot.edge_count() > 0);
    }

    #[test]
    fn publishes_share_name_storage_with_their_base() {
        use crate::names::CHUNK;
        let mut g = Graph::new();
        for i in 0..2 * CHUNK + 7 {
            g.add_node(format!("n{i}"));
        }
        g.add_edge_by_name(NodeId::from(0usize), "x", NodeId::from(1usize));
        let base = Arc::new(CsrGraph::from_graph(&g));

        // No new node: the very same names and lookup, by pointer.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let x = delta.label("x");
        delta.add_edge(NodeId::from(3usize), x, NodeId::from(4usize));
        assert!(delta.remove_edge(NodeId::from(0usize), x, NodeId::from(1usize)));
        let same_nodes = Arc::new(delta.compact());
        assert!(Arc::ptr_eq(same_nodes.names(), base.names()));

        // Three new nodes, one reusing an old name: only the tail chunk and
        // a three-id run are new allocations.
        let mut delta = DeltaGraph::new(Arc::clone(&same_nodes));
        delta.add_node("fresh");
        let shadowed = delta.add_node("n5");
        delta.add_node("fresh");
        assert_eq!(delta.node_by_name("n5"), Some(NodeId::from(5usize)));
        assert_eq!(
            delta.node_by_name("fresh"),
            Some(NodeId::from(2 * CHUNK + 7)),
            "first bearer among the added nodes"
        );
        let grown = delta.compact();
        assert!(!Arc::ptr_eq(grown.names(), base.names()));
        assert_eq!(grown.names().shared_with(base.names()), (2, 1));
        assert_eq!(grown.node_by_name("n5"), Some(NodeId::from(5usize)));
        assert_eq!(grown.node_name(shadowed), "n5");
        assert_eq!(
            grown.node_by_name("fresh"),
            Some(NodeId::from(2 * CHUNK + 7))
        );
        assert_eq!(base.node_by_name("fresh"), None, "the base is untouched");
        assert_eq!(base.node_count(), 2 * CHUNK + 7);
    }

    /// Edge multiplicities of a snapshot.
    fn edges_of(csr: &CsrGraph) -> HashMap<Edge, i64> {
        let mut counts = HashMap::new();
        for edge in csr.edges_by_source() {
            *counts.entry(edge).or_default() += 1;
        }
        counts
    }

    /// Net edge counts of a delta: inserted copies minus removed ones,
    /// zeros dropped.
    fn net(delta: &GraphDelta) -> HashMap<Edge, i64> {
        let mut counts: HashMap<Edge, i64> = HashMap::new();
        for edge in &delta.added_edges {
            *counts.entry(*edge).or_default() += 1;
        }
        for edge in &delta.removed_edges {
            *counts.entry(*edge).or_default() -= 1;
        }
        counts.retain(|_, count| *count != 0);
        counts
    }

    /// `after - before`, zeros dropped.
    fn difference(before: &CsrGraph, after: &CsrGraph) -> HashMap<Edge, i64> {
        let mut counts = edges_of(after);
        for (edge, count) in edges_of(before) {
            *counts.entry(edge).or_default() -= count;
        }
        counts.retain(|_, count| *count != 0);
        counts
    }

    /// A composed delta lists each edge on one side only, as many times as
    /// its net count says.
    fn assert_is_net(delta: &GraphDelta) {
        let counts = net(delta);
        for edge in &delta.added_edges {
            assert!(counts[edge] > 0, "{edge:?} is inserted and removed");
        }
        for edge in &delta.removed_edges {
            assert!(counts[edge] < 0, "{edge:?} is inserted and removed");
        }
        let listed: i64 = counts.values().map(|count| count.abs()).sum();
        assert_eq!(listed as usize, delta.changed_edges());
    }

    fn op(source: &str, label: &str, target: &str, add: bool) -> UpdateOp {
        let (source, label, target) = (source.into(), label.into(), target.into());
        if add {
            UpdateOp::AddEdge {
                source,
                label,
                target,
            }
        } else {
            UpdateOp::RemoveEdge {
                source,
                label,
                target,
            }
        }
    }

    /// Publishes each batch over the previous snapshot; returns every
    /// snapshot (the base first) and every publish's delta.
    fn publish_all(
        base: &Arc<CsrGraph>,
        batches: &[Vec<UpdateOp>],
    ) -> (Vec<Arc<CsrGraph>>, Vec<GraphDelta>) {
        let mut snapshots = vec![Arc::clone(base)];
        let mut deltas = Vec::new();
        for batch in batches {
            let mut overlay = DeltaGraph::new(Arc::clone(snapshots.last().unwrap()));
            overlay.apply_all(batch).expect("the batch applies");
            deltas.push(overlay.delta());
            snapshots.push(Arc::new(overlay.compact()));
        }
        (snapshots, deltas)
    }

    /// The same ops as one overlay over the base.
    fn all_at_once(base: &Arc<CsrGraph>, batches: &[Vec<UpdateOp>]) -> GraphDelta {
        let mut overlay = DeltaGraph::new(Arc::clone(base));
        for batch in batches {
            overlay.apply_all(batch).expect("the ops apply");
        }
        overlay.delta()
    }

    #[test]
    fn composing_two_cancels_round_trips_and_counts_parallel_copies() {
        let base = base();
        let batches = vec![
            vec![
                UpdateOp::AddNode("d".into()),
                // Inserted here, removed by the next publish.
                op("c", "z", "d", true),
                // A base edge removed here, re-inserted by the next publish.
                op("a", "x", "b", false),
                // A parallel copy of the base edge b -y-> c.
                op("b", "y", "c", true),
            ],
            vec![
                UpdateOp::AddNode("e".into()),
                op("c", "z", "d", false),
                op("a", "x", "b", true),
                op("d", "x", "a", true),
            ],
        ];
        let (snapshots, deltas) = publish_all(&base, &batches);
        let composed = GraphDelta::composed(&deltas[..2]);
        assert_is_net(&composed);
        assert_eq!(composed.added_nodes, 2);
        assert_eq!(composed.base_epoch, base.epoch());
        let (b, c) = (NodeId::from(1usize), NodeId::from(2usize));
        let d = NodeId::from(3usize);
        let a = NodeId::from(0usize);
        let labels = snapshots[2].labels();
        let (x, y) = (labels.get("x").unwrap(), labels.get("y").unwrap());
        assert_eq!(
            composed.added_edges,
            [Edge::new(b, y, c), Edge::new(d, x, a)],
            "the round trips cancel; the parallel copy stays"
        );
        assert!(composed.removed_edges.is_empty());
        assert_eq!(net(&composed), difference(&base, &snapshots[2]));
        assert_eq!(net(&composed), net(&all_at_once(&base, &batches)));
    }

    #[test]
    fn composing_two_removes_as_many_parallel_copies_as_went() {
        let base = base();
        let batches = vec![
            vec![op("b", "y", "c", true), op("b", "y", "c", true)],
            vec![
                op("b", "y", "c", false),
                op("b", "y", "c", false),
                op("b", "y", "c", false),
            ],
        ];
        let (snapshots, deltas) = publish_all(&base, &batches);
        let composed = GraphDelta::composed(&deltas[..2]);
        assert_is_net(&composed);
        let y = base.labels().get("y").unwrap();
        let edge = Edge::new(NodeId::from(1usize), y, NodeId::from(2usize));
        assert_eq!(composed.removed_edges, [edge], "three out after two in");
        assert!(composed.added_edges.is_empty());
        assert_eq!(net(&composed), difference(&base, &snapshots[2]));
        assert!(snapshots[2].out(NodeId::from(1usize)).is_empty());
    }

    #[test]
    fn chains_of_random_publishes_compose_to_the_snapshot_difference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for k in 1..=8usize {
            let base = base();
            let mut current = Arc::clone(&base);
            let mut batches = Vec::new();
            for round in 0..k {
                let mut overlay = DeltaGraph::new(Arc::clone(&current));
                let mut batch = vec![UpdateOp::AddNode(format!("n{round}"))];
                overlay.apply(&batch[0]).unwrap();
                for _ in 0..4 {
                    let n = overlay.node_count();
                    let name = |i: usize| {
                        if i < current.node_count() {
                            current.node_name(NodeId::from(i)).to_string()
                        } else {
                            format!("n{round}")
                        }
                    };
                    let label = ["x", "y", "z"][next(3)];
                    let (source, target) = (name(next(n)), name(next(n)));
                    // Removals pick an edge of the current snapshot, so some
                    // undo earlier insertions and some hit base edges.
                    let op = match current
                        .edges_by_source()
                        .nth(next(current.edge_count().max(1)))
                    {
                        Some(edge) if next(2) == 0 => op(
                            current.node_name(edge.source),
                            current.labels().name(edge.label).unwrap(),
                            current.node_name(edge.target),
                            false,
                        ),
                        _ => op(&source, label, &target, true),
                    };
                    if overlay.apply(&op).is_ok() {
                        batch.push(op);
                    }
                }
                current = Arc::new(overlay.compact());
                batches.push(batch);
            }
            let (snapshots, deltas) = publish_all(&base, &batches);
            let folded = deltas[1..].iter().fold(deltas[0].clone(), |acc, delta| {
                GraphDelta::composed([&acc, delta])
            });
            let composed = GraphDelta::composed(&deltas);
            assert_is_net(&composed);
            assert_eq!(net(&folded), net(&composed), "k = {k}");
            assert_eq!(composed.added_nodes, k);
            assert_eq!(
                net(&composed),
                difference(&base, snapshots.last().unwrap()),
                "k = {k}"
            );
            assert_eq!(
                net(&composed),
                net(&all_at_once(&base, &batches)),
                "k = {k}"
            );
        }
    }
}
