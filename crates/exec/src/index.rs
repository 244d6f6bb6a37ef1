//! Label-partitioned CSR adjacency — the storage the frontier evaluator
//! sweeps.
//!
//! The product fixed point expands one `(DFA transition, frontier)` pair at a
//! time: *for every node `u` in the frontier of state `q`, follow exactly the
//! edges labeled `a`*.  The general-purpose CSR interleaves all labels in one
//! adjacency stream, so that expansion would scan (and branch on) every
//! incident edge.  [`LabelIndex`] re-partitions both directions by label:
//! `neighbors(direction, label, node)` is a contiguous `&[u32]` slice holding
//! only the matching endpoints, which turns delta expansion into tight
//! slice-and-bitset sweeps.
//!
//! Most rows of any one partition are empty — a node has edges under a few
//! labels, not all of them — so every partition also carries **occupancy
//! words**: bit `v` set iff row `v` is non-empty.  A whole-frontier sweep
//! takes [`LabelIndex::rows`], ANDs the occupancy words with the node set it
//! expands and looks up only the rows behind the surviving bits, instead of
//! one [`LabelIndex::neighbors`] call per node of the set.
//!
//! ## Across epochs
//!
//! The per-(direction, label) partitions are individually `Arc`-shared, so
//! [`LabelIndex::apply_delta`] hands the labels an update does not touch to
//! the next epoch by pointer.  A touched partition is *spliced*, the same way
//! the snapshot is compacted ([`gps_graph::splice::RowSplice`]): the delta's
//! edges of that label are sorted by the partition's row endpoint, the
//! neighbor stretches between consecutive touched rows are copied with
//! `extend_from_slice`, the offsets are the old ones plus a running shift,
//! and only the touched rows are rewritten: a removal takes the neighbor's
//! first occurrence; an addition goes last in a forward row (edge order) and
//! after the last entry from its source or a lower one in a reverse row
//! (the order a forward scan of the snapshot meets the sources in).  The
//! occupancy words ride along at a bit per node: the old words copied,
//! zero-extended to the new node count, and one bit set or cleared per
//! touched row from the row's new length — never a rebuild from the offsets,
//! which would put an O(n) scan per touched partition and direction on the
//! publish path.  An untouched partition shared from before nodes were added
//! simply has fewer words: the rows it does not cover are empty.  The
//! planner statistics of a touched label come from one fused sweep over the
//! new offsets.  The layout a reader sweeps is exactly what a fresh build
//! produces, byte for byte.

use crate::bitset::WORD_BITS;
use gps_graph::splice::RowSplice;
use gps_graph::{CsrGraph, Edge, GraphDelta, LabelId, LabelStat, LabelStats, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Expansion direction through the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges source → target.
    Forward,
    /// Follow edges target → source.
    Reverse,
}

/// One label's CSR in one direction: the neighbors of `node` live at
/// `neighbors[offsets[node] .. offsets[node+1]]`.  Nodes beyond
/// `offsets.len() - 1` (inserted after the partition was built) have no
/// neighbors under this label — the bounds check in
/// [`Rows::of`] makes stale coverage safe, which is what lets
/// [`LabelIndex::apply_delta`] share untouched partitions across epochs.
///
/// `occupied` holds one bit per covered row, set iff the row is non-empty:
/// a sweep ANDs it with the node set it is about to expand and never looks
/// up the (many) rows this label has nothing in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Partition {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    occupied: Vec<u64>,
}

/// The occupancy words of `offsets`: bit `v` set iff row `v` is non-empty.
fn occupancy(offsets: &[u32]) -> Vec<u64> {
    let rows = offsets.len().saturating_sub(1);
    (0..rows.div_ceil(WORD_BITS))
        .map(|word| {
            let first = word * WORD_BITS;
            let last = (first + WORD_BITS).min(rows);
            let degrees = offsets[first..=last].windows(2);
            degrees.enumerate().fold(0u64, |bits, (bit, w)| {
                bits | (u64::from(w[1] > w[0]) << bit)
            })
        })
        .collect()
}

impl Partition {
    /// Builds one label's partition from its `(from, to)` pairs.
    fn build(node_count: usize, edges: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; node_count + 2];
        // Count one slot ahead so the prefix sum leaves offsets[node] = start.
        for &(from, _) in edges {
            offsets[from as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        offsets.truncate(node_count + 1);
        let mut neighbors = vec![0u32; edges.len()];
        let mut cursor = offsets.clone();
        for &(from, to) in edges {
            let slot = &mut cursor[from as usize];
            neighbors[*slot as usize] = to;
            *slot += 1;
        }
        Self {
            occupied: occupancy(&offsets),
            offsets,
            neighbors,
        }
    }

    /// An empty partition covering `node_count` nodes.
    fn empty(node_count: usize) -> Self {
        Self {
            offsets: vec![0u32; node_count + 1],
            neighbors: Vec::new(),
            occupied: vec![0u64; node_count.div_ceil(WORD_BITS)],
        }
    }

    /// Rebuilds this partition with `removals` and `additions` applied — both
    /// `(row, neighbor)` pairs sorted by row, in delta order within a row —
    /// to exactly what a fresh build over the merged adjacency produces.
    /// Removal takes a neighbor's first occurrence.  A forward row lists
    /// targets in edge order, so additions go last; a reverse row lists
    /// sources in the order a forward scan of the snapshot meets them
    /// (ascending, a source's own edges in edge order), so an addition goes
    /// right after the last entry from its source or a lower one.  Untouched
    /// stretches are bulk copies (see the [module docs](self)); rows the old
    /// partition does not cover yet start empty.  The occupancy words are the
    /// old ones with one bit rewritten per touched row, not a rescan of the
    /// offsets.
    fn patched(
        old: Option<&Partition>,
        direction: Direction,
        node_count: usize,
        removals: &[(u32, u32)],
        additions: &[(u32, u32)],
    ) -> Self {
        let (old_offsets, old_neighbors, old_occupied) = old
            .map_or((&[][..], &[][..], &[][..]), |p| {
                (&p.offsets[..], &p.neighbors[..], &p.occupied[..])
            });
        let mut occupied = Vec::with_capacity(node_count.div_ceil(WORD_BITS));
        occupied.extend_from_slice(old_occupied);
        occupied.resize(node_count.div_ceil(WORD_BITS), 0);
        let mut neighbors = Vec::with_capacity(
            (old_neighbors.len() + additions.len()).saturating_sub(removals.len()),
        );
        let mut splice = RowSplice::new(old_offsets);
        let (mut removals, mut additions) = (removals, additions);
        while let Some(&(row, _)) = [removals.first(), additions.first()]
            .into_iter()
            .flatten()
            .min()
        {
            let (before, own) = splice.seek(row as usize);
            neighbors.extend_from_slice(&old_neighbors[before]);
            let start = neighbors.len();
            let removed = take_row(&mut removals, row);
            if removed.is_empty() {
                neighbors.extend_from_slice(&old_neighbors[own]);
            } else {
                let mut pending: Vec<u32> = removed.iter().map(|&(_, to)| to).collect();
                for &to in &old_neighbors[own] {
                    match pending.iter().position(|&r| r == to) {
                        Some(at) => {
                            pending.swap_remove(at);
                        }
                        None => neighbors.push(to),
                    }
                }
            }
            for &(_, to) in take_row(&mut additions, row) {
                let at = match direction {
                    Direction::Forward => neighbors.len(),
                    Direction::Reverse => {
                        start + neighbors[start..].partition_point(|&from| from <= to)
                    }
                };
                neighbors.insert(at, to);
            }
            let len = neighbors.len() - start;
            splice.set_len(len);
            let (word, bit) = (row as usize / WORD_BITS, 1u64 << (row as usize % WORD_BITS));
            if len > 0 {
                occupied[word] |= bit;
            } else {
                occupied[word] &= !bit;
            }
        }
        let (rest, offsets) = splice.finish(node_count);
        neighbors.extend_from_slice(&old_neighbors[rest]);
        debug_assert_eq!(occupied, occupancy(&offsets));
        Self {
            offsets,
            neighbors,
            occupied,
        }
    }

    fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.neighbors.len()) * std::mem::size_of::<u32>()
            + self.occupied.len() * std::mem::size_of::<u64>()
    }

    /// The largest row and the number of non-empty rows, in one sweep.
    fn degree_summary(&self) -> (usize, usize) {
        let (mut max, mut occupied) = (0u32, 0usize);
        for w in self.offsets.windows(2) {
            let degree = w[1] - w[0];
            max = max.max(degree);
            occupied += (degree > 0) as usize;
        }
        (max as usize, occupied)
    }
}

/// Splits off the leading pairs of `pairs` whose row is `row`.
fn take_row<'a>(pairs: &mut &'a [(u32, u32)], row: u32) -> &'a [(u32, u32)] {
    let len = pairs.iter().take_while(|&&(r, _)| r == row).count();
    let (head, tail) = pairs.split_at(len);
    *pairs = tail;
    head
}

/// One label's share of a [`GraphDelta`], as the `(row, neighbor)` pair lists
/// [`Partition::patched`] takes for each direction.
#[derive(Debug, Default)]
struct LabelPatch {
    fwd_removals: Vec<(u32, u32)>,
    fwd_additions: Vec<(u32, u32)>,
    rev_removals: Vec<(u32, u32)>,
    rev_additions: Vec<(u32, u32)>,
}

impl LabelPatch {
    /// Groups the delta's edges by label, each list sorted by row (stably:
    /// delta order within a row).
    fn by_label(delta: &GraphDelta) -> BTreeMap<usize, LabelPatch> {
        let mut patches: BTreeMap<usize, LabelPatch> = BTreeMap::new();
        let pairs = |e: &Edge| {
            (
                (e.source.raw(), e.target.raw()),
                (e.target.raw(), e.source.raw()),
            )
        };
        for edge in &delta.removed_edges {
            let patch = patches.entry(edge.label.index()).or_default();
            let (fwd, rev) = pairs(edge);
            patch.fwd_removals.push(fwd);
            patch.rev_removals.push(rev);
        }
        for edge in &delta.added_edges {
            let patch = patches.entry(edge.label.index()).or_default();
            let (fwd, rev) = pairs(edge);
            patch.fwd_additions.push(fwd);
            patch.rev_additions.push(rev);
        }
        for patch in patches.values_mut() {
            for list in [
                &mut patch.fwd_removals,
                &mut patch.fwd_additions,
                &mut patch.rev_removals,
                &mut patch.rev_additions,
            ] {
                list.sort_by_key(|&(row, _)| row);
            }
        }
        patches
    }
}

/// One direction's partitions, one per label, individually [`Arc`]-shared so
/// an epoch publish clones only the touched labels.
#[derive(Debug, Clone, Default)]
struct DirIndex {
    parts: Vec<Arc<Partition>>,
}

/// The edge set bucketed per label in both directions, in edge-stream order
/// — the one pass a fresh [`LabelIndex`] build makes before packing each
/// bucket into its [`Partition`].
struct Buckets {
    fwd: Vec<Vec<(u32, u32)>>,
    rev: Vec<Vec<(u32, u32)>>,
}

impl Buckets {
    fn new(label_count: usize) -> Self {
        Self {
            fwd: vec![Vec::new(); label_count],
            rev: vec![Vec::new(); label_count],
        }
    }

    #[inline]
    fn push(&mut self, label: usize, source: u32, target: u32) {
        self.fwd[label].push((source, target));
        self.rev[label].push((target, source));
    }

    fn into_index(self, node_count: usize) -> LabelIndex {
        let pack = |buckets: &[Vec<(u32, u32)>]| DirIndex {
            parts: buckets
                .iter()
                .map(|bucket| Arc::new(Partition::build(node_count, bucket)))
                .collect(),
        };
        LabelIndex {
            node_count,
            label_count: self.fwd.len(),
            label_edge_counts: self.fwd.iter().map(Vec::len).collect(),
            fwd: pack(&self.fwd),
            rev: pack(&self.rev),
        }
    }
}

/// One label's rows in one direction, as a sweep reads them: the occupancy
/// words to mask a node set with, and the rows behind the bits that survive.
///
/// ```
/// use gps_exec::{Direction, LabelIndex};
/// use gps_graph::{CsrGraph, Graph};
///
/// let mut g = Graph::new();
/// let n = g.add_nodes("n", 3);
/// g.add_edge_by_name(n[0], "x", n[2]);
/// g.add_edge_by_name(n[1], "x", n[2]);
/// let index = LabelIndex::from_csr(&CsrGraph::from_graph(&g));
/// let rows = index.rows(Direction::Reverse, g.label_id("x").unwrap());
/// assert_eq!(rows.occupied(), [0b100], "only n2 has x-predecessors");
/// assert_eq!(rows.of(2), [0, 1]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    offsets: &'a [u32],
    neighbors: &'a [u32],
    occupied: &'a [u64],
}

impl<'a> Rows<'a> {
    /// Bit `v` of word `v / 64` is set iff row `v` is non-empty.  May hold
    /// fewer words than the graph has nodes: the rows of nodes added after
    /// the partition was built are empty.
    #[inline]
    pub fn occupied(&self) -> &'a [u64] {
        self.occupied
    }

    /// The neighbors of `node`; none for a node past the coverage.
    #[inline]
    pub fn of(&self, node: usize) -> &'a [u32] {
        if node + 1 >= self.offsets.len() {
            return &[];
        }
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        &self.neighbors[lo..hi]
    }
}

/// Label-partitioned forward and reverse adjacency of one graph snapshot.
///
/// Built once per graph and shared across every query of a batch (and across
/// worker threads — the index is immutable after construction).  A live
/// store does not rebuild it per epoch: [`LabelIndex::apply_delta`] patches
/// only the label partitions an update touches and `Arc`-shares the rest
/// with the previous epoch's index.
#[derive(Debug, Clone, Default)]
pub struct LabelIndex {
    node_count: usize,
    label_count: usize,
    fwd: DirIndex,
    rev: DirIndex,
    label_edge_counts: Vec<usize>,
}

impl LabelIndex {
    /// Builds the index of `graph` by one pass over its edges.
    pub fn from_csr(graph: &CsrGraph) -> Self {
        let mut buckets = Buckets::new(graph.label_count());
        for node in graph.nodes() {
            for entry in graph.out(node) {
                buckets.push(entry.label.index(), node.raw(), entry.node.raw());
            }
        }
        buckets.into_index(graph.node_count())
    }

    /// Number of nodes in the indexed graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of labels in the indexed graph's alphabet.
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// Approximate heap footprint of the index in bytes (the packed offset
    /// and neighbor arrays of both directions).  Multi-session deployments
    /// report this to show N sessions share **one** index allocation rather
    /// than N copies.  Partitions `Arc`-shared with another epoch's index
    /// are counted in full here (the figure is per-index, not per-fleet).
    pub fn memory_bytes(&self) -> usize {
        let dir = |d: &DirIndex| -> usize { d.parts.iter().map(|p| p.memory_bytes()).sum() };
        dir(&self.fwd)
            + dir(&self.rev)
            + self.label_edge_counts.len() * std::mem::size_of::<usize>()
    }

    /// Number of edges carrying `label`.
    pub fn label_edge_count(&self, label: LabelId) -> usize {
        self.label_edge_counts
            .get(label.index())
            .copied()
            .unwrap_or(0)
    }

    /// The `label`-neighbors of `node` in `direction` as a packed slice.
    ///
    /// Labels outside the indexed alphabet (a query compiled against a
    /// different interner) and out-of-range nodes simply have no neighbors,
    /// mirroring the naive evaluator's "undefined transition rejects"
    /// semantics instead of panicking.
    #[inline]
    pub fn neighbors(&self, direction: Direction, label: LabelId, node: usize) -> &[u32] {
        self.rows(direction, label).of(node)
    }

    /// All of `label`'s rows in `direction` with their occupancy words —
    /// what a whole-frontier sweep walks instead of one
    /// [`neighbors`](Self::neighbors) lookup per node.  A label outside the
    /// indexed alphabet has no words and no rows: nothing to sweep.
    #[inline]
    pub fn rows(&self, direction: Direction, label: LabelId) -> Rows<'_> {
        let dir = match direction {
            Direction::Forward => &self.fwd,
            Direction::Reverse => &self.rev,
        };
        match dir.parts.get(label.index()) {
            Some(part) => Rows {
                offsets: &part.offsets,
                neighbors: &part.neighbors,
                occupied: &part.occupied,
            },
            None => Rows {
                offsets: &[],
                neighbors: &[],
                occupied: &[],
            },
        }
    }

    /// Builds the next epoch's index from this one by patching **only** the
    /// label partitions `delta` touches; untouched labels share their packed
    /// arrays with this index (`Arc` clone, no copy).
    ///
    /// `node_count` / `label_count` are the merged graph's counts (take them
    /// from the compacted snapshot).  The result is identical to
    /// [`from_csr`](Self::from_csr) over that snapshot, neighbor order
    /// included: a forward row keeps (surviving base order, then insertion
    /// order), a reverse row stays in the order a forward scan of the
    /// snapshot meets its sources (see the [module docs](self)).
    pub fn apply_delta(
        &self,
        delta: &GraphDelta,
        node_count: usize,
        label_count: usize,
    ) -> LabelIndex {
        // In label order, so the patches are consumed in step with the label
        // sweep below.
        let mut patches = LabelPatch::by_label(delta).into_iter().peekable();
        let mut fwd_parts = Vec::with_capacity(label_count);
        let mut rev_parts = Vec::with_capacity(label_count);
        let mut label_edge_counts = vec![0usize; label_count];
        for (label, slot) in label_edge_counts.iter_mut().enumerate() {
            let known = label < self.label_count;
            if let Some((_, patch)) = patches.next_if(|&(touched, _)| touched == label) {
                let fwd = Partition::patched(
                    known.then(|| self.fwd.parts[label].as_ref()),
                    Direction::Forward,
                    node_count,
                    &patch.fwd_removals,
                    &patch.fwd_additions,
                );
                let rev = Partition::patched(
                    known.then(|| self.rev.parts[label].as_ref()),
                    Direction::Reverse,
                    node_count,
                    &patch.rev_removals,
                    &patch.rev_additions,
                );
                *slot = fwd.neighbors.len();
                fwd_parts.push(Arc::new(fwd));
                rev_parts.push(Arc::new(rev));
            } else if known {
                fwd_parts.push(Arc::clone(&self.fwd.parts[label]));
                rev_parts.push(Arc::clone(&self.rev.parts[label]));
                *slot = self.label_edge_counts[label];
            } else {
                // A label interned without edges: nothing to patch.
                fwd_parts.push(Arc::new(Partition::empty(node_count)));
                rev_parts.push(Arc::new(Partition::empty(node_count)));
            }
        }
        LabelIndex {
            node_count,
            label_count,
            fwd: DirIndex { parts: fwd_parts },
            rev: DirIndex { parts: rev_parts },
            label_edge_counts,
        }
    }

    /// Derives the merged graph's [`LabelStats`] from this (already patched)
    /// index: untouched labels keep their [`LabelStat`] from `old` (only the
    /// frequency denominator is refreshed), touched labels are recomputed
    /// by one sweep over each of their two partitions' offsets — no sweep
    /// over the graph's adjacency.
    pub fn patched_stats(&self, old: &LabelStats, touched: &BTreeSet<LabelId>) -> LabelStats {
        let edge_count: usize = self.label_edge_counts.iter().sum();
        let per_label = (0..self.label_count)
            .map(|index| {
                let label = LabelId::from(index);
                let known = old.get(label).filter(|_| !touched.contains(&label));
                let mut stat = match known {
                    Some(stat) => stat.clone(),
                    None => {
                        let fwd = self.fwd.parts[index].as_ref();
                        let (max_out_degree, source_count) = fwd.degree_summary();
                        let (max_in_degree, target_count) = self.rev.parts[index].degree_summary();
                        LabelStat {
                            label,
                            edge_count: fwd.neighbors.len(),
                            frequency: 0.0,
                            max_out_degree,
                            max_in_degree,
                            source_count,
                            target_count,
                        }
                    }
                };
                stat.frequency = if edge_count == 0 {
                    0.0
                } else {
                    stat.edge_count as f64 / edge_count as f64
                };
                stat
            })
            .collect();
        LabelStats {
            per_label,
            node_count: self.node_count,
            edge_count,
        }
    }
}

/// Convenience: the `label`-successors of `node` as typed ids (test helper).
pub fn successor_ids(index: &LabelIndex, label: LabelId, node: NodeId) -> Vec<NodeId> {
    index
        .neighbors(Direction::Forward, label, node.index())
        .iter()
        .map(|&n| NodeId::new(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{CsrGraph, Graph};

    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "y", c);
        g.add_edge_by_name(b, "x", c);
        g.add_edge_by_name(c, "x", a);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn forward_partitions_by_label() {
        let g = sample();
        let index = LabelIndex::from_csr(&g);
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        let a = g.node_by_name("a").unwrap();
        assert_eq!(
            successor_ids(&index, x, a),
            vec![g.node_by_name("b").unwrap()]
        );
        assert_eq!(
            successor_ids(&index, y, a),
            vec![g.node_by_name("c").unwrap()]
        );
        assert_eq!(index.label_edge_count(x), 3);
        assert_eq!(index.label_edge_count(y), 1);
    }

    #[test]
    fn reverse_partitions_by_label() {
        let g = sample();
        let index = LabelIndex::from_csr(&g);
        let x = g.label_id("x").unwrap();
        let c = g.node_by_name("c").unwrap();
        let mut preds: Vec<u32> = index.neighbors(Direction::Reverse, x, c.index()).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![g.node_by_name("b").unwrap().raw()]);
        let a = g.node_by_name("a").unwrap();
        assert_eq!(
            index.neighbors(Direction::Reverse, x, a.index()),
            &[c.raw()]
        );
    }

    #[test]
    fn foreign_labels_and_nodes_have_no_neighbors() {
        let g = sample();
        let index = LabelIndex::from_csr(&g);
        assert!(index
            .neighbors(Direction::Forward, LabelId::new(99), 0)
            .is_empty());
        assert!(index
            .neighbors(Direction::Reverse, LabelId::new(99), 0)
            .is_empty());
        let x = g.label_id("x").unwrap();
        assert!(index.neighbors(Direction::Forward, x, 99).is_empty());
        assert_eq!(index.label_edge_count(LabelId::new(99)), 0);
    }

    #[test]
    fn empty_graph_index() {
        let index = LabelIndex::from_csr(&CsrGraph::default());
        assert_eq!(index.node_count(), 0);
        assert_eq!(index.label_count(), 0);
    }

    #[test]
    fn apply_delta_matches_a_fresh_build_and_shares_untouched_partitions() {
        use gps_graph::DeltaGraph;

        let g = sample();
        let base = std::sync::Arc::new(g.clone());
        let old = LabelIndex::from_csr(base.as_ref());

        // Touch only label `x`: remove a-x->b, add c-x->d and a new node d;
        // also intern a brand-new label `z` with one edge.
        let mut delta = DeltaGraph::new(std::sync::Arc::clone(&base));
        let a = delta.node_by_name("a").unwrap();
        let b = delta.node_by_name("b").unwrap();
        let c = delta.node_by_name("c").unwrap();
        let d = delta.add_node("d");
        let x = delta.labels().get("x").unwrap();
        let z = delta.label("z");
        assert!(delta.remove_edge(a, x, b));
        delta.add_edge(c, x, d);
        delta.add_edge(d, z, a);
        let summary = delta.delta();
        let compacted = delta.compact();

        let patched = old.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        let fresh = LabelIndex::from_csr(&compacted);
        assert_eq!(patched.node_count(), fresh.node_count());
        assert_eq!(patched.label_count(), fresh.label_count());
        for label in 0..fresh.label_count() {
            let label = LabelId::from(label);
            assert_eq!(
                patched.label_edge_count(label),
                fresh.label_edge_count(label),
                "{label:?}"
            );
            for node in 0..fresh.node_count() {
                for direction in [Direction::Forward, Direction::Reverse] {
                    assert_eq!(
                        patched.neighbors(direction, label, node),
                        fresh.neighbors(direction, label, node),
                        "{direction:?} {label:?} node {node}"
                    );
                }
            }
        }
        // The untouched label `y` shares its packed arrays with the old index.
        let y = g.label_id("y").unwrap();
        assert!(std::sync::Arc::ptr_eq(
            &patched.fwd.parts[y.index()],
            &old.fwd.parts[y.index()]
        ));
        assert!(!std::sync::Arc::ptr_eq(
            &patched.fwd.parts[x.index()],
            &old.fwd.parts[x.index()]
        ));

        // Patched statistics agree with a full recompute on the merged graph.
        let old_stats = gps_graph::LabelStats::compute(&g);
        let patched_stats = patched.patched_stats(&old_stats, &summary.touched_labels());
        let fresh_stats = gps_graph::LabelStats::compute(&compacted);
        assert_eq!(patched_stats, fresh_stats);
    }

    #[test]
    fn patched_partitions_handle_parallel_duplicates() {
        use gps_graph::DeltaGraph;

        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "x", b);
        let base = std::sync::Arc::new(CsrGraph::from_graph(&g));
        let old = LabelIndex::from_csr(base.as_ref());
        let mut delta = DeltaGraph::new(std::sync::Arc::clone(&base));
        let x = delta.labels().get("x").unwrap();
        assert!(delta.remove_edge(a, x, b));
        assert!(delta.remove_edge(a, x, b));
        let summary = delta.delta();
        let compacted = delta.compact();
        let patched = old.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        assert_eq!(
            patched.neighbors(Direction::Forward, x, a.index()),
            &[b.raw()]
        );
        assert_eq!(patched.label_edge_count(x), 1);
    }

    #[test]
    fn memory_bytes_grows_with_the_graph() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge_by_name(a, "x", b);
        let small = LabelIndex::from_csr(&CsrGraph::from_graph(&g)).memory_bytes();
        assert!(small > 0);
        let c = g.add_node("C");
        g.add_edge_by_name(b, "y", c);
        g.add_edge_by_name(a, "y", c);
        let larger = LabelIndex::from_csr(&CsrGraph::from_graph(&g)).memory_bytes();
        assert!(larger > small);
    }

    // ------------------------------------------------ the splice's corners

    /// One staged mutation of a corner-case scenario, by node index.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Node,
        Add(usize, &'static str, usize),
        Del(usize, &'static str, usize),
    }
    use Op::{Add, Del, Node};

    /// Five nodes, labels x/y, eight edges with parallel duplicates: the
    /// first edge leaves the first node, the last (a self-loop) sits on the
    /// last node.
    fn corner_base() -> CsrGraph {
        let mut g = Graph::new();
        let n = g.add_nodes("n", 5);
        for (s, label, t) in [
            (0, "x", 1),
            (0, "x", 1),
            (1, "y", 2),
            (2, "x", 3),
            (3, "y", 4),
            (4, "x", 0),
            (2, "x", 3),
            (4, "y", 4),
        ] {
            g.add_edge_by_name(n[s], label, n[t]);
        }
        CsrGraph::from_graph(&g)
    }

    /// One epoch of the index: snapshot, index, planner statistics.
    struct Epoch {
        snapshot: Arc<CsrGraph>,
        index: LabelIndex,
        stats: LabelStats,
    }

    impl Epoch {
        fn fresh(graph: &CsrGraph) -> Self {
            let snapshot = Arc::new(graph.clone());
            Self {
                index: LabelIndex::from_csr(snapshot.as_ref()),
                stats: LabelStats::compute(snapshot.as_ref()),
                snapshot,
            }
        }

        /// Publishes `ops` and checks the patched index and statistics
        /// against a from-scratch build over the compacted snapshot: every
        /// neighbor slice, the touched partitions' packed arrays verbatim,
        /// the untouched ones shared by pointer.
        fn publish(&self, ops: &[Op], context: &str) -> Epoch {
            let mut staged = gps_graph::DeltaGraph::new(Arc::clone(&self.snapshot));
            for &op in ops {
                match op {
                    Node => {
                        staged.add_node("new");
                    }
                    Add(s, label, t) => {
                        let label = staged.label(label);
                        staged.add_edge(NodeId::from(s), label, NodeId::from(t));
                    }
                    Del(s, label, t) => {
                        let label = staged.label(label);
                        assert!(
                            staged.remove_edge(NodeId::from(s), label, NodeId::from(t)),
                            "{context}: {op:?} matches a live edge"
                        );
                    }
                }
            }
            let delta = staged.delta();
            let snapshot = Arc::new(staged.compact());
            let (n, labels) = (snapshot.node_count(), snapshot.label_count());
            let patched = self.index.apply_delta(&delta, n, labels);
            let fresh = LabelIndex::from_csr(snapshot.as_ref());
            assert_eq!(patched.node_count, n, "{context}");
            assert_eq!(
                patched.label_edge_counts, fresh.label_edge_counts,
                "{context}"
            );
            let touched = delta.touched_labels();
            for label in 0..labels {
                let id = LabelId::from(label);
                for node in 0..n {
                    for direction in [Direction::Forward, Direction::Reverse] {
                        assert_eq!(
                            patched.neighbors(direction, id, node),
                            fresh.neighbors(direction, id, node),
                            "{context}: {direction:?} {id:?} node {node}"
                        );
                    }
                }
                for (side, got, want, old) in [
                    ("fwd", &patched.fwd, &fresh.fwd, &self.index.fwd),
                    ("rev", &patched.rev, &fresh.rev, &self.index.rev),
                ] {
                    if touched.contains(&id) {
                        assert_eq!(
                            got.parts[label], want.parts[label],
                            "{context}: {side} {id:?}"
                        );
                    } else if label < self.index.label_count {
                        assert!(
                            Arc::ptr_eq(&got.parts[label], &old.parts[label]),
                            "{context}: untouched {side} {id:?} is shared"
                        );
                    }
                    // Occupancy, shared or patched: the fresh build's words;
                    // a partition shared from before nodes were added lacks
                    // only their (all-zero) words.
                    let (got, want) = (&got.parts[label].occupied, &want.parts[label].occupied);
                    assert_eq!(
                        got[..],
                        want[..got.len()],
                        "{context}: {side} {id:?} occupancy"
                    );
                    assert!(
                        want[got.len()..].iter().all(|&word| word == 0),
                        "{context}: {side} {id:?} occupancy past the shared coverage"
                    );
                }
            }
            let stats = patched.patched_stats(&self.stats, &touched);
            assert_eq!(stats, LabelStats::compute(snapshot.as_ref()), "{context}");
            Epoch {
                snapshot,
                index: patched,
                stats,
            }
        }
    }

    #[test]
    fn patch_corners_match_a_from_scratch_index() {
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
            ("removal of the first edge", &[Del(0, "x", 1)]),
            ("removal of the last edge", &[Del(4, "y", 4)]),
            (
                "two removals on one node (parallel duplicates)",
                &[Del(0, "x", 1), Del(0, "x", 1)],
            ),
            ("one of two parallel duplicates", &[Del(2, "x", 3)]),
            (
                "remove and add on the same node",
                &[Del(2, "x", 3), Add(2, "x", 0), Add(2, "y", 0)],
            ),
            (
                "add then remove inside one overlay",
                &[Add(1, "x", 3), Del(1, "x", 3)],
            ),
            (
                "new nodes with in- and out-edges, and isolated ones",
                &[
                    Node,
                    Add(5, "x", 0),
                    Add(4, "y", 5),
                    Node,
                    Node,
                    Add(7, "y", 5),
                ],
            ),
            ("a new label", &[Add(3, "w", 3), Add(0, "w", 4)]),
            ("a new label on a new node", &[Node, Add(5, "w", 5)]),
            (
                "a partition emptied",
                &[Del(1, "y", 2), Del(3, "y", 4), Del(4, "y", 4)],
            ),
            (
                "everything at once",
                &[
                    Del(0, "x", 1),
                    Node,
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
            let once = Epoch::fresh(&corner_base()).publish(ops, context);
            // And once more on top: partitions left stale by added nodes
            // (shorter offsets than the node count) are a sound base.
            once.publish(&[Node, Add(1, "y", 0), Del(4, "x", 0)], context);
        }
        // Occupancy across a word boundary: nodes added past the old
        // coverage's last word, a far row filled for the first time (its `w`
        // partition first seen in this delta, `y` left shared with one word
        // for two words of nodes), then emptied again.
        let mut ops = vec![Node; 64];
        ops.extend([Add(68, "x", 0), Add(0, "x", 68), Add(68, "w", 67)]);
        let grown = Epoch::fresh(&corner_base()).publish(&ops, "past an occupancy word");
        let x = grown.snapshot.labels().get("x").expect("interned").index();
        assert_eq!(grown.index.fwd.parts[x].occupied.len(), 2);
        assert_eq!(grown.index.fwd.parts[x].occupied[1], 1 << (68 - 64));
        let emptied = grown.publish(&[Del(68, "x", 0)], "the far row emptied");
        assert_eq!(emptied.index.fwd.parts[x].occupied[1], 0);
        let y = emptied
            .snapshot
            .labels()
            .get("y")
            .expect("interned")
            .index();
        assert_eq!(emptied.index.fwd.parts[y].occupied.len(), 1, "still shared");
    }

    #[test]
    fn patches_over_an_empty_index() {
        let empty = Epoch::fresh(&CsrGraph::default());
        empty.publish(&[], "empty over empty");
        let grown = empty.publish(&[Node, Node, Add(1, "x", 0), Add(1, "x", 1)], "first edges");
        grown.publish(&[Del(1, "x", 0), Node], "then a removal");
    }

    #[test]
    fn thirty_two_chained_patches_stay_exact() {
        // Dependency-free xorshift64*: the same walk on every run.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut below = |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        };
        const LABELS: [&str; 3] = ["x", "y", "w"];
        let mut epoch = Epoch::fresh(&corner_base());
        for round in 0..32 {
            let csr = Arc::clone(&epoch.snapshot);
            let mut nodes = csr.node_count();
            // Removals draw from the base's edges, each at most once.
            let mut removable: Vec<(usize, &str, usize)> = csr
                .nodes()
                .flat_map(|s| csr.out(s).iter().map(move |e| (s, e)))
                .map(|(s, e)| {
                    let label = csr.labels().name(e.label).expect("interned");
                    let label = LABELS.iter().find(|&&l| l == label).expect("in LABELS");
                    (s.index(), *label, e.node.index())
                })
                .collect();
            let mut ops = Vec::new();
            for _ in 0..1 + below(6) {
                match below(10) {
                    0 | 1 => {
                        ops.push(Node);
                        nodes += 1;
                    }
                    2..=6 => ops.push(Add(below(nodes), LABELS[below(3)], below(nodes))),
                    _ if !removable.is_empty() => {
                        let (s, label, t) = removable.swap_remove(below(removable.len()));
                        ops.push(Del(s, label, t));
                    }
                    _ => {}
                }
            }
            epoch = epoch.publish(&ops, &format!("round {round}"));
        }
        assert_eq!(epoch.snapshot.epoch(), 32);
    }
}
