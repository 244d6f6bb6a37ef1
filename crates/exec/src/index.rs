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
//! ## Chunks
//!
//! Each partition is cut into fixed node ranges of [`CHUNK_ROWS`] rows, each
//! a [`RowChunk`] behind an [`Arc`]: chunk-local offsets, the chunk's
//! neighbors, its occupancy words and its largest row.  `CHUNK_ROWS` is a
//! multiple of 64, so the occupancy words of chunk `c` line up with words
//! `c * CHUNK_ROWS / 64 ..` of a node set's [`FixedBitSet`]: a sweep walks
//! chunk-major — one chunk lookup, then the same word-masked loop over the
//! chunk's words and local offsets a flat partition would run — and a point
//! lookup is one shift and one mask.  A node range in which a label has no
//! edge is one all-empty chunk that every partition shares.
//!
//! ## Across epochs
//!
//! The per-(direction, label) partitions are individually `Arc`-shared, so
//! [`LabelIndex::apply_delta`] hands the labels an update does not touch to
//! the next epoch by pointer.  A touched partition clones its chunk-pointer
//! table and rebuilds only the chunks holding a touched row, plus the tail
//! chunk when nodes were added; every other chunk stays shared by pointer,
//! so a four-edge delta costs a few chunks and one pointer copy per chunk,
//! not a pass over the partition's rows.  Inside a chunk the rebuild is a
//! *splice*, the same way the snapshot is compacted
//! ([`gps_graph::splice::RowSplice`]): the delta's edges of that label are
//! sorted by row, the neighbor stretches between consecutive touched rows
//! are copied with `extend_from_slice`, the chunk-local offsets are the old
//! ones plus a running shift, and only the touched rows are rewritten: a
//! removal takes the neighbor's first occurrence; an addition goes last in a
//! forward row (edge order) and after the last entry from its source or a
//! lower one in a reverse row (the order a forward scan of the snapshot
//! meets the sources in).  The rebuilt chunk's occupancy words and largest
//! row come from one sweep over its own offsets.  An untouched partition
//! shared from before nodes were added simply covers fewer rows: the rows it
//! does not cover are empty.  The planner statistics of a touched label are
//! folded from its chunks' summaries.  The layout a reader sweeps is exactly
//! what a fresh build produces, chunk for chunk.
//!
//! [`FixedBitSet`]: crate::FixedBitSet

use crate::bitset::WORD_BITS;
use gps_graph::splice::RowSplice;
use gps_graph::{CsrGraph, Edge, GraphDelta, LabelId, LabelStat, LabelStats, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Rows per label-index chunk: the unit a publish copies.  A power of two,
/// so a row lookup is a shift and a mask, and a multiple of 64, so a chunk's
/// occupancy words are whole words of a node set.
///
/// Chosen by a sweep at 1M nodes / 4M edges (2-core x86-64 Linux): the
/// median index patch of a 4-op publish over three traced `publish-1m`
/// runs, and the cold evaluation of the same 24 queries run alternately on
/// this index and on unchunked partitions in one process, caches evicted
/// before each run (`eval_cold_p50_ms` itself spread 12.7–17.4 ms across
/// runs of one build, wider than any difference between sizes):
///
/// | rows | index patch | cold evaluation vs unchunked |
/// |---|---|---|
/// | 1,024 | 0.41 ms | +3.3% |
/// | 4,096 | 0.31 ms | +0.9% |
/// | 16,384 | 0.54 ms | +2.1% |
///
/// The unchunked partitions' patch read 11.5 ms.
pub const CHUNK_ROWS: usize = 4096;

/// Occupancy words per full chunk.
pub(crate) const CHUNK_WORDS: usize = CHUNK_ROWS / WORD_BITS;

const CHUNK_SHIFT: u32 = CHUNK_ROWS.trailing_zeros();

const _: () = assert!(CHUNK_ROWS.is_power_of_two() && CHUNK_ROWS.is_multiple_of(WORD_BITS));

/// Expansion direction through the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges source → target.
    Forward,
    /// Follow edges target → source.
    Reverse,
}

/// The rows of chunk `chunk` of a partition covering `node_count` nodes.
fn chunk_rows(chunk: usize, node_count: usize) -> usize {
    (node_count - chunk * CHUNK_ROWS).min(CHUNK_ROWS)
}

/// [`CHUNK_ROWS`] consecutive rows of one label's partition in one direction
/// (fewer in the last chunk): the neighbors of local row `r` live at
/// `neighbors[offsets[r] .. offsets[r + 1]]`.
///
/// `occupied` holds one bit per row, set iff the row is non-empty: a sweep
/// ANDs it with the node set it is about to expand and never looks up the
/// (many) rows this label has nothing in.  `max_degree` is the largest row;
/// with the popcount of `occupied` it is what a label's planner statistics
/// are folded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowChunk {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    occupied: Vec<u64>,
    max_degree: u32,
}

impl RowChunk {
    /// Wraps `rows + 1` chunk-local offsets and the neighbors they index,
    /// deriving the occupancy words and the largest row in one sweep.
    fn new(offsets: Vec<u32>, neighbors: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(neighbors.len()));
        let rows = offsets.len() - 1;
        let mut occupied = vec![0u64; rows.div_ceil(WORD_BITS)];
        let mut max_degree = 0;
        for (row, w) in offsets.windows(2).enumerate() {
            let degree = w[1] - w[0];
            max_degree = max_degree.max(degree);
            occupied[row / WORD_BITS] |= u64::from(degree > 0) << (row % WORD_BITS);
        }
        Self {
            offsets,
            neighbors,
            occupied,
            max_degree,
        }
    }

    /// The number of rows this chunk covers.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no row of this chunk has a neighbor.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Bit `r % 64` of word `r / 64` is set iff local row `r` is non-empty.
    pub fn occupied(&self) -> &[u64] {
        &self.occupied
    }

    /// The neighbors of local row `row`.
    ///
    /// # Panics
    /// Panics if `row` is not below [`rows`](Self::rows).
    pub fn row(&self, row: usize) -> &[u32] {
        &self.neighbors[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// Rebuilds `old` — the chunk whose first row is `first`, `None` when
    /// the old partition did not cover it — over `rows` rows with `removals`
    /// and `additions` applied: both `(row, neighbor)` pairs inside this
    /// chunk, sorted by row, in delta order within a row.  The result is
    /// exactly what a fresh build over the merged adjacency produces.
    /// Removal takes a neighbor's first occurrence.  A forward row lists
    /// targets in edge order, so additions go last; a reverse row lists
    /// sources in the order a forward scan of the snapshot meets them
    /// (ascending, a source's own edges in edge order), so an addition goes
    /// right after the last entry from its source or a lower one.  Untouched
    /// stretches are bulk copies (see the [module docs](self)); rows the old
    /// chunk does not cover yet start empty.
    fn patched(
        old: Option<&RowChunk>,
        direction: Direction,
        first: usize,
        rows: usize,
        removals: &[(u32, u32)],
        additions: &[(u32, u32)],
    ) -> Self {
        let (old_offsets, old_neighbors) =
            old.map_or((&[][..], &[][..]), |c| (&c.offsets[..], &c.neighbors[..]));
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
            let (before, own) = splice.seek(row as usize - first);
            neighbors.extend_from_slice(&old_neighbors[before]);
            let start = neighbors.len();
            let removed = take_below(&mut removals, row as usize + 1);
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
            for &(_, to) in take_below(&mut additions, row as usize + 1) {
                let at = match direction {
                    Direction::Forward => neighbors.len(),
                    Direction::Reverse => {
                        start + neighbors[start..].partition_point(|&from| from <= to)
                    }
                };
                neighbors.insert(at, to);
            }
            splice.set_len(neighbors.len() - start);
        }
        let (rest, offsets) = splice.finish(rows);
        neighbors.extend_from_slice(&old_neighbors[rest]);
        Self::new(offsets, neighbors)
    }

    fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.neighbors.len()) * std::mem::size_of::<u32>()
            + self.occupied.len() * std::mem::size_of::<u64>()
    }
}

/// An all-empty chunk of `rows` rows.  Every full-size one is the same
/// allocation, shared by every partition of every index.
fn empty_chunk(rows: usize) -> Arc<RowChunk> {
    static FULL: OnceLock<Arc<RowChunk>> = OnceLock::new();
    let empty = || RowChunk::new(vec![0; rows + 1], Vec::new());
    if rows == CHUNK_ROWS {
        Arc::clone(FULL.get_or_init(|| Arc::new(empty())))
    } else {
        Arc::new(empty())
    }
}

/// `chunk` behind an [`Arc`] — the shared empty chunk when it has no edge.
fn shared(chunk: RowChunk) -> Arc<RowChunk> {
    if chunk.is_empty() {
        empty_chunk(chunk.rows())
    } else {
        Arc::new(chunk)
    }
}

/// One label's CSR in one direction, as a table of [`RowChunk`]s: chunk `c`
/// holds rows `c * CHUNK_ROWS ..`, and every chunk but the last holds
/// exactly [`CHUNK_ROWS`].  Nodes past the last chunk's rows (inserted after
/// the partition was built) have no neighbors under this label — the bounds
/// check in [`Rows::of`] makes stale coverage safe, which is what lets
/// [`LabelIndex::apply_delta`] share untouched partitions across epochs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Partition {
    chunks: Vec<Arc<RowChunk>>,
}

impl Partition {
    /// Builds one label's partition from its `(from, to)` pairs, writing
    /// each pair straight into its chunk (a row keeps the pairs' order).
    fn build(node_count: usize, edges: &[(u32, u32)]) -> Self {
        let locate = |from: u32| (from as usize >> CHUNK_SHIFT, from as usize % CHUNK_ROWS);
        let mut lens = vec![0usize; node_count.div_ceil(CHUNK_ROWS)];
        for &(from, _) in edges {
            lens[locate(from).0] += 1;
        }
        // Only chunks with edges get offsets.  Until every pair is placed,
        // `offsets[c][r + 1]` is the next free slot of local row `r` (it
        // starts at the row's first slot and ends at its end).
        let mut offsets: Vec<Vec<u32>> = lens
            .iter()
            .enumerate()
            .map(|(c, &len)| match len {
                0 => Vec::new(),
                _ => vec![0; chunk_rows(c, node_count) + 1],
            })
            .collect();
        for &(from, _) in edges {
            let (c, r) = locate(from);
            offsets[c][r + 1] += 1;
        }
        for rows in &mut offsets {
            let mut start = 0;
            for slot in rows.iter_mut().skip(1) {
                let degree = *slot;
                *slot = start;
                start += degree;
            }
        }
        let mut neighbors: Vec<Vec<u32>> = lens.iter().map(|&len| vec![0; len]).collect();
        for &(from, to) in edges {
            let (c, r) = locate(from);
            let slot = &mut offsets[c][r + 1];
            neighbors[c][*slot as usize] = to;
            *slot += 1;
        }
        let chunks = offsets.into_iter().zip(neighbors).enumerate();
        Self {
            chunks: chunks
                .map(|(c, (offsets, neighbors))| match neighbors.len() {
                    0 => empty_chunk(chunk_rows(c, node_count)),
                    _ => Arc::new(RowChunk::new(offsets, neighbors)),
                })
                .collect(),
        }
    }

    /// An empty partition covering `node_count` nodes.
    fn empty(node_count: usize) -> Self {
        Self::build(node_count, &[])
    }

    /// This partition with `removals` and `additions` applied (both
    /// `(row, neighbor)` pairs sorted by row, in delta order within a row),
    /// covering `node_count` nodes: a copy of the chunk-pointer table in
    /// which only the chunks holding a touched row, and the tail chunk when
    /// it grew, are rebuilt ([`RowChunk::patched`]).
    fn patched(
        old: Option<&Partition>,
        direction: Direction,
        node_count: usize,
        removals: &[(u32, u32)],
        additions: &[(u32, u32)],
    ) -> Self {
        let old_chunks = old.map_or(&[][..], |p| &p.chunks[..]);
        let (mut removals, mut additions) = (removals, additions);
        let chunks = (0..node_count.div_ceil(CHUNK_ROWS)).map(|c| {
            let (first, rows) = (c * CHUNK_ROWS, chunk_rows(c, node_count));
            let removed = take_below(&mut removals, first + CHUNK_ROWS);
            let added = take_below(&mut additions, first + CHUNK_ROWS);
            let old = old_chunks.get(c);
            if removed.is_empty() && added.is_empty() {
                match old {
                    Some(old) if old.rows() == rows => return Arc::clone(old),
                    // A tail with edges that must grow: rebuilt below.
                    Some(old) if !old.is_empty() => {}
                    _ => return empty_chunk(rows),
                }
            }
            let chunk =
                RowChunk::patched(old.map(|c| &**c), direction, first, rows, removed, added);
            shared(chunk)
        });
        Self {
            chunks: chunks.collect(),
        }
    }

    /// The number of `(row, neighbor)` entries.
    fn edge_count(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.neighbors.len()).sum()
    }

    fn memory_bytes(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.memory_bytes()).sum()
    }

    /// The largest row and the number of non-empty rows, folded from the
    /// chunks' summaries.
    fn degree_summary(&self) -> (usize, usize) {
        self.chunks.iter().fold((0, 0), |(max, occupied), chunk| {
            let rows: u32 = chunk.occupied.iter().map(|word| word.count_ones()).sum();
            (max.max(chunk.max_degree as usize), occupied + rows as usize)
        })
    }
}

/// Splits off the leading pairs of `pairs` (sorted by row) whose row is
/// below `end`.
fn take_below<'a>(pairs: &mut &'a [(u32, u32)], end: usize) -> &'a [(u32, u32)] {
    let len = pairs.partition_point(|&(row, _)| (row as usize) < end);
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

impl DirIndex {
    /// `(shared, new)`: how many chunks of these partitions are `base`'s
    /// chunk at the same label and position, by pointer, and how many are
    /// not.
    fn shared_with(&self, base: &Self) -> (usize, usize) {
        let mut shared = 0;
        let mut total = 0;
        for (label, part) in self.parts.iter().enumerate() {
            total += part.chunks.len();
            if let Some(theirs) = base.parts.get(label) {
                let pairs = part.chunks.iter().zip(&theirs.chunks);
                shared += pairs
                    .filter(|(mine, theirs)| Arc::ptr_eq(mine, theirs))
                    .count();
            }
        }
        (shared, total - shared)
    }
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

/// One label's rows in one direction, as a sweep reads them: chunk by chunk,
/// each with the occupancy words to mask a node set with and the rows behind
/// the bits that survive.
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
/// let [chunk] = rows.chunks() else {
///     panic!("three nodes fit one chunk")
/// };
/// assert_eq!(chunk.occupied(), [0b100], "only n2 has x-predecessors");
/// assert_eq!(chunk.row(2), [0, 1]);
/// assert_eq!(rows.of(2), [0, 1]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    chunks: &'a [Arc<RowChunk>],
}

impl<'a> Rows<'a> {
    /// The chunks in node order: chunk `c` holds rows `c * CHUNK_ROWS ..`,
    /// and its occupancy words line up with words `c * CHUNK_ROWS / 64 ..`
    /// of a node set.  May cover fewer rows than the graph has nodes: the
    /// rows of nodes added after the partition was built are empty.
    #[inline]
    pub fn chunks(&self) -> &'a [Arc<RowChunk>] {
        self.chunks
    }

    /// The neighbors of `node`; none for a node past the coverage.
    #[inline]
    pub fn of(&self, node: usize) -> &'a [u32] {
        let row = node % CHUNK_ROWS;
        match self.chunks.get(node >> CHUNK_SHIFT) {
            Some(chunk) if row < chunk.rows() => chunk.row(row),
            _ => &[],
        }
    }
}

/// Label-partitioned forward and reverse adjacency of one graph snapshot.
///
/// Built once per graph and shared across every query of a batch (and across
/// worker threads — the index is immutable after construction).  A live
/// store does not rebuild it per epoch: [`LabelIndex::apply_delta`] rebuilds
/// only the chunks an update touches and `Arc`-shares the rest — whole
/// partitions of untouched labels, and every other chunk of touched ones —
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

    /// Approximate heap footprint of the index in bytes (the packed offset,
    /// neighbor and occupancy arrays of both directions).  Multi-session
    /// deployments report this to show N sessions share **one** index
    /// allocation rather than N copies.  Chunks `Arc`-shared with another
    /// partition or another epoch's index are counted in full here (the
    /// figure is per-index, not per-fleet).
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

    /// All of `label`'s rows in `direction`, chunk by chunk with their
    /// occupancy words — what a whole-frontier sweep walks instead of one
    /// [`neighbors`](Self::neighbors) lookup per node.  A label outside the
    /// indexed alphabet has no chunks: nothing to sweep.
    #[inline]
    pub fn rows(&self, direction: Direction, label: LabelId) -> Rows<'_> {
        let dir = match direction {
            Direction::Forward => &self.fwd,
            Direction::Reverse => &self.rev,
        };
        Rows {
            chunks: dir
                .parts
                .get(label.index())
                .map_or(&[][..], |part| &part.chunks[..]),
        }
    }

    /// How many chunks this index shares with `base` by pointer, per
    /// direction: `(forward, reverse)`, each `(shared, new)` where `new`
    /// counts this index's chunks that are not `base`'s chunk at the same
    /// label and position (rebuilt, or past `base`'s coverage).  A publish of
    /// a few edges over a large graph reads `new` in the single digits.  The
    /// all-empty chunk every index shares counts as shared wherever both
    /// indexes hold it, so a fresh build of the same graph shares exactly
    /// its empty ranges.
    pub fn shared_with(&self, base: &LabelIndex) -> ((usize, usize), (usize, usize)) {
        (
            self.fwd.shared_with(&base.fwd),
            self.rev.shared_with(&base.rev),
        )
    }

    /// Builds the next epoch's index from this one by patching **only** the
    /// chunks of the label partitions `delta` touches; untouched labels, and
    /// the untouched chunks of touched ones, are shared with this index
    /// (`Arc` clone, no copy).
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
                *slot = fwd.edge_count();
                fwd_parts.push(Arc::new(fwd));
                rev_parts.push(Arc::new(rev));
            } else if known {
                fwd_parts.push(Arc::clone(&self.fwd.parts[label]));
                rev_parts.push(Arc::clone(&self.rev.parts[label]));
                *slot = self.label_edge_counts[label];
            } else {
                // A label interned without edges: nothing to patch.
                let empty = Arc::new(Partition::empty(node_count));
                fwd_parts.push(Arc::clone(&empty));
                rev_parts.push(empty);
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
    /// frequency denominator is refreshed), touched labels are folded from
    /// the per-chunk summaries of their two partitions — one step per
    /// chunk, no sweep over rows or over the graph's adjacency.
    pub fn patched_stats(&self, old: &LabelStats, touched: &BTreeSet<LabelId>) -> LabelStats {
        let edge_count: usize = self.label_edge_counts.iter().sum();
        let per_label = (0..self.label_count)
            .map(|index| {
                let label = LabelId::from(index);
                let known = old.get(label).filter(|_| !touched.contains(&label));
                let mut stat = match known {
                    Some(stat) => stat.clone(),
                    None => {
                        let (max_out_degree, source_count) = self.fwd.parts[index].degree_summary();
                        let (max_in_degree, target_count) = self.rev.parts[index].degree_summary();
                        LabelStat {
                            label,
                            edge_count: self.label_edge_counts[index],
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

    /// Checks that `got` — a partition shared from an older epoch, or
    /// patched — holds exactly `want`'s chunks over the rows it covers: every
    /// chunk it has is `want`'s, chunk content by chunk content, except that
    /// its last chunk may stop short of `want`'s (a partition shared from
    /// before nodes were added), and `want` holds no edge past that coverage.
    fn assert_covers(context: &str, got: &Partition, want: &Partition) {
        assert!(got.chunks.len() <= want.chunks.len(), "{context}: chunks");
        let last = got.chunks.len().saturating_sub(1);
        for (c, (got, want)) in got.chunks.iter().zip(&want.chunks).enumerate() {
            if got.rows() == want.rows() {
                assert_eq!(got, want, "{context}: chunk {c}");
                continue;
            }
            let rows = got.rows();
            assert!(c == last && rows < want.rows(), "{context}: chunk {c} rows");
            assert_eq!(
                want.offsets[rows] as usize,
                want.neighbors.len(),
                "{context}: chunk {c} has no edge past the shared coverage"
            );
            let truncated = RowChunk::new(want.offsets[..=rows].to_vec(), want.neighbors.clone());
            assert_eq!(**got, truncated, "{context}: chunk {c}");
        }
        let past = &want.chunks[got.chunks.len()..];
        assert!(
            past.iter().all(|chunk| chunk.is_empty()),
            "{context}: no edge past the shared coverage"
        );
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
        /// neighbor slice, the touched partitions chunk for chunk, the
        /// untouched ones shared by pointer, and at most one rebuilt chunk
        /// per edge op per touched partition (plus the chunks the added
        /// nodes reach).
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
                    // Shared or patched: the fresh build's chunks, up to a
                    // shared partition's older coverage.
                    let context = format!("{context}: {side} {id:?}");
                    assert_covers(&context, &got.parts[label], &want.parts[label]);
                    // An edgeless full chunk is the one shared empty chunk.
                    for (c, chunk) in got.parts[label].chunks.iter().enumerate() {
                        if chunk.is_empty() && chunk.rows() == CHUNK_ROWS {
                            assert!(
                                Arc::ptr_eq(chunk, &empty_chunk(CHUNK_ROWS)),
                                "{context}: empty chunk {c} is shared"
                            );
                        }
                    }
                }
            }
            // Chunks replaced: per touched partition, one per edge op at
            // most, plus its tail and every chunk past it when nodes were
            // added since it was built; a label first seen here is new
            // throughout.
            let edits = ops.iter().filter(|op| !matches!(op, Node)).count();
            let old = &self.index.fwd.parts;
            let bound: usize = (0..labels)
                .map(|label| match old.get(label) {
                    None => n.div_ceil(CHUNK_ROWS),
                    Some(_) if !touched.contains(&LabelId::from(label)) => 0,
                    Some(part) => {
                        let covered: usize = part.chunks.iter().map(|c| c.rows()).sum();
                        let grown = match n > covered {
                            true => n.div_ceil(CHUNK_ROWS) + 1 - covered.div_ceil(CHUNK_ROWS),
                            false => 0,
                        };
                        edits + grown
                    }
                })
                .sum();
            let ((_, fwd_new), (_, rev_new)) = patched.shared_with(&self.index);
            assert!(
                fwd_new <= bound && rev_new <= bound,
                "{context}: replaced {fwd_new} / {rev_new} chunks, at most {bound}"
            );
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
            // (fewer rows than the node count) are a sound base.
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
        let words =
            |index: &LabelIndex, label: usize| index.fwd.parts[label].chunks[0].occupied.clone();
        assert_eq!(words(&grown.index, x), [0b10101, 1 << (68 - 64)]);
        let emptied = grown.publish(&[Del(68, "x", 0)], "the far row emptied");
        assert_eq!(words(&emptied.index, x)[1], 0);
        let y = emptied
            .snapshot
            .labels()
            .get("y")
            .expect("interned")
            .index();
        assert_eq!(words(&emptied.index, y).len(), 1, "still shared");
    }

    #[test]
    fn patches_over_an_empty_index() {
        let empty = Epoch::fresh(&CsrGraph::default());
        empty.publish(&[], "empty over empty");
        let grown = empty.publish(&[Node, Node, Add(1, "x", 0), Add(1, "x", 1)], "first edges");
        grown.publish(&[Del(1, "x", 0), Node], "then a removal");
    }

    /// Publishes 32 random rounds of nodes, additions and removals (drawn
    /// from labels x/y/w) over `base`, checking every epoch.
    fn chained_patches_stay_exact(base: &CsrGraph) {
        // Dependency-free xorshift64*: the same walk on every run.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut below = |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        };
        const LABELS: [&str; 3] = ["x", "y", "w"];
        let mut epoch = Epoch::fresh(base);
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

    #[test]
    fn thirty_two_chained_patches_stay_exact() {
        chained_patches_stay_exact(&corner_base());
    }

    // ------------------------------------------------ the chunks' corners

    const R: usize = CHUNK_ROWS;

    /// Three full chunks and a 37-row tail.  `x` leaves every seventh node
    /// (parallel duplicates on node 0), `y` links the chunk edges (0,
    /// `R - 1`, `R`, the last node) with self-loops on `R - 1` and `2R`, and
    /// `w` lives in chunk 1 alone, in both directions.
    fn multi_chunk_base() -> CsrGraph {
        let n = 3 * R + 37;
        let mut g = Graph::new();
        let v = g.add_nodes("v", n);
        g.add_edge_by_name(v[0], "x", v[1]);
        for i in (0..n).step_by(7) {
            g.add_edge_by_name(v[i], "x", v[(i * 13 + 5) % n]);
        }
        for (s, t) in [
            (0, R - 1),
            (R - 1, R),
            (R, n - 1),
            (n - 1, 0),
            (R - 1, R - 1),
            (2 * R, 2 * R),
        ] {
            g.add_edge_by_name(v[s], "y", v[t]);
        }
        g.add_edge_by_name(v[R + 1], "w", v[R + 2]);
        g.add_edge_by_name(v[R + 2], "w", v[R + 1]);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn a_fresh_build_is_cut_into_chunks_with_a_partial_tail() {
        let base = multi_chunk_base();
        let index = LabelIndex::from_csr(&base);
        for label in 0..index.label_count {
            for dir in [&index.fwd, &index.rev] {
                let rows: Vec<usize> = dir.parts[label].chunks.iter().map(|c| c.rows()).collect();
                assert_eq!(rows, [R, R, R, 37]);
            }
        }
        let w = base.label_id("w").expect("interned");
        let rows = index.rows(Direction::Forward, w);
        let empties: Vec<bool> = rows.chunks().iter().map(|c| c.is_empty()).collect();
        assert_eq!(empties, [true, false, true, true], "w lives in chunk 1");
        assert!(Arc::ptr_eq(&rows.chunks()[0], &rows.chunks()[2]));
        assert_eq!(rows.chunks()[1].occupied()[0], 0b110);
        assert_eq!(rows.of(R + 1), [R as u32 + 2]);
        assert_eq!(rows.chunks()[1].row(2), [R as u32 + 1]);
        // A rebuild shares exactly the empty chunks; a clone everything.
        let copy = LabelIndex::from_csr(&base);
        let empty = |dir: &DirIndex| -> usize {
            dir.parts
                .iter()
                .flat_map(|p| &p.chunks)
                .filter(|c| Arc::ptr_eq(c, &empty_chunk(R)))
                .count()
        };
        let (fwd, rev) = (empty(&index.fwd), empty(&index.rev));
        assert_eq!(copy.shared_with(&index), ((fwd, 12 - fwd), (rev, 12 - rev)));
        assert_eq!(index.clone().shared_with(&index), ((12, 0), (12, 0)));
    }

    #[test]
    fn chunk_corners_match_a_from_scratch_index() {
        let n = 3 * R + 37;
        let far = n + R;
        let scenarios: Vec<(&str, Vec<Op>)> = vec![
            (
                "touched rows at 0, R - 1, R and the last row",
                vec![
                    Add(0, "y", R),
                    Add(R - 1, "x", 2 * R),
                    Add(R, "w", 0),
                    Add(n - 1, "y", R - 1),
                ],
            ),
            (
                "removals at the chunk edges",
                vec![
                    Del(0, "y", R - 1),
                    Del(R - 1, "y", R),
                    Del(R, "y", n - 1),
                    Del(n - 1, "y", 0),
                ],
            ),
            (
                "one of two parallel duplicates on the first row",
                vec![Del(0, "x", 1), Add(0, "x", n - 1)],
            ),
            (
                "a row at a chunk edge emptied and refilled",
                vec![
                    Del(R - 1, "y", R),
                    Del(R - 1, "y", R - 1),
                    Add(R - 1, "w", R),
                ],
            ),
            (
                "a chunk emptied by removals",
                vec![Del(R + 1, "w", R + 2), Del(R + 2, "w", R + 1)],
            ),
            (
                "nodes added across a chunk boundary",
                std::iter::repeat_n(Node, R)
                    .chain([
                        Add(far - 1, "x", 0),
                        Add(n, "y", far - 1),
                        Add(3 * R + 36, "w", n),
                    ])
                    .collect(),
            ),
            (
                "a new label whose first edge is past the old last chunk",
                std::iter::repeat_n(Node, R)
                    .chain([Add(4 * R + 3, "v", 5), Add(2 * R, "v", 4 * R + 3)])
                    .collect(),
            ),
            (
                "a node added into the partial tail",
                vec![Node, Add(n, "x", n)],
            ),
        ];
        for (context, ops) in &scenarios {
            let once = Epoch::fresh(&multi_chunk_base()).publish(ops, context);
            // Once more on top, at the far corners of the grown graph.
            let last = once.snapshot.node_count() - 1;
            once.publish(&[Node, Add(last, "y", 0), Add(0, "x", last + 1)], context);
        }
    }

    #[test]
    fn a_four_op_publish_replaces_four_chunks_per_touched_partition() {
        let base = Epoch::fresh(&multi_chunk_base());
        let ops = [
            Add(3, "y", 3),
            Add(R + 3, "y", R + 3),
            Add(2 * R + 3, "y", 2 * R + 3),
            Add(3 * R + 3, "y", 3 * R + 3),
        ];
        let next = base.publish(&ops, "one insert per chunk");
        // y's four chunks in each direction; x and w are shared whole.
        let shared = next.index.shared_with(&base.index);
        assert_eq!(shared, ((8, 4), (8, 4)));
        // One more edge, in w's chunk 1: against the base, that chunk too.
        let next = next.publish(&[Add(R, "w", R + 5)], "one chunk");
        let shared = next.index.shared_with(&base.index);
        assert_eq!(shared, ((7, 5), (7, 5)));
    }

    #[test]
    fn thirty_two_chained_patches_stay_exact_across_chunks() {
        chained_patches_stay_exact(&multi_chunk_base());
    }
}
