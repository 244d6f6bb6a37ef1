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
//! labels, not all of them (74% of the rows are empty on the scale-free
//! corpora) — so every partition also carries **occupancy words**: bit `v`
//! set iff row `v` is non-empty.  A whole-frontier sweep takes
//! [`LabelIndex::rows`], ANDs the occupancy words with the node set it
//! expands and looks up only the rows behind the surviving bits, instead of
//! one [`LabelIndex::neighbors`] call per node of the set.
//!
//! Only occupied rows have offsets.  Beside the occupancy words a partition
//! keeps, per word, its **rank**: how many occupied rows come before it.
//! Row `v` is then occupied row `rank(v / 64)` plus the number of occupied
//! bits below `v` in its word, one popcount away; an empty row costs its
//! occupancy bit and nothing else.  At 1M nodes / 4M edges this halves the
//! index (98.0 → 50.9 MB): the dense per-row offsets were ~64 MB, most of
//! them for empty rows.
//!
//! ## Chunks
//!
//! Each partition is cut into fixed node ranges of [`CHUNK_ROWS`] rows, each
//! a [`RowChunk`] behind an [`Arc`]: the chunk's occupancy words and their
//! ranks, chunk-local offsets of its occupied rows and its neighbors.
//! `CHUNK_ROWS` is a multiple of 64, so the occupancy words of chunk `c`
//! line up with words `c * CHUNK_ROWS / 64 ..` of a node set's
//! [`FixedBitSet`]: a sweep walks chunk-major — one chunk lookup, then per
//! word a hit mask (the set's word, or its complement) handed to
//! [`RowChunk::for_each_hit`], which skips a word without occupied hits
//! before it reads a rank — and a point lookup is one shift, one mask and
//! one popcount.  The rank arithmetic lives in `RowChunk` alone.  A node
//! range in which a label has no edge is one all-empty chunk that every
//! partition shares.
//!
//! ## One row definition
//!
//! Row `v` of `label`'s partition in a direction is the snapshot's row of
//! `v` in that direction — [`CsrGraph::out`] forward, [`CsrGraph::inc`]
//! reverse — filtered to `label`, in row order.  A fresh build
//! ([`LabelIndex::from_csr`]) runs chunk-major, one direction at a time: one
//! pass over a chunk's snapshot rows appends every entry to its label's
//! neighbors and ends the row in every label's dense offsets, and each
//! label's chunk is packed before the next chunk is read, so the build
//! holds one chunk's worth of buffers beside the index.  Nothing else
//! defines what a row holds.
//!
//! ## Across epochs
//!
//! The per-(direction, label) partitions are individually `Arc`-shared, so
//! [`LabelIndex::apply_delta`] hands the labels an update does not touch to
//! the next epoch by pointer.  A touched partition clones its chunk-pointer
//! table and rebuilds only the chunks holding a touched row — a source of a
//! changed edge of that label forward, a target reverse — plus the tail
//! chunk when nodes were added; every other chunk stays shared by pointer,
//! so a four-edge delta costs a few chunks and one pointer copy per chunk,
//! not a pass over the partition's rows.  Inside a chunk the rebuild is a
//! *splice*, the same way the snapshot is compacted
//! ([`gps_graph::splice::RowSplice`]): the old chunk is expanded to its
//! dense chunk-local offsets, the neighbor stretches between consecutive
//! touched rows are copied with `extend_from_slice`, the offsets are the
//! old ones plus a running shift, and each touched row is re-read from the
//! compacted snapshot by the row definition above.  The result is packed
//! exactly as a build packs a chunk.  An untouched partition shared from
//! before nodes were added simply covers fewer rows: the rows it does not
//! cover are empty.  Because a patch reads a row exactly as a build does, a
//! patched index is what a fresh build of the compacted snapshot produces,
//! chunk for chunk.
//!
//! [`FixedBitSet`]: crate::FixedBitSet

use crate::bitset::{word_ones, WORD_BITS};
use gps_graph::splice::RowSplice;
use gps_graph::{CsrEntry, CsrGraph, GraphDelta, LabelId, NodeId};
use std::collections::BTreeMap;
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

/// `node`'s snapshot row in `direction`, every label: what a label-index
/// row is filtered from (see the [module docs](self)).
fn snapshot_row(csr: &CsrGraph, direction: Direction, node: NodeId) -> &[CsrEntry] {
    match direction {
        Direction::Forward => csr.out(node),
        Direction::Reverse => csr.inc(node),
    }
}

/// [`CHUNK_ROWS`] consecutive rows of one label's partition in one direction
/// (fewer in the last chunk), with offsets for the occupied rows only.
///
/// `occupied` holds one bit per row, set iff the row is non-empty: a sweep
/// ANDs it with the node set it is about to expand and never looks up the
/// (many) rows this label has nothing in.  The `k`-th occupied row is
/// `neighbors[offsets[k] .. offsets[k + 1]]`, and `ranks[w]` counts the
/// occupied rows before occupancy word `w`, so local row `r` is occupied row
/// `ranks[r / 64]` plus the occupied bits below `r` in its word.  A build
/// and a patch both make a chunk the same way: `rows + 1` dense offsets
/// packed to this layout, never stored in any other form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowChunk {
    rows: usize,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    occupied: Vec<u64>,
    ranks: Vec<u16>,
}

const _: () = assert!(CHUNK_ROWS <= u16::MAX as usize);

impl RowChunk {
    /// Packs `rows + 1` dense chunk-local offsets and the neighbors they
    /// index: derives the occupancy words and their ranks, and keeps the
    /// offsets of the occupied rows only.
    fn new(dense: &[u32], neighbors: Vec<u32>) -> Self {
        debug_assert_eq!(dense.first(), Some(&0));
        debug_assert_eq!(dense.last().map(|&o| o as usize), Some(neighbors.len()));
        let rows = dense.len() - 1;
        let occupied: Vec<u64> = dense[..rows]
            .chunks(WORD_BITS)
            .zip(dense[1..].chunks(WORD_BITS))
            .map(|(starts, ends)| occupancy_word(starts, ends))
            .collect();
        let mut ranks = Vec::with_capacity(occupied.len());
        let mut before = 0u16;
        for word in &occupied {
            ranks.push(before);
            before += word.count_ones() as u16;
        }
        let mut offsets = Vec::with_capacity(usize::from(before) + 1);
        offsets.push(0);
        let occupied_rows = occupied.iter().enumerate();
        let occupied_rows = occupied_rows.flat_map(|(index, &word)| word_ones(index, word));
        offsets.extend(occupied_rows.map(|row| dense[row + 1]));
        Self {
            rows,
            offsets,
            neighbors,
            occupied,
            ranks,
        }
    }

    /// The `rows + 1` dense chunk-local offsets this chunk was packed from:
    /// row `r` ends where the last occupied row up to `r` ends.
    fn dense_offsets(&self) -> Vec<u32> {
        let mut dense = vec![0u32; self.rows + 1];
        let mut k = 0;
        for (&word, ends) in self.occupied.iter().zip(dense[1..].chunks_mut(WORD_BITS)) {
            for (bit, end) in ends.iter_mut().enumerate() {
                k += (word >> bit & 1) as usize;
                *end = self.offsets[k];
            }
        }
        dense
    }

    /// The number of rows this chunk covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether no row of this chunk has a neighbor.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Bit `r % 64` of word `r / 64` is set iff local row `r` is non-empty.
    pub fn occupied(&self) -> &[u64] {
        &self.occupied
    }

    /// The neighbors of the `k`-th occupied row.
    #[inline(always)]
    fn nth_occupied(&self, k: usize) -> &[u32] {
        &self.neighbors[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// The neighbors of occupied local row `word * 64 + bit`, where
    /// `occupied` is word `word`'s occupancy: the word's rank plus the
    /// occupied rows below `bit` in it.
    #[inline(always)]
    fn ranked(&self, word: usize, occupied: u64, bit: u32) -> &[u32] {
        let below = occupied & ((1u64 << bit) - 1);
        self.nth_occupied(usize::from(self.ranks[word]) + below.count_ones() as usize)
    }

    /// The neighbors of local row `row`.
    ///
    /// # Panics
    /// Panics if `row` is not below [`rows`](Self::rows).
    pub fn row(&self, row: usize) -> &[u32] {
        assert!(row < self.rows, "row {row} of a {}-row chunk", self.rows);
        let (word, bit) = (row / WORD_BITS, (row % WORD_BITS) as u32);
        let occupied = self.occupied[word];
        match occupied >> bit & 1 {
            0 => &[],
            _ => self.ranked(word, occupied, bit),
        }
    }

    /// Calls `visit(r, neighbors)`, in ascending order, for every occupied
    /// local row `r` of occupancy word `word` whose bit is set in `hits`:
    /// what a sweep runs per word after masking a node set with
    /// [`occupied`](Self::occupied).  Bits of empty rows are ignored, and a
    /// word with no hit reads nothing else.
    ///
    /// # Panics
    /// Panics if `word` is not below `occupied().len()`.
    #[inline(always)]
    pub fn for_each_hit<'a>(
        &'a self,
        word: usize,
        hits: u64,
        mut visit: impl FnMut(usize, &'a [u32]),
    ) {
        let occupied = self.occupied[word];
        let mut hits = hits & occupied;
        if hits == 0 {
            return;
        }
        if hits == occupied {
            // Every occupied row of the word: consecutive ranks, no
            // popcount (software on the baseline x86-64 target).
            let mut k = usize::from(self.ranks[word]);
            while hits != 0 {
                let bit = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                visit(word * WORD_BITS + bit, self.nth_occupied(k));
                k += 1;
            }
            return;
        }
        while hits != 0 {
            let bit = hits.trailing_zeros();
            hits &= hits - 1;
            visit(
                word * WORD_BITS + bit as usize,
                self.ranked(word, occupied, bit),
            );
        }
    }

    /// Rebuilds `old` — the chunk whose first row is `first`, `None` when
    /// the old partition did not cover it — over `rows` rows of `csr`, with
    /// each of the `touched` rows (ascending, inside this chunk) re-read
    /// from `csr` by the row definition of the [module docs](self): expands
    /// `old` to its dense offsets, splices them and packs the result.
    /// Untouched stretches are bulk copies; rows the old chunk does not
    /// cover yet start empty.
    fn patched(
        old: Option<&RowChunk>,
        csr: &CsrGraph,
        direction: Direction,
        label: LabelId,
        first: usize,
        rows: usize,
        touched: &[u32],
    ) -> Self {
        let old_offsets = old.map_or_else(Vec::new, RowChunk::dense_offsets);
        let old_neighbors = old.map_or(&[][..], |c| &c.neighbors[..]);
        let mut neighbors = Vec::with_capacity(old_neighbors.len() + touched.len());
        let mut splice = RowSplice::new(&old_offsets);
        for &row in touched {
            let (before, _) = splice.seek(row as usize - first);
            neighbors.extend_from_slice(&old_neighbors[before]);
            let start = neighbors.len();
            let entries = snapshot_row(csr, direction, NodeId::new(row));
            neighbors.extend(
                entries
                    .iter()
                    .filter(|entry| entry.label == label)
                    .map(|entry| entry.node.raw()),
            );
            splice.set_len(neighbors.len() - start);
        }
        let (rest, offsets) = splice.finish(rows);
        neighbors.extend_from_slice(&old_neighbors[rest]);
        Self::new(&offsets, neighbors)
    }

    fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.neighbors.len()) * std::mem::size_of::<u32>()
            + self.occupied.len() * std::mem::size_of::<u64>()
            + self.ranks.len() * std::mem::size_of::<u16>()
    }
}

/// The occupancy word of up to 64 rows starting at `starts` and ending at
/// `ends`: bit `i` set iff row `i` is non-empty.  The rows are compared into
/// one byte each (a loop the compiler vectorizes) and every eight bytes are
/// gathered into eight bits by one multiply, so packing a chunk costs no
/// branch or shift per row.
fn occupancy_word(starts: &[u32], ends: &[u32]) -> u64 {
    let mut flags = [0u8; WORD_BITS];
    for ((flag, start), end) in flags.iter_mut().zip(starts).zip(ends) {
        *flag = u8::from(end != start);
    }
    let bytes = flags.chunks_exact(8).enumerate();
    bytes.fold(0, |word, (byte, eight)| {
        let eight = u64::from_le_bytes(eight.try_into().expect("eight flags"));
        // Flag `i` (0 or 1) of `eight` lands on bit 56 + i; nothing carries.
        word | (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * byte)
    })
}

/// An all-empty chunk of `rows` rows.  Every full-size one is the same
/// allocation, shared by every partition of every index.
fn empty_chunk(rows: usize) -> Arc<RowChunk> {
    static FULL: OnceLock<Arc<RowChunk>> = OnceLock::new();
    let empty = || RowChunk::new(&vec![0; rows + 1], Vec::new());
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
    /// An empty partition covering `node_count` nodes.
    fn empty(node_count: usize) -> Self {
        let chunks = 0..node_count.div_ceil(CHUNK_ROWS);
        Self {
            chunks: chunks
                .map(|c| empty_chunk(chunk_rows(c, node_count)))
                .collect(),
        }
    }

    /// `label`'s partition in `direction` of `csr` — the compacted snapshot
    /// of a delta whose changed edges of `label` touch the `touched` rows
    /// (ascending, distinct) — given `old`, the partition before it: a copy
    /// of the chunk-pointer table in which only the chunks holding a touched
    /// row, and the tail chunk when it grew, are rebuilt
    /// ([`RowChunk::patched`]).
    fn patched(
        old: Option<&Partition>,
        csr: &CsrGraph,
        direction: Direction,
        label: LabelId,
        mut touched: &[u32],
    ) -> Self {
        let node_count = csr.node_count();
        let old_chunks = old.map_or(&[][..], |p| &p.chunks[..]);
        let chunks = (0..node_count.div_ceil(CHUNK_ROWS)).map(|c| {
            let (first, rows) = (c * CHUNK_ROWS, chunk_rows(c, node_count));
            let len = touched.partition_point(|&row| (row as usize) < first + CHUNK_ROWS);
            let (here, rest) = touched.split_at(len);
            touched = rest;
            let old = old_chunks.get(c);
            if here.is_empty() {
                match old {
                    Some(old) if old.rows() == rows => return Arc::clone(old),
                    // A tail with edges that must grow: rebuilt below.
                    Some(old) if !old.is_empty() => {}
                    _ => return empty_chunk(rows),
                }
            }
            let old = old.map(|c| &**c);
            shared(RowChunk::patched(
                old, csr, direction, label, first, rows, here,
            ))
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
}

/// One label's share of a [`GraphDelta`]: the rows its changed edges touch
/// in each direction — their sources forward, their targets reverse —
/// ascending and distinct.
#[derive(Debug, Default)]
struct LabelPatch {
    fwd: Vec<u32>,
    rev: Vec<u32>,
}

impl LabelPatch {
    /// The touched rows of every label the delta changes.
    fn by_label(delta: &GraphDelta) -> BTreeMap<usize, LabelPatch> {
        let mut patches: BTreeMap<usize, LabelPatch> = BTreeMap::new();
        for edge in delta.added_edges.iter().chain(&delta.removed_edges) {
            let patch = patches.entry(edge.label.index()).or_default();
            patch.fwd.push(edge.source.raw());
            patch.rev.push(edge.target.raw());
        }
        for patch in patches.values_mut() {
            for rows in [&mut patch.fwd, &mut patch.rev] {
                rows.sort_unstable();
                rows.dedup();
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

/// Every label's partition of `csr` in `direction`, chunk-major: one pass
/// over a chunk's snapshot rows appends each entry to its label's neighbors
/// and ends the row in every label's dense offsets, and each label's chunk is
/// packed ([`RowChunk::new`]) before the next chunk is read.
fn partitions(csr: &CsrGraph, direction: Direction) -> DirIndex {
    let (node_count, labels) = (csr.node_count(), csr.label_count());
    let chunk_count = node_count.div_ceil(CHUNK_ROWS);
    let mut parts: Vec<Vec<Arc<RowChunk>>> = (0..labels)
        .map(|_| Vec::with_capacity(chunk_count))
        .collect();
    let mut dense: Vec<Vec<u32>> = (0..labels)
        .map(|_| Vec::with_capacity(CHUNK_ROWS + 1))
        .collect();
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); labels];
    for c in 0..chunk_count {
        let (first, rows) = (c * CHUNK_ROWS, chunk_rows(c, node_count));
        for offsets in &mut dense {
            offsets.clear();
            offsets.push(0);
        }
        for node in first..first + rows {
            for entry in snapshot_row(csr, direction, NodeId::from(node)) {
                neighbors[entry.label.index()].push(entry.node.raw());
            }
            for (offsets, row) in dense.iter_mut().zip(&neighbors) {
                offsets.push(row.len() as u32);
            }
        }
        for ((chunks, offsets), row) in parts.iter_mut().zip(&dense).zip(&mut neighbors) {
            chunks.push(match row.is_empty() {
                true => empty_chunk(rows),
                false => Arc::new(RowChunk::new(offsets, row.to_vec())),
            });
            row.clear();
        }
    }
    DirIndex {
        parts: parts
            .into_iter()
            .map(|chunks| Arc::new(Partition { chunks }))
            .collect(),
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
    /// Builds the index of `graph` by one pass over each direction's rows,
    /// one direction at a time.
    pub fn from_csr(graph: &CsrGraph) -> Self {
        let fwd = partitions(graph, Direction::Forward);
        let rev = partitions(graph, Direction::Reverse);
        LabelIndex {
            node_count: graph.node_count(),
            label_count: graph.label_count(),
            label_edge_counts: fwd.parts.iter().map(|part| part.edge_count()).collect(),
            fwd,
            rev,
        }
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

    /// Number of edges in the indexed graph.
    pub fn edge_count(&self) -> usize {
        self.label_edge_counts.iter().sum()
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
    /// `csr` is the compacted snapshot `delta` produced from this index's
    /// graph: every touched row is re-read from it, so the result is
    /// identical to [`from_csr`](Self::from_csr) over `csr`, chunk for chunk
    /// (see the [module docs](self)).
    pub fn apply_delta(&self, csr: &CsrGraph, delta: &GraphDelta) -> LabelIndex {
        let (node_count, label_count) = (csr.node_count(), csr.label_count());
        // In label order, so the patches are consumed in step with the label
        // sweep below.
        let mut patches = LabelPatch::by_label(delta).into_iter().peekable();
        let mut fwd_parts = Vec::with_capacity(label_count);
        let mut rev_parts = Vec::with_capacity(label_count);
        let mut label_edge_counts = vec![0usize; label_count];
        for (label, slot) in label_edge_counts.iter_mut().enumerate() {
            let known = label < self.label_count;
            if let Some((_, patch)) = patches.next_if(|&(touched, _)| touched == label) {
                let id = LabelId::from(label);
                let fwd = Partition::patched(
                    known.then(|| self.fwd.parts[label].as_ref()),
                    csr,
                    Direction::Forward,
                    id,
                    &patch.fwd,
                );
                let rev = Partition::patched(
                    known.then(|| self.rev.parts[label].as_ref()),
                    csr,
                    Direction::Reverse,
                    id,
                    &patch.rev,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{CsrGraph, Graph};

    /// The `label`-successors of `node` as typed ids.
    fn successor_ids(index: &LabelIndex, label: LabelId, node: NodeId) -> Vec<NodeId> {
        index
            .neighbors(Direction::Forward, label, node.index())
            .iter()
            .map(|&n| NodeId::new(n))
            .collect()
    }

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

        let patched = old.apply_delta(&compacted, &summary);
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
        let patched = old.apply_delta(&compacted, &summary);
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
            let dense = want.dense_offsets();
            assert_eq!(
                dense[rows] as usize,
                want.neighbors.len(),
                "{context}: chunk {c} has no edge past the shared coverage"
            );
            let truncated = RowChunk::new(&dense[..=rows], want.neighbors.clone());
            assert_eq!(**got, truncated, "{context}: chunk {c}");
        }
        let past = &want.chunks[got.chunks.len()..];
        assert!(
            past.iter().all(|chunk| chunk.is_empty()),
            "{context}: no edge past the shared coverage"
        );
    }

    /// One epoch of the index: snapshot and index.
    struct Epoch {
        snapshot: Arc<CsrGraph>,
        index: LabelIndex,
    }

    impl Epoch {
        fn fresh(graph: &CsrGraph) -> Self {
            let snapshot = Arc::new(graph.clone());
            Self {
                index: LabelIndex::from_csr(snapshot.as_ref()),
                snapshot,
            }
        }

        /// Publishes `ops` and checks the patched index against the row
        /// definition and a from-scratch build over the compacted snapshot:
        /// every neighbor slice of both is the snapshot's row filtered to
        /// the label, the touched partitions equal the build's chunk for
        /// chunk, the untouched ones are shared by pointer, and at most one
        /// chunk per edge op per touched partition is rebuilt (plus the
        /// chunks the added nodes reach).
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
            let patched = self.index.apply_delta(&snapshot, &delta);
            let fresh = LabelIndex::from_csr(snapshot.as_ref());
            assert_eq!(patched.node_count, n, "{context}");
            assert_eq!(
                patched.label_edge_counts, fresh.label_edge_counts,
                "{context}"
            );
            let touched = delta.touched_labels();
            for label in 0..labels {
                let id = LabelId::from(label);
                for node in snapshot.nodes() {
                    for direction in [Direction::Forward, Direction::Reverse] {
                        let entries = match direction {
                            Direction::Forward => snapshot.out(node),
                            Direction::Reverse => snapshot.inc(node),
                        };
                        let row: Vec<u32> = entries
                            .iter()
                            .filter(|entry| entry.label == id)
                            .map(|entry| entry.node.raw())
                            .collect();
                        for (side, index) in [("patched", &patched), ("fresh", &fresh)] {
                            assert_eq!(
                                index.neighbors(direction, id, node.index()),
                                row,
                                "{context}: {side} {direction:?} {id:?} node {node}"
                            );
                        }
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
            Epoch {
                snapshot,
                index: patched,
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
            (
                "added sources below their targets' existing ones",
                &[Add(1, "x", 0), Add(0, "x", 3), Add(1, "x", 3)],
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

    // ------------------------------------------------- the ranks' corners

    /// Packs `rows` (one neighbor list per local row) into a chunk and
    /// checks every way of reading it against the dense offsets: `row()`,
    /// the sweep visitor over every word (all bits, every other bit, and
    /// each row's bit on its own), and the round trip pack ∘ expand.
    fn assert_packs(context: &str, rows: &[Vec<u32>]) -> RowChunk {
        let mut dense = vec![0u32];
        let mut neighbors = Vec::new();
        for row in rows {
            neighbors.extend_from_slice(row);
            dense.push(neighbors.len() as u32);
        }
        let chunk = RowChunk::new(&dense, neighbors.clone());
        assert_eq!(chunk.rows(), rows.len(), "{context}");
        assert_eq!(chunk.occupied().len(), rows.len().div_ceil(WORD_BITS));
        let occupied = rows.iter().filter(|row| !row.is_empty()).count();
        assert_eq!(chunk.offsets.len(), occupied + 1, "{context}: offsets");
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(chunk.row(r), row.as_slice(), "{context}: row {r}");
            let mut visited = Vec::new();
            chunk.for_each_hit(r / WORD_BITS, 1 << (r % WORD_BITS), |at, got| {
                visited.push((at, got.to_vec()))
            });
            let want: Vec<_> = (!row.is_empty())
                .then(|| (r, row.clone()))
                .into_iter()
                .collect();
            assert_eq!(visited, want, "{context}: row {r} alone");
        }
        // Every row of a word (consecutive ranks), and every other one.
        for mask in [!0u64, 0x5555_5555_5555_5555] {
            let mut swept = Vec::new();
            for word in 0..chunk.occupied().len() {
                chunk.for_each_hit(word, mask, |at, got| swept.push((at, got.to_vec())));
            }
            let want: Vec<(usize, Vec<u32>)> = rows
                .iter()
                .enumerate()
                .filter(|(r, row)| !row.is_empty() && mask >> (r % WORD_BITS) & 1 == 1)
                .map(|(r, row)| (r, row.clone()))
                .collect();
            assert_eq!(swept, want, "{context}: sweep under {mask:#x}");
        }
        assert_eq!(chunk.dense_offsets(), dense, "{context}: expand");
        assert_eq!(
            RowChunk::new(&chunk.dense_offsets(), neighbors),
            chunk,
            "{context}: pack ∘ expand"
        );
        chunk
    }

    #[test]
    fn rank_corners_read_like_dense_offsets() {
        // Every row occupied, with lengths 1..=3: the largest rank.
        let full: Vec<Vec<u32>> = (0..R as u32).map(|r| (r..=r + r % 3).collect()).collect();
        let chunk = assert_packs("every row occupied", &full);
        assert_eq!(chunk.ranks.last(), Some(&((R - WORD_BITS) as u16)));
        assert!(chunk.occupied().iter().all(|&word| word == !0));

        // Rows 63 and 64 (either side of a word boundary) and the last row.
        let mut edges = vec![Vec::new(); R];
        edges[63] = vec![7, 7];
        edges[64] = vec![1];
        edges[R - 1] = vec![R as u32 - 1];
        let chunk = assert_packs("rows 63, 64 and the last", &edges);
        assert_eq!(chunk.offsets, [0, 2, 3, 4]);
        assert_eq!(chunk.ranks[1..3], [1, 2]);
        assert_eq!(chunk.ranks[R / WORD_BITS - 1], 2);

        // Empty words between occupied ones.
        let mut gaps = vec![Vec::new(); R];
        gaps[5] = vec![1, 2, 3];
        gaps[10 * WORD_BITS + 1] = vec![4];
        gaps[10 * WORD_BITS + 2] = vec![5];
        gaps[40 * WORD_BITS] = vec![6];
        let chunk = assert_packs("empty words between occupied ones", &gaps);
        assert_eq!(chunk.ranks[1..=10], [1; 10]);
        assert_eq!(chunk.ranks[11..=40], [3; 30]);

        // A 37-row tail: a partial last word, first and last rows occupied.
        let tail: Vec<Vec<u32>> = (0..37u32)
            .map(|r| match r {
                0 | 17 | 18 | 36 => vec![r, r + 1],
                _ => Vec::new(),
            })
            .collect();
        assert_packs("a 37-row tail", &tail);

        // And the all-empty chunk, full and partial.
        assert_packs("an empty chunk", &vec![Vec::new(); R]);
        assert_packs("an empty tail", &vec![Vec::new(); 37]);
    }
}
