//! Rebuilding packed CSR rows by *splicing*: copy what an update left alone
//! in bulk, rewrite only the rows it touched.
//!
//! A CSR side is an offsets array (`rows + 1` entries) plus one or more item
//! arrays aligned with it.  An update that touches *k* rows leaves the items
//! between consecutive touched rows byte-for-byte where they were, merely
//! moved by the net growth of the touched rows before them — so the new
//! arrays are `k + 1` bulk copies (`extend_from_slice`) with the rewritten
//! rows in between, and the new offsets are the old ones plus a shift that
//! is constant between touched rows.
//!
//! [`RowSplice`] owns that bookkeeping (the part an off-by-one breaks): the
//! caller walks its touched rows in ascending order, copies the ranges it is
//! handed and reports each rewritten row's new length.  Both users splice
//! per chunk, over chunk-local offsets, so a row's growth shifts nothing
//! outside its chunk: the snapshot compaction
//! ([`crate::DeltaGraph::compact`]) inside each adjacency chunk it rebuilds,
//! rewriting a touched row from the base row and the overlay's edits; and
//! the label-index patch (`gps_exec::LabelIndex::apply_delta`) inside each
//! chunk of a label partition that holds a touched row.  A label-index chunk
//! stores offsets for its occupied rows only, so that patch expands the old
//! chunk to its dense offsets, splices them — rewriting a touched row by
//! re-reading it from the compacted snapshot (the snapshot's row filtered
//! to the label), so it never replays the edits itself — and packs the
//! result again.

use std::ops::Range;

/// Cursor over one CSR side being rebuilt; see the [module docs](self).
///
/// ```
/// use gps_graph::splice::RowSplice;
///
/// // Rows [a b | c | d e]; row 1 becomes [c x y], and a fourth row appears.
/// let (offsets, items) = (vec![0u32, 2, 3, 5], vec!['a', 'b', 'c', 'd', 'e']);
/// let mut out = Vec::new();
/// let mut splice = RowSplice::new(&offsets);
/// let (before, row) = splice.seek(1);
/// out.extend_from_slice(&items[before]);
/// out.extend_from_slice(&items[row]);
/// out.extend(['x', 'y']);
/// splice.set_len(3);
/// let (rest, new_offsets) = splice.finish(4);
/// out.extend_from_slice(&items[rest]);
/// assert_eq!(new_offsets, [0, 2, 5, 7, 7]);
/// assert_eq!(out, ['a', 'b', 'c', 'x', 'y', 'd', 'e']);
/// ```
#[derive(Debug)]
pub struct RowSplice<'a> {
    /// The old offsets; rows past their end are empty.
    old: &'a [u32],
    /// The new offsets written so far: `out[i]` is final for every `i` up to
    /// and including the last row sought.
    out: Vec<u32>,
    /// New minus old offset for every row after the last one sought
    /// (wrapping: a net shrink is a large `u32`).
    shift: u32,
    /// Old items handed out so far (bulk ranges and sought rows).
    copied: usize,
    /// Old length of the row last sought.
    row_len: usize,
}

impl<'a> RowSplice<'a> {
    /// Starts a splice over `old_offsets` (`old rows + 1` entries; an empty
    /// slice reads as zero rows).
    pub fn new(old_offsets: &'a [u32]) -> Self {
        Self {
            old: if old_offsets.is_empty() {
                &[0]
            } else {
                old_offsets
            },
            out: Vec::with_capacity(old_offsets.len()),
            shift: 0,
            copied: 0,
            row_len: 0,
        }
    }

    /// Moves to touched row `row` (strictly greater than the last one
    /// sought).  Returns the range of old items before `row` not yet handed
    /// out — copy it verbatim — and `row`'s own old range, to be rewritten;
    /// report the rewritten length through [`set_len`](Self::set_len).
    pub fn seek(&mut self, row: usize) -> (Range<usize>, Range<usize>) {
        self.fill(row + 1);
        let (lo, hi) = (self.old_at(row), self.old_at(row + 1));
        let before = self.copied..lo;
        self.copied = hi;
        self.row_len = hi - lo;
        (before, lo..hi)
    }

    /// Records that the row last sought now holds `len` items.
    pub fn set_len(&mut self, len: usize) {
        self.shift = self
            .shift
            .wrapping_add(len as u32)
            .wrapping_sub(self.row_len as u32);
        self.row_len = len;
    }

    /// Ends the splice over `rows` rows (at least the old row count; rows
    /// past the old ones that were never sought are empty).  Returns the
    /// old items after the last touched row — copy them verbatim — and the
    /// new offsets.
    pub fn finish(mut self, rows: usize) -> (Range<usize>, Vec<u32>) {
        self.fill(rows + 1);
        (self.copied..self.old_at(usize::MAX), self.out)
    }

    #[inline]
    fn old_at(&self, index: usize) -> usize {
        self.old[index.min(self.old.len() - 1)] as usize
    }

    /// Writes offsets up to (excluding) index `upto`: the old ones shifted,
    /// then the old total shifted for rows the old offsets do not cover.
    fn fill(&mut self, upto: usize) {
        let shift = self.shift;
        let from = self.out.len();
        let covered = &self.old[from.min(self.old.len())..upto.min(self.old.len())];
        self.out
            .extend(covered.iter().map(|&o| o.wrapping_add(shift)));
        let total = self.old[self.old.len() - 1].wrapping_add(shift);
        if self.out.len() < upto {
            self.out.resize(upto, total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies `rewrites` (row → new content) to rows given as vectors, both
    /// by splicing and naively, and compares.
    fn check(rows: &[Vec<u32>], new_rows: usize, rewrites: &[(usize, Vec<u32>)]) {
        let mut offsets = vec![0u32];
        let mut items = Vec::new();
        for row in rows {
            items.extend_from_slice(row);
            offsets.push(items.len() as u32);
        }
        let mut expected: Vec<Vec<u32>> = rows.to_vec();
        expected.resize(new_rows, Vec::new());
        for (row, content) in rewrites {
            expected[*row] = content.clone();
        }
        let mut want_offsets = vec![0u32];
        let mut want_items = Vec::new();
        for row in &expected {
            want_items.extend_from_slice(row);
            want_offsets.push(want_items.len() as u32);
        }

        let mut got_items = Vec::new();
        let mut splice = RowSplice::new(&offsets);
        for (row, content) in rewrites {
            let (before, own) = splice.seek(*row);
            got_items.extend_from_slice(&items[before]);
            assert_eq!(
                &items[own],
                rows.get(*row).map_or(&[][..], Vec::as_slice),
                "row {row}'s old range"
            );
            got_items.extend_from_slice(content);
            splice.set_len(content.len());
        }
        let (rest, got_offsets) = splice.finish(new_rows);
        got_items.extend_from_slice(&items[rest]);
        assert_eq!(got_offsets, want_offsets, "{rows:?} {rewrites:?}");
        assert_eq!(got_items, want_items, "{rows:?} {rewrites:?}");
    }

    fn sample() -> Vec<Vec<u32>> {
        vec![vec![1, 2], vec![], vec![3], vec![4, 5, 6], vec![7]]
    }

    #[test]
    fn no_touched_rows_is_a_plain_copy() {
        check(&sample(), 5, &[]);
        check(&sample(), 8, &[]);
        check(&[], 0, &[]);
        check(&[], 3, &[]);
    }

    #[test]
    fn first_last_and_adjacent_rows() {
        check(&sample(), 5, &[(0, vec![9])]);
        check(&sample(), 5, &[(4, vec![])]);
        check(&sample(), 5, &[(4, vec![7, 8, 9])]);
        check(&sample(), 5, &[(0, vec![]), (1, vec![8, 8]), (2, vec![])]);
        check(&sample(), 5, &[(3, vec![4, 6]), (4, vec![7, 7])]);
        check(
            &sample(),
            5,
            &[
                (0, vec![1]),
                (1, vec![1]),
                (2, vec![1]),
                (3, vec![1]),
                (4, vec![1]),
            ],
        );
    }

    #[test]
    fn shrinking_before_growing_wraps_the_shift_correctly() {
        // Net shift goes negative after row 0 and positive after row 3.
        check(&sample(), 5, &[(0, vec![]), (3, vec![4, 5, 6, 6, 6, 6])]);
    }

    #[test]
    fn rows_past_the_old_ones_start_empty() {
        check(&sample(), 7, &[(5, vec![1, 2])]);
        check(&sample(), 7, &[(6, vec![1, 2])]);
        check(&sample(), 8, &[(2, vec![]), (5, vec![1]), (7, vec![2, 3])]);
        check(&[], 2, &[(0, vec![1]), (1, vec![2])]);
    }

    #[test]
    fn empty_old_offsets_read_as_zero_rows() {
        let mut splice = RowSplice::new(&[]);
        let (before, own) = splice.seek(1);
        assert_eq!((before, own), (0..0, 0..0));
        splice.set_len(2);
        let (rest, offsets) = splice.finish(3);
        assert_eq!(rest, 0..0);
        assert_eq!(offsets, [0, 0, 2, 2]);
    }
}
