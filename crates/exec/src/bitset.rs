//! Dense and sparse fixed-size bitsets — the frontier/visited
//! representations of the batch evaluator.
//!
//! One [`FixedBitSet`] holds one bit per graph node; the evaluator keeps one
//! per DFA state for the alive set and one per state for the current
//! frontier, so the product fixed point runs as word-wide sweeps instead of
//! per-configuration queue traffic.
//!
//! [`SparseBitSet`] layers a one-bit-per-chunk summary over the same packed
//! words so that clearing, counting, and iterating cost `O(population)`
//! instead of `O(universe)` — the frontier representation of choice on
//! million-node graphs where a round's frontier touches a few hundred nodes.

const WORD_BITS: usize = 64;

/// Words per summary chunk of a [`SparseBitSet`]: one summary bit covers
/// `CHUNK_WORDS * 64 = 4096` keys, so a 1M-node universe has a 256-bit
/// (4-word) summary.
const CHUNK_WORDS: usize = 64;

/// A fixed-capacity set of `usize` keys below `len`, packed one bit per key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitSet {
    /// Creates an empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// The universe size (number of addressable bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` when `bit` is set.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        debug_assert!(bit < self.len);
        self.words[bit / WORD_BITS] & (1 << (bit % WORD_BITS)) != 0
    }

    /// Sets `bit`; returns `true` when the bit was previously clear.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        debug_assert!(bit < self.len);
        let word = &mut self.words[bit / WORD_BITS];
        let mask = 1 << (bit % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Sets every bit of the universe.
    pub fn insert_all(&mut self) {
        for word in &mut self.words {
            *word = u64::MAX;
        }
        self.mask_tail();
    }

    /// Clears every bit, keeping the allocation.
    pub fn clear(&mut self) {
        for word in &mut self.words {
            *word = 0;
        }
    }

    /// Resizes the universe to `len` and clears every bit.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(WORD_BITS), 0);
        self.len = len;
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// ORs `other` into `self`; returns `true` when any new bit appeared.
    pub fn union_with(&mut self, other: &FixedBitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (word, &incoming) in self.words.iter_mut().zip(&other.words) {
            let merged = *word | incoming;
            changed |= merged != *word;
            *word = merged;
        }
        changed
    }

    /// Iterates the set bits in ascending order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            current: self.words.first().copied().unwrap_or(0),
            word_index: 0,
        }
    }

    /// Iterates the *clear* bits (the complement within the universe) in
    /// ascending order.
    pub fn zeros(&self) -> Zeros<'_> {
        let mut zeros = Zeros {
            set: self,
            current: 0,
            word_index: 0,
        };
        zeros.current = zeros.complemented_word(0);
        zeros
    }

    /// The packed backing words (64 bits each, little-endian within a word)
    /// — what answers and resumable seeds are packed from.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Clears any bits set beyond `len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Iterator over the set bits of a [`FixedBitSet`].
pub struct Ones<'a> {
    words: &'a [u64],
    current: u64,
    word_index: usize,
}

impl<'a> Iterator for Ones<'a> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            if self.word_index >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_index];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * WORD_BITS + bit)
    }
}

/// Iterator over the clear bits of a [`FixedBitSet`].
pub struct Zeros<'a> {
    set: &'a FixedBitSet,
    current: u64,
    word_index: usize,
}

impl<'a> Zeros<'a> {
    /// The complement of word `i`, with bits beyond the universe masked off.
    fn complemented_word(&self, i: usize) -> u64 {
        let Some(&word) = self.set.words.get(i) else {
            return 0;
        };
        let mut complemented = !word;
        let tail = self.set.len % WORD_BITS;
        if tail != 0 && i + 1 == self.set.words.len() {
            complemented &= (1u64 << tail) - 1;
        }
        complemented
    }
}

impl<'a> Iterator for Zeros<'a> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            if self.word_index >= self.set.words.len() {
                return None;
            }
            self.current = self.complemented_word(self.word_index);
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * WORD_BITS + bit)
    }
}

/// A two-level sparse bitset over the universe `0..len`: the same packed
/// words as [`FixedBitSet`] plus a summary bitset with one bit per
/// [`CHUNK_WORDS`]-word chunk.
///
/// Every operation that would sweep the whole universe on a dense set —
/// [`clear`](Self::clear), [`count`](Self::count), [`ones`](Self::ones),
/// [`union_into`](Self::union_into) — instead visits only the chunks whose
/// summary bit is set.  On a 1M-node graph a frontier touching a few hundred
/// nodes therefore costs a handful of cache lines per round instead of
/// 125 KB per DFA state.
///
/// Invariant: a chunk containing a set bit always has its summary bit set
/// (inserts set it unconditionally; there is no per-bit removal, so a set
/// summary bit exactly means "chunk is non-empty" after any
/// [`clear`](Self::clear)/insert sequence).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseBitSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl SparseBitSet {
    /// Creates an empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        let word_count = len.div_ceil(WORD_BITS);
        let chunk_count = word_count.div_ceil(CHUNK_WORDS);
        Self {
            words: vec![0; word_count],
            summary: vec![0; chunk_count.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// The universe size (number of addressable bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.summary.iter().all(|&w| w == 0)
    }

    /// Returns `true` when `bit` is set.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        debug_assert!(bit < self.len);
        self.words[bit / WORD_BITS] & (1 << (bit % WORD_BITS)) != 0
    }

    /// Sets `bit`; returns `true` when the bit was previously clear.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        debug_assert!(bit < self.len);
        let word_index = bit / WORD_BITS;
        let word = &mut self.words[word_index];
        let mask = 1 << (bit % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        let chunk = word_index / CHUNK_WORDS;
        self.summary[chunk / WORD_BITS] |= 1 << (chunk % WORD_BITS);
        fresh
    }

    /// Sets every bit of the universe.
    pub fn insert_all(&mut self) {
        for word in &mut self.words {
            *word = u64::MAX;
        }
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        let chunk_count = self.words.len().div_ceil(CHUNK_WORDS);
        for (index, word) in self.summary.iter_mut().enumerate() {
            let covered = chunk_count.saturating_sub(index * WORD_BITS).min(WORD_BITS);
            *word = match covered {
                0 => 0,
                WORD_BITS => u64::MAX,
                bits => (1u64 << bits) - 1,
            };
        }
    }

    /// Clears every bit, keeping the allocation.  Costs `O(population)`:
    /// only chunks whose summary bit is set are zeroed.
    pub fn clear(&mut self) {
        for summary_index in 0..self.summary.len() {
            let mut summary_word = self.summary[summary_index];
            if summary_word == 0 {
                continue;
            }
            while summary_word != 0 {
                let chunk = summary_index * WORD_BITS + summary_word.trailing_zeros() as usize;
                summary_word &= summary_word - 1;
                let start = chunk * CHUNK_WORDS;
                let end = (start + CHUNK_WORDS).min(self.words.len());
                self.words[start..end].fill(0);
            }
            self.summary[summary_index] = 0;
        }
    }

    /// Resizes the universe to `len` and clears every bit.  When the
    /// universe is unchanged this is the `O(population)` [`clear`] — the
    /// common reuse path (one evaluation after another over the same graph)
    /// never rewrites the whole word array.
    ///
    /// [`clear`]: Self::clear
    pub fn reset(&mut self, len: usize) {
        if len == self.len {
            self.clear();
            return;
        }
        let word_count = len.div_ceil(WORD_BITS);
        let chunk_count = word_count.div_ceil(CHUNK_WORDS);
        self.words.clear();
        self.words.resize(word_count, 0);
        self.summary.clear();
        self.summary.resize(chunk_count.div_ceil(WORD_BITS), 0);
        self.len = len;
    }

    /// Number of set bits (visits only summarized chunks).
    pub fn count(&self) -> usize {
        let mut total = 0;
        for chunk in SummaryChunks::new(&self.summary) {
            let start = chunk * CHUNK_WORDS;
            let end = (start + CHUNK_WORDS).min(self.words.len());
            total += self.words[start..end]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        }
        total
    }

    /// ORs this set into a dense set over the same universe; returns `true`
    /// when any new bit appeared.  Visits only summarized chunks.
    pub fn union_into(&self, dense: &mut FixedBitSet) -> bool {
        debug_assert_eq!(self.len, dense.len);
        let mut changed = false;
        for chunk in SummaryChunks::new(&self.summary) {
            let start = chunk * CHUNK_WORDS;
            let end = (start + CHUNK_WORDS).min(self.words.len());
            for index in start..end {
                let merged = dense.words[index] | self.words[index];
                changed |= merged != dense.words[index];
                dense.words[index] = merged;
            }
        }
        changed
    }

    /// Iterates the set bits in ascending order (visits only summarized
    /// chunks).
    pub fn ones(&self) -> SparseOnes<'_> {
        SparseOnes {
            set: self,
            chunks: SummaryChunks::new(&self.summary),
            word_index: 0,
            chunk_end: 0,
            current: 0,
        }
    }
}

/// Iterator over the set chunk indices of a summary bitset.
struct SummaryChunks<'a> {
    summary: &'a [u64],
    current: u64,
    word_index: usize,
}

impl<'a> SummaryChunks<'a> {
    fn new(summary: &'a [u64]) -> Self {
        Self {
            summary,
            current: summary.first().copied().unwrap_or(0),
            word_index: 0,
        }
    }
}

impl<'a> Iterator for SummaryChunks<'a> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            if self.word_index >= self.summary.len() {
                return None;
            }
            self.current = self.summary[self.word_index];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * WORD_BITS + bit)
    }
}

/// Iterator over the set bits of a [`SparseBitSet`].
pub struct SparseOnes<'a> {
    set: &'a SparseBitSet,
    chunks: SummaryChunks<'a>,
    word_index: usize,
    chunk_end: usize,
    current: u64,
}

impl<'a> Iterator for SparseOnes<'a> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            if self.word_index + 1 < self.chunk_end {
                self.word_index += 1;
                self.current = self.set.words[self.word_index];
                continue;
            }
            let chunk = self.chunks.next()?;
            self.word_index = chunk * CHUNK_WORDS;
            self.chunk_end = (self.word_index + CHUNK_WORDS).min(self.set.words.len());
            self.current = self.set.words[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_count() {
        let mut set = FixedBitSet::new(130);
        assert!(set.is_empty());
        assert!(set.insert(0));
        assert!(set.insert(64));
        assert!(set.insert(129));
        assert!(!set.insert(64), "second insert reports already-present");
        assert!(set.contains(129));
        assert!(!set.contains(1));
        assert_eq!(set.count(), 3);
        assert_eq!(set.ones().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn insert_all_masks_the_tail() {
        let mut set = FixedBitSet::new(70);
        set.insert_all();
        assert_eq!(set.count(), 70);
        assert_eq!(set.ones().last(), Some(69));
        assert_eq!(set.zeros().count(), 0);
    }

    #[test]
    fn zeros_complement_ones() {
        let mut set = FixedBitSet::new(67);
        set.insert(3);
        set.insert(65);
        let zeros: Vec<usize> = set.zeros().collect();
        assert_eq!(zeros.len(), 65);
        assert!(!zeros.contains(&3));
        assert!(!zeros.contains(&65));
        assert!(zeros.contains(&66));
        assert!(zeros.iter().all(|&b| b < 67));
    }

    #[test]
    fn union_with_reports_change() {
        let mut a = FixedBitSet::new(10);
        let mut b = FixedBitSet::new(10);
        b.insert(7);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union adds nothing");
        assert!(a.contains(7));
    }

    #[test]
    fn clear_and_reset() {
        let mut set = FixedBitSet::new(10);
        set.insert(5);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.len(), 10);
        set.reset(200);
        assert_eq!(set.len(), 200);
        assert!(set.is_empty());
        set.insert(199);
        assert!(set.contains(199));
    }

    #[test]
    fn empty_universe() {
        let mut set = FixedBitSet::new(0);
        assert!(set.is_empty());
        assert_eq!(set.ones().count(), 0);
        assert_eq!(set.zeros().count(), 0);
        set.insert_all();
        assert_eq!(set.count(), 0);
    }

    #[test]
    fn sparse_matches_dense_semantics() {
        // Universe straddles several chunks (a chunk is 4096 bits).
        let len = 3 * CHUNK_WORDS * WORD_BITS + 70;
        let mut sparse = SparseBitSet::new(len);
        let mut dense = FixedBitSet::new(len);
        assert!(sparse.is_empty());
        let keys = [0usize, 63, 64, 4095, 4096, 8191, 12345, len - 1];
        for &key in &keys {
            assert_eq!(sparse.insert(key), dense.insert(key), "{key}");
        }
        assert!(
            !sparse.insert(4096),
            "second insert reports already-present"
        );
        assert_eq!(sparse.count(), dense.count());
        assert!(!sparse.is_empty());
        for probe in [0usize, 1, 63, 64, 4095, 4096, 8190, 12345, len - 1] {
            assert_eq!(sparse.contains(probe), dense.contains(probe), "{probe}");
        }
        assert_eq!(
            sparse.ones().collect::<Vec<_>>(),
            dense.ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sparse_union_into_dense_reports_change() {
        let len = 2 * CHUNK_WORDS * WORD_BITS;
        let mut sparse = SparseBitSet::new(len);
        sparse.insert(7);
        sparse.insert(len - 1);
        let mut dense = FixedBitSet::new(len);
        dense.insert(7);
        assert!(sparse.union_into(&mut dense), "len-1 is new");
        assert!(dense.contains(len - 1));
        assert!(!sparse.union_into(&mut dense), "second union adds nothing");
    }

    #[test]
    fn sparse_clear_and_reset() {
        let len = 2 * CHUNK_WORDS * WORD_BITS + 5;
        let mut sparse = SparseBitSet::new(len);
        sparse.insert(3);
        sparse.insert(len - 2);
        sparse.clear();
        assert!(sparse.is_empty());
        assert_eq!(sparse.count(), 0);
        assert_eq!(sparse.ones().count(), 0);
        assert_eq!(sparse.len(), len);
        sparse.insert(4100);
        assert!(sparse.contains(4100), "insert after clear restores summary");
        sparse.reset(100);
        assert_eq!(sparse.len(), 100);
        assert!(sparse.is_empty());
        sparse.insert(99);
        assert!(sparse.contains(99));
    }

    #[test]
    fn sparse_insert_all_masks_tail_and_summary() {
        for len in [0usize, 70, 4096, 4097, 10_000] {
            let mut sparse = SparseBitSet::new(len);
            sparse.insert_all();
            assert_eq!(sparse.count(), len, "len {len}");
            assert_eq!(sparse.ones().count(), len, "len {len}");
            if len > 0 {
                assert_eq!(sparse.ones().last(), Some(len - 1));
            }
            sparse.clear();
            assert!(sparse.is_empty(), "len {len}");
        }
    }
}
