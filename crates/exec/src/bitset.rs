//! Fixed-size bitsets — the alive/frontier representation of the batch
//! evaluator.
//!
//! One [`FixedBitSet`] holds one bit per graph node; the evaluator keeps one
//! per DFA state for the alive set and two per state for the current
//! frontier and its staging double, so the product fixed point runs as
//! word-wide sweeps instead of per-configuration queue traffic.

pub(crate) const WORD_BITS: usize = 64;

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
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.words.iter().enumerate();
        words.flat_map(|(index, &word)| word_ones(index, word))
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

/// The set bits of `word`, read as word `index` of a packed set: the keys
/// `index * 64 + bit`, ascending.
#[inline]
pub(crate) fn word_ones(index: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            index * WORD_BITS + bit
        })
    })
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
        set.insert_all();
        assert_eq!(set.count(), 0);
    }
}
