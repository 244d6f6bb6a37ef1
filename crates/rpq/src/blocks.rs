//! Per-node bit arrays in `Arc`-shared blocks.
//!
//! An answer is one bit per node and a captured fixed point is one bit per
//! `(node, DFA state)`; a graph update changes a few dozen of those bits out
//! of millions.  [`BlockBits`] makes the next epoch's copy cost what changed
//! instead of what exists:
//!
//! * `clone` copies the pointer table (one `Arc` per [`BLOCK_NODES`] nodes);
//! * a write copies the one block it lands in, and only when another array
//!   still shares it;
//! * growth appends blocks and rewrites at most the old tail block;
//! * all-zero blocks (dead regions of a state, unselected regions of an
//!   answer) and all-one blocks (accepting states) are one shared allocation
//!   each.
//!
//! Every block covers [`BLOCK_NODES`] nodes except the last, which covers
//! what is left rounded up to 64 — so an array over a small graph is one
//! block of its own size, not a padded one.  The array is **canonical**:
//! block sizes follow from `len` alone and every bit past `len` is clear,
//! so equality is length plus block contents whatever route built the array,
//! and whole-array scans never mask a tail.

use std::sync::{Arc, OnceLock};

/// Nodes covered by one full block: 2 KiB of bits.
///
/// Picked by measurement, not configurable.  Resuming ~45 warm answers per
/// 4-op publish on the 1M-node corpus (traced `publish-1m`, seed 42, mean
/// `exec.resume_us` / `rpq.migrate_us` / `core.retire_ms`, measured while a
/// seed still carried a byte array of support counters beside each bit
/// array):
///
/// | nodes per block | resume | migrate | retire |
/// |---|---|---|---|
/// | 4,096 | 73 µs | 3.9 ms | 3.3 ms |
/// | 8,192 | 50 µs | 2.8 ms | 2.0 ms |
/// | 16,384 | 36 µs | 2.1 ms | 1.5 ms |
/// | 32,768 | 31 µs | 1.8 ms | 1.0 ms |
/// | 65,536 | 31 µs | 1.7 ms | 1.3 ms |
///
/// Small blocks pay for their pointer tables — one `Arc` count touched per
/// block per state when a seed is cloned and again when its epoch retires,
/// each a cache miss; past the knee the curve is flat while every write
/// copies twice as much per doubling, which a larger delta than this one
/// would feel.
pub const BLOCK_NODES: usize = 16384;
const BLOCK_WORDS: usize = BLOCK_NODES / 64;

fn zero_words() -> &'static Arc<[u64]> {
    static BLOCK: OnceLock<Arc<[u64]>> = OnceLock::new();
    BLOCK.get_or_init(|| Arc::from(vec![0; BLOCK_WORDS]))
}

fn full_words() -> &'static Arc<[u64]> {
    static BLOCK: OnceLock<Arc<[u64]>> = OnceLock::new();
    BLOCK.get_or_init(|| Arc::from(vec![u64::MAX; BLOCK_WORDS]))
}

/// Nodes block `index` of a `len`-entry array has room for: [`BLOCK_NODES`],
/// or for the last block what is left of `len` rounded up to 64.
fn block_capacity(len: usize, index: usize) -> usize {
    (len - index * BLOCK_NODES)
        .min(BLOCK_NODES)
        .next_multiple_of(64)
}

/// `block` zero-extended to `size` words, as a block of its own.
fn resized(block: &[u64], size: usize) -> Arc<[u64]> {
    let padding = size - block.len();
    block
        .iter()
        .copied()
        .chain(std::iter::repeat_n(0, padding))
        .collect()
}

/// Sets bits `from..to` of a block.
fn set_range(block: &mut [u64], from: usize, to: usize) {
    for bit in from..to {
        block[bit / 64] |= 1 << (bit % 64);
    }
}

/// How many blocks of an array (or a set of arrays) had to be allocated for
/// it, and how many it shares — with the array it was derived from, or with
/// the uniform all-zero / all-one blocks.  The size of an update's cone, in
/// blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockSharing {
    /// Blocks that are this array's own allocation.
    pub copied: usize,
    /// Blocks that are the older array's block at the same position, or a
    /// uniform block.
    pub shared: usize,
}

impl std::ops::AddAssign for BlockSharing {
    fn add_assign(&mut self, other: Self) {
        self.copied += other.copied;
        self.shared += other.shared;
    }
}

/// A growable bit array over `0..len` in shared blocks; see the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct BlockBits {
    len: usize,
    blocks: Vec<Arc<[u64]>>,
}

impl PartialEq for BlockBits {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.blocks.len() == other.blocks.len()
            && (self.blocks.iter().zip(&other.blocks)).all(|(x, y)| Arc::ptr_eq(x, y) || x == y)
    }
}

impl Eq for BlockBits {}

impl BlockBits {
    /// `len` clear bits (full blocks are the shared zero block).
    pub fn new(len: usize) -> Self {
        let mut bits = Self::default();
        bits.grow(len, false);
        bits
    }

    /// Packs `len` bits from dense words (bit `i` is `words[i / 64] >> (i %
    /// 64) & 1`; bits past `len` are ignored).  Uniform blocks are shared,
    /// not copied.
    pub fn from_words(len: usize, words: &[u64]) -> Self {
        let mut blocks: Vec<Arc<[u64]>> = words[..len.div_ceil(64)]
            .chunks(BLOCK_WORDS)
            .map(|chunk| {
                if *chunk == zero_words()[..] {
                    Arc::clone(zero_words())
                } else if *chunk == full_words()[..] {
                    Arc::clone(full_words())
                } else {
                    Arc::from(chunk)
                }
            })
            .collect();
        // Canonical tail: a caller's stray bits past `len` must not survive.
        if !len.is_multiple_of(64) {
            let last = blocks.last_mut().expect("len > 0 has a block");
            let word = (len % BLOCK_NODES) / 64;
            let mask = (1u64 << (len % 64)) - 1;
            if last[word] & !mask != 0 {
                Arc::make_mut(last)[word] &= mask;
            }
        }
        Self { len, blocks }
    }

    /// Packs one bit per flag.
    pub fn from_flags(flags: &[bool]) -> Self {
        let mut words = vec![0u64; flags.len().div_ceil(64)];
        for (i, _) in flags.iter().enumerate().filter(|(_, &flag)| flag) {
            words[i / 64] |= 1 << (i % 64);
        }
        Self::from_words(flags.len(), &words)
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no bit is set (the scan stops at the first set
    /// bit and skips shared zero blocks by pointer).
    pub fn is_empty(&self) -> bool {
        self.blocks
            .iter()
            .all(|block| Arc::ptr_eq(block, zero_words()) || block.iter().all(|&w| w == 0))
    }

    /// Returns `true` when `bit` is set; bits past `len` read as clear.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        bit < self.len
            && self.blocks[bit / BLOCK_NODES][(bit % BLOCK_NODES) / 64] & (1 << (bit % 64)) != 0
    }

    /// Sets `bit`; returns `true` when it was clear.  Copies the bit's block
    /// if another array shares it.
    ///
    /// # Panics
    /// When `bit >= len`.
    pub fn insert(&mut self, bit: usize) -> bool {
        assert!(bit < self.len, "bit {bit} out of range {}", self.len);
        if self.contains(bit) {
            return false;
        }
        Arc::make_mut(&mut self.blocks[bit / BLOCK_NODES])[(bit % BLOCK_NODES) / 64] |=
            1 << (bit % 64);
        true
    }

    /// Clears `bit`; returns `true` when it was set.  Copies the bit's block
    /// if another array shares it.
    pub fn remove(&mut self, bit: usize) -> bool {
        if !self.contains(bit) {
            return false;
        }
        Arc::make_mut(&mut self.blocks[bit / BLOCK_NODES])[(bit % BLOCK_NODES) / 64] &=
            !(1 << (bit % 64));
        true
    }

    /// Grows to `len` bits (at least the current length), the new bits all
    /// equal to `fill`.  Only the old tail block can be rewritten — when it
    /// has to get longer, or `fill` sets bits in it; every block appended
    /// behind it is a shared uniform one, except a partial last block.
    pub fn grow(&mut self, len: usize, fill: bool) {
        assert!(len >= self.len, "cannot shrink {} to {len}", self.len);
        if let Some(index) = self.blocks.len().checked_sub(1) {
            let tail = &mut self.blocks[index];
            let words = block_capacity(len, index) / 64;
            if words != tail.len() {
                *tail = resized(tail, words);
            }
            let base = index * BLOCK_NODES;
            let upto = len.min(base + BLOCK_NODES);
            if fill && self.len < upto {
                set_range(Arc::make_mut(tail), self.len - base, upto - base);
            }
        }
        for index in self.blocks.len()..len.div_ceil(BLOCK_NODES) {
            let bits = (len - index * BLOCK_NODES).min(BLOCK_NODES);
            self.blocks.push(match (bits == BLOCK_NODES, fill) {
                (true, false) => Arc::clone(zero_words()),
                (true, true) => Arc::clone(full_words()),
                (false, _) => {
                    let mut block = vec![0; block_capacity(len, index) / 64];
                    if fill {
                        set_range(&mut block, 0, bits);
                    }
                    Arc::from(block)
                }
            });
        }
        self.len = len;
    }

    /// Number of set bits (a popcount per word; shared zero blocks are
    /// skipped by pointer).
    pub fn count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|block| !Arc::ptr_eq(block, zero_words()))
            .flat_map(|block| block.iter())
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// Returns `true` when both arrays set the same bits, whatever their
    /// lengths.  Blocks at one position cover the same bits, so each pair is
    /// compared by pointer first, then word by word over the shorter block,
    /// and whatever the longer array holds beyond the other must be clear.
    /// No bit is decoded.
    pub fn same_ones(&self, other: &Self) -> bool {
        let (short, long) = if self.blocks.len() <= other.blocks.len() {
            (self, other)
        } else {
            (other, self)
        };
        let clear = |words: &[u64]| words.iter().all(|&word| word == 0);
        (short.blocks.iter().zip(&long.blocks)).all(|(x, y)| {
            let common = x.len().min(y.len());
            Arc::ptr_eq(x, y)
                || (x[..common] == y[..common] && clear(&x[common..]) && clear(&y[common..]))
        }) && long.blocks[short.blocks.len()..]
            .iter()
            .all(|block| Arc::ptr_eq(block, zero_words()) || clear(block))
    }

    /// The set bits in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, block)| !Arc::ptr_eq(block, zero_words()))
            .flat_map(|(b, block)| {
                block.iter().enumerate().flat_map(move |(w, &word)| {
                    let base = b * BLOCK_NODES + w * 64;
                    std::iter::successors((word != 0).then_some(word), |rest| {
                        let rest = rest & (rest - 1);
                        (rest != 0).then_some(rest)
                    })
                    .map(move |rest| base + rest.trailing_zeros() as usize)
                })
            })
    }

    /// Which of this array's blocks are `older`'s (same position, same
    /// allocation) or uniform, and which are its own.
    pub fn sharing(&self, older: &Self) -> BlockSharing {
        let uniform = [zero_words(), full_words()];
        let shared = (self.blocks.iter().enumerate())
            .filter(|(i, block)| {
                older.blocks.get(*i).is_some_and(|o| Arc::ptr_eq(o, block))
                    || uniform.iter().any(|u| Arc::ptr_eq(u, block))
            })
            .count();
        BlockSharing {
            copied: self.blocks.len() - shared,
            shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every index worth probing for an array of `len`: both ends and both
    /// sides of every block boundary.
    fn corners(len: usize) -> Vec<usize> {
        let mut picks = vec![0, len.saturating_sub(1)];
        for boundary in (BLOCK_NODES..len + BLOCK_NODES).step_by(BLOCK_NODES) {
            picks.extend([boundary - 1, boundary]);
        }
        picks.retain(|&i| i < len);
        picks.sort_unstable();
        picks.dedup();
        picks
    }

    /// Lengths on both sides of one and two block boundaries, plus word
    /// boundaries inside a block.
    const LENGTHS: [usize; 10] = [
        1,
        63,
        64,
        65,
        BLOCK_NODES - 1,
        BLOCK_NODES,
        BLOCK_NODES + 1,
        2 * BLOCK_NODES - 1,
        2 * BLOCK_NODES,
        2 * BLOCK_NODES + 65,
    ];

    fn dense_bits(bits: &BlockBits) -> Vec<bool> {
        (0..bits.len()).map(|i| bits.contains(i)).collect()
    }

    #[test]
    fn bits_round_trip_at_every_corner() {
        for len in LENGTHS {
            let mut bits = BlockBits::new(len);
            assert_eq!(bits.len(), len);
            assert!(bits.is_empty(), "len {len}");
            for (k, &i) in corners(len).iter().enumerate() {
                assert!(!bits.contains(i), "len {len} bit {i}");
                assert!(bits.insert(i), "len {len} bit {i}");
                assert!(!bits.insert(i), "second insert is a no-op");
                assert!(bits.contains(i));
                assert_eq!(bits.count(), k + 1, "len {len} after bit {i}");
            }
            assert_eq!(bits.ones().collect::<Vec<_>>(), corners(len), "len {len}");
            assert!(!bits.contains(len), "one past the end reads clear");
            assert!(!bits.contains(len + BLOCK_NODES));
            for &i in &corners(len) {
                assert!(bits.remove(i), "len {len} bit {i}");
                assert!(!bits.remove(i));
            }
            assert!(bits.is_empty());
            assert_eq!(bits, BlockBits::new(len), "emptied equals never-filled");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inserting_past_the_end_panics() {
        BlockBits::new(BLOCK_NODES).insert(BLOCK_NODES);
    }

    #[test]
    fn bits_built_by_different_routes_are_equal() {
        for len in LENGTHS {
            let flags: Vec<bool> = (0..len).map(|i| i % 3 == 0 || i + 1 == len).collect();
            let from_flags = BlockBits::from_flags(&flags);
            let mut inserted = BlockBits::new(len);
            for i in (0..len).filter(|&i| flags[i]) {
                inserted.insert(i);
            }
            // Grown from a one-bit array, bit by bit across every boundary.
            let mut grown = BlockBits::new(0);
            for (i, &flag) in flags.iter().enumerate() {
                grown.grow(i + 1, flag);
            }
            // Packed from words that carry garbage past `len`.
            let mut words = vec![0u64; len.div_ceil(64)];
            for i in (0..len).filter(|&i| flags[i]) {
                words[i / 64] |= 1 << (i % 64);
            }
            if !len.is_multiple_of(64) {
                *words.last_mut().unwrap() |= !0 << (len % 64);
            }
            let from_words = BlockBits::from_words(len, &words);
            assert_eq!(dense_bits(&from_flags), flags, "len {len}");
            assert_eq!(from_flags, inserted, "len {len}");
            assert_eq!(from_flags, grown, "len {len}");
            assert_eq!(from_flags, from_words, "len {len}");
            let expected = flags.iter().filter(|&&f| f).count();
            assert_eq!(from_words.count(), expected);
            // Same bits, one more (clear) bit: a different array.
            let mut longer = from_flags.clone();
            longer.grow(len + 1, false);
            assert_ne!(from_flags, longer, "len {len}: length is part of equality");
        }
    }

    #[test]
    fn same_ones_ignores_the_length_but_not_a_bit() {
        for len in LENGTHS {
            let flags: Vec<bool> = (0..len).map(|i| i % 5 == 1 || i + 1 == len).collect();
            let bits = BlockBits::from_flags(&flags);
            let repacked = BlockBits::from_flags(&flags);
            assert!(
                bits.same_ones(&repacked),
                "len {len}: other blocks, same bits"
            );
            for longer in [len, len + 1, len + 64, len + BLOCK_NODES, 2 * len + 3] {
                let mut grown = bits.clone();
                grown.grow(longer, false);
                assert!(bits.same_ones(&grown), "len {len} grown to {longer}");
                assert!(grown.same_ones(&bits), "len {len} grown to {longer}");
                let mut filled = bits.clone();
                filled.grow(longer, true);
                assert_eq!(bits.same_ones(&filled), longer == len, "len {len}");
                assert_eq!(filled.same_ones(&bits), longer == len, "len {len}");
            }
            for bit in corners(len) {
                let mut flipped = bits.clone();
                if !flipped.insert(bit) {
                    flipped.remove(bit);
                }
                assert!(!bits.same_ones(&flipped), "len {len} bit {bit}");
                assert!(!flipped.same_ones(&bits), "len {len} bit {bit}");
            }
        }
    }

    #[test]
    fn bits_grow_by_zero_by_one_and_across_boundaries() {
        for fill in [false, true] {
            for from in [0, 1, BLOCK_NODES - 1, BLOCK_NODES, BLOCK_NODES + 7] {
                for by in [0, 1, 2, BLOCK_NODES - 1, BLOCK_NODES, 2 * BLOCK_NODES + 3] {
                    let mut bits = BlockBits::new(from);
                    if from > 0 {
                        bits.insert(from - 1);
                    }
                    let before = bits.clone();
                    bits.grow(from + by, fill);
                    assert_eq!(bits.len(), from + by);
                    for i in 0..from + by {
                        let expected = if i < from { i + 1 == from } else { fill };
                        assert_eq!(bits.contains(i), expected, "{from}+{by} {fill} bit {i}");
                    }
                    assert_eq!(
                        bits.count(),
                        usize::from(from > 0) + if fill { by } else { 0 }
                    );
                    // Only the old tail block may have been rewritten: when
                    // it had to get longer, or set bits landed in it.
                    let Some(tail) = before.blocks.len().checked_sub(1) else {
                        continue;
                    };
                    let resized = block_capacity(from + by, tail) != block_capacity(from, tail);
                    let filled = fill && by > 0 && from % BLOCK_NODES != 0;
                    for (i, (old, new)) in before.blocks.iter().zip(&bits.blocks).enumerate() {
                        assert_eq!(
                            Arc::ptr_eq(old, new),
                            !(i == tail && (resized || filled)),
                            "{from}+{by} {fill} block {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_blocks_are_one_allocation() {
        let len = 3 * BLOCK_NODES + 5;
        let zeros = BlockBits::new(len);
        assert!(zeros.blocks[..3]
            .iter()
            .all(|b| Arc::ptr_eq(b, zero_words())));
        assert_eq!(
            zeros.blocks[3].len(),
            1,
            "the tail block is as long as it must be"
        );
        let mut ones = BlockBits::new(0);
        ones.grow(len, true);
        assert!(ones.blocks[..3]
            .iter()
            .all(|b| Arc::ptr_eq(b, full_words())));
        assert!(!Arc::ptr_eq(&ones.blocks[3], full_words()), "partial tail");
        assert_eq!(ones.count(), len);
        // Packing dense words finds the same uniform blocks.
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        words[BLOCK_WORDS..2 * BLOCK_WORDS].fill(0);
        let packed = BlockBits::from_words(len, &words);
        assert!(Arc::ptr_eq(&packed.blocks[0], full_words()));
        assert!(Arc::ptr_eq(&packed.blocks[1], zero_words()));
        assert!(Arc::ptr_eq(&packed.blocks[2], full_words()));
        assert_eq!(packed.count(), len - BLOCK_NODES);
        assert_eq!(
            packed.sharing(&BlockBits::default()),
            BlockSharing {
                copied: 1,
                shared: 3
            }
        );
        // A write into a uniform block copies it for this array only.
        let mut written = zeros.clone();
        written.insert(BLOCK_NODES);
        assert!(Arc::ptr_eq(&zeros.blocks[1], zero_words()));
        assert!(!zeros.contains(BLOCK_NODES));
        assert_eq!(
            written.sharing(&zeros),
            BlockSharing {
                copied: 1,
                shared: 3
            }
        );
    }

    #[test]
    fn a_write_copies_exactly_its_block() {
        let len = 4 * BLOCK_NODES;
        let flags: Vec<bool> = (0..len).map(|i| i % 2 == 0).collect();
        let old = BlockBits::from_flags(&flags);
        for bit in [1, BLOCK_NODES - 1, BLOCK_NODES + 1, len - 1] {
            let mut new = old.clone();
            assert!(new.insert(bit));
            let block = bit / BLOCK_NODES;
            for i in 0..4 {
                assert_eq!(
                    Arc::ptr_eq(&old.blocks[i], &new.blocks[i]),
                    i != block,
                    "bit {bit} block {i}"
                );
            }
            assert!(!old.contains(bit), "the older array is untouched");
            assert_eq!(
                new.sharing(&old),
                BlockSharing {
                    copied: 1,
                    shared: 3
                }
            );
            // An unshared block is written in place: no second copy.
            let own = Arc::as_ptr(&new.blocks[block]);
            new.remove(bit);
            assert_eq!(Arc::as_ptr(&new.blocks[block]), own);
            assert_eq!(new, old, "equal by content again, not by pointer");
        }
    }
}
