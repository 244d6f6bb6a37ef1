//! The interned bounded-word index.
//!
//! Sessions score informativeness, cover negatives, select paths and build
//! validation prompts against "the distinct words of length `1..=bound`
//! spelled by each node's outgoing paths".  [`WordIndex`] materialises that
//! relation once per snapshot, in both directions:
//!
//! * a [`WordDict`] of the distinct words.  A word keeps its id for the life
//!   of the index lineage (a cold [`build`](WordIndex::build), which numbers
//!   its words in (length, label sequence) order, and every index
//!   [`inherit`](WordIndex::inherit)ed from it): a word a publish mints
//!   takes the next id and nothing is renumbered.  The dictionary also holds
//!   each word's rank in (length, label sequence) order, and its `(first
//!   label, suffix id) → id` lookup, built once and shared by every epoch
//!   that mints nothing (a minting publish copies it and adds its words);
//! * each node's word ids in rank order, handed out as a [`NodeWords`]
//!   (shared spellings + shared id list) — shortest word first, ties in
//!   label order, so the words within a smaller length are a prefix of it;
//! * per word, the nodes spelling it ([`WordIndex::spellers`]), which is
//!   what turns "a word became covered" into a walk over exactly the nodes
//!   whose score drops.  Each word owns its list, shared between epochs.
//!
//! The index is derived level by level over the CSR — the length-`k` words of
//! `v` are the label-prepends of the length-`k−1` words of its successors —
//! and never materialises a walk.  Per node it holds exactly the node's
//! bounded language: the words of every walk of length `1..=bound`, however
//! many walks there are (what an uncapped
//! `PathEnumerator::new(bound).with_max_paths(usize::MAX)` yields).
//!
//! An index holds one bound, the path bound of the sessions that read it;
//! there are no views at other bounds.  Across a publish
//! [`WordIndex::inherit`] re-derives only the nodes that can reach a changed
//! edge within the bound (and of those, only the words long enough to reach
//! it), and patches only the speller lists of the words one of those nodes
//! gained or lost: the old list plus the gained and lost nodes, merged by
//! the first read.  Every other node's id list and every other word's
//! speller list is shared with the old epoch, and node lists and speller
//! lists are held in blocks of 16 so an epoch copies only the blocks it
//! writes: an inherit costs what the publish changed ([`InheritCounts`]).
//!
//! One node's words at another length — a validation prompt at the zoom
//! radius — come from [`WordIndex::words_within`]: cut from the node's list
//! up to the bound, and past it derived by the same recurrence over that
//! node's neighbourhood alone.

use gps_graph::{CsrGraph, GraphDelta, LabelId, NodeId, Word};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Index;
use std::sync::{Arc, OnceLock};

/// Suffix id of a one-label word: the empty word, which is never an entry.
const EPSILON: u32 = u32::MAX;

/// `position` entry of a node whose words are carried over, not derived.
const CARRIED: u32 = u32::MAX;

/// The lookup key of the word `label · suffix`.
fn key(label: LabelId, suffix: u32) -> (u32, u32) {
    (label.raw(), suffix)
}

/// A multiplicative hash of one [`key`]: the lookups run once per (edge,
/// suffix) of a derivation, where SipHash would dominate.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        let product = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        product ^ (product >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 << 8) | u64::from(byte);
        }
    }

    fn write_u32(&mut self, half: u32) {
        self.0 = (self.0 << 32) | u64::from(half);
    }
}

type KeyMap = HashMap<(u32, u32), u32, BuildHasherDefault<KeyHasher>>;

/// Words per [`Spellings`] chunk.
const SPELLED: usize = 64;

/// The label sequences of a lineage's words, by id, in shared chunks of
/// [`SPELLED`] words.  Minting copies only the last chunk, so a version the
/// handle of a carried node keeps alive costs the chunk pointers and that
/// one chunk, not the dictionary.
#[derive(Debug, Clone, Default)]
struct Spellings {
    chunks: Vec<Arc<Spelled>>,
}

/// One chunk of [`Spellings`]: its words' labels back to back, and where
/// each word ends.
#[derive(Debug, Clone, Default)]
struct Spelled {
    ends: Vec<u32>,
    labels: Vec<LabelId>,
}

impl Spellings {
    fn word(&self, id: u32) -> &[LabelId] {
        let chunk = &self.chunks[id as usize / SPELLED];
        let at = id as usize % SPELLED;
        let start = if at == 0 { 0 } else { chunk.ends[at - 1] };
        &chunk.labels[start as usize..chunk.ends[at] as usize]
    }

    fn push(&mut self, word: impl Iterator<Item = LabelId>) {
        if (self.chunks.last()).is_none_or(|last| last.ends.len() == SPELLED) {
            self.chunks.push(Arc::default());
        }
        let last = Arc::make_mut(self.chunks.last_mut().expect("a chunk with room"));
        last.labels.extend(word);
        last.ends.push(last.labels.len() as u32);
    }
}

/// The number of labels of `word`, as a [`WordDict`] keeps it.
fn length_of(word: &[LabelId]) -> u8 {
    u8::try_from(word.len()).expect("words of at most 255 labels")
}

/// The distinct words of an index lineage.  Ids are dense and stable: a
/// word keeps its id in every dictionary extended from this one.
#[derive(Debug, Clone, Default)]
pub struct WordDict {
    spellings: Arc<Spellings>,
    /// Each word's number of labels: where a node's list changes length.
    lengths: Vec<u8>,
    /// Each word's position in (length, label sequence) order — the order
    /// of every node's list.
    rank: Vec<u32>,
    /// `(first label, suffix id)` → id, the suffix of a one-label word
    /// being [`EPSILON`].
    ids: KeyMap,
}

impl WordDict {
    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// Returns `true` when the dictionary holds no word.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// The label sequence of word `id`.
    pub fn word(&self, id: u32) -> &[LabelId] {
        self.spellings.word(id)
    }

    /// The id of `word`, when the dictionary holds it.
    pub fn id_of(&self, word: &[LabelId]) -> Option<u32> {
        if word.is_empty() {
            return None;
        }
        word.iter().rev().try_fold(EPSILON, |suffix, &label| {
            self.ids.get(&key(label, suffix)).copied()
        })
    }

    /// The ids of `ids` (a node's list) of words of at most `length`
    /// labels: a prefix.
    fn within<'a>(&self, ids: &'a [u32], length: usize) -> &'a [u32] {
        &ids[..ids.partition_point(|&id| usize::from(self.lengths[id as usize]) <= length)]
    }

    /// The ids of `ids` (a node's list) of words of exactly `length` labels.
    fn level<'a>(&self, ids: &'a [u32], length: usize) -> &'a [u32] {
        let ids = self.within(ids, length);
        &ids[ids.partition_point(|&id| usize::from(self.lengths[id as usize]) < length)..]
    }

    /// (length, label sequence) order of two words.
    fn cmp_words(&self, a: u32, b: u32) -> Ordering {
        let (a, b) = (self.word(a), self.word(b));
        a.len().cmp(&b.len()).then_with(|| a.cmp(b))
    }

    /// Appends `label · suffix` as the next id.
    fn push(&mut self, label: LabelId, suffix: u32) {
        let rest = match suffix {
            EPSILON => &[],
            suffix => self.word(suffix),
        };
        let word: Vec<LabelId> = std::iter::once(label).chain(rest.iter().copied()).collect();
        self.lengths.push(length_of(&word));
        Arc::make_mut(&mut self.spellings).push(word.into_iter());
        let id = self.rank.len() as u32;
        self.rank.push(id);
        self.ids.insert(key(label, suffix), id);
    }

    /// This dictionary with `minted` appended (ids from [`len`](Self::len)
    /// on, in order), the ranks of every word brought up to date.  Old words
    /// keep their ids and their relative order.
    fn extended(&self, minted: &[(LabelId, u32)]) -> Self {
        let kept = self.len();
        let mut dict = self.clone();
        dict.ids.reserve(minted.len());
        for &(label, suffix) in minted {
            dict.push(label, suffix);
        }
        // Old words by rank, and each new word's place among them.
        let mut order = vec![0u32; kept];
        for (id, &rank) in self.rank.iter().enumerate() {
            order[rank as usize] = id as u32;
        }
        let mut fresh: Vec<u32> = (kept as u32..dict.len() as u32).collect();
        fresh.sort_unstable_by(|&a, &b| dict.cmp_words(a, b));
        let mut rank = 0u32;
        let mut from = 0;
        for &id in &fresh {
            let to = order.partition_point(|&old| dict.cmp_words(old, id) == Ordering::Less);
            for &old in &order[from..to] {
                dict.rank[old as usize] = rank;
                rank += 1;
            }
            dict.rank[id as usize] = rank;
            rank += 1;
            from = to;
        }
        for &old in &order[from..] {
            dict.rank[old as usize] = rank;
            rank += 1;
        }
        dict
    }
}

/// One node's distinct bounded words: the shared spellings plus the node's
/// word ids.  Iterates shortest word first, ties in label order.
#[derive(Debug, Clone)]
pub struct NodeWords {
    spellings: Arc<Spellings>,
    ids: Arc<[u32]>,
}

impl NodeWords {
    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when the node spells nothing within the bound.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The words, by (length, label sequence).
    pub fn iter(&self) -> NodeWordsIter<'_> {
        NodeWordsIter {
            spellings: &self.spellings,
            ids: self.ids.iter(),
        }
    }

    /// The word ids, in the order [`iter`](Self::iter) yields their words
    /// ([`WordDict::word`] resolves one).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

impl<'a> IntoIterator for &'a NodeWords {
    type Item = &'a [LabelId];
    type IntoIter = NodeWordsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`NodeWords`].
#[derive(Debug, Clone)]
pub struct NodeWordsIter<'a> {
    spellings: &'a Spellings,
    ids: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for NodeWordsIter<'a> {
    type Item = &'a [LabelId];

    fn next(&mut self) -> Option<Self::Item> {
        self.ids.next().map(|&id| self.spellings.word(id))
    }
}

/// What one [`WordIndex::inherit`] did, counted: the work a publish's word
/// inheritance costs is proportional to these, not to the index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InheritCounts {
    /// Nodes whose words were re-derived.
    pub rederived_nodes: usize,
    /// Words the dictionary gained.
    pub minted_words: usize,
    /// `(node, gained)` entries written into the speller patches of the
    /// words whose spellers changed (see [`WordIndex::inherit`]), combined
    /// with the unmerged changes of earlier patches.
    pub postings_written: usize,
}

/// One word's spellers: a sorted list, or an earlier epoch's list with the
/// nodes that gained or lost the word since, merged into a list by the
/// first read.
#[derive(Debug)]
enum Spellers {
    Listed(Run),
    Patched(Arc<Patch>),
}

/// A speller list: a run of a shared array, ascending.  A cold build lays
/// every word's list out in one array, as a transpose; a merged patch has
/// an array of its own.
#[derive(Debug, Clone, Default)]
struct Run {
    array: Arc<Vec<NodeId>>,
    start: u32,
    end: u32,
}

impl Run {
    fn new(array: &Arc<Vec<NodeId>>, start: usize, end: usize) -> Self {
        let at = |offset: usize| u32::try_from(offset).expect("fewer than 2^32 (node, word) pairs");
        Self {
            array: Arc::clone(array),
            start: at(start),
            end: at(end),
        }
    }

    fn nodes(&self) -> &[NodeId] {
        &self.array[self.start as usize..self.end as usize]
    }
}

/// A speller list and the changes to apply to it.
#[derive(Debug)]
struct Patch {
    base: Run,
    /// `(node, gained)`, nodes ascending; a lost node is in `base`, a gained
    /// one is not.
    changes: Vec<(NodeId, bool)>,
    merged: OnceLock<Run>,
}

/// A clone of a patch already merged is its merged list: a block of
/// [`Blocks`] clones its items only when a write copies it, so the base
/// lists of read patches are let go block by block.
impl Clone for Spellers {
    fn clone(&self) -> Self {
        match self {
            Spellers::Patched(patch) => match patch.merged.get() {
                Some(merged) => Spellers::Listed(merged.clone()),
                None => Spellers::Patched(Arc::clone(patch)),
            },
            Spellers::Listed(list) => Spellers::Listed(list.clone()),
        }
    }
}

impl Spellers {
    /// The nodes, ascending.
    fn nodes(&self) -> &[NodeId] {
        match self {
            Spellers::Listed(list) => list.nodes(),
            Spellers::Patched(patch) => patch
                .merged
                .get_or_init(|| {
                    let merged = Arc::new(patched(patch.base.nodes(), &patch.changes));
                    Run::new(&merged, 0, merged.len())
                })
                .nodes(),
        }
    }

    /// These spellers after `changes` (nodes ascending): a patch on the
    /// newest list, its changes combined with any still unmerged ones.
    fn then(&self, changes: impl Iterator<Item = (NodeId, bool)>) -> Patch {
        let (base, earlier): (&Run, &[(NodeId, bool)]) = match self {
            Spellers::Listed(list) => (list, &[]),
            Spellers::Patched(patch) => match patch.merged.get() {
                Some(merged) => (merged, &[]),
                None => (&patch.base, &patch.changes),
            },
        };
        Patch {
            base: base.clone(),
            changes: combined(earlier, changes),
            merged: OnceLock::new(),
        }
    }
}

/// Items per [`Blocks`] block.  A publish re-derives a few dozen nodes and
/// patches the spellers of a few dozen words, clustered in id: at 2,000
/// nodes, 16-item blocks copy about a sixth of the handles a flat copy
/// would.
const BLOCK: usize = 16;

/// A vector kept in shared blocks of [`BLOCK`] items: a clone shares every
/// block, and a write copies only the block it lands in.
#[derive(Debug, Clone)]
struct Blocks<T> {
    blocks: Vec<Arc<[T]>>,
}

impl<T: Clone> Blocks<T> {
    fn len(&self) -> usize {
        self.blocks
            .last()
            .map_or(0, |last| (self.blocks.len() - 1) * BLOCK + last.len())
    }

    fn get(&self, at: usize) -> Option<&T> {
        self.blocks.get(at / BLOCK)?.get(at % BLOCK)
    }

    fn set(&mut self, at: usize, item: T) {
        Arc::make_mut(&mut self.blocks[at / BLOCK])[at % BLOCK] = item;
    }

    fn push(&mut self, item: T) {
        match self.blocks.last_mut() {
            Some(last) if last.len() < BLOCK => {
                *last = last.iter().cloned().chain([item]).collect();
            }
            _ => self.blocks.push(Arc::from([item])),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().flat_map(|block| block.iter())
    }
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Self { blocks: Vec::new() }
    }
}

impl<T> FromIterator<T> for Blocks<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut items = items.into_iter().peekable();
        let mut blocks = Vec::new();
        while items.peek().is_some() {
            blocks.push(items.by_ref().take(BLOCK).collect());
        }
        Self { blocks }
    }
}

impl<T> Index<usize> for Blocks<T> {
    type Output = T;

    fn index(&self, at: usize) -> &T {
        &self.blocks[at / BLOCK][at % BLOCK]
    }
}

/// Every node's distinct bounded words and, per word, the nodes spelling it —
/// see the [module docs](self).  Indexing by node position yields that node's
/// [`NodeWords`].
#[derive(Debug)]
pub struct WordIndex {
    bound: usize,
    dict: Arc<WordDict>,
    nodes: Blocks<NodeWords>,
    /// Per word id, the nodes spelling it.
    postings: Blocks<Spellers>,
    pairs: usize,
    /// Zero for a cold build.
    inherited: InheritCounts,
}

impl Index<usize> for WordIndex {
    type Output = NodeWords;

    fn index(&self, node: usize) -> &NodeWords {
        &self.nodes[node]
    }
}

impl WordIndex {
    /// Derives the index of `csr` for words of length `1..=bound`.  Ids are
    /// numbered in (length, label sequence) order.
    pub fn build(csr: &CsrGraph, bound: usize) -> Self {
        let blank = Self {
            bound,
            dict: Arc::default(),
            nodes: Blocks::default(),
            postings: Blocks::default(),
            pairs: 0,
            inherited: InheritCounts::default(),
        };
        let n = csr.node_count();
        let all: Vec<u32> = (0..n as u32).collect();
        let position = all.clone();
        let mut interner = Interner::over(&blank.dict);
        let levels = blank.derive_levels(csr, &all, &vec![0; n], &position, &mut interner);
        let (dict, remap) = numbered(&interner.minted);
        drop(interner);
        let dict = Arc::new(dict);
        let no_ids: Arc<[u32]> = Arc::from(Vec::new());
        let mut pairs = 0;
        let nodes: Vec<NodeWords> = (0..n)
            .map(|at| {
                let mut list: Vec<u32> = levels
                    .iter()
                    .flat_map(|level| level.list(at))
                    .map(|&id| remap[id as usize])
                    .collect();
                list.sort_unstable();
                pairs += list.len();
                NodeWords {
                    spellings: Arc::clone(&dict.spellings),
                    ids: if list.is_empty() {
                        Arc::clone(&no_ids)
                    } else {
                        list.into()
                    },
                }
            })
            .collect();
        drop(levels);
        // The blocks are allocated after every list, side by side: a pass
        // over every node's handle reads them as one stretch of memory.
        let nodes: Blocks<NodeWords> = nodes.into_iter().collect();
        let postings = transpose(dict.len(), &nodes);
        Self {
            bound,
            dict,
            nodes,
            postings,
            pairs,
            inherited: InheritCounts::default(),
        }
    }

    /// The index of `new`, the snapshot `delta` turned `old` into, given this
    /// index of `old`.
    ///
    /// A node's bounded words can only change if one of its bounded
    /// out-paths, in either graph, traverses a changed edge — iff it reaches
    /// a changed edge's source in fewer than `bound` steps, and then only
    /// its words longer than that many steps.  Those nodes' longer words are
    /// re-derived on `new`.  Each word some node gained or lost gets a patch:
    /// its speller list here plus those `(node, gained)` changes, merged
    /// into a list by the first [`spellers`](Self::spellers) read of it — a
    /// read that walks the list anyway.  Every other node shares its id
    /// list, and every other word its spellers, with this index; every id of
    /// this index names the same word in the result.  The result equals a
    /// cold [`build`](Self::build) word for word and speller for speller
    /// (the dictionary may keep words no node spells any more, with no
    /// spellers).
    pub fn inherit(&self, old: &CsrGraph, new: &CsrGraph, delta: &GraphDelta) -> Self {
        let n = new.node_count();
        let (derived, distance): (Vec<u32>, Vec<usize>) =
            affected_nodes(old, new, delta, self.bound)
                .into_iter()
                .unzip();
        let mut position = vec![CARRIED; n];
        for (at, &node) in derived.iter().enumerate() {
            position[node as usize] = at as u32;
        }
        let mut interner = Interner::over(&self.dict);
        let levels = self.derive_levels(new, &derived, &distance, &position, &mut interner);
        let minted_words = interner.minted.len();
        let dict = if minted_words == 0 {
            Arc::clone(&self.dict)
        } else {
            Arc::new(self.dict.extended(&interner.minted))
        };
        drop(interner);

        // Carried nodes keep their handles, shared: an older dictionary's
        // spellings name every id they hold.  Derived nodes' lists are
        // rebuilt in rank order, and each one's gained and lost words become
        // `(word, node, gained)` changes, nodes ascending per word.
        let no_ids: Arc<[u32]> = Arc::from(Vec::new());
        let handle = |ids: Arc<[u32]>| NodeWords {
            spellings: Arc::clone(&dict.spellings),
            ids,
        };
        let mut nodes = self.nodes.clone();
        while nodes.len() < n {
            nodes.push(handle(Arc::clone(&no_ids)));
        }
        let mut changes: Vec<(u32, NodeId, bool)> = Vec::new();
        for (at, &node) in derived.iter().enumerate() {
            let before: &[u32] = (self.nodes.get(node as usize)).map_or(&[], |words| &words.ids);
            // Words too short to reach a changed edge keep their places; the
            // derived ones are sorted by (rank, id), packed in one key.
            let (kept, before) = before.split_at(self.dict.within(before, distance[at]).len());
            let mut keyed: Vec<u64> = (levels[distance[at]..].iter())
                .flat_map(|level| level.list(at))
                .map(|&id| (u64::from(dict.rank[id as usize]) << 32) | u64::from(id))
                .collect();
            keyed.sort_unstable();
            let fresh: Vec<u32> = keyed.iter().map(|&key| key as u32).collect();
            let unchanged = changes.len();
            diff(&dict, before, &fresh, NodeId::new(node), &mut changes);
            if changes.len() > unchanged {
                let list = kept.iter().chain(&fresh).copied().collect();
                nodes.set(node as usize, handle(list));
            }
        }
        drop(levels);

        // Only the words with a change get a new patch.
        changes.sort_by_key(|&(word, _, _)| word);
        let mut postings = self.postings.clone();
        let none = Spellers::Listed(Run::default());
        while postings.len() < dict.len() {
            postings.push(none.clone());
        }
        let mut pairs = self.pairs;
        let mut postings_written = 0;
        for group in changes.chunk_by(|a, b| a.0 == b.0) {
            let word = group[0].0 as usize;
            let gained = group.iter().filter(|change| change.2).count();
            pairs = pairs + gained - (group.len() - gained);
            let patch = postings[word].then(group.iter().map(|&(_, node, gained)| (node, gained)));
            postings_written += patch.changes.len();
            postings.set(word, Spellers::Patched(Arc::new(patch)));
        }
        Self {
            bound: self.bound,
            dict,
            nodes,
            postings,
            pairs,
            inherited: InheritCounts {
                rederived_nodes: derived.len(),
                minted_words,
                postings_written,
            },
        }
    }

    /// What the [`inherit`](Self::inherit) that produced this index did;
    /// zero for a cold build.
    pub fn inherit_counts(&self) -> InheritCounts {
        self.inherited
    }

    /// `node`'s distinct words of length `1..=length`, by (length, label
    /// sequence): what an index derived at bound `length` lists for the
    /// node, without deriving one.  `csr` is the snapshot this index was
    /// built over.
    ///
    /// Up to this index's bound, the node's own id list is cut where longer
    /// words start (lists are ordered by length).  Beyond it, the longer
    /// words come from the same level recurrence as [`build`](Self::build),
    /// run over the node's `length − bound − 1`-hop out-neighbourhood only,
    /// with the length-`bound` words of its rim read off the index.
    pub fn words_within(&self, csr: &CsrGraph, node: NodeId, length: usize) -> Vec<Word> {
        let mut words: Vec<Word> = (self
            .dict
            .within(&self.nodes[node.index()].ids, length)
            .iter())
        .map(|&id| self.dict.word(id).to_vec())
        .collect();
        if length <= self.bound {
            return words;
        }
        // Every node within `length − bound` hops, with its distance: a
        // length-`k` word of `node` steps through nodes within `length − k`
        // hops and ends in a length-`bound` word of a node one hop further.
        let mut distance: HashMap<NodeId, usize> = HashMap::from([(node, 0)]);
        let mut ring = vec![node];
        for hop in 1..=length - self.bound {
            let mut next = Vec::new();
            for &from in &ring {
                for entry in csr.out(from) {
                    distance.entry(entry.node).or_insert_with(|| {
                        next.push(entry.node);
                        hop
                    });
                }
            }
            ring = next;
        }
        // The level recurrence from the index's longest level up: `below`
        // holds each node's sorted words of the previous length.
        let mut below: HashMap<NodeId, Vec<Word>> = (distance.keys())
            .map(|&u| {
                let words = match self.bound {
                    0 => vec![Word::new()],
                    bound => (self.dict.level(&self.nodes[u.index()].ids, bound).iter())
                        .map(|&id| self.dict.word(id).to_vec())
                        .collect(),
                };
                (u, words)
            })
            .collect();
        for k in self.bound + 1..=length {
            below = (distance.iter())
                .filter(|&(_, &hops)| hops <= length - k)
                .map(|(&u, _)| {
                    let mut spelled: Vec<Word> = Vec::new();
                    for entry in csr.out(u) {
                        for suffix in &below[&entry.node] {
                            let mut word = Vec::with_capacity(k);
                            word.push(entry.label);
                            word.extend_from_slice(suffix);
                            spelled.push(word);
                        }
                    }
                    spelled.sort_unstable();
                    spelled.dedup();
                    (u, spelled)
                })
                .collect();
            words.extend_from_slice(&below[&node]);
        }
        words
    }

    /// The maximum word length covered.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for the index of an empty graph.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 0
    }

    /// Every node's words, in node order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeWords> {
        self.nodes.iter()
    }

    /// The dictionary of distinct words.
    pub fn dict(&self) -> &WordDict {
        &self.dict
    }

    /// Number of (node, word) pairs — the size of the id lists, and of the
    /// speller lists.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// The nodes spelling `word`, ascending; empty when no node does or the
    /// word is longer than the bound.
    pub fn spellers(&self, word: &[LabelId]) -> &[NodeId] {
        match self.dict.id_of(word) {
            Some(id) => self.postings[id as usize].nodes(),
            None => &[],
        }
    }

    /// The recurrence: for each derived node and each length `k`, the
    /// (deduplicated, unsorted) ids of `label · suffix` over its out-edges
    /// `(label, u)` and the length-`k−1` words `suffix` of `u` — read from
    /// the previous level when `u` is derived too, from `self` otherwise.
    /// A node `distance` steps from a changed edge's source keeps its words
    /// of up to `distance` labels: no walk that short reaches a changed edge.
    fn derive_levels(
        &self,
        csr: &CsrGraph,
        derived: &[u32],
        distance: &[usize],
        position: &[u32],
        interner: &mut Interner,
    ) -> Vec<Level> {
        let mut levels: Vec<Level> = Vec::with_capacity(self.bound);
        // Per word id, one past the position of the last node it was pushed
        // for.  A word is only ever produced at its own length, so marks of
        // earlier levels never collide.
        let mut pushed_for: Vec<u32> = vec![0; self.dict.len()];
        for length in 1..=self.bound {
            let mut level = Level {
                offsets: vec![0],
                ids: Vec::new(),
            };
            for (at, &node) in derived.iter().enumerate() {
                if length <= distance[at] {
                    let kept = self
                        .nodes
                        .get(node as usize)
                        .map_or(&[][..], |words| self.dict.level(&words.ids, length));
                    level.ids.extend_from_slice(kept);
                    level.offsets.push(level.ids.len());
                    continue;
                }
                let mark = at as u32 + 1;
                for entry in csr.out(NodeId::new(node)) {
                    let target = entry.node.index();
                    let suffixes: &[u32] = if length == 1 {
                        &[EPSILON]
                    } else if position[target] != CARRIED {
                        levels[length - 2].list(position[target] as usize)
                    } else {
                        self.nodes
                            .get(target)
                            .map_or(&[], |words| self.dict.level(&words.ids, length - 1))
                    };
                    for &suffix in suffixes {
                        let id = interner.intern(entry.label, suffix);
                        if id as usize >= pushed_for.len() {
                            pushed_for.resize(id as usize + 1, 0);
                        }
                        if pushed_for[id as usize] != mark {
                            pushed_for[id as usize] = mark;
                            level.ids.push(id);
                        }
                    }
                }
                level.offsets.push(level.ids.len());
            }
            levels.push(level);
        }
        levels
    }
}

/// The ids of one word length for every derived node, flat.
struct Level {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl Level {
    fn list(&self, at: usize) -> &[u32] {
        &self.ids[self.offsets[at]..self.offsets[at + 1]]
    }
}

/// Interning while a derivation runs: the dictionary's words keep their
/// ids, new ones are minted after them in discovery order as `(first label,
/// suffix id)`.
struct Interner<'a> {
    dict: &'a WordDict,
    fresh: KeyMap,
    minted: Vec<(LabelId, u32)>,
}

impl<'a> Interner<'a> {
    fn over(dict: &'a WordDict) -> Self {
        Self {
            dict,
            fresh: KeyMap::default(),
            minted: Vec::new(),
        }
    }

    /// The id of `label · suffix`, minted when the word is new.
    fn intern(&mut self, label: LabelId, suffix: u32) -> u32 {
        let key = key(label, suffix);
        if let Some(&id) = self.dict.ids.get(&key) {
            return id;
        }
        let next = (self.dict.len() + self.minted.len()) as u32;
        *self.fresh.entry(key).or_insert_with(|| {
            self.minted.push((label, suffix));
            next
        })
    }
}

/// The dictionary of `words` — `(first label, suffix id)` in discovery
/// order, ids from 0 — numbered in (length, label sequence) order, with the
/// map from discovery ids to those ids.
fn numbered(words: &[(LabelId, u32)]) -> (WordDict, Vec<u32>) {
    // (length, label sequence) order is (length, first label, the suffix's
    // place among the words one label shorter), so number length by length.
    // A suffix is always found before the words extending it.
    let mut by_length: Vec<Vec<u32>> = Vec::new();
    let mut length = vec![0usize; words.len()];
    for (id, &(_, suffix)) in words.iter().enumerate() {
        length[id] = if suffix == EPSILON {
            1
        } else {
            length[suffix as usize] + 1
        };
        if by_length.len() < length[id] {
            by_length.resize_with(length[id], Vec::new);
        }
        by_length[length[id] - 1].push(id as u32);
    }
    let mut remap = vec![0u32; words.len()];
    let mut next = 0;
    for level in &mut by_length {
        level.sort_unstable_by_key(|&id| {
            let (label, suffix) = words[id as usize];
            let suffix = if suffix == EPSILON {
                0
            } else {
                remap[suffix as usize]
            };
            (label, suffix)
        });
        for &id in level.iter() {
            remap[id as usize] = next;
            next += 1;
        }
    }
    let mut dict = WordDict::default();
    dict.ids.reserve(words.len());
    for &id in by_length.iter().flatten() {
        let (label, suffix) = words[id as usize];
        let suffix = match suffix {
            EPSILON => EPSILON,
            suffix => remap[suffix as usize],
        };
        dict.push(label, suffix);
    }
    (dict, remap)
}

/// Records the words `node` gained (in `after`, not in `before`) and lost
/// (the reverse) as `(word, node, gained)`.  Both lists are in `dict`'s rank
/// order.
fn diff(
    dict: &WordDict,
    before: &[u32],
    after: &[u32],
    node: NodeId,
    changes: &mut Vec<(u32, NodeId, bool)>,
) {
    let rank = |id: u32| dict.rank[id as usize];
    let (mut old, mut new) = (before.iter().peekable(), after.iter().peekable());
    loop {
        match (old.peek(), new.peek()) {
            (Some(&&a), Some(&&b)) => match rank(a).cmp(&rank(b)) {
                Ordering::Less => {
                    changes.push((a, node, false));
                    old.next();
                }
                Ordering::Greater => {
                    changes.push((b, node, true));
                    new.next();
                }
                Ordering::Equal => {
                    old.next();
                    new.next();
                }
            },
            (Some(&&a), None) => {
                changes.push((a, node, false));
                old.next();
            }
            (None, Some(&&b)) => {
                changes.push((b, node, true));
                new.next();
            }
            (None, None) => break,
        }
    }
}

/// `spellers` without the nodes `changes` lost and with those it gained;
/// `changes` are one word's, nodes ascending.
fn patched(spellers: &[NodeId], changes: &[(NodeId, bool)]) -> Vec<NodeId> {
    let gained = changes.iter().filter(|change| change.1).count();
    let lost = changes.len() - gained;
    let mut list = Vec::with_capacity(spellers.len() + gained - lost);
    let mut from = 0;
    for &(node, gained) in changes {
        let to = from + spellers[from..].partition_point(|&speller| speller < node);
        list.extend_from_slice(&spellers[from..to]);
        from = if gained {
            list.push(node);
            to
        } else {
            debug_assert_eq!(spellers[to], node, "a lost word was spelled");
            to + 1
        };
    }
    list.extend_from_slice(&spellers[from..]);
    list
}

/// `earlier` changes of one word's spellers followed by `later` ones, both
/// nodes ascending: a node that gained the word and then lost it (or the
/// reverse) is as it was.
fn combined(
    earlier: &[(NodeId, bool)],
    later: impl Iterator<Item = (NodeId, bool)>,
) -> Vec<(NodeId, bool)> {
    let mut changes = Vec::with_capacity(earlier.len());
    let mut earlier = earlier.iter().copied().peekable();
    for (node, gained) in later {
        while let Some(change) = earlier.next_if(|change| change.0 < node) {
            changes.push(change);
        }
        if earlier.next_if(|change| change.0 == node).is_none() {
            changes.push((node, gained));
        }
    }
    changes.extend(earlier);
    changes
}

/// The nodes in `nodes`' lists of each of `words` ids, ascending: runs of
/// one array.
fn transpose(words: usize, nodes: &Blocks<NodeWords>) -> Blocks<Spellers> {
    let mut offsets = vec![0usize; words + 1];
    for list in nodes.iter() {
        for &id in list.ids.iter() {
            offsets[id as usize + 1] += 1;
        }
    }
    for id in 0..words {
        offsets[id + 1] += offsets[id];
    }
    let mut next = offsets.clone();
    let mut spellers = vec![NodeId::new(0); offsets[words]];
    for (node, list) in nodes.iter().enumerate() {
        for &id in list.ids.iter() {
            spellers[next[id as usize]] = NodeId::from(node);
            next[id as usize] += 1;
        }
    }
    let array = Arc::new(spellers);
    (0..words)
        .map(|id| Spellers::Listed(Run::new(&array, offsets[id], offsets[id + 1])))
        .collect()
}

/// The nodes reaching a changed edge's source in fewer than `bound` steps,
/// over the union of both snapshots' edges, ascending, each with its
/// fewest steps.
fn affected_nodes(
    old: &CsrGraph,
    new: &CsrGraph,
    delta: &GraphDelta,
    bound: usize,
) -> Vec<(u32, usize)> {
    let (old_n, new_n) = (old.node_count(), new.node_count());
    let mut seen = vec![false; new_n];
    let mut frontier: Vec<NodeId> = delta
        .changed_sources()
        .into_iter()
        .filter(|source| source.index() < new_n)
        .collect();
    for source in &frontier {
        seen[source.index()] = true;
    }
    let mut affected: Vec<(u32, usize)> = frontier.iter().map(|node| (node.raw(), 0)).collect();
    for steps in 1..bound {
        let mut next = Vec::new();
        for &node in &frontier {
            let before: &[_] = if node.index() < old_n {
                old.inc(node)
            } else {
                &[]
            };
            for entry in before.iter().chain(new.inc(node)) {
                let pred = entry.node;
                if pred.index() < new_n && !seen[pred.index()] {
                    seen[pred.index()] = true;
                    next.push(pred);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        affected.extend(next.iter().map(|node| (node.raw(), steps)));
        frontier = next;
    }
    affected.sort_unstable();
    affected
}
