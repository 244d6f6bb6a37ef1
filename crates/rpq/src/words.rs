//! The interned bounded-word index.
//!
//! Sessions score informativeness, cover negatives, select paths and build
//! validation prompts against "the distinct words of length `1..=bound`
//! spelled by each node's outgoing paths".  [`WordIndex`] materialises that
//! relation once per snapshot, in both directions:
//!
//! * a [`WordDict`] of the distinct words, with ids ordered by (length, label
//!   sequence) — so a per-node list reads shortest-first, and the words
//!   within a smaller length are a prefix of it;
//! * each node's sorted word ids, handed out as a [`NodeWords`] (shared
//!   dictionary + shared id list);
//! * the transpose, word id → the nodes spelling it ([`WordIndex::spellers`]),
//!   which is what turns "a word became covered" into a walk over exactly the
//!   nodes whose score drops.
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
//! edge within the bound; every other node shares its id list with the old
//! epoch.
//!
//! One node's words at another length — a validation prompt at the zoom
//! radius — come from [`WordIndex::words_within`]: cut from the node's list
//! up to the bound, and past it derived by the same recurrence over that
//! node's neighbourhood alone.

use gps_graph::{CsrGraph, GraphDelta, LabelId, NodeId, Word};
use std::collections::HashMap;
use std::ops::Index;
use std::sync::Arc;

/// Suffix id of a one-label word: the empty word, which is never an entry.
const EPSILON: u32 = u32::MAX;

/// `position` entry of a node whose words are carried over, not derived.
const CARRIED: u32 = u32::MAX;

/// The distinct words of an index.  Ids are dense and ordered by (length,
/// label sequence).
#[derive(Debug)]
pub struct WordDict {
    /// `level_start[k]` is the id of the first word of length `k + 1`; the
    /// last entry (index `bound`) is the word count.
    level_start: Vec<u32>,
    /// The words of length `k + 1`, back to back from `label_start[k]`.
    labels: Vec<LabelId>,
    label_start: Vec<usize>,
    /// The id of each word minus its first label ([`EPSILON`] at length 1).
    suffix: Vec<u32>,
}

impl WordDict {
    fn empty(bound: usize) -> Self {
        Self {
            level_start: vec![0; bound + 1],
            labels: Vec::new(),
            label_start: vec![0; bound + 1],
            suffix: Vec::new(),
        }
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.suffix.len()
    }

    /// Returns `true` when the dictionary holds no word.
    pub fn is_empty(&self) -> bool {
        self.suffix.is_empty()
    }

    /// The label sequence of word `id`.
    pub fn word(&self, id: u32) -> &[LabelId] {
        let level = self.level_start[1..]
            .iter()
            .position(|&end| id < end)
            .expect("word id within the dictionary");
        let length = level + 1;
        let at = self.label_start[level] + (id - self.level_start[level]) as usize * length;
        &self.labels[at..at + length]
    }

    /// The id of `word`, when some node spells it.
    pub fn id_of(&self, word: &[LabelId]) -> Option<u32> {
        let length = word.len();
        if length == 0 || length >= self.level_start.len() {
            return None;
        }
        let first = self.level_start[length - 1];
        let count = (self.level_start[length] - first) as usize;
        let block = &self.labels[self.label_start[length - 1]..][..count * length];
        let (mut lo, mut hi) = (0, count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match block[mid * length..][..length].cmp(word) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(first + mid as u32),
            }
        }
        None
    }

    /// How many ids belong to words of length at most `bound`.
    fn ids_within(&self, bound: usize) -> u32 {
        self.level_start[bound.min(self.level_start.len() - 1)]
    }
}

/// One node's distinct bounded words: the shared dictionary plus the node's
/// sorted ids.  Iterates shortest word first, ties in label order.
#[derive(Debug, Clone)]
pub struct NodeWords {
    dict: Arc<WordDict>,
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
            dict: &self.dict,
            ids: self.ids.iter(),
        }
    }

    /// The ids of the words of exactly `length` labels.
    fn level(&self, length: usize) -> &[u32] {
        let Some(&end) = self.dict.level_start.get(length) else {
            return &[];
        };
        let start = self.dict.level_start[length - 1];
        let ids = &self.ids;
        let from = ids.partition_point(|&id| id < start);
        &ids[from..from + ids[from..].partition_point(|&id| id < end)]
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
    dict: &'a WordDict,
    ids: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for NodeWordsIter<'a> {
    type Item = &'a [LabelId];

    fn next(&mut self) -> Option<Self::Item> {
        self.ids.next().map(|&id| self.dict.word(id))
    }
}

/// Word id → the nodes spelling it, ascending.
#[derive(Debug, Default)]
struct Postings {
    offsets: Vec<usize>,
    nodes: Vec<NodeId>,
}

/// Every node's distinct bounded words and, per word, the nodes spelling it —
/// see the [module docs](self).  Indexing by node position yields that node's
/// [`NodeWords`].
#[derive(Debug)]
pub struct WordIndex {
    bound: usize,
    dict: Arc<WordDict>,
    nodes: Vec<NodeWords>,
    postings: Arc<Postings>,
}

impl Index<usize> for WordIndex {
    type Output = NodeWords;

    fn index(&self, node: usize) -> &NodeWords {
        &self.nodes[node]
    }
}

impl WordIndex {
    /// Derives the index of `csr` for words of length `1..=bound`.
    pub fn build(csr: &CsrGraph, bound: usize) -> Self {
        let blank = Self {
            bound,
            dict: Arc::new(WordDict::empty(bound)),
            nodes: Vec::new(),
            postings: Arc::default(),
        };
        let all: Vec<u32> = (0..csr.node_count() as u32).collect();
        blank.rederive(csr, &all)
    }

    /// The index of `new`, the snapshot `delta` turned `old` into, given this
    /// index of `old`.
    ///
    /// A node's bounded words can only change if one of its bounded
    /// out-paths, in either graph, traverses a changed edge — iff it reaches
    /// a changed edge's source in fewer than `bound` steps.  Those nodes are
    /// re-derived on `new`; every other node shares its id list with this
    /// index, and the result equals a cold [`build`](Self::build) word for
    /// word (the dictionary may keep words no node spells any more).
    pub fn inherit(&self, old: &CsrGraph, new: &CsrGraph, delta: &GraphDelta) -> Self {
        self.rederive(new, &affected_nodes(old, new, delta, self.bound))
    }

    /// `node`'s distinct words of length `1..=length`, by (length, label
    /// sequence): what an index derived at bound `length` lists for the
    /// node, without deriving one.  `csr` is the snapshot this index was
    /// built over.
    ///
    /// Up to this index's bound, the node's own id list is cut where longer
    /// words start (ids are ordered by length).  Beyond it, the longer words
    /// come from the same level recurrence as [`build`](Self::build), run
    /// over the node's `length − bound − 1`-hop out-neighbourhood only, with
    /// the length-`bound` words of its rim read off the index.
    pub fn words_within(&self, csr: &CsrGraph, node: NodeId, length: usize) -> Vec<Word> {
        let ids = &self.nodes[node.index()].ids;
        let end = self.dict.ids_within(length);
        let mut words: Vec<Word> = ids[..ids.partition_point(|&id| id < end)]
            .iter()
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
                    bound => (self.nodes[u.index()].level(bound).iter())
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
        self.nodes.is_empty()
    }

    /// Every node's words, in node order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeWords> {
        self.nodes.iter()
    }

    /// The dictionary of distinct words.
    pub fn dict(&self) -> &WordDict {
        &self.dict
    }

    /// Number of (node, word) pairs — the size of the id lists, and of the
    /// postings.
    pub fn pairs(&self) -> usize {
        self.postings.nodes.len()
    }

    /// The nodes spelling `word`, ascending; empty when no node does or the
    /// word is longer than the bound.
    pub fn spellers(&self, word: &[LabelId]) -> &[NodeId] {
        match self.dict.id_of(word) {
            Some(id) => {
                let id = id as usize;
                &self.postings.nodes[self.postings.offsets[id]..self.postings.offsets[id + 1]]
            }
            None => &[],
        }
    }

    /// Rebuilds the lists of the `derived` nodes (ascending) on `csr` and
    /// carries every other node's list over from `self`.
    fn rederive(&self, csr: &CsrGraph, derived: &[u32]) -> Self {
        let n = csr.node_count();
        let no_ids: Arc<[u32]> = Arc::from(Vec::new());
        if derived.is_empty() {
            // Nothing can have changed; nodes the delta added spell nothing.
            let mut nodes = self.nodes.clone();
            nodes.resize(
                n,
                NodeWords {
                    dict: Arc::clone(&self.dict),
                    ids: no_ids,
                },
            );
            return Self {
                bound: self.bound,
                dict: Arc::clone(&self.dict),
                nodes,
                postings: Arc::clone(&self.postings),
            };
        }
        let mut position = vec![CARRIED; n];
        for (at, &node) in derived.iter().enumerate() {
            position[node as usize] = at as u32;
        }
        let mut interner = Interner::seeded(&self.dict);
        let levels = self.derive_levels(csr, derived, &position, &mut interner);
        let (dict, remap) = interner.finish(&self.dict, self.bound);
        let nodes: Vec<NodeWords> = (0..n)
            .map(|node| {
                let ids: Arc<[u32]> = match position[node] {
                    CARRIED => match (self.nodes.get(node), &remap) {
                        (None, _) => Arc::clone(&no_ids),
                        (Some(old), None) => Arc::clone(&old.ids),
                        // New words shifted the numbering: old ids map
                        // monotonically, so the list stays sorted.
                        (Some(old), Some(remap)) => {
                            old.ids.iter().map(|&id| remap[id as usize]).collect()
                        }
                    },
                    at => {
                        let mut list: Vec<u32> = levels
                            .iter()
                            .flat_map(|level| level.list(at as usize))
                            .copied()
                            .collect();
                        if let Some(remap) = &remap {
                            for id in &mut list {
                                *id = remap[*id as usize];
                            }
                        }
                        list.sort_unstable();
                        if list.is_empty() {
                            Arc::clone(&no_ids)
                        } else {
                            list.into()
                        }
                    }
                };
                NodeWords {
                    dict: Arc::clone(&dict),
                    ids,
                }
            })
            .collect();
        drop(levels);
        let postings = Arc::new(transpose(dict.len(), &nodes));
        Self {
            bound: self.bound,
            dict,
            nodes,
            postings,
        }
    }

    /// The recurrence: for each derived node and each length `k`, the
    /// (deduplicated, unsorted) ids of `label · suffix` over its out-edges
    /// `(label, u)` and the length-`k−1` words `suffix` of `u` — read from
    /// the previous level when `u` is derived too, from `self` otherwise.
    fn derive_levels(
        &self,
        csr: &CsrGraph,
        derived: &[u32],
        position: &[u32],
        interner: &mut Interner,
    ) -> Vec<Level> {
        let mut levels: Vec<Level> = Vec::with_capacity(self.bound);
        // Per word id, one past the position of the last node it was pushed
        // for.  A word is only ever produced at its own length, so marks of
        // earlier levels never collide.
        let mut pushed_for: Vec<u32> = Vec::new();
        for length in 1..=self.bound {
            let mut level = Level {
                offsets: vec![0],
                ids: Vec::new(),
            };
            for (at, &node) in derived.iter().enumerate() {
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
                            .map_or(&[], |words| words.level(length - 1))
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

/// The dictionary while a derivation runs: words as (first label, suffix id),
/// the old dictionary's first (their ids are kept), new ones appended in
/// discovery order.
struct Interner {
    first: Vec<LabelId>,
    suffix: Vec<u32>,
    /// `prepend[s + 1]` (slot 0 for the empty suffix) lists the known words
    /// `label · s` as `(label, id)`, sorted by label.
    prepend: Vec<Vec<(LabelId, u32)>>,
    /// Number of words that came from the old dictionary.
    kept: usize,
}

impl Interner {
    fn seeded(dict: &WordDict) -> Self {
        let kept = dict.len();
        let mut prepend = vec![Vec::new(); kept + 1];
        let mut first = Vec::with_capacity(kept);
        for id in 0..kept as u32 {
            let label = dict.word(id)[0];
            first.push(label);
            // Ascending ids of one length ascend in (first label, suffix),
            // so each slot fills in label order.
            prepend[dict.suffix[id as usize].wrapping_add(1) as usize].push((label, id));
        }
        Self {
            first,
            suffix: dict.suffix.clone(),
            prepend,
            kept,
        }
    }

    /// The id of `label · suffix`, minted when the word is new.
    fn intern(&mut self, label: LabelId, suffix: u32) -> u32 {
        let slot = suffix.wrapping_add(1) as usize;
        match self.prepend[slot].binary_search_by_key(&label, |&(label, _)| label) {
            Ok(at) => self.prepend[slot][at].1,
            Err(at) => {
                let id = self.first.len() as u32;
                self.first.push(label);
                self.suffix.push(suffix);
                self.prepend.push(Vec::new());
                self.prepend[slot].insert(at, (label, id));
                id
            }
        }
    }

    /// Freezes the words into a dictionary ordered by (length, label
    /// sequence).  Returns it with the map from interner ids to final ids —
    /// `None` when no word was minted, so `old` and every id stand as they are.
    fn finish(self, old: &Arc<WordDict>, bound: usize) -> (Arc<WordDict>, Option<Vec<u32>>) {
        let count = self.first.len();
        if count == self.kept {
            return (Arc::clone(old), None);
        }
        // Label sequences in interner order: a suffix always has a smaller
        // id than the words extending it.
        let mut start = Vec::with_capacity(count + 1);
        start.push(0);
        let mut flat: Vec<LabelId> = Vec::new();
        for id in 0..count {
            flat.push(self.first[id]);
            if self.suffix[id] != EPSILON {
                let suffix = self.suffix[id] as usize;
                flat.extend_from_within(start[suffix]..start[suffix + 1]);
            }
            start.push(flat.len());
        }
        let word = |id: u32| &flat[start[id as usize]..start[id as usize + 1]];
        let mut order: Vec<u32> = (0..count as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (word(a), word(b));
            a.len().cmp(&b.len()).then_with(|| a.cmp(b))
        });
        let mut remap = vec![0u32; count];
        for (rank, &id) in order.iter().enumerate() {
            remap[id as usize] = rank as u32;
        }
        let mut dict = WordDict::empty(bound);
        let mut of_length = vec![0u32; bound];
        for &id in &order {
            let word = word(id);
            dict.labels.extend_from_slice(word);
            dict.suffix.push(match self.suffix[id as usize] {
                EPSILON => EPSILON,
                suffix => remap[suffix as usize],
            });
            of_length[word.len() - 1] += 1;
        }
        for (level, &words) in of_length.iter().enumerate() {
            dict.level_start[level + 1] = dict.level_start[level] + words;
            dict.label_start[level + 1] = dict.label_start[level] + words as usize * (level + 1);
        }
        (Arc::new(dict), Some(remap))
    }
}

/// The nodes reaching a changed edge's source in fewer than `bound` steps,
/// over the union of both snapshots' edges, ascending.
fn affected_nodes(old: &CsrGraph, new: &CsrGraph, delta: &GraphDelta, bound: usize) -> Vec<u32> {
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
    let mut affected = frontier.clone();
    for _ in 1..bound {
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
        affected.extend_from_slice(&next);
        frontier = next;
    }
    let mut affected: Vec<u32> = affected.into_iter().map(NodeId::raw).collect();
    affected.sort_unstable();
    affected
}

fn transpose(words: usize, nodes: &[NodeWords]) -> Postings {
    let mut offsets = vec![0usize; words + 1];
    for list in nodes {
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
    Postings {
        offsets,
        nodes: spellers,
    }
}
