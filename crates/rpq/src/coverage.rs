//! Coverage of paths by negative examples.
//!
//! The paper's notion of an *uninformative* node: a node is uninformative
//! when all of its (bounded) paths are covered by negative nodes — labeling
//! it could not change the learned query, so the system prunes it.  A word is
//! *covered* when it is spelled by some path of a node already labeled
//! negative: the goal query cannot select via that word, because it would
//! then also select the negative node.
//!
//! Production code feeds a coverage from the snapshot's word index
//! ([`add_negative_with_words`](NegativeCoverage::add_negative_with_words),
//! [`from_index`](NegativeCoverage::from_index)).  The methods that take a
//! graph enumerate its paths instead; they are the **reference** the tests
//! compare the index-fed paths against, and nothing else calls them.

use crate::words::WordIndex;
use gps_graph::{CsrGraph, LabelId, NodeId, PathEnumerator, PrefixTree, Word};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of fresh coverage log identities (see
/// [`NegativeCoverage::log_identity`]).
static NEXT_LOG_IDENTITY: AtomicU64 = AtomicU64::new(1);

/// The set of words covered by the negative examples collected so far,
/// bounded by a maximum path length.
#[derive(Debug, Clone)]
pub struct NegativeCoverage {
    bound: usize,
    covered: PrefixTree,
    negatives: BTreeSet<NodeId>,
    /// Every word in insertion order, exactly once — the delta log consumers
    /// (incremental pruning) key their state off [`version`](Self::version),
    /// which is this log's length.
    covered_log: Vec<Word>,
    /// Identity of the log lineage this coverage belongs to (shared by
    /// clones, distinct across [`new`](Self::new) calls) — see
    /// [`log_identity`](Self::log_identity).
    log_identity: u64,
}

impl NegativeCoverage {
    /// Creates an empty coverage with the given path-length bound.
    pub fn new(bound: usize) -> Self {
        Self {
            bound,
            covered: PrefixTree::new(),
            negatives: BTreeSet::new(),
            covered_log: Vec::new(),
            log_identity: NEXT_LOG_IDENTITY.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Creates a coverage at `index`'s bound seeded with a set of negative
    /// nodes, their words read off the index.
    pub fn from_index(index: &WordIndex, negatives: impl IntoIterator<Item = NodeId>) -> Self {
        let mut coverage = Self::new(index.bound());
        for node in negatives {
            coverage.add_negative_with_words(node, &index[node.index()]);
        }
        coverage
    }

    /// Creates a coverage seeded with a set of negative nodes, enumerating
    /// their paths (the reference for [`from_index`](Self::from_index)).
    pub fn from_negatives(
        graph: &CsrGraph,
        negatives: impl IntoIterator<Item = NodeId>,
        bound: usize,
    ) -> Self {
        let mut coverage = Self::new(bound);
        for node in negatives {
            coverage.add_negative(graph, node);
        }
        coverage
    }

    /// The path-length bound used when collecting words.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The negative nodes recorded so far.
    pub fn negatives(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.negatives.iter().copied()
    }

    /// Number of negative nodes recorded.
    pub fn negative_count(&self) -> usize {
        self.negatives.len()
    }

    /// Records `node` as a negative example: all its words up to the bound
    /// become covered, enumerated from `graph` (the reference for
    /// [`add_negative_with_words`](Self::add_negative_with_words)).  Returns
    /// `false` when the node was already recorded.
    pub fn add_negative(&mut self, graph: &CsrGraph, node: NodeId) -> bool {
        if !self.negatives.insert(node) {
            return false;
        }
        for word in PathEnumerator::new(self.bound).words_from(graph, node) {
            if !self.covered.contains(&word) {
                self.covered.insert(&word);
                self.covered_log.push(word);
            }
        }
        true
    }

    /// Records `node` as a negative example with its bounded word set
    /// supplied by the caller — its entry in the shared per-snapshot word
    /// index (`&index[node.index()]`), or a slice of words.  Returns `false`
    /// when the node was already recorded.
    ///
    /// `words` must be exactly the node's distinct words up to this
    /// coverage's bound.
    pub fn add_negative_with_words<I>(&mut self, node: NodeId, words: I) -> bool
    where
        I: IntoIterator,
        I::Item: AsRef<[LabelId]>,
    {
        if !self.negatives.insert(node) {
            return false;
        }
        for word in words {
            let word = word.as_ref();
            if !self.covered.contains(word) {
                self.covered.insert(word);
                self.covered_log.push(word.to_vec());
            }
        }
        true
    }

    /// A monotonic version counter: the number of distinct covered words so
    /// far.  Bumps exactly when coverage grows, so consumers can detect and
    /// fetch the delta with [`covered_since`](Self::covered_since).
    pub fn version(&self) -> u64 {
        self.covered_log.len() as u64
    }

    /// Identifies the covered-word log lineage this coverage belongs to.
    ///
    /// Two coverages with the same identity share their log prefix (one is
    /// a clone of the other at some version), so a delta consumer that
    /// synchronized against one may safely apply
    /// [`covered_since`](Self::covered_since) deltas from the other.
    /// Coverages created independently get distinct identities, letting
    /// consumers detect a foreign object instead of applying its delta.
    pub fn log_identity(&self) -> u64 {
        self.log_identity
    }

    /// The words that became covered after the coverage was at `version`
    /// (insertion order).  `covered_since(0)` is every covered word.
    pub fn covered_since(&self, version: u64) -> &[Word] {
        let start = (version as usize).min(self.covered_log.len());
        &self.covered_log[start..]
    }

    /// Every covered word, sorted (shortest-prefix-first lexicographic) and
    /// deduplicated — the negative constraint set the learner generalizes
    /// against.
    pub fn covered_words(&self) -> Vec<Word> {
        self.covered.words()
    }

    /// Returns `true` when `word` is covered by some negative example.
    pub fn is_covered(&self, word: &[LabelId]) -> bool {
        self.covered.contains(word)
    }

    /// The words of `node` (up to the bound) that are *not* covered — the
    /// words that could still witness the node's membership in the goal
    /// query.  Enumerated from `graph`: the reference the index-fed pruning
    /// scores are tested against.
    pub fn uncovered_words(&self, graph: &CsrGraph, node: NodeId) -> Vec<Word> {
        PathEnumerator::new(self.bound)
            .words_from(graph, node)
            .into_iter()
            .filter(|w| !self.is_covered(w))
            .collect()
    }

    /// Number of uncovered words of `node` — the informativeness score used
    /// by the practical strategy of the paper.
    pub fn uncovered_count(&self, graph: &CsrGraph, node: NodeId) -> usize {
        self.uncovered_words(graph, node).len()
    }

    /// Returns `true` when the node is *uninformative*: every word of every
    /// path of the node (up to the bound) is covered by a negative example.
    /// Nodes with no outgoing paths at all are also uninformative (there is
    /// nothing to learn from them under non-nullable goal queries).
    pub fn is_uninformative(&self, graph: &CsrGraph, node: NodeId) -> bool {
        self.uncovered_count(graph, node) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::Graph;

    /// N5 -bus-> N6 -cinema-> C2, N5 -restaurant-> R2 ; N7 isolated.
    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let n5 = g.add_node("N5");
        let n6 = g.add_node("N6");
        let c2 = g.add_node("C2");
        let r2 = g.add_node("R2");
        let _n7 = g.add_node("N7");
        g.add_edge_by_name(n5, "bus", n6);
        g.add_edge_by_name(n6, "cinema", c2);
        g.add_edge_by_name(n5, "restaurant", r2);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn adding_negative_covers_its_words() {
        let g = sample();
        let n5 = g.node_by_name("N5").unwrap();
        let mut cov = NegativeCoverage::new(3);
        assert!(cov.add_negative(&g, n5));
        assert!(!cov.add_negative(&g, n5), "idempotent");
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        let restaurant = g.label_id("restaurant").unwrap();
        assert!(cov.is_covered(&[bus]));
        assert!(cov.is_covered(&[bus, cinema]));
        assert!(cov.is_covered(&[restaurant]));
        assert!(!cov.is_covered(&[cinema]));
        assert_eq!(cov.negative_count(), 1);
    }

    #[test]
    fn uncovered_words_shrink_as_negatives_grow() {
        let g = sample();
        let n5 = g.node_by_name("N5").unwrap();
        let n6 = g.node_by_name("N6").unwrap();
        let mut cov = NegativeCoverage::new(3);
        let before = cov.uncovered_count(&g, n6);
        assert_eq!(before, 1, "N6 has only the cinema word");
        cov.add_negative(&g, n5);
        // N5's words include bus·cinema but not cinema itself, so N6 keeps
        // its single uncovered word.
        assert_eq!(cov.uncovered_count(&g, n6), 1);
        cov.add_negative(&g, n6);
        assert_eq!(cov.uncovered_count(&g, n6), 0);
        assert!(cov.is_uninformative(&g, n6));
    }

    #[test]
    fn nodes_without_paths_are_uninformative() {
        let g = sample();
        let cov = NegativeCoverage::new(3);
        let c2 = g.node_by_name("C2").unwrap();
        let n7 = g.node_by_name("N7").unwrap();
        assert!(cov.is_uninformative(&g, c2));
        assert!(cov.is_uninformative(&g, n7));
        let n5 = g.node_by_name("N5").unwrap();
        assert!(!cov.is_uninformative(&g, n5));
    }

    #[test]
    fn uninformative_nodes_spread_with_negatives() {
        let g = sample();
        let uninformative =
            |cov: &NegativeCoverage| g.nodes().filter(|&n| cov.is_uninformative(&g, n)).count();
        let mut cov = NegativeCoverage::new(3);
        assert_eq!(uninformative(&cov), 3, "C2, R2, N7 have no outgoing paths");
        // Labeling N5 negative covers bus, bus·cinema, restaurant; N6's word
        // `cinema` remains uncovered, so only the sinks stay uninformative.
        cov.add_negative(&g, g.node_by_name("N5").unwrap());
        assert_eq!(uninformative(&cov), 4, "N5 joins the uninformative set");
    }

    #[test]
    fn from_negatives_seeds_coverage() {
        let g = sample();
        let n5 = g.node_by_name("N5").unwrap();
        let n6 = g.node_by_name("N6").unwrap();
        let cov = NegativeCoverage::from_negatives(&g, [n5, n6], 2);
        assert_eq!(cov.negative_count(), 2);
        assert_eq!(cov.bound(), 2);
        assert_eq!(cov.negatives().collect::<Vec<_>>(), vec![n5, n6]);
        let cinema = g.label_id("cinema").unwrap();
        assert!(cov.is_covered(&[cinema]));
    }

    #[test]
    fn version_and_delta_track_new_words_exactly_once() {
        let g = sample();
        let n5 = g.node_by_name("N5").unwrap();
        let n6 = g.node_by_name("N6").unwrap();
        let mut cov = NegativeCoverage::new(3);
        assert_eq!(cov.version(), 0);
        cov.add_negative(&g, n5);
        let v1 = cov.version();
        assert!(v1 > 0);
        assert_eq!(cov.covered_since(0).len(), v1 as usize);
        // N6's words (cinema) are new; N5's shared words (bus·cinema) are
        // already covered and must not reappear in the delta.
        cov.add_negative(&g, n6);
        let delta: Vec<_> = cov.covered_since(v1).to_vec();
        let cinema = g.label_id("cinema").unwrap();
        assert_eq!(delta, vec![vec![cinema]]);
        // Re-adding a negative is a no-op for the version.
        let v2 = cov.version();
        cov.add_negative(&g, n5);
        assert_eq!(cov.version(), v2);
        // Past-the-end versions yield an empty delta.
        assert!(cov.covered_since(v2 + 10).is_empty());
        // covered_words is the sorted, deduplicated union of the log.
        let mut log: Vec<_> = cov.covered_since(0).to_vec();
        log.sort();
        assert_eq!(cov.covered_words(), log);
    }

    #[test]
    fn bound_limits_covered_word_length() {
        let g = sample();
        let n5 = g.node_by_name("N5").unwrap();
        let mut cov = NegativeCoverage::new(1);
        cov.add_negative(&g, n5);
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        assert!(cov.is_covered(&[bus]));
        assert!(
            !cov.is_covered(&[bus, cinema]),
            "length-2 word is beyond the bound"
        );
    }
}
