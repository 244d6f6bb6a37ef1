//! Prefix tree of path words (Figure 3(c) of the paper).
//!
//! After a node has been labeled positive, GPS shows the user all of that
//! node's candidate paths (bounded length, not covered by negatives) as a
//! *prefix tree*, with one path highlighted as the system's best guess.  The
//! tree here is purely structural — rendering and highlighting live in
//! `gps-core::render` and `gps-interactive::validation`.

use crate::ids::LabelId;
use std::collections::BTreeMap;

/// Identifier of a prefix-tree node (dense, root = 0).
pub type PrefixNodeId = usize;

/// A trie over label words.  Every node remembers whether it terminates one
/// of the inserted words.
#[derive(Debug, Clone, Default)]
pub struct PrefixTree {
    children: Vec<BTreeMap<LabelId, PrefixNodeId>>,
    terminal: Vec<bool>,
}

impl PrefixTree {
    /// Creates a prefix tree containing only the empty root.
    pub fn new() -> Self {
        Self {
            children: vec![BTreeMap::new()],
            terminal: vec![false],
        }
    }

    /// Builds a prefix tree from a collection of words.
    pub fn from_words<I>(words: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<[LabelId]>,
    {
        let mut tree = Self::new();
        for word in words {
            tree.insert(word.as_ref());
        }
        tree
    }

    /// The root node.
    pub fn root(&self) -> PrefixNodeId {
        0
    }

    /// Number of trie nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.children.len()
    }

    /// Number of distinct words stored.
    fn word_count(&self) -> usize {
        self.terminal.iter().filter(|&&t| t).count()
    }

    /// Returns `true` when no word has been inserted.
    pub fn is_empty(&self) -> bool {
        self.word_count() == 0
    }

    /// Inserts a word, returning the terminal node.
    pub fn insert(&mut self, word: &[LabelId]) -> PrefixNodeId {
        let mut node = self.root();
        for &label in word {
            node = match self.children[node].get(&label) {
                Some(&next) => next,
                None => {
                    let next = self.children.len();
                    self.children.push(BTreeMap::new());
                    self.terminal.push(false);
                    self.children[node].insert(label, next);
                    next
                }
            };
        }
        self.terminal[node] = true;
        node
    }

    /// Returns `true` if the exact word was inserted.
    pub fn contains(&self, word: &[LabelId]) -> bool {
        self.locate(word)
            .map(|node| self.terminal[node])
            .unwrap_or(false)
    }

    /// Locates the trie node spelled by `word`, if present.
    fn locate(&self, word: &[LabelId]) -> Option<PrefixNodeId> {
        let mut node = self.root();
        for &label in word {
            node = self.child(node, label)?;
        }
        Some(node)
    }

    /// Returns `true` if `node` terminates an inserted word.
    pub fn is_terminal(&self, node: PrefixNodeId) -> bool {
        self.terminal[node]
    }

    /// The child of `node` along `label`, if any.
    #[inline]
    pub fn child(&self, node: PrefixNodeId, label: LabelId) -> Option<PrefixNodeId> {
        self.children[node].get(&label).copied()
    }

    /// Depth-first walk of the tree invoking `visit(depth, label, node,
    /// is_terminal)` for every non-root node, in label order.  Used by the
    /// renderer.
    pub fn walk(&self, mut visit: impl FnMut(usize, LabelId, PrefixNodeId, bool)) {
        self.walk_inner(self.root(), 0, &mut visit);
    }

    fn walk_inner(
        &self,
        node: PrefixNodeId,
        depth: usize,
        visit: &mut impl FnMut(usize, LabelId, PrefixNodeId, bool),
    ) {
        for (&label, &child) in &self.children[node] {
            visit(depth, label, child, self.terminal[child]);
            self.walk_inner(child, depth + 1, visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId::new(i)
    }

    #[test]
    fn empty_tree_has_only_root() {
        let tree = PrefixTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.word_count(), 0);
        assert!(!tree.contains(&[]));
        assert!(
            tree.locate(&[]).is_some(),
            "the empty word locates the root"
        );
    }

    #[test]
    fn insert_and_lookup() {
        let mut tree = PrefixTree::new();
        tree.insert(&[l(0), l(1)]);
        tree.insert(&[l(0), l(2)]);
        assert!(tree.contains(&[l(0), l(1)]));
        assert!(tree.contains(&[l(0), l(2)]));
        assert!(!tree.contains(&[l(0)]), "prefix is not a stored word");
        assert!(tree.locate(&[l(0)]).is_some());
        assert!(!tree.contains(&[l(1)]));
        assert_eq!(tree.word_count(), 2);
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let tree = PrefixTree::from_words(vec![vec![l(0), l(1), l(2)], vec![l(0), l(1), l(3)]]);
        // root + a + ab + abc + abd = 5 nodes
        assert_eq!(tree.node_count(), 5);
    }

    #[test]
    fn duplicate_words_collapse_and_walk_in_label_order() {
        let tree = PrefixTree::from_words(vec![
            vec![l(2)],
            vec![l(0), l(1)],
            vec![l(0)],
            vec![l(0), l(1)],
        ]);
        assert_eq!(tree.word_count(), 3, "duplicates collapse");
        let mut visits = Vec::new();
        tree.walk(|depth, label, node, terminal| {
            assert_eq!(tree.is_terminal(node), terminal);
            visits.push((depth, label, terminal));
        });
        assert_eq!(
            visits,
            vec![(0, l(0), true), (1, l(1), true), (0, l(2), true)],
            "depth first, children in label order"
        );
    }

    #[test]
    fn empty_word_can_be_stored() {
        let mut tree = PrefixTree::new();
        tree.insert(&[]);
        assert!(tree.contains(&[]));
        assert_eq!(tree.word_count(), 1);
        assert!(tree.is_terminal(tree.root()));
    }

    #[test]
    fn walk_visits_in_label_order_with_depths() {
        let tree = PrefixTree::from_words(vec![vec![l(1), l(0)], vec![l(0)]]);
        let mut visits = Vec::new();
        tree.walk(|depth, label, _, terminal| visits.push((depth, label, terminal)));
        assert_eq!(
            visits,
            vec![(0, l(0), true), (0, l(1), false), (1, l(0), true)]
        );
    }

    #[test]
    fn locate_and_child_expose_structure() {
        let tree = PrefixTree::from_words(vec![vec![l(0), l(1)], vec![l(0), l(2)]]);
        let node_a = tree.locate(&[l(0)]).unwrap();
        assert!(!tree.contains(&[l(0)]), "a prefix, not a word");
        assert!(tree.child(node_a, l(1)).is_some() && tree.child(node_a, l(2)).is_some());
        assert!(tree.locate(&[l(3)]).is_none());
        assert_eq!(tree.child(tree.root(), l(0)), Some(node_a));
        assert_eq!(tree.child(node_a, l(0)), None);
    }
}
