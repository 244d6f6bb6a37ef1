//! Labeled example sets.
//!
//! During a GPS session the user labels nodes as *positive* (should be in the
//! query answer) or *negative* (should not).  Optionally a positive node
//! carries a *validated path* — the word the user confirmed in the prefix
//! tree (Figure 3(c)), which the learner must then use verbatim instead of
//! choosing its own witness.

use gps_graph::{NodeId, Word};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The polarity of an example.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Label {
    /// The node must be selected by the goal query.
    Positive,
    /// The node must not be selected by the goal query.
    Negative,
}

/// A set of labeled nodes, with optional validated paths for positives.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExampleSet {
    labels: BTreeMap<NodeId, Label>,
    validated_paths: BTreeMap<NodeId, Word>,
}

impl ExampleSet {
    /// Creates an empty example set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Labels `node` as positive.  Returns the previous label, if any.
    pub fn add_positive(&mut self, node: NodeId) -> Option<Label> {
        self.labels.insert(node, Label::Positive)
    }

    /// Labels `node` as negative.  Returns the previous label, if any.  A
    /// previously validated path for the node is removed.
    pub fn add_negative(&mut self, node: NodeId) -> Option<Label> {
        self.validated_paths.remove(&node);
        self.labels.insert(node, Label::Negative)
    }

    /// Labels `node` with `label`.
    pub fn add(&mut self, node: NodeId, label: Label) -> Option<Label> {
        match label {
            Label::Positive => self.add_positive(node),
            Label::Negative => self.add_negative(node),
        }
    }

    /// Records the path the user validated for a positive node.  The node is
    /// labeled positive if it was not already.
    pub fn set_validated_path(&mut self, node: NodeId, word: Word) {
        self.labels.insert(node, Label::Positive);
        self.validated_paths.insert(node, word);
    }

    /// The validated path of `node`, if the user provided one.
    pub fn validated_path(&self, node: NodeId) -> Option<&Word> {
        self.validated_paths.get(&node)
    }

    /// Removes the label (and validated path) of `node`.
    pub fn remove(&mut self, node: NodeId) -> Option<Label> {
        self.validated_paths.remove(&node);
        self.labels.remove(&node)
    }

    /// The label of `node`, if any.
    pub fn label(&self, node: NodeId) -> Option<Label> {
        self.labels.get(&node).copied()
    }

    /// Returns `true` if `node` has been labeled (either way).
    pub fn is_labeled(&self, node: NodeId) -> bool {
        self.labels.contains_key(&node)
    }

    /// Positive nodes in id order.
    pub fn positives(&self) -> Vec<NodeId> {
        self.labels
            .iter()
            .filter_map(|(&n, &l)| (l == Label::Positive).then_some(n))
            .collect()
    }

    /// Negative nodes in id order.
    pub fn negatives(&self) -> Vec<NodeId> {
        self.labels
            .iter()
            .filter_map(|(&n, &l)| (l == Label::Negative).then_some(n))
            .collect()
    }

    /// All `(node, label)` pairs in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Label)> + '_ {
        self.labels.iter().map(|(&n, &l)| (n, l))
    }

    /// Total number of labeled nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when no node has been labeled.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of positive examples.
    pub fn positive_count(&self) -> usize {
        self.positives().len()
    }

    /// Number of negative examples.
    pub fn negative_count(&self) -> usize {
        self.negatives().len()
    }
}

impl FromIterator<(NodeId, Label)> for ExampleSet {
    fn from_iter<T: IntoIterator<Item = (NodeId, Label)>>(iter: T) -> Self {
        let mut set = ExampleSet::new();
        for (node, label) in iter {
            set.add(node, label);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::LabelId;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn labels_are_recorded_and_replaced() {
        let mut set = ExampleSet::new();
        assert!(set.is_empty());
        assert_eq!(set.add_positive(n(1)), None);
        assert_eq!(set.label(n(1)), Some(Label::Positive));
        assert_eq!(set.add_negative(n(1)), Some(Label::Positive));
        assert_eq!(set.label(n(1)), Some(Label::Negative));
        assert_eq!(set.len(), 1);
        assert!(set.is_labeled(n(1)));
        assert!(!set.is_labeled(n(2)));
    }

    #[test]
    fn positives_and_negatives_are_partitioned() {
        let mut set = ExampleSet::new();
        set.add_positive(n(2));
        set.add_positive(n(5));
        set.add_negative(n(3));
        assert_eq!(set.positives(), vec![n(2), n(5)]);
        assert_eq!(set.negatives(), vec![n(3)]);
        assert_eq!(set.positive_count(), 2);
        assert_eq!(set.negative_count(), 1);
        let all: Vec<_> = set.iter().collect();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn validated_paths_follow_the_label() {
        let mut set = ExampleSet::new();
        let word = vec![LabelId::new(0), LabelId::new(2)];
        set.set_validated_path(n(4), word.clone());
        assert_eq!(set.label(n(4)), Some(Label::Positive));
        assert_eq!(set.validated_path(n(4)), Some(&word));
        // Relabeling negative drops the path.
        set.add_negative(n(4));
        assert_eq!(set.validated_path(n(4)), None);
    }

    #[test]
    fn removal_clears_everything() {
        let mut set = ExampleSet::new();
        set.set_validated_path(n(1), vec![LabelId::new(0)]);
        assert_eq!(set.remove(n(1)), Some(Label::Positive));
        assert!(set.is_empty());
        assert_eq!(set.validated_path(n(1)), None);
        assert_eq!(set.remove(n(1)), None);
    }

    #[test]
    fn from_iterator_collects_labels() {
        let set: ExampleSet = vec![(n(1), Label::Positive), (n(2), Label::Negative)]
            .into_iter()
            .collect();
        assert_eq!(set.positives(), vec![n(1)]);
        assert_eq!(set.negatives(), vec![n(2)]);
    }

    #[test]
    fn generic_add_dispatches_on_label() {
        let mut set = ExampleSet::new();
        set.add(n(1), Label::Positive);
        set.add(n(2), Label::Negative);
        assert_eq!(set.label(n(1)), Some(Label::Positive));
        assert_eq!(set.label(n(2)), Some(Label::Negative));
    }

    #[test]
    fn serde_round_trip() {
        let mut set = ExampleSet::new();
        set.add_positive(n(1));
        set.set_validated_path(n(1), vec![LabelId::new(3)]);
        set.add_negative(n(9));
        let json = serde_json::to_string(&set).unwrap();
        let back: ExampleSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }
}
