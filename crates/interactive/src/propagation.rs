//! Label propagation.
//!
//! After the user labels a node, GPS "seamlessly propagates to the rest of
//! the graph the labels provided by the user at this stage".  Two forms of
//! propagation are sound regardless of the goal query:
//!
//! * **Negative propagation** — a node whose every bounded word is covered by
//!   the negative examples can never be selected by a consistent query of
//!   bounded witness length, so it is an *implied negative*;
//! * **Positive propagation** — when the user validates a witness path for a
//!   positive node, every node that has the same word as an outgoing path is
//!   selected by any query accepting that word, so it is an *implied
//!   positive*.
//!
//! Implied labels are not added to the user's example set (they carry no new
//! information for the learner); they are reported so the UI can display them
//! and so the pruning layer can skip them.

use gps_graph::{NodeId, Word};
use gps_learner::ExampleSet;
use gps_rpq::{EvalHandle, NegativeCoverage};

/// Labels implied by the user-provided examples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropagatedLabels {
    /// Nodes that no consistent bounded query can select.
    pub implied_negative: Vec<NodeId>,
    /// Nodes that every query accepting a validated positive word selects.
    pub implied_positive: Vec<NodeId>,
}

impl PropagatedLabels {
    /// Total number of implied labels.
    pub fn len(&self) -> usize {
        self.implied_negative.len() + self.implied_positive.len()
    }

    /// Returns `true` when nothing was propagated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Computes the labels implied by `examples` on `exec`'s snapshot, reading
/// every node's words from its word index at `bound`.
///
/// `coverage` must have been built from the same example set (its negatives).
pub fn propagate(
    exec: &EvalHandle,
    examples: &ExampleSet,
    coverage: &NegativeCoverage,
    bound: usize,
) -> PropagatedLabels {
    let index = exec.bounded_words(bound);
    let unlabeled = |node: &NodeId| !examples.is_labeled(*node);
    let implied_negative: Vec<NodeId> = if coverage.negative_count() > 0 {
        (0..index.len())
            .map(NodeId::from)
            .filter(unlabeled)
            .filter(|node| index[node.index()].iter().all(|w| coverage.is_covered(w)))
            .collect()
    } else {
        Vec::new()
    };
    // The nodes spelling a validated word: a postings walk per word.
    let mut implied_positive: Vec<NodeId> = examples
        .positives()
        .into_iter()
        .filter_map(|node| examples.validated_path(node))
        .flat_map(|word: &Word| index.spellers(word).iter().copied())
        .filter(unlabeled)
        .filter(|node| implied_negative.binary_search(node).is_err())
        .collect();
    implied_positive.sort_unstable();
    implied_positive.dedup();
    PropagatedLabels {
        implied_negative,
        implied_positive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{CsrGraph, Graph};

    /// Two symmetric branches:
    /// A -x-> B -y-> C     D -x-> E -y-> F     G -z-> H
    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        let d = g.add_node("D");
        let e = g.add_node("E");
        let f = g.add_node("F");
        let gg = g.add_node("G");
        let h = g.add_node("H");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "y", c);
        g.add_edge_by_name(d, "x", e);
        g.add_edge_by_name(e, "y", f);
        g.add_edge_by_name(gg, "z", h);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn validated_positive_word_propagates_to_twin_nodes() {
        let g = sample();
        let a = g.node_by_name("A").unwrap();
        let d = g.node_by_name("D").unwrap();
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        let mut examples = ExampleSet::new();
        examples.set_validated_path(a, vec![x, y]);
        let coverage = NegativeCoverage::new(3);
        let propagated = propagate(&EvalHandle::naive(&g), &examples, &coverage, 3);
        assert!(propagated.implied_positive.contains(&d));
        assert!(!propagated.implied_positive.contains(&a), "already labeled");
    }

    #[test]
    fn covered_nodes_become_implied_negatives() {
        let g = sample();
        let gg = g.node_by_name("G").unwrap();
        let a = g.node_by_name("A").unwrap();
        let mut examples = ExampleSet::new();
        // Labeling A negative covers x, x·y — D's words are then all covered.
        examples.add_negative(a);
        let coverage = NegativeCoverage::from_negatives(&g, [a], 3);
        let propagated = propagate(&EvalHandle::naive(&g), &examples, &coverage, 3);
        let d = g.node_by_name("D").unwrap();
        assert!(propagated.implied_negative.contains(&d));
        // G spells z, which is uncovered, so it stays unresolved.
        assert!(!propagated.implied_negative.contains(&gg));
    }

    #[test]
    fn without_examples_nothing_is_propagated_to_path_nodes() {
        let g = sample();
        let examples = ExampleSet::new();
        let coverage = NegativeCoverage::new(3);
        let propagated = propagate(&EvalHandle::naive(&g), &examples, &coverage, 3);
        // No negatives and no validated words: only the trivially
        // uninformative sinks would qualify, but negative propagation is
        // gated on having at least one negative example.
        assert!(propagated.implied_positive.is_empty());
        assert!(propagated.implied_negative.is_empty());
        assert!(propagated.is_empty());
    }

    #[test]
    fn counts_add_up() {
        let g = sample();
        let a = g.node_by_name("A").unwrap();
        let d = g.node_by_name("D").unwrap();
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        let mut examples = ExampleSet::new();
        examples.set_validated_path(a, vec![x, y]);
        examples.add_negative(g.node_by_name("G").unwrap());
        let coverage = NegativeCoverage::from_negatives(&g, [g.node_by_name("G").unwrap()], 3);
        let propagated = propagate(&EvalHandle::naive(&g), &examples, &coverage, 3);
        assert_eq!(
            propagated.len(),
            propagated.implied_negative.len() + propagated.implied_positive.len()
        );
        assert!(propagated.implied_positive.contains(&d));
    }
}
