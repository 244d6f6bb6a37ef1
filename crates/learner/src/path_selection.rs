//! Step (i) of the learning algorithm: selecting, for every positive node, a
//! path that is not covered by any negative node.
//!
//! When the user has validated a path during the interaction (Figure 3(c)),
//! that word is used verbatim.  Otherwise the learner picks the *shortest*
//! uncovered word (ties broken lexicographically by label id), which is the
//! deterministic choice used by the second demo scenario.
//!
//! A positive's words are read from the evaluation stack's word index
//! ([`EvalHandle::bounded_words`]), the one source of bounded words.

use crate::error::LearnError;
use crate::examples::ExampleSet;
use gps_graph::{NodeId, Word};
use gps_rpq::{EvalHandle, NegativeCoverage};
use std::collections::BTreeMap;

/// The words selected for the positive examples, keyed by node.
pub type SelectedPaths = BTreeMap<NodeId, Word>;

/// Selects one uncovered word per positive example of `exec`'s snapshot,
/// reading each positive's bounded words from its word index.
///
/// * `bound` — the maximum path length considered;
/// * validated paths recorded in `examples` take precedence over automatic
///   selection but are still checked against the coverage.
pub fn select_paths(
    exec: &EvalHandle,
    examples: &ExampleSet,
    coverage: &NegativeCoverage,
    bound: usize,
) -> Result<SelectedPaths, LearnError> {
    let index = exec.bounded_words(bound);
    let mut selected = SelectedPaths::new();
    for positive in examples.positives() {
        if let Some(word) = examples.validated_path(positive) {
            if coverage.is_covered(word) {
                return Err(LearnError::ValidatedPathCovered { node: positive });
            }
            selected.insert(positive, word.clone());
            continue;
        }
        // The index lists a node's words by (length, labels): the first
        // uncovered one is the smallest.
        let word = index[positive.index()]
            .iter()
            .find(|word| !coverage.is_covered(word))
            .ok_or(LearnError::PositiveFullyCovered { node: positive })?;
        selected.insert(positive, word.to_vec());
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{CsrGraph, Graph};

    /// N2 -bus-> N1 -tram-> N4 -cinema-> C1; N2 -restaurant-> R1;
    /// N5 -restaurant-> R2; N6 -cinema-> C2.
    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let n2 = g.add_node("N2");
        let n1 = g.add_node("N1");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        let r1 = g.add_node("R1");
        let n5 = g.add_node("N5");
        let r2 = g.add_node("R2");
        let n6 = g.add_node("N6");
        let c2 = g.add_node("C2");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n2, "restaurant", r1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        g.add_edge_by_name(n5, "restaurant", r2);
        g.add_edge_by_name(n6, "cinema", c2);
        CsrGraph::from_graph(&g)
    }

    /// The word [`select_paths`] picks for `node` as the only positive.
    fn selected_word(g: &CsrGraph, node: NodeId, coverage: &NegativeCoverage) -> Option<Word> {
        let mut examples = ExampleSet::new();
        examples.add_positive(node);
        let exec = EvalHandle::naive(g);
        let selected = select_paths(&exec, &examples, coverage, coverage.bound()).ok()?;
        selected.get(&node).cloned()
    }

    #[test]
    fn smallest_uncovered_prefers_short_words() {
        let g = sample();
        let n2 = g.node_by_name("N2").unwrap();
        let coverage = NegativeCoverage::new(3);
        let word = selected_word(&g, n2, &coverage).unwrap();
        // Without negatives the shortest word wins: either "bus" or
        // "restaurant" (length 1); the lexicographically smaller label id is
        // "bus" (interned first).
        assert_eq!(word.len(), 1);
        assert_eq!(word[0], g.label_id("bus").unwrap());
    }

    #[test]
    fn negatives_push_selection_to_longer_words() {
        let g = sample();
        let n2 = g.node_by_name("N2").unwrap();
        let n5 = g.node_by_name("N5").unwrap();
        // N5 covers "restaurant"; additionally cover "bus"-ish prefixes by
        // hand: label N1 negative so that "bus", "bus·tram" and
        // "bus·tram·cinema"… no — N1's words are tram, tram·cinema, so they
        // do not cover N2's words.  Use a coverage built from N5 only and
        // check restaurant is skipped once bus is also covered by a custom
        // negative.
        let coverage = NegativeCoverage::from_negatives(&g, [n5], 3);
        let word = selected_word(&g, n2, &coverage).unwrap();
        assert_eq!(word, vec![g.label_id("bus").unwrap()]);
    }

    #[test]
    fn fully_covered_node_yields_none() {
        let g = sample();
        let n6 = g.node_by_name("N6").unwrap();
        let n4 = g.node_by_name("N4").unwrap();
        // N4 covers the word "cinema", which is N6's only word.
        let coverage = NegativeCoverage::from_negatives(&g, [n4], 3);
        assert_eq!(selected_word(&g, n6, &coverage), None);
        // A sink node has no words at all.
        let c1 = g.node_by_name("C1").unwrap();
        assert_eq!(selected_word(&g, c1, &NegativeCoverage::new(3)), None);
    }

    #[test]
    fn select_paths_uses_validated_words() {
        let g = sample();
        let n2 = g.node_by_name("N2").unwrap();
        let n6 = g.node_by_name("N6").unwrap();
        let bus = g.label_id("bus").unwrap();
        let tram = g.label_id("tram").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        let mut examples = ExampleSet::new();
        examples.set_validated_path(n2, vec![bus, tram, cinema]);
        examples.add_positive(n6);
        let coverage = NegativeCoverage::new(3);
        let selected = select_paths(&EvalHandle::naive(&g), &examples, &coverage, 3).unwrap();
        assert_eq!(selected[&n2], vec![bus, tram, cinema]);
        assert_eq!(selected[&n6], vec![cinema]);
    }

    #[test]
    fn cached_selection_is_byte_identical_to_direct_enumeration() {
        let g = sample();
        let exec = EvalHandle::naive(&g);
        let n2 = g.node_by_name("N2").unwrap();
        let n4 = g.node_by_name("N4").unwrap();
        let n5 = g.node_by_name("N5").unwrap();
        let n6 = g.node_by_name("N6").unwrap();
        let mut examples = ExampleSet::new();
        examples.add_positive(n2);
        examples.add_positive(n6);
        // The reference: the (length, labels)-smallest uncovered word among
        // the node's enumerated paths.
        let direct = |node, coverage: &NegativeCoverage, bound| {
            gps_graph::PathEnumerator::new(bound)
                .words_from(&g, node)
                .into_iter()
                .filter(|w| !coverage.is_covered(w))
                .min_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)))
        };
        for (negatives, bound) in [(vec![], 3), (vec![n5], 3), (vec![n5], 2)] {
            let coverage = NegativeCoverage::from_negatives(&g, negatives, bound);
            let expected: SelectedPaths = [n2, n6]
                .into_iter()
                .map(|node| (node, direct(node, &coverage, bound).unwrap()))
                .collect();
            let cached = select_paths(&exec, &examples, &coverage, bound).unwrap();
            assert_eq!(cached, expected, "bound {bound}");
        }
        // Error cases agree too: every word of N6 covered.
        let coverage = NegativeCoverage::from_negatives(&g, [n4], 3);
        assert_eq!(direct(n6, &coverage, 3), None);
        assert_eq!(
            select_paths(&exec, &examples, &coverage, 3).unwrap_err(),
            LearnError::PositiveFullyCovered { node: n6 },
        );
    }

    #[test]
    fn covered_validated_path_is_an_error() {
        let g = sample();
        let n2 = g.node_by_name("N2").unwrap();
        let n5 = g.node_by_name("N5").unwrap();
        let restaurant = g.label_id("restaurant").unwrap();
        let mut examples = ExampleSet::new();
        examples.set_validated_path(n2, vec![restaurant]);
        examples.add_negative(n5);
        let coverage = NegativeCoverage::from_negatives(&g, [n5], 3);
        let err = select_paths(&EvalHandle::naive(&g), &examples, &coverage, 3).unwrap_err();
        assert_eq!(err, LearnError::ValidatedPathCovered { node: n2 });
    }

    #[test]
    fn fully_covered_positive_is_an_error() {
        let g = sample();
        let n6 = g.node_by_name("N6").unwrap();
        let n4 = g.node_by_name("N4").unwrap();
        let mut examples = ExampleSet::new();
        examples.add_positive(n6);
        examples.add_negative(n4);
        let coverage = NegativeCoverage::from_negatives(&g, [n4], 3);
        let err = select_paths(&EvalHandle::naive(&g), &examples, &coverage, 3).unwrap_err();
        assert_eq!(err, LearnError::PositiveFullyCovered { node: n6 });
    }
}
