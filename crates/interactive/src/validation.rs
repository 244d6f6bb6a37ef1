//! Candidate-path selection and prefix-tree validation (Figure 3(c)).
//!
//! When the user labels a node positive, GPS "builds all paths of the current
//! node that are not yet covered by negative examples and of length at most
//! the size of the last neighborhood", presents them as a prefix tree and
//! highlights the path it believes the user has in mind — preferring a path
//! whose length equals the last neighborhood radius, because the user zoomed
//! out exactly that far before answering.
//!
//! The candidate words are read from the session's [`EvalHandle`]: the
//! node's entry in its snapshot's word index at the session's path bound
//! ([`EvalHandle::bounded_words`], shared across every session on the
//! engine), cut at the radius or, past the bound, extended for that node
//! alone ([`gps_rpq::WordIndex::words_within`]).  There is no other source,
//! and a prompt never derives the index at another bound.

use gps_graph::{NodeId, PrefixTree, Word};
use gps_rpq::{EvalHandle, NegativeCoverage};

/// The prompt shown to the user for path validation: the candidate words (as
/// a prefix tree plus a flat list) and the system's suggested word.
#[derive(Debug, Clone)]
pub struct PathValidationPrompt {
    /// The node whose paths are being validated.
    pub node: NodeId,
    /// All candidate words (uncovered, length ≤ the neighborhood radius),
    /// sorted by length then lexicographically.
    pub candidates: Vec<Word>,
    /// The prefix tree over the candidate words, for display.
    pub tree: PrefixTree,
    /// The word the system suggests (highlighted in the UI).
    pub suggested: Word,
}

impl PathValidationPrompt {
    /// Returns `true` when `word` is one of the candidates.
    pub fn is_candidate(&self, word: &[gps_graph::LabelId]) -> bool {
        self.candidates.iter().any(|w| w == word)
    }
}

/// Builds the path-validation prompt for a positive `node` of `exec`'s
/// snapshot.
///
/// * `radius` — the radius of the last neighborhood the user saw; candidate
///   words are bounded by it and the suggestion prefers words of exactly that
///   length;
/// * `coverage` — the negative coverage; covered words are not candidates.
///
/// Returns `None` when the node has no uncovered word within the radius (the
/// node should not have been proposed in that case).
pub fn build_prompt(
    exec: &EvalHandle,
    node: NodeId,
    radius: usize,
    coverage: &NegativeCoverage,
) -> Option<PathValidationPrompt> {
    // The session's index at the coverage's bound, cut or extended to the
    // radius for this one node: the shared index never widens for a prompt.
    // Words come by (length, labels): already the candidates' order.
    let index = exec.bounded_words(coverage.bound());
    let candidates: Vec<Word> = index
        .words_within(exec.cache().csr(), node, radius)
        .into_iter()
        .filter(|w| !coverage.is_covered(w))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let suggested = suggest(&candidates, radius);
    let tree = PrefixTree::from_words(&candidates);
    Some(PathValidationPrompt {
        node,
        candidates,
        tree,
        suggested,
    })
}

/// The suggestion heuristic of the paper: prefer a candidate whose length
/// equals the neighborhood radius (the user zoomed out exactly that far);
/// fall back to the longest candidate, then to the first.
fn suggest(candidates: &[Word], radius: usize) -> Word {
    candidates
        .iter()
        .find(|w| w.len() == radius)
        .or_else(|| candidates.iter().max_by_key(|w| w.len()))
        .cloned()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_datasets::figure1::figure1_graph;

    fn figure1() -> (gps_graph::CsrGraph, gps_datasets::figure1::Figure1) {
        let (g, ids) = figure1_graph();
        (gps_graph::CsrGraph::from_graph(&g), ids)
    }

    #[test]
    fn figure3c_prompt_for_n2() {
        let (g, ids) = figure1();
        let exec = EvalHandle::naive(&g);
        let coverage = NegativeCoverage::new(3);
        let prompt = build_prompt(&exec, ids.n2, 3, &coverage).unwrap();
        assert_eq!(prompt.node, ids.n2);
        let bus = g.label_id("bus").unwrap();
        let tram = g.label_id("tram").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        let restaurant = g.label_id("restaurant").unwrap();
        // The paper highlights a length-3 path as the candidate of interest.
        assert_eq!(prompt.suggested.len(), 3);
        // bus·bus·cinema and bus·tram·cinema are both candidates.
        assert!(prompt.is_candidate(&[bus, bus, cinema]));
        assert!(prompt.is_candidate(&[bus, tram, cinema]));
        assert!(prompt.is_candidate(&[restaurant]));
        // The tree stores exactly the candidate words.
        assert_eq!(prompt.tree.word_count(), prompt.candidates.len());
        // Candidates are sorted by length.
        for window in prompt.candidates.windows(2) {
            assert!(window[0].len() <= window[1].len());
        }
    }

    #[test]
    fn covered_words_are_excluded() {
        let (g, ids) = figure1();
        let exec = EvalHandle::naive(&g);
        // Labeling N5 negative covers bus (N5 -bus-> ... no wait, N5 has
        // tram and restaurant); use N3 whose words are bus-prefixed.
        let coverage = NegativeCoverage::from_negatives(&g, [ids.n5], 3);
        let prompt = build_prompt(&exec, ids.n2, 3, &coverage).unwrap();
        let restaurant = g.label_id("restaurant").unwrap();
        // N5's words include restaurant, so N2's bare `restaurant` word is
        // covered and excluded.
        assert!(!prompt.is_candidate(&[restaurant]));
        let bus = g.label_id("bus").unwrap();
        let tram = g.label_id("tram").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        assert!(prompt.is_candidate(&[bus, tram, cinema]));
    }

    #[test]
    fn radius_bounds_candidate_length() {
        let (g, ids) = figure1();
        let exec = EvalHandle::naive(&g);
        let coverage = NegativeCoverage::new(3);
        let prompt = build_prompt(&exec, ids.n2, 2, &coverage).unwrap();
        assert!(prompt.candidates.iter().all(|w| w.len() <= 2));
        // With radius 2 there is no length-2 cinema word from N2, so the
        // suggestion is a length-2 transport word.
        assert_eq!(prompt.suggested.len(), 2);
    }

    #[test]
    fn node_without_uncovered_words_has_no_prompt() {
        let (g, ids) = figure1();
        let exec = EvalHandle::naive(&g);
        let coverage = NegativeCoverage::new(3);
        assert!(build_prompt(&exec, ids.c1, 3, &coverage).is_none());
        // Cover all of N6's words: cinema and bus, bus·tram, bus·restaurant…
        let coverage2 = NegativeCoverage::from_negatives(&g, [ids.n4, ids.n5], 3);
        // N6's words: cinema (covered by N4), bus (covered via N4's bus),
        // bus·tram (N4: bus·tram? N4 -bus-> N5 -tram-> N3 = bus·tram yes),
        // bus·restaurant (N4 -bus-> N5 -restaurant-> R2 yes)… so everything
        // within radius 2 is covered.
        assert!(build_prompt(&exec, ids.n6, 2, &coverage2).is_none());
    }

    #[test]
    fn cached_prompt_is_byte_identical_to_direct_enumeration() {
        let (g, ids) = figure1();
        let exec = EvalHandle::naive(&g);
        for negatives in [vec![], vec![ids.n5], vec![ids.n4, ids.n5]] {
            let coverage = NegativeCoverage::from_negatives(&g, negatives.clone(), 3);
            for node in g.nodes() {
                for radius in 1..=6usize {
                    // The reference: the node's enumerated paths.
                    let mut direct: Vec<Word> = gps_graph::PathEnumerator::new(radius)
                        .words_from(&g, node)
                        .into_iter()
                        .filter(|w| !coverage.is_covered(w))
                        .collect();
                    direct.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
                    match build_prompt(&exec, node, radius, &coverage) {
                        None => assert!(direct.is_empty(), "{node} r{radius}"),
                        Some(prompt) => {
                            assert_eq!(prompt.candidates, direct, "{node} r{radius}");
                            assert_eq!(prompt.suggested, suggest(&direct, radius));
                            assert_eq!(prompt.tree.word_count(), direct.len());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn suggestion_falls_back_to_longest() {
        let (g, ids) = figure1();
        let exec = EvalHandle::naive(&g);
        let coverage = NegativeCoverage::new(3);
        // Radius 5 but N6's longest uncovered word is shorter than 5.
        let prompt = build_prompt(&exec, ids.n6, 5, &coverage).unwrap();
        let max_len = prompt.candidates.iter().map(|w| w.len()).max().unwrap();
        assert!(prompt.suggested.len() <= 5);
        assert_eq!(prompt.suggested.len(), max_len.min(5));
    }
}
