//! The end-to-end learner.
//!
//! [`Learner::learn`] implements the two-step algorithm of the paper:
//! select an uncovered path per positive example (respecting user-validated
//! paths), build the prefix-tree acceptor of the selected paths, generalize
//! it by state merging while no negative node's word is accepted, and return
//! the result as both a DFA and a regular expression, together with its
//! answer on the graph.
//!
//! Every bounded word the learner reads comes from an [`EvalHandle`]'s word
//! index, and every answer from its cache; [`Learner::learn`] builds a
//! private handle, [`Learner::learn_with`] takes the session's, which must
//! serve the graph.  The one enumeration left is the `max_paths_per_node`
//! valve, a resource bound on the negative constraint set.

use crate::error::LearnError;
use crate::examples::ExampleSet;
use crate::merge::generalize;
use crate::path_selection::{select_paths, SelectedPaths};
use gps_automata::state_elim::dfa_to_regex;
use gps_automata::{Dfa, Regex};
use gps_graph::{CsrGraph, NodeId, PathEnumerator, Word};
use gps_rpq::{EvalHandle, NegativeCoverage, QueryAnswer};

/// Tunable parameters of the learner.
#[derive(Debug, Clone)]
pub struct Learner {
    /// Maximum length of paths considered when selecting positive witness
    /// words and when collecting the words of negative nodes.
    pub path_bound: usize,
    /// Safety cap on the number of paths enumerated per node.
    pub max_paths_per_node: usize,
}

impl Default for Learner {
    fn default() -> Self {
        Self {
            path_bound: 4,
            max_paths_per_node: 10_000,
        }
    }
}

/// The outcome of a successful learning step.
#[derive(Debug, Clone)]
pub struct LearnedQuery {
    /// The learned query as a regular expression (for display).
    pub regex: Regex,
    /// The learned query as a minimal DFA (for evaluation).
    pub dfa: Dfa,
    /// The words selected for the positive examples (step (i)).
    pub selected_paths: SelectedPaths,
    /// The answer of the learned query on the graph it was learned from.
    pub answer: QueryAnswer,
}

impl LearnedQuery {
    /// Returns `true` when the learned query selects `node`.
    pub fn selects(&self, node: NodeId) -> bool {
        self.answer.contains(node)
    }
}

impl Learner {
    /// Creates a learner with the given path-length bound.
    pub fn with_bound(path_bound: usize) -> Self {
        Self {
            path_bound,
            ..Self::default()
        }
    }

    /// Learns a query consistent with `examples` on `graph`: the convenience
    /// form of [`learn_with`](Self::learn_with) over a private reference
    /// evaluation stack and a coverage of the negatives read off its word
    /// index.
    ///
    /// # Errors
    /// * [`LearnError::NoPositiveExamples`] — nothing to generalize from;
    /// * [`LearnError::PositiveFullyCovered`] / [`LearnError::ValidatedPathCovered`]
    ///   — the labeling is inconsistent within the length bound;
    /// * [`LearnError::InconsistentResult`] — the generalized query still
    ///   selects a negative node (the bound was too small to separate them).
    pub fn learn(
        &self,
        graph: &CsrGraph,
        examples: &ExampleSet,
    ) -> Result<LearnedQuery, LearnError> {
        let exec = EvalHandle::naive(graph);
        let coverage = NegativeCoverage::from_index(
            &exec.bounded_words(self.path_bound),
            examples.negatives(),
        );
        self.learn_with(graph, examples, &coverage, &exec)
    }

    /// Learns a query consistent with `examples` through a shared evaluation
    /// stack: the positives' words come from its word index, the final
    /// consistency evaluation goes through its cache/evaluator (a stable
    /// hypothesis across interactions is a cache hit), and the caller's
    /// `coverage` — which a session maintains incrementally anyway — supplies
    /// the negative constraint words off its prefix tree.
    ///
    /// `exec` must serve `graph`, and `coverage` must reflect exactly the
    /// negatives of `examples`; when its bound differs from the learner's it
    /// is rebuilt at the learner's bound from the word index.
    pub fn learn_with(
        &self,
        graph: &CsrGraph,
        examples: &ExampleSet,
        coverage: &NegativeCoverage,
        exec: &EvalHandle,
    ) -> Result<LearnedQuery, LearnError> {
        if coverage.bound() != self.path_bound {
            let index = exec.bounded_words(self.path_bound);
            let rebuilt = NegativeCoverage::from_index(&index, examples.negatives());
            return self.learn_core(graph, examples, &rebuilt, exec);
        }
        self.learn_core(graph, examples, coverage, exec)
    }

    fn learn_core(
        &self,
        graph: &CsrGraph,
        examples: &ExampleSet,
        coverage: &NegativeCoverage,
        exec: &EvalHandle,
    ) -> Result<LearnedQuery, LearnError> {
        if examples.positive_count() == 0 {
            return Err(LearnError::NoPositiveExamples);
        }
        // Step (i): one uncovered word per positive example.
        let selected = select_paths(exec, examples, coverage, self.path_bound)?;
        let positive_words: Vec<Word> = selected.values().cloned().collect();

        // Negative constraint: every bounded word of every negative node,
        // plus the empty word (a nullable query degenerately selects *every*
        // node of every graph, so it can never be the intended path query).
        // The words come straight off the coverage's prefix tree (sorted; ε
        // sorts before every other word) — unless the uncapped trie outgrew
        // the learner's `max_paths_per_node` safety valve, in which case the
        // capped per-node enumeration keeps the PTA bounded.
        let covered = coverage.covered_words();
        let negative_words = if covered.len() > self.max_paths_per_node {
            self.negative_words(graph, examples)
        } else {
            let mut words: Vec<Word> = vec![Vec::new()];
            words.extend(covered);
            words
        };

        // Step (ii): PTA + state merging.
        let dfa = generalize(&positive_words, &negative_words);
        let regex = dfa_to_regex(&dfa);

        // Final consistency check against the actual graph semantics.
        let answer = (*exec.evaluate_compiled(&regex, &dfa)).clone();
        for negative in examples.negatives() {
            if answer.contains(negative) {
                return Err(LearnError::InconsistentResult { node: negative });
            }
        }
        Ok(LearnedQuery {
            regex,
            dfa,
            selected_paths: selected,
            answer,
        })
    }

    /// The words (up to the bound) of every negative node, plus ε (a nullable
    /// hypothesis would select every node and is never a meaningful path
    /// query).
    fn negative_words(&self, graph: &CsrGraph, examples: &ExampleSet) -> Vec<Word> {
        let negatives = examples.negatives();
        let mut words: Vec<Word> = vec![Vec::new()];
        let enumerator =
            PathEnumerator::new(self.path_bound).with_max_paths(self.max_paths_per_node);
        for node in negatives {
            words.extend(enumerator.words_from(graph, node));
        }
        words.sort();
        words.dedup();
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_automata::printer;
    use gps_graph::Graph;
    use gps_rpq::PathQuery;

    /// The full Figure 1 graph of the paper.
    fn figure1() -> CsrGraph {
        let mut g = Graph::new();
        for name in ["N1", "N2", "N3", "N4", "N5", "N6", "C1", "C2", "R1", "R2"] {
            g.add_node(name);
        }
        let n = |g: &Graph, name: &str| g.node_by_name(name).unwrap();
        let edges = [
            ("N1", "tram", "N4"),
            ("N2", "bus", "N1"),
            ("N2", "bus", "N3"),
            ("N3", "bus", "N2"),
            ("N2", "restaurant", "R1"),
            ("N4", "cinema", "C1"),
            ("N4", "bus", "N5"),
            ("N5", "tram", "N2"),
            ("N5", "restaurant", "R2"),
            ("N6", "tram", "N5"),
            ("N6", "cinema", "C2"),
            ("N3", "tram", "N6"),
        ];
        for (s, l, t) in edges {
            let s = n(&g, s);
            let t = n(&g, t);
            g.add_edge_by_name(s, l, t);
        }
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn learns_a_query_consistent_with_paper_examples() {
        let g = figure1();
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N2").unwrap());
        ex.add_positive(g.node_by_name("N6").unwrap());
        ex.add_negative(g.node_by_name("R1").unwrap());
        ex.add_negative(g.node_by_name("C1").unwrap());
        let learned = Learner::default().learn(&g, &ex).unwrap();
        assert!(learned.selects(g.node_by_name("N2").unwrap()));
        assert!(learned.selects(g.node_by_name("N6").unwrap()));
        assert!(!learned.selects(g.node_by_name("R1").unwrap()));
        assert!(!learned.selects(g.node_by_name("C1").unwrap()));
        // The regex is displayable.
        let display = printer::print(&learned.regex, g.labels());
        assert!(!display.is_empty());
    }

    #[test]
    fn validated_paths_steer_learning_to_the_goal_query() {
        let g = figure1();
        let bus = g.label_id("bus").unwrap();
        let tram = g.label_id("tram").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        let mut ex = ExampleSet::new();
        // The user validates bus·tram·cinema for N2 and cinema for N6, as in
        // the paper's narrative, and labels R1/R2 sinks and C1 negative.
        ex.set_validated_path(g.node_by_name("N2").unwrap(), vec![bus, tram, cinema]);
        ex.set_validated_path(g.node_by_name("N6").unwrap(), vec![cinema]);
        ex.add_negative(g.node_by_name("C1").unwrap());
        ex.add_negative(g.node_by_name("R1").unwrap());
        ex.add_negative(g.node_by_name("R2").unwrap());
        let learned = Learner::default().learn(&g, &ex).unwrap();
        // The learned query must behave like the goal query on the examples'
        // words: accept cinema-reaching words over {tram,bus}, reject others.
        assert!(learned.dfa.accepts(&[cinema]));
        assert!(learned.dfa.accepts(&[bus, tram, cinema]));
        assert!(!learned.dfa.accepts(&[bus]));
        assert!(!learned.dfa.accepts(&[]));
        // And on the graph it selects the paper's answer set:
        for name in ["N1", "N2", "N4", "N6"] {
            assert!(
                learned.selects(g.node_by_name(name).unwrap()),
                "{name} should be selected"
            );
        }
        for name in ["C1", "C2", "R1", "R2"] {
            assert!(
                !learned.selects(g.node_by_name(name).unwrap()),
                "{name} should not be selected"
            );
        }
    }

    #[test]
    fn no_positive_examples_is_an_error() {
        let g = figure1();
        let mut ex = ExampleSet::new();
        ex.add_negative(g.node_by_name("N5").unwrap());
        assert_eq!(
            Learner::default().learn(&g, &ex).unwrap_err(),
            LearnError::NoPositiveExamples
        );
    }

    #[test]
    fn without_negatives_learner_still_covers_positives() {
        let g = figure1();
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N4").unwrap());
        let learned = Learner::default().learn(&g, &ex).unwrap();
        assert!(learned.selects(g.node_by_name("N4").unwrap()));
    }

    #[test]
    fn inconsistent_labeling_is_detected() {
        let g = figure1();
        let mut ex = ExampleSet::new();
        // C2's only incoming structure means C2 has no outgoing paths; as a
        // positive it can never be selected by a non-nullable query.
        ex.add_positive(g.node_by_name("C2").unwrap());
        ex.add_negative(g.node_by_name("N5").unwrap());
        let err = Learner::default().learn(&g, &ex).unwrap_err();
        assert_eq!(
            err,
            LearnError::PositiveFullyCovered {
                node: g.node_by_name("C2").unwrap()
            }
        );
    }

    #[test]
    fn learned_query_is_equivalent_to_a_path_query_on_answers() {
        let g = figure1();
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N4").unwrap());
        ex.add_positive(g.node_by_name("N6").unwrap());
        ex.add_negative(g.node_by_name("N5").unwrap());
        ex.add_negative(g.node_by_name("R1").unwrap());
        let learned = Learner::default().learn(&g, &ex).unwrap();
        // Re-evaluating the produced regex as a PathQuery gives the same
        // answer as the DFA the learner evaluated internally.
        let q = PathQuery::new(learned.regex.clone());
        let reevaluated = q.evaluate(&g);
        assert_eq!(reevaluated.nodes(), learned.answer.nodes());
    }

    #[test]
    fn learn_with_matches_learn_exactly() {
        let g = figure1();
        let exec = EvalHandle::naive(&g);
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N2").unwrap());
        ex.add_positive(g.node_by_name("N6").unwrap());
        ex.add_negative(g.node_by_name("R1").unwrap());
        ex.add_negative(g.node_by_name("C1").unwrap());
        let learner = Learner::default();
        let coverage = NegativeCoverage::from_negatives(&g, ex.negatives(), learner.path_bound);
        let direct = learner.learn(&g, &ex).unwrap();
        let threaded = learner.learn_with(&g, &ex, &coverage, &exec).unwrap();
        assert_eq!(direct.regex, threaded.regex);
        assert_eq!(direct.answer, threaded.answer);
        assert_eq!(direct.selected_paths, threaded.selected_paths);
        // Repeating the same hypothesis is a cache hit.
        let before = exec.cache().stats();
        let again = learner.learn_with(&g, &ex, &coverage, &exec).unwrap();
        assert_eq!(again.answer, threaded.answer);
        assert_eq!(exec.cache().stats().0, before.0 + 1, "one more hit");
        // A coverage at the wrong bound is rebuilt rather than trusted.
        let coarse = NegativeCoverage::from_negatives(&g, ex.negatives(), 1);
        let rebuilt = learner.learn_with(&g, &ex, &coarse, &exec).unwrap();
        assert_eq!(rebuilt.regex, direct.regex);
        // Errors propagate identically.
        let empty = ExampleSet::new();
        let no_cov = NegativeCoverage::new(learner.path_bound);
        assert_eq!(
            learner.learn_with(&g, &empty, &no_cov, &exec).unwrap_err(),
            LearnError::NoPositiveExamples
        );
    }

    #[test]
    fn larger_bound_allows_longer_witnesses() {
        let g = figure1();
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N2").unwrap());
        let short = Learner::with_bound(1).learn(&g, &ex).unwrap();
        let long = Learner::with_bound(4).learn(&g, &ex).unwrap();
        assert!(short.selected_paths[&g.node_by_name("N2").unwrap()].len() <= 1);
        assert!(!long.selected_paths.is_empty());
    }
}
