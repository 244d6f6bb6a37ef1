//! Characteristic samples.
//!
//! The companion research paper shows that after a number of examples
//! polynomial in the size of the goal query, the learner returns a query
//! equivalent to the goal.  This module builds such *characteristic* example
//! sets for a goal query on a given graph: it labels every node by the goal
//! query's answer and attaches, to each positive node, the witness word the
//! goal query accepts — exactly the information a perfectly cooperative user
//! would provide through the interactive protocol with path validation.

use crate::examples::ExampleSet;
use gps_graph::CsrGraph;
use gps_rpq::PathQuery;

/// Builds the example set a fully cooperative user would provide for `goal`
/// on `graph`: every selected node is a positive example with its shortest
/// witness path validated, every other node is a negative example.
pub fn characteristic_sample(graph: &CsrGraph, goal: &PathQuery) -> ExampleSet {
    let answer = goal.evaluate(graph);
    let mut examples = ExampleSet::new();
    for node in graph.nodes() {
        if answer.contains(node) {
            match goal.witness(graph, node) {
                Some(path) => examples.set_validated_path(node, path.word),
                None => {
                    // Selected without a finite witness can only happen for
                    // nullable queries (ε-witness); record the positive label
                    // with the empty word.
                    examples.set_validated_path(node, Vec::new());
                }
            }
        } else {
            examples.add_negative(node);
        }
    }
    examples
}

/// Builds a *partial* characteristic sample containing at most
/// `max_positives` positive and `max_negatives` negative examples (taken in
/// node-id order).  Used by the experiments that study convergence as a
/// function of the number of examples.
pub fn partial_sample(
    graph: &CsrGraph,
    goal: &PathQuery,
    max_positives: usize,
    max_negatives: usize,
) -> ExampleSet {
    let full = characteristic_sample(graph, goal);
    let mut examples = ExampleSet::new();
    for node in full.positives().into_iter().take(max_positives) {
        match full.validated_path(node) {
            Some(word) => examples.set_validated_path(node, word.clone()),
            None => {
                examples.add_positive(node);
            }
        }
    }
    for node in full.negatives().into_iter().take(max_negatives) {
        examples.add_negative(node);
    }
    examples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::Learner;
    use gps_graph::Graph;

    fn transport_graph() -> CsrGraph {
        let mut g = Graph::new();
        for name in ["N1", "N2", "N3", "N4", "C1", "C2", "R1"] {
            g.add_node(name);
        }
        let n = |g: &Graph, name: &str| g.node_by_name(name).unwrap();
        let edges = [
            ("N1", "tram", "N2"),
            ("N2", "bus", "N3"),
            ("N3", "cinema", "C1"),
            ("N4", "cinema", "C2"),
            ("N1", "restaurant", "R1"),
        ];
        for (s, l, t) in edges {
            let s = n(&g, s);
            let t = n(&g, t);
            g.add_edge_by_name(s, l, t);
        }
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn characteristic_sample_labels_every_node() {
        let g = transport_graph();
        let goal = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let sample = characteristic_sample(&g, &goal);
        assert_eq!(sample.len(), g.node_count());
        // Positives are exactly the goal answer.
        let answer = goal.evaluate(&g);
        for node in g.nodes() {
            assert_eq!(
                answer.contains(node),
                sample.positives().contains(&node),
                "node {}",
                g.node_name(node)
            );
        }
    }

    #[test]
    fn positives_carry_accepted_witness_words() {
        let g = transport_graph();
        let goal = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let sample = characteristic_sample(&g, &goal);
        for node in sample.positives() {
            let word = sample.validated_path(node).expect("witness recorded");
            assert!(goal.dfa().accepts(word));
        }
    }

    #[test]
    fn learner_recovers_goal_behaviour_from_characteristic_sample() {
        let g = transport_graph();
        let goal = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let sample = characteristic_sample(&g, &goal);
        let learned = Learner::default().learn(&g, &sample).unwrap();
        let goal_answer = goal.evaluate(&g);
        assert_eq!(learned.answer.nodes(), goal_answer.nodes());
    }

    #[test]
    fn partial_sample_respects_limits() {
        let g = transport_graph();
        let goal = PathQuery::parse("cinema", g.labels()).unwrap();
        let sample = partial_sample(&g, &goal, 1, 2);
        assert!(sample.positive_count() <= 1);
        assert!(sample.negative_count() <= 2);
        let full = partial_sample(&g, &goal, usize::MAX, usize::MAX);
        assert_eq!(full.len(), g.node_count());
    }

    #[test]
    fn nullable_goal_marks_all_nodes_positive() {
        let g = transport_graph();
        let goal = PathQuery::parse("tram*", g.labels()).unwrap();
        let sample = characteristic_sample(&g, &goal);
        assert_eq!(sample.positive_count(), g.node_count());
        assert_eq!(sample.negative_count(), 0);
        // Every witness is the empty word or an accepted word.
        for node in sample.positives() {
            let word = sample.validated_path(node).unwrap();
            assert!(goal.dfa().accepts(word));
        }
    }
}
