//! Consistency checks.
//!
//! A query is *consistent* with a set of examples when it selects every
//! positive node and no negative node.  An example set for which *no* query
//! within the length bound can be consistent — a positive node whose every
//! bounded path is covered by negative nodes — is reported by the learner
//! itself, as [`LearnError::PositiveFullyCovered`](crate::LearnError).

use crate::examples::ExampleSet;
use gps_graph::NodeId;
use gps_rpq::QueryAnswer;

/// The verdict of checking a query against an example set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Consistency {
    /// The query selects all positives and no negatives.
    Consistent,
    /// A positive node is not selected.
    MissesPositive(NodeId),
    /// A negative node is selected.
    SelectsNegative(NodeId),
}

impl Consistency {
    /// Returns `true` for [`Consistency::Consistent`].
    pub fn is_consistent(&self) -> bool {
        matches!(self, Consistency::Consistent)
    }
}

/// Checks whether a query's `answer` is consistent with `examples`.
pub fn check_answer(answer: &QueryAnswer, examples: &ExampleSet) -> Consistency {
    for node in examples.positives() {
        if !answer.contains(node) {
            return Consistency::MissesPositive(node);
        }
    }
    for node in examples.negatives() {
        if answer.contains(node) {
            return Consistency::SelectsNegative(node);
        }
    }
    Consistency::Consistent
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{CsrGraph, Graph};
    use gps_rpq::PathQuery;

    /// N2 -bus-> N1 -tram-> N4 -cinema-> C1; N6 -cinema-> C2.
    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let n2 = g.add_node("N2");
        let n1 = g.add_node("N1");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        let n6 = g.add_node("N6");
        let c2 = g.add_node("C2");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        g.add_edge_by_name(n6, "cinema", c2);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn consistent_query_passes() {
        let g = sample();
        let q = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N2").unwrap());
        ex.add_positive(g.node_by_name("N6").unwrap());
        ex.add_negative(g.node_by_name("C1").unwrap());
        assert_eq!(check_answer(&q.evaluate(&g), &ex), Consistency::Consistent);
        assert!(check_answer(&q.evaluate(&g), &ex).is_consistent());
    }

    #[test]
    fn missing_positive_is_reported() {
        let g = sample();
        let q = PathQuery::parse("cinema", g.labels()).unwrap();
        let mut ex = ExampleSet::new();
        let n2 = g.node_by_name("N2").unwrap();
        ex.add_positive(n2);
        assert_eq!(
            check_answer(&q.evaluate(&g), &ex),
            Consistency::MissesPositive(n2)
        );
    }

    #[test]
    fn selected_negative_is_reported() {
        let g = sample();
        let q = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N2").unwrap());
        let n4 = g.node_by_name("N4").unwrap();
        ex.add_negative(n4);
        assert_eq!(
            check_answer(&q.evaluate(&g), &ex),
            Consistency::SelectsNegative(n4)
        );
    }

    #[test]
    fn check_answer_works_on_precomputed_answers() {
        let g = sample();
        let q = PathQuery::parse("cinema", g.labels()).unwrap();
        let answer = q.evaluate(&g);
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N4").unwrap());
        ex.add_positive(g.node_by_name("N6").unwrap());
        ex.add_negative(g.node_by_name("N2").unwrap());
        assert_eq!(check_answer(&answer, &ex), Consistency::Consistent);
        // Positives are checked before negatives: an answer violating both
        // reports the missing positive first.
        let mut ex2 = ExampleSet::new();
        ex2.add_positive(g.node_by_name("N2").unwrap());
        ex2.add_negative(g.node_by_name("N4").unwrap());
        assert_eq!(
            check_answer(&answer, &ex2),
            Consistency::MissesPositive(g.node_by_name("N2").unwrap())
        );
    }
}
