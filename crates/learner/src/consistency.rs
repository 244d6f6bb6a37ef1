//! Consistency checks.
//!
//! A query is *consistent* with a set of examples when it selects every
//! positive node and no negative node.  The static-labeling scenario of the
//! demo also needs to detect example sets for which *no* query (within the
//! length bound) can be consistent — e.g. when a positive node's every
//! bounded path is covered by negative nodes.

use crate::examples::ExampleSet;
use gps_graph::{GraphBackend, NodeId};
use gps_rpq::{EvalHandle, NegativeCoverage, PathQuery, QueryAnswer};

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

/// Checks whether `query` is consistent with `examples` on `graph`.
pub fn check_query<B: GraphBackend>(
    graph: &B,
    query: &PathQuery,
    examples: &ExampleSet,
) -> Consistency {
    check_answer(&query.evaluate(graph), examples)
}

/// Checks an already-computed answer against the example set.
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

/// A reason why an example set cannot admit any consistent query within the
/// given path-length bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Infeasibility {
    /// A positive node has no path at all (within the bound) that is not
    /// covered by the negative examples.
    PositiveCovered(NodeId),
}

/// Checks whether the example set is *satisfiable* within the path-length
/// bound: every positive node must have at least one bounded path not covered
/// by the negative nodes.  Returns the first obstruction found, or `None`
/// when the set is satisfiable.
///
/// This is the test the static-labeling scenario uses to tell the user her
/// labeling is inconsistent.  Words are read from `exec`'s word index.
pub fn check_satisfiable(
    exec: &EvalHandle,
    examples: &ExampleSet,
    bound: usize,
) -> Option<Infeasibility> {
    let index = exec.bounded_words(bound);
    let coverage = NegativeCoverage::from_index(&index, examples.negatives());
    examples
        .positives()
        .into_iter()
        .find(|positive| {
            index[positive.index()]
                .iter()
                .all(|w| coverage.is_covered(w))
        })
        .map(Infeasibility::PositiveCovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::Graph;

    /// N2 -bus-> N1 -tram-> N4 -cinema-> C1; N5 -bus-> N1 (so N5's only
    /// words are prefixes of bus·tram·cinema); N6 -cinema-> C2.
    fn sample() -> Graph {
        let mut g = Graph::new();
        let n2 = g.add_node("N2");
        let n1 = g.add_node("N1");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        let n5 = g.add_node("N5");
        let n6 = g.add_node("N6");
        let c2 = g.add_node("C2");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        g.add_edge_by_name(n5, "bus", n1);
        g.add_edge_by_name(n6, "cinema", c2);
        g
    }

    #[test]
    fn consistent_query_passes() {
        let g = sample();
        let q = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N2").unwrap());
        ex.add_positive(g.node_by_name("N6").unwrap());
        ex.add_negative(g.node_by_name("C1").unwrap());
        assert_eq!(check_query(&g, &q, &ex), Consistency::Consistent);
        assert!(check_query(&g, &q, &ex).is_consistent());
    }

    #[test]
    fn missing_positive_is_reported() {
        let g = sample();
        let q = PathQuery::parse("cinema", g.labels()).unwrap();
        let mut ex = ExampleSet::new();
        let n2 = g.node_by_name("N2").unwrap();
        ex.add_positive(n2);
        assert_eq!(check_query(&g, &q, &ex), Consistency::MissesPositive(n2));
    }

    #[test]
    fn selected_negative_is_reported() {
        let g = sample();
        let q = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let mut ex = ExampleSet::new();
        ex.add_positive(g.node_by_name("N2").unwrap());
        let n4 = g.node_by_name("N4").unwrap();
        ex.add_negative(n4);
        assert_eq!(check_query(&g, &q, &ex), Consistency::SelectsNegative(n4));
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

    #[test]
    fn satisfiability_detects_covered_positives() {
        let g = sample();
        let n2 = g.node_by_name("N2").unwrap();
        let n5 = g.node_by_name("N5").unwrap();
        let mut ex = ExampleSet::new();
        // N5's words (bus, bus·tram, bus·tram·cinema) are a superset of N2's
        // words within bound 3, so labeling N5 negative and N2 positive is
        // unsatisfiable within that bound.
        ex.add_positive(n2);
        ex.add_negative(n5);
        assert_eq!(
            check_satisfiable(&EvalHandle::naive(&g), &ex, 3),
            Some(Infeasibility::PositiveCovered(n2))
        );
        // A positive whose words are not all covered is fine: N1's words
        // (tram, tram·cinema) are disjoint from N2's bus-prefixed words.
        let n1 = g.node_by_name("N1").unwrap();
        let mut ex2 = ExampleSet::new();
        ex2.add_positive(n1);
        ex2.add_negative(n2);
        assert_eq!(check_satisfiable(&EvalHandle::naive(&g), &ex2, 3), None);
    }

    #[test]
    fn empty_example_set_is_satisfiable() {
        let g = sample();
        assert_eq!(
            check_satisfiable(&EvalHandle::naive(&g), &ExampleSet::new(), 3),
            None
        );
    }
}
