//! Compiled path queries.

use crate::eval::QueryAnswer;
use crate::witness::shortest_witness;
use gps_automata::parser::{self, ParseError};
use gps_automata::printer;
use gps_automata::{Dfa, Regex};
use gps_graph::{CsrGraph, LabelInterner, NodeId, Path};

/// A path query: a regular expression over edge labels together with its
/// compiled minimal DFA.
///
/// A node `v` is selected by the query iff some path starting at `v` spells a
/// word of the expression's language.
#[derive(Debug, Clone)]
pub struct PathQuery {
    regex: Regex,
    dfa: Dfa,
}

impl PathQuery {
    /// Compiles a query from a regular expression.
    pub fn new(regex: Regex) -> Self {
        let dfa = Dfa::from_regex(&regex);
        Self { regex, dfa }
    }

    /// Parses and compiles a query written in the paper's concrete syntax,
    /// e.g. `(tram+bus)*.cinema`.
    pub fn parse(input: &str, labels: &LabelInterner) -> Result<Self, ParseError> {
        Ok(Self::new(parser::parse(input, labels)?))
    }

    /// The query's regular expression.
    pub fn regex(&self) -> &Regex {
        &self.regex
    }

    /// The query's minimal DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// Renders the query in the paper's syntax using the graph's label names.
    pub fn display(&self, labels: &LabelInterner) -> String {
        printer::print(&self.regex, labels)
    }

    /// Evaluates the query on `graph` with the reference evaluator, returning
    /// the set of selected nodes.
    pub fn evaluate(&self, graph: &CsrGraph) -> QueryAnswer {
        crate::eval::evaluate(graph, &self.dfa)
    }

    /// Returns `true` if `node` is selected by the query on `graph`.
    pub fn selects(&self, graph: &CsrGraph, node: NodeId) -> bool {
        self.evaluate(graph).contains(node)
    }

    /// Returns a shortest witness path for `node` (a path spelling an
    /// accepted word), or `None` when the node is not selected.
    pub fn witness(&self, graph: &CsrGraph, node: NodeId) -> Option<Path> {
        shortest_witness(graph, &self.dfa, node)
    }

    /// Returns `true` when the two queries select the same nodes on every
    /// graph over the given alphabet (language equivalence).
    pub fn equivalent(&self, other: &PathQuery, labels: &LabelInterner) -> bool {
        let alphabet = gps_automata::Alphabet::from_interner(labels);
        gps_automata::decide::equivalent(&self.dfa, &other.dfa, &alphabet)
    }
}

impl From<Regex> for PathQuery {
    fn from(regex: Regex) -> Self {
        Self::new(regex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::Graph;

    fn figure1_like() -> CsrGraph {
        let mut g = Graph::new();
        let n1 = g.add_node("N1");
        let n2 = g.add_node("N2");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn parse_and_evaluate() {
        let g = figure1_like();
        let q = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let answer = q.evaluate(&g);
        assert!(answer.contains(g.node_by_name("N1").unwrap()));
        assert!(answer.contains(g.node_by_name("N2").unwrap()));
        assert!(answer.contains(g.node_by_name("N4").unwrap()));
        assert!(!answer.contains(g.node_by_name("C1").unwrap()));
    }

    #[test]
    fn selects_single_node() {
        let g = figure1_like();
        let q = PathQuery::parse("cinema", g.labels()).unwrap();
        assert!(q.selects(&g, g.node_by_name("N4").unwrap()));
        assert!(!q.selects(&g, g.node_by_name("N2").unwrap()));
    }

    #[test]
    fn witness_path_spells_an_accepted_word() {
        let g = figure1_like();
        let q = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let n2 = g.node_by_name("N2").unwrap();
        let path = q.witness(&g, n2).unwrap();
        assert_eq!(path.start, n2);
        assert!(q.dfa().accepts(&path.word));
        assert!(q.witness(&g, g.node_by_name("C1").unwrap()).is_none());
    }

    #[test]
    fn display_round_trips_through_parser() {
        let g = figure1_like();
        let q = PathQuery::parse("(tram + bus)* · cinema", g.labels()).unwrap();
        let displayed = q.display(g.labels());
        let reparsed = PathQuery::parse(&displayed, g.labels()).unwrap();
        assert_eq!(q.regex(), reparsed.regex());
    }

    #[test]
    fn nesting_is_bounded_and_the_bound_is_safe_downstream() {
        use gps_automata::parser::MAX_NESTING;
        let g = figure1_like();
        assert_eq!(
            PathQuery::parse(&"(".repeat(100_000), g.labels()).unwrap_err(),
            ParseError::TooDeep {
                offset: MAX_NESTING
            }
        );
        // The deepest accepted query, every level a star the constructors
        // cannot collapse: compiling it (Thompson, determinize, minimize),
        // printing it and dropping it all recurse on this depth.
        let deepest = format!(
            "{}tram{}",
            "(".repeat(MAX_NESTING),
            ")*.bus".repeat(MAX_NESTING)
        );
        let q = PathQuery::parse(&deepest, g.labels()).unwrap();
        assert_eq!(q.regex().star_height(), MAX_NESTING);
        let bus = g.label_id("bus").unwrap();
        let tram = g.label_id("tram").unwrap();
        let mut word = vec![tram];
        word.resize(1 + MAX_NESTING, bus);
        assert!(q.dfa().accepts(&word) && !q.dfa().accepts(&word[..MAX_NESTING]));
        let reparsed = PathQuery::parse(&q.display(g.labels()), g.labels()).unwrap();
        assert_eq!(q.regex(), reparsed.regex());
    }

    #[test]
    fn equivalence_of_queries() {
        let g = figure1_like();
        let q1 = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        let q2 = PathQuery::parse("(bus+tram)*.cinema", g.labels()).unwrap();
        let q3 = PathQuery::parse("bus", g.labels()).unwrap();
        assert!(q1.equivalent(&q2, g.labels()));
        assert!(!q1.equivalent(&q3, g.labels()));
    }

    #[test]
    fn query_from_regex_conversion() {
        let g = figure1_like();
        let cinema = g.label_id("cinema").unwrap();
        let q: PathQuery = Regex::symbol(cinema).into();
        assert!(q.selects(&g, g.node_by_name("N4").unwrap()));
    }
}
