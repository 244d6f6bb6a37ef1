//! Integration tests of the RPQ semantics on structured graphs: cycles,
//! disconnected components, queries whose language is infinite, and the
//! relationship between evaluation, witnesses and coverage.

use gps_automata::{Dfa, Regex};
use gps_graph::{CsrGraph, Graph, PathEnumerator};
use gps_rpq::{eval, witness, NegativeCoverage, PathQuery};

/// A two-component graph: a directed cycle a→b→c→a labeled `x` with one `y`
/// exit to a sink, and an isolated chain d→e labeled `z`.
fn cyclic_graph() -> CsrGraph {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let sink = g.add_node("sink");
    let d = g.add_node("d");
    let e = g.add_node("e");
    g.add_edge_by_name(a, "x", b);
    g.add_edge_by_name(b, "x", c);
    g.add_edge_by_name(c, "x", a);
    g.add_edge_by_name(c, "y", sink);
    g.add_edge_by_name(d, "z", e);
    CsrGraph::from_graph(&g)
}

#[test]
fn star_queries_select_every_cycle_node() {
    let g = cyclic_graph();
    let q = PathQuery::parse("x*.y", g.labels()).unwrap();
    let answer = q.evaluate(&g);
    // Every node of the cycle eventually reaches the y edge.
    for name in ["a", "b", "c"] {
        assert!(answer.contains(g.node_by_name(name).unwrap()), "{name}");
    }
    assert!(!answer.contains(g.node_by_name("sink").unwrap()));
    assert!(!answer.contains(g.node_by_name("d").unwrap()));
}

#[test]
fn witnesses_on_cycles_have_minimal_length() {
    let g = cyclic_graph();
    let q = PathQuery::parse("x*.y", g.labels()).unwrap();
    // c is one step from the exit, a is three steps (a→b→c→exit? no: a→b→c
    // then y — so 2 x-steps plus y).
    let wc = q.witness(&g, g.node_by_name("c").unwrap()).unwrap();
    assert_eq!(wc.len(), 1);
    let wa = q.witness(&g, g.node_by_name("a").unwrap()).unwrap();
    assert_eq!(wa.len(), 3);
    assert!(q.dfa().accepts(&wa.word));
}

#[test]
fn unbounded_repetition_is_handled_by_the_product_fixed_point() {
    let g = cyclic_graph();
    let x = g.label_id("x").unwrap();
    // A long fixed word x^10: the cycle provides it even though no simple
    // path is that long.
    let dfa = Dfa::from_regex(&Regex::word(&[x; 10]));
    let answer = eval::evaluate(&g, &dfa);
    assert!(answer.contains(g.node_by_name("a").unwrap()));
    let path = witness::shortest_witness(&g, &dfa, g.node_by_name("a").unwrap()).unwrap();
    assert_eq!(path.len(), 10);
    assert_eq!(path.nodes.len(), 11);
}

#[test]
fn components_do_not_leak_into_each_other() {
    let g = cyclic_graph();
    let qz = PathQuery::parse("z", g.labels()).unwrap();
    assert_eq!(qz.evaluate(&g).node_names(&g), vec!["d"]);
    let qx = PathQuery::parse("x", g.labels()).unwrap();
    assert!(!qx.evaluate(&g).contains(g.node_by_name("d").unwrap()));
}

#[test]
fn coverage_interacts_correctly_with_cycles() {
    let g = cyclic_graph();
    let a = g.node_by_name("a").unwrap();
    let b = g.node_by_name("b").unwrap();
    // Labeling a negative covers its bounded words (x, xx, xxx, xxy, …).
    let coverage = NegativeCoverage::from_negatives(&g, [a], 3);
    let x = g.label_id("x").unwrap();
    let y = g.label_id("y").unwrap();
    assert!(coverage.is_covered(&[x, x, x]));
    assert!(coverage.is_covered(&[x, x, y]));
    // b's word x·y is NOT one of a's bounded words (a needs two x's before y).
    assert!(!coverage.is_covered(&[x, y]));
    assert!(!coverage.is_uninformative(&g, b));
}

#[test]
fn bounded_enumeration_agrees_with_evaluation_on_finite_queries() {
    let g = cyclic_graph();
    let x = g.label_id("x").unwrap();
    let y = g.label_id("y").unwrap();
    let word = vec![x, x, y];
    let dfa = Dfa::from_regex(&Regex::word(&word));
    let answer = eval::evaluate(&g, &dfa);
    let enumerator = PathEnumerator::new(3);
    for node in g.nodes() {
        assert_eq!(
            answer.contains(node),
            enumerator.words_from(&g, node).contains(&word),
            "node {}",
            g.node_name(node)
        );
    }
}

#[test]
fn empty_and_universal_queries() {
    let g = cyclic_graph();
    let empty = Dfa::from_regex(&Regex::Empty);
    assert!(eval::evaluate(&g, &empty).is_empty());
    // Σ* selects every node (nullable).
    let x = g.label_id("x").unwrap();
    let y = g.label_id("y").unwrap();
    let z = g.label_id("z").unwrap();
    let sigma_star = Dfa::from_regex(&Regex::star(Regex::union([
        Regex::symbol(x),
        Regex::symbol(y),
        Regex::symbol(z),
    ])));
    assert_eq!(eval::evaluate(&g, &sigma_star).len(), g.node_count());
}

#[test]
fn accepted_word_counts_reflect_cycle_richness() {
    let g = cyclic_graph();
    let q = PathQuery::parse("x*.y", g.labels()).unwrap();
    let counts = eval::accepted_word_counts(&g, q.dfa(), 4);
    let c = g.node_by_name("c").unwrap();
    let d = g.node_by_name("d").unwrap();
    assert!(counts[&c] >= 2, "c has y and xxxy within bound 4");
    assert_eq!(counts[&d], 0);
}
