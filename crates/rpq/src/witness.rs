//! Witness-path extraction.
//!
//! When a node is selected by a query, the interactive layer needs a concrete
//! path demonstrating it — the paper's "relevant path" that is shown to the
//! user for validation.  [`shortest_witness`] performs a forward BFS over the
//! product of the graph with the query DFA and reconstructs a shortest
//! accepting path.

use gps_automata::Dfa;
use gps_graph::{CsrGraph, NodeId, Path};
use std::collections::{HashMap, VecDeque};

/// A `(graph node, DFA state)` configuration of the product search.
type Config = (NodeId, usize);

/// Parent links of the product BFS: configuration → (parent, edge label),
/// `None` for the start.  Also the set of visited configurations.
type ParentMap = HashMap<Config, Option<(Config, gps_graph::LabelId)>>;

/// Returns a shortest path starting at `node` whose word is accepted by
/// `dfa`, or `None` when no such path exists (the node is not selected).
pub fn shortest_witness(graph: &CsrGraph, dfa: &Dfa, node: NodeId) -> Option<Path> {
    let start_config = (node, dfa.start());
    if dfa.is_accepting(dfa.start()) {
        return Some(Path::empty(node));
    }
    // BFS over (graph node, DFA state) configurations, remembering the parent
    // configuration and the edge taken so the path can be reconstructed.
    let mut parents: ParentMap = HashMap::from([(start_config, None)]);
    let mut queue = VecDeque::from([start_config]);
    while let Some(config) = queue.pop_front() {
        let (current_node, current_state) = config;
        for entry in graph.out(current_node) {
            if let Some(target_state) = dfa.step(current_state, entry.label) {
                let next = (entry.node, target_state);
                if parents.contains_key(&next) {
                    continue;
                }
                parents.insert(next, Some((config, entry.label)));
                if dfa.is_accepting(target_state) {
                    return Some(reconstruct(node, next, &parents));
                }
                queue.push_back(next);
            }
        }
    }
    None
}

fn reconstruct(start: NodeId, accepting: Config, parents: &ParentMap) -> Path {
    let mut labels = Vec::new();
    let mut nodes = vec![accepting.0];
    let mut current = accepting;
    while let Some((parent, label)) = parents[&current] {
        labels.push(label);
        nodes.push(parent.0);
        current = parent;
    }
    labels.reverse();
    nodes.reverse();
    Path {
        start,
        word: labels,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_automata::Regex;
    use gps_graph::Graph;

    fn chain() -> CsrGraph {
        // N2 -bus-> N1 -tram-> N4 -cinema-> C1, plus N2 -restaurant-> R1.
        let mut g = Graph::new();
        let n2 = g.add_node("N2");
        let n1 = g.add_node("N1");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        let r1 = g.add_node("R1");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        g.add_edge_by_name(n2, "restaurant", r1);
        CsrGraph::from_graph(&g)
    }

    fn motivating(g: &CsrGraph) -> Dfa {
        let tram = g.label_id("tram").unwrap();
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::union([Regex::symbol(tram), Regex::symbol(bus)])),
            Regex::symbol(cinema),
        ]))
    }

    #[test]
    fn witness_is_shortest_and_accepted() {
        let g = chain();
        let dfa = motivating(&g);
        let n2 = g.node_by_name("N2").unwrap();
        let path = shortest_witness(&g, &dfa, n2).unwrap();
        assert_eq!(path.start, n2);
        assert_eq!(path.len(), 3, "bus·tram·cinema is the shortest witness");
        assert!(dfa.accepts(&path.word));
        assert_eq!(path.render_word(&g), "bus·tram·cinema");
        assert_eq!(path.nodes.len(), 4);
        assert_eq!(path.nodes[0], n2);
    }

    #[test]
    fn unselected_node_has_no_witness() {
        let g = chain();
        let dfa = motivating(&g);
        let c1 = g.node_by_name("C1").unwrap();
        let r1 = g.node_by_name("R1").unwrap();
        assert!(shortest_witness(&g, &dfa, c1).is_none());
        assert!(shortest_witness(&g, &dfa, r1).is_none());
    }

    #[test]
    fn nullable_query_gives_empty_witness() {
        let g = chain();
        let tram = g.label_id("tram").unwrap();
        let dfa = Dfa::from_regex(&Regex::star(Regex::symbol(tram)));
        let c1 = g.node_by_name("C1").unwrap();
        let path = shortest_witness(&g, &dfa, c1).unwrap();
        assert!(path.is_empty());
    }

    #[test]
    fn witness_on_cyclic_graph_terminates() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "x", a);
        let x = g.label_id("x").unwrap();
        let y = g.label("y");
        let g = CsrGraph::from_graph(&g);
        // Query x·x·x·x·x — witness loops around the cycle.
        let dfa = Dfa::from_regex(&Regex::word(&[x; 5]));
        let path = shortest_witness(&g, &dfa, a).unwrap();
        assert_eq!(path.len(), 5);
        assert!(dfa.accepts(&path.word));
        // Query with no accepted word from this graph: label y has no edge.
        let dfa2 = Dfa::from_regex(&Regex::symbol(y));
        assert!(shortest_witness(&g, &dfa2, a).is_none());
    }
}
