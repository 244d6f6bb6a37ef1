//! Bounded path enumeration.
//!
//! In the GPS model a node is selected by a query `q` when one of its paths
//! spells a word of `L(q)`.  The learner and the interactive layer therefore
//! need, for a given node, the set of *words* (label sequences) spelled by
//! paths of bounded length starting at that node, together with witness node
//! sequences.  Paths are walks: nodes and edges may repeat, which is why a
//! length bound (and optionally a result cap) is always applied.

use crate::csr::CsrGraph;
use crate::ids::{LabelId, NodeId};
use std::collections::BTreeSet;

/// A word: the sequence of edge labels spelled by a path.
pub type Word = Vec<LabelId>;

/// A concrete path: the start node, the word it spells and the sequence of
/// nodes visited (always one longer than the word).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Path {
    /// Node the path starts from.
    pub start: NodeId,
    /// Labels along the path, in order.
    pub word: Word,
    /// Nodes along the path, `nodes[0] == start`, `nodes.len() == word.len() + 1`.
    pub nodes: Vec<NodeId>,
}

impl Path {
    /// The empty path at `start`.
    pub fn empty(start: NodeId) -> Self {
        Self {
            start,
            word: Vec::new(),
            nodes: vec![start],
        }
    }

    /// Length of the path in edges.
    pub fn len(&self) -> usize {
        self.word.len()
    }

    /// Returns `true` for the empty path.
    pub fn is_empty(&self) -> bool {
        self.word.is_empty()
    }

    /// The node the path ends at.
    pub fn end(&self) -> NodeId {
        *self
            .nodes
            .last()
            .expect("path always has at least one node")
    }

    /// Extends the path by one edge.
    pub fn extend(&self, label: LabelId, target: NodeId) -> Self {
        let mut word = self.word.clone();
        word.push(label);
        let mut nodes = self.nodes.clone();
        nodes.push(target);
        Self {
            start: self.start,
            word,
            nodes,
        }
    }

    /// Renders the word using the graph's label names, e.g. `bus·bus·cinema`.
    pub fn render_word(&self, graph: &CsrGraph) -> String {
        render_word(graph, &self.word)
    }
}

/// Renders a word using the graph's label names, joining labels with `·`.
pub fn render_word(graph: &CsrGraph, word: &[LabelId]) -> String {
    if word.is_empty() {
        return "ε".to_string();
    }
    word.iter()
        .map(|&l| graph.label_name(l).unwrap_or("?").to_string())
        .collect::<Vec<_>>()
        .join("·")
}

/// The number of paths a default [`PathEnumerator`] stops at.
pub const DEFAULT_MAX_PATHS: usize = 100_000;

/// Configurable enumerator of bounded paths from a node.
#[derive(Debug, Clone)]
pub struct PathEnumerator {
    max_length: usize,
    max_paths: usize,
}

impl Default for PathEnumerator {
    fn default() -> Self {
        Self {
            max_length: 4,
            max_paths: DEFAULT_MAX_PATHS,
        }
    }
}

impl PathEnumerator {
    /// Creates an enumerator for paths of at most `max_length` edges.
    pub fn new(max_length: usize) -> Self {
        Self {
            max_length,
            ..Self::default()
        }
    }

    /// Caps the number of enumerated paths (a safety valve against
    /// combinatorial explosion on dense graphs).
    pub fn with_max_paths(mut self, max_paths: usize) -> Self {
        self.max_paths = max_paths;
        self
    }

    /// Enumerates all paths of length `1..=max_length` starting at `start`
    /// (never the empty path: the paper's queries never select via the empty
    /// word), in breadth-first (shortest first) order, deterministically
    /// following edge insertion order.
    pub fn paths_from(&self, graph: &CsrGraph, start: NodeId) -> Vec<Path> {
        let mut result = Vec::new();
        let mut frontier = vec![Path::empty(start)];
        for _ in 0..self.max_length {
            let mut next_frontier = Vec::new();
            for path in &frontier {
                for entry in graph.out(path.end()) {
                    if result.len() >= self.max_paths {
                        return result;
                    }
                    let extended = path.extend(entry.label, entry.node);
                    result.push(extended.clone());
                    next_frontier.push(extended);
                }
            }
            if next_frontier.is_empty() {
                break;
            }
            frontier = next_frontier;
        }
        result
    }

    /// The set of distinct words spelled by paths from `start`.
    pub fn words_from(&self, graph: &CsrGraph, start: NodeId) -> BTreeSet<Word> {
        self.paths_from(graph, start)
            .into_iter()
            .map(|p| p.word)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// The Figure 1 sub-structure around N2 used in Figure 3(c):
    /// N2 -bus-> N1, N2 -bus-> N3, N2 -restaurant-> R1,
    /// N1 -tram-> N4, N1 -bus-> N2*, N3 -bus-> N2*, N4 -cinema-> C1.
    /// (*cycles kept to exercise walk semantics)
    fn n2_fragment() -> (CsrGraph, NodeId) {
        let mut g = Graph::new();
        let n1 = g.add_node("N1");
        let n2 = g.add_node("N2");
        let n3 = g.add_node("N3");
        let n4 = g.add_node("N4");
        let _c1 = g.add_node("C1");
        let _r1 = g.add_node("R1");
        let c1 = g.node_by_name("C1").unwrap();
        let r1 = g.node_by_name("R1").unwrap();
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n2, "bus", n3);
        g.add_edge_by_name(n2, "restaurant", r1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n1, "bus", n2);
        g.add_edge_by_name(n3, "bus", n2);
        g.add_edge_by_name(n4, "cinema", c1);
        (CsrGraph::from_graph(&g), n2)
    }

    #[test]
    fn empty_path_shape() {
        let (_, n2) = n2_fragment();
        let p = Path::empty(n2);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.end(), n2);
    }

    #[test]
    fn extension_appends_label_and_node() {
        let (g, n2) = n2_fragment();
        let n1 = g.node_by_name("N1").unwrap();
        let bus = g.label_id("bus").unwrap();
        let p = Path::empty(n2).extend(bus, n1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.end(), n1);
        assert_eq!(p.word, vec![bus]);
        assert_eq!(p.nodes, vec![n2, n1]);
    }

    #[test]
    fn enumeration_is_shortest_first() {
        let (g, n2) = n2_fragment();
        let paths = PathEnumerator::new(3).paths_from(&g, n2);
        assert!(!paths.is_empty());
        for window in paths.windows(2) {
            assert!(window[0].len() <= window[1].len());
        }
    }

    #[test]
    fn figure3c_contains_bus_bus_cinema_word_length_bound() {
        let (g, n2) = n2_fragment();
        let words = PathEnumerator::new(3).words_from(&g, n2);
        let bus = g.label_id("bus").unwrap();
        let tram = g.label_id("tram").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        let restaurant = g.label_id("restaurant").unwrap();
        // Words of N2 of length <= 3 include bus·tram·cinema (the path of
        // interest in the paper) and restaurant.
        assert!(words.contains(&vec![bus, tram, cinema]));
        assert!(words.contains(&vec![restaurant]));
        // And nothing longer than 3.
        assert!(words.iter().all(|w| w.len() <= 3 && !w.is_empty()));
    }

    #[test]
    fn cycles_produce_repeated_label_walks() {
        let (g, n2) = n2_fragment();
        let bus = g.label_id("bus").unwrap();
        let words = PathEnumerator::new(3).words_from(&g, n2);
        // N2 -bus-> N1 -bus-> N2 -bus-> N3 is a legal walk.
        assert!(words.contains(&vec![bus, bus, bus]));
    }

    #[test]
    fn max_paths_caps_enumeration() {
        let (g, n2) = n2_fragment();
        let paths = PathEnumerator::new(6).with_max_paths(5).paths_from(&g, n2);
        assert_eq!(paths.len(), 5);
    }

    #[test]
    fn the_empty_word_is_never_enumerated() {
        let (g, n2) = n2_fragment();
        let words = PathEnumerator::new(1).words_from(&g, n2);
        assert!(!words.is_empty());
        assert!(!words.contains(&Vec::new()));
    }

    #[test]
    fn sink_node_has_no_nonempty_paths() {
        let (g, _) = n2_fragment();
        let c1 = g.node_by_name("C1").unwrap();
        let paths = PathEnumerator::new(4).paths_from(&g, c1);
        assert!(paths.is_empty());
    }

    #[test]
    fn render_word_uses_label_names() {
        let (g, n2) = n2_fragment();
        let bus = g.label_id("bus").unwrap();
        let tram = g.label_id("tram").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        assert_eq!(render_word(&g, &[bus, tram, cinema]), "bus·tram·cinema");
        assert_eq!(render_word(&g, &[]), "ε");
        let p = Path::empty(n2).extend(bus, g.node_by_name("N1").unwrap());
        assert_eq!(p.render_word(&g), "bus");
    }

    #[test]
    fn max_length_zero_yields_nothing() {
        let (g, n2) = n2_fragment();
        assert!(PathEnumerator::new(0).paths_from(&g, n2).is_empty());
    }
}
