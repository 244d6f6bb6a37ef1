//! Textual rendering of graph fragments and prefix trees.
//!
//! The demo shows the user small graph fragments and prefix trees in a GUI.
//! This reproduction renders the same information as text: every node of the
//! neighborhood with its distance ring, its outgoing edges inside the
//! fragment, a "…" marker when more of the graph is reachable but not shown
//! (Figure 3(a)), a `*new*` marker on nodes revealed by the last zoom
//! (Figure 3(b)), and an indented prefix tree with a `◀ candidate` marker on
//! the suggested path (Figure 3(c)).

use gps_graph::{CsrGraph, Neighborhood, NeighborhoodDelta, NodeId, PrefixTree, Word};

/// Renders a neighborhood as indented text.
///
/// `delta` — when rendering the result of a zoom-out, the nodes added by the
/// zoom are marked `*new*`, mirroring the blue highlighting of Figure 3(b).
pub fn render_neighborhood(
    graph: &CsrGraph,
    neighborhood: &Neighborhood,
    delta: Option<&NeighborhoodDelta>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "neighborhood of {} (radius {})\n",
        graph.node_name(neighborhood.center()),
        neighborhood.radius()
    ));
    let is_new = |node: NodeId| {
        delta
            .map(|d| d.added_nodes.contains(&node))
            .unwrap_or(false)
    };
    for &(node, distance) in neighborhood.nodes() {
        let marker = if node == neighborhood.center() {
            " (proposed)"
        } else if is_new(node) {
            " *new*"
        } else {
            ""
        };
        out.push_str(&format!(
            "  [{distance}] {}{marker}\n",
            graph.node_name(node)
        ));
        for edge in neighborhood.edges().iter().filter(|e| e.source == node) {
            out.push_str(&format!(
                "      --{}--> {}\n",
                graph.label_name(edge.label).unwrap_or("?"),
                graph.node_name(edge.target)
            ));
        }
        if neighborhood.continuations().contains(&node) {
            out.push_str("      --…\n");
        }
    }
    out
}

/// Renders a prefix tree of candidate words, marking the suggested path.
pub fn render_prefix_tree(graph: &CsrGraph, tree: &PrefixTree, suggested: &Word) -> String {
    let mut out = String::new();
    out.push_str("candidate paths\n");
    // Track, for each depth, the word spelled so far so we can compare the
    // full word at terminal nodes with the suggestion.
    let mut current: Word = Vec::new();
    tree.walk(|depth, label, _node, terminal| {
        current.truncate(depth);
        current.push(label);
        let name = graph.label_name(label).unwrap_or("?");
        let indent = "  ".repeat(depth + 1);
        let mut line = format!("{indent}{name}");
        if terminal {
            line.push_str(" ●");
            if &current == suggested {
                line.push_str("  ◀ candidate");
            }
        }
        line.push('\n');
        out.push_str(&line);
    });
    out
}

/// Renders a one-line description of a labeled answer set, e.g.
/// `{N1, N2, N4, N6}`.
pub fn render_node_set(graph: &CsrGraph, nodes: &[NodeId]) -> String {
    let names: Vec<&str> = nodes.iter().map(|&n| graph.node_name(n)).collect();
    format!("{{{}}}", names.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_datasets::figure1::figure1_graph;
    use gps_graph::PathEnumerator;

    #[test]
    fn neighborhood_rendering_mentions_nodes_and_continuations() {
        let (g, ids) = figure1_graph();
        let g = CsrGraph::from_graph(&g);
        let hood = Neighborhood::extract(&g, ids.n2, 2);
        let text = render_neighborhood(&g, &hood, None);
        assert!(text.contains("neighborhood of N2 (radius 2)"));
        assert!(text.contains("(proposed)"));
        assert!(text.contains("--bus--> N1"));
        assert!(text.contains("--…"), "continuation marker present");
        assert!(!text.contains("C1"), "the cinema is outside radius 2");
    }

    #[test]
    fn zoom_rendering_marks_new_nodes() {
        let (g, ids) = figure1_graph();
        let g = CsrGraph::from_graph(&g);
        let hood2 = Neighborhood::extract(&g, ids.n2, 2);
        let (hood3, delta) = hood2.zoom_out(&g);
        let text = render_neighborhood(&g, &hood3, Some(&delta));
        assert!(text.contains("C1 *new*"));
        assert!(!text.contains("N1 *new*"), "old nodes are not marked");
    }

    #[test]
    fn prefix_tree_rendering_marks_the_candidate() {
        let (g, ids) = figure1_graph();
        let g = CsrGraph::from_graph(&g);
        let words: Vec<_> = PathEnumerator::new(3)
            .words_from(&g, ids.n2)
            .into_iter()
            .collect();
        let tree = PrefixTree::from_words(&words);
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        let suggested = vec![bus, bus, cinema];
        let text = render_prefix_tree(&g, &tree, &suggested);
        assert!(text.contains("candidate paths"));
        assert!(text.contains("◀ candidate"));
        assert!(text.contains("cinema ●"));
        // Terminal marker appears for every complete word.
        assert!(text.matches('●').count() >= words.len());
    }

    #[test]
    fn node_set_rendering() {
        let (g, ids) = figure1_graph();
        let g = CsrGraph::from_graph(&g);
        let text = render_node_set(&g, &[ids.n1, ids.n2, ids.n4, ids.n6]);
        assert_eq!(text, "{N1, N2, N4, N6}");
        assert_eq!(render_node_set(&g, &[]), "{}");
    }
}
