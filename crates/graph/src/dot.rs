//! Graphviz DOT export of graphs and neighborhoods.
//!
//! The demo visualizes graph fragments graphically.  Besides the textual
//! renderer in `gps-core`, this module emits Graphviz DOT so fragments can be
//! rendered with standard tooling (`dot -Tsvg`).  Neighborhood exports
//! reproduce the visual conventions of Figure 3: the proposed node is drawn
//! with a double border, nodes revealed by the last zoom are drawn in blue,
//! and frontier nodes carry a dashed "…" edge.

use crate::csr::CsrGraph;
use crate::graph::Edge;
use crate::ids::NodeId;
use crate::neighborhood::{Neighborhood, NeighborhoodDelta};
use std::collections::HashMap;
use std::fmt::Write as _;

fn quote(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\\\""))
}

/// Exports the whole graph as a DOT digraph.
pub fn graph_to_dot(graph: &CsrGraph, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", quote(name));
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=ellipse];");
    for node in graph.nodes() {
        let _ = writeln!(out, "  {};", quote(graph.node_name(node)));
    }
    for edge in graph.edges_by_source() {
        let _ = writeln!(
            out,
            "  {} -> {} [label={}];",
            quote(graph.node_name(edge.source)),
            quote(graph.node_name(edge.target)),
            quote(graph.label_name(edge.label).unwrap_or("?"))
        );
    }
    out.push_str("}\n");
    out
}

/// Exports a neighborhood fragment as a DOT digraph, following the visual
/// conventions of Figure 3 (see module docs).  `delta` marks the nodes and
/// edges revealed by the last zoom-out in blue; of parallel duplicates, as
/// many copies as the delta lists.
pub fn neighborhood_to_dot(
    graph: &CsrGraph,
    neighborhood: &Neighborhood,
    delta: Option<&NeighborhoodDelta>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph neighborhood {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let is_new = |node: NodeId| {
        delta
            .map(|d| d.added_nodes.contains(&node))
            .unwrap_or(false)
    };
    for &(node, _) in neighborhood.nodes() {
        let name = quote(graph.node_name(node));
        let mut attrs: Vec<&str> = Vec::new();
        if node == neighborhood.center() {
            attrs.push("peripheries=2");
        }
        if is_new(node) {
            attrs.push("color=blue");
            attrs.push("fontcolor=blue");
        }
        if attrs.is_empty() {
            let _ = writeln!(out, "  {name};");
        } else {
            let _ = writeln!(out, "  {name} [{}];", attrs.join(", "));
        }
    }
    // Copies of each edge still to highlight.
    let mut revealed: HashMap<Edge, usize> = HashMap::new();
    for edge in delta.into_iter().flat_map(|d| &d.added_edges) {
        *revealed.entry(*edge).or_default() += 1;
    }
    for edge in neighborhood.edges() {
        let new_edge = match revealed.get_mut(edge) {
            Some(left) if *left > 0 => {
                *left -= 1;
                true
            }
            _ => false,
        };
        let color = if new_edge {
            ", color=blue, fontcolor=blue"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {} -> {} [label={}{color}];",
            quote(graph.node_name(edge.source)),
            quote(graph.node_name(edge.target)),
            quote(graph.label_name(edge.label).unwrap_or("?"))
        );
    }
    // Continuation markers: one dashed edge to an invisible "…" node per
    // frontier node.
    for (i, &node) in neighborhood.continuations().iter().enumerate() {
        let ghost = format!("\"…{i}\"");
        let _ = writeln!(out, "  {ghost} [label=\"…\", shape=none];");
        let _ = writeln!(
            out,
            "  {} -> {ghost} [style=dashed, arrowhead=none];",
            quote(graph.node_name(node))
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let n2 = g.add_node("N2");
        let n1 = g.add_node("N1");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn graph_export_lists_every_node_and_edge() {
        let g = sample();
        let dot = graph_to_dot(&g, "figure1");
        assert!(dot.starts_with("digraph \"figure1\" {"));
        assert!(dot.trim_end().ends_with('}'));
        for name in ["N1", "N2", "N4", "C1"] {
            assert!(dot.contains(&format!("\"{name}\"")));
        }
        assert!(dot.contains("\"N2\" -> \"N1\" [label=\"bus\"];"));
        assert!(dot.contains("\"N4\" -> \"C1\" [label=\"cinema\"];"));
        assert_eq!(dot.matches("->").count(), g.edge_count());
    }

    #[test]
    fn neighborhood_export_marks_the_center_and_frontier() {
        let g = sample();
        let n2 = g.node_by_name("N2").unwrap();
        let hood = Neighborhood::extract(&g, n2, 2);
        let dot = neighborhood_to_dot(&g, &hood, None);
        assert!(dot.contains("\"N2\" [peripheries=2];"));
        // N4 is at the frontier (its cinema edge leaves the fragment).
        assert!(dot.contains("style=dashed"));
        assert!(!dot.contains("\"C1\""), "C1 is outside the radius");
    }

    #[test]
    fn zoom_delta_is_drawn_in_blue() {
        let g = sample();
        let n2 = g.node_by_name("N2").unwrap();
        let hood2 = Neighborhood::extract(&g, n2, 2);
        let (hood3, delta) = hood2.zoom_out(&g);
        let dot = neighborhood_to_dot(&g, &hood3, Some(&delta));
        assert!(dot.contains("\"C1\" [color=blue, fontcolor=blue];"));
        assert!(dot.contains("color=blue];"), "the revealing edge is blue");
        assert!(!dot.contains("\"N1\" [color=blue"), "old nodes stay black");
    }

    #[test]
    fn names_with_quotes_are_escaped() {
        let mut g = Graph::new();
        let a = g.add_node("a\"b");
        let b = g.add_node("plain");
        g.add_edge_by_name(a, "x", b);
        let dot = graph_to_dot(&CsrGraph::from_graph(&g), "test");
        assert!(dot.contains("\"a\\\"b\""));
    }
}
