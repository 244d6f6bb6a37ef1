//! Summary statistics over a graph: degree distributions, label usage and
//! connectivity.  Used by the dataset generators' self-checks, by the
//! benchmark harness when reporting workload characteristics, and — through
//! [`LabelStats`] — by `gps-cli stats`.

use crate::csr::CsrGraph;
use crate::ids::LabelId;
use crate::traversal::weakly_connected_components;
use std::collections::BTreeMap;

/// Aggregate statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub node_count: usize,
    /// Number of edges.
    pub edge_count: usize,
    /// Number of distinct labels.
    pub label_count: usize,
    /// Minimum out-degree over all nodes (0 for the empty graph).
    pub min_out_degree: usize,
    /// Maximum out-degree over all nodes (0 for the empty graph).
    pub max_out_degree: usize,
    /// Mean out-degree (0.0 for the empty graph).
    pub mean_out_degree: f64,
    /// Number of sink nodes (out-degree 0).
    pub sink_count: usize,
    /// Number of source nodes (in-degree 0).
    pub source_count: usize,
    /// Number of weakly connected components.
    pub weak_component_count: usize,
    /// Edge count per label.
    pub label_histogram: BTreeMap<LabelId, usize>,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn compute(graph: &CsrGraph) -> Self {
        let node_count = graph.node_count();
        let edge_count = graph.edge_count();
        let mut min_out = usize::MAX;
        let mut max_out = 0usize;
        let mut sinks = 0usize;
        let mut sources = 0usize;
        for node in graph.nodes() {
            let d = graph.out_degree(node);
            min_out = min_out.min(d);
            max_out = max_out.max(d);
            if d == 0 {
                sinks += 1;
            }
            if graph.in_degree(node) == 0 {
                sources += 1;
            }
        }
        if node_count == 0 {
            min_out = 0;
        }
        let mut label_histogram = BTreeMap::new();
        for edge in graph.edges_by_source() {
            *label_histogram.entry(edge.label).or_insert(0) += 1;
        }
        Self {
            node_count,
            edge_count,
            label_count: graph.label_count(),
            min_out_degree: min_out,
            max_out_degree: max_out,
            mean_out_degree: if node_count == 0 {
                0.0
            } else {
                edge_count as f64 / node_count as f64
            },
            sink_count: sinks,
            source_count: sources,
            weak_component_count: weakly_connected_components(graph).len(),
            label_histogram,
        }
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "|V|={} |E|={} |Σ|={} out-deg[min={}, mean={:.2}, max={}] sinks={} sources={} components={}",
            self.node_count,
            self.edge_count,
            self.label_count,
            self.min_out_degree,
            self.mean_out_degree,
            self.max_out_degree,
            self.sink_count,
            self.source_count,
            self.weak_component_count
        )
    }
}

/// Degree and frequency statistics of a single edge label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelStat {
    /// The label.
    pub label: LabelId,
    /// Number of edges carrying the label.
    pub edge_count: usize,
    /// Fraction of all edges carrying the label (0.0 for an edgeless graph).
    pub frequency: f64,
    /// Maximum number of outgoing edges with this label at a single node.
    pub max_out_degree: usize,
    /// Maximum number of incoming edges with this label at a single node.
    pub max_in_degree: usize,
    /// Number of distinct nodes with at least one outgoing edge of the label.
    pub source_count: usize,
    /// Number of distinct nodes with at least one incoming edge of the label.
    pub target_count: usize,
}

/// Per-label degree/frequency statistics over a whole graph, as
/// `gps-cli stats` prints them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LabelStats {
    /// One entry per label, indexed by [`LabelId::index`].
    pub per_label: Vec<LabelStat>,
    /// Total node count of the graph.
    pub node_count: usize,
    /// Total edge count of the graph.
    pub edge_count: usize,
}

impl LabelStats {
    /// Computes per-label statistics for `graph` in one adjacency sweep.
    pub fn compute(graph: &CsrGraph) -> Self {
        let node_count = graph.node_count();
        let edge_count = graph.edge_count();
        let label_count = graph.label_count();
        let mut edge_counts = vec![0usize; label_count];
        let mut max_out = vec![0usize; label_count];
        let mut max_in = vec![0usize; label_count];
        let mut sources = vec![0usize; label_count];
        let mut targets = vec![0usize; label_count];

        // Scratch counters for the current node, reset via the touched list
        // so the sweep stays O(E + V) rather than O(V·|Σ|).
        let mut per_node = vec![0usize; label_count];
        let mut touched: Vec<usize> = Vec::new();

        for node in graph.nodes() {
            for entry in graph.out(node) {
                let i = entry.label.index();
                if per_node[i] == 0 {
                    touched.push(i);
                }
                per_node[i] += 1;
            }
            for &i in &touched {
                edge_counts[i] += per_node[i];
                max_out[i] = max_out[i].max(per_node[i]);
                sources[i] += 1;
                per_node[i] = 0;
            }
            touched.clear();
        }
        for node in graph.nodes() {
            for entry in graph.inc(node) {
                let i = entry.label.index();
                if per_node[i] == 0 {
                    touched.push(i);
                }
                per_node[i] += 1;
            }
            for &i in &touched {
                max_in[i] = max_in[i].max(per_node[i]);
                targets[i] += 1;
                per_node[i] = 0;
            }
            touched.clear();
        }

        let per_label = (0..label_count)
            .map(|i| LabelStat {
                label: LabelId::from(i),
                edge_count: edge_counts[i],
                frequency: if edge_count == 0 {
                    0.0
                } else {
                    edge_counts[i] as f64 / edge_count as f64
                },
                max_out_degree: max_out[i],
                max_in_degree: max_in[i],
                source_count: sources[i],
                target_count: targets[i],
            })
            .collect();
        Self {
            per_label,
            node_count,
            edge_count,
        }
    }

    /// One display line per label, for the CLI stats output.
    pub fn summary_lines(&self, graph: &CsrGraph) -> Vec<String> {
        self.per_label
            .iter()
            .map(|s| {
                format!(
                    "{:<12} edges={:<6} freq={:>5.1}% max-out={} max-in={} sources={} targets={}",
                    graph.label_name(s.label).unwrap_or("?"),
                    s.edge_count,
                    s.frequency * 100.0,
                    s.max_out_degree,
                    s.max_in_degree,
                    s.source_count,
                    s.target_count,
                )
            })
            .collect()
    }
}

/// Per-label edge counts with label names resolved, for display.
pub fn label_usage(graph: &CsrGraph) -> Vec<(String, usize)> {
    let stats = GraphStats::compute(graph);
    stats
        .label_histogram
        .iter()
        .map(|(&label, &count)| (graph.label_name(label).unwrap_or("?").to_string(), count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let _isolated = g.add_node("d");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "y", c);
        g.add_edge_by_name(b, "x", c);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn counts_are_correct() {
        let stats = GraphStats::compute(&sample());
        assert_eq!(stats.node_count, 4);
        assert_eq!(stats.edge_count, 3);
        assert_eq!(stats.label_count, 2);
        assert_eq!(stats.max_out_degree, 2);
        assert_eq!(stats.min_out_degree, 0);
        assert!((stats.mean_out_degree - 0.75).abs() < 1e-9);
    }

    #[test]
    fn sinks_sources_and_components() {
        let stats = GraphStats::compute(&sample());
        assert_eq!(stats.sink_count, 2, "c and the isolated node");
        assert_eq!(stats.source_count, 2, "a and the isolated node");
        assert_eq!(stats.weak_component_count, 2);
    }

    #[test]
    fn label_histogram_counts_edges_per_label() {
        let g = sample();
        let stats = GraphStats::compute(&g);
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        assert_eq!(stats.label_histogram[&x], 2);
        assert_eq!(stats.label_histogram[&y], 1);
        let usage = label_usage(&g);
        assert!(usage.contains(&("x".to_string(), 2)));
    }

    #[test]
    fn empty_graph_stats_are_zeroed() {
        let stats = GraphStats::compute(&CsrGraph::default());
        assert_eq!(stats.node_count, 0);
        assert_eq!(stats.min_out_degree, 0);
        assert_eq!(stats.mean_out_degree, 0.0);
        assert_eq!(stats.weak_component_count, 0);
    }

    #[test]
    fn label_stats_track_degrees_and_frequency() {
        let g = sample();
        let stats = LabelStats::compute(&g);
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        assert_eq!(stats.node_count, 4);
        assert_eq!(stats.edge_count, 3);
        let sx = &stats.per_label[x.index()];
        assert_eq!(sx.edge_count, 2);
        assert!((sx.frequency - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(sx.max_out_degree, 1, "a and b each have one x out-edge");
        assert_eq!(sx.max_in_degree, 1);
        assert_eq!(sx.source_count, 2);
        assert_eq!(sx.target_count, 2);
        let sy = &stats.per_label[y.index()];
        assert_eq!(sy.edge_count, 1);
        assert_eq!(sy.source_count, 1);
    }

    #[test]
    fn label_stats_max_degrees_see_parallel_labels() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "x", c);
        g.add_edge_by_name(b, "x", c);
        let stats = LabelStats::compute(&CsrGraph::from_graph(&g));
        let x = g.label_id("x").unwrap();
        let sx = &stats.per_label[x.index()];
        assert_eq!(sx.max_out_degree, 2, "a has two x edges");
        assert_eq!(sx.max_in_degree, 2, "c receives two");
    }

    #[test]
    fn label_stats_summary_has_a_line_per_label() {
        let g = sample();
        let stats = LabelStats::compute(&g);
        assert_eq!(stats.summary_lines(&g).len(), 2);
        assert!(stats.summary_lines(&g)[0].contains("edges="));
    }

    #[test]
    fn label_stats_on_empty_graph() {
        let stats = LabelStats::compute(&CsrGraph::default());
        assert_eq!(stats.edge_count, 0);
        assert!(stats.per_label.is_empty());
    }

    #[test]
    fn summary_mentions_key_figures() {
        let s = GraphStats::compute(&sample()).summary();
        assert!(s.contains("|V|=4"));
        assert!(s.contains("|E|=3"));
        assert!(s.contains("components=2"));
    }
}
