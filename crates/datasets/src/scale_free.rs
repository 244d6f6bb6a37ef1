//! Scale-free (preferential-attachment) edge-labeled graphs.
//!
//! Real graph databases — social networks, citation graphs, linked data —
//! exhibit heavy-tailed degree distributions.  This generator grows a graph
//! by preferential attachment (Barabási–Albert style), assigning each new
//! edge a label drawn from a configurable, optionally skewed, distribution.

use gps_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the preferential-attachment generator.
#[derive(Debug, Clone)]
pub struct ScaleFreeConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges each new node attaches with.
    pub edges_per_node: usize,
    /// Alphabet size (labels `a0`, `a1`, …).
    pub alphabet_size: usize,
    /// When `true`, label frequencies follow a 1/rank (Zipf-like) skew
    /// instead of the uniform distribution.
    pub skewed_labels: bool,
    /// Seed for the random choices.
    pub seed: u64,
}

impl Default for ScaleFreeConfig {
    fn default() -> Self {
        Self {
            nodes: 100,
            edges_per_node: 2,
            alphabet_size: 4,
            skewed_labels: true,
            seed: 13,
        }
    }
}

/// Generates a scale-free edge-labeled graph.
pub fn generate(config: &ScaleFreeConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut graph = Graph::with_capacity(config.nodes, config.nodes * config.edges_per_node);
    let labels: Vec<_> = (0..config.alphabet_size.max(1))
        .map(|i| graph.label(&format!("a{i}")))
        .collect();
    if config.nodes == 0 {
        return graph;
    }

    // `attachment` holds one entry per edge endpoint, so sampling uniformly
    // from it implements preferential attachment.
    let mut attachment: Vec<NodeId> = Vec::new();
    let first = graph.add_node("v0");
    attachment.push(first);

    for i in 1..config.nodes {
        let node = graph.add_node(format!("v{i}"));
        let m = config.edges_per_node.max(1).min(i);
        for _ in 0..m {
            let target = attachment[rng.gen_range(0..attachment.len())];
            if target == node {
                continue;
            }
            let label = pick_label(&mut rng, &labels, config.skewed_labels);
            graph.add_edge_dedup(node, label, target);
            attachment.push(target);
        }
        attachment.push(node);
    }
    graph
}

/// One label draw — shared with the streamed builder (`crate::streamed`),
/// which must consume the exact same RNG stream to stay byte-identical.
pub(crate) fn pick_label(
    rng: &mut StdRng,
    labels: &[gps_graph::LabelId],
    skewed: bool,
) -> gps_graph::LabelId {
    if !skewed || labels.len() == 1 {
        return labels[rng.gen_range(0..labels.len())];
    }
    // Zipf-like: weight of rank r is 1/(r+1).
    let weights: Vec<f64> = (0..labels.len()).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut draw = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if draw < *w {
            return labels[i];
        }
        draw -= w;
    }
    labels[labels.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::stats::GraphStats;

    #[test]
    fn generates_requested_node_count() {
        let g = generate(&ScaleFreeConfig::default());
        assert_eq!(g.node_count(), 100);
        assert!(g.edge_count() >= 99, "at least a tree's worth of edges");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = generate(&ScaleFreeConfig {
            nodes: 300,
            ..ScaleFreeConfig::default()
        });
        let stats = GraphStats::compute(&gps_graph::CsrGraph::from_graph(&g));
        // A hub node accumulates far more than the mean in-degree.
        let max_in = g.nodes().map(|n| g.in_degree(n)).max().unwrap();
        assert!(
            max_in as f64 > 4.0 * stats.mean_out_degree,
            "max in-degree {max_in} vs mean {}",
            stats.mean_out_degree
        );
    }

    #[test]
    fn skewed_labels_favor_the_first_label() {
        let g = generate(&ScaleFreeConfig {
            nodes: 400,
            skewed_labels: true,
            ..ScaleFreeConfig::default()
        });
        let a0 = g.label_id("a0").unwrap();
        let a3 = g.label_id("a3").unwrap();
        let count = |label| g.edges().filter(|(_, e)| e.label == label).count();
        assert!(count(a0) > count(a3));
    }

    #[test]
    fn determinism_per_seed() {
        let a = generate(&ScaleFreeConfig::default());
        let b = generate(&ScaleFreeConfig::default());
        let ea: Vec<_> = a.edges().map(|(_, e)| e).collect();
        let eb: Vec<_> = b.edges().map(|(_, e)| e).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn tiny_and_empty_configurations() {
        let empty = generate(&ScaleFreeConfig {
            nodes: 0,
            ..ScaleFreeConfig::default()
        });
        assert!(empty.is_empty());
        let single = generate(&ScaleFreeConfig {
            nodes: 1,
            ..ScaleFreeConfig::default()
        });
        assert_eq!(single.node_count(), 1);
        assert_eq!(single.edge_count(), 0);
    }

    #[test]
    fn graph_is_weakly_connected() {
        let g = generate(&ScaleFreeConfig {
            nodes: 150,
            ..ScaleFreeConfig::default()
        });
        let stats = GraphStats::compute(&gps_graph::CsrGraph::from_graph(&g));
        assert_eq!(stats.weak_component_count, 1);
    }
}
