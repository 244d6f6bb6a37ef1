//! Biological-interaction-network-like generator.
//!
//! The companion research paper evaluates the learning algorithm on
//! biological datasets (protein/gene interaction networks).  Those datasets
//! are not bundled here; this generator produces graphs with their salient
//! structural traits — a sparse backbone, a few highly connected hub
//! entities, long regulatory chains, and a small alphabet of interaction
//! types (`activates`, `inhibits`, `binds`, `expresses`, `catalyzes`) — so
//! the same code paths (long witness paths, skewed informativeness, large
//! pruning opportunities) are exercised.

use gps_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interaction-type labels used by the generator.
pub const INTERACTION_LABELS: [&str; 5] =
    ["activates", "inhibits", "binds", "expresses", "catalyzes"];

/// Configuration of the biological-network generator.
#[derive(Debug, Clone)]
pub struct BiologicalConfig {
    /// Number of entity nodes (proteins/genes).
    pub entities: usize,
    /// Number of hub entities (receive/emit many interactions).
    pub hubs: usize,
    /// Number of long regulatory chains to weave through the network.
    pub chains: usize,
    /// Length of each regulatory chain.
    pub chain_length: usize,
    /// Number of additional random interactions.
    pub random_interactions: usize,
    /// Seed for the random choices.
    pub seed: u64,
}

impl Default for BiologicalConfig {
    fn default() -> Self {
        Self {
            entities: 120,
            hubs: 4,
            chains: 6,
            chain_length: 8,
            random_interactions: 100,
            seed: 17,
        }
    }
}

impl BiologicalConfig {
    /// Convenience constructor for size sweeps.
    pub fn with_entities(entities: usize, seed: u64) -> Self {
        Self {
            entities,
            hubs: (entities / 30).max(1),
            chains: (entities / 20).max(1),
            random_interactions: entities,
            seed,
            ..Self::default()
        }
    }
}

/// Generates a biological-interaction-like network.
pub fn generate(config: &BiologicalConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut graph = Graph::with_capacity(
        config.entities,
        config.random_interactions + config.chains * config.chain_length + config.entities,
    );
    let labels: Vec<_> = INTERACTION_LABELS
        .iter()
        .map(|name| graph.label(name))
        .collect();
    if config.entities == 0 {
        return graph;
    }
    let entities: Vec<NodeId> = (0..config.entities)
        .map(|i| graph.add_node(format!("P{i}")))
        .collect();
    let hubs: Vec<NodeId> = entities
        .iter()
        .copied()
        .take(config.hubs.max(1).min(config.entities))
        .collect();

    // Hubs: every hub binds a swath of entities (both directions).
    let binds = labels[2];
    for &hub in &hubs {
        let fan = (config.entities / (config.hubs.max(1) * 2)).max(1);
        for _ in 0..fan {
            let other = entities[rng.gen_range(0..entities.len())];
            if other != hub {
                graph.add_edge_dedup(hub, binds, other);
                graph.add_edge_dedup(other, binds, hub);
            }
        }
    }

    // Regulatory chains: activates/inhibits alternating along a random walk
    // of distinct entities.
    for _ in 0..config.chains {
        let mut current = entities[rng.gen_range(0..entities.len())];
        for step in 0..config.chain_length {
            let next = entities[rng.gen_range(0..entities.len())];
            if next == current {
                continue;
            }
            let label = if step % 2 == 0 { labels[0] } else { labels[1] };
            graph.add_edge_dedup(current, label, next);
            current = next;
        }
    }

    // Random interactions with the remaining labels.
    for _ in 0..config.random_interactions {
        let source = entities[rng.gen_range(0..entities.len())];
        let target = entities[rng.gen_range(0..entities.len())];
        if source == target {
            continue;
        }
        let label = labels[rng.gen_range(0..labels.len())];
        graph.add_edge_dedup(source, label, target);
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::stats::GraphStats;
    use gps_rpq::PathQuery;

    #[test]
    fn generates_requested_entity_count() {
        let g = generate(&BiologicalConfig::default());
        assert_eq!(g.node_count(), 120);
        assert_eq!(g.label_count(), 5);
        assert!(g.edge_count() > 100);
    }

    #[test]
    fn hubs_have_high_degree() {
        let g = generate(&BiologicalConfig::default());
        let p0 = g.node_by_name("P0").unwrap();
        let stats = GraphStats::compute(&gps_graph::CsrGraph::from_graph(&g));
        let hub_degree = g.out_degree(p0) + g.in_degree(p0);
        assert!(
            hub_degree as f64 > 2.0 * stats.mean_out_degree,
            "hub degree {hub_degree} vs mean {}",
            stats.mean_out_degree
        );
    }

    #[test]
    fn interaction_labels_are_all_present() {
        let g = generate(&BiologicalConfig::default());
        for name in INTERACTION_LABELS {
            assert!(g.label_id(name).is_some(), "missing label {name}");
        }
    }

    #[test]
    fn regulatory_queries_are_satisfiable() {
        let g = generate(&BiologicalConfig::default());
        // Some entity activates something that inhibits something.
        let q = PathQuery::parse("activates.inhibits", g.labels()).unwrap();
        assert!(!q.evaluate(&gps_graph::CsrGraph::from_graph(&g)).is_empty());
        // The hub-binding query is widely satisfied.
        let q2 = PathQuery::parse("binds", g.labels()).unwrap();
        assert!(q2.evaluate(&gps_graph::CsrGraph::from_graph(&g)).len() > 5);
    }

    #[test]
    fn determinism_per_seed() {
        let a = generate(&BiologicalConfig::default());
        let b = generate(&BiologicalConfig::default());
        assert_eq!(a.edge_count(), b.edge_count());
        let c = generate(&BiologicalConfig {
            seed: 1234,
            ..BiologicalConfig::default()
        });
        assert_eq!(c.node_count(), a.node_count());
    }

    #[test]
    fn with_entities_scales() {
        let small = generate(&BiologicalConfig::with_entities(40, 2));
        let large = generate(&BiologicalConfig::with_entities(200, 2));
        assert_eq!(small.node_count(), 40);
        assert_eq!(large.node_count(), 200);
        assert!(large.edge_count() > small.edge_count());
    }

    #[test]
    fn empty_configuration() {
        let g = generate(&BiologicalConfig {
            entities: 0,
            ..BiologicalConfig::default()
        });
        assert!(g.is_empty());
    }
}
