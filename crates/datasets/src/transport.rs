//! Transpole-like public-transport network generator.
//!
//! The demo runs on real geographical data combining a public-transport
//! network (the Transpole network of Lille) with facilities in the spirit of
//! the motivating example.  That dataset is not redistributable, so this
//! generator produces networks with the same shape: a grid of neighborhoods
//! connected by tram and bus lines (trams run along rows, buses along columns
//! plus random shortcuts), with a configurable fraction of neighborhoods
//! hosting cinemas, restaurants, museums and parks.

use gps_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the transport-network generator.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Number of grid rows of neighborhoods.
    pub rows: usize,
    /// Number of grid columns of neighborhoods.
    pub cols: usize,
    /// Probability that a neighborhood hosts a cinema.
    pub cinema_density: f64,
    /// Probability that a neighborhood hosts a restaurant.
    pub restaurant_density: f64,
    /// Probability that a neighborhood hosts a museum.
    pub museum_density: f64,
    /// Number of extra random bus shortcuts between neighborhoods.
    pub extra_bus_links: usize,
    /// Whether tram lines run in both directions.
    pub bidirectional_tram: bool,
    /// Seed for the random choices.
    pub seed: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            rows: 4,
            cols: 5,
            cinema_density: 0.25,
            restaurant_density: 0.35,
            museum_density: 0.15,
            extra_bus_links: 4,
            bidirectional_tram: true,
            seed: 7,
        }
    }
}

impl TransportConfig {
    /// A configuration producing roughly `neighborhoods` neighborhood nodes
    /// (the grid is made as square as possible).
    pub fn with_neighborhoods(neighborhoods: usize, seed: u64) -> Self {
        let rows = (neighborhoods as f64).sqrt().ceil() as usize;
        let cols = neighborhoods.div_ceil(rows.max(1)).max(1);
        Self {
            rows: rows.max(1),
            cols,
            extra_bus_links: neighborhoods / 5,
            seed,
            ..Self::default()
        }
    }
}

/// The generated network together with the neighborhood node handles.
#[derive(Debug, Clone)]
pub struct TransportNetwork {
    /// The generated graph.
    pub graph: Graph,
    /// Neighborhood nodes, row-major.
    pub neighborhoods: Vec<NodeId>,
    /// Facility nodes (cinemas, restaurants, museums), in creation order.
    pub facilities: Vec<NodeId>,
}

/// Generates a transport network from `config`.
pub fn generate(config: &TransportConfig) -> TransportNetwork {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut graph =
        Graph::with_capacity(config.rows * config.cols * 2, config.rows * config.cols * 4);
    let tram = graph.label("tram");
    let bus = graph.label("bus");
    let cinema = graph.label("cinema");
    let restaurant = graph.label("restaurant");
    let museum = graph.label("museum");

    // Neighborhood grid.
    let mut neighborhoods = Vec::with_capacity(config.rows * config.cols);
    for row in 0..config.rows {
        for col in 0..config.cols {
            neighborhoods.push(graph.add_node(format!("N{}_{}", row, col)));
        }
    }
    let at = |row: usize, col: usize| neighborhoods[row * config.cols + col];

    // Tram lines along rows.
    for row in 0..config.rows {
        for col in 0..config.cols.saturating_sub(1) {
            graph.add_edge(at(row, col), tram, at(row, col + 1));
            if config.bidirectional_tram {
                graph.add_edge(at(row, col + 1), tram, at(row, col));
            }
        }
    }
    // Bus lines along columns (one direction, like one-way loops).
    for col in 0..config.cols {
        for row in 0..config.rows.saturating_sub(1) {
            graph.add_edge(at(row, col), bus, at(row + 1, col));
        }
        // Close the loop back to the top of the column.
        if config.rows > 1 {
            graph.add_edge(at(config.rows - 1, col), bus, at(0, col));
        }
    }
    // Extra random bus shortcuts.
    for _ in 0..config.extra_bus_links {
        let a = neighborhoods[rng.gen_range(0..neighborhoods.len())];
        let b = neighborhoods[rng.gen_range(0..neighborhoods.len())];
        if a != b {
            graph.add_edge_dedup(a, bus, b);
        }
    }

    // Facilities.
    let mut facilities = Vec::new();
    let mut cinema_count = 0usize;
    let mut restaurant_count = 0usize;
    let mut museum_count = 0usize;
    for &nb in &neighborhoods {
        if rng.gen_bool(config.cinema_density) {
            let c = graph.add_node(format!("C{}", cinema_count));
            cinema_count += 1;
            graph.add_edge(nb, cinema, c);
            facilities.push(c);
        }
        if rng.gen_bool(config.restaurant_density) {
            let r = graph.add_node(format!("R{}", restaurant_count));
            restaurant_count += 1;
            graph.add_edge(nb, restaurant, r);
            facilities.push(r);
        }
        if rng.gen_bool(config.museum_density) {
            let m = graph.add_node(format!("M{}", museum_count));
            museum_count += 1;
            graph.add_edge(nb, museum, m);
            facilities.push(m);
        }
    }
    // Guarantee at least one cinema so the motivating query family is never
    // trivially empty.
    if cinema_count == 0 {
        let c = graph.add_node("C0");
        let nb = neighborhoods[rng.gen_range(0..neighborhoods.len())];
        graph.add_edge(nb, cinema, c);
        facilities.push(c);
    }

    TransportNetwork {
        graph,
        neighborhoods,
        facilities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::stats::GraphStats;
    use gps_rpq::PathQuery;

    #[test]
    fn default_network_has_expected_size() {
        let net = generate(&TransportConfig::default());
        assert_eq!(net.neighborhoods.len(), 20);
        assert!(net.graph.node_count() >= 20);
        assert!(net.graph.edge_count() > 40, "grid edges plus facilities");
        assert!(net.graph.label_count() >= 4);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&TransportConfig::default());
        let b = generate(&TransportConfig::default());
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        let c = generate(&TransportConfig {
            seed: 99,
            ..TransportConfig::default()
        });
        // Different seed may change facility placement (node count differs or
        // at least the structure — compare edge lists lengths loosely).
        assert_eq!(c.neighborhoods.len(), a.neighborhoods.len());
    }

    #[test]
    fn with_neighborhoods_scales_the_grid() {
        let small = generate(&TransportConfig::with_neighborhoods(10, 1));
        let large = generate(&TransportConfig::with_neighborhoods(100, 1));
        assert!(small.neighborhoods.len() >= 10);
        assert!(large.neighborhoods.len() >= 100);
        assert!(large.graph.edge_count() > small.graph.edge_count());
    }

    #[test]
    fn motivating_query_family_is_satisfiable() {
        let net = generate(&TransportConfig::default());
        let q = PathQuery::parse("(tram+bus)*.cinema", net.graph.labels()).unwrap();
        let answer = q.evaluate(&gps_graph::CsrGraph::from_graph(&net.graph));
        assert!(
            !answer.is_empty(),
            "some neighborhood can always reach a cinema"
        );
        // Facilities are never selected: they have no outgoing edges.
        for &f in &net.facilities {
            assert!(!answer.contains(f));
        }
    }

    #[test]
    fn facility_nodes_are_sinks() {
        let net = generate(&TransportConfig::default());
        for &f in &net.facilities {
            assert_eq!(net.graph.out_degree(f), 0);
            assert_eq!(net.graph.in_degree(f), 1);
        }
    }

    #[test]
    fn network_is_weakly_connected() {
        let net = generate(&TransportConfig::default());
        let stats = GraphStats::compute(&gps_graph::CsrGraph::from_graph(&net.graph));
        assert_eq!(stats.weak_component_count, 1);
    }

    #[test]
    fn always_at_least_one_cinema() {
        let net = generate(&TransportConfig {
            cinema_density: 0.0,
            restaurant_density: 0.0,
            museum_density: 0.0,
            ..TransportConfig::default()
        });
        assert!(net.graph.label_id("cinema").is_some());
        let q = PathQuery::parse("cinema", net.graph.labels()).unwrap();
        assert!(!q
            .evaluate(&gps_graph::CsrGraph::from_graph(&net.graph))
            .is_empty());
    }
}
