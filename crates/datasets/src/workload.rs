//! Experiment workloads: bundles of (graph, goal queries) pairs.
//!
//! The benchmark harness iterates over [`Workload`]s — a named graph plus the
//! query family appropriate to its domain — so every experiment (interaction
//! counts, strategy latency, learning time, pruning) runs over the same
//! standardized inputs.

use crate::biological::{self, BiologicalConfig};
use crate::figure1::figure1_graph;
use crate::queries::{self, QueryWorkload};
use crate::scale_free::{self, ScaleFreeConfig};
use crate::synthetic::{self, SyntheticConfig};
use crate::transport::{self, TransportConfig};
use gps_graph::Graph;

/// The family a workload graph was generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's Figure 1 graph.
    Figure1,
    /// Generated public-transport network.
    Transport,
    /// Uniform random graph.
    Synthetic,
    /// Preferential-attachment graph.
    ScaleFree,
    /// Biological-interaction-like graph.
    Biological,
}

impl WorkloadKind {
    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Figure1 => "figure1",
            WorkloadKind::Transport => "transport",
            WorkloadKind::Synthetic => "synthetic",
            WorkloadKind::ScaleFree => "scale-free",
            WorkloadKind::Biological => "biological",
        }
    }
}

/// A graph together with the goal queries evaluated against it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which generator produced the graph.
    pub kind: WorkloadKind,
    /// Human-readable name including the size parameter.
    pub name: String,
    /// The graph.
    pub graph: Graph,
    /// The goal queries.
    pub queries: QueryWorkload,
}

impl Workload {
    /// The Figure 1 workload (the paper's running example).
    pub fn figure1() -> Self {
        let (graph, _) = figure1_graph();
        let queries = queries::transport_workload(&graph);
        Self {
            kind: WorkloadKind::Figure1,
            name: "figure1".to_string(),
            graph,
            queries,
        }
    }

    /// A transport workload with roughly `neighborhoods` neighborhoods.
    pub fn transport(neighborhoods: usize, seed: u64) -> Self {
        let net = transport::generate(&TransportConfig::with_neighborhoods(neighborhoods, seed));
        let queries = queries::transport_workload(&net.graph);
        Self {
            kind: WorkloadKind::Transport,
            name: format!("transport-{neighborhoods}"),
            graph: net.graph,
            queries,
        }
    }

    /// A uniform random workload with `nodes` nodes.
    pub fn synthetic(nodes: usize, seed: u64) -> Self {
        let graph = synthetic::generate(&SyntheticConfig::with_nodes(nodes, seed));
        let queries = queries::standard_workload(&graph);
        Self {
            kind: WorkloadKind::Synthetic,
            name: format!("synthetic-{nodes}"),
            graph,
            queries,
        }
    }

    /// A scale-free workload with `nodes` nodes.
    pub fn scale_free(nodes: usize, seed: u64) -> Self {
        let graph = scale_free::generate(&ScaleFreeConfig {
            nodes,
            seed,
            ..ScaleFreeConfig::default()
        });
        let queries = queries::standard_workload(&graph);
        Self {
            kind: WorkloadKind::ScaleFree,
            name: format!("scale-free-{nodes}"),
            graph,
            queries,
        }
    }

    /// A biological workload with `entities` entities.
    pub fn biological(entities: usize, seed: u64) -> Self {
        let graph = biological::generate(&BiologicalConfig::with_entities(entities, seed));
        let queries = queries::biological_workload(&graph);
        Self {
            kind: WorkloadKind::Biological,
            name: format!("biological-{entities}"),
            graph,
            queries,
        }
    }

    /// The default experiment suite: one workload per domain at a modest,
    /// laptop-friendly size plus the Figure 1 example.
    pub fn default_suite(seed: u64) -> Vec<Workload> {
        vec![
            Workload::figure1(),
            Workload::transport(30, seed),
            Workload::synthetic(100, seed),
            Workload::scale_free(100, seed),
            Workload::biological(80, seed),
        ]
    }

    /// The size sweep used by the interaction-count experiment (E1).
    pub fn size_sweep(seed: u64) -> Vec<Workload> {
        [20usize, 50, 100, 200]
            .into_iter()
            .map(|n| Workload::transport(n, seed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_suite_covers_every_kind() {
        let suite = Workload::default_suite(3);
        assert_eq!(suite.len(), 5);
        let kinds: Vec<_> = suite.iter().map(|w| w.kind).collect();
        assert!(kinds.contains(&WorkloadKind::Figure1));
        assert!(kinds.contains(&WorkloadKind::Transport));
        assert!(kinds.contains(&WorkloadKind::Synthetic));
        assert!(kinds.contains(&WorkloadKind::ScaleFree));
        assert!(kinds.contains(&WorkloadKind::Biological));
        for w in &suite {
            assert!(!w.graph.is_empty(), "{} graph is empty", w.name);
            assert!(!w.queries.is_empty(), "{} has no queries", w.name);
        }
    }

    #[test]
    fn size_sweep_is_increasing() {
        let sweep = Workload::size_sweep(1);
        assert_eq!(sweep.len(), 4);
        for window in sweep.windows(2) {
            assert!(window[0].graph.node_count() < window[1].graph.node_count());
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(WorkloadKind::Figure1.name(), "figure1");
        assert_eq!(WorkloadKind::ScaleFree.name(), "scale-free");
    }

    #[test]
    fn workload_names_embed_sizes() {
        assert_eq!(Workload::transport(30, 1).name, "transport-30");
        assert_eq!(Workload::biological(80, 1).name, "biological-80");
    }
}
