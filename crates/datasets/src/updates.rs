//! Streamed insert/delete update workloads — the write-side companion to the
//! query workloads.
//!
//! A live served graph changes while sessions are in flight.  This module
//! generates deterministic streams of name-addressed
//! [`UpdateOp`]s against a base graph: edge insertions between existing
//! nodes (preferential-attachment flavored, so hubs keep growing the way
//! scale-free graphs do), occasional fresh nodes attached by their first
//! edge, and deletions of randomly chosen *currently existing* edges (the
//! generator tracks the evolving edge multiset, so a removal never targets
//! an edge a previous op already deleted).
//!
//! Feed chunks of the stream into `gps_core::GraphUpdate::from_ops` /
//! `SessionManager::update` to drive a publish workload; the benchmark harness
//! records publish latency and sessions-during-updates throughput over
//! exactly these streams.

use crate::scale_free::{self, ScaleFreeConfig};
use gps_graph::{Graph, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of [`update_stream`].
#[derive(Debug, Clone)]
pub struct UpdateStreamConfig {
    /// Number of ops to generate ([`UpdateOp::AddNode`] ops ride along with
    /// the insertion that introduces them and are not counted separately).
    pub operations: usize,
    /// Fraction of ops that are insertions (the rest are deletions; a
    /// deletion drawn when no edge is left becomes an insertion).
    pub insert_ratio: f64,
    /// Fraction of insertions that introduce a fresh node (named `u0`,
    /// `u1`, …) as the edge's source.
    pub new_node_ratio: f64,
    /// Seed for the random choices.
    pub seed: u64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        Self {
            operations: 100,
            insert_ratio: 0.5,
            new_node_ratio: 0.1,
            seed: 17,
        }
    }
}

/// Generates a deterministic update stream against `graph`.
///
/// Every [`UpdateOp::RemoveEdge`] in the stream targets an edge that exists
/// at that point of the replay (base edges plus earlier insertions, minus
/// earlier deletions), so applying the stream in order through a
/// `DeltaGraph`/`VersionedStore` never fails.  With `insert_ratio` at 0.5
/// the graph's edge count stays near the base's — the shape wanted for
/// benchmarking sessions *during* updates without drifting the workload.
pub fn update_stream(graph: &Graph, config: &UpdateStreamConfig) -> Vec<UpdateOp> {
    assert!(
        graph.node_count() > 0,
        "update streams need at least one node to attach to"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let labels: Vec<String> = graph
        .labels()
        .iter()
        .map(|(_, name)| name.to_string())
        .collect();
    assert!(!labels.is_empty(), "update streams need an alphabet");

    // The evolving shadow state: node names (targets are drawn per edge
    // endpoint, approximating preferential attachment) and the live edge
    // multiset.
    let mut node_names: Vec<String> = graph
        .nodes()
        .map(|node| graph.node_name(node).to_string())
        .collect();
    let mut attachment: Vec<usize> = Vec::with_capacity(graph.edge_count() * 2);
    let mut edges: Vec<(String, String, String)> = Vec::with_capacity(graph.edge_count());
    for (_, edge) in graph.edges() {
        attachment.push(edge.source.index());
        attachment.push(edge.target.index());
        // Ops address nodes by name, and name lookup resolves to the *first*
        // bearer — so a base edge incident to a later duplicate-named node
        // cannot be targeted by a by-name removal.  Keep such edges out of
        // the removal pool (edges *inserted* by this stream always connect
        // first bearers, so they stay removable).
        let source = graph.node_name(edge.source);
        let target = graph.node_name(edge.target);
        if graph.node_by_name(source) == Some(edge.source)
            && graph.node_by_name(target) == Some(edge.target)
        {
            edges.push((
                source.to_string(),
                labels[edge.label.index()].clone(),
                target.to_string(),
            ));
        }
    }
    if attachment.is_empty() {
        attachment.extend(0..node_names.len());
    }

    let mut ops = Vec::with_capacity(config.operations);
    let mut fresh = 0usize;
    for _ in 0..config.operations {
        let insert = rng.gen_range(0.0..1.0) < config.insert_ratio || edges.is_empty();
        if insert {
            let target_index = attachment[rng.gen_range(0..attachment.len())];
            let target = node_names[target_index].clone();
            let label = labels[rng.gen_range(0..labels.len())].clone();
            let source = if rng.gen_range(0.0..1.0) < config.new_node_ratio {
                let name = format!("u{fresh}");
                fresh += 1;
                ops.push(UpdateOp::AddNode(name.clone()));
                node_names.push(name.clone());
                name
            } else {
                let index = rng.gen_range(0..node_names.len());
                attachment.push(index);
                node_names[index].clone()
            };
            attachment.push(target_index);
            ops.push(UpdateOp::AddEdge {
                source: source.clone(),
                label: label.clone(),
                target: target.clone(),
            });
            edges.push((source, label, target));
        } else {
            let index = rng.gen_range(0..edges.len());
            let (source, label, target) = edges.swap_remove(index);
            ops.push(UpdateOp::RemoveEdge {
                source,
                label,
                target,
            });
        }
    }
    ops
}

/// A query workload bundled with an update stream against its graph — the
/// live-serving experiment input: sessions run over the queries while the
/// stream is published in chunks.
#[derive(Debug, Clone)]
pub struct UpdateWorkload {
    /// The base workload (graph + goal queries).
    pub base: crate::workload::Workload,
    /// The update stream against the base graph.
    pub ops: Vec<UpdateOp>,
}

impl UpdateWorkload {
    /// A scale-free live workload: the standard scale-free query workload
    /// plus a balanced insert/delete stream of `operations` ops.
    pub fn scale_free(nodes: usize, operations: usize, seed: u64) -> Self {
        let base = crate::workload::Workload::scale_free(nodes, seed);
        let ops = update_stream(
            &base.graph,
            &UpdateStreamConfig {
                operations,
                seed: seed.wrapping_add(1),
                ..UpdateStreamConfig::default()
            },
        );
        Self { base, ops }
    }

    /// The stream split into publish-sized chunks.
    pub fn chunks(&self, chunk: usize) -> impl Iterator<Item = &[UpdateOp]> {
        self.ops.chunks(chunk.max(1))
    }
}

/// Convenience for tests: a small scale-free graph plus a stream over it.
pub fn sample_stream(nodes: usize, operations: usize, seed: u64) -> (Graph, Vec<UpdateOp>) {
    let graph = scale_free::generate(&ScaleFreeConfig {
        nodes,
        seed,
        ..ScaleFreeConfig::default()
    });
    let ops = update_stream(
        &graph,
        &UpdateStreamConfig {
            operations,
            seed: seed.wrapping_add(1),
            ..UpdateStreamConfig::default()
        },
    );
    (graph, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{CsrGraph, DeltaGraph};
    use std::sync::Arc;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let (_, a) = sample_stream(60, 40, 3);
        let (_, b) = sample_stream(60, 40, 3);
        assert_eq!(a, b);
        let (_, c) = sample_stream(60, 40, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn every_removal_targets_a_live_edge() {
        // The strongest validity check: the full stream applies cleanly
        // through a DeltaGraph, in order, chunk by chunk with compaction in
        // between (the way a versioned store consumes it).
        let (graph, ops) = sample_stream(80, 120, 11);
        let mut snapshot = Arc::new(CsrGraph::from_graph(&graph));
        for chunk in ops.chunks(17) {
            let mut delta = DeltaGraph::new(Arc::clone(&snapshot));
            delta.apply_all(chunk).expect("stream ops always apply");
            snapshot = Arc::new(delta.compact());
        }
        assert!(snapshot.epoch() > 0);
    }

    #[test]
    fn balanced_streams_keep_the_edge_count_near_the_base() {
        let (graph, ops) = sample_stream(100, 200, 5);
        let mut delta = DeltaGraph::new(Arc::new(CsrGraph::from_graph(&graph)));
        delta.apply_all(&ops).unwrap();
        let before = graph.edge_count() as f64;
        let after = delta.edge_count() as f64;
        assert!(
            (after - before).abs() / before < 0.5,
            "edge count drifted: {before} -> {after}"
        );
        let inserts = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::AddEdge { .. }))
            .count();
        let removes = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::RemoveEdge { .. }))
            .count();
        assert!(inserts > 0 && removes > 0, "both kinds present");
    }

    #[test]
    fn update_workload_bundles_queries_and_ops() {
        let live = UpdateWorkload::scale_free(60, 30, 7);
        assert!(!live.base.queries.is_empty());
        assert_eq!(
            live.ops
                .iter()
                .filter(|op| !matches!(op, UpdateOp::AddNode(_)))
                .count(),
            30
        );
        assert_eq!(live.chunks(8).count(), live.ops.len().div_ceil(8));
    }
}
