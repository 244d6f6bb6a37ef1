//! Streamed scale-free corpus builder — million-node graphs without the
//! intermediate [`Graph`](gps_graph::Graph).
//!
//! [`scale_free::generate`](crate::scale_free::generate) materializes a
//! mutable `Graph` (per-edge `Edge` records, two nested adjacency tables
//! of edge ids, a name B-tree) and then compacts it into a
//! [`CsrGraph`].  At 1M nodes / multi-M edges that intermediate costs
//! several times the final snapshot's footprint and a full copy at the end.
//!
//! [`generate_csr`] produces the **byte-identical** `CsrGraph` (same node
//! names, label ids, rows and epoch — asserted differentially in the test
//! suite) by replaying the exact same seeded RNG stream twice and emitting
//! edges straight into the snapshot's chunks through an
//! [`AdjacencyBuilder`] per direction:
//!
//! * **pass 1** counts per-source and per-target degrees, which size every
//!   chunk's rows;
//! * **pass 2** places each edge in its forward and its reverse row, in
//!   emission order — which is insertion order inside every row, as in a
//!   from-scratch build.
//!
//! The node names are formatted one at a time straight into the snapshot's
//! name arenas; no list of them is held.  Peak auxiliary memory beyond the
//! final snapshot is the preferential-attachment endpoint pool (one `u32`
//! per edge endpoint), the degree arrays, and a per-node dedup scratch of
//! at most `edges_per_node` entries — all small multiples of
//! `4 bytes × (nodes + edges)`, versus the `Graph`'s per-edge records plus
//! two nested adjacency tables plus a second name table.  Floor 10 of `rpq_baseline` measures both paths' peaks at
//! 100k nodes with a counting allocator.

use crate::scale_free::{pick_label, ScaleFreeConfig};
use gps_graph::csr::AdjacencyBuilder;
use gps_graph::{CsrEntry, CsrGraph, LabelId, LabelInterner, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replays the preferential-attachment edge stream for `config`, invoking
/// `emit(source, label, target)` for every edge that survives dedup, in the
/// exact order [`crate::scale_free::generate`] inserts them.
///
/// The RNG consumption mirrors `generate` draw for draw: one range draw per
/// attachment attempt, plus one label draw unless the attempt self-looped.
/// Dedup only ever has to consider the *current* node's accepted edges,
/// because the generator never adds an edge whose source is an older node.
fn replay<F: FnMut(u32, LabelId, u32)>(config: &ScaleFreeConfig, labels: &[LabelId], mut emit: F) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    if config.nodes == 0 {
        return;
    }
    // One entry per edge endpoint: uniform sampling from this pool is
    // preferential attachment.  `u32` per entry — the only O(edges) aux
    // structure of the build.
    let mut attachment: Vec<u32> = Vec::new();
    attachment.push(0);
    let mut seen: Vec<(LabelId, u32)> = Vec::new();
    for i in 1..config.nodes {
        let node = i as u32;
        seen.clear();
        let m = config.edges_per_node.max(1).min(i);
        for _ in 0..m {
            let target = attachment[rng.gen_range(0..attachment.len())];
            if target == node {
                continue;
            }
            let label = pick_label(&mut rng, labels, config.skewed_labels);
            if !seen.contains(&(label, target)) {
                seen.push((label, target));
                emit(node, label, target);
            }
            attachment.push(target);
        }
        attachment.push(node);
    }
}

/// Generates the scale-free corpus for `config` directly as a [`CsrGraph`],
/// byte-identical to `CsrGraph::from_graph(&scale_free::generate(config))`
/// but without ever materializing the mutable `Graph`.
pub fn generate_csr(config: &ScaleFreeConfig) -> CsrGraph {
    let mut labels = LabelInterner::new();
    let label_ids: Vec<LabelId> = (0..config.alphabet_size.max(1))
        .map(|i| labels.intern(&format!("a{i}")))
        .collect();
    let n = config.nodes;

    // Pass 1: degree counting, which sizes every chunk's rows.
    let mut out_degrees = vec![0u32; n];
    let mut in_degrees = vec![0u32; n];
    replay(config, &label_ids, |source, _, target| {
        out_degrees[source as usize] += 1;
        in_degrees[target as usize] += 1;
    });
    let mut fwd = AdjacencyBuilder::new(out_degrees);
    let mut rev = AdjacencyBuilder::new(in_degrees);

    // Pass 2: every edge goes straight into its forward and reverse rows.
    replay(config, &label_ids, |source, label, target| {
        let node = NodeId::new(target);
        fwd.place(source as usize, CsrEntry { label, node });
        let node = NodeId::new(source);
        rev.place(target as usize, CsrEntry { label, node });
    });

    let node_names = (0..n).map(|i| format!("v{i}"));
    CsrGraph::from_adjacency(node_names, labels, fwd, rev, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale_free;

    fn assert_snapshots_identical(streamed: &CsrGraph, reference: &CsrGraph) {
        assert_eq!(streamed.node_count(), reference.node_count());
        assert_eq!(streamed.edge_count(), reference.edge_count());
        assert_eq!(streamed.labels(), reference.labels());
        assert_eq!(streamed.epoch(), reference.epoch());
        for node in reference.nodes() {
            assert_eq!(streamed.node_name(node), reference.node_name(node));
            assert_eq!(streamed.out(node), reference.out(node));
            assert_eq!(streamed.inc(node), reference.inc(node));
        }
        assert_eq!(streamed.memory_bytes(), reference.memory_bytes());
    }

    #[test]
    fn streamed_build_is_byte_identical_to_graph_then_compact() {
        for config in [
            ScaleFreeConfig::default(),
            ScaleFreeConfig {
                nodes: 1,
                ..ScaleFreeConfig::default()
            },
            ScaleFreeConfig {
                nodes: 777,
                edges_per_node: 3,
                alphabet_size: 6,
                skewed_labels: false,
                seed: 99,
            },
            ScaleFreeConfig {
                nodes: 500,
                edges_per_node: 5,
                alphabet_size: 2,
                skewed_labels: true,
                seed: 7,
            },
            // Rows in three adjacency chunks.
            ScaleFreeConfig {
                nodes: 2 * gps_graph::csr::CHUNK_ROWS + 7,
                edges_per_node: 3,
                alphabet_size: 4,
                skewed_labels: true,
                seed: 11,
            },
        ] {
            let reference = CsrGraph::from_graph(&scale_free::generate(&config));
            let streamed = generate_csr(&config);
            assert_snapshots_identical(&streamed, &reference);
        }
    }

    #[test]
    fn empty_configuration_keeps_the_interned_alphabet() {
        let config = ScaleFreeConfig {
            nodes: 0,
            ..ScaleFreeConfig::default()
        };
        let reference = CsrGraph::from_graph(&scale_free::generate(&config));
        let streamed = generate_csr(&config);
        assert_snapshots_identical(&streamed, &reference);
        assert_eq!(streamed.label_count(), 4, "alphabet interned up front");
    }

    #[test]
    fn determinism_per_seed() {
        let config = ScaleFreeConfig::default();
        let a = generate_csr(&config);
        let b = generate_csr(&config);
        assert_snapshots_identical(&a, &b);
    }

    #[test]
    fn name_lookups_work_on_the_streamed_snapshot() {
        let streamed = generate_csr(&ScaleFreeConfig::default());
        assert_eq!(
            streamed.node_by_name("v0"),
            Some(gps_graph::NodeId::from(0usize))
        );
        assert_eq!(
            streamed.node_by_name("v99"),
            Some(gps_graph::NodeId::from(99usize))
        );
        assert_eq!(streamed.node_by_name("v100"), None);
    }
}
