//! Streamed scale-free corpus builder — million-node graphs without the
//! intermediate [`Graph`](gps_graph::Graph).
//!
//! [`scale_free::generate`](crate::scale_free::generate) materializes a
//! mutable `Graph` (per-edge `Edge` records, two `Vec<Vec<EdgeId>>`
//! adjacency tables, a name B-tree) and then compacts it into a
//! [`CsrGraph`].  At 1M nodes / multi-M edges that intermediate costs
//! several times the final snapshot's footprint and a full copy at the end.
//!
//! [`generate_csr`] produces the **byte-identical** `CsrGraph` (same node
//! names, label ids, packed offset/entry/edge-id arrays and epoch — asserted
//! differentially in the test suite) by replaying the exact same seeded RNG
//! stream twice and emitting edges straight into `CsrGraph::from_raw_parts`
//! packed arrays:
//!
//! * **pass 1** counts per-source and per-target degrees (prefix-summed
//!   into the forward/reverse offset arrays);
//! * **pass 2** streams the forward arrays directly — the generator emits
//!   all of a node's out-edges consecutively in source order, which *is*
//!   CSR order — and scatters the reverse arrays through a cursor.
//!
//! Peak auxiliary memory beyond the final snapshot is the preferential-
//! attachment endpoint pool (one `u32` per edge endpoint), the offset/cursor
//! arrays, and a per-node dedup scratch of at most `edges_per_node` entries
//! — all small multiples of `4 bytes × (nodes + edges)`, versus the
//! `Graph`'s per-edge records plus two nested adjacency tables plus a second
//! name table.  Floor 10 of `rpq_baseline` measures both paths' peaks at
//! 100k nodes with a counting allocator.

use crate::scale_free::{pick_label, ScaleFreeConfig};
use gps_graph::{CsrEntry, CsrGraph, EdgeId, LabelId, LabelInterner, NodeId};
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

    // Pass 1: degree counting, one slot ahead so the prefix sums leave
    // offsets[node] = start of its slice.
    let mut fwd_offsets = vec![0u32; n + 1];
    let mut rev_offsets = vec![0u32; n + 1];
    let mut edge_total = 0usize;
    replay(config, &label_ids, |source, _, target| {
        fwd_offsets[source as usize + 1] += 1;
        rev_offsets[target as usize + 1] += 1;
        edge_total += 1;
    });
    for i in 1..=n {
        fwd_offsets[i] += fwd_offsets[i - 1];
        rev_offsets[i] += rev_offsets[i - 1];
    }

    // Pass 2: forward arrays stream in emission order (the generator emits
    // all of node i's out-edges consecutively and nodes in id order, which
    // is exactly CSR layout); reverse arrays scatter through a cursor.
    // Edge ids are sequential in insertion order, as in a fresh `Graph`.
    let mut fwd_entries = Vec::with_capacity(edge_total);
    let mut fwd_edge_ids = Vec::with_capacity(edge_total);
    let mut rev_entries = vec![
        CsrEntry {
            label: LabelId::from(0usize),
            node: NodeId::from(0usize),
        };
        edge_total
    ];
    let mut rev_edge_ids = vec![EdgeId::from(0usize); edge_total];
    let mut rev_cursor = rev_offsets.clone();
    replay(config, &label_ids, |source, label, target| {
        let id = EdgeId::from(fwd_entries.len());
        fwd_entries.push(CsrEntry {
            label,
            node: NodeId::from(target as usize),
        });
        fwd_edge_ids.push(id);
        let slot = &mut rev_cursor[target as usize];
        rev_entries[*slot as usize] = CsrEntry {
            label,
            node: NodeId::from(source as usize),
        };
        rev_edge_ids[*slot as usize] = id;
        *slot += 1;
    });
    debug_assert_eq!(fwd_entries.len(), edge_total);

    let node_names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    CsrGraph::from_raw_parts(
        node_names,
        labels,
        fwd_offsets,
        fwd_entries,
        fwd_edge_ids,
        rev_offsets,
        rev_entries,
        rev_edge_ids,
        0,
    )
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
        }
        assert_eq!(streamed.fwd_offsets(), reference.fwd_offsets());
        assert_eq!(streamed.fwd_entries(), reference.fwd_entries());
        assert_eq!(streamed.fwd_edge_ids(), reference.fwd_edge_ids());
        assert_eq!(streamed.rev_offsets(), reference.rev_offsets());
        assert_eq!(streamed.rev_entries(), reference.rev_entries());
        assert_eq!(streamed.rev_edge_ids(), reference.rev_edge_ids());
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
