//! Checkpoint serialization of a compacted [`CsrGraph`] epoch.
//!
//! A checkpoint is one self-contained file:
//!
//! ```text
//! magic "GPSSNAP1" (8)
//! version: u32
//! epoch: u64
//! node_count: u64
//! edge_count: u64
//! label_count: u64
//! arrays_offset: u64            // absolute offset of the packed region
//! node names  (len-prefixed strings, node-id order)
//! label names (len-prefixed strings, label-id order)
//! zero padding to 8-byte alignment
//! fwd_offsets  : (n + 1) × u32  // packed arrays, flat CSR layout
//! fwd_entries  : m × (label u32, node u32)
//! fwd_edge_ids : m × u32
//! rev_offsets  : (n + 1) × u32
//! rev_entries  : m × (label u32, node u32)
//! rev_edge_ids : m × u32
//! crc32: u32                    // over everything before it
//! ```
//!
//! The packed region starts 8-byte aligned at a header-recorded offset and
//! holds each direction as one flat CSR (little-endian `u32`s): the in-memory
//! snapshot keeps its rows in node-range chunks, and the encoder writes the
//! offsets as a running sum of the row lengths, so the format does not
//! depend on the chunk size (a golden test pins the bytes).  The decoder
//! reads each direction straight into chunks, one entry and its edge id at a
//! time, without a flat copy.  The name→id map and the label
//! interner's reverse index are rebuilt on load (first-bearer semantics,
//! identical to a from-scratch CSR build).
//!
//! Encoding is deterministic — byte-identical snapshots for byte-identical
//! graphs — which is what the crash-injection suite leans on to assert
//! recovered state equals a pre- or post-publish epoch exactly.

use crate::codec::{crc32, put_str, put_u32, put_u64, Cursor};
use crate::error::StoreError;
use gps_graph::csr::{AdjacencyBuilder, CsrEntry};
use gps_graph::{CsrGraph, EdgeId, LabelId, LabelInterner, NodeId};

/// First bytes of every checkpoint file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"GPSSNAP1";

const SNAPSHOT_VERSION: u32 = 1;

/// Serializes a snapshot into the checkpoint format.
pub fn encode_snapshot(csr: &CsrGraph) -> Vec<u8> {
    let n = csr.node_count();
    let m = csr.edge_count();
    let mut out = Vec::with_capacity(64 + n * 16 + m * 24);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, csr.epoch());
    put_u64(&mut out, n as u64);
    put_u64(&mut out, m as u64);
    put_u64(&mut out, csr.label_count() as u64);
    let arrays_offset_pos = out.len();
    put_u64(&mut out, 0); // patched below once the names are written
    for name in csr.node_names() {
        put_str(&mut out, name);
    }
    for (_, name) in csr.labels().iter() {
        put_str(&mut out, name);
    }
    while out.len() % 8 != 0 {
        out.push(0);
    }
    let arrays_offset = out.len() as u64;
    out[arrays_offset_pos..arrays_offset_pos + 8].copy_from_slice(&arrays_offset.to_le_bytes());
    put_side(&mut out, csr, CsrGraph::out, CsrGraph::out_ids);
    put_side(&mut out, csr, CsrGraph::inc, CsrGraph::in_ids);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// One direction's flat arrays: offsets as a running sum of the row
/// lengths, then every row's entries, then every row's edge ids.
fn put_side(
    out: &mut Vec<u8>,
    csr: &CsrGraph,
    row: fn(&CsrGraph, NodeId) -> &[CsrEntry],
    ids: fn(&CsrGraph, NodeId) -> &[EdgeId],
) {
    let mut offset = 0u32;
    put_u32(out, offset);
    for node in csr.nodes() {
        offset += row(csr, node).len() as u32;
        put_u32(out, offset);
    }
    for node in csr.nodes() {
        for entry in row(csr, node) {
            put_u32(out, entry.label.raw());
            put_u32(out, entry.node.raw());
        }
    }
    for node in csr.nodes() {
        for &id in ids(csr, node) {
            put_u32(out, id.raw());
        }
    }
}

fn corrupt(cursor: &Cursor<'_>, reason: &str) -> StoreError {
    StoreError::corrupt(cursor.pos() as u64, reason)
}

fn read_offsets(
    cursor: &mut Cursor<'_>,
    n: usize,
    m: usize,
    side: &str,
) -> Result<Vec<u32>, StoreError> {
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(
            cursor
                .u32()
                .ok_or_else(|| corrupt(cursor, &format!("truncated {side} offsets")))?,
        );
    }
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&(m as u32))
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(corrupt(cursor, &format!("inconsistent {side} offsets")));
    }
    Ok(offsets)
}

/// Reads one direction straight into its chunks: the offsets first (they
/// size the rows), then every entry paired with its edge id from the ids
/// array, so no flat copy of either is held beside the chunks.
fn read_side(
    cursor: &mut Cursor<'_>,
    n: usize,
    m: usize,
    labels: usize,
    side: &str,
) -> Result<AdjacencyBuilder, StoreError> {
    let offsets = read_offsets(cursor, n, m, side)?;
    let entries_at = cursor.pos();
    let entries = cursor
        .take(m * 8)
        .ok_or_else(|| corrupt(cursor, &format!("truncated {side} entries")))?;
    let ids = cursor
        .take(m * 4)
        .ok_or_else(|| corrupt(cursor, &format!("truncated {side} edge ids")))?;
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("four bytes"));
    let mut builder = AdjacencyBuilder::new(offsets.windows(2).map(|w| w[1] - w[0]));
    let mut items = entries.chunks_exact(8).zip(ids.chunks_exact(4)).enumerate();
    for (row, span) in offsets.windows(2).enumerate() {
        for (at, (entry, id)) in items.by_ref().take((span[1] - span[0]) as usize) {
            let (label, node) = (word(&entry[..4]), word(&entry[4..]));
            if label as usize >= labels || node as usize >= n {
                return Err(StoreError::corrupt(
                    (entries_at + 8 * (at + 1)) as u64,
                    format!("{side} entry out of range"),
                ));
            }
            let entry = CsrEntry {
                label: LabelId::new(label),
                node: NodeId::new(node),
            };
            builder.place(row, entry, EdgeId::new(word(id)));
        }
    }
    Ok(builder)
}

/// Deserializes a checkpoint, validating the checksum and the structural
/// invariants of the packed arrays before rebuilding the snapshot.
pub fn decode_snapshot(bytes: &[u8]) -> Result<CsrGraph, StoreError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(StoreError::corrupt(0, "bad checkpoint magic"));
    }
    let body_len = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes(bytes[body_len..].try_into().expect("four bytes"));
    if crc32(&bytes[..body_len]) != stored_crc {
        return Err(StoreError::corrupt(
            body_len as u64,
            "checkpoint checksum mismatch",
        ));
    }
    let mut cursor = Cursor::new(&bytes[..body_len]);
    cursor.take(SNAPSHOT_MAGIC.len()).expect("checked above");
    let version = cursor
        .u32()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(&cursor, &format!("unsupported version {version}")));
    }
    let epoch = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))?;
    let n = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))? as usize;
    let m = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))? as usize;
    let label_count = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))? as usize;
    let arrays_offset = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))? as usize;
    if n > u32::MAX as usize || m > u32::MAX as usize || label_count > u32::MAX as usize {
        return Err(corrupt(&cursor, "count exceeds the 32-bit id space"));
    }

    let mut node_names = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        node_names.push(
            cursor
                .string()
                .ok_or_else(|| corrupt(&cursor, "truncated node names"))?,
        );
    }
    let mut labels = LabelInterner::new();
    for _ in 0..label_count {
        let name = cursor
            .string()
            .ok_or_else(|| corrupt(&cursor, "truncated label names"))?;
        labels.intern(&name);
    }
    if labels.len() != label_count {
        return Err(corrupt(&cursor, "duplicate label names"));
    }
    cursor
        .seek_to(arrays_offset)
        .ok_or_else(|| corrupt(&cursor, "packed-array offset out of bounds"))?;

    // Validate the packed-region length before any preallocation: `n` and
    // `m` are header-supplied, so a crafted (or CRC-colliding) file could
    // otherwise request multi-gigabyte `with_capacity` calls — an abort,
    // not a typed error — before the element reads ever fail.
    let packed_len = 2 * ((n as u64 + 1) * 4 + m as u64 * 12);
    if cursor.remaining() as u64 != packed_len {
        return Err(corrupt(&cursor, "packed-array region length mismatch"));
    }

    let fwd = read_side(&mut cursor, n, m, label_count, "forward")?;
    let rev = read_side(&mut cursor, n, m, label_count, "reverse")?;
    if !cursor.is_empty() {
        return Err(corrupt(&cursor, "trailing bytes after the packed arrays"));
    }

    Ok(CsrGraph::from_adjacency(
        node_names, labels, fwd, rev, epoch,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::Graph;

    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let a = g.add_node("N1");
        let b = g.add_node("N4");
        let c = g.add_node("C1");
        g.add_edge_by_name(a, "tram", b);
        g.add_edge_by_name(b, "cinema", c);
        g.add_edge_by_name(a, "bus", c);
        CsrGraph::from_graph(&g)
    }

    fn assert_same(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.label_count(), b.label_count());
        for node in a.nodes() {
            assert_eq!(a.node_name(node), b.node_name(node));
            assert_eq!(a.out(node), b.out(node));
            assert_eq!(a.inc(node), b.inc(node));
            let name = a.node_name(node);
            assert_eq!(a.node_by_name(name), b.node_by_name(name));
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let csr = sample();
        let bytes = encode_snapshot(&csr);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_same(&csr, &decoded);
        // Deterministic: re-encoding the decoded snapshot is byte-identical.
        assert_eq!(encode_snapshot(&decoded), bytes);
    }

    #[test]
    fn empty_graph_round_trips() {
        let csr = CsrGraph::from_graph(&Graph::new());
        let decoded = decode_snapshot(&encode_snapshot(&csr)).unwrap();
        assert_eq!(decoded.node_count(), 0);
        assert_eq!(decoded.edge_count(), 0);
    }

    #[test]
    fn epoch_is_preserved() {
        let csr = sample().with_epoch(17);
        let decoded = decode_snapshot(&encode_snapshot(&csr)).unwrap();
        assert_eq!(decoded.epoch(), 17);
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let bytes = encode_snapshot(&sample());
        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 1]),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(decode_snapshot(b"short").is_err());
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&flipped),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_huge_declared_edge_count_is_rejected_before_allocating() {
        // Patch the header's edge count to u32::MAX and re-stamp the CRC:
        // the decoder must return Corrupt without attempting the ~48 GB of
        // preallocation the count implies.
        let mut bytes = encode_snapshot(&sample());
        let edge_count_at = SNAPSHOT_MAGIC.len() + 4 + 8 + 8;
        bytes[edge_count_at..edge_count_at + 8].copy_from_slice(&(u32::MAX as u64).to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn an_entry_past_the_last_node_is_rejected() {
        // Point the last reverse entry (3 nodes, 3 edges) at node 3 and
        // re-stamp the CRC.
        let mut bytes = encode_snapshot(&sample());
        let body_len = bytes.len() - 4;
        let last_entry_node = body_len - 3 * 4 - 4;
        bytes[last_entry_node..last_entry_node + 4].copy_from_slice(&3u32.to_le_bytes());
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        match decode_snapshot(&bytes) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert_eq!(reason, "reverse entry out of range")
            }
            other => panic!("expected a corrupt checkpoint, got {other:?}"),
        }
    }

    /// The figure-1 graph after three fixed publishes: nodes and edges
    /// added, a base edge removed (every later edge id shifts down), and a
    /// new label on a new node.
    fn figure1_after_three_publishes() -> CsrGraph {
        use gps_graph::delta::UpdateOp;
        use gps_graph::DeltaGraph;
        use std::sync::Arc;
        let add = |source: &str, label: &str, target: &str| UpdateOp::AddEdge {
            source: source.into(),
            label: label.into(),
            target: target.into(),
        };
        let publishes = [
            vec![
                UpdateOp::AddNode("C3".into()),
                add("N5", "cinema", "C3"),
                add("N3", "tram", "N6"),
            ],
            vec![
                UpdateOp::RemoveEdge {
                    source: "N2".into(),
                    label: "bus".into(),
                    target: "N1".into(),
                },
                add("N1", "restaurant", "R1"),
            ],
            vec![
                UpdateOp::AddNode("P1".into()),
                add("P1", "bus", "N1"),
                add("N6", "park", "P1"),
            ],
        ];
        let (graph, _) = gps_datasets::figure1::figure1_graph();
        let mut snapshot = Arc::new(CsrGraph::from_graph(&graph));
        for ops in &publishes {
            let mut delta = DeltaGraph::new(Arc::clone(&snapshot));
            delta.apply_all(ops).unwrap();
            snapshot = Arc::new(delta.compact());
        }
        Arc::try_unwrap(snapshot).unwrap()
    }

    /// Pins the checkpoint bytes: a change to the in-memory layout of a
    /// snapshot, to compaction or to the encoder must leave them alone.
    #[test]
    fn figure1_checkpoint_bytes_are_golden() {
        let bytes = encode_snapshot(&figure1_after_three_publishes());
        assert_eq!((bytes.len(), crc32(&bytes)), (668, 0x2144_DF1C));
    }

    #[test]
    fn a_snapshot_spanning_four_chunks_round_trips() {
        use gps_graph::csr::CHUNK_ROWS;
        let n = 3 * CHUNK_ROWS + 5;
        let mut g = Graph::new();
        for i in 0..n {
            g.add_node(format!("v{}", i % 1000));
        }
        for i in 0..n {
            for step in [1, CHUNK_ROWS + 3, 7 * i + 2] {
                let label = ["a", "b", "c"][(i + step) % 3];
                g.add_edge_by_name(NodeId::from(i), label, NodeId::from((i + step) % n));
            }
        }
        let csr = CsrGraph::from_graph(&g).with_epoch(5);
        let bytes = encode_snapshot(&csr);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_same(&csr, &decoded);
        for node in csr.nodes() {
            assert_eq!(csr.out_ids(node), decoded.out_ids(node));
            assert_eq!(csr.in_ids(node), decoded.in_ids(node));
        }
        assert_eq!(encode_snapshot(&decoded), bytes);
    }

    #[test]
    fn decoded_snapshot_keeps_rows_and_edge_ids() {
        let csr = sample();
        let decoded = decode_snapshot(&encode_snapshot(&csr)).unwrap();
        let n1 = decoded.node_by_name("N1").unwrap();
        assert_eq!(decoded.out_degree(n1), 2);
        assert_eq!(decoded.out(n1), csr.out(n1));
        assert_eq!(
            decoded.out_ids(n1),
            csr.out_ids(n1),
            "edge ids survive the round trip"
        );
    }
}
