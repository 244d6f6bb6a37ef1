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
//! fwd_offsets  : (n + 1) × u32  // packed arrays, verbatim CSR layout
//! fwd_entries  : m × (label u32, node u32)
//! fwd_edge_ids : m × u32
//! rev_offsets  : (n + 1) × u32
//! rev_entries  : m × (label u32, node u32)
//! rev_edge_ids : m × u32
//! crc32: u32                    // over everything before it
//! ```
//!
//! The packed region starts 8-byte aligned at a header-recorded offset and is
//! the CSR arrays verbatim (little-endian `u32`s), so a later PR can mmap the
//! region and point the graph at it without a decode pass.  The name→id map
//! and the label interner's reverse index are rebuilt on load (first-bearer
//! semantics, identical to a from-scratch CSR build).
//!
//! Encoding is deterministic — byte-identical snapshots for byte-identical
//! graphs — which is what the crash-injection suite leans on to assert
//! recovered state equals a pre- or post-publish epoch exactly.

use crate::codec::{crc32, put_str, put_u32, put_u64, Cursor};
use crate::error::StoreError;
use gps_graph::csr::CsrEntry;
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
    for &offset in csr.fwd_offsets() {
        put_u32(&mut out, offset);
    }
    for entry in csr.fwd_entries() {
        put_u32(&mut out, entry.label.raw());
        put_u32(&mut out, entry.node.raw());
    }
    for &id in csr.fwd_edge_ids() {
        put_u32(&mut out, id.raw());
    }
    for &offset in csr.rev_offsets() {
        put_u32(&mut out, offset);
    }
    for entry in csr.rev_entries() {
        put_u32(&mut out, entry.label.raw());
        put_u32(&mut out, entry.node.raw());
    }
    for &id in csr.rev_edge_ids() {
        put_u32(&mut out, id.raw());
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
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

fn read_entries(
    cursor: &mut Cursor<'_>,
    m: usize,
    n: usize,
    labels: usize,
    side: &str,
) -> Result<Vec<CsrEntry>, StoreError> {
    let mut entries = Vec::with_capacity(m);
    for _ in 0..m {
        let label = cursor
            .u32()
            .ok_or_else(|| corrupt(cursor, &format!("truncated {side} entries")))?;
        let node = cursor
            .u32()
            .ok_or_else(|| corrupt(cursor, &format!("truncated {side} entries")))?;
        if label as usize >= labels || node as usize >= n {
            return Err(corrupt(cursor, &format!("{side} entry out of range")));
        }
        entries.push(CsrEntry {
            label: LabelId::new(label),
            node: NodeId::new(node),
        });
    }
    Ok(entries)
}

fn read_edge_ids(cursor: &mut Cursor<'_>, m: usize, side: &str) -> Result<Vec<EdgeId>, StoreError> {
    let mut ids = Vec::with_capacity(m);
    for _ in 0..m {
        ids.push(EdgeId::new(cursor.u32().ok_or_else(|| {
            corrupt(cursor, &format!("truncated {side} edge ids"))
        })?));
    }
    Ok(ids)
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

    let fwd_offsets = read_offsets(&mut cursor, n, m, "forward")?;
    let fwd_entries = read_entries(&mut cursor, m, n, label_count, "forward")?;
    let fwd_edge_ids = read_edge_ids(&mut cursor, m, "forward")?;
    let rev_offsets = read_offsets(&mut cursor, n, m, "reverse")?;
    let rev_entries = read_entries(&mut cursor, m, n, label_count, "reverse")?;
    let rev_edge_ids = read_edge_ids(&mut cursor, m, "reverse")?;
    if !cursor.is_empty() {
        return Err(corrupt(&cursor, "trailing bytes after the packed arrays"));
    }

    Ok(CsrGraph::from_raw_parts(
        node_names,
        labels,
        fwd_offsets,
        fwd_entries,
        fwd_edge_ids,
        rev_offsets,
        rev_entries,
        rev_edge_ids,
        epoch,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{Graph, GraphBackend};

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
    fn decoded_snapshot_serves_as_a_backend() {
        let csr = sample();
        let decoded = decode_snapshot(&encode_snapshot(&csr)).unwrap();
        let n1 = decoded.node_by_name("N1").unwrap();
        assert_eq!(GraphBackend::out_degree(&decoded, n1), 2);
        let edges: Vec<_> = GraphBackend::out_edges(&decoded, n1).collect();
        let expected: Vec<_> = GraphBackend::out_edges(&csr, n1).collect();
        assert_eq!(edges, expected, "edge ids survive the round trip");
    }
}
