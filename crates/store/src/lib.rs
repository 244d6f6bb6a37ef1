//! `gps-store` — durable persistence for the GPS engine's versioned graph.
//!
//! The crate provides the [`GraphStore`] seam a durable `VersionedStore`
//! publishes through, and [`FileStore`], its implementation: a write-ahead
//! log of name-addressed [`UpdateOp`] batches ([`wal`]) plus snapshot
//! checkpoints of compacted CSR epochs ([`snapshot`]), with
//! replay-on-startup recovery.  An in-memory `VersionedStore` has no
//! `GraphStore`: it persists nothing.
//!
//! The durability contract: staged batches are appended without fsync, a
//! single fsync lands on the commit record at publish, and a publish is
//! durable if and only if its commit record reached the device.  Recovery
//! loads the latest checkpoint, replays committed WAL batches in order, and
//! discards torn or uncommitted tails — a crash at any byte offset yields
//! either the pre- or the post-publish graph, never a hybrid.
//!
//! Everything is hand-rolled over `std` (length-prefixed records, CRC-32
//! checksums, little-endian packed arrays); the crate adds no dependencies
//! beyond the workspace's vendored `parking_lot`.
//!
//! [`UpdateOp`]: gps_graph::UpdateOp

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod metrics;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use codec::crc32;
pub use error::StoreError;
pub use metrics::StoreMetrics;
pub use snapshot::{decode_snapshot, encode_snapshot, SNAPSHOT_MAGIC};
pub use store::{
    CheckpointReceipt, CommitReceipt, FileStore, GraphStore, RecoveredState, StagedBatch,
};
pub use wal::{CommittedBatch, WalRecord, WalScan, WAL_MAGIC};
