//! Pre-bound telemetry handles for the durability layer.
//!
//! [`StoreMetrics`] is resolved once against a [`MetricsRegistry`] and
//! installed into a [`GraphStore`](crate::GraphStore) through
//! [`GraphStore::set_metrics`](crate::GraphStore::set_metrics) when a
//! durable `VersionedStore` opens.  A [`FileStore`](crate::FileStore) then
//! records WAL append volume, commit fsyncs and checkpoint durations as they
//! happen, under the same lock its I/O already holds.  An in-memory store
//! has no `GraphStore`, so these series stay absent there.

use gps_telemetry::{Counter, Histogram, MetricsRegistry};

/// The durability metric family (`gps_store_*`).
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// `gps_store_wal_bytes_total` — bytes appended to the write-ahead log
    /// (stage records, commit records and post-checkpoint re-appends alike).
    pub wal_bytes: Counter,
    /// `gps_store_fsyncs_total` — commit-record fsyncs performed.
    pub fsyncs: Counter,
    /// `gps_store_fsync_latency_ns` — wall time of one commit-record fsync.
    pub fsync_latency: Histogram,
    /// `gps_store_checkpoints_total` — snapshot checkpoints completed.
    pub checkpoints: Counter,
    /// `gps_store_checkpoint_latency_ns` — wall time of one whole checkpoint
    /// (encode + write + fsync + rename + WAL truncation + refill).
    pub checkpoint_latency: Histogram,
}

impl StoreMetrics {
    /// All-disabled handles: every recording is one branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Binds the `gps_store_*` family in `registry` (disabled handles when
    /// the registry is disabled).
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        Self {
            wal_bytes: registry.counter("gps_store_wal_bytes_total"),
            fsyncs: registry.counter("gps_store_fsyncs_total"),
            fsync_latency: registry.histogram("gps_store_fsync_latency_ns"),
            checkpoints: registry.counter("gps_store_checkpoints_total"),
            checkpoint_latency: registry.histogram("gps_store_checkpoint_latency_ns"),
        }
    }
}
