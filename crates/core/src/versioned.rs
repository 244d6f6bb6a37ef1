//! Epoch-versioned multi-version concurrency over [`EngineCore`]s — the
//! write path of a *live* served graph.
//!
//! The engine's read structures (CSR snapshot, label index, bounded
//! evaluation cache) are immutable by design, so updates work the way
//! snapshot-isolation databases do: writers never touch what readers hold.
//!
//! * Writers **stage** name-addressed [`UpdateOp`]s ([`GraphUpdate`]) into
//!   the store, then [`publish`](VersionedStore::publish): the staged ops are
//!   applied through a [`gps_graph::DeltaGraph`] overlay, compacted into a
//!   fresh snapshot stamped with the next epoch, and the whole read stack is
//!   *advanced* — the label index is patched through the delta (untouched
//!   label partitions are `Arc`-shared with the previous
//!   epoch), and the new evaluation cache inherits the old epoch's
//!   bounded-word index with only the affected nodes re-derived.
//! * Readers resolve the **latest** core when they start
//!   ([`pin_latest`](VersionedStore::pin_latest)); a session holds its birth
//!   core's `Arc`s for its whole life, so a publish never changes what an
//!   in-flight session observes — transcripts are byte-stable across
//!   concurrent publishes (`tests/mvcc_conformance.rs`).
//! * When a superseded epoch has no pins — at its last unpin, or at the
//!   publish that supersedes it — the store **retires** it: its cache
//!   entries are dropped atomically ([`gps_rpq::EvalCache::retire`]), the
//!   core leaves the live set and a `retire` event names the epoch, so
//!   memory is bounded by (current epoch + epochs with in-flight sessions).
//!
//! The service layer wires this into sessions: `SessionManager` pins every
//! session to its birth epoch and `SessionManager::update` is the client-facing
//! write API (see [`crate::service`]).
//!
//! ## Durability
//!
//! A store is durable or it is not.  [`new`](VersionedStore::new) starts an
//! in-memory store: nothing is persisted, and every publish's
//! [`DurabilityReport`] is the default.
//! [`open_durable`](VersionedStore::open_durable) backs the store with a
//! [`FileStore`] behind the [`GraphStore`] seam: staged batches are appended
//! to a write-ahead log, each publish fsyncs one commit record *before* the
//! in-memory epoch swap (visible ⟹ durable), and a snapshot checkpoint every
//! [`checkpoint_every_n_publishes`](GpsBuilder::checkpoint_every_n_publishes)
//! bounds the log.  Reopening the same directory replays the committed log
//! suffix on top of the latest checkpoint through the same epoch step a
//! publish runs, so the recovered epoch carries a patched label index and
//! an inherited evaluation cache just like a live publish would.

use crate::engine::{EngineCore, GpsBuilder};
use crate::error::GpsError;
use crate::metrics::CoreMetrics;
use gps_graph::UpdateOp;
use gps_rpq::MigrationReport;
use gps_store::{CommitReceipt, FileStore, GraphStore, StagedBatch, StoreMetrics};
use gps_telemetry::MetricsRegistry;
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch of staged mutations, addressed by node name (built incrementally
/// or from a pre-generated stream such as
/// `gps_datasets::updates::update_stream`).
#[derive(Debug, Clone, Default)]
pub struct GraphUpdate {
    ops: Vec<UpdateOp>,
}

impl GraphUpdate {
    /// An empty update.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a pre-generated op stream.
    pub fn from_ops(ops: Vec<UpdateOp>) -> Self {
        Self { ops }
    }

    /// Stages a node insertion.
    pub fn add_node(mut self, name: impl Into<String>) -> Self {
        self.ops.push(UpdateOp::AddNode(name.into()));
        self
    }

    /// Stages an edge insertion (endpoints must exist by publish time).
    pub fn add_edge(
        mut self,
        source: impl Into<String>,
        label: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        self.ops.push(UpdateOp::AddEdge {
            source: source.into(),
            label: label.into(),
            target: target.into(),
        });
        self
    }

    /// Stages an edge deletion.
    pub fn remove_edge(
        mut self,
        source: impl Into<String>,
        label: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        self.ops.push(UpdateOp::RemoveEdge {
            source: source.into(),
            label: label.into(),
            target: target.into(),
        });
        self
    }

    /// Number of staged ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The staged ops.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }
}

/// What a publish cost at the durability layer (the default under an
/// in-memory store).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DurabilityReport {
    /// WAL bytes this publish appended (stage records + commit record).
    pub wal_bytes: u64,
    /// Wall-clock time of the commit-record fsync.
    pub fsync: Duration,
    /// Whether this publish triggered a snapshot checkpoint.
    pub checkpointed: bool,
    /// A checkpoint that was due but failed, rendered for display.  The
    /// publish itself succeeded — its commit record is durable and the new
    /// epoch is visible — so a checkpoint failure is *not* a publish
    /// failure: returning `Err` would invite callers to re-stage and
    /// double-apply ops that are already in.  The store poisons itself on
    /// failures that desynchronize the log, so subsequent writes fail fast;
    /// this field is how the original cause surfaces.
    pub checkpoint_error: Option<String>,
}

/// What [`VersionedStore::open_durable`] recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when the directory held no prior state (a fresh store was
    /// initialised from the builder's graph).
    pub created: bool,
    /// Epoch of the checkpoint the recovery started from.
    pub checkpoint_epoch: u64,
    /// Committed publishes replayed from the write-ahead log.
    pub replayed_publishes: usize,
    /// Total ops across the replayed publishes.
    pub replayed_ops: usize,
    /// The epoch the store serves after recovery.
    pub current_epoch: u64,
    /// Bytes of torn or uncommitted WAL tail discarded by the recovery.
    pub discarded_bytes: u64,
}

/// Where one publish's wall-clock time went: seven consecutive phases that
/// add up to [`PublishReport::latency`] minus the bookkeeping around them
/// (taking the staged batches, counters, a due checkpoint, the audit
/// event).  The first five are the epoch step a recovery's replay runs too.
/// All zeros for an empty publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PublishPhases {
    /// Staged ops applied to the delta overlay and summarized.
    pub apply: Duration,
    /// Overlay spliced into the next snapshot.
    pub compact: Duration,
    /// Label index patched.
    pub index_patch: Duration,
    /// Cached answers classified: carried, left pending for a resume on
    /// their first read, or dropped.  No answer is recomputed here.
    pub migrate_answers: Duration,
    /// Bounded-word index inherited.
    pub inherit_words: Duration,
    /// Commit record written and fsynced (nothing to do in memory).
    pub commit: Duration,
    /// Epoch swap, then unpinned superseded epochs retired and freed.
    pub swap_retire: Duration,
}

impl PublishPhases {
    /// The phases by metric name, in the order they run.
    pub fn named(&self) -> [(&'static str, Duration); 7] {
        [
            ("apply", self.apply),
            ("compact", self.compact),
            ("index_patch", self.index_patch),
            ("migrate_answers", self.migrate_answers),
            ("inherit_words", self.inherit_words),
            ("commit", self.commit),
            ("swap_retire", self.swap_retire),
        ]
    }

    /// Sum of the seven phases.
    pub fn total(&self) -> Duration {
        self.named().iter().map(|&(_, phase)| phase).sum()
    }
}

/// What one [`VersionedStore::publish`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PublishReport {
    /// The epoch the publish produced (unchanged for an empty publish).
    pub epoch: u64,
    /// Nodes inserted.
    pub added_nodes: usize,
    /// Edges inserted.
    pub added_edges: usize,
    /// Edges removed.
    pub removed_edges: usize,
    /// Label partitions the index patch touched.
    pub touched_labels: usize,
    /// Cached answers whose DFA alphabet is disjoint from the touched labels,
    /// migrated verbatim into the new epoch's cache (Tier-1 carry).
    pub carried_answers: usize,
    /// Cached answers scheduled to resume their seeded fixed point across an
    /// insert-only delta (Tier-2 reseed); the resume runs on first read.
    pub reseeded_answers: usize,
    /// Cached answers scheduled to resume across a removal-bearing delta by
    /// the over-delete/re-derive sweep (Tier-3 delete-reseed); the resume
    /// runs on first read.
    pub delete_reseeded_answers: usize,
    /// Cached answers dropped to a cold recompute on next use (no captured
    /// seed, capacity-evicted, or pending past the changed-edge budget — the
    /// cache's `gps_rpq_cache_fallback_*` reason counters split this sum;
    /// a resume the evaluator declines on read is counted there too, as
    /// saturation, but not here).
    pub recomputed_answers: usize,
    /// The answer migration in full: the four counts above and the cold
    /// fallbacks by reason.  How many seed blocks the resumes copied is
    /// counted when they run, on first read
    /// (`gps_rpq_cache_migrate_blocks_{copied,shared}_total`).
    pub migration: MigrationReport,
    /// Superseded epochs retired by this publish (no sessions pinned).
    pub retired_epochs: usize,
    /// Wall-clock time of the publish (delta apply + compact + index/cache
    /// patch + swap).
    pub latency: Duration,
    /// The same time, phase by phase.
    pub phases: PublishPhases,
    /// What the publish cost at the durability layer (the default under an
    /// in-memory store).
    pub durability: DurabilityReport,
}

/// One live epoch: its core and the number of sessions pinned to it.
#[derive(Debug)]
struct EpochSlot {
    core: EngineCore,
    pins: usize,
}

/// The newest of the live epochs: the latest one.  A store starts with one
/// epoch and removes only superseded ones, so there always is one.
fn latest_slot(epochs: &mut BTreeMap<u64, EpochSlot>) -> &mut EpochSlot {
    epochs
        .values_mut()
        .next_back()
        .expect("the latest epoch is always live")
}

/// An epoch-versioned store of [`EngineCore`]s: one *latest* epoch serving
/// new readers, plus every superseded epoch that still has pinned readers.
/// See the [module docs](self) for the writer/reader model.
#[derive(Debug)]
pub struct VersionedStore {
    /// The live epochs: the latest (the newest slot, the core new readers
    /// resolve) plus every superseded one with pinned readers.
    epochs: Mutex<BTreeMap<u64, EpochSlot>>,
    /// The epoch the store was created or recovered at.
    founded: u64,
    /// Batches staged since the last publish, each carrying the sequence
    /// number its WAL record was written under (`0` in memory).
    staged: Mutex<Vec<StagedBatch>>,
    /// Serializes publishes (stage/pin/read paths are not blocked by an
    /// in-flight publish until its final swap).
    publish_lock: Mutex<()>,
    /// The durable store every write goes through; `None` in memory.
    store: Option<Arc<dyn GraphStore>>,
    /// Publishes between the durable store's checkpoints (`0`: never).
    checkpoint_every: u64,
    /// The epoch the durable store last checkpointed (or was founded) at;
    /// read and written only under the publish lock.
    checkpoint_epoch: AtomicU64,
    /// The registry the founding core was built with (disabled by default);
    /// event records go here, and [`metrics`](Self::metrics) are pre-bound
    /// handles into it.
    registry: Arc<MetricsRegistry>,
    metrics: CoreMetrics,
}

impl VersionedStore {
    /// Starts an in-memory store at `core`'s epoch: nothing is persisted and
    /// nothing is checkpointed.
    pub fn new(core: EngineCore) -> Self {
        Self::with_store(core, None, 0)
    }

    /// Starts a store at `core`'s epoch, durable when `store` is given.
    ///
    /// The caller guarantees `store` already holds state covering `core`
    /// (a fresh store, or one whose checkpoint plus committed log is
    /// `core`'s snapshot) — [`open_durable`](Self::open_durable) is the only
    /// caller that passes one.
    fn with_store(
        core: EngineCore,
        store: Option<Arc<dyn GraphStore>>,
        checkpoint_every: u64,
    ) -> Self {
        let registry = Arc::clone(core.metrics_registry());
        let metrics = CoreMetrics::from_registry(&registry);
        let epoch = core.epoch();
        metrics.live_epochs.set(1);
        metrics.current_epoch.set(epoch);
        metrics.record_snapshot_bytes(core.snapshot());
        Self {
            epochs: Mutex::new(BTreeMap::from([(epoch, EpochSlot { core, pins: 0 })])),
            founded: epoch,
            staged: Mutex::new(Vec::new()),
            publish_lock: Mutex::new(()),
            store,
            checkpoint_every,
            checkpoint_epoch: AtomicU64::new(epoch),
            registry,
            metrics,
        }
    }

    /// Opens (creating if needed) a durable store at `dir`: the write path
    /// of [`Self::new`] plus a file-backed [`GraphStore`] underneath.
    ///
    /// On a fresh directory the builder's graph becomes the base checkpoint.
    /// On an existing one the builder contributes only its configuration
    /// (session knobs, cache capacity, checkpoint cadence, telemetry) — the
    /// graph state comes from the latest checkpoint plus a replay of every
    /// committed write-ahead-log batch, each applied through the epoch step
    /// a live publish runs.  Torn or uncommitted log tails are discarded; a
    /// crash at any byte offset recovers to either the pre- or the
    /// post-publish graph.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        builder: GpsBuilder,
    ) -> Result<(Self, RecoveryReport), GpsError> {
        let checkpoint_every = builder.checkpoint_every;
        let registry = Arc::clone(builder.metrics_registry());
        let metrics = CoreMetrics::from_registry(&registry);
        let recovery_started = Instant::now();
        let (file_store, recovered) = FileStore::open(dir)?;
        let store: Arc<dyn GraphStore> = Arc::new(file_store);
        store.set_metrics(StoreMetrics::from_registry(&registry));

        let (core, created, checkpoint_epoch) = match recovered.snapshot {
            None => {
                if !recovered.batches.is_empty() {
                    return Err(GpsError::CorruptLog(
                        "write-ahead log without a base checkpoint".to_string(),
                    ));
                }
                let core = builder.build();
                store.checkpoint(core.snapshot(), &[])?;
                let epoch = core.epoch();
                (core, true, epoch)
            }
            Some(snapshot) => {
                let checkpoint_epoch = snapshot.epoch();
                let core = builder.build_core_over(Arc::new(snapshot));
                (core, false, checkpoint_epoch)
            }
        };

        let mut core = core;
        let mut replayed_publishes = 0usize;
        let mut replayed_ops = 0usize;
        for batch in &recovered.batches {
            // Batches at or below the checkpoint epoch survive when a crash
            // interrupted a checkpoint between the snapshot rename and the
            // WAL truncation; they are already folded into the snapshot.
            if batch.epoch <= core.epoch() {
                continue;
            }
            if batch.epoch != core.epoch() + 1 {
                return Err(GpsError::CorruptLog(format!(
                    "write-ahead log skips from epoch {} to {}",
                    core.epoch(),
                    batch.epoch
                )));
            }
            // Replay cares only about reaching the final epoch; the step's
            // report is a live-publish observability concern.
            core = core
                .advance(&batch.ops)
                .map_err(|e| {
                    GpsError::CorruptLog(format!(
                        "committed batch for epoch {} does not apply: {e}",
                        batch.epoch
                    ))
                })?
                .0;
            replayed_publishes += 1;
            replayed_ops += batch.ops.len();
        }
        if replayed_publishes > 0 && checkpoint_every != 0 {
            // Fold the replay into a fresh checkpoint so the next open is
            // cheap; with checkpointing off the log is left untouched.
            store.checkpoint(core.snapshot(), &[])?;
        }

        let report = RecoveryReport {
            created,
            checkpoint_epoch,
            replayed_publishes,
            replayed_ops,
            current_epoch: core.epoch(),
            discarded_bytes: recovered.discarded_bytes,
        };
        metrics
            .recovery_replay
            .record_duration(recovery_started.elapsed());
        registry.event_with("recovery", || {
            vec![
                ("created".to_string(), report.created.to_string()),
                (
                    "checkpoint_epoch".to_string(),
                    report.checkpoint_epoch.to_string(),
                ),
                (
                    "replayed_publishes".to_string(),
                    report.replayed_publishes.to_string(),
                ),
                ("replayed_ops".to_string(), report.replayed_ops.to_string()),
                (
                    "current_epoch".to_string(),
                    report.current_epoch.to_string(),
                ),
                (
                    "discarded_bytes".to_string(),
                    report.discarded_bytes.to_string(),
                ),
            ]
        });
        Ok((
            Self::with_store(core, Some(store), checkpoint_every),
            report,
        ))
    }

    /// A clone of the latest core (un-pinned: for one-shot reads).
    pub fn latest(&self) -> EngineCore {
        latest_slot(&mut self.epochs.lock()).core.clone()
    }

    /// The telemetry registry this store records into — the founding core's
    /// registry (disabled unless [`GpsBuilder::metrics`] wired one).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The epoch new sessions currently resolve.
    pub fn current_epoch(&self) -> u64 {
        latest_slot(&mut self.epochs.lock()).core.epoch()
    }

    /// Number of live epochs (latest + superseded ones with pinned readers).
    pub fn live_epochs(&self) -> usize {
        self.epochs.lock().len()
    }

    /// Publishes since the store was created or recovered: each one that
    /// changed anything advanced the epoch by exactly one.
    pub fn publish_count(&self) -> u64 {
        self.current_epoch() - self.founded
    }

    /// Number of staged ops awaiting the next publish.
    pub fn staged_len(&self) -> usize {
        self.staged.lock().iter().map(|batch| batch.ops.len()).sum()
    }

    /// Whether writes reach stable storage (`false` for a store from
    /// [`new`](Self::new)).
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Bytes currently held by the durable store's write-ahead log (0 in
    /// memory).
    pub fn wal_bytes(&self) -> u64 {
        self.store.as_ref().map_or(0, |store| store.wal_bytes())
    }

    /// Stages an update for the next [`publish`](Self::publish).  A durable
    /// store appends it to its write-ahead log (without fsync — only the
    /// publish's commit record is synced).
    pub fn stage(&self, update: GraphUpdate) -> Result<(), GpsError> {
        if update.is_empty() {
            return Ok(());
        }
        // The WAL append happens under the staged lock so record order on
        // disk matches buffer order (commit ranges assume it).
        let mut staged = self.staged.lock();
        let seq = match &self.store {
            Some(store) => store.append_staged(&update.ops)?,
            None => 0,
        };
        self.metrics.staged_ops.add(update.ops.len() as u64);
        self.registry.event_with("stage", || {
            vec![
                ("seq".to_string(), seq.to_string()),
                ("ops".to_string(), update.ops.len().to_string()),
            ]
        });
        staged.push(StagedBatch {
            seq,
            ops: update.ops,
        });
        Ok(())
    }

    /// Resolves the latest core *and* pins its epoch: the epoch stays live —
    /// and its cache un-retired — until the matching
    /// [`unpin`](Self::unpin).  This is what a session manager calls at
    /// session open.
    pub fn pin_latest(&self) -> EngineCore {
        let mut epochs = self.epochs.lock();
        let slot = latest_slot(&mut epochs);
        slot.pins += 1;
        slot.core.clone()
    }

    /// Releases one pin of `epoch`.  A superseded epoch whose last pin is
    /// released is retired immediately (entries dropped, core removed from
    /// the live set).
    pub fn unpin(&self, epoch: u64) {
        let retired = {
            let mut epochs = self.epochs.lock();
            let latest = epochs.keys().next_back() == Some(&epoch);
            let Entry::Occupied(mut slot) = epochs.entry(epoch) else {
                return;
            };
            let pins = &mut slot.get_mut().pins;
            *pins = pins.saturating_sub(1);
            if *pins > 0 || latest {
                return;
            }
            let slot = slot.remove();
            self.metrics.live_epochs.set(epochs.len() as u64);
            slot
        };
        self.retire(epoch, retired);
    }

    /// Retires a superseded epoch nobody pins any more: its cache entries
    /// are dropped at once ([`gps_rpq::EvalCache::retire`]), then its core.
    /// Called outside the epochs lock — freeing a snapshot, index and
    /// answers is graph-sized work, and every session open takes that lock.
    fn retire(&self, epoch: u64, slot: EpochSlot) {
        slot.core.eval_cache().retire();
        drop(slot);
        self.metrics.retired_epochs.inc();
        self.registry
            .event_with("retire", || vec![("epoch".to_string(), epoch.to_string())]);
    }

    /// Stages `update` and immediately publishes it.
    pub fn update(&self, update: GraphUpdate) -> Result<PublishReport, GpsError> {
        self.stage(update)?;
        self.publish()
    }

    /// Applies every staged op and publishes the next epoch.
    ///
    /// The heavy work (the epoch step: delta application, compaction,
    /// index and cache patching) happens outside any reader-visible lock;
    /// only the final swap holds the epoch registry.  In-flight sessions
    /// keep their pinned epoch; sessions opened after the swap see the new
    /// one.  On error (an op referencing a missing node or edge) nothing is
    /// published and the whole batch is discarded — publishes are
    /// all-or-nothing.
    ///
    /// Under a durable store the commit record is fsynced *before* the
    /// in-memory swap: a publish is visible only once it is durable, and a
    /// crash at any point recovers to either the previous or the new epoch.
    /// A checkpoint failure *after* the swap does not fail the publish —
    /// `Err` from this method always means nothing was published.  It is
    /// surfaced in [`DurabilityReport::checkpoint_error`] instead.
    pub fn publish(&self) -> Result<PublishReport, GpsError> {
        let _serialized = self.publish_lock.lock();
        let started = Instant::now();
        let batches: Vec<StagedBatch> = std::mem::take(&mut *self.staged.lock());
        let base = self.latest();
        let (Some(first), Some(last)) = (batches.first(), batches.last()) else {
            return Ok(PublishReport {
                epoch: base.epoch(),
                latency: started.elapsed(),
                ..PublishReport::default()
            });
        };
        let (first_seq, last_seq) = (first.seq, last.seq);
        let ops: Vec<UpdateOp> = batches.into_iter().flat_map(|batch| batch.ops).collect();

        let (next, mut report) = base.advance(&ops)?;
        drop(base);
        let epoch = next.epoch();
        self.metrics.record_snapshot_bytes(next.snapshot());

        // Durability point: the publish becomes visible to readers only
        // after its commit record is on stable storage.
        let committing = Instant::now();
        let committed = match self.store.as_deref() {
            Some(store) => Some((
                store,
                store.commit(epoch, first_seq, last_seq, ops.len() as u32)?,
            )),
            None => None,
        };
        let swapping = Instant::now();
        report.phases.commit = swapping - committing;

        let (stale, live_epochs) = {
            let mut epochs = self.epochs.lock();
            epochs.insert(
                epoch,
                EpochSlot {
                    core: next,
                    pins: 0,
                },
            );
            let stale: Vec<(u64, EpochSlot)> = epochs
                .extract_if(.., |&e, slot| e != epoch && slot.pins == 0)
                .collect();
            (stale, epochs.len() as u64)
        };
        report.retired_epochs = stale.len();
        for (retired, slot) in stale {
            self.retire(retired, slot);
        }
        report.phases.swap_retire = swapping.elapsed();
        self.metrics.publishes.inc();
        self.metrics.live_epochs.set(live_epochs);
        self.metrics.current_epoch.set(epoch);
        if let Some((store, receipt)) = committed {
            report.durability = self.checkpoint_if_due(store, epoch, receipt);
        }
        report.latency = started.elapsed();
        self.metrics.publish_latency.record_duration(report.latency);
        for (histogram, (_, phase)) in self
            .metrics
            .publish_phases
            .iter()
            .zip(report.phases.named())
        {
            histogram.record_duration(phase);
        }
        self.registry.event_with("publish", || {
            vec![
                ("epoch".to_string(), epoch.to_string()),
                ("ops".to_string(), ops.len().to_string()),
                (
                    "retired_epochs".to_string(),
                    report.retired_epochs.to_string(),
                ),
            ]
        });
        Ok(report)
    }

    /// What the durable `store` did for the publish of `epoch`: the commit
    /// `receipt`, then a checkpoint when one is due.
    ///
    /// The publish is already committed, swapped and visible, so a failed
    /// checkpoint is reported, not propagated: callers would read an `Err`
    /// as "publish failed" and re-stage ops that are already in.  The store
    /// poisons itself when the failure left the log inconsistent.  Runs
    /// under the publish lock and holds the staged lock across the store
    /// call, so batches staged concurrently are either re-appended after the
    /// WAL truncation or land after it — never lost.
    fn checkpoint_if_due(
        &self,
        store: &dyn GraphStore,
        epoch: u64,
        receipt: CommitReceipt,
    ) -> DurabilityReport {
        let mut report = DurabilityReport {
            wal_bytes: receipt.wal_bytes,
            fsync: receipt.fsync,
            ..DurabilityReport::default()
        };
        let since = epoch - self.checkpoint_epoch.load(Ordering::Relaxed);
        if self.checkpoint_every == 0 || since < self.checkpoint_every {
            return report;
        }
        let core = self.latest();
        let written = store.checkpoint(core.snapshot(), &self.staged.lock());
        match written {
            Ok(_) => {
                self.checkpoint_epoch.store(epoch, Ordering::Relaxed);
                report.checkpointed = true;
                self.registry.event_with("checkpoint", || {
                    vec![("epoch".to_string(), epoch.to_string())]
                });
            }
            Err(e) => {
                let error = GpsError::from(e).to_string();
                self.metrics.checkpoint_errors.inc();
                self.registry.event_with("checkpoint_error", || {
                    vec![
                        ("epoch".to_string(), epoch.to_string()),
                        ("error".to_string(), error.clone()),
                    ]
                });
                report.checkpoint_error = Some(error);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};

    fn store() -> VersionedStore {
        let (graph, _) = figure1_graph();
        VersionedStore::new(Engine::builder(graph).build())
    }

    #[test]
    fn publish_advances_the_epoch_and_new_readers_see_it() {
        let store = store();
        assert_eq!(store.current_epoch(), 0);
        let before = store.latest().evaluate(MOTIVATING_QUERY).unwrap();

        // N9 gains a cinema: bus(N5->N9 exists? no — build our own hop).
        let report = store
            .update(
                GraphUpdate::new()
                    .add_node("C9")
                    .add_edge("N5", "cinema", "C9"),
            )
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.added_nodes, 1);
        assert_eq!(report.added_edges, 1);
        assert_eq!(store.current_epoch(), 1);
        assert_eq!(store.live_epochs(), 1, "epoch 0 had no pins: retired");
        assert_eq!(report.retired_epochs, 1);

        let after = store.latest().evaluate(MOTIVATING_QUERY).unwrap();
        let n5 = store.latest().snapshot().node_by_name("N5").unwrap();
        assert!(after.contains(n5), "N5 now reaches a cinema");
        assert!(!before.contains(n5));
    }

    #[test]
    fn pinned_epochs_survive_a_publish_and_retire_on_unpin() {
        let store = store();
        let pinned = store.pin_latest();
        assert_eq!(pinned.epoch(), 0);
        store.update(GraphUpdate::new().add_node("X9")).unwrap();
        assert_eq!(store.live_epochs(), 2, "epoch 0 still pinned");
        assert!(!pinned.eval_cache().is_retired());
        // The pinned core still answers against its own snapshot.
        assert!(pinned.snapshot().node_by_name("X9").is_none());
        assert!(store.latest().snapshot().node_by_name("X9").is_some());
        store.unpin(0);
        assert_eq!(store.live_epochs(), 1);
        assert!(pinned.eval_cache().is_retired());
    }

    #[test]
    fn failed_publishes_are_all_or_nothing() {
        let store = store();
        let result = store.update(
            GraphUpdate::new()
                .add_edge("N1", "bus", "N2")
                .remove_edge("N1", "bus", "Nowhere"),
        );
        assert!(matches!(result, Err(GpsError::UnknownNode(_))));
        assert_eq!(store.current_epoch(), 0, "nothing was published");
        assert_eq!(store.staged_len(), 0, "the failed batch is discarded");
        let missing = store.update(GraphUpdate::new().remove_edge("N1", "bus", "N2"));
        assert!(matches!(missing, Err(GpsError::UnknownEdge(_))));
    }

    #[test]
    fn empty_publish_is_a_noop() {
        let store = store();
        let report = store.publish().unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(report.added_edges, 0);
        assert_eq!(store.publish_count(), 0);
    }

    /// A figure-1 store recording into an enabled registry.
    fn observed_store() -> (VersionedStore, Arc<MetricsRegistry>) {
        let (graph, _) = figure1_graph();
        let registry = Arc::new(MetricsRegistry::enabled());
        let core = Engine::builder(graph)
            .metrics(Arc::clone(&registry))
            .build();
        (VersionedStore::new(core), registry)
    }

    /// The `key` field of every recorded event of `kind`, in order.
    fn event_fields(registry: &MetricsRegistry, kind: &str, key: &str) -> Vec<String> {
        let events = registry.snapshot().events;
        events
            .into_iter()
            .filter(|event| event.kind == kind)
            .flat_map(|event| event.fields)
            .filter(|(field, _)| field == key)
            .map(|(_, value)| value)
            .collect()
    }

    #[test]
    fn in_memory_publishes_never_checkpoint() {
        let (store, registry) = observed_store();
        for i in 0..64 {
            let update = if i % 2 == 0 {
                GraphUpdate::new().add_edge("N6", "tram", "N1")
            } else {
                GraphUpdate::new().remove_edge("N6", "tram", "N1")
            };
            let report = store.update(update).unwrap();
            assert_eq!(report.durability, DurabilityReport::default(), "{i}");
        }
        assert_eq!(store.publish_count(), 64);
        assert!(!store.is_durable());
        assert_eq!(store.wal_bytes(), 0);
        assert!(event_fields(&registry, "checkpoint", "epoch").is_empty());
        assert_eq!(event_fields(&registry, "stage", "seq"), vec!["0"; 64]);
    }

    #[test]
    fn a_publish_retires_unpinned_epochs_like_an_unpin() {
        let (store, registry) = observed_store();
        store.update(GraphUpdate::new().add_node("X1")).unwrap();
        assert_eq!(event_fields(&registry, "retire", "epoch"), ["0"]);

        // Epoch 1 stays pinned across the next publish and retires on unpin.
        let pinned = store.pin_latest();
        let report = store.update(GraphUpdate::new().add_node("X2")).unwrap();
        assert_eq!(report.retired_epochs, 0);
        store.unpin(pinned.epoch());
        // Epoch 2 has no pins: the next publish retires it.
        let report = store.update(GraphUpdate::new().add_node("X3")).unwrap();
        assert_eq!(report.retired_epochs, 1);
        assert_eq!(event_fields(&registry, "retire", "epoch"), ["0", "1", "2"]);
        assert_eq!(
            registry.snapshot().counter("gps_core_retired_epochs_total"),
            Some(3)
        );
    }

    #[test]
    fn frontier_epochs_share_untouched_index_partitions() {
        let store = store();
        let old = store.latest();
        let old_index = old.shared_index();
        store
            .update(GraphUpdate::new().add_edge("N1", "bus", "N2"))
            .unwrap();
        let new = store.latest();
        let new_index = new.shared_index();
        assert!(!Arc::ptr_eq(&old_index, &new_index));
        // Same answers on both epochs for a query over an untouched label.
        let q = "cinema";
        assert_eq!(
            old.evaluate(q).unwrap().nodes(),
            new.evaluate(q).unwrap().nodes()
        );
    }

    #[test]
    fn epochs_share_untouched_adjacency_chunks() {
        use gps_graph::csr::CHUNK_ROWS;
        // Three adjacency chunks, the last one partial.
        let mut graph = gps_graph::Graph::new();
        for i in 0..2 * CHUNK_ROWS + 7 {
            graph.add_node(format!("v{i}"));
        }
        let n = graph.node_count();
        for i in 0..n {
            let next = gps_graph::NodeId::from((i + 1) % n);
            graph.add_edge_by_name(gps_graph::NodeId::from(i), "next", next);
        }
        let store = VersionedStore::new(Engine::builder(graph).build());

        // One edge inside the middle chunk: one forward chunk (its source's)
        // and one reverse chunk (its target's) are new.
        let base = store.latest();
        let (source, target) = (
            format!("v{}", CHUNK_ROWS + 3),
            format!("v{}", CHUNK_ROWS + 9),
        );
        store
            .update(GraphUpdate::new().add_edge(source, "next", target))
            .unwrap();
        let one_edge = store.latest();
        let sharing = one_edge.snapshot().shared_with(base.snapshot());
        assert_eq!(sharing, ((2, 1), (2, 1)));

        // Two new nodes and edges between them: only the tail chunk of each
        // direction is rebuilt.
        store
            .update(
                GraphUpdate::new()
                    .add_node("fresh")
                    .add_node("fresher")
                    .add_edge("fresh", "next", "fresher")
                    .add_edge("fresher", "next", "fresh"),
            )
            .unwrap();
        let grown = store.latest();
        assert_eq!(grown.snapshot().node_count(), n + 2);
        let sharing = grown.snapshot().shared_with(one_edge.snapshot());
        assert_eq!(sharing, ((2, 1), (2, 1)));
    }

    #[test]
    fn publish_inherits_the_bounded_word_index() {
        let store = store();
        let old = store.latest();
        old.eval_cache().bounded_words(3);
        store
            .update(GraphUpdate::new().add_edge("N1", "bus", "N2"))
            .unwrap();
        let new = store.latest();
        assert_eq!(
            new.eval_cache().words_bound(),
            Some(3),
            "the new epoch's word index was seeded by the publish"
        );
        // And it matches a cold derivation.
        let cold = gps_rpq::EvalCache::from_csr(new.snapshot().clone());
        let (inherited, cold) = (new.eval_cache().bounded_words(3), cold.bounded_words(3));
        for node in new.snapshot().nodes() {
            assert!(
                inherited[node.index()].iter().eq(cold[node.index()].iter()),
                "node {node}"
            );
        }
    }
}
