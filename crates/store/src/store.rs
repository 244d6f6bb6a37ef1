//! The [`GraphStore`] seam and [`FileStore`], its implementation: a
//! directory holding one write-ahead log (`wal.log`, format in
//! [`crate::wal`]) plus the latest snapshot checkpoint
//! (`checkpoint-<epoch>.snap`, format in [`crate::snapshot`]), guarded by an
//! exclusive advisory lock (`LOCK`) so only one store can have the directory
//! open at a time.
//!
//! An in-memory `VersionedStore` holds no `GraphStore` at all: it writes
//! nothing, so there is nothing to stand in for.  The trait stays a seam so
//! a wrapping store (one that traces, or injects faults) can sit between a
//! `VersionedStore` and its `FileStore`.
//!
//! ## The durability contract
//!
//! Staged batches are appended to the log *without* fsync; the single fsync
//! per publish lands on the commit record ([`GraphStore::commit`]).  A
//! publish is durable iff its commit record is on disk — recovery resolves
//! each commit against its staged range and discards everything else, so a
//! crash at any byte offset yields either the pre- or the post-publish
//! graph, never a torn hybrid.
//!
//! ## Failure handling
//!
//! A failed append is rolled back by truncating the file to its pre-append
//! length, keeping the record framing intact.  If that rollback — or the
//! commit fsync, whose outcome is unknowable after an error — fails, the
//! store *poisons* itself: every later operation returns an error, and the
//! one recovery path is reopening from disk, which re-derives the truth from
//! what actually reached the device.  The same applies to any failure after
//! a checkpoint has truncated the WAL (re-appending pending staged batches,
//! or the sync that follows): the log no longer matches the engine's staged
//! buffer, so continuing could fsync a commit record recovery cannot
//! resolve — an acknowledged publish that silently vanishes on restart.

use crate::error::StoreError;
use crate::metrics::StoreMetrics;
use crate::snapshot::{decode_snapshot, encode_snapshot};
use crate::wal::{self, CommittedBatch, WalRecord, WAL_MAGIC};
use gps_graph::{CsrGraph, UpdateOp};
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one [`GraphStore::commit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitReceipt {
    /// WAL bytes this publish appended (its stage records + commit record).
    pub wal_bytes: u64,
    /// Wall-clock time of the commit-record fsync.
    pub fsync: Duration,
}

/// What one [`GraphStore::checkpoint`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointReceipt {
    /// Size of the written checkpoint file in bytes.
    pub bytes: u64,
    /// WAL bytes the truncation reclaimed.
    pub truncated_wal_bytes: u64,
    /// Wall-clock time of the whole checkpoint (encode + write + fsync +
    /// WAL truncation).
    pub elapsed: Duration,
}

/// A staged batch paired with the sequence number the store assigned it —
/// what [`GraphStore::checkpoint`] re-appends so staged-but-unpublished work
/// survives the WAL truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedBatch {
    /// The sequence number assigned by [`GraphStore::append_staged`].
    pub seq: u64,
    /// The staged ops, in application order.
    pub ops: Vec<UpdateOp>,
}

/// Everything [`FileStore::open`] recovered from disk.
#[derive(Debug)]
pub struct RecoveredState {
    /// The latest checkpoint, if one exists.
    pub snapshot: Option<CsrGraph>,
    /// Committed publishes found in the WAL, in commit order (may include
    /// epochs at or below the checkpoint's when a crash interrupted a
    /// checkpoint between the snapshot rename and the WAL truncation —
    /// replay skips those).
    pub batches: Vec<CommittedBatch>,
    /// Bytes of torn or uncommitted WAL tail discarded by the open.
    pub discarded_bytes: u64,
}

/// The persistence seam of `VersionedStore`: where staged batches, commit
/// records and snapshot checkpoints go.
///
/// Implementations must be safe to call from concurrent stagers and one
/// publisher; the engine guarantees that `commit` and `checkpoint` are never
/// called concurrently with each other.
pub trait GraphStore: Send + Sync + std::fmt::Debug {
    /// Appends one staged batch to the log (no fsync), returning the
    /// sequence number assigned to it.
    fn append_staged(&self, ops: &[UpdateOp]) -> Result<u64, StoreError>;

    /// Appends and fsyncs the commit record that makes the publish of
    /// `epoch` durable, covering the staged batches `first_seq..=last_seq`.
    fn commit(
        &self,
        epoch: u64,
        first_seq: u64,
        last_seq: u64,
        ops: u32,
    ) -> Result<CommitReceipt, StoreError>;

    /// Writes `snapshot` as the new checkpoint and truncates the WAL,
    /// re-appending `pending` (batches staged but not yet published) so the
    /// log stays consistent with the engine's staged buffer.
    fn checkpoint(
        &self,
        snapshot: &CsrGraph,
        pending: &[StagedBatch],
    ) -> Result<CheckpointReceipt, StoreError>;

    /// Bytes currently held by the write-ahead log.
    fn wal_bytes(&self) -> u64;

    /// Whether writes reach stable storage.
    fn is_durable(&self) -> bool;

    /// Installs pre-bound telemetry handles ([`StoreMetrics`]) the store
    /// records WAL/fsync/checkpoint activity through.  Default: no-op, for a
    /// store that records nothing itself.
    fn set_metrics(&self, _metrics: StoreMetrics) {}
}

#[derive(Debug)]
struct Inner {
    wal: File,
    wal_len: u64,
    next_seq: u64,
    appended_since_commit: u64,
    checkpoint_epoch: Option<u64>,
    poisoned: bool,
    /// Telemetry handles (disabled until [`GraphStore::set_metrics`] binds
    /// them); recorded under this lock, which every I/O path already holds.
    metrics: StoreMetrics,
}

/// A durable store over one directory: `wal.log` plus the latest
/// `checkpoint-<epoch>.snap`.  See the [module docs](self) for the
/// durability contract.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    /// Exclusive advisory lock on the directory (`LOCK`), held for the
    /// store's whole life so a second open — same process or another —
    /// cannot interleave WAL appends with ours.  Released by the OS when
    /// the file closes, so a crashed process never leaves a stale lock.
    _lock: File,
    inner: Mutex<Inner>,
}

fn poisoned() -> StoreError {
    StoreError::Io(std::io::Error::other(
        "store poisoned by an earlier write failure; reopen it from disk",
    ))
}

fn parse_checkpoint_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("checkpoint-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

impl FileStore {
    /// File name of the write-ahead log inside a store directory.
    const WAL_FILE: &'static str = "wal.log";

    /// File name of the advisory lock inside a store directory.
    const LOCK_FILE: &'static str = "LOCK";

    /// Path of the WAL inside `dir`.
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join(Self::WAL_FILE)
    }

    /// Path of the checkpoint file for `epoch` inside `dir`.
    pub fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
        dir.join(format!("checkpoint-{epoch:020}.snap"))
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens (creating if needed) the store at `dir` and recovers whatever
    /// it holds: the latest checkpoint, the committed WAL batches in order,
    /// with any torn or uncommitted tail truncated away.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Self, RecoveredState), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        // Take the directory lock before reading anything: a second opener
        // would otherwise race this one's WAL truncation and appends.
        let lock_path = dir.join(Self::LOCK_FILE);
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&lock_path)?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(StoreError::Locked { path: lock_path });
            }
            Err(std::fs::TryLockError::Error(e)) => return Err(e.into()),
        }

        // Sweep leftovers of an interrupted checkpoint write, then find the
        // newest complete checkpoint.
        let mut latest: Option<(u64, PathBuf)> = None;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(&path);
                continue;
            }
            if let Some(epoch) = parse_checkpoint_name(&path) {
                if latest.as_ref().is_none_or(|(e, _)| epoch > *e) {
                    latest = Some((epoch, path));
                }
            }
        }
        let snapshot = match &latest {
            Some((_, path)) => Some(decode_snapshot(&fs::read(path)?)?),
            None => None,
        };

        // Scan the WAL and cut it back to its committed prefix, so appends
        // after recovery extend a well-formed log.
        let wal_path = Self::wal_path(&dir);
        let image = match fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let scan = wal::scan(&image)?;
        // Deliberately not `truncate(true)`: the image was just scanned and
        // the committed prefix is cut back explicitly via `set_len` below.
        let mut wal = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&wal_path)?;
        let wal_len = if scan.committed_end == 0 {
            // Fresh log (or a magic write torn by a crash during creation):
            // start over with a clean header.
            wal.set_len(0)?;
            wal.seek(SeekFrom::Start(0))?;
            wal.write_all(WAL_MAGIC)?;
            wal.sync_all()?;
            WAL_MAGIC.len() as u64
        } else {
            if image.len() as u64 > scan.committed_end {
                wal.set_len(scan.committed_end)?;
                wal.sync_all()?;
            }
            scan.committed_end
        };
        wal.seek(SeekFrom::End(0))?;

        let store = Self {
            dir,
            _lock: lock,
            inner: Mutex::new(Inner {
                wal,
                wal_len,
                next_seq: scan.next_seq,
                appended_since_commit: 0,
                checkpoint_epoch: latest.map(|(epoch, _)| epoch),
                poisoned: false,
                metrics: StoreMetrics::disabled(),
            }),
        };
        let recovered = RecoveredState {
            snapshot,
            batches: scan.committed,
            discarded_bytes: (image.len() as u64).saturating_sub(scan.committed_end),
        };
        Ok((store, recovered))
    }

    /// Appends one encoded record, rolling the file back to its pre-append
    /// length on failure so the framing stays intact.
    fn append_record(inner: &mut Inner, record: &WalRecord) -> Result<u64, StoreError> {
        if inner.poisoned {
            return Err(poisoned());
        }
        let bytes = wal::encode_record(record);
        if let Err(e) = inner.wal.write_all(&bytes) {
            if inner.wal.set_len(inner.wal_len).is_err()
                || inner.wal.seek(SeekFrom::End(0)).is_err()
            {
                inner.poisoned = true;
            }
            return Err(e.into());
        }
        inner.wal_len += bytes.len() as u64;
        inner.metrics.wal_bytes.add(bytes.len() as u64);
        Ok(bytes.len() as u64)
    }

    /// Re-appends the still-pending staged batches after a checkpoint's WAL
    /// truncation and syncs the rewritten log.  Any failure here leaves the
    /// log out of step with the engine's staged buffer — the caller must
    /// poison the store.
    fn refill_pending(inner: &mut Inner, pending: &[StagedBatch]) -> Result<(), StoreError> {
        for batch in pending {
            let bytes = Self::append_record(
                inner,
                &WalRecord::Stage {
                    seq: batch.seq,
                    ops: batch.ops.clone(),
                },
            )?;
            inner.appended_since_commit += bytes;
        }
        inner.wal.sync_all()?;
        Ok(())
    }
}

impl GraphStore for FileStore {
    fn append_staged(&self, ops: &[UpdateOp]) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        let bytes = Self::append_record(
            &mut inner,
            &WalRecord::Stage {
                seq,
                ops: ops.to_vec(),
            },
        )?;
        inner.next_seq += 1;
        inner.appended_since_commit += bytes;
        Ok(seq)
    }

    fn commit(
        &self,
        epoch: u64,
        first_seq: u64,
        last_seq: u64,
        ops: u32,
    ) -> Result<CommitReceipt, StoreError> {
        let mut inner = self.inner.lock();
        let bytes = Self::append_record(
            &mut inner,
            &WalRecord::Commit {
                epoch,
                first_seq,
                last_seq,
                ops,
            },
        )?;
        inner.appended_since_commit += bytes;
        let started = Instant::now();
        if let Err(e) = inner.wal.sync_all() {
            // Whether the commit record reached the device is unknowable
            // after a failed fsync; only a reopen can re-establish truth.
            inner.poisoned = true;
            return Err(e.into());
        }
        let receipt = CommitReceipt {
            wal_bytes: inner.appended_since_commit,
            fsync: started.elapsed(),
        };
        inner.metrics.fsyncs.inc();
        inner.metrics.fsync_latency.record_duration(receipt.fsync);
        inner.appended_since_commit = 0;
        Ok(receipt)
    }

    fn checkpoint(
        &self,
        snapshot: &CsrGraph,
        pending: &[StagedBatch],
    ) -> Result<CheckpointReceipt, StoreError> {
        let started = Instant::now();
        let mut inner = self.inner.lock();
        if inner.poisoned {
            return Err(poisoned());
        }

        // Write the snapshot to a temp file and rename it into place, so a
        // crash mid-checkpoint never damages the previous checkpoint.
        let encoded = encode_snapshot(snapshot);
        let final_path = Self::checkpoint_path(&self.dir, snapshot.epoch());
        let tmp_path = final_path.with_extension("snap.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&encoded)?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all(); // directory fsync: best-effort
        }

        // Everything up to this epoch is superseded: cut the WAL back to its
        // header, then re-append the still-pending staged batches (with
        // their original sequence numbers) so later commits resolve.
        let header = WAL_MAGIC.len() as u64;
        let truncated = inner.wal_len.saturating_sub(header);
        if inner.wal.set_len(header).is_err() || inner.wal.seek(SeekFrom::End(0)).is_err() {
            inner.poisoned = true;
            return Err(poisoned());
        }
        inner.wal_len = header;
        inner.appended_since_commit = 0;
        if let Err(e) = Self::refill_pending(&mut inner, pending) {
            // Past the truncation the log no longer matches the engine's
            // staged buffer: a later commit could fsync a record covering
            // stage records that never made it back, acknowledging a
            // publish recovery cannot resolve.  Only a reopen re-derives
            // truth from disk.
            inner.poisoned = true;
            return Err(e);
        }

        let previous = inner.checkpoint_epoch.replace(snapshot.epoch());
        if let Some(previous) = previous {
            if previous != snapshot.epoch() {
                let _ = fs::remove_file(Self::checkpoint_path(&self.dir, previous));
            }
        }
        let receipt = CheckpointReceipt {
            bytes: encoded.len() as u64,
            truncated_wal_bytes: truncated,
            elapsed: started.elapsed(),
        };
        inner.metrics.checkpoints.inc();
        inner
            .metrics
            .checkpoint_latency
            .record_duration(receipt.elapsed);
        Ok(receipt)
    }

    fn wal_bytes(&self) -> u64 {
        self.inner.lock().wal_len
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn set_metrics(&self, metrics: StoreMetrics) {
        self.inner.lock().metrics = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::Graph;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIRS: AtomicU32 = AtomicU32::new(0);

    fn tmp_dir() -> PathBuf {
        let id = DIRS.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gps-store-test-{}-{id}", std::process::id()))
    }

    fn sample_csr(epoch: u64) -> CsrGraph {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge_by_name(a, "x", b);
        CsrGraph::from_graph(&g).with_epoch(epoch)
    }

    fn add(name: &str) -> Vec<UpdateOp> {
        vec![UpdateOp::AddNode(name.into())]
    }

    #[test]
    fn fresh_store_has_empty_state() {
        let dir = tmp_dir();
        let (store, recovered) = FileStore::open(&dir).unwrap();
        assert!(recovered.snapshot.is_none());
        assert!(recovered.batches.is_empty());
        assert_eq!(recovered.discarded_bytes, 0);
        assert_eq!(store.wal_bytes(), WAL_MAGIC.len() as u64);
        assert!(store.is_durable());
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_batches_survive_reopen_and_uncommitted_do_not() {
        let dir = tmp_dir();
        {
            let (store, _) = FileStore::open(&dir).unwrap();
            let s0 = store.append_staged(&add("X")).unwrap();
            let s1 = store.append_staged(&add("Y")).unwrap();
            store.commit(1, s0, s1, 2).unwrap();
            store.append_staged(&add("LOST")).unwrap(); // never committed
        }
        let (store, recovered) = FileStore::open(&dir).unwrap();
        assert_eq!(recovered.batches.len(), 1);
        assert_eq!(recovered.batches[0].epoch, 1);
        assert_eq!(
            recovered.batches[0].ops,
            vec![UpdateOp::AddNode("X".into()), UpdateOp::AddNode("Y".into())]
        );
        assert!(recovered.discarded_bytes > 0, "the stray stage record");
        // Sequence numbers are not reused after recovery — the scan advances
        // past the discarded record's seq even though its bytes are gone.
        assert_eq!(store.append_staged(&add("Z")).unwrap(), 3);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_preserves_pending_batches() {
        let dir = tmp_dir();
        {
            let (store, _) = FileStore::open(&dir).unwrap();
            let s0 = store.append_staged(&add("X")).unwrap();
            store.commit(1, s0, s0, 1).unwrap();
            let before = store.wal_bytes();
            let pending_seq = store.append_staged(&add("P")).unwrap();
            let receipt = store
                .checkpoint(
                    &sample_csr(1),
                    &[StagedBatch {
                        seq: pending_seq,
                        ops: add("P"),
                    }],
                )
                .unwrap();
            assert!(receipt.truncated_wal_bytes >= before - WAL_MAGIC.len() as u64);
            // The pending record was re-appended and a commit covering it
            // still resolves after reopen.
            store.commit(2, pending_seq, pending_seq, 1).unwrap();
        }
        let (_, recovered) = FileStore::open(&dir).unwrap();
        let snapshot = recovered.snapshot.expect("checkpoint written");
        assert_eq!(snapshot.epoch(), 1);
        assert_eq!(
            recovered.batches.len(),
            1,
            "only the post-checkpoint commit"
        );
        assert_eq!(recovered.batches[0].epoch, 2);
        assert_eq!(recovered.batches[0].ops, add("P"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_checkpoints_replace_older_ones() {
        let dir = tmp_dir();
        {
            let (store, _) = FileStore::open(&dir).unwrap();
            store.checkpoint(&sample_csr(1), &[]).unwrap();
            store.checkpoint(&sample_csr(5), &[]).unwrap();
        }
        assert!(!FileStore::checkpoint_path(&dir, 1).exists());
        assert!(FileStore::checkpoint_path(&dir, 5).exists());
        let (_, recovered) = FileStore::open(&dir).unwrap();
        assert_eq!(recovered.snapshot.unwrap().epoch(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_checkpoint_tmp_files_are_swept() {
        let dir = tmp_dir();
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("checkpoint-00000000000000000003.snap.tmp"),
            b"junk",
        )
        .unwrap();
        let (_, recovered) = FileStore::open(&dir).unwrap();
        assert!(
            recovered.snapshot.is_none(),
            "tmp files are not checkpoints"
        );
        assert!(!dir
            .join("checkpoint-00000000000000000003.snap.tmp")
            .exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_second_open_of_the_same_directory_is_refused() {
        let dir = tmp_dir();
        let (store, _) = FileStore::open(&dir).unwrap();
        match FileStore::open(&dir) {
            Err(StoreError::Locked { path }) => {
                assert_eq!(path, dir.join(FileStore::LOCK_FILE));
            }
            other => panic!("expected StoreError::Locked, got {other:?}"),
        }
        // Dropping the store releases the lock; a reopen succeeds.
        drop(store);
        let (_, recovered) = FileStore::open(&dir).unwrap();
        assert!(recovered.batches.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
