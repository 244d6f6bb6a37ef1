//! Durability conformance suite — the crash contract of the WAL + checkpoint
//! store behind [`VersionedStore::open_durable`]:
//!
//! 1. **Crash at any byte offset is safe.**  Kill the write-ahead log at
//!    *every* record boundary and mid-record: recovery always yields a graph
//!    byte-identical to some published snapshot (the pre- or post-publish
//!    state of whichever publish the cut interrupted), never a torn hybrid,
//!    and the recovered epoch is monotone in the prefix length.
//! 2. **Corruption is detected, not propagated.**  A single flipped bit
//!    anywhere in the log body is caught by the record checksums (the
//!    corrupt suffix is discarded as a torn tail — no panic, no bad data);
//!    a corrupted magic number is a typed [`GpsError::CorruptLog`].
//! 3. **Restart is invisible to sessions.**  A served session on a
//!    recovered store replays the exact transcript the pre-crash store
//!    produced.
//! 4. **Durability is free when unused, exact when used.**  The default
//!    in-memory store and a file-backed store publish byte-identical
//!    snapshots epoch for epoch; checkpoints bound the log and speed
//!    recovery without changing what is recovered.

use gps_core::prelude::*;
use gps_core::service::SessionManager;
use gps_core::versioned::{GraphUpdate, VersionedStore};
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_interactive::session::InteractionRecord;
use gps_store::{encode_snapshot, FileStore};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIRS: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let id = DIRS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gps-durability-{tag}-{}-{id}", std::process::id()))
}

/// A figure-1 builder with `every_n` as the checkpoint policy (0 = never).
fn builder(every_n: u64) -> GpsBuilder {
    let (graph, _) = figure1_graph();
    Engine::builder(graph).checkpoint_every_n_publishes(every_n)
}

/// Three publishes worth of updates: inserts, a deletion, and a batch that
/// builds on nodes introduced by an earlier publish.
fn updates() -> [GraphUpdate; 3] {
    [
        GraphUpdate::new()
            .add_node("C9")
            .add_edge("N5", "cinema", "C9"),
        GraphUpdate::new()
            .add_edge("N5", "bus", "N1")
            .remove_edge("N2", "restaurant", "R1"),
        GraphUpdate::new()
            .add_node("X1")
            .add_edge("C9", "tram", "X1"),
    ]
}

/// The one `.snap` checkpoint file of a store directory.
fn checkpoint_file(dir: &Path) -> PathBuf {
    let mut snaps: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "snap"))
        .collect();
    assert_eq!(snaps.len(), 1, "exactly one checkpoint in {dir:?}");
    snaps.pop().unwrap()
}

/// The base checkpoint of a prepared store: file name + contents.
struct Checkpoint {
    name: String,
    bytes: Vec<u8>,
}

/// Publishes `updates()` into a fresh durable store (no checkpoints beyond
/// the base one), returning the expected snapshot encoding per epoch, the
/// final WAL image and the base checkpoint.
fn prepared_store(tag: &str) -> (Vec<Vec<u8>>, Vec<u8>, Checkpoint) {
    let dir = tmp_dir(tag);
    let (store, report) = VersionedStore::open_durable(&dir, builder(0)).unwrap();
    assert!(report.created);
    assert!(store.is_durable());
    let mut expected = vec![encode_snapshot(store.latest().snapshot())];
    for update in updates() {
        store.update(update).unwrap();
        expected.push(encode_snapshot(store.latest().snapshot()));
    }
    drop(store);
    let wal = fs::read(FileStore::wal_path(&dir)).unwrap();
    let checkpoint = checkpoint_file(&dir);
    let name = checkpoint
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .to_string();
    let bytes = fs::read(&checkpoint).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    (expected, wal, Checkpoint { name, bytes })
}

/// Recovers a store from the given checkpoint + WAL image, asserting the
/// recovered snapshot is byte-identical to one of `expected` and returning
/// its epoch.
fn recover_and_check(
    trial: &Path,
    wal_image: &[u8],
    checkpoint: &Checkpoint,
    expected: &[Vec<u8>],
    context: &str,
) -> u64 {
    fs::create_dir_all(trial).unwrap();
    fs::write(trial.join(&checkpoint.name), &checkpoint.bytes).unwrap();
    fs::write(FileStore::wal_path(trial), wal_image).unwrap();
    let (store, report) = VersionedStore::open_durable(trial, builder(0)).unwrap();
    assert!(!report.created, "{context}");
    let epoch = store.current_epoch();
    assert_eq!(report.current_epoch, epoch, "{context}");
    assert_eq!(
        encode_snapshot(store.latest().snapshot()),
        expected[epoch as usize],
        "{context}: the recovered graph must be byte-identical to the epoch-{epoch} publish"
    );
    drop(store);
    fs::remove_dir_all(trial).unwrap();
    epoch
}

// --------------------------------------------- 1. crash at every byte offset

#[test]
fn recovery_is_exact_at_every_wal_truncation_point() {
    let (expected, wal, checkpoint) = prepared_store("truncate");
    let trial = tmp_dir("truncate-trial");
    let mut last_epoch = 0u64;
    for cut in 0..=wal.len() {
        let epoch = recover_and_check(
            &trial,
            &wal[..cut],
            &checkpoint,
            &expected,
            &format!("cut at byte {cut}"),
        );
        assert!(
            epoch >= last_epoch,
            "cut {cut}: a longer committed prefix can only recover more"
        );
        last_epoch = epoch;
    }
    assert_eq!(last_epoch, 3, "the full log recovers every publish");
}

// ------------------------------------------------- 2. corruption is detected

#[test]
fn single_bit_flips_are_detected_and_never_panic() {
    let (expected, wal, checkpoint) = prepared_store("bitflip");
    let trial = tmp_dir("bitflip-trial");
    let magic = gps_store::WAL_MAGIC.len();
    // Every byte of the record region (one rotating bit per byte): the flip
    // must be caught by a checksum, turning the corrupt suffix into a torn
    // tail — recovery still lands on a published snapshot.
    for offset in magic..wal.len() {
        let mut flipped = wal.clone();
        flipped[offset] ^= 1 << (offset % 8);
        recover_and_check(
            &trial,
            &flipped,
            &checkpoint,
            &expected,
            &format!("bit flip at byte {offset}"),
        );
    }
    // A flip inside the magic is not a torn write — it is a typed error.
    for offset in 0..magic {
        let mut flipped = wal.clone();
        flipped[offset] ^= 1 << (offset % 8);
        fs::create_dir_all(&trial).unwrap();
        fs::write(trial.join(&checkpoint.name), &checkpoint.bytes).unwrap();
        fs::write(FileStore::wal_path(&trial), &flipped).unwrap();
        let result = VersionedStore::open_durable(&trial, builder(0));
        assert!(
            matches!(result, Err(GpsError::CorruptLog(_))),
            "magic flip at byte {offset}: {result:?}"
        );
        fs::remove_dir_all(&trial).unwrap();
    }
}

#[test]
fn a_corrupt_checkpoint_is_a_typed_error() {
    let (_, wal, checkpoint) = prepared_store("badsnap");
    let trial = tmp_dir("badsnap-trial");
    fs::create_dir_all(&trial).unwrap();
    let mut snap = checkpoint.bytes.clone();
    let mid = snap.len() / 2;
    snap[mid] ^= 0x10;
    fs::write(trial.join(&checkpoint.name), &snap).unwrap();
    fs::write(FileStore::wal_path(&trial), &wal).unwrap();
    let result = VersionedStore::open_durable(&trial, builder(0));
    assert!(matches!(result, Err(GpsError::CorruptLog(_))), "{result:?}");
    fs::remove_dir_all(&trial).unwrap();
}

// -------------------------------------------- 3. restart invisible to users

#[derive(Debug, PartialEq)]
struct SessionFingerprint {
    transcript: Vec<InteractionRecord>,
    learned: Option<(String, Vec<NodeId>)>,
    halt: HaltReason,
}

fn fingerprint(
    labels: &LabelInterner,
    outcome: &gps_interactive::session::SessionOutcome,
) -> SessionFingerprint {
    SessionFingerprint {
        transcript: outcome.transcript.clone(),
        learned: outcome.learned.as_ref().map(|l| {
            (
                gps_automata::printer::print(&l.regex, labels),
                l.answer.nodes(),
            )
        }),
        halt: outcome.halt_reason,
    }
}

#[test]
fn recovered_stores_serve_byte_identical_transcripts() {
    let dir = tmp_dir("transcript");
    let (service, report) = SessionManager::open_durable(&dir, builder(32)).unwrap();
    assert!(report.created);
    let [first, second, _] = updates();
    service.update(first).unwrap();
    service.update(second).unwrap();
    let labels = service.core().snapshot().labels().clone();
    let before = fingerprint(&labels, &service.serve_one(MOTIVATING_QUERY).unwrap());
    drop(service);

    let (service, report) = SessionManager::open_durable(&dir, builder(32)).unwrap();
    assert!(!report.created);
    assert_eq!(report.replayed_publishes, 2);
    assert_eq!(report.current_epoch, 2);
    let after = fingerprint(&labels, &service.serve_one(MOTIVATING_QUERY).unwrap());
    assert_eq!(after, before, "a restart must not perturb served sessions");
    drop(service);
    fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------- 4. parity, checkpoints, edge behaviors

#[test]
fn durable_publishes_match_the_in_memory_store_byte_for_byte() {
    let dir = tmp_dir("parity");
    let (durable, _) = VersionedStore::open_durable(&dir, builder(0)).unwrap();
    let memory = {
        let (graph, _) = figure1_graph();
        VersionedStore::new(Engine::builder(graph).build())
    };
    assert!(!memory.is_durable());
    assert_eq!(memory.wal_bytes(), 0);
    for update in updates() {
        let durable_report = durable.update(update.clone()).unwrap();
        let memory_report = memory.update(update).unwrap();
        assert_eq!(durable_report.epoch, memory_report.epoch);
        assert_eq!(
            encode_snapshot(durable.latest().snapshot()),
            encode_snapshot(memory.latest().snapshot()),
            "epoch {}: the durability seam must not change what is published",
            durable_report.epoch
        );
        assert!(durable_report.durability.wal_bytes > 0);
        assert_eq!(memory_report.durability, DurabilityReport::default());
    }
    drop(durable);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoints_bound_the_log_and_speed_recovery() {
    let dir = tmp_dir("checkpoint");
    let (store, _) = VersionedStore::open_durable(&dir, builder(2)).unwrap();
    for i in 0..5u64 {
        let update = if i % 2 == 0 {
            GraphUpdate::new().add_edge("N6", "tram", "N1")
        } else {
            GraphUpdate::new().remove_edge("N6", "tram", "N1")
        };
        let report = store.update(update).unwrap();
        assert_eq!(
            report.durability.checkpointed,
            i % 2 == 1,
            "publish {}: checkpoint due every 2nd publish",
            i + 1
        );
    }
    assert_eq!(store.current_epoch(), 5);
    drop(store);

    let (store, report) = VersionedStore::open_durable(&dir, builder(2)).unwrap();
    assert_eq!(report.checkpoint_epoch, 4, "the last due checkpoint");
    assert_eq!(
        report.replayed_publishes, 1,
        "only the post-checkpoint tail"
    );
    assert_eq!(report.current_epoch, 5);
    // The replay itself was folded into a fresh checkpoint, so the next
    // open replays nothing.
    assert!(FileStore::checkpoint_path(&dir, 5).exists());
    drop(store);
    let (_, report) = VersionedStore::open_durable(&dir, builder(2)).unwrap();
    assert_eq!(report.replayed_publishes, 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn publish_count_counts_only_this_opens_publishes() {
    let dir = tmp_dir("count");
    let (store, _) = VersionedStore::open_durable(&dir, builder(0)).unwrap();
    let [first, second, third] = updates();
    store.update(first).unwrap();
    store.update(second).unwrap();
    store.publish().unwrap();
    assert!(store
        .update(GraphUpdate::new().add_edge("N1", "bus", "Nowhere"))
        .is_err());
    assert_eq!(
        store.publish_count(),
        2,
        "empty and failed publishes count nothing"
    );
    drop(store);

    let (store, report) = VersionedStore::open_durable(&dir, builder(0)).unwrap();
    assert_eq!(report.replayed_publishes, 2);
    assert_eq!(store.publish_count(), 0, "a replay is not a publish");
    store.update(third).unwrap();
    assert_eq!(store.publish_count(), 1);
    assert_eq!(store.current_epoch(), 3);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn staged_but_unpublished_ops_are_discarded_at_recovery() {
    let dir = tmp_dir("staged");
    let (store, _) = VersionedStore::open_durable(&dir, builder(32)).unwrap();
    let [first, ..] = updates();
    store.update(first).unwrap();
    store.stage(GraphUpdate::new().add_node("GHOST")).unwrap();
    assert_eq!(store.staged_len(), 1);
    drop(store);

    let (store, report) = VersionedStore::open_durable(&dir, builder(32)).unwrap();
    assert_eq!(
        report.current_epoch, 1,
        "only the published update survives"
    );
    assert!(
        report.discarded_bytes > 0,
        "the staged record was discarded"
    );
    assert_eq!(store.staged_len(), 0);
    assert!(store.latest().snapshot().node_by_name("GHOST").is_none());
    assert!(store.latest().snapshot().node_by_name("C9").is_some());
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_publish_leaves_no_trace_after_recovery() {
    let dir = tmp_dir("failed");
    let (store, _) = VersionedStore::open_durable(&dir, builder(0)).unwrap();
    let err = store
        .update(GraphUpdate::new().add_edge("N1", "bus", "Nowhere"))
        .unwrap_err();
    assert!(matches!(err, GpsError::UnknownNode(_)));
    assert_eq!(store.current_epoch(), 0);
    let [first, ..] = updates();
    store.update(first).unwrap();
    let expected = encode_snapshot(store.latest().snapshot());
    drop(store);

    let (store, report) = VersionedStore::open_durable(&dir, builder(0)).unwrap();
    assert_eq!(report.replayed_publishes, 1);
    assert_eq!(report.current_epoch, 1);
    assert_eq!(
        encode_snapshot(store.latest().snapshot()),
        expected,
        "the failed publish's staged record must not contaminate the replay"
    );
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}
