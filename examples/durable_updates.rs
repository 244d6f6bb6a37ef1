//! Durable live updates: stage → publish → restart → recover.
//!
//! Opens a file-backed GPS service on the figure-1 transport graph, publishes
//! a batch of live updates (each publish fsyncs a commit record into the
//! write-ahead log), stages one more batch *without* publishing it, then
//! drops the service — simulating a crash — and reopens the same directory.
//! Recovery replays the committed publishes on top of the last checkpoint,
//! discards the staged-but-unpublished batch, and the recovered store serves
//! the exact session transcript the pre-crash store did (asserted
//! byte-for-byte via the snapshot encoding).
//!
//! Run with `cargo run --example durable_updates`.

use gps_core::service::SessionManager;
use gps_core::versioned::GraphUpdate;
use gps_core::Engine;
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_store::encode_snapshot;

fn builder() -> gps_core::GpsBuilder {
    let (graph, _) = figure1_graph();
    Engine::builder(graph).checkpoint_every_n_publishes(8)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("gps-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: a fresh directory gets a base checkpoint of epoch 0.
    let (service, report) = SessionManager::open_durable(&dir, builder()).expect("store opens");
    println!(
        "opened {:?}: created={}, epoch {}",
        dir, report.created, report.current_epoch
    );

    // Publish two update batches; each publish is durable the moment its
    // commit record is fsynced, *before* readers can see the new epoch.
    for (label, update) in [
        (
            "open a cinema",
            GraphUpdate::new()
                .add_node("C9")
                .add_edge("N5", "cinema", "C9"),
        ),
        (
            "reroute the bus",
            GraphUpdate::new()
                .add_edge("N5", "bus", "N1")
                .remove_edge("N2", "restaurant", "R1"),
        ),
    ] {
        let report = service.update(update).expect("update applies");
        println!(
            "published '{label}': epoch {} (+{} nodes, +{}/-{} edges, {} WAL bytes, fsync {:?})",
            report.epoch,
            report.added_nodes,
            report.added_edges,
            report.removed_edges,
            report.durability.wal_bytes,
            report.durability.fsync
        );
    }

    // Stage a third batch but never publish it — a crash loses it, by design.
    service
        .store()
        .stage(GraphUpdate::new().add_node("GHOST"))
        .expect("staging appends to the log");
    println!("staged (not published): add node GHOST");

    // Remember what the pre-crash store would tell a user.
    let outcome = service.serve_one(MOTIVATING_QUERY).expect("session halts");
    let snapshot_before = encode_snapshot(service.core().snapshot());
    println!(
        "pre-crash session: {:?} after {} interactions",
        outcome.halt_reason, outcome.stats.interactions
    );

    // Crash.  (Dropping the service closes the log; a real kill -9 at any
    // byte boundary recovers the same way — the conformance suite truncates
    // the log at every offset to prove it.)
    drop(service);

    // Second life: recovery = last checkpoint + committed WAL suffix.
    let (service, report) = SessionManager::open_durable(&dir, builder()).expect("store reopens");
    println!(
        "\nrecovered: epoch {} (replayed {} publishes / {} ops, discarded {} uncommitted bytes)",
        report.current_epoch,
        report.replayed_publishes,
        report.replayed_ops,
        report.discarded_bytes
    );
    assert_eq!(report.current_epoch, 2);
    assert!(
        service.core().snapshot().node_by_name("GHOST").is_none(),
        "the unpublished batch did not survive"
    );

    // The recovered graph is byte-identical to the pre-crash one, so the
    // session transcript is too.
    let snapshot_after = encode_snapshot(service.core().snapshot());
    assert_eq!(snapshot_after, snapshot_before, "byte-stable recovery");
    let replayed = service.serve_one(MOTIVATING_QUERY).expect("session halts");
    assert_eq!(replayed.halt_reason, outcome.halt_reason);
    assert_eq!(replayed.transcript, outcome.transcript);
    println!(
        "post-crash session: {:?} after {} interactions — transcript identical",
        replayed.halt_reason, replayed.stats.interactions
    );

    let _ = std::fs::remove_dir_all(&dir);
}
