//! Serving many users over one shared engine core.
//!
//! Builds one `EngineCore` (snapshot + bounded cache + label index) on a
//! mid-size transport network and drives a batch of concurrent interactive
//! specification sessions through `SessionManager::serve`, then steps one more
//! session manually through the same table's open/step/close API.
//!
//! Run with `cargo run --example many_users`.

use gps_core::service::SessionManager;
use gps_core::{Engine, SessionStatus};
use gps_datasets::transport::{self, TransportConfig};

fn main() {
    let net = transport::generate(&TransportConfig::with_neighborhoods(120, 7));
    println!(
        "transport network: {} nodes, {} edges",
        net.graph.node_count(),
        net.graph.edge_count()
    );

    // One immutable engine for the whole fleet: every session shares the CSR
    // snapshot, the evaluator's label index and the bounded cache.
    let core = Engine::builder(net.graph)
        .cache_capacity(1024) // LRU cap on cached query answers
        .max_interactions(30)
        .build();
    println!(
        "shared label index: {} KiB for all sessions\n",
        core.index_memory_bytes() / 1024
    );

    // A mixed bag of user goals — popular queries repeat, as in real traffic.
    let goals: Vec<String> = [
        "(tram+bus)*.cinema",
        "restaurant",
        "bus*.cinema",
        "(tram+bus)*.cinema",
        "tram.bus*.restaurant",
        "(tram+bus)*.cinema",
        "bus*.cinema",
        "restaurant",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let service = SessionManager::new(core);
    let outcomes = service
        .serve(&goals, 4)
        .expect("all goals parse and all sessions halt");
    for (goal, outcome) in goals.iter().zip(&outcomes) {
        println!(
            "goal {goal:<22} -> {:?} after {} interactions",
            outcome.halt_reason, outcome.stats.interactions
        );
    }
    let stats = service.stats();
    println!(
        "\naggregate: {} sessions, {} interactions, cache {:?} (hits, misses), word index at bound {:?}",
        stats.sessions_closed,
        stats.interactions,
        service.core().eval_cache().stats(),
        service.core().eval_cache().words_bound(),
    );

    // The same table also serves sessions one step at a time.
    let id = service.open("(tram+bus)*.cinema").expect("goal parses");
    let mut steps = 0;
    let reason = loop {
        steps += 1;
        match service.step(id).expect("session exists") {
            SessionStatus::Running { .. } => continue,
            SessionStatus::Halted(reason) => break reason,
        }
    };
    let outcome = service.close(id).expect("session exists");
    println!(
        "\nstepped session: {steps} steps to {reason:?}, learned {}",
        outcome.learned.is_some()
    );
}
