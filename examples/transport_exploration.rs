//! Exploring a larger generated transport network with path queries and
//! interactive specification: evaluates the transport query workload,
//! prints workload statistics, and measures how many interactions the
//! interactive protocol needs per goal query.
//!
//! Run with `cargo run --example transport_exploration -- [neighborhoods]`.

use gps_datasets::queries::transport_workload;
use gps_datasets::transport::{generate, TransportConfig};
use gps_graph::stats::GraphStats;
use gps_interactive::session::{Session, SessionConfig};
use gps_interactive::strategy::InformativePathsStrategy;
use gps_interactive::user::SimulatedUser;

fn main() {
    let neighborhoods: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(36);

    let network = generate(&TransportConfig::with_neighborhoods(neighborhoods, 42));
    let graph = &network.graph;
    let stats = GraphStats::compute(graph);
    println!("generated transport network: {}", stats.summary());
    println!("label usage:");
    for (label, count) in gps_graph::stats::label_usage(graph) {
        println!("  {label:>12}: {count} edges");
    }

    println!("\n=== query workload ===");
    let workload = transport_workload(graph);
    for query in &workload.queries {
        let answer = query.evaluate(graph);
        println!(
            "{:<32} selects {:>4} / {} nodes",
            query.display(graph.labels()),
            answer.len(),
            graph.node_count()
        );
    }

    println!("\n=== interactive specification per goal query ===");
    println!(
        "{:<32} {:>12} {:>8} {:>12}",
        "goal", "interactions", "zooms", "goal reached"
    );
    for goal in &workload.queries {
        let answer = goal.evaluate(graph);
        if answer.is_empty() {
            // An empty goal cannot be demonstrated through positive examples.
            continue;
        }
        let mut user = SimulatedUser::new(goal.clone(), graph);
        let mut strategy = InformativePathsStrategy;
        let mut session = Session::new(graph, SessionConfig::default());
        let outcome = session.run(&mut strategy, &mut user);
        let reached = outcome
            .learned
            .as_ref()
            .map(|l| l.answer.nodes() == answer.nodes())
            .unwrap_or(false);
        println!(
            "{:<32} {:>12} {:>8} {:>12}",
            goal.display(graph.labels()),
            outcome.stats.interactions,
            outcome.stats.zooms,
            reached
        );
    }
}
