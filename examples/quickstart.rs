//! Quickstart: load the paper's Figure 1 graph, evaluate the motivating
//! query, and learn it back from a handful of examples.
//!
//! Run with `cargo run --example quickstart`.

use gps_core::prelude::*;
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};

fn main() {
    // 1. The graph database of Figure 1: neighborhoods, cinemas, restaurants,
    //    tram and bus lines.
    let (graph, ids) = figure1_graph();
    println!(
        "Figure 1 graph: {} nodes, {} edges, alphabet {{tram, bus, cinema, restaurant}}",
        graph.node_count(),
        graph.edge_count()
    );

    // Build the engine through the builder: pick the strategy and the zoom
    // options.  The engine snapshots the graph once — queries, rendering and
    // interactive sessions all run on that snapshot.
    let gps = Engine::builder(graph)
        .strategy(StrategyChoice::InformativePaths { bound: 3 })
        .initial_radius(2)
        .build();

    // 2. Evaluate the motivating query: from which neighborhoods can one
    //    reach a cinema using public transportation?
    println!("\nq = {MOTIVATING_QUERY}");
    println!(
        "q(G) = {}",
        gps.evaluate_rendered(MOTIVATING_QUERY).unwrap()
    );

    // 3. The same question, asked the GPS way: label a few nodes and let the
    //    system construct the query (static-labeling scenario).
    let outcome = gps.static_labeling(&[
        (ids.n2, Label::Positive),
        (ids.n6, Label::Positive),
        (ids.n5, Label::Negative),
    ]);
    match outcome {
        gps_core::StaticLabelingOutcome::Learned(learned) => {
            let display = gps_automata::printer::print(&learned.regex, gps.graph().labels());
            println!("\nFrom examples +N2 +N6 -N5 the system proposes: {display}");
            let names: Vec<&str> = learned
                .answer
                .nodes()
                .into_iter()
                .map(|n| gps.graph().node_name(n))
                .collect();
            println!("which selects {{{}}}", names.join(", "));
        }
        other => println!("unexpected outcome: {other:?}"),
    }

    // 4. The full interactive scenario with a simulated user who has the
    //    motivating query in mind.
    let report = gps
        .interactive_with_validation(MOTIVATING_QUERY, 0)
        .unwrap();
    println!(
        "\nInteractive session: {} interactions, {} zooms, goal reached: {}",
        report.interactions, report.zooms, report.goal_reached
    );
    println!("learned: {}", report.learned.unwrap_or_default());

    // 5. Typed errors across every layer: one enum, one match.
    match gps.evaluate("(bus") {
        Err(GpsError::Parse(e)) => println!("\nparse errors are typed: {e}"),
        other => println!("unexpected: {other:?}"),
    }
}
