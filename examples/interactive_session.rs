//! A complete interactive session on a generated transport network: the
//! system proposes informative nodes, a simulated user (who has the query
//! "(tram+bus)*.cinema" in mind) labels them, validates witness paths, and
//! the learned query converges to the goal.
//!
//! Run with `cargo run --example interactive_session`.

use gps_core::Transcript;
use gps_datasets::transport::{generate, TransportConfig};
use gps_interactive::session::{Session, SessionConfig};
use gps_interactive::strategy::{
    DegreeStrategy, InformativePathsStrategy, RandomStrategy, Strategy,
};
use gps_interactive::user::SimulatedUser;
use gps_rpq::PathQuery;

fn main() {
    // A small Transpole-like network: a 4x5 grid of neighborhoods connected
    // by tram and bus lines, decorated with cinemas and restaurants.
    let network = generate(&TransportConfig::default());
    let graph = &network.graph;
    println!(
        "transport network: {} nodes ({} neighborhoods), {} edges",
        graph.node_count(),
        network.neighborhoods.len(),
        graph.edge_count()
    );

    let goal = PathQuery::parse("(tram+bus)*.cinema", graph.labels()).unwrap();
    println!("hidden goal query: {}", goal.display(graph.labels()));
    println!(
        "goal answer: {} of {} nodes\n",
        goal.evaluate(graph).len(),
        graph.node_count()
    );

    // Run the full session with the paper's informative-paths strategy and
    // print the transcript.
    let mut user = SimulatedUser::new(goal.clone(), graph);
    let mut strategy = InformativePathsStrategy;
    let mut session = Session::new(graph, SessionConfig::default());
    let outcome = session.run(&mut strategy, &mut user);

    let transcript = Transcript::from_outcome(&gps_graph::CsrGraph::from_graph(graph), &outcome);
    println!("=== transcript (informative-paths strategy) ===");
    println!("{}", transcript.render());

    if let Some(learned) = &outcome.learned {
        let same = learned.answer.nodes() == goal.evaluate(graph).nodes();
        println!("learned query equals the goal on this graph: {same}\n");
    }

    // Compare the number of interactions across strategies — the paper's
    // claim is that proposing informative nodes minimizes user effort.
    println!("=== strategy comparison (interactions to halt) ===");
    let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
        ("informative-paths", Box::new(InformativePathsStrategy)),
        ("degree", Box::new(DegreeStrategy)),
        ("random", Box::new(RandomStrategy::seeded(1))),
    ];
    for (name, mut strategy) in strategies {
        let mut user = SimulatedUser::new(goal.clone(), graph);
        let mut session = Session::new(graph, SessionConfig::default());
        let outcome = session.run(strategy.as_mut(), &mut user);
        println!(
            "{name:>18}: {:>3} interactions, {:>2} zooms, halted with {:?}",
            outcome.stats.interactions, outcome.stats.zooms, outcome.halt_reason
        );
    }
}
