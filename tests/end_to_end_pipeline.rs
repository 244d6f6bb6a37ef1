//! End-to-end pipeline tests exercising every layer together: graph I/O →
//! query parsing → evaluation → learning → interactive session → transcript
//! serialization.

use gps_core::{Gps, Transcript};
use gps_datasets::figure1::MOTIVATING_QUERY;
use gps_graph::{io, CsrGraph};
use gps_interactive::session::{Session, SessionConfig};
use gps_interactive::strategy::InformativePathsStrategy;
use gps_interactive::user::SimulatedUser;
use gps_rpq::PathQuery;

const FIGURE1_EDGE_LIST: &str = "\
# Figure 1 of the paper, edge-list format
N1 tram N4
N1 bus N4
N2 bus N1
N2 bus N3
N3 bus N5
N4 bus N5
N5 tram N3
N6 bus N5
N4 cinema C1
N6 cinema C2
N2 restaurant R1
N5 restaurant R2
";

#[test]
fn graph_loaded_from_edge_list_gives_the_same_answer() {
    let graph = io::parse_edge_list(FIGURE1_EDGE_LIST).unwrap();
    assert_eq!(graph.node_count(), 10);
    assert_eq!(graph.edge_count(), 12);
    let gps = Gps::new(graph);
    let answer = gps.evaluate(MOTIVATING_QUERY).unwrap();
    let mut names: Vec<&str> = answer
        .nodes()
        .into_iter()
        .map(|n| gps.snapshot().node_name(n))
        .collect();
    names.sort_unstable();
    assert_eq!(names, vec!["N1", "N2", "N4", "N6"]);
}

#[test]
fn edge_list_and_json_round_trips_preserve_query_answers() {
    let graph = io::parse_edge_list(FIGURE1_EDGE_LIST).unwrap();
    let query = PathQuery::parse(MOTIVATING_QUERY, graph.labels()).unwrap();
    let original = query.evaluate(&graph).nodes();

    let edge_list = io::to_edge_list(&graph);
    let reloaded = io::parse_edge_list(&edge_list).unwrap();
    let q2 = PathQuery::parse(MOTIVATING_QUERY, reloaded.labels()).unwrap();
    assert_eq!(q2.evaluate(&reloaded).len(), original.len());

    let json = io::to_json(&graph).unwrap();
    let reloaded = io::from_json(&json).unwrap();
    let q3 = PathQuery::parse(MOTIVATING_QUERY, reloaded.labels()).unwrap();
    assert_eq!(q3.evaluate(&reloaded).nodes(), original);
}

#[test]
fn full_session_on_a_loaded_graph_produces_a_serializable_transcript() {
    let graph = io::parse_edge_list(FIGURE1_EDGE_LIST).unwrap();
    let goal = PathQuery::parse(MOTIVATING_QUERY, graph.labels()).unwrap();
    let mut user = SimulatedUser::new(goal.clone(), &graph);
    let mut strategy = InformativePathsStrategy;
    let mut session = Session::new(&graph, SessionConfig::default());
    let outcome = session.run(&mut strategy, &mut user);

    let transcript = Transcript::from_outcome(&CsrGraph::from_graph(&graph), &outcome);
    let json = transcript.to_json().unwrap();
    let restored: Transcript = serde_json::from_str(&json).unwrap();
    assert_eq!(restored.entries.len(), transcript.entries.len());
    assert_eq!(restored.learned_query, transcript.learned_query);
    assert!(restored.learned_query.is_some());
    // The learned query, reparsed from its printed form, still gives the goal
    // answer — the full loop closes.
    let printed = restored.learned_query.unwrap();
    let reparsed = PathQuery::parse(&printed, graph.labels()).unwrap();
    assert_eq!(
        reparsed.evaluate(&graph).nodes(),
        goal.evaluate(&graph).nodes()
    );
}

#[test]
fn learned_queries_transfer_to_grown_graphs() {
    // Learn on the Figure 1 graph, then apply the learned query to a graph
    // extended with new neighborhoods: the semantics transfer because the
    // query is a regular expression, not a set of node ids.
    let graph = io::parse_edge_list(FIGURE1_EDGE_LIST).unwrap();
    let gps = Gps::new(graph.clone());
    let report = gps.interactive_with_validation(MOTIVATING_QUERY).unwrap();
    let learned_syntax = report.learned.expect("learned a query");

    let mut grown = graph.clone();
    let n7 = grown.add_node("N7");
    let n8 = grown.add_node("N8");
    let c3 = grown.add_node("C3");
    let tram = grown.label_id("tram").unwrap();
    let cinema = grown.label_id("cinema").unwrap();
    grown.add_edge(n7, tram, n8);
    grown.add_edge(n8, cinema, c3);

    let learned = PathQuery::parse(&learned_syntax, grown.labels()).unwrap();
    let answer = learned.evaluate(&grown);
    assert!(
        answer.contains(n7),
        "new neighborhood N7 reaches a cinema by tram"
    );
    assert!(answer.contains(n8));
    assert!(!answer.contains(c3));
}
