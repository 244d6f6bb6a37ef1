//! Integration tests reproducing the paper's figures end to end:
//! Figure 1 (the motivating query and its answer), Figure 3(a)/(b) (the
//! neighborhood of N2 at distance 2 and its zoom-out to distance 3), and
//! Figure 3(c) (the prefix tree of N2's candidate paths with the suggested
//! path highlighted).

use gps_core::Gps;
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_graph::Neighborhood;
use gps_interactive::validation;
use gps_rpq::{EvalHandle, NegativeCoverage, PathQuery};

#[test]
fn figure1_motivating_query_answer() {
    let (graph, ids) = figure1_graph();
    let gps = Gps::new(graph);
    let answer = gps.evaluate(MOTIVATING_QUERY).unwrap();
    assert_eq!(answer.nodes(), vec![ids.n1, ids.n2, ids.n4, ids.n6]);
    assert_eq!(
        gps.evaluate_rendered(MOTIVATING_QUERY).unwrap(),
        "{N1, N2, N4, N6}"
    );
}

#[test]
fn figure1_witness_paths_match_the_papers_narrative() {
    let (graph, ids) = figure1_graph();
    let query = PathQuery::parse(MOTIVATING_QUERY, graph.labels()).unwrap();
    // The paper lists these paths as the entailment evidence.
    assert_eq!(
        query.witness(&graph, ids.n1).unwrap().render_word(&graph),
        "tram·cinema"
    );
    assert_eq!(
        query.witness(&graph, ids.n2).unwrap().render_word(&graph),
        "bus·tram·cinema"
    );
    assert_eq!(
        query.witness(&graph, ids.n4).unwrap().render_word(&graph),
        "cinema"
    );
    assert_eq!(
        query.witness(&graph, ids.n6).unwrap().render_word(&graph),
        "cinema"
    );
    // N5 (the paper's negative example) has no witness at all.
    assert!(query.witness(&graph, ids.n5).is_none());
}

#[test]
fn figure3a_neighborhood_of_n2_at_distance_2_hides_the_cinema() {
    let (graph, ids) = figure1_graph();
    let hood = Neighborhood::extract(&graph, ids.n2, 2);
    assert_eq!(hood.center(), ids.n2);
    assert!(hood.contains(ids.n1));
    assert!(hood.contains(ids.n3));
    assert!(hood.contains(ids.r1));
    assert!(!hood.contains(ids.c1), "no cinema at distance 2");
    assert!(!hood.contains(ids.c2));
    // Frontier nodes carry the "…" continuation marker.
    assert!(!hood.continuations().is_empty());
}

#[test]
fn figure3b_zoom_to_distance_3_reveals_the_cinema_highlighted() {
    let (graph, ids) = figure1_graph();
    let hood2 = Neighborhood::extract(&graph, ids.n2, 2);
    let (hood3, delta) = hood2.zoom_out(&graph);
    assert_eq!(hood3.radius(), 3);
    assert!(hood3.contains(ids.c1));
    assert!(delta.added_nodes.contains(&ids.c1));
    // The textual rendering marks the new nodes like the figure's blue
    // highlighting.
    let gps = Gps::new(figure1_graph().0);
    let rendered = gps.render_zoom(ids.n2, 2);
    assert!(rendered.contains("C1 *new*"));
}

#[test]
fn figure3c_prefix_tree_highlights_a_length3_candidate() {
    let (graph, ids) = figure1_graph();
    let coverage = NegativeCoverage::new(3);
    let prompt =
        validation::build_prompt(&EvalHandle::naive(&graph), ids.n2, 3, &coverage).unwrap();
    // The system suggests a path of length 3 — the radius the user zoomed to.
    assert_eq!(prompt.suggested.len(), 3);
    let bus = graph.label_id("bus").unwrap();
    let cinema = graph.label_id("cinema").unwrap();
    let tram = graph.label_id("tram").unwrap();
    assert!(prompt.is_candidate(&[bus, bus, cinema]));
    assert!(prompt.is_candidate(&[bus, tram, cinema]));
    // Rendering shows the candidate marker.
    let gps = Gps::new(figure1_graph().0);
    let rendered = gps.render_prefix_tree(ids.n2, 3, &prompt.suggested);
    assert!(rendered.contains("◀ candidate"));
}

#[test]
fn figure2_loop_reaches_the_goal_query() {
    let (graph, _) = figure1_graph();
    let gps = Gps::new(graph);
    let report = gps.interactive_with_validation(MOTIVATING_QUERY).unwrap();
    assert!(report.goal_reached);
    assert!(report.consistent_with_labels);
    // The paper's promise: a small number of interactions (never more than
    // the number of nodes, and in practice much fewer than labeling all).
    assert!(report.interactions <= 6, "took {}", report.interactions);
}
