//! Integration tests for the three demonstration scenarios (Section 3 of the
//! paper): static labeling, interactive labeling without path validation, and
//! interactive labeling with path validation.

use gps_core::{Gps, StaticLabelingOutcome};
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_datasets::transport::{generate, TransportConfig};
use gps_learner::Label;
use gps_rpq::PathQuery;

#[test]
fn s1_static_labeling_with_consistent_labels_learns_a_query() {
    let (graph, ids) = figure1_graph();
    let gps = Gps::new(graph);
    let outcome = gps.static_labeling(&[
        (ids.n2, Label::Positive),
        (ids.n6, Label::Positive),
        (ids.n5, Label::Negative),
    ]);
    match outcome {
        StaticLabelingOutcome::Learned(learned) => {
            // The learned query is consistent with the labels (the paper only
            // promises consistency in this scenario, not goal equality).
            assert!(learned.answer.contains(ids.n2));
            assert!(learned.answer.contains(ids.n6));
            assert!(!learned.answer.contains(ids.n5));
        }
        other => panic!("expected Learned, got {other:?}"),
    }
}

#[test]
fn s1_static_labeling_reports_inconsistent_labelings() {
    let (graph, ids) = figure1_graph();
    let gps = Gps::new(graph);
    // R1 has no outgoing edge: positive R1 plus any negative cannot be
    // satisfied by a query with non-empty witnesses.
    let outcome = gps.static_labeling(&[(ids.r1, Label::Positive), (ids.n2, Label::Negative)]);
    assert!(matches!(
        outcome,
        StaticLabelingOutcome::Inconsistent {
            conflicting_positive
        } if conflicting_positive == ids.r1
    ));
    // Labeling only negatives is reported as "nothing to learn from".
    let outcome = gps.static_labeling(&[(ids.n5, Label::Negative)]);
    assert!(matches!(outcome, StaticLabelingOutcome::NoPositives));
}

#[test]
fn s2_without_validation_is_consistent_but_not_necessarily_the_goal() {
    let (graph, _) = figure1_graph();
    let gps = Gps::new(graph);
    let report = gps
        .interactive_without_validation(MOTIVATING_QUERY)
        .unwrap();
    // Always consistent with the labels the user provided...
    assert!(report.consistent_with_labels);
    assert!(report.learned.is_some());
    // ...and the paper's point: scenario 2 gives no guarantee of reaching the
    // goal query itself (`bus` is consistent with +N2 +N6 -N5 but wrong).
    // Either outcome is legal; record which one we observed for the report.
    println!(
        "scenario 2 learned {:?}, goal reached: {}",
        report.learned, report.goal_reached
    );
}

#[test]
fn s3_with_validation_recovers_the_goal_on_figure1() {
    let (graph, _) = figure1_graph();
    let gps = Gps::new(graph);
    let report = gps.interactive_with_validation(MOTIVATING_QUERY).unwrap();
    assert!(report.goal_reached);
    assert!(report.consistent_with_labels);
    assert!(report.transcript.entries.len() == report.interactions);
}

#[test]
fn s3_with_validation_recovers_goals_on_generated_transport_networks() {
    // The claim must hold beyond the toy example: sweep a few generated
    // networks and goal queries.
    for seed in [1u64, 2, 3] {
        let net = generate(&TransportConfig::with_neighborhoods(25, seed));
        let gps = Gps::new(net.graph.clone());
        for goal_syntax in ["cinema", "(tram+bus)*.cinema"] {
            let goal = PathQuery::parse(goal_syntax, net.graph.labels()).unwrap();
            if goal.evaluate(&net.graph).is_empty() {
                continue;
            }
            let report = gps.interactive_with_validation(goal_syntax).unwrap();
            assert!(
                report.goal_reached,
                "seed {seed}, goal {goal_syntax}: learned {:?} in {} interactions",
                report.learned, report.interactions
            );
        }
    }
}

#[test]
fn s2_and_s3_use_comparable_numbers_of_interactions() {
    let (graph, _) = figure1_graph();
    let gps = Gps::new(graph);
    let without = gps
        .interactive_without_validation(MOTIVATING_QUERY)
        .unwrap();
    let with = gps.interactive_with_validation(MOTIVATING_QUERY).unwrap();
    // Path validation costs the user one extra click per positive node but
    // not extra *labeling* interactions.
    assert!(with.interactions <= without.interactions + 2);
    assert!(without.interactions <= graph_size());
}

fn graph_size() -> usize {
    figure1_graph().0.node_count()
}
