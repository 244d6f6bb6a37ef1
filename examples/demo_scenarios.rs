//! The three demonstration scenarios of the paper, run back to back on the
//! Figure 1 graph:
//!
//! 1. static labeling (including an inconsistent labeling),
//! 2. interactive labeling without path validation (which learns *a*
//!    consistent query, e.g. `bus`, but not necessarily the goal),
//! 3. interactive labeling with path validation (which recovers the goal).
//!
//! Run with `cargo run --example demo_scenarios`.

use gps_core::{Gps, StaticLabelingOutcome};
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_learner::Label;

fn main() {
    let (graph, ids) = figure1_graph();
    let gps = Gps::new(graph);
    let labels = gps.snapshot().labels();

    // ------------------------------------------------------------------
    println!("=== Scenario 1: static labeling ===");
    println!("The attendee labels nodes directly on the whole graph.\n");

    println!("labels: +N2 +N6 -N5");
    match gps.static_labeling(&[
        (ids.n2, Label::Positive),
        (ids.n6, Label::Positive),
        (ids.n5, Label::Negative),
    ]) {
        StaticLabelingOutcome::Learned(learned) => println!(
            "  consistent query proposed: {}\n  answer: {}\n",
            gps_automata::printer::print(&learned.regex, labels),
            render(&gps, &learned.answer.nodes())
        ),
        other => println!("  unexpected: {other:?}\n"),
    }

    println!("labels: +C1 -N4   (inconsistent: C1 has no outgoing path)");
    match gps.static_labeling(&[(ids.c1, Label::Positive), (ids.n4, Label::Negative)]) {
        StaticLabelingOutcome::Inconsistent {
            conflicting_positive,
        } => println!(
            "  the system points out the labeling is inconsistent (positive {} cannot be separated)\n",
            gps.snapshot().node_name(conflicting_positive)
        ),
        other => println!("  unexpected: {other:?}\n"),
    }

    // ------------------------------------------------------------------
    println!("=== Scenario 2: interactive labeling WITHOUT path validation ===");
    let report = gps
        .interactive_without_validation(MOTIVATING_QUERY)
        .unwrap();
    println!(
        "goal: {}\nlearned: {}\nconsistent with labels: {}\nequals the goal answer: {}\ninteractions: {}\n",
        report.goal,
        report.learned.clone().unwrap_or_else(|| "-".into()),
        report.consistent_with_labels,
        report.goal_reached,
        report.interactions
    );

    // ------------------------------------------------------------------
    println!("=== Scenario 3: interactive labeling WITH path validation ===");
    let report = gps.interactive_with_validation(MOTIVATING_QUERY).unwrap();
    println!(
        "goal: {}\nlearned: {}\nconsistent with labels: {}\nequals the goal answer: {}\ninteractions: {} (+{} zooms)\n",
        report.goal,
        report.learned.clone().unwrap_or_else(|| "-".into()),
        report.consistent_with_labels,
        report.goal_reached,
        report.interactions,
        report.zooms
    );
    println!("transcript:\n{}", report.transcript.render());
}

fn render(gps: &Gps, nodes: &[gps_graph::NodeId]) -> String {
    let names: Vec<&str> = nodes.iter().map(|&n| gps.snapshot().node_name(n)).collect();
    format!("{{{}}}", names.join(", "))
}
