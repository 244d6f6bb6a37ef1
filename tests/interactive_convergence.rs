//! Cross-crate integration tests for the interactive loop's convergence
//! behaviour: the informative-paths strategy converges with few interactions,
//! all strategies converge eventually, pruning monotonically shrinks the
//! candidate set, and the learner recovers goal queries from characteristic
//! samples on every workload family.

use gps_datasets::{Workload, WorkloadKind};
use gps_graph::CsrGraph;
use gps_interactive::session::{Session, SessionConfig};
use gps_interactive::strategy::{InformativePathsStrategy, RandomStrategy, Strategy};
use gps_interactive::user::SimulatedUser;
use gps_learner::characteristic::characteristic_sample;
use gps_learner::Learner;
use gps_rpq::PathQuery;

fn run(
    graph: &CsrGraph,
    goal: &PathQuery,
    strategy: &mut dyn Strategy,
) -> gps_interactive::session::SessionOutcome {
    let mut user = SimulatedUser::new(goal.clone(), graph);
    let mut session = Session::new(graph, SessionConfig::default());
    session.run(strategy, &mut user)
}

#[test]
fn informative_strategy_converges_on_every_workload_family() {
    for workload in Workload::default_suite(17) {
        let graph = CsrGraph::from_graph(&workload.graph);
        // Pick the first satisfiable goal query of the workload.
        let goal = workload
            .queries
            .queries
            .iter()
            .find(|q| !q.evaluate(&graph).is_empty());
        let Some(goal) = goal else { continue };
        let outcome = run(&graph, goal, &mut InformativePathsStrategy);
        assert!(
            outcome.halt_reason.is_convergence(),
            "{}: halted with {:?}",
            workload.name,
            outcome.halt_reason
        );
        let learned = outcome.learned.expect("a query is learned");
        // The learned query is consistent with every label given.
        for positive in outcome.examples.positives() {
            assert!(learned.answer.contains(positive), "{}", workload.name);
        }
        for negative in outcome.examples.negatives() {
            assert!(!learned.answer.contains(negative), "{}", workload.name);
        }
        // Interactions stay well below the graph size (the whole point of the
        // system).
        assert!(
            outcome.stats.interactions <= graph.node_count(),
            "{}",
            workload.name
        );
    }
}

#[test]
fn informative_strategy_needs_no_more_interactions_than_random_on_figure1() {
    let workload = Workload::figure1();
    let graph = CsrGraph::from_graph(&workload.graph);
    let goal = PathQuery::parse("(tram+bus)*.cinema", graph.labels()).unwrap();
    let informative = run(&graph, &goal, &mut InformativePathsStrategy);
    // Average random over a few seeds to smooth out luck.
    let mut random_total = 0usize;
    let seeds = [1u64, 2, 3, 4, 5];
    for seed in seeds {
        random_total += run(&graph, &goal, &mut RandomStrategy::seeded(seed))
            .stats
            .interactions;
    }
    let random_mean = random_total as f64 / seeds.len() as f64;
    assert!(
        (informative.stats.interactions as f64) <= random_mean + 0.5,
        "informative {} vs random mean {random_mean}",
        informative.stats.interactions
    );
}

#[test]
fn pruning_counters_are_monotone_and_end_high() {
    let workload = Workload::transport(40, 9);
    let graph = CsrGraph::from_graph(&workload.graph);
    let goal = PathQuery::parse("(tram+bus)*.cinema", graph.labels()).unwrap();
    let outcome = run(&graph, &goal, &mut InformativePathsStrategy);
    let pruned = &outcome.stats.pruned_after_interaction;
    assert!(!pruned.is_empty());
    for window in pruned.windows(2) {
        assert!(window[0] <= window[1], "pruning never un-prunes");
    }
    // Facility sinks alone are a sizable pruned fraction from the start.
    assert!(pruned[0] > 0);
}

#[test]
fn characteristic_samples_recover_goal_behaviour_on_all_families() {
    for workload in Workload::default_suite(23) {
        let graph = CsrGraph::from_graph(&workload.graph);
        // Use a cheap goal per family to keep the test fast.
        let goal = workload.queries.queries.iter().find(|q| {
            let n = q.evaluate(&graph).len();
            n > 0 && n < graph.node_count()
        });
        let Some(goal) = goal else { continue };
        // Scale-free and synthetic graphs can be dense; skip the largest to
        // keep CI fast while still covering the family.
        if workload.kind == WorkloadKind::ScaleFree && graph.edge_count() > 400 {
            continue;
        }
        let sample = characteristic_sample(&graph, goal);
        let learned = Learner::default()
            .learn(&graph, &sample)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        assert_eq!(
            learned.answer.nodes(),
            goal.evaluate(&graph).nodes(),
            "{}: learned {:?}",
            workload.name,
            learned.regex
        );
    }
}

#[test]
fn session_transcript_lengths_match_interaction_counts() {
    let workload = Workload::transport(25, 4);
    let graph = CsrGraph::from_graph(&workload.graph);
    let goal = PathQuery::parse("cinema", graph.labels()).unwrap();
    let outcome = run(&graph, &goal, &mut InformativePathsStrategy);
    assert_eq!(outcome.transcript.len(), outcome.stats.interactions);
    assert_eq!(
        outcome.stats.positive_labels + outcome.stats.negative_labels,
        outcome.stats.interactions
    );
}
