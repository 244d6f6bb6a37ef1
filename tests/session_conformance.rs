//! Session conformance suite: interactive sessions must be
//! **transcript-identical** between the engine and the naive reference stack.
//!
//! A session's observable behavior is its transcript — the sequence of
//! proposed nodes, zoom counts, labels and validated words — plus the
//! learned query, the collected examples, the halt reason and the pruning
//! trajectory.  This suite replays the same specification task through
//!
//! * the reference path: `Session::new` + `SimulatedUser::new` on the
//!   mutable adjacency backend (private naive evaluation stack), and
//! * the engine path, with the session, user, learner and pruning all
//!   sharing the engine's evaluation stack via [`EvalHandle`],
//!
//! and asserts byte-identical outcomes across the figure1, transport and
//! scale-free corpora, with and without path validation.

use gps_core::prelude::*;
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_datasets::transport::{self, TransportConfig};
use gps_interactive::session::InteractionRecord;

/// Everything observable about a finished session, in comparable form.
#[derive(Debug, PartialEq)]
struct SessionFingerprint {
    transcript: Vec<InteractionRecord>,
    learned: Option<(String, Vec<NodeId>)>,
    halt: HaltReason,
    examples: ExampleSet,
    interactions: usize,
    zooms: usize,
    positive_labels: usize,
    negative_labels: usize,
    path_validations: usize,
    path_corrections: usize,
    pruned_after_interaction: Vec<usize>,
}

fn fingerprint(
    graph_labels: &gps_graph::LabelInterner,
    outcome: &SessionOutcome,
) -> SessionFingerprint {
    SessionFingerprint {
        transcript: outcome.transcript.clone(),
        learned: outcome.learned.as_ref().map(|l| {
            (
                gps_automata::printer::print(&l.regex, graph_labels),
                l.answer.nodes(),
            )
        }),
        halt: outcome.halt_reason,
        examples: outcome.examples.clone(),
        interactions: outcome.stats.interactions,
        zooms: outcome.stats.zooms,
        positive_labels: outcome.stats.positive_labels,
        negative_labels: outcome.stats.negative_labels,
        path_validations: outcome.stats.path_validations,
        path_corrections: outcome.stats.path_corrections,
        pruned_after_interaction: outcome.stats.pruned_after_interaction.clone(),
    }
}

/// The corpora: (name, graph, goal query syntax).
fn corpus() -> Vec<(String, Graph, String)> {
    let mut graphs = Vec::new();
    graphs.push((
        "figure1".to_string(),
        figure1_graph().0,
        MOTIVATING_QUERY.to_string(),
    ));
    graphs.push((
        "transport".to_string(),
        transport::generate(&TransportConfig::with_neighborhoods(25, 7)).graph,
        "(tram+bus)*.cinema".to_string(),
    ));
    let sf = scale_free::generate(&ScaleFreeConfig {
        nodes: 120,
        seed: 11,
        ..ScaleFreeConfig::default()
    });
    let name = |i: u32| sf.labels().name(LabelId::new(i)).unwrap().to_string();
    let sf_query = format!("({}+{})*.{}", name(0), name(1), name(2));
    graphs.push(("scale-free".to_string(), sf, sf_query));
    graphs
}

fn config(with_validation: bool) -> SessionConfig {
    SessionConfig {
        with_path_validation: with_validation,
        halt: HaltConfig {
            max_interactions: 40,
            stop_on_goal: true,
        },
        ..SessionConfig::default()
    }
}

/// The reference run: bare `Session::new` on the adjacency backend.
fn run_reference(graph: &Graph, syntax: &str, config: SessionConfig) -> SessionOutcome {
    let goal = PathQuery::parse(syntax, graph.labels()).unwrap();
    let mut user = SimulatedUser::new(goal.clone(), graph);
    let mut session = Session::new(graph, config);
    session.run(&mut InformativePathsStrategy, &mut user)
}

/// The engine run: shared evaluation stack.
fn run_engine(graph: &Graph, syntax: &str, config: SessionConfig) -> SessionOutcome {
    let engine = Engine::builder(graph.clone())
        .session_config(config)
        .build();
    let goal = engine.parse_query(syntax).unwrap();
    let mut user = SimulatedUser::with_exec(goal, engine.eval_handle());
    let mut session = engine.open_session();
    session.run(&mut InformativePathsStrategy, &mut user)
}

#[test]
fn session_transcripts_identical_across_eval_modes_and_backends() {
    for (name, graph, syntax) in corpus() {
        for with_validation in [true, false] {
            let reference = fingerprint(
                graph.labels(),
                &run_reference(&graph, &syntax, config(with_validation)),
            );
            assert!(
                reference.interactions >= 1,
                "{name}: the reference session must interact"
            );
            let outcome = run_engine(&graph, &syntax, config(with_validation));
            let candidate = fingerprint(graph.labels(), &outcome);
            assert_eq!(
                candidate, reference,
                "{name} (validation={with_validation}): engine session diverged"
            );
        }
    }
}

#[test]
fn frontier_sessions_share_the_engine_cache() {
    let (graph, _) = figure1_graph();
    let engine = Engine::builder(graph).build();
    assert!(engine.eval_cache().is_empty());
    let report = engine
        .interactive_with_validation(MOTIVATING_QUERY)
        .unwrap();
    assert!(report.goal_reached);
    let (hits, misses) = engine.eval_cache().stats();
    assert!(misses >= 1, "goal + hypotheses evaluate through the cache");
    assert!(
        hits >= 1,
        "repeat hypothesis/goal evaluations hit the shared cache (hits={hits}, misses={misses})"
    );
    // A second identical scenario is served almost entirely from the cache.
    let misses_before = engine.eval_cache().stats().1;
    let report2 = engine
        .interactive_with_validation(MOTIVATING_QUERY)
        .unwrap();
    assert_eq!(report2.interactions, report.interactions);
    assert_eq!(
        engine.eval_cache().stats().1,
        misses_before,
        "replaying the same session adds no cache misses"
    );
}

#[test]
fn engine_sessions_match_scenario_reports_across_modes() {
    // The scenario path (engine.interactive_with_validation) must agree on
    // interactions with the bare reference session.
    let (graph, _) = figure1_graph();
    let reference = run_reference(&graph, MOTIVATING_QUERY, SessionConfig::default());
    let engine = Engine::builder(graph).build();
    let report = engine
        .interactive_with_validation(MOTIVATING_QUERY)
        .unwrap();
    assert_eq!(report.interactions, reference.stats.interactions);
    assert!(report.goal_reached);
}
