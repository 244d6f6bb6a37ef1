//! Integration tests driving sessions with scripted (non-oracle) users and
//! unusual configurations: exhausted budgets, users that always zoom, users
//! that answer inconsistently with any goal, and the paper's S2
//! counterexample where the learner without path validation settles on `bus`.

use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_interactive::halt::{HaltConfig, HaltReason};
use gps_interactive::pruning::PruningState;
use gps_interactive::session::{Session, SessionConfig};
use gps_interactive::strategy::{InformativePathsStrategy, Strategy, StrategyContext};
use gps_interactive::user::{ScriptedUser, SimulatedUser, User, UserResponse};
use gps_learner::{consistency, ExampleSet, Learner};
use gps_rpq::{EvalHandle, NegativeCoverage, PathQuery};

fn figure1() -> (gps_graph::CsrGraph, gps_datasets::figure1::Figure1) {
    let (g, ids) = figure1_graph();
    (gps_graph::CsrGraph::from_graph(&g), ids)
}

#[test]
fn scripted_all_negative_user_exhausts_the_graph() {
    let (graph, _) = figure1();
    // A user who answers "No" to everything: the session ends when every node
    // is labeled or pruned, and no query can be learned.
    let mut user = ScriptedUser::new(vec![UserResponse::Negative; 20], vec![]);
    let mut strategy = InformativePathsStrategy;
    let mut session = Session::new(&graph, SessionConfig::default());
    let outcome = session.run(&mut strategy, &mut user);
    assert_eq!(outcome.halt_reason, HaltReason::AllNodesResolved);
    assert!(outcome.learned.is_none());
    assert_eq!(outcome.stats.positive_labels, 0);
    assert!(outcome.stats.negative_labels >= 1);
    assert!(outcome.examples.positives().is_empty());
}

#[test]
fn user_that_always_zooms_is_forced_to_decide() {
    let (graph, _) = figure1();
    // Zoom forever: the zoom cap converts the non-answer into a conservative
    // negative, so the session still terminates.
    let mut user = ScriptedUser::new(vec![UserResponse::ZoomOut; 100], vec![]);
    let mut strategy = InformativePathsStrategy;
    let mut session = Session::new(&graph, SessionConfig::default());
    let outcome = session.run(&mut strategy, &mut user);
    assert!(outcome.halt_reason.is_convergence() || outcome.stats.interactions > 0);
    assert_eq!(outcome.stats.positive_labels, 0);
    assert!(outcome.stats.zooms > 0);
}

#[test]
fn budget_of_zero_interactions_halts_immediately() {
    let (graph, _) = figure1();
    let goal = PathQuery::parse(MOTIVATING_QUERY, graph.labels()).unwrap();
    let mut user = SimulatedUser::new(goal, &graph);
    let config = SessionConfig {
        halt: HaltConfig {
            max_interactions: 0,
            stop_on_goal: true,
        },
        ..SessionConfig::default()
    };
    let mut session = Session::new(&graph, config);
    let outcome = session.run(&mut InformativePathsStrategy, &mut user);
    assert_eq!(outcome.halt_reason, HaltReason::InteractionBudgetExhausted);
    assert_eq!(outcome.stats.interactions, 0);
    assert!(outcome.learned.is_none());
}

#[test]
fn paper_counterexample_without_validation_learns_bus_like_query() {
    // Reproduce the paper's S2 narrative directly on the learner: with
    // examples +N2 +N6 −N5 and the learner choosing its own (smallest
    // uncovered) witness words, the learned query behaves like `bus` — it is
    // consistent with the examples but not the goal query.
    let (graph, ids) = figure1();
    let mut examples = ExampleSet::new();
    examples.add_positive(ids.n2);
    examples.add_positive(ids.n6);
    examples.add_negative(ids.n5);
    let learned = Learner::default().learn(&graph, &examples).unwrap();
    // Consistent with the labels...
    assert!(consistency::check_answer(&learned.answer, &examples).is_consistent());
    // ...but NOT language-equivalent to the goal query.
    let goal = PathQuery::parse(MOTIVATING_QUERY, graph.labels()).unwrap();
    let alphabet = gps_automata::Alphabet::from_interner(graph.labels());
    assert!(!gps_automata::decide::equivalent(
        &learned.dfa,
        goal.dfa(),
        &alphabet
    ));
    // The smallest uncovered word selected for N2 is the single label `bus`,
    // exactly the paper's example of an unintended generalization seed.
    let bus = graph.label_id("bus").unwrap();
    assert_eq!(learned.selected_paths[&ids.n2], vec![bus]);
}

#[test]
fn with_validation_the_same_examples_seed_the_goal_paths() {
    let (graph, ids) = figure1();
    let goal = PathQuery::parse(MOTIVATING_QUERY, graph.labels()).unwrap();
    let mut user = SimulatedUser::new(goal.clone(), &graph);
    // Build the validation prompt N2 would get at radius 3 and check the
    // simulated user corrects the suggestion to a goal-accepted word.
    let coverage = NegativeCoverage::from_negatives(&graph, [ids.n5], 4);
    let prompt =
        gps_interactive::validation::build_prompt(&EvalHandle::naive(&graph), ids.n2, 3, &coverage)
            .unwrap();
    let chosen = user.validate_path(&graph, ids.n2, &prompt.candidates, &prompt.suggested);
    assert!(goal.dfa().accepts(&chosen));
}

#[test]
fn strategy_context_is_reusable_across_strategies() {
    // The same context can be consulted by several strategies in one step
    // (the benchmark harness does this); verify borrows compose.
    let (graph, _) = figure1();
    let examples = ExampleSet::new();
    let coverage = NegativeCoverage::new(3);
    let mut pruning = PruningState::new(3);
    pruning.refresh_with(&graph, &examples, &coverage, &EvalHandle::naive(&graph));
    let ctx = StrategyContext {
        graph: &graph,
        examples: &examples,
        coverage: &coverage,
        pruning: &pruning,
    };
    let mut informative = InformativePathsStrategy;
    let first = informative.propose(&ctx);
    let second = informative.propose(&ctx);
    assert_eq!(first, second, "stateless strategy is deterministic");
}

#[test]
fn scripted_positive_then_negative_is_recorded_in_order() {
    let (graph, _) = figure1();
    let mut user = ScriptedUser::new(vec![UserResponse::Positive, UserResponse::Negative], vec![]);
    let mut strategy = InformativePathsStrategy;
    let config = SessionConfig {
        halt: HaltConfig {
            max_interactions: 2,
            stop_on_goal: false,
        },
        with_path_validation: false,
        ..SessionConfig::default()
    };
    let mut session = Session::new(&graph, config);
    let outcome = session.run(&mut strategy, &mut user);
    assert_eq!(outcome.stats.interactions, 2);
    assert_eq!(outcome.stats.positive_labels, 1);
    assert_eq!(outcome.stats.negative_labels, 1);
    assert_eq!(outcome.transcript.len(), 2);
    assert_eq!(outcome.transcript[0].label, gps_learner::Label::Positive);
    assert_eq!(outcome.transcript[1].label, gps_learner::Label::Negative);
}

#[test]
fn a_prompt_at_radius_six_leaves_the_shared_index_at_the_path_bound() {
    // A 12-node ring with two labels: every zoom up to radius 6 reveals a
    // new ring node, so the prompt is built at radius 6, two past the path
    // bound of 4.
    let mut g = gps_graph::Graph::new();
    let nodes: Vec<_> = (0..12).map(|i| g.add_node(format!("v{i}"))).collect();
    for (i, &node) in nodes.iter().enumerate() {
        let label = if i % 3 == 0 { "a" } else { "b" };
        g.add_edge_by_name(node, label, nodes[(i + 1) % nodes.len()]);
    }
    let graph = gps_graph::CsrGraph::from_graph(&g);
    let exec = EvalHandle::naive(&graph);
    let mut responses = vec![UserResponse::ZoomOut; 4];
    responses.push(UserResponse::Positive);
    let mut user = ScriptedUser::new(responses, vec![]);
    let config = SessionConfig {
        halt: HaltConfig {
            max_interactions: 1,
            stop_on_goal: false,
        },
        ..SessionConfig::default()
    };
    let mut session = Session::with_exec(&graph, config, exec.clone());
    let outcome = session.run(&mut InformativePathsStrategy, &mut user);
    assert_eq!(outcome.stats.zooms, 4);
    assert_eq!(outcome.stats.path_validations, 1);
    let validated = outcome.transcript[0].validated_word.as_ref().unwrap();
    assert_eq!(validated.len(), 6, "the suggestion has the radius' length");
    assert_eq!(exec.cache().words_bound(), Some(4));
}
