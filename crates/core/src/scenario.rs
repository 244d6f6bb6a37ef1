//! The three demonstration scenarios of the paper.
//!
//! 1. **Static labeling** — the user freely labels any nodes she likes on the
//!    whole graph; the system then either proposes a consistent query or
//!    points out that the labels are inconsistent.  This scenario exists to
//!    show why the interactive approach is preferable.
//! 2. **Interactive labeling without path validation** — the system proposes
//!    informative nodes and picks the witness path of each positive node
//!    itself.  The learned query is consistent with the labels but not
//!    necessarily the query the user has in mind (the paper's `bus`
//!    counterexample).
//! 3. **Interactive labeling with path validation** — the core of GPS: the
//!    user additionally validates or corrects the witness path, which
//!    guarantees the generalization uses the paths she cares about.

use crate::transcript::Transcript;
use gps_graph::{CsrGraph, NodeId};
use gps_interactive::session::{Session, SessionConfig, SessionOutcome};
use gps_interactive::strategy::Strategy;
use gps_interactive::user::SimulatedUser;
use gps_learner::{consistency, ExampleSet, Label, LearnedQuery, Learner};
use gps_rpq::{EvalHandle, NegativeCoverage, PathQuery};
use serde::{Deserialize, Serialize};

/// The result of the static-labeling scenario.
#[derive(Debug, Clone)]
pub enum StaticLabelingOutcome {
    /// A query consistent with the user's labels was found.
    Learned(Box<LearnedQuery>),
    /// The labels are inconsistent: no query (within the learner's bound) can
    /// select all positives and no negative.  The offending positive node is
    /// reported.
    Inconsistent {
        /// A positive node whose every bounded path is covered by negatives.
        conflicting_positive: NodeId,
    },
    /// The user provided no positive example, so there is nothing to learn.
    NoPositives,
}

/// Runs the static-labeling scenario on a user-provided example set, over
/// `exec`'s snapshot: words come from its word index, answers from its cache.
pub fn static_labeling(
    exec: &EvalHandle,
    labels: &[(NodeId, Label)],
    learner: &Learner,
) -> StaticLabelingOutcome {
    let examples: ExampleSet = labels.iter().copied().collect();
    if examples.positive_count() == 0 {
        return StaticLabelingOutcome::NoPositives;
    }
    if let Some(consistency::Infeasibility::PositiveCovered(node)) =
        consistency::check_satisfiable(exec, &examples, learner.path_bound)
    {
        return StaticLabelingOutcome::Inconsistent {
            conflicting_positive: node,
        };
    }
    let index = exec.bounded_words(learner.path_bound);
    let coverage = NegativeCoverage::from_index(&index, examples.negatives());
    match learner.learn_with(exec.cache().csr(), &examples, &coverage, exec) {
        Ok(learned) => StaticLabelingOutcome::Learned(Box::new(learned)),
        Err(gps_learner::LearnError::PositiveFullyCovered { node })
        | Err(gps_learner::LearnError::ValidatedPathCovered { node })
        | Err(gps_learner::LearnError::InconsistentResult { node }) => {
            StaticLabelingOutcome::Inconsistent {
                conflicting_positive: node,
            }
        }
        Err(gps_learner::LearnError::NoPositiveExamples) => StaticLabelingOutcome::NoPositives,
    }
}

/// Summary of an interactive scenario run against a simulated user.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Which scenario ran (`"interactive"` or `"interactive+validation"`).
    pub scenario: String,
    /// The goal query the simulated user had in mind.
    pub goal: String,
    /// The learned query, if any.
    pub learned: Option<String>,
    /// Whether the learned query selects exactly the same nodes as the goal.
    pub goal_reached: bool,
    /// Whether the learned query is consistent with the labels provided.
    pub consistent_with_labels: bool,
    /// Number of label interactions used.
    pub interactions: usize,
    /// Number of zoom-outs used.
    pub zooms: usize,
    /// The full transcript.
    pub transcript: Transcript,
}

fn report_from_outcome(
    graph: &CsrGraph,
    goal: &PathQuery,
    scenario: &str,
    outcome: &SessionOutcome,
    exec: &EvalHandle,
) -> ScenarioReport {
    // Served from the shared cache: the simulated user already evaluated
    // the goal through this handle at construction.
    let goal_answer = exec.evaluate(goal.regex());
    let goal_reached = outcome
        .learned
        .as_ref()
        .map(|l| l.answer.nodes() == goal_answer.nodes())
        .unwrap_or(false);
    let consistent_with_labels = outcome
        .learned
        .as_ref()
        .map(|l| consistency::check_answer(&l.answer, &outcome.examples).is_consistent())
        .unwrap_or(false);
    ScenarioReport {
        scenario: scenario.to_string(),
        goal: goal.display(graph.labels()),
        learned: outcome
            .learned
            .as_ref()
            .map(|l| gps_automata::printer::print(&l.regex, graph.labels())),
        goal_reached,
        consistent_with_labels,
        interactions: outcome.stats.interactions,
        zooms: outcome.stats.zooms,
        transcript: Transcript::from_outcome(graph, outcome),
    }
}

/// Runs an interactive scenario on the engine's evaluation stack: the
/// session, the simulated user, the learner and the final report all
/// evaluate through `exec`.  The scenario label follows
/// `config.with_path_validation`.
pub fn interactive(
    graph: &CsrGraph,
    goal: &PathQuery,
    config: SessionConfig,
    strategy: &mut dyn Strategy,
    exec: EvalHandle,
) -> ScenarioReport {
    let scenario = if config.with_path_validation {
        "interactive+validation"
    } else {
        "interactive"
    };
    let mut user = SimulatedUser::with_exec(goal.clone(), exec.clone());
    let mut session = Session::with_exec(graph, config, exec.clone());
    let outcome = session.run(strategy, &mut user);
    report_from_outcome(graph, goal, scenario, &outcome, &exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};

    fn static_labeling_on_figure1(labels: &[(NodeId, Label)]) -> StaticLabelingOutcome {
        let exec = EvalHandle::naive(&CsrGraph::from_graph(&figure1_graph().0));
        static_labeling(&exec, labels, &Learner::default())
    }

    #[test]
    fn static_labeling_learns_from_consistent_labels() {
        let (_, ids) = figure1_graph();
        let labels = vec![
            (ids.n2, Label::Positive),
            (ids.n6, Label::Positive),
            (ids.n5, Label::Negative),
        ];
        match static_labeling_on_figure1(&labels) {
            StaticLabelingOutcome::Learned(learned) => {
                assert!(learned.answer.contains(ids.n2));
                assert!(learned.answer.contains(ids.n6));
                assert!(!learned.answer.contains(ids.n5));
            }
            other => panic!("expected a learned query, got {other:?}"),
        }
    }

    #[test]
    fn static_labeling_detects_inconsistency() {
        let (_, ids) = figure1_graph();
        // C1 has no outgoing path: labeling it positive together with any
        // negative is inconsistent for non-nullable queries.
        let labels = vec![(ids.c1, Label::Positive), (ids.n5, Label::Negative)];
        match static_labeling_on_figure1(&labels) {
            StaticLabelingOutcome::Inconsistent {
                conflicting_positive,
            } => assert_eq!(conflicting_positive, ids.c1),
            other => panic!("expected inconsistency, got {other:?}"),
        }
    }

    #[test]
    fn static_labeling_without_positives() {
        let (_, ids) = figure1_graph();
        let labels = vec![(ids.n5, Label::Negative)];
        assert!(matches!(
            static_labeling_on_figure1(&labels),
            StaticLabelingOutcome::NoPositives
        ));
    }

    #[test]
    fn with_validation_reaches_the_goal() {
        let report = Engine::builder(figure1_graph().0)
            .build()
            .interactive_with_validation(MOTIVATING_QUERY)
            .unwrap();
        assert!(report.goal_reached, "report: {report:?}");
        assert!(report.consistent_with_labels);
        assert_eq!(report.scenario, "interactive+validation");
        assert!(report.interactions >= 1);
        assert!(report.learned.is_some());
    }

    #[test]
    fn reports_serialize() {
        let report = Engine::builder(figure1_graph().0)
            .build()
            .interactive_with_validation(MOTIVATING_QUERY)
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("interactive+validation"));
    }

    #[test]
    fn without_validation_is_consistent_but_may_differ_from_goal() {
        let report = Engine::builder(figure1_graph().0)
            .build()
            .interactive_without_validation(MOTIVATING_QUERY)
            .unwrap();
        assert!(report.consistent_with_labels);
        assert_eq!(report.scenario, "interactive");
        // It may or may not hit the goal; the paper's point is only that it
        // is not guaranteed.  Both outcomes are acceptable here.
    }
}
