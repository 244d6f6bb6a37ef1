//! The interactive session loop (Figure 2 of the paper).
//!
//! A [`Session`] owns the evolving state of one specification task: the
//! examples collected so far, the negative coverage, the pruning state, the
//! current hypothesis, and the statistics.  [`Session::run`] drives the loop
//! with a [`Strategy`] and a [`User`] until a halt condition fires;
//! [`Session::step`] performs a single interaction and is what the
//! step-by-step demo scenarios use.
//!
//! Every bounded word the loop reads — pruning scores, negative coverage,
//! validation prompts, the learner's path selection — comes from the
//! session's [`EvalHandle`] ([`gps_rpq::EvalCache::bounded_words`]), never
//! from a per-node path enumeration.  The session's graph is its handle's
//! snapshot ([`Session::graph`]), so the two cannot disagree; only
//! [`Session::with_shared_exec`], which still takes a graph beside the
//! handle, asserts that they are the same.

use crate::halt::{HaltConfig, HaltReason};
use crate::metrics::SessionMetrics;
use crate::pruning::PruningState;
use crate::stats::SessionStats;
use crate::strategy::{Strategy, StrategyContext};
use crate::user::{User, UserResponse};
use crate::validation;
use crate::zoom::ZoomState;
use gps_graph::{CsrGraph, NodeId, Word};
use gps_learner::{ExampleSet, Label, LearnedQuery, Learner};
use gps_rpq::{EvalHandle, NegativeCoverage};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of an interactive session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Radius of the first neighborhood shown for a proposed node (the paper
    /// uses 2).
    pub initial_radius: u32,
    /// Maximum radius the user can zoom out to.
    pub max_radius: u32,
    /// Path-length bound shared by the coverage, the pruning and the learner.
    pub path_bound: usize,
    /// Whether the path-validation step (Figure 3(c)) is part of the loop —
    /// the difference between the second and third demo scenarios.
    pub with_path_validation: bool,
    /// Halt conditions.
    pub halt: HaltConfig,
    /// The learner.  It has no settings of its own: it learns at
    /// `path_bound` (its coverage's bound), from the coverage's words.
    pub learner: Learner,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            initial_radius: 2,
            max_radius: 6,
            path_bound: 4,
            with_path_validation: true,
            halt: HaltConfig::default(),
            learner: Learner::default(),
        }
    }
}

impl SessionConfig {
    /// The configuration of the second demo scenario: interactive labeling
    /// without path validation.
    pub fn without_path_validation() -> Self {
        Self {
            with_path_validation: false,
            ..Self::default()
        }
    }
}

/// One entry of the session transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionRecord {
    /// The node proposed to the user.
    pub node: NodeId,
    /// How many times the user zoomed out before answering.
    pub zooms: usize,
    /// The label the user gave.
    pub label: Label,
    /// The word the user validated (positive labels with path validation
    /// only).
    pub validated_word: Option<Word>,
}

/// The final result of a session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The last hypothesis learned, if any.
    pub learned: Option<LearnedQuery>,
    /// Why the session stopped.
    pub halt_reason: HaltReason,
    /// The collected statistics.
    pub stats: SessionStats,
    /// The per-interaction transcript.
    pub transcript: Vec<InteractionRecord>,
    /// The examples provided by the user.
    pub examples: ExampleSet,
}

/// An in-progress interactive specification session over a [`CsrGraph`].
///
/// Every DFA evaluation inside the loop (the learner's consistency check)
/// and every read of the word index (pruning, coverage, path selection) goes
/// through the session's [`EvalHandle`], and the graph the session runs on
/// is that handle's snapshot.  [`Session::new`] builds a private naive
/// handle over a graph; [`Session::with_exec`] shares an engine's cache and
/// configured execution engine, putting the whole loop on the frontier fast
/// path.  A session borrows nothing, so it can be stored (the shape the
/// multi-session service steps from worker threads).
// `'g` (a phantom: nothing is borrowed) and `B` (always `CsrGraph`) are kept
// only for `benchmark/src/shadow.rs:43`.
#[derive(Debug)]
pub struct Session<'g, B = CsrGraph> {
    exec: EvalHandle,
    config: SessionConfig,
    examples: ExampleSet,
    coverage: NegativeCoverage,
    pruning: PruningState,
    stats: SessionStats,
    hypothesis: Option<LearnedQuery>,
    transcript: Vec<InteractionRecord>,
    metrics: SessionMetrics,
    phantom: PhantomData<(&'g (), B)>,
}

impl Session<'static> {
    /// [`Session::with_exec`] after checking that `graph` is `exec`'s
    /// snapshot; the session keeps the handle, not the `Arc`.
    ///
    /// # Panics
    /// When `exec` does not serve `graph` ([`EvalHandle::assert_serves`]).
    // Kept with its graph argument for `benchmark/src/shadow.rs:246`.
    pub fn with_shared_exec(graph: Arc<CsrGraph>, config: SessionConfig, exec: EvalHandle) -> Self {
        exec.assert_serves(&graph);
        Self::with_exec(config, exec)
    }
}

impl<'g> Session<'g> {
    /// Creates a session over `graph` with a private reference evaluation
    /// stack (one snapshot + the naive evaluator).
    pub fn new(graph: &'g CsrGraph, config: SessionConfig) -> Self {
        Self::with_exec(config, EvalHandle::naive(graph))
    }

    /// Creates a session over `exec`'s snapshot evaluating through that
    /// shared stack — the way engine-driven sessions run, so the session,
    /// the learner, the pruning and the engine's own query API share one
    /// cache, evaluator and snapshot.
    pub fn with_exec(config: SessionConfig, exec: EvalHandle) -> Self {
        let coverage = NegativeCoverage::new(config.path_bound);
        let pruning = PruningState::new(config.path_bound);
        Self {
            exec,
            config,
            examples: ExampleSet::new(),
            coverage,
            pruning,
            stats: SessionStats::default(),
            hypothesis: None,
            transcript: Vec::new(),
            metrics: SessionMetrics::disabled(),
            phantom: PhantomData,
        }
    }

    /// The evaluation stack this session runs on.
    pub fn exec(&self) -> &EvalHandle {
        &self.exec
    }

    /// The graph this session runs on: its handle's snapshot.
    pub fn graph(&self) -> &CsrGraph {
        self.exec.csr()
    }

    /// Installs telemetry handles (see [`SessionMetrics`]) into the session
    /// and its pruning state.  Purely observational: the transcript produced
    /// by an instrumented session is byte-identical to an uninstrumented run.
    pub fn set_metrics(&mut self, metrics: SessionMetrics) {
        self.pruning.set_metrics(metrics.pruning.clone());
        self.metrics = metrics;
    }

    /// The examples collected so far.
    pub fn examples(&self) -> &ExampleSet {
        &self.examples
    }

    /// The current hypothesis, if one has been learned.
    pub fn hypothesis(&self) -> Option<&LearnedQuery> {
        self.hypothesis.as_ref()
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Performs one interaction.  Returns `Some(reason)` when a halt
    /// condition fired (either before or after the interaction), `None` when
    /// the loop should continue.
    pub fn step<S: Strategy + ?Sized, U: User + ?Sized>(
        &mut self,
        strategy: &mut S,
        user: &mut U,
    ) -> Option<HaltReason> {
        if self.stats.interactions >= self.config.halt.max_interactions {
            return Some(HaltReason::InteractionBudgetExhausted);
        }
        let started = Instant::now();
        // A second reference to the snapshot, so the graph stays borrowable
        // while the session's fields are updated.
        let graph = Arc::clone(self.exec.csr());
        let graph = graph.as_ref();

        // 1–3: pick the next informative node (incremental refresh: only
        // nodes spelling newly covered words are touched).
        self.pruning
            .refresh_with(graph, &self.examples, &self.coverage, &self.exec);
        let node = {
            let ctx = StrategyContext {
                graph,
                examples: &self.examples,
                coverage: &self.coverage,
                pruning: &self.pruning,
            };
            match strategy.propose(&ctx) {
                Some(node) => node,
                None => return Some(HaltReason::AllNodesResolved),
            }
        };

        // 4–5: show the neighborhood, zoom on demand, collect the label.
        let mut zoom = ZoomState::new(
            graph,
            node,
            self.config.initial_radius,
            self.config.max_radius,
        );
        let response = loop {
            match user.label_node(graph, node, zoom.neighborhood()) {
                UserResponse::ZoomOut => {
                    if zoom.zoom_out(graph) {
                        self.stats.zooms += 1;
                        continue;
                    }
                    // Nothing more to reveal: a user who still cannot decide
                    // conservatively answers "No".
                    break UserResponse::Negative;
                }
                decided => break decided,
            }
        };

        // 6: record the label (and the validated path for positives).
        let record = match response {
            UserResponse::Positive => {
                self.stats.positive_labels += 1;
                let validated = if self.config.with_path_validation {
                    self.validate_path(user, node, zoom.radius() as usize)
                } else {
                    None
                };
                match &validated {
                    Some(word) => self.examples.set_validated_path(node, word.clone()),
                    None => {
                        self.examples.add_positive(node);
                    }
                }
                InteractionRecord {
                    node,
                    zooms: zoom.zoom_count(),
                    label: Label::Positive,
                    validated_word: validated,
                }
            }
            UserResponse::Negative => {
                self.stats.negative_labels += 1;
                self.examples.add_negative(node);
                let index = self.exec.bounded_words(self.coverage.bound());
                self.coverage
                    .add_negative_with_words(node, &index[node.index()]);
                InteractionRecord {
                    node,
                    zooms: zoom.zoom_count(),
                    label: Label::Negative,
                    validated_word: None,
                }
            }
            UserResponse::ZoomOut => unreachable!("resolved by the zoom loop"),
        };
        self.stats.interactions += 1;
        self.metrics.interactions.inc();
        self.transcript.push(record);

        // Learn from all labels, then refresh the pruning.  The learner
        // shares the session's coverage and evaluation stack, so the
        // consistency check runs on the configured engine (and repeat
        // hypotheses hit the cache).
        if self.examples.positive_count() > 0 {
            if let Ok(learned) =
                self.config
                    .learner
                    .learn_with(graph, &self.examples, &self.coverage, &self.exec)
            {
                self.hypothesis = Some(learned);
            }
        }
        self.pruning
            .refresh_with(graph, &self.examples, &self.coverage, &self.exec);
        self.stats
            .pruned_after_interaction
            .push(self.pruning.pruned_count());
        self.stats.record_interaction_time(started.elapsed());

        // Halt checks.
        if self.config.halt.stop_on_goal {
            if let Some(hypothesis) = &self.hypothesis {
                if user.satisfied_with(graph, hypothesis) {
                    return Some(HaltReason::UserSatisfied);
                }
            }
        }
        if self.stats.interactions >= self.config.halt.max_interactions {
            return Some(HaltReason::InteractionBudgetExhausted);
        }
        None
    }

    /// Asks `user` to validate one of `node`'s uncovered words within
    /// `radius`; `None` when it has none.
    fn validate_path<U: User + ?Sized>(
        &mut self,
        user: &mut U,
        node: NodeId,
        radius: usize,
    ) -> Option<Word> {
        let prompt = validation::build_prompt(&self.exec, node, radius, &self.coverage)?;
        let chosen =
            user.validate_path(self.exec.csr(), node, &prompt.candidates, &prompt.suggested);
        self.stats.path_validations += 1;
        let word = if prompt.is_candidate(&chosen) {
            chosen
        } else {
            prompt.suggested.clone()
        };
        if word != prompt.suggested {
            self.stats.path_corrections += 1;
        }
        Some(word)
    }

    /// Runs the loop to completion and consumes the session state into a
    /// [`SessionOutcome`].
    pub fn run<S: Strategy + ?Sized, U: User + ?Sized>(
        &mut self,
        strategy: &mut S,
        user: &mut U,
    ) -> SessionOutcome {
        let halt_reason = loop {
            if let Some(reason) = self.step(strategy, user) {
                break reason;
            }
        };
        self.metrics
            .interactions_per_session
            .record(self.stats.interactions as u64);
        self.outcome(halt_reason)
    }

    /// Snapshots the session's observable state into a [`SessionOutcome`]
    /// with the given halt reason — what [`run`](Self::run) returns after the
    /// loop, and what a session manager returns when a client closes a
    /// session it drove step by step (possibly before any halt fired).
    pub fn outcome(&self, halt_reason: HaltReason) -> SessionOutcome {
        SessionOutcome {
            learned: self.hypothesis.clone(),
            halt_reason,
            stats: self.stats.clone(),
            transcript: self.transcript.clone(),
            examples: self.examples.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{DegreeStrategy, InformativePathsStrategy, RandomStrategy};
    use crate::user::SimulatedUser;
    use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
    use gps_rpq::PathQuery;

    fn goal(graph: &CsrGraph) -> PathQuery {
        PathQuery::parse(MOTIVATING_QUERY, graph.labels()).unwrap()
    }

    fn figure1() -> (gps_graph::CsrGraph, gps_datasets::figure1::Figure1) {
        let (g, ids) = figure1_graph();
        (gps_graph::CsrGraph::from_graph(&g), ids)
    }

    #[test]
    fn session_converges_to_the_goal_on_figure1() {
        let (g, _) = figure1();
        let goal = goal(&g);
        let mut user = SimulatedUser::new(goal.clone(), &g);
        let mut session = Session::new(&g, SessionConfig::default());
        let outcome = session.run(&mut InformativePathsStrategy, &mut user);
        assert!(
            outcome.halt_reason.is_convergence(),
            "{:?}",
            outcome.halt_reason
        );
        let learned = outcome.learned.expect("a query was learned");
        assert_eq!(learned.answer.nodes(), goal.evaluate(&g).nodes());
        assert!(outcome.stats.interactions >= 1);
        assert!(outcome.stats.interactions <= g.node_count());
        assert_eq!(outcome.transcript.len(), outcome.stats.interactions);
    }

    #[test]
    fn handles_of_another_snapshot_are_rejected_at_construction() {
        use crate::pruning::PruningState;
        use gps_graph::CsrGraph;
        use gps_rpq::EvalCache;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let (g, _) = figure1_graph();
        let graph = CsrGraph::from_graph(&g);
        let mut bigger = g.clone();
        bigger.add_node("X");
        let bigger = CsrGraph::from_graph(&bigger);
        let newer = CsrGraph::from_graph(&g).with_epoch(1);
        let panic_message = |run: &dyn Fn()| {
            let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("a foreign handle panics");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        // Another node count, another epoch, then a separate build of the
        // same graph: same (epoch, node_count), other storage.
        for (handle, pair) in [
            (EvalHandle::naive(&bigger), "(0, 11)"),
            (
                EvalHandle::from_cache(Arc::new(EvalCache::from_csr(newer))),
                "(1, 10)",
            ),
            (EvalHandle::naive(&CsrGraph::from_graph(&g)), "(0, 10)"),
        ] {
            let session = panic_message(&|| {
                Session::with_shared_exec(
                    Arc::new(graph.clone()),
                    SessionConfig::default(),
                    handle.clone(),
                );
            });
            let refresh = panic_message(&|| {
                let coverage = NegativeCoverage::new(4);
                PruningState::new(4).refresh_with(&graph, &ExampleSet::new(), &coverage, &handle);
            });
            for message in [session, refresh] {
                assert!(message.contains(pair), "{message}");
                assert!(message.contains("(0, 10)"), "{message}");
            }
        }
    }

    #[test]
    fn a_session_runs_on_its_handles_snapshot() {
        let (g, _) = figure1();
        let handle = EvalHandle::naive(&g);
        let session = Session::with_exec(SessionConfig::default(), handle.clone());
        assert!(std::ptr::eq(session.graph(), &**handle.csr()));
    }

    #[test]
    fn all_strategies_converge_but_informative_needs_fewest_labels() {
        let (g, _) = figure1();
        let goal = goal(&g);
        let run = |strategy: &mut dyn Strategy| {
            let mut user = SimulatedUser::new(goal.clone(), &g);
            let mut session = Session::new(&g, SessionConfig::default());
            session.run(strategy, &mut user)
        };
        let informative = run(&mut InformativePathsStrategy);
        let degree = run(&mut DegreeStrategy);
        let random = run(&mut RandomStrategy::seeded(3));
        for outcome in [&informative, &degree, &random] {
            assert!(outcome.halt_reason.is_convergence());
            let learned = outcome.learned.as_ref().unwrap();
            assert_eq!(learned.answer.nodes(), goal.evaluate(&g).nodes());
        }
        assert!(
            informative.stats.interactions <= random.stats.interactions,
            "informative ({}) should need no more labels than random ({})",
            informative.stats.interactions,
            random.stats.interactions
        );
    }

    #[test]
    fn zooms_happen_when_evidence_is_far() {
        let (g, _) = figure1();
        let goal = goal(&g);
        let mut user = SimulatedUser::new(goal.clone(), &g);
        let mut session = Session::new(&g, SessionConfig::default());
        let outcome = session.run(&mut InformativePathsStrategy, &mut user);
        // N2 requires a zoom (its witness has length 3); if it was proposed,
        // the zoom counter reflects it.
        if outcome
            .transcript
            .iter()
            .any(|r| g.node_name(r.node) == "N2")
        {
            assert!(outcome.stats.zooms >= 1);
        }
    }

    #[test]
    fn without_validation_may_learn_a_different_query() {
        let (g, _) = figure1();
        let goal = goal(&g);
        let mut user = SimulatedUser::new(goal.clone(), &g);
        let mut session = Session::new(&g, SessionConfig::without_path_validation());
        let outcome = session.run(&mut InformativePathsStrategy, &mut user);
        // The learned query is still consistent with the provided labels.
        let learned = outcome.learned.expect("learned something");
        for positive in outcome.examples.positives() {
            assert!(learned.answer.contains(positive));
        }
        for negative in outcome.examples.negatives() {
            assert!(!learned.answer.contains(negative));
        }
        assert_eq!(outcome.stats.path_validations, 0);
    }

    #[test]
    fn budget_halt_fires() {
        let (g, _) = figure1();
        let goal = goal(&g);
        let mut user = SimulatedUser::new(goal, &g);
        let config = SessionConfig {
            halt: HaltConfig {
                max_interactions: 1,
                stop_on_goal: false,
            },
            ..SessionConfig::default()
        };
        let mut session = Session::new(&g, config);
        let outcome = session.run(&mut InformativePathsStrategy, &mut user);
        assert_eq!(outcome.halt_reason, HaltReason::InteractionBudgetExhausted);
        assert_eq!(outcome.stats.interactions, 1);
    }

    #[test]
    fn step_by_step_api_exposes_intermediate_state() {
        let (g, _) = figure1();
        let goal = goal(&g);
        let mut user = SimulatedUser::new(goal, &g);
        let mut strategy = InformativePathsStrategy;
        let mut session = Session::new(&g, SessionConfig::default());
        assert!(session.hypothesis().is_none());
        assert!(session.examples().is_empty());
        let halted = session.step(&mut strategy, &mut user);
        assert_eq!(session.stats().interactions, 1);
        assert_eq!(session.examples().len(), 1);
        if halted.is_none() {
            session.step(&mut strategy, &mut user);
            assert_eq!(session.stats().interactions, 2);
        }
        assert!(session.config().with_path_validation);
    }

    #[test]
    fn pruning_grows_monotonically() {
        let (g, _) = figure1();
        let goal = goal(&g);
        let mut user = SimulatedUser::new(goal, &g);
        let mut session = Session::new(&g, SessionConfig::default());
        let outcome = session.run(&mut InformativePathsStrategy, &mut user);
        for window in outcome.stats.pruned_after_interaction.windows(2) {
            assert!(window[0] <= window[1]);
        }
        // Facilities are pruned from the start, so the first entry is ≥ 4.
        assert!(outcome.stats.pruned_after_interaction[0] >= 4);
    }
}
