//! Users of the interactive protocol.
//!
//! The [`User`] trait captures the three kinds of answers the demo asks of
//! its attendees: labeling a proposed node (possibly after zooming out),
//! validating or correcting a candidate path, and declaring satisfaction with
//! an intermediate query.  [`SimulatedUser`] answers according to a hidden
//! goal query — the oracle model used by the experiments in the companion
//! research paper — with a configurable zooming behaviour.  It evaluates its
//! goal and extracts witnesses only through an [`EvalHandle`]: a private one
//! ([`SimulatedUser::new`]) or the engine's ([`SimulatedUser::with_exec`]),
//! which should serve the graph the session runs on.

use gps_graph::{CsrGraph, Neighborhood, NodeId, Word};
use gps_learner::LearnedQuery;
use gps_rpq::{EvalHandle, PathQuery, QueryAnswer};
use std::collections::HashMap;
use std::sync::Arc;

/// The answer to a node-labeling prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserResponse {
    /// "Yes" — the node should be in the query answer.
    Positive,
    /// "No" — the node should not be in the query answer.
    Negative,
    /// "I cannot tell yet, show me more of the graph."
    ZoomOut,
}

/// A participant in the interactive protocol.
// `B` (always `CsrGraph`) is kept only for `benchmark/src/trace.rs:320`.
pub trait User<B = CsrGraph> {
    /// Asked to label `node` given the currently visible `neighborhood`.
    fn label_node(&mut self, graph: &B, node: NodeId, neighborhood: &Neighborhood) -> UserResponse;

    /// Asked to validate the `suggested` word for a positive `node`, given
    /// all `candidates`; returns the word the user actually has in mind
    /// (which must be one of the candidates).
    fn validate_path(
        &mut self,
        graph: &B,
        node: NodeId,
        candidates: &[Word],
        suggested: &Word,
    ) -> Word;

    /// Asked whether the user is satisfied with the current hypothesis (an
    /// optional early stop).  The default never stops early.
    fn satisfied_with(&mut self, _graph: &B, _hypothesis: &LearnedQuery) -> bool {
        false
    }
}

/// A user simulated from a hidden goal query.
///
/// * Labels a node positive iff the goal selects it;
/// * Zooms out while the goal's shortest witness for the node is longer than
///   the currently visible radius (a positive answer requires seeing the
///   evidence), up to `max_zooms` extra rings;
/// * Validates the candidate path by picking the shortest candidate the goal
///   accepts, falling back to the suggestion.
///
/// The goal's answer is computed **once** at construction and reused for
/// every labeling and satisfaction check; witness lengths are memoized per
/// node (the zoom loop re-asks about the same node at growing radii).  Both
/// go through the user's evaluation stack: engine-driven sessions hand it
/// the engine's ([`with_exec`](SimulatedUser::with_exec)), so it answers from
/// the engine's cache and extracts witnesses with its execution engine.
#[derive(Debug, Clone)]
pub struct SimulatedUser {
    goal: PathQuery,
    answer_cache: Arc<QueryAnswer>,
    exec: EvalHandle,
    witness_lengths: HashMap<NodeId, Option<usize>>,
    /// Maximum number of zooms the user is willing to perform per node.
    pub max_zooms: u32,
    /// Number of zoom requests issued so far (across all nodes).
    pub zooms_performed: u64,
}

impl SimulatedUser {
    /// Creates a simulated user for `goal` on `graph`, over a private
    /// reference evaluation stack.
    pub fn new(goal: PathQuery, graph: &CsrGraph) -> Self {
        Self::with_exec(goal, EvalHandle::naive(graph))
    }

    /// Creates a simulated user whose goal answer and witnesses come from a
    /// shared evaluation stack (the engine's cache + configured evaluator).
    pub fn with_exec(goal: PathQuery, exec: EvalHandle) -> Self {
        let answer_cache = exec.evaluate(goal.regex());
        Self {
            goal,
            answer_cache,
            exec,
            witness_lengths: HashMap::new(),
            max_zooms: 4,
            zooms_performed: 0,
        }
    }

    /// Sets the per-node zoom budget.
    pub fn with_max_zooms(mut self, max_zooms: u32) -> Self {
        self.max_zooms = max_zooms;
        self
    }

    /// The goal query driving this user.
    pub fn goal(&self) -> &PathQuery {
        &self.goal
    }

    /// Whether the goal selects `node` (the user's ground truth).
    pub fn wants(&self, node: NodeId) -> bool {
        self.answer_cache.contains(node)
    }
}

impl User for SimulatedUser {
    fn label_node(
        &mut self,
        _graph: &CsrGraph,
        node: NodeId,
        neighborhood: &Neighborhood,
    ) -> UserResponse {
        if !self.wants(node) {
            return UserResponse::Negative;
        }
        // The user answers "yes" only once the evidence (a witness path) fits
        // inside the visible fragment; otherwise she asks to zoom out.
        let radius = neighborhood.radius() as usize;
        let witness = self.witness_length(node);
        match witness {
            Some(len) if len <= radius => UserResponse::Positive,
            Some(_) if self.zooms_this_node(neighborhood) < self.max_zooms => {
                self.zooms_performed += 1;
                UserResponse::ZoomOut
            }
            Some(_) => UserResponse::Positive,
            None => UserResponse::Positive,
        }
    }

    fn validate_path(
        &mut self,
        _graph: &CsrGraph,
        _node: NodeId,
        candidates: &[Word],
        suggested: &Word,
    ) -> Word {
        candidates
            .iter()
            .filter(|w| self.goal.dfa().accepts(w))
            .min_by_key(|w| w.len())
            .cloned()
            .unwrap_or_else(|| suggested.clone())
    }

    fn satisfied_with(&mut self, _graph: &CsrGraph, hypothesis: &LearnedQuery) -> bool {
        // The simulated user is satisfied exactly when the hypothesis gives
        // the same answer as her goal on the whole (visible) graph; the goal
        // answer was computed once at construction.  Answers compare as
        // bitsets, block by block: no node list is built.
        *self.answer_cache == hypothesis.answer
    }
}

impl SimulatedUser {
    /// How many zooms the current neighborhood already represents beyond the
    /// paper's default starting radius of 2.
    fn zooms_this_node(&self, neighborhood: &Neighborhood) -> u32 {
        neighborhood.radius().saturating_sub(2)
    }

    /// The goal's shortest-witness length for `node`, memoized (the zoom
    /// loop asks repeatedly about the same node).
    fn witness_length(&mut self, node: NodeId) -> Option<usize> {
        if let Some(&len) = self.witness_lengths.get(&node) {
            return len;
        }
        let len = self.exec.witness(self.goal.dfa(), node).map(|p| p.len());
        self.witness_lengths.insert(node, len);
        len
    }
}

/// A scripted user replaying a fixed sequence of responses — used by the
/// static-labeling demo scenario and by tests that need full control over
/// the answers (including deliberately inconsistent ones).
#[derive(Debug, Clone, Default)]
pub struct ScriptedUser {
    responses: Vec<UserResponse>,
    validations: Vec<Word>,
    next_response: usize,
    next_validation: usize,
}

impl ScriptedUser {
    /// Creates a scripted user from a list of label responses and a list of
    /// path validations, each consumed in order.  When a list is exhausted
    /// the user answers `Negative` / returns the suggestion.
    pub fn new(responses: Vec<UserResponse>, validations: Vec<Word>) -> Self {
        Self {
            responses,
            validations,
            next_response: 0,
            next_validation: 0,
        }
    }
}

impl User for ScriptedUser {
    fn label_node(&mut self, _: &CsrGraph, _: NodeId, _: &Neighborhood) -> UserResponse {
        let response = self
            .responses
            .get(self.next_response)
            .copied()
            .unwrap_or(UserResponse::Negative);
        self.next_response += 1;
        response
    }

    fn validate_path(&mut self, _: &CsrGraph, _: NodeId, _: &[Word], suggested: &Word) -> Word {
        let validation = self
            .validations
            .get(self.next_validation)
            .cloned()
            .unwrap_or_else(|| suggested.clone());
        self.next_validation += 1;
        validation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};

    fn goal(graph: &CsrGraph) -> PathQuery {
        PathQuery::parse(MOTIVATING_QUERY, graph.labels()).unwrap()
    }

    fn figure1() -> (gps_graph::CsrGraph, gps_datasets::figure1::Figure1) {
        let (g, ids) = figure1_graph();
        (gps_graph::CsrGraph::from_graph(&g), ids)
    }

    #[test]
    fn simulated_user_knows_the_goal_answer() {
        let (g, ids) = figure1();
        let user = SimulatedUser::new(goal(&g), &g);
        assert!(user.wants(ids.n2));
        assert!(user.wants(ids.n6));
        assert!(!user.wants(ids.n5));
        assert!(!user.wants(ids.c1));
        assert_eq!(user.goal().display(g.labels()), "(tram+bus)*·cinema");
    }

    #[test]
    fn negative_nodes_are_labeled_without_zooming() {
        let (g, ids) = figure1();
        let mut user = SimulatedUser::new(goal(&g), &g);
        let hood = Neighborhood::extract(&g, ids.n5, 2);
        assert_eq!(user.label_node(&g, ids.n5, &hood), UserResponse::Negative);
        assert_eq!(user.zooms_performed, 0);
    }

    #[test]
    fn positive_node_with_long_witness_triggers_zoom() {
        let (g, ids) = figure1();
        let mut user = SimulatedUser::new(goal(&g), &g);
        // N2's shortest witness has length 3 > radius 2 → zoom request.
        let hood2 = Neighborhood::extract(&g, ids.n2, 2);
        assert_eq!(user.label_node(&g, ids.n2, &hood2), UserResponse::ZoomOut);
        assert_eq!(user.zooms_performed, 1);
        // After zooming to radius 3 the evidence is visible → positive.
        let hood3 = Neighborhood::extract(&g, ids.n2, 3);
        assert_eq!(user.label_node(&g, ids.n2, &hood3), UserResponse::Positive);
    }

    #[test]
    fn zoom_budget_forces_an_answer() {
        let (g, ids) = figure1();
        let mut user = SimulatedUser::new(goal(&g), &g).with_max_zooms(0);
        let hood2 = Neighborhood::extract(&g, ids.n2, 2);
        assert_eq!(user.label_node(&g, ids.n2, &hood2), UserResponse::Positive);
    }

    #[test]
    fn path_validation_picks_a_goal_accepted_word() {
        let (g, ids) = figure1();
        let mut user = SimulatedUser::new(goal(&g), &g);
        let bus = g.label_id("bus").unwrap();
        let tram = g.label_id("tram").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        let restaurant = g.label_id("restaurant").unwrap();
        let candidates = vec![
            vec![restaurant],
            vec![bus, tram, cinema],
            vec![bus, bus, cinema],
        ];
        let chosen = user.validate_path(&g, ids.n2, &candidates, &vec![restaurant]);
        assert!(user.goal().dfa().accepts(&chosen));
        // When no candidate matches the goal, the suggestion is kept.
        let chosen2 = user.validate_path(&g, ids.n2, &[vec![restaurant]], &vec![restaurant]);
        assert_eq!(chosen2, vec![restaurant]);
    }

    #[test]
    fn exec_backed_user_behaves_like_the_direct_user() {
        let (g, ids) = figure1();
        let exec = gps_rpq::EvalHandle::naive(&g);
        let mut direct = SimulatedUser::new(goal(&g), &g);
        let mut shared = SimulatedUser::with_exec(goal(&g), exec.clone());
        for node in [ids.n1, ids.n2, ids.n5, ids.c1] {
            assert_eq!(direct.wants(node), shared.wants(node), "{node}");
            for radius in 2..=4 {
                let hood = Neighborhood::extract(&g, node, radius);
                assert_eq!(
                    direct.label_node(&g, node, &hood),
                    shared.label_node(&g, node, &hood),
                    "{node} @ r{radius}"
                );
            }
        }
        // The goal answer went through (and primed) the shared cache.
        let (_, misses) = exec.cache().stats();
        assert!(misses >= 1);
        assert!(
            Arc::ptr_eq(
                &exec.evaluate(shared.goal().regex()),
                &exec.evaluate(shared.goal().regex())
            ),
            "repeat goal evaluations are shared cache hits"
        );
    }

    #[test]
    fn satisfied_with_uses_the_cached_goal_answer() {
        let (g, _) = figure1();
        let the_goal = goal(&g);
        let mut user = SimulatedUser::new(the_goal.clone(), &g);
        let mut ex = gps_learner::ExampleSet::new();
        for node in the_goal.evaluate(&g).nodes() {
            ex.add_positive(node);
        }
        let learned = gps_learner::Learner::default().learn(&g, &ex).unwrap();
        let expected = learned.answer.nodes() == the_goal.evaluate(&g).nodes();
        assert_eq!(learned.answer == the_goal.evaluate(&g), expected);
        assert_eq!(
            <SimulatedUser as User>::satisfied_with(&mut user, &g, &learned),
            expected,
            "cached-answer satisfaction must equal the re-evaluated one"
        );
    }

    #[test]
    fn scripted_user_replays_and_then_defaults() {
        let (g, ids) = figure1();
        let hood = Neighborhood::extract(&g, ids.n1, 2);
        let mut user = ScriptedUser::new(
            vec![UserResponse::Positive, UserResponse::ZoomOut],
            vec![vec![g.label_id("tram").unwrap()]],
        );
        assert_eq!(user.label_node(&g, ids.n1, &hood), UserResponse::Positive);
        assert_eq!(user.label_node(&g, ids.n1, &hood), UserResponse::ZoomOut);
        assert_eq!(user.label_node(&g, ids.n1, &hood), UserResponse::Negative);
        let suggestion = vec![g.label_id("bus").unwrap()];
        assert_eq!(
            user.validate_path(&g, ids.n1, &[], &suggestion),
            vec![g.label_id("tram").unwrap()]
        );
        assert_eq!(user.validate_path(&g, ids.n1, &[], &suggestion), suggestion);
    }
}
