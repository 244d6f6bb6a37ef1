//! The GPS engine — one graph snapshot, one evaluator, one cache.
//!
//! [`Engine`] is the whole system bound to one graph: an immutable
//! [`CsrGraph`] snapshot, the label-indexed frontier evaluator over it
//! ([`BatchEvaluator`]), the bounded evaluation cache every query goes
//! through, and the configuration sessions run with.  It holds each of them
//! exactly once, behind `Arc`s, so a clone is a handle: a service hands one
//! to every worker thread and every session, and all of them share a single
//! snapshot, index and cache.
//!
//! Construction goes through [`GpsBuilder`], which exposes every knob of the
//! system in one place — node-proposal strategy, halt conditions, zoom radii,
//! path-validation toggle, learner bounds, cache capacity, checkpointing and
//! telemetry:
//!
//! ```
//! use gps_core::{Engine, StrategyChoice};
//! use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
//!
//! let (graph, ids) = figure1_graph();
//! let engine = Engine::builder(graph)
//!     .strategy(StrategyChoice::InformativePaths)
//!     .initial_radius(2)
//!     .max_interactions(100)
//!     .build();
//!
//! let answer = engine.evaluate(MOTIVATING_QUERY).unwrap();
//! assert!(answer.contains(ids.n2));
//! let report = engine.interactive_with_validation(MOTIVATING_QUERY).unwrap();
//! assert!(report.goal_reached);
//! ```
//!
//! There is one execution path, one query at a time, with the planner's
//! default thresholds and over-delete budget.  `gps_rpq::NaiveEvaluator`, the
//! node-at-a-time reference, is the oracle the conformance suites compare
//! this engine against — not a mode of it.

use crate::error::GpsError;
use crate::render;
use crate::scenario::{self, ScenarioReport, StaticLabelingOutcome};
use gps_exec::{BatchEvaluator, ExecMetrics, LabelIndex, PlannerConfig};
use gps_graph::{CsrGraph, Graph, GraphDelta, Neighborhood, NodeId, PathEnumerator, PrefixTree};
use gps_interactive::halt::HaltConfig;
use gps_interactive::session::{Session, SessionConfig, SessionOutcome};
use gps_interactive::strategy::{
    DegreeStrategy, InformativePathsStrategy, RandomStrategy, Strategy,
};
use gps_interactive::user::{SimulatedUser, User};
use gps_learner::{Label, Learner};
use gps_rpq::{EvalCache, EvalHandle, MigrationReport, PathQuery, QueryAnswer};
use gps_telemetry::MetricsRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Kept only for `benchmark/src/service.rs:9,32`, which pins `Frontier`
// through `GpsBuilder::eval_mode`; `benchmark/` changes only together with
// its contract, and the next change to it drops the call and this.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    #[default]
    Frontier,
}

/// Which node-proposal strategy the engine runs interactive sessions with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyChoice {
    /// The paper's practical strategy: most short uncovered paths first,
    /// counted at the session's path bound.
    #[default]
    InformativePaths,
    /// Highest out-degree first.
    Degree,
    /// Uniformly random unlabeled node (reproducible per seed).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

impl StrategyChoice {
    /// Instantiates the chosen strategy.  The trait object is `Send` so
    /// service deployments can drive sessions from worker threads.
    // `B` is ignored; it is kept only for `benchmark/src/shadow.rs:252`.
    pub fn instantiate<B>(&self) -> Box<dyn Strategy + Send> {
        match *self {
            StrategyChoice::InformativePaths => Box::new(InformativePathsStrategy),
            StrategyChoice::Degree => Box::new(DegreeStrategy),
            StrategyChoice::Random { seed } => Box::new(RandomStrategy::seeded(seed)),
        }
    }
}

/// Builder for [`Engine`]: pick the strategy and every session and
/// evaluation option, then [`build`](GpsBuilder::build).
#[derive(Debug, Clone)]
pub struct GpsBuilder {
    graph: Graph,
    /// The session configuration; its embedded learner is the engine's.
    session: SessionConfig,
    strategy: StrategyChoice,
    cache_capacity: Option<usize>,
    checkpoint_every: u64,
    metrics: Arc<MetricsRegistry>,
}

impl GpsBuilder {
    /// Starts a builder over `graph` with the system defaults.
    pub fn new(graph: Graph) -> Self {
        Self {
            graph,
            session: SessionConfig::default(),
            strategy: StrategyChoice::default(),
            cache_capacity: None,
            checkpoint_every: crate::versioned::CheckpointPolicy::default().every_n_publishes,
            metrics: Arc::new(MetricsRegistry::disabled()),
        }
    }

    /// Starts a builder from a textual edge list (see [`gps_graph::io`]).
    pub fn from_edge_list(text: &str) -> Result<Self, GpsError> {
        Ok(Self::new(gps_graph::io::parse_edge_list(text)?))
    }

    /// Replaces the learner configuration.
    pub fn learner(mut self, learner: Learner) -> Self {
        self.session.learner = learner;
        self
    }

    /// Sets the path-length bound shared by the learner, the coverage and
    /// the pruning.
    pub fn path_bound(mut self, bound: usize) -> Self {
        self.session.learner.path_bound = bound;
        self.session.path_bound = bound;
        self
    }

    /// Sets the radius of the first neighborhood shown for a proposed node.
    pub fn initial_radius(mut self, radius: u32) -> Self {
        self.session.initial_radius = radius;
        self
    }

    /// Sets the maximum radius the user can zoom out to.
    pub fn max_radius(mut self, radius: u32) -> Self {
        self.session.max_radius = radius;
        self
    }

    /// Enables or disables the path-validation step (Figure 3(c)).
    pub fn with_path_validation(mut self, enabled: bool) -> Self {
        self.session.with_path_validation = enabled;
        self
    }

    /// Replaces the halt conditions.
    pub fn halt(mut self, halt: HaltConfig) -> Self {
        self.session.halt = halt;
        self
    }

    /// Bounds the number of label interactions.
    pub fn max_interactions(mut self, max_interactions: usize) -> Self {
        self.session.halt.max_interactions = max_interactions;
        self
    }

    /// Chooses the node-proposal strategy for interactive sessions.
    pub fn strategy(mut self, strategy: StrategyChoice) -> Self {
        self.strategy = strategy;
        self
    }

    // See `EvalMode`: kept for `benchmark/src/service.rs:32` alone.
    #[doc(hidden)]
    pub fn eval_mode(self, _: EvalMode) -> Self {
        self
    }

    /// Caps the number of cached query answers in the shared evaluation
    /// cache (defaults to [`gps_rpq::cache::DEFAULT_CAPACITY`]).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Sets how often a *durable* store writes a snapshot checkpoint and
    /// truncates its write-ahead log: after every `n` publishes (default
    /// [`crate::versioned::CheckpointPolicy::default`]; `0` disables
    /// checkpointing entirely, leaving the log to grow).  Ignored by
    /// in-memory stores.
    pub fn checkpoint_every_n_publishes(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Wires a telemetry registry through the whole stack: the evaluation
    /// cache's hit/miss/eviction counters, the frontier engine's per-eval
    /// latency and plan counters, the sessions' interaction and pruning
    /// counters, the MVCC store's publish/epoch series, the durable store's
    /// WAL/fsync/checkpoint series and the service's session lifecycle
    /// series all register under this registry, and every epoch advanced
    /// from this core keeps extending the same series.
    ///
    /// Defaults to [`MetricsRegistry::disabled`], under which every
    /// recording site costs one branch and nothing is allocated.  Metrics
    /// are purely observational: transcripts and query answers are
    /// byte-identical with and without them (`tests/telemetry_conformance.rs`).
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// Replaces the whole session configuration at once, including its
    /// embedded learner (which becomes the engine's learner).
    pub fn session_config(mut self, config: SessionConfig) -> Self {
        self.session = config;
        self
    }

    /// Builds the engine over a CSR snapshot of the builder's graph.
    pub fn build(self) -> Engine {
        let snapshot = Arc::new(CsrGraph::from_graph(&self.graph));
        self.build_core_over(snapshot)
    }

    /// Builds the engine directly over an existing CSR `snapshot`, ignoring
    /// the builder's own graph (the builder only contributes the
    /// configuration) — the recovery path, and the million-node path: pair it
    /// with a streamed corpus builder (e.g.
    /// `gps_datasets::streamed::generate_csr`) to stand up an engine without
    /// ever materializing a mutable [`Graph`].
    pub fn build_core_over(self, snapshot: Arc<CsrGraph>) -> Engine {
        let exec_metrics = ExecMetrics::from_registry(&self.metrics);
        let started = Instant::now();
        let evaluator = BatchEvaluator::from_csr(&snapshot);
        exec_metrics.index_build.record_duration(started.elapsed());
        let evaluator = evaluator.with_metrics(exec_metrics);
        Engine::over(
            snapshot,
            evaluator,
            Arc::new(EngineOptions {
                session: self.session,
                strategy: self.strategy,
                cache_capacity: self.cache_capacity,
                metrics: self.metrics,
            }),
        )
    }

    /// The telemetry registry this builder wires through (disabled unless
    /// [`metrics`](Self::metrics) was called).
    pub(crate) fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The checkpoint policy this builder configures durable stores with.
    pub(crate) fn checkpoint_policy(&self) -> crate::versioned::CheckpointPolicy {
        crate::versioned::CheckpointPolicy {
            every_n_publishes: self.checkpoint_every,
        }
    }
}

/// The configuration shared by every clone and session of one engine — and
/// by every *epoch* of a live store.  The evaluator's telemetry handles
/// travel inside the [`BatchEvaluator`], which carries them across
/// [`apply_delta`](BatchEvaluator::apply_delta).
#[derive(Debug)]
struct EngineOptions {
    /// The session configuration, its embedded learner being the engine's.
    session: SessionConfig,
    strategy: StrategyChoice,
    cache_capacity: Option<usize>,
    metrics: Arc<MetricsRegistry>,
}

/// What [`Engine::advance`] built, and where its time went.
pub(crate) struct Advanced {
    pub core: Engine,
    pub migration: MigrationReport,
    /// Label index and planner statistics patched through the delta.
    pub index_patch: Duration,
    /// New cache built and the old epoch's answers migrated into it.
    pub migrate_answers: Duration,
    /// Bounded-word index inherited.
    pub inherit_words: Duration,
}

/// The GPS system bound to one graph snapshot: query evaluation,
/// neighborhood rendering, interactive sessions and the three demonstration
/// scenarios the demo paper describes, all over one shared snapshot, label
/// index and bounded evaluation cache.
///
/// Cloning an `Engine` copies `Arc`s and the evaluator's telemetry handles —
/// nothing graph-sized — so a clone is the handle to give a worker thread or a
/// [`crate::service::SessionManager`].  All mutability lives in
/// per-session state ([`Session`] owns its examples, coverage, pruning and
/// statistics) and inside the concurrency-safe cache.
#[derive(Debug, Clone)]
pub struct Engine {
    snapshot: Arc<CsrGraph>,
    cache: Arc<EvalCache>,
    /// The evaluator the cache runs misses on (the cache holds a clone of
    /// it; both share one [`LabelIndex`]).
    evaluator: BatchEvaluator,
    options: Arc<EngineOptions>,
}

/// The name the service layer and `benchmark/` know the engine by.
pub type EngineCore = Engine;

impl Engine {
    /// Starts a builder over `graph`; finish with
    /// [`build`](GpsBuilder::build).
    pub fn builder(graph: Graph) -> GpsBuilder {
        GpsBuilder::new(graph)
    }

    /// Assembles an engine: a fresh bounded cache over `evaluator`.
    fn over(
        snapshot: Arc<CsrGraph>,
        evaluator: BatchEvaluator,
        options: Arc<EngineOptions>,
    ) -> Self {
        let mut cache =
            EvalCache::with_shared_evaluator(Arc::clone(&snapshot), Box::new(evaluator.clone()))
                .with_metrics(&options.metrics);
        if let Some(capacity) = options.cache_capacity {
            cache = cache.with_capacity(capacity);
        }
        Self {
            snapshot,
            cache: Arc::new(cache),
            evaluator,
            options,
        }
    }

    /// Builds the next epoch's engine over `snapshot` (the compacted result
    /// of `delta`): the label index and planner statistics are patched
    /// through the delta instead of re-indexed, the new bounded evaluation
    /// cache migrates the old epoch's answers across the delta
    /// ([`EvalCache::migrate_answers`]) and inherits its word index
    /// ([`EvalCache::inherit_words`]), and every configuration knob carries
    /// over unchanged.  Returns the new engine together with the migration
    /// split (how many cached answers were carried verbatim, re-derived from
    /// their seed, or dropped to a cold recompute) and how long each of the
    /// three steps took.
    pub(crate) fn advance(&self, snapshot: Arc<CsrGraph>, delta: &GraphDelta) -> Advanced {
        let started = Instant::now();
        let evaluator = self.evaluator.apply_delta(&snapshot, delta);
        let patched = Instant::now();
        let core = Self::over(snapshot, evaluator, Arc::clone(&self.options));
        let migration = core.cache.migrate_answers(&self.cache, delta);
        let migrated = Instant::now();
        core.cache.inherit_words(&self.cache, delta);
        Advanced {
            core,
            migration,
            index_patch: patched - started,
            migrate_answers: migrated - patched,
            inherit_words: migrated.elapsed(),
        }
    }

    // ------------------------------------------------------- shared state

    /// The graph this engine serves: the immutable CSR snapshot sessions
    /// run on.
    pub fn snapshot(&self) -> &CsrGraph {
        &self.snapshot
    }

    /// A new reference to the shared snapshot.
    pub fn shared_snapshot(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.snapshot)
    }

    /// The epoch of the snapshot this engine serves (see
    /// [`CsrGraph::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The shared evaluation cache.
    pub fn eval_cache(&self) -> &EvalCache {
        &self.cache
    }

    /// A cheaply cloneable handle to the shared evaluation stack — hand it
    /// to [`Session::with_exec`] / [`SimulatedUser::with_exec`] (the engine's
    /// own session entry points do so automatically).
    pub fn eval_handle(&self) -> EvalHandle {
        EvalHandle::from_cache(Arc::clone(&self.cache))
    }

    /// The label index the evaluator indexes the snapshot with.  Every
    /// session of this engine — and every clone of it — shares this one
    /// allocation.
    pub fn shared_index(&self) -> Arc<LabelIndex> {
        self.evaluator.shared_index()
    }

    /// Approximate heap footprint of the shared label index in bytes.
    pub fn index_memory_bytes(&self) -> usize {
        self.evaluator.index().memory_bytes()
    }

    // Kept only for `benchmark/src/shadow.rs:129`, which hands the value to
    // the no-op `BatchEvaluator::with_planner_config`; the evaluator always
    // plans with the default.  The next change to `benchmark/` drops the
    // call and this.
    #[doc(hidden)]
    pub fn planner_config(&self) -> PlannerConfig {
        PlannerConfig::default()
    }

    /// The configured node-proposal strategy.
    pub fn strategy(&self) -> StrategyChoice {
        self.options.strategy
    }

    /// The session configuration sessions of this engine start from.
    pub fn session_config(&self) -> &SessionConfig {
        &self.options.session
    }

    /// The learner configuration.
    pub fn learner(&self) -> &Learner {
        &self.options.session.learner
    }

    /// The telemetry registry this engine (and every epoch advanced from it)
    /// records into — the disabled registry unless the builder wired one via
    /// [`GpsBuilder::metrics`].
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.options.metrics
    }

    // ------------------------------------------------------------- queries

    /// Parses a query in the paper's syntax against this graph's alphabet.
    pub fn parse_query(&self, syntax: &str) -> Result<PathQuery, GpsError> {
        Ok(PathQuery::parse(syntax, self.snapshot.labels())?)
    }

    /// Parses and evaluates a query, returning the selected nodes.  Repeated
    /// evaluations of the same expression are served from the shared cache.
    pub fn evaluate(&self, syntax: &str) -> Result<QueryAnswer, GpsError> {
        let query = self.parse_query(syntax)?;
        Ok((*self.cache.evaluate(query.regex())).clone())
    }

    /// Parses and evaluates a batch of queries, returning the answers in
    /// input order.  Cache misses are handed to the evaluator in one batch
    /// call, which runs them in turn over one scratch allocation.
    pub fn evaluate_many(&self, syntaxes: &[&str]) -> Result<Vec<QueryAnswer>, GpsError> {
        let queries: Vec<PathQuery> = syntaxes
            .iter()
            .map(|syntax| self.parse_query(syntax))
            .collect::<Result<_, _>>()?;
        let regexes: Vec<&gps_automata::Regex> = queries.iter().map(|q| q.regex()).collect();
        Ok(self
            .cache
            .evaluate_many(&regexes)
            .into_iter()
            .map(|answer| (*answer).clone())
            .collect())
    }

    /// Renders the answer of a query as `{N1, N2, …}`.
    pub fn evaluate_rendered(&self, syntax: &str) -> Result<String, GpsError> {
        let answer = self.evaluate(syntax)?;
        Ok(render::render_node_set(&self.snapshot, &answer.nodes()))
    }

    /// Resolves a node by display name.
    pub fn node(&self, name: &str) -> Result<NodeId, GpsError> {
        self.snapshot
            .node_by_name(name)
            .ok_or_else(|| GpsError::UnknownNode(name.to_string()))
    }

    // -------------------------------------------------------- visualization

    /// Extracts the neighborhood of a node at the given radius (Figure 3(a)).
    pub fn neighborhood(&self, node: NodeId, radius: u32) -> Neighborhood {
        Neighborhood::extract(&self.snapshot, node, radius)
    }

    /// Renders the neighborhood of a node at the given radius.
    pub fn render_neighborhood(&self, node: NodeId, radius: u32) -> String {
        render::render_neighborhood(&self.snapshot, &self.neighborhood(node, radius), None)
    }

    /// Renders the zoom-out from radius `radius` to `radius + 1`, marking the
    /// newly revealed nodes (Figure 3(b)).
    pub fn render_zoom(&self, node: NodeId, radius: u32) -> String {
        let hood = self.neighborhood(node, radius);
        let (larger, delta) = hood.zoom_out(&self.snapshot);
        render::render_neighborhood(&self.snapshot, &larger, Some(&delta))
    }

    /// Renders the prefix tree of a node's paths up to `bound`, highlighting
    /// `suggested` (Figure 3(c)).
    pub fn render_prefix_tree(
        &self,
        node: NodeId,
        bound: usize,
        suggested: &[gps_graph::LabelId],
    ) -> String {
        let words = PathEnumerator::new(bound).words_from(&self.snapshot, node);
        let tree = PrefixTree::from_words(&words);
        render::render_prefix_tree(&self.snapshot, &tree, &suggested.to_vec())
    }

    // ------------------------------------------------------------- sessions

    /// Opens a new interactive session on the shared snapshot and stack.
    ///
    /// The session co-owns the snapshot (no borrow of the engine), so it can
    /// be stored in a session table and stepped from any worker thread; its
    /// learner/coverage/pruning state is private to the session, while every
    /// query it evaluates goes through the engine's one bounded cache.
    pub fn open_session(&self) -> Session<'static> {
        let mut session = Session::with_shared_exec(
            Arc::clone(&self.snapshot),
            self.options.session.clone(),
            self.eval_handle(),
        );
        if self.options.metrics.is_enabled() {
            session.set_metrics(gps_interactive::metrics::SessionMetrics::from_registry(
                &self.options.metrics,
            ));
        }
        session
    }

    /// Instantiates the configured node-proposal strategy.
    pub fn instantiate_strategy(&self) -> Box<dyn Strategy + Send> {
        self.options.strategy.instantiate::<CsrGraph>()
    }

    /// A simulated user whose hidden goal is `goal_syntax`, answering from
    /// the shared stack (the oracle driving scripted service sessions).
    pub fn simulated_user(&self, goal_syntax: &str) -> Result<SimulatedUser, GpsError> {
        let goal = self.parse_query(goal_syntax)?;
        Ok(SimulatedUser::with_exec(goal, self.eval_handle()))
    }

    /// Runs a full interactive session against `user` with the configured
    /// strategy and options.
    pub fn specify<U: User + ?Sized>(&self, user: &mut U) -> SessionOutcome {
        let mut strategy = self.instantiate_strategy();
        self.open_session().run(strategy.as_mut(), user)
    }

    // ------------------------------------------------------------ scenarios

    /// Scenario 1 — static labeling: the user labels arbitrary nodes and the
    /// system proposes a consistent query or reports the inconsistency.
    pub fn static_labeling(&self, labels: &[(NodeId, Label)]) -> StaticLabelingOutcome {
        scenario::static_labeling(&self.eval_handle(), labels, self.learner())
    }

    /// Scenario 2 — interactive labeling without path validation, against a
    /// simulated user whose hidden goal query is `goal_syntax`.
    pub fn interactive_without_validation(
        &self,
        goal_syntax: &str,
    ) -> Result<ScenarioReport, GpsError> {
        self.interactive(goal_syntax, false)
    }

    /// Scenario 3 — interactive labeling with path validation (the core of
    /// GPS), against a simulated user whose hidden goal query is
    /// `goal_syntax`.
    pub fn interactive_with_validation(
        &self,
        goal_syntax: &str,
    ) -> Result<ScenarioReport, GpsError> {
        self.interactive(goal_syntax, true)
    }

    fn interactive(
        &self,
        goal_syntax: &str,
        with_path_validation: bool,
    ) -> Result<ScenarioReport, GpsError> {
        let goal = self.parse_query(goal_syntax)?;
        let config = SessionConfig {
            with_path_validation,
            ..self.options.session.clone()
        };
        let mut strategy = self.instantiate_strategy();
        Ok(scenario::interactive(
            &self.snapshot,
            &goal,
            config,
            strategy.as_mut(),
            self.eval_handle(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
    use gps_rpq::{DfaEvaluator, NaiveEvaluator};

    fn gps() -> (Engine, gps_datasets::figure1::Figure1) {
        let (graph, ids) = figure1_graph();
        (Engine::builder(graph).build(), ids)
    }

    #[test]
    fn evaluation_matches_the_paper() {
        let (gps, ids) = gps();
        let answer = gps.evaluate(MOTIVATING_QUERY).unwrap();
        assert_eq!(answer.nodes(), vec![ids.n1, ids.n2, ids.n4, ids.n6]);
        assert_eq!(
            gps.evaluate_rendered(MOTIVATING_QUERY).unwrap(),
            "{N1, N2, N4, N6}"
        );
    }

    #[test]
    fn evaluation_is_cached() {
        let (gps, _) = gps();
        gps.evaluate(MOTIVATING_QUERY).unwrap();
        gps.evaluate(MOTIVATING_QUERY).unwrap();
        let bus = gps.evaluate("bus").unwrap();
        assert!(!bus.is_empty());
    }

    #[test]
    fn parse_errors_are_propagated() {
        let (gps, _) = gps();
        assert!(matches!(gps.evaluate("spaceship"), Err(GpsError::Parse(_))));
        assert!(gps.parse_query("(bus").is_err());
        // Query strings come from outside: unbounded nesting is an error on
        // this path too, not a stack overflow.
        assert!(matches!(
            gps.evaluate(&"(".repeat(100_000)),
            Err(GpsError::Parse(
                gps_automata::parser::ParseError::TooDeep { .. }
            ))
        ));
        assert!(matches!(gps.node("Nowhere"), Err(GpsError::UnknownNode(_))));
    }

    #[test]
    fn rendering_helpers_produce_figures() {
        let (gps, ids) = gps();
        let fig3a = gps.render_neighborhood(ids.n2, 2);
        assert!(fig3a.contains("radius 2"));
        let fig3b = gps.render_zoom(ids.n2, 2);
        assert!(fig3b.contains("*new*"));
        let graph = gps.snapshot();
        let bus = graph.label_id("bus").unwrap();
        let cinema = graph.label_id("cinema").unwrap();
        let fig3c = gps.render_prefix_tree(ids.n2, 3, &[bus, bus, cinema]);
        assert!(fig3c.contains("◀ candidate"));
    }

    #[test]
    fn scenarios_run_through_the_facade() {
        let (gps, ids) = gps();
        let static_outcome =
            gps.static_labeling(&[(ids.n2, Label::Positive), (ids.n5, Label::Negative)]);
        assert!(matches!(static_outcome, StaticLabelingOutcome::Learned(_)));

        let report = gps.interactive_with_validation(MOTIVATING_QUERY).unwrap();
        assert!(report.goal_reached);
        let report2 = gps
            .interactive_without_validation(MOTIVATING_QUERY)
            .unwrap();
        assert!(report2.consistent_with_labels);
    }

    #[test]
    fn custom_learner_configuration() {
        let (graph, _) = figure1_graph();
        let gps = Engine::builder(graph)
            .learner(Learner::with_bound(3))
            .build();
        assert_eq!(gps.learner().path_bound, 3);
        assert!(gps.snapshot().node_count() == 10);
    }

    #[test]
    fn builder_configures_every_layer() {
        let (graph, _) = figure1_graph();
        let engine = Engine::builder(graph)
            .path_bound(3)
            .initial_radius(1)
            .max_radius(4)
            .with_path_validation(false)
            .max_interactions(7)
            .strategy(StrategyChoice::Degree)
            .build();
        assert_eq!(engine.learner().path_bound, 3);
        let config = engine.session_config();
        assert_eq!(config.path_bound, 3);
        assert_eq!(config.initial_radius, 1);
        assert_eq!(config.max_radius, 4);
        assert!(!config.with_path_validation);
        assert_eq!(config.halt.max_interactions, 7);
        assert_eq!(engine.strategy(), StrategyChoice::Degree);
        assert_eq!(
            config.learner.path_bound, 3,
            "learner propagates to sessions"
        );
    }

    #[test]
    fn interactive_scenarios_honor_builder_knobs() {
        let (graph, _) = figure1_graph();
        // A one-interaction budget must cut the session short regardless of
        // convergence; with the degree strategy and no stop-on-goal the
        // session must run exactly one interaction.
        let engine = Engine::builder(graph)
            .strategy(StrategyChoice::Degree)
            .halt(gps_interactive::halt::HaltConfig {
                max_interactions: 1,
                stop_on_goal: false,
            })
            .build();
        let report = engine
            .interactive_with_validation(MOTIVATING_QUERY)
            .unwrap();
        assert_eq!(report.interactions, 1, "budget knob must reach sessions");
    }

    #[test]
    fn session_config_adopts_its_learner() {
        let (graph, _) = figure1_graph();
        let config = gps_interactive::session::SessionConfig {
            learner: Learner::with_bound(2),
            path_bound: 2,
            ..Default::default()
        };
        let engine = Engine::builder(graph).session_config(config).build();
        assert_eq!(engine.learner().path_bound, 2);
        assert_eq!(engine.session_config().learner.path_bound, 2);
    }

    #[test]
    fn the_engine_answers_like_the_naive_oracle() {
        let (graph, _) = figure1_graph();
        let oracle = NaiveEvaluator::from_csr(CsrGraph::from_graph(&graph));
        let engine = Engine::builder(graph.clone()).build();
        for syntax in [MOTIVATING_QUERY, "cinema", "bus", "(tram+bus)*"] {
            let query = PathQuery::parse(syntax, graph.labels()).unwrap();
            let expected = oracle.evaluate_dfa(query.dfa());
            assert_eq!(engine.evaluate(syntax).unwrap(), expected, "{syntax}");
        }
        assert_eq!(
            engine.evaluate_rendered(MOTIVATING_QUERY).unwrap(),
            "{N1, N2, N4, N6}"
        );
    }

    #[test]
    fn the_engine_holds_its_graph_and_index_once() {
        fn handle<T: Clone + Send + Sync>(_: &T) {}
        let (graph, _) = figure1_graph();
        let engine = Engine::builder(graph).build();
        handle(&engine);
        let clone = engine.clone();
        let snapshot = engine.shared_snapshot();
        assert!(Arc::ptr_eq(&snapshot, &clone.shared_snapshot()));
        assert!(std::ptr::eq(engine.snapshot(), &*snapshot));
        assert!(
            std::ptr::eq(engine.open_session().graph(), &*snapshot),
            "a session runs on the engine's snapshot, not on a copy"
        );
        assert!(Arc::ptr_eq(&engine.shared_index(), &clone.shared_index()));
        assert!(engine.index_memory_bytes() > 0);
    }

    #[test]
    fn evaluate_many_matches_per_query_evaluation() {
        let (graph, _) = figure1_graph();
        let queries = [MOTIVATING_QUERY, "cinema", "bus", MOTIVATING_QUERY];
        let oracle = NaiveEvaluator::from_csr(CsrGraph::from_graph(&graph));
        let expected: Vec<Vec<NodeId>> = queries
            .iter()
            .map(|q| PathQuery::parse(q, graph.labels()).unwrap())
            .map(|q| oracle.evaluate_dfa(q.dfa()).nodes())
            .collect();
        let engine = Engine::builder(graph).build();
        let answers = engine.evaluate_many(&queries).unwrap();
        assert_eq!(answers.len(), queries.len());
        for (answer, expected) in answers.iter().zip(&expected) {
            assert_eq!(&answer.nodes(), expected);
        }
        assert!(engine.evaluate_many(&["(bus"]).is_err());
    }

    #[test]
    fn specify_runs_the_configured_strategy() {
        let (graph, _) = figure1_graph();
        let engine = Engine::builder(graph).build();
        let goal = engine.parse_query(MOTIVATING_QUERY).unwrap();
        let mut user = SimulatedUser::new(goal.clone(), engine.snapshot());
        let outcome = engine.specify(&mut user);
        let learned = outcome.learned.expect("a query is learned");
        assert_eq!(
            learned.answer.nodes(),
            goal.evaluate(engine.snapshot()).nodes()
        );
    }

    #[test]
    fn builder_from_edge_list_parses() {
        let engine = GpsBuilder::from_edge_list("N1 tram N4\nN4 cinema C1\n")
            .unwrap()
            .build();
        assert_eq!(engine.snapshot().node_count(), 3);
        assert!(GpsBuilder::from_edge_list("one two\n").is_err());
    }
}
