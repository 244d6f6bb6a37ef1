//! The GPS engine — a builder-style facade over every query layer.
//!
//! [`Engine`] bundles a graph backend with the query evaluator, the learner
//! and the interactive machinery.  It is generic over [`GraphBackend`], so
//! the same facade serves both first-class stores:
//!
//! * `Engine<Graph>` (alias [`Gps`]) — the mutable adjacency-list backend;
//! * `Engine<CsrGraph>` — the immutable cache-friendly snapshot, built with
//!   [`GpsBuilder::build_csr`].
//!
//! Construction goes through [`GpsBuilder`], which exposes every knob of the
//! system in one place — backend choice, node-proposal strategy, halt
//! conditions, zoom radii, path-validation toggle and learner bounds:
//!
//! ```
//! use gps_core::{Engine, StrategyChoice};
//! use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
//!
//! let (graph, ids) = figure1_graph();
//! let engine = Engine::builder(graph)
//!     .strategy(StrategyChoice::InformativePaths { bound: 3 })
//!     .initial_radius(2)
//!     .max_interactions(100)
//!     .build_csr(); // run everything on the CSR snapshot
//!
//! let answer = engine.evaluate(MOTIVATING_QUERY).unwrap();
//! assert!(answer.contains(ids.n2));
//! let report = engine.interactive_with_validation(MOTIVATING_QUERY, 0).unwrap();
//! assert!(report.goal_reached);
//! ```
//!
//! The pre-builder API remains available: [`Gps::new`] constructs an
//! adjacency-backed engine with default options.

use crate::error::GpsError;
use crate::render;
use crate::scenario::{self, ScenarioReport, StaticLabelingOutcome};
use gps_exec::{BatchEvaluator, ExecMetrics, LabelIndex, PlannerConfig, DEFAULT_OVERDELETE_LIMIT};
use gps_graph::{
    CsrGraph, Graph, GraphBackend, GraphDelta, LabelStats, Neighborhood, NodeId, PathEnumerator,
    PrefixTree,
};
use gps_interactive::halt::HaltConfig;
use gps_interactive::session::{Session, SessionConfig, SessionOutcome};
use gps_interactive::strategy::{
    DegreeStrategy, InformativePathsStrategy, RandomStrategy, Strategy,
};
use gps_interactive::user::{SimulatedUser, User};
use gps_learner::{Label, Learner};
use gps_rpq::{
    DfaEvaluator, EvalCache, EvalHandle, MigrationReport, NaiveEvaluator, PathQuery, QueryAnswer,
};
use gps_telemetry::MetricsRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which execution engine the facade evaluates queries with.
///
/// Every mode computes the *same* answers (the conformance suite asserts
/// byte-identical results); they differ only in how the product fixed point
/// is driven:
///
/// * [`Naive`](EvalMode::Naive) — the reference node-at-a-time evaluator;
/// * [`Frontier`](EvalMode::Frontier) — the `gps-exec` set-at-a-time bitset
///   engine with direction-aware planning (fastest single-query latency);
/// * [`Parallel`](EvalMode::Parallel) — the frontier engine plus the scoped
///   `std::thread` batch executor: multi-query calls such as
///   [`Engine::evaluate_many`] fan out across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Node-at-a-time reference evaluator.
    #[default]
    Naive,
    /// Frontier-based bitset engine (`gps-exec`).
    Frontier,
    /// Frontier engine with the parallel batch executor.
    Parallel,
}

impl EvalMode {
    /// Builds the mode's evaluator over a shared snapshot, returning the
    /// label index it indexes the graph with and the planner statistics it
    /// consults (frontier modes only) so the core can expose the one
    /// allocation every session shares — and patch both on a live update
    /// instead of rebuilding.
    fn evaluator_for(
        self,
        csr: &Arc<CsrGraph>,
        planner: PlannerConfig,
        metrics: ExecMetrics,
        index_shards: Option<usize>,
        delete_saturation: f64,
    ) -> (
        Box<dyn DfaEvaluator>,
        Option<Arc<LabelIndex>>,
        Option<LabelStats>,
    ) {
        match self {
            EvalMode::Naive => (
                Box::new(NaiveEvaluator::from_shared(Arc::clone(csr))),
                None,
                None,
            ),
            EvalMode::Frontier | EvalMode::Parallel => {
                let shards = index_shards.unwrap_or(match self {
                    EvalMode::Parallel => BatchEvaluator::default_threads(),
                    _ => 1,
                });
                let started = std::time::Instant::now();
                let evaluator = BatchEvaluator::from_csr_sharded(csr, shards);
                metrics.record_index_build(started.elapsed(), shards);
                let mut evaluator = evaluator
                    .with_planner_config(planner)
                    .with_metrics(metrics)
                    .with_overdelete_limit(delete_saturation);
                if self == EvalMode::Parallel {
                    evaluator = evaluator.with_parallelism(BatchEvaluator::default_threads());
                }
                let index = evaluator.shared_index();
                let stats = evaluator.stats().clone();
                (Box::new(evaluator), Some(index), Some(stats))
            }
        }
    }
}

/// Which node-proposal strategy the engine runs interactive sessions with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyChoice {
    /// The paper's practical strategy: most short uncovered paths first.
    InformativePaths {
        /// Path-length bound used when counting uncovered paths.
        bound: usize,
    },
    /// Highest out-degree first.
    Degree,
    /// Uniformly random unlabeled node (reproducible per seed).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

impl Default for StrategyChoice {
    fn default() -> Self {
        StrategyChoice::InformativePaths { bound: 3 }
    }
}

impl StrategyChoice {
    /// Instantiates the chosen strategy for backend `B`.  The trait object is
    /// `Send` so service deployments can drive sessions from worker threads.
    pub fn instantiate<B: GraphBackend>(&self) -> Box<dyn Strategy<B> + Send> {
        match *self {
            StrategyChoice::InformativePaths { bound } => {
                Box::new(InformativePathsStrategy::with_bound(bound))
            }
            StrategyChoice::Degree => Box::new(DegreeStrategy),
            StrategyChoice::Random { seed } => Box::new(RandomStrategy::seeded(seed)),
        }
    }
}

/// Builder for [`Engine`]: pick the backend, the strategy and every session
/// option, then [`build`](GpsBuilder::build) (adjacency backend) or
/// [`build_csr`](GpsBuilder::build_csr) (CSR snapshot backend).
#[derive(Debug, Clone)]
pub struct GpsBuilder {
    graph: Graph,
    learner: Learner,
    session: SessionConfig,
    strategy: StrategyChoice,
    eval_mode: EvalMode,
    planner: PlannerConfig,
    index_shards: Option<usize>,
    cache_capacity: Option<usize>,
    delete_saturation: f64,
    checkpoint_every: u64,
    metrics: Arc<MetricsRegistry>,
}

impl GpsBuilder {
    /// Starts a builder over `graph` with the system defaults.
    pub fn new(graph: Graph) -> Self {
        Self {
            graph,
            learner: Learner::default(),
            session: SessionConfig::default(),
            strategy: StrategyChoice::default(),
            eval_mode: EvalMode::default(),
            planner: PlannerConfig::default(),
            index_shards: None,
            cache_capacity: None,
            delete_saturation: DEFAULT_OVERDELETE_LIMIT,
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
        self.learner = learner;
        self
    }

    /// Sets the path-length bound shared by the learner, the coverage and
    /// the pruning.
    pub fn path_bound(mut self, bound: usize) -> Self {
        self.learner.path_bound = bound;
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

    /// Chooses the query execution engine (see [`EvalMode`]).
    pub fn eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        self
    }

    /// Replaces the direction-aware planner's decision thresholds (frontier
    /// modes; defaults to [`PlannerConfig::default`], the values hand-tuned
    /// on the checked-in corpora).  Calibrate per corpus when the label
    /// distribution differs sharply from the defaults' assumptions.
    pub fn planner_config(mut self, config: PlannerConfig) -> Self {
        self.planner = config;
        self
    }

    /// Sets how many shards (worker threads) the frontier modes' label index
    /// builds and patches fan out over.  Defaults to the mode's natural
    /// width: [`EvalMode::Parallel`] uses the machine's available
    /// parallelism, [`EvalMode::Frontier`] builds sequentially.  The index
    /// is byte-identical at every shard count — this knob trades build/patch
    /// latency against thread usage, never answers.  Ignored under
    /// [`EvalMode::Naive`].
    pub fn index_shards(mut self, shards: usize) -> Self {
        self.index_shards = Some(shards.max(1));
        self
    }

    /// Caps the number of cached query answers in the shared evaluation
    /// cache (defaults to [`gps_rpq::cache::DEFAULT_CAPACITY`]).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Caps how much of the alive configuration population a removal-bearing
    /// publish may transitively over-delete before the Tier-3 delete-reseed
    /// gives up and the touched answer falls back to a cold recompute
    /// (frontier modes; clamped to `0.0..=1.0`, default
    /// [`gps_exec::DEFAULT_OVERDELETE_LIMIT`]).  `0.0` disables the delete
    /// path entirely — every removal recomputes cold, the pre-Tier-3
    /// behavior — and `1.0` never gives up.
    pub fn delete_reseed_saturation(mut self, fraction: f64) -> Self {
        self.delete_saturation = fraction.clamp(0.0, 1.0);
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
        self.learner = config.learner.clone();
        self.session = config;
        self
    }

    /// Builds an engine over the mutable adjacency-list backend.
    pub fn build(self) -> Engine<Graph> {
        let snapshot = Arc::new(CsrGraph::from_graph(&self.graph));
        let (graph, core) = self.into_core(Arc::clone(&snapshot));
        Engine {
            backend: graph,
            core,
        }
    }

    /// Builds an engine over an immutable CSR snapshot of the graph — the
    /// cache-friendly backend for read-heavy interactive and bulk-evaluation
    /// workloads.
    pub fn build_csr(self) -> Engine<CsrGraph> {
        let snapshot = Arc::new(CsrGraph::from_graph(&self.graph));
        let (_, core) = self.into_core(Arc::clone(&snapshot));
        Engine {
            backend: (*snapshot).clone(),
            core,
        }
    }

    /// Builds just the shared, cheaply-cloneable [`EngineCore`] — the value a
    /// multi-session service owns (see [`crate::service::GpsService`]).
    pub fn build_core(self) -> EngineCore {
        let snapshot = Arc::new(CsrGraph::from_graph(&self.graph));
        self.into_core(snapshot).1
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

    /// Builds a core over a *recovered* snapshot instead of the builder's
    /// graph (the replay-on-startup path: the snapshot comes from a
    /// checkpoint, the builder only contributes the configuration knobs).
    pub(crate) fn core_over(self, snapshot: Arc<CsrGraph>) -> EngineCore {
        self.into_core(snapshot).1
    }

    /// Builds a core directly over an existing CSR `snapshot`, ignoring the
    /// builder's own graph — the million-node path: pair it with a streamed
    /// corpus builder (e.g. `gps_datasets::streamed::generate_csr`) to stand
    /// up an engine without ever materializing a mutable
    /// [`Graph`](gps_graph::Graph).
    pub fn build_core_over(self, snapshot: Arc<CsrGraph>) -> EngineCore {
        self.into_core(snapshot).1
    }

    /// Consumes the builder into the adjacency graph plus the shared core
    /// over `snapshot`.
    fn into_core(self, snapshot: Arc<CsrGraph>) -> (Graph, EngineCore) {
        let mut session = self.session;
        session.learner = self.learner.clone();
        let (evaluator, index, stats) = self.eval_mode.evaluator_for(
            &snapshot,
            self.planner,
            ExecMetrics::from_registry(&self.metrics),
            self.index_shards,
            self.delete_saturation,
        );
        let mut cache = EvalCache::with_shared_evaluator(Arc::clone(&snapshot), evaluator)
            .with_metrics(&self.metrics);
        if let Some(capacity) = self.cache_capacity {
            cache = cache.with_capacity(capacity);
        }
        let core = EngineCore {
            snapshot,
            cache: Arc::new(cache),
            index,
            stats,
            options: Arc::new(EngineOptions {
                learner: self.learner,
                session,
                strategy: self.strategy,
                eval_mode: self.eval_mode,
                planner: self.planner,
                index_shards: self.index_shards,
                cache_capacity: self.cache_capacity,
                delete_saturation: self.delete_saturation,
                metrics: self.metrics,
            }),
        };
        (self.graph, core)
    }
}

/// The configuration shared by every handle and session of one core — and by
/// every *epoch* of a live store, which is why the evaluation-stack knobs
/// (planner thresholds, cache capacities) live here: a publish rebuilds the
/// cache and evaluator with the same knobs the builder chose.
#[derive(Debug)]
pub(crate) struct EngineOptions {
    learner: Learner,
    session: SessionConfig,
    strategy: StrategyChoice,
    eval_mode: EvalMode,
    planner: PlannerConfig,
    index_shards: Option<usize>,
    cache_capacity: Option<usize>,
    delete_saturation: f64,
    metrics: Arc<MetricsRegistry>,
}

/// What [`EngineCore::advance`] built, and where its time went.
pub(crate) struct Advanced {
    pub core: EngineCore,
    pub migration: MigrationReport,
    /// Label index and planner statistics patched through the delta.
    pub index_patch: Duration,
    /// New cache built and the old epoch's answers migrated into it.
    pub migrate_answers: Duration,
    /// Bounded-word index inherited.
    pub inherit_words: Duration,
}

/// The immutable, cheaply-cloneable heart of an engine: one graph snapshot,
/// one bounded evaluation cache (with the mode's evaluator and, for the
/// frontier modes, one shared [`LabelIndex`]), and the configuration every
/// session runs with.
///
/// Cloning an `EngineCore` copies four `Arc`s — nothing graph-sized — so a
/// service can hand a core to every worker thread and every session while
/// all of them share a single snapshot, index and cache.  All mutability
/// lives in per-session state ([`Session`] owns its examples, coverage,
/// pruning and statistics) and inside the concurrency-safe cache.
#[derive(Debug, Clone)]
pub struct EngineCore {
    pub(crate) snapshot: Arc<CsrGraph>,
    pub(crate) cache: Arc<EvalCache>,
    pub(crate) index: Option<Arc<LabelIndex>>,
    /// Planner statistics of the frontier evaluator (patched, not
    /// recomputed, on a live update).
    pub(crate) stats: Option<LabelStats>,
    pub(crate) options: Arc<EngineOptions>,
}

impl EngineCore {
    /// The shared CSR snapshot sessions run on.
    pub fn snapshot(&self) -> &CsrGraph {
        &self.snapshot
    }

    /// The epoch of the snapshot this core serves (see
    /// [`CsrGraph::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Builds the next epoch's core over `snapshot` (the compacted result of
    /// `delta`): the frontier modes patch their label index and planner
    /// statistics through the delta instead of re-indexing, the new bounded
    /// evaluation cache migrates the old epoch's answers across the delta
    /// ([`EvalCache::migrate_answers`]) and inherits its word index
    /// ([`EvalCache::inherit_words`]), and every configuration knob carries
    /// over unchanged.  Returns the new core together with the migration
    /// split (how many cached answers were carried verbatim, re-derived from
    /// their seed, or dropped to a cold recompute) and how long each of the
    /// three steps took.
    pub(crate) fn advance(&self, snapshot: Arc<CsrGraph>, delta: &GraphDelta) -> Advanced {
        let started = Instant::now();
        let (evaluator, index, stats): (
            Box<dyn DfaEvaluator>,
            Option<Arc<LabelIndex>>,
            Option<LabelStats>,
        ) = match (self.options.eval_mode, &self.index, &self.stats) {
            (EvalMode::Naive, _, _) => (
                Box::new(NaiveEvaluator::from_shared(Arc::clone(&snapshot))),
                None,
                None,
            ),
            (mode, Some(index), Some(stats)) => {
                let previous = BatchEvaluator::from_shared_index(Arc::clone(index), stats.clone())
                    .with_planner_config(self.options.planner)
                    .with_metrics(ExecMetrics::from_registry(&self.options.metrics))
                    .with_overdelete_limit(self.options.delete_saturation);
                let previous = if mode == EvalMode::Parallel {
                    previous.with_parallelism(BatchEvaluator::default_threads())
                } else {
                    previous
                };
                let patched = previous.apply_delta(&snapshot, delta);
                let index = patched.shared_index();
                let stats = patched.stats().clone();
                (Box::new(patched), Some(index), Some(stats))
            }
            // A frontier core without index/stats cannot exist through the
            // builder; rebuild defensively if it ever does.
            (mode, _, _) => mode.evaluator_for(
                &snapshot,
                self.options.planner,
                ExecMetrics::from_registry(&self.options.metrics),
                self.options.index_shards,
                self.options.delete_saturation,
            ),
        };
        let patched = Instant::now();
        let mut cache = EvalCache::with_shared_evaluator(Arc::clone(&snapshot), evaluator)
            .with_metrics(&self.options.metrics);
        if let Some(capacity) = self.options.cache_capacity {
            cache = cache.with_capacity(capacity);
        }
        let migration = cache.migrate_answers(&self.cache, delta);
        let migrated = Instant::now();
        cache.inherit_words(&self.cache, delta);
        let core = EngineCore {
            snapshot,
            cache: Arc::new(cache),
            index,
            stats,
            options: Arc::clone(&self.options),
        };
        Advanced {
            core,
            migration,
            index_patch: patched - started,
            migrate_answers: migrated - patched,
            inherit_words: migrated.elapsed(),
        }
    }

    /// A new reference to the shared snapshot.
    pub fn shared_snapshot(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.snapshot)
    }

    /// The shared evaluation cache.
    pub fn eval_cache(&self) -> &EvalCache {
        &self.cache
    }

    /// A cheaply cloneable handle to the shared evaluation stack.
    pub fn eval_handle(&self) -> EvalHandle {
        EvalHandle::from_cache(Arc::clone(&self.cache))
    }

    /// The label index the frontier evaluator indexes the snapshot with
    /// (`None` under [`EvalMode::Naive`]).  Every session of this core —
    /// and every clone of this core — shares this one allocation.
    pub fn shared_index(&self) -> Option<Arc<LabelIndex>> {
        self.index.clone()
    }

    /// Approximate heap footprint of the shared label index in bytes (0
    /// under [`EvalMode::Naive`]).
    pub fn index_memory_bytes(&self) -> usize {
        self.index
            .as_ref()
            .map(|index| index.memory_bytes())
            .unwrap_or(0)
    }

    /// The query execution mode sessions of this core evaluate with.
    pub fn eval_mode(&self) -> EvalMode {
        self.options.eval_mode
    }

    /// The planner thresholds the frontier evaluators of this core (and of
    /// every epoch advanced from it) run with.
    pub fn planner_config(&self) -> PlannerConfig {
        self.options.planner
    }

    /// The node-proposal strategy sessions of this core run with.
    pub fn strategy(&self) -> StrategyChoice {
        self.options.strategy
    }

    /// The session configuration sessions of this core start from.
    pub fn session_config(&self) -> &SessionConfig {
        &self.options.session
    }

    /// The learner configuration.
    pub fn learner(&self) -> &Learner {
        &self.options.learner
    }

    /// The telemetry registry this core (and every epoch advanced from it)
    /// records into — the disabled registry unless the builder wired one via
    /// [`GpsBuilder::metrics`].
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.options.metrics
    }

    /// Parses a query in the paper's syntax against the snapshot's alphabet.
    pub fn parse_query(&self, syntax: &str) -> Result<PathQuery, GpsError> {
        Ok(PathQuery::parse(syntax, self.snapshot.labels())?)
    }

    /// Parses and evaluates a query through the shared cache.
    pub fn evaluate(&self, syntax: &str) -> Result<QueryAnswer, GpsError> {
        let query = self.parse_query(syntax)?;
        Ok((*self.cache.evaluate(query.regex())).clone())
    }

    /// Opens a new interactive session on the shared snapshot and stack.
    ///
    /// The session co-owns the snapshot (no borrow of the core), so it can be
    /// stored in a session table and stepped from any worker thread; its
    /// learner/coverage/pruning state is private to the session, while every
    /// query it evaluates goes through the core's one bounded cache.
    pub fn open_session(&self) -> Session<'static, CsrGraph> {
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

    /// Instantiates the configured node-proposal strategy for the snapshot
    /// backend.
    pub fn instantiate_strategy(&self) -> Box<dyn Strategy<CsrGraph> + Send> {
        self.options.strategy.instantiate::<CsrGraph>()
    }

    /// A simulated user whose hidden goal is `goal_syntax`, answering from
    /// the shared stack (the oracle driving scripted service sessions).
    pub fn simulated_user(&self, goal_syntax: &str) -> Result<SimulatedUser, GpsError> {
        let goal = self.parse_query(goal_syntax)?;
        Ok(SimulatedUser::with_exec(goal, self.eval_handle()))
    }
}

/// The GPS system bound to one graph backend: a thin per-user handle over a
/// shared [`EngineCore`].
///
/// See the [module docs](self) for the builder-based construction; the
/// methods mirror the operations the demo paper describes — query
/// evaluation, neighborhood rendering, and the three demonstration
/// scenarios.  The backend is what the handle's own traversal/rendering
/// methods walk; every query evaluation, session, learner and pruning call
/// goes through the core's shared snapshot, cache and (frontier modes)
/// label index.  [`Engine::core`] exposes the core for multi-session
/// serving — see [`crate::service`].
#[derive(Debug)]
pub struct Engine<B: GraphBackend = Graph> {
    backend: B,
    core: EngineCore,
}

/// The historical name of the adjacency-backed engine.
pub type Gps = Engine<Graph>;

impl Engine<Graph> {
    /// Creates an adjacency-backed engine with default options.
    pub fn new(graph: Graph) -> Self {
        GpsBuilder::new(graph).build()
    }

    /// Creates an engine with a custom learner configuration.
    pub fn with_learner(graph: Graph, learner: Learner) -> Self {
        GpsBuilder::new(graph).learner(learner).build()
    }

    /// Starts a builder over `graph`; finish with
    /// [`build`](GpsBuilder::build) or [`build_csr`](GpsBuilder::build_csr).
    pub fn builder(graph: Graph) -> GpsBuilder {
        GpsBuilder::new(graph)
    }
}

impl<B: GraphBackend> Engine<B> {
    /// Wraps an existing backend with default options (no builder knobs).
    pub fn from_backend(backend: B) -> Self {
        let eval_mode = EvalMode::default();
        let planner = PlannerConfig::default();
        let snapshot = Arc::new(CsrGraph::from_backend(&backend));
        let (evaluator, index, stats) = eval_mode.evaluator_for(
            &snapshot,
            planner,
            ExecMetrics::disabled(),
            None,
            DEFAULT_OVERDELETE_LIMIT,
        );
        let cache = Arc::new(EvalCache::with_shared_evaluator(
            Arc::clone(&snapshot),
            evaluator,
        ));
        let learner = Learner::default();
        let session = SessionConfig {
            learner: learner.clone(),
            ..SessionConfig::default()
        };
        Self {
            backend,
            core: EngineCore {
                snapshot,
                cache,
                index,
                stats,
                options: Arc::new(EngineOptions {
                    learner,
                    session,
                    strategy: StrategyChoice::default(),
                    eval_mode,
                    planner,
                    index_shards: None,
                    cache_capacity: None,
                    delete_saturation: DEFAULT_OVERDELETE_LIMIT,
                    metrics: Arc::new(MetricsRegistry::disabled()),
                }),
            },
        }
    }

    /// The underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The underlying backend (historical name).
    pub fn graph(&self) -> &B {
        &self.backend
    }

    /// The shared core this handle evaluates through.
    pub fn core(&self) -> &EngineCore {
        &self.core
    }

    /// A cheap clone of the shared core — hand it to
    /// [`crate::service::GpsService`] to serve many concurrent sessions over
    /// this engine's snapshot, cache and index.
    pub fn core_handle(&self) -> EngineCore {
        self.core.clone()
    }

    /// The learner configuration.
    pub fn learner(&self) -> &Learner {
        self.core.learner()
    }

    /// The session configuration interactive scenarios run with.
    pub fn session_config(&self) -> &SessionConfig {
        self.core.session_config()
    }

    /// The configured node-proposal strategy.
    pub fn strategy(&self) -> StrategyChoice {
        self.core.strategy()
    }

    /// The configured query execution mode.
    pub fn eval_mode(&self) -> EvalMode {
        self.core.eval_mode()
    }

    /// The engine's shared evaluation cache.
    pub fn eval_cache(&self) -> &EvalCache {
        self.core.eval_cache()
    }

    /// A cheaply cloneable handle to the engine's evaluation stack — hand it
    /// to [`Session::with_exec`] / [`gps_interactive::user::SimulatedUser::with_exec`]
    /// (the engine's own session entry points do so automatically).
    pub fn eval_handle(&self) -> EvalHandle {
        self.core.eval_handle()
    }

    /// Takes an immutable CSR snapshot of the current backend.
    pub fn snapshot(&self) -> CsrGraph {
        CsrGraph::from_backend(&self.backend)
    }

    // ------------------------------------------------------------- queries

    /// Parses a query in the paper's syntax against this graph's alphabet.
    pub fn parse_query(&self, syntax: &str) -> Result<PathQuery, GpsError> {
        Ok(PathQuery::parse(syntax, self.backend.labels())?)
    }

    /// Parses and evaluates a query, returning the selected nodes.  Repeated
    /// evaluations of the same expression are served from a cache.
    pub fn evaluate(&self, syntax: &str) -> Result<QueryAnswer, GpsError> {
        let query = self.parse_query(syntax)?;
        Ok((*self.core.cache.evaluate(query.regex())).clone())
    }

    /// Parses and evaluates a batch of queries, returning the answers in
    /// input order.
    ///
    /// Cache misses are handed to the configured execution engine in one
    /// batch call, so under [`EvalMode::Parallel`] the uncached queries fan
    /// out across worker threads and under [`EvalMode::Frontier`] they share
    /// one scratch allocation.
    pub fn evaluate_many(&self, syntaxes: &[&str]) -> Result<Vec<QueryAnswer>, GpsError> {
        let queries: Vec<PathQuery> = syntaxes
            .iter()
            .map(|syntax| self.parse_query(syntax))
            .collect::<Result<_, _>>()?;
        let regexes: Vec<&gps_automata::Regex> = queries.iter().map(|q| q.regex()).collect();
        Ok(self
            .core
            .cache
            .evaluate_many(&regexes)
            .into_iter()
            .map(|answer| (*answer).clone())
            .collect())
    }

    /// Renders the answer of a query as `{N1, N2, …}`.
    pub fn evaluate_rendered(&self, syntax: &str) -> Result<String, GpsError> {
        let answer = self.evaluate(syntax)?;
        Ok(render::render_node_set(&self.backend, &answer.nodes()))
    }

    /// Resolves a node by display name.
    pub fn node(&self, name: &str) -> Result<NodeId, GpsError> {
        self.backend
            .node_by_name(name)
            .ok_or_else(|| GpsError::UnknownNode(name.to_string()))
    }

    // -------------------------------------------------------- visualization

    /// Extracts the neighborhood of a node at the given radius (Figure 3(a)).
    pub fn neighborhood(&self, node: NodeId, radius: u32) -> Neighborhood {
        Neighborhood::extract(&self.backend, node, radius)
    }

    /// Renders the neighborhood of a node at the given radius.
    pub fn render_neighborhood(&self, node: NodeId, radius: u32) -> String {
        render::render_neighborhood(&self.backend, &self.neighborhood(node, radius), None)
    }

    /// Renders the zoom-out from radius `radius` to `radius + 1`, marking the
    /// newly revealed nodes (Figure 3(b)).
    pub fn render_zoom(&self, node: NodeId, radius: u32) -> String {
        let hood = self.neighborhood(node, radius);
        let (larger, delta) = hood.zoom_out(&self.backend);
        render::render_neighborhood(&self.backend, &larger, Some(&delta))
    }

    /// Renders the prefix tree of a node's paths up to `bound`, highlighting
    /// `suggested` (Figure 3(c)).
    pub fn render_prefix_tree(
        &self,
        node: NodeId,
        bound: usize,
        suggested: &[gps_graph::LabelId],
    ) -> String {
        let words = PathEnumerator::new(bound).words_from(&self.backend, node);
        let tree = PrefixTree::from_words(&words);
        render::render_prefix_tree(&self.backend, &tree, &suggested.to_vec())
    }

    // ------------------------------------------------------------- sessions

    /// Starts an interactive session over this engine's backend with its
    /// configured session options, evaluating through the engine's shared
    /// stack (cache + configured execution engine).
    pub fn new_session(&self) -> Session<'_, B> {
        let mut session = Session::with_exec(
            &self.backend,
            self.core.options.session.clone(),
            self.eval_handle(),
        );
        if self.core.options.metrics.is_enabled() {
            session.set_metrics(gps_interactive::metrics::SessionMetrics::from_registry(
                &self.core.options.metrics,
            ));
        }
        session
    }

    /// Runs a full interactive session against `user` with the configured
    /// strategy and options.
    pub fn specify<U: User<B> + ?Sized>(&self, user: &mut U) -> SessionOutcome {
        let mut strategy = self.core.options.strategy.instantiate::<B>();
        let mut session = self.new_session();
        session.run(strategy.as_mut(), user)
    }

    // ------------------------------------------------------------ scenarios

    /// Scenario 1 — static labeling: the user labels arbitrary nodes and the
    /// system proposes a consistent query or reports the inconsistency.
    pub fn static_labeling(&self, labels: &[(NodeId, Label)]) -> StaticLabelingOutcome {
        scenario::static_labeling(&self.backend, labels, self.core.learner())
    }

    /// Scenario 2 — interactive labeling without path validation, against a
    /// simulated user whose hidden goal query is `goal_syntax`.
    pub fn interactive_without_validation(
        &self,
        goal_syntax: &str,
        _seed: u64,
    ) -> Result<ScenarioReport, GpsError> {
        let goal = self.parse_query(goal_syntax)?;
        let config = SessionConfig {
            with_path_validation: false,
            ..self.core.options.session.clone()
        };
        let mut strategy = self.core.options.strategy.instantiate::<B>();
        Ok(scenario::interactive_with_exec(
            &self.backend,
            &goal,
            config,
            strategy.as_mut(),
            self.eval_handle(),
        ))
    }

    /// Scenario 3 — interactive labeling with path validation (the core of
    /// GPS), against a simulated user whose hidden goal query is
    /// `goal_syntax`.
    pub fn interactive_with_validation(
        &self,
        goal_syntax: &str,
        _seed: u64,
    ) -> Result<ScenarioReport, GpsError> {
        let goal = self.parse_query(goal_syntax)?;
        let config = SessionConfig {
            with_path_validation: true,
            ..self.core.options.session.clone()
        };
        let mut strategy = self.core.options.strategy.instantiate::<B>();
        Ok(scenario::interactive_with_exec(
            &self.backend,
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
    use gps_interactive::user::SimulatedUser;

    fn gps() -> (Gps, gps_datasets::figure1::Figure1) {
        let (graph, ids) = figure1_graph();
        (Gps::new(graph), ids)
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
        assert!(matches!(gps.node("Nowhere"), Err(GpsError::UnknownNode(_))));
    }

    #[test]
    fn rendering_helpers_produce_figures() {
        let (gps, ids) = gps();
        let fig3a = gps.render_neighborhood(ids.n2, 2);
        assert!(fig3a.contains("radius 2"));
        let fig3b = gps.render_zoom(ids.n2, 2);
        assert!(fig3b.contains("*new*"));
        let graph = gps.graph();
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

        let report = gps
            .interactive_with_validation(MOTIVATING_QUERY, 0)
            .unwrap();
        assert!(report.goal_reached);
        let report2 = gps
            .interactive_without_validation(MOTIVATING_QUERY, 0)
            .unwrap();
        assert!(report2.consistent_with_labels);
    }

    #[test]
    fn custom_learner_configuration() {
        let (graph, _) = figure1_graph();
        let gps = Gps::with_learner(graph, Learner::with_bound(3));
        assert_eq!(gps.learner().path_bound, 3);
        assert!(gps.graph().node_count() == 10);
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
            .interactive_with_validation(MOTIVATING_QUERY, 0)
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
    fn eval_modes_agree_and_reach_the_engine() {
        let (graph, ids) = figure1_graph();
        let naive = Engine::builder(graph.clone()).build();
        assert_eq!(naive.eval_mode(), EvalMode::Naive, "default mode");
        for mode in [EvalMode::Frontier, EvalMode::Parallel] {
            let engine = Engine::builder(graph.clone()).eval_mode(mode).build();
            assert_eq!(engine.eval_mode(), mode);
            assert_eq!(
                engine.evaluate(MOTIVATING_QUERY).unwrap().nodes(),
                naive.evaluate(MOTIVATING_QUERY).unwrap().nodes(),
                "{mode:?}"
            );
            let csr_engine = Engine::builder(graph.clone()).eval_mode(mode).build_csr();
            assert!(csr_engine.evaluate("cinema").unwrap().contains(ids.n4));
        }
    }

    #[test]
    fn evaluate_many_matches_per_query_evaluation() {
        let (graph, _) = figure1_graph();
        let queries = [MOTIVATING_QUERY, "cinema", "bus", MOTIVATING_QUERY];
        let naive = Engine::builder(graph.clone()).build();
        let expected: Vec<Vec<NodeId>> = queries
            .iter()
            .map(|q| naive.evaluate(q).unwrap().nodes())
            .collect();
        for mode in [EvalMode::Naive, EvalMode::Frontier, EvalMode::Parallel] {
            let engine = Engine::builder(graph.clone()).eval_mode(mode).build();
            let answers = engine.evaluate_many(&queries).unwrap();
            assert_eq!(answers.len(), queries.len());
            for (answer, expected) in answers.iter().zip(&expected) {
                assert_eq!(&answer.nodes(), expected, "{mode:?}");
            }
            assert!(engine.evaluate_many(&["(bus"]).is_err(), "{mode:?}");
        }
    }

    #[test]
    fn interactive_scenarios_run_under_the_frontier_mode() {
        let (graph, _) = figure1_graph();
        let engine = Engine::builder(graph)
            .eval_mode(EvalMode::Frontier)
            .build_csr();
        let report = engine
            .interactive_with_validation(MOTIVATING_QUERY, 0)
            .unwrap();
        assert!(report.goal_reached);
    }

    #[test]
    fn csr_engine_answers_like_the_adjacency_engine() {
        let (graph, _) = figure1_graph();
        let adjacency = Engine::builder(graph.clone()).build();
        let csr = Engine::builder(graph).build_csr();
        assert_eq!(
            adjacency.evaluate(MOTIVATING_QUERY).unwrap().nodes(),
            csr.evaluate(MOTIVATING_QUERY).unwrap().nodes()
        );
        assert_eq!(
            adjacency.evaluate_rendered("bus").unwrap(),
            csr.evaluate_rendered("bus").unwrap()
        );
    }

    #[test]
    fn interactive_scenarios_run_on_the_csr_backend() {
        let (graph, _) = figure1_graph();
        let engine = Engine::builder(graph).build_csr();
        let report = engine
            .interactive_with_validation(MOTIVATING_QUERY, 0)
            .unwrap();
        assert!(report.goal_reached, "report: {report:?}");
    }

    #[test]
    fn specify_runs_the_configured_strategy() {
        let (graph, _) = figure1_graph();
        let engine = Engine::builder(graph).build();
        let goal = engine.parse_query(MOTIVATING_QUERY).unwrap();
        let mut user = SimulatedUser::new(goal.clone(), engine.backend());
        let outcome = engine.specify(&mut user);
        let learned = outcome.learned.expect("a query is learned");
        assert_eq!(
            learned.answer.nodes(),
            goal.evaluate(engine.backend()).nodes()
        );
    }

    #[test]
    fn from_backend_wraps_a_snapshot_directly() {
        let (graph, ids) = figure1_graph();
        let snapshot = gps_graph::CsrGraph::from_graph(&graph);
        let engine = Engine::from_backend(snapshot);
        assert!(engine.evaluate("cinema").unwrap().contains(ids.n4));
        assert_eq!(engine.snapshot().node_count(), 10);
    }

    #[test]
    fn builder_from_edge_list_parses() {
        let engine = GpsBuilder::from_edge_list("N1 tram N4\nN4 cinema C1\n")
            .unwrap()
            .build();
        assert_eq!(engine.backend().node_count(), 3);
        assert!(GpsBuilder::from_edge_list("one two\n").is_err());
    }
}
