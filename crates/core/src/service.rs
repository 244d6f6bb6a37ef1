//! Concurrent multi-session serving over one shared [`EngineCore`].
//!
//! The paper's interactive loop is inherently per-user, but the system's
//! north star is one graph serving *many* users at once.  This module is the
//! service layer that makes that shape first-class:
//!
//! * [`SessionManager`] — a concurrency-safe session table over one core:
//!   `open` a session for a (simulated) user goal, `step` it one interaction
//!   at a time, `close` it into a [`SessionOutcome`] (which carries its
//!   per-session statistics).  Every session shares the core's snapshot,
//!   bounded evaluation cache and label index; every session's learner,
//!   coverage, pruning and statistics are private to it, so concurrent
//!   sessions cannot observe each other.
//! * [`SessionManager::serve`] — the worker-thread driver on the same table:
//!   hand it a batch of goal queries and a worker count and it opens, runs
//!   and closes one session per goal across scoped threads, returning the
//!   outcomes in input order; the table maintains the aggregate throughput
//!   counters ([`ServiceStats`]) either way.
//!
//! Because the cache is concurrency-safe and answers are deterministic, a
//! session's transcript does not depend on what other sessions run next to
//! it — `tests/service_conformance.rs` asserts byte-identical transcripts
//! between N concurrent service sessions and N sequential bare sessions.
//!
//! ```
//! use gps_core::service::SessionManager;
//! use gps_core::Engine;
//! use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
//!
//! let (graph, _) = figure1_graph();
//! let service = SessionManager::new(Engine::builder(graph).build());
//! let goals = vec![MOTIVATING_QUERY.to_string(); 4];
//! let outcomes = service.serve(&goals, 2).unwrap();
//! assert_eq!(outcomes.len(), 4);
//! assert_eq!(service.stats().sessions_closed, 4);
//! ```

use crate::engine::{EngineCore, GpsBuilder};
use crate::error::GpsError;
use crate::metrics::ServiceMetrics;
use crate::versioned::{GraphUpdate, PublishReport, RecoveryReport, VersionedStore};
use gps_interactive::halt::HaltReason;
use gps_interactive::metrics::SessionMetrics;
use gps_interactive::session::{Session, SessionOutcome};
use gps_interactive::strategy::Strategy;
use gps_interactive::user::SimulatedUser;
use gps_telemetry::{MetricsRegistry, MetricsSnapshot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifier of a managed session (unique per [`SessionManager`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What a [`SessionManager::step`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The session performed (at most) one more interaction and can continue.
    Running {
        /// Total interactions the session has performed so far.
        interactions: usize,
    },
    /// A halt condition fired (now or on an earlier step); the session rests
    /// in the table until closed.
    Halted(HaltReason),
}

/// One entry of the session table: the session plus the user and strategy
/// driving it.  All of this state is session-private — the only shared
/// structures a step touches are the pinned core's concurrency-safe
/// cache/index.
struct ManagedSession {
    session: Session<'static>,
    user: SimulatedUser,
    strategy: Box<dyn Strategy + Send>,
    halted: Option<HaltReason>,
}

impl ManagedSession {
    /// The store epoch this session is pinned to (its birth epoch): the
    /// epoch of its handle, whose snapshot, cache and index all belong to
    /// this version, so a publish mid-session never changes what it
    /// observes.
    fn epoch(&self) -> u64 {
        self.session.exec().epoch()
    }

    fn status(&self) -> SessionStatus {
        match self.halted {
            Some(reason) => SessionStatus::Halted(reason),
            None => SessionStatus::Running {
                interactions: self.session.stats().interactions,
            },
        }
    }
}

/// Aggregate throughput counters of a manager/service, as a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Sessions opened so far.
    pub sessions_opened: u64,
    /// Sessions closed so far.
    pub sessions_closed: u64,
    /// Sessions whose halt condition fired (converged or exhausted their
    /// budget) — as opposed to sessions closed early by the client.
    pub sessions_completed: u64,
    /// Label interactions performed across all sessions.
    pub interactions: u64,
    /// Sessions currently open.
    pub active_sessions: usize,
    /// Graph updates published since the store was created or recovered
    /// ([`VersionedStore::publish_count`]).
    pub publishes: u64,
    /// The epoch newly opened sessions currently resolve.
    pub current_epoch: u64,
    /// Live epochs (current + superseded ones with pinned sessions).
    pub live_epochs: usize,
}

/// A concurrency-safe open/step/close session table over an epoch-versioned
/// [`VersionedStore`].
///
/// Every session is **pinned to its birth epoch**: `open` resolves the
/// store's latest core and holds it (snapshot + cache + index) for the
/// session's whole life, so [`update`](Self::update)/publish interleave
/// safely with stepping — in-flight transcripts are byte-stable while newly
/// opened sessions observe the published graph.
///
/// The table holds each session behind its own lock, so worker threads
/// stepping *different* sessions never contend beyond the brief table-map
/// lookup; stepping the *same* session from two threads serializes.
#[derive(Debug)]
pub struct SessionManager {
    store: Arc<VersionedStore>,
    sessions: Mutex<HashMap<u64, Arc<Mutex<ManagedSession>>>>,
    next_id: AtomicU64,
    opened: AtomicU64,
    closed: AtomicU64,
    completed: AtomicU64,
    interactions: AtomicU64,
    /// Pre-bound service-layer telemetry handles plus the per-session
    /// handles cloned into every opened session (all no-ops under a
    /// disabled registry).
    metrics: ServiceMetrics,
    session_metrics: SessionMetrics,
}

impl std::fmt::Debug for ManagedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedSession")
            .field("interactions", &self.session.stats().interactions)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl SessionManager {
    /// Creates an empty session table over `core`, wrapping it in a fresh
    /// single-writer [`VersionedStore`].
    pub fn new(core: EngineCore) -> Self {
        Self::over(Arc::new(VersionedStore::new(core)))
    }

    /// Creates an empty session table over a *durable* store at `dir` (see
    /// [`VersionedStore::open_durable`]): a fresh directory is initialised
    /// from the builder's graph, an existing one is recovered — latest
    /// checkpoint plus committed write-ahead-log replay.
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        builder: GpsBuilder,
    ) -> Result<(Self, RecoveryReport), GpsError> {
        let (store, report) = VersionedStore::open_durable(dir, builder)?;
        Ok((Self::over(Arc::new(store)), report))
    }

    /// Creates an empty session table over an existing (possibly shared)
    /// versioned store.
    pub fn over(store: Arc<VersionedStore>) -> Self {
        let registry = store.metrics_registry();
        let metrics = ServiceMetrics::from_registry(registry);
        let session_metrics = if registry.is_enabled() {
            SessionMetrics::from_registry(registry)
        } else {
            SessionMetrics::disabled()
        };
        Self {
            store,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            interactions: AtomicU64::new(0),
            metrics,
            session_metrics,
        }
    }

    /// The *latest* core — what a session opened right now would run on.
    /// (Cheap: an [`EngineCore`] clone is a handle.)
    pub fn core(&self) -> EngineCore {
        self.store.latest()
    }

    /// The underlying epoch-versioned store.
    pub fn store(&self) -> &Arc<VersionedStore> {
        &self.store
    }

    /// Stages and publishes a graph update.  In-flight sessions keep their
    /// birth epoch; sessions opened afterwards observe the published graph.
    pub fn update(&self, update: GraphUpdate) -> Result<PublishReport, GpsError> {
        self.store.update(update)
    }

    /// Opens a session driven by a simulated user whose hidden goal query is
    /// `goal_syntax`, with the core's configured strategy and session
    /// options.  The session is pinned to the store's current epoch.
    /// Returns the id to step/close it with.
    pub fn open(&self, goal_syntax: &str) -> Result<SessionId, GpsError> {
        let span = self.metrics.open_latency.start_timer();
        let core = self.store.pin_latest();
        let epoch = core.epoch();
        let user = match core.simulated_user(goal_syntax) {
            Ok(user) => user,
            Err(error) => {
                self.store.unpin(epoch);
                span.cancel();
                return Err(error);
            }
        };
        let managed = ManagedSession {
            session: core.open_session(),
            user,
            strategy: core.instantiate_strategy(),
            halted: None,
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions
            .lock()
            .insert(id, Arc::new(Mutex::new(managed)));
        self.opened.fetch_add(1, Ordering::Relaxed);
        self.metrics.sessions_opened.inc();
        self.metrics.active_sessions.set(self.active_count() as u64);
        self.store
            .metrics_registry()
            .event_with("session_open", || {
                vec![
                    ("session".to_string(), id.to_string()),
                    ("epoch".to_string(), epoch.to_string()),
                ]
            });
        span.stop();
        Ok(SessionId(id))
    }

    /// The epoch session `id` is pinned to (its birth epoch).
    pub fn session_epoch(&self, id: SessionId) -> Result<u64, GpsError> {
        Ok(self.slot(id)?.lock().epoch())
    }

    /// Performs one interaction of session `id` (a no-op when it already
    /// halted), returning its status afterwards.
    pub fn step(&self, id: SessionId) -> Result<SessionStatus, GpsError> {
        let slot = self.slot(id)?;
        let span = self.metrics.step_latency.start_timer();
        let mut managed = slot.lock();
        if managed.halted.is_some() {
            span.cancel();
            return Ok(managed.status());
        }
        let before = managed.session.stats().interactions;
        let managed = &mut *managed;
        if let Some(reason) = managed
            .session
            .step(managed.strategy.as_mut(), &mut managed.user)
        {
            managed.halted = Some(reason);
            self.completed.fetch_add(1, Ordering::Relaxed);
            self.metrics.sessions_completed.inc();
            self.store
                .metrics_registry()
                .event_with("session_halt", || {
                    vec![
                        ("session".to_string(), id.raw().to_string()),
                        ("reason".to_string(), format!("{reason:?}")),
                    ]
                });
        }
        let delta = managed.session.stats().interactions - before;
        self.interactions.fetch_add(delta as u64, Ordering::Relaxed);
        span.stop();
        Ok(managed.status())
    }

    /// Steps session `id` until a halt condition fires, returning the halt
    /// reason.
    pub fn run_to_completion(&self, id: SessionId) -> Result<HaltReason, GpsError> {
        loop {
            if let SessionStatus::Halted(reason) = self.step(id)? {
                return Ok(reason);
            }
        }
    }

    /// Closes session `id`, removing it from the table and returning its
    /// outcome.  A session closed before any halt condition fired reports
    /// [`HaltReason::ClosedByClient`].
    pub fn close(&self, id: SessionId) -> Result<SessionOutcome, GpsError> {
        let slot = self
            .sessions
            .lock()
            .remove(&id.raw())
            .ok_or(GpsError::UnknownSession(id.raw()))?;
        let span = self.metrics.close_latency.start_timer();
        self.closed.fetch_add(1, Ordering::Relaxed);
        // Usually ours is the last reference; a concurrent `step` racing the
        // close can briefly hold another, in which case the outcome is
        // snapshotted under the session's lock instead.
        let (outcome, epoch) = match Arc::try_unwrap(slot) {
            Ok(mutex) => {
                let managed = mutex.into_inner();
                let reason = managed.halted.unwrap_or(HaltReason::ClosedByClient);
                (managed.session.outcome(reason), managed.epoch())
            }
            Err(slot) => {
                let managed = slot.lock();
                let reason = managed.halted.unwrap_or(HaltReason::ClosedByClient);
                (managed.session.outcome(reason), managed.epoch())
            }
        };
        // Unpin last: a superseded epoch with no other pinned session is
        // retired right here.
        self.store.unpin(epoch);
        self.metrics.sessions_closed.inc();
        self.metrics.sessions_halted(outcome.halt_reason).inc();
        if outcome.learned.is_none() {
            self.metrics.sessions_unlearned.inc();
        }
        self.metrics.active_sessions.set(self.active_count() as u64);
        self.session_metrics
            .interactions_per_session
            .record(outcome.stats.interactions as u64);
        self.store
            .metrics_registry()
            .event_with("session_close", || {
                vec![
                    ("session".to_string(), id.raw().to_string()),
                    ("epoch".to_string(), epoch.to_string()),
                    ("reason".to_string(), format!("{:?}", outcome.halt_reason)),
                    (
                        "interactions".to_string(),
                        outcome.stats.interactions.to_string(),
                    ),
                ]
            });
        span.stop();
        Ok(outcome)
    }

    /// Number of currently open sessions.
    fn active_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// A snapshot of the aggregate throughput counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            sessions_opened: self.opened.load(Ordering::Relaxed),
            sessions_closed: self.closed.load(Ordering::Relaxed),
            sessions_completed: self.completed.load(Ordering::Relaxed),
            interactions: self.interactions.load(Ordering::Relaxed),
            active_sessions: self.active_count(),
            publishes: self.store.publish_count(),
            current_epoch: self.store.current_epoch(),
            live_epochs: self.store.live_epochs(),
        }
    }

    /// The telemetry registry this manager records into (disabled unless the
    /// founding core was built with [`GpsBuilder::metrics`]).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        self.store.metrics_registry()
    }

    /// A point-in-time snapshot of every registered metric and buffered
    /// audit event (empty under a disabled registry).  The active-sessions
    /// gauge is refreshed before the snapshot is taken.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.active_sessions.set(self.active_count() as u64);
        self.store.metrics_registry().snapshot()
    }

    /// The current metrics in Prometheus text exposition format (empty under
    /// a disabled registry).
    pub fn metrics_text(&self) -> String {
        self.metrics().to_prometheus_text()
    }

    /// The current metrics and audit events as a JSON document (an empty
    /// document under a disabled registry).
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// Serves one full interactive session per goal query, fanning the
    /// sessions out over `workers` scoped threads (clamped to `1..=goals`;
    /// a single worker is the calling thread itself — no thread is spawned
    /// to wait for), and returns the outcomes in input order.
    ///
    /// Each worker pulls the next unserved goal off a shared cursor, opens a
    /// session for it, runs it to completion and closes it — so all `workers`
    /// sessions are in flight at once over the one shared core.  The first
    /// error (an unparsable goal) is returned after all workers finish;
    /// sessions of the remaining goals still run.
    pub fn serve(&self, goals: &[String], workers: usize) -> Result<Vec<SessionOutcome>, GpsError> {
        let workers = workers.clamp(1, goals.len().max(1));
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<SessionOutcome, GpsError>>>> =
            goals.iter().map(|_| Mutex::new(None)).collect();
        let worker = || loop {
            let next = cursor.fetch_add(1, Ordering::Relaxed);
            if next >= goals.len() {
                break;
            }
            let outcome = self.serve_one(&goals[next]);
            *slots[next].lock() = Some(outcome);
        };
        if workers == 1 {
            // Nothing to overlap: the one worker is the calling thread.
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every goal was served"))
            .collect()
    }

    /// Opens, runs and closes one session for `goal_syntax`.
    pub fn serve_one(&self, goal_syntax: &str) -> Result<SessionOutcome, GpsError> {
        let id = self.open(goal_syntax)?;
        self.run_to_completion(id)?;
        self.close(id)
    }

    fn slot(&self, id: SessionId) -> Result<Arc<Mutex<ManagedSession>>, GpsError> {
        self.sessions
            .lock()
            .get(&id.raw())
            .cloned()
            .ok_or(GpsError::UnknownSession(id.raw()))
    }
}

/// The name the session table had while its worker-pool driver was a
/// wrapper type of its own.  Kept because `benchmark/src/service.rs:101`
/// (`GpsService::over(..).serve(..)`), which an ordinary PR may not edit,
/// names it; new code names [`SessionManager`].
pub type GpsService = SessionManager;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
    use gps_interactive::session::SessionConfig;

    fn core() -> EngineCore {
        Engine::builder(figure1_graph().0).build()
    }

    /// Sessions that keep running after reaching the goal.
    fn running() -> SessionConfig {
        SessionConfig {
            halt: gps_interactive::halt::HaltConfig {
                max_interactions: 200,
                stop_on_goal: false,
            },
            ..SessionConfig::default()
        }
    }

    #[test]
    fn open_step_close_lifecycle() {
        let manager = SessionManager::new(core());
        let id = manager.open(MOTIVATING_QUERY).unwrap();
        assert_eq!(manager.active_count(), 1);
        let reason = loop {
            match manager.step(id).unwrap() {
                SessionStatus::Running { .. } => continue,
                SessionStatus::Halted(reason) => break reason,
            }
        };
        assert!(reason.is_convergence());
        // Stepping a halted session is a no-op.
        assert_eq!(manager.step(id).unwrap(), SessionStatus::Halted(reason));
        let outcome = manager.close(id).unwrap();
        let stats = &outcome.stats;
        assert!(stats.interactions >= 1);
        assert_eq!(outcome.halt_reason, reason);
        assert!(outcome.learned.is_some());
        assert_eq!(manager.active_count(), 0);
        let totals = manager.stats();
        assert_eq!(totals.sessions_opened, 1);
        assert_eq!(totals.sessions_closed, 1);
        assert_eq!(totals.sessions_completed, 1);
        assert_eq!(totals.interactions, stats.interactions as u64);
    }

    #[test]
    fn unknown_and_closed_sessions_error() {
        let manager = SessionManager::new(core());
        let bogus = SessionId(42);
        assert!(matches!(
            manager.step(bogus),
            Err(GpsError::UnknownSession(42))
        ));
        let id = manager.open(MOTIVATING_QUERY).unwrap();
        manager.close(id).unwrap();
        assert!(matches!(
            manager.session_epoch(id),
            Err(GpsError::UnknownSession(_))
        ));
        assert!(matches!(
            manager.close(id),
            Err(GpsError::UnknownSession(_))
        ));
    }

    #[test]
    fn closing_a_running_session_reports_closed_by_client() {
        // No stop-on-goal: after one step the session is genuinely still
        // running, so the close is an early client teardown.
        let (graph, _) = figure1_graph();
        let core = Engine::builder(graph).session_config(running()).build();
        let manager = SessionManager::new(core);
        let id = manager.open(MOTIVATING_QUERY).unwrap();
        manager.step(id).unwrap();
        let outcome = manager.close(id).unwrap();
        assert_eq!(outcome.halt_reason, HaltReason::ClosedByClient);
        assert_eq!(outcome.stats.interactions, 1);
        let totals = manager.stats();
        assert_eq!(totals.sessions_completed, 0, "never halted on its own");
        assert_eq!(totals.sessions_closed, 1);
    }

    #[test]
    fn unparsable_goal_is_rejected_at_open() {
        let manager = SessionManager::new(core());
        assert!(matches!(manager.open("(bus"), Err(GpsError::Parse(_))));
        assert_eq!(manager.active_count(), 0);
    }

    #[test]
    fn serve_returns_outcomes_in_input_order() {
        let service = SessionManager::new(core());
        let goals = vec![
            MOTIVATING_QUERY.to_string(),
            "cinema".to_string(),
            MOTIVATING_QUERY.to_string(),
            "restaurant".to_string(),
        ];
        let outcomes = service.serve(&goals, 3).unwrap();
        assert_eq!(outcomes.len(), goals.len());
        assert_eq!(
            outcomes[0].transcript, outcomes[2].transcript,
            "same goal, same transcript, regardless of which worker ran it"
        );
        let stats = service.stats();
        assert_eq!(stats.sessions_opened, 4);
        assert_eq!(stats.sessions_closed, 4);
        assert_eq!(stats.sessions_completed, 4);
        assert_eq!(stats.active_sessions, 0);
        let total: usize = outcomes.iter().map(|o| o.stats.interactions).sum();
        assert_eq!(stats.interactions, total as u64);
    }

    #[test]
    fn serve_surfaces_parse_errors_without_poisoning_other_goals() {
        let service = SessionManager::new(core());
        let goals = vec![MOTIVATING_QUERY.to_string(), "(bus".to_string()];
        let result = service.serve(&goals, 2);
        assert!(matches!(result, Err(GpsError::Parse(_))));
        // The valid goal's session still ran to completion.
        let stats = service.stats();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.sessions_closed, 1);
    }

    #[test]
    fn updates_interleave_with_sessions() {
        // Open a session, publish an update mid-flight, open another: the
        // first stays pinned to epoch 0, the second observes epoch 1, and
        // closing the first retires its superseded epoch.
        let (graph, _) = figure1_graph();
        let core = Engine::builder(graph).session_config(running()).build();
        let service = SessionManager::new(core);
        let first = service.open(MOTIVATING_QUERY).unwrap();
        service.step(first).unwrap();
        assert_eq!(service.session_epoch(first).unwrap(), 0);

        let report = service
            .update(
                crate::versioned::GraphUpdate::new()
                    .add_node("C9")
                    .add_edge("N5", "cinema", "C9"),
            )
            .unwrap();
        assert_eq!(report.epoch, 1);
        let stats = service.stats();
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.current_epoch, 1);
        assert_eq!(stats.live_epochs, 2, "epoch 0 still pinned by `first`");

        let second = service.open(MOTIVATING_QUERY).unwrap();
        assert_eq!(service.session_epoch(second).unwrap(), 1);
        service.step(first).unwrap();
        service.close(first).unwrap();
        assert_eq!(service.stats().live_epochs, 1, "epoch 0 retired on close");
        service.close(second).unwrap();
        // The new snapshot is what the service core now serves.
        assert!(service.core().snapshot().node_by_name("C9").is_some());
    }

    #[test]
    fn open_failure_does_not_leak_a_pin() {
        let service = SessionManager::new(core());
        assert!(service.open("(bus").is_err());
        service
            .update(crate::versioned::GraphUpdate::new().add_node("Z1"))
            .unwrap();
        assert_eq!(
            service.stats().live_epochs,
            1,
            "epoch 0 had no pins left and was retired by the publish"
        );
    }

    #[test]
    fn sessions_share_one_core_allocation() {
        let service = SessionManager::new(core());
        let index = service.core().shared_index();
        assert!(service.core().index_memory_bytes() > 0);
        // Serving sessions adds no index clones: the Arc count stays at
        // (core) + (evaluator) + (this probe).
        let before = Arc::strong_count(&index);
        service
            .serve(&vec![MOTIVATING_QUERY.to_string(); 3], 3)
            .unwrap();
        assert_eq!(Arc::strong_count(&index), before);
        // And the shared cache served every session: repeated goals hit.
        let (hits, _) = service.core().eval_cache().stats();
        assert!(hits > 0);
    }
}
