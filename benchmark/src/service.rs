//! The system under test as a workload sees it.
//!
//! A workload is written once against [`Service`].  The measured run drives
//! [`RealService`] — the library's own `SessionManager`, untouched.  The
//! traced run drives `shadow::ShadowService`, which recomposes the same
//! operations from each crate's public functions with spans around them.

use gps_core::{
    Engine, EvalMode, GpsBuilder, GraphUpdate, SessionId, SessionManager, SessionStatus,
};
use gps_graph::{CsrGraph, Graph, UpdateOp};
use gps_interactive::SessionOutcome;
use gps_rpq::{PathQuery, QueryAnswer};
use gps_store::FileStore;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Errors are rendered on the spot: a workload only counts and prints them.
pub type Fallible<T> = Result<T, String>;

pub fn render<E: std::fmt::Display>(error: E) -> String {
    error.to_string()
}

/// The one configuration every workload runs: frontier evaluation, a
/// 24-interaction budget, and every other default (informative-paths
/// strategy, 1,024 cached answers, 8 word snapshots, a checkpoint every 32
/// publishes, telemetry disabled).
pub fn configure(graph: Graph) -> GpsBuilder {
    Engine::builder(graph)
        .eval_mode(EvalMode::Frontier)
        .max_interactions(24)
}

/// Publishes between checkpoints under [`configure`].
pub const CHECKPOINT_EVERY: u64 = 32;

/// A closed session and the snapshot of the epoch it ran on.
pub struct Closed {
    pub outcome: SessionOutcome,
    pub snapshot: Arc<CsrGraph>,
}

/// What one acknowledged update did, from the counts the system returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Published {
    pub epoch: u64,
    pub wal_bytes: u64,
    /// Size of the checkpoint this update triggered, 0 when it wrote none.
    pub checkpoint_bytes: u64,
    pub carried: usize,
    pub reseeded: usize,
    pub delete_reseeded: usize,
    pub recomputed: usize,
    pub live_epochs: usize,
}

pub trait Service {
    fn open(&mut self, goal: &str) -> Fallible<u64>;
    fn step(&mut self, session: u64) -> Fallible<SessionStatus>;
    fn close(&mut self, session: u64) -> Fallible<Closed>;
    fn update(&mut self, ops: Vec<UpdateOp>) -> Fallible<Published>;
    /// Evaluates already-compiled queries through the latest epoch's cache.
    fn read(&mut self, queries: &[PathQuery]) -> Vec<Arc<QueryAnswer>>;
    /// Parses and evaluates `syntax` on the latest epoch.
    fn evaluate(&mut self, syntax: &str) -> Fallible<QueryAnswer>;
    /// The latest epoch's snapshot.
    fn snapshot(&self) -> Arc<CsrGraph>;
}

/// The library's `SessionManager`, in memory or over a `FileStore`.
pub struct RealService {
    manager: SessionManager,
    /// Open sessions and the snapshot each was pinned to at `open`.
    open: HashMap<u64, (SessionId, Arc<CsrGraph>)>,
    /// The store directory when durable; checkpoint sizes are read from it.
    dir: Option<PathBuf>,
}

impl RealService {
    pub fn in_memory(manager: SessionManager) -> Self {
        Self {
            manager,
            open: HashMap::new(),
            dir: None,
        }
    }

    pub fn durable(manager: SessionManager, dir: PathBuf) -> Self {
        Self {
            manager,
            open: HashMap::new(),
            dir: Some(dir),
        }
    }

    /// `GpsService::serve` of one session per goal on `workers` threads over
    /// this service's store: sessions closed per second of wall time.
    pub fn served_sessions_per_s(&self, goals: &[String], workers: usize) -> Fallible<f64> {
        let service = gps_core::GpsService::over(Arc::clone(self.manager.store()));
        let started = std::time::Instant::now();
        let outcomes = service.serve(goals, workers).map_err(render)?;
        Ok(outcomes.len() as f64 / started.elapsed().as_secs_f64())
    }
}

impl Service for RealService {
    fn open(&mut self, goal: &str) -> Fallible<u64> {
        let id = self.manager.open(goal).map_err(render)?;
        // One client, one thread: nothing can publish between the open and
        // this read, so this is the snapshot the session is pinned to.
        self.open
            .insert(id.raw(), (id, self.manager.core().shared_snapshot()));
        Ok(id.raw())
    }

    fn step(&mut self, session: u64) -> Fallible<SessionStatus> {
        let (id, _) = self.open.get(&session).ok_or("unknown session")?;
        self.manager.step(*id).map_err(render)
    }

    fn close(&mut self, session: u64) -> Fallible<Closed> {
        let (id, snapshot) = self.open.remove(&session).ok_or("unknown session")?;
        let outcome = self.manager.close(id).map_err(render)?;
        Ok(Closed { outcome, snapshot })
    }

    fn update(&mut self, ops: Vec<UpdateOp>) -> Fallible<Published> {
        let report = self
            .manager
            .update(GraphUpdate::from_ops(ops))
            .map_err(render)?;
        if let Some(error) = &report.durability.checkpoint_error {
            return Err(format!("checkpoint failed: {error}"));
        }
        let checkpoint_bytes = match (&self.dir, report.durability.checkpointed) {
            (Some(dir), true) => std::fs::metadata(FileStore::checkpoint_path(dir, report.epoch))
                .map_err(render)?
                .len(),
            _ => 0,
        };
        Ok(Published {
            epoch: report.epoch,
            wal_bytes: report.durability.wal_bytes,
            checkpoint_bytes,
            carried: report.carried_answers,
            reseeded: report.reseeded_answers,
            delete_reseeded: report.delete_reseeded_answers,
            recomputed: report.recomputed_answers,
            live_epochs: self.manager.stats().live_epochs,
        })
    }

    fn read(&mut self, queries: &[PathQuery]) -> Vec<Arc<QueryAnswer>> {
        let core = self.manager.core();
        queries
            .iter()
            .map(|query| {
                core.eval_cache()
                    .evaluate_compiled(query.regex(), query.dfa())
            })
            .collect()
    }

    fn evaluate(&mut self, syntax: &str) -> Fallible<QueryAnswer> {
        self.manager.core().evaluate(syntax).map_err(render)
    }

    fn snapshot(&self) -> Arc<CsrGraph> {
        self.manager.core().shared_snapshot()
    }
}
