//! The traced run's service: every operation of `SessionManager` and
//! `VersionedStore` recomposed from the public functions of the crates
//! beneath them, with a span around each call.
//!
//! * Sessions are bare `Session`s over a cache whose evaluator, strategy and
//!   user are the decorators of [`crate::trace`].
//! * An update is `DeltaGraph::apply_all → delta → compact →
//!   BatchEvaluator::apply_delta → EvalCache::migrate_answers →
//!   inherit_words → GraphStore::commit`, and the snapshot it yields is
//!   asserted byte-identical to the one the library's own publish yields.
//!
//! Nothing here is measured for the end-to-end metrics; it only says where
//! the measured time goes.

use crate::service::{configure, render, Closed, Fallible, Published, Service};
use crate::trace::{PlanCounts, TracedEvaluator, TracedStore, TracedStrategy, TracedUser, Tracer};
use crate::workload::Corpus;
use gps_core::{EngineCore, GraphUpdate, SessionStatus, StrategyChoice, VersionedStore};
use gps_exec::BatchEvaluator;
use gps_graph::{CsrGraph, DeltaGraph, Graph, UpdateOp};
use gps_interactive::pruning::PruningState;
use gps_interactive::{
    DegreeStrategy, HaltReason, RandomStrategy, Session, SessionConfig, SessionOutcome,
    SimulatedUser, Strategy,
};
use gps_learner::{ExampleSet, Label};
use gps_rpq::{EvalCache, EvalHandle, NegativeCoverage, PathQuery, QueryAnswer};
use gps_store::{encode_snapshot, FileStore, GraphStore, RecoveredState};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One epoch of the recomposed store.
struct Epoch {
    snapshot: Arc<CsrGraph>,
    engine: BatchEvaluator,
    cache: Arc<EvalCache>,
    /// Open sessions pinned here.
    pins: usize,
}

struct ShadowSession {
    session: Session<'static, CsrGraph>,
    user: TracedUser<SimulatedUser>,
    strategy: TracedStrategy,
    epoch: u64,
    halted: Option<HaltReason>,
}

/// Hits, misses and evictions of every cache the run retired or still holds.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Which proposal strategy a session runs: the configured one, or one of the
/// two the paper compares it with.
#[derive(Debug, Clone, Copy)]
pub enum Proposal {
    Configured,
    Degree,
    Random(u64),
}

pub struct ShadowService {
    tracer: Arc<Tracer>,
    plans: Arc<PlanCounts>,
    session_config: SessionConfig,
    strategy: StrategyChoice,
    pub proposal: Proposal,
    latest: Epoch,
    /// Superseded epochs that still have pinned sessions.
    superseded: Vec<Epoch>,
    sessions: HashMap<u64, ShadowSession>,
    next_session: u64,
    retired: CacheCounts,
    /// Times a replayed session's hypothesis changed between interactions.
    pub hypothesis_changes: usize,
    /// The durable seam and the publishes since its last checkpoint.
    store: Option<(TracedStore<FileStore>, u64)>,
    checkpoint_every: u64,
    /// The library's own store, fed the same updates, while identity is
    /// still being asserted.
    mirror: Option<VersionedStore>,
    mirrored_updates: usize,
}

/// Every update is mirrored on corpora the naive oracle can handle; on the
/// large one a second store doubles the memory and the publish work, so only
/// the first few are.
const MIRRORED_UPDATES_LARGE: usize = 2;

fn traced_cache(
    snapshot: &Arc<CsrGraph>,
    engine: &BatchEvaluator,
    tracer: &Arc<Tracer>,
    plans: &Arc<PlanCounts>,
) -> EvalCache {
    EvalCache::with_shared_evaluator(
        Arc::clone(snapshot),
        Box::new(TracedEvaluator {
            inner: engine.clone(),
            tracer: Arc::clone(tracer),
            plans: Arc::clone(plans),
        }),
    )
}

impl ShadowService {
    /// Builds the recomposed service over `corpus`: the index, the first
    /// cache and, with `store_dir`, a `FileStore` holding the base
    /// checkpoint — what `SessionManager::new` / `open_durable` do.
    pub fn new(corpus: Corpus, tracer: Arc<Tracer>, store_dir: Option<PathBuf>) -> Fallible<Self> {
        let snapshot = match corpus {
            Corpus::Csr(csr) => csr,
            Corpus::Graph(graph) => {
                let _span = tracer.span("graph.csr_build");
                Arc::new(CsrGraph::from_graph(&graph))
            }
        };
        // The configuration comes from the same builder the measured run
        // uses; the core itself is only kept as the mirror.
        let core: EngineCore = configure(Graph::new()).build_core_over(Arc::clone(&snapshot));
        let engine = {
            let _span = tracer.span("exec.index_build");
            BatchEvaluator::from_csr_sharded(&snapshot, 1)
                .with_planner_config(core.planner_config())
        };
        let plans = Arc::new(PlanCounts::default());
        let cache = Arc::new(traced_cache(&snapshot, &engine, &tracer, &plans));
        let store = match store_dir {
            Some(dir) => {
                let (file_store, recovered) = FileStore::open(dir).map_err(render)?;
                if recovered.snapshot.is_some() {
                    return Err("the scratch store directory was not fresh".to_string());
                }
                let store = TracedStore {
                    inner: file_store,
                    tracer: Arc::clone(&tracer),
                };
                store.checkpoint(&snapshot, &[]).map_err(render)?;
                Some((store, 0))
            }
            None => None,
        };
        let mirrored_updates = if snapshot.node_count() <= crate::oracle::NAIVE_NODE_LIMIT {
            usize::MAX
        } else {
            MIRRORED_UPDATES_LARGE
        };
        Ok(Self {
            tracer,
            plans,
            session_config: core.session_config().clone(),
            strategy: core.strategy(),
            proposal: Proposal::Configured,
            latest: Epoch {
                snapshot,
                engine,
                cache,
                pins: 0,
            },
            superseded: Vec::new(),
            sessions: HashMap::new(),
            next_session: 1,
            retired: CacheCounts::default(),
            hypothesis_changes: 0,
            store,
            checkpoint_every: crate::service::CHECKPOINT_EVERY,
            mirror: Some(VersionedStore::new(core)),
            mirrored_updates,
        })
    }

    pub fn plans(&self) -> &PlanCounts {
        &self.plans
    }

    /// Builds the word snapshot every session's first refresh asks for (the
    /// path bound the learner, coverage and pruning share).
    pub fn build_words(&self) {
        let _span = self.tracer.span("rpq.words.build");
        self.latest
            .cache
            .bounded_words(self.session_config.path_bound);
    }

    /// Counts over every cache of the run, retired or live.
    pub fn cache_counts(&self) -> CacheCounts {
        let mut counts = self.retired;
        for epoch in self.superseded.iter().chain([&self.latest]) {
            add_counts(&mut counts, &epoch.cache);
        }
        counts
    }

    /// Closes the durable store, releasing its directory lock.
    pub fn close_store(&mut self) {
        self.store = None;
    }

    fn epoch_mut(&mut self, epoch: u64) -> &mut Epoch {
        if self.latest.snapshot.epoch() == epoch {
            &mut self.latest
        } else {
            self.superseded
                .iter_mut()
                .find(|e| e.snapshot.epoch() == epoch)
                .expect("a pinned epoch stays live")
        }
    }

    /// Retires superseded epochs nothing is pinned to, as
    /// `VersionedStore::unpin` and `publish` do.
    fn retire_unpinned(&mut self) {
        let retired = &mut self.retired;
        self.superseded.retain(|epoch| {
            if epoch.pins > 0 {
                return true;
            }
            add_counts(retired, &epoch.cache);
            epoch.cache.retire();
            false
        });
    }
}

fn add_counts(counts: &mut CacheCounts, cache: &EvalCache) {
    let (hits, misses) = cache.stats();
    counts.hits += hits;
    counts.misses += misses;
    counts.evictions += cache.evictions();
}

impl Service for ShadowService {
    fn open(&mut self, goal: &str) -> Fallible<u64> {
        let id = self.next_session;
        self.tracer.set_request(id);
        let _span = self.tracer.span("core.open");
        let epoch = &mut self.latest;
        let handle = EvalHandle::from_cache(Arc::clone(&epoch.cache));
        let goal = PathQuery::parse(goal, epoch.snapshot.labels()).map_err(render)?;
        let user = SimulatedUser::with_exec(goal, handle.clone());
        let session = Session::with_shared_exec(
            Arc::clone(&epoch.snapshot),
            self.session_config.clone(),
            handle,
        );
        let strategy: Box<dyn Strategy<CsrGraph> + Send> = match self.proposal {
            Proposal::Configured => self.strategy.instantiate::<CsrGraph>(),
            Proposal::Degree => Box::new(DegreeStrategy),
            Proposal::Random(seed) => Box::new(RandomStrategy::seeded(seed)),
        };
        epoch.pins += 1;
        self.next_session += 1;
        self.sessions.insert(
            id,
            ShadowSession {
                session,
                user: TracedUser {
                    inner: user,
                    tracer: Arc::clone(&self.tracer),
                },
                strategy: TracedStrategy {
                    inner: strategy,
                    tracer: Arc::clone(&self.tracer),
                },
                epoch: epoch.snapshot.epoch(),
                halted: None,
            },
        );
        Ok(id)
    }

    fn step(&mut self, session: u64) -> Fallible<SessionStatus> {
        let s = self.sessions.get_mut(&session).ok_or("unknown session")?;
        if s.halted.is_none() {
            self.tracer.set_request(session);
            let _span = self.tracer.span("interactive.step");
            s.halted = s.session.step(&mut s.strategy, &mut s.user);
        }
        Ok(match s.halted {
            Some(reason) => SessionStatus::Halted(reason),
            None => SessionStatus::Running {
                interactions: s.session.stats().interactions,
            },
        })
    }

    fn close(&mut self, session: u64) -> Fallible<Closed> {
        let s = self.sessions.remove(&session).ok_or("unknown session")?;
        self.tracer.set_request(session);
        let tracer = Arc::clone(&self.tracer);
        let (closed, cache) = {
            let _span = tracer.span("core.close");
            let outcome = s
                .session
                .outcome(s.halted.unwrap_or(HaltReason::ClosedByClient));
            let epoch = self.epoch_mut(s.epoch);
            epoch.pins -= 1;
            let closed = Closed {
                outcome,
                snapshot: Arc::clone(&epoch.snapshot),
            };
            (closed, Arc::clone(&epoch.cache))
        };
        // Before the epoch can retire, while its cache still holds what the
        // session evaluated: the transcript goes back through the learner
        // and the pruning refresh, which have no seam to decorate.
        self.hypothesis_changes += replay_session(
            &self.tracer,
            &closed.snapshot,
            &EvalHandle::from_cache(cache),
            &self.session_config,
            &closed.outcome,
        )?;
        self.retire_unpinned();
        Ok(closed)
    }

    fn update(&mut self, ops: Vec<UpdateOp>) -> Fallible<Published> {
        let request = self.latest.snapshot.epoch() + 1;
        self.tracer.set_request(request);
        let mut published = Published::default();
        {
            let tracer = Arc::clone(&self.tracer);
            let _publish = tracer.span("core.publish");
            let staged = match &self.store {
                Some((store, _)) => Some(store.append_staged(&ops).map_err(render)?),
                None => None,
            };
            let (delta, snapshot) = {
                let apply = tracer.span("graph.apply");
                let mut overlay = DeltaGraph::new(Arc::clone(&self.latest.snapshot));
                overlay.apply_all(&ops).map_err(render)?;
                let delta = overlay.delta();
                drop(apply);
                let _span = tracer.span("graph.compact");
                (delta, Arc::new(overlay.compact()))
            };
            let engine = {
                let _span = tracer.span("exec.index_patch");
                self.latest.engine.apply_delta(&snapshot, &delta)
            };
            let cache = traced_cache(&snapshot, &engine, &self.tracer, &self.plans);
            let migration = {
                let _span = tracer.span("rpq.migrate");
                cache.migrate_answers(&self.latest.cache, &delta)
            };
            {
                let _span = tracer.span("rpq.inherit_words");
                cache.inherit_words(&self.latest.cache, &delta);
            }
            published.epoch = snapshot.epoch();
            published.carried = migration.carried;
            published.reseeded = migration.reseeded;
            published.delete_reseeded = migration.delete_reseeded;
            published.recomputed = migration.recomputed;
            let mut checkpoint_due = false;
            if let (Some((store, since_checkpoint)), Some(seq)) = (&mut self.store, staged) {
                let receipt = store
                    .commit(snapshot.epoch(), seq, seq, ops.len() as u32)
                    .map_err(render)?;
                published.wal_bytes = receipt.wal_bytes;
                *since_checkpoint += 1;
                checkpoint_due = *since_checkpoint >= self.checkpoint_every;
            }
            {
                // The swap, and the superseded epoch's snapshot, index and
                // cache freed unless a session still pins them.
                let _span = tracer.span("core.retire");
                let next = Epoch {
                    snapshot,
                    engine,
                    cache: Arc::new(cache),
                    pins: 0,
                };
                let previous = std::mem::replace(&mut self.latest, next);
                self.superseded.push(previous);
                self.retire_unpinned();
            }
            if let (true, Some((store, since_checkpoint))) = (checkpoint_due, &mut self.store) {
                let receipt = store
                    .checkpoint(&self.latest.snapshot, &[])
                    .map_err(render)?;
                published.checkpoint_bytes = receipt.bytes;
                *since_checkpoint = 0;
            }
        }
        published.live_epochs = 1 + self.superseded.len();

        // Outside the spans: the recomposition must yield, byte for byte,
        // the snapshot the library's own publish yields.
        if let Some(mirror) = &self.mirror {
            mirror
                .update(GraphUpdate::from_ops(ops))
                .map_err(|e| format!("mirror publish: {e}"))?;
            if encode_snapshot(mirror.latest().snapshot()) != encode_snapshot(&self.latest.snapshot)
            {
                return Err(format!(
                    "the recomposed publish of epoch {} differs from the library's",
                    published.epoch
                ));
            }
            self.mirrored_updates -= 1;
            if self.mirrored_updates == 0 {
                self.mirror = None;
            }
        }
        Ok(published)
    }

    fn read(&mut self, queries: &[PathQuery]) -> Vec<Arc<QueryAnswer>> {
        let _span = self.tracer.span("core.read");
        queries
            .iter()
            .map(|query| {
                self.latest
                    .cache
                    .evaluate_compiled(query.regex(), query.dfa())
            })
            .collect()
    }

    fn evaluate(&mut self, syntax: &str) -> Fallible<QueryAnswer> {
        let _span = self.tracer.span("core.evaluate");
        let query = PathQuery::parse(syntax, self.latest.snapshot.labels()).map_err(render)?;
        Ok((*self.latest.cache.evaluate(query.regex())).clone())
    }

    fn snapshot(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.latest.snapshot)
    }
}

/// Replays a closed session's transcript through `Learner::learn_with` and
/// `PruningState::refresh_with` in the order `Session::step` calls them, and
/// returns how often the hypothesis changed.  The replay must end on the
/// hypothesis the session ended on.
fn replay_session(
    tracer: &Tracer,
    graph: &Arc<CsrGraph>,
    exec: &EvalHandle,
    config: &SessionConfig,
    outcome: &SessionOutcome,
) -> Fallible<usize> {
    let _replay = tracer.span("bench.replay");
    let graph = graph.as_ref();
    let mut examples = ExampleSet::new();
    let mut coverage = NegativeCoverage::new(config.path_bound);
    let mut pruning = PruningState::new(config.path_bound);
    let mut hypothesis = None;
    let mut changes = 0;
    let mut refresh = |examples: &ExampleSet, coverage: &NegativeCoverage| {
        let _span = tracer.span("interactive.refresh");
        pruning.refresh_with(graph, examples, coverage, exec);
    };
    for record in &outcome.transcript {
        refresh(&examples, &coverage);
        match (record.label, &record.validated_word) {
            (Label::Positive, Some(word)) => examples.set_validated_path(record.node, word.clone()),
            (Label::Positive, None) => {
                examples.add_positive(record.node);
            }
            (Label::Negative, _) => {
                examples.add_negative(record.node);
                let words = exec.bounded_words(coverage.bound());
                coverage.add_negative_with_words(record.node, &words[record.node.index()]);
            }
        }
        if examples.positive_count() > 0 {
            let learned = {
                let _span = tracer.span("learner.learn");
                config.learner.learn_with(graph, &examples, &coverage, exec)
            };
            if let Ok(learned) = learned {
                if hypothesis.as_ref() != Some(&learned.regex) {
                    changes += 1;
                }
                hypothesis = Some(learned.regex);
            }
        }
        refresh(&examples, &coverage);
    }
    if hypothesis.as_ref() != outcome.learned.as_ref().map(|learned| &learned.regex) {
        return Err("the replayed transcript ends on another hypothesis".to_string());
    }
    Ok(changes)
}

/// Recovery, recomposed: `FileStore::open` decodes the checkpoint and scans
/// the log, then every committed batch goes through the same delta steps as
/// a live publish.  Returns the recovered snapshot's bytes.
pub fn replay_recovery(dir: &Path, tracer: &Arc<Tracer>) -> Fallible<(Vec<u8>, usize)> {
    let (store, recovered) = {
        let _span = tracer.span("store.recover.decode");
        FileStore::open(dir).map_err(render)?
    };
    let RecoveredState {
        snapshot, batches, ..
    } = recovered;
    let mut snapshot = Arc::new(snapshot.ok_or("the directory holds no checkpoint")?);
    let replayed = {
        let _span = tracer.span("store.recover.replay");
        let plans = Arc::new(PlanCounts::default());
        let mut engine = BatchEvaluator::from_csr_sharded(&snapshot, 1);
        let mut cache = traced_cache(&snapshot, &engine, tracer, &plans);
        let mut replayed = 0;
        for batch in &batches {
            // Batches a checkpoint already folded in stay in the log when a
            // crash interrupts its truncation.
            if batch.epoch <= snapshot.epoch() {
                continue;
            }
            let mut overlay = DeltaGraph::new(Arc::clone(&snapshot));
            overlay.apply_all(&batch.ops).map_err(render)?;
            let delta = overlay.delta();
            let next = Arc::new(overlay.compact());
            let patched = engine.apply_delta(&next, &delta);
            let next_cache = traced_cache(&next, &patched, tracer, &plans);
            next_cache.migrate_answers(&cache, &delta);
            next_cache.inherit_words(&cache, &delta);
            (snapshot, engine, cache) = (next, patched, next_cache);
            replayed += 1;
        }
        if replayed > 0 {
            store.checkpoint(&snapshot, &[]).map_err(render)?;
        }
        replayed
    };
    Ok((encode_snapshot(&snapshot), replayed))
}
