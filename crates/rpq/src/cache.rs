//! Memoization of query evaluations.
//!
//! During an interactive session the same candidate queries are evaluated
//! repeatedly against the same (immutable) graph — after every interaction
//! the learner re-checks consistency and the halt condition re-evaluates the
//! current hypothesis.  [`EvalCache`] memoizes answers keyed by the query's
//! regular expression, behind a lock so every session of a service shares
//! one cache across worker threads.
//!
//! The cache is **bounded**: entries carry a last-used tick and once
//! [`capacity`](EvalCache::capacity) is reached the least-recently-used entry
//! is evicted, so workload replay over many distinct queries cannot grow the
//! cache without limit.  Evaluation itself is delegated to a pluggable
//! [`DfaEvaluator`], so the same cache serves the naive reference evaluator
//! and the `gps-exec` frontier engine.
//!
//! Across a publish the cache is **migrated**, not rebuilt
//! ([`EvalCache::migrate_answers`]): an answer the delta cannot change is
//! carried, and one it can is left *pending* — its last resolved answer and
//! seed, plus a position in the cache's log of deltas — and resumed by the
//! first read that asks for it.  A publish therefore does pointer work per
//! entry — it copies the old hash table as it is, without hashing an
//! expression again, and rewrites the slots in place — and only answers
//! someone reads again pay their resume.
//!
//! The log is a window: the deltas from the oldest pending entry's epoch to
//! the cache's, oldest first.  A publish copies the live part of the old
//! cache's window (an `Arc` per delta) and pushes its own delta.  A first
//! read of an entry the last publish touched resumes across that publish's
//! delta as it is; an entry pending for longer composes the slice from its
//! position ([`GraphDelta::composed`]).  Once nothing is pending the window
//! is empty.

use crate::eval::{DfaEvaluator, EvalResume, NaiveEvaluator, QueryAnswer};
use crate::words::WordIndex;
use gps_automata::{Alphabet, Dfa, Regex};
use gps_graph::{CsrGraph, GraphDelta, LabelId, NodeId, Path};
use gps_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Default maximum number of cached answers.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Changed edges a pending entry may fall behind before a publish drops it
/// to a cold recompute (`fallback_pending`): past this, the composed delta
/// its first read would resume across — and the log that must hold it — is
/// no longer small.
///
/// No workload reaches it.  Every `benchmark/` publish changes 4 edges, so
/// 65,536 edges are 16,384 publishes behind, while a whole 15-second run
/// makes about 290 publishes on `publish-1m` and 1,200 on `live-2k-durable`
/// (under 5,000 changed edges; a reopened store starts a fresh cache and
/// log).
const PENDING_EDGE_BUDGET: u64 = 1 << 16;

/// What a cache entry knows about its query, independent of any epoch:
/// `Arc`-shared by every epoch's cache the entry migrates into.
#[derive(Debug)]
struct Compiled {
    /// The compiled automaton the answer is computed from, kept so a
    /// touched entry can be re-derived without reparsing the expression.
    dfa: Dfa,
    /// The labels the query's DFA can ever read — the per-entry alphabet
    /// fingerprint migration compares against a delta's touched labels to
    /// prove the entry unaffected (Tier 1).
    alphabet: Alphabet,
    /// Whether the query's language contains the empty word — the membership
    /// a node with no alphabet-relevant out-edges has, i.e. the fill value
    /// when a carried answer is extended over nodes a label-disjoint delta
    /// added.
    nullable: bool,
}

impl Compiled {
    /// Whether a delta touching `labels` can change the query's answer.
    fn reads_any(&self, labels: &BTreeSet<LabelId>) -> bool {
        labels.iter().any(|&label| self.alphabet.contains(label))
    }
}

/// An answer valid on its cache's snapshot.
#[derive(Debug)]
struct Resolved {
    answer: Arc<QueryAnswer>,
    /// The fixed point behind `answer` — the Tier-2/3 seed: every DFA
    /// state's alive set, the start state's being the answer's very blocks;
    /// `None` only when the evaluator does not capture (the naive
    /// evaluator) — the frontier engine captures every evaluation.
    resume: Option<Arc<EvalResume>>,
}

/// Where an entry a publish touched resumes from on its first read.
#[derive(Debug, Clone)]
struct Pending {
    /// The last answer resolved for the query, and the seed behind it.
    answer: Arc<QueryAnswer>,
    seed: Arc<EvalResume>,
    /// The log position of the epoch `answer` and `seed` describe.
    mark: LogMark,
}

/// One cache's resolution state for one query, behind an `Arc` a reader
/// clones out of the map before resolving it.
#[derive(Debug)]
struct Entry {
    compiled: Arc<Compiled>,
    /// The answer on this cache's snapshot: set at creation, or by the first
    /// read of a pending entry.  An unresolved entry is never shared across
    /// epochs — two epochs' caches resolve against different evaluators; a
    /// resolved one with no pending state is, by every epoch that carries it
    /// over the same nodes.
    resolved: OnceLock<Resolved>,
    /// What `resolved` is resumed from; `None` for an entry created resolved.
    pending: Option<Pending>,
}

impl Entry {
    fn resolved(compiled: Arc<Compiled>, resolved: Resolved) -> Self {
        Self {
            compiled,
            resolved: OnceLock::from(resolved),
            pending: None,
        }
    }

    fn pending(compiled: Arc<Compiled>, pending: Pending) -> Self {
        Self {
            compiled,
            resolved: OnceLock::new(),
            pending: Some(pending),
        }
    }

    fn is_unresolved(&self) -> bool {
        self.resolved.get().is_none()
    }
}

/// A cache's map value: the entry and its recency, kept beside the pointer
/// so the LRU scan and the migration sort read it without following one.
#[derive(Debug)]
struct Slot {
    /// Monotonic recency tick, updated with a relaxed store on every hit so
    /// lookups stay on the shared read lock.
    last_used: AtomicU64,
    entry: Arc<Entry>,
}

impl Slot {
    fn new(entry: Entry, last_used: u64) -> Self {
        Self {
            last_used: AtomicU64::new(last_used),
            entry: Arc::new(entry),
        }
    }
}

/// A copy of the slot: the same entry, the recency read now.  What a
/// migration's table copy is made of.
impl Clone for Slot {
    fn clone(&self) -> Self {
        Self {
            last_used: AtomicU64::new(self.last_used.load(Ordering::Relaxed)),
            entry: Arc::clone(&self.entry),
        }
    }
}

/// A position in the delta log: publishes and changed edges since the first
/// cache of the chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LogMark {
    publishes: u64,
    changed_edges: u64,
}

/// The deltas between the epochs pending entries describe and this cache's
/// epoch, oldest first: the window from the oldest pending entry's position
/// to this cache's.  Each publish copies the live part of its predecessor's
/// window (one `Arc` per delta) and pushes its own delta.
#[derive(Debug, Default)]
struct DeltaLog {
    /// The position `deltas[0]` starts from, in publishes.
    first: u64,
    /// Empty when no entry is pending.
    deltas: Vec<Arc<GraphDelta>>,
    /// This cache's epoch's position.
    mark: LogMark,
}

impl DeltaLog {
    /// The net delta from position `from` to this log's epoch: the last
    /// publish's own delta as it is — what every entry that publish touched
    /// reads — else the window's deltas composed.
    fn since(&self, from: LogMark) -> Arc<GraphDelta> {
        match &self.deltas[(from.publishes - self.first) as usize..] {
            [last] => Arc::clone(last),
            window => Arc::new(GraphDelta::composed(window.iter().map(|delta| &**delta))),
        }
    }

    /// The next epoch's log: `delta` appended to the deltas after position
    /// `keep_after` (the oldest pending entry's), or none at all when
    /// nothing is pending.
    fn append(&self, delta: &GraphDelta, keep_after: Option<u64>) -> DeltaLog {
        let mark = LogMark {
            publishes: self.mark.publishes + 1,
            changed_edges: self.mark.changed_edges + delta.changed_edges() as u64,
        };
        let Some(first) = keep_after else {
            return DeltaLog {
                first: mark.publishes,
                deltas: Vec::new(),
                mark,
            };
        };
        let live = &self.deltas[(first - self.first) as usize..];
        let mut deltas = Vec::with_capacity(live.len() + 1);
        deltas.extend(live.iter().cloned());
        deltas.push(Arc::new(delta.clone()));
        DeltaLog {
            first,
            deltas,
            mark,
        }
    }
}

/// `answer` over `nodes` nodes: shared when the node count is unchanged,
/// else extended by bits filled with `nullable` ([`QueryAnswer::extended`]).
fn grown(answer: &Arc<QueryAnswer>, nodes: usize, nullable: bool) -> Arc<QueryAnswer> {
    if answer.node_count() == nodes {
        Arc::clone(answer)
    } else {
        Arc::new(answer.extended(nodes, nullable))
    }
}

/// How one epoch migration ([`EvalCache::migrate_answers`]) classified the
/// old cache's answers.  The split is decided at publish; the Tier-2/3
/// resumes it schedules run when an answer is first read on the new epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Entries whose alphabet misses every touched label: carried verbatim
    /// (Tier 1), zero recomputation.
    pub carried: usize,
    /// Touched entries scheduled to resume their seeded fixed point across
    /// an insert-only delta (Tier 2) on their first read.
    pub reseeded: usize,
    /// Touched entries scheduled to resume across a removal-bearing delta by
    /// the over-delete/re-derive sweep (Tier 3) on their first read.
    pub delete_reseeded: usize,
    /// Entries dropped to a cold recompute on next use — always the sum of
    /// the three `fallback_*` reasons below.  The fourth, a resume the
    /// evaluator declines, is only known when the resume runs on read: it
    /// is counted there, on `gps_rpq_cache_fallback_saturation_total`.
    pub recomputed: usize,
    /// Cold fallbacks because the entry never captured a resumable seed.
    pub fallback_no_seed: usize,
    /// Cold fallbacks because the new cache hit its capacity before the
    /// entry's recency rank came up.
    pub fallback_evicted: usize,
    /// Cold fallbacks because the entry stayed unread while more than
    /// `PENDING_EDGE_BUDGET` (65,536) edges changed since its seed's epoch.
    pub fallback_pending: usize,
}

/// What a migration does with one entry of the old cache.
enum Fate {
    /// Resolved, and the delta misses its alphabet: Tier 1.
    Carried,
    /// Pending on the new epoch, resuming from `pending` on its first read:
    /// counted as carried when the delta misses its alphabet, else by the
    /// delta's kind.
    Pending { pending: Pending, reads_delta: bool },
    /// Touched, with no seed to resume from: `fallback_no_seed`.
    NoSeed,
    /// Pending past `PENDING_EDGE_BUDGET`: `fallback_pending`.
    Stale,
}

/// The entries of `entries` a cache of `capacity` answers has no room for,
/// by key pointer: ranked most recently used first, everything after the
/// `capacity`-th entry whose `fate` keeps it.  Empty, without a sort, when
/// every entry fits — a new epoch's cache has the old one's capacity.
fn ranked_cut(
    entries: &HashMap<Arc<Regex>, Slot>,
    capacity: usize,
    fate: impl Fn(&Slot) -> Fate,
) -> HashSet<*const Regex> {
    if entries.len() <= capacity {
        return HashSet::new();
    }
    let mut ranked: Vec<(&Arc<Regex>, &Slot)> = entries.iter().collect();
    ranked.sort_by_key(|(_, slot)| std::cmp::Reverse(slot.last_used.load(Ordering::Relaxed)));
    let mut kept = 0;
    let mut cut = HashSet::new();
    for (regex, slot) in ranked {
        if kept >= capacity {
            cut.insert(Arc::as_ptr(regex));
        } else if matches!(fate(slot), Fate::Carried | Fate::Pending { .. }) {
            kept += 1;
        }
    }
    cut
}

/// A concurrent, bounded evaluation cache bound to one graph snapshot.
///
/// Hits take only the shared read lock (recency and counters are atomics);
/// the exclusive write lock is reserved for inserts and evictions.  A hit on
/// an entry a publish left pending resumes it after releasing the lock.
#[derive(Debug)]
pub struct EvalCache {
    csr: Arc<CsrGraph>,
    evaluator: Box<dyn DfaEvaluator>,
    capacity: usize,
    answers: RwLock<HashMap<Arc<Regex>, Slot>>,
    /// The deltas this cache's pending entries resume across; written once,
    /// by [`migrate_answers`](Self::migrate_answers).
    log: RwLock<DeltaLog>,
    /// The bounded-word index of the snapshot (lazy, shared, one bound):
    /// sessions score informativeness, cover negatives and decrement scores
    /// against it instead of walking the graph per node per interaction.
    words: RwLock<Option<Arc<WordIndex>>>,
    /// Hit/miss/eviction counters.  Standalone (per-cache) by default so the
    /// legacy accessors keep their exact per-instance semantics; rebound to
    /// the shared `gps_rpq_cache_*` registry series by
    /// [`with_metrics`](Self::with_metrics), where rebuilt-per-epoch caches
    /// keep extending one aggregate series.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Epoch-migration split: answers carried verbatim (Tier 1), scheduled
    /// to resume from their seed across insert-only deltas (Tier 2) or
    /// removal-bearing deltas (Tier 3), and dropped to a cold recompute —
    /// the latter further attributed to one of four reasons (saturation
    /// counted when a read-time resume declines).
    carried: Counter,
    reseeded: Counter,
    delete_reseeded: Counter,
    fallback_saturation: Counter,
    fallback_no_seed: Counter,
    fallback_evicted: Counter,
    fallback_pending: Counter,
    /// `gps_rpq_cache_resumed_on_read_total` — pending entries whose first
    /// read ran a resume or its cold fallback.
    resumed_on_read: Counter,
    /// `gps_rpq_cache_pending_unread_total` — entries still pending when
    /// their cache was retired or they were evicted.
    pending_unread: Counter,
    /// `gps_rpq_cache_migrate_blocks_{copied,shared}_total` — the seed
    /// blocks each read-time resume copied against those it shares with the
    /// seed it resumed from ([`EvalResume::sharing`]): the size of the
    /// delta's derivation cones.  Large with few resumes means one huge
    /// cone; small per resume with many resumes means many touched queries.
    blocks_copied: Counter,
    blocks_shared: Counter,
    /// Entries (answers + the word index) dropped when the cache's epoch was
    /// retired — the eviction attribution of the epoch swap.
    retired_entries: Counter,
    /// `gps_rpq_eval_latency_ns` — wall time of one cache-miss evaluation
    /// (disabled until [`with_metrics`](Self::with_metrics) binds it).
    eval_latency: Histogram,
    /// `gps_rpq_reseed_latency_ns` — wall time of one Tier-2 seeded
    /// re-derivation, run by the first read after the publish.
    reseed_latency: Histogram,
    /// `gps_rpq_delete_reseed_latency_ns` — wall time of one Tier-3
    /// over-delete/re-derive, run by the first read after the publish.
    delete_reseed_latency: Histogram,
    /// `gps_rpq_words_build_latency_ns` — wall time of one cold derivation of
    /// the word index.
    words_build_latency: Histogram,
    /// `gps_rpq_words_pairs` — (node, word) pairs the word index holds.
    words_pairs: Gauge,
    /// `gps_rpq_words_{rederived_nodes,minted,postings_written}_total` —
    /// what each [`inherit_words`](Self::inherit_words) did
    /// ([`InheritCounts`](crate::InheritCounts)): a publish's word inheritance costs these, not
    /// the index.
    words_rederived: Counter,
    words_minted: Counter,
    words_postings_written: Counter,
    tick: AtomicU64,
    /// Set once the snapshot this cache serves has been superseded by a
    /// newer epoch and every entry has been dropped (see
    /// [`retire`](Self::retire)).
    retired: AtomicBool,
}

impl EvalCache {
    /// Creates a cache from an existing CSR snapshot (naive evaluator,
    /// default capacity).  The snapshot is shared with the evaluator, not
    /// copied.
    pub fn from_csr(csr: CsrGraph) -> Self {
        let csr = Arc::new(csr);
        let evaluator = Box::new(NaiveEvaluator::from_shared(Arc::clone(&csr)));
        Self::with_shared_evaluator(csr, evaluator)
    }

    /// Creates a cache that answers queries through `evaluator`.
    ///
    /// `csr` is the snapshot the evaluator was built from; the cache keeps it
    /// so witness extraction and rendering keep working against the exact
    /// graph the answers were computed on.
    pub fn with_evaluator(csr: CsrGraph, evaluator: Box<dyn DfaEvaluator>) -> Self {
        Self::with_shared_evaluator(Arc::new(csr), evaluator)
    }

    /// [`with_evaluator`](Self::with_evaluator) over an already-shared
    /// snapshot.
    pub fn with_shared_evaluator(csr: Arc<CsrGraph>, evaluator: Box<dyn DfaEvaluator>) -> Self {
        Self {
            csr,
            evaluator,
            capacity: DEFAULT_CAPACITY,
            answers: RwLock::new(HashMap::new()),
            log: RwLock::new(DeltaLog::default()),
            words: RwLock::new(None),
            hits: Counter::standalone(),
            misses: Counter::standalone(),
            evictions: Counter::standalone(),
            carried: Counter::standalone(),
            reseeded: Counter::standalone(),
            delete_reseeded: Counter::standalone(),
            fallback_saturation: Counter::standalone(),
            fallback_no_seed: Counter::standalone(),
            fallback_evicted: Counter::standalone(),
            fallback_pending: Counter::standalone(),
            resumed_on_read: Counter::standalone(),
            pending_unread: Counter::standalone(),
            blocks_copied: Counter::standalone(),
            blocks_shared: Counter::standalone(),
            retired_entries: Counter::standalone(),
            eval_latency: Histogram::disabled(),
            reseed_latency: Histogram::disabled(),
            delete_reseed_latency: Histogram::disabled(),
            words_build_latency: Histogram::disabled(),
            words_pairs: Gauge::disabled(),
            words_rederived: Counter::standalone(),
            words_minted: Counter::standalone(),
            words_postings_written: Counter::standalone(),
            tick: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        }
    }

    /// Binds the cache's counters to `registry`'s `gps_rpq_cache_*` series
    /// and its miss-evaluation latency to `gps_rpq_eval_latency_ns`.
    ///
    /// With an enabled registry the counters are *shared* across every cache
    /// bound to it — exactly what the epoch-advancing engine wants, where
    /// each publish rebuilds the cache but the hit/miss series must continue.
    /// With a disabled registry this is a no-op and the cache keeps its
    /// standalone per-instance counters.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        if registry.is_enabled() {
            self.hits = registry.counter("gps_rpq_cache_hits_total");
            self.misses = registry.counter("gps_rpq_cache_misses_total");
            self.evictions = registry.counter("gps_rpq_cache_evictions_total");
            self.carried = registry.counter("gps_rpq_cache_carried_total");
            self.reseeded = registry.counter("gps_rpq_cache_reseeded_total");
            self.delete_reseeded = registry.counter("gps_rpq_cache_delete_reseeded_total");
            self.fallback_saturation = registry.counter("gps_rpq_cache_fallback_saturation_total");
            self.fallback_no_seed = registry.counter("gps_rpq_cache_fallback_no_seed_total");
            self.fallback_evicted = registry.counter("gps_rpq_cache_fallback_evicted_total");
            self.fallback_pending = registry.counter("gps_rpq_cache_fallback_pending_total");
            self.resumed_on_read = registry.counter("gps_rpq_cache_resumed_on_read_total");
            self.pending_unread = registry.counter("gps_rpq_cache_pending_unread_total");
            self.blocks_copied = registry.counter("gps_rpq_cache_migrate_blocks_copied_total");
            self.blocks_shared = registry.counter("gps_rpq_cache_migrate_blocks_shared_total");
            self.retired_entries = registry.counter("gps_rpq_cache_retired_total");
            self.eval_latency = registry.histogram("gps_rpq_eval_latency_ns");
            self.reseed_latency = registry.histogram("gps_rpq_reseed_latency_ns");
            self.delete_reseed_latency = registry.histogram("gps_rpq_delete_reseed_latency_ns");
            self.words_build_latency = registry.histogram("gps_rpq_words_build_latency_ns");
            self.words_pairs = registry.gauge("gps_rpq_words_pairs");
            self.words_rederived = registry.counter("gps_rpq_words_rederived_nodes_total");
            self.words_minted = registry.counter("gps_rpq_words_minted_total");
            self.words_postings_written = registry.counter("gps_rpq_words_postings_written_total");
        }
        self
    }

    /// Sets the maximum number of cached answers (at least 1).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// The maximum number of cached answers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying snapshot.
    pub fn csr(&self) -> &Arc<CsrGraph> {
        &self.csr
    }

    /// The epoch of the snapshot this cache serves.  Cached answers and the
    /// word index are only valid for this snapshot and its clones — what
    /// [`EvalHandle::assert_serves`](crate::EvalHandle::assert_serves)
    /// checks where a session is set up, instead of relying on size
    /// coincidence.
    pub fn epoch(&self) -> u64 {
        self.csr.epoch()
    }

    /// Atomically drops every cached answer and the word index: called by a
    /// versioned store when this cache's snapshot has been superseded by a
    /// published epoch and no session is pinned to it anymore.  The cache
    /// stays functional (a straggling handle re-misses and recomputes
    /// deterministically), but its memory is released eagerly instead of
    /// waiting for the last `Arc` to die.
    ///
    /// The drop is attributed to `gps_rpq_cache_retired_total` (the answers,
    /// plus one for the word index), so the epoch swap's evictions stay observable next to
    /// the migration split instead of vanishing without a counter; entries
    /// nobody read since a publish left them pending also land on
    /// `gps_rpq_cache_pending_unread_total`.
    pub fn retire(&self) {
        let mut answers = self.answers.write();
        let mut words = self.words.write();
        self.retired_entries
            .add((answers.len() + usize::from(words.is_some())) as u64);
        let unread = answers
            .values()
            .filter(|slot| slot.entry.is_unresolved())
            .count();
        self.pending_unread.add(unread as u64);
        answers.clear();
        *words = None;
        self.words_pairs.set(0);
        self.retired.store(true, Ordering::Release);
    }

    /// Returns `true` once [`retire`](Self::retire) has run.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Migrates `old`'s (the superseded epoch's) cached answers into this
    /// (new-epoch) cache across `delta`.  Every entry is classified here, in
    /// three tiers, but no answer is recomputed: migration is pointer work
    /// per entry, and the resumes it schedules run when an answer is first
    /// read on this epoch.
    ///
    /// * **Tier 1 — proof of irrelevance.** An entry whose DFA alphabet
    ///   misses every touched label cannot observe the delta: edges with
    ///   labels outside the alphabet never fire a DFA transition, so the
    ///   product — and the answer, witnesses and captured fixed point — is
    ///   unchanged.  The entry is carried verbatim: answer and seed are
    ///   `Arc`-shared with the old epoch.  When the delta added nodes the
    ///   answer is extended by exactly those bits, filled with the language's
    ///   nullability (a node whose every edge is alphabet-irrelevant is
    ///   selected iff the language contains the empty word) — a new pointer
    ///   table over the old blocks, of which at most the tail one is
    ///   rewritten ([`QueryAnswer::extended`]).
    /// * **Tier 2 — delta-restricted re-derivation.** A touched entry with a
    ///   captured seed on an *insert-only* delta is scheduled to resume its
    ///   fixed point restricted to the delta
    ///   ([`DfaEvaluator::evaluate_dfa_resumed`]) — the fixed point is
    ///   monotone in the edge set, so inserts only grow it.
    /// * **Tier 3 — over-delete/re-derive.** A touched entry with a seed on
    ///   a *removal-bearing* delta is scheduled for the delete-aware resume:
    ///   the sources of removed edges are transitively over-deleted, the
    ///   over-deleted configurations that still have an alive successor are
    ///   re-derived, and a push-only fixed point re-derives the rest from
    ///   them (mixed insert+delete deltas run the insert sweep first, then
    ///   the removal sweep — one unified path).
    ///
    /// A scheduled entry is *pending*: it keeps its last resolved answer and
    /// seed and their epoch's position in the cache's delta log, which this
    /// migration extends by `delta`.  An entry still pending from an earlier
    /// epoch stays pending across this one (it is classified by `delta` like
    /// any other).  Its first read takes the net delta since its seed's
    /// epoch — the last publish's delta as it is, or the log's window from
    /// its position composed ([`GraphDelta::composed`]): when that misses
    /// its alphabet the answer is carried, otherwise it is resumed — sharing
    /// every block the net delta's derivation cone did not reach with the
    /// seed — or, when the evaluator declines the resume, evaluated cold
    /// (`gps_rpq_cache_fallback_saturation_total`).  Concurrent first readers
    /// wait for one resume.  Each resume's wall time lands on
    /// `gps_rpq_reseed_latency_ns` (insert-only net delta) or
    /// `gps_rpq_delete_reseed_latency_ns`, its block split on
    /// `gps_rpq_cache_migrate_blocks_*_total`.
    ///
    /// Everything else falls back to a cold recompute on next use, with the
    /// reason attributed: `fallback_no_seed` (nothing captured to resume
    /// from), `fallback_evicted` (this cache is smaller than `old` and
    /// filled before this entry's recency rank came up) or
    /// `fallback_pending` (the entry stayed unread while more than
    /// `PENDING_EDGE_BUDGET` (65,536) edges changed since its seed's epoch);
    /// `recomputed` is always their sum.
    ///
    /// The migration copies `old`'s table — a hash-table clone keeps every
    /// bucket position, so no expression is hashed again — and rewrites each
    /// slot in place: a carried entry with no pending state whose answer
    /// covers the same nodes is shared as it is (a resolved entry never
    /// changes), every other kept one gets a fresh entry.  Only a cache
    /// smaller than `old` ranks the entries by recency, to know which ones to
    /// cut; an engine's epochs all have one capacity.  Whatever this cache
    /// held before is replaced: it is meant to be the new epoch's fresh
    /// cache.
    ///
    /// Recency ticks carry over, so LRU ordering survives the epoch swap;
    /// the split is recorded on the `carried`/`reseeded`/`delete_reseeded`/
    /// `fallback_*` counters.
    pub fn migrate_answers(&self, old: &EvalCache, delta: &GraphDelta) -> MigrationReport {
        let mut report = MigrationReport::default();
        let touched = delta.touched_labels();
        let insert_only = delta.removed_edges.is_empty();
        let new_n = self.csr.node_count();
        // Continue the old epoch's tick stream so carried recency stays
        // comparable with post-migration touches.
        self.tick
            .fetch_max(old.tick.load(Ordering::Relaxed), Ordering::Relaxed);
        let old_log = old.log.read();
        let changed_edges = old_log.mark.changed_edges + delta.changed_edges() as u64;
        let fate = |entry: &Entry| -> Fate {
            let reads_delta = entry.compiled.reads_any(&touched);
            let pending = match entry.resolved.get() {
                Some(_) if !reads_delta => return Fate::Carried,
                Some(Resolved {
                    answer,
                    resume: Some(seed),
                }) => Pending {
                    answer: Arc::clone(answer),
                    seed: Arc::clone(seed),
                    mark: old_log.mark,
                },
                Some(Resolved { resume: None, .. }) => return Fate::NoSeed,
                None => (entry.pending.clone()).expect("an unresolved entry is pending"),
            };
            if changed_edges - pending.mark.changed_edges > PENDING_EDGE_BUDGET {
                return Fate::Stale;
            }
            Fate::Pending {
                pending,
                reads_delta,
            }
        };
        // Copy the old table: a clone keeps every bucket position, so no
        // expression is hashed again.  Each slot is then rewritten in place.
        let (mut entries, cut) = {
            let old_entries = old.answers.read();
            let cut = ranked_cut(&old_entries, self.capacity, |slot| fate(&slot.entry));
            (old_entries.clone(), cut)
        };
        // The oldest log position a pending entry of this cache resumes from.
        let mut keep_after: Option<u64> = None;
        entries.retain(|regex, slot| {
            if cut.contains(&Arc::as_ptr(regex)) {
                report.recomputed += 1;
                report.fallback_evicted += 1;
                return false;
            }
            let compiled = &slot.entry.compiled;
            match fate(&slot.entry) {
                Fate::Carried => {
                    report.carried += 1;
                    let resolved = slot
                        .entry
                        .resolved
                        .get()
                        .expect("carried entries are resolved");
                    // A resolved entry never changes, so one that answers
                    // over the same nodes is shared as it is; one still
                    // holding the pending state it was resumed from drops it.
                    if slot.entry.pending.is_some() || resolved.answer.node_count() != new_n {
                        let carried = Resolved {
                            answer: grown(&resolved.answer, new_n, compiled.nullable),
                            // The seed stays valid: the relevant subgraph is
                            // unchanged, and nodes past `resume.nodes()` are
                            // re-seeded from the DFA alone at the next resume.
                            resume: resolved.resume.clone(),
                        };
                        slot.entry = Arc::new(Entry::resolved(Arc::clone(compiled), carried));
                    }
                    true
                }
                Fate::Pending {
                    pending,
                    reads_delta,
                } => {
                    if !reads_delta {
                        report.carried += 1;
                    } else if insert_only {
                        report.reseeded += 1;
                    } else {
                        report.delete_reseeded += 1;
                    }
                    keep_after = Some(keep_after.unwrap_or(u64::MAX).min(pending.mark.publishes));
                    slot.entry = Arc::new(Entry::pending(Arc::clone(compiled), pending));
                    true
                }
                Fate::NoSeed => {
                    report.recomputed += 1;
                    report.fallback_no_seed += 1;
                    false
                }
                Fate::Stale => {
                    report.recomputed += 1;
                    report.fallback_pending += 1;
                    false
                }
            }
        });
        *self.answers.write() = entries;
        *self.log.write() = old_log.append(delta, keep_after);
        self.carried.add(report.carried as u64);
        self.reseeded.add(report.reseeded as u64);
        self.delete_reseeded.add(report.delete_reseeded as u64);
        self.fallback_no_seed.add(report.fallback_no_seed as u64);
        self.fallback_evicted.add(report.fallback_evicted as u64);
        self.fallback_pending.add(report.fallback_pending as u64);
        report
    }

    /// The answer `entry` holds on this cache's snapshot: the stored one, or
    /// — for the first read of an entry a publish left pending — the one
    /// resumed from its seed.  Concurrent first readers wait on the entry's
    /// once-cell, so an entry resumes once.
    fn resolve<'e>(&self, entry: &'e Entry) -> &'e Resolved {
        entry.resolved.get_or_init(|| {
            let pending = entry
                .pending
                .as_ref()
                .expect("only a pending entry starts unresolved");
            self.resume_on_read(&entry.compiled, pending)
        })
    }

    /// Resolves a pending entry across the net delta since its seed's epoch.
    fn resume_on_read(&self, compiled: &Compiled, pending: &Pending) -> Resolved {
        let delta = self.log.read().since(pending.mark);
        if !compiled.reads_any(&delta.touched_labels()) {
            // The net delta misses the alphabet (its touching edges
            // cancelled out): Tier 1, as at publish.
            return Resolved {
                answer: grown(&pending.answer, self.csr.node_count(), compiled.nullable),
                resume: Some(Arc::clone(&pending.seed)),
            };
        }
        self.resumed_on_read.inc();
        let span = if delta.removed_edges.is_empty() {
            self.reseed_latency.start_timer()
        } else {
            self.delete_reseed_latency.start_timer()
        };
        match self
            .evaluator
            .evaluate_dfa_resumed(&compiled.dfa, &pending.seed, &delta)
        {
            Some((answer, seed)) => {
                // The span ends before the block walk: that is bookkeeping,
                // not part of the resume it times.
                span.stop();
                let sharing = seed.sharing(&pending.seed);
                self.blocks_copied.add(sharing.copied as u64);
                self.blocks_shared.add(sharing.shared as u64);
                Resolved {
                    answer: Arc::new(answer),
                    resume: Some(Arc::new(seed)),
                }
            }
            None => {
                // The evaluator declined the seed: over-delete budget blown,
                // shape mismatch, or no resume support at all.
                span.cancel();
                self.fallback_saturation.inc();
                let (answer, resume) = self.evaluator.evaluate_dfa_captured(&compiled.dfa);
                Resolved {
                    answer: Arc::new(answer),
                    resume: resume.map(Arc::new),
                }
            }
        }
    }

    /// Seeds this (new-epoch) cache's word index from `old`'s (the superseded
    /// epoch's cache) across `delta` — the incremental alternative to
    /// re-deriving every node's words on the first session of each epoch.
    /// Only the nodes that can reach a changed edge within the bound are
    /// re-derived, and only the speller lists of words they gained or lost
    /// are rebuilt ([`WordIndex::inherit`]); every other node's list and
    /// word's spellers are shared with the old epoch.  Nothing happens when
    /// `old` never built an index, or this cache already has one.
    pub fn inherit_words(&self, old: &EvalCache, delta: &GraphDelta) {
        let Some(index) = old.words.read().clone() else {
            return;
        };
        let mut words = self.words.write();
        if words.is_none() {
            let index = index.inherit(&old.csr, &self.csr, delta);
            let counts = index.inherit_counts();
            self.words_rederived.add(counts.rederived_nodes as u64);
            self.words_minted.add(counts.minted_words as u64);
            self.words_postings_written
                .add(counts.postings_written as u64);
            self.words_pairs.set(index.pairs() as u64);
            *words = Some(Arc::new(index));
        }
    }

    /// The evaluator answering cache misses.
    pub fn evaluator(&self) -> &dyn DfaEvaluator {
        self.evaluator.as_ref()
    }

    /// Evaluates `regex` on the snapshot, returning a shared answer.  Repeated
    /// calls with an equal expression hit the cache; when the cache is full
    /// the least-recently-used entry is evicted.
    pub fn evaluate(&self, regex: &Regex) -> Arc<QueryAnswer> {
        self.touch(regex)
            .unwrap_or_else(|| self.miss(regex, Dfa::from_regex(regex)))
    }

    /// Like [`evaluate`](Self::evaluate), but for callers that already hold
    /// the compiled DFA of `regex` (the learner does): a miss evaluates the
    /// supplied automaton directly instead of recompiling the expression.
    ///
    /// `dfa` must accept the language of `regex` — the answer is cached under
    /// the expression.
    pub fn evaluate_compiled(&self, regex: &Regex, dfa: &Dfa) -> Arc<QueryAnswer> {
        self.touch(regex)
            .unwrap_or_else(|| self.miss(regex, dfa.clone()))
    }

    /// Evaluates `dfa` (compiled from `regex`) after a miss, timed into the
    /// cache's eval latency, and caches the answer with its seed.
    fn miss(&self, regex: &Regex, dfa: Dfa) -> Arc<QueryAnswer> {
        let span = self.eval_latency.start_timer();
        let (answer, resume) = self.evaluator.evaluate_dfa_captured(&dfa);
        span.stop();
        let answer = Arc::new(answer);
        self.insert(regex, &answer, dfa, resume);
        answer
    }

    /// A shortest witness path for `node` under `dfa`, extracted by the
    /// configured evaluator (uncached — witnesses are per-node queries).
    pub fn witness(&self, dfa: &Dfa, node: NodeId) -> Option<Path> {
        self.evaluator.witness(dfa, node)
    }

    /// The word index of the snapshot for words of length `1..=bound`:
    /// indexed by node it yields exactly the words of the node's walks of
    /// length `1..=bound` — all of them, with no walk cap (an uncapped
    /// `PathEnumerator`) — and per word the nodes spelling it.
    ///
    /// The cache holds one index, at one bound: the engine's path bound,
    /// which its learner and sessions share.  It is derived lazily, once; a
    /// call at another bound derives that one and replaces it.  The
    /// derivation is the most expensive thing the cache builds, so a miss
    /// runs *under the write lock* after a re-check: a burst of cold sessions
    /// derives once and the rest wait for the shared result.  Only `words`
    /// callers wait on this lock — the answer cache has its own.
    pub fn bounded_words(&self, bound: usize) -> Arc<WordIndex> {
        let held = |words: &Option<Arc<WordIndex>>| {
            words
                .as_ref()
                .filter(|index| index.bound() == bound)
                .cloned()
        };
        if let Some(index) = held(&self.words.read()) {
            return index;
        }
        let mut words = self.words.write();
        if let Some(index) = held(&words) {
            return index;
        }
        let span = self.words_build_latency.start_timer();
        let index = Arc::new(WordIndex::build(&self.csr, bound));
        span.stop();
        self.words_pairs.set(index.pairs() as u64);
        *words = Some(Arc::clone(&index));
        index
    }

    /// The number of distinct words of length `1..=bound` spelled by each
    /// node's outgoing paths, indexed by node id — every node's
    /// uncovered-word count under *empty* negative coverage, i.e. the
    /// informativeness baseline an interactive session starts from.
    pub fn bounded_word_counts(&self, bound: usize) -> Vec<u32> {
        let index = self.bounded_words(bound);
        let mut counts = Vec::with_capacity(index.len());
        index
            .iter()
            .for_each(|words| counts.push(words.len() as u32));
        counts
    }

    /// The bound the word index is currently derived at, `None` before the
    /// first [`bounded_words`](Self::bounded_words) or inheritance.
    pub fn words_bound(&self) -> Option<usize> {
        self.words.read().as_ref().map(|index| index.bound())
    }

    /// Looks up `regex`, refreshing its recency on a hit.  Hits stay on the
    /// shared read lock; a hit on a pending entry resolves it after the lock
    /// is released, so a resume holds up no insert and no other query.
    fn touch(&self, regex: &Regex) -> Option<Arc<QueryAnswer>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let pending = {
            let answers = self.answers.read();
            let Some(slot) = answers.get(regex) else {
                self.misses.inc();
                return None;
            };
            slot.last_used.store(tick, Ordering::Relaxed);
            self.hits.inc();
            match slot.entry.resolved.get() {
                Some(resolved) => return Some(Arc::clone(&resolved.answer)),
                None => Arc::clone(&slot.entry),
            }
        };
        Some(Arc::clone(&self.resolve(&pending).answer))
    }

    /// Inserts an answer (with the automaton it came from and, when captured,
    /// its resumable fixed point), evicting the least-recently-used entry
    /// when full.
    fn insert(
        &self,
        regex: &Regex,
        answer: &Arc<QueryAnswer>,
        dfa: Dfa,
        resume: Option<EvalResume>,
    ) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut answers = self.answers.write();
        if !answers.contains_key(regex) && answers.len() >= self.capacity {
            if let Some(oldest) = answers
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(regex, _)| Arc::clone(regex))
            {
                if answers
                    .remove(&oldest)
                    .is_some_and(|slot| slot.entry.is_unresolved())
                {
                    self.pending_unread.inc();
                }
                self.evictions.inc();
            }
        }
        if !answers.contains_key(regex) {
            let compiled = Compiled {
                alphabet: dfa.used_alphabet(),
                nullable: dfa.is_accepting(dfa.start()),
                dfa,
            };
            let resolved = Resolved {
                answer: Arc::clone(answer),
                resume: resume.map(Arc::new),
            };
            let slot = Slot::new(Entry::resolved(Arc::new(compiled), resolved), tick);
            answers.insert(Arc::new(regex.clone()), slot);
        }
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.answers.read().len()
    }

    /// Returns `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters, useful in benchmarks.
    ///
    /// Deprecated in favor of the registry snapshot path
    /// (`gps_rpq_cache_hits_total` / `gps_rpq_cache_misses_total` in
    /// [`MetricsRegistry::snapshot`]); kept as a thin read of the same
    /// counters.  Note that under [`with_metrics`](Self::with_metrics) the
    /// counters are shared registry-wide, not per-cache.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Number of entries evicted by the capacity cap so far.
    ///
    /// Deprecated like [`stats`](Self::stats) — prefer
    /// `gps_rpq_cache_evictions_total` from the registry snapshot.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Clears all cached answers (the counters are kept).
    pub fn clear(&self) {
        self.answers.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{Edge, Graph, PathEnumerator, Word};

    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge_by_name(a, "x", b);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn caches_repeated_evaluations() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        let x = g.label_id("x").unwrap();
        let q = Regex::symbol(x);
        assert!(cache.is_empty());
        let a1 = cache.evaluate(&q);
        let a2 = cache.evaluate(&q);
        assert_eq!(a1.nodes(), a2.nodes());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), (1, 1));
        // Both entry points share one miss path and one hit path: each
        // call ticks exactly one counter.
        let star = Regex::star(q.clone());
        cache.evaluate_compiled(&q, &Dfa::from_regex(&q));
        assert_eq!(cache.stats(), (2, 1));
        cache.evaluate_compiled(&star, &Dfa::from_regex(&star));
        assert_eq!(cache.stats(), (2, 2));
        let expected = crate::eval::evaluate(&g, &Dfa::from_regex(&star));
        assert_eq!(*cache.evaluate(&star), expected);
        assert_eq!(cache.stats(), (3, 2));
    }

    #[test]
    fn distinct_queries_get_distinct_entries() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        let x = g.label_id("x").unwrap();
        cache.evaluate(&Regex::symbol(x));
        cache.evaluate(&Regex::star(Regex::symbol(x)));
        assert_eq!(cache.len(), 2);
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 2);
    }

    #[test]
    fn answers_are_correct_through_the_cache() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        let x = g.label_id("x").unwrap();
        let answer = cache.evaluate(&Regex::symbol(x));
        assert!(answer.contains(g.node_by_name("A").unwrap()));
        assert!(!answer.contains(g.node_by_name("B").unwrap()));
    }

    #[test]
    fn clear_empties_the_cache() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        let x = g.label_id("x").unwrap();
        cache.evaluate(&Regex::symbol(x));
        cache.clear();
        assert!(cache.is_empty());
        // Re-evaluation after clear is a miss again.
        cache.evaluate(&Regex::symbol(x));
        assert_eq!(cache.stats().1, 2);
    }

    #[test]
    fn capacity_cap_evicts_least_recently_used() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone()).with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let x = g.label_id("x").unwrap();
        let q1 = Regex::symbol(x);
        let q2 = Regex::star(Regex::symbol(x));
        let q3 = Regex::concat([Regex::symbol(x), Regex::symbol(x)]);
        cache.evaluate(&q1);
        cache.evaluate(&q2);
        assert_eq!(cache.len(), 2);
        // Touch q1 so q2 becomes the least recently used, then overflow.
        cache.evaluate(&q1);
        cache.evaluate(&q3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // q1 and q3 are still cached (hits); q2 was evicted (miss again).
        let hits_before = cache.stats().0;
        cache.evaluate(&q1);
        cache.evaluate(&q3);
        assert_eq!(cache.stats().0, hits_before + 2);
        let misses_before = cache.stats().1;
        cache.evaluate(&q2);
        assert_eq!(cache.stats().1, misses_before + 1, "q2 was evicted");
    }

    #[test]
    fn workload_replay_stays_within_capacity() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone()).with_capacity(4);
        let x = g.label_id("x").unwrap();
        for round in 0..3 {
            for i in 1..=16usize {
                let word = vec![x; i];
                cache.evaluate(&Regex::word(&word));
            }
            assert!(cache.len() <= 4, "round {round}: len {}", cache.len());
        }
        assert!(cache.evictions() >= 12 * 3);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone()).with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        let x = g.label_id("x").unwrap();
        cache.evaluate(&Regex::symbol(x));
        cache.evaluate(&Regex::star(Regex::symbol(x)));
        assert_eq!(cache.len(), 1);
    }

    /// The words a node's handle yields, as owned label sequences.
    fn words_of(index: &WordIndex, node: NodeId) -> Vec<Word> {
        index[node.index()].iter().map(<[_]>::to_vec).collect()
    }

    /// `PathEnumerator`'s words in the index's (length, labels) order.
    fn enumerated(graph: &CsrGraph, node: NodeId, bound: usize) -> Vec<Word> {
        let mut words: Vec<Word> = PathEnumerator::new(bound)
            .words_from(graph, node)
            .into_iter()
            .collect();
        words.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        words
    }

    #[test]
    fn bounded_words_match_direct_enumeration() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        let words = cache.bounded_words(3);
        let counts = cache.bounded_word_counts(3);
        for node in g.nodes() {
            let direct = enumerated(&g, node, 3);
            assert_eq!(words_of(&words, node), direct);
            assert_eq!(counts[node.index()] as usize, direct.len());
        }
    }

    #[test]
    fn one_index_is_held_and_another_bound_replaces_it() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        assert_eq!(cache.words_bound(), None);
        let w2 = cache.bounded_words(2);
        assert_eq!(cache.words_bound(), Some(2));
        assert!(
            Arc::ptr_eq(&w2, &cache.bounded_words(2)),
            "held, not rebuilt"
        );
        // Any other bound, smaller or larger, re-derives and replaces it.
        let a = g.node_by_name("A").unwrap();
        for bound in [1, 3, 2] {
            let index = cache.bounded_words(bound);
            assert_eq!(cache.words_bound(), Some(bound));
            assert_eq!(
                words_of(&index, a),
                enumerated(&g, a, bound),
                "bound {bound}"
            );
        }
        assert!(!Arc::ptr_eq(&w2, &cache.bounded_words(2)));
    }

    #[test]
    fn retire_drops_every_entry_but_stays_functional() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        let x = g.label_id("x").unwrap();
        cache.evaluate(&Regex::symbol(x));
        cache.bounded_words(2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.words_bound(), Some(2));
        assert!(!cache.is_retired());
        cache.retire();
        assert!(cache.is_retired());
        assert!(cache.is_empty());
        assert_eq!(cache.words_bound(), None);
        // A straggling handle recomputes deterministically.
        let answer = cache.evaluate(&Regex::symbol(x));
        assert!(answer.contains(g.node_by_name("A").unwrap()));
    }

    #[test]
    fn epoch_tracks_the_snapshot() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        assert_eq!(cache.epoch(), 0);
        let stamped = g.clone().with_epoch(7);
        let cache = EvalCache::from_csr(stamped);
        assert_eq!(cache.epoch(), 7);
    }

    /// A chain v0 -x-> v1 -x-> … -x-> v4 long enough that the head is
    /// untouched (at small bounds) by an update at the tail.
    #[test]
    fn inherit_words_matches_cold_enumeration() {
        use gps_graph::DeltaGraph;

        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..5).map(|i| g.add_node(format!("v{i}"))).collect();
        for window in nodes.windows(2) {
            g.add_edge_by_name(window[0], "x", window[1]);
        }
        let base = Arc::new(CsrGraph::from_graph(&g));

        // Change both ends: drop the first hop, append w after the tail.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let w = delta.add_node("w");
        let z = delta.label("z");
        delta.add_edge(nodes[4], z, w);
        let x = delta.labels().get("x").unwrap();
        assert!(delta.remove_edge(nodes[0], x, nodes[1]));
        let summary = delta.delta();
        let compacted = delta.compact();

        let cold = EvalCache::from_csr(compacted.clone());
        let mut v1_changed = Vec::new();
        for bound in [2usize, 4] {
            let old_cache = EvalCache::from_csr((*base).clone());
            let old = old_cache.bounded_words(bound);
            let new_cache = EvalCache::from_csr(compacted.clone());
            new_cache.inherit_words(&old_cache, &summary);
            assert_eq!(new_cache.words_bound(), Some(bound), "inherited");
            let inherited = new_cache.bounded_words(bound);
            let direct = cold.bounded_words(bound);
            for node in compacted.nodes() {
                assert_eq!(
                    words_of(&inherited, node),
                    words_of(&direct, node),
                    "bound {bound}, node {node}"
                );
            }
            assert_eq!(
                new_cache.bounded_word_counts(bound),
                cold.bounded_word_counts(bound),
                "bound {bound}"
            );
            // The changed nodes themselves were re-derived on the new
            // snapshot.
            assert!(inherited[nodes[0].index()].is_empty());
            assert!(inherited[w.index()].is_empty());
            v1_changed.push(words_of(&inherited, nodes[1]) != words_of(&old, nodes[1]));
        }
        // v1 is 3 reverse steps from the nearest changed source (v4) and
        // unreachable from v0's removal, so its bound-2 words are unchanged,
        // while at bound 4 the appended tail edge reaches it.
        assert_eq!(v1_changed, [false, true]);
    }

    #[test]
    fn inherit_words_is_a_no_op_without_an_index() {
        let g = sample();
        let new_cache = EvalCache::from_csr(g.clone());
        new_cache.inherit_words(&EvalCache::from_csr(g.clone()), &GraphDelta::default());
        assert_eq!(new_cache.words_bound(), None);
    }

    #[test]
    fn migrate_answers_carries_label_disjoint_entries() {
        use gps_graph::DeltaGraph;

        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge_by_name(a, "x", b);
        let base = Arc::new(CsrGraph::from_graph(&g));
        let old_cache = EvalCache::from_csr((*base).clone());
        let x = g.label_id("x").unwrap();
        let q = Regex::symbol(x);
        let star = Regex::star(Regex::symbol(x));
        old_cache.evaluate(&q);
        old_cache.evaluate(&star);

        // Publish an epoch that only touches a fresh label `z`.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let w = delta.add_node("W");
        let z = delta.label("z");
        delta.add_edge(b, z, w);
        let summary = delta.delta();
        let compacted = delta.compact();

        let new_cache = EvalCache::from_csr(compacted.clone());
        let report = new_cache.migrate_answers(&old_cache, &summary);
        assert_eq!(
            report,
            MigrationReport {
                carried: 2,
                ..MigrationReport::default()
            }
        );
        assert_eq!(new_cache.len(), 2);

        // Both lookups are hits — the migrated answers serve without any
        // re-evaluation — and match a cold evaluation on the new snapshot.
        let migrated = new_cache.evaluate(&q);
        assert_eq!(new_cache.stats(), (1, 0));
        let migrated_star = new_cache.evaluate(&star);
        assert!(migrated.contains(a));
        assert!(!migrated.contains(w), "`x` is not nullable: W unselected");
        assert!(migrated_star.contains(w), "`x*` is nullable: W selected");
        let cold = EvalCache::from_csr(compacted);
        assert_eq!(migrated, cold.evaluate(&q));
        assert_eq!(migrated_star, cold.evaluate(&star));
    }

    #[test]
    fn migrate_answers_shares_answers_when_no_nodes_were_added() {
        use gps_graph::DeltaGraph;

        let g = sample();
        let base = Arc::new(g.clone());
        let old_cache = EvalCache::from_csr((*base).clone());
        let x = g.label_id("x").unwrap();
        let q = Regex::symbol(x);
        let old_answer = old_cache.evaluate(&q);

        // A disjoint-label edge between existing nodes: no node growth.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let z = delta.label("z");
        delta.add_edge(
            g.node_by_name("B").unwrap(),
            z,
            g.node_by_name("A").unwrap(),
        );
        let summary = delta.delta();
        let new_cache = EvalCache::from_csr(delta.compact());

        let report = new_cache.migrate_answers(&old_cache, &summary);
        assert_eq!(report.carried, 1);
        let migrated = new_cache.evaluate(&q);
        assert!(
            Arc::ptr_eq(&old_answer, &migrated),
            "same node count: the answer allocation is shared, not copied"
        );
    }

    #[test]
    fn migrate_answers_drops_touched_entries_without_a_seed() {
        use gps_graph::DeltaGraph;

        let g = sample();
        let base = Arc::new(g.clone());
        let old_cache = EvalCache::from_csr((*base).clone());
        let x = g.label_id("x").unwrap();
        let q = Regex::symbol(x);
        old_cache.evaluate(&q);

        // Remove the only x-edge: the entry is touched, and the naive
        // evaluator captures no seed to resume from.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        assert!(delta.remove_edge(
            g.node_by_name("A").unwrap(),
            x,
            g.node_by_name("B").unwrap()
        ));
        let summary = delta.delta();
        let new_cache = EvalCache::from_csr(delta.compact());

        let report = new_cache.migrate_answers(&old_cache, &summary);
        assert_eq!(
            report,
            MigrationReport {
                recomputed: 1,
                fallback_no_seed: 1,
                ..MigrationReport::default()
            }
        );
        assert!(new_cache.is_empty(), "touched entry dropped, not carried");
        // The cold recompute on next use is correct for the new graph.
        let recomputed = new_cache.evaluate(&q);
        assert!(!recomputed.contains(g.node_by_name("A").unwrap()));
    }

    #[test]
    fn migrate_answers_attributes_declined_resumes_to_saturation() {
        use gps_graph::DeltaGraph;

        /// Captures a seed for every query and declines every resume, as an
        /// evaluator whose over-delete budget is blown does.
        #[derive(Debug)]
        struct Declining(NaiveEvaluator);
        impl DfaEvaluator for Declining {
            fn evaluate_dfa(&self, dfa: &Dfa) -> QueryAnswer {
                self.0.evaluate_dfa(dfa)
            }

            fn evaluate_dfa_captured(&self, dfa: &Dfa) -> (QueryAnswer, Option<EvalResume>) {
                let answer = self.0.evaluate_dfa(dfa);
                let seed = EvalResume::new(answer.node_count());
                (answer, Some(seed))
            }

            fn evaluate_dfa_resumed(
                &self,
                _dfa: &Dfa,
                _resume: &EvalResume,
                delta: &GraphDelta,
            ) -> Option<(QueryAnswer, EvalResume)> {
                assert!(!delta.removed_edges.is_empty(), "a removal-bearing delta");
                None
            }

            fn witness(&self, dfa: &Dfa, node: NodeId) -> Option<Path> {
                self.0.witness(dfa, node)
            }
        }
        fn declining(csr: &Arc<CsrGraph>) -> EvalCache {
            let evaluator = Declining(NaiveEvaluator::from_shared(Arc::clone(csr)));
            EvalCache::with_shared_evaluator(Arc::clone(csr), Box::new(evaluator))
        }

        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "x", c);
        g.add_edge_by_name(c, "y", a);
        let base = Arc::new(CsrGraph::from_graph(&g));
        let old_cache = declining(&base);
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        let touched = [
            Regex::symbol(x),
            Regex::star(Regex::symbol(x)),
            Regex::concat([Regex::symbol(x), Regex::symbol(x)]),
        ];
        let untouched = Regex::symbol(y);
        let all: Vec<&Regex> = touched.iter().chain([&untouched]).collect();
        for regex in &all {
            old_cache.evaluate(regex);
        }

        // A mixed delta on `x` alone: every `x` entry holds a seed, and the
        // evaluator declines each resume.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        assert!(delta.remove_edge(a, x, b));
        delta.add_edge(c, x, b);
        let summary = delta.delta();
        let compacted = Arc::new(delta.compact());

        let registry = MetricsRegistry::enabled();
        let new_cache = declining(&compacted).with_metrics(&registry);
        let report = new_cache.migrate_answers(&old_cache, &summary);
        // The publish only schedules the resumes; the evaluator declines
        // them when the answers are read.
        assert_eq!(
            report,
            MigrationReport {
                carried: 1,
                delete_reseeded: touched.len(),
                ..MigrationReport::default()
            }
        );
        let counter = |name: &str| registry.snapshot().counter(name);
        assert_eq!(counter("gps_rpq_cache_fallback_saturation_total"), Some(0));
        assert_eq!(new_cache.len(), all.len());
        let cold = EvalCache::from_csr((*compacted).clone());
        for regex in &all {
            assert_eq!(new_cache.evaluate(regex), cold.evaluate(regex));
        }
        assert_eq!(
            counter("gps_rpq_cache_fallback_saturation_total"),
            Some(touched.len() as u64),
            "every declined resume fell back to a cold evaluation on read"
        );
        assert_eq!(
            counter("gps_rpq_cache_resumed_on_read_total"),
            Some(touched.len() as u64)
        );
        assert_eq!(counter("gps_rpq_cache_hits_total"), Some(all.len() as u64));
        // Later reads are plain hits.
        for regex in &touched {
            new_cache.evaluate(regex);
        }
        assert_eq!(
            counter("gps_rpq_cache_fallback_saturation_total"),
            Some(touched.len() as u64),
            "a resolved entry resolves once"
        );
    }

    #[test]
    fn migrate_answers_attributes_capacity_overflow_to_eviction() {
        use gps_graph::DeltaGraph;

        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge_by_name(a, "x", b);
        let base = Arc::new(CsrGraph::from_graph(&g));
        let old_cache = EvalCache::from_csr((*base).clone());
        let x = g.label_id("x").unwrap();
        for regex in [
            Regex::symbol(x),
            Regex::star(Regex::symbol(x)),
            Regex::concat([Regex::symbol(x), Regex::symbol(x)]),
        ] {
            old_cache.evaluate(&regex);
        }

        // A label-disjoint delta would carry all three, but the new cache
        // only holds two: the coldest entry is attributed to eviction.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let w = delta.add_node("W");
        let z = delta.label("z");
        delta.add_edge(b, z, w);
        let summary = delta.delta();

        let new_cache = EvalCache::from_csr(delta.compact()).with_capacity(2);
        let report = new_cache.migrate_answers(&old_cache, &summary);
        assert_eq!(
            report,
            MigrationReport {
                carried: 2,
                recomputed: 1,
                fallback_evicted: 1,
                ..MigrationReport::default()
            }
        );
        assert_eq!(new_cache.len(), 2);
    }

    #[test]
    fn inherit_words_extends_the_index_over_added_nodes() {
        use gps_graph::DeltaGraph;

        let g = sample();
        let base = Arc::new(g.clone());
        let old_cache = EvalCache::from_csr((*base).clone());
        let old_words = old_cache.bounded_words(2);

        // A node-only delta adds no edge and touches no label.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let w = delta.add_node("W");
        let summary = delta.delta();
        let compacted = delta.compact();
        let new_cache = EvalCache::from_csr(compacted);
        new_cache.inherit_words(&old_cache, &summary);

        let inherited = new_cache.bounded_words(2);
        assert_eq!(inherited.len(), 3);
        for node in g.nodes() {
            assert_eq!(words_of(&inherited, node), words_of(&old_words, node));
        }
        assert!(
            inherited[w.index()].is_empty(),
            "isolated node spells nothing"
        );
        assert_eq!(new_cache.bounded_word_counts(2), vec![1, 0, 0]);
    }

    /// Answers naively, captures a placeholder seed for every query that does
    /// not read `unseeded`, and "resumes" by evaluating from scratch while
    /// recording the net delta it was handed — a stand-in for the frontier
    /// engine, which lives in a crate above this one.
    #[derive(Debug)]
    struct Replaying {
        naive: NaiveEvaluator,
        resumed: Arc<std::sync::Mutex<Vec<GraphDelta>>>,
        unseeded: Option<LabelId>,
    }

    impl DfaEvaluator for Replaying {
        fn evaluate_dfa(&self, dfa: &Dfa) -> QueryAnswer {
            self.naive.evaluate_dfa(dfa)
        }

        fn evaluate_dfa_captured(&self, dfa: &Dfa) -> (QueryAnswer, Option<EvalResume>) {
            let answer = self.naive.evaluate_dfa(dfa);
            let unseeded = self
                .unseeded
                .is_some_and(|label| dfa.used_alphabet().contains(label));
            let seed = (!unseeded).then(|| EvalResume::new(answer.node_count()));
            (answer, seed)
        }

        fn evaluate_dfa_resumed(
            &self,
            dfa: &Dfa,
            _resume: &EvalResume,
            delta: &GraphDelta,
        ) -> Option<(QueryAnswer, EvalResume)> {
            self.resumed.lock().unwrap().push(delta.clone());
            let answer = self.naive.evaluate_dfa(dfa);
            let seed = EvalResume::new(answer.node_count());
            Some((answer, seed))
        }

        fn witness(&self, dfa: &Dfa, node: NodeId) -> Option<Path> {
            self.naive.witness(dfa, node)
        }
    }

    /// The chain of replaying caches one test publishes through, with the
    /// registry they share and every delta a resume was handed.
    struct Chain {
        registry: MetricsRegistry,
        resumed: Arc<std::sync::Mutex<Vec<GraphDelta>>>,
        unseeded: Option<LabelId>,
    }

    impl Chain {
        fn new() -> Self {
            Self {
                registry: MetricsRegistry::enabled(),
                resumed: Arc::default(),
                unseeded: None,
            }
        }

        fn cache(&self, csr: &Arc<CsrGraph>) -> EvalCache {
            let evaluator = Replaying {
                naive: NaiveEvaluator::from_shared(Arc::clone(csr)),
                resumed: Arc::clone(&self.resumed),
                unseeded: self.unseeded,
            };
            EvalCache::with_shared_evaluator(Arc::clone(csr), Box::new(evaluator))
                .with_metrics(&self.registry)
        }

        /// Stages `ops` over `old`'s snapshot and migrates `old` into a
        /// cache over the result.
        fn publish(
            &self,
            old: &EvalCache,
            ops: impl FnOnce(&mut gps_graph::DeltaGraph),
        ) -> (EvalCache, MigrationReport) {
            let mut delta = gps_graph::DeltaGraph::new(Arc::clone(&old.csr));
            ops(&mut delta);
            let summary = delta.delta();
            let cache = self.cache(&Arc::new(delta.compact()));
            let report = cache.migrate_answers(old, &summary);
            (cache, report)
        }

        fn counter(&self, name: &str) -> u64 {
            self.registry.snapshot().counter(name).unwrap_or(0)
        }

        fn resumed(&self) -> Vec<GraphDelta> {
            self.resumed.lock().unwrap().clone()
        }
    }

    /// `A -x-> B`, `A -y-> B`.
    fn two_labels() -> Arc<CsrGraph> {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "y", b);
        Arc::new(CsrGraph::from_graph(&g))
    }

    #[test]
    fn a_pending_entry_resumes_across_a_later_label_disjoint_publish() {
        let chain = Chain::new();
        let base = two_labels();
        let (a, b) = (NodeId::from(0usize), NodeId::from(1usize));
        let x = base.label_id("x").unwrap();
        let queries = [Regex::symbol(x), Regex::star(Regex::symbol(x))];
        let first = chain.cache(&base);
        for regex in &queries {
            first.evaluate(regex);
        }

        // Touch `x`, then publish a fresh label and node before any read.
        let (second, report) = chain.publish(&first, |delta| {
            delta.add_edge(b, x, a);
        });
        assert_eq!(report.reseeded, 2, "{report:?}");
        let (third, report) = chain.publish(&second, |delta| {
            let w = delta.add_node("W");
            let z = delta.label("z");
            delta.add_edge(b, z, w);
        });
        assert_eq!(
            report,
            MigrationReport {
                carried: 2,
                ..MigrationReport::default()
            },
            "still-pending entries are classified by the new delta alone"
        );
        assert!(chain.resumed().is_empty(), "no publish resumed anything");

        // The first reads resume once each, across both deltas composed.
        let cold = EvalCache::from_csr(CsrGraph::clone(third.csr()));
        for regex in &queries {
            assert_eq!(third.evaluate(regex), cold.evaluate(regex));
        }
        let z = third.csr().label_id("z").unwrap();
        let w = NodeId::from(2usize);
        for delta in chain.resumed() {
            assert_eq!(delta.added_edges, [Edge::new(b, x, a), Edge::new(b, z, w)]);
            assert!(delta.removed_edges.is_empty());
            assert_eq!(delta.added_nodes, 1);
        }
        assert_eq!(chain.resumed().len(), queries.len());
        assert_eq!(chain.counter("gps_rpq_cache_resumed_on_read_total"), 2);
        assert_eq!(chain.counter("gps_rpq_cache_hits_total"), 2);
        // The middle epoch was superseded unread.
        second.retire();
        assert_eq!(chain.counter("gps_rpq_cache_pending_unread_total"), 2);
        third.retire();
        assert_eq!(chain.counter("gps_rpq_cache_pending_unread_total"), 2);
    }

    #[test]
    fn an_insert_undone_before_the_first_read_carries_the_answer() {
        let chain = Chain::new();
        let base = two_labels();
        let (a, b) = (NodeId::from(0usize), NodeId::from(1usize));
        let x = base.label_id("x").unwrap();
        let twice = Regex::concat([Regex::symbol(x), Regex::symbol(x)]);
        let first = chain.cache(&base);
        let answer = first.evaluate(&twice);

        let (second, report) = chain.publish(&first, |delta| {
            delta.add_edge(b, x, a);
        });
        assert_eq!(report.reseeded, 1);
        let (third, report) = chain.publish(&second, |delta| {
            assert!(delta.remove_edge(b, x, a));
        });
        assert_eq!(report.delete_reseeded, 1);

        // The net delta is empty: Tier 1 at read, no resume.
        let read = third.evaluate(&twice);
        assert!(Arc::ptr_eq(&read, &answer), "the seed's answer is carried");
        assert!(chain.resumed().is_empty());
        assert_eq!(chain.counter("gps_rpq_cache_resumed_on_read_total"), 0);
        assert_eq!(
            read,
            EvalCache::from_csr(CsrGraph::clone(third.csr())).evaluate(&twice)
        );
    }

    #[test]
    fn a_pending_entry_past_the_edge_budget_is_dropped_at_publish() {
        let chain = Chain::new();
        let base = two_labels();
        let (a, b) = (NodeId::from(0usize), NodeId::from(1usize));
        let (x, y) = (base.label_id("x").unwrap(), base.label_id("y").unwrap());
        let (touched, untouched) = (Regex::symbol(x), Regex::symbol(y));
        let first = chain.cache(&base);
        first.evaluate(&touched);
        first.evaluate(&untouched);
        let (second, report) = chain.publish(&first, |delta| {
            delta.add_edge(b, x, a);
        });
        assert_eq!((report.reseeded, report.carried), (1, 1));

        // `z` edges no query reads: one publish keeps the pending entry at
        // exactly the budget, one more edge drops it.
        let parallel_z = |edges: u64| {
            move |delta: &mut gps_graph::DeltaGraph| {
                let z = delta.label("z");
                for _ in 0..edges {
                    delta.add_edge(a, z, b);
                }
            }
        };
        let (at_budget, report) = chain.publish(&second, parallel_z(PENDING_EDGE_BUDGET - 1));
        assert_eq!(
            report,
            MigrationReport {
                carried: 2,
                ..MigrationReport::default()
            }
        );
        assert_eq!(at_budget.len(), 2);
        let (past_budget, report) = chain.publish(&second, parallel_z(PENDING_EDGE_BUDGET));
        assert_eq!(
            report,
            MigrationReport {
                carried: 1,
                recomputed: 1,
                fallback_pending: 1,
                ..MigrationReport::default()
            }
        );
        assert_eq!(chain.counter("gps_rpq_cache_fallback_pending_total"), 1);
        assert_eq!(past_budget.len(), 1, "only the resolved entry is carried");
        // The dropped entry recomputes on its next use.
        let cold = EvalCache::from_csr(CsrGraph::clone(past_budget.csr()));
        assert_eq!(past_budget.evaluate(&touched), cold.evaluate(&touched));
        assert_eq!(past_budget.stats().1, 3, "two warm-up misses and this one");
    }

    #[test]
    fn a_table_copy_migrates_every_kind_of_entry_like_a_rebuild() {
        // Before the last publish the cache holds one entry of each kind: a
        // resolved one no publish touches (`y`), one pending since publish 2
        // and unread across publishes 2-4 (`x`), one pending since publish 1
        // that the last publish takes past the edge budget (`v`), and one
        // resolved without a seed that the last publish touches (`u`).
        let mut g = Graph::new();
        let (a, b) = (g.add_node("A"), g.add_node("B"));
        for label in ["x", "y", "v", "u"] {
            g.add_edge_by_name(a, label, b);
        }
        let base = Arc::new(CsrGraph::from_graph(&g));
        let [x, y, v, u] = ["x", "y", "v", "u"].map(|name| base.label_id(name).unwrap());
        let chain = Chain {
            unseeded: Some(u),
            ..Chain::new()
        };
        let [carry, pend, stale, unseeded] = [y, x, v, u].map(Regex::symbol);
        let queries = [&carry, &pend, &stale, &unseeded];
        let first = chain.cache(&base);
        for regex in queries {
            first.evaluate(regex);
        }
        let (second, report) = chain.publish(&first, |delta| delta.add_edge(b, v, a));
        assert_eq!((report.carried, report.reseeded), (3, 1), "{report:?}");
        let (third, report) = chain.publish(&second, |delta| delta.add_edge(b, x, a));
        assert_eq!((report.carried, report.reseeded), (3, 1), "{report:?}");
        let (fourth, report) = chain.publish(&third, |delta| {
            delta.add_node("W");
        });
        assert_eq!(report.carried, 4, "{report:?}");
        // 65,535 changed edges: `v`'s entry falls 65,537 behind, `x`'s
        // exactly the budget.
        let (last, report) = chain.publish(&fourth, |delta| {
            let z = delta.label("z");
            for _ in 0..PENDING_EDGE_BUDGET - 2 {
                delta.add_edge(a, z, b);
            }
            delta.add_edge(b, u, a);
        });
        assert_eq!(
            report,
            MigrationReport {
                carried: 2,
                recomputed: 2,
                fallback_no_seed: 1,
                fallback_pending: 1,
                ..MigrationReport::default()
            }
        );
        assert_eq!(last.len(), 2);
        assert_eq!(window(&last), (1, 3), "the window starts at `x`'s mark");
        assert!(chain.resumed().is_empty(), "no publish resumed anything");
        let cold = EvalCache::from_csr(CsrGraph::clone(last.csr()));
        let (hits, misses) = last.stats();
        for regex in queries {
            assert_eq!(last.evaluate(regex), cold.evaluate(regex), "{regex:?}");
        }
        assert_eq!(chain.resumed().len(), 1, "only `x`'s entry resumes");
        let (hits, misses) = (last.stats().0 - hits, last.stats().1 - misses);
        assert_eq!((hits, misses), (2, 2), "two hits, two cold recomputes");
    }

    /// The window `cache`'s log holds: its first position and its length.
    fn window(cache: &EvalCache) -> (u64, usize) {
        let log = cache.log.read();
        assert_eq!(log.first + log.deltas.len() as u64, log.mark.publishes);
        (log.first, log.deltas.len())
    }

    #[test]
    fn the_window_holds_exactly_the_deltas_since_the_oldest_pending_entry() {
        let chain = Chain::new();
        let base = two_labels();
        let (a, b) = (NodeId::from(0usize), NodeId::from(1usize));
        let (x, y) = (base.label_id("x").unwrap(), base.label_id("y").unwrap());
        let (on_x, on_y) = (Regex::symbol(x), Regex::symbol(y));
        let mut cache = chain.cache(&base);
        cache.evaluate(&on_x);
        cache.evaluate(&on_y);
        // Publish `r` touches both labels at r = 0 and `y` after.  `on_y` is
        // read after every publish up to 9, so it is pending since position
        // 10; `on_x` is pending since position 0 until it is read after
        // publish 24.
        let mut windows = Vec::new();
        for round in 0..35 {
            let (next, _) = chain.publish(&cache, |delta| {
                if round == 0 {
                    delta.add_edge(b, x, a);
                }
                delta.add_edge(b, y, a);
            });
            if round < 10 {
                next.evaluate(&on_y);
            }
            if round == 24 {
                next.evaluate(&on_x);
            }
            windows.push(window(&next));
            cache = next;
        }
        let expected: Vec<(u64, usize)> = (0..25)
            .map(|round| (0, round + 1))
            .chain((25..35).map(|round| (10, round + 1 - 10)))
            .collect();
        assert_eq!(windows, expected);
        let cold = EvalCache::from_csr(CsrGraph::clone(cache.csr()));
        assert_eq!(cache.evaluate(&on_y), cold.evaluate(&on_y));
        assert_eq!(cache.evaluate(&on_x), cold.evaluate(&on_x));
        // With every entry resolved, a publish leaves nothing pending.
        let (last, _) = chain.publish(&cache, |delta| {
            delta.add_node("W");
        });
        assert_eq!(window(&last).1, 0, "nothing pending, no deltas");
    }

    #[test]
    fn shared_across_threads() {
        let g = sample();
        let cache = std::sync::Arc::new(EvalCache::from_csr(g.clone()));
        let x = g.label_id("x").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                let q = Regex::symbol(x);
                std::thread::spawn(move || cache.evaluate(&q).len())
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 1);
        }
        assert_eq!(cache.len(), 1);
    }
}
