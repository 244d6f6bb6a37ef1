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

use crate::eval::{DfaEvaluator, EvalResume, NaiveEvaluator, QueryAnswer};
use crate::words::WordIndex;
use gps_automata::{Alphabet, Dfa, Regex};
use gps_graph::{CsrGraph, GraphDelta, NodeId, Path};
use gps_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default maximum number of cached answers.
pub const DEFAULT_CAPACITY: usize = 1024;

#[derive(Debug)]
struct Entry {
    answer: Arc<QueryAnswer>,
    /// The labels the query's DFA can ever read — the per-entry alphabet
    /// fingerprint epoch migration compares against a delta's touched labels
    /// to prove the entry unaffected (Tier 1).
    alphabet: Alphabet,
    /// Whether the query's language contains the empty word — the membership
    /// a node with no alphabet-relevant out-edges has, i.e. the fill value
    /// when a carried answer is extended over nodes a label-disjoint delta
    /// added.
    nullable: bool,
    /// The compiled automaton the answer was computed from, kept so a
    /// touched entry can be re-derived without reparsing the expression.
    dfa: Arc<Dfa>,
    /// The fixed point behind `answer` (the Tier-2/3 seed, sharing the
    /// answer's blocks); `None` when the evaluator does not capture (naive
    /// mode) or the evaluation early-exited.
    resume: Option<Arc<EvalResume>>,
    /// Monotonic recency tick, updated with a relaxed store on every hit so
    /// lookups stay on the shared read lock.
    last_used: AtomicU64,
}

/// The snapshot's bounded-word index: derived once at the largest bound
/// asked for so far, plus its cheap restrictions to the smaller bounds in use
/// (the zoom radii below the path bound) — a restriction shares the index's
/// dictionary, id lists and postings, so no bound is ever derived twice.
#[derive(Debug, Default)]
struct Words {
    index: Option<Arc<WordIndex>>,
    restricted: HashMap<usize, Arc<WordIndex>>,
}

impl Words {
    fn get(&self, bound: usize) -> Option<Arc<WordIndex>> {
        match &self.index {
            Some(index) if index.bound() == bound => Some(Arc::clone(index)),
            _ => self.restricted.get(&bound).cloned(),
        }
    }
}

/// How one epoch migration ([`EvalCache::migrate_answers`]) split the old
/// cache's answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Entries whose alphabet misses every touched label: carried verbatim
    /// (Tier 1), zero recomputation.
    pub carried: usize,
    /// Touched entries re-derived from their seeded fixed point restricted
    /// to an insert-only delta (Tier 2).
    pub reseeded: usize,
    /// Touched entries re-derived across a removal-bearing delta by the
    /// over-delete/re-derive sweep (Tier 3).
    pub delete_reseeded: usize,
    /// Touched entries dropped to a cold recompute on next use — always the
    /// sum of the three `fallback_*` reasons.
    pub recomputed: usize,
    /// Cold fallbacks where the resume itself gave up: the removal's
    /// over-delete cone blew the saturation budget (or the seed's shape no
    /// longer matched the snapshot).
    pub fallback_saturation: usize,
    /// Cold fallbacks because the entry never captured a resumable seed.
    pub fallback_no_seed: usize,
    /// Cold fallbacks because the new cache hit its capacity before the
    /// entry's recency rank came up.
    pub fallback_evicted: usize,
    /// Seed blocks the Tier-2/3 resumes had to copy, summed over the
    /// resumed entries ([`EvalResume::sharing`]): the size of the delta's
    /// derivation cones.  Large with few resumed entries means one huge
    /// cone; small per entry with many entries means many touched queries.
    pub blocks_copied: usize,
    /// Seed blocks the resumed entries share with the superseded epoch's
    /// seeds (or with the uniform blocks) — what retiring that epoch will
    /// not free.
    pub blocks_shared: usize,
}

/// A concurrent, bounded evaluation cache bound to one graph snapshot.
///
/// Hits take only the shared read lock (recency and counters are atomics);
/// the exclusive write lock is reserved for inserts and evictions.
#[derive(Debug)]
pub struct EvalCache {
    csr: Arc<CsrGraph>,
    evaluator: Box<dyn DfaEvaluator>,
    capacity: usize,
    answers: RwLock<HashMap<Regex, Entry>>,
    /// The bounded-word index of the snapshot (lazy, shared): sessions score
    /// informativeness, cover negatives and decrement scores against it
    /// instead of walking the graph per node per interaction.
    words: RwLock<Words>,
    /// Hit/miss/eviction counters.  Standalone (per-cache) by default so the
    /// legacy accessors keep their exact per-instance semantics; rebound to
    /// the shared `gps_rpq_cache_*` registry series by
    /// [`with_metrics`](Self::with_metrics), where rebuilt-per-epoch caches
    /// keep extending one aggregate series.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Epoch-migration split: answers carried verbatim (Tier 1), re-derived
    /// from their seed across insert-only deltas (Tier 2) or removal-bearing
    /// deltas (Tier 3), and dropped to a cold recompute — the latter further
    /// attributed to one of three reasons.
    carried: Counter,
    reseeded: Counter,
    delete_reseeded: Counter,
    fallback_saturation: Counter,
    fallback_no_seed: Counter,
    fallback_evicted: Counter,
    /// `gps_rpq_cache_migrate_blocks_{copied,shared}_total` — the resumed
    /// seeds' block split (see [`MigrationReport::blocks_copied`]).
    blocks_copied: Counter,
    blocks_shared: Counter,
    /// Entries (answers + the word index) dropped when the cache's epoch was
    /// retired — the eviction attribution of the epoch swap.
    retired_entries: Counter,
    /// `gps_rpq_eval_latency_ns` — wall time of one cache-miss evaluation
    /// (disabled until [`with_metrics`](Self::with_metrics) binds it).
    eval_latency: Histogram,
    /// `gps_rpq_reseed_latency_ns` — wall time of one Tier-2 seeded
    /// re-derivation at publish.
    reseed_latency: Histogram,
    /// `gps_rpq_delete_reseed_latency_ns` — wall time of one Tier-3
    /// over-delete/re-derive at publish.
    delete_reseed_latency: Histogram,
    /// `gps_rpq_words_build_latency_ns` — wall time of one cold derivation of
    /// the word index.
    words_build_latency: Histogram,
    /// `gps_rpq_words_pairs` — (node, word) pairs the word index holds.
    words_pairs: Gauge,
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
            words: RwLock::new(Words::default()),
            hits: Counter::standalone(),
            misses: Counter::standalone(),
            evictions: Counter::standalone(),
            carried: Counter::standalone(),
            reseeded: Counter::standalone(),
            delete_reseeded: Counter::standalone(),
            fallback_saturation: Counter::standalone(),
            fallback_no_seed: Counter::standalone(),
            fallback_evicted: Counter::standalone(),
            blocks_copied: Counter::standalone(),
            blocks_shared: Counter::standalone(),
            retired_entries: Counter::standalone(),
            eval_latency: Histogram::disabled(),
            reseed_latency: Histogram::disabled(),
            delete_reseed_latency: Histogram::disabled(),
            words_build_latency: Histogram::disabled(),
            words_pairs: Gauge::disabled(),
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
            self.blocks_copied = registry.counter("gps_rpq_cache_migrate_blocks_copied_total");
            self.blocks_shared = registry.counter("gps_rpq_cache_migrate_blocks_shared_total");
            self.retired_entries = registry.counter("gps_rpq_cache_retired_total");
            self.eval_latency = registry.histogram("gps_rpq_eval_latency_ns");
            self.reseed_latency = registry.histogram("gps_rpq_reseed_latency_ns");
            self.delete_reseed_latency = registry.histogram("gps_rpq_delete_reseed_latency_ns");
            self.words_build_latency = registry.histogram("gps_rpq_words_build_latency_ns");
            self.words_pairs = registry.gauge("gps_rpq_words_pairs");
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
    pub fn csr(&self) -> &CsrGraph {
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
    /// the migration split instead of vanishing without a counter.
    pub fn retire(&self) {
        let mut answers = self.answers.write();
        let mut words = self.words.write();
        self.retired_entries
            .add((answers.len() + usize::from(words.index.is_some())) as u64);
        answers.clear();
        *words = Words::default();
        self.words_pairs.set(0);
        self.retired.store(true, Ordering::Release);
    }

    /// Returns `true` once [`retire`](Self::retire) has run.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Migrates `old`'s (the superseded epoch's) cached answers into this
    /// (new-epoch) cache across `delta`, in three tiers:
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
    ///   captured seed on an *insert-only* delta resumes its fixed point
    ///   restricted to the delta ([`DfaEvaluator::evaluate_dfa_resumed`]) —
    ///   the fixed point is monotone in the edge set, so inserts only grow
    ///   it.
    /// * **Tier 3 — over-delete/re-derive.** A touched entry with a seed on
    ///   a *removal-bearing* delta takes the delete-aware resume: support
    ///   counts are decremented along removed edges, zero-support
    ///   configurations are transitively over-deleted, and the survivors
    ///   re-seed a push-only re-derivation (mixed insert+delete deltas run
    ///   the insert sweep first, then the removal sweep — one unified path).
    ///
    /// A Tier-2/3 entry's new seed is a copy-on-write clone of the old one
    /// and its new answer that seed's start-state alive set: they share
    /// every block the delta's derivation cone did not reach with the
    /// superseded epoch, so migrating costs the cone and retiring the old
    /// epoch frees only what was copied.  The report's `blocks_copied` /
    /// `blocks_shared` (and `gps_rpq_cache_migrate_blocks_*_total`) say how
    /// large the cones were.
    ///
    /// Everything else falls back to a cold recompute on next use, with the
    /// reason attributed: `fallback_saturation` (the resume gave up — the
    /// over-delete cone blew the evaluator's budget, or the seed's shape no
    /// longer matched), `fallback_no_seed` (nothing captured to resume
    /// from), or `fallback_evicted` (the new cache filled before this
    /// entry's recency rank came up); `recomputed` is always their sum.
    ///
    /// Recency ticks carry over, so LRU ordering survives the epoch swap;
    /// the split is recorded on the `carried`/`reseeded`/`delete_reseeded`/
    /// `fallback_*` counters and each reseed's wall time on
    /// `gps_rpq_reseed_latency_ns` (Tier 2) or
    /// `gps_rpq_delete_reseed_latency_ns` (Tier 3).
    pub fn migrate_answers(&self, old: &EvalCache, delta: &GraphDelta) -> MigrationReport {
        let mut report = MigrationReport::default();
        let touched = delta.touched_labels();
        let insert_only = delta.removed_edges.is_empty();
        let new_n = self.csr.node_count();
        // Continue the old epoch's tick stream so carried recency stays
        // comparable with post-migration touches.
        self.tick
            .fetch_max(old.tick.load(Ordering::Relaxed), Ordering::Relaxed);
        let old_entries = old.answers.read();
        // Most-recently-used first, so the capacity cap keeps the hot end.
        let mut ordered: Vec<(&Regex, &Entry)> = old_entries.iter().collect();
        ordered
            .sort_by_key(|(_, entry)| std::cmp::Reverse(entry.last_used.load(Ordering::Relaxed)));
        let total = ordered.len();
        let mut entries = self.answers.write();
        for (rank, (regex, entry)) in ordered.into_iter().enumerate() {
            if entries.len() >= self.capacity {
                // Everything below the capacity line recomputes cold on its
                // next use; attribute the whole tail in one step.
                let evicted = total - rank;
                report.recomputed += evicted;
                report.fallback_evicted += evicted;
                break;
            }
            let untouched = !entry.alphabet.iter().any(|label| touched.contains(&label));
            let migrated = if untouched {
                report.carried += 1;
                let answer = if entry.answer.node_count() == new_n {
                    Arc::clone(&entry.answer)
                } else {
                    Arc::new(entry.answer.extended(new_n, entry.nullable))
                };
                Entry {
                    answer,
                    alphabet: entry.alphabet.clone(),
                    nullable: entry.nullable,
                    dfa: Arc::clone(&entry.dfa),
                    // The seed stays valid: the relevant subgraph is
                    // unchanged, and nodes past `resume.nodes()` are
                    // re-seeded from the DFA alone at the next resume.
                    resume: entry.resume.clone(),
                    last_used: AtomicU64::new(entry.last_used.load(Ordering::Relaxed)),
                }
            } else {
                let reseeded = entry.resume.as_ref().and_then(|resume| {
                    let span = if insert_only {
                        self.reseed_latency.start_timer()
                    } else {
                        self.delete_reseed_latency.start_timer()
                    };
                    let outcome = self
                        .evaluator
                        .evaluate_dfa_resumed(&entry.dfa, resume, delta);
                    match outcome {
                        // The span ends before the block walk: that is
                        // bookkeeping, not part of the resume it times.
                        Some((answer, next)) => {
                            span.stop();
                            let sharing = next.sharing(resume);
                            Some((answer, next, sharing))
                        }
                        None => {
                            span.cancel();
                            None
                        }
                    }
                });
                match reseeded {
                    Some((answer, resume, sharing)) => {
                        report.blocks_copied += sharing.copied;
                        report.blocks_shared += sharing.shared;
                        if insert_only {
                            report.reseeded += 1;
                        } else {
                            report.delete_reseeded += 1;
                        }
                        Entry {
                            answer: Arc::new(answer),
                            alphabet: entry.alphabet.clone(),
                            nullable: entry.nullable,
                            dfa: Arc::clone(&entry.dfa),
                            resume: Some(Arc::new(resume)),
                            last_used: AtomicU64::new(entry.last_used.load(Ordering::Relaxed)),
                        }
                    }
                    None => {
                        report.recomputed += 1;
                        if entry.resume.is_some() {
                            // The evaluator declined the seed: over-delete
                            // budget blown, shape mismatch, or (naive
                            // evaluator) no resume support at all.
                            report.fallback_saturation += 1;
                        } else {
                            report.fallback_no_seed += 1;
                        }
                        continue;
                    }
                }
            };
            entries.insert(regex.clone(), migrated);
        }
        self.carried.add(report.carried as u64);
        self.reseeded.add(report.reseeded as u64);
        self.delete_reseeded.add(report.delete_reseeded as u64);
        self.fallback_saturation
            .add(report.fallback_saturation as u64);
        self.fallback_no_seed.add(report.fallback_no_seed as u64);
        self.fallback_evicted.add(report.fallback_evicted as u64);
        self.blocks_copied.add(report.blocks_copied as u64);
        self.blocks_shared.add(report.blocks_shared as u64);
        report
    }

    /// Seeds this (new-epoch) cache's word index from `old`'s (the superseded
    /// epoch's cache) across `delta` — the incremental alternative to
    /// re-deriving every node's words on the first session of each epoch.
    /// Only the nodes that can reach a changed edge within the bound are
    /// re-derived ([`WordIndex::inherit`]); every other node shares its id
    /// list with the old epoch.  Nothing happens when `old` never built an
    /// index, or this cache already has one.
    pub fn inherit_words(&self, old: &EvalCache, delta: &GraphDelta) {
        let Some(index) = old.words.read().index.clone() else {
            return;
        };
        let mut words = self.words.write();
        if words.index.is_none() {
            let index = index.inherit(&old.csr, &self.csr, delta);
            self.words_pairs.set(index.pairs() as u64);
            words.index = Some(Arc::new(index));
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
        if let Some(answer) = self.touch(regex) {
            return answer;
        }
        let dfa = Dfa::from_regex(regex);
        let span = self.eval_latency.start_timer();
        let (answer, resume) = self.evaluator.evaluate_dfa_captured(&dfa);
        span.stop();
        let answer = Arc::new(answer);
        self.insert(regex, &answer, dfa, resume);
        answer
    }

    /// Like [`evaluate`](Self::evaluate), but for callers that already hold
    /// the compiled DFA of `regex` (the learner does): a miss evaluates the
    /// supplied automaton directly instead of recompiling the expression.
    ///
    /// `dfa` must accept the language of `regex` — the answer is cached under
    /// the expression.
    pub fn evaluate_compiled(&self, regex: &Regex, dfa: &Dfa) -> Arc<QueryAnswer> {
        if let Some(answer) = self.touch(regex) {
            return answer;
        }
        let span = self.eval_latency.start_timer();
        let (answer, resume) = self.evaluator.evaluate_dfa_captured(dfa);
        span.stop();
        let answer = Arc::new(answer);
        self.insert(regex, &answer, dfa.clone(), resume);
        answer
    }

    /// A shortest witness path for `node` under `dfa`, extracted by the
    /// configured evaluator (uncached — witnesses are per-node queries).
    pub fn witness(&self, dfa: &Dfa, node: NodeId) -> Option<Path> {
        self.evaluator.witness(dfa, node)
    }

    /// The word index of the snapshot for words of length `1..=bound`:
    /// indexed by node it yields exactly
    /// `PathEnumerator::new(bound).words_from(graph, node)`, and per word the
    /// nodes spelling it.
    ///
    /// Derived lazily, once, at the largest bound asked for; a smaller bound
    /// is a restriction of that index (memoized too), a larger one replaces
    /// it.  The derivation is the most expensive thing the cache builds, so a
    /// miss runs *under the write lock* after a re-check: a burst of cold
    /// sessions derives once and the rest wait for the shared result.  Only
    /// `words` callers wait on this lock — the answer cache has its own.
    pub fn bounded_words(&self, bound: usize) -> Arc<WordIndex> {
        if let Some(index) = self.words.read().get(bound) {
            return index;
        }
        let mut words = self.words.write();
        if let Some(index) = words.get(bound) {
            return index;
        }
        match &words.index {
            Some(index) if index.bound() > bound => {
                let restricted = Arc::new(index.restricted(bound));
                words.restricted.insert(bound, Arc::clone(&restricted));
                restricted
            }
            _ => {
                let span = self.words_build_latency.start_timer();
                let index = Arc::new(WordIndex::build(&self.csr, bound));
                span.stop();
                self.words_pairs.set(index.pairs() as u64);
                *words = Words {
                    index: Some(Arc::clone(&index)),
                    restricted: HashMap::new(),
                };
                index
            }
        }
    }

    /// The number of distinct words of length `1..=bound` spelled by each
    /// node's outgoing paths, indexed by node id — every node's
    /// uncovered-word count under *empty* negative coverage, i.e. the
    /// informativeness baseline an interactive session starts from.
    pub fn bounded_word_counts(&self, bound: usize) -> Vec<u32> {
        self.bounded_words(bound)
            .iter()
            .map(|words| words.len() as u32)
            .collect()
    }

    /// The bound the word index is currently derived at, `None` before the
    /// first [`bounded_words`](Self::bounded_words) or inheritance.
    pub fn words_bound(&self) -> Option<usize> {
        self.words.read().index.as_ref().map(|index| index.bound())
    }

    /// Evaluates a batch of expressions, returning the answers in input
    /// order.  Hits are served from the cache; the *distinct* misses are
    /// compiled and handed to the evaluator's batch entry point in one call
    /// (duplicates within the batch are evaluated once), so a batch engine
    /// can share scratch state across the misses.
    pub fn evaluate_many(&self, regexes: &[&Regex]) -> Vec<Arc<QueryAnswer>> {
        let mut results: Vec<Option<Arc<QueryAnswer>>> =
            regexes.iter().map(|regex| self.touch(regex)).collect();
        // Distinct uncached expressions in first-occurrence order, plus the
        // (result slot → distinct miss) assignment.
        let mut first_occurrence: HashMap<&Regex, usize> = HashMap::new();
        let mut distinct: Vec<usize> = Vec::new();
        let mut assignment: Vec<(usize, usize)> = Vec::new();
        for (i, result) in results.iter().enumerate() {
            if result.is_none() {
                let slot = *first_occurrence.entry(regexes[i]).or_insert_with(|| {
                    distinct.push(i);
                    distinct.len() - 1
                });
                assignment.push((i, slot));
            }
        }
        if !distinct.is_empty() {
            let dfas: Vec<Dfa> = distinct
                .iter()
                .map(|&i| Dfa::from_regex(regexes[i]))
                .collect();
            let outcomes = {
                let dfa_refs: Vec<&Dfa> = dfas.iter().collect();
                let span = self.eval_latency.start_timer();
                let outcomes = self.evaluator.evaluate_dfas_captured(&dfa_refs);
                span.stop();
                outcomes
            };
            let mut answers: Vec<Arc<QueryAnswer>> = Vec::with_capacity(outcomes.len());
            for ((&i, dfa), (answer, resume)) in distinct.iter().zip(dfas).zip(outcomes) {
                let answer = Arc::new(answer);
                self.insert(regexes[i], &answer, dfa, resume);
                answers.push(answer);
            }
            for (i, slot) in assignment {
                results[i] = Some(Arc::clone(&answers[slot]));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("all filled"))
            .collect()
    }

    /// Looks up `regex`, refreshing its recency on a hit.  Hits stay on the
    /// shared read lock.
    fn touch(&self, regex: &Regex) -> Option<Arc<QueryAnswer>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let answers = self.answers.read();
        if let Some(entry) = answers.get(regex) {
            entry.last_used.store(tick, Ordering::Relaxed);
            self.hits.inc();
            Some(Arc::clone(&entry.answer))
        } else {
            self.misses.inc();
            None
        }
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
                .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
                .map(|(regex, _)| regex.clone())
            {
                answers.remove(&oldest);
                self.evictions.inc();
            }
        }
        answers.entry(regex.clone()).or_insert_with(|| Entry {
            answer: Arc::clone(answer),
            alphabet: dfa.used_alphabet(),
            nullable: dfa.is_accepting(dfa.start()),
            dfa: Arc::new(dfa),
            resume: resume.map(Arc::new),
            last_used: AtomicU64::new(tick),
        });
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
    use gps_graph::{Graph, PathEnumerator, Word};

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

    #[test]
    fn evaluate_many_mixes_hits_and_misses() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        let x = g.label_id("x").unwrap();
        let q1 = Regex::symbol(x);
        let q2 = Regex::star(Regex::symbol(x));
        cache.evaluate(&q1);
        let answers = cache.evaluate_many(&[&q1, &q2, &q1]);
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0].nodes(), answers[2].nodes());
        assert!(
            answers[1].contains(g.node_by_name("B").unwrap()),
            "x* selects B"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evaluate_many_deduplicates_misses() {
        /// Counts how many DFAs it is actually asked to evaluate.
        #[derive(Debug)]
        struct Counting {
            inner: NaiveEvaluator,
            evaluated: std::sync::atomic::AtomicUsize,
        }
        impl DfaEvaluator for Counting {
            fn evaluate_dfa(&self, dfa: &Dfa) -> QueryAnswer {
                self.evaluated
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.inner.evaluate_dfa(dfa)
            }

            fn witness(&self, dfa: &Dfa, node: NodeId) -> Option<Path> {
                self.inner.witness(dfa, node)
            }
        }
        let g = sample();
        let csr = g.clone();
        let counting = Counting {
            inner: NaiveEvaluator::from_csr(csr.clone()),
            evaluated: std::sync::atomic::AtomicUsize::new(0),
        };
        let cache = EvalCache::with_evaluator(csr, Box::new(counting));
        let x = g.label_id("x").unwrap();
        let q1 = Regex::symbol(x);
        let q2 = Regex::star(Regex::symbol(x));
        let answers = cache.evaluate_many(&[&q1, &q2, &q1, &q1]);
        assert_eq!(answers.len(), 4);
        assert_eq!(answers[0].nodes(), answers[2].nodes());
        // q1 appears three times uncached but is evaluated once.
        let counting = cache.evaluator();
        let debug = format!("{counting:?}");
        assert!(debug.contains("evaluated: 2"), "got {debug}");
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
    fn smaller_bounds_restrict_the_index_and_larger_ones_replace_it() {
        let g = sample();
        let cache = EvalCache::from_csr(g.clone());
        assert_eq!(cache.words_bound(), None);
        let w2 = cache.bounded_words(2);
        assert_eq!(cache.words_bound(), Some(2));
        // A smaller bound is served from the same index, and memoized.
        let w1 = cache.bounded_words(1);
        assert_eq!(cache.words_bound(), Some(2));
        assert!(Arc::ptr_eq(&w1, &cache.bounded_words(1)));
        assert!(Arc::ptr_eq(&w2, &cache.bounded_words(2)));
        // A larger bound re-derives; the smaller ones follow it.
        cache.bounded_words(3);
        assert_eq!(cache.words_bound(), Some(3));
        let a = g.node_by_name("A").unwrap();
        for bound in 1..=3 {
            assert_eq!(
                words_of(&cache.bounded_words(bound), a),
                enumerated(&g, a, bound),
                "bound {bound}"
            );
        }
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
        let old_cache = EvalCache::from_csr((*base).clone());
        let old_w2 = old_cache.bounded_words(2);
        let old_w4 = old_cache.bounded_words(4);

        // Change both ends: drop the first hop, append w after the tail.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let w = delta.add_node("w");
        let z = delta.label("z");
        delta.add_edge(nodes[4], z, w);
        let x = delta.labels().get("x").unwrap();
        assert!(delta.remove_edge(nodes[0], x, nodes[1]));
        let summary = delta.delta();
        let compacted = delta.compact();

        let new_cache = EvalCache::from_csr(compacted.clone());
        new_cache.inherit_words(&old_cache, &summary);
        assert_eq!(new_cache.words_bound(), Some(4), "the index was inherited");
        let cold = EvalCache::from_csr(compacted.clone());
        for bound in [2usize, 4] {
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
        }
        // v1 is 3 reverse steps from the nearest changed source (v4) and
        // unreachable from v0's removal, so its bound-2 words are unchanged…
        assert_eq!(
            words_of(&new_cache.bounded_words(2), nodes[1]),
            words_of(&old_w2, nodes[1])
        );
        // …while at bound 4 the appended tail edge reaches it.
        assert_ne!(
            words_of(&new_cache.bounded_words(4), nodes[1]),
            words_of(&old_w4, nodes[1])
        );
        // The changed nodes themselves were re-derived on the new snapshot.
        assert!(new_cache.bounded_words(2)[nodes[0].index()].is_empty());
        assert!(new_cache.bounded_words(2)[w.index()].is_empty());
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
        assert_eq!(
            report,
            MigrationReport {
                carried: 1,
                recomputed: touched.len(),
                fallback_saturation: touched.len(),
                ..MigrationReport::default()
            }
        );
        assert_eq!(
            registry
                .snapshot()
                .counter("gps_rpq_cache_fallback_saturation_total"),
            Some(touched.len() as u64)
        );
        assert_eq!(new_cache.len(), 1, "only the untouched entry is carried");
        let cold = EvalCache::from_csr((*compacted).clone());
        for regex in &all {
            assert_eq!(new_cache.evaluate(regex), cold.evaluate(regex));
        }
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
