//! The batch execution engine — one index, many queries.
//!
//! [`BatchEvaluator`] snapshots a graph into the label-partitioned
//! [`LabelIndex`] once and then serves any number of queries over it, one
//! at a time, in one scratch allocation kept across calls: evaluations,
//! resumes across a graph delta, and per-node shortest witnesses (which
//! answer per-node membership too).
//!
//! It implements [`DfaEvaluator`], which is how the `gps-rpq` evaluation
//! cache — and through it the whole `gps-core` engine, sessions, learner and
//! coverage — runs on it.

use crate::frontier::{
    evaluate_captured, evaluate_counting, resume, witness_from, Resumed, Scratch,
};
use crate::index::LabelIndex;
use crate::metrics::ExecMetrics;
use crate::planner::{Plan, PlanDecision, PlannerConfig};
use gps_automata::Dfa;
use gps_graph::{CsrGraph, GraphDelta, NodeId, Path};
use gps_rpq::{DfaEvaluator, EvalResume, QueryAnswer};
use std::sync::{Arc, Mutex, TryLockError};

/// A frontier-based batch evaluator bound to one graph snapshot.
///
/// The label-partitioned index is held behind an [`Arc`], so cloning the
/// evaluator — and handing clones to session evaluators, witnesses or future
/// shards — shares one index instead of re-partitioning the snapshot.
#[derive(Debug, Clone)]
pub struct BatchEvaluator {
    index: Arc<LabelIndex>,
    metrics: ExecMetrics,
    /// The per-state bitsets evaluations sweep in, kept between calls — by
    /// every clone and across [`apply_delta`](Self::apply_delta) — so a
    /// cold evaluation reuses memory that is already mapped instead of
    /// allocating and faulting in megabytes per call at a million nodes.  A caller that finds it busy
    /// (another thread mid-evaluation) sweeps in a fresh one.
    scratch: Arc<Mutex<Scratch>>,
}

impl BatchEvaluator {
    /// Indexes `csr` (one sweep of each direction's rows) and builds the
    /// evaluator.
    pub fn from_csr(csr: &CsrGraph) -> Self {
        Self::from_shared_index(Arc::new(LabelIndex::from_csr(csr)))
    }

    // `benchmark/src/shadow.rs:128,508` are the sole callers, and ordinary
    // PRs may not edit `benchmark/`; the next `[benchmark]` PR calls
    // `from_csr` and drops this.
    #[doc(hidden)]
    pub fn from_csr_sharded(csr: &CsrGraph, _shards: usize) -> Self {
        Self::from_csr(csr)
    }

    /// Builds the evaluator over an already-shared index (no re-partition).
    fn from_shared_index(index: Arc<LabelIndex>) -> Self {
        Self {
            index,
            metrics: ExecMetrics::disabled(),
            scratch: Arc::default(),
        }
    }

    /// Builds the next epoch's evaluator after a graph update: the label
    /// index is patched ([`LabelIndex::apply_delta`] — untouched partitions,
    /// and the untouched chunks of touched ones, are shared, not copied),
    /// with every knob carried over.  `csr` is the compacted snapshot the
    /// delta produced.  The patch is one `gps_exec_index_build_ns` sample:
    /// the interval a publish's `index_patch` phase times too; the patched
    /// index's size is then set on `gps_exec_index_bytes`.
    pub fn apply_delta(&self, csr: &CsrGraph, delta: &GraphDelta) -> Self {
        let started = std::time::Instant::now();
        let index = self.index.apply_delta(csr, delta);
        self.metrics.index_build.record_duration(started.elapsed());
        let next = Self {
            index: Arc::new(index),
            metrics: self.metrics.clone(),
            scratch: Arc::clone(&self.scratch),
        };
        next.record_index_bytes();
        next
    }

    // Kept only for `benchmark/src/shadow.rs:129`, which passes
    // `Engine::planner_config`; there is no planner to configure.  The next
    // change to `benchmark/` drops the call and this.
    #[doc(hidden)]
    pub fn with_planner_config(self, _config: PlannerConfig) -> Self {
        self
    }

    /// Installs pre-bound telemetry handles (default:
    /// [`ExecMetrics::disabled`] — recording costs one branch) and sets the
    /// index's size on `gps_exec_index_bytes`.  Carried across epochs by
    /// [`apply_delta`](Self::apply_delta), so a rebuilt evaluator keeps
    /// extending the same registry series.
    pub fn with_metrics(mut self, metrics: ExecMetrics) -> Self {
        self.metrics = metrics;
        self.record_index_bytes();
        self
    }

    /// Sets `gps_exec_index_bytes` to the held index's size; walks the
    /// index only when that handle records.
    fn record_index_bytes(&self) {
        if self.metrics.index_bytes.is_enabled() {
            let bytes = self.index.memory_bytes();
            self.metrics.index_bytes.set(bytes as u64);
        }
    }

    /// The telemetry handles in effect.
    pub fn metrics(&self) -> &ExecMetrics {
        &self.metrics
    }

    /// The label-partitioned index the evaluator sweeps.
    pub fn index(&self) -> &LabelIndex {
        &self.index
    }

    /// A new reference to the shared index (for witnesses, session
    /// evaluators and future shards).
    pub fn shared_index(&self) -> Arc<LabelIndex> {
        Arc::clone(&self.index)
    }

    // Kept only for `benchmark/src/trace.rs:236`, which counts how often
    // this is `Plan::Forward` (never: every evaluation runs push rounds).
    // The next change to `benchmark/` drops the call and this.
    #[doc(hidden)]
    pub fn plan_for(&self, _dfa: &Dfa) -> PlanDecision {
        PlanDecision {
            plan: Plan::Reverse,
        }
    }

    /// Evaluates one compiled DFA.
    pub fn evaluate(&self, dfa: &Dfa) -> QueryAnswer {
        self.cold(|index, scratch| evaluate_counting(index, dfa, scratch))
    }

    /// Runs one cold evaluation, timed into `gps_exec_eval_latency_ns` and
    /// counted with its rounds, in the shared scratch — or in a fresh one
    /// while another caller holds it.
    fn cold<R>(&self, sweep: impl FnOnce(&LabelIndex, &mut Scratch) -> (R, u64)) -> R {
        let span = self.metrics.eval_latency.start_timer();
        let (result, rounds) = match self.scratch.try_lock() {
            Ok(mut scratch) => sweep(&self.index, &mut scratch),
            // `prepare` resets every bit and counter, so a scratch a
            // panicking sweep left behind is as good as any.
            Err(TryLockError::Poisoned(poisoned)) => sweep(&self.index, &mut poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => sweep(&self.index, &mut Scratch::default()),
        };
        span.stop();
        self.metrics.evals.inc();
        self.metrics.frontier_rounds.add(rounds);
        result
    }
}

impl DfaEvaluator for BatchEvaluator {
    fn evaluate_dfa(&self, dfa: &Dfa) -> QueryAnswer {
        self.evaluate(dfa)
    }

    fn evaluate_dfa_captured(&self, dfa: &Dfa) -> (QueryAnswer, Option<EvalResume>) {
        self.cold(|index, scratch| {
            let (answer, rounds, resume) = evaluate_captured(index, dfa, scratch);
            ((answer, resume), rounds)
        })
    }

    fn evaluate_dfa_resumed(
        &self,
        dfa: &Dfa,
        seed: &EvalResume,
        delta: &GraphDelta,
    ) -> Option<(QueryAnswer, EvalResume)> {
        let Resumed {
            answer,
            rounds,
            overdeleted,
            seed,
        } = resume(&self.index, dfa, seed, delta)?;
        // Counted as an evaluation (its rounds are the delta-restricted
        // sweeps); latency is attributed by the caller's reseed histogram,
        // not the cold-eval one.
        self.metrics.evals.inc();
        self.metrics.frontier_rounds.add(rounds);
        self.metrics.support_overdeleted.add(overdeleted);
        Some((answer, seed))
    }

    fn selects_node(&self, dfa: &Dfa, node: NodeId) -> bool {
        self.witness(dfa, node).is_some()
    }

    fn witness(&self, dfa: &Dfa, node: NodeId) -> Option<Path> {
        witness_from(&self.index, dfa, node.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_automata::Regex;
    use gps_graph::{CsrGraph, Graph};
    use gps_rpq::PathQuery;

    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let n1 = g.add_node("N1");
        let n2 = g.add_node("N2");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        CsrGraph::from_graph(&g)
    }

    fn queries(g: &CsrGraph) -> Vec<Dfa> {
        let tram = g.label_id("tram").unwrap();
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        vec![
            Dfa::from_regex(&Regex::symbol(cinema)),
            Dfa::from_regex(&Regex::concat([
                Regex::star(Regex::union([Regex::symbol(tram), Regex::symbol(bus)])),
                Regex::symbol(cinema),
            ])),
            Dfa::from_regex(&Regex::star(Regex::symbol(bus))),
            Dfa::from_regex(&Regex::Empty),
        ]
    }

    #[test]
    fn batch_matches_naive_per_query() {
        let g = sample();
        let evaluator = BatchEvaluator::from_csr(&g);
        let dfas = queries(&g);
        let refs: Vec<&Dfa> = dfas.iter().collect();
        let batch = evaluator.evaluate_dfas(&refs);
        for (dfa, answer) in dfas.iter().zip(&batch) {
            assert_eq!(*answer, gps_rpq::eval::evaluate(&g, dfa));
        }
    }

    #[test]
    fn shared_index_is_one_allocation() {
        let g = sample();
        let evaluator = BatchEvaluator::from_csr(&g);
        let clone = evaluator.clone();
        assert!(Arc::ptr_eq(
            &evaluator.shared_index(),
            &clone.shared_index()
        ));
        let rebuilt = BatchEvaluator::from_shared_index(evaluator.shared_index());
        let dfas = queries(&g);
        for dfa in &dfas {
            assert_eq!(rebuilt.evaluate(dfa), evaluator.evaluate(dfa));
        }
    }

    #[test]
    fn trait_witness_matches_naive_witness_length() {
        let g = sample();
        let evaluator = BatchEvaluator::from_csr(&g);
        let naive = gps_rpq::NaiveEvaluator::from_csr(g.clone());
        let query = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        for node in 0..g.node_count() {
            let node = NodeId::from(node);
            let a = DfaEvaluator::witness(&naive, query.dfa(), node);
            let b = DfaEvaluator::witness(&evaluator, query.dfa(), node);
            assert_eq!(
                a.as_ref().map(|p| p.len()),
                b.as_ref().map(|p| p.len()),
                "{node}"
            );
            assert_eq!(
                evaluator.selects_node(query.dfa(), node),
                a.is_some(),
                "{node}"
            );
        }
    }

    #[test]
    fn parsed_queries_evaluate_through_their_dfa() {
        let g = sample();
        let evaluator = BatchEvaluator::from_csr(&g);
        let query = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        assert_eq!(evaluator.evaluate(query.dfa()), query.evaluate(&g));
        assert!(evaluator.selects_node(query.dfa(), g.node_by_name("N2").unwrap()));
        assert!(!evaluator.selects_node(query.dfa(), g.node_by_name("C1").unwrap()));
    }

    #[test]
    fn foreign_label_queries_match_the_naive_evaluator() {
        // A DFA compiled against a different (larger) interner: its label ids
        // are not in this graph's alphabet.  The naive evaluator answers
        // normally (no transition ever fires); the frontier must too.
        let g = sample();
        let foreign = gps_graph::LabelId::new(99);
        let dfas = [
            Dfa::from_regex(&Regex::symbol(foreign)),
            Dfa::from_regex(&Regex::star(Regex::symbol(foreign))),
        ];
        for dfa in &dfas {
            let expected = gps_rpq::eval::evaluate(&g, dfa);
            let evaluator = BatchEvaluator::from_csr(&g);
            assert_eq!(evaluator.evaluate(dfa), expected);
            for node in 0..g.node_count() {
                assert_eq!(
                    evaluator.selects_node(dfa, NodeId::from(node)),
                    expected.contains(NodeId::from(node))
                );
            }
        }
    }

    #[test]
    fn apply_delta_answers_like_a_fresh_evaluator() {
        use gps_graph::DeltaGraph;

        let g = sample();
        let base = Arc::new(g.clone());
        let old = BatchEvaluator::from_csr(&base);
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let n2 = delta.node_by_name("N2").unwrap();
        let c1 = delta.node_by_name("C1").unwrap();
        let bus = delta.labels().get("bus").unwrap();
        let tram = delta.labels().get("tram").unwrap();
        delta.add_edge(c1, bus, n2);
        let n1 = delta.node_by_name("N1").unwrap();
        let n4 = delta.node_by_name("N4").unwrap();
        assert!(delta.remove_edge(n1, tram, n4));
        let summary = delta.delta();
        let compacted = delta.compact();

        let patched = old.apply_delta(&compacted, &summary);
        let fresh = BatchEvaluator::from_csr(&compacted);
        for dfa in queries(&g) {
            assert_eq!(patched.evaluate(&dfa), fresh.evaluate(&dfa));
        }
    }

    #[test]
    fn a_kept_scratch_leaks_nothing_between_captures() {
        // One evaluator keeps its scratch across calls; nothing may leak
        // from one query's fixed point into the next.
        let g = sample();
        let evaluator = BatchEvaluator::from_csr(&g);
        for (i, dfa) in queries(&g).iter().enumerate() {
            let fresh = BatchEvaluator::from_csr(&g).evaluate_dfa_captured(dfa);
            assert_eq!(evaluator.evaluate_dfa_captured(dfa), fresh, "query {i}");
        }
    }

    #[test]
    fn the_index_bytes_gauge_follows_builds_and_patches() {
        use gps_graph::DeltaGraph;
        use gps_telemetry::MetricsRegistry;

        let registry = MetricsRegistry::enabled();
        let base = Arc::new(sample());
        let built =
            BatchEvaluator::from_csr(&base).with_metrics(ExecMetrics::from_registry(&registry));
        let gauge = || registry.snapshot().gauge("gps_exec_index_bytes");
        assert_eq!(gauge(), Some(built.index().memory_bytes() as u64));

        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let n1 = delta.node_by_name("N1").unwrap();
        let extra = delta.add_node("N9");
        let tram = delta.labels().get("tram").unwrap();
        delta.add_edge(n1, tram, extra);
        delta.add_edge(extra, tram, n1);
        let summary = delta.delta();
        let patched = built.apply_delta(&delta.compact(), &summary);
        let bytes = patched.index().memory_bytes();
        assert_ne!(bytes, built.index().memory_bytes());
        assert_eq!(gauge(), Some(bytes as u64));
    }

    #[test]
    fn empty_graph_and_empty_batch() {
        let g = CsrGraph::default();
        let evaluator = BatchEvaluator::from_csr(&g);
        assert!(evaluator.evaluate_dfas(&[]).is_empty());
        assert!(evaluator.evaluate_dfas_captured(&[]).is_empty());
    }
}
