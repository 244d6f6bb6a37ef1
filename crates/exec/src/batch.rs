//! The batch execution engine — one index, many queries.
//!
//! [`BatchEvaluator`] snapshots a graph into the label-partitioned
//! [`LabelIndex`] once and then serves any number of queries over it, one
//! at a time: single evaluations, sequential batches sharing one scratch
//! allocation ([`evaluate_many`](BatchEvaluator::evaluate_many)), resumes
//! across a graph delta, and forward early-exit membership checks
//! ([`selects`](BatchEvaluator::selects)).
//!
//! It implements [`DfaEvaluator`], which is how the `gps-rpq` evaluation
//! cache — and through it the whole `gps-core` engine, sessions, learner and
//! coverage — runs on it.

use crate::frontier::{
    evaluate_captured, evaluate_counting, resume, selects_from, witness_from, Resumed, Scratch,
    DEFAULT_OVERDELETE_LIMIT,
};
use crate::index::LabelIndex;
use crate::metrics::ExecMetrics;
use crate::planner::{self, Plan, PlanDecision, PlannerConfig};
use gps_automata::Dfa;
use gps_graph::{CsrGraph, GraphDelta, LabelStats, NodeId, Path};
use gps_rpq::{DfaEvaluator, EvalResume, PathQuery, QueryAnswer};
use std::sync::{Arc, Mutex, TryLockError};

/// A frontier-based batch evaluator bound to one graph snapshot.
///
/// The label-partitioned index is held behind an [`Arc`], so cloning the
/// evaluator — and handing clones to session evaluators, witnesses or future
/// shards — shares one index instead of re-partitioning the snapshot.
#[derive(Debug, Clone)]
pub struct BatchEvaluator {
    index: Arc<LabelIndex>,
    stats: LabelStats,
    plan_override: Option<Plan>,
    metrics: ExecMetrics,
    /// The per-state bitsets and support counters evaluations sweep in,
    /// kept between calls — by every clone and across
    /// [`apply_delta`](Self::apply_delta) — so a cold evaluation reuses
    /// memory that is already mapped instead of allocating and faulting in
    /// megabytes per call at a million nodes.  A caller that finds it busy
    /// (another thread mid-evaluation) sweeps in a fresh one.
    scratch: Arc<Mutex<Scratch>>,
}

impl BatchEvaluator {
    /// Indexes `csr` (one edge sweep) and builds the evaluator.
    pub fn from_csr(csr: &CsrGraph) -> Self {
        Self::from_parts(LabelIndex::from_csr(csr), LabelStats::compute(csr))
    }

    // `benchmark/src/shadow.rs:128,508` are the sole callers, and ordinary
    // PRs may not edit `benchmark/`; the next `[benchmark]` PR calls
    // `from_csr` and drops this.
    #[doc(hidden)]
    pub fn from_csr_sharded(csr: &CsrGraph, _shards: usize) -> Self {
        Self::from_csr(csr)
    }

    /// Builds the evaluator over an already-shared index (no re-partition).
    pub fn from_shared_index(index: Arc<LabelIndex>, stats: LabelStats) -> Self {
        Self {
            index,
            stats,
            plan_override: None,
            metrics: ExecMetrics::disabled(),
            scratch: Arc::default(),
        }
    }

    /// Builds the next epoch's evaluator after a graph update: the label
    /// index is patched ([`LabelIndex::apply_delta`] — untouched partitions,
    /// and the untouched chunks of touched ones, are shared, not copied) and
    /// the planner statistics are derived from the patched partitions, with
    /// every knob carried over.  `csr` is the compacted snapshot the delta
    /// produced.  Both steps are one `gps_exec_index_build_ns` sample: the
    /// interval a publish's `index_patch` phase times too.
    pub fn apply_delta(&self, csr: &CsrGraph, delta: &GraphDelta) -> Self {
        let started = std::time::Instant::now();
        let index = self
            .index
            .apply_delta(delta, csr.node_count(), csr.label_count());
        let stats = index.patched_stats(&self.stats, &delta.touched_labels());
        self.metrics.index_build.record_duration(started.elapsed());
        Self {
            index: Arc::new(index),
            stats,
            plan_override: self.plan_override,
            metrics: self.metrics.clone(),
            scratch: Arc::clone(&self.scratch),
        }
    }

    fn from_parts(index: LabelIndex, stats: LabelStats) -> Self {
        Self::from_shared_index(Arc::new(index), stats)
    }

    /// Forces every query onto `plan` instead of consulting the planner
    /// (used by the differential tests and benchmarks).
    pub fn with_plan(mut self, plan: Plan) -> Self {
        self.plan_override = Some(plan);
        self
    }

    // Kept only for `benchmark/src/shadow.rs:129`, which passes
    // `Engine::planner_config` (always the default) and so is ignored: the
    // planner always runs `PlannerConfig::default()`.  The next change to
    // `benchmark/` drops the call and this.
    #[doc(hidden)]
    pub fn with_planner_config(self, _config: PlannerConfig) -> Self {
        self
    }

    /// Installs pre-bound telemetry handles (default:
    /// [`ExecMetrics::disabled`] — recording costs one branch).  Carried
    /// across epochs by [`apply_delta`](Self::apply_delta), so a rebuilt
    /// evaluator keeps extending the same registry series.
    pub fn with_metrics(mut self, metrics: ExecMetrics) -> Self {
        self.metrics = metrics;
        self
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

    /// The per-label statistics the planner consults.
    pub fn stats(&self) -> &LabelStats {
        &self.stats
    }

    /// The plan the evaluator would run `dfa` with, and why.
    pub fn plan_for(&self, dfa: &Dfa) -> PlanDecision {
        let mut decision = planner::plan(&self.stats, dfa);
        if let Some(plan) = self.plan_override {
            decision.plan = plan;
        }
        decision
    }

    /// Evaluates one compiled DFA.
    pub fn evaluate(&self, dfa: &Dfa) -> QueryAnswer {
        self.with_scratch(|scratch| self.evaluate_scratch(dfa, scratch))
    }

    /// Runs `sweep` in the shared scratch, or in a fresh one while another
    /// caller holds it.
    fn with_scratch<R>(&self, sweep: impl FnOnce(&mut Scratch) -> R) -> R {
        match self.scratch.try_lock() {
            Ok(mut scratch) => sweep(&mut scratch),
            // `prepare` resets every bit and counter, so a scratch a
            // panicking sweep left behind is as good as any.
            Err(TryLockError::Poisoned(poisoned)) => sweep(&mut poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => sweep(&mut Scratch::default()),
        }
    }

    /// Evaluates one parsed query.
    pub fn evaluate_query(&self, query: &PathQuery) -> QueryAnswer {
        self.evaluate(query.dfa())
    }

    fn evaluate_scratch(&self, dfa: &Dfa, scratch: &mut Scratch) -> QueryAnswer {
        let plan = self.plan_for(dfa).plan;
        self.metrics.record_plan(plan);
        let span = self.metrics.eval_latency.start_timer();
        let (answer, rounds) = evaluate_counting(&self.index, dfa, plan, scratch);
        span.stop();
        self.metrics.evals.inc();
        self.metrics.frontier_rounds.add(rounds);
        answer
    }

    /// [`evaluate_scratch`](Self::evaluate_scratch) that additionally
    /// captures the alive sets when the fixed point completed (see
    /// [`evaluate_captured`]).
    fn evaluate_captured_scratch(
        &self,
        dfa: &Dfa,
        scratch: &mut Scratch,
    ) -> (QueryAnswer, Option<EvalResume>) {
        let plan = self.plan_for(dfa).plan;
        self.metrics.record_plan(plan);
        let span = self.metrics.eval_latency.start_timer();
        let (answer, rounds, resume) = evaluate_captured(&self.index, dfa, plan, scratch);
        span.stop();
        self.metrics.evals.inc();
        self.metrics.frontier_rounds.add(rounds);
        (answer, resume)
    }

    /// Evaluates a batch sequentially, sharing one scratch allocation across
    /// all queries (answers in input order).
    pub fn evaluate_many(&self, dfas: &[&Dfa]) -> Vec<QueryAnswer> {
        self.with_scratch(|scratch| {
            dfas.iter()
                .map(|dfa| self.evaluate_scratch(dfa, scratch))
                .collect()
        })
    }

    /// Forward early-exit membership check for one node.
    pub fn selects(&self, dfa: &Dfa, node: NodeId) -> bool {
        selects_from(&self.index, dfa, node.index())
    }
}

impl DfaEvaluator for BatchEvaluator {
    fn evaluate_dfa(&self, dfa: &Dfa) -> QueryAnswer {
        self.evaluate(dfa)
    }

    fn evaluate_dfas(&self, dfas: &[&Dfa]) -> Vec<QueryAnswer> {
        self.evaluate_many(dfas)
    }

    fn evaluate_dfa_captured(&self, dfa: &Dfa) -> (QueryAnswer, Option<EvalResume>) {
        self.with_scratch(|scratch| self.evaluate_captured_scratch(dfa, scratch))
    }

    fn evaluate_dfas_captured(&self, dfas: &[&Dfa]) -> Vec<(QueryAnswer, Option<EvalResume>)> {
        self.with_scratch(|scratch| {
            dfas.iter()
                .map(|dfa| self.evaluate_captured_scratch(dfa, scratch))
                .collect()
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
        } = resume(&self.index, dfa, seed, delta, DEFAULT_OVERDELETE_LIMIT)?;
        // Counted as an evaluation (its rounds are the delta-restricted
        // sweeps); latency is attributed by the caller's reseed histogram,
        // not the cold-eval one.
        self.metrics.evals.inc();
        self.metrics.frontier_rounds.add(rounds);
        self.metrics.support_overdeleted.add(overdeleted);
        Some((answer, seed))
    }

    fn selects_node(&self, dfa: &Dfa, node: NodeId) -> bool {
        self.selects(dfa, node)
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
        let batch = evaluator.evaluate_many(&refs);
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
        let rebuilt =
            BatchEvaluator::from_shared_index(evaluator.shared_index(), evaluator.stats().clone());
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
    fn forced_plans_all_agree() {
        let g = sample();
        let dfas = queries(&g);
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            let evaluator = BatchEvaluator::from_csr(&g).with_plan(plan);
            for dfa in &dfas {
                assert_eq!(
                    evaluator.plan_for(dfa).plan,
                    plan,
                    "override wins over the planner"
                );
                assert_eq!(evaluator.evaluate(dfa), gps_rpq::eval::evaluate(&g, dfa));
            }
        }
    }

    #[test]
    fn evaluate_query_accepts_parsed_queries() {
        let g = sample();
        let evaluator = BatchEvaluator::from_csr(&g);
        let query = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        assert_eq!(evaluator.evaluate_query(&query), query.evaluate(&g));
        assert!(evaluator.selects(query.dfa(), g.node_by_name("N2").unwrap()));
        assert!(!evaluator.selects(query.dfa(), g.node_by_name("C1").unwrap()));
    }

    #[test]
    fn foreign_label_queries_match_the_naive_evaluator() {
        // A DFA compiled against a different (larger) interner: its label ids
        // are not in this graph's alphabet.  The naive evaluator answers
        // normally (no transition ever fires); all frontier modes must too.
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
            for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
                let forced = BatchEvaluator::from_csr(&g).with_plan(plan);
                assert_eq!(forced.evaluate(dfa), expected, "{plan:?}");
            }
            for node in 0..g.node_count() {
                assert_eq!(
                    evaluator.selects(dfa, NodeId::from(node)),
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
        assert_eq!(patched.stats(), fresh.stats());
        for dfa in queries(&g) {
            assert_eq!(patched.evaluate(&dfa), fresh.evaluate(&dfa));
            assert_eq!(
                patched.plan_for(&dfa).plan,
                fresh.plan_for(&dfa).plan,
                "patched stats drive identical plans"
            );
        }
    }

    #[test]
    fn captured_batch_matches_single_captures() {
        // The batch shares one scratch across queries; nothing may leak from
        // one query's fixed point into the next.
        let g = sample();
        let evaluator = BatchEvaluator::from_csr(&g);
        let dfas = queries(&g);
        let refs: Vec<&Dfa> = dfas.iter().collect();
        let batch = evaluator.evaluate_dfas_captured(&refs);
        assert_eq!(batch.len(), dfas.len());
        for (i, (dfa, captured)) in dfas.iter().zip(&batch).enumerate() {
            assert_eq!(*captured, evaluator.evaluate_dfa_captured(dfa), "query {i}");
        }
    }

    #[test]
    fn empty_graph_and_empty_batch() {
        let g = CsrGraph::default();
        let evaluator = BatchEvaluator::from_csr(&g);
        assert!(evaluator.evaluate_many(&[]).is_empty());
        assert!(evaluator.evaluate_dfas_captured(&[]).is_empty());
    }
}
