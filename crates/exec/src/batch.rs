//! The batch execution engine — one index, many queries.
//!
//! [`BatchEvaluator`] snapshots a graph into the label-partitioned
//! [`LabelIndex`] once and then serves any number of queries over it:
//! single evaluations, shared-scratch sequential batches
//! ([`evaluate_many`](BatchEvaluator::evaluate_many)), an opt-in scoped
//! `std::thread` parallel batch
//! ([`evaluate_many_parallel`](BatchEvaluator::evaluate_many_parallel)), and
//! direction-aware multi-source membership checks
//! ([`evaluate_sources`](BatchEvaluator::evaluate_sources)).
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
use gps_graph::{CsrGraph, GraphBackend, GraphDelta, LabelStats, NodeId, Path};
use gps_rpq::{DfaEvaluator, EvalResume, PathQuery, QueryAnswer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Source-count threshold (relative to `node_count`) below which
/// multi-source checks run per-source forward searches instead of one global
/// fixed point.
const FORWARD_SOURCE_FRACTION: usize = 16;

/// A frontier-based batch evaluator bound to one graph snapshot.
///
/// The label-partitioned index is held behind an [`Arc`], so cloning the
/// evaluator — and handing clones to session evaluators, witnesses or future
/// shards — shares one index instead of re-partitioning the snapshot.
#[derive(Debug, Clone)]
pub struct BatchEvaluator {
    index: Arc<LabelIndex>,
    stats: LabelStats,
    planner: PlannerConfig,
    plan_override: Option<Plan>,
    parallelism: Option<usize>,
    overdelete_limit: f64,
    metrics: ExecMetrics,
}

impl BatchEvaluator {
    /// Indexes `graph` (one edge sweep) and builds the evaluator.
    pub fn new<B: GraphBackend>(graph: &B) -> Self {
        Self::from_parts(LabelIndex::from_backend(graph), LabelStats::compute(graph))
    }

    /// Builds the evaluator from a CSR snapshot.
    pub fn from_csr(csr: &CsrGraph) -> Self {
        Self::new(csr)
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
            planner: PlannerConfig::default(),
            plan_override: None,
            parallelism: None,
            overdelete_limit: DEFAULT_OVERDELETE_LIMIT,
            metrics: ExecMetrics::disabled(),
        }
    }

    /// Builds the next epoch's evaluator after a graph update: the label
    /// index is patched ([`LabelIndex::apply_delta`] — untouched partitions
    /// are shared, not copied) and the planner statistics are derived from
    /// the patched partitions, with every knob carried over.  `csr` is the
    /// compacted snapshot the delta produced.
    pub fn apply_delta(&self, csr: &CsrGraph, delta: &GraphDelta) -> Self {
        let started = std::time::Instant::now();
        let index = self
            .index
            .apply_delta(delta, csr.node_count(), csr.label_count());
        self.metrics.index_build.record_duration(started.elapsed());
        let stats = index.patched_stats(&self.stats, &delta.touched_labels());
        Self {
            index: Arc::new(index),
            stats,
            planner: self.planner,
            plan_override: self.plan_override,
            parallelism: self.parallelism,
            overdelete_limit: self.overdelete_limit,
            metrics: self.metrics.clone(),
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

    /// Replaces the planner's decision thresholds (defaults:
    /// [`PlannerConfig::default`]).
    pub fn with_planner_config(mut self, config: PlannerConfig) -> Self {
        self.planner = config;
        self
    }

    /// The planner thresholds in effect.
    pub fn planner_config(&self) -> PlannerConfig {
        self.planner
    }

    /// Enables the parallel executor for batch entry points: batches are
    /// fanned out over up to `threads` scoped worker threads.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = Some(threads.max(1));
        self
    }

    /// Caps the delete-aware resume's over-deletion at `limit` (a fraction
    /// of the alive configuration population, clamped to `0.0..=1.0`;
    /// default [`DEFAULT_OVERDELETE_LIMIT`]).  Past the cap a removal-bearing
    /// [`evaluate_dfa_resumed`](DfaEvaluator::evaluate_dfa_resumed) returns
    /// `None` and the caller cold-recomputes — `0.0` disables the delete
    /// path entirely, `1.0` never gives up.  Carried across epochs by
    /// [`apply_delta`](Self::apply_delta).
    pub fn with_overdelete_limit(mut self, limit: f64) -> Self {
        self.overdelete_limit = limit.clamp(0.0, 1.0);
        self
    }

    /// The over-deletion cap in effect.
    pub fn overdelete_limit(&self) -> f64 {
        self.overdelete_limit
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

    /// The configured worker-thread count, if the parallel executor is on.
    pub fn parallelism(&self) -> Option<usize> {
        self.parallelism
    }

    /// The plan the evaluator would run `dfa` with, and why.
    pub fn plan_for(&self, dfa: &Dfa) -> PlanDecision {
        let mut decision = planner::plan_with(&self.stats, dfa, self.planner);
        if let Some(plan) = self.plan_override {
            decision.plan = plan;
        }
        decision
    }

    /// Evaluates one compiled DFA (fresh scratch).
    pub fn evaluate(&self, dfa: &Dfa) -> QueryAnswer {
        self.evaluate_scratch(dfa, &mut Scratch::default())
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

    /// Runs `eval` over every query of the batch on up to `threads` scoped
    /// worker threads, each with its own scratch, sharing the read-only index
    /// (results in input order).  Every worker repeatedly claims the next
    /// unprocessed query off one shared atomic cursor, so a worker that drew
    /// cheap queries keeps pulling work while another grinds through an
    /// expensive one.  The worker count is clamped to the batch size and a
    /// one-worker request runs inline — no scoped thread is ever spawned just
    /// to drain the whole cursor by itself.
    fn fan_out<T: Send>(
        &self,
        dfas: &[&Dfa],
        threads: usize,
        eval: impl Fn(&Self, &Dfa, &mut Scratch) -> T + Sync,
    ) -> Vec<T> {
        let threads = threads.clamp(1, dfas.len().max(1));
        if threads == 1 {
            let mut scratch = Scratch::default();
            return dfas
                .iter()
                .map(|dfa| eval(self, dfa, &mut scratch))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<T>> = dfas.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let (cursor, eval) = (&cursor, &eval);
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut scratch = Scratch::default();
                        let mut answered = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= dfas.len() {
                                break;
                            }
                            answered.push((i, eval(self, dfas[i], &mut scratch)));
                        }
                        answered
                    })
                })
                .collect();
            for handle in handles {
                for (i, outcome) in handle.join().expect("batch worker panicked") {
                    results[i] = Some(outcome);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("the cursor visits every query exactly once"))
            .collect()
    }

    /// Evaluates a batch sequentially, sharing one scratch allocation across
    /// all queries (answers in input order).
    pub fn evaluate_many(&self, dfas: &[&Dfa]) -> Vec<QueryAnswer> {
        self.fan_out(dfas, 1, Self::evaluate_scratch)
    }

    /// Evaluates a batch on up to `threads` scoped worker threads (answers in
    /// input order).
    pub fn evaluate_many_parallel(&self, dfas: &[&Dfa], threads: usize) -> Vec<QueryAnswer> {
        self.fan_out(dfas, threads, Self::evaluate_scratch)
    }

    /// Default worker-thread count for the parallel executor.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Direction-aware multi-source membership: returns, for each source,
    /// whether it is selected by `dfa`.
    ///
    /// A handful of sources runs as per-source *forward* searches with early
    /// exit; source sets that are a sizable fraction of the graph fall back
    /// to one global (reverse/bidirectional) fixed point answering them all.
    pub fn evaluate_sources(&self, dfa: &Dfa, sources: &[NodeId]) -> Vec<bool> {
        let n = self.index.node_count();
        if sources.len() * FORWARD_SOURCE_FRACTION <= n {
            sources
                .iter()
                .map(|&source| selects_from(&self.index, dfa, source.index()))
                .collect()
        } else {
            let answer = self.evaluate(dfa);
            sources
                .iter()
                .map(|&source| answer.contains(source))
                .collect()
        }
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
        self.evaluate_many_parallel(dfas, self.parallelism.unwrap_or(1))
    }

    fn evaluate_dfa_captured(&self, dfa: &Dfa) -> (QueryAnswer, Option<EvalResume>) {
        self.evaluate_captured_scratch(dfa, &mut Scratch::default())
    }

    fn evaluate_dfas_captured(&self, dfas: &[&Dfa]) -> Vec<(QueryAnswer, Option<EvalResume>)> {
        self.fan_out(
            dfas,
            self.parallelism.unwrap_or(1),
            Self::evaluate_captured_scratch,
        )
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
        } = resume(&self.index, dfa, seed, delta, self.overdelete_limit)?;
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
    use gps_graph::Graph;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let n1 = g.add_node("N1");
        let n2 = g.add_node("N2");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        g
    }

    fn queries(g: &Graph) -> Vec<Dfa> {
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
        let evaluator = BatchEvaluator::new(&g);
        let dfas = queries(&g);
        let refs: Vec<&Dfa> = dfas.iter().collect();
        let batch = evaluator.evaluate_many(&refs);
        for (dfa, answer) in dfas.iter().zip(&batch) {
            assert_eq!(*answer, gps_rpq::eval::evaluate(&g, dfa));
        }
    }

    #[test]
    fn parallel_matches_sequential_in_order() {
        let g = sample();
        let dfas = queries(&g);
        let refs: Vec<&Dfa> = dfas.iter().collect();
        let evaluator = BatchEvaluator::new(&g);
        let sequential = evaluator.evaluate_many(&refs);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                evaluator.evaluate_many_parallel(&refs, threads),
                sequential,
                "x{threads}"
            );
        }
    }

    #[test]
    fn work_stealing_preserves_order_on_large_heterogeneous_batches() {
        // More queries than threads, duplicated in shuffled positions, so the
        // cursor hands different slices to different workers across runs;
        // output order must always match input order.
        let g = sample();
        let evaluator = BatchEvaluator::new(&g);
        let base = queries(&g);
        let many: Vec<&Dfa> = (0..37).map(|i| &base[i % base.len()]).collect();
        let expected = evaluator.evaluate_many(&many);
        for _ in 0..5 {
            assert_eq!(evaluator.evaluate_many_parallel(&many, 4), expected);
        }
    }

    #[test]
    fn shared_index_is_one_allocation() {
        let g = sample();
        let evaluator = BatchEvaluator::new(&g);
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
        let evaluator = BatchEvaluator::new(&g);
        let naive = gps_rpq::NaiveEvaluator::new(&g);
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
    fn trait_batch_honors_parallelism_knob() {
        let g = sample();
        let dfas = queries(&g);
        let refs: Vec<&Dfa> = dfas.iter().collect();
        let sequential = BatchEvaluator::new(&g).evaluate_dfas(&refs);
        let parallel = BatchEvaluator::new(&g)
            .with_parallelism(4)
            .evaluate_dfas(&refs);
        assert_eq!(sequential, parallel);
        assert_eq!(
            BatchEvaluator::new(&g).with_parallelism(0).parallelism(),
            Some(1),
            "thread count is clamped to at least one"
        );
    }

    #[test]
    fn evaluate_sources_agrees_with_global_answer() {
        // The 4-node sample is below the forward-path threshold for any
        // source count, so both calls here take the global branch…
        let g = sample();
        let evaluator = BatchEvaluator::new(&g);
        let dfas = queries(&g);
        let all: Vec<NodeId> = (0..g.node_count()).map(NodeId::from).collect();
        for dfa in &dfas {
            let expected = evaluator.evaluate(dfa);
            let few = evaluator.evaluate_sources(dfa, &all[..1]);
            assert_eq!(few[0], expected.contains(all[0]));
            let many = evaluator.evaluate_sources(dfa, &all);
            for (node, selected) in all.iter().zip(many) {
                assert_eq!(selected, expected.contains(*node));
            }
        }

        // …while a chain long enough that 1 source × FORWARD_SOURCE_FRACTION
        // fits within the node count exercises the per-source forward search.
        let mut chain = Graph::new();
        let nodes: Vec<NodeId> = (0..(2 * FORWARD_SOURCE_FRACTION))
            .map(|i| chain.add_node(format!("c{i}")))
            .collect();
        for window in nodes.windows(2) {
            chain.add_edge_by_name(window[0], "step", window[1]);
        }
        let step = chain.label_id("step").unwrap();
        let dfa = Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::symbol(step)),
            Regex::symbol(step),
        ]));
        let evaluator = BatchEvaluator::new(&chain);
        let expected = evaluator.evaluate(&dfa);
        let probes = [nodes[0], *nodes.last().unwrap()];
        assert!(probes.len() * FORWARD_SOURCE_FRACTION <= chain.node_count());
        for (node, selected) in probes.iter().zip(evaluator.evaluate_sources(&dfa, &probes)) {
            assert_eq!(selected, expected.contains(*node), "forward path {node}");
        }
    }

    #[test]
    fn forced_plans_all_agree() {
        let g = sample();
        let dfas = queries(&g);
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            let evaluator = BatchEvaluator::new(&g).with_plan(plan);
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
        let evaluator = BatchEvaluator::new(&g);
        let query = PathQuery::parse("(tram+bus)*.cinema", g.labels()).unwrap();
        assert_eq!(evaluator.evaluate_query(&query), query.evaluate(&g));
        assert!(evaluator.selects(query.dfa(), g.node_by_name("N2").unwrap()));
        assert!(!evaluator.selects(query.dfa(), g.node_by_name("C1").unwrap()));
    }

    #[test]
    fn from_csr_matches_from_backend() {
        let g = sample();
        let csr = CsrGraph::from_graph(&g);
        let a = BatchEvaluator::new(&g);
        let b = BatchEvaluator::from_csr(&csr);
        for dfa in queries(&g) {
            assert_eq!(a.evaluate(&dfa), b.evaluate(&dfa));
        }
        assert_eq!(a.stats(), b.stats());
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
            let evaluator = BatchEvaluator::new(&g);
            assert_eq!(evaluator.evaluate(dfa), expected);
            for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
                let forced = BatchEvaluator::new(&g).with_plan(plan);
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
        let base = Arc::new(CsrGraph::from_graph(&g));
        let old = BatchEvaluator::from_csr(&base).with_parallelism(2);
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
        assert_eq!(patched.parallelism(), Some(2), "knobs carry over");
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
    fn planner_config_knob_reaches_plan_for() {
        let g = sample();
        let dfa = Dfa::from_regex(&Regex::symbol(g.label_id("bus").unwrap()));
        let default = BatchEvaluator::new(&g);
        assert_eq!(
            default.planner_config(),
            crate::planner::PlannerConfig::default()
        );
        let push_all = BatchEvaluator::new(&g).with_planner_config(crate::planner::PlannerConfig {
            push_coverage: 1.1,
            ..Default::default()
        });
        assert_eq!(push_all.plan_for(&dfa).plan, Plan::Reverse);
        assert_eq!(
            push_all.evaluate(&dfa),
            default.evaluate(&dfa),
            "thresholds change the plan, never the answer"
        );
    }

    #[test]
    fn captured_batches_agree_across_worker_counts() {
        let g = sample();
        let dfas = queries(&g);
        let refs: Vec<&Dfa> = dfas.iter().collect();
        let sequential = BatchEvaluator::new(&g).evaluate_dfas_captured(&refs);
        // A one-worker request must run inline (no idle scoped thread) and
        // produce the same results; so must genuinely parallel runs.
        for threads in [1usize, 2, 8] {
            let parallel = BatchEvaluator::new(&g)
                .with_parallelism(threads)
                .evaluate_dfas_captured(&refs);
            assert_eq!(parallel.len(), sequential.len());
            for (i, ((a, ar), (b, br))) in sequential.iter().zip(&parallel).enumerate() {
                assert_eq!(a, b, "answer {i} x{threads}");
                assert_eq!(ar.is_some(), br.is_some(), "capture {i} x{threads}");
            }
        }
    }

    #[test]
    fn empty_graph_and_empty_batch() {
        let g = Graph::new();
        let evaluator = BatchEvaluator::new(&g);
        assert!(evaluator.evaluate_many(&[]).is_empty());
        assert!(evaluator.evaluate_many_parallel(&[], 4).is_empty());
        assert!(evaluator
            .evaluate_sources(&Dfa::epsilon_language(), &[])
            .is_empty());
    }
}
