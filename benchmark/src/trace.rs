//! Spans, recorded from this package's own files around calls into each
//! crate's public functions, and the decorators that place them at the
//! library's trait seams (`Strategy`, `User`, `DfaEvaluator`, `GraphStore`).
//!
//! Spans stay in memory until the workload ends.  One client runs on one
//! thread, so the span open when another starts is its parent.

use gps_automata::Dfa;
use gps_exec::{BatchEvaluator, Plan};
use gps_graph::{CsrGraph, GraphDelta, Neighborhood, NodeId, Path, UpdateOp, Word};
use gps_interactive::strategy::StrategyContext;
use gps_interactive::{Strategy, User, UserResponse};
use gps_learner::LearnedQuery;
use gps_rpq::{DfaEvaluator, EvalResume, QueryAnswer};
use gps_store::{CheckpointReceipt, CommitReceipt, GraphStore, StagedBatch, StoreError};
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the recording, if any.
    pub parent: Option<usize>,
    /// The workload request (session or update) this span served.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct Recording {
    spans: Vec<Span>,
    /// Indices of the spans still open, outermost first.
    open: Vec<usize>,
    request: u64,
}

/// The span recorder one traced run shares.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: Mutex<Recording>,
}

/// Ends its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            recording: Mutex::new(Recording::default()),
        })
    }

    fn recording(&self) -> std::sync::MutexGuard<'_, Recording> {
        self.recording
            .lock()
            .expect("no span is recorded while another thread panics: there is one thread")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Names the request the following spans serve.
    pub fn set_request(&self, request: u64) {
        self.recording().request = request;
    }

    /// Opens a span; it ends when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let mut recording = self.recording();
        let index = recording.spans.len();
        let span = Span {
            name,
            parent: recording.open.last().copied(),
            request: recording.request,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        recording.spans.push(span);
        recording.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Records a span that just ended and lasted `duration`, from a time the
    /// system itself returned (the commit fsync).
    pub fn record(&self, name: &'static str, duration: Duration) {
        let end_ns = self.now_ns();
        let mut recording = self.recording();
        let span = Span {
            name,
            parent: recording.open.last().copied(),
            request: recording.request,
            start_ns: end_ns.saturating_sub(duration.as_nanos() as u64),
            end_ns,
        };
        recording.spans.push(span);
    }

    /// How many spans were recorded so far.
    pub fn len(&self) -> usize {
        self.recording().spans.len()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.recording().spans.clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let mut recording = self.tracer.recording();
        recording.spans[self.index].end_ns = end_ns;
        let closed = recording.open.pop();
        debug_assert_eq!(closed, Some(self.index), "spans close innermost first");
    }
}

/// Calls, total time and self time of the spans of one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Total {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the part its child spans cover.
    pub self_ns: u64,
}

impl Total {
    /// Mean microseconds per call.
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

/// Totals by span name over the spans of `range` (a phase of the run).
/// Children never overlap (one thread), so a span's child cover is the sum
/// of its children's durations.
pub fn totals(spans: &[Span], range: Range<usize>) -> BTreeMap<&'static str, Total> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
    for index in range {
        let span = &spans[index];
        let total = totals.entry(span.name).or_default();
        total.calls += 1;
        total.total_ns += span.duration_ns();
        total.self_ns += span.duration_ns().saturating_sub(covered[index]);
    }
    totals
}

/// Time the direct children named `child` spend inside spans named `parent`,
/// over the spans of `range`.
pub fn child_ns(spans: &[Span], range: Range<usize>, parent: &str, child: &str) -> u64 {
    spans[range]
        .iter()
        .filter(|span| span.name == child)
        .filter(|span| span.parent.is_some_and(|p| spans[p].name == parent))
        .map(Span::duration_ns)
        .sum()
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], header: &str, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            span.request, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

// ------------------------------------------------------------- decorators

/// How often the planner chose each direction, across every epoch's
/// evaluator.
#[derive(Debug, Default)]
pub struct PlanCounts {
    pub forward: AtomicU64,
    pub all: AtomicU64,
}

/// `DfaEvaluator` over the frontier engine with a span around every call.
#[derive(Debug)]
pub struct TracedEvaluator {
    pub inner: BatchEvaluator,
    pub tracer: Arc<Tracer>,
    pub plans: Arc<PlanCounts>,
}

impl TracedEvaluator {
    fn count_plan(&self, dfa: &Dfa) {
        self.plans.all.fetch_add(1, Ordering::Relaxed);
        if self.inner.plan_for(dfa).plan == Plan::Forward {
            self.plans.forward.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl DfaEvaluator for TracedEvaluator {
    fn evaluate_dfa(&self, dfa: &Dfa) -> QueryAnswer {
        self.count_plan(dfa);
        let _span = self.tracer.span("exec.eval");
        self.inner.evaluate_dfa(dfa)
    }

    fn evaluate_dfas(&self, dfas: &[&Dfa]) -> Vec<QueryAnswer> {
        let _span = self.tracer.span("exec.eval");
        self.inner.evaluate_dfas(dfas)
    }

    fn evaluate_dfa_captured(&self, dfa: &Dfa) -> (QueryAnswer, Option<EvalResume>) {
        self.count_plan(dfa);
        let _span = self.tracer.span("exec.eval");
        self.inner.evaluate_dfa_captured(dfa)
    }

    fn evaluate_dfas_captured(&self, dfas: &[&Dfa]) -> Vec<(QueryAnswer, Option<EvalResume>)> {
        let _span = self.tracer.span("exec.eval");
        self.inner.evaluate_dfas_captured(dfas)
    }

    fn evaluate_dfa_resumed(
        &self,
        dfa: &Dfa,
        resume: &EvalResume,
        delta: &GraphDelta,
    ) -> Option<(QueryAnswer, EvalResume)> {
        let _span = self.tracer.span("exec.resume");
        self.inner.evaluate_dfa_resumed(dfa, resume, delta)
    }

    fn selects_node(&self, dfa: &Dfa, node: NodeId) -> bool {
        let _span = self.tracer.span("exec.selects");
        self.inner.selects_node(dfa, node)
    }

    fn witness(&self, dfa: &Dfa, node: NodeId) -> Option<Path> {
        let _span = self.tracer.span("exec.witness");
        self.inner.witness(dfa, node)
    }

    fn nodes_spelling(&self, words: &[Word]) -> Vec<NodeId> {
        let _span = self.tracer.span("exec.spelling_counts");
        self.inner.nodes_spelling(words)
    }

    fn spelling_counts(&self, words: &[Word]) -> Vec<(NodeId, u32)> {
        let _span = self.tracer.span("exec.spelling_counts");
        self.inner.spelling_counts(words)
    }
}

/// A `Strategy` with a span around `propose`.
pub struct TracedStrategy {
    pub inner: Box<dyn Strategy<CsrGraph> + Send>,
    pub tracer: Arc<Tracer>,
}

impl Strategy<CsrGraph> for TracedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose(&mut self, ctx: &StrategyContext<'_, CsrGraph>) -> Option<NodeId> {
        let _span = self.tracer.span("interactive.propose");
        self.inner.propose(ctx)
    }
}

/// A `User` with a span around every question: the simulated oracle's cost,
/// named so it is never credited to the system.
pub struct TracedUser<U> {
    pub inner: U,
    pub tracer: Arc<Tracer>,
}

impl<U: User<CsrGraph>> User<CsrGraph> for TracedUser<U> {
    fn label_node(
        &mut self,
        graph: &CsrGraph,
        node: NodeId,
        neighborhood: &Neighborhood,
    ) -> UserResponse {
        let _span = self.tracer.span("interactive.user");
        self.inner.label_node(graph, node, neighborhood)
    }

    fn validate_path(
        &mut self,
        graph: &CsrGraph,
        node: NodeId,
        candidates: &[Word],
        suggested: &Word,
    ) -> Word {
        let _span = self.tracer.span("interactive.user");
        self.inner.validate_path(graph, node, candidates, suggested)
    }

    fn satisfied_with(&mut self, graph: &CsrGraph, hypothesis: &LearnedQuery) -> bool {
        let _span = self.tracer.span("interactive.user");
        self.inner.satisfied_with(graph, hypothesis)
    }
}

/// A `GraphStore` with a span around every write.
#[derive(Debug)]
pub struct TracedStore<S> {
    pub inner: S,
    pub tracer: Arc<Tracer>,
}

impl<S: GraphStore> GraphStore for TracedStore<S> {
    fn append_staged(&self, ops: &[UpdateOp]) -> Result<u64, StoreError> {
        let _span = self.tracer.span("store.append");
        self.inner.append_staged(ops)
    }

    fn commit(
        &self,
        epoch: u64,
        first_seq: u64,
        last_seq: u64,
        ops: u32,
    ) -> Result<CommitReceipt, StoreError> {
        let _span = self.tracer.span("store.commit");
        let receipt = self.inner.commit(epoch, first_seq, last_seq, ops)?;
        self.tracer.record("store.fsync", receipt.fsync);
        Ok(receipt)
    }

    fn checkpoint(
        &self,
        snapshot: &CsrGraph,
        pending: &[StagedBatch],
    ) -> Result<CheckpointReceipt, StoreError> {
        let _span = self.tracer.span("store.checkpoint");
        self.inner.checkpoint(snapshot, pending)
    }

    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }

    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("step", None, 0, 100),
            span("propose", Some(0), 10, 30),
            span("eval", Some(0), 40, 70),
            span("eval", Some(1), 12, 20),
        ];
        let totals = totals(&spans, 0..spans.len());
        assert_eq!(
            totals["step"],
            Total {
                calls: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(totals["propose"].self_ns, 12);
        assert_eq!(totals["eval"].calls, 2);
        assert_eq!(totals["eval"].total_ns, 38);
        assert_eq!(child_ns(&spans, 0..4, "step", "eval"), 30);
        assert_eq!(child_ns(&spans, 0..3, "step", "eval"), 30);
        assert_eq!(super::totals(&spans, 1..2)["propose"].self_ns, 12);
        assert_eq!(totals["eval"].mean_us(), 0.019);
    }

    #[test]
    fn guards_nest_and_carry_the_request() {
        let tracer = Tracer::new();
        tracer.set_request(7);
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
            tracer.record("leaf", Duration::from_nanos(5));
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|span| span.request == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
