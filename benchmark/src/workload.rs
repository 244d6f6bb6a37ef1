//! The four workloads.  Each is a closed loop: one client on one thread
//! sends its next request when the previous one has answered.
//!
//! A workload is a deterministic stream of operations drawn from the seed;
//! the time box only decides where the stream is cut.  Counts that must
//! repeat exactly per seed are taken over a fixed prefix of the stream that
//! every run completes.

use crate::gen::{
    corpus_config, goal_pool, warm_set, PublishPlan, Rng, UnseenQueries, Zipf, GOAL_POOL_SIZE,
};
use crate::oracle::{Judge, NAIVE_NODE_LIMIT};
use crate::service::{Fallible, Published, Service, CHECKPOINT_EVERY};
use crate::stats::median;
use gps_core::SessionStatus;
use gps_datasets::updates::{update_stream, UpdateStreamConfig};
use gps_datasets::{scale_free, streamed};
use gps_graph::{CsrGraph, Graph, LabelInterner, UpdateOp};
use gps_interactive::HaltReason;
use gps_learner::Label;
use gps_rpq::PathQuery;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The traffic of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sessions only, in memory.
    Specify,
    /// Sessions beside durable updates, then recoveries.
    LiveDurable,
    /// Updates, warm reads and cold evaluations; no sessions.
    Publish,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub nodes: usize,
    pub edges_per_node: usize,
    /// Operations every run completes whatever the clock says; exact counts
    /// are taken over this prefix.
    pub exact_prefix: usize,
    /// Unmeasured operations that open the stream, so lazy state is built
    /// before the clock starts.
    pub warm_up: usize,
    /// One cold evaluation per this many sessions (specify workloads).
    pub sessions_per_eval: usize,
    /// How often set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Reopens of the left-behind directory (live workload).
    pub recoveries: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "specify-2k",
        kind: Kind::Specify,
        nodes: 2_000,
        edges_per_node: 2,
        exact_prefix: 512,
        warm_up: 16,
        sessions_per_eval: 32,
        setups: 5,
        recoveries: 0,
    },
    Workload {
        name: "specify-100k",
        kind: Kind::Specify,
        nodes: 100_000,
        edges_per_node: 4,
        exact_prefix: 32,
        warm_up: 4,
        sessions_per_eval: 1,
        setups: 1,
        recoveries: 0,
    },
    Workload {
        name: "live-2k-durable",
        kind: Kind::LiveDurable,
        nodes: 2_000,
        edges_per_node: 2,
        exact_prefix: 32,
        warm_up: 2,
        sessions_per_eval: 0,
        setups: 5,
        recoveries: 30,
    },
    Workload {
        name: "publish-1m",
        kind: Kind::Publish,
        nodes: 1_000_000,
        edges_per_node: 4,
        exact_prefix: 12,
        warm_up: 3,
        sessions_per_eval: 0,
        setups: 1,
        recoveries: 0,
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// `--quick`: the two large corpora and every count shrink twentyfold.
    pub fn quick(mut self) -> Workload {
        if self.nodes > 2_000 {
            self.nodes /= 20;
        }
        self.exact_prefix = (self.exact_prefix / 20).max(2);
        self.setups = 1;
        self.recoveries = self.recoveries.div_ceil(20);
        self
    }
}

/// Sessions of one live cycle; the last is held open across the update.
pub const SESSIONS_PER_CYCLE: usize = 4;
/// Ops in one update.
pub const OPS_PER_UPDATE: usize = 4;
/// Steps the held-open session takes before the update interrupts it.
const STEPS_BEFORE_UPDATE: usize = 2;
/// Publishes the live run leaves in the log for every recovery to replay.
pub const PUBLISHES_TO_REPLAY: u64 = CHECKPOINT_EVERY - 1;
/// On a corpus too large for the naive oracle, from-scratch checks are made
/// on every fourth of the first twelve cycles (one per publish kind) and the
/// naive evaluator judges the first two cold evaluations.
const SAMPLED_SCRATCH_CHECKS: usize = 12;
const SAMPLED_EVAL_CHECKS: usize = 2;
/// Cold evaluations beside each update of the publish workload: thirty
/// updates fit its time box, and thirty evaluations make a loose median.
const EVALS_PER_PUBLISH: usize = 2;

/// The generated corpus, in the form the workload's set-up needs.
pub enum Corpus {
    /// Streamed straight into CSR (specify and publish workloads).
    Csr(Arc<CsrGraph>),
    /// A mutable graph: the durable store is initialised from it and the
    /// update stream is drawn against it.
    Graph(Graph),
}

impl Corpus {
    pub fn generate(workload: &Workload) -> Self {
        let config = corpus_config(workload.nodes, workload.edges_per_node);
        match workload.kind {
            Kind::LiveDurable => Corpus::Graph(scale_free::generate(&config)),
            _ => Corpus::Csr(Arc::new(streamed::generate_csr(&config))),
        }
    }

    fn labels(&self) -> &LabelInterner {
        match self {
            Corpus::Csr(csr) => csr.labels(),
            Corpus::Graph(graph) => graph.labels(),
        }
    }
}

/// Everything the measured loop records.  Latencies are kept whole so the
/// report can take any percentile the sample supports.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of the live and publish workloads' operation: one update with
    /// the first read after it.  (The specify workloads' operation is one
    /// `step`; see [`Samples::op_p50_ms`].)
    pub op_ms: Vec<f64>,
    /// Operations (steps or updates), and the seconds the client waited on
    /// them.
    pub ops: usize,
    pub op_s: f64,
    /// Steps by the label the user gave in them.
    pub positive_step_us: Vec<f64>,
    pub negative_step_us: Vec<f64>,
    pub session_ms: Vec<f64>,
    pub open_us: Vec<f64>,
    pub step_us: Vec<f64>,
    pub close_us: Vec<f64>,
    pub publish_ms: Vec<f64>,
    pub first_read_us: Vec<f64>,
    pub eval_ms: Vec<f64>,
    pub recovery_ms: Vec<f64>,

    pub sessions: usize,
    pub updates: u64,
    pub wal_bytes: u64,
    pub checkpoint_bytes: u64,
    pub checkpoints: usize,
    pub live_epochs_max: usize,
    pub replayed_publishes: usize,
    /// Counts over the exact prefix only.
    pub prefix: Prefix,
    /// Peak live heap from process start to the end of the exact prefix.
    /// Every cold evaluation leaves an answer and its seed in the cache (6 MB
    /// each on the 1M corpus), so a peak over the whole time box would
    /// measure how many rounds the clock allowed; at a fixed point of the
    /// stream it repeats exactly per seed.
    pub prefix_peak_heap_mb: f64,

    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

/// Counts that repeat exactly for a seed: taken over the operations of the
/// exact prefix, which every run completes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Prefix {
    pub sessions: usize,
    pub interactions: usize,
    pub reached: usize,
    pub zooms: usize,
    pub validations: usize,
    pub pruned_fraction: f64,
    pub carried: usize,
    pub reseeded: usize,
    pub delete_reseeded: usize,
    pub recomputed: usize,
}

impl Samples {
    /// The median latency of the workload's operation, in milliseconds, and
    /// the samples behind it.
    ///
    /// On the specify workloads a step costs what its label costs: a
    /// negative label sweeps the graph for newly covered words (45 ms at
    /// 100,000 nodes), a positive one does not (3 ms).  Step latencies are
    /// bimodal, and the share of each label is a property of the goals the
    /// seed made popular: the plain median flipped from one mode to the
    /// other between seeds, and the mean moved by 2x.  The median is
    /// therefore taken per label and the two are averaged — the step under
    /// a fixed, even label mix.
    pub fn op_p50_ms(&self) -> (f64, usize) {
        if self.op_ms.is_empty() {
            let (yes, no) = (&self.positive_step_us, &self.negative_step_us);
            let both = median(yes).unwrap_or(0.0) + median(no).unwrap_or(0.0);
            (both / 2.0 / 1e3, yes.len() + no.len())
        } else {
            (median(&self.op_ms).unwrap_or(0.0), self.op_ms.len())
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts one attempted operation and, on `Err`, one failure.
    pub fn attempt<T>(&mut self, what: &str, result: Fallible<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.fail(format!("{what}: {error}"));
                None
            }
        }
    }
}

/// Runs `f` between one pair of `Instant`s.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = std::hint::black_box(f());
    (value, started.elapsed())
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// Enough 4-op updates that no time box outruns the stream.
const LIVE_UPDATES: usize = 8_192;

/// The deterministic operation stream of one run.
pub struct Stream {
    goals: Vec<String>,
    zipf: Zipf,
    rng: Rng,
    unseen: UnseenQueries,
    warm: Vec<PathQuery>,
    warm_syntax: Vec<String>,
    /// Live workload: the pre-generated update stream, consumed in order.
    updates: std::vec::IntoIter<Vec<UpdateOp>>,
    /// Publish workload: the three-kind plan.
    plan: Option<PublishPlan>,
}

impl Stream {
    pub fn new(workload: &Workload, corpus: &Corpus, seed: u64) -> Self {
        let updates: Vec<Vec<UpdateOp>> = match corpus {
            Corpus::Graph(graph) => update_stream(
                graph,
                &UpdateStreamConfig {
                    operations: LIVE_UPDATES * OPS_PER_UPDATE,
                    insert_ratio: 0.5,
                    new_node_ratio: 0.1,
                    seed: Rng::fork(seed, 4).next_u64(),
                },
            )
            .chunks(OPS_PER_UPDATE)
            .map(<[UpdateOp]>::to_vec)
            .collect(),
            Corpus::Csr(_) => Vec::new(),
        };
        let labels = corpus.labels();
        let warm_syntax = warm_set();
        let warm = warm_syntax
            .iter()
            .map(|q| PathQuery::parse(q, labels).expect("warm queries use the corpus alphabet"))
            .collect();
        Self {
            goals: goal_pool(labels, GOAL_POOL_SIZE, seed),
            zipf: Zipf::new(GOAL_POOL_SIZE, 1.0),
            rng: Rng::fork(seed, 5),
            unseen: UnseenQueries::new(seed),
            warm,
            warm_syntax,
            updates: updates.into_iter(),
            plan: (workload.kind == Kind::Publish).then(|| PublishPlan::new(workload.nodes, seed)),
        }
    }

    pub fn goals(&self) -> &[String] {
        &self.goals
    }

    fn next_goal(&mut self) -> String {
        self.goals[self.zipf.sample(&mut self.rng)].clone()
    }

    fn next_update(&mut self) -> Vec<UpdateOp> {
        match &mut self.plan {
            Some(plan) => plan.next().expect("the plan is endless").1,
            None => self
                .updates
                .next()
                .expect("the update stream outlasts every time box"),
        }
    }
}

/// Naive judges per epoch.  A session pinned to a superseded epoch is judged
/// on that epoch's graph; with one held-open session per cycle, nothing
/// older than the previous epoch is ever asked for.
#[derive(Default)]
struct Judges {
    by_epoch: HashMap<u64, Judge>,
}

impl Judges {
    fn on(&mut self, snapshot: &Arc<CsrGraph>) -> &mut Judge {
        let epoch = snapshot.epoch();
        self.by_epoch.retain(|&e, _| e + 1 >= epoch);
        self.by_epoch
            .entry(epoch)
            .or_insert_with(|| Judge::naive(Arc::clone(snapshot)))
    }
}

/// An open session and how long the client has waited on it so far.
struct Running {
    id: u64,
    goal: String,
    waited: Duration,
    /// How long each `step` took, in order.
    steps: Vec<Duration>,
    halted: bool,
}

/// Runs one workload's stream against a [`Service`].
///
/// The stream advances in *rounds*: one session (specify), one cycle of four
/// sessions around an update (live), one update with its read and cold
/// evaluation (publish).  The time box and the exact prefix count rounds;
/// [`Samples::op_ms`] holds the operations inside them.
pub struct Driver<S: Service> {
    workload: Workload,
    service: S,
    stream: Stream,
    samples: Samples,
    judges: Judges,
    /// Sessions and updates since set-up began, warm-up included: the
    /// stream's position, not a measurement.
    sessions_started: usize,
    updates_done: u64,
    /// Rounds since the measured phase began.
    rounds: usize,
    measuring: bool,
    /// Time spent in the oracle, which the time box does not count.
    judging: Duration,
}

impl<S: Service> Driver<S> {
    pub fn new(workload: Workload, service: S, stream: Stream) -> Self {
        Self {
            workload,
            service,
            stream,
            samples: Samples::default(),
            judges: Judges::default(),
            sessions_started: 0,
            updates_done: 0,
            rounds: 0,
            measuring: false,
            judging: Duration::ZERO,
        }
    }

    /// The unmeasured head of the stream, part of set-up: it builds the
    /// word snapshots, fills the warm set and takes the first publishes,
    /// whose fresh allocations fault in pages later ones reuse.
    pub fn warm_up(&mut self) {
        if self.workload.kind != Kind::Specify {
            let warm = self.stream.warm.clone();
            self.service.read(&warm);
        }
        for _ in 0..self.workload.warm_up {
            self.round();
        }
        // Only failures outlive the warm-up: they still fail the run.
        let warm = std::mem::take(&mut self.samples);
        self.samples.failed = warm.failed;
        self.samples.failures = warm.failures;
    }

    /// The measured loop: until the time box closes and the exact prefix is
    /// complete.  The box counts the time the system is driven, not the time
    /// the oracle takes to check it.
    pub fn measure(&mut self, seconds: f64) {
        self.measuring = true;
        self.judging = Duration::ZERO;
        let started = Instant::now();
        while self.rounds < self.workload.exact_prefix
            || (started.elapsed() - self.judging).as_secs_f64() < seconds
        {
            self.round();
            self.rounds += 1;
            if self.rounds == self.workload.exact_prefix {
                self.samples.prefix_peak_heap_mb = crate::alloc::peak_heap_mb();
            }
        }
        // The live run stops a fixed distance past its last checkpoint, so
        // every recovery decodes one checkpoint and replays as many
        // publishes.
        while self.workload.kind == Kind::LiveDurable
            && self.updates_done % CHECKPOINT_EVERY != PUBLISHES_TO_REPLAY
        {
            self.round();
            self.rounds += 1;
        }
    }

    pub fn service(&mut self) -> &mut S {
        &mut self.service
    }

    /// Ends the run: the service (to be dropped before any reopen), the
    /// rest of the stream, and what was recorded.
    pub fn finish(self) -> (S, Stream, Samples) {
        (self.service, self.stream, self.samples)
    }

    fn round(&mut self) {
        let in_prefix = self.measuring && self.rounds < self.workload.exact_prefix;
        match self.workload.kind {
            Kind::Specify => self.specify_round(in_prefix),
            Kind::LiveDurable => self.live_round(in_prefix),
            Kind::Publish => self.publish_round(in_prefix),
        }
    }

    // ------------------------------------------------------------ sessions

    fn open_session(&mut self) -> Option<Running> {
        let goal = self.stream.next_goal();
        self.sessions_started += 1;
        let service = &mut self.service;
        let (result, waited) = timed(|| service.open(&goal));
        let id = self.samples.attempt("open", result)?;
        self.samples.open_us.push(us(waited));
        Some(Running {
            id,
            goal,
            waited,
            steps: Vec::new(),
            halted: false,
        })
    }

    /// Steps `session` until it halts or `limit` steps were taken.
    fn step_session(&mut self, session: &mut Running, limit: usize) {
        for _ in 0..limit {
            if session.halted {
                return;
            }
            let service = &mut self.service;
            let (result, waited) = timed(|| service.step(session.id));
            session.waited += waited;
            match result {
                Ok(status) => {
                    self.samples.step_us.push(us(waited));
                    session.steps.push(waited);
                    if self.workload.kind == Kind::Specify {
                        self.samples.ops += 1;
                        self.samples.op_s += waited.as_secs_f64();
                    }
                    session.halted = matches!(status, SessionStatus::Halted(_));
                }
                Err(error) => {
                    self.samples.fail(format!("step: {error}"));
                    session.halted = true;
                }
            }
        }
    }

    /// Closes `session` and judges it on the epoch it ran on.
    fn close_session(&mut self, session: Running, in_prefix: bool) {
        let service = &mut self.service;
        let (result, waited) = timed(|| service.close(session.id));
        let closed = match result {
            Ok(closed) => closed,
            Err(error) => {
                self.samples.fail(format!("close: {error}"));
                return;
            }
        };
        self.samples.close_us.push(us(waited));
        self.samples.session_ms.push(ms(session.waited + waited));
        self.samples.sessions += 1;

        // A step performs at most one interaction, in transcript order; a
        // step that only finds the session over adds no record and is no
        // sample.
        let outcome = closed.outcome;
        for (record, waited) in outcome.transcript.iter().zip(&session.steps) {
            match record.label {
                Label::Positive => self.samples.positive_step_us.push(us(*waited)),
                Label::Negative => self.samples.negative_step_us.push(us(*waited)),
            }
        }

        // Outside the timed sections: the oracle.
        let _oracle = crate::alloc::oracle_section();
        let judges = &mut self.judges;
        let (reached, judging) = timed(|| {
            judges
                .on(&closed.snapshot)
                .reached(&session.goal, outcome.learned.as_ref())
        });
        self.judging += judging;
        if outcome.halt_reason == HaltReason::UserSatisfied && !reached {
            self.samples.fail(format!(
                "the session on {:?} halted satisfied but the oracle disagrees",
                session.goal
            ));
        }
        if in_prefix {
            let prefix = &mut self.samples.prefix;
            prefix.sessions += 1;
            prefix.interactions += outcome.stats.interactions;
            prefix.reached += reached as usize;
            prefix.zooms += outcome.stats.zooms;
            prefix.validations += outcome.stats.path_validations;
            prefix.pruned_fraction += outcome
                .stats
                .final_pruned_fraction(closed.snapshot.node_count());
        }
    }

    fn run_session(&mut self, in_prefix: bool) {
        if let Some(mut session) = self.open_session() {
            self.step_session(&mut session, usize::MAX);
            self.close_session(session, in_prefix);
        }
    }

    /// One `EngineCore::evaluate` of a query nothing has asked before.
    fn cold_evaluation(&mut self) {
        let syntax = self.stream.unseen.next().expect("endless");
        let service = &mut self.service;
        let (result, waited) = timed(|| service.evaluate(&syntax));
        let Some(answer) = self.samples.attempt("evaluate", result) else {
            return;
        };
        self.samples.eval_ms.push(ms(waited));
        if self.workload.nodes > NAIVE_NODE_LIMIT
            && self.samples.eval_ms.len() > SAMPLED_EVAL_CHECKS
        {
            return;
        }
        let _oracle = crate::alloc::oracle_section();
        let snapshot = self.service.snapshot();
        let judges = &mut self.judges;
        let (expected, judging) = timed(|| judges.on(&snapshot).answer(&syntax));
        self.judging += judging;
        if expected != answer {
            self.samples.fail(format!(
                "the cold evaluation of {syntax:?} differs from the oracle"
            ));
        }
        if self.workload.nodes > NAIVE_NODE_LIMIT {
            // A judge pins its epoch's snapshot; on the large corpus that is
            // a quarter of the heap the system itself would have freed.
            self.judges = Judges::default();
        }
    }

    fn specify_round(&mut self, in_prefix: bool) {
        self.run_session(in_prefix);
        if self
            .sessions_started
            .is_multiple_of(self.workload.sessions_per_eval)
        {
            self.cold_evaluation();
        }
    }

    // ------------------------------------------------------------- updates

    /// One operation of the live and publish workloads: an update, then the
    /// first read of the warm set on the new epoch.
    fn update_and_read(&mut self, in_prefix: bool, check_from_scratch: bool) {
        let ops = self.stream.next_update();
        let service = &mut self.service;
        let (result, publish) = timed(|| service.update(ops));
        let Some(published) = self.samples.attempt("update", result) else {
            return;
        };
        self.updates_done += 1;
        let service = &mut self.service;
        let warm = &self.stream.warm;
        let (answers, read) = timed(|| service.read(warm));
        self.samples.publish_ms.push(ms(publish));
        self.samples.first_read_us.push(us(read));
        self.samples.op_ms.push(ms(publish + read));
        self.samples.ops += 1;
        self.samples.op_s += (publish + read).as_secs_f64();
        self.record_published(&published, in_prefix);

        if check_from_scratch {
            let _oracle = crate::alloc::oracle_section();
            let checking = Instant::now();
            let judge = Judge::from_scratch(&self.service.snapshot());
            for (syntax, answer) in self.stream.warm_syntax.iter().zip(&answers) {
                if judge.answer(syntax) != **answer {
                    self.samples.fail(format!(
                        "the warm answer of {syntax:?} on epoch {} differs from a from-scratch build",
                        published.epoch
                    ));
                }
            }
            self.judging += checking.elapsed();
        }
    }

    fn record_published(&mut self, published: &Published, in_prefix: bool) {
        let s = &mut self.samples;
        s.updates += 1;
        s.wal_bytes += published.wal_bytes;
        s.checkpoint_bytes += published.checkpoint_bytes;
        s.checkpoints += (published.checkpoint_bytes > 0) as usize;
        s.live_epochs_max = s.live_epochs_max.max(published.live_epochs);
        if in_prefix {
            let prefix = &mut s.prefix;
            prefix.carried += published.carried;
            prefix.reseeded += published.reseeded;
            prefix.delete_reseeded += published.delete_reseeded;
            prefix.recomputed += published.recomputed;
        }
    }

    /// Four sessions, one 4-op update, the first read, one cold evaluation.
    /// The fourth session is opened and stepped before the update and
    /// finishes after it, on the epoch it was pinned to.
    fn live_round(&mut self, in_prefix: bool) {
        for _ in 0..SESSIONS_PER_CYCLE - 1 {
            self.run_session(in_prefix);
        }
        let mut held = self.open_session();
        if let Some(session) = &mut held {
            self.step_session(session, STEPS_BEFORE_UPDATE);
        }
        self.update_and_read(in_prefix, true);
        if let Some(mut session) = held {
            self.step_session(&mut session, usize::MAX);
            self.close_session(session, in_prefix);
        }
        self.cold_evaluation();
    }

    fn publish_round(&mut self, in_prefix: bool) {
        let check = self.measuring
            && (self.workload.nodes <= NAIVE_NODE_LIMIT
                || (self.rounds < SAMPLED_SCRATCH_CHECKS && self.rounds.is_multiple_of(4)));
        self.update_and_read(in_prefix, check);
        for _ in 0..EVALS_PER_PUBLISH {
            self.cold_evaluation();
        }
    }
}
