//! `rpq_baseline` — records the RPQ-evaluation baseline.
//!
//! Times query evaluation on the transport and scale-free datasets and
//! writes the results to `BENCH_rpq.json` in the current directory, so
//! regressions can be tracked across PRs:
//!
//! * `adjacency-naive` — node-at-a-time evaluator on the mutable store;
//! * `csr-naive` — node-at-a-time evaluator on the CSR snapshot;
//! * `csr-frontier` — the `gps-exec` frontier engine (planner-chosen plan);
//! * `batch-naive-loop` / `batch-frontier-seq` / `batch-frontier-parallel`
//!   — a multi-query batch workload evaluated query-by-query vs. through
//!   the shared-scratch batch API vs. the scoped-thread parallel executor
//!   (per-batch timings);
//! * `session-frontier` — full interactive specification sessions
//!   (simulated user, informative-paths strategy, path validation) on the
//!   engine, reported as **ns per interaction** so interactions/sec is
//!   `1e9 / mean_ns`;
//! * `words-enumerate` / `words-index` — every node's bounded words through
//!   `PathEnumerator` (one walk at a time) vs. one `WordIndex::build` (the
//!   level-by-level derivation sessions read), per whole-graph pass;
//! * `sessions-sequential` / `concurrent-sessions-w{1,4,8}` — a batch of
//!   whole sessions driven directly one-by-one vs. through the
//!   `GpsService`/`SessionManager` worker pool over one shared `EngineCore`,
//!   reported as **ns per session** so sessions/sec is `1e9 / mean_ns`;
//! * `update-publish` — staging + publishing one small live-update batch
//!   through the epoch-versioned store (delta compaction, label-partition
//!   index patch, word-index inheritance, epoch swap), reported as
//!   **ns per publish**;
//! * `sessions-static` / `sessions-during-updates` — the same session batch
//!   served over a never-updated store vs. a store that publishes a live
//!   update mid-batch (new sessions land on the new epoch), reported as
//!   **ns per session** — the cost of serving *while* the graph changes;
//! * `durable-publish` / `memory-publish` — the identical publish through a
//!   file-backed store (WAL append + commit fsync + amortized checkpoints)
//!   vs. the default in-memory store, reported as **ns per publish** — the
//!   price of durability;
//! * `recovery` — reopening a durable store whose log holds 32 committed
//!   publishes past its checkpoint (checkpoint decode + full WAL replay),
//!   reported as **ns per open**;
//! * `telemetry-disabled` / `telemetry-enabled` — the identical session
//!   batch served with no metrics registry vs. a live one wired through
//!   exec, cache, sessions and service, reported as **ns per session** —
//!   the price of observability (bounded by the smoke floor);
//! * the scale-out group (`scale-free-1m` in a full run, `scale-free-100k`
//!   under `--smoke`): streamed corpus build vs. Graph-then-compact (wall
//!   time plus **peak heap bytes** from the counting allocator, in the
//!   `*-peak-bytes` pseudo-records), the label-index build, resuming a
//!   low-reach chain query's answer across an insert-only and a
//!   removal-bearing delta vs. evaluating it cold, sequential vs. parallel
//!   batch evaluation, and publish latency.
//!
//! Samples for the compared modes are interleaved round-robin so clock or
//! thermal drift cannot bias the comparison one way; the smoke floors that
//! compare near-equal shapes (one service worker vs. the bare loop, sessions
//! beside publishes vs. a static store, telemetry on vs. off) alternate
//! their shapes call by call and gate on the median of the per-round
//! ratios, which a drifting or briefly stalled box moves far less than a
//! ratio of means.
//!
//! ```text
//! cargo run --release -p gps-bench --bin rpq_baseline [-- --smoke]
//! ```
//!
//! With `--smoke` the sample counts shrink and the run *asserts* the
//! acceptance floors (the frontier evaluator beating the naive one on
//! scale-free, the word index beating per-node enumeration, the service,
//! live-update and telemetry overheads, a resume beating the cold
//! evaluation), exiting non-zero on a perf regression — this is the CI
//! guard.

use gps_automata::Dfa;
use gps_core::service::GpsService;
use gps_core::versioned::{GraphUpdate, VersionedStore};
use gps_core::Engine;
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_datasets::transport::{self, TransportConfig};
use gps_datasets::updates::{update_stream, UpdateStreamConfig};
use gps_datasets::Workload;
use gps_exec::BatchEvaluator;
use gps_graph::{CsrGraph, DeltaGraph, Graph, LabelId};
use gps_graph::{NodeId, PathEnumerator, UpdateOp};
use gps_interactive::strategy::InformativePathsStrategy;
use gps_interactive::user::SimulatedUser;
use gps_rpq::{DfaEvaluator, PathQuery, WordIndex};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The system allocator wrapped with live/peak byte counters, so the corpus
/// builds of the scale-out group can report their true peak heap footprint.
/// Relaxed atomics only — the tracking cost is a few nanoseconds per
/// allocation and identical for every interleaved arm.
mod alloc_track {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counting wrapper around [`System`].
    pub struct CountingAlloc;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    fn on_alloc(size: usize) {
        let now = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                on_alloc(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc_zeroed(layout);
            if !ptr.is_null() {
                on_alloc(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            on_dealloc(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_ptr = System.realloc(ptr, layout, new_size);
            if !new_ptr.is_null() {
                on_dealloc(layout.size());
                on_alloc(new_size);
            }
            new_ptr
        }
    }

    /// Resets the peak to the current live footprint and returns that base.
    pub fn reset_peak() -> usize {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        live
    }

    /// Peak bytes allocated beyond `base` since the last [`reset_peak`].
    pub fn peak_since(base: usize) -> usize {
        PEAK.load(Ordering::Relaxed).saturating_sub(base)
    }
}

#[global_allocator]
static GLOBAL: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

struct Record {
    dataset: String,
    backend: &'static str,
    nodes: usize,
    edges: usize,
    query: String,
    mean_ns: f64,
    min_ns: f64,
    iterations: u64,
    /// The per-round samples behind `mean_ns`, in the order they were taken
    /// (round `i` of every record of one [`bench_group`] call ran back to
    /// back).  Empty for the hand-timed records; not written out.
    samples: Vec<f64>,
}

/// Calibrates an iteration count for `f` targeting ~5 ms per sample.
fn calibrate<O>(f: &mut impl FnMut() -> O) -> u64 {
    let start = Instant::now();
    black_box(f());
    let single = start.elapsed().max(Duration::from_nanos(1));
    (Duration::from_millis(5).as_nanos() / single.as_nanos()).clamp(1, 20_000) as u64
}

/// One timed sample: mean ns per call over `iters` calls.
fn sample<O>(iters: u64, f: &mut impl FnMut() -> O) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn summarize(samples: &[f64]) -> (f64, f64) {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    (mean, min)
}

/// Times a set of labeled closures with interleaved (round-robin) samples
/// and appends one record per closure.
fn bench_group(
    dataset: &str,
    graph_size: (usize, usize),
    query: &str,
    samples: usize,
    runners: &mut [(&'static str, &mut dyn FnMut())],
    records: &mut Vec<Record>,
) {
    let iters: Vec<u64> = runners.iter_mut().map(|(_, f)| calibrate(f)).collect();
    sample_group(
        dataset, graph_size, query, samples, &iters, runners, records,
    );
}

/// [`bench_group`] for shapes a smoke floor holds within 5-10% of each
/// other (one service worker vs. the bare loop, sessions beside a publish
/// vs. a static store, telemetry on vs. off) on a box that wanders by 20%
/// over tens of milliseconds and stalls for a millisecond at a time.  The
/// shapes alternate **call by call** - one round is one call of each - for
/// about [`PAIRED_BUDGET`] of measured time (never fewer than `samples`
/// rounds), so whatever the box does over more than a few milliseconds
/// lands on every shape alike and a stall spoils one round out of hundreds.
/// The floors then gate on [`paired_ratio`], whose error shrinks with the
/// root of the round count.
fn paired_group(
    dataset: &str,
    graph_size: (usize, usize),
    query: &str,
    samples: usize,
    runners: &mut [(&'static str, &mut dyn FnMut())],
    records: &mut Vec<Record>,
) {
    // One unmeasured round doubles as the estimate of a round's length.
    let round: f64 = runners.iter_mut().map(|(_, f)| sample(1, f)).sum();
    let rounds = (PAIRED_BUDGET.as_nanos() as f64 / round.max(1.0)) as usize;
    let iters = vec![1; runners.len()];
    sample_group(
        dataset,
        graph_size,
        query,
        rounds.clamp(samples.max(15), 2_000),
        &iters,
        runners,
        records,
    );
}

/// Measured time one [`paired_group`] call aims for.
const PAIRED_BUDGET: Duration = Duration::from_secs(2);

/// Takes `samples` rounds of one sample per runner, `iters[i]` calls each.
fn sample_group(
    dataset: &str,
    graph_size: (usize, usize),
    query: &str,
    samples: usize,
    iters: &[u64],
    runners: &mut [(&'static str, &mut dyn FnMut())],
    records: &mut Vec<Record>,
) {
    let mut all_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); runners.len()];
    for _ in 0..samples {
        for ((series, (_, f)), &iters) in all_samples.iter_mut().zip(runners.iter_mut()).zip(iters)
        {
            series.push(sample(iters, f));
        }
    }
    for (((name, _), series), &iterations) in runners.iter().zip(all_samples).zip(iters) {
        let (mean_ns, min_ns) = summarize(&series);
        records.push(Record {
            dataset: dataset.to_string(),
            backend: name,
            nodes: graph_size.0,
            edges: graph_size.1,
            query: query.to_string(),
            mean_ns,
            min_ns,
            iterations,
            samples: series,
        });
    }
}

fn single_query_records(
    dataset: &str,
    graph: &Graph,
    query: &PathQuery,
    samples: usize,
    records: &mut Vec<Record>,
) {
    let csr = CsrGraph::from_graph(graph);
    let frontier = BatchEvaluator::from_csr(&csr);
    let syntax = query.display(graph.labels());
    let dfa = query.dfa();

    let mut run_adjacency = || {
        black_box(query.evaluate(graph));
    };
    let mut run_csr = || {
        black_box(query.evaluate(&csr));
    };
    let mut run_frontier = || {
        black_box(frontier.evaluate(dfa));
    };
    bench_group(
        dataset,
        (graph.node_count(), graph.edge_count()),
        &syntax,
        samples,
        &mut [
            ("adjacency-naive", &mut run_adjacency),
            ("csr-naive", &mut run_csr),
            ("csr-frontier", &mut run_frontier),
        ],
        records,
    );
}

fn batch_records(workload: &Workload, samples: usize, threads: usize, records: &mut Vec<Record>) {
    let csr = CsrGraph::from_graph(&workload.graph);
    let frontier = BatchEvaluator::from_csr(&csr);
    let dfas: Vec<&Dfa> = workload.queries.queries.iter().map(|q| q.dfa()).collect();

    let mut run_loop = || {
        black_box(
            workload
                .queries
                .queries
                .iter()
                .map(|q| q.evaluate_csr(&csr))
                .collect::<Vec<_>>(),
        );
    };
    let mut run_seq = || {
        black_box(frontier.evaluate_many(&dfas));
    };
    let mut run_parallel = || {
        black_box(frontier.evaluate_many_parallel(&dfas, threads));
    };
    bench_group(
        &workload.name,
        (workload.graph.node_count(), workload.graph.edge_count()),
        &format!("batch of {} queries", dfas.len()),
        samples,
        &mut [
            ("batch-naive-loop", &mut run_loop),
            ("batch-frontier-seq", &mut run_seq),
            ("batch-frontier-parallel", &mut run_parallel),
        ],
        records,
    );
}

/// Times full interactive sessions and appends the `session-frontier` record
/// with `mean_ns` normalized **per interaction**.
///
/// Engine construction (snapshot + index build) happens once outside the
/// timed region — it is per-deployment cost, not per-session — while the
/// timed closure runs a complete session end to end: goal-driven simulated
/// user, informative-paths strategy, zooming, path validation, learning and
/// pruning.
fn session_records(graph: &Graph, goal_syntax: &str, samples: usize, records: &mut Vec<Record>) {
    let engine = Engine::builder(graph.clone()).max_interactions(24).build();
    let run_session = || {
        let goal = engine.parse_query(goal_syntax).expect("goal parses");
        let mut user = SimulatedUser::with_exec(goal, engine.eval_handle());
        engine
            .open_session()
            .run(&mut InformativePathsStrategy::default(), &mut user)
    };
    // One untimed run: warms the per-snapshot structural baseline
    // (bounded-word counts) the way a long-lived service would be warm, and
    // pins the interaction count — sessions are deterministic.
    let interactions = run_session().stats.interactions;

    // Each timed sample is a *fresh task*: the query cache is cleared so the
    // goal answer, every new hypothesis and every dirty-set query is really
    // evaluated (a service sees a different goal per session); repeated
    // hypotheses within the session still hit the cache.
    let mut run = || {
        engine.eval_cache().clear();
        black_box(run_session());
    };
    let before = records.len();
    bench_group(
        "scale-free-2000-session",
        (graph.node_count(), graph.edge_count()),
        &format!("session({goal_syntax}) x{interactions} interactions"),
        samples,
        &mut [("session-frontier", &mut run)],
        records,
    );
    // Normalize the session record from ns/session to ns/interaction.
    let per_session = interactions.max(1) as f64;
    for record in &mut records[before..] {
        record.mean_ns /= per_session;
        record.min_ns /= per_session;
    }
}

/// Times one whole-graph pass over every node's words of length `1..=4`: the
/// enumerator walking each node's paths vs. the index derivation.
fn words_records(graph: &Graph, samples: usize, records: &mut Vec<Record>) {
    let csr = CsrGraph::from_graph(graph);
    let mut run_enumerate = || {
        let enumerator = PathEnumerator::new(4);
        for node in csr.nodes() {
            black_box(enumerator.words_from(&csr, node));
        }
    };
    let mut run_index = || {
        black_box(WordIndex::build(&csr, 4));
    };
    bench_group(
        "scale-free-2000-words",
        (graph.node_count(), graph.edge_count()),
        "bounded words of every node, bound 4",
        samples,
        &mut [
            ("words-enumerate", &mut run_enumerate),
            ("words-index", &mut run_index),
        ],
        records,
    );
}

/// Times a batch of whole interactive sessions per serving shape and appends
/// one record per shape with `mean_ns` normalized **per session**:
///
/// * `sessions-sequential` — the single-user shape: sessions driven directly
///   on the engine one after the other (no session table, no workers);
/// * `concurrent-sessions-wN` — the service shape: the same goals fanned out
///   over N worker threads through a `SessionManager` on one shared core.
///
/// Every shape runs the identical goal batch over one shared engine, so the
/// comparison isolates the service machinery (session table,
/// per-session locks, worker handoff).  The query cache is cleared before
/// each sample so every batch pays the real per-task evaluation cost.
fn concurrent_session_records(
    graph: &Graph,
    goal_syntaxes: &[String],
    samples: usize,
    records: &mut Vec<Record>,
) {
    let engine = Engine::builder(graph.clone()).max_interactions(24).build();
    let service = GpsService::new(engine.clone());
    let sessions = goal_syntaxes.len() as f64;

    let mut run_sequential = || {
        engine.eval_cache().clear();
        for syntax in goal_syntaxes {
            let goal = engine.parse_query(syntax).expect("goal parses");
            let mut user = SimulatedUser::with_exec(goal, engine.eval_handle());
            let mut session = engine.open_session();
            black_box(session.run(&mut InformativePathsStrategy::default(), &mut user));
        }
    };
    let workers_runner = |workers: usize| {
        let service = &service;
        let engine = &engine;
        move || {
            engine.eval_cache().clear();
            black_box(
                service
                    .serve(goal_syntaxes, workers)
                    .expect("goals parse and sessions halt"),
            );
        }
    };
    let mut run_w1 = workers_runner(1);
    let mut run_w4 = workers_runner(4);
    let mut run_w8 = workers_runner(8);
    let before = records.len();
    paired_group(
        "scale-free-2000-service",
        (graph.node_count(), graph.edge_count()),
        &format!("batch of {} sessions", goal_syntaxes.len()),
        samples,
        &mut [
            ("sessions-sequential", &mut run_sequential),
            ("concurrent-sessions-w1", &mut run_w1),
            ("concurrent-sessions-w4", &mut run_w4),
            ("concurrent-sessions-w8", &mut run_w8),
        ],
        records,
    );
    // Normalize from ns/batch to ns/session.
    for record in &mut records[before..] {
        record.mean_ns /= sessions;
        record.min_ns /= sessions;
    }
}

/// An endlessly repeatable live-update workload: insertion ops drawn from
/// the streamed update workload or an explicit batch, published as
/// alternating add / remove batches so the graph oscillates around the base
/// snapshot instead of drifting — every publish exercises the full
/// machinery (compaction, partition patch, word inheritance, epoch swap,
/// per-epoch answer recomputation) while graph size stays put.
struct OscillatingUpdates {
    adds: Vec<UpdateOp>,
    removes: Vec<UpdateOp>,
    toggle: std::cell::Cell<bool>,
}

impl OscillatingUpdates {
    /// Insertion batch sampled from the streamed update workload (graph
    /// labels, attachment-biased endpoints).
    fn from_stream(graph: &Graph, batch: usize, seed: u64) -> Self {
        Self::from_adds(update_stream(
            graph,
            &UpdateStreamConfig {
                operations: batch,
                insert_ratio: 1.0,
                new_node_ratio: 0.0,
                seed,
            },
        ))
    }

    /// Builds the oscillation from an explicit insertion batch.
    fn from_adds(adds: Vec<UpdateOp>) -> Self {
        let removes = adds
            .iter()
            .map(|op| match op {
                UpdateOp::AddEdge {
                    source,
                    label,
                    target,
                } => UpdateOp::RemoveEdge {
                    source: source.clone(),
                    label: label.clone(),
                    target: target.clone(),
                },
                other => unreachable!("insert-only stream produced {other:?}"),
            })
            .collect();
        Self {
            adds,
            removes,
            toggle: std::cell::Cell::new(false),
        }
    }

    fn next(&self) -> GraphUpdate {
        let removing = self.toggle.replace(!self.toggle.get());
        GraphUpdate::from_ops(if removing {
            self.removes.clone()
        } else {
            self.adds.clone()
        })
    }
}

/// Times one publish of a small update batch through the versioned store
/// (`update-publish`, ns per publish), and the same session batch served
/// over a static store vs. one that publishes mid-batch (`sessions-static`
/// vs. `sessions-during-updates`, ns per session).
fn live_update_records(
    graph: &Graph,
    goal_syntaxes: &[String],
    samples: usize,
    records: &mut Vec<Record>,
) {
    let build = || GpsService::new(Engine::builder(graph.clone()).max_interactions(24).build());
    let size = (graph.node_count(), graph.edge_count());

    // Publish latency alone: alternating 4-op add/remove batches straight
    // off the streamed workload (graph labels, hub-biased endpoints).
    let publish_service = build();
    let publish_updates = OscillatingUpdates::from_stream(graph, 4, 23);
    // Warm the word index the way a serving deployment is warm, so the
    // publish pays the realistic inheritance cost, not an empty-cache one.
    publish_service.core().eval_cache().bounded_words(4);
    let mut run_publish = || {
        black_box(
            publish_service
                .update(publish_updates.next())
                .expect("oscillating updates always apply"),
        );
    };
    bench_group(
        "scale-free-2000-live",
        size,
        "publish of 4 update ops",
        samples,
        &mut [("update-publish", &mut run_publish)],
        records,
    );

    // Sessions over a static store vs. sessions with one publish landing
    // mid-batch (a read-heavy serving ratio: one small write per ~200
    // sessions).  Both shapes serve the identical goal list (24x the service
    // goals) on one worker and pay exactly one cold evaluation segment per
    // sample: the static shape starts from a cleared answer cache (a fresh
    // deployment), the live shape starts warm but its mid-batch publish
    // moves the second half of the sessions onto a fresh epoch — cold
    // answers, an inherited word index and a patched label index (the MVCC
    // machinery this floor guards).  The oscillating edges connect
    // *low-degree* nodes under a label no goal query uses: hub-attached
    // edges genuinely lengthen every downstream specification dialogue
    // (that is workload change, not serving overhead), while leaf edges
    // keep the measured sessions comparable between the two graph states —
    // so the ratio isolates the cost of the publish machinery itself.
    let goals: Vec<String> = goal_syntaxes
        .iter()
        .cycle()
        .take(goal_syntaxes.len() * 24)
        .cloned()
        .collect();
    let sessions = goals.len() as f64;
    let static_service = build();
    let live_service = build();
    let leaf_edges: Vec<UpdateOp> = {
        // The lowest-degree nodes (late arrivals in preferential attachment),
        // paired up: u -live-> v.
        let mut by_degree: Vec<NodeId> = graph.nodes().collect();
        by_degree.sort_by_key(|&n| (graph.out_degree(n) + graph.in_degree(n), n.index()));
        by_degree
            .chunks(2)
            .take(4)
            .filter(|pair| pair.len() == 2)
            .map(|pair| UpdateOp::AddEdge {
                source: graph.node_name(pair[0]).to_string(),
                label: "live".to_string(),
                target: graph.node_name(pair[1]).to_string(),
            })
            .collect()
    };
    let live_updates = OscillatingUpdates::from_adds(leaf_edges);
    let mut run_static = || {
        static_service.core().eval_cache().clear();
        black_box(static_service.serve(&goals, 1).expect("sessions halt"));
    };
    let mut run_live = || {
        for (i, goal) in goals.iter().enumerate() {
            if i == goals.len() / 2 {
                live_service
                    .update(live_updates.next())
                    .expect("oscillating updates always apply");
            }
            black_box(live_service.serve_one(goal).expect("sessions halt"));
        }
    };
    let before = records.len();
    paired_group(
        "scale-free-2000-live",
        size,
        &format!("batch of {} sessions, one mid-batch publish", goals.len()),
        samples,
        &mut [
            ("sessions-static", &mut run_static),
            ("sessions-during-updates", &mut run_live),
        ],
        records,
    );
    // Normalize from ns/batch to ns/session.
    for record in &mut records[before..] {
        record.mean_ns /= sessions;
        record.min_ns /= sessions;
    }
}

/// Times what delta-driven answer migration buys at publish time, on a warm
/// 16-query answer cache and a 4-op leaf publish under the fresh label
/// `live` (disjoint from every query's DFA alphabet, so every entry is a
/// Tier-1 carry):
///
/// * `publish-ivm` / `post-publish-first-eval-ivm` — the migrating path:
///   the publish carries the cache across the epoch, and the first
///   post-publish read of all 16 queries answers from it;
/// * `publish-coldstart` / `post-publish-first-eval-coldstart` — the
///   pre-migration behavior, simulated by clearing the answer cache before
///   the publish: the first read re-evaluates everything from scratch.
///
/// The arms are interleaved sample by sample so clock or thermal drift
/// cannot bias the ratio; each sample is one whole publish + first-read
/// cycle (`iterations: 1`).
/// The 16-query warm set over the generated `a0..a3` alphabet shared by the
/// IVM groups.
fn warm_query_set(graph: &Graph) -> Vec<PathQuery> {
    let name = |i: u32| graph.labels().name(LabelId::new(i)).unwrap().to_string();
    let l: Vec<String> = (0..4).map(name).collect();
    [
        l[0].clone(),
        l[1].clone(),
        l[2].clone(),
        l[3].clone(),
        format!("{}.{}", l[0], l[1]),
        format!("{}.{}", l[1], l[2]),
        format!("{}.{}", l[2], l[3]),
        format!("{}.{}", l[3], l[0]),
        format!("{}*", l[0]),
        format!("{}*.{}", l[1], l[2]),
        format!("({}+{})*.{}", l[0], l[1], l[2]),
        format!("({}+{})*.{}", l[2], l[3], l[0]),
        format!("{}.{}*", l[0], l[1]),
        format!("({}+{}).{}", l[0], l[2], l[3]),
        format!("{}.{}.{}", l[1], l[2], l[3]),
        format!("({}+{})*.{}", l[1], l[3], l[2]),
    ]
    .iter()
    .map(|s| PathQuery::parse(s, graph.labels()).expect("query over the generated alphabet"))
    .collect()
}

fn ivm_records(graph: &Graph, samples: usize, records: &mut Vec<Record>) {
    let size = (graph.node_count(), graph.edge_count());
    let queries = warm_query_set(graph);

    let build = || GpsService::new(Engine::builder(graph.clone()).max_interactions(24).build());
    let leaf_edges: Vec<UpdateOp> = {
        let mut by_degree: Vec<NodeId> = graph.nodes().collect();
        by_degree.sort_by_key(|&n| (graph.out_degree(n) + graph.in_degree(n), n.index()));
        by_degree
            .chunks(2)
            .take(4)
            .filter(|pair| pair.len() == 2)
            .map(|pair| UpdateOp::AddEdge {
                source: graph.node_name(pair[0]).to_string(),
                label: "live".to_string(),
                target: graph.node_name(pair[1]).to_string(),
            })
            .collect()
    };
    let ivm = build();
    let cold = build();
    let ivm_updates = OscillatingUpdates::from_adds(leaf_edges.clone());
    let cold_updates = OscillatingUpdates::from_adds(leaf_edges);
    // Warm both deployments the way a serving store is warm: answer cache
    // and word index populated.
    for service in [&ivm, &cold] {
        let core = service.core();
        let cache = core.eval_cache();
        cache.bounded_words(4);
        for q in &queries {
            black_box(cache.evaluate_compiled(q.regex(), q.dfa()));
        }
    }

    let mut publish_ivm = Vec::with_capacity(samples);
    let mut eval_ivm = Vec::with_capacity(samples);
    let mut publish_cold = Vec::with_capacity(samples);
    let mut eval_cold = Vec::with_capacity(samples);
    let first_eval = |service: &GpsService, series: &mut Vec<f64>| {
        let core = service.core();
        let cache = core.eval_cache();
        let start = Instant::now();
        for q in &queries {
            black_box(cache.evaluate_compiled(q.regex(), q.dfa()));
        }
        series.push(start.elapsed().as_nanos() as f64);
    };
    for _ in 0..samples {
        // Migrating arm: the publish carries the warm cache forward.
        let start = Instant::now();
        let report = ivm
            .update(ivm_updates.next())
            .expect("leaf publish applies");
        publish_ivm.push(start.elapsed().as_nanos() as f64);
        assert_eq!(
            report.carried_answers,
            queries.len(),
            "the label-disjoint leaf publish must carry the whole cache"
        );
        first_eval(&ivm, &mut eval_ivm);

        // Cold-start arm: identical publish, but the cache is emptied first
        // (the pre-migration epoch swap had nothing to migrate).
        cold.core().eval_cache().clear();
        let start = Instant::now();
        cold.update(cold_updates.next())
            .expect("leaf publish applies");
        publish_cold.push(start.elapsed().as_nanos() as f64);
        first_eval(&cold, &mut eval_cold);
    }
    let query = format!(
        "publish of 4 leaf ops + first eval of {} warm queries",
        queries.len()
    );
    for (backend, series) in [
        ("publish-ivm", &publish_ivm),
        ("publish-coldstart", &publish_cold),
        ("post-publish-first-eval-ivm", &eval_ivm),
        ("post-publish-first-eval-coldstart", &eval_cold),
    ] {
        let (mean_ns, min_ns) = summarize(series);
        records.push(Record {
            dataset: "scale-free-2000-ivm".to_string(),
            backend,
            nodes: size.0,
            edges: size.1,
            query: query.clone(),
            mean_ns,
            min_ns,
            iterations: 1,
            samples: Vec::new(),
        });
    }
}

/// Times what the Tier-3 delete-aware resume buys on *removal-bearing*
/// publishes, on the same warm 16-query cache:
///
/// * `publish-delete-ivm` / `post-publish-first-eval-delete-ivm` — every
///   publish removes four existing `a0..a3` edges and inserts four others
///   (a mixed delta touching every query alphabet), the warm cache is
///   migrated through the over-delete/re-derive sweep, and the first
///   post-publish read of all 16 queries answers from it;
/// * `publish-delete-coldstart` / `post-publish-first-eval-delete-coldstart`
///   — the pre-Tier-3 behavior, simulated by clearing the answer cache
///   before the identical publish: the first read re-evaluates everything.
///
/// The removed edges originate at in-degree-0 nodes, so each over-delete
/// cone is confined to the source configuration itself — the shape the
/// delete path is built for (bounded removals on a big warm graph).  The
/// two edge sets alternate (remove A / add B, then remove B / add A), so the
/// graph oscillates around the base snapshot and every sample is a genuinely
/// mixed insert+delete publish.  Arms are interleaved sample by sample.
fn ivm_delete_records(graph: &Graph, samples: usize, records: &mut Vec<Record>) {
    let size = (graph.node_count(), graph.edge_count());
    let queries = warm_query_set(graph);

    // Eight distinct in-degree-0 sources with at least one outgoing edge:
    // the first four donate an existing edge (set A), the last four get a
    // fresh alphabet edge (set B).
    let leaf_sources: Vec<NodeId> = {
        let mut nodes: Vec<NodeId> = graph
            .nodes()
            .filter(|&n| graph.in_degree(n) == 0 && graph.out_degree(n) > 0)
            .collect();
        nodes.sort_by_key(|n| n.index());
        nodes
    };
    assert!(
        leaf_sources.len() >= 8,
        "scale-free graph has in-degree-0 attachment sources"
    );
    let edge = |source: NodeId| -> (String, String, String) {
        let (label, target) = graph
            .successors(source)
            .next()
            .expect("source filtered for out-degree > 0");
        (
            graph.node_name(source).to_string(),
            graph.labels().name(label).unwrap().to_string(),
            graph.node_name(target).to_string(),
        )
    };
    let set_a: Vec<(String, String, String)> = leaf_sources[..4].iter().map(|&n| edge(n)).collect();
    let set_b: Vec<(String, String, String)> = leaf_sources[4..8]
        .iter()
        .enumerate()
        .map(|(i, &source)| {
            // A fresh edge under a rotated alphabet label; in-degree-0
            // sources guarantee it cannot already exist with this target
            // unless the source already points there — rotate the label
            // until it does not.
            let (_, _, target) = edge(source);
            let target_id = graph.node_by_name(&target).unwrap();
            let label = (0..4u32)
                .map(|k| LabelId::new((i as u32 + k) % 4))
                .find(|&l| !graph.has_edge(source, l, target_id))
                .expect("some alphabet label is free for this pair");
            (
                graph.node_name(source).to_string(),
                graph.labels().name(label).unwrap().to_string(),
                target,
            )
        })
        .collect();
    let mixed = |removes: &[(String, String, String)], adds: &[(String, String, String)]| {
        let mut update = GraphUpdate::new();
        for (source, label, target) in removes {
            update = update.remove_edge(source.clone(), label.clone(), target.clone());
        }
        for (source, label, target) in adds {
            update = update.add_edge(source.clone(), label.clone(), target.clone());
        }
        update
    };

    let build = || GpsService::new(Engine::builder(graph.clone()).max_interactions(24).build());
    let ivm = build();
    let cold = build();
    for service in [&ivm, &cold] {
        let core = service.core();
        let cache = core.eval_cache();
        cache.bounded_words(4);
        for q in &queries {
            black_box(cache.evaluate_compiled(q.regex(), q.dfa()));
        }
    }

    let mut publish_ivm = Vec::with_capacity(samples);
    let mut eval_ivm = Vec::with_capacity(samples);
    let mut publish_cold = Vec::with_capacity(samples);
    let mut eval_cold = Vec::with_capacity(samples);
    let first_eval = |service: &GpsService, series: &mut Vec<f64>| {
        let core = service.core();
        let cache = core.eval_cache();
        let start = Instant::now();
        for q in &queries {
            black_box(cache.evaluate_compiled(q.regex(), q.dfa()));
        }
        series.push(start.elapsed().as_nanos() as f64);
    };
    for sample in 0..samples {
        let (removes, adds) = if sample % 2 == 0 {
            (&set_a, &set_b)
        } else {
            (&set_b, &set_a)
        };

        // Migrating arm: the mixed publish delete-reseeds the touched
        // entries and carries the rest — nothing falls back to cold.
        let start = Instant::now();
        let report = ivm
            .update(mixed(removes, adds))
            .expect("mixed publish applies");
        publish_ivm.push(start.elapsed().as_nanos() as f64);
        assert!(
            report.delete_reseeded_answers > 0,
            "the alphabet-touching removals must take the delete-aware resume"
        );
        assert_eq!(
            report.recomputed_answers, 0,
            "leaf removals stay far under the saturation budget"
        );
        first_eval(&ivm, &mut eval_ivm);

        // Cold-start arm: identical publish against an emptied cache.
        cold.core().eval_cache().clear();
        let start = Instant::now();
        cold.update(mixed(removes, adds))
            .expect("mixed publish applies");
        publish_cold.push(start.elapsed().as_nanos() as f64);
        first_eval(&cold, &mut eval_cold);
    }
    let query = format!(
        "mixed publish of 4 removals + 4 inserts + first eval of {} warm queries",
        queries.len()
    );
    for (backend, series) in [
        ("publish-delete-ivm", &publish_ivm),
        ("publish-delete-coldstart", &publish_cold),
        ("post-publish-first-eval-delete-ivm", &eval_ivm),
        ("post-publish-first-eval-delete-coldstart", &eval_cold),
    ] {
        let (mean_ns, min_ns) = summarize(series);
        records.push(Record {
            dataset: "scale-free-2000-ivm".to_string(),
            backend,
            nodes: size.0,
            edges: size.1,
            query: query.clone(),
            mean_ns,
            min_ns,
            iterations: 1,
            samples: Vec::new(),
        });
    }
}

/// Times the identical oscillating publish through a file-backed store vs.
/// the in-memory one (`durable-publish` / `memory-publish`, ns per publish,
/// interleaved so disk or thermal drift cannot bias the ratio), then full
/// recovery of a 32-publish log (`recovery`, ns per open: checkpoint decode,
/// WAL replay through delta compaction, index patch and cache inheritance).
fn durable_records(graph: &Graph, samples: usize, records: &mut Vec<Record>) {
    let size = (graph.node_count(), graph.edge_count());
    let base = std::env::temp_dir().join(format!("gps-bench-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let builder = |checkpoint_every: u64| {
        Engine::builder(graph.clone())
            .max_interactions(24)
            .checkpoint_every_n_publishes(checkpoint_every)
    };

    // Publish latency, durable vs. in-memory, with the default checkpoint
    // cadence so the durable number includes its amortized checkpoint cost.
    let publish_dir = base.join("publish");
    let (durable, _) =
        VersionedStore::open_durable(&publish_dir, builder(32)).expect("durable store opens");
    let memory = VersionedStore::new(builder(32).build());
    let durable_updates = OscillatingUpdates::from_stream(graph, 4, 23);
    let memory_updates = OscillatingUpdates::from_stream(graph, 4, 23);
    durable.latest().eval_cache().bounded_words(4);
    memory.latest().eval_cache().bounded_words(4);
    let mut run_durable = || {
        black_box(
            durable
                .update(durable_updates.next())
                .expect("oscillating updates always apply"),
        );
    };
    let mut run_memory = || {
        black_box(
            memory
                .update(memory_updates.next())
                .expect("oscillating updates always apply"),
        );
    };
    bench_group(
        "scale-free-2000-durable",
        size,
        "publish of 4 update ops",
        samples,
        &mut [
            ("durable-publish", &mut run_durable),
            ("memory-publish", &mut run_memory),
        ],
        records,
    );
    drop(durable);

    // Recovery: a base checkpoint plus 32 committed publishes with
    // re-checkpointing disabled, so every reopen replays the whole tail.
    const RECOVERY_PUBLISHES: usize = 32;
    let recovery_dir = base.join("recovery");
    {
        let (store, _) =
            VersionedStore::open_durable(&recovery_dir, builder(0)).expect("durable store opens");
        let updates = OscillatingUpdates::from_stream(graph, 4, 29);
        for _ in 0..RECOVERY_PUBLISHES {
            store
                .update(updates.next())
                .expect("oscillating updates always apply");
        }
    }
    let mut run_recovery = || {
        let (store, report) =
            VersionedStore::open_durable(&recovery_dir, builder(0)).expect("recovery succeeds");
        assert_eq!(report.replayed_publishes, RECOVERY_PUBLISHES);
        black_box(store.current_epoch());
    };
    bench_group(
        "scale-free-2000-durable",
        size,
        &format!("recovery of {RECOVERY_PUBLISHES} publishes"),
        samples,
        &mut [("recovery", &mut run_recovery)],
        records,
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// Times the identical session batch with telemetry off vs. on
/// (`telemetry-disabled` / `telemetry-enabled`, ns per session, interleaved).
/// The disabled path is one branch per would-be record, so the two shapes
/// must stay within noise of each other; the smoke floor pins that down.
/// Returns the enabled service so the smoke run can validate its exports
/// after real traffic.
fn telemetry_records(
    graph: &Graph,
    goal_syntaxes: &[String],
    samples: usize,
    records: &mut Vec<Record>,
) -> GpsService {
    use gps_core::telemetry::MetricsRegistry;
    let build = |registry: Option<std::sync::Arc<MetricsRegistry>>| {
        let mut builder = Engine::builder(graph.clone()).max_interactions(24);
        if let Some(registry) = registry {
            builder = builder.metrics(registry);
        }
        GpsService::new(builder.build())
    };
    let disabled = build(None);
    let enabled = build(Some(std::sync::Arc::new(MetricsRegistry::enabled())));
    let sessions = goal_syntaxes.len() as f64;

    let mut run_disabled = || {
        disabled.core().eval_cache().clear();
        black_box(
            disabled
                .serve(goal_syntaxes, 1)
                .expect("goals parse and sessions halt"),
        );
    };
    let mut run_enabled = || {
        enabled.core().eval_cache().clear();
        black_box(
            enabled
                .serve(goal_syntaxes, 1)
                .expect("goals parse and sessions halt"),
        );
    };
    let before = records.len();
    paired_group(
        "scale-free-2000-telemetry",
        (graph.node_count(), graph.edge_count()),
        &format!("batch of {} sessions", goal_syntaxes.len()),
        samples,
        &mut [
            ("telemetry-disabled", &mut run_disabled),
            ("telemetry-enabled", &mut run_enabled),
        ],
        records,
    );
    // Normalize from ns/batch to ns/session.
    for record in &mut records[before..] {
        record.mean_ns /= sessions;
        record.min_ns /= sessions;
    }
    enabled
}

/// The scale-out group: a 4-edges-per-node, 8-label scale-free corpus at
/// 1M nodes (full run) or 100k nodes (`--smoke`), measuring the pieces that
/// make that size tractable:
///
/// * `build-streamed` vs. `build-graph-then-compact` — the streamed
///   `CsrGraph` builder vs. materializing the mutable `Graph` first, wall
///   time per build plus `*-peak-bytes` pseudo-records whose `mean_ns`
///   holds the **peak heap bytes** of one build (counting allocator);
/// * `index-build` — `LabelIndex` construction;
/// * `resume-insert` / `resume-delete` — re-deriving a 6-hop chain answer
///   from its seed across a 6-edge insert-only delta, and across the delta
///   that removes those edges again (`DfaEvaluator::evaluate_dfa_resumed`:
///   a copy-on-write clone of the seed plus the delta's derivation cone;
///   no frontier set is involved), at least five samples each after one
///   unmeasured call;
/// * `eval-cold` — the cold evaluation of the same query;
/// * `batch-eval-seq` vs. `batch-eval-parallel` — 8 chain queries through
///   the shared-scratch batch API vs. the scoped-thread executor;
/// * `publish` — one 4-op leaf publish through the epoch-versioned store,
///   at least five samples after one unmeasured add/remove pair.
///
/// Returns the dataset name so the caller can check the smoke floors.
fn scale_records(smoke: bool, records: &mut Vec<Record>) -> &'static str {
    use gps_automata::Regex;
    use gps_datasets::streamed;
    use gps_exec::LabelIndex;
    use std::sync::Arc;

    let (dataset, nodes) = if smoke {
        ("scale-free-100k", 100_000)
    } else {
        ("scale-free-1m", 1_000_000)
    };
    let config = ScaleFreeConfig {
        nodes,
        edges_per_node: 4,
        alphabet_size: 8,
        skewed_labels: true,
        seed: 42,
    };
    let samples = if smoke { 4 } else { 5 };
    let cores = std::thread::available_parallelism().map_or(1, |x| x.get());

    // Corpus build: streamed vs. Graph-then-compact, interleaved, with the
    // peak heap footprint of each arm measured relative to the live bytes
    // when it starts.
    let build_samples = if smoke { 2 } else { 1 };
    let mut streamed_ns = Vec::with_capacity(build_samples);
    let mut compact_ns = Vec::with_capacity(build_samples);
    let mut streamed_peak = 0usize;
    let mut compact_peak = 0usize;
    let mut last: Option<CsrGraph> = None;
    for _ in 0..build_samples {
        drop(last.take()); // free the previous sample before measuring the next
        let base = alloc_track::reset_peak();
        let start = Instant::now();
        let csr = streamed::generate_csr(&config);
        streamed_ns.push(start.elapsed().as_nanos() as f64);
        streamed_peak = streamed_peak.max(alloc_track::peak_since(base));
        last = Some(csr);

        let base = alloc_track::reset_peak();
        let start = Instant::now();
        let reference = CsrGraph::from_graph(&scale_free::generate(&config));
        compact_ns.push(start.elapsed().as_nanos() as f64);
        compact_peak = compact_peak.max(alloc_track::peak_since(base));
        assert_eq!(
            reference.edge_count(),
            last.as_ref().expect("streamed build ran").edge_count(),
            "the streamed builder must produce the identical corpus"
        );
    }
    let snapshot = Arc::new(last.expect("at least one build sample"));
    let (n, m) = (snapshot.node_count(), snapshot.edge_count());
    for (backend, series) in [
        ("build-streamed", &streamed_ns),
        ("build-graph-then-compact", &compact_ns),
    ] {
        let (mean_ns, min_ns) = summarize(series);
        records.push(Record {
            dataset: dataset.to_string(),
            backend,
            nodes: n,
            edges: m,
            query: "corpus build".to_string(),
            mean_ns,
            min_ns,
            iterations: 1,
            samples: Vec::new(),
        });
    }
    for (backend, peak) in [
        ("build-streamed-peak-bytes", streamed_peak),
        ("build-graph-then-compact-peak-bytes", compact_peak),
    ] {
        records.push(Record {
            dataset: dataset.to_string(),
            backend,
            nodes: n,
            edges: m,
            query: "peak heap bytes during one corpus build".to_string(),
            mean_ns: peak as f64,
            min_ns: peak as f64,
            iterations: 1,
            samples: Vec::new(),
        });
    }

    let mut run_index_build = || {
        black_box(LabelIndex::from_csr(&snapshot));
    };
    bench_group(
        dataset,
        (n, m),
        "label-index build",
        samples,
        &mut [("index-build", &mut run_index_build)],
        records,
    );

    // Low-reach evaluation.  Capture the 6-hop chain's fixed point once,
    // insert a 6-edge path spelling the query between existing nodes and
    // resume across that delta, then remove the path again and resume
    // across the removal from the seed the insert produced.  Both resumes
    // are pure functions of (seed, delta), so every call repeats the same
    // work; the evaluators share patched indexes (clones copy Arcs, not
    // partitions).
    let labels: Vec<LabelId> = (0..8).map(LabelId::new).collect();
    let chain = |seq: &[usize]| {
        Dfa::from_regex(&Regex::concat(
            seq.iter().map(|&i| Regex::symbol(labels[i])),
        ))
    };
    let chain_labels = [4usize, 5, 6, 7, 4, 5];
    let low_reach = chain(&chain_labels);
    let path: Vec<(NodeId, LabelId, NodeId)> = chain_labels
        .iter()
        .enumerate()
        .map(|(i, &label)| {
            (
                NodeId::from(n - 8 + i),
                labels[label],
                NodeId::from(n - 7 + i),
            )
        })
        .collect();
    let base_eval = BatchEvaluator::from_csr(&snapshot);
    let (_, base_seed) = base_eval.evaluate_dfa_captured(&low_reach);
    let base_seed = base_seed.expect("a completed frontier fixed point always captures");

    let mut inserting = DeltaGraph::new(Arc::clone(&snapshot));
    for &(source, label, target) in &path {
        inserting.add_edge(source, label, target);
    }
    let insert_delta = inserting.delta();
    let inserted = Arc::new(inserting.compact());
    let insert_eval = base_eval.apply_delta(&inserted, &insert_delta);
    let (insert_answer, insert_seed) = insert_eval
        .evaluate_dfa_resumed(&low_reach, &base_seed, &insert_delta)
        .expect("insert-only deltas are resumable");
    assert_eq!(
        insert_answer,
        insert_eval.evaluate(&low_reach),
        "the resumed answer must match a cold evaluation of the patched graph"
    );

    let mut removing = DeltaGraph::new(Arc::clone(&inserted));
    for &(source, label, target) in &path {
        assert!(removing.remove_edge(source, label, target));
    }
    let remove_delta = removing.delta();
    let removed = removing.compact();
    let remove_eval = insert_eval.apply_delta(&removed, &remove_delta);
    let (remove_answer, _) = remove_eval
        .evaluate_dfa_resumed(&low_reach, &insert_seed, &remove_delta)
        .expect("a 6-edge removal stays far inside the over-delete budget");
    assert_eq!(
        remove_answer,
        base_eval.evaluate(&low_reach),
        "removing the path again must restore the base answer"
    );

    let mut run_resume_insert = || {
        black_box(insert_eval.evaluate_dfa_resumed(&low_reach, &base_seed, &insert_delta));
    };
    let mut run_resume_delete = || {
        black_box(remove_eval.evaluate_dfa_resumed(&low_reach, &insert_seed, &remove_delta));
    };
    let mut run_cold = || {
        black_box(insert_eval.evaluate(&low_reach));
    };
    bench_group(
        dataset,
        (n, m),
        "6-hop chain: resumed across a 6-edge delta vs. evaluated cold",
        samples.max(5),
        &mut [
            ("resume-insert", &mut run_resume_insert),
            ("resume-delete", &mut run_resume_delete),
            ("eval-cold", &mut run_cold),
        ],
        records,
    );

    // Batch evaluation: 8 chain queries, shared-scratch sequential vs. the
    // scoped-thread parallel executor.
    let batch_dfas: Vec<Dfa> = (0..8)
        .map(|s| chain(&[s, (s + 1) % 8, (s + 2) % 8, (s + 3) % 8]))
        .collect();
    let refs: Vec<&Dfa> = batch_dfas.iter().collect();
    let mut run_batch_seq = || {
        black_box(insert_eval.evaluate_many(&refs));
    };
    let mut run_batch_par = || {
        black_box(insert_eval.evaluate_many_parallel(&refs, cores));
    };
    bench_group(
        dataset,
        (n, m),
        "batch of 8 chain queries",
        samples,
        &mut [
            ("batch-eval-seq", &mut run_batch_seq),
            ("batch-eval-parallel", &mut run_batch_par),
        ],
        records,
    );

    // Publish latency: a 4-op leaf publish through a store over the *same*
    // snapshot Arc (no copy).
    let store = VersionedStore::new(
        Engine::builder(Graph::new())
            .max_interactions(24)
            .build_core_over(Arc::clone(&snapshot)),
    );
    let updates = OscillatingUpdates::from_adds(
        (0..4)
            .map(|i| UpdateOp::AddEdge {
                source: format!("v{}", n - 1 - 2 * i),
                label: "live".to_string(),
                target: format!("v{}", n - 2 - 2 * i),
            })
            .collect(),
    );
    // One unmeasured add/remove pair: the first publishes fault in a fresh
    // copy of every packed array, which is not what a live store pays per
    // update.
    for _ in 0..2 {
        black_box(store.update(updates.next()).expect("leaf publish applies"));
    }
    let mut run_publish = || {
        black_box(store.update(updates.next()).expect("leaf publish applies"));
    };
    bench_group(
        dataset,
        (n, m),
        "publish of 4 leaf ops",
        samples.max(5),
        &mut [("publish", &mut run_publish)],
        records,
    );
    dataset
}

/// Median over the rounds of one [`bench_group`] call of `numerator`'s
/// sample divided by `denominator`'s sample of the same round — two
/// measurements taken back to back ([`paired_group`]), so box-wide drift
/// cancels inside each ratio and one stalled round moves one ratio, not the
/// verdict.  NaN when either record is missing.
fn paired_ratio(records: &[Record], dataset: &str, numerator: &str, denominator: &str) -> f64 {
    let series = |backend: &str| {
        records
            .iter()
            .find(|r| r.dataset == dataset && r.backend == backend)
            .map(|r| r.samples.as_slice())
            .unwrap_or_default()
    };
    let mut ratios: Vec<f64> = series(numerator)
        .iter()
        .zip(series(denominator))
        .map(|(a, b)| a / b)
        .collect();
    if ratios.is_empty() {
        return f64::NAN;
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

fn mean_of(records: &[Record], dataset: &str, backend: &str) -> f64 {
    records
        .iter()
        .find(|r| r.dataset == dataset && r.backend == backend)
        .map(|r| r.mean_ns)
        .unwrap_or(f64::NAN)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let samples = if smoke { 8 } else { 30 };
    let mut records = Vec::new();

    let net = transport::generate(&TransportConfig::with_neighborhoods(600, 7));
    let transport_query = PathQuery::parse("(tram+bus)*.cinema", net.graph.labels())
        .expect("transport alphabet contains the motivating labels");
    single_query_records(
        "transport-600",
        &net.graph,
        &transport_query,
        samples,
        &mut records,
    );

    let sf = scale_free::generate(&ScaleFreeConfig {
        nodes: 2_000,
        seed: 11,
        ..ScaleFreeConfig::default()
    });
    let name = |i: u32| sf.labels().name(LabelId::new(i)).unwrap().to_string();
    let sf_syntax = format!("({}+{})*.{}", name(0), name(1), name(2));
    let sf_query = PathQuery::parse(&sf_syntax, sf.labels())
        .expect("scale-free alphabet has at least three labels");
    single_query_records("scale-free-2000", &sf, &sf_query, samples, &mut records);

    let batch = Workload::scale_free_batch(2_000, 16, 11);
    let threads = BatchEvaluator::default_threads();
    batch_records(&batch, samples, threads, &mut records);

    // Interactive sessions: a goal that produces a realistic mixed-label
    // specification dialogue (positives, negatives, zooms) on the same
    // scale-free graph — negatives are what exercise coverage, pruning and
    // the word index's postings.
    let session_syntax = format!("{}.{}*.{}", name(2), name(0), name(1));
    let session_samples = if smoke { 4 } else { 12 };
    session_records(&sf, &session_syntax, session_samples, &mut records);
    words_records(&sf, session_samples, &mut records);

    // Multi-session serving: a batch of specification tasks with a mix of
    // goals (distinct goals stress the shared cache the way distinct users
    // would; repeats profit from it the way popular queries do).
    let service_goals: Vec<String> = vec![
        format!("({}+{})*.{}", name(0), name(1), name(2)),
        session_syntax.clone(),
        name(2).to_string(),
        format!("({}+{})*.{}", name(0), name(1), name(2)),
        format!("{}*.{}", name(1), name(2)),
        session_syntax.clone(),
        name(2).to_string(),
        format!("({}+{})*.{}", name(0), name(1), name(2)),
    ];
    concurrent_session_records(&sf, &service_goals, session_samples, &mut records);

    // Live updates: publish latency through the epoch-versioned store, and
    // session throughput while updates are being published mid-batch.
    live_update_records(&sf, &service_goals, session_samples, &mut records);

    // Incremental answer maintenance: publish + first post-publish read
    // with the answer cache migrated across the epoch vs. cold-started —
    // first on label-disjoint insert-only publishes (Tier-1 carry), then on
    // mixed insert+delete publishes (Tier-3 delete-reseed).
    ivm_records(&sf, session_samples, &mut records);
    ivm_delete_records(&sf, session_samples, &mut records);

    // Durability: the same publish through the file-backed store, and
    // recovery (checkpoint + WAL replay) of a 32-publish log.
    durable_records(&sf, session_samples, &mut records);

    // Observability: the identical session batch with telemetry off vs. on.
    let instrumented = telemetry_records(&sf, &service_goals, session_samples, &mut records);

    // Scale-out: the million-node group (100k under --smoke).
    let scale_dataset = scale_records(smoke, &mut records);

    // Render the records as JSON by hand (stable field order, no extra
    // deps), stamped with the machine profile numbers depend on.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\n  \"benchmark\": \"rpq_eval_mode_baseline\",\n  \"unit\": \"ns_per_eval\",\n  \"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cores\": {}}},\n  \"records\": [\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cores,
    );
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"backend\": \"{}\", \"nodes\": {}, \"edges\": {}, \"query\": \"{}\", \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"iterations\": {}}}{}\n",
            r.dataset,
            r.backend,
            r.nodes,
            r.edges,
            r.query.replace('"', "\\\""),
            r.mean_ns,
            r.min_ns,
            r.iterations,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");

    if !smoke {
        std::fs::write("BENCH_rpq.json", &out).expect("write BENCH_rpq.json");
    }
    println!("{out}");

    // Headline ratios.  The full run reports them; the smoke run (CI)
    // asserts conservative floors so perf regressions fail the build
    // loudly without tripping on runner noise.
    let mut failures = Vec::new();
    for dataset in ["transport-600", "scale-free-2000"] {
        let naive = mean_of(&records, dataset, "csr-naive");
        let frontier = mean_of(&records, dataset, "csr-frontier");
        let speedup = naive / frontier;
        println!("{dataset}: frontier speedup over csr-naive = {speedup:.2}x");
        // Written so that a NaN (missing record — e.g. a renamed dataset or
        // backend string) fails the guard rather than vacuously passing.
        if smoke && dataset == "scale-free-2000" && (speedup.is_nan() || speedup < 1.3) {
            failures.push(format!(
                "{dataset}: frontier speedup {speedup:.2}x below the 1.3x smoke floor"
            ));
        }
    }
    let batch_name = &batch.name;
    let naive_loop = mean_of(&records, batch_name, "batch-naive-loop");
    let seq = mean_of(&records, batch_name, "batch-frontier-seq");
    let parallel = mean_of(&records, batch_name, "batch-frontier-parallel");
    // Against the sequential frontier batch the parallel executor reads 0.9x
    // at 2k nodes and 1.6x at 1M on 2 cores — a number for a many-core
    // pass, not a floor CI can hold; the smoke run only insists it was
    // measured.  The median of the per-round ratios, because the parallel
    // shape wakes a thread per batch and one slow wake-up on a busy box is a
    // 10 ms sample that decides a ratio of means.
    let parallel_ratio = paired_ratio(
        &records,
        batch_name,
        "batch-frontier-seq",
        "batch-frontier-parallel",
    );
    println!(
        "{batch_name}: loop/seq = {:.2}x, loop/parallel = {:.2}x, seq/parallel = {parallel_ratio:.2}x ({threads} threads; median of per-round ratios)",
        naive_loop / seq,
        naive_loop / parallel,
    );
    if smoke && parallel_ratio.is_nan() {
        failures.push(format!("{batch_name}: missing batch records"));
    }
    let session_dataset = "scale-free-2000-session";
    let session_frontier = mean_of(&records, session_dataset, "session-frontier");
    println!(
        "{session_dataset}: {:.0} interactions/sec",
        1e9 / session_frontier
    );
    if smoke && session_frontier.is_nan() {
        failures.push(format!("{session_dataset}: missing session record"));
    }
    let words_dataset = "scale-free-2000-words";
    let words_enumerate = mean_of(&records, words_dataset, "words-enumerate");
    let words_index = mean_of(&records, words_dataset, "words-index");
    let words_speedup = words_enumerate / words_index;
    println!(
        "{words_dataset}: index derivation {:.2} ms vs per-node enumeration {:.2} ms ({words_speedup:.1}x)",
        words_index / 1e6,
        words_enumerate / 1e6,
    );
    if smoke && (words_speedup.is_nan() || words_speedup < 3.0) {
        failures.push(format!(
            "{words_dataset}: word index derivation at {words_speedup:.1}x of per-node enumeration ({words_index:.0} vs {words_enumerate:.0} ns), below the 3x smoke floor"
        ));
    }
    let service_dataset = "scale-free-2000-service";
    let sequential = mean_of(&records, service_dataset, "sessions-sequential");
    let w1 = mean_of(&records, service_dataset, "concurrent-sessions-w1");
    let w4 = mean_of(&records, service_dataset, "concurrent-sessions-w4");
    let w8 = mean_of(&records, service_dataset, "concurrent-sessions-w8");
    println!(
        "{service_dataset}: sequential {:.0} sessions/sec; service {:.0} (1 worker) / {:.0} (4) / {:.0} (8)",
        1e9 / sequential,
        1e9 / w1,
        1e9 / w4,
        1e9 / w8,
    );
    // The service machinery (session table, per-session locks, worker
    // handoff) must cost < ~10% per session: on a 1-core container the
    // concurrent shapes cannot beat sequential, but a single service worker
    // must stay within 0.9x of the bare sequential loop (NaN — a missing
    // record — fails rather than vacuously passing).
    let service_ratio = paired_ratio(
        &records,
        service_dataset,
        "sessions-sequential",
        "concurrent-sessions-w1",
    );
    println!("{service_dataset}: one worker at {service_ratio:.2}x of sequential (median of per-round ratios)");
    if smoke && (service_ratio.is_nan() || service_ratio < 0.9) {
        failures.push(format!(
            "{service_dataset}: one service worker at {service_ratio:.2}x of sequential per-session throughput (median of per-round ratios; means {w1:.0} vs {sequential:.0} ns/session), below the 0.9x smoke floor"
        ));
    }
    let live_dataset = "scale-free-2000-live";
    let publish = mean_of(&records, live_dataset, "update-publish");
    let static_sessions = mean_of(&records, live_dataset, "sessions-static");
    let during = mean_of(&records, live_dataset, "sessions-during-updates");
    let live_ratio = paired_ratio(
        &records,
        live_dataset,
        "sessions-static",
        "sessions-during-updates",
    );
    println!(
        "{live_dataset}: publish {:.0} µs; sessions {:.0}/sec static vs {:.0}/sec during updates ({live_ratio:.2}x, median of per-round ratios)",
        publish / 1e3,
        1e9 / static_sessions,
        1e9 / during,
    );
    // Serving while publishing must stay within 0.9x of the static-snapshot
    // baseline — the whole point of patching the index and inheriting the
    // word index instead of rebuilding per epoch (NaN — a missing record —
    // fails rather than vacuously passing).
    if smoke && (live_ratio.is_nan() || live_ratio < 0.9) {
        failures.push(format!(
            "{live_dataset}: sessions during updates at {live_ratio:.2}x of static throughput (median of per-round ratios; means {during:.0} vs {static_sessions:.0} ns/session), below the 0.9x smoke floor"
        ));
    }
    if smoke && publish.is_nan() {
        failures.push(format!("{live_dataset}: missing update-publish record"));
    }
    let ivm_dataset = "scale-free-2000-ivm";
    let post_ivm = mean_of(&records, ivm_dataset, "post-publish-first-eval-ivm");
    let post_cold = mean_of(&records, ivm_dataset, "post-publish-first-eval-coldstart");
    let publish_ivm = mean_of(&records, ivm_dataset, "publish-ivm");
    let publish_coldstart = mean_of(&records, ivm_dataset, "publish-coldstart");
    let ivm_speedup = post_cold / post_ivm;
    println!(
        "{ivm_dataset}: first post-publish read of 16 warm queries {:.1} µs carried vs {:.1} µs cold ({ivm_speedup:.1}x); publish {:.1} µs with migration vs {:.1} µs cold-start",
        post_ivm / 1e3,
        post_cold / 1e3,
        publish_ivm / 1e3,
        publish_coldstart / 1e3,
    );
    // The whole point of answer migration: a label-disjoint publish must
    // leave untouched queries answerable far faster than re-evaluating them
    // from scratch.  The measured gap is orders of magnitude (cache hits vs
    // 16 frontier fixed points); 5x is the conservative smoke floor (NaN —
    // a missing record — fails rather than vacuously passing).
    if smoke && (ivm_speedup.is_nan() || ivm_speedup < 5.0) {
        failures.push(format!(
            "{ivm_dataset}: carried post-publish reads at {ivm_speedup:.1}x of cold re-evaluation ({post_ivm:.0} vs {post_cold:.0} ns), below the 5x smoke floor"
        ));
    }
    if smoke && (publish_ivm.is_nan() || publish_coldstart.is_nan()) {
        failures.push(format!("{ivm_dataset}: missing publish records"));
    }
    let post_delete_ivm = mean_of(&records, ivm_dataset, "post-publish-first-eval-delete-ivm");
    let post_delete_cold = mean_of(
        &records,
        ivm_dataset,
        "post-publish-first-eval-delete-coldstart",
    );
    let publish_delete_ivm = mean_of(&records, ivm_dataset, "publish-delete-ivm");
    let publish_delete_cold = mean_of(&records, ivm_dataset, "publish-delete-coldstart");
    let delete_speedup = post_delete_cold / post_delete_ivm;
    println!(
        "{ivm_dataset}: first post-publish read after a mixed delete {:.1} µs delete-reseeded vs {:.1} µs cold ({delete_speedup:.1}x); publish {:.1} µs with migration vs {:.1} µs cold-start",
        post_delete_ivm / 1e3,
        post_delete_cold / 1e3,
        publish_delete_ivm / 1e3,
        publish_delete_cold / 1e3,
    );
    // The point of the Tier-3 path: removal-bearing publishes no longer
    // cold-start the cache, so the first post-publish read must beat the
    // 16-fixed-point re-evaluation comfortably.  The expected gap on this
    // graph is ~cache-hit vs frontier-eval (well over 5x); 2x is the
    // conservative smoke floor (NaN — a missing record — fails rather than
    // vacuously passing).
    if smoke && (delete_speedup.is_nan() || delete_speedup < 2.0) {
        failures.push(format!(
            "{ivm_dataset}: delete-reseeded post-publish reads at {delete_speedup:.1}x of cold re-evaluation ({post_delete_ivm:.0} vs {post_delete_cold:.0} ns), below the 2x smoke floor"
        ));
    }
    if smoke && (publish_delete_ivm.is_nan() || publish_delete_cold.is_nan()) {
        failures.push(format!("{ivm_dataset}: missing delete publish records"));
    }
    let durable_dataset = "scale-free-2000-durable";
    let durable_publish = mean_of(&records, durable_dataset, "durable-publish");
    let memory_publish = mean_of(&records, durable_dataset, "memory-publish");
    let recovery = mean_of(&records, durable_dataset, "recovery");
    let durable_overhead = durable_publish / memory_publish;
    println!(
        "{durable_dataset}: durable publish {:.0} µs vs in-memory {:.0} µs ({durable_overhead:.2}x); recovery of 32 publishes {:.2} ms",
        durable_publish / 1e3,
        memory_publish / 1e3,
        recovery / 1e6,
    );
    // Durability buys a WAL append per stage and an fsync per publish; that
    // must stay a bounded multiple of the in-memory publish, not a cliff.
    // The observed ratio is single-digit; 100x is the generous smoke ceiling
    // that still catches pathologies like checkpointing on every publish
    // (written so a NaN — a missing record — fails rather than vacuously
    // passing).
    if smoke && (!durable_overhead.is_finite() || durable_overhead > 100.0) {
        failures.push(format!(
            "{durable_dataset}: durable publish at {durable_overhead:.1}x of in-memory ({durable_publish:.0} vs {memory_publish:.0} ns/publish), above the 100x smoke ceiling"
        ));
    }
    if smoke && recovery.is_nan() {
        failures.push(format!("{durable_dataset}: missing recovery record"));
    }
    let telemetry_dataset = "scale-free-2000-telemetry";
    let telemetry_off = mean_of(&records, telemetry_dataset, "telemetry-disabled");
    let telemetry_on = mean_of(&records, telemetry_dataset, "telemetry-enabled");
    let telemetry_ratio = paired_ratio(
        &records,
        telemetry_dataset,
        "telemetry-disabled",
        "telemetry-enabled",
    );
    println!(
        "{telemetry_dataset}: {:.0} sessions/sec disabled vs {:.0}/sec enabled ({telemetry_ratio:.2}x, median of per-round ratios)",
        1e9 / telemetry_off,
        1e9 / telemetry_on,
    );
    // The instrumented path must keep at least 95% of the uninstrumented
    // throughput — the disabled side of every metric is one branch, and the
    // enabled side is a relaxed atomic add, so a bigger gap means someone
    // put real work (allocation, locking, formatting) on the hot path
    // (written so a NaN — a missing record — fails rather than vacuously
    // passing).
    if smoke && (telemetry_ratio.is_nan() || telemetry_ratio < 0.95) {
        failures.push(format!(
            "{telemetry_dataset}: instrumented sessions at {telemetry_ratio:.2}x of uninstrumented throughput (median of per-round ratios; means {telemetry_on:.0} vs {telemetry_off:.0} ns/session), below the 0.95x smoke floor"
        ));
    }
    let scale_index_build = mean_of(&records, scale_dataset, "index-build");
    let scale_resume_insert = mean_of(&records, scale_dataset, "resume-insert");
    let scale_resume_delete = mean_of(&records, scale_dataset, "resume-delete");
    let scale_cold = mean_of(&records, scale_dataset, "eval-cold");
    let scale_resume_ratio = scale_cold / scale_resume_insert.max(scale_resume_delete);
    let scale_streamed_peak = mean_of(&records, scale_dataset, "build-streamed-peak-bytes");
    let scale_compact_peak = mean_of(
        &records,
        scale_dataset,
        "build-graph-then-compact-peak-bytes",
    );
    let scale_streamed_build = mean_of(&records, scale_dataset, "build-streamed");
    let scale_compact_build = mean_of(&records, scale_dataset, "build-graph-then-compact");
    let scale_publish = mean_of(&records, scale_dataset, "publish");
    let scale_batch_ratio = paired_ratio(
        &records,
        scale_dataset,
        "batch-eval-seq",
        "batch-eval-parallel",
    );
    println!(
        "{scale_dataset}: streamed build {:.0} ms / {:.0} MiB peak vs graph-then-compact {:.0} ms / {:.0} MiB peak; index build {:.0} ms; low-reach chain resumed in {:.1} µs (insert) / {:.1} µs (delete) vs {:.2} ms cold ({scale_resume_ratio:.0}x); parallel batch {scale_batch_ratio:.2}x of sequential; publish {:.1} ms",
        scale_streamed_build / 1e6,
        scale_streamed_peak / (1024.0 * 1024.0),
        scale_compact_build / 1e6,
        scale_compact_peak / (1024.0 * 1024.0),
        scale_index_build / 1e6,
        scale_resume_insert / 1e3,
        scale_resume_delete / 1e3,
        scale_cold / 1e6,
        scale_publish / 1e6,
    );
    // A resume costs the delta's cone, a cold evaluation the graph: the
    // slower of the two resumes must beat the cold evaluation of the same
    // query by 20x (measured: 140-180x at the smoke size, 500x at 1M; a
    // resume that copies or scans per node again lands near 1x).
    if smoke && (scale_resume_ratio.is_nan() || scale_resume_ratio < 20.0) {
        failures.push(format!(
            "{scale_dataset}: resume at {scale_resume_ratio:.1}x of the cold evaluation ({scale_resume_insert:.0} / {scale_resume_delete:.0} ns resumed vs {scale_cold:.0} ns cold), below the 20x smoke floor"
        ));
    }
    // The streamed builder's whole point is peak memory well below the
    // Graph-then-compact path (NaN — a missing record — fails too).
    if smoke
        && (scale_streamed_peak.is_nan()
            || scale_compact_peak.is_nan()
            || scale_streamed_peak >= 0.9 * scale_compact_peak)
    {
        failures.push(format!(
            "{scale_dataset}: streamed build peak ({scale_streamed_peak:.0} bytes) not well below graph-then-compact ({scale_compact_peak:.0} bytes)"
        ));
    }
    if smoke && (scale_index_build.is_nan() || scale_publish.is_nan()) {
        failures.push(format!(
            "{scale_dataset}: missing index-build or publish record"
        ));
    }
    // The smoke run also proves the exports off the instrumented service are
    // well-formed after real traffic: the JSON document parses and the
    // Prometheus exposition passes the grammar validator with the headline
    // series present.
    if smoke {
        let json = instrumented.metrics_json();
        if let Err(err) = gps_core::telemetry::validate_json(&json) {
            failures.push(format!("{telemetry_dataset}: invalid JSON export: {err}"));
        }
        let text = instrumented.metrics_text();
        if let Err(err) = gps_core::telemetry::validate_prometheus_text(&text) {
            failures.push(format!(
                "{telemetry_dataset}: invalid Prometheus export: {err}"
            ));
        }
        for series in [
            "gps_exec_eval_latency_ns",
            "gps_rpq_cache_misses_total",
            "gps_service_sessions_opened_total",
            "gps_interactive_interactions_total",
        ] {
            if !text.contains(series) {
                failures.push(format!(
                    "{telemetry_dataset}: Prometheus export missing {series}"
                ));
            }
        }
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("SMOKE FAILURE: {failure}");
        }
        std::process::exit(1);
    }
}
