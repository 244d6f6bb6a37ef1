//! `rpq_baseline` — the CI perf floors, and nothing else.
//!
//! The numbers a user of the system feels are measured by the `benchmark/`
//! package (seeded workloads, ten-pairs protocol, `BENCH_history.jsonl`).
//! This binary only holds seventeen ratios no workload there can express — two
//! shapes of the same work timed side by side in one process — and exits
//! non-zero, with one `SMOKE FAILURE:` line per broken floor, when one of
//! them crosses its bound:
//!
//! | # | group | floor |
//! |---|---|---|
//! | 1 | `scale-free-2000` | `csr-frontier` ≥ 1.3× `csr-naive` (the node-at-a-time oracle) |
//! | 2 | `scale-free-2000-words` | `words-index` (one `WordIndex::build`) ≥ 3× `words-enumerate` (`PathEnumerator` per node) |
//! | 3 | `scale-free-2000-service` | `concurrent-sessions-w1` ≥ 0.9× `sessions-sequential` (the bare loop), median of per-round ratios |
//! | 4 | `scale-free-2000-live` | `sessions-during-updates` ≥ 0.9× `sessions-static`, median of per-round ratios |
//! | 5 | `scale-free-2000-ivm` | first read of 16 carried answers ≥ 5× the cold-started read |
//! | 6 | `scale-free-2000-ivm` | first read of delete-reseeded answers ≥ 2× the cold-started read |
//! | 7 | `scale-free-2000-durable` | `durable-publish` ≤ 100× `memory-publish` |
//! | 8 | `scale-free-2000-telemetry` | `telemetry-enabled` ≥ 0.95× `telemetry-disabled`, median of per-round ratios |
//! | 9 | `scale-free-100k` | the slower of `resume-insert` / `resume-delete` ≥ 20× `eval-cold` |
//! | 10 | `scale-free-100k` | streamed corpus build peak heap < 0.9× the Graph-then-compact peak |
//! | 11 | `scale-free-100k` | `index-patch` (`BatchEvaluator::apply_delta` of the 6-edge insert) ≤ `PATCH_BOUND`× `index-build` (`BatchEvaluator::from_csr` of the patched snapshot) |
//! | 12 | `scale-free-100k` | `migrate` (`EvalCache::migrate_answers` of 64 touched entries) ≤ `MIGRATE_BOUND`× `migrate-then-read` (the same, then the first read of all 64) |
//! | 13 | `scale-free-100k` | `eval-cold` (`evaluate_dfa_captured` of six broad star/chain queries) ≤ `CAPTURE_BOUND`× `eval-uncaptured` (`evaluate_dfa` of the same) |
//! | 14 | `scale-free-100k` | the peak heap of `LabelIndex::from_csr` above the index it keeps ≤ `INDEX_TRANSIENT_BOUND`× the index's `memory_bytes()` |
//! | 15 | `scale-free-100k` | the index's `memory_bytes()` ≤ `INDEX_BYTES_BOUND`× 8 bytes per edge (a neighbour id in each direction) |
//! | 16 | `scale-free-100k` | the snapshot's `CsrGraph::memory_bytes()` ≤ `SNAPSHOT_BYTES_BOUND`× 16 bytes per edge (a label and a node id in each direction) |
//! | 17 | `scale-free-100k` | the mean bytes one `Session::step` allocates over one seeded session (goal `a1.a0.a3`) ≤ `STEP_ALLOC_BOUND` bytes per node |
//!
//! Samples of the compared shapes are interleaved round-robin so clock or
//! thermal drift cannot bias a comparison one way; the floors that compare
//! near-equal shapes (3, 4, 8) alternate their shapes call by call and gate
//! on the median of the per-round ratios, which a drifting or briefly
//! stalled box moves far less than a ratio of means.
//!
//! ```text
//! cargo run --release -p gps-bench --bin rpq_baseline
//! ```

use gps_automata::{Dfa, Regex};
use gps_core::service::SessionManager;
use gps_core::versioned::{GraphUpdate, PublishReport, VersionedStore};
use gps_core::{Engine, GpsBuilder};
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_datasets::streamed;
use gps_datasets::updates::{update_stream, UpdateStreamConfig};
use gps_exec::{BatchEvaluator, LabelIndex};
use gps_graph::{CsrEntry, CsrGraph, DeltaGraph, Graph, LabelId};
use gps_graph::{NodeId, PathEnumerator, UpdateOp};
use gps_interactive::halt::HaltConfig;
use gps_interactive::session::{Session, SessionConfig};
use gps_interactive::strategy::InformativePathsStrategy;
use gps_interactive::user::SimulatedUser;
use gps_rpq::{DfaEvaluator, EvalCache, EvalHandle, PathQuery, WordIndex};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The system allocator wrapped with live/peak byte counters, so the corpus
/// builds of floor 10 and the index build of floor 14 can report their true
/// peak heap footprint, and a cumulative one, so floor 17 can count what a
/// session step allocates.
/// Relaxed atomics only — the tracking cost is a few nanoseconds per
/// allocation and identical for every interleaved arm.
mod alloc_track {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counting wrapper around [`System`].
    pub struct CountingAlloc;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);
    static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

    fn on_alloc(size: usize) {
        let now = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(now, Ordering::Relaxed);
        ALLOCATED.fetch_add(size, Ordering::Relaxed);
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

    /// Bytes allocated since the process started, never decreased by a
    /// free (a reallocation counts its new size).
    pub fn allocated() -> usize {
        ALLOCATED.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static GLOBAL: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

/// One measured shape: its per-round samples (ns per call unless a floor
/// says otherwise), in the order they were taken — round `i` of every series
/// of one group ran back to back.
struct Series {
    name: &'static str,
    samples: Vec<f64>,
}

impl Series {
    /// NaN for a series that was never sampled.
    fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

/// Which side of its bound a floor's ratio must stay on.
#[derive(Debug, Clone, Copy)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
    Below(f64),
}
use Bound::{AtLeast, AtMost, Below};

/// One CI floor: how many times one shape's cost goes into another's, and
/// the bound that ratio must keep.
struct Floor {
    group: &'static str,
    /// What the ratio is `numerator / denominator` of.
    numerator: &'static str,
    denominator: &'static str,
    ratio: f64,
    bound: Bound,
    /// The statistic behind `ratio`, with the two absolute readings.
    detail: String,
}

impl Floor {
    /// `numerator`'s mean over `denominator`'s.
    fn of_means(group: &'static str, num: &Series, den: &Series, bound: Bound) -> Self {
        let (n, d) = (num.mean(), den.mean());
        Self {
            group,
            numerator: num.name,
            denominator: den.name,
            ratio: n / d,
            bound,
            detail: format!("ratio of means, {n:.0} vs {d:.0} ns"),
        }
    }

    /// The [`paired_ratio`] of two series of one [`paired_group`].
    fn of_pairs(group: &'static str, num: &Series, den: &Series, bound: Bound) -> Self {
        Self {
            group,
            numerator: num.name,
            denominator: den.name,
            ratio: paired_ratio(&num.samples, &den.samples),
            bound,
            detail: format!(
                "median of {} per-round ratios, means {:.0} vs {:.0} ns",
                num.samples.len().min(den.samples.len()),
                num.mean(),
                den.mean(),
            ),
        }
    }

    /// The measured line, or the failure naming both shapes.
    fn check(&self) -> Result<String, String> {
        // Each arm states what *holds*, so a NaN ratio — a series that was
        // never sampled, a zero over a zero — fails its floor instead of
        // passing it vacuously.
        let (holds, side, bound) = match self.bound {
            AtLeast(bound) => (self.ratio >= bound, "at least", bound),
            AtMost(bound) => (self.ratio <= bound, "at most", bound),
            Below(bound) => (self.ratio < bound, "below", bound),
        };
        let line = format!(
            "{}: {} / {} = {:.3} ({}); the floor is {side} {bound}",
            self.group, self.numerator, self.denominator, self.ratio, self.detail,
        );
        if holds {
            Ok(line)
        } else {
            Err(line)
        }
    }
}

/// Median over the rounds of `numerator`'s sample divided by `denominator`'s
/// sample of the same round — two measurements taken back to back
/// ([`paired_group`]), so box-wide drift cancels inside each ratio and one
/// stalled round moves one ratio, not the verdict.  Rounds only one series
/// has are ignored; NaN when no round has both.
fn paired_ratio(numerator: &[f64], denominator: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = numerator
        .iter()
        .zip(denominator)
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

type Runner<'a> = (&'static str, &'a mut dyn FnMut());

/// Times a set of labeled closures with interleaved (round-robin) samples:
/// one series per closure, in the order given.
fn bench_group<const N: usize>(rounds: usize, mut runners: [Runner<'_>; N]) -> [Series; N] {
    let iters = std::array::from_fn(|i| calibrate(&mut runners[i].1));
    sample_group(rounds, iters, runners)
}

/// [`bench_group`] for shapes a floor holds within 5-10% of each other (one
/// service worker vs. the bare loop, sessions beside a publish vs. a static
/// store, telemetry on vs. off) on a box that wanders by 20% over tens of
/// milliseconds and stalls for a millisecond at a time.  The shapes
/// alternate **call by call** - one round is one call of each - for about
/// [`PAIRED_BUDGET`] of measured time (never fewer than 15 rounds), so
/// whatever the box does over more than a few milliseconds lands on every
/// shape alike and a stall spoils one round out of hundreds.  The floors
/// then gate on [`paired_ratio`], whose error shrinks with the root of the
/// round count.
fn paired_group<const N: usize>(mut runners: [Runner<'_>; N]) -> [Series; N] {
    // One unmeasured round doubles as the estimate of a round's length.
    let round: f64 = runners.iter_mut().map(|(_, f)| sample(1, f)).sum();
    let rounds = (PAIRED_BUDGET.as_nanos() as f64 / round.max(1.0)) as usize;
    sample_group(rounds.clamp(15, 2_000), [1; N], runners)
}

/// Measured time one [`paired_group`] call aims for.
const PAIRED_BUDGET: Duration = Duration::from_secs(2);

/// Takes `rounds` rounds of one sample per runner, `iters[i]` calls each.
fn sample_group<const N: usize>(
    rounds: usize,
    iters: [u64; N],
    mut runners: [Runner<'_>; N],
) -> [Series; N] {
    let mut series = std::array::from_fn(|i| Series {
        name: runners[i].0,
        samples: Vec::with_capacity(rounds),
    });
    for _ in 0..rounds {
        for ((series, (_, f)), iters) in series.iter_mut().zip(&mut runners).zip(iters) {
            series.samples.push(sample(iters, f));
        }
    }
    series
}

/// Floor 11's bound on `index-patch / index-build`.  A patch that rebuilds
/// the touched label partitions whole read 0.084-0.089 here (1.6 ms against
/// 18 ms), one that rebuilds only their touched chunks 0.002 (60 us against
/// 26 ms).
const PATCH_BOUND: f64 = 0.02;

/// Rounds of the calibrated or hand-timed 2k groups (floors 2, 5, 6, 7).
const ROUNDS: usize = 4;

/// Floor 1: the `gps-exec` frontier engine (planner-chosen plan) against the
/// node-at-a-time oracle, both on the CSR snapshot.
fn frontier_floor(graph: &Graph, query: &PathQuery) -> Floor {
    let csr = CsrGraph::from_graph(graph);
    let frontier = BatchEvaluator::from_csr(&csr);
    let dfa = query.dfa();
    let mut run_naive = || {
        black_box(query.evaluate(&csr));
    };
    let mut run_frontier = || {
        black_box(frontier.evaluate(dfa));
    };
    let [naive, frontier] = bench_group(
        8,
        [
            ("csr-naive", &mut run_naive),
            ("csr-frontier", &mut run_frontier),
        ],
    );
    Floor::of_means("scale-free-2000", &naive, &frontier, AtLeast(1.3))
}

/// Floor 2: one whole-graph pass over every node's words of length `1..=4`,
/// the enumerator walking each node's paths against the index derivation
/// sessions read.
fn words_floor(graph: &Graph) -> Floor {
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
    let [enumerate, index] = bench_group(
        ROUNDS,
        [
            ("words-enumerate", &mut run_enumerate),
            ("words-index", &mut run_index),
        ],
    );
    Floor::of_means("scale-free-2000-words", &enumerate, &index, AtLeast(3.0))
}

/// The engine every 2k floor builds, before the options one of them adds.
fn engine_on(graph: &Graph) -> GpsBuilder {
    Engine::builder(graph.clone()).max_interactions(24)
}

/// A service over a fresh engine on `graph`.
fn service_over(graph: &Graph) -> SessionManager {
    SessionManager::new(engine_on(graph).build())
}

/// One call serves `goals` on one worker from a cleared answer cache, so
/// every batch pays the real per-task evaluation cost.
fn serve_cold<'a>(service: &'a SessionManager, goals: &'a [String]) -> impl FnMut() + 'a {
    move || {
        service.core().eval_cache().clear();
        black_box(
            service
                .serve(goals, 1)
                .expect("goals parse and sessions halt"),
        );
    }
}

/// Floor 3: a batch of whole sessions driven directly on the engine one
/// after the other (no session table) against the same goals served through
/// a `SessionManager` on one worker.  Both shapes run over one shared
/// engine, so the comparison isolates the service machinery (session table,
/// per-session locks, audit events), which must cost < ~10% per session.
fn service_floor(graph: &Graph, goals: &[String]) -> Floor {
    let engine = engine_on(graph).build();
    let service = SessionManager::new(engine.clone());
    let mut run_sequential = || {
        engine.eval_cache().clear();
        for syntax in goals {
            let goal = engine.parse_query(syntax).expect("goal parses");
            let mut user = SimulatedUser::with_exec(goal, engine.eval_handle());
            let mut session = engine.open_session();
            black_box(session.run(&mut InformativePathsStrategy, &mut user));
        }
    };
    let mut run_w1 = serve_cold(&service, goals);
    let [sequential, w1] = paired_group([
        ("sessions-sequential", &mut run_sequential),
        ("concurrent-sessions-w1", &mut run_w1),
    ]);
    Floor::of_pairs("scale-free-2000-service", &sequential, &w1, AtLeast(0.9))
}

/// An endlessly repeatable live-update workload: the insertion batch `adds`
/// and the batch that removes it again.  Published alternately they make
/// the graph oscillate around the base snapshot instead of drifting — every
/// publish exercises the full machinery (compaction, partition patch, word
/// inheritance, epoch swap, answer migration) while graph size stays put.
fn oscillation(adds: Vec<UpdateOp>) -> [GraphUpdate; 2] {
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
            other => unreachable!("insert-only batch holds {other:?}"),
        })
        .collect();
    [GraphUpdate::from_ops(adds), GraphUpdate::from_ops(removes)]
}

/// Four `u -live-> v` insertions between the lowest-degree nodes (late
/// arrivals in preferential attachment), under a label no query uses.
fn leaf_edges(graph: &Graph) -> Vec<UpdateOp> {
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
}

/// Floor 4: the same session batch served over a never-updated store vs. a
/// store that publishes mid-batch (a read-heavy serving ratio: one small
/// write per ~200 sessions).  Both shapes serve the identical goal list (24x
/// the service goals) on one worker and pay exactly one cold evaluation
/// segment per call: the static shape starts from a cleared answer cache (a
/// fresh deployment), the live shape starts warm but its mid-batch publish
/// moves the second half of the sessions onto a fresh epoch — cold answers,
/// an inherited word index and a patched label index (the MVCC machinery
/// this floor guards, and the point of patching and inheriting instead of
/// rebuilding per epoch).  The oscillating edges connect *low-degree* nodes
/// under a label no goal query uses: hub-attached edges genuinely lengthen
/// every downstream specification dialogue (that is workload change, not
/// serving overhead), while leaf edges keep the measured sessions
/// comparable between the two graph states — so the ratio isolates the cost
/// of the publish machinery itself.
fn live_floor(graph: &Graph, service_goals: &[String]) -> Floor {
    let goals: Vec<String> = service_goals
        .iter()
        .cycle()
        .take(service_goals.len() * 24)
        .cloned()
        .collect();
    let static_service = service_over(graph);
    let live_service = service_over(graph);
    let mut live_updates = oscillation(leaf_edges(graph)).into_iter().cycle();
    let mut run_static = serve_cold(&static_service, &goals);
    let mut run_live = || {
        for (i, goal) in goals.iter().enumerate() {
            if i == goals.len() / 2 {
                live_service
                    .update(live_updates.next().expect("cycles"))
                    .expect("oscillating updates always apply");
            }
            black_box(live_service.serve_one(goal).expect("sessions halt"));
        }
    };
    let [statik, live] = paired_group([
        ("sessions-static", &mut run_static),
        ("sessions-during-updates", &mut run_live),
    ]);
    Floor::of_pairs("scale-free-2000-live", &statik, &live, AtLeast(0.9))
}

/// The 16-query warm set over the generated `a0..a3` alphabet shared by the
/// answer-migration floors.
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

/// What delta-driven answer migration buys the first read after a publish,
/// on a warm 16-query answer cache.  Round `i` publishes `updates[i % 2]` to
/// two identically warmed deployments and times the first read of all 16
/// queries on each (ns per read of the whole set):
///
/// * the migrating arm (`migrated_name`): the publish carries the cache across
///   the epoch, `check` asserts on its report which tier did, and the read
///   answers from it;
/// * the cold-start arm (`cold_name`): the pre-migration behavior, simulated by
///   clearing the answer cache before the identical publish, so the read
///   re-evaluates everything from scratch.
///
/// The arms are interleaved round by round so clock or thermal drift cannot
/// bias the ratio; each round is one whole publish + first-read cycle.  The
/// floor is the cold arm's mean over the migrating arm's.
fn first_read_floor(
    graph: &Graph,
    (migrated_name, cold_name): (&'static str, &'static str),
    updates: [GraphUpdate; 2],
    check: impl Fn(&PublishReport, &[PathQuery]),
    bound: Bound,
) -> Floor {
    let queries = warm_query_set(graph);
    let first_read = |service: &SessionManager| {
        let core = service.core();
        let cache = core.eval_cache();
        let start = Instant::now();
        for q in &queries {
            black_box(cache.evaluate_compiled(q.regex(), q.dfa()));
        }
        start.elapsed().as_nanos() as f64
    };
    // Warm both deployments the way a serving store is warm: answer cache
    // and word index populated.
    let warm = || {
        let service = service_over(graph);
        service.core().eval_cache().bounded_words(4);
        first_read(&service);
        service
    };
    let (migrating, cold_start) = (warm(), warm());
    let mut migrated = Series {
        name: migrated_name,
        samples: Vec::with_capacity(ROUNDS),
    };
    let mut cold = Series {
        name: cold_name,
        samples: Vec::with_capacity(ROUNDS),
    };
    for update in updates.iter().cycle().take(ROUNDS) {
        let report = migrating.update(update.clone()).expect("publish applies");
        check(&report, &queries);
        migrated.samples.push(first_read(&migrating));

        cold_start.core().eval_cache().clear();
        cold_start.update(update.clone()).expect("publish applies");
        cold.samples.push(first_read(&cold_start));
    }
    Floor::of_means("scale-free-2000-ivm", &cold, &migrated, bound)
}

/// Floor 5: a 4-op leaf publish under the fresh label `live` — disjoint
/// from every query's DFA alphabet, so every entry is a Tier-1 carry — must
/// leave untouched queries answerable far faster than re-evaluating them.
/// The measured gap is orders of magnitude (cache hits vs 16 frontier fixed
/// points); 5x is the conservative floor.
fn carried_read_floor(graph: &Graph) -> Floor {
    first_read_floor(
        graph,
        (
            "post-publish-first-eval-ivm",
            "post-publish-first-eval-coldstart",
        ),
        oscillation(leaf_edges(graph)),
        |report, queries| {
            assert_eq!(
                report.carried_answers,
                queries.len(),
                "the label-disjoint leaf publish must carry the whole cache"
            );
        },
        AtLeast(5.0),
    )
}

/// Floor 6: what the Tier-3 delete-aware resume buys on *removal-bearing*
/// publishes.  Every publish removes four existing `a0..a3` edges and
/// inserts four others (a mixed delta touching every query alphabet); the
/// warm cache is migrated instead of cold-starting, and the publish leaves
/// the touched answers pending, so the over-delete/re-derive resumes run
/// inside the timed first read.  That read must still beat the
/// 16-fixed-point re-evaluation comfortably (4.6x measured on this graph, against
/// ~100x when the publish ran them; 2x is the conservative floor).
///
/// The removed edges originate at in-degree-0 nodes, so each over-delete
/// cone is confined to the source configuration itself — the shape the
/// delete path is built for (bounded removals on a big warm graph).  The
/// two edge sets alternate (remove A / add B, then remove B / add A), so the
/// graph oscillates around the base snapshot and every round is a genuinely
/// mixed insert+delete publish.
fn delete_reseeded_read_floor(graph: &Graph) -> Floor {
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
    let csr = CsrGraph::from_graph(graph);
    let edge = |source: NodeId| -> (String, String, String) {
        let CsrEntry {
            label,
            node: target,
        } = csr.out(source)[0];
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
                .find(|&l| {
                    !csr.out(source).contains(&CsrEntry {
                        label: l,
                        node: target_id,
                    })
                })
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
    first_read_floor(
        graph,
        (
            "post-publish-first-eval-delete-ivm",
            "post-publish-first-eval-delete-coldstart",
        ),
        [mixed(&set_a, &set_b), mixed(&set_b, &set_a)],
        |report, _| {
            assert!(
                report.delete_reseeded_answers > 0,
                "the alphabet-touching removals must take the delete-aware resume"
            );
            assert_eq!(
                report.recomputed_answers, 0,
                "leaf removals stay far under the saturation budget"
            );
        },
        AtLeast(2.0),
    )
}

/// Floor 7: the identical oscillating publish through a file-backed store
/// (WAL append + commit fsync + checkpoints at the default cadence, so the
/// durable number includes their amortized cost) vs. the in-memory one,
/// interleaved so disk or thermal drift cannot bias the ratio.  Durability
/// must stay a bounded multiple of the in-memory publish, not a cliff: the
/// observed ratio is single-digit, and 100x is the generous ceiling that
/// still catches pathologies like checkpointing on every publish.
fn durable_floor(graph: &Graph) -> Floor {
    let dir = std::env::temp_dir().join(format!("gps-bench-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = || engine_on(graph).checkpoint_every_n_publishes(32);
    let (durable, _) = VersionedStore::open_durable(&dir, builder()).expect("durable store opens");
    let memory = VersionedStore::new(builder().build());
    // Four insertions off the streamed update workload (graph labels,
    // attachment-biased endpoints), the same batch for both stores.
    let stream = UpdateStreamConfig {
        operations: 4,
        insert_ratio: 1.0,
        new_node_ratio: 0.0,
        seed: 23,
    };
    let mut durable_updates = oscillation(update_stream(graph, &stream))
        .into_iter()
        .cycle();
    let mut memory_updates = durable_updates.clone();
    // Warm the word index the way a serving deployment is warm, so each
    // publish pays the realistic inheritance cost, not an empty-cache one.
    durable.latest().eval_cache().bounded_words(4);
    memory.latest().eval_cache().bounded_words(4);
    let mut run_durable = || {
        black_box(
            durable
                .update(durable_updates.next().expect("cycles"))
                .expect("oscillating updates always apply"),
        );
    };
    let mut run_memory = || {
        black_box(
            memory
                .update(memory_updates.next().expect("cycles"))
                .expect("oscillating updates always apply"),
        );
    };
    let [durable_ns, memory_ns] = bench_group(
        ROUNDS,
        [
            ("durable-publish", &mut run_durable),
            ("memory-publish", &mut run_memory),
        ],
    );
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    Floor::of_means(
        "scale-free-2000-durable",
        &durable_ns,
        &memory_ns,
        AtMost(100.0),
    )
}

/// Floor 8: the identical session batch with no metrics registry vs. a live
/// one wired through exec, cache, sessions and service.  The disabled side
/// of every metric is one branch and the enabled side a relaxed atomic add,
/// so the instrumented path must keep at least 95% of the uninstrumented
/// throughput; a bigger gap means someone put real work (allocation,
/// locking, formatting) on the hot path.
fn telemetry_floor(graph: &Graph, goals: &[String]) -> Floor {
    use gps_core::telemetry::MetricsRegistry;
    let disabled = service_over(graph);
    let registry = Arc::new(MetricsRegistry::enabled());
    let enabled = SessionManager::new(engine_on(graph).metrics(registry).build());
    let mut run_disabled = serve_cold(&disabled, goals);
    let mut run_enabled = serve_cold(&enabled, goals);
    let [off, on] = paired_group([
        ("telemetry-disabled", &mut run_disabled),
        ("telemetry-enabled", &mut run_enabled),
    ]);
    Floor::of_pairs("scale-free-2000-telemetry", &off, &on, AtLeast(0.95))
}

/// Floors 10, 14, 15, 16, 9, 11, 12, 13 and 17, on a 4-edges-per-node, 8-label
/// scale-free corpus of 100k nodes.
///
/// * The streamed `CsrGraph` builder vs. materializing the mutable `Graph`
///   first: the **peak heap bytes** of one build of each (counting
///   allocator, relative to the live bytes when the build starts).  The
///   streamed builder's whole point is a peak well below the other path's.
/// * The transient heap of a label-index build ([`index_transient_floor`]).
/// * The label index's bytes per stored neighbour ([`index_bytes_floor`]).
/// * The snapshot's bytes per stored edge ([`snapshot_bytes_floor`]).
/// * Re-deriving a 6-hop chain answer from its seed across a 6-edge
///   insert-only delta (`resume-insert`), and across the delta that removes
///   those edges again (`resume-delete`), vs. evaluating the same query
///   cold, seed capture included as on the engine's path (`eval-cold`).  A
///   resume (`DfaEvaluator::evaluate_dfa_resumed`) is a copy-on-write clone
///   of the seed plus the delta's derivation cone, a cold evaluation costs
///   the graph: the slower of the two resumes must beat it by 20x (measured:
///   90-105x here, 0.36-0.54 ms against 3.3-5.3 us; a resume that copies or
///   scans per node again lands near 1x).
/// * Patching the evaluator's label index through that 6-edge insert
///   (`BatchEvaluator::apply_delta`, what a publish runs) vs. building it
///   from scratch over the patched snapshot
///   (`BatchEvaluator::from_csr`): a patch rebuilds only the index chunks
///   the delta touches, so it must stay under [`PATCH_BOUND`] of a build.
/// * Migrating a warm answer cache across a 4-edge publish vs. migrating it
///   and reading every answer once ([`lazy_migration_floor`]).
/// * A cold evaluation with its seed captured vs. without
///   ([`capture_floor`]).
/// * The bytes a session step allocates per node ([`step_alloc_floor`]).
fn scale_floors() -> [Floor; 9] {
    const GROUP: &str = "scale-free-100k";
    let config = ScaleFreeConfig {
        nodes: 100_000,
        edges_per_node: 4,
        alphabet_size: 8,
        skewed_labels: true,
        seed: 42,
    };

    let mut streamed_peak = 0usize;
    let mut compact_peak = 0usize;
    let mut last: Option<CsrGraph> = None;
    for _ in 0..2 {
        drop(last.take()); // free the previous sample before measuring the next
        let base = alloc_track::reset_peak();
        let csr = streamed::generate_csr(&config);
        streamed_peak = streamed_peak.max(alloc_track::peak_since(base));
        last = Some(csr);

        let base = alloc_track::reset_peak();
        let reference = CsrGraph::from_graph(&scale_free::generate(&config));
        compact_peak = compact_peak.max(alloc_track::peak_since(base));
        assert_eq!(
            reference.edge_count(),
            last.as_ref().expect("streamed build ran").edge_count(),
            "the streamed builder must produce the identical corpus"
        );
    }
    let peaks = Floor {
        group: GROUP,
        numerator: "build-streamed-peak-bytes",
        denominator: "build-graph-then-compact-peak-bytes",
        ratio: streamed_peak as f64 / compact_peak as f64,
        bound: Below(0.9),
        detail: format!("peak heap of one corpus build, {streamed_peak} vs {compact_peak} bytes"),
    };
    let snapshot = Arc::new(last.expect("at least one build sample"));
    let n = snapshot.node_count();
    let transient = index_transient_floor(GROUP, &snapshot);
    let snapshot_bytes = snapshot_bytes_floor(GROUP, &snapshot);

    // Capture the 6-hop chain's fixed point once, insert a 6-edge path
    // spelling the query between existing nodes and resume across that
    // delta, then remove the path again and resume across the removal from
    // the seed the insert produced.  Both resumes are pure functions of
    // (seed, delta), so every call repeats the same work; the evaluators
    // share patched indexes (clones copy Arcs, not partitions).
    let labels: Vec<LabelId> = (0..8).map(LabelId::new).collect();
    let chain_labels = [4usize, 5, 6, 7, 4, 5];
    let low_reach = Dfa::from_regex(&Regex::concat(
        chain_labels.iter().map(|&i| Regex::symbol(labels[i])),
    ));
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
    let bytes = index_bytes_floor(GROUP, &snapshot, base_eval.index());
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
    // What the engine pays for a cold answer: `EvalCache::evaluate` always
    // captures the seed with it.
    let mut run_cold = || {
        black_box(insert_eval.evaluate_dfa_captured(&low_reach));
    };
    let [insert, delete, cold] = bench_group(
        5,
        [
            ("resume-insert", &mut run_resume_insert),
            ("resume-delete", &mut run_resume_delete),
            ("eval-cold", &mut run_cold),
        ],
    );
    let (insert, delete, cold) = (insert.mean(), delete.mean(), cold.mean());
    let resume = Floor {
        group: GROUP,
        numerator: "eval-cold",
        denominator: "the slower of resume-insert / resume-delete",
        ratio: cold / insert.max(delete),
        bound: AtLeast(20.0),
        detail: format!(
            "ratio of means, {cold:.0} ns cold vs {insert:.0} / {delete:.0} ns resumed"
        ),
    };

    // The same 6-edge insert, as the label-index patch a publish runs
    // against indexing the patched snapshot from scratch.
    let mut run_patch = || {
        black_box(base_eval.apply_delta(&inserted, &insert_delta));
    };
    let mut run_build = || {
        black_box(BatchEvaluator::from_csr(&inserted));
    };
    let [patch, build] = bench_group(
        5,
        [
            ("index-patch", &mut run_patch),
            ("index-build", &mut run_build),
        ],
    );
    let patch = Floor::of_means(GROUP, &patch, &build, AtMost(PATCH_BOUND));
    let lazy = lazy_migration_floor(GROUP, &snapshot, &base_eval);
    let capture = capture_floor(GROUP, &base_eval);
    let step_alloc = step_alloc_floor(GROUP, &snapshot, &base_eval);
    [
        peaks,
        transient,
        bytes,
        snapshot_bytes,
        resume,
        patch,
        lazy,
        capture,
        step_alloc,
    ]
}

/// Floor 14's bound on the transient heap of a label-index build over the
/// index's own size.  Building from both directions' `(row, neighbor)`
/// pairs of every edge at once read 1.08 here; bucketing one direction at a
/// time and dropping each label's bucket once it is packed read 0.14 of the
/// dense-offset index.  A chunk-major build reads 0.31 of the index with
/// offsets for occupied rows only: nearly all of it is the reverse
/// direction's per-label neighbour buffers, reused across chunks and so
/// sized by the largest one (the first chunk, which holds the hubs: 1.4 MB).
const INDEX_TRANSIENT_BOUND: f64 = 0.75;

/// Floor 14: what a label-index build allocates on top of the index it
/// keeps — the peak heap of one `LabelIndex::from_csr` over `snapshot`,
/// relative to the live bytes when it starts, minus the index's
/// `memory_bytes()` — must stay under [`INDEX_TRANSIENT_BOUND`] of that
/// size.  Counted allocations, no clock: the reading is deterministic.
fn index_transient_floor(group: &'static str, snapshot: &CsrGraph) -> Floor {
    let base = alloc_track::reset_peak();
    let index = LabelIndex::from_csr(snapshot);
    let peak = alloc_track::peak_since(base);
    let kept = index.memory_bytes();
    let transient = peak.saturating_sub(kept);
    Floor {
        group,
        numerator: "index-build-transient-bytes",
        denominator: "index-memory-bytes",
        ratio: transient as f64 / kept as f64,
        bound: AtMost(INDEX_TRANSIENT_BOUND),
        detail: format!("peak {peak} bytes above the live heap, {kept} bytes kept"),
    }
}

/// Floor 15's bound on the label index's bytes over 8 bytes per edge (a
/// neighbour id in each direction).  Dense per-row offsets in every
/// partition read 3.07 here; offsets for occupied rows only read 1.59.
const INDEX_BYTES_BOUND: f64 = 2.0;

/// Floor 15: the label index stays close to the neighbours it stores — its
/// `memory_bytes()` over 8 bytes per edge of `snapshot` (one `u32` forward,
/// one reverse) must stay under [`INDEX_BYTES_BOUND`].  Counted bytes, no
/// clock: the reading is deterministic.
fn index_bytes_floor(group: &'static str, snapshot: &CsrGraph, index: &LabelIndex) -> Floor {
    let (kept, stored) = (index.memory_bytes(), 8 * snapshot.edge_count());
    Floor {
        group,
        numerator: "index-memory-bytes",
        denominator: "8-bytes-per-edge",
        ratio: kept as f64 / stored as f64,
        bound: AtMost(INDEX_BYTES_BOUND),
        detail: format!("{kept} bytes kept for {} edges", snapshot.edge_count()),
    }
}

/// Floor 16's bound on the snapshot's bytes over 16 bytes per edge (an
/// 8-byte `(label, node)` entry in each direction).  With an edge id beside
/// every entry and a `String` per node name this read 2.157 here; entries
/// only and names in a byte arena per chunk read 1.343 (offsets ≈ 0.13,
/// names ≈ 0.22 of it).
const SNAPSHOT_BYTES_BOUND: f64 = 1.6;

/// Floor 16: the snapshot stays close to the edges it stores — its
/// `memory_bytes()` (both directions' offsets and entries, the node names'
/// text, ends and lookup runs) over 16 bytes per edge of `snapshot` must
/// stay under [`SNAPSHOT_BYTES_BOUND`].  Counted bytes, no clock: the
/// reading is deterministic.
fn snapshot_bytes_floor(group: &'static str, snapshot: &CsrGraph) -> Floor {
    let (kept, stored) = (snapshot.memory_bytes(), 16 * snapshot.edge_count());
    Floor {
        group,
        numerator: "snapshot-memory-bytes",
        denominator: "16-bytes-per-edge",
        ratio: kept as f64 / stored as f64,
        bound: AtMost(SNAPSHOT_BYTES_BOUND),
        detail: format!(
            "{kept} bytes kept for {} nodes and {} edges",
            snapshot.node_count(),
            snapshot.edge_count()
        ),
    }
}

/// Floor 17's bound on the mean bytes a session step allocates, per node of
/// the snapshot.  While every proposal's fragment and every zoom ran a
/// breadth-first search over a distance per node (8 bytes each) and the
/// satisfaction check decoded both answers into node lists, this read 24.3
/// here; a radius-bounded search and answers compared as bitsets read 1.87.
/// What is left is the first step's per-session pruning scores (4 bytes per
/// node), the learner's cold evaluations (an answer and a seed, bits per
/// node) and the zoomed fragments themselves.
const STEP_ALLOC_BOUND: f64 = 4.0;

/// Floor 17: a session step allocates what it changes, not what the graph
/// holds.  One session with a simulated user after the goal `a1.a0.a3` runs
/// on `snapshot` through the frontier evaluator with the word index already
/// derived (as an engine's set-up derives it); the bytes each `step`
/// allocates are summed, and their mean over the steps divided by the node
/// count must stay under [`STEP_ALLOC_BOUND`].  Counted bytes, no clock: the
/// reading is deterministic.
fn step_alloc_floor(
    group: &'static str,
    snapshot: &Arc<CsrGraph>,
    base_eval: &BatchEvaluator,
) -> Floor {
    let cache = EvalCache::with_shared_evaluator(Arc::clone(snapshot), Box::new(base_eval.clone()));
    let exec = EvalHandle::from_cache(Arc::new(cache));
    let config = SessionConfig {
        halt: HaltConfig {
            max_interactions: 16,
            stop_on_goal: true,
        },
        ..SessionConfig::default()
    };
    exec.bounded_words(config.path_bound);
    let goal = PathQuery::parse("a1.a0.a3", snapshot.labels()).expect("the corpus has a0..a7");
    let mut user = SimulatedUser::with_exec(goal, exec.clone());
    let mut session = Session::with_shared_exec(Arc::clone(snapshot), config, exec);
    let (mut bytes, mut steps) = (0, 0);
    loop {
        let before = alloc_track::allocated();
        let halt = session.step(&mut InformativePathsStrategy, &mut user);
        bytes += alloc_track::allocated() - before;
        steps += 1;
        if halt.is_some() {
            break;
        }
    }
    let stats = session.stats();
    let per_step = bytes as f64 / steps as f64;
    Floor {
        group,
        numerator: "step-allocated-bytes",
        denominator: "nodes",
        ratio: per_step / snapshot.node_count() as f64,
        bound: AtMost(STEP_ALLOC_BOUND),
        detail: format!(
            "{per_step:.0} bytes per step over {steps} steps ({} negative, {} positive, {} zooms), {} nodes",
            stats.negative_labels,
            stats.positive_labels,
            stats.zooms,
            snapshot.node_count()
        ),
    }
}

/// Floor 13's bound on `eval-cold / eval-uncaptured`.  While a seed carried
/// a support counter per configuration beside its alive bits, capturing read
/// 1.49-1.62x here; a seed of alive bits only reads 0.98-1.0x.
const CAPTURE_BOUND: f64 = 1.15;

/// Floor 13: capturing the seed costs a cold evaluation next to nothing.
/// Six broad star/chain queries over `base_eval`'s snapshot, none of them
/// nullable (a nullable query selects every node at once, and only the
/// uncaptured path may stop there).  `eval-cold` evaluates each with its
/// seed captured, as the answer cache does on a miss; `eval-uncaptured`
/// evaluates each without.
fn capture_floor(group: &'static str, base_eval: &BatchEvaluator) -> Floor {
    let l = |i: u32| Regex::symbol(LabelId::new(i));
    let any = |labels: &[u32]| Regex::star(Regex::union(labels.iter().map(|&i| l(i))));
    let queries: Vec<Dfa> = [
        Regex::concat([any(&[0, 1]), l(2)]),
        Regex::concat([any(&[2, 3]), l(4)]),
        Regex::concat([any(&[4, 5, 6, 7]), l(0)]),
        Regex::concat([l(0), any(&[1, 2]), l(3)]),
        Regex::concat([l(1), l(0), any(&[0, 1, 2, 3])]),
        Regex::concat([l(5), l(6), l(7)]),
    ]
    .iter()
    .map(Dfa::from_regex)
    .collect();
    for dfa in &queries {
        let (answer, seed) = base_eval.evaluate_dfa_captured(dfa);
        assert!(seed.is_some(), "a frontier fixed point always captures");
        assert_eq!(answer, base_eval.evaluate_dfa(dfa));
    }
    let mut run_captured = || {
        for dfa in &queries {
            black_box(base_eval.evaluate_dfa_captured(dfa));
        }
    };
    let mut run_uncaptured = || {
        for dfa in &queries {
            black_box(base_eval.evaluate_dfa(dfa));
        }
    };
    let [captured, uncaptured] = bench_group(
        5,
        [
            ("eval-cold", &mut run_captured),
            ("eval-uncaptured", &mut run_uncaptured),
        ],
    );
    Floor::of_means(group, &captured, &uncaptured, AtMost(CAPTURE_BOUND))
}

/// Floor 12's bound on `migrate / migrate-then-read`.  Migration that
/// resumes every touched entry itself read 0.94 here (359 us against 383 us:
/// the reads are plain hits); migration that leaves the resumes to the
/// first read 0.12 (40 us against 341 us).
const MIGRATE_BOUND: f64 = 0.4;

/// Floor 12: a publish stays pointer work per touched entry.  64 captured
/// queries, each reading labels `l0..l3`, are warmed on `snapshot`, and a
/// 4-edge insert under those labels is staged.  `migrate` times
/// `EvalCache::migrate_answers` into a fresh cache over the patched
/// evaluator; `migrate-then-read` the same followed by one read of all 64
/// answers, which is where their Tier-2 resumes run.  The publish must stay
/// under [`MIGRATE_BOUND`] of the two together.
fn lazy_migration_floor(
    group: &'static str,
    snapshot: &Arc<CsrGraph>,
    base_eval: &BatchEvaluator,
) -> Floor {
    let n = snapshot.node_count();
    let label = LabelId::new;
    let any_low = Regex::union((0..4).map(|i| Regex::symbol(label(i))));
    let queries: Vec<Regex> = (0..8)
        .flat_map(|i| (0..8).map(move |j| (i, j)))
        .map(|(i, j)| {
            let (li, lj) = (Regex::symbol(label(i)), Regex::symbol(label(j)));
            Regex::concat([li, lj, any_low.clone()])
        })
        .collect();
    let old = EvalCache::with_shared_evaluator(Arc::clone(snapshot), Box::new(base_eval.clone()));
    for regex in &queries {
        old.evaluate(regex);
    }
    let mut staged = DeltaGraph::new(Arc::clone(snapshot));
    for k in 0..4 {
        staged.add_edge(
            NodeId::from(n - 20 + k),
            label(k as u32),
            NodeId::from(n / 2 + k),
        );
    }
    let delta = staged.delta();
    let patched_snapshot = Arc::new(staged.compact());
    let patched = base_eval.apply_delta(&patched_snapshot, &delta);
    let migrated = || {
        let cache = EvalCache::with_shared_evaluator(
            Arc::clone(&patched_snapshot),
            Box::new(patched.clone()),
        );
        let report = cache.migrate_answers(&old, &delta);
        assert_eq!(report.reseeded, queries.len(), "every query is touched");
        cache
    };
    let cold = BatchEvaluator::from_csr(&patched_snapshot);
    let check = migrated();
    for regex in &queries {
        assert_eq!(
            *check.evaluate(regex),
            cold.evaluate(&Dfa::from_regex(regex)),
            "the resumed answer must match a cold evaluation"
        );
    }
    let mut run_migrate = || {
        black_box(migrated());
    };
    let mut run_migrate_read = || {
        let cache = migrated();
        for regex in &queries {
            black_box(cache.evaluate(regex));
        }
    };
    let [migrate, migrate_read] = bench_group(
        5,
        [
            ("migrate", &mut run_migrate),
            ("migrate-then-read", &mut run_migrate_read),
        ],
    );
    Floor::of_means(group, &migrate, &migrate_read, AtMost(MIGRATE_BOUND))
}

fn main() {
    let sf = scale_free::generate(&ScaleFreeConfig {
        nodes: 2_000,
        seed: 11,
        ..ScaleFreeConfig::default()
    });
    let name = |i: u32| sf.labels().name(LabelId::new(i)).unwrap().to_string();
    let sf_syntax = format!("({}+{})*.{}", name(0), name(1), name(2));
    let sf_query = PathQuery::parse(&sf_syntax, sf.labels())
        .expect("scale-free alphabet has at least three labels");

    // Multi-session serving: a batch of specification tasks with a mix of
    // goals (distinct goals stress the shared cache the way distinct users
    // would; repeats profit from it the way popular queries do).  The
    // second goal produces a realistic mixed-label dialogue (positives,
    // negatives, zooms) — negatives are what exercise coverage, pruning
    // and the word index's postings.
    let session_syntax = format!("{}.{}*.{}", name(2), name(0), name(1));
    let service_goals: Vec<String> = vec![
        sf_syntax.clone(),
        session_syntax.clone(),
        name(2),
        sf_syntax.clone(),
        format!("{}*.{}", name(1), name(2)),
        session_syntax,
        name(2),
        sf_syntax,
    ];

    let mut floors = vec![
        frontier_floor(&sf, &sf_query),
        words_floor(&sf),
        service_floor(&sf, &service_goals),
        live_floor(&sf, &service_goals),
        carried_read_floor(&sf),
        delete_reseeded_read_floor(&sf),
        durable_floor(&sf),
        telemetry_floor(&sf, &service_goals),
    ];
    floors.extend(scale_floors());

    let mut failed = false;
    for floor in &floors {
        match floor.check() {
            Ok(line) => println!("{line}"),
            Err(line) => {
                eprintln!("SMOKE FAILURE: {line}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(name: &'static str, samples: &[f64]) -> Series {
        let samples = samples.to_vec();
        Series { name, samples }
    }

    fn floor(ratio: f64, bound: Bound) -> Floor {
        Floor {
            group: "group",
            numerator: "shape-a",
            denominator: "shape-b",
            ratio,
            bound,
            detail: String::new(),
        }
    }

    #[test]
    fn paired_ratio_is_the_median_of_the_per_round_ratios() {
        // Odd: ratios 2, 1, 4 -> the middle one.
        assert_eq!(paired_ratio(&[2.0, 3.0, 8.0], &[1.0, 3.0, 2.0]), 2.0);
        // Even: ratios 8, 1, 4, 2 -> the mean of the middle two.
        assert_eq!(paired_ratio(&[8.0, 1.0, 4.0, 2.0], &[1.0; 4]), 3.0);
        // One stalled round moves one ratio, not the verdict.
        assert_eq!(paired_ratio(&[1.0, 1000.0, 1.0], &[1.0; 3]), 1.0);
        // Unequal lengths pair round by round: the sample without a partner
        // is ignored (ratios 2 and 4), not shifted or wrapped onto another.
        assert_eq!(paired_ratio(&[2.0, 8.0, 99.0], &[1.0, 2.0]), 3.0);
        assert_eq!(paired_ratio(&[2.0, 8.0], &[1.0, 2.0, 99.0]), 3.0);
    }

    #[test]
    fn an_unmeasured_series_fails_every_kind_of_floor() {
        assert!(paired_ratio(&[], &[1.0]).is_nan());
        assert!(paired_ratio(&[1.0], &[]).is_nan());
        let measured = series("measured", &[1.0, 2.0]);
        let missing = series("missing", &[]);
        for bound in [AtLeast(0.9), AtMost(100.0), Below(0.9)] {
            assert!(floor(f64::NAN, bound).check().is_err(), "{bound:?}");
            for (num, den) in [(&measured, &missing), (&missing, &measured)] {
                let paired = Floor::of_pairs("group", num, den, bound);
                assert!(paired.ratio.is_nan() && paired.check().is_err());
                let means = Floor::of_means("group", num, den, bound);
                assert!(means.ratio.is_nan() && means.check().is_err());
            }
        }
    }

    #[test]
    fn a_ratio_one_ulp_past_its_bound_fails_and_names_both_shapes() {
        let under = |x: f64| f64::from_bits(x.to_bits() - 1);
        let over = |x: f64| f64::from_bits(x.to_bits() + 1);

        assert!(floor(1.3, AtLeast(1.3)).check().is_ok());
        let message = floor(under(1.3), AtLeast(1.3)).check().unwrap_err();
        assert!(message.contains("shape-a") && message.contains("shape-b"));
        assert!(message.contains("at least 1.3"), "{message}");

        assert!(floor(100.0, AtMost(100.0)).check().is_ok());
        assert!(floor(over(100.0), AtMost(100.0)).check().is_err());
        assert!(floor(f64::INFINITY, AtMost(100.0)).check().is_err());

        assert!(floor(under(0.9), Below(0.9)).check().is_ok());
        assert!(floor(0.9, Below(0.9)).check().is_err());
    }

    #[test]
    fn floors_divide_the_first_series_by_the_second() {
        let slow = series("slow", &[30.0, 50.0]);
        let fast = series("fast", &[10.0, 10.0]);
        let means = Floor::of_means("group", &slow, &fast, AtLeast(3.0));
        assert_eq!(means.ratio, 4.0);
        assert_eq!((means.numerator, means.denominator), ("slow", "fast"));
        assert!(means.check().is_ok());
        let pairs = Floor::of_pairs("group", &slow, &fast, AtLeast(4.5));
        assert_eq!(pairs.ratio, 4.0);
        assert!(pairs.check().is_err());
    }
}
