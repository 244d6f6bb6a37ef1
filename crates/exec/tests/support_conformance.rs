//! Seed conformance — a resumed seed must be indistinguishable from
//! starting over, and must cost the delta's cone.
//!
//! Properties, with a deterministic xorshift generator (no external RNG
//! dependency):
//!
//! * across chained random mixed insert+delete epochs, the [`EvalResume`]
//!   produced by [`resume`] — alive bits **and** the carried alive
//!   population — equals a from-scratch captured evaluation on the patched
//!   graph, and the answer equals the naive evaluator's.  Checked on two
//!   seeds, over node counts that cross block boundaries of the seed's
//!   arrays and land on an exact multiple of one;
//! * the same holds on two shapes random graphs rarely produce: a hub whose
//!   configurations have hundreds of derivations (the re-derive check must
//!   find the one that survives), and a dense label beside sparse ones,
//!   where one round ORs label occupancy and the next walks a few rows;
//! * where a DFA state is alive at every node and the fixed point ORs in
//!   label occupancy instead of walking rows, every state's alive set still
//!   equals the naive evaluator started at that state, uncaptured or
//!   captured: on partitions with a partial tail chunk, and
//!   on partitions a delta left covering fewer rows than the graph has
//!   nodes — where resumes still reproduce fresh captures;
//! * `QueryAnswer`'s `==` agrees with node-set equality for answers packed
//!   from words, grown by selected or unselected nodes, resumed across a
//!   delta that adds a node, and block-shared copies;
//! * on a 200k-node graph a 4-op delta copies a handful of seed blocks and
//!   shares the rest with the superseded epoch, and a label-disjoint publish
//!   that adds nodes shares all but the tail block of every carried answer —
//!   counted block by block, not timed.

use gps_automata::{Dfa, Regex};
use gps_datasets::scale_free::ScaleFreeConfig;
use gps_exec::frontier::{evaluate_captured, evaluate_counting, resume, Scratch};
use gps_exec::index::CHUNK_ROWS;
use gps_exec::{BatchEvaluator, Direction, LabelIndex};
use gps_graph::{CsrEntry, CsrGraph, DeltaGraph, Edge, Graph, GraphDelta, LabelId, NodeId};
use gps_rpq::blocks::BLOCK_NODES;
use gps_rpq::{BlockSharing, EvalCache, EvalResume, MigrationReport, PathQuery, QueryAnswer};
use gps_telemetry::MetricsRegistry;
use std::sync::Arc;

/// xorshift64* — deterministic, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// The chain starts just under one block boundary, creeps over it a node or
/// two per epoch, jumps to exactly the next boundary at `JUMP_EPOCH`, and
/// keeps growing from that exact multiple.
const NODES: usize = BLOCK_NODES - 12;
const EDGES: usize = 3 * NODES;
const EPOCHS: usize = 32;
const JUMP_EPOCH: usize = 16;
const REMOVALS_PER_EPOCH: usize = 3;
const ADDS_PER_EPOCH: usize = 3;

fn random_graph(rng: &mut XorShift) -> CsrGraph {
    let mut g = Graph::new();
    for i in 0..NODES {
        g.add_node(format!("n{i}"));
    }
    for _ in 0..EDGES {
        let s = NodeId::from(rng.below(NODES));
        let t = NodeId::from(rng.below(NODES));
        let label = ["a", "b", "c"][rng.below(3)];
        g.add_edge_by_name(s, label, t);
    }
    CsrGraph::from_graph(&g)
}

fn query_set(g: &CsrGraph) -> Vec<Dfa> {
    let a = Regex::symbol(g.label_id("a").unwrap());
    let b = Regex::symbol(g.label_id("b").unwrap());
    let c = Regex::symbol(g.label_id("c").unwrap());
    [
        a.clone(),
        Regex::concat([a.clone(), b.clone()]),
        Regex::star(a.clone()),
        Regex::concat([Regex::star(a.clone()), b.clone()]),
        Regex::concat([Regex::star(Regex::union([a.clone(), b.clone()])), c.clone()]),
        Regex::concat([c.clone(), Regex::star(Regex::union([a.clone(), b.clone()]))]),
        Regex::concat([a, Regex::concat([b, c])]),
    ]
    .iter()
    .map(Dfa::from_regex)
    .collect()
}

/// Picks `count` distinct existing edges of `snapshot` to remove.
fn pick_removals(snapshot: &CsrGraph, rng: &mut XorShift, count: usize) -> Vec<Edge> {
    let all: Vec<Edge> = snapshot.edges_by_source().collect();
    let mut picked: Vec<Edge> = Vec::new();
    let mut guard = 0;
    while picked.len() < count && guard < 100 {
        guard += 1;
        let edge = all[rng.below(all.len())];
        if !picked
            .iter()
            .any(|e| e.source == edge.source && e.label == edge.label && e.target == edge.target)
        {
            picked.push(edge);
        }
    }
    picked
}

/// Captures every query and returns the seeds.
fn capture_all(index: &LabelIndex, queries: &[Dfa]) -> Vec<EvalResume> {
    let mut scratch = Scratch::default();
    (queries.iter())
        .map(|dfa| {
            let (_, _, seed) = evaluate_captured(index, dfa, &mut scratch);
            seed.expect("capturing evaluations always produce a seed")
        })
        .collect()
}

/// Resumes every query's seed across `delta` (every delta here stays within
/// the over-delete budget, so a declined resume fails) and requires the answer to equal the naive evaluator's
/// on `compacted`, and the resumed seed — alive bits and populations — to
/// equal a fresh capture on `patched`; the resumed seeds replace `seeds`.
fn resume_every_seed(
    queries: &[Dfa],
    seeds: &mut [EvalResume],
    delta: &GraphDelta,
    compacted: &CsrGraph,
    patched: &LabelIndex,
    context: &str,
) {
    let mut scratch = Scratch::default();
    for (i, (dfa, seed)) in queries.iter().zip(seeds.iter_mut()).enumerate() {
        let resumed = resume(patched, dfa, seed, delta).expect("within the over-delete budget");
        assert_eq!(
            resumed.answer,
            gps_rpq::eval::evaluate(compacted, dfa),
            "{context}, query {i}: resumed answer diverged from cold"
        );
        let (_, _, fresh) = evaluate_captured(patched, dfa, &mut scratch);
        assert_eq!(
            resumed.seed,
            fresh.expect("fresh capture"),
            "{context}, query {i}: resumed seed diverged from a fresh capture"
        );
        *seed = resumed.seed;
    }
}

fn chained_epochs_reproduce_fresh_captures(rng_seed: u64) {
    let mut rng = XorShift(rng_seed);
    let graph = random_graph(&mut rng);
    let queries = query_set(&graph);
    let labels: Vec<LabelId> = ["a", "b", "c"]
        .iter()
        .map(|name| graph.label_id(name).unwrap())
        .collect();

    let mut base = Arc::new(graph.clone());
    let mut index = LabelIndex::from_csr(&base);
    let mut seeds = capture_all(&index, &queries);

    let mut node_counts = vec![base.node_count()];
    for epoch in 1..=EPOCHS {
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let fresh_nodes = if epoch == JUMP_EPOCH {
            2 * BLOCK_NODES - base.node_count()
        } else {
            1 + epoch % 2
        };
        for i in 0..fresh_nodes {
            let fresh = delta.add_node(format!("fresh{epoch}-{i}"));
            if i < 2 {
                delta.add_edge(fresh, labels[rng.below(labels.len())], {
                    NodeId::from(rng.below(base.node_count()))
                });
            }
        }
        for _ in 0..ADDS_PER_EPOCH {
            let s = NodeId::from(rng.below(base.node_count()));
            let t = NodeId::from(rng.below(base.node_count()));
            delta.add_edge(s, labels[rng.below(labels.len())], t);
        }
        for edge in pick_removals(&base, &mut rng, REMOVALS_PER_EPOCH) {
            assert!(delta.remove_edge(edge.source, edge.label, edge.target));
        }
        let summary = delta.delta();
        assert!(!summary.removed_edges.is_empty(), "epoch {epoch} removes");
        let compacted = delta.compact();
        let patched = index.apply_delta(&compacted, &summary);
        node_counts.push(compacted.node_count());

        let context = format!("rng seed {rng_seed:#x}, epoch {epoch}");
        resume_every_seed(
            &queries, &mut seeds, &summary, &compacted, &patched, &context,
        );

        base = Arc::new(compacted);
        index = patched;
    }
    // The chain really did what the constants promise.
    let below = |boundary: usize| node_counts.iter().any(|&n| n < boundary);
    let above = |boundary: usize| node_counts.iter().any(|&n| n > boundary);
    assert!(below(BLOCK_NODES) && above(BLOCK_NODES), "{node_counts:?}");
    assert!(node_counts.contains(&(2 * BLOCK_NODES)) && above(2 * BLOCK_NODES));
}

#[test]
fn chained_mixed_epochs_reproduce_fresh_captures() {
    for seed in [0xA11CE, 0x0B0B_5EED] {
        chained_epochs_reproduce_fresh_captures(seed);
    }
}

/// Requires, for every query over `index` (the index of `graph`), the
/// uncaptured answer to equal the naive evaluator's and each state's alive
/// set in the captured seed to equal the naive evaluator started at that
/// state.
fn every_state_matches_the_oracle(
    graph: &CsrGraph,
    index: &LabelIndex,
    queries: &[Dfa],
    context: &str,
) {
    let mut scratch = Scratch::default();
    for (i, dfa) in queries.iter().enumerate() {
        let expected = gps_rpq::eval::evaluate(graph, dfa);
        let (answer, _) = evaluate_counting(index, dfa, &mut scratch);
        assert_eq!(answer, expected, "{context}, query {i}, uncaptured");
        let (_, _, seed) = evaluate_captured(index, dfa, &mut scratch);
        let seed = seed.expect("capturing evaluations always produce a seed");
        for state in 0..dfa.state_count() {
            let mut from = dfa.clone();
            from.set_start(state);
            assert_eq!(
                seed.answer(state),
                gps_rpq::eval::evaluate(graph, &from),
                "{context}, query {i}, state {state}"
            );
        }
    }
}

#[test]
fn saturated_states_derive_what_the_oracle_does_over_short_and_partial_partitions() {
    // Two full chunks and a 70-row tail; random `a`/`b`/`c` edges and a `d`
    // cycle through every node, so `d.(a+b)*`'s start state saturates in
    // one OR of `d`'s occupancy and the uncaptured evaluation stops there.
    let mut rng = XorShift(0x5A7_0CC);
    let n = 2 * CHUNK_ROWS + 70;
    let mut g = Graph::new();
    let nodes = g.add_nodes("n", n);
    for _ in 0..3 * n {
        let label = ["a", "b", "c"][rng.below(3)];
        g.add_edge_by_name(nodes[rng.below(n)], label, nodes[rng.below(n)]);
    }
    for i in 0..n {
        g.add_edge_by_name(nodes[i], "d", nodes[(i + 1) % n]);
    }
    let base = Arc::new(CsrGraph::from_graph(&g));
    let [a, b, c, d] = ["a", "b", "c", "d"].map(|name| base.label_id(name).unwrap());
    let mut queries = query_set(&base);
    let [ra, rb, rd] = [a, b, d].map(Regex::symbol);
    let a_or_b = Regex::star(Regex::union([ra.clone(), rb]));
    queries.extend(
        [
            Regex::concat([rd.clone(), a_or_b.clone()]),
            Regex::concat([a_or_b, rd.clone()]),
            Regex::concat([Regex::star(rd), ra]),
        ]
        .iter()
        .map(Dfa::from_regex),
    );
    let index = LabelIndex::from_csr(&base);
    every_state_matches_the_oracle(&base, &index, &queries, "base");
    let mut seeds = capture_all(&index, &queries);

    // 4,200 nodes past the next chunk boundary, each with a `c` edge into
    // the old graph: the `a`, `b` and `d` partitions are shared and cover
    // the old rows only.
    let mut delta = DeltaGraph::new(Arc::clone(&base));
    for i in 0..4200 {
        let fresh = delta.add_node(format!("fresh{i}"));
        delta.add_edge(fresh, c, nodes[rng.below(n)]);
    }
    let summary = delta.delta();
    let compacted = delta.compact();
    let patched = index.apply_delta(&compacted, &summary);
    let covered = |label| -> usize {
        let chunks = patched.rows(Direction::Forward, label).chunks();
        chunks.iter().map(|chunk| chunk.rows()).sum()
    };
    assert_eq!([covered(a), covered(b), covered(d)], [n; 3]);
    assert_eq!(covered(c), n + 4200);
    every_state_matches_the_oracle(&compacted, &patched, &queries, "patched");
    resume_every_seed(
        &queries, &mut seeds, &summary, &compacted, &patched, "patched",
    );
}

/// `==` on answers is what `nodes() == nodes()` decides, without decoding a
/// bit: answers of every query, each also packed again from its words (same
/// bits, other blocks), grown by unselected nodes across a block boundary
/// (same nodes, another length), grown by selected ones (other nodes),
/// resumed across a delta that adds a node, and cloned (shared blocks).
#[test]
fn answer_equality_is_node_set_equality() {
    let mut rng = XorShift(0xE0_A15);
    let graph = random_graph(&mut rng);
    let queries = query_set(&graph);
    let n = graph.node_count();
    let base = Arc::new(graph);
    let index = LabelIndex::from_csr(&base);

    let mut delta = DeltaGraph::new(Arc::clone(&base));
    let fresh = delta.add_node("fresh");
    let a = base.label_id("a").unwrap();
    delta.add_edge(fresh, a, NodeId::from(rng.below(n)));
    delta.add_edge(NodeId::from(rng.below(n)), a, fresh);
    let summary = delta.delta();
    let patched = index.apply_delta(&delta.compact(), &summary);

    let mut scratch = Scratch::default();
    let mut answers = Vec::new();
    for dfa in &queries {
        let (answer, _, seed) = evaluate_captured(&index, dfa, &mut scratch);
        let seed = seed.expect("capturing evaluations always produce a seed");
        let mut words = vec![0u64; n.div_ceil(64)];
        for node in answer.nodes() {
            words[node.index() / 64] |= 1 << (node.index() % 64);
        }
        let resumed =
            resume(&patched, dfa, &seed, &summary).expect("insert-only resumes never decline");
        answers.extend([
            QueryAnswer::from_words(n, &words),
            answer.extended(n + BLOCK_NODES + 5, false),
            answer.extended(n + 70, true),
            resumed.answer,
            answer.clone(),
            answer,
        ]);
    }
    answers.push(QueryAnswer::from_words(n, &vec![0; n.div_ceil(64)]));
    answers.push(QueryAnswer::default());
    let node_sets: Vec<Vec<NodeId>> = answers.iter().map(QueryAnswer::nodes).collect();
    let mut equal_pairs = 0;
    for (i, x) in answers.iter().enumerate() {
        for (j, y) in answers.iter().enumerate() {
            let same_nodes = node_sets[i] == node_sets[j];
            assert_eq!(x == y, same_nodes, "answers {i} and {j}");
            equal_pairs += usize::from(same_nodes && i != j);
        }
    }
    // Both outcomes occur across lengths, not only on identical twins.
    assert!(equal_pairs > 4 * queries.len(), "{equal_pairs}");
    assert_ne!(answers[0].node_count(), answers[1].node_count());
    assert_eq!(answers[0], answers[1]);
}

/// A hub with 300 out-edges and 300 in-edges under `a` (its configurations
/// have hundreds of derivations; its reverse row is one long sweep), `b`/`c`
/// edges so the whole query set has something to read.
fn hub_graph() -> CsrGraph {
    let mut g = Graph::new();
    let hub = g.add_node("hub");
    let leaves = g.add_nodes("leaf", 300);
    for (i, &leaf) in leaves.iter().enumerate() {
        g.add_edge_by_name(hub, "a", leaf);
        g.add_edge_by_name(leaf, "a", hub);
        g.add_edge_by_name(leaf, ["b", "c"][i % 2], leaves[(i + 1) % leaves.len()]);
    }
    CsrGraph::from_graph(&g)
}

/// Dense `b`, some `a`, a few `c`: on `c.a.b*` the accepting state holds
/// every node, round 1 ORs `a`'s occupancy into the state before it, and
/// round 2 walks the few `c` edges back from there.
fn dense_beside_sparse_graph() -> (CsrGraph, Dfa) {
    let mut g = Graph::new();
    let n = g.add_nodes("n", 400);
    for i in 0..398 {
        g.add_edge_by_name(n[i], "b", n[i + 1]);
        g.add_edge_by_name(n[i], "b", n[i + 2]);
    }
    for i in 0..100 {
        g.add_edge_by_name(n[i], "a", n[i + 1]);
    }
    for i in 0..20 {
        g.add_edge_by_name(n[200 + i], "c", n[90 + i]);
    }
    let [a, b, c] = ["a", "b", "c"].map(|name| Regex::symbol(g.label_id(name).unwrap()));
    let dfa = Dfa::from_regex(&Regex::concat([c, a, Regex::star(b)]));
    (CsrGraph::from_graph(&g), dfa)
}

#[test]
fn special_shapes_resume_to_fresh_captures() {
    let hub = hub_graph();
    let hub_queries = query_set(&hub);
    let (dense, dense_query) = dense_beside_sparse_graph();
    let mut dense_queries = query_set(&dense);
    dense_queries.push(dense_query);
    let hub_id = NodeId::from(0usize);
    for (name, graph, queries) in [
        ("hub", hub, hub_queries),
        ("dense beside sparse", dense, dense_queries),
    ] {
        let mut rng = XorShift(0x5EED_CAFE);
        let labels: Vec<LabelId> = ["a", "b", "c"]
            .iter()
            .map(|label| graph.label_id(label).unwrap())
            .collect();
        let mut base = Arc::new(graph);
        let mut index = LabelIndex::from_csr(&base);
        let mut seeds = capture_all(&index, &queries);
        // Even epochs only remove edges, odd ones also add; every hub epoch
        // removes one of the hub's own in-edges.
        for epoch in 1..=8 {
            let mut delta = DeltaGraph::new(Arc::clone(&base));
            let mut removals = pick_removals(&base, &mut rng, REMOVALS_PER_EPOCH);
            if name == "hub" {
                let leaf = base.inc(hub_id)[rng.below(base.in_degree(hub_id))].node;
                removals.retain(|edge| (edge.source, edge.target) != (leaf, hub_id));
                removals.push(Edge::new(leaf, labels[0], hub_id));
            }
            for edge in removals {
                assert!(delta.remove_edge(edge.source, edge.label, edge.target));
            }
            if epoch % 2 == 1 {
                for _ in 0..ADDS_PER_EPOCH {
                    let s = NodeId::from(rng.below(base.node_count()));
                    let t = NodeId::from(rng.below(base.node_count()));
                    delta.add_edge(s, labels[rng.below(labels.len())], t);
                }
            }
            let summary = delta.delta();
            let compacted = delta.compact();
            let patched = index.apply_delta(&compacted, &summary);
            let context = format!("{name}, epoch {epoch}");
            resume_every_seed(
                &queries, &mut seeds, &summary, &compacted, &patched, &context,
            );
            base = Arc::new(compacted);
            index = patched;
        }
    }
}

/// A scale-free graph of a node count that is not a block multiple, its warm
/// cache over the frontier evaluator, and the warmed expressions.
fn large_warm_cache(queries: &[&str]) -> (Arc<CsrGraph>, BatchEvaluator, EvalCache, Vec<Regex>) {
    let base = Arc::new(gps_datasets::streamed::generate_csr(&ScaleFreeConfig {
        nodes: 200_003,
        edges_per_node: 3,
        alphabet_size: 4,
        skewed_labels: false,
        seed: 7,
    }));
    let evaluator = BatchEvaluator::from_csr(&base);
    let cache = EvalCache::with_shared_evaluator(Arc::clone(&base), Box::new(evaluator.clone()));
    let regexes: Vec<Regex> = queries
        .iter()
        .map(|syntax| {
            let query = PathQuery::parse(syntax, base.labels()).expect("query parses");
            query.regex().clone()
        })
        .collect();
    for regex in &regexes {
        cache.evaluate(regex);
    }
    (base, evaluator, cache, regexes)
}

/// Publishes `delta` over `old`: the patched evaluator behind a fresh cache
/// with `old`'s answers migrated in, bound to `registry` (the block split of
/// the resumes its first reads run lands on its counters).
fn publish(
    evaluator: &BatchEvaluator,
    old: &EvalCache,
    delta: DeltaGraph,
    registry: &MetricsRegistry,
) -> (Arc<CsrGraph>, EvalCache, MigrationReport) {
    let summary = delta.delta();
    let compacted = Arc::new(delta.compact());
    let patched = evaluator.apply_delta(&compacted, &summary);
    let cache = EvalCache::with_shared_evaluator(Arc::clone(&compacted), Box::new(patched))
        .with_metrics(registry);
    let report = cache.migrate_answers(old, &summary);
    (compacted, cache, report)
}

#[test]
fn a_four_op_delta_on_200k_nodes_copies_a_handful_of_seed_blocks() {
    // Star-free chains: each label fires exactly one DFA transition, so an
    // edge op on a node nobody points to reaches one configuration.
    let queries = ["a0.a1", "a1.a0.a2", "a2.a1"];
    let (base, evaluator, old_cache, regexes) = large_warm_cache(&queries);
    let n = base.node_count();
    let label = |name: &str| base.labels().get(name).unwrap();

    // Four ops on sources without predecessors: two inserts, two removals.
    let mut leaves = (0..n)
        .rev()
        .map(NodeId::from)
        .filter(|&node| base.in_degree(node) == 0 && base.out_degree(node) > 0);
    let mut delta = DeltaGraph::new(Arc::clone(&base));
    for name in ["a1", "a0"] {
        let source = leaves.next().expect("a leaf");
        delta.add_edge(source, label(name), NodeId::from(n / 2));
    }
    for _ in 0..2 {
        let source = leaves.next().expect("a leaf");
        let CsrEntry {
            label: edge_label,
            node: target,
        } = base.out(source)[0];
        assert!(delta.remove_edge(source, edge_label, target));
    }
    let registry = MetricsRegistry::enabled();
    let (compacted, new_cache, report) = publish(&evaluator, &old_cache, delta, &registry);
    assert_eq!(report.delete_reseeded, queries.len(), "{report:?}");

    // Cheap, and still right.  The publish only scheduled the resumes: the
    // first reads run them.
    let blocks = |name: &str| registry.snapshot().counter(name).unwrap() as usize;
    assert_eq!(blocks("gps_rpq_cache_migrate_blocks_copied_total"), 0);
    let cold = BatchEvaluator::from_csr(&compacted);
    for regex in &regexes {
        let migrated = new_cache.evaluate(regex);
        assert_eq!(*migrated, cold.evaluate(&Dfa::from_regex(regex)));
        // The answer is the new seed's start-state alive set: at most the
        // blocks the resume copied there are its own.
        assert!(migrated.sharing(&old_cache.evaluate(regex)).copied <= 4);
    }
    assert_eq!(new_cache.stats(), (queries.len() as u64, 0), "all hits");

    // 4 ops x at most one configuration each x one alive block, per query.
    let handful = 4 * queries.len();
    let copied = blocks("gps_rpq_cache_migrate_blocks_copied_total");
    assert!(copied <= handful, "{copied} blocks copied");
    let blocks_per_array = n.div_ceil(BLOCK_NODES);
    let arrays: usize = regexes
        .iter()
        .map(|regex| Dfa::from_regex(regex).state_count())
        .sum();
    assert_eq!(
        copied + blocks("gps_rpq_cache_migrate_blocks_shared_total"),
        arrays * blocks_per_array,
        "every seed block is either copied or shared"
    );
}

#[test]
fn a_label_disjoint_publish_shares_all_but_the_tail_block_of_carried_answers() {
    // One query whose language holds the empty word (added nodes selected:
    // the tail block is rewritten) and one without (nothing is written).
    let queries = ["a0*", "a0.a1"];
    let (base, evaluator, old_cache, regexes) = large_warm_cache(&queries);
    let n = base.node_count();
    let blocks = n.div_ceil(BLOCK_NODES);
    assert_eq!(
        (n + 3).div_ceil(BLOCK_NODES),
        blocks,
        "growth stays in the tail"
    );

    let mut delta = DeltaGraph::new(Arc::clone(&base));
    let fresh_label = delta.label("z");
    for i in 0..3usize {
        let fresh = delta.add_node(format!("fresh{i}"));
        delta.add_edge(NodeId::from(i), fresh_label, fresh);
    }
    let registry = MetricsRegistry::enabled();
    let (compacted, new_cache, report) = publish(&evaluator, &old_cache, delta, &registry);
    assert_eq!(
        report,
        MigrationReport {
            carried: 2,
            ..MigrationReport::default()
        }
    );

    let cold = BatchEvaluator::from_csr(&compacted);
    for (regex, own_blocks) in regexes.iter().zip([1, 0]) {
        let carried = new_cache.evaluate(regex);
        assert_eq!(carried.node_count(), n + 3);
        assert_eq!(*carried, cold.evaluate(&Dfa::from_regex(regex)));
        assert_eq!(
            carried.sharing(&old_cache.evaluate(regex)),
            BlockSharing {
                copied: own_blocks,
                shared: blocks - own_blocks
            },
            "{regex:?}"
        );
    }
    let snapshot = registry.snapshot();
    for counter in [
        "gps_rpq_cache_resumed_on_read_total",
        "gps_rpq_cache_migrate_blocks_copied_total",
        "gps_rpq_cache_migrate_blocks_shared_total",
    ] {
        assert_eq!(
            snapshot.counter(counter),
            Some(0),
            "carried entries resume nothing, so no seed block is counted"
        );
    }
}
