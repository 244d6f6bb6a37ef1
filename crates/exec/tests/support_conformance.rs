//! Support-counter conformance — a resumed seed must be indistinguishable
//! from starting over, and must cost the delta's cone.
//!
//! Properties, with a deterministic xorshift generator (no external RNG
//! dependency):
//!
//! * across chained random mixed insert+delete epochs, the [`EvalResume`]
//!   produced by [`resume`] — alive bits, per-`(state, node)` support counts
//!   **and** the carried alive population — equals a from-scratch captured
//!   evaluation on the patched graph, and the answer equals the naive
//!   evaluator's.  Checked on two seeds, over node counts that cross block
//!   boundaries of the seed's arrays and land on an exact multiple of one;
//! * a captured seed's supports equal their definition — a plain forward
//!   count of derivations through alive successors, written here without the
//!   engine — under every forced plan, so both places the fused evaluation
//!   counts in (the push loop, the sweep of what pull rounds left) are held
//!   to it, including a counter that saturates;
//! * on a 200k-node graph a 4-op delta copies a handful of seed blocks and
//!   shares the rest with the superseded epoch, and a label-disjoint publish
//!   that adds nodes shares all but the tail block of every carried answer —
//!   counted block by block, not timed.

use gps_automata::{Dfa, Regex};
use gps_datasets::scale_free::ScaleFreeConfig;
use gps_exec::frontier::{evaluate_captured, resume, Scratch};
use gps_exec::planner::Plan;
use gps_exec::{BatchEvaluator, LabelIndex};
use gps_graph::{CsrEntry, CsrGraph, DeltaGraph, Edge, Graph, LabelId, NodeId};
use gps_rpq::blocks::BLOCK_NODES;
use gps_rpq::{BlockSharing, EvalCache, MigrationReport, PathQuery};
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
    let all: Vec<Edge> = snapshot.edges_by_source().map(|(_, edge)| edge).collect();
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
    let mut scratch = Scratch::default();
    let mut seeds: Vec<_> = queries
        .iter()
        .map(|dfa| {
            let (_, _, resume) = evaluate_captured(&index, dfa, Plan::Bidirectional, &mut scratch);
            resume.expect("capturing evaluations always produce a seed")
        })
        .collect();

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
        let patched = index.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        node_counts.push(compacted.node_count());

        for (dfa, seed) in queries.iter().zip(seeds.iter_mut()) {
            // Limit 1.0 never bails: the resume must succeed on every delta.
            let resumed =
                resume(&patched, dfa, seed, &summary, 1.0).expect("limit 1.0 never falls back");
            assert_eq!(
                resumed.answer,
                gps_rpq::eval::evaluate(&compacted, dfa),
                "rng seed {rng_seed:#x}, epoch {epoch}: resumed answer diverged from cold"
            );
            // The resumed seed — alive bits, support counts and populations
            // — must equal capturing from scratch on the patched graph.
            let (_, _, fresh_seed) =
                evaluate_captured(&patched, dfa, Plan::Bidirectional, &mut scratch);
            assert_eq!(
                resumed.seed,
                fresh_seed.expect("fresh capture"),
                "rng seed {rng_seed:#x}, epoch {epoch}: resumed seed diverged from a fresh capture"
            );
            *seed = resumed.seed;
        }

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

/// A hub with 300 out-edges and 300 in-edges under `a` (its own counter
/// saturates; its reverse row is one long sweep), `b`/`c` edges so the whole
/// query set has something to read.
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

/// Dense `b`, some `a`, a few `c`: on `c.a.b*` the adaptive plan pulls in
/// round 1 and pushes afterwards (`gps_exec::frontier`'s unit tests assert
/// that round sequence on this shape), so one run counts in both places.
fn pull_then_push_graph() -> (CsrGraph, Dfa) {
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
fn captured_supports_equal_a_forward_recount() {
    let mut cases: Vec<(String, CsrGraph, Vec<Dfa>)> = [0xA11CE, 0x0B0B_5EED]
        .into_iter()
        .map(|seed| {
            let graph = random_graph(&mut XorShift(seed));
            let queries = query_set(&graph);
            (format!("random {seed:#x}"), graph, queries)
        })
        .collect();
    let hub = hub_graph();
    let hub_queries = query_set(&hub);
    cases.push(("hub".to_string(), hub, hub_queries));
    let (mixed, mixed_query) = pull_then_push_graph();
    let mut mixed_queries = query_set(&mixed);
    mixed_queries.push(mixed_query);
    cases.push(("pull then push".to_string(), mixed, mixed_queries));

    let mut scratch = Scratch::default();
    let mut saturated = 0;
    for (name, graph, queries) in &cases {
        let index = LabelIndex::from_csr(graph);
        for (i, dfa) in queries.iter().enumerate() {
            let expected = gps_rpq::eval::evaluate(graph, dfa);
            for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
                let context = format!("{name}, query {i}, {plan:?}");
                let (answer, _, seed) = evaluate_captured(&index, dfa, plan, &mut scratch);
                let seed = seed.expect("capturing evaluations always produce a seed");
                assert_eq!(answer, expected, "{context}");
                assert_eq!(seed.answer(dfa.start()), expected, "{context}");
                for state in 0..dfa.state_count() {
                    for node in graph.nodes() {
                        // The definition: one derivation per (DFA transition
                        // out of `state`, edge out of `node`) pair whose
                        // target configuration is alive.
                        let derivations = dfa
                            .transitions_from(state)
                            .flat_map(|(label, target_state)| {
                                graph
                                    .out(node)
                                    .iter()
                                    .filter(move |entry| entry.label == label)
                                    .map(move |entry| (target_state, entry.node))
                            })
                            .filter(|&(target_state, target)| {
                                seed.is_alive(target_state, target.index())
                            })
                            .count();
                        assert_eq!(
                            seed.support(state, node.index()) as usize,
                            derivations.min(255),
                            "{context}: support of ({node}, state {state})"
                        );
                        assert_eq!(
                            seed.is_alive(state, node.index()),
                            dfa.is_accepting(state) || derivations > 0,
                            "{context}: ({node}, state {state}) alive"
                        );
                        saturated += usize::from(derivations > 255);
                    }
                }
            }
        }
    }
    assert!(saturated > 0, "the hub's counter saturates");
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
/// with `old`'s answers migrated in.
fn publish(
    evaluator: &BatchEvaluator,
    old: &EvalCache,
    delta: DeltaGraph,
) -> (Arc<CsrGraph>, EvalCache, MigrationReport) {
    let summary = delta.delta();
    let compacted = Arc::new(delta.compact());
    let patched = evaluator.apply_delta(&compacted, &summary);
    let cache = EvalCache::with_shared_evaluator(Arc::clone(&compacted), Box::new(patched));
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
    let (compacted, new_cache, report) = publish(&evaluator, &old_cache, delta);

    assert_eq!(report.delete_reseeded, queries.len(), "{report:?}");
    // 4 ops x at most one configuration each x (alive block + support block),
    // per query.
    let handful = 4 * 2 * queries.len();
    assert!(report.blocks_copied <= handful, "{report:?}");
    let blocks_per_array = n.div_ceil(BLOCK_NODES);
    let arrays: usize = regexes
        .iter()
        .map(|regex| 2 * Dfa::from_regex(regex).state_count())
        .sum();
    assert_eq!(
        report.blocks_copied + report.blocks_shared,
        arrays * blocks_per_array,
        "every seed block is either copied or shared"
    );
    // Cheap, and still right.
    let cold = BatchEvaluator::from_csr(&compacted);
    for regex in &regexes {
        let migrated = new_cache.evaluate(regex);
        assert_eq!(*migrated, cold.evaluate(&Dfa::from_regex(regex)));
        // The answer is the new seed's start-state alive set: at most the
        // blocks the resume copied there are its own.
        assert!(migrated.sharing(&old_cache.evaluate(regex)).copied <= 4);
    }
    assert_eq!(new_cache.stats(), (queries.len() as u64, 0), "all hits");
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
    let (compacted, new_cache, report) = publish(&evaluator, &old_cache, delta);
    assert_eq!(
        report,
        MigrationReport {
            carried: 2,
            ..MigrationReport::default()
        },
        "carried entries resume nothing, so no seed block is counted"
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
}
