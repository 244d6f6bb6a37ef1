//! IVM conformance suite — delta-driven incremental answer maintenance
//! across epochs must be *invisible* except in latency:
//!
//! 1. **Tier-1 carries are free and exact.**  After a publish whose label no
//!    cached query's DFA alphabet contains, every cached answer is migrated
//!    verbatim ([`PublishReport::carried_answers`]), the first post-publish
//!    read of each query runs **zero frontier rounds**
//!    (`gps_exec_frontier_rounds_total` is unchanged), and the served
//!    answers equal a from-scratch evaluation on the new snapshot.
//! 2. **Tier-2 reseeds converge.**  Across chained random insert-only
//!    epochs that *do* touch the query alphabet, the seeded delta-restricted
//!    fixed point produces exactly the cold-evaluation answers, and the
//!    reseed path is actually taken.
//! 3. **Tier-3 delete-reseeds converge.**  Deltas containing removals take
//!    the delete-aware over-delete/re-derive path: support counts are
//!    decremented along removed edges, zero-support configurations
//!    over-deleted transitively, survivors re-derived — and the migrated
//!    answers are byte-identical to cold evaluation across chained random
//!    **mixed** insert+delete epochs.  The saturation fallback (a resume
//!    that gives up) is unit-tested in `gps-rpq`'s cache.
//!
//! "Cold evaluation" is the oracle: `gps_rpq::eval::evaluate` — the naive
//! node-at-a-time evaluator — over a from-scratch [`Graph`] of the published
//! snapshot's nodes and edges.

use gps_core::prelude::*;
use gps_core::service::SessionManager;
use gps_core::versioned::GraphUpdate;
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_rpq::PathQuery;
use gps_telemetry::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn scale_free_graph(nodes: usize) -> Graph {
    scale_free::generate(&ScaleFreeConfig {
        nodes,
        seed: 11,
        ..ScaleFreeConfig::default()
    })
}

/// Sixteen distinct queries over the generated `a0..a3` alphabet — the warm
/// cache every test publishes against.
fn warm_queries(graph: &Graph) -> Vec<PathQuery> {
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
    .map(|syntax| PathQuery::parse(syntax, graph.labels()).expect("query over generated alphabet"))
    .collect()
}

fn warm(service: &SessionManager, queries: &[PathQuery]) {
    let core = service.core();
    let cache = core.eval_cache();
    for q in queries {
        cache.evaluate_compiled(q.regex(), q.dfa());
    }
}

/// A from-scratch adjacency graph with the snapshot's labels, nodes and
/// edges, ids included.
fn rebuilt(snapshot: &CsrGraph) -> CsrGraph {
    let mut graph = Graph::new();
    for (_, name) in snapshot.labels().iter() {
        graph.label(name);
    }
    for name in snapshot.node_names() {
        graph.add_node(name);
    }
    for (_, edge) in snapshot.edges_by_source() {
        graph.add_edge(edge.source, edge.label, edge.target);
    }
    CsrGraph::from_graph(&graph)
}

/// Every cached query answer on the service's latest epoch must equal the
/// naive evaluator's over a from-scratch graph of the same snapshot.
fn assert_matches_cold(service: &SessionManager, queries: &[PathQuery], context: &str) {
    let core = service.core();
    let cache = core.eval_cache();
    let snapshot = core.snapshot();
    let oracle = rebuilt(snapshot);
    for q in queries {
        let live = cache.evaluate_compiled(q.regex(), q.dfa());
        let cold = gps_rpq::eval::evaluate(&oracle, q.dfa());
        assert_eq!(
            *live,
            cold,
            "{context}: {} diverged from cold evaluation",
            q.display(snapshot.labels())
        );
    }
}

/// A 4-op publish attaching the lowest-degree node pairs under the fresh
/// label `live` — an update no `a0..a3` query can observe.
fn leaf_update(graph: &Graph) -> GraphUpdate {
    let mut by_degree: Vec<NodeId> = graph.nodes().collect();
    by_degree.sort_by_key(|&n| (graph.out_degree(n) + graph.in_degree(n), n.index()));
    let mut update = GraphUpdate::new();
    for pair in by_degree.chunks(2).take(4) {
        if let [source, target] = pair {
            update = update.add_edge(graph.node_name(*source), "live", graph.node_name(*target));
        }
    }
    update
}

// --------------------------------------------------- 1. Tier-1 carry exact

#[test]
fn label_disjoint_publish_carries_answers_with_zero_frontier_rounds() {
    let graph = scale_free_graph(2_000);
    let registry = Arc::new(MetricsRegistry::enabled());
    let service = SessionManager::new(
        Engine::builder(graph.clone())
            .metrics(Arc::clone(&registry))
            .build(),
    );
    let queries = warm_queries(&graph);
    warm(&service, &queries);

    let report = service.update(leaf_update(&graph)).unwrap();
    assert_eq!(
        report.carried_answers,
        queries.len(),
        "every query alphabet is disjoint from the published label"
    );
    assert_eq!(report.reseeded_answers, 0);
    assert_eq!(report.recomputed_answers, 0);
    assert_eq!(report.added_edges, 4);

    // The first post-publish read of every carried query is answered from
    // the migrated cache: not a single frontier round runs.
    let rounds_before = registry
        .snapshot()
        .counter("gps_exec_frontier_rounds_total")
        .expect("frontier mode records rounds");
    assert_matches_cold(&service, &queries, "after leaf publish");
    let rounds_after = registry
        .snapshot()
        .counter("gps_exec_frontier_rounds_total")
        .unwrap();
    assert_eq!(
        rounds_before, rounds_after,
        "carried answers must serve without any evaluation"
    );

    // The migration split is also on the shared counters.
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("gps_rpq_cache_carried_total"),
        Some(queries.len() as u64)
    );
    assert_eq!(snapshot.counter("gps_rpq_cache_reseeded_total"), Some(0));
    for reason in ["saturation", "no_seed", "evicted"] {
        assert_eq!(
            snapshot.counter(&format!("gps_rpq_cache_fallback_{reason}_total")),
            Some(0),
            "{reason}"
        );
    }
}

#[test]
fn retired_epochs_report_their_dropped_entries() {
    let graph = scale_free_graph(200);
    let registry = Arc::new(MetricsRegistry::enabled());
    let service = SessionManager::new(
        Engine::builder(graph.clone())
            .metrics(Arc::clone(&registry))
            .build(),
    );
    let queries = warm_queries(&graph);
    warm(&service, &queries);
    service.core().eval_cache().bounded_words(2);

    // No session pins epoch 0, so the publish retires it — and the retired
    // cache's entries (16 answers + the word index) land on the counter.
    let report = service.update(leaf_update(&graph)).unwrap();
    assert_eq!(report.retired_epochs, 1);
    assert_eq!(
        registry.snapshot().counter("gps_rpq_cache_retired_total"),
        Some(queries.len() as u64 + 1)
    );
}

// ------------------------------------------------- 2. Tier-2 reseed exact

/// One random insert-only publish: a fresh node attached into the graph
/// plus a few `a0..a3` edges between existing nodes — touching the query
/// alphabet on purpose.
fn random_insert_update(graph: &Graph, rng: &mut StdRng, round: usize) -> GraphUpdate {
    let n = graph.node_count();
    let pick = |rng: &mut StdRng| {
        graph
            .node_name(NodeId::from(rng.gen_range(0..n)))
            .to_string()
    };
    let fresh = format!("ivm{round}");
    let mut update =
        GraphUpdate::new()
            .add_node(fresh.clone())
            .add_edge(fresh.as_str(), "a0", pick(rng));
    for _ in 0..3 {
        let source = pick(rng);
        let target = pick(rng);
        let label = format!("a{}", rng.gen_range(0..4u32));
        update = update.add_edge(source, label, target);
    }
    update
}

#[test]
fn insert_only_epochs_reseed_to_exactly_the_cold_answers() {
    let graph = scale_free_graph(400);
    let service = SessionManager::new(Engine::builder(graph.clone()).build());
    let queries = warm_queries(&graph);
    warm(&service, &queries);
    let mut rng = StdRng::seed_from_u64(0x1B4D_5EED);
    let mut reseeded = 0usize;
    for epoch in 1..=4u64 {
        let update = random_insert_update(&graph, &mut rng, epoch as usize);
        let report = service.update(update).unwrap();
        assert_eq!(report.epoch, epoch);
        assert_eq!(
            report.carried_answers
                + report.reseeded_answers
                + report.delete_reseeded_answers
                + report.recomputed_answers,
            queries.len(),
            "epoch {epoch}: the migration split partitions the cache"
        );
        assert_eq!(
            report.delete_reseeded_answers, 0,
            "epoch {epoch}: insert-only deltas never take the delete path"
        );
        reseeded += report.reseeded_answers;
        assert_matches_cold(&service, &queries, &format!("epoch {epoch}"));
    }
    assert!(
        reseeded > 0,
        "insert-only touched epochs must take the reseed path"
    );
}

/// A query whose DFA start state is accepting (`a0*` matches every node via
/// the empty word) *saturates* the start state's alive set — the historical
/// frontier early-exit path returned before reaching the full product fixed
/// point and therefore captured no resume seed, silently downgrading every
/// touched publish to a cold recompute.  Capturing evaluations now always
/// run to the true fixed point: the seed exists, the insert-only publish
/// takes the reseed path, and the reseeded answer equals a cold evaluation.
#[test]
fn start_state_saturating_queries_still_capture_and_reseed() {
    let graph = scale_free_graph(400);
    let saturating =
        PathQuery::parse("a0*", graph.labels()).expect("a0 exists in the generated alphabet");
    let service = SessionManager::new(Engine::builder(graph.clone()).build());
    warm(&service, std::slice::from_ref(&saturating));
    // Every node already matches (epsilon ⊆ a0*): the alive set of the
    // start state is saturated from round zero.
    assert_eq!(
        service
            .core()
            .eval_cache()
            .evaluate_compiled(saturating.regex(), saturating.dfa())
            .nodes()
            .len(),
        graph.node_count(),
    );
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let report = service
        .update(random_insert_update(&graph, &mut rng, 1))
        .unwrap();
    assert_eq!(
        report.reseeded_answers, 1,
        "the saturating query must reseed, not recompute"
    );
    assert_eq!(report.recomputed_answers, 0);
    assert_matches_cold(
        &service,
        std::slice::from_ref(&saturating),
        "saturating reseed",
    );
}

// ------------------------------------------- 3. Tier-3 delete-reseed exact

#[test]
fn deletion_deltas_delete_reseed_and_stay_correct() {
    let graph = scale_free_graph(400);
    let service = SessionManager::new(Engine::builder(graph.clone()).build());
    let queries = warm_queries(&graph);
    warm(&service, &queries);

    // Remove an existing a0 edge (touching most query alphabets) and add
    // an a1 edge in the same batch: a mixed delta with a deletion.
    let (_, removed) = graph
        .edges()
        .find(|(_, e)| graph.labels().name(e.label).unwrap() == "a0")
        .expect("scale-free graph has a0 edges");
    let update = GraphUpdate::new()
        .remove_edge(
            graph.node_name(removed.source),
            "a0",
            graph.node_name(removed.target),
        )
        .add_edge(
            graph.node_name(removed.target),
            "a1",
            graph.node_name(removed.source),
        );
    let report = service.update(update).unwrap();
    assert_eq!(
        report.reseeded_answers, 0,
        "a removal-bearing delta never takes the monotone insert-only path"
    );
    assert!(
        report.delete_reseeded_answers > 0,
        "touched seeds must take the delete-aware resume"
    );
    assert_eq!(
        report.recomputed_answers, 0,
        "a tiny removal must stay under the saturation budget"
    );
    assert!(
        report.carried_answers > 0,
        "queries not reading a0/a1 are still carried"
    );
    assert_matches_cold(&service, &queries, "after removal");
}

/// One random mixed publish against the *current* snapshot: a fresh node,
/// a couple of random `a0..a3` insertions, and `removals` random existing
/// `a0..a3` edges removed — every epoch both grows and shrinks the graph.
fn random_mixed_update(
    snapshot: &CsrGraph,
    rng: &mut StdRng,
    round: usize,
    removals: usize,
) -> GraphUpdate {
    let n = snapshot.node_count();
    let pick = |rng: &mut StdRng| {
        snapshot
            .node_name(NodeId::from(rng.gen_range(0..n)))
            .to_string()
    };
    let fresh = format!("mix{round}");
    let mut update =
        GraphUpdate::new()
            .add_node(fresh.clone())
            .add_edge(fresh.as_str(), "a1", pick(rng));
    for _ in 0..2 {
        let label = format!("a{}", rng.gen_range(0..4u32));
        update = update.add_edge(pick(rng), label, pick(rng));
    }
    let alphabet: Vec<Edge> = snapshot
        .edges_by_source()
        .map(|(_, edge)| edge)
        .filter(|edge| {
            snapshot
                .labels()
                .name(edge.label)
                .is_some_and(|name| name.starts_with('a'))
        })
        .collect();
    assert!(
        !alphabet.is_empty(),
        "round {round}: nothing left to remove"
    );
    for _ in 0..removals {
        let edge = &alphabet[rng.gen_range(0..alphabet.len())];
        update = update.remove_edge(
            snapshot.node_name(edge.source),
            snapshot.labels().name(edge.label).unwrap(),
            snapshot.node_name(edge.target),
        );
    }
    update
}

#[test]
fn chained_mixed_epochs_match_cold_evaluation_in_every_mode() {
    let graph = scale_free_graph(400);
    let service = SessionManager::new(Engine::builder(graph.clone()).build());
    let queries = warm_queries(&graph);
    warm(&service, &queries);
    let mut rng = StdRng::seed_from_u64(0x0D37_E7E5);
    let mut delete_reseeded = 0usize;
    for epoch in 1..=5u64 {
        let update = {
            let core = service.core();
            random_mixed_update(core.snapshot(), &mut rng, epoch as usize, 2)
        };
        let report = service.update(update).unwrap();
        assert_eq!(report.epoch, epoch);
        assert!(report.removed_edges > 0, "every epoch removes");
        assert_eq!(
            report.carried_answers
                + report.reseeded_answers
                + report.delete_reseeded_answers
                + report.recomputed_answers,
            queries.len(),
            "epoch {epoch}: the migration split partitions the cache"
        );
        assert_eq!(
            report.reseeded_answers, 0,
            "epoch {epoch}: mixed deltas never take the insert-only tier"
        );
        delete_reseeded += report.delete_reseeded_answers;
        // Every live answer — migrated through the delete-aware resume or
        // recomputed — must be byte-identical to a cold evaluation.
        assert_matches_cold(&service, &queries, &format!("mixed epoch {epoch}"));
        // Re-warm whatever fell out so the next epoch migrates a full
        // cache again.
        warm(&service, &queries);
    }
    assert!(
        delete_reseeded > 0,
        "chained mixed epochs must exercise the delete-aware resume"
    );
}
