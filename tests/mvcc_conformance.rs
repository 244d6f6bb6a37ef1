//! MVCC conformance suite — the contract of the epoch-versioned live store:
//!
//! 1. **Compaction is exact.**  Any random insert/delete sequence applied
//!    through a [`DeltaGraph`] and [`compact`](DeltaGraph::compact)ed yields
//!    a snapshot byte-identical to a from-scratch [`Graph`] → [`CsrGraph`]
//!    build of the surviving edges (names, labels, adjacency order, edge
//!    ids, both directions) — including across chained compactions and on
//!    bases that span several adjacency chunks.
//! 2. **Pinned sessions are byte-stable.**  A session opened before a
//!    publish replays exactly the transcript it would have produced had the
//!    publish never happened, while the publish lands mid-run.
//! 3. **New sessions observe the update.**  Sessions (and plain reads)
//!    opened after a publish run on the new epoch and see the inserted
//!    edges, with answers equal to the naive evaluator's over the published
//!    snapshot.

use gps_core::prelude::*;
use gps_core::service::SessionManager;
use gps_core::versioned::{GraphUpdate, VersionedStore};
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_graph::csr::CHUNK_ROWS;
use gps_graph::delta::UpdateOp;
use gps_graph::DeltaGraph;
use gps_interactive::session::InteractionRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::RangeInclusive;
use std::sync::Arc;

// ------------------------------------------------------ 1. compaction exact

/// The shadow model: node names in insertion order, label names in interner
/// order, surviving edges (by name triple) in insertion order.
#[derive(Debug, Clone, Default)]
struct Shadow {
    nodes: Vec<String>,
    labels: Vec<String>,
    edges: Vec<(usize, usize, usize)>, // (node idx, label idx, node idx)
}

impl Shadow {
    fn from_graph(graph: &Graph) -> Self {
        Self {
            nodes: graph
                .nodes()
                .map(|n| graph.node_name(n).to_string())
                .collect(),
            labels: graph
                .labels()
                .iter()
                .map(|(_, name)| name.to_string())
                .collect(),
            edges: graph
                .edges()
                .map(|(_, e)| (e.source.index(), e.label.index(), e.target.index()))
                .collect(),
        }
    }

    /// Rebuilds the expected snapshot from scratch.
    fn build(&self) -> CsrGraph {
        let mut g = Graph::new();
        for label in &self.labels {
            g.label(label);
        }
        for name in &self.nodes {
            g.add_node(name.clone());
        }
        for &(source, label, target) in &self.edges {
            g.add_edge(
                NodeId::from(source),
                LabelId::from(label),
                NodeId::from(target),
            );
        }
        CsrGraph::from_graph(&g)
    }
}

fn assert_snapshots_identical(got: &CsrGraph, want: &CsrGraph, context: &str) {
    assert_eq!(got.node_count(), want.node_count(), "{context}: node count");
    assert_eq!(got.edge_count(), want.edge_count(), "{context}: edge count");
    assert_eq!(got.labels(), want.labels(), "{context}: interner");
    for node in want.nodes() {
        assert_eq!(
            got.node_name(node),
            want.node_name(node),
            "{context}: name of {node}"
        );
        assert_eq!(got.out(node), want.out(node), "{context}: out({node})");
        assert_eq!(got.inc(node), want.inc(node), "{context}: inc({node})");
    }
    for (id, name) in want.nodes().map(|n| (n, want.node_name(n))) {
        let first = got.node_by_name(name).expect("every name resolves");
        assert_eq!(
            Some(first),
            want.node_by_name(name),
            "{context}: lookup of {name}"
        );
        assert!(
            first <= id && got.node_name(first) == name,
            "{context}: {name} resolves to its oldest bearer"
        );
    }
}

fn random_base(
    rng: &mut StdRng,
    nodes: RangeInclusive<usize>,
    edges: RangeInclusive<usize>,
) -> Graph {
    let mut g = Graph::new();
    for label in ["x", "y", "z"] {
        g.label(label);
    }
    let n = rng.gen_range(nodes);
    for i in 0..n {
        // Deliberately collide some names so first-wins lookup is exercised.
        g.add_node(format!("n{}", i % 7));
    }
    let m = rng.gen_range(edges);
    for _ in 0..m {
        let s = NodeId::from(rng.gen_range(0..n));
        let t = NodeId::from(rng.gen_range(0..n));
        let l = LabelId::from(rng.gen_range(0..3usize));
        g.add_edge(s, l, t);
    }
    g
}

/// Applies one random op to both the delta graph and the shadow model.
fn random_op(rng: &mut StdRng, delta: &mut DeltaGraph, shadow: &mut Shadow, fresh: &mut usize) {
    match rng.gen_range(0..10u32) {
        // Insert a node (20%); every other one re-uses a name some node —
        // of the base, of an earlier epoch or of this overlay — already
        // bears, so first-bearer lookup is exercised across epochs.
        0..=1 => {
            let name = if rng.gen_range(0..2u32) == 0 {
                shadow.nodes[rng.gen_range(0..shadow.nodes.len())].clone()
            } else {
                *fresh += 1;
                format!("f{}", *fresh)
            };
            delta.add_node(name.clone());
            shadow.nodes.push(name);
        }
        // Insert an edge (40%), sometimes with a brand-new label.
        2..=5 => {
            let s = rng.gen_range(0..shadow.nodes.len());
            let t = rng.gen_range(0..shadow.nodes.len());
            let label_name = if rng.gen_range(0..8u32) == 0 {
                format!("l{}", rng.gen_range(0..2u32))
            } else {
                shadow.labels[rng.gen_range(0..shadow.labels.len())].clone()
            };
            let label = delta.label(&label_name);
            if label.index() == shadow.labels.len() {
                shadow.labels.push(label_name);
            }
            delta.add_edge(NodeId::from(s), label, NodeId::from(t));
            shadow.edges.push((s, label.index(), t));
        }
        // Delete an edge (40%): first surviving occurrence of the triple.
        _ => {
            if shadow.edges.is_empty() {
                return;
            }
            let (s, l, t) = shadow.edges[rng.gen_range(0..shadow.edges.len())];
            assert!(delta.remove_edge(NodeId::from(s), LabelId::from(l), NodeId::from(t)));
            let first = shadow
                .edges
                .iter()
                .position(|&e| e == (s, l, t))
                .expect("sampled from the live set");
            shadow.edges.remove(first);
        }
    }
}

#[test]
fn compacted_delta_graphs_equal_from_scratch_builds() {
    chained_compactions(0x5EED_CAFE, 40, |rng| random_base(rng, 1..=10, 0..=24));
}

/// The same over bases of three adjacency chunks (the last one partial), so
/// publishes splice the chunks holding a touched row and share the rest.
#[test]
fn compactions_across_chunk_boundaries_equal_from_scratch_builds() {
    let n = 2 * CHUNK_ROWS + 7;
    chained_compactions(0xC4A2_7ED5, 6, |rng| random_base(rng, n..=n, 0..=3 * n));
}

/// `trials` random bases, each taken through four chained rounds of random
/// ops and compaction, every round checked against a from-scratch build.
fn chained_compactions(seed: u64, trials: usize, base_of: impl Fn(&mut StdRng) -> Graph) {
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..trials {
        let base = base_of(&mut rng);
        let mut shadow = Shadow::from_graph(&base);
        let mut snapshot = Arc::new(CsrGraph::from_graph(&base));
        let mut fresh = 0usize;
        // Four rounds of (random ops → compact) chained, so epoch N+1 builds
        // on a compacted epoch N, not only on a fresh snapshot.
        for round in 0..4 {
            let mut delta = DeltaGraph::new(Arc::clone(&snapshot));
            for _ in 0..rng.gen_range(1..=12usize) {
                random_op(&mut rng, &mut delta, &mut shadow, &mut fresh);
            }
            let compacted = delta.compact();
            assert_snapshots_identical(
                &compacted,
                &shadow.build(),
                &format!("trial {trial}, round {round}"),
            );
            assert_eq!(compacted.epoch(), round + 1, "trial {trial}");
            snapshot = Arc::new(compacted);
        }
    }
}

// ------------------------------------------- 2. pinned sessions byte-stable

#[derive(Debug, PartialEq)]
struct SessionFingerprint {
    transcript: Vec<InteractionRecord>,
    learned: Option<(String, Vec<NodeId>)>,
    halt: HaltReason,
    examples: ExampleSet,
    pruned_after_interaction: Vec<usize>,
}

fn fingerprint(
    labels: &LabelInterner,
    outcome: &gps_interactive::session::SessionOutcome,
) -> SessionFingerprint {
    SessionFingerprint {
        transcript: outcome.transcript.clone(),
        learned: outcome.learned.as_ref().map(|l| {
            (
                gps_automata::printer::print(&l.regex, labels),
                l.answer.nodes(),
            )
        }),
        halt: outcome.halt_reason,
        examples: outcome.examples.clone(),
        pruned_after_interaction: outcome.stats.pruned_after_interaction.clone(),
    }
}

/// The update used by the session tests: grows the answer of the motivating
/// query (a new cinema reachable from N5) and deletes an unrelated edge.
fn figure1_update() -> GraphUpdate {
    GraphUpdate::new()
        .add_node("C9")
        .add_edge("N5", "cinema", "C9")
        .add_edge("N5", "bus", "N1")
        .remove_edge("N2", "restaurant", "R1")
}

fn service() -> SessionManager {
    let (graph, _) = figure1_graph();
    SessionManager::new(Engine::builder(graph).build())
}

#[test]
fn pinned_sessions_replay_identically_across_a_mid_run_publish() {
    for goal in [MOTIVATING_QUERY, "cinema", "bus.tram*.cinema"] {
        // Baseline: the same manager-driven session with no publish.
        let baseline_service = service();
        let labels = baseline_service.core().snapshot().labels().clone();
        let baseline = {
            let id = baseline_service.open(goal).unwrap();
            baseline_service.run_to_completion(id).unwrap();
            fingerprint(&labels, &baseline_service.close(id).unwrap())
        };

        // Live: identical session, but a publish lands after step 2.
        let live_service = service();
        let id = live_service.open(goal).unwrap();
        assert_eq!(live_service.session_epoch(id).unwrap(), 0);
        let mut halted = false;
        for _ in 0..2 {
            if let SessionStatus::Halted(_) = live_service.step(id).unwrap() {
                halted = true;
                break;
            }
        }
        let report = live_service.update(figure1_update()).unwrap();
        assert_eq!(report.epoch, 1);
        if !halted {
            assert_eq!(
                live_service.stats().live_epochs,
                2,
                "the pinned birth epoch stays live"
            );
        }
        live_service.run_to_completion(id).unwrap();
        assert_eq!(
            live_service.session_epoch(id).unwrap(),
            0,
            "the session never migrates epochs"
        );
        let live = fingerprint(&labels, &live_service.close(id).unwrap());
        assert_eq!(
            live, baseline,
            "{goal}: a mid-run publish must not perturb a pinned session"
        );
        assert_eq!(
            live_service.stats().live_epochs,
            1,
            "closing the last pinned session retires epoch 0"
        );
    }
}

#[test]
fn pinned_sessions_survive_a_storm_of_publishes() {
    // Same property under repeated mid-run publishes (insertions and
    // deletions oscillating), interleaved step by step.
    let baseline_service = service();
    let labels = baseline_service.core().snapshot().labels().clone();
    let baseline = {
        let id = baseline_service.open(MOTIVATING_QUERY).unwrap();
        baseline_service.run_to_completion(id).unwrap();
        fingerprint(&labels, &baseline_service.close(id).unwrap())
    };
    let live_service = service();
    let id = live_service.open(MOTIVATING_QUERY).unwrap();
    let mut toggle = false;
    loop {
        let update = if toggle {
            GraphUpdate::new().remove_edge("N6", "tram", "N1")
        } else {
            GraphUpdate::new().add_edge("N6", "tram", "N1")
        };
        toggle = !toggle;
        live_service.update(update).unwrap();
        if let SessionStatus::Halted(_) = live_service.step(id).unwrap() {
            break;
        }
    }
    let live = fingerprint(&labels, &live_service.close(id).unwrap());
    assert_eq!(live, baseline);
}

// ------------------------------------------------- 3. new sessions see more

#[test]
fn post_publish_sessions_observe_the_new_edges() {
    let live = service();
    let n5 = live.core().snapshot().node_by_name("N5").unwrap();
    let before = live.core().evaluate(MOTIVATING_QUERY).unwrap();
    assert!(
        !before.contains(n5),
        "N5 reaches no cinema in the base graph"
    );

    live.update(figure1_update()).unwrap();

    // Plain reads on the latest core see the new edge…
    let core = live.core();
    let after = core.evaluate(MOTIVATING_QUERY).unwrap();
    assert!(after.contains(n5));
    assert!(core.snapshot().node_by_name("C9").is_some());
    let goal = core.parse_query(MOTIVATING_QUERY).unwrap();
    assert_eq!(
        after,
        gps_rpq::eval::evaluate(core.snapshot(), goal.dfa()),
        "the oracle over the published snapshot agrees"
    );

    // …and a full served session converges onto the *new* answer.
    let outcome = live.serve_one(MOTIVATING_QUERY).unwrap();
    assert!(outcome.halt_reason.is_convergence());
    let learned = outcome.learned.expect("a query is learned");
    assert_eq!(
        learned.answer.nodes(),
        after.nodes(),
        "the learned answer is the post-publish answer"
    );
}

#[test]
fn versioned_reads_and_writes_interleave_across_threads() {
    // One writer publishing oscillating updates, several reader threads
    // serving sessions — sessions always converge, every observed answer is
    // one of the two publishable states, and the store ends at a bounded
    // number of live epochs.
    let live = Arc::new(service());
    let store: Arc<VersionedStore> = Arc::clone(live.store());
    std::thread::scope(|scope| {
        let writer = {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for round in 0..6 {
                    let update = if round % 2 == 0 {
                        GraphUpdate::new().add_edge("N5", "bus", "N1")
                    } else {
                        GraphUpdate::new().remove_edge("N5", "bus", "N1")
                    };
                    store.update(update).unwrap();
                }
            })
        };
        for _ in 0..3 {
            let live = Arc::clone(&live);
            scope.spawn(move || {
                for _ in 0..4 {
                    let outcome = live.serve_one(MOTIVATING_QUERY).unwrap();
                    assert!(outcome.halt_reason.is_convergence());
                }
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(store.publish_count(), 6);
    assert_eq!(
        store.live_epochs(),
        1,
        "every superseded epoch was retired once its sessions closed"
    );
    let stream_ops: Vec<UpdateOp> = gps_datasets::update_stream(
        &figure1_graph().0,
        &gps_datasets::UpdateStreamConfig {
            operations: 20,
            seed: 9,
            ..Default::default()
        },
    );
    // A generated stream applies cleanly through the service update API too.
    live.update(GraphUpdate::from_ops(stream_ops)).unwrap();
    assert!(store.current_epoch() >= 7);
}
