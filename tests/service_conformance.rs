//! Service conformance suite: N **concurrent** sessions over one shared
//! [`EngineCore`] must produce exactly the same per-session transcripts as N
//! **sequential** bare sessions — across several corpora and worker counts —
//! and the shared bounded cache must never exceed its configured
//! capacities under a multi-session stress load.
//!
//! This is the contract that makes the multi-session service safe to deploy:
//! per-session state (examples, coverage, pruning, statistics) is fully
//! isolated, the shared cache/index only memoize deterministic answers, and
//! LRU eviction under memory pressure changes cost but never content.

use gps_core::prelude::*;
use gps_core::service::SessionManager;
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_datasets::transport::{self, TransportConfig};
use gps_interactive::session::InteractionRecord;

/// Everything observable about a finished session, in comparable form.
#[derive(Debug, PartialEq)]
struct SessionFingerprint {
    transcript: Vec<InteractionRecord>,
    learned: Option<(String, Vec<NodeId>)>,
    halt: HaltReason,
    examples: ExampleSet,
    interactions: usize,
    zooms: usize,
    path_validations: usize,
    pruned_after_interaction: Vec<usize>,
}

fn fingerprint(
    labels: &gps_graph::LabelInterner,
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
        interactions: outcome.stats.interactions,
        zooms: outcome.stats.zooms,
        path_validations: outcome.stats.path_validations,
        pruned_after_interaction: outcome.stats.pruned_after_interaction.clone(),
    }
}

/// The corpora: (name, graph, the goal queries of the simulated users).
fn corpus() -> Vec<(String, Graph, Vec<String>)> {
    let mut graphs = Vec::new();
    graphs.push((
        "figure1".to_string(),
        figure1_graph().0,
        vec![
            MOTIVATING_QUERY.to_string(),
            "cinema".to_string(),
            "restaurant".to_string(),
            MOTIVATING_QUERY.to_string(),
            "bus.tram*.cinema".to_string(),
            "cinema".to_string(),
        ],
    ));
    graphs.push((
        "transport".to_string(),
        transport::generate(&TransportConfig::with_neighborhoods(25, 7)).graph,
        vec![
            "(tram+bus)*.cinema".to_string(),
            "restaurant".to_string(),
            "bus*.cinema".to_string(),
            "(tram+bus)*.cinema".to_string(),
        ],
    ));
    let sf = scale_free::generate(&ScaleFreeConfig {
        nodes: 120,
        seed: 11,
        ..ScaleFreeConfig::default()
    });
    let name = |i: u32| sf.labels().name(LabelId::new(i)).unwrap().to_string();
    let goals = vec![
        format!("({}+{})*.{}", name(0), name(1), name(2)),
        format!("{}.{}*.{}", name(2), name(0), name(1)),
        format!("({}+{})*.{}", name(0), name(1), name(2)),
        name(2),
    ];
    graphs.push(("scale-free".to_string(), sf, goals));
    graphs
}

fn session_config() -> SessionConfig {
    SessionConfig {
        halt: HaltConfig {
            max_interactions: 40,
            stop_on_goal: true,
        },
        ..SessionConfig::default()
    }
}

/// The sequential reference: one bare session per goal, run one after the
/// other, each with its own private naive evaluation stack on a snapshot of
/// `graph` — the single-user shape of the original system.
fn sequential_reference(graph: &Graph, goals: &[String]) -> Vec<SessionFingerprint> {
    let graph = &CsrGraph::from_graph(graph);
    goals
        .iter()
        .map(|goal| {
            let goal = PathQuery::parse(goal, graph.labels()).unwrap();
            let mut user = SimulatedUser::new(goal, graph);
            let mut session = Session::new(graph, session_config());
            let outcome = session.run(&mut InformativePathsStrategy, &mut user);
            fingerprint(graph.labels(), &outcome)
        })
        .collect()
}

fn service_for(graph: &Graph) -> SessionManager {
    let core = Engine::builder(graph.clone())
        .session_config(session_config())
        .build();
    SessionManager::new(core)
}

#[test]
fn concurrent_sessions_match_sequential_bare_sessions() {
    for (name, graph, goals) in corpus() {
        let reference = sequential_reference(&graph, &goals);
        assert!(
            reference.iter().all(|f| f.interactions >= 1),
            "{name}: every reference session must interact"
        );
        for workers in [1, 4] {
            let service = service_for(&graph);
            let outcomes = service.serve(&goals, workers).unwrap();
            assert_eq!(outcomes.len(), reference.len());
            for (i, (outcome, expected)) in outcomes.iter().zip(&reference).enumerate() {
                let candidate = fingerprint(graph.labels(), outcome);
                assert_eq!(
                    candidate, *expected,
                    "{name}: session {i} diverged ({workers} workers)"
                );
            }
            let stats = service.stats();
            assert_eq!(stats.sessions_closed, goals.len() as u64, "{name}");
            assert_eq!(stats.active_sessions, 0, "{name}");
            let total: usize = reference.iter().map(|f| f.interactions).sum();
            assert_eq!(stats.interactions, total as u64, "{name}");
        }
    }
}

#[test]
fn interleaved_stepping_matches_batch_runs() {
    // Drive several sessions through the manager round-robin — one step per
    // session per round, maximally interleaved through the shared cache —
    // and compare against the sequential bare reference.
    let (graph, _) = figure1_graph();
    let goals = vec![
        MOTIVATING_QUERY.to_string(),
        "cinema".to_string(),
        "restaurant".to_string(),
    ];
    let reference = sequential_reference(&graph, &goals);
    let service = service_for(&graph);
    let ids: Vec<_> = goals.iter().map(|g| service.open(g).unwrap()).collect();
    let mut done = vec![false; ids.len()];
    while !done.iter().all(|&d| d) {
        for (i, &id) in ids.iter().enumerate() {
            if !done[i] {
                if let gps_core::SessionStatus::Halted(_) = service.step(id).unwrap() {
                    done[i] = true;
                }
            }
        }
    }
    for (i, (&id, expected)) in ids.iter().zip(&reference).enumerate() {
        let outcome = service.close(id).unwrap();
        assert_eq!(
            fingerprint(graph.labels(), &outcome),
            *expected,
            "interleaved session {i} diverged"
        );
    }
}

#[test]
fn bounded_cache_never_exceeds_capacity_under_stress() {
    // A deliberately tiny cache: 4 query answers.  24 concurrent sessions
    // with rotating goals thrash it; the cap must hold, evictions must be
    // observed, and — the crucial part — the transcripts must still be
    // byte-identical to the unbounded run.
    let sf = scale_free::generate(&ScaleFreeConfig {
        nodes: 120,
        seed: 11,
        ..ScaleFreeConfig::default()
    });
    let name = |i: u32| sf.labels().name(LabelId::new(i)).unwrap().to_string();
    let distinct = [
        format!("({}+{})*.{}", name(0), name(1), name(2)),
        format!("{}.{}*.{}", name(2), name(0), name(1)),
        name(2),
        format!("{}*.{}", name(1), name(2)),
    ];
    let goals: Vec<String> = (0..24)
        .map(|i| distinct[i % distinct.len()].clone())
        .collect();

    let unbounded = service_for(&sf);
    let expected: Vec<_> = unbounded
        .serve(&goals, 4)
        .unwrap()
        .iter()
        .map(|o| fingerprint(sf.labels(), o))
        .collect();

    let core = Engine::builder(sf.clone())
        .session_config(session_config())
        .cache_capacity(4)
        .build();
    let cache = core.eval_handle();
    let service = SessionManager::new(core);
    assert_eq!(service.core().eval_cache().capacity(), 4);

    // Interleave serving with capacity probes from a sibling thread, so the
    // bound is observed *while* workers are hammering the cache.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let violations = std::sync::atomic::AtomicUsize::new(0);
    let outcomes = std::thread::scope(|scope| {
        let probe = scope.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if cache.cache().len() > 4 {
                    violations.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
        let outcomes = service.serve(&goals, 4).unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        probe.join().unwrap();
        outcomes
    });
    assert_eq!(
        violations.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "the bounded cache exceeded its configured capacity mid-flight"
    );

    let core = service.core();
    let cache = core.eval_cache();
    assert!(cache.len() <= 4, "answers: {}", cache.len());
    assert!(
        cache.evictions() > 0,
        "the stress load must actually overflow the answer cache"
    );
    for (i, (outcome, expected)) in outcomes.iter().zip(&expected).enumerate() {
        assert_eq!(
            fingerprint(sf.labels(), outcome),
            *expected,
            "session {i}: eviction changed observable behavior"
        );
    }
}

#[test]
fn one_core_shares_snapshot_index_and_cache_across_sessions() {
    let (graph, _) = figure1_graph();
    let core = Engine::builder(graph).build();
    // Cloning the core is cheap sharing, not duplication.
    let clone = core.clone();
    assert!(std::sync::Arc::ptr_eq(
        &core.shared_snapshot(),
        &clone.shared_snapshot()
    ));
    assert!(std::sync::Arc::ptr_eq(
        &core.shared_index(),
        &clone.shared_index()
    ));
    assert!(core.index_memory_bytes() > 0);

    // Sessions of both clones evaluate through one cache: the second
    // session's goal evaluation is a hit, not a recomputation.
    let service_a = SessionManager::new(core);
    let service_b = SessionManager::new(clone);
    service_a.serve_one(MOTIVATING_QUERY).unwrap();
    let misses_before = service_a.core().eval_cache().stats().1;
    service_b.serve_one(MOTIVATING_QUERY).unwrap();
    assert_eq!(
        service_b.core().eval_cache().stats().1,
        misses_before,
        "replaying the same goal through a core clone adds no cache misses"
    );
}
