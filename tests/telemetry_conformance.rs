//! Telemetry conformance suite: metrics are *purely observational*.
//!
//! The contract the tentpole rests on: wiring a [`MetricsRegistry`] through
//! the stack must not change a single observable byte — transcripts, learned
//! queries, example sets and statistics are identical with metrics enabled
//! and disabled, on both the bare-session and the managed-service paths.
//! On top of that, after a mixed serve + update + recover workload the
//! service's exports must be complete (eval latency, cache hit/miss, publish
//! latency, WAL fsyncs, session counters) and grammatically valid:
//! `metrics_text()` passes the Prometheus text validator and
//! `metrics_json()` passes the JSON validator.

use gps_core::prelude::*;
use gps_core::service::SessionManager;
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_interactive::session::InteractionRecord;
use gps_telemetry::{validate_json, validate_prometheus_text};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIRS: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let id = DIRS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gps-telemetry-{tag}-{}-{id}", std::process::id()))
}

fn goals() -> Vec<String> {
    vec![
        MOTIVATING_QUERY.to_string(),
        "cinema".to_string(),
        MOTIVATING_QUERY.to_string(),
        "restaurant".to_string(),
    ]
}

/// Everything observable about a finished session, in comparable form.
#[derive(Debug, PartialEq)]
struct SessionFingerprint {
    transcript: Vec<InteractionRecord>,
    learned_nodes: Option<Vec<NodeId>>,
    halt: HaltReason,
    interactions: usize,
    zooms: usize,
    path_validations: usize,
    pruned_after_interaction: Vec<usize>,
}

fn fingerprint(outcome: &SessionOutcome) -> SessionFingerprint {
    SessionFingerprint {
        transcript: outcome.transcript.clone(),
        learned_nodes: outcome.learned.as_ref().map(|l| l.answer.nodes()),
        halt: outcome.halt_reason,
        interactions: outcome.stats.interactions,
        zooms: outcome.stats.zooms,
        path_validations: outcome.stats.path_validations,
        pruned_after_interaction: outcome.stats.pruned_after_interaction.clone(),
    }
}

fn service(registry: Option<Arc<MetricsRegistry>>) -> SessionManager {
    let (graph, _) = figure1_graph();
    let mut builder = Engine::builder(graph);
    if let Some(registry) = registry {
        builder = builder.metrics(registry);
    }
    SessionManager::new(builder.build())
}

#[test]
fn transcripts_are_byte_identical_with_metrics_enabled() {
    let disabled = service(None);
    let registry = Arc::new(MetricsRegistry::enabled());
    let enabled = service(Some(Arc::clone(&registry)));

    let base: Vec<SessionFingerprint> = disabled
        .serve(&goals(), 2)
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    let instrumented: Vec<SessionFingerprint> = enabled
        .serve(&goals(), 2)
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(base, instrumented, "metrics changed a session");

    // The instrumented run actually recorded: sessions and interactions.
    let snapshot = enabled.metrics();
    assert_eq!(
        snapshot.counter("gps_service_sessions_opened_total"),
        Some(goals().len() as u64)
    );
    let total: usize = instrumented.iter().map(|f| f.interactions).sum();
    assert_eq!(
        snapshot.counter("gps_interactive_interactions_total"),
        Some(total as u64)
    );
}

#[test]
fn halt_counters_split_the_closed_sessions() {
    // A goal no node satisfies learns nothing, and a session closed before
    // its first step ends `ClosedByClient` without a hypothesis.
    let goals = vec![MOTIVATING_QUERY.to_string(), "cinema.cinema".to_string()];
    let run = |registry: Option<Arc<MetricsRegistry>>| {
        let svc = service(registry);
        let mut outcomes = svc.serve(&goals, 1).unwrap();
        let id = svc.open(MOTIVATING_QUERY).unwrap();
        outcomes.push(svc.close(id).unwrap());
        (svc, outcomes)
    };
    let (_, base) = run(None);
    let (svc, outcomes) = run(Some(Arc::new(MetricsRegistry::enabled())));
    let prints = |outcomes: &[SessionOutcome]| outcomes.iter().map(fingerprint).collect::<Vec<_>>();
    assert_eq!(
        prints(&base),
        prints(&outcomes),
        "metrics changed a session"
    );

    let snapshot = svc.metrics();
    let mut halted = 0;
    for (reason, name) in [
        (HaltReason::AllNodesResolved, "all_nodes_resolved"),
        (HaltReason::UserSatisfied, "user_satisfied"),
        (
            HaltReason::InteractionBudgetExhausted,
            "interaction_budget_exhausted",
        ),
        (HaltReason::ClosedByClient, "closed_by_client"),
    ] {
        let count = snapshot
            .counter(&format!("gps_service_sessions_halted_{name}_total"))
            .unwrap_or_else(|| panic!("{name} is registered"));
        let expected = outcomes.iter().filter(|o| o.halt_reason == reason).count();
        assert_eq!(count, expected as u64, "{name}");
        halted += count;
    }
    assert_eq!(
        Some(halted),
        snapshot.counter("gps_service_sessions_closed_total")
    );
    let unlearned = outcomes.iter().filter(|o| o.learned.is_none()).count();
    assert!(unlearned >= 1, "the client-closed session learned nothing");
    assert_eq!(
        snapshot.counter("gps_service_sessions_unlearned_total"),
        Some(unlearned as u64)
    );
}

#[test]
fn bare_sessions_are_identical_and_record_per_session_histograms() {
    let (graph, _) = figure1_graph();
    let plain = Engine::builder(graph.clone()).build();
    let registry = Arc::new(MetricsRegistry::enabled());
    let instrumented = Engine::builder(graph)
        .metrics(Arc::clone(&registry))
        .build();

    let goal = plain.parse_query(MOTIVATING_QUERY).unwrap();
    let mut user = SimulatedUser::new(goal.clone(), plain.snapshot());
    let base = fingerprint(&plain.specify(&mut user));
    let mut user = SimulatedUser::new(goal, instrumented.snapshot());
    let outcome = instrumented.specify(&mut user);
    assert_eq!(base, fingerprint(&outcome));

    // `Session::run` records the dialogue length on completion.
    let hist = registry.snapshot();
    let per_session = hist
        .histogram("gps_interactive_interactions_per_session")
        .expect("recorded by the engine-driven session");
    assert_eq!(per_session.count, 1);
    assert_eq!(per_session.sum, outcome.stats.interactions as u64);
}

#[test]
fn legacy_cache_getters_mirror_the_registry_counters() {
    let registry = Arc::new(MetricsRegistry::enabled());
    let svc = service(Some(Arc::clone(&registry)));
    svc.serve(&goals(), 2).unwrap();
    let (hits, misses) = svc.core().eval_cache().stats();
    assert!(hits > 0, "repeated goals must hit the shared cache");
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("gps_rpq_cache_hits_total"),
        Some(hits),
        "deprecated getter and registry disagree on hits"
    );
    assert_eq!(snapshot.counter("gps_rpq_cache_misses_total"), Some(misses));
}

#[test]
fn mixed_workload_exports_are_complete_and_valid() {
    let dir = tmp_dir("mixed");
    let registry = Arc::new(MetricsRegistry::enabled());
    let builder = || {
        let (graph, _) = figure1_graph();
        Engine::builder(graph).checkpoint_every_n_publishes(2)
    };

    // Serve + update (two publishes trigger a checkpoint) + one
    // removal-bearing publish that schedules the Tier-3 delete-reseed, serve
    // again (the reads run the scheduled resumes), then drop.
    let recomputed: usize = {
        let (svc, report) =
            SessionManager::open_durable(&dir, builder().metrics(Arc::clone(&registry))).unwrap();
        assert!(report.created);
        svc.serve(&goals(), 2).unwrap();
        let reports = [
            GraphUpdate::new()
                .add_node("C9")
                .add_edge("N5", "cinema", "C9"),
            GraphUpdate::new().add_edge("C9", "bus", "N1"),
            GraphUpdate::new()
                .remove_edge("C9", "bus", "N1")
                .add_edge("C9", "tram", "N1"),
        ]
        .map(|update| svc.update(update).unwrap());
        assert!(
            reports[2].delete_reseeded_answers > 0,
            "the removal publish must exercise the delete-aware resume"
        );
        svc.serve(&goals(), 2).unwrap();
        reports.iter().map(|r| r.recomputed_answers).sum()
    };

    // Recover into the same registry and serve again.
    let (svc, report) =
        SessionManager::open_durable(&dir, builder().metrics(Arc::clone(&registry))).unwrap();
    assert!(!report.created);
    svc.serve(&goals(), 2).unwrap();

    let text = svc.metrics_text();
    validate_prometheus_text(&text).expect("metrics_text must be valid Prometheus exposition");
    for required in [
        "gps_exec_eval_latency_ns",
        "gps_exec_index_build_ns",
        "gps_exec_index_bytes",
        "gps_core_snapshot_bytes",
        "gps_rpq_cache_hits_total",
        "gps_rpq_cache_misses_total",
        "gps_rpq_cache_delete_reseeded_total",
        "gps_rpq_cache_fallback_saturation_total",
        "gps_rpq_cache_fallback_no_seed_total",
        "gps_rpq_cache_fallback_evicted_total",
        "gps_rpq_cache_fallback_pending_total",
        "gps_rpq_cache_resumed_on_read_total",
        "gps_rpq_cache_pending_unread_total",
        "gps_rpq_cache_migrate_blocks_copied_total",
        "gps_rpq_cache_migrate_blocks_shared_total",
        "gps_rpq_delete_reseed_latency_ns",
        "gps_rpq_words_build_latency_ns",
        "gps_rpq_words_pairs",
        "gps_rpq_words_rederived_nodes_total",
        "gps_rpq_words_minted_total",
        "gps_rpq_words_postings_written_total",
        "gps_exec_support_overdeleted_total",
        "gps_core_publish_latency_ns",
        "gps_core_publish_phase_apply_ns",
        "gps_core_publish_phase_compact_ns",
        "gps_core_publish_phase_index_patch_ns",
        "gps_core_publish_phase_migrate_answers_ns",
        "gps_core_publish_phase_inherit_words_ns",
        "gps_core_publish_phase_commit_ns",
        "gps_core_publish_phase_swap_retire_ns",
        "gps_core_recovery_replay_ns",
        "gps_store_fsyncs_total",
        "gps_store_wal_bytes_total",
        "gps_service_sessions_opened_total",
        "gps_service_sessions_closed_total",
        "gps_interactive_interactions_total",
        "gps_interactive_learns_total",
        "gps_interactive_hypotheses_kept_total",
        "gps_interactive_refresh_postings_total",
    ] {
        assert!(text.contains(required), "missing {required} in:\n{text}");
    }

    let json = svc.metrics_json();
    validate_json(&json).expect("metrics_json must be valid JSON");

    // The audit trail covers the whole lifecycle.
    let events = svc.metrics().events;
    let kinds: std::collections::BTreeSet<&str> =
        events.iter().map(|event| event.kind.as_str()).collect();
    for required in [
        "session_open",
        "session_close",
        "stage",
        "publish",
        "checkpoint",
        "recovery",
    ] {
        assert!(kinds.contains(required), "missing event {required:?}");
    }

    // Store-level series reflect real durable work.
    let snapshot = svc.metrics();
    // The word index was derived (cold, at least once per process), holds
    // pairs, and negative labels decremented scores through its postings.
    assert!(
        snapshot
            .histogram("gps_rpq_words_build_latency_ns")
            .unwrap()
            .count
            >= 1
    );
    assert!(snapshot.gauge("gps_rpq_words_pairs").unwrap() > 0);
    // The publishes were inherited, not re-derived: a few nodes re-derived
    // and the spellers of the words they gained patched.
    assert!(
        snapshot
            .counter("gps_rpq_words_rederived_nodes_total")
            .unwrap()
            > 0
    );
    assert!(
        snapshot
            .counter("gps_rpq_words_postings_written_total")
            .unwrap()
            > 0
    );
    assert!(
        snapshot
            .counter("gps_interactive_refresh_postings_total")
            .unwrap()
            > 0
    );
    assert!(snapshot.counter("gps_store_fsyncs_total").unwrap() >= 2);
    assert!(snapshot.counter("gps_store_wal_bytes_total").unwrap() > 0);
    assert!(snapshot.counter("gps_store_checkpoints_total").unwrap() >= 1);
    assert_eq!(snapshot.counter("gps_core_publishes_total"), Some(3));
    assert_eq!(
        snapshot.counter("gps_core_checkpoint_errors_total"),
        Some(0)
    );
    let publish_latency = snapshot.histogram("gps_core_publish_latency_ns").unwrap();
    assert_eq!(publish_latency.count, 3);
    // The removal publish recorded the Tier-3 split: delete-reseeds happened,
    // and the cold fallbacks' reason trio adds up to what the publishes
    // reported as recomputed.
    assert!(
        snapshot
            .counter("gps_rpq_cache_delete_reseeded_total")
            .unwrap()
            > 0
    );
    // Every resumed answer copied at least the block its delta landed in.
    assert!(
        snapshot
            .counter("gps_rpq_cache_migrate_blocks_copied_total")
            .unwrap()
            > 0
    );
    let reasons = snapshot
        .counter("gps_rpq_cache_fallback_saturation_total")
        .unwrap()
        + snapshot
            .counter("gps_rpq_cache_fallback_no_seed_total")
            .unwrap()
        + snapshot
            .counter("gps_rpq_cache_fallback_evicted_total")
            .unwrap();
    assert_eq!(
        reasons, recomputed as u64,
        "every cold fallback is attributed to exactly one reason"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_registry_exports_are_empty_but_valid() {
    let svc = service(None);
    svc.serve(&goals()[..1], 1).unwrap();
    assert_eq!(svc.metrics_text(), "");
    validate_json(&svc.metrics_json()).expect("the empty document is still valid JSON");
    assert!(svc.metrics().events.is_empty());
    assert!(!svc.metrics_registry().is_enabled());
}

#[test]
fn updates_and_retirement_keep_gauges_accurate() {
    let registry = Arc::new(MetricsRegistry::enabled());
    let svc = service(Some(Arc::clone(&registry)));
    let first = svc.open(MOTIVATING_QUERY).unwrap();
    svc.step(first).unwrap();
    let bytes_at_open = svc.metrics().gauge("gps_core_snapshot_bytes");
    assert_eq!(
        bytes_at_open,
        Some(svc.core().snapshot().memory_bytes() as u64)
    );
    svc.update(GraphUpdate::new().add_node("Z1")).unwrap();

    let snapshot = svc.metrics();
    assert_eq!(snapshot.gauge("gps_core_current_epoch"), Some(1));
    let bytes = snapshot.gauge("gps_core_snapshot_bytes");
    assert_eq!(bytes, Some(svc.core().snapshot().memory_bytes() as u64));
    assert!(bytes > bytes_at_open, "the added node's name is counted");
    assert_eq!(
        snapshot.gauge("gps_core_live_epochs"),
        Some(2),
        "epoch 0 still pinned by the open session"
    );
    assert_eq!(snapshot.gauge("gps_service_active_sessions"), Some(1));

    svc.close(first).unwrap();
    let snapshot = svc.metrics();
    assert_eq!(snapshot.gauge("gps_core_live_epochs"), Some(1));
    assert_eq!(snapshot.gauge("gps_service_active_sessions"), Some(0));
    assert_eq!(snapshot.counter("gps_core_retired_epochs_total"), Some(1));
    let events = svc.metrics().events;
    let kinds: Vec<&str> = events.iter().map(|event| event.kind.as_str()).collect();
    assert!(kinds.contains(&"retire"));
    assert!(kinds.contains(&"session_halt") || kinds.contains(&"session_close"));
}

#[test]
fn publish_phases_add_up_to_the_publish_latency() {
    // A 2,000-node corpus with a warm cache and a bounded-word index, so
    // every phase has work to do; 4-op updates from the generated stream.
    let (graph, ops) = gps_datasets::updates::sample_stream(2_000, 4 * 15, 21);
    let service = |registry: Option<Arc<MetricsRegistry>>| {
        let mut builder = Engine::builder(graph.clone());
        if let Some(registry) = registry {
            builder = builder.metrics(registry);
        }
        SessionManager::new(builder.build())
    };
    let goals = ["a0.a1*", "a1", "(a0+a2).a1"].map(String::from);
    let registry = Arc::new(MetricsRegistry::enabled());
    let enabled = service(Some(Arc::clone(&registry)));
    let disabled = service(None);
    enabled.serve(&goals, 1).unwrap();
    disabled.serve(&goals, 1).unwrap();

    let mut gaps = Vec::new();
    for chunk in ops.chunks(4) {
        let report = enabled
            .update(GraphUpdate::from_ops(chunk.to_vec()))
            .unwrap();
        disabled
            .update(GraphUpdate::from_ops(chunk.to_vec()))
            .unwrap();
        let (sum, latency) = (report.phases.total(), report.latency);
        assert!(sum <= latency, "phases are disjoint parts of the publish");
        assert!(report.phases.compact > std::time::Duration::ZERO);
        gaps.push((latency - sum).as_secs_f64() / latency.as_secs_f64());
    }
    // The typical publish, so one descheduled between two phases on a busy
    // test machine does not decide.
    gaps.sort_by(f64::total_cmp);
    let median = gaps[gaps.len() / 2];
    assert!(
        median <= 0.05,
        "phases cover {:.1}% of the median publish: {gaps:?}",
        100.0 * (1.0 - median)
    );

    // One sample per publish on every phase histogram, and they sum to what
    // the reports said.
    let snapshot = registry.snapshot();
    let publishes = snapshot
        .histogram("gps_core_publish_latency_ns")
        .unwrap()
        .count;
    assert_eq!(publishes, gaps.len() as u64);
    for (phase, _) in PublishPhases::default().named() {
        let histogram = snapshot
            .histogram(&format!("gps_core_publish_phase_{phase}_ns"))
            .unwrap_or_else(|| panic!("phase {phase} is exported"));
        assert_eq!(histogram.count, publishes, "{phase}");
    }

    // Purely observational: sessions after the publishes are byte-identical
    // with the registry enabled and disabled.
    let fingerprints = |svc: &SessionManager| -> Vec<SessionFingerprint> {
        svc.serve(&goals, 1)
            .unwrap()
            .iter()
            .map(fingerprint)
            .collect()
    };
    assert_eq!(fingerprints(&enabled), fingerprints(&disabled));
}
