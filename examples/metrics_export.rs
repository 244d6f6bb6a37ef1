//! Observability: wire a metrics registry through the full stack and export.
//!
//! Builds a durable GPS service on the figure-1 transport graph with a
//! [`MetricsRegistry`] installed, drives a mixed workload (interactive
//! sessions, live updates, a simulated crash + recovery), then prints the
//! resulting metrics twice — once as a Prometheus text exposition ready for
//! a `/metrics` endpoint, once as a JSON document — followed by the bounded
//! audit-event trail.  Everything is observational: run the same workload
//! without `.metrics(...)` and the transcripts are byte-identical.
//!
//! Run with `cargo run --example metrics_export`.

use gps_core::prelude::*;
use gps_core::service::SessionManager;
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use std::sync::Arc;

fn builder(registry: &Arc<MetricsRegistry>) -> gps_core::GpsBuilder {
    let (graph, _) = figure1_graph();
    Engine::builder(graph)
        .eval_mode(EvalMode::Frontier)
        .checkpoint_every_n_publishes(2)
        .metrics(Arc::clone(registry))
}

fn main() {
    let dir = std::env::temp_dir().join(format!("gps-metrics-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One registry outlives the service; a restart keeps extending the same
    // series, so recovery time and pre-crash traffic land in one export.
    let registry = Arc::new(MetricsRegistry::enabled());

    // First life: serve a few users, publish two updates (the second one
    // crosses the checkpoint threshold), then "crash".
    {
        let (service, _) =
            SessionManager::open_durable(&dir, builder(&registry)).expect("store opens");
        let goals = vec![
            MOTIVATING_QUERY.to_string(),
            "cinema".to_string(),
            "restaurant".to_string(),
        ];
        service.serve(&goals, 2).expect("sessions halt");
        service
            .update(
                GraphUpdate::new()
                    .add_node("C9")
                    .add_edge("N5", "cinema", "C9"),
            )
            .expect("publish");
        service
            .update(GraphUpdate::new().add_edge("C9", "bus", "N1"))
            .expect("publish");
    }

    // Second life: recovery replays the WAL (timed into
    // gps_core_recovery_replay_ns), then more traffic.
    let (service, report) =
        SessionManager::open_durable(&dir, builder(&registry)).expect("reopens");
    println!(
        "recovered epoch {} ({} publishes replayed)\n",
        report.current_epoch, report.replayed_publishes
    );
    service
        .serve(&[MOTIVATING_QUERY.to_string()], 1)
        .expect("sessions halt");

    // Export 1: Prometheus text exposition, e.g. behind `GET /metrics`.
    let text = service.metrics_text();
    gps_core::telemetry::validate_prometheus_text(&text).expect("valid exposition");
    println!("=== Prometheus text exposition ===\n{text}");

    // Export 2: a JSON document for dashboards and diffing.
    let json = service.metrics_json();
    gps_core::telemetry::validate_json(&json).expect("valid JSON");
    println!("=== JSON ===\n{json}\n");

    // The audit trail: a bounded ring of lifecycle events.
    println!("=== audit events ===");
    for event in service.metrics().events {
        let fields: Vec<String> = event
            .fields
            .iter()
            .map(|(key, value)| format!("{key}={value}"))
            .collect();
        println!("{:<18} {}", event.kind, fields.join(" "));
    }

    let _ = std::fs::remove_dir_all(&dir);
}
