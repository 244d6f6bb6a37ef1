//! Pre-bound telemetry handles for the interactive loop.
//!
//! [`SessionMetrics`] is resolved once against a
//! [`MetricsRegistry`](gps_telemetry::MetricsRegistry) and installed into a
//! [`Session`](crate::Session) via
//! [`Session::set_metrics`](crate::Session::set_metrics) (the engine and the
//! session manager do this when a registry is configured).  Metrics never
//! influence the loop's control flow, so an instrumented session produces a
//! byte-identical transcript to an uninstrumented one.

use gps_telemetry::{Counter, Histogram, MetricsRegistry};

/// The pruning sub-family (`gps_interactive_pruning_*`): how the
/// informativeness state is being kept up to date — cheap incremental
/// postings walks, full rescans, or the silent-and-slow foreign-snapshot
/// fallback.
#[derive(Debug, Clone, Default)]
pub struct PruningMetrics {
    /// `gps_interactive_pruning_full_sweeps_total` — full informativeness
    /// rescans (a first refresh without a matching handle, foreign handles).
    pub full_sweeps: Counter,
    /// `gps_interactive_pruning_incremental_refreshes_total` — refreshes that
    /// applied a coverage delta through the word index instead of rescanning.
    pub incremental_refreshes: Counter,
    /// `gps_interactive_refresh_postings_total` — word-index postings walked
    /// by those refreshes, i.e. score decrements applied: what a slow
    /// negative-label step spent its time on.
    pub refresh_postings: Counter,
    /// `gps_interactive_pruning_foreign_rescans_total` — full rescans forced
    /// by a mismatched evaluation handle; 0 in a correctly wired deployment.
    pub foreign_rescans: Counter,
}

impl PruningMetrics {
    /// All-disabled handles.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Binds the `gps_interactive_pruning_*` family in `registry`.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        Self {
            full_sweeps: registry.counter("gps_interactive_pruning_full_sweeps_total"),
            incremental_refreshes: registry
                .counter("gps_interactive_pruning_incremental_refreshes_total"),
            refresh_postings: registry.counter("gps_interactive_refresh_postings_total"),
            foreign_rescans: registry.counter("gps_interactive_pruning_foreign_rescans_total"),
        }
    }
}

/// The interactive-loop metric family (`gps_interactive_*`).
#[derive(Debug, Clone, Default)]
pub struct SessionMetrics {
    /// `gps_interactive_interactions_total` — user interactions performed
    /// across all sessions.
    pub interactions: Counter,
    /// `gps_interactive_interactions_per_session` — dialogue length of each
    /// completed session (recorded when a session's run loop halts).
    pub interactions_per_session: Histogram,
    /// The pruning sub-family.
    pub pruning: PruningMetrics,
}

impl SessionMetrics {
    /// All-disabled handles.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Binds the `gps_interactive_*` family in `registry`.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        Self {
            interactions: registry.counter("gps_interactive_interactions_total"),
            interactions_per_session: registry
                .histogram("gps_interactive_interactions_per_session"),
            pruning: PruningMetrics::from_registry(registry),
        }
    }
}
