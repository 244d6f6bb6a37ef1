//! Pre-bound telemetry handles for the interactive loop.
//!
//! [`SessionMetrics`] is resolved once against a [`MetricsRegistry`] and
//! installed into a [`Session`](crate::Session) via
//! [`Session::set_metrics`](crate::Session::set_metrics) (the engine and the
//! session manager do this when a registry is configured).  Metrics never
//! influence the loop's control flow, so an instrumented session produces a
//! byte-identical transcript to an uninstrumented one.

use gps_telemetry::{Counter, Histogram, MetricsRegistry};

/// The pruning sub-family (`gps_interactive_pruning_*`): how much work the
/// word-index postings walks that keep the informativeness state up to date
/// are doing.
#[derive(Debug, Clone, Default)]
pub struct PruningMetrics {
    /// `gps_interactive_pruning_incremental_refreshes_total` — refreshes that
    /// applied a coverage delta through the word index.
    pub incremental_refreshes: Counter,
    /// `gps_interactive_refresh_postings_total` — word-index postings walked
    /// by those refreshes, i.e. score decrements applied: what a slow
    /// negative-label step spent its time on.
    pub refresh_postings: Counter,
}

impl PruningMetrics {
    /// All-disabled handles.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Binds the `gps_interactive_pruning_*` family in `registry`.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        Self {
            incremental_refreshes: registry
                .counter("gps_interactive_pruning_incremental_refreshes_total"),
            refresh_postings: registry.counter("gps_interactive_refresh_postings_total"),
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
