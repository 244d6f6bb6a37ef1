//! Pre-bound telemetry handles for the MVCC write path and the service
//! layer.
//!
//! Both structs resolve their metric families once against the registry the
//! builder was configured with ([`crate::GpsBuilder::metrics`]) and are then
//! carried by [`crate::VersionedStore`] / [`crate::SessionManager`], so the
//! hot paths never take the registry's name-map lock.  With a disabled
//! registry every handle is a no-op costing one branch.

use gps_interactive::halt::HaltReason;
use gps_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

/// Every [`HaltReason`] with the snake-case name of its
/// `gps_service_sessions_halted_<reason>_total` counter.
const HALT_REASONS: [(HaltReason, &str); 5] = [
    (HaltReason::AllNodesResolved, "all_nodes_resolved"),
    (HaltReason::UserSatisfied, "user_satisfied"),
    (
        HaltReason::InteractionBudgetExhausted,
        "interaction_budget_exhausted",
    ),
    (HaltReason::GoalReached, "goal_reached"),
    (HaltReason::ClosedByClient, "closed_by_client"),
];

/// The MVCC/durability metric family (`gps_core_*`), recorded by
/// [`crate::VersionedStore`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreMetrics {
    /// `gps_core_publishes_total` — successful non-empty publishes.
    pub publishes: Counter,
    /// `gps_core_publish_latency_ns` — wall time of one publish (delta apply
    /// + compact + index/cache patch + commit fsync + swap).
    pub publish_latency: Histogram,
    /// `gps_core_publish_phase_<phase>_ns` — the same wall time split into
    /// the seven phases of [`crate::PublishPhases::named`], in that order
    /// (the registry's names carry no labels, so the phase is a suffix).
    pub publish_phases: [Histogram; 7],
    /// `gps_core_staged_ops_total` — update ops staged for publishing.
    pub staged_ops: Counter,
    /// `gps_core_retired_epochs_total` — superseded epochs retired (their
    /// cache entries dropped) by publishes and unpins.
    pub retired_epochs: Counter,
    /// `gps_core_live_epochs` — live epochs right now (latest + superseded
    /// ones with pinned sessions).
    pub live_epochs: Gauge,
    /// `gps_core_current_epoch` — the epoch newly opened sessions resolve.
    pub current_epoch: Gauge,
    /// `gps_core_snapshot_bytes` — `CsrGraph::memory_bytes` of that epoch's
    /// snapshot (adjacency plus node names), set at open and at every
    /// publish.
    pub snapshot_bytes: Gauge,
    /// `gps_core_checkpoint_errors_total` — checkpoints that were due but
    /// failed (the publish itself succeeded; see
    /// [`crate::DurabilityReport::checkpoint_error`]).
    pub checkpoint_errors: Counter,
    /// `gps_core_recovery_replay_ns` — wall time of one replay-on-startup
    /// recovery (checkpoint decode + committed WAL batch replay).
    pub recovery_replay: Histogram,
}

impl CoreMetrics {
    /// Sets `gps_core_snapshot_bytes` to `snapshot`'s size; walks the
    /// snapshot only when that handle records.
    pub(crate) fn record_snapshot_bytes(&self, snapshot: &gps_graph::CsrGraph) {
        if self.snapshot_bytes.is_enabled() {
            self.snapshot_bytes.set(snapshot.memory_bytes() as u64);
        }
    }

    pub(crate) fn from_registry(registry: &MetricsRegistry) -> Self {
        Self {
            publishes: registry.counter("gps_core_publishes_total"),
            publish_latency: registry.histogram("gps_core_publish_latency_ns"),
            publish_phases: crate::PublishPhases::default().named().map(|(phase, _)| {
                registry.histogram(&format!("gps_core_publish_phase_{phase}_ns"))
            }),
            staged_ops: registry.counter("gps_core_staged_ops_total"),
            retired_epochs: registry.counter("gps_core_retired_epochs_total"),
            live_epochs: registry.gauge("gps_core_live_epochs"),
            current_epoch: registry.gauge("gps_core_current_epoch"),
            snapshot_bytes: registry.gauge("gps_core_snapshot_bytes"),
            checkpoint_errors: registry.counter("gps_core_checkpoint_errors_total"),
            recovery_replay: registry.histogram("gps_core_recovery_replay_ns"),
        }
    }
}

/// The session-serving metric family (`gps_service_*`), recorded by
/// [`crate::SessionManager`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ServiceMetrics {
    /// `gps_service_sessions_opened_total`.
    pub sessions_opened: Counter,
    /// `gps_service_sessions_closed_total`.
    pub sessions_closed: Counter,
    /// `gps_service_sessions_completed_total` — sessions whose halt condition
    /// fired (vs. closed early by the client).
    pub sessions_completed: Counter,
    /// `gps_service_sessions_halted_<reason>_total` — closed sessions by
    /// the reason they ended, in [`HALT_REASONS`] order; the family sums to
    /// `gps_service_sessions_closed_total`.
    sessions_halted: [Counter; 5],
    /// `gps_service_sessions_unlearned_total` — closed sessions whose
    /// outcome holds no learned query.
    pub sessions_unlearned: Counter,
    /// `gps_service_active_sessions` — sessions open right now.
    pub active_sessions: Gauge,
    /// `gps_service_open_latency_ns` — wall time of one session open (pin +
    /// goal parse + session construction).
    pub open_latency: Histogram,
    /// `gps_service_step_latency_ns` — wall time of one managed step (one
    /// interaction, or the no-op on a halted session).
    pub step_latency: Histogram,
    /// `gps_service_close_latency_ns` — wall time of one close (outcome
    /// snapshot + unpin/retire).
    pub close_latency: Histogram,
}

impl ServiceMetrics {
    pub(crate) fn from_registry(registry: &MetricsRegistry) -> Self {
        Self {
            sessions_opened: registry.counter("gps_service_sessions_opened_total"),
            sessions_closed: registry.counter("gps_service_sessions_closed_total"),
            sessions_completed: registry.counter("gps_service_sessions_completed_total"),
            sessions_halted: HALT_REASONS.map(|(_, name)| {
                registry.counter(&format!("gps_service_sessions_halted_{name}_total"))
            }),
            sessions_unlearned: registry.counter("gps_service_sessions_unlearned_total"),
            active_sessions: registry.gauge("gps_service_active_sessions"),
            open_latency: registry.histogram("gps_service_open_latency_ns"),
            step_latency: registry.histogram("gps_service_step_latency_ns"),
            close_latency: registry.histogram("gps_service_close_latency_ns"),
        }
    }

    /// The `gps_service_sessions_halted_<reason>_total` counter of `reason`.
    pub(crate) fn sessions_halted(&self, reason: HaltReason) -> &Counter {
        let slot = HALT_REASONS
            .iter()
            .position(|&(listed, _)| listed == reason);
        &self.sessions_halted[slot.expect("every halt reason is listed")]
    }
}
