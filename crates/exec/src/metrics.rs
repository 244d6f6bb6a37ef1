//! Pre-bound telemetry handles for the execution engine.
//!
//! [`ExecMetrics`] is resolved once against a [`MetricsRegistry`] (or left
//! disabled) and then carried by value inside
//! [`BatchEvaluator`](crate::BatchEvaluator) — including across epochs through `apply_delta` — so the hot evaluation
//! path records through lock-free handles instead of registry lookups.

use gps_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

/// The execution-engine metric family (`gps_exec_*`).
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// `gps_exec_evals_total` — fixed-point evaluations run.
    pub evals: Counter,
    /// `gps_exec_eval_latency_ns` — wall time of one fixed-point evaluation.
    pub eval_latency: Histogram,
    /// `gps_exec_frontier_rounds_total` — frontier rounds swept across all
    /// evaluations.
    pub frontier_rounds: Counter,
    /// `gps_exec_index_build_ns` — wall time of one [`LabelIndex`]
    /// construction or delta patch (fresh builds and `apply_delta` both
    /// record here; a patch's sample spans the
    /// same interval as a publish's `index_patch` phase).
    ///
    /// [`LabelIndex`]: crate::LabelIndex
    pub index_build: Histogram,
    /// `gps_exec_index_bytes` — [`LabelIndex::memory_bytes`] of the index
    /// the evaluator holds, set when the handles are installed
    /// ([`BatchEvaluator::with_metrics`], after a fresh build) and after
    /// every `apply_delta`; computed only when this handle is enabled.
    ///
    /// [`LabelIndex::memory_bytes`]: crate::LabelIndex::memory_bytes
    /// [`BatchEvaluator::with_metrics`]: crate::BatchEvaluator::with_metrics
    pub index_bytes: Gauge,
    /// `gps_exec_support_overdeleted_total` — configurations transitively
    /// over-deleted by resumes across removal-bearing deltas
    /// ([`resume`](crate::frontier::resume)): sources of removed edges and
    /// everything deriving through them.  Re-derivation revives the ones
    /// with a surviving successor, so this counts the DRed sweep's
    /// working-set size, not lost answers.  (The name predates seeds
    /// without support counters; exporters read it as is.)
    pub support_overdeleted: Counter,
}

impl ExecMetrics {
    /// All-disabled handles: every recording is one branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Binds the `gps_exec_*` family in `registry` (disabled handles when
    /// the registry is disabled).
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        Self {
            evals: registry.counter("gps_exec_evals_total"),
            eval_latency: registry.histogram("gps_exec_eval_latency_ns"),
            frontier_rounds: registry.counter("gps_exec_frontier_rounds_total"),
            index_build: registry.histogram("gps_exec_index_build_ns"),
            index_bytes: registry.gauge("gps_exec_index_bytes"),
            support_overdeleted: registry.counter("gps_exec_support_overdeleted_total"),
        }
    }
}
