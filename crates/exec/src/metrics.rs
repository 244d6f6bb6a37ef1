//! Pre-bound telemetry handles for the execution engine.
//!
//! [`ExecMetrics`] is resolved once against a [`MetricsRegistry`] (or left
//! disabled) and then carried by value inside
//! [`BatchEvaluator`](crate::BatchEvaluator) — including across epochs through `apply_delta` — so the hot evaluation
//! path records through lock-free handles instead of registry lookups.

use crate::planner::Plan;
use gps_telemetry::{Counter, Histogram, MetricsRegistry};

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
    /// `gps_exec_plan_reverse_total` — evaluations run with [`Plan::Reverse`].
    pub plan_reverse: Counter,
    /// `gps_exec_plan_forward_total` — evaluations run with [`Plan::Forward`].
    pub plan_forward: Counter,
    /// `gps_exec_plan_bidirectional_total` — evaluations run with
    /// [`Plan::Bidirectional`].
    pub plan_bidirectional: Counter,
    /// `gps_exec_index_build_ns` — wall time of one [`LabelIndex`]
    /// construction or delta patch, planner statistics included (fresh
    /// builds and `apply_delta` both record here; a patch's sample spans the
    /// same interval as a publish's `index_patch` phase).
    ///
    /// [`LabelIndex`]: crate::LabelIndex
    pub index_build: Histogram,
    /// `gps_exec_support_overdeleted_total` — configurations transitively
    /// over-deleted by resumes across removal-bearing deltas
    /// ([`resume`](crate::frontier::resume));
    /// re-derivation revives the still-derivable ones, so this counts the
    /// DRed sweep's working-set size, not lost answers.
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
            plan_reverse: registry.counter("gps_exec_plan_reverse_total"),
            plan_forward: registry.counter("gps_exec_plan_forward_total"),
            plan_bidirectional: registry.counter("gps_exec_plan_bidirectional_total"),
            index_build: registry.histogram("gps_exec_index_build_ns"),
            support_overdeleted: registry.counter("gps_exec_support_overdeleted_total"),
        }
    }

    /// Counts one evaluation under the plan that ran it.
    pub(crate) fn record_plan(&self, plan: Plan) {
        match plan {
            Plan::Reverse => self.plan_reverse.inc(),
            Plan::Forward => self.plan_forward.inc(),
            Plan::Bidirectional => self.plan_bidirectional.inc(),
        }
    }
}
