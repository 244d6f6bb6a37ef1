//! Names `benchmark/` still compiles against, from when a per-query planner
//! chose between push and pull rounds.  The fixed point has one round mode
//! now (see [`frontier`](crate::frontier)), so nothing here decides
//! anything; the next change to `benchmark/` drops these.

/// Kept for `benchmark/src/trace.rs:236`, which compares
/// [`BatchEvaluator::plan_for`](crate::BatchEvaluator::plan_for) against
/// `Forward` to report `exec.plan_forward_ratio` (always 0).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Push rounds: what every evaluation runs.
    Reverse,
    /// Never returned.
    Forward,
}

/// Kept for `benchmark/src/trace.rs:236`, which reads `plan` from
/// [`BatchEvaluator::plan_for`](crate::BatchEvaluator::plan_for).
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDecision {
    /// Always [`Plan::Reverse`].
    pub plan: Plan,
}

/// Kept for `benchmark/src/shadow.rs:128-129`, which passes
/// `Engine::planner_config` to `BatchEvaluator::with_planner_config`; both
/// ignore it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerConfig;
