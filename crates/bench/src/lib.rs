//! # gps-bench — experiment tables and the CI perf floors
//!
//! Two binaries.  `rpq_baseline` checks the ten perf floors CI holds (its
//! module docs list them) and measures nothing else; the numbers a user of
//! the system feels come from the `benchmark/` package.  `repro` prints the
//! paper's experiments to stdout, one fixed-width table per experiment —
//! nothing is written to disk or checked in — and this library holds the
//! helpers it shares between experiments.
//!
//! The individual experiments are:
//!
//! * **F1** — the answer of the motivating query on the Figure 1 graph;
//! * **E1** — interactions to convergence per strategy and graph size;
//! * **E2** — per-interaction latency per strategy;
//! * **E3** — learning time as a function of the number of examples;
//! * **E4** — pruning effectiveness over the course of a session;
//! * **E5** — RPQ evaluation throughput (substrate sanity check);
//! * **A1** — ablation: goal-recovery rate with and without path validation;
//! * **A2** — ablation: initial neighborhood radius vs. interactions/zooms.

#![forbid(unsafe_code)]

use gps_graph::CsrGraph;
use gps_interactive::session::{Session, SessionConfig, SessionOutcome};
use gps_interactive::strategy::{
    DegreeStrategy, InformativePathsStrategy, RandomStrategy, Strategy,
};
use gps_interactive::user::SimulatedUser;
use gps_rpq::PathQuery;

/// The strategies compared by the interaction experiments, freshly
/// constructed so each run starts from the same state.
pub fn strategies(seed: u64) -> Vec<(&'static str, Box<dyn Strategy>)> {
    vec![
        (
            "informative-paths",
            Box::new(InformativePathsStrategy) as Box<dyn Strategy>,
        ),
        ("degree", Box::new(DegreeStrategy)),
        ("random", Box::new(RandomStrategy::seeded(seed))),
    ]
}

/// Runs one interactive session of `goal` on `graph` with the given strategy
/// and configuration, against the simulated oracle user.
pub fn run_session(
    graph: &CsrGraph,
    goal: &PathQuery,
    strategy: &mut dyn Strategy,
    config: SessionConfig,
) -> SessionOutcome {
    let mut user = SimulatedUser::new(goal.clone(), graph);
    let mut session = Session::new(graph, config);
    session.run(strategy, &mut user)
}

/// Returns `true` when the session's learned query selects exactly the same
/// nodes as the goal.
pub fn goal_reached(graph: &CsrGraph, goal: &PathQuery, outcome: &SessionOutcome) -> bool {
    outcome
        .learned
        .as_ref()
        .map(|l| l.answer == goal.evaluate(graph))
        .unwrap_or(false)
}

/// Formats a table row with fixed-width columns for the repro binary.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(cell, width)| format!("{cell:>width$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};

    #[test]
    fn helpers_compose() {
        let g = CsrGraph::from_graph(&figure1_graph().0);
        let goal = PathQuery::parse(MOTIVATING_QUERY, g.labels()).unwrap();
        for (name, mut strategy) in strategies(1) {
            let outcome = run_session(&g, &goal, strategy.as_mut(), SessionConfig::default());
            assert!(outcome.stats.interactions > 0, "{name} did nothing");
            assert!(goal_reached(&g, &goal, &outcome), "{name} missed the goal");
        }
        let formatted = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(formatted, "  a    bb");
    }
}
