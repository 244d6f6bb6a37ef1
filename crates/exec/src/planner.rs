//! Direction-aware query planning.
//!
//! The product fixed point can be driven two ways:
//!
//! * **push** (reverse expansion) — walk the *reverse* adjacency from the
//!   newly-alive frontier; work is proportional to the frontier's in-edges,
//!   which is ideal while the alive set stays sparse;
//! * **pull** (forward expansion) — for every still-dead configuration, scan
//!   its *forward* adjacency for an alive successor; work is proportional to
//!   the dead set, which wins once most configurations are alive (the classic
//!   direction-optimization argument from BFS).
//!
//! [`plan`] picks a [`Plan`] per query from the [`LabelIndex`]'s per-label
//! edge counts, edge count and node count: queries over rare labels stay in
//! push mode, queries whose labels blanket the graph switch to pull or to the
//! adaptive hybrid that re-decides every round.

use crate::index::LabelIndex;
use gps_automata::Dfa;
use gps_graph::LabelId;

/// How the frontier evaluator expands the product fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Always push along reverse adjacency (sparse frontiers).
    Reverse,
    /// Always pull along forward adjacency (dense alive sets).
    Forward,
    /// Re-pick push vs. pull every round from frontier/dead-set sizes.
    Bidirectional,
}

/// The planner's decision together with the statistics that produced it, so
/// callers (CLI, benches, tests) can explain the choice.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// The chosen plan.
    pub plan: Plan,
    /// Fraction of all edges carrying a label the query's DFA uses.
    pub coverage: f64,
    /// Mean per-node edge count over the query's labels.
    pub mean_degree: f64,
    /// The labels the DFA actually uses.
    pub used_labels: Vec<LabelId>,
}

/// The planner's decision thresholds.  [`BatchEvaluator`](crate::BatchEvaluator)
/// always plans with the defaults, which were hand-tuned on the checked-in
/// workloads and sanity-checked against the 20k-node scale-free corpus (see
/// `tests/planner_defaults.rs`); the module's tests pass explicit ones to
/// `plan_with`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Edge-coverage below which expansion always stays in push mode.
    pub push_coverage: f64,
    /// Edge-coverage above which pull mode is considered.
    pub pull_coverage: f64,
    /// Mean per-node degree (over the query's labels) additionally required
    /// for pull mode to win outright.
    pub pull_mean_degree: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            push_coverage: 0.4,
            pull_coverage: 0.9,
            pull_mean_degree: 4.0,
        }
    }
}

/// Picks the expansion plan for `dfa` over the graph `index` indexes, using
/// the default thresholds.
pub fn plan(index: &LabelIndex, dfa: &Dfa) -> PlanDecision {
    plan_with(index, dfa, PlannerConfig::default())
}

/// Picks the expansion plan for `dfa` under explicit thresholds.
fn plan_with(index: &LabelIndex, dfa: &Dfa, config: PlannerConfig) -> PlanDecision {
    let used_labels = dfa.used_alphabet().symbols().to_vec();
    let covered: usize = used_labels
        .iter()
        .map(|&label| index.label_edge_count(label))
        .sum();
    let ratio = |total: usize| match total {
        0 => 0.0,
        total => covered as f64 / total as f64,
    };
    let coverage = ratio(index.edge_count());
    let mean_degree = ratio(index.node_count());
    let plan = if coverage < config.push_coverage {
        Plan::Reverse
    } else if coverage > config.pull_coverage && mean_degree >= config.pull_mean_degree {
        Plan::Forward
    } else {
        Plan::Bidirectional
    };
    PlanDecision {
        plan,
        coverage,
        mean_degree,
        used_labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_automata::Regex;
    use gps_graph::{CsrGraph, Graph};

    /// A graph where label `x` dominates and `y` is rare.
    fn skewed() -> CsrGraph {
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..20).map(|i| g.add_node(format!("n{i}"))).collect();
        for window in nodes.windows(2) {
            for _ in 0..5 {
                g.add_edge_by_name(window[0], "x", window[1]);
            }
        }
        g.add_edge_by_name(nodes[0], "y", nodes[10]);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn rare_label_queries_stay_in_push_mode() {
        let g = skewed();
        let index = LabelIndex::from_csr(&g);
        let y = g.label_id("y").unwrap();
        let decision = plan(&index, &Dfa::from_regex(&Regex::symbol(y)));
        assert_eq!(decision.plan, Plan::Reverse);
        assert!(decision.coverage < 0.05);
    }

    #[test]
    fn blanket_label_queries_pull() {
        let g = skewed();
        let index = LabelIndex::from_csr(&g);
        let x = g.label_id("x").unwrap();
        let decision = plan(&index, &Dfa::from_regex(&Regex::star(Regex::symbol(x))));
        assert_eq!(decision.plan, Plan::Forward);
        assert!(decision.coverage > 0.9);
        assert!(decision.mean_degree >= 4.0);
    }

    #[test]
    fn mixed_queries_go_bidirectional() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "y", a);
        let index = LabelIndex::from_csr(&CsrGraph::from_graph(&g));
        let x = g.label_id("x").unwrap();
        let decision = plan(&index, &Dfa::from_regex(&Regex::symbol(x)));
        // x covers half the edges: neither rare nor blanket.
        assert_eq!(decision.plan, Plan::Bidirectional);
        assert_eq!(decision.used_labels, vec![x]);
    }

    #[test]
    fn empty_query_uses_push() {
        let g = skewed();
        let index = LabelIndex::from_csr(&g);
        let decision = plan(&index, &Dfa::from_regex(&Regex::Empty));
        assert_eq!(decision.plan, Plan::Reverse);
        assert_eq!(decision.coverage, 0.0);
    }

    #[test]
    fn custom_thresholds_move_the_boundaries() {
        let g = skewed();
        let index = LabelIndex::from_csr(&g);
        let x = g.label_id("x").unwrap();
        let dfa = Dfa::from_regex(&Regex::star(Regex::symbol(x)));
        assert_eq!(plan(&index, &dfa).plan, Plan::Forward, "defaults");
        // Raising the pull bar beyond x's coverage demotes it to hybrid…
        let strict = PlannerConfig {
            pull_coverage: 0.999,
            ..PlannerConfig::default()
        };
        assert_eq!(plan_with(&index, &dfa, strict).plan, Plan::Bidirectional);
        // …and raising the push bar above it forces push mode.
        let push_all = PlannerConfig {
            push_coverage: 1.1,
            ..PlannerConfig::default()
        };
        assert_eq!(plan_with(&index, &dfa, push_all).plan, Plan::Reverse);
    }
}
