//! Planner-threshold calibration check on the large (~20k node) scale-free
//! corpus: the default thresholds (0.4 / 0.9 coverage, mean degree ≥ 4) must
//! exercise *all three* plans on a corpus this size — rare labels push,
//! blanket star queries pull, mid-coverage queries go hybrid — and the
//! chosen plans must never change answers.  This is the calibration the
//! ROADMAP asked for once a larger workload landed.

use gps_automata::{Dfa, Regex};
use gps_datasets::Workload;
use gps_exec::{planner, BatchEvaluator, Plan};
use gps_graph::{CsrGraph, LabelStats};

#[test]
fn default_thresholds_cover_all_three_plans_on_the_large_corpus() {
    let workload = Workload::scale_free_large(7);
    let graph = &CsrGraph::from_graph(&workload.graph);
    assert_eq!(graph.node_count(), 20_000);
    assert!(graph.edge_count() > 60_000, "dense enough to matter");
    let stats = LabelStats::compute(graph);

    // Labels are Zipf-skewed: a0 dominates, a5 is rare.
    let label = |name: &str| graph.label_id(name).unwrap();
    let rare = planner::plan(&stats, &Dfa::from_regex(&Regex::symbol(label("a5"))));
    assert_eq!(rare.plan, Plan::Reverse, "rare labels stay in push mode");
    assert!(rare.coverage < 0.4, "coverage {:.3}", rare.coverage);

    let blanket = Regex::star(Regex::union(
        (0..6).map(|i| Regex::symbol(label(&format!("a{i}")))),
    ));
    let all = planner::plan(&stats, &Dfa::from_regex(&blanket));
    assert_eq!(all.plan, Plan::Forward, "blanket star queries pull");
    assert!(all.coverage > 0.9 && all.mean_degree >= 4.0);

    let mid = planner::plan(&stats, &Dfa::from_regex(&Regex::symbol(label("a0"))));
    assert_eq!(
        mid.plan,
        Plan::Bidirectional,
        "the dominant label alone sits between the thresholds (coverage {:.3})",
        mid.coverage
    );
}

#[test]
fn planner_chosen_plans_match_forced_plans_on_the_large_corpus() {
    // Answers are plan-independent; the planner only picks the cheapest.
    let workload = Workload::scale_free_large(7);
    let evaluator = BatchEvaluator::from_csr(&CsrGraph::from_graph(&workload.graph));
    let label = |name: &str| workload.graph.label_id(name).unwrap();
    let queries = [
        Regex::symbol(label("a5")),
        Regex::concat([Regex::symbol(label("a1")), Regex::symbol(label("a2"))]),
        Regex::star(Regex::symbol(label("a0"))),
    ];
    for regex in &queries {
        let dfa = Dfa::from_regex(regex);
        let chosen = evaluator.evaluate(&dfa);
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            let forced = evaluator.clone().with_plan(plan).evaluate(&dfa);
            assert_eq!(chosen, forced, "{plan:?}");
        }
    }
}
