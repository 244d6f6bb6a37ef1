//! `repro` — prints the paper's experiments as fixed-width tables on stdout.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p gps-bench --bin repro              # all experiments
//! cargo run --release -p gps-bench --bin repro -- --experiment e1
//! ```
//!
//! Experiments: `f1` (Figure 1 answer), `e1` (interactions vs strategy),
//! `e2` (strategy latency), `e3` (learning time), `e4` (pruning), `e5`
//! (RPQ throughput), `a1` (path-validation ablation), `a2` (radius
//! ablation).

use gps_bench::{goal_reached, row, run_session, strategies};
use gps_core::Engine;
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_datasets::synthetic::{self, SyntheticConfig};
use gps_datasets::transport::{self, TransportConfig};
use gps_datasets::Workload;
use gps_graph::CsrGraph;
use gps_interactive::session::SessionConfig;
use gps_learner::characteristic::partial_sample;
use gps_learner::Learner;
use gps_rpq::{EvalHandle, NegativeCoverage, PathQuery};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let selected = args
        .iter()
        .position(|a| a == "--experiment")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());
    let run = |name: &str| selected.as_deref().map(|s| s == name).unwrap_or(true);

    if run("f1") {
        experiment_f1();
    }
    if run("e1") {
        experiment_e1();
    }
    if run("e2") {
        experiment_e2();
    }
    if run("e3") {
        experiment_e3();
    }
    if run("e4") {
        experiment_e4();
    }
    if run("e5") {
        experiment_e5();
    }
    if run("a1") {
        experiment_a1();
    }
    if run("a2") {
        experiment_a2();
    }
}

/// F1 — the Figure 1 motivating query answer and witness paths.
fn experiment_f1() {
    println!("== F1: Figure 1 motivating query ==");
    let (graph, _) = figure1_graph();
    let gps = Engine::builder(graph).build();
    println!("q = {MOTIVATING_QUERY}");
    println!(
        "q(G) = {}",
        gps.evaluate_rendered(MOTIVATING_QUERY).unwrap()
    );
    let query = gps.parse_query(MOTIVATING_QUERY).unwrap();
    for name in ["N1", "N2", "N4", "N6"] {
        let node = gps.snapshot().node_by_name(name).unwrap();
        let witness = query.witness(gps.snapshot(), node).unwrap();
        println!(
            "  witness({name}) = {}",
            witness.render_word(gps.snapshot())
        );
    }
    println!();
}

/// E1 — interactions to convergence per strategy and graph size.
fn experiment_e1() {
    println!("== E1: interactions to convergence (goal = tram*.cinema) ==");
    let widths = [14, 10, 18, 14, 14, 12];
    println!(
        "{}",
        row(
            &[
                "graph".into(),
                "|V|".into(),
                "strategy".into(),
                "interactions".into(),
                "zooms".into(),
                "goal".into()
            ],
            &widths
        )
    );
    for neighborhoods in [20usize, 50, 100, 200] {
        let net = transport::generate(&TransportConfig::with_neighborhoods(neighborhoods, 3));
        let graph = CsrGraph::from_graph(&net.graph);
        let goal = PathQuery::parse("tram*.cinema", graph.labels()).unwrap();
        for (name, mut strategy) in strategies(1) {
            let outcome = run_session(&graph, &goal, strategy.as_mut(), SessionConfig::default());
            println!(
                "{}",
                row(
                    &[
                        format!("transport-{neighborhoods}"),
                        graph.node_count().to_string(),
                        name.to_string(),
                        outcome.stats.interactions.to_string(),
                        outcome.stats.zooms.to_string(),
                        goal_reached(&graph, &goal, &outcome).to_string(),
                    ],
                    &widths
                )
            );
        }
    }
    println!();
}

/// E2 — mean system time per interaction per strategy.
fn experiment_e2() {
    println!("== E2: per-interaction system latency ==");
    let widths = [14, 18, 14, 22, 22];
    println!(
        "{}",
        row(
            &[
                "graph".into(),
                "strategy".into(),
                "interactions".into(),
                "mean time / step".into(),
                "max time / step".into()
            ],
            &widths
        )
    );
    for neighborhoods in [50usize, 200] {
        let net = transport::generate(&TransportConfig::with_neighborhoods(neighborhoods, 5));
        let graph = CsrGraph::from_graph(&net.graph);
        let goal = PathQuery::parse("(tram+bus)*.cinema", graph.labels()).unwrap();
        for (name, mut strategy) in strategies(2) {
            let outcome = run_session(&graph, &goal, strategy.as_mut(), SessionConfig::default());
            println!(
                "{}",
                row(
                    &[
                        format!("transport-{neighborhoods}"),
                        name.to_string(),
                        outcome.stats.interactions.to_string(),
                        format!("{:?}", outcome.stats.mean_interaction_time()),
                        format!("{:?}", outcome.stats.max_interaction_time),
                    ],
                    &widths
                )
            );
        }
    }
    println!();
}

/// E3 — learning time vs number of examples and goal complexity.
fn experiment_e3() {
    println!("== E3: learning time ==");
    let widths = [26, 12, 16];
    println!(
        "{}",
        row(
            &["goal".into(), "examples".into(), "learn time".into()],
            &widths
        )
    );
    let net = transport::generate(&TransportConfig::with_neighborhoods(100, 5));
    let graph = CsrGraph::from_graph(&net.graph);
    let learner = Learner::default();
    for syntax in ["cinema", "tram*.cinema", "(tram+bus)*.cinema"] {
        let goal = PathQuery::parse(syntax, graph.labels()).unwrap();
        for examples_count in [4usize, 16, 64] {
            let sample = partial_sample(&graph, &goal, examples_count / 2, examples_count / 2);
            // A fresh stack whose word index is built before the clock
            // starts, as a session's is: the learner is what is timed.
            let exec = EvalHandle::naive(&graph);
            let index = exec.bounded_words(learner.path_bound);
            let started = Instant::now();
            let coverage = NegativeCoverage::from_index(&index, sample.negatives());
            let result = learner.learn_with(&graph, &sample, &coverage, &exec);
            let elapsed = started.elapsed();
            let status = if result.is_ok() { "" } else { " (error)" };
            println!(
                "{}{}",
                row(
                    &[
                        syntax.to_string(),
                        sample.len().to_string(),
                        format!("{elapsed:?}"),
                    ],
                    &widths
                ),
                status
            );
        }
    }
    println!();
}

/// E4 — pruning effectiveness over the course of a session.
fn experiment_e4() {
    println!("== E4: pruning effectiveness ==");
    let widths = [14, 14, 18, 20];
    println!(
        "{}",
        row(
            &[
                "graph".into(),
                "interactions".into(),
                "pruned (final)".into(),
                "pruned fraction".into()
            ],
            &widths
        )
    );
    for neighborhoods in [50usize, 100, 200] {
        let net = transport::generate(&TransportConfig::with_neighborhoods(neighborhoods, 11));
        let graph = CsrGraph::from_graph(&net.graph);
        let goal = PathQuery::parse("(tram+bus)*.cinema", graph.labels()).unwrap();
        let mut strategy = strategies(1).remove(0).1;
        let outcome = run_session(&graph, &goal, strategy.as_mut(), SessionConfig::default());
        let final_pruned = outcome
            .stats
            .pruned_after_interaction
            .last()
            .copied()
            .unwrap_or(0);
        println!(
            "{}",
            row(
                &[
                    format!("transport-{neighborhoods}"),
                    outcome.stats.interactions.to_string(),
                    final_pruned.to_string(),
                    format!(
                        "{:.2}",
                        outcome.stats.final_pruned_fraction(graph.node_count())
                    ),
                ],
                &widths
            )
        );
    }
    println!();
}

/// E5 — RPQ evaluation throughput.
fn experiment_e5() {
    println!("== E5: RPQ evaluation throughput ==");
    let widths = [16, 10, 10, 26, 16];
    println!(
        "{}",
        row(
            &[
                "graph".into(),
                "|V|".into(),
                "|E|".into(),
                "query".into(),
                "eval time".into()
            ],
            &widths
        )
    );
    for nodes in [100usize, 500, 2000] {
        let graph = synthetic::generate(&SyntheticConfig::with_nodes(nodes, 7));
        let query = PathQuery::parse("(a0+a1)*.a2", graph.labels()).unwrap();
        let csr = CsrGraph::from_graph(&graph);
        let started = Instant::now();
        let iterations = 20;
        for _ in 0..iterations {
            std::hint::black_box(query.evaluate(&csr));
        }
        let elapsed = started.elapsed() / iterations;
        println!(
            "{}",
            row(
                &[
                    format!("synthetic-{nodes}"),
                    graph.node_count().to_string(),
                    graph.edge_count().to_string(),
                    "(a0+a1)*.a2".to_string(),
                    format!("{elapsed:?}"),
                ],
                &widths
            )
        );
    }
    println!();
}

/// A1 — ablation: with vs. without path validation.
///
/// Two measures per mode: does the learned query select the same nodes as the
/// goal on the instance (`ans`), and is it *language-equivalent* to the goal
/// (`lang`)?  The paper's point is that without validation the learned query
/// is consistent but not necessarily the intended one — which shows up as
/// `lang = false` while `ans` may still be true.
fn experiment_a1() {
    println!("== A1: path-validation ablation (answer match / language equivalence) ==");
    let widths = [18, 28, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &[
                "workload".into(),
                "goal".into(),
                "ans+val".into(),
                "lang+val".into(),
                "ans-val".into(),
                "lang-val".into()
            ],
            &widths
        )
    );
    let workloads = [Workload::figure1(), Workload::transport(30, 21)];
    for workload in &workloads {
        let graph = CsrGraph::from_graph(&workload.graph);
        let alphabet = gps_automata::Alphabet::from_interner(graph.labels());
        for goal in &workload.queries.queries {
            if goal.evaluate(&graph).is_empty() {
                continue;
            }
            let measure = |config: SessionConfig| {
                let mut strategy = strategies(1).remove(0).1;
                let outcome = run_session(&graph, goal, strategy.as_mut(), config);
                let ans = goal_reached(&graph, goal, &outcome);
                let lang = outcome
                    .learned
                    .as_ref()
                    .map(|l| gps_automata::decide::equivalent(&l.dfa, goal.dfa(), &alphabet))
                    .unwrap_or(false);
                (ans, lang)
            };
            let (ans_with, lang_with) = measure(SessionConfig::default());
            let (ans_without, lang_without) = measure(SessionConfig::without_path_validation());
            println!(
                "{}",
                row(
                    &[
                        workload.name.clone(),
                        goal.display(graph.labels()),
                        ans_with.to_string(),
                        lang_with.to_string(),
                        ans_without.to_string(),
                        lang_without.to_string(),
                    ],
                    &widths
                )
            );
        }
    }
    println!();
}

/// A2 — ablation: initial neighborhood radius vs interactions and zooms.
fn experiment_a2() {
    println!("== A2: initial-radius ablation ==");
    let widths = [18, 10, 14, 10, 10];
    println!(
        "{}",
        row(
            &[
                "graph".into(),
                "radius".into(),
                "interactions".into(),
                "zooms".into(),
                "goal".into()
            ],
            &widths
        )
    );
    let net = transport::generate(&TransportConfig::with_neighborhoods(50, 9));
    let graph = CsrGraph::from_graph(&net.graph);
    let goal = PathQuery::parse("tram*.cinema", graph.labels()).unwrap();
    for radius in [1u32, 2, 3] {
        let config = SessionConfig {
            initial_radius: radius,
            ..SessionConfig::default()
        };
        let mut strategy = strategies(1).remove(0).1;
        let outcome = run_session(&graph, &goal, strategy.as_mut(), config);
        println!(
            "{}",
            row(
                &[
                    "transport-50".into(),
                    radius.to_string(),
                    outcome.stats.interactions.to_string(),
                    outcome.stats.zooms.to_string(),
                    goal_reached(&graph, &goal, &outcome).to_string(),
                ],
                &widths
            )
        );
    }
    println!();
}
