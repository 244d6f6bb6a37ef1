//! `gps-cli` — command-line front end for the GPS system.
//!
//! Usage:
//!
//! ```text
//! gps-cli evaluate  <graph.edges|--figure1> <query>
//! gps-cli witness   <graph.edges|--figure1> <query> <node>
//! gps-cli neighborhood <graph.edges|--figure1> <node> <radius>
//! gps-cli dot       <graph.edges|--figure1>
//! gps-cli interactive <graph.edges|--figure1> <goal-query> [--no-validation]
//! gps-cli stats     <graph.edges|--figure1>
//! ```
//!
//! Graphs are read from the edge-list format (`source label target` per
//! line); `--figure1` loads the paper's running example instead of a file.

use gps_core::Gps;
use gps_datasets::figure1::figure1_graph;
use gps_graph::{io, Graph};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  gps-cli evaluate     <graph.edges|--figure1> <query>
  gps-cli witness      <graph.edges|--figure1> <query> <node>
  gps-cli neighborhood <graph.edges|--figure1> <node> <radius>
  gps-cli dot          <graph.edges|--figure1>
  gps-cli interactive  <graph.edges|--figure1> <goal-query> [--no-validation]
  gps-cli stats        <graph.edges|--figure1>";

fn load_graph(spec: &str) -> Result<Graph, String> {
    if spec == "--figure1" {
        return Ok(figure1_graph().0);
    }
    io::read_edge_list_file(spec).map_err(|e| format!("cannot load {spec}: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let command = args.first().ok_or("missing command")?;
    match command.as_str() {
        "evaluate" => {
            let [graph_spec, query] = expect_args(args, 2)?;
            let gps = Gps::new(load_graph(graph_spec)?);
            gps.evaluate_rendered(query).map_err(|e| e.to_string())
        }
        "witness" => {
            let [graph_spec, query, node_name] = expect_args(args, 3)?;
            let graph = load_graph(graph_spec)?;
            let node = graph
                .node_by_name(node_name)
                .ok_or_else(|| format!("unknown node {node_name}"))?;
            let query =
                gps_rpq::PathQuery::parse(query, graph.labels()).map_err(|e| e.to_string())?;
            match query.witness(&graph, node) {
                Some(path) => Ok(format!(
                    "{} : {}",
                    path.nodes
                        .iter()
                        .map(|&n| graph.node_name(n))
                        .collect::<Vec<_>>()
                        .join(" -> "),
                    path.render_word(&graph)
                )),
                None => Ok(format!("{node_name} is not selected by the query")),
            }
        }
        "neighborhood" => {
            let [graph_spec, node_name, radius] = expect_args(args, 3)?;
            let graph = load_graph(graph_spec)?;
            let node = graph
                .node_by_name(node_name)
                .ok_or_else(|| format!("unknown node {node_name}"))?;
            let radius: u32 = radius.parse().map_err(|_| "radius must be a number")?;
            let gps = Gps::new(graph);
            Ok(gps.render_neighborhood(node, radius))
        }
        "dot" => {
            let [graph_spec] = expect_args(args, 1)?;
            let graph = load_graph(graph_spec)?;
            Ok(gps_graph::dot::graph_to_dot(&graph, "gps"))
        }
        "interactive" => {
            let graph_spec = args.get(1).ok_or("missing graph")?;
            let goal = args.get(2).ok_or("missing goal query")?;
            let with_validation = !args.iter().any(|a| a == "--no-validation");
            let gps = Gps::new(load_graph(graph_spec)?);
            let report = if with_validation {
                gps.interactive_with_validation(goal)
            } else {
                gps.interactive_without_validation(goal)
            }
            .map_err(|e| e.to_string())?;
            let mut out = String::new();
            out.push_str(&format!("scenario: {}\n", report.scenario));
            out.push_str(&format!("goal:     {}\n", report.goal));
            out.push_str(&format!(
                "learned:  {}\n",
                report.learned.clone().unwrap_or_else(|| "-".into())
            ));
            out.push_str(&format!("goal reached: {}\n\n", report.goal_reached));
            out.push_str(&report.transcript.render());
            Ok(out)
        }
        "stats" => {
            let [graph_spec] = expect_args(args, 1)?;
            let graph = load_graph(graph_spec)?;
            let mut out = gps_graph::stats::GraphStats::compute(&graph).summary();
            let label_stats = gps_graph::stats::LabelStats::compute(&graph);
            if !label_stats.per_label.is_empty() {
                out.push_str("\nper-label:");
                for line in label_stats.summary_lines(&graph) {
                    out.push_str("\n  ");
                    out.push_str(&line);
                }
            }
            Ok(out)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn expect_args<const N: usize>(args: &[String], count: usize) -> Result<[&str; N], String> {
    if args.len() < count + 1 {
        return Err(format!(
            "expected {count} argument(s) after the command, got {}",
            args.len().saturating_sub(1)
        ));
    }
    let mut out = [""; N];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = &args[i + 1];
    }
    Ok(out)
}
