//! Goal-query workloads.
//!
//! The experiments sweep over goal queries of increasing structural
//! complexity (single label, concatenations, unions under a star — the shape
//! of the motivating query, and nested combinations).  Queries are built
//! against a graph's actual alphabet so they are always well-formed for that
//! graph.

use gps_automata::Regex;
use gps_graph::{Graph, LabelId};
use gps_rpq::PathQuery;

/// A named family of goal queries over a graph's alphabet.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    /// Name of the workload (used in experiment reports).
    pub name: String,
    /// The goal queries, in increasing structural size.
    pub queries: Vec<PathQuery>,
}

impl QueryWorkload {
    /// Number of queries in the workload.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` when the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// The first `count` labels of the graph's alphabet (fewer if the alphabet is
/// smaller).
fn first_labels(graph: &Graph, count: usize) -> Vec<LabelId> {
    graph.labels().ids().take(count).collect()
}

/// Builds the standard query workload of the experiments for `graph`:
///
/// 1. single label `a`
/// 2. concatenation `a·b`
/// 3. star-reachability `a*·b` (the shape of the motivating query with one
///    transport label)
/// 4. union under star `(a+b)*·c` (the motivating query itself)
/// 5. nested `(a·b)*·c + d` style query when the alphabet is large enough
pub fn standard_workload(graph: &Graph) -> QueryWorkload {
    let labels = first_labels(graph, 4);
    let mut queries = Vec::new();
    if labels.is_empty() {
        return QueryWorkload {
            name: "standard".to_string(),
            queries,
        };
    }
    let a = Regex::symbol(labels[0]);
    queries.push(PathQuery::new(a.clone()));
    if labels.len() >= 2 {
        let b = Regex::symbol(labels[1]);
        queries.push(PathQuery::new(Regex::concat([a.clone(), b.clone()])));
        queries.push(PathQuery::new(Regex::concat([
            Regex::star(a.clone()),
            b.clone(),
        ])));
    }
    if labels.len() >= 3 {
        let b = Regex::symbol(labels[1]);
        let c = Regex::symbol(labels[2]);
        queries.push(PathQuery::new(Regex::concat([
            Regex::star(Regex::union([a.clone(), b.clone()])),
            c.clone(),
        ])));
    }
    if labels.len() >= 4 {
        let b = Regex::symbol(labels[1]);
        let c = Regex::symbol(labels[2]);
        let d = Regex::symbol(labels[3]);
        queries.push(PathQuery::new(Regex::union([
            Regex::concat([Regex::star(Regex::concat([a, b])), c]),
            d,
        ])));
    }
    QueryWorkload {
        name: "standard".to_string(),
        queries,
    }
}

/// The transport-domain workload used against [`crate::transport`] networks:
/// variants of "reach a facility via public transportation".
pub fn transport_workload(graph: &Graph) -> QueryWorkload {
    let mut queries = Vec::new();
    let mut push = |syntax: &str| {
        if let Ok(q) = PathQuery::parse(syntax, graph.labels()) {
            queries.push(q);
        }
    };
    push("cinema");
    push("tram*.cinema");
    push("(tram+bus)*.cinema");
    push("(tram+bus)*.restaurant");
    push("bus.bus*.cinema");
    push("(tram+bus)*.(cinema+museum)");
    QueryWorkload {
        name: "transport".to_string(),
        queries,
    }
}

/// A multi-query *batch* workload of `count` structurally varied queries —
/// the input shape of the `gps-exec` batch entry points and of
/// the batch benchmarks.
///
/// Queries are generated deterministically by rotating through the graph's
/// alphabet and five structural templates (single label, concatenation,
/// star-reachability, union-under-star, starred suffix), so two calls with
/// the same graph and count produce identical workloads.
pub fn batch_workload(graph: &Graph, count: usize) -> QueryWorkload {
    let labels: Vec<LabelId> = graph.labels().ids().collect();
    let mut queries = Vec::with_capacity(count);
    if labels.is_empty() {
        return QueryWorkload {
            name: "batch".to_string(),
            queries,
        };
    }
    let symbol = |i: usize| Regex::symbol(labels[i % labels.len()]);
    for i in 0..count {
        let a = symbol(i);
        let b = symbol(i + 1);
        let c = symbol(i + 2);
        let regex = match i % 5 {
            0 => a,
            1 => Regex::concat([a, b]),
            2 => Regex::concat([Regex::star(a), b]),
            3 => Regex::concat([Regex::star(Regex::union([a, b])), c]),
            _ => Regex::concat([a, Regex::star(Regex::union([b, c]))]),
        };
        queries.push(PathQuery::new(regex));
    }
    QueryWorkload {
        name: "batch".to_string(),
        queries,
    }
}

/// The biological-domain workload used against [`crate::biological`]
/// networks: regulatory-chain queries.
pub fn biological_workload(graph: &Graph) -> QueryWorkload {
    let mut queries = Vec::new();
    let mut push = |syntax: &str| {
        if let Ok(q) = PathQuery::parse(syntax, graph.labels()) {
            queries.push(q);
        }
    };
    push("activates");
    push("activates.inhibits");
    push("binds*.activates");
    push("(activates+inhibits)*.catalyzes");
    push("expresses.(activates+inhibits)*");
    QueryWorkload {
        name: "biological".to_string(),
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biological::{self, BiologicalConfig};
    use crate::figure1::figure1_graph;
    use crate::transport::{self, TransportConfig};

    #[test]
    fn standard_workload_grows_with_alphabet() {
        let (g, _) = figure1_graph();
        let workload = standard_workload(&g);
        assert_eq!(workload.len(), 5, "figure 1 has a 4-label alphabet");
        assert!(!workload.is_empty());
        // Sizes are non-decreasing.
        let sizes: Vec<usize> = workload.queries.iter().map(|q| q.regex().size()).collect();
        for window in sizes.windows(2) {
            assert!(window[0] <= window[1]);
        }
    }

    #[test]
    fn standard_workload_on_small_alphabets() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge_by_name(a, "only", b);
        let workload = standard_workload(&g);
        assert_eq!(workload.len(), 1);
        let empty = standard_workload(&Graph::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn transport_workload_parses_against_generated_networks() {
        let net = transport::generate(&TransportConfig::default());
        let workload = transport_workload(&net.graph);
        assert!(workload.len() >= 5);
        // The motivating query is part of the workload and satisfiable.
        let satisfiable = workload
            .queries
            .iter()
            .filter(|q| !q.evaluate(&net.graph).is_empty())
            .count();
        assert!(satisfiable >= 3);
    }

    #[test]
    fn biological_workload_parses_against_generated_networks() {
        let g = biological::generate(&BiologicalConfig::default());
        let workload = biological_workload(&g);
        assert_eq!(workload.len(), 5);
        assert_eq!(workload.name, "biological");
    }

    #[test]
    fn batch_workload_is_deterministic_and_sized() {
        let (g, _) = figure1_graph();
        let w1 = batch_workload(&g, 12);
        let w2 = batch_workload(&g, 12);
        assert_eq!(w1.len(), 12);
        for (a, b) in w1.queries.iter().zip(&w2.queries) {
            assert_eq!(a.regex(), b.regex());
        }
        // Structural variety: more than one distinct regex shape.
        let distinct: std::collections::BTreeSet<String> =
            w1.queries.iter().map(|q| q.display(g.labels())).collect();
        assert!(distinct.len() >= 5, "got {distinct:?}");
        assert!(batch_workload(&Graph::new(), 4).is_empty());
    }

    #[test]
    fn figure1_supports_transport_workload_subset() {
        let (g, _) = figure1_graph();
        let workload = transport_workload(&g);
        // "museum" is not in Figure 1's alphabet, so that query is skipped.
        assert_eq!(workload.len(), 5);
    }
}
