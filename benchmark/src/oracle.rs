//! The independent oracle: answers the system gives are re-derived here, on
//! graphs the publish machinery never touched.  All of it runs outside the
//! timed sections.

use gps_exec::BatchEvaluator;
use gps_graph::{CsrGraph, Graph};
use gps_learner::LearnedQuery;
use gps_rpq::{DfaEvaluator, NaiveEvaluator, PathQuery, QueryAnswer};
use std::collections::HashMap;
use std::sync::Arc;

/// Above this many nodes a node-at-a-time evaluation costs most of a second
/// per query, and a from-scratch check is evaluated by a cold frontier
/// engine instead; the sampled cold evaluations still face the naive one.
pub const NAIVE_NODE_LIMIT: usize = 100_000;

/// Rebuilds `snapshot` from nothing but its node names and edges: a fresh
/// `Graph` filled in id order, then packed.  Whatever `DeltaGraph::compact`
/// and the index patch did to reach `snapshot` plays no part.
pub fn rebuild_from_edges(snapshot: &CsrGraph) -> CsrGraph {
    let mut graph = Graph::with_capacity(snapshot.node_count(), snapshot.edge_count());
    let labels: Vec<_> = snapshot
        .labels()
        .iter()
        .map(|(_, name)| graph.label(name))
        .collect();
    for node in snapshot.nodes() {
        graph.add_node(snapshot.node_name(node));
    }
    for node in snapshot.nodes() {
        for entry in snapshot.out(node) {
            graph.add_edge(node, labels[entry.label.raw() as usize], entry.node);
        }
    }
    CsrGraph::from_graph(&graph)
}

/// Answers queries on one graph with an evaluator built here.
pub struct Judge {
    graph: Arc<CsrGraph>,
    evaluator: Box<dyn DfaEvaluator>,
    /// Goal answers are memoized: the Zipf sampler repeats popular goals.
    goals: HashMap<String, QueryAnswer>,
}

impl Judge {
    /// A naive evaluator over `graph` itself: the judge of sessions and cold
    /// evaluations on the epoch they ran on.
    pub fn naive(graph: Arc<CsrGraph>) -> Self {
        Self {
            evaluator: Box::new(NaiveEvaluator::from_shared(Arc::clone(&graph))),
            graph,
            goals: HashMap::new(),
        }
    }

    /// A from-scratch build of `published`'s edges with a cold evaluator
    /// over it: the judge of answers migrated across a publish.
    pub fn from_scratch(published: &CsrGraph) -> Self {
        let graph = Arc::new(rebuild_from_edges(published));
        let evaluator: Box<dyn DfaEvaluator> = if graph.node_count() <= NAIVE_NODE_LIMIT {
            Box::new(NaiveEvaluator::from_shared(Arc::clone(&graph)))
        } else {
            Box::new(BatchEvaluator::from_csr(&graph))
        };
        Self {
            graph,
            evaluator,
            goals: HashMap::new(),
        }
    }

    pub fn answer(&self, syntax: &str) -> QueryAnswer {
        let query = PathQuery::parse(syntax, self.graph.labels())
            .expect("the oracle is only asked about generated queries");
        self.evaluator.evaluate_dfa(query.dfa())
    }

    /// Whether `learned` selects exactly the answer set of `goal`.
    pub fn reached(&mut self, goal: &str, learned: Option<&LearnedQuery>) -> bool {
        let Some(learned) = learned else {
            return false;
        };
        if !self.goals.contains_key(goal) {
            let answer = self.answer(goal);
            self.goals.insert(goal.to_string(), answer);
        }
        self.evaluator.evaluate_dfa(&learned.dfa) == self.goals[goal]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{DeltaGraph, UpdateOp};

    #[test]
    fn a_rebuild_carries_exactly_the_published_edges() {
        let mut graph = Graph::new();
        let (a, b) = (graph.label("a0"), graph.label("a1"));
        let nodes: Vec<_> = (0..4).map(|i| graph.add_node(format!("v{i}"))).collect();
        graph.add_edge(nodes[0], a, nodes[1]);
        graph.add_edge(nodes[1], b, nodes[2]);
        let mut overlay = DeltaGraph::new(Arc::new(CsrGraph::from_graph(&graph)));
        overlay
            .apply_all(&[
                UpdateOp::AddEdge {
                    source: "v2".into(),
                    label: "live".into(),
                    target: "v3".into(),
                },
                UpdateOp::RemoveEdge {
                    source: "v0".into(),
                    label: "a0".into(),
                    target: "v1".into(),
                },
            ])
            .unwrap();
        let judge = Judge::from_scratch(&overlay.compact());
        assert_eq!(judge.graph.node_count(), 4);
        assert_eq!(judge.graph.edge_count(), 2);
        assert_eq!(judge.answer("a1.live").nodes(), vec![nodes[1]]);
        assert!(judge.answer("a0").is_empty());
    }
}
