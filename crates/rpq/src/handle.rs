//! A shared handle to one evaluation stack.
//!
//! An interactive session touches the evaluator from many places — the
//! simulated user computes the goal answer, the learner re-checks every new
//! hypothesis, the pruning state reads the word index for the nodes spelling
//! newly covered words, witnesses are extracted for proposed nodes.
//! [`EvalHandle`] is a cheaply cloneable pointer to one [`EvalCache`] — and
//! through it to the configured evaluator and the [`gps_graph::CsrGraph`]
//! snapshot it serves — so all of those call sites share a single cache,
//! evaluator and snapshot per engine instead of re-evaluating or
//! re-snapshotting ad hoc.  It derefs to the cache: `handle.evaluate(..)`,
//! `handle.csr()` and `handle.bounded_words(..)` are the cache's methods.
//!
//! [`EvalCache::bounded_words`] is the one place production code reads a
//! node's bounded words: pruning, the strategy's scores, negative coverage,
//! validation prompts and path selection all go through it, at the one path
//! bound of the engine.  Its node ids are the handle's snapshot's, so a
//! session reads its graph from its handle.  The three entry points that
//! still take a graph beside the handle check it with
//! [`EvalHandle::assert_serves`], and no read site falls back to enumerating
//! paths.

use crate::cache::EvalCache;
use gps_graph::CsrGraph;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable handle to a shared evaluation cache + evaluator.
///
/// Cloning shares the underlying [`EvalCache`]; every clone sees the same
/// cached answers and drives the same evaluator (and therefore the same
/// graph snapshot and any engine-internal index).
#[derive(Debug, Clone)]
pub struct EvalHandle {
    cache: Arc<EvalCache>,
}

impl EvalHandle {
    /// A handle over the reference node-at-a-time evaluator on `graph` (a
    /// clone sharing its storage).  This is what a bare
    /// [`Session`](../gps_interactive) runs with when no engine provides a
    /// handle.
    pub fn naive(graph: &CsrGraph) -> Self {
        Self::from_cache(Arc::new(EvalCache::from_csr(graph.clone())))
    }

    /// Wraps an existing shared cache (the engine's).
    pub fn from_cache(cache: Arc<EvalCache>) -> Self {
        Self { cache }
    }

    /// Panics unless `graph` is this handle's snapshot or a clone of it
    /// ([`CsrGraph::is_same_snapshot`]): a separate build of the same size
    /// and epoch is another graph.  The message names both `(epoch,
    /// node_count)` pairs.
    #[track_caller]
    pub fn assert_serves(&self, graph: &CsrGraph) {
        let csr = self.cache.csr();
        assert!(
            csr.is_same_snapshot(graph),
            "the evaluation handle serves (epoch, node_count) = {:?}, \
             but the graph is {:?} or a separate build",
            (csr.epoch(), csr.node_count()),
            (graph.epoch(), graph.node_count()),
        );
    }
}

impl Deref for EvalHandle {
    type Target = EvalCache;

    fn deref(&self) -> &EvalCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_automata::{Dfa, Regex};
    use gps_graph::Graph;

    /// N2 -bus-> N1 -tram-> N4 -cinema-> C1, N2 -restaurant-> R1.
    fn chain() -> CsrGraph {
        let mut g = Graph::new();
        let n2 = g.add_node("N2");
        let n1 = g.add_node("N1");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        let r1 = g.add_node("R1");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        g.add_edge_by_name(n2, "restaurant", r1);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn clones_share_one_cache() {
        let g = chain();
        let handle = EvalHandle::naive(&g);
        let other = handle.clone();
        let cinema = g.label_id("cinema").unwrap();
        handle.evaluate(&Regex::symbol(cinema));
        other.evaluate(&Regex::symbol(cinema));
        assert_eq!(handle.stats(), (1, 1), "second call is a hit");
        assert!(std::ptr::eq(&*handle, &*other));
    }

    #[test]
    fn evaluate_compiled_hits_the_same_entry() {
        let g = chain();
        let handle = EvalHandle::naive(&g);
        let cinema = g.label_id("cinema").unwrap();
        let regex = Regex::symbol(cinema);
        let dfa = Dfa::from_regex(&regex);
        let a = handle.evaluate_compiled(&regex, &dfa);
        let b = handle.evaluate(&regex);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(handle.stats(), (1, 1));
    }

    #[test]
    fn witness_and_selects_route_through_the_evaluator() {
        let g = chain();
        let handle = EvalHandle::naive(&g);
        let q = crate::PathQuery::parse("bus.tram.cinema", g.labels()).unwrap();
        let n2 = g.node_by_name("N2").unwrap();
        let c1 = g.node_by_name("C1").unwrap();
        assert!(handle.evaluator().selects_node(q.dfa(), n2));
        assert!(!handle.evaluator().selects_node(q.dfa(), c1));
        let path = handle.witness(q.dfa(), n2).unwrap();
        assert_eq!(path.len(), 3);
        assert!(handle.witness(q.dfa(), c1).is_none());
    }

    #[test]
    #[should_panic(expected = "or a separate build")]
    fn a_separate_build_of_the_same_graph_is_not_served() {
        let g = chain();
        let handle = EvalHandle::naive(&g);
        handle.assert_serves(&g.clone());
        // The same epoch and node count, other storage.
        handle.assert_serves(&chain());
    }
}
