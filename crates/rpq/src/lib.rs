//! # gps-rpq — regular path query evaluation
//!
//! A *path query* selects the nodes of an edge-labeled graph that have at
//! least one outgoing path spelling a word of a regular language (the
//! semantics of the GPS paper).  This crate evaluates such queries:
//!
//! * [`PathQuery`] — a compiled query: the regular expression plus its
//!   minimal DFA;
//! * [`eval`] — the product-graph evaluator computing the set of selected
//!   nodes (and per-node checks);
//! * [`witness`] — extraction of a shortest witness path for a selected
//!   node, used by the interactive layer when it proposes a candidate path;
//! * [`coverage`] — the "covered by a negative example" test that drives the
//!   paper's notion of informative nodes;
//! * [`cache`] — a concurrent memoization layer for repeated evaluations of
//!   the same query during an interactive session;
//! * [`words`] — the interned bounded-word index: every node's distinct short
//!   words and, per word, the nodes spelling it;
//! * [`handle`] — a cheaply cloneable [`EvalHandle`] bundling the cache and
//!   its evaluator, threaded through sessions, learner and pruning so the
//!   whole interactive loop shares one evaluation stack.
//!
//! ## Example
//!
//! ```
//! use gps_graph::{CsrGraph, Graph};
//! use gps_rpq::PathQuery;
//!
//! let mut g = Graph::new();
//! let n1 = g.add_node("N1");
//! let n4 = g.add_node("N4");
//! let c1 = g.add_node("C1");
//! g.add_edge_by_name(n1, "tram", n4);
//! g.add_edge_by_name(n4, "cinema", c1);
//!
//! let q = PathQuery::parse("tram*.cinema", g.labels()).unwrap();
//! let answer = q.evaluate(&CsrGraph::from_graph(&g));
//! assert!(answer.contains(n1));
//! assert!(answer.contains(n4));
//! assert!(!answer.contains(c1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod cache;
pub mod coverage;
pub mod eval;
pub mod handle;
pub mod query;
pub mod witness;
pub mod words;

pub use blocks::BlockSharing;
pub use cache::{EvalCache, MigrationReport};
pub use coverage::NegativeCoverage;
pub use eval::{DfaEvaluator, EvalResume, NaiveEvaluator, QueryAnswer};
pub use handle::EvalHandle;
pub use query::PathQuery;
pub use words::{NodeWords, WordDict, WordIndex};
