//! # gps-exec — frontier-based RPQ execution
//!
//! The interactive layers of GPS evaluate the *same graph* against *many*
//! queries: the learner's consistency checks, the simulated user's goal
//! answers, witnesses and the benchmark workloads all funnel
//! through RPQ evaluation.  This crate is the set-at-a-time execution engine
//! for that traffic, over [`gps_graph::CsrGraph`] snapshots:
//!
//! * [`bitset::FixedBitSet`] — the per-state node sets (alive, frontier and
//!   its staging double), one bit per node;
//! * [`index::LabelIndex`] — label-partitioned forward + reverse CSR with
//!   one occupancy bit per row and offsets for the occupied rows only (a
//!   row is found by its occupancy word's rank plus a popcount), cut into
//!   `Arc`-shared chunks of
//!   [`index::CHUNK_ROWS`] rows, built once per graph, patched per update
//!   by rebuilding only the chunks the update touches, and shared by every
//!   query and every clone of the evaluator;
//! * [`frontier`] — the semi-naive product-automaton fixed point sweeping
//!   whole frontiers per DFA transition — only the rows a label has edges
//!   in — in push (reverse), pull (forward) or per-round adaptive mode; a
//!   capturing evaluation packs the per-state alive sets it swept in as its
//!   resumable seed;
//! * [`planner`] — picks the expansion [`Plan`] per query from the label
//!   index's per-label edge counts;
//! * [`batch::BatchEvaluator`] — the public engine: single and sequential
//!   batch evaluation, resumes across a delta, membership checks and
//!   witnesses, pluggable into the `gps-rpq` cache (and thus the whole
//!   `gps-core` engine) through the [`gps_rpq::DfaEvaluator`] trait.
//!
//! There is one execution path, one query at a time: every plan, the batch
//! and the resume across a delta are differentially tested to be
//! answer-identical to the naive node-at-a-time evaluator in
//! `gps_rpq::eval`, which exists as that oracle.
//!
//! ## Example
//!
//! ```
//! use gps_exec::BatchEvaluator;
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
//! let engine = BatchEvaluator::from_csr(&CsrGraph::from_graph(&g));
//! let q = PathQuery::parse("tram*.cinema", g.labels()).unwrap();
//! let answer = engine.evaluate_query(&q);
//! assert!(answer.contains(n1));
//! assert!(!answer.contains(c1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bitset;
pub mod frontier;
pub mod index;
pub mod metrics;
pub mod planner;

pub use batch::BatchEvaluator;
pub use bitset::FixedBitSet;
pub use index::{Direction, LabelIndex, RowChunk, Rows};
pub use metrics::ExecMetrics;
pub use planner::{Plan, PlanDecision, PlannerConfig};
