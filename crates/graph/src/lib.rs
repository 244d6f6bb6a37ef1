//! # gps-graph — edge-labeled directed graph substrate
//!
//! This crate provides the graph database model used by GPS ("Graph Path
//! query Specification", Bonifati, Ciucanu, Lemay — EDBT 2015): a directed
//! multigraph whose edges carry labels drawn from a finite alphabet and whose
//! nodes carry human-readable names.
//!
//! The crate is deliberately self-contained — it knows nothing about queries,
//! learning or interaction — and exposes exactly the primitives the rest of
//! the system needs:
//!
//! * [`Graph`] — the mutable ingest store (label interning, node naming,
//!   edge insertion) that loaders and generators fill;
//! * [`csr::CsrGraph`] — the immutable, cache-friendly snapshot every
//!   algorithm reads, stamped with a version
//!   [`epoch`](csr::CsrGraph::epoch), its adjacency held in node-range chunks
//!   that consecutive epochs share;
//! * [`delta::DeltaGraph`] — a mutable overlay (insertions + tombstoned
//!   deletions) over a shared snapshot; [`compact`](delta::DeltaGraph::compact)
//!   publishes the next epoch;
//! * [`splice::RowSplice`] — the offset bookkeeping of rebuilding packed CSR
//!   rows from bulk copies plus a few rewritten rows, shared by `compact` and
//!   the label-index patch in `gps-exec`;
//! * [`traversal`] — BFS distances and weakly connected components;
//! * [`neighborhood`] — the *k*-neighborhood subgraphs the user is shown
//!   (Figure 3(a)/(b) of the paper), including the frontier markers ("…")
//!   and the delta highlighting used when zooming out;
//! * [`paths`] — bounded-length path enumeration from a node, producing both
//!   label words and node sequences;
//! * [`prefix_tree`] — the prefix tree of a node's path words (Figure 3(c));
//! * [`io`] — edge-list and JSON (de)serialization;
//! * [`stats`] — degree and label distribution summaries.
//!
//! ## Example
//!
//! ```
//! use gps_graph::{CsrGraph, Graph};
//!
//! let mut g = Graph::new();
//! let n1 = g.add_node("N1");
//! let n4 = g.add_node("N4");
//! let c1 = g.add_node("C1");
//! let tram = g.label("tram");
//! let cinema = g.label("cinema");
//! g.add_edge(n1, tram, n4);
//! g.add_edge(n4, cinema, c1);
//!
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.edge_count(), 2);
//! assert_eq!(g.out_degree(n1), 1);
//!
//! // Snapshot once; every query layer reads the snapshot's rows.
//! let csr = CsrGraph::from_graph(&g);
//! assert_eq!((csr.node_count(), csr.edge_count()), (3, 2));
//! assert_eq!(csr.out(n1)[0].node, n4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod delta;
pub mod dot;
pub mod graph;
pub mod ids;
pub mod io;
pub mod labels;
mod names;
pub mod neighborhood;
pub mod paths;
pub mod prefix_tree;
pub mod splice;
pub mod stats;
pub mod traversal;

pub use csr::{CsrEntry, CsrGraph};
pub use delta::{DeltaGraph, GraphDelta, UpdateError, UpdateOp};
pub use graph::{Edge, Graph};
pub use ids::{EdgeId, LabelId, NodeId};
pub use labels::LabelInterner;
pub use neighborhood::{Neighborhood, NeighborhoodDelta};
pub use paths::{Path, PathEnumerator, Word, DEFAULT_MAX_PATHS};
pub use prefix_tree::{PrefixNodeId, PrefixTree};
pub use stats::{GraphStats, LabelStat, LabelStats};
