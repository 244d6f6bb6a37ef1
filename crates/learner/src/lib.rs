//! # gps-learner — learning path queries from node examples
//!
//! The learning algorithm of the GPS paper (detailed in its companion
//! research paper "Learning path queries on graph databases", EDBT 2015)
//! constructs a path query consistent with a set of positively and negatively
//! labeled nodes in two steps:
//!
//! 1. **Path selection** — for each positive node, pick a path that is not
//!    covered by any negative node (the user may override this choice during
//!    path validation);
//! 2. **Generalization** — build the prefix-tree acceptor of the selected
//!    paths and merge states (RPNI order) as long as no word of a negative
//!    node becomes accepted.
//!
//! The result is a DFA, converted back to a regular expression for display.
//!
//! Modules:
//! * [`examples`] — labeled example sets;
//! * [`consistency`] — consistency of queries with example sets;
//! * [`path_selection`] — smallest-uncovered-path selection;
//! * [`merge`] — RPNI-style state merging guarded by negative words;
//! * [`learn`] — the end-to-end learner;
//! * [`characteristic`] — characteristic samples for a goal query (the
//!   examples that guarantee exact recovery);
//! * [`error`] — error types.
//!
//! ## Example
//!
//! ```
//! use gps_graph::{CsrGraph, Graph};
//! use gps_learner::{examples::ExampleSet, learn::Learner};
//!
//! // N2 -bus-> N1 -tram-> N4 -cinema-> C1;  N5 -restaurant-> R2
//! let mut g = Graph::new();
//! let n2 = g.add_node("N2");
//! let n1 = g.add_node("N1");
//! let n4 = g.add_node("N4");
//! let c1 = g.add_node("C1");
//! let n5 = g.add_node("N5");
//! let r2 = g.add_node("R2");
//! g.add_edge_by_name(n2, "bus", n1);
//! g.add_edge_by_name(n1, "tram", n4);
//! g.add_edge_by_name(n4, "cinema", c1);
//! g.add_edge_by_name(n5, "restaurant", r2);
//!
//! let mut examples = ExampleSet::new();
//! examples.add_positive(n2);
//! examples.add_positive(n4);
//! examples.add_negative(n5);
//!
//! let learned = Learner::default()
//!     .learn(&CsrGraph::from_graph(&g), &examples, 4)
//!     .unwrap();
//! // The learned query selects both positives and not the negative.
//! assert!(learned.answer.contains(n2));
//! assert!(learned.answer.contains(n4));
//! assert!(!learned.answer.contains(n5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characteristic;
pub mod consistency;
pub mod error;
pub mod examples;
pub mod learn;
pub mod merge;
pub mod metrics;
pub mod path_selection;

pub use error::LearnError;
pub use examples::{ExampleSet, Label};
pub use learn::{LearnedQuery, Learner};
