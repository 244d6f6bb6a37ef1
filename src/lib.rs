//! # gps — interactive graph path query specification
//!
//! Umbrella crate for the GPS workspace (a reproduction of "Interactive
//! path query specification on graph databases", EDBT 2015, grown into a
//! regular-path-query system).  It re-exports the [`prelude`] and the
//! individual layer crates so binaries and examples can depend on a single
//! crate.
//!
//! See the README for a quickstart, or jump straight to
//! [`gps_core::Engine`] — the builder-style facade over every layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gps_automata as automata;
pub use gps_core as core;
pub use gps_datasets as datasets;
pub use gps_exec as exec;
pub use gps_graph as graph;
pub use gps_interactive as interactive;
pub use gps_learner as learner;
pub use gps_rpq as rpq;
pub use gps_store as store;

/// The most common imports, re-exported from [`gps_core::prelude`].
pub mod prelude {
    pub use gps_core::prelude::*;
}
