//! # gps-core — the GPS system
//!
//! GPS ("a system for interactive Graph Path query Specification") assists a
//! non-expert user in specifying a path query — a regular expression over
//! edge labels — on a graph database, by interactively labeling nodes as
//! positive or negative examples on small, easy-to-visualize fragments of
//! the graph.  This crate ties the substrates together behind one
//! builder-style facade:
//!
//! * [`Engine`] — the system bound to one graph: an immutable
//!   [`gps_graph::CsrGraph`] snapshot, the label-indexed frontier evaluator
//!   and the bounded evaluation cache, each held once and shared by every
//!   clone and session.  Evaluate queries, render neighborhoods and prefix
//!   trees, run interactive sessions and the three demonstration scenarios;
//! * [`GpsBuilder`] — one place to choose the node-proposal strategy, the
//!   halt conditions, the zoom/validation options and the cache capacity;
//! * [`GpsError`] — the typed error unifying the per-layer error enums;
//! * [`render`] — the textual "visualization" layer standing in for the demo
//!   GUI (Figure 3(a)–(c) of the paper);
//! * [`scenario`] — the three demonstration scenarios;
//! * [`service`] — the multi-session layer: one engine (a clone is a
//!   handle) served by [`service::SessionManager`], a session table whose
//!   `serve` fans a goal batch out across worker threads;
//! * [`versioned`] — live updates: [`VersionedStore`] publishes
//!   epoch-stamped snapshots (staged [`GraphUpdate`]s → delta-patched index
//!   and cache) while in-flight sessions stay pinned to their birth epoch;
//! * [`transcript`] — serializable session transcripts;
//! * [`prelude`] — one `use gps_core::prelude::*;` for the common types.
//!
//! ## Quickstart
//!
//! ```
//! use gps_core::prelude::*;
//! use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
//!
//! let (graph, ids) = figure1_graph();
//!
//! // Build the engine with explicit options.
//! let engine = Engine::builder(graph)
//!     .strategy(StrategyChoice::InformativePaths)
//!     .initial_radius(2)
//!     .build();
//!
//! // Evaluate the motivating query of the paper.
//! let answer = engine.evaluate(MOTIVATING_QUERY).unwrap();
//! assert!(answer.contains(ids.n2));
//!
//! // Run the full interactive scenario against a simulated user who has the
//! // motivating query in mind.
//! let report = engine.interactive_with_validation(MOTIVATING_QUERY).unwrap();
//! assert!(report.goal_reached);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
mod metrics;
pub mod render;
pub mod scenario;
pub mod service;
pub mod transcript;
pub mod versioned;

pub use engine::{Engine, EngineCore, EvalMode, GpsBuilder, StrategyChoice};
pub use error::GpsError;
pub use scenario::{ScenarioReport, StaticLabelingOutcome};
pub use service::{GpsService, ServiceStats, SessionId, SessionManager, SessionStatus};
pub use transcript::Transcript;
pub use versioned::{
    CheckpointPolicy, DurabilityReport, GraphUpdate, PublishPhases, PublishReport, RecoveryReport,
    VersionedStore,
};

/// The zero-dependency metrics/tracing layer (`gps-telemetry`), re-exported
/// so deployments can build a [`gps_telemetry::MetricsRegistry`] for
/// [`GpsBuilder::metrics`] without naming the crate themselves.
pub use gps_telemetry as telemetry;

/// The most common imports in one place.
///
/// ```
/// use gps_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::engine::{Engine, EngineCore, GpsBuilder, StrategyChoice};
    pub use crate::error::GpsError;
    pub use crate::scenario::{ScenarioReport, StaticLabelingOutcome};
    pub use crate::service::{ServiceStats, SessionId, SessionManager, SessionStatus};
    pub use crate::transcript::Transcript;
    pub use crate::versioned::{
        CheckpointPolicy, DurabilityReport, GraphUpdate, PublishPhases, PublishReport,
        RecoveryReport, VersionedStore,
    };
    pub use gps_exec::{BatchEvaluator, Plan, PlannerConfig};
    pub use gps_graph::{
        CsrGraph, Edge, EdgeId, Graph, LabelId, LabelInterner, LabelStats, Neighborhood,
        NeighborhoodDelta, NodeId, Path, PathEnumerator, PrefixTree, Word,
    };
    pub use gps_interactive::halt::{HaltConfig, HaltReason};
    pub use gps_interactive::session::{Session, SessionConfig, SessionOutcome};
    pub use gps_interactive::strategy::{
        DegreeStrategy, InformativePathsStrategy, RandomStrategy, Strategy, StrategyContext,
    };
    pub use gps_interactive::user::{ScriptedUser, SimulatedUser, User, UserResponse};
    pub use gps_learner::{ExampleSet, Label, LearnedQuery, Learner};
    pub use gps_rpq::{
        EvalCache, EvalHandle, MigrationReport, NegativeCoverage, PathQuery, QueryAnswer,
    };
    pub use gps_store::{FileStore, GraphStore, MemoryStore};
    pub use gps_telemetry::{MetricsRegistry, MetricsSnapshot};
}
