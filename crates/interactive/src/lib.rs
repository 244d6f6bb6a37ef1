//! # gps-interactive — the interactive path-query specification protocol
//!
//! This crate implements the core of GPS (Figure 2 of the paper): the loop
//! that repeatedly proposes an informative node to the user, shows her its
//! neighborhood (zooming out on demand), records her positive/negative label,
//! optionally lets her validate the witness path in a prefix tree, re-learns
//! a candidate query, and refreshes the pruning — a negative label's newly
//! covered words lower the scores of the nodes spelling them, and the nodes
//! left with none are pruned as uninformative — until a halt condition is
//! met.
//!
//! Every piece — strategies, users, zooming, pruning and validation — reads
//! the immutable [`gps_graph::CsrGraph`] snapshot.
//!
//! * [`strategy`] — node-proposal strategies `Υ` (random, degree-based, and
//!   the informative-paths strategy of the paper);
//! * [`pruning`] — the uninformative-node pruning state;
//! * [`zoom`] — neighborhood zooming (Figure 3(a)/(b));
//! * [`validation`] — candidate-path selection and prefix-tree validation
//!   (Figure 3(c));
//! * [`user`] — the [`user::User`] trait and the simulated oracle user driven
//!   by a hidden goal query;
//! * [`halt`] — halt conditions;
//! * [`session`] — the session loop tying everything together;
//! * [`stats`] — per-session statistics (number of interactions, zooms,
//!   pruned nodes, …) used by the experiments.
//!
//! ## Example
//!
//! ```
//! use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
//! use gps_graph::CsrGraph;
//! use gps_interactive::session::{Session, SessionConfig};
//! use gps_interactive::strategy::InformativePathsStrategy;
//! use gps_interactive::user::SimulatedUser;
//! use gps_rpq::PathQuery;
//!
//! let graph = CsrGraph::from_graph(&figure1_graph().0);
//! let goal = PathQuery::parse(MOTIVATING_QUERY, graph.labels()).unwrap();
//! let mut user = SimulatedUser::new(goal.clone(), &graph);
//! let mut session = Session::new(&graph, SessionConfig::default());
//! let outcome = session.run(&mut InformativePathsStrategy, &mut user);
//! let learned = outcome.learned.expect("a query is learned");
//! // The learned query agrees with the goal on the whole graph.
//! assert_eq!(learned.answer.nodes(), goal.evaluate(&graph).nodes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod halt;
pub mod metrics;
pub mod pruning;
pub mod session;
pub mod stats;
pub mod strategy;
pub mod user;
pub mod validation;
pub mod zoom;

pub use halt::HaltReason;
pub use metrics::{PruningMetrics, SessionMetrics};
pub use session::{Session, SessionConfig, SessionOutcome};
pub use stats::SessionStats;
pub use strategy::{DegreeStrategy, InformativePathsStrategy, RandomStrategy, Strategy};
pub use user::{SimulatedUser, User, UserResponse};
