//! # gps-automata — regular expressions and finite automata over edge labels
//!
//! Path queries in GPS are regular expressions over the graph's edge-label
//! alphabet: a node is selected when one of its outgoing paths spells a word
//! of the expression's language.  This crate provides the complete formal
//! machinery the query engine and the learner need:
//!
//! * [`Regex`] — the expression AST with smart constructors and algebraic
//!   simplification, plus a [`parser`] for the paper's concrete syntax
//!   (`(tram+bus)*·cinema`) and a [`printer`];
//! * [`Nfa`] — nondeterministic finite automata with ε-transitions, built
//!   from expressions by Thompson's construction;
//! * [`Dfa`] — deterministic automata obtained by subset construction
//!   ([`determinize`]) and reduced by partition refinement ([`minimize`]);
//! * [`ops`] — product, union, intersection, complement and difference;
//! * [`decide`] — emptiness, membership, equivalence and language inclusion;
//! * [`state_elim`] — conversion of automata back to regular expressions,
//!   used to show the learned query to the user;
//! * [`pta`] — the prefix-tree acceptor of a finite sample, the starting
//!   point of the learning algorithm's state-merging generalization.
//!
//! ## Example
//!
//! ```
//! use gps_graph::LabelInterner;
//! use gps_automata::{parser, Dfa};
//!
//! let mut labels = LabelInterner::new();
//! let tram = labels.intern("tram");
//! let bus = labels.intern("bus");
//! let cinema = labels.intern("cinema");
//!
//! // The motivating query of the paper.
//! let q = parser::parse("(tram+bus)*.cinema", &labels).unwrap();
//! let dfa = Dfa::from_regex(&q);
//! assert!(dfa.accepts(&[cinema]));
//! assert!(dfa.accepts(&[bus, tram, cinema]));
//! assert!(!dfa.accepts(&[bus, tram]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod decide;
pub mod determinize;
pub mod dfa;
pub mod minimize;
pub mod nfa;
pub mod ops;
pub mod parser;
pub mod printer;
pub mod pta;
pub mod regex;
pub mod state_elim;

pub use alphabet::Alphabet;
pub use dfa::Dfa;
pub use nfa::Nfa;
pub use regex::Regex;
