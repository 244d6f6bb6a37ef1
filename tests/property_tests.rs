//! Property-based tests over the core data structures and invariants, driven
//! by seeded random generators (deterministic across runs).  These cover the
//! algebra the whole system rests on:
//!
//! * regex printing/parsing round trips;
//! * DFA construction agrees with a reference regex matcher on random words;
//! * minimization preserves the language and never grows the automaton;
//! * PTA accepts exactly its sample;
//! * graph path enumeration and RPQ evaluation agree (a node is selected iff
//!   one of its bounded words is accepted, for finite-language queries);
//! * the learner's output is always consistent with its examples.

use gps_automata::{decide, parser, printer, Dfa, Regex};
use gps_graph::{CsrGraph, Graph, LabelId, LabelInterner, PathEnumerator};
use gps_learner::{ExampleSet, Learner};
use gps_rpq::eval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------- generators

/// A small fixed alphabet: labels 0..4 named a..d.
fn interner() -> LabelInterner {
    let mut interner = LabelInterner::new();
    for name in ["a", "b", "c", "d"] {
        interner.intern(name);
    }
    interner
}

fn arb_label(rng: &mut StdRng) -> LabelId {
    LabelId::new(rng.gen_range(0u32..4))
}

fn arb_word(rng: &mut StdRng, max_len: usize) -> Vec<LabelId> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| arb_label(rng)).collect()
}

fn arb_regex(rng: &mut StdRng, depth: usize) -> Regex {
    let choice = if depth == 0 {
        rng.gen_range(0..3)
    } else {
        rng.gen_range(0..6)
    };
    match choice {
        0 => Regex::Epsilon,
        1 => Regex::symbol(arb_label(rng)),
        2 => Regex::Empty,
        3 => Regex::concat((0..rng.gen_range(2..4usize)).map(|_| arb_regex(rng, depth - 1))),
        4 => Regex::union((0..rng.gen_range(2..4usize)).map(|_| arb_regex(rng, depth - 1))),
        _ => Regex::star(arb_regex(rng, depth - 1)),
    }
}

/// A small random edge-labeled graph over at most `max_nodes` nodes.
fn arb_graph(rng: &mut StdRng, max_nodes: usize, max_edges: usize) -> Graph {
    let n = rng.gen_range(1..=max_nodes.max(1));
    let mut g = Graph::new();
    for name in ["a", "b", "c", "d"] {
        g.label(name);
    }
    let ids = g.add_nodes("v", n);
    let edges = rng.gen_range(0..=max_edges);
    for _ in 0..edges {
        let s = ids[rng.gen_range(0..n)];
        let t = ids[rng.gen_range(0..n)];
        let l = LabelId::new(rng.gen_range(0u32..4));
        g.add_edge(s, l, t);
    }
    g
}

/// Reference matcher: does `regex` accept `word`?  Implemented directly over
/// the AST by recursive decomposition, independent of the automata code.
fn reference_accepts(regex: &Regex, word: &[LabelId]) -> bool {
    match regex {
        Regex::Empty => false,
        Regex::Epsilon => word.is_empty(),
        Regex::Symbol(l) => word.len() == 1 && word[0] == *l,
        Regex::Union(parts) => parts.iter().any(|p| reference_accepts(p, word)),
        Regex::Concat(parts) => {
            fn concat_match(parts: &[Regex], word: &[LabelId]) -> bool {
                match parts {
                    [] => word.is_empty(),
                    [first, rest @ ..] => (0..=word.len()).any(|split| {
                        reference_accepts(first, &word[..split])
                            && concat_match(rest, &word[split..])
                    }),
                }
            }
            concat_match(parts, word)
        }
        Regex::Star(inner) => {
            if word.is_empty() {
                return true;
            }
            // Try every non-empty prefix accepted by the inner expression.
            (1..=word.len()).any(|split| {
                reference_accepts(inner, &word[..split]) && reference_accepts(regex, &word[split..])
            })
        }
    }
}

// ------------------------------------------------------------------ automata

#[test]
fn print_parse_round_trip() {
    let labels = interner();
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..64 {
        let regex = arb_regex(&mut rng, 3);
        let printed = printer::print(&regex, &labels);
        let reparsed = parser::parse(&printed, &labels).unwrap();
        assert_eq!(regex, reparsed, "printed: {printed}");
    }
}

#[test]
fn dfa_agrees_with_reference_matcher() {
    let mut rng = StdRng::seed_from_u64(102);
    for _ in 0..64 {
        let regex = arb_regex(&mut rng, 3);
        let word = arb_word(&mut rng, 6);
        let dfa = Dfa::from_regex(&regex);
        assert_eq!(
            dfa.accepts(&word),
            reference_accepts(&regex, &word),
            "regex {regex:?}, word {word:?}"
        );
    }
}

#[test]
fn minimization_preserves_language_and_never_grows() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..64 {
        let regex = arb_regex(&mut rng, 3);
        let word = arb_word(&mut rng, 6);
        let raw = Dfa::from_nfa(&gps_automata::Nfa::from_regex(&regex));
        let minimal = gps_automata::minimize::minimize(&raw);
        assert!(minimal.state_count() <= raw.state_count().max(1));
        assert_eq!(minimal.accepts(&word), raw.accepts(&word));
    }
}

#[test]
fn state_elimination_round_trips() {
    let mut rng = StdRng::seed_from_u64(104);
    for _ in 0..64 {
        let regex = arb_regex(&mut rng, 3);
        let dfa = Dfa::from_regex(&regex);
        let back = gps_automata::state_elim::dfa_to_regex(&dfa);
        assert!(
            decide::regex_equivalent(&regex, &back),
            "regex {regex:?} round-tripped to {back:?}"
        );
    }
}

#[test]
fn pta_accepts_exactly_its_sample() {
    let mut rng = StdRng::seed_from_u64(105);
    for _ in 0..64 {
        let words: Vec<Vec<LabelId>> = (0..rng.gen_range(0..6usize))
            .map(|_| arb_word(&mut rng, 5))
            .collect();
        let probe = arb_word(&mut rng, 5);
        let pta = gps_automata::pta::build_pta(&words);
        assert_eq!(pta.accepts(&probe), words.contains(&probe));
    }
}

// --------------------------------------------------------------------- graph

#[test]
fn csr_matches_adjacency() {
    let mut rng = StdRng::seed_from_u64(106);
    for _ in 0..48 {
        let graph = arb_graph(&mut rng, 8, 16);
        let csr = CsrGraph::from_graph(&graph);
        assert_eq!(csr.node_count(), graph.node_count());
        assert_eq!(csr.edge_count(), graph.edge_count());
        for node in graph.nodes() {
            assert_eq!(csr.out_degree(node), graph.out_degree(node));
            assert_eq!(csr.in_degree(node), graph.in_degree(node));
        }
    }
}

#[test]
fn edge_list_round_trip() {
    let mut rng = StdRng::seed_from_u64(107);
    for _ in 0..48 {
        let graph = arb_graph(&mut rng, 8, 16);
        let text = gps_graph::io::to_edge_list(&graph);
        let reloaded = gps_graph::io::parse_edge_list(&text).unwrap();
        assert_eq!(reloaded.node_count(), graph.node_count());
        assert_eq!(reloaded.edge_count(), graph.edge_count());
    }
}

#[test]
fn bounded_words_have_bounded_length() {
    let mut rng = StdRng::seed_from_u64(108);
    for _ in 0..48 {
        let graph = CsrGraph::from_graph(&arb_graph(&mut rng, 6, 12));
        let bound = rng.gen_range(0usize..4);
        for node in graph.nodes() {
            for word in PathEnumerator::new(bound)
                .with_max_paths(500)
                .words_from(&graph, node)
            {
                assert!(!word.is_empty() && word.len() <= bound);
            }
        }
    }
}

// ----------------------------------------------------------------------- rpq

/// For *finite-language* queries (plain words), a node is selected iff the
/// word is one of its bounded path words.
#[test]
fn evaluation_agrees_with_path_enumeration() {
    let mut rng = StdRng::seed_from_u64(109);
    let mut cases = 0;
    while cases < 32 {
        let graph = CsrGraph::from_graph(&arb_graph(&mut rng, 6, 12));
        let word = arb_word(&mut rng, 3);
        if word.is_empty() {
            continue;
        }
        cases += 1;
        let dfa = Dfa::from_regex(&Regex::word(&word));
        let answer = eval::evaluate(&graph, &dfa);
        let enumerator = PathEnumerator::new(word.len()).with_max_paths(2000);
        for node in graph.nodes() {
            let words = enumerator.words_from(&graph, node);
            assert_eq!(answer.contains(node), words.contains(&word));
        }
    }
}

// ------------------------------------------------------------------- learner

/// Whatever the labeling, a successfully learned query is consistent with
/// the examples it was learned from.
#[test]
fn learner_output_is_consistent() {
    let mut rng = StdRng::seed_from_u64(110);
    for _ in 0..24 {
        let graph = CsrGraph::from_graph(&arb_graph(&mut rng, 7, 14));
        let mut examples = ExampleSet::new();
        for i in 0..graph.node_count() {
            let node = gps_graph::NodeId::from(i);
            match rng.gen_range(0..3u32) {
                0 => {
                    examples.add_positive(node);
                }
                1 => {
                    examples.add_negative(node);
                }
                _ => {}
            }
        }
        if let Ok(learned) = Learner::with_bound(3).learn(&graph, &examples) {
            for positive in examples.positives() {
                assert!(learned.answer.contains(positive));
            }
            for negative in examples.negatives() {
                assert!(!learned.answer.contains(negative));
            }
        }
    }
}
