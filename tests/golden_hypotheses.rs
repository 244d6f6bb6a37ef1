//! Golden hypothesis sequence: a fixed sample of interactive sessions on a
//! 2,000-node corpus, each run through `Engine::specify` with the
//! informative strategy and a 24-interaction budget, must print exactly the
//! hypotheses recorded in `tests/golden/hypotheses_2k.txt` — after every
//! interaction, plus the halt reason and the final DFA's states and
//! transitions.  The learner's merge order, the minimizer's numbering and
//! the regex printer all show up in that text, so a change to any of them
//! that is not behaviour-neutral fails here.
//!
//! The corpus is built like the `benchmark/` package's `specify-2k` one (a
//! skewed scale-free graph over eight labels `a0`–`a7`, two edges per node,
//! the same corpus seed); the goals are drawn from its eleven star-free
//! goal shapes by a seeded generator of this file.
//!
//! When the text differs, the test writes what it printed to
//! `hypotheses_2k.txt` in Cargo's per-test scratch directory
//! (`target/tmp/`) and names the first differing line; replace the golden
//! file with it only when the change in behaviour is intended.

use gps_core::Engine;
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_graph::{CsrGraph, Neighborhood, NodeId, Word};
use gps_interactive::user::{SimulatedUser, User, UserResponse};
use gps_learner::{Label, LearnedQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Sessions in the sample.
const SESSIONS: usize = 128;

/// A simulated user that also prints every hypothesis it is shown: the
/// session asks `satisfied_with` after each interaction once it holds one.
struct Recorder {
    inner: SimulatedUser,
    hypotheses: Vec<String>,
}

impl User for Recorder {
    fn label_node(
        &mut self,
        graph: &CsrGraph,
        node: NodeId,
        neighborhood: &Neighborhood,
    ) -> UserResponse {
        self.inner.label_node(graph, node, neighborhood)
    }

    fn validate_path(
        &mut self,
        graph: &CsrGraph,
        node: NodeId,
        candidates: &[Word],
        suggested: &Word,
    ) -> Word {
        self.inner.validate_path(graph, node, candidates, suggested)
    }

    fn satisfied_with(&mut self, graph: &CsrGraph, hypothesis: &LearnedQuery) -> bool {
        self.hypotheses.push(gps_automata::printer::print(
            &hypothesis.regex,
            graph.labels(),
        ));
        self.inner.satisfied_with(graph, hypothesis)
    }
}

/// One goal in one of the benchmark's eleven star-free shapes.
fn goal(rng: &mut StdRng) -> String {
    let mut label = || format!("a{}", rng.gen_range(0..8u32));
    let [a, b, c, d] = [label(), label(), label(), label()];
    match rng.gen_range(0..11u32) {
        0 => a,
        1 => format!("{a}+{b}"),
        2 => format!("{a}+{b}+{c}"),
        3 => format!("{a}.{b}"),
        4 => format!("({a}+{b}).{c}"),
        5 => format!("{a}.({b}+{c})"),
        6 => format!("({a}+{b}).({c}+{d})"),
        7 => format!("{a}+{b}.{c}"),
        8 => format!("({a}+{b}+{c}).{d}"),
        9 => format!("{a}.({b}+{c}+{d})"),
        _ => format!("{a}.{b}.{c}"),
    }
}

fn transcript() -> String {
    let graph = scale_free::generate(&ScaleFreeConfig {
        nodes: 2_000,
        edges_per_node: 2,
        alphabet_size: 8,
        skewed_labels: true,
        seed: 0x6770_7362,
    });
    let engine = Engine::builder(graph).max_interactions(24).build();
    let name = |label| engine.snapshot().labels().name(label).unwrap_or("?");
    let mut rng = StdRng::seed_from_u64(47);
    let mut out = String::new();
    for _ in 0..SESSIONS {
        let goal = goal(&mut rng);
        let mut user = Recorder {
            inner: engine.simulated_user(&goal).expect("generated goals parse"),
            hypotheses: Vec::new(),
        };
        let outcome = engine.specify(&mut user);
        let interactions = outcome.transcript.len();
        writeln!(
            out,
            "goal {goal}: {:?} after {interactions} interactions",
            outcome.halt_reason
        )
        .unwrap();
        // The hypotheses cover the last interactions: none is shown before
        // the first one is learned.
        let silent = interactions - user.hypotheses.len();
        for (i, record) in outcome.transcript.iter().enumerate() {
            let label = match record.label {
                Label::Positive => '+',
                Label::Negative => '-',
            };
            let hypothesis = i
                .checked_sub(silent)
                .map_or("-", |k| user.hypotheses[k].as_str());
            let node = engine.snapshot().node_name(record.node);
            let path = record
                .validated_word
                .as_ref()
                .map_or(String::new(), |word| {
                    let names: Vec<&str> = word.iter().map(|&l| name(l)).collect();
                    format!(" [{}]", names.join("."))
                });
            writeln!(out, "  {:>2} {label}{node}{path} {hypothesis}", i + 1).unwrap();
        }
        if let Some(learned) = &outcome.learned {
            let dfa = &learned.dfa;
            write!(out, "  dfa start {}", dfa.start()).unwrap();
            for state in 0..dfa.state_count() {
                let mark = if dfa.is_accepting(state) { "*" } else { "" };
                write!(out, " | {state}{mark}").unwrap();
                for (label, target) in dfa.transitions_from(state) {
                    write!(out, " {}>{target}", name(label)).unwrap();
                }
            }
            writeln!(out).unwrap();
        }
    }
    out
}

#[test]
fn the_hypothesis_sequence_matches_the_golden_file() {
    let golden = include_str!("golden/hypotheses_2k.txt");
    let actual = transcript();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("hypotheses_2k.txt");
        std::fs::write(&path, &actual).unwrap();
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "the hypothesis sequence differs from tests/golden/hypotheses_2k.txt at line {}; \
             this run's text is in {}",
            line + 1,
            path.display()
        );
    }
}
