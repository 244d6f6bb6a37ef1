//! Keeping a hypothesis is exact: after every step of seeded sessions on a
//! 2,000-node corpus — all three strategies, with and without path
//! validation — the session's hypothesis must be the one a fresh
//! `Learner::learn_with` returns on the session's examples and a coverage
//! rebuilt from its negatives: the same DFA, regex, answer and selected
//! paths.  When the fresh learn fails, the session must still hold the
//! hypothesis it held before the step.
//!
//! The corpus is the one `golden_hypotheses` runs on; the goals come from
//! the same eleven star-free shapes, drawn by a generator seeded here.

use gps_core::{Engine, StrategyChoice};
use gps_datasets::scale_free::{self, ScaleFreeConfig};
use gps_graph::CsrGraph;
use gps_interactive::halt::HaltConfig;
use gps_interactive::SessionConfig;
use gps_learner::{LearnedQuery, Learner};
use gps_rpq::NegativeCoverage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sessions per (strategy, validation) pair.
const SESSIONS: usize = 24;

/// One goal in one of the eleven star-free shapes.
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

fn assert_same(session: Option<&LearnedQuery>, expected: Option<&LearnedQuery>, context: &str) {
    let (Some(session), Some(expected)) = (session, expected) else {
        assert_eq!(
            session.is_some(),
            expected.is_some(),
            "a hypothesis, {context}"
        );
        return;
    };
    assert_eq!(session.dfa, expected.dfa, "dfa, {context}");
    assert_eq!(session.regex, expected.regex, "regex, {context}");
    assert_eq!(session.answer, expected.answer, "answer, {context}");
    assert_eq!(
        session.selected_paths, expected.selected_paths,
        "selected paths, {context}"
    );
}

/// Steps checked against a fresh learn, and the failed learns among them.
#[derive(Debug, Default)]
struct Tally {
    learned_steps: usize,
    failed_learns: usize,
}

fn check_sessions(strategy: StrategyChoice, with_path_validation: bool, tally: &mut Tally) {
    let graph = scale_free::generate(&ScaleFreeConfig {
        nodes: 2_000,
        edges_per_node: 2,
        alphabet_size: 8,
        skewed_labels: true,
        seed: 0x6770_7362,
    });
    let config = SessionConfig {
        with_path_validation,
        halt: HaltConfig {
            max_interactions: 24,
            stop_on_goal: true,
        },
        ..SessionConfig::default()
    };
    let engine = Engine::builder(graph)
        .strategy(strategy)
        .session_config(config)
        .build();
    let exec = engine.eval_handle();
    let graph: &CsrGraph = exec.csr();
    let bound = engine.session_config().path_bound;
    let learner = Learner::default();
    let mut rng = StdRng::seed_from_u64(48);
    for session_index in 0..SESSIONS {
        let goal = goal(&mut rng);
        let mut user = engine.simulated_user(&goal).expect("generated goals parse");
        let mut proposer = engine.instantiate_strategy();
        let mut session = engine.open_session();
        loop {
            let before = session.hypothesis().cloned();
            let halted = session.step(proposer.as_mut(), &mut user);
            let context = format!(
                "{strategy:?}, validation {with_path_validation}, session {session_index} \
                 ({goal}), step {}",
                session.stats().interactions
            );
            let examples = session.examples();
            if examples.positive_count() > 0 {
                tally.learned_steps += 1;
                let coverage =
                    NegativeCoverage::from_index(&exec.bounded_words(bound), examples.negatives());
                match learner.learn_with(graph, examples, &coverage, &exec) {
                    Ok(fresh) => assert_same(session.hypothesis(), Some(&fresh), &context),
                    Err(_) => {
                        tally.failed_learns += 1;
                        assert_same(session.hypothesis(), before.as_ref(), &context);
                    }
                }
            } else {
                assert!(session.hypothesis().is_none(), "{context}");
            }
            if halted.is_some() {
                break;
            }
        }
    }
}

#[test]
fn a_kept_hypothesis_is_what_a_fresh_learn_returns() {
    let mut tally = Tally::default();
    for strategy in [
        StrategyChoice::InformativePaths,
        StrategyChoice::Degree,
        StrategyChoice::Random { seed: 7 },
    ] {
        for with_path_validation in [true, false] {
            check_sessions(strategy, with_path_validation, &mut tally);
        }
    }
    // The sample reaches failed learns too (10 of 1,465 checked steps).
    assert!(tally.failed_learns > 0, "{tally:?}");
}
