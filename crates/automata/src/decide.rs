//! Decision procedures on automata and expressions: emptiness, membership,
//! finiteness, equivalence and inclusion.

use crate::alphabet::Alphabet;
use crate::dfa::Dfa;
use crate::ops::{difference, symmetric_difference};
use crate::regex::Regex;
use gps_graph::LabelId;
use std::collections::VecDeque;

/// Returns `true` when the DFA recognizes the empty language.
pub fn is_empty(dfa: &Dfa) -> bool {
    let reachable = dfa.reachable_states();
    !reachable.iter().any(|&s| dfa.is_accepting(s))
}

/// Returns `true` when the DFA accepts `word` (same as [`Dfa::accepts`],
/// provided for discoverability next to the other decisions).
pub fn accepts(dfa: &Dfa, word: &[LabelId]) -> bool {
    dfa.accepts(word)
}

/// Returns `true` when the two DFAs recognize the same language over
/// `alphabet`.
pub fn equivalent(left: &Dfa, right: &Dfa, alphabet: &Alphabet) -> bool {
    is_empty(&symmetric_difference(left, right, alphabet))
}

/// Returns `true` when `L(left) ⊆ L(right)` over `alphabet`.
pub fn included(left: &Dfa, right: &Dfa, alphabet: &Alphabet) -> bool {
    is_empty(&difference(left, right, alphabet))
}

/// Returns `true` when the two regular expressions denote the same language.
/// The alphabet is the union of the symbols occurring in either expression.
pub fn regex_equivalent(left: &Regex, right: &Regex) -> bool {
    let alphabet = left.alphabet().union(&right.alphabet());
    equivalent(&Dfa::from_regex(left), &Dfa::from_regex(right), &alphabet)
}

/// Returns the length of a shortest accepted word, or `None` when the
/// language is empty.  Useful to produce small witnesses and in tests.
pub fn shortest_accepted_word(dfa: &Dfa) -> Option<Vec<LabelId>> {
    // BFS over states, remembering the word that first reached each state.
    let mut visited = vec![false; dfa.state_count()];
    let mut queue: VecDeque<(usize, Vec<LabelId>)> = VecDeque::new();
    visited[dfa.start()] = true;
    queue.push_back((dfa.start(), Vec::new()));
    while let Some((state, word)) = queue.pop_front() {
        if dfa.is_accepting(state) {
            return Some(word);
        }
        for (symbol, target) in dfa.transitions_from(state) {
            if !visited[target] {
                visited[target] = true;
                let mut next = word.clone();
                next.push(symbol);
                queue.push_back((target, next));
            }
        }
    }
    None
}

/// Returns `true` when the language of the DFA is finite (no cycle lies on a
/// path from the start state to an accepting state).
pub fn is_finite(dfa: &Dfa) -> bool {
    // Restrict to the trim part, then look for any cycle.
    let trim = dfa.trim();
    if is_empty(&trim) {
        return true;
    }
    // Kahn-style cycle detection on the trim automaton.
    let n = trim.state_count();
    let mut indegree = vec![0usize; n];
    for state in 0..n {
        for (_, target) in trim.transitions_from(state) {
            indegree[target] += 1;
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&s| indegree[s] == 0).collect();
    let mut removed = 0usize;
    while let Some(state) = queue.pop_front() {
        removed += 1;
        for (_, target) in trim.transitions_from(state) {
            indegree[target] -= 1;
            if indegree[target] == 0 {
                queue.push_back(target);
            }
        }
    }
    removed == n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId::new(i)
    }

    fn ab_alphabet() -> Alphabet {
        Alphabet::from_labels([l(0), l(1)])
    }

    #[test]
    fn emptiness() {
        assert!(is_empty(&Dfa::from_regex(&Regex::Empty)));
        assert!(!is_empty(&Dfa::from_regex(&Regex::Epsilon)));
        assert!(!is_empty(&Dfa::from_regex(&Regex::symbol(l(0)))));
        // An automaton whose accepting state is unreachable is empty.
        let mut dfa = Dfa::empty_language();
        dfa.add_state(true);
        assert!(is_empty(&dfa));
    }

    #[test]
    fn equivalence_of_algebraically_equal_expressions() {
        let a = Regex::symbol(l(0));
        let b = Regex::symbol(l(1));
        assert!(regex_equivalent(
            &Regex::star(Regex::union([a.clone(), b.clone()])),
            &Regex::star(Regex::union([b.clone(), a.clone()]))
        ));
        assert!(regex_equivalent(
            &Regex::star(Regex::star(a.clone())),
            &Regex::star(a.clone())
        ));
        assert!(!regex_equivalent(
            &Regex::plus(a.clone()),
            &Regex::star(a.clone())
        ));
        // (a+b)* ≠ (a·b)*
        assert!(!regex_equivalent(
            &Regex::star(Regex::union([a.clone(), b.clone()])),
            &Regex::star(Regex::concat([a.clone(), b.clone()]))
        ));
    }

    #[test]
    fn inclusion_is_a_partial_order() {
        let alphabet = ab_alphabet();
        let a_plus = Dfa::from_regex(&Regex::plus(Regex::symbol(l(0))));
        let a_star = Dfa::from_regex(&Regex::star(Regex::symbol(l(0))));
        let all = Dfa::from_regex(&Regex::star(Regex::union([
            Regex::symbol(l(0)),
            Regex::symbol(l(1)),
        ])));
        assert!(included(&a_plus, &a_star, &alphabet));
        assert!(!included(&a_star, &a_plus, &alphabet));
        assert!(included(&a_star, &all, &alphabet));
        assert!(included(&a_star, &a_star, &alphabet), "reflexive");
    }

    #[test]
    fn shortest_word_is_found_by_bfs() {
        // (a+b)*·b — shortest accepted word is "b".
        let dfa = Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::union([Regex::symbol(l(0)), Regex::symbol(l(1))])),
            Regex::symbol(l(1)),
        ]));
        assert_eq!(shortest_accepted_word(&dfa), Some(vec![l(1)]));
        assert_eq!(
            shortest_accepted_word(&Dfa::from_regex(&Regex::Empty)),
            None
        );
        assert_eq!(
            shortest_accepted_word(&Dfa::from_regex(&Regex::Epsilon)),
            Some(vec![])
        );
    }

    #[test]
    fn finiteness() {
        assert!(is_finite(&Dfa::from_regex(&Regex::word(&[l(0), l(1)]))));
        assert!(is_finite(&Dfa::from_regex(&Regex::Empty)));
        assert!(is_finite(&Dfa::from_regex(&Regex::Epsilon)));
        assert!(!is_finite(&Dfa::from_regex(&Regex::star(Regex::symbol(
            l(0)
        )))));
        assert!(!is_finite(&Dfa::from_regex(&Regex::concat([
            Regex::plus(Regex::symbol(l(0))),
            Regex::symbol(l(1))
        ]))));
        // Cycle not on an accepting path does not make the language infinite.
        let mut dfa = Dfa::from_regex(&Regex::word(&[l(0)]));
        let loop_state = dfa.add_state(false);
        dfa.add_transition(loop_state, l(1), loop_state);
        dfa.add_transition(0, l(1), loop_state);
        assert!(is_finite(&dfa));
    }

    #[test]
    fn accepts_helper_matches_dfa_method() {
        let dfa = Dfa::from_regex(&Regex::symbol(l(0)));
        assert!(accepts(&dfa, &[l(0)]));
        assert!(!accepts(&dfa, &[l(1)]));
    }
}
