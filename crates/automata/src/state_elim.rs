//! Conversion of automata back to regular expressions by state elimination.
//!
//! The learner works on automata (prefix-tree acceptors generalized by state
//! merging), but the user is shown the learned query as a regular expression
//! — the paper's `(tram+bus)*·cinema`.  The classic generalized-NFA state
//! elimination performs that conversion: add a fresh start and a fresh accept
//! state, then eliminate the original states one by one, rewriting the edge
//! expressions.

use crate::dfa::Dfa;
use crate::regex::Regex;
use std::collections::BTreeMap;

/// Converts a DFA into a regular expression denoting the same language.
///
/// The output is produced by state elimination and simplified by the
/// [`Regex`] smart constructors; it is correct but not guaranteed to be the
/// shortest expression for the language.
pub fn dfa_to_regex(dfa: &Dfa) -> Regex {
    // The learner's DFAs come out of `minimize` already trim: borrowed.
    let trim = dfa.trimmed();
    if trim.accepting_states().is_empty() {
        return Regex::Empty;
    }
    let n = trim.state_count();
    // GNFA states: 0..n are the original states, n is the new start, n+1 the
    // new accept.  `edges[(i, j)]` is the expression labelling the edge i→j.
    let start = n;
    let accept = n + 1;
    let mut edges: BTreeMap<(usize, usize), Regex> = BTreeMap::new();

    let add_edge = |edges: &mut BTreeMap<(usize, usize), Regex>, from, to, regex: Regex| {
        if regex == Regex::Empty {
            return;
        }
        edges
            .entry((from, to))
            .and_modify(|existing| *existing = Regex::union([existing.clone(), regex.clone()]))
            .or_insert(regex);
    };

    add_edge(&mut edges, start, trim.start(), Regex::Epsilon);
    for state in 0..n {
        if trim.is_accepting(state) {
            add_edge(&mut edges, state, accept, Regex::Epsilon);
        }
        for (symbol, target) in trim.transitions_from(state) {
            add_edge(&mut edges, state, target, Regex::symbol(symbol));
        }
    }

    // Eliminate original states one by one.
    for victim in 0..n {
        let self_loop = edges.remove(&(victim, victim));
        let loop_star = match self_loop {
            Some(r) => Regex::star(r),
            None => Regex::Epsilon,
        };
        let incoming: Vec<(usize, Regex)> = edges
            .iter()
            .filter(|&(&(_, to), _)| to == victim)
            .map(|(&(from, _), r)| (from, r.clone()))
            .collect();
        let outgoing: Vec<(usize, Regex)> = edges
            .iter()
            .filter(|&(&(from, _), _)| from == victim)
            .map(|(&(_, to), r)| (to, r.clone()))
            .collect();
        // Remove all edges touching the victim.
        edges.retain(|&(from, to), _| from != victim && to != victim);
        // Reconnect every in-neighbour to every out-neighbour.
        for (from, in_regex) in &incoming {
            for (to, out_regex) in &outgoing {
                let through =
                    Regex::concat([in_regex.clone(), loop_star.clone(), out_regex.clone()]);
                add_edge(&mut edges, *from, *to, through);
            }
        }
    }

    edges.remove(&(start, accept)).unwrap_or(Regex::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::regex_equivalent;
    use gps_graph::LabelId;

    fn l(i: u32) -> LabelId {
        LabelId::new(i)
    }

    fn round_trip_preserves_language(r: &Regex) {
        let dfa = Dfa::from_regex(r);
        let back = dfa_to_regex(&dfa);
        assert!(
            regex_equivalent(r, &back),
            "round trip changed the language of {r:?}: got {back:?}"
        );
    }

    #[test]
    fn round_trips_basic_expressions() {
        round_trip_preserves_language(&Regex::Empty);
        round_trip_preserves_language(&Regex::Epsilon);
        round_trip_preserves_language(&Regex::symbol(l(0)));
        round_trip_preserves_language(&Regex::word(&[l(0), l(1), l(2)]));
    }

    #[test]
    fn round_trips_the_motivating_query() {
        let q = Regex::concat([
            Regex::star(Regex::union([Regex::symbol(l(0)), Regex::symbol(l(1))])),
            Regex::symbol(l(2)),
        ]);
        round_trip_preserves_language(&q);
    }

    #[test]
    fn round_trips_star_and_union_combinations() {
        let a = Regex::symbol(l(0));
        let b = Regex::symbol(l(1));
        let c = Regex::symbol(l(2));
        round_trip_preserves_language(&Regex::star(a.clone()));
        round_trip_preserves_language(&Regex::plus(b.clone()));
        round_trip_preserves_language(&Regex::union([
            Regex::word(&[l(0), l(1)]),
            Regex::word(&[l(2)]),
        ]));
        round_trip_preserves_language(&Regex::concat([
            Regex::optional(a.clone()),
            Regex::star(Regex::concat([b.clone(), c.clone()])),
        ]));
        round_trip_preserves_language(&Regex::star(Regex::union([
            Regex::concat([a.clone(), b.clone()]),
            c.clone(),
        ])));
    }

    #[test]
    fn empty_language_converts_to_empty_regex() {
        assert_eq!(dfa_to_regex(&Dfa::empty_language()), Regex::Empty);
        let mut dfa = Dfa::empty_language();
        let unreachable = dfa.add_state(true);
        let _ = unreachable;
        assert_eq!(dfa_to_regex(&dfa), Regex::Empty);
    }

    #[test]
    fn epsilon_language_converts_to_nullable_regex() {
        let r = dfa_to_regex(&Dfa::epsilon_language());
        assert!(r.nullable());
        assert!(regex_equivalent(&r, &Regex::Epsilon));
    }

    #[test]
    fn handcrafted_two_state_loop() {
        // DFA for (ab)* : s0 -a-> s1 -b-> s0, s0 accepting.
        let mut dfa = Dfa::epsilon_language();
        let s1 = dfa.add_state(false);
        dfa.add_transition(0, l(0), s1);
        dfa.add_transition(s1, l(1), 0);
        let r = dfa_to_regex(&dfa);
        let expected = Regex::star(Regex::word(&[l(0), l(1)]));
        assert!(regex_equivalent(&r, &expected));
    }
}
