//! Deterministic finite automata.
//!
//! [`Dfa`] is the workhorse representation for query evaluation, learning and
//! language-theoretic decisions.  Transition functions are *partial*: a
//! missing transition means the word is rejected.  [`Dfa::complete`] adds an
//! explicit sink state when a total function is needed (complementation).

use crate::alphabet::Alphabet;
use crate::determinize::determinize;
use crate::minimize::minimize;
use crate::nfa::{Nfa, StateId};
use crate::regex::Regex;
use gps_graph::LabelId;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A deterministic finite automaton with a partial transition function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dfa {
    transitions: Vec<BTreeMap<LabelId, StateId>>,
    start: StateId,
    accepting: Vec<bool>,
}

impl Dfa {
    /// Creates a DFA with a single non-accepting state and no transitions
    /// (the empty language).
    pub fn empty_language() -> Self {
        Self {
            transitions: vec![BTreeMap::new()],
            start: 0,
            accepting: vec![false],
        }
    }

    /// Creates a DFA accepting only the empty word.
    pub fn epsilon_language() -> Self {
        Self {
            transitions: vec![BTreeMap::new()],
            start: 0,
            accepting: vec![true],
        }
    }

    /// Builds the minimal DFA of a regular expression (Thompson → subset
    /// construction → partition refinement → trimming).
    pub fn from_regex(regex: &Regex) -> Self {
        let nfa = Nfa::from_regex(regex);
        let dfa = determinize(&nfa);
        minimize(&dfa)
    }

    /// Builds a (not necessarily minimal) DFA from an NFA.
    pub fn from_nfa(nfa: &Nfa) -> Self {
        determinize(nfa)
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        let id = self.transitions.len();
        self.transitions.push(BTreeMap::new());
        self.accepting.push(accepting);
        id
    }

    /// Adds (or replaces) the transition `from --symbol--> to`.
    pub fn add_transition(&mut self, from: StateId, symbol: LabelId, to: StateId) {
        self.transitions[from].insert(symbol, to);
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Sets the start state.
    pub fn set_start(&mut self, state: StateId) {
        assert!(state < self.state_count());
        self.start = state;
    }

    /// Returns `true` if `state` is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state]
    }

    /// Marks a state accepting or not.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.accepting[state] = accepting;
    }

    /// The accepting states.
    pub fn accepting_states(&self) -> Vec<StateId> {
        self.accepting
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
            .collect()
    }

    /// The transition from `state` on `symbol`, if defined.
    #[inline]
    pub fn step(&self, state: StateId, symbol: LabelId) -> Option<StateId> {
        self.transitions[state].get(&symbol).copied()
    }

    /// The outgoing transitions of `state` in symbol order.
    pub fn transitions_from(
        &self,
        state: StateId,
    ) -> impl Iterator<Item = (LabelId, StateId)> + '_ {
        self.transitions[state].iter().map(|(&l, &s)| (l, s))
    }

    /// Runs the DFA on `word` from the start state; returns the final state
    /// if every transition was defined.
    pub fn run(&self, word: &[LabelId]) -> Option<StateId> {
        let mut state = self.start;
        for &symbol in word {
            state = self.step(state, symbol)?;
        }
        Some(state)
    }

    /// Returns `true` if the DFA accepts `word`.
    pub fn accepts(&self, word: &[LabelId]) -> bool {
        self.run(word)
            .map(|state| self.accepting[state])
            .unwrap_or(false)
    }

    /// The set of symbols appearing on transitions.
    pub fn used_alphabet(&self) -> Alphabet {
        Alphabet::from_labels(self.transitions.iter().flat_map(|t| t.keys().copied()))
    }

    /// Returns a total version of the DFA over `alphabet`: every missing
    /// transition is redirected to a fresh non-accepting sink state.  If the
    /// automaton is already total, it is returned unchanged.
    pub fn complete(&self, alphabet: &Alphabet) -> Self {
        let needs_sink = self
            .transitions
            .iter()
            .any(|t| alphabet.iter().any(|symbol| !t.contains_key(&symbol)))
            || self.state_count() == 0;
        if !needs_sink {
            return self.clone();
        }
        let mut dfa = self.clone();
        let sink = dfa.add_state(false);
        for state in 0..dfa.state_count() {
            for symbol in alphabet.iter() {
                dfa.transitions[state].entry(symbol).or_insert(sink);
            }
        }
        dfa
    }

    /// Returns `true` if every state has a transition for every symbol of
    /// `alphabet`.
    pub fn is_complete(&self, alphabet: &Alphabet) -> bool {
        self.transitions
            .iter()
            .all(|t| alphabet.iter().all(|s| t.contains_key(&s)))
    }

    /// States reachable from the start state.
    pub fn reachable_states(&self) -> Vec<StateId> {
        let mut visited = vec![false; self.state_count()];
        let mut stack = vec![self.start];
        visited[self.start] = true;
        let mut order = Vec::new();
        while let Some(state) = stack.pop() {
            order.push(state);
            for (_, next) in self.transitions_from(state) {
                if !visited[next] {
                    visited[next] = true;
                    stack.push(next);
                }
            }
        }
        order.sort_unstable();
        order
    }

    /// States from which an accepting state is reachable (co-reachable).
    fn coreachable_states(&self) -> Vec<StateId> {
        // Build reverse adjacency.
        let mut reverse: Vec<Vec<StateId>> = vec![Vec::new(); self.state_count()];
        for state in 0..self.state_count() {
            for (_, next) in self.transitions_from(state) {
                reverse[next].push(state);
            }
        }
        let mut visited = vec![false; self.state_count()];
        let mut stack: Vec<StateId> = self.accepting_states();
        for &s in &stack {
            visited[s] = true;
        }
        while let Some(state) = stack.pop() {
            for &prev in &reverse[state] {
                if !visited[prev] {
                    visited[prev] = true;
                    stack.push(prev);
                }
            }
        }
        (0..self.state_count()).filter(|&s| visited[s]).collect()
    }

    /// Returns the *trim* part of the automaton: states both reachable and
    /// co-reachable, renumbered densely.  If the start state is not
    /// co-reachable the result recognizes the empty language.
    pub fn trim(&self) -> Self {
        self.trimmed().into_owned()
    }

    /// [`trim`](Self::trim) without the copy when there is nothing to cut:
    /// the kept states are renumbered in ascending order, so an automaton
    /// whose every state is kept is its own trim part and is borrowed.
    pub fn trimmed(&self) -> Cow<'_, Self> {
        let reachable = self.reachable_states();
        let coreachable: Vec<bool> = {
            let co = self.coreachable_states();
            let mut flags = vec![false; self.state_count()];
            for s in co {
                flags[s] = true;
            }
            flags
        };
        let keep: Vec<StateId> = reachable.into_iter().filter(|&s| coreachable[s]).collect();
        if keep.len() == self.state_count() {
            return Cow::Borrowed(self);
        }
        if keep.is_empty() || !keep.contains(&self.start) {
            return Cow::Owned(Dfa::empty_language());
        }
        let mut renumber = BTreeMap::new();
        for (new_id, &old_id) in keep.iter().enumerate() {
            renumber.insert(old_id, new_id);
        }
        let mut dfa = Dfa {
            transitions: vec![BTreeMap::new(); keep.len()],
            start: renumber[&self.start],
            accepting: vec![false; keep.len()],
        };
        for &old_id in &keep {
            let new_id = renumber[&old_id];
            dfa.accepting[new_id] = self.accepting[old_id];
            for (symbol, target) in self.transitions_from(old_id) {
                if let Some(&new_target) = renumber.get(&target) {
                    dfa.transitions[new_id].insert(symbol, new_target);
                }
            }
        }
        Cow::Owned(dfa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId::new(i)
    }

    /// DFA for a*b built by hand.
    fn a_star_b() -> Dfa {
        let mut dfa = Dfa::empty_language();
        let accept = dfa.add_state(true);
        dfa.add_transition(0, l(0), 0);
        dfa.add_transition(0, l(1), accept);
        dfa
    }

    #[test]
    fn manual_dfa_accepts_expected_words() {
        let dfa = a_star_b();
        assert!(dfa.accepts(&[l(1)]));
        assert!(dfa.accepts(&[l(0), l(0), l(1)]));
        assert!(!dfa.accepts(&[]));
        assert!(!dfa.accepts(&[l(1), l(1)]));
        assert!(!dfa.accepts(&[l(2)]), "undefined transition rejects");
    }

    #[test]
    fn from_regex_matches_regex_semantics() {
        let r = Regex::concat([
            Regex::star(Regex::union([Regex::symbol(l(0)), Regex::symbol(l(1))])),
            Regex::symbol(l(2)),
        ]);
        let dfa = Dfa::from_regex(&r);
        assert!(dfa.accepts(&[l(2)]));
        assert!(dfa.accepts(&[l(0), l(1), l(0), l(2)]));
        assert!(!dfa.accepts(&[l(0), l(1)]));
        assert!(!dfa.accepts(&[]));
        // The minimal DFA for (a+b)*c has 2 states (trim, partial).
        assert_eq!(dfa.state_count(), 2);
    }

    #[test]
    fn epsilon_and_empty_language_constructors() {
        assert!(Dfa::epsilon_language().accepts(&[]));
        assert!(!Dfa::epsilon_language().accepts(&[l(0)]));
        assert!(!Dfa::empty_language().accepts(&[]));
    }

    #[test]
    fn completion_adds_a_sink() {
        let dfa = a_star_b();
        let alphabet = Alphabet::from_labels([l(0), l(1)]);
        assert!(!dfa.is_complete(&alphabet));
        let complete = dfa.complete(&alphabet);
        assert!(complete.is_complete(&alphabet));
        assert_eq!(complete.state_count(), dfa.state_count() + 1);
        // Language is unchanged.
        assert!(complete.accepts(&[l(0), l(1)]));
        assert!(!complete.accepts(&[l(1), l(0)]));
        // Completing an already-complete automaton is a no-op.
        let again = complete.complete(&alphabet);
        assert_eq!(again.state_count(), complete.state_count());
    }

    #[test]
    fn reachable_and_coreachable() {
        let mut dfa = a_star_b();
        // Add an unreachable accepting state and a dead (non-co-reachable) state.
        let unreachable = dfa.add_state(true);
        let dead = dfa.add_state(false);
        dfa.add_transition(0, l(2), dead);
        let reachable = dfa.reachable_states();
        assert!(reachable.contains(&0) && reachable.contains(&dead));
        assert!(!reachable.contains(&unreachable));
        let co = dfa.coreachable_states();
        assert!(co.contains(&0) && co.contains(&1) && co.contains(&unreachable));
        assert!(!co.contains(&dead));
    }

    #[test]
    fn trim_removes_dead_and_unreachable_states() {
        let mut dfa = a_star_b();
        let _unreachable = dfa.add_state(true);
        let dead = dfa.add_state(false);
        dfa.add_transition(0, l(2), dead);
        let trimmed = dfa.trim();
        assert_eq!(trimmed.state_count(), 2);
        assert!(trimmed.accepts(&[l(0), l(1)]));
        assert!(!trimmed.accepts(&[l(2)]));
    }

    #[test]
    fn a_trim_automaton_is_borrowed_as_its_own_trim_part() {
        let mut dfa = a_star_b();
        assert!(matches!(dfa.trimmed(), Cow::Borrowed(_)));
        // Renumbering a trim automaton maps it to itself.
        let dead = dfa.add_state(false);
        dfa.add_transition(1, l(2), dead);
        let trimmed = dfa.trimmed();
        assert!(matches!(trimmed, Cow::Owned(_)));
        assert_eq!(*trimmed, a_star_b());
    }

    #[test]
    fn trim_of_empty_language_is_empty() {
        let mut dfa = Dfa::empty_language();
        let s = dfa.add_state(false);
        dfa.add_transition(0, l(0), s);
        let trimmed = dfa.trim();
        assert_eq!(trimmed.state_count(), 1);
        assert!(!trimmed.accepts(&[]));
        assert!(!trimmed.accepts(&[l(0)]));
    }

    #[test]
    fn run_reports_final_state() {
        let dfa = a_star_b();
        assert_eq!(dfa.run(&[l(0), l(0)]), Some(0));
        assert_eq!(dfa.run(&[l(1)]), Some(1));
        assert_eq!(dfa.run(&[l(1), l(1)]), None);
    }

    #[test]
    fn used_alphabet_lists_symbols_on_transitions() {
        let dfa = a_star_b();
        assert_eq!(dfa.used_alphabet().symbols(), &[l(0), l(1)]);
    }

    #[test]
    fn accepting_states_listed() {
        let dfa = a_star_b();
        assert_eq!(dfa.accepting_states(), vec![1]);
    }
}
