//! DFA minimization by partition refinement (Moore's algorithm) followed by
//! trimming.
//!
//! The input may have a partial transition function.  Refinement runs over a
//! flat successor table of the input's states over its own used alphabet,
//! with a *virtual sink* that stands in for every missing transition (and
//! loops on every symbol), so no completed copy of the automaton is built.
//! The trim quotient — classes both reachable from the start class and
//! co-reachable from an accepting one — is then built directly, so the
//! result is the minimal *trim* DFA of the language.  Trim minimal DFAs are
//! canonical up to isomorphism, which [`crate::decide::equivalent`] relies
//! on indirectly.
//!
//! The numbering is part of the contract (learned hypotheses, their printed
//! regexes and the transcripts built from them are compared byte for byte):
//!
//! * the input's states keep their ids, and the sink, when any transition is
//!   missing (or the input has no state), is state `n` of an `n`-state input;
//! * the refinement starts from the split rejecting = 0 / accepting = 1, and
//!   every round numbers its classes by first occurrence in state order,
//!   stopping at the first round that does not raise the class count;
//! * the trim keeps the surviving classes in ascending order, numbered
//!   densely from 0; when the start class is not kept the result is
//!   [`Dfa::empty_language`].
//!
//! The test module keeps the implementation that completed a copy,
//! refined through a signature map and trimmed a full quotient, as the
//! oracle every result is compared against with `==`.

use crate::dfa::Dfa;

/// Returns the minimal trim DFA recognizing the same language as `dfa`.
pub fn minimize(dfa: &Dfa) -> Dfa {
    let alphabet = dfa.used_alphabet();
    let symbols = alphabet.symbols();
    let k = symbols.len();
    let real = dfa.state_count();
    // Successor table, `k` columns per state; the virtual sink is row `real`
    // and every missing transition points at it.
    let sink = real;
    let mut successors = vec![sink; (real + 1) * k];
    let mut needs_sink = real == 0;
    for state in 0..real {
        let row = &mut successors[state * k..(state + 1) * k];
        let mut column = 0;
        let mut filled = 0;
        // Both the transitions and the alphabet are in label order.
        for (symbol, target) in dfa.transitions_from(state) {
            while symbols[column] != symbol {
                column += 1;
            }
            row[column] = target;
            filled += 1;
        }
        needs_sink |= filled < k;
    }
    let n = if needs_sink { real + 1 } else { real };
    let accepting = |state: usize| state < real && dfa.is_accepting(state);

    // Moore refinement.  A state's signature is its class followed by the
    // classes of its successors; `order` sorts the states by signature so
    // equal ones are adjacent, and `first` numbers the groups by their first
    // state.
    let width = k + 1;
    let mut class_of: Vec<usize> = (0..n).map(|state| accepting(state) as usize).collect();
    let mut class_count = 2;
    let mut signatures = vec![0usize; n * width];
    let mut order: Vec<usize> = (0..n).collect();
    let mut group_of = vec![0usize; n];
    let mut first = vec![usize::MAX; n];
    loop {
        for state in 0..n {
            let signature = &mut signatures[state * width..(state + 1) * width];
            signature[0] = class_of[state];
            for (slot, &target) in signature[1..]
                .iter_mut()
                .zip(&successors[state * k..(state + 1) * k])
            {
                *slot = class_of[target];
            }
        }
        let signature = |state: usize| &signatures[state * width..(state + 1) * width];
        order.sort_unstable_by(|&a, &b| signature(a).cmp(signature(b)));
        let mut groups = 0;
        for (i, &state) in order.iter().enumerate() {
            if i > 0 && signature(order[i - 1]) != signature(state) {
                groups += 1;
            }
            group_of[state] = groups;
        }
        first[..=groups].fill(usize::MAX);
        let mut next_count = 0;
        for (state, class) in class_of.iter_mut().enumerate() {
            let group = group_of[state];
            if first[group] == usize::MAX {
                first[group] = next_count;
                next_count += 1;
            }
            *class = first[group];
        }
        if next_count == class_count {
            break;
        }
        class_count = next_count;
    }

    // The quotient over classes: each class's first state is its
    // representative (the states of a class agree on every successor class).
    let mut representative = vec![usize::MAX; class_count];
    for (state, &class) in class_of.iter().enumerate() {
        if representative[class] == usize::MAX {
            representative[class] = state;
        }
    }
    let class_successor =
        |class: usize, column: usize| class_of[successors[representative[class] * k + column]];
    let class_accepting = |class: usize| accepting(representative[class]);
    let start = class_of[dfa.start()];

    // Reachable from the start class.
    let mut reachable = vec![false; class_count];
    let mut stack = vec![start];
    reachable[start] = true;
    while let Some(class) = stack.pop() {
        for column in 0..k {
            let target = class_successor(class, column);
            if !reachable[target] {
                reachable[target] = true;
                stack.push(target);
            }
        }
    }
    // Moore's fixed point is language equivalence, so the states that reach
    // no accepting state share one class: the rejecting class whose every
    // successor is itself.
    let dead = |class: usize| {
        !class_accepting(class) && (0..k).all(|column| class_successor(class, column) == class)
    };
    if dead(start) {
        return Dfa::empty_language();
    }

    // The trim quotient: kept classes in ascending order, numbered densely.
    let mut renumber = vec![usize::MAX; class_count];
    let mut kept = 0;
    for class in 0..class_count {
        if reachable[class] && !dead(class) {
            renumber[class] = kept;
            kept += 1;
        }
    }
    let mut trimmed = Dfa::empty_language();
    for _ in 1..kept {
        trimmed.add_state(false);
    }
    for class in (0..class_count).filter(|&class| renumber[class] != usize::MAX) {
        let from = renumber[class];
        trimmed.set_accepting(from, class_accepting(class));
        for (column, &symbol) in symbols.iter().enumerate() {
            let to = renumber[class_successor(class, column)];
            if to != usize::MAX {
                trimmed.add_transition(from, symbol, to);
            }
        }
    }
    trimmed.set_start(renumber[start]);
    trimmed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinize::determinize;
    use crate::nfa::Nfa;
    use crate::regex::Regex;
    use gps_graph::LabelId;
    use std::collections::BTreeMap;

    /// The implementation before the flat table: a completed copy, a
    /// signature map per round and a full quotient that is then trimmed.
    fn oracle(dfa: &Dfa) -> Dfa {
        let alphabet = dfa.used_alphabet();
        let complete = dfa.complete(&alphabet);
        let n = complete.state_count();
        if n == 0 {
            return Dfa::empty_language();
        }

        // Initial partition: accepting vs non-accepting states.
        let mut class_of: Vec<usize> = (0..n)
            .map(|s| if complete.is_accepting(s) { 1 } else { 0 })
            .collect();
        let mut class_count = 2;

        loop {
            // Signature of a state: its class + the classes reached per symbol.
            let mut signatures: BTreeMap<(usize, Vec<usize>), usize> = BTreeMap::new();
            let mut next_class_of = vec![0usize; n];
            let mut next_count = 0usize;
            for state in 0..n {
                let successor_classes: Vec<usize> = alphabet
                    .iter()
                    .map(|symbol| {
                        complete
                            .step(state, symbol)
                            .map(|t| class_of[t])
                            .unwrap_or(usize::MAX)
                    })
                    .collect();
                let key = (class_of[state], successor_classes);
                let class = *signatures.entry(key).or_insert_with(|| {
                    let c = next_count;
                    next_count += 1;
                    c
                });
                next_class_of[state] = class;
            }
            if next_count == class_count {
                class_of = next_class_of;
                break;
            }
            class_of = next_class_of;
            class_count = next_count;
        }

        // Build the quotient automaton: one state per refinement class (classes
        // are contiguous 0..class_count by construction of the signature map).
        let mut quotient = Dfa::empty_language();
        while quotient.state_count() < class_count {
            quotient.add_state(false);
        }
        for (state, &class) in class_of.iter().enumerate() {
            if complete.is_accepting(state) {
                quotient.set_accepting(class, true);
            }
        }
        // Transitions: pick any representative per class (classes agree on the
        // target class of every symbol by construction).
        let mut class_representative: BTreeMap<usize, usize> = BTreeMap::new();
        for (state, &class) in class_of.iter().enumerate() {
            class_representative.entry(class).or_insert(state);
        }
        for (&class, &rep) in &class_representative {
            for (symbol, target) in complete.transitions_from(rep) {
                quotient.add_transition(class, symbol, class_of[target]);
            }
        }
        quotient.set_start(class_of[complete.start()]);
        quotient.trim()
    }

    fn l(i: u32) -> LabelId {
        LabelId::new(i)
    }

    fn minimal_of(regex: &Regex) -> Dfa {
        minimize(&determinize(&Nfa::from_regex(regex)))
    }

    #[test]
    fn minimization_preserves_language() {
        let r = Regex::concat([
            Regex::star(Regex::union([Regex::symbol(l(0)), Regex::symbol(l(1))])),
            Regex::symbol(l(2)),
        ]);
        let big = determinize(&Nfa::from_regex(&r));
        let small = minimize(&big);
        for word in [
            vec![],
            vec![l(2)],
            vec![l(0), l(2)],
            vec![l(1), l(0), l(2)],
            vec![l(2), l(2)],
            vec![l(0)],
        ] {
            assert_eq!(big.accepts(&word), small.accepts(&word), "word {word:?}");
        }
        assert!(small.state_count() <= big.state_count());
    }

    #[test]
    fn known_minimal_sizes() {
        // (a+b)*c — minimal trim DFA: 2 states.
        let r1 = Regex::concat([
            Regex::star(Regex::union([Regex::symbol(l(0)), Regex::symbol(l(1))])),
            Regex::symbol(l(2)),
        ]);
        assert_eq!(minimal_of(&r1).state_count(), 2);
        // a* — 1 state.
        assert_eq!(
            minimal_of(&Regex::star(Regex::symbol(l(0)))).state_count(),
            1
        );
        // a·b — 3 states (trim).
        assert_eq!(minimal_of(&Regex::word(&[l(0), l(1)])).state_count(), 3);
        // ε — 1 accepting state.
        assert_eq!(minimal_of(&Regex::Epsilon).state_count(), 1);
        // ∅ — trim leaves a single rejecting state by convention.
        assert_eq!(minimal_of(&Regex::Empty).state_count(), 1);
    }

    #[test]
    fn equivalent_expressions_minimize_to_same_size() {
        // (a*)* and a* and ε + a·a*
        let a = Regex::symbol(l(0));
        let r1 = Regex::star(Regex::star(a.clone()));
        let r2 = Regex::star(a.clone());
        let r3 = Regex::union([Regex::Epsilon, Regex::plus(a.clone())]);
        let s1 = minimal_of(&r1).state_count();
        let s2 = minimal_of(&r2).state_count();
        let s3 = minimal_of(&r3).state_count();
        assert_eq!(s1, s2);
        assert_eq!(s2, s3);
    }

    #[test]
    fn redundant_states_are_merged() {
        // Hand-built DFA with two equivalent accepting states.
        let mut dfa = Dfa::empty_language();
        let acc1 = dfa.add_state(true);
        let acc2 = dfa.add_state(true);
        dfa.add_transition(0, l(0), acc1);
        dfa.add_transition(0, l(1), acc2);
        // Both accepting states are sinks → equivalent.
        let min = minimize(&dfa);
        assert_eq!(min.state_count(), 2);
        assert!(min.accepts(&[l(0)]));
        assert!(min.accepts(&[l(1)]));
        assert!(!min.accepts(&[l(0), l(0)]));
    }

    #[test]
    fn minimization_removes_unreachable_and_dead_states() {
        let mut dfa = Dfa::empty_language();
        let acc = dfa.add_state(true);
        let dead = dfa.add_state(false);
        let unreachable = dfa.add_state(true);
        dfa.add_transition(0, l(0), acc);
        dfa.add_transition(0, l(1), dead);
        dfa.add_transition(unreachable, l(0), acc);
        let min = minimize(&dfa);
        assert_eq!(min.state_count(), 2);
        assert!(min.accepts(&[l(0)]));
        assert!(!min.accepts(&[l(1)]));
    }

    #[test]
    fn empty_language_minimizes_to_single_state() {
        let min = minimize(&Dfa::empty_language());
        assert_eq!(min.state_count(), 1);
        assert!(!min.accepts(&[]));
    }

    /// Every partial DFA with `states` states over two labels, with each
    /// start state and accepting set, in a fixed order.
    fn every_dfa(states: usize, mut visit: impl FnMut(&Dfa)) {
        let slots = 2 * states;
        // Each slot holds no transition (0) or a target + 1.
        let tables = (states + 1).pow(slots as u32);
        for table in 0..tables {
            let mut dfa = Dfa::empty_language();
            for _ in 1..states {
                dfa.add_state(false);
            }
            let mut code = table;
            for slot in 0..slots {
                let choice = code % (states + 1);
                code /= states + 1;
                if choice > 0 {
                    dfa.add_transition(slot / 2, l((slot % 2) as u32), choice - 1);
                }
            }
            for accepting in 0..1usize << states {
                for state in 0..states {
                    dfa.set_accepting(state, accepting >> state & 1 == 1);
                }
                for start in 0..states {
                    dfa.set_start(start);
                    visit(&dfa);
                }
            }
        }
    }

    #[test]
    fn every_small_dfa_minimizes_exactly_as_the_oracle_does() {
        let mut checked = 0;
        for states in 1..=3 {
            every_dfa(states, |dfa| {
                assert_eq!(minimize(dfa), oracle(dfa), "{dfa:?}");
                checked += 1;
            });
        }
        // (targets + 1)^(2 · states) tables × accepting sets × starts.
        assert_eq!(checked, 4 * 2 + 81 * 4 * 2 + 4096 * 8 * 3);
    }

    #[test]
    fn random_partial_dfas_minimize_exactly_as_the_oracle_does() {
        // A splitmix64 stream: enough randomness, no dependency.
        let mut seed = 0x6d69_6e69u64;
        let mut below = |bound: usize| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut shapes = [0usize; 3];
        for _ in 0..3000 {
            let states = 1 + below(9);
            let labels = 1 + below(4);
            let mut dfa = Dfa::empty_language();
            for _ in 1..states {
                dfa.add_state(false);
            }
            for state in 0..states {
                dfa.set_accepting(state, below(4) == 0);
                for label in 0..labels {
                    // About a third of the transitions are missing.
                    if below(3) > 0 {
                        dfa.add_transition(state, l(label as u32), below(states));
                    }
                }
            }
            dfa.set_start(below(states));
            let minimal = minimize(&dfa);
            assert_eq!(minimal, oracle(&dfa), "{dfa:?}");
            // Tally the shapes the sample must cover.
            if minimal == Dfa::empty_language() {
                shapes[0] += 1;
            } else if minimal.state_count() < dfa.reachable_states().len() {
                shapes[1] += 1;
            }
            if dfa.reachable_states().len() < states {
                shapes[2] += 1;
            }
        }
        assert!(shapes.iter().all(|&count| count > 100), "{shapes:?}");
    }

    #[test]
    fn the_numbering_contract_holds_on_named_shapes() {
        // ε, the empty language and a DFA with no state at all.
        for dfa in [
            Dfa::epsilon_language(),
            Dfa::empty_language(),
            Dfa::default(),
        ] {
            assert_eq!(minimize(&dfa), oracle(&dfa));
        }
        assert_eq!(minimize(&Dfa::default()), Dfa::empty_language());
        // Start at the highest state, an unreachable accepting state below
        // it and a dead state: the survivors keep their ascending order.
        let mut dfa = Dfa::empty_language();
        for accepting in [true, false, true, false] {
            dfa.add_state(accepting);
        }
        dfa.add_transition(4, l(1), 3);
        dfa.add_transition(4, l(0), 2);
        dfa.add_transition(2, l(0), 3);
        dfa.add_transition(3, l(1), 3);
        dfa.add_transition(1, l(0), 3);
        dfa.set_start(4);
        let minimal = minimize(&dfa);
        assert_eq!(minimal, oracle(&dfa));
        assert_eq!(minimal.state_count(), 3);
        assert_eq!(minimal.start(), 2, "the start's class is the highest kept");
    }
}
