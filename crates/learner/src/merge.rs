//! Step (ii) of the learning algorithm: generalization of the prefix-tree
//! acceptor by state merging.
//!
//! The merger follows the RPNI discipline: states of the PTA are considered
//! in breadth-first order; each is tentatively merged with every previously
//! kept ("red") state, folding the automaton back into a deterministic one;
//! a merge is committed only if the resulting language still excludes every
//! *negative word* (every bounded word of every negative node, and the empty
//! word ε).  Because merging only ever grows the language, the positive
//! sample stays accepted throughout.
//!
//! Two things keep an attempt cheap:
//!
//! * **The check walks the negatives' prefix tree.**  The negative words are
//!   the coverage's trie, read in place: the walk descends the trie and the
//!   folded automaton together and prunes every branch the automaton has no
//!   transition for, so a shared prefix is run once and a word the
//!   automaton cannot spell is never visited.  The trie's root always counts
//!   as a negative word: a nullable query would select every node of every
//!   graph, so an accepting start state rejects the merge whether or not ε
//!   was inserted.
//! * **A rejected merge is undone in place.**  Every write an attempt makes
//!   goes into a journal — union-find parent writes (path compression in
//!   `find` included: a compressed pointer can skip a link the rollback
//!   restores), accepting flags raised and transitions inserted — and a
//!   rejection replays it backwards.  No attempt copies the table.
//!
//! The result is the one a copy-per-attempt merger checking a sorted word
//! list produces, state numbering included; the test module keeps that
//! merger as the oracle.

use gps_automata::pta::build_pta_with_order;
use gps_automata::Dfa;
use gps_graph::{LabelId, PrefixNodeId, PrefixTree, Word};
use std::collections::BTreeMap;

/// One write of a merge attempt, with what it overwrote.
#[derive(Debug, Clone, Copy)]
enum Write {
    /// `parent[state]` held this value.
    Parent(usize, usize),
    /// `accepting[state]` was `false`.
    Accepting(usize),
    /// `transitions[state]` had no entry for this label.
    Transition(usize, LabelId),
}

/// A mutable, mergeable DFA working copy with union-find state
/// representatives and a journal of the writes since the last commit.
#[derive(Debug, Clone)]
struct MergeTable {
    transitions: Vec<BTreeMap<LabelId, usize>>,
    accepting: Vec<bool>,
    parent: Vec<usize>,
    start: usize,
    journal: Vec<Write>,
}

impl MergeTable {
    fn from_dfa(dfa: &Dfa) -> Self {
        let n = dfa.state_count();
        let mut transitions = vec![BTreeMap::new(); n];
        let mut accepting = vec![false; n];
        for state in 0..n {
            accepting[state] = dfa.is_accepting(state);
            for (label, target) in dfa.transitions_from(state) {
                transitions[state].insert(label, target);
            }
        }
        Self {
            transitions,
            accepting,
            parent: (0..n).collect(),
            start: dfa.start(),
            journal: Vec::new(),
        }
    }

    fn find(&mut self, state: usize) -> usize {
        let mut root = state;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression, journaled like every other write.
        let mut current = state;
        while self.parent[current] != root {
            let next = self.parent[current];
            self.journal.push(Write::Parent(current, next));
            self.parent[current] = root;
            current = next;
        }
        root
    }

    /// Merges the classes of `a` and `b` and restores determinism by folding
    /// conflicting transitions (recursively merging their targets).
    fn merge(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        // Keep the smaller id as representative so the PTA root never loses
        // its identity.
        let (keep, absorb) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.journal.push(Write::Parent(absorb, absorb));
        self.parent[absorb] = keep;
        if self.accepting[absorb] && !self.accepting[keep] {
            self.journal.push(Write::Accepting(keep));
            self.accepting[keep] = true;
        }
        // `absorb` is no root any more, so nothing below writes its map:
        // borrow it out for the loop instead of copying it.
        let absorbed = std::mem::take(&mut self.transitions[absorb]);
        for (&label, &target) in &absorbed {
            // `keep` is not re-resolved when a recursive merge absorbs it;
            // the fold continues on its map, and the learned numbering
            // depends on that.
            match self.transitions[keep].get(&label).copied() {
                // Deterministic folding: the two targets must be merged.
                Some(existing) => self.merge(existing, target),
                None => {
                    self.journal.push(Write::Transition(keep, label));
                    self.transitions[keep].insert(label, target);
                }
            }
        }
        self.transitions[absorb] = absorbed;
    }

    /// Keeps every write since the last commit.
    fn commit(&mut self) {
        self.journal.clear();
    }

    /// Undoes every write since the last commit, newest first.
    fn roll_back(&mut self) {
        while let Some(write) = self.journal.pop() {
            match write {
                Write::Parent(state, old) => self.parent[state] = old,
                Write::Accepting(state) => self.accepting[state] = false,
                Write::Transition(state, label) => {
                    self.transitions[state].remove(&label);
                }
            }
        }
    }

    /// Returns `true` when the folded automaton accepts ε or a word of
    /// `negatives`: a depth-first walk of the trie beside the automaton that
    /// descends only where the automaton has a transition.  `stack` is
    /// scratch space.
    fn accepts_a_negative(
        &mut self,
        negatives: &PrefixTree,
        stack: &mut Vec<(PrefixNodeId, usize)>,
    ) -> bool {
        let root = negatives.root();
        stack.clear();
        stack.push((root, self.start));
        while let Some((node, state)) = stack.pop() {
            let state = self.find(state);
            if self.accepting[state] && (node == root || negatives.is_terminal(node)) {
                return true;
            }
            for (&label, &target) in &self.transitions[state] {
                if let Some(child) = negatives.child(node, label) {
                    stack.push((child, target));
                }
            }
        }
        false
    }

    /// Extracts the quotient DFA (reachable classes only, renumbered in
    /// breadth-first order).
    fn quotient_dfa(&mut self) -> Dfa {
        let n = self.parent.len();
        let reps: Vec<usize> = (0..n).map(|s| self.find(s)).collect();
        let mut renumber = vec![usize::MAX; n];
        let mut dfa = Dfa::empty_language();
        let start_rep = reps[self.start];
        renumber[start_rep] = 0;
        dfa.set_accepting(0, self.accepting[start_rep]);
        let mut queue = std::collections::VecDeque::from([start_rep]);
        while let Some(rep) = queue.pop_front() {
            let from = renumber[rep];
            for (&label, &target) in &self.transitions[rep] {
                let target_rep = reps[target];
                if renumber[target_rep] == usize::MAX {
                    renumber[target_rep] = dfa.add_state(self.accepting[target_rep]);
                    queue.push_back(target_rep);
                }
                dfa.add_transition(from, label, renumber[target_rep]);
            }
        }
        dfa
    }
}

/// Generalizes the PTA of `positive_words` by RPNI-style state merging,
/// keeping the language disjoint from the words of `negatives` and from ε.
///
/// Returns a DFA that accepts every positive word and no negative word.
/// With an empty trie the result collapses towards the most general
/// non-nullable automaton compatible with the positive alphabet usage.
pub fn generalize(positive_words: &[Word], negatives: &PrefixTree) -> Dfa {
    let (pta, order) = build_pta_with_order(positive_words);
    let mut table = MergeTable::from_dfa(&pta);
    let mut stack = Vec::new();

    // Red states: kept as distinct states of the hypothesis.  Start with the
    // root.
    let mut red: Vec<usize> = vec![order[0]];

    for &blue in order.iter().skip(1) {
        // Skip states already absorbed by a previous merge.
        if table.find(blue) != blue {
            continue;
        }
        table.commit();
        let mut merged = false;
        for &r in &red {
            table.merge(r, blue);
            if table.accepts_a_negative(negatives, &mut stack) {
                table.roll_back();
            } else {
                table.commit();
                merged = true;
                break;
            }
        }
        if !merged {
            red.push(blue);
        }
    }
    gps_automata::minimize::minimize(&table.quotient_dfa())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId::new(i)
    }

    impl MergeTable {
        /// Runs the folded automaton on a word; returns `true` when accepted.
        fn accepts(&mut self, word: &[LabelId]) -> bool {
            let mut state = self.find(self.start);
            for &symbol in word {
                let next = match self.transitions[state].get(&symbol).copied() {
                    Some(t) => t,
                    None => return false,
                };
                state = self.find(next);
            }
            self.accepting[state]
        }
    }

    /// The merger before the trie walk and the journal: every attempt merges
    /// on a copy of the table and runs every word of `negative_words` (which
    /// names ε itself) through it.
    fn oracle(positive_words: &[Word], negative_words: &[Word]) -> Dfa {
        let (pta, order) = build_pta_with_order(positive_words);
        let mut table = MergeTable::from_dfa(&pta);
        let mut red: Vec<usize> = vec![order[0]];
        for &blue in order.iter().skip(1) {
            if table.find(blue) != blue {
                continue;
            }
            let mut merged = false;
            for &r in &red {
                let mut scratch = table.clone();
                scratch.merge(r, blue);
                if negative_words.iter().all(|w| !scratch.accepts(w)) {
                    table = scratch;
                    merged = true;
                    break;
                }
            }
            if !merged {
                red.push(blue);
            }
        }
        gps_automata::minimize::minimize(&table.quotient_dfa())
    }

    /// A splitmix64 stream: enough randomness for samples, no dependency.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }

        /// `count` words over `labels` labels, each `min_len..=max_len` long.
        fn words(&mut self, count: u64, labels: u64, min_len: u64, max_len: u64) -> Vec<Word> {
            (0..count)
                .map(|_| {
                    let len = min_len + self.below(max_len - min_len + 1);
                    (0..len).map(|_| l(self.below(labels) as u32)).collect()
                })
                .collect()
        }
    }

    #[test]
    fn the_trie_walk_and_the_journal_match_the_word_list_oracle() {
        let mut stream = Stream(0x6770_7331);
        let mut start_accepting_rejections = 0;
        for case in 0..3000 {
            let labels = 2 + stream.below(2);
            let count = 1 + stream.below(5);
            let positives = stream.words(count, labels, 1, 4);
            // Every eighth case names ε as a negative explicitly; the trie
            // walk counts its root as negative either way.
            let count = stream.below(12);
            let mut negatives = stream.words(count, labels, 1, 4);
            if case % 8 == 0 {
                negatives.push(Vec::new());
            }
            let trie = PrefixTree::from_words(&negatives);
            let mut word_list = vec![Vec::new()];
            word_list.extend(negatives.iter().cloned());
            let expected = oracle(&positives, &word_list);
            assert_eq!(
                generalize(&positives, &trie),
                expected,
                "case {case}: positives {positives:?}, negatives {negatives:?}"
            );
            // How often only ε stood between a merge and the start state:
            // the same sample without the ε word generalizes differently.
            if oracle(&positives, &negatives) != expected {
                start_accepting_rejections += 1;
            }
        }
        assert!(
            start_accepting_rejections > 100,
            "the samples exercise merges that would make the start accepting \
             ({start_accepting_rejections})"
        );
    }

    #[test]
    fn a_rejected_merge_leaves_the_table_as_it_was() {
        let mut stream = Stream(0x6a6f_7572);
        for _ in 0..500 {
            let count = 2 + stream.below(4);
            let positives = stream.words(count, 2, 1, 4);
            let (pta, order) = build_pta_with_order(&positives);
            let mut table = MergeTable::from_dfa(&pta);
            // Commit a few merges, then attempt and roll back every other
            // pair: parents, flags and maps must read as before.
            for &state in order.iter().skip(1).take(2) {
                table.merge(order[0], state);
            }
            table.commit();
            let (parents, accepting, transitions) = (
                table.parent.clone(),
                table.accepting.clone(),
                table.transitions.clone(),
            );
            for &a in &order {
                for &b in &order {
                    table.merge(a, b);
                    table.find(b);
                    table.roll_back();
                    assert_eq!(table.parent, parents);
                    assert_eq!(table.accepting, accepting);
                    assert_eq!(table.transitions, transitions);
                }
            }
        }
    }

    #[test]
    fn no_negatives_collapses_to_a_general_language() {
        // Positive words: a, aa, aaa → expect something like a* or a+ (all
        // positives accepted).
        let positives = vec![vec![l(0)], vec![l(0); 2], vec![l(0); 3]];
        let dfa = generalize(&positives, &PrefixTree::new());
        for p in &positives {
            assert!(dfa.accepts(p));
        }
        // Generalization merges the chain into a loop, so longer words are
        // accepted too.
        assert!(dfa.accepts(&[l(0); 10]));
        assert!(dfa.state_count() <= 2);
    }

    #[test]
    fn negatives_block_overgeneralization() {
        // Positives: a, aa ; negative: aaa.  The learner must keep the
        // counting structure that rejects aaa.
        let positives = vec![vec![l(0)], vec![l(0); 2]];
        let negatives = vec![vec![l(0); 3]];
        let dfa = generalize(&positives, &PrefixTree::from_words(&negatives));
        assert!(dfa.accepts(&[l(0)]));
        assert!(dfa.accepts(&[l(0); 2]));
        assert!(!dfa.accepts(&[l(0); 3]));
    }

    #[test]
    fn paper_example_generalizes_to_the_goal_query() {
        // tram = 0, bus = 1, cinema = 2.
        // Selected positive paths: bus·tram·cinema (for N2) and cinema (for
        // N6); negative words: those of N5 — in the paper's Figure 1, N5 has
        // paths tram·…, restaurant — model a few of them.
        let tram = l(0);
        let bus = l(1);
        let cinema = l(2);
        let restaurant = l(3);
        let positives = vec![vec![bus, tram, cinema], vec![cinema]];
        let negatives = vec![vec![restaurant], vec![tram, restaurant], vec![tram, bus]];
        let dfa = generalize(&positives, &PrefixTree::from_words(&negatives));
        // All positives accepted, no negative accepted.
        assert!(dfa.accepts(&[bus, tram, cinema]));
        assert!(dfa.accepts(&[cinema]));
        for n in &negatives {
            assert!(!dfa.accepts(n));
        }
        // The generalization accepts other (tram+bus)*·cinema words.
        assert!(dfa.accepts(&[tram, cinema]) || dfa.accepts(&[bus, cinema]));
    }

    #[test]
    fn generalization_accepts_every_positive_and_no_negative() {
        let positives = vec![vec![l(0), l(1)], vec![l(1)]];
        let negatives = vec![vec![l(0)], vec![l(0), l(0)]];
        let dfa = generalize(&positives, &PrefixTree::from_words(&negatives));
        assert!(positives.iter().all(|word| dfa.accepts(word)));
        assert!(negatives.iter().all(|word| !dfa.accepts(word)));
    }

    #[test]
    fn empty_positive_sample_rejects_everything_nonempty() {
        let dfa = generalize(&[], &PrefixTree::from_words([[l(0)]]));
        assert!(!dfa.accepts(&[l(0)]));
        assert!(!dfa.accepts(&[]));
    }

    #[test]
    fn single_word_sample_without_negatives() {
        let positives = vec![vec![l(1), l(0), l(2)]];
        let dfa = generalize(&positives, &PrefixTree::new());
        assert!(dfa.accepts(&[l(1), l(0), l(2)]));
    }

    #[test]
    fn disjoint_alternatives_are_preserved() {
        // Positives: ab, c ; negatives: a, b, ba.
        let positives = vec![vec![l(0), l(1)], vec![l(2)]];
        let negatives = vec![vec![l(0)], vec![l(1)], vec![l(1), l(0)]];
        let dfa = generalize(&positives, &PrefixTree::from_words(&negatives));
        assert!(dfa.accepts(&[l(0), l(1)]));
        assert!(dfa.accepts(&[l(2)]));
        assert!(!dfa.accepts(&[l(0)]));
        assert!(!dfa.accepts(&[l(1)]));
        assert!(!dfa.accepts(&[l(1), l(0)]));
    }

    #[test]
    fn merge_table_accepts_matches_dfa_semantics() {
        let positives = vec![vec![l(0)], vec![l(0), l(1)]];
        let (pta, _) = build_pta_with_order(&positives);
        let mut table = MergeTable::from_dfa(&pta);
        assert!(table.accepts(&[l(0)]));
        assert!(table.accepts(&[l(0), l(1)]));
        assert!(!table.accepts(&[l(1)]));
        assert!(!table.accepts(&[]));
    }
}
