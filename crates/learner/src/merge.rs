//! Step (ii) of the learning algorithm: generalization of the prefix-tree
//! acceptor by state merging.
//!
//! The merger follows the RPNI discipline: states of the PTA are considered
//! in breadth-first order; each is tentatively merged with every previously
//! kept ("red") state, folding the automaton back into a deterministic one;
//! a merge is committed only if the resulting language still excludes every
//! *negative word* (every bounded word of every negative node).  Because
//! merging only ever grows the language, the positive sample stays accepted
//! throughout.

use gps_automata::pta::build_pta_with_order;
use gps_automata::Dfa;
use gps_graph::{LabelId, Word};
use std::collections::BTreeMap;

/// A mutable, mergeable DFA working copy with union-find state
/// representatives.
#[derive(Debug, Clone)]
struct MergeTable {
    transitions: Vec<BTreeMap<LabelId, usize>>,
    accepting: Vec<bool>,
    parent: Vec<usize>,
    start: usize,
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
        }
    }

    fn find(&mut self, state: usize) -> usize {
        if self.parent[state] != state {
            let root = self.find(self.parent[state]);
            self.parent[state] = root;
            root
        } else {
            state
        }
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
        self.parent[absorb] = keep;
        self.accepting[keep] |= self.accepting[absorb];
        let absorbed: Vec<(LabelId, usize)> = self.transitions[absorb]
            .iter()
            .map(|(&l, &t)| (l, t))
            .collect();
        for (label, target) in absorbed {
            match self.transitions[keep].get(&label).copied() {
                Some(existing) => {
                    // Deterministic folding: the two targets must be merged.
                    self.merge(existing, target);
                    // `keep` may have been absorbed by a recursive merge;
                    // re-resolve before continuing.
                }
                None => {
                    self.transitions[keep].insert(label, target);
                }
            }
        }
    }

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

    /// Extracts the quotient DFA (reachable classes only, renumbered).
    fn quotient_dfa(&mut self) -> Dfa {
        let n = self.parent.len();
        // Resolve representatives.
        let reps: Vec<usize> = (0..n).map(|s| self.find(s)).collect();
        let mut renumber: BTreeMap<usize, usize> = BTreeMap::new();
        let mut dfa = Dfa::empty_language();
        let start_rep = reps[self.start];
        renumber.insert(start_rep, 0);
        dfa.set_accepting(0, self.accepting[start_rep]);
        let mut queue = std::collections::VecDeque::from([start_rep]);
        while let Some(rep) = queue.pop_front() {
            let from = renumber[&rep];
            let outgoing: Vec<(LabelId, usize)> = self.transitions[rep]
                .iter()
                .map(|(&l, &t)| (l, t))
                .collect();
            for (label, target) in outgoing {
                let target_rep = reps[target];
                let to = match renumber.get(&target_rep) {
                    Some(&id) => id,
                    None => {
                        let id = dfa.add_state(self.accepting[target_rep]);
                        renumber.insert(target_rep, id);
                        queue.push_back(target_rep);
                        id
                    }
                };
                dfa.add_transition(from, label, to);
            }
        }
        dfa
    }
}

/// Generalizes the PTA of `positive_words` by RPNI-style state merging,
/// keeping the language disjoint from `negative_words`.
///
/// Returns a DFA that accepts every positive word and none of the negative
/// words.  Without negative words the result collapses towards the most
/// general automaton compatible with the positive alphabet usage.
pub fn generalize(positive_words: &[Word], negative_words: &[Word]) -> Dfa {
    let (pta, order) = build_pta_with_order(positive_words);
    let mut table = MergeTable::from_dfa(&pta);

    // Red states: kept as distinct states of the hypothesis.  Start with the
    // root.
    let mut red: Vec<usize> = vec![order[0]];

    for &blue in order.iter().skip(1) {
        // Skip states already absorbed by a previous merge.
        if table.find(blue) != blue {
            continue;
        }
        let mut merged = false;
        for &r in &red {
            // Tentative merge on a scratch copy.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId::new(i)
    }

    #[test]
    fn no_negatives_collapses_to_a_general_language() {
        // Positive words: a, aa, aaa → expect something like a* or a+ (all
        // positives accepted).
        let positives = vec![vec![l(0)], vec![l(0); 2], vec![l(0); 3]];
        let dfa = generalize(&positives, &[]);
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
        let dfa = generalize(&positives, &negatives);
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
        let dfa = generalize(&positives, &negatives);
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
        let dfa = generalize(&positives, &negatives);
        assert!(positives.iter().all(|word| dfa.accepts(word)));
        assert!(negatives.iter().all(|word| !dfa.accepts(word)));
    }

    #[test]
    fn empty_positive_sample_rejects_everything_nonempty() {
        let dfa = generalize(&[], &[vec![l(0)]]);
        assert!(!dfa.accepts(&[l(0)]));
        assert!(!dfa.accepts(&[]));
    }

    #[test]
    fn single_word_sample_without_negatives() {
        let positives = vec![vec![l(1), l(0), l(2)]];
        let dfa = generalize(&positives, &[]);
        assert!(dfa.accepts(&[l(1), l(0), l(2)]));
    }

    #[test]
    fn disjoint_alternatives_are_preserved() {
        // Positives: ab, c ; negatives: a, b, ba.
        let positives = vec![vec![l(0), l(1)], vec![l(2)]];
        let negatives = vec![vec![l(0)], vec![l(1)], vec![l(1), l(0)]];
        let dfa = generalize(&positives, &negatives);
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
