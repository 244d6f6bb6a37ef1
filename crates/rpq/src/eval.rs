//! Product-graph evaluation of path queries.
//!
//! A node `v` is selected by query `q` iff, in the product of the graph with
//! the query DFA, the configuration `(v, start)` can reach some configuration
//! `(u, f)` with `f` accepting.  The evaluator computes the set of *all*
//! configurations that can reach an accepting configuration by a backward
//! fixed point (one pass over the product, independent of the number of
//! start nodes), then reads off the answer for every node at once.

use crate::blocks::{BlockBits, BlockSharing};
use gps_automata::Dfa;
use gps_graph::{CsrGraph, GraphDelta, LabelId, NodeId, Path, Word};
use std::collections::{BTreeMap, VecDeque};

/// The set of nodes selected by a query on a graph: one bit per node, packed
/// in `Arc`-shared blocks ([`BlockBits`]).
///
/// Cloning an answer copies a pointer table, not the bits, and an answer
/// produced by a capturing or resumed evaluation *is* the start state's alive
/// set of its [`EvalResume`] — the two share every block.  Equality is
/// node-set equality, compared block by block ([`BlockBits::same_ones`]):
/// whatever produced the answer and whatever graph size it was computed on,
/// two answers are equal iff they select the same nodes — a naive evaluation
/// equals a migrated one, and an answer [`extended`](Self::extended) by
/// unselected nodes equals the original.
#[derive(Debug, Clone, Default)]
pub struct QueryAnswer {
    selected: BlockBits,
}

impl PartialEq for QueryAnswer {
    fn eq(&self, other: &Self) -> bool {
        self.selected.same_ones(&other.selected)
    }
}

impl Eq for QueryAnswer {}

impl QueryAnswer {
    /// Builds an answer from a per-node membership vector.
    pub fn from_flags(selected: Vec<bool>) -> Self {
        Self {
            selected: BlockBits::from_flags(&selected),
        }
    }

    /// Builds an answer over `nodes` nodes from dense membership words (node
    /// `v` is bit `v % 64` of word `v / 64`).
    pub fn from_words(nodes: usize, words: &[u64]) -> Self {
        Self {
            selected: BlockBits::from_words(nodes, words),
        }
    }

    /// Number of nodes of the graph the answer was computed on.
    pub fn node_count(&self) -> usize {
        self.selected.len()
    }

    /// Returns `true` when `node` is selected.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.selected.contains(node.index())
    }

    /// The selected nodes in ascending id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.selected.ones().map(NodeId::from).collect()
    }

    /// Number of selected nodes.
    pub fn len(&self) -> usize {
        self.selected.count()
    }

    /// Returns `true` when no node is selected.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// Resolves the selected nodes to their display names.
    pub fn node_names<'g>(&self, graph: &'g CsrGraph) -> Vec<&'g str> {
        self.nodes()
            .into_iter()
            .map(|n| graph.node_name(n))
            .collect()
    }

    /// This answer over a graph grown to `nodes` nodes, every added node
    /// selected iff `selected`.  Shares every block but the old tail one
    /// (and that one too when the added nodes are unselected).
    pub fn extended(&self, nodes: usize, selected: bool) -> Self {
        let mut extended = self.clone();
        extended.selected.grow(nodes, selected);
        extended
    }

    /// How many blocks this answer shares with `older` (or with the uniform
    /// blocks) and how many are its own.
    pub fn sharing(&self, older: &QueryAnswer) -> BlockSharing {
        self.selected.sharing(&older.selected)
    }
}

/// One DFA state's share of a captured fixed point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StateSeed {
    /// The nodes `v` with configuration `(v, state)` alive.
    alive: BlockBits,
    /// Set bits of `alive`, maintained on every insert/remove so the
    /// over-delete budget never re-counts them.
    population: usize,
}

/// A *completed* product fixed point, resumable in place: for every DFA
/// state the alive-node set and its population — nothing else.  Whether a
/// configuration still has a derivation after an update is re-checked on the
/// patched graph, over the configuration's out-edges, only for the
/// configurations the update reaches; no per-configuration count is kept in
/// case one is needed.
///
/// The alive sets live in `Arc`-shared blocks ([`crate::blocks`]), so
/// `clone` copies pointer tables and every write copies one block.  That is
/// the whole resume protocol: an evaluator clones the old epoch's seed,
/// applies a [`GraphDelta`]'s consequences through [`insert`](Self::insert) /
/// [`remove`](Self::remove), and hands the clone back as the new epoch's
/// seed — the two epochs share every block the delta's derivation cone did
/// not reach ([`sharing`](Self::sharing) counts them), and retiring the old
/// epoch frees only what was copied.
///
/// An answer cache stores one of these next to each answer.  The seed is only
/// valid when it describes a true fixed point of the graph it was captured
/// on — evaluators that early-exit once the start state saturates must not
/// capture one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalResume {
    nodes: usize,
    states: Vec<StateSeed>,
}

impl EvalResume {
    /// An empty seed over `nodes` nodes; [`push_state`](Self::push_state)
    /// adds the DFA states in order.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            states: Vec::new(),
        }
    }

    /// Packs the next DFA state of a captured fixed point from its dense
    /// form: `alive` holds the state's alive set as bit-words over
    /// [`nodes`](Self::nodes) nodes.
    pub fn push_state(&mut self, alive: &[u64]) {
        let alive = BlockBits::from_words(self.nodes, alive);
        self.states.push(StateSeed {
            population: alive.count(),
            alive,
        });
    }

    /// The node count of the graph the fixed point describes.  A later
    /// epoch may have more nodes; [`grow`](Self::grow) extends the seed.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of DFA states captured.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Is configuration `(node, state)` alive?  Nodes past
    /// [`nodes`](Self::nodes) read as dead.
    #[inline]
    pub fn is_alive(&self, state: usize, node: usize) -> bool {
        self.states[state].alive.contains(node)
    }

    /// Number of alive configurations of `state`.
    pub fn population(&self, state: usize) -> usize {
        self.states[state].population
    }

    /// Number of alive configurations over all states.
    pub fn alive_total(&self) -> usize {
        self.states.iter().map(|state| state.population).sum()
    }

    /// Marks `(node, state)` alive; returns `true` when it was dead.
    pub fn insert(&mut self, state: usize, node: usize) -> bool {
        let state = &mut self.states[state];
        let fresh = state.alive.insert(node);
        state.population += usize::from(fresh);
        fresh
    }

    /// Marks `(node, state)` dead; returns `true` when it was alive.
    pub fn remove(&mut self, state: usize, node: usize) -> bool {
        let state = &mut self.states[state];
        let present = state.alive.remove(node);
        state.population -= usize::from(present);
        present
    }

    /// Extends the seed to a graph of `nodes` nodes (at least the current
    /// count).  An added node has no edges yet, so its configurations are
    /// alive exactly in the states `accepting` names.
    pub fn grow(&mut self, nodes: usize, accepting: impl Fn(usize) -> bool) {
        let added = nodes - self.nodes;
        for (index, state) in self.states.iter_mut().enumerate() {
            let fill = accepting(index);
            state.alive.grow(nodes, fill);
            state.population += if fill { added } else { 0 };
        }
        self.nodes = nodes;
    }

    /// The alive set of `state` as an answer — for the DFA's start state,
    /// *the* answer.  Shares every block with the seed.
    pub fn answer(&self, state: usize) -> QueryAnswer {
        QueryAnswer {
            selected: self.states[state].alive.clone(),
        }
    }

    /// How many blocks (alive bits, over all states) this seed shares with
    /// `older` — the seed it was resumed from — or with the uniform blocks,
    /// and how many the resume had to copy: the size of the delta's
    /// derivation cone, in blocks.
    pub fn sharing(&self, older: &EvalResume) -> BlockSharing {
        let mut total = BlockSharing::default();
        for (new, old) in self.states.iter().zip(&older.states) {
            total += new.alive.sharing(&old.alive);
        }
        total
    }
}

/// Evaluates a query DFA on a snapshot, node at a time: the reference every
/// other evaluator is tested against.
///
/// The product fixed point scans the snapshot's reverse rows
/// ([`CsrGraph::inc`]) directly.
pub fn evaluate(graph: &CsrGraph, dfa: &Dfa) -> QueryAnswer {
    let n = graph.node_count();
    let s = dfa.state_count();
    if n == 0 || s == 0 {
        return QueryAnswer::from_flags(vec![false; n]);
    }

    // Reverse DFA transitions: for each target state, the (label, source)
    // pairs that lead into it.
    let mut rev_dfa: Vec<Vec<(LabelId, usize)>> = vec![Vec::new(); s];
    for state in 0..s {
        for (label, target) in dfa.transitions_from(state) {
            rev_dfa[target].push((label, state));
        }
    }

    // `alive[node][state]` ⇔ configuration (node, state) can reach an
    // accepting configuration.  Flattened to a single vector.
    let idx = |node: usize, state: usize| node * s + state;
    let mut alive = vec![false; n * s];
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();

    // Seed: every configuration whose DFA state is accepting.
    for state in 0..s {
        if dfa.is_accepting(state) {
            for node in 0..n {
                alive[idx(node, state)] = true;
                queue.push_back((node, state));
            }
        }
    }

    // Backward propagation: (w, p) is alive when w --a--> u in the graph,
    // p --a--> q' in the DFA and (u, q') is alive.
    while let Some((node, state)) = queue.pop_front() {
        // Group the reverse DFA transitions into `label -> predecessor
        // states` on the fly; reverse graph edges give predecessor nodes.
        // States with no incoming DFA transition need no graph scan at all.
        let rev_transitions = &rev_dfa[state];
        if rev_transitions.is_empty() {
            continue;
        }
        for entry in graph.inc(NodeId::from(node)) {
            for &(label, prev_state) in rev_transitions {
                if label == entry.label {
                    let prev = (entry.node.index(), prev_state);
                    if !alive[idx(prev.0, prev.1)] {
                        alive[idx(prev.0, prev.1)] = true;
                        queue.push_back(prev);
                    }
                }
            }
        }
    }

    let start = dfa.start();
    let selected = (0..n).map(|node| alive[idx(node, start)]).collect();
    QueryAnswer::from_flags(selected)
}

/// A compiled-query evaluation strategy bound to one graph.
///
/// The [`EvalCache`](crate::EvalCache) and the `gps-core` engine evaluate
/// queries through this trait, so alternative execution engines — notably the
/// frontier-based batch engine of `gps-exec` — plug in without the query
/// layers changing.  Implementations own (or snapshot) their graph so an
/// evaluator can be handed to worker threads; the trait is object-safe and
/// boxed evaluators are what the cache stores.
pub trait DfaEvaluator: std::fmt::Debug + Send + Sync {
    /// Evaluates one compiled query DFA, returning the selected-node set.
    fn evaluate_dfa(&self, dfa: &Dfa) -> QueryAnswer;

    /// Evaluates a batch of compiled DFAs (answers in input order), one
    /// [`evaluate_dfa`](Self::evaluate_dfa) call each.
    ///
    /// No library code calls it: it stays because the `benchmark/`
    /// package's tracing decorator (`benchmark/src/trace.rs`) overrides it.
    fn evaluate_dfas(&self, dfas: &[&Dfa]) -> Vec<QueryAnswer> {
        dfas.iter().map(|dfa| self.evaluate_dfa(dfa)).collect()
    }

    /// Evaluates one DFA and, when the engine ran the product to a true
    /// fixed point, additionally captures the per-state alive sets as an
    /// [`EvalResume`] seed for later delta-restricted re-derivation.
    ///
    /// The default captures nothing (a plain evaluation); only engines whose
    /// internal state is exactly the product fixed point override this.
    fn evaluate_dfa_captured(&self, dfa: &Dfa) -> (QueryAnswer, Option<EvalResume>) {
        (self.evaluate_dfa(dfa), None)
    }

    /// Batch variant of [`evaluate_dfa_captured`](Self::evaluate_dfa_captured)
    /// (answers in input order), one call each.
    ///
    /// No library code calls it: it stays because the `benchmark/`
    /// package's tracing decorator (`benchmark/src/trace.rs`) overrides it.
    fn evaluate_dfas_captured(&self, dfas: &[&Dfa]) -> Vec<(QueryAnswer, Option<EvalResume>)> {
        dfas.iter()
            .map(|dfa| self.evaluate_dfa_captured(dfa))
            .collect()
    }

    /// Re-derives `dfa`'s answer on this evaluator's (post-delta) graph by
    /// resuming the product fixed point from `resume` — the alive sets of
    /// the *pre-delta* evaluation — on a copy-on-write clone of it.
    /// Insert-only deltas expand monotonically from the seed; deltas with
    /// removals additionally run a DRed-style over-delete/re-derive sweep
    /// over the removed edges' derivation cones.
    /// The returned seed shares every block the cone did not reach with
    /// `resume`, and the returned answer is its start state's alive set.
    ///
    /// Returns `None` when the seed does not match the DFA, when a removal's
    /// over-delete cone would exceed the engine's budget, a fraction of the
    /// alive configuration set (the saturation fallback — a cold recompute
    /// is cheaper at that point), or when the engine has no resumable entry
    /// point (the default).
    fn evaluate_dfa_resumed(
        &self,
        _dfa: &Dfa,
        _resume: &EvalResume,
        _delta: &GraphDelta,
    ) -> Option<(QueryAnswer, EvalResume)> {
        None
    }

    /// Single-node membership: is `node` selected by `dfa`?
    ///
    /// The default computes the full answer; engines with a single-source
    /// forward search (the frontier engine's witness search) override it.
    /// No library code calls it: it stays because the `benchmark/` package's
    /// tracing decorator (`benchmark/src/trace.rs`) overrides it.
    fn selects_node(&self, dfa: &Dfa, node: NodeId) -> bool {
        self.evaluate_dfa(dfa).contains(node)
    }

    /// A *shortest* witness path for `node` (a path spelling a word of the
    /// DFA's language), or `None` when the node is not selected.
    ///
    /// Every implementation must return a path of the minimal length, so
    /// callers that only consume the length (the simulated user's zooming
    /// decision) observe identical behavior across engines.
    fn witness(&self, dfa: &Dfa, node: NodeId) -> Option<Path>;

    /// The nodes with at least one outgoing path spelling one of `words`
    /// (ascending id order), by evaluation: the word set is compiled into
    /// its prefix-tree acceptor and evaluated like any query.
    ///
    /// Sessions read this relation from the word index
    /// ([`WordIndex::spellers`](crate::WordIndex::spellers)) instead; this is
    /// the evaluation the index is tested against.
    fn nodes_spelling(&self, words: &[Word]) -> Vec<NodeId> {
        if words.is_empty() {
            return Vec::new();
        }
        self.evaluate_dfa(&gps_automata::pta::build_pta(words))
            .nodes()
    }

    /// For every node spelling at least one of the (distinct) `words`, the
    /// *number* of those words it spells, as sorted `(node, count)` pairs —
    /// by how much a node's uncovered-word count drops when `words` become
    /// covered.  One [`nodes_spelling`](Self::nodes_spelling) per word.
    fn spelling_counts(&self, words: &[Word]) -> Vec<(NodeId, u32)> {
        let mut counts: BTreeMap<NodeId, u32> = BTreeMap::new();
        for word in words {
            for node in self.nodes_spelling(std::slice::from_ref(word)) {
                *counts.entry(node).or_default() += 1;
            }
        }
        counts.into_iter().collect()
    }
}

/// The reference node-at-a-time evaluator over a CSR snapshot.
///
/// Wraps [`evaluate`] behind the [`DfaEvaluator`] trait;
/// this is the evaluator every alternative engine is differentially tested
/// against.  The snapshot is held behind an [`Arc`](std::sync::Arc) so the
/// cache and the evaluator share one copy.
#[derive(Debug, Clone)]
pub struct NaiveEvaluator {
    csr: std::sync::Arc<CsrGraph>,
}

impl NaiveEvaluator {
    /// Builds the reference evaluator over an existing snapshot.
    pub fn from_csr(csr: CsrGraph) -> Self {
        Self::from_shared(std::sync::Arc::new(csr))
    }

    /// Builds the reference evaluator over a shared snapshot (no copy).
    pub fn from_shared(csr: std::sync::Arc<CsrGraph>) -> Self {
        Self { csr }
    }

    /// The underlying snapshot.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }
}

impl DfaEvaluator for NaiveEvaluator {
    fn evaluate_dfa(&self, dfa: &Dfa) -> QueryAnswer {
        evaluate(self.csr.as_ref(), dfa)
    }

    fn witness(&self, dfa: &Dfa, node: NodeId) -> Option<Path> {
        crate::witness::shortest_witness(self.csr.as_ref(), dfa, node)
    }
}

/// Counts, for every node, the number of distinct words of length at most
/// `bound` spelled by its outgoing paths that the DFA accepts.  It enumerates
/// every node's paths: a diagnostic, not what sessions score nodes with (they
/// read the word index, see [`EvalCache::bounded_words`](crate::EvalCache::bounded_words)).
pub fn accepted_word_counts(graph: &CsrGraph, dfa: &Dfa, bound: usize) -> BTreeMap<NodeId, usize> {
    use gps_graph::PathEnumerator;
    let enumerator = PathEnumerator::new(bound);
    graph
        .nodes()
        .map(|node| {
            let count = enumerator
                .words_from(graph, node)
                .into_iter()
                .filter(|w| dfa.accepts(w))
                .count();
            (node, count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_automata::Regex;
    use gps_graph::Graph;

    /// The full Figure 1 graph of the paper.
    fn figure1() -> CsrGraph {
        let mut g = Graph::new();
        for name in ["N1", "N2", "N3", "N4", "N5", "N6", "C1", "C2", "R1", "R2"] {
            g.add_node(name);
        }
        let n = |g: &Graph, name: &str| g.node_by_name(name).unwrap();
        let edges = [
            ("N1", "tram", "N4"),
            ("N2", "bus", "N1"),
            ("N2", "bus", "N3"),
            ("N3", "bus", "N2"),
            ("N2", "restaurant", "R1"),
            ("N4", "cinema", "C1"),
            ("N4", "bus", "N5"),
            ("N5", "tram", "N2"),
            ("N5", "restaurant", "R2"),
            ("N6", "tram", "N5"),
            ("N6", "cinema", "C2"),
            ("N3", "tram", "N6"),
        ];
        for (s, l, t) in edges {
            let s = n(&g, s);
            let t = n(&g, t);
            g.add_edge_by_name(s, l, t);
        }
        CsrGraph::from_graph(&g)
    }

    fn motivating_query(g: &CsrGraph) -> Dfa {
        let tram = g.label_id("tram").unwrap();
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::union([Regex::symbol(tram), Regex::symbol(bus)])),
            Regex::symbol(cinema),
        ]))
    }

    #[test]
    fn motivating_query_selects_reachable_neighborhoods() {
        let g = figure1();
        let dfa = motivating_query(&g);
        let answer = evaluate(&g, &dfa);
        let names = answer.node_names(&g);
        // Every neighborhood from which a cinema is reachable by tram/bus:
        // the paper lists N1, N2, N4, N6 for its (smaller) Figure 1; in our
        // encoding N3 and N5 also reach cinemas via tram/bus chains, so check
        // the exact fixed point of the semantics instead.
        assert!(names.contains(&"N1"));
        assert!(names.contains(&"N2"));
        assert!(names.contains(&"N4"));
        assert!(names.contains(&"N6"));
        assert!(!names.contains(&"C1"));
        assert!(!names.contains(&"R1"));
    }

    #[test]
    fn single_label_query() {
        let g = figure1();
        let cinema = g.label_id("cinema").unwrap();
        let dfa = Dfa::from_regex(&Regex::symbol(cinema));
        let answer = evaluate(&g, &dfa);
        let names = answer.node_names(&g);
        assert_eq!(names, vec!["N4", "N6"]);
        assert_eq!(answer.len(), 2);
    }

    #[test]
    fn empty_query_selects_nothing() {
        let g = figure1();
        let dfa = Dfa::from_regex(&Regex::Empty);
        let answer = evaluate(&g, &dfa);
        assert!(answer.is_empty());
        assert_eq!(answer.nodes(), vec![]);
    }

    #[test]
    fn epsilon_query_selects_every_node() {
        let g = figure1();
        let dfa = Dfa::from_regex(&Regex::Epsilon);
        let answer = evaluate(&g, &dfa);
        assert_eq!(answer.len(), g.node_count());
    }

    #[test]
    fn star_query_handles_cycles() {
        let g = figure1();
        let bus = g.label_id("bus").unwrap();
        // bus·bus·bus… of length ≥ 1: the N2↔N3 cycle gives arbitrarily long
        // bus paths, so both N2 and N3 are selected for bus·bus·bus.
        let dfa = Dfa::from_regex(&Regex::word(&[bus, bus, bus]));
        let answer = evaluate(&g, &dfa);
        let names = answer.node_names(&g);
        assert!(names.contains(&"N2"));
        assert!(names.contains(&"N3"));
        assert!(!names.contains(&"N4"));
    }

    #[test]
    fn evaluation_on_empty_graph() {
        let g = CsrGraph::default();
        let dfa = Dfa::from_regex(&Regex::Epsilon);
        let answer = evaluate(&g, &dfa);
        assert!(answer.is_empty());
        assert!(!answer.contains(NodeId::new(0)));
    }

    #[test]
    fn accepted_word_counts_score_nodes() {
        let g = figure1();
        let dfa = motivating_query(&g);
        let counts = accepted_word_counts(&g, &dfa, 3);
        let n4 = g.node_by_name("N4").unwrap();
        let c1 = g.node_by_name("C1").unwrap();
        assert!(counts[&n4] >= 1, "N4 has the direct cinema path");
        assert_eq!(counts[&c1], 0);
    }

    #[test]
    fn naive_evaluator_matches_direct_evaluation() {
        let g = figure1();
        let dfa = motivating_query(&g);
        let evaluator = NaiveEvaluator::from_csr(g.clone());
        assert_eq!(evaluator.evaluate_dfa(&dfa), evaluate(&g, &dfa));
        let cinema = g.label_id("cinema").unwrap();
        let d2 = Dfa::from_regex(&Regex::symbol(cinema));
        let batch = evaluator.evaluate_dfas(&[&dfa, &d2]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[1], evaluate(&g, &d2));
        assert_eq!(evaluator.csr().node_count(), g.node_count());
    }

    #[test]
    fn answer_flags_round_trip() {
        let answer = QueryAnswer::from_flags(vec![true, false, true]);
        assert!(answer.contains(NodeId::new(0)));
        assert!(!answer.contains(NodeId::new(1)));
        assert!(answer.contains(NodeId::new(2)));
        assert!(!answer.contains(NodeId::new(7)), "out of range is false");
        assert_eq!(answer.nodes(), vec![NodeId::new(0), NodeId::new(2)]);
    }
}
