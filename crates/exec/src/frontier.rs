//! The frontier evaluator — set-at-a-time product fixed point.
//!
//! Semantics are identical to `gps_rpq::eval::evaluate`: a node `v` is
//! selected iff configuration `(v, start)` can reach an accepting
//! configuration in the product of the graph with the query DFA.  Where the
//! naive evaluator propagates one `(node, state)` configuration at a time
//! through a queue, this evaluator keeps one bitset of nodes per DFA state
//! and advances the whole frontier per DFA transition in label-partitioned
//! slice sweeps (semi-naive/delta evaluation: only configurations discovered
//! in round `k` are expanded in round `k+1`).
//!
//! Every round is a **push**: the configurations the last round derived
//! (the frontier) are expanded backward through the reverse adjacency of
//! each DFA transition's label, and whatever turns alive forms the next
//! frontier — so round `k` derives exactly the configurations `k` steps from
//! an accepting one, and the round count is a plain backward breadth-first
//! walk's.  A round walks `frontier & occupancy words` of the label's
//! reverse partition ([`LabelIndex::rows`]) chunk by chunk — one chunk
//! lookup, then per word [`RowChunk::for_each_hit`] over the masked bits —
//! so it never looks up a row the label has nothing in.
//!
//! [`RowChunk::for_each_hit`]: crate::RowChunk::for_each_hit
//!
//! A state alive at every node is **saturated**: through a transition `p
//! --a--> q` into it, `(u, p)` is derivable exactly at the nodes `u` with an
//! `a`-edge, which are the occupancy words of `a`'s forward partition.  So a
//! round ORs those words into `p`'s sets instead of walking `q`'s frontier
//! row by row — one word operation per 64 nodes (≈ 15.6k at 1M nodes) where
//! the accepting states' first round would walk the whole reverse partition
//! of the last label.  A partition built before nodes were added covers
//! fewer rows; the rows it does not cover have no edge under its label, so
//! that is still exact.  The per-state alive and frontier populations are
//! carried through every insert and OR, so the saturation test and the
//! early exit read a number instead of counting bitsets.
//!
//! Two entry points, two working sets.  A **cold** evaluation
//! ([`evaluate_counting`], [`evaluate_captured`]) sweeps dense per-state
//! bitsets in a reusable [`Scratch`].  When asked to capture, it runs to the
//! true fixed point (no early exit) and packs the per-state alive sets once
//! into a block-shared [`EvalResume`] — the alive sets are the whole seed,
//! so a captured evaluation costs what an uncaptured one does.  A
//! **resume** ([`resume`]) never sees a `Scratch`: it clones that seed
//! copy-on-write and touches only the configurations a [`GraphDelta`] can
//! change; where a removal may have taken a configuration's last
//! derivation, it re-checks the configuration's out-edges on the patched
//! index instead of reading a stored count.

use crate::bitset::FixedBitSet;
use crate::index::{Direction, LabelIndex, CHUNK_WORDS};
use gps_automata::Dfa;
use gps_graph::{GraphDelta, LabelId, NodeId, Path};
use gps_rpq::{EvalResume, QueryAnswer};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Reusable allocation for one cold evaluation: per-state alive, frontier
/// and staging bitsets.  Batch callers keep one `Scratch` per worker and
/// amortize the allocations across every query of the workload.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    alive: Vec<FixedBitSet>,
    frontier: Vec<FixedBitSet>,
    next: Vec<FixedBitSet>,
}

impl Scratch {
    /// Resizes for `states` × `nodes` and clears every bit.
    fn prepare(&mut self, states: usize, nodes: usize) {
        for sets in [&mut self.alive, &mut self.frontier, &mut self.next] {
            sets.resize_with(states, FixedBitSet::default);
            for bits in sets {
                bits.reset(nodes);
            }
        }
    }
}

/// Evaluates `dfa` over `index`, reusing `scratch` for the per-state
/// bitsets, and reports how many frontier rounds the fixed point swept
/// (what `gps_exec_frontier_rounds_total` aggregates).
pub fn evaluate_counting(
    index: &LabelIndex,
    dfa: &Dfa,
    scratch: &mut Scratch,
) -> (QueryAnswer, u64) {
    let (answer, rounds, _) = fixed_point::<false>(index, dfa, scratch);
    (answer, rounds)
}

/// [`evaluate_counting`], additionally capturing the completed fixed point
/// as an [`EvalResume`] seed for later delta-restricted re-derivation; the
/// returned answer is the seed's start-state alive set and shares its
/// blocks.
///
/// The seed is only sound when the fixed point actually completed, so when
/// the start state saturates early (a query selecting every node) the
/// capturing evaluation keeps deriving the remaining states' closure to the
/// true fixed point instead of early-exiting — the answer is already final,
/// the extra rounds only finish the seed.  Capturing therefore always
/// returns `Some` on non-empty inputs, and uncaptured evaluations keep the
/// early exit (satellite states stay under-derived, which is fine when
/// nothing is recorded).
pub fn evaluate_captured(
    index: &LabelIndex,
    dfa: &Dfa,
    scratch: &mut Scratch,
) -> (QueryAnswer, u64, Option<EvalResume>) {
    fixed_point::<true>(index, dfa, scratch)
}

/// Calls `visit(p, sources)` with the `a`-predecessor row of `u` for every
/// DFA transition `p --a--> q` and every `u` in `from[q]` that has one, for
/// each state `q` that `skip` does not name: each entry `w` of such a row is
/// one derivation of configuration `(w, p)` from `(u, q)`.  Walks `from[q] &
/// occupied(Reverse, a)` chunk by chunk, word by word, so the rows a label
/// has nothing in are never looked up.
#[inline]
fn for_each_derivation(
    index: &LabelIndex,
    rev_dfa: &[Vec<(LabelId, usize)>],
    from: &[FixedBitSet],
    skip: impl Fn(usize) -> bool,
    mut visit: impl FnMut(usize, &[u32]),
) {
    for (q, (transitions, from)) in rev_dfa.iter().zip(from).enumerate() {
        if skip(q) {
            continue;
        }
        for &(label, p) in transitions {
            let chunks = index.rows(Direction::Reverse, label).chunks();
            for (chunk, words) in chunks.iter().zip(from.as_words().chunks(CHUNK_WORDS)) {
                if chunk.is_empty() {
                    continue;
                }
                for (i, &set) in words.iter().take(chunk.occupied().len()).enumerate() {
                    chunk.for_each_hit(i, set, |_, sources| visit(p, sources));
                }
            }
        }
    }
}

/// Calls `visit(w, occupied)` for every occupancy word of `label`'s forward
/// partition in a non-empty chunk, `w` being the word's index in a node set.  Through a
/// transition `p --a--> q` whose target `q` is alive at every node, the
/// occupancy words of `a`'s forward partition are exactly the nodes `(u, p)`
/// derives at; a partition covering fewer rows than the graph has nodes
/// has nothing in the rows it does not cover.
#[inline]
fn for_each_occupied_word(index: &LabelIndex, label: LabelId, mut visit: impl FnMut(usize, u64)) {
    for (c, chunk) in index
        .rows(Direction::Forward, label)
        .chunks()
        .iter()
        .enumerate()
    {
        if chunk.is_empty() {
            continue;
        }
        for (i, &occupied) in chunk.occupied().iter().enumerate() {
            visit(c * CHUNK_WORDS + i, occupied);
        }
    }
}

/// The product fixed point.  With `CAPTURE` it runs to the true fixed point
/// even once the answer is final, and packs every state's alive set into a
/// resumable seed.
fn fixed_point<const CAPTURE: bool>(
    index: &LabelIndex,
    dfa: &Dfa,
    scratch: &mut Scratch,
) -> (QueryAnswer, u64, Option<EvalResume>) {
    let n = index.node_count();
    let s = dfa.state_count();
    if n == 0 || s == 0 {
        return (QueryAnswer::from_flags(vec![false; n]), 0, None);
    }
    scratch.prepare(s, n);
    let Scratch {
        alive,
        frontier,
        next,
    } = scratch;

    let rev_dfa = reverse_transitions(dfa);

    // Per-state populations of `alive`, `frontier` and `next`, carried
    // through every insert and OR instead of re-counted.
    let mut alive_pop = vec![0usize; s];
    let mut frontier_pop = vec![0usize; s];
    let mut next_pop = vec![0usize; s];

    // Seed: every configuration whose DFA state is accepting.
    for state in 0..s {
        if dfa.is_accepting(state) {
            alive[state].insert_all();
            frontier[state].insert_all();
            alive_pop[state] = n;
            frontier_pop[state] = n;
        }
    }

    let start = dfa.start();
    let mut rounds = 0u64;
    loop {
        // The answer only reads `alive[start]`; once every node is selected
        // no further round can change it.  This exit can leave *other*
        // states under-derived, so a capturing evaluation skips it and runs
        // on to the true fixed point — the seed must cover every state.
        if !CAPTURE && alive_pop[start] == n {
            break;
        }
        rounds += 1;

        // Which states are saturated (see the module docs) is fixed as the
        // round starts: a round that fills a state ORs it in from the next
        // round on, so every round derives what walking its frontier would.
        // `alive` is marked immediately and the delta collected in `next`.
        let saturated: Vec<bool> = alive_pop.iter().map(|&pop| pop == n).collect();
        for q in (0..s).filter(|&q| saturated[q] && frontier_pop[q] > 0) {
            for &(label, p) in &rev_dfa[q] {
                let (alive, next) = (&mut alive[p], &mut next[p]);
                let mut fresh_bits = 0;
                for_each_occupied_word(index, label, |w, occupied| {
                    let fresh = alive.or_word(w, occupied);
                    if fresh != 0 {
                        next.or_word(w, fresh);
                        fresh_bits += fresh.count_ones() as usize;
                    }
                });
                alive_pop[p] += fresh_bits;
                next_pop[p] += fresh_bits;
            }
        }
        let skip = |q: usize| frontier_pop[q] == 0 || saturated[q];
        for_each_derivation(index, &rev_dfa, frontier, skip, |p, sources| {
            for &w in sources {
                if alive[p].insert(w as usize) {
                    next[p].insert(w as usize);
                    alive_pop[p] += 1;
                    next_pop[p] += 1;
                }
            }
        });
        if next_pop.iter().all(|&pop| pop == 0) {
            // Nothing new: a true fixed point.
            break;
        }
        std::mem::swap(frontier, next);
        std::mem::swap(&mut frontier_pop, &mut next_pop);
        for bits in next.iter_mut() {
            bits.clear();
        }
        next_pop.fill(0);
    }

    if !CAPTURE {
        let answer = QueryAnswer::from_words(n, alive[start].as_words());
        return (answer, rounds, None);
    }
    // The blocks are packed once, uniform stretches shared.  The answer is
    // the seed's start-state alive set (shared blocks).
    let mut seed = EvalResume::new(n);
    for bits in alive.iter() {
        seed.push_state(bits.as_words());
    }
    (seed.answer(start), rounds, Some(seed))
}

/// What [`resume`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resumed {
    /// The answer on the patched graph: the start state's alive set of
    /// `seed`, sharing its blocks.
    pub answer: QueryAnswer,
    /// Push rounds swept (insert sweep plus re-derivation).
    pub rounds: u64,
    /// Configurations the over-delete phase doomed.
    pub overdeleted: u64,
    /// The patched graph's fixed point — equal to a fresh capture on it,
    /// sharing every block the delta's cone did not reach with the old seed.
    pub seed: EvalResume,
}

/// The reversed DFA: for each target state, the `(label, source state)`
/// pairs leading into it.
fn reverse_transitions(dfa: &Dfa) -> Vec<Vec<(LabelId, usize)>> {
    let mut rev_dfa = vec![Vec::new(); dfa.state_count()];
    for state in 0..dfa.state_count() {
        for (label, target) in dfa.transitions_from(state) {
            rev_dfa[target].push((label, state));
        }
    }
    rev_dfa
}

/// Does configuration `(node, state)` have a one-step derivation into the
/// alive set — some DFA transition `state --a--> q` and edge `node --a--> v`
/// of the patched `index` with `(v, q)` alive in `seed`?  Stops at the first
/// one, so it costs at most the configuration's out-degree.
fn derivable(index: &LabelIndex, dfa: &Dfa, seed: &EvalResume, state: usize, node: usize) -> bool {
    dfa.transitions_from(state).any(|(label, target)| {
        (index.neighbors(Direction::Forward, label, node).iter())
            .any(|&v| seed.is_alive(target, v as usize))
    })
}

/// Pushes `frontier` — configurations that just turned alive — to closure
/// over the patched index: every frontier configuration sweeps its reverse
/// dependents exactly once, and a dependent that is dead and `eligible`
/// turns alive and joins the next round's frontier.  Returns the number of
/// rounds that derived something.
fn push_to_closure(
    index: &LabelIndex,
    rev_dfa: &[Vec<(LabelId, usize)>],
    seed: &mut EvalResume,
    frontier: &mut Vec<(usize, usize)>,
    eligible: impl Fn(usize, usize) -> bool,
) -> u64 {
    let mut rounds = 0;
    let mut next = Vec::new();
    loop {
        for &(q, v) in frontier.iter() {
            for &(label, p) in &rev_dfa[q] {
                for &w in index.neighbors(Direction::Reverse, label, v) {
                    let w = w as usize;
                    if eligible(p, w) && seed.insert(p, w) {
                        next.push((p, w));
                    }
                }
            }
        }
        if next.is_empty() {
            return rounds;
        }
        rounds += 1;
        std::mem::swap(frontier, &mut next);
        next.clear();
    }
}

/// Resumes the product fixed point from `old` — the seed captured (or
/// resumed) on the pre-delta graph — across `delta`, over the patched
/// `index`.  Works **in place on a copy-on-write clone of the seed**: the
/// clone copies pointer tables, every alive bit the delta changes copies the
/// one block it lives in, and the worklists are plain vectors of `(state,
/// node)` configurations — so a resume costs the delta's derivation cone
/// (plus one `Arc` per block for the clone), never the node count.
/// DRed-style (Gupta, Mumick & Subrahmanian), in three phases; the last two
/// only run when the delta removed edges:
///
/// 1. **Insert sweep.** Nodes added since the capture are alive in the
///    accepting states by definition; an added edge `u --a--> v` makes `(u,
///    p)` alive when `p --a--> q` and `(v, q)` is alive.  Those seed the
///    frontier and `push_to_closure` cascades them through old and new
///    edges alike.  The fixed point is monotone in the edge set, so for an
///    insert-only delta this is the whole resume.
/// 2. **Over-delete.** Every alive, non-accepting source `(p, u)` of a
///    removed edge `u --a--> v` whose target `(v, q)` was alive *in the old
///    seed* is *doomed* — whether or not another derivation remains, because
///    what remains may rest on a non-well-founded cycle (two configurations
///    deriving only each other must both die).  Dooming propagates
///    transitively over the reverse index: each popped configuration leaves
///    the alive set and dooms its alive, non-accepting dependents.  When the
///    doom count passes half the alive population after the insert sweep
///    (carried in the seed, not re-counted), the sweep gives up — a cold
///    recompute is in the same cost class as over-delete *plus* re-derive
///    at that point, without the bookkeeping.
/// 3. **Re-derive.** A survivor of over-delete has no derivation through a
///    doomed configuration or a removed edge, so its old well-founded
///    derivation still holds.  A doomed configuration is re-derivable
///    exactly when it has a one-step derivation into the alive set
///    (`derivable`, in its out-degree): those re-enter the alive set and
///    push to closure over the doomed configurations.  Only doomed
///    configurations can revive — everything else alive-eligible survived
///    over-delete.
///
/// Returns `None` when the seed's shape does not match the DFA or the index,
/// when the delta names a node the index does not have, or when over-delete
/// passes its budget.  `old` is never modified.
pub fn resume(
    index: &LabelIndex,
    dfa: &Dfa,
    old: &EvalResume,
    delta: &GraphDelta,
) -> Option<Resumed> {
    /// The over-delete budget, as a fraction of the alive population.
    const OVERDELETE_LIMIT: f64 = 0.5;
    let n = index.node_count();
    let s = dfa.state_count();
    if n == 0 || s == 0 || old.state_count() != s || old.nodes() > n {
        return None;
    }
    let in_range = |edge: &gps_graph::Edge| edge.source.index() < n && edge.target.index() < n;
    if !delta.added_edges.iter().all(in_range) || !delta.removed_edges.iter().all(in_range) {
        return None;
    }
    let rev_dfa = reverse_transitions(dfa);
    let mut seed = old.clone();

    // --- Insert sweep -----------------------------------------------------
    let mut frontier: Vec<(usize, usize)> = Vec::new();
    seed.grow(n, |state| dfa.is_accepting(state));
    for state in (0..s).filter(|&state| dfa.is_accepting(state)) {
        frontier.extend((old.nodes()..n).map(|node| (state, node)));
    }
    for edge in &delta.added_edges {
        let (u, v) = (edge.source.index(), edge.target.index());
        for p in 0..s {
            if let Some(q) = dfa.step(p, edge.label) {
                if seed.is_alive(q, v) && seed.insert(p, u) {
                    frontier.push((p, u));
                }
            }
        }
    }
    let mut rounds = push_to_closure(index, &rev_dfa, &mut seed, &mut frontier, |_, _| true);
    if delta.removed_edges.is_empty() {
        return Some(Resumed {
            answer: seed.answer(dfa.start()),
            rounds,
            overdeleted: 0,
            seed,
        });
    }

    // --- Over-delete ------------------------------------------------------
    let budget = OVERDELETE_LIMIT * seed.alive_total() as f64;
    // Doomed = over-deleted this sweep, in discovery order; the set answers
    // membership.  A doomed configuration leaves the alive set only when its
    // own propagation runs.
    let mut doomed: Vec<(usize, usize)> = Vec::new();
    let mut is_doomed: HashSet<(usize, usize)> = HashSet::new();
    // Dooms `(node, state)` if it is alive and not accepting; `false` once
    // the doom count is over budget.
    let mut doom = |seed: &EvalResume, doomed: &mut Vec<(usize, usize)>, state, node| -> bool {
        if !dfa.is_accepting(state) && seed.is_alive(state, node) && is_doomed.insert((state, node))
        {
            doomed.push((state, node));
        }
        doomed.len() as f64 <= budget
    };
    for edge in &delta.removed_edges {
        let (u, v) = (edge.source.index(), edge.target.index());
        for p in 0..s {
            if let Some(q) = dfa.step(p, edge.label) {
                if old.is_alive(q, v) && !doom(&seed, &mut doomed, p, u) {
                    return None;
                }
            }
        }
    }
    let mut popped = 0;
    while let Some(&(q, v)) = doomed.get(popped) {
        popped += 1;
        seed.remove(q, v);
        for &(label, p) in &rev_dfa[q] {
            for &w in index.neighbors(Direction::Reverse, label, v) {
                if !doom(&seed, &mut doomed, p, w as usize) {
                    return None;
                }
            }
        }
    }

    // --- Re-derive --------------------------------------------------------
    frontier.clear();
    for &(p, u) in &doomed {
        if derivable(index, dfa, &seed, p, u) && seed.insert(p, u) {
            frontier.push((p, u));
        }
    }
    rounds += push_to_closure(index, &rev_dfa, &mut seed, &mut frontier, |p, w| {
        is_doomed.contains(&(p, w))
    });

    Some(Resumed {
        answer: seed.answer(dfa.start()),
        rounds,
        overdeleted: doomed.len() as u64,
        seed,
    })
}

/// Shortest witness extraction over the label index: a BFS over `(node, DFA
/// state)` configurations following the per-label forward slices, with
/// parent links for path reconstruction.  The parent map is the visited set
/// (the start configuration is in it, with no parent), so a search costs
/// what it visits, not a bit per (node, state) of the graph.
///
/// Returns a path of the same (minimal) length as
/// `gps_rpq::witness::shortest_witness` — the concrete path may differ when
/// several shortest witnesses exist, but the length (what the interactive
/// layer's zooming decision consumes) is unique.
pub fn witness_from(index: &LabelIndex, dfa: &Dfa, source: usize) -> Option<Path> {
    if dfa.state_count() == 0 || source >= index.node_count() {
        return None;
    }
    let start_node = NodeId::from(source);
    if dfa.is_accepting(dfa.start()) {
        return Some(Path::empty(start_node));
    }
    // Parent links: (node, state) -> (parent node, parent state, label).
    let mut parents = HashMap::from([((source, dfa.start()), None)]);
    let mut queue = std::collections::VecDeque::from([(source, dfa.start())]);
    while let Some((node, state)) = queue.pop_front() {
        for (label, next_state) in dfa.transitions_from(state) {
            for &u in index.neighbors(Direction::Forward, label, node) {
                let next = (u as usize, next_state);
                if let Entry::Vacant(slot) = parents.entry(next) {
                    slot.insert(Some((node, state, label)));
                    if dfa.is_accepting(next_state) {
                        // Reconstruct by walking the parent links back.
                        let mut word = Vec::new();
                        let mut nodes = vec![NodeId::from(next.0)];
                        let mut current = next;
                        while let Some(&(pn, ps, label)) = parents[&current].as_ref() {
                            word.push(label);
                            nodes.push(NodeId::from(pn));
                            current = (pn, ps);
                        }
                        word.reverse();
                        nodes.reverse();
                        return Some(Path {
                            start: start_node,
                            word,
                            nodes,
                        });
                    }
                    queue.push_back(next);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::CHUNK_ROWS;
    use gps_automata::Regex;
    use gps_graph::{CsrGraph, Graph};

    fn figure1_like() -> CsrGraph {
        let mut g = Graph::new();
        let n1 = g.add_node("N1");
        let n2 = g.add_node("N2");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        CsrGraph::from_graph(&g)
    }

    fn motivating(g: &CsrGraph) -> Dfa {
        let tram = g.label_id("tram").unwrap();
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::union([Regex::symbol(tram), Regex::symbol(bus)])),
            Regex::symbol(cinema),
        ]))
    }

    fn eval(g: &CsrGraph, dfa: &Dfa) -> QueryAnswer {
        let index = LabelIndex::from_csr(g);
        let mut scratch = Scratch::default();
        evaluate_counting(&index, dfa, &mut scratch).0
    }

    #[test]
    fn the_motivating_query_matches_the_naive_evaluator() {
        let g = figure1_like();
        let dfa = motivating(&g);
        assert_eq!(eval(&g, &dfa), gps_rpq::eval::evaluate(&g, &dfa));
    }

    #[test]
    fn epsilon_selects_everything_and_empty_nothing() {
        let g = figure1_like();
        let eps = eval(&g, &Dfa::from_regex(&Regex::Epsilon));
        assert_eq!(eps.len(), g.node_count());
        assert!(eval(&g, &Dfa::from_regex(&Regex::Empty)).is_empty());
    }

    #[test]
    fn scratch_reuse_across_different_shapes() {
        let g = figure1_like();
        let index = LabelIndex::from_csr(&g);
        let mut scratch = Scratch::default();
        let big = motivating(&g);
        let small = Dfa::from_regex(&Regex::symbol(g.label_id("cinema").unwrap()));
        let first = evaluate_counting(&index, &big, &mut scratch).0;
        let second = evaluate_counting(&index, &small, &mut scratch).0;
        let third = evaluate_counting(&index, &big, &mut scratch).0;
        assert_eq!(first, third, "scratch reuse must not leak state");
        assert_eq!(second, gps_rpq::eval::evaluate(&g, &small));
    }

    #[test]
    fn a_witness_search_that_returns_to_its_start_terminates() {
        // A -x-> B -x-> A closes a cycle through the start configuration
        // (A, start) of `x*·y` before B -x-> D -y-> C reaches acceptance.
        let mut g = Graph::new();
        let [a, b, d, c] = ["A", "B", "D", "C"].map(|name| g.add_node(name));
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "x", a);
        g.add_edge_by_name(b, "x", d);
        g.add_edge_by_name(d, "y", c);
        let g = CsrGraph::from_graph(&g);
        let (x, y) = (g.label_id("x").unwrap(), g.label_id("y").unwrap());
        let dfa = Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::symbol(x)),
            Regex::symbol(y),
        ]));
        let path = witness_from(&LabelIndex::from_csr(&g), &dfa, a.index()).unwrap();
        assert_eq!(path.word, vec![x, x, y]);
        assert_eq!(path.nodes, vec![a, b, d, c]);
        assert_eq!(path.start, a);
    }

    #[test]
    fn witness_from_matches_naive_witness_lengths() {
        let g = figure1_like();
        let dfa = motivating(&g);
        let index = LabelIndex::from_csr(&g);
        for node in g.nodes() {
            let naive = gps_rpq::witness::shortest_witness(&g, &dfa, node);
            let indexed = witness_from(&index, &dfa, node.index());
            match (naive, indexed) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.len(), b.len(), "node {node}");
                    assert!(dfa.accepts(&b.word), "node {node}");
                    assert_eq!(b.start, node);
                    assert_eq!(b.nodes.len(), b.word.len() + 1);
                }
                (None, None) => {}
                (a, b) => panic!("node {node}: naive {a:?} vs indexed {b:?}"),
            }
        }
        // Nullable query: the empty witness at the node itself.
        let eps = Dfa::from_regex(&Regex::Epsilon);
        let path = witness_from(&index, &eps, 0).unwrap();
        assert!(path.is_empty());
        assert!(witness_from(&index, &eps, 99).is_none(), "out of range");
    }

    #[test]
    fn capture_survives_start_state_saturation() {
        // `x*` from a start state that is accepting: every node is selected
        // in round 0, so the uncaptured path takes the early exit.  The
        // capturing path must keep going and still produce a seed.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "x", c);
        let x = g.label_id("x").unwrap();
        let dfa = Dfa::from_regex(&Regex::star(Regex::symbol(x)));
        let g = CsrGraph::from_graph(&g);
        let index = LabelIndex::from_csr(&g);
        let mut scratch = Scratch::default();
        let (answer, _, resume) = evaluate_captured(&index, &dfa, &mut scratch);
        assert_eq!(answer.len(), g.node_count(), "saturating query");
        let resume = resume.expect("saturated fixed points now capture a seed");
        assert_eq!(resume.state_count(), dfa.state_count());
        assert_eq!(resume.nodes(), g.node_count());
        // The captured seed must be the *true* fixed point: answers resumed
        // from it after an insert-only delta match a cold evaluation.
        let base = std::sync::Arc::new(g.clone());
        let mut delta = gps_graph::DeltaGraph::new(std::sync::Arc::clone(&base));
        let d = delta.add_node("d");
        delta.add_edge(c, x, d);
        let summary = delta.delta();
        let compacted = delta.compact();
        let patched = index.apply_delta(&compacted, &summary);
        let resumed = super::resume(&patched, &dfa, &resume, &summary).expect("insert-only");
        assert_eq!(resumed.answer, gps_rpq::eval::evaluate(&compacted, &dfa));
        assert_eq!(resumed.overdeleted, 0);
    }

    #[test]
    fn cyclic_graphs_terminate() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "x", a);
        let x = g.label_id("x").unwrap();
        let dfa = Dfa::from_regex(&Regex::star(Regex::symbol(x)));
        assert_eq!(eval(&CsrGraph::from_graph(&g), &dfa).len(), 2);
    }

    /// Evaluates `dfa` over `index` — the index of `g` — uncaptured and
    /// captured: both answers equal the naive evaluator's, and each state's
    /// alive set in the seed equals the naive evaluator started at that
    /// state.  Returns the uncaptured and captured round counts.
    fn oracle_checked(g: &CsrGraph, index: &LabelIndex, dfa: &Dfa) -> (u64, u64) {
        let expected = gps_rpq::eval::evaluate(g, dfa);
        let mut scratch = Scratch::default();
        let (answer, uncaptured) = evaluate_counting(index, dfa, &mut scratch);
        assert_eq!(answer, expected, "uncaptured");
        let (answer, captured, seed) = evaluate_captured(index, dfa, &mut scratch);
        assert_eq!(answer, expected, "captured");
        let seed = seed.expect("capturing evaluations always produce a seed");
        for state in 0..dfa.state_count() {
            let mut from = dfa.clone();
            from.set_start(state);
            let oracle = gps_rpq::eval::evaluate(g, &from);
            assert_eq!(seed.answer(state), oracle, "state {state}");
        }
        (uncaptured, captured)
    }

    /// The rows `label`'s forward partition covers.
    fn coverage(index: &LabelIndex, label: LabelId) -> usize {
        let chunks = index.rows(Direction::Forward, label).chunks();
        chunks.iter().map(|chunk| chunk.rows()).sum()
    }

    #[test]
    fn a_saturated_target_over_a_partition_shorter_than_the_graph() {
        // 100 nodes with `a` and `b` edges; a delta adds 5,000 nodes (past a
        // chunk boundary) with `b` edges only, so the patched index shares
        // `a`'s partition, which covers the first 100 rows.
        let mut g = Graph::new();
        let n = g.add_nodes("n", 100);
        for i in 0..99 {
            if i % 3 != 0 {
                g.add_edge_by_name(n[i], "a", n[i + 1]);
            }
            g.add_edge_by_name(n[i + 1], "b", n[i]);
        }
        let g = std::sync::Arc::new(CsrGraph::from_graph(&g));
        let (a, b) = (g.label_id("a").unwrap(), g.label_id("b").unwrap());
        let index = LabelIndex::from_csr(&g);
        let mut delta = gps_graph::DeltaGraph::new(std::sync::Arc::clone(&g));
        let mut previous = n[99];
        for i in 0..5000 {
            let fresh = delta.add_node(format!("m{i}"));
            if i % 2 == 0 {
                delta.add_edge(fresh, b, previous);
            }
            previous = fresh;
        }
        let summary = delta.delta();
        let compacted = delta.compact();
        let patched = index.apply_delta(&compacted, &summary);
        assert_eq!(patched.node_count(), 5100);
        assert_eq!(coverage(&patched, a), 100, "`a`'s partition is shared");
        assert_eq!(coverage(&patched, b), 5100);
        let (sa, sb) = (Regex::symbol(a), Regex::symbol(b));
        for regex in [
            sa.clone(),
            Regex::concat([Regex::star(sb.clone()), sa.clone()]),
            Regex::star(sa.clone()),
            Regex::concat([sa.clone(), sb.clone()]),
            Regex::concat([sb, sa]),
        ] {
            oracle_checked(&compacted, &patched, &Dfa::from_regex(&regex));
        }
    }

    #[test]
    fn a_partial_tail_chunk() {
        // One full chunk and 70 rows: the tail chunk's second occupancy
        // word holds 6 rows.  Edges sit in the last rows and across the
        // boundary.
        let mut g = Graph::new();
        let n = g.add_nodes("n", CHUNK_ROWS + 70);
        let last = n.len() - 1;
        g.add_edge_by_name(n[last], "a", n[0]);
        g.add_edge_by_name(n[last - 1], "a", n[last]);
        g.add_edge_by_name(n[CHUNK_ROWS - 1], "a", n[CHUNK_ROWS]);
        g.add_edge_by_name(n[CHUNK_ROWS + 64], "b", n[last - 1]);
        g.add_edge_by_name(n[5], "b", n[CHUNK_ROWS - 1]);
        let g = CsrGraph::from_graph(&g);
        let index = LabelIndex::from_csr(&g);
        let (a, b) = (g.label_id("a").unwrap(), g.label_id("b").unwrap());
        let tail = index.rows(Direction::Forward, a).chunks()[1].clone();
        assert_eq!((tail.rows(), tail.occupied().len()), (70, 2));
        let (sa, sb) = (Regex::symbol(a), Regex::symbol(b));
        for regex in [
            sa.clone(),
            Regex::concat([sa.clone(), sa.clone()]),
            Regex::star(sa.clone()),
            Regex::concat([sb.clone(), Regex::star(sa.clone())]),
            Regex::concat([Regex::star(sb), sa]),
        ] {
            oracle_checked(&g, &index, &Dfa::from_regex(&regex));
        }
    }

    #[test]
    fn a_state_that_saturates_in_a_later_round() {
        // `z.x*.y` with the self-loop state s: every node but the hub has an
        // `x`-edge to the hub, and the hub a `y`-edge.  Round 1 derives (hub,
        // s) from the saturated accepting state, round 2 every other node,
        // so s saturates there with a frontier of all but the hub; round 3
        // ORs it in through `z` and `x`, and round 4 finds nothing.
        let mut g = Graph::new();
        let hub = g.add_node("hub");
        let others = g.add_nodes("n", 300);
        g.add_edge_by_name(hub, "y", others[0]);
        for &node in &others {
            g.add_edge_by_name(node, "x", hub);
        }
        for i in (0..300).step_by(7) {
            g.add_edge_by_name(others[i], "z", others[(i * 13) % 300]);
        }
        let g = CsrGraph::from_graph(&g);
        let [x, y, z] = ["x", "y", "z"].map(|name| Regex::symbol(g.label_id(name).unwrap()));
        let dfa = Dfa::from_regex(&Regex::concat([z, Regex::star(x), y]));
        assert_eq!(oracle_checked(&g, &LabelIndex::from_csr(&g), &dfa), (4, 4));
    }

    #[test]
    fn an_uncaptured_evaluation_stops_once_its_start_state_saturates() {
        // Every node has an `a`-edge, so `a.b*` selects every node in round
        // 1 (the OR of `a`'s occupancy into the start state): the
        // uncaptured evaluation stops there, the capturing one runs a round
        // more to close the seed.
        let mut g = Graph::new();
        let n = g.add_nodes("n", 200);
        for i in 0..200 {
            g.add_edge_by_name(n[i], "a", n[(i + 1) % 200]);
            if i % 5 == 0 {
                g.add_edge_by_name(n[i], "b", n[(i + 3) % 200]);
            }
        }
        let g = CsrGraph::from_graph(&g);
        let [a, b] = ["a", "b"].map(|name| Regex::symbol(g.label_id(name).unwrap()));
        let dfa = Dfa::from_regex(&Regex::concat([a, Regex::star(b)]));
        assert_eq!(oracle_checked(&g, &LabelIndex::from_csr(&g), &dfa), (1, 2));
    }

    /// Captures a seed on `g`, applies `mutate` on a [`DeltaGraph`] over it,
    /// and resumes across the delta; `None` when the resume bails.  A resume
    /// that succeeds must answer like the naive evaluator on the patched
    /// graph and leave the seed a fresh capture there would.
    fn resume_removal_case(
        g: &CsrGraph,
        dfa: &Dfa,
        mutate: impl FnOnce(&mut gps_graph::DeltaGraph),
    ) -> Option<Resumed> {
        let index = LabelIndex::from_csr(g);
        let mut scratch = Scratch::default();
        let (_, _, resume) = evaluate_captured(&index, dfa, &mut scratch);
        let resume = resume.expect("base capture");
        let base = std::sync::Arc::new(g.clone());
        let mut delta = gps_graph::DeltaGraph::new(base);
        mutate(&mut delta);
        let summary = delta.delta();
        let compacted = delta.compact();
        let patched = index.apply_delta(&compacted, &summary);
        let resumed = super::resume(&patched, dfa, &resume, &summary)?;
        assert_eq!(resumed.answer, gps_rpq::eval::evaluate(&compacted, dfa));
        // Alive bits and carried populations both.
        let (_, _, fresh) = evaluate_captured(&patched, dfa, &mut scratch);
        assert_eq!(resumed.seed, fresh.expect("fresh capture"));
        Some(resumed)
    }

    #[test]
    fn removal_in_a_cycle_kills_non_well_founded_derivations() {
        // a --x--> b --x--> a and b --y--> c, query `x*.y`.  Removing the
        // only `y` edge leaves (s0,a) and (s0,b) supporting each other
        // through the x-cycle; pure count-to-zero propagation would keep
        // both alive.  The DRed over-delete must doom the whole cycle and
        // re-derivation must revive nothing.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "x", a);
        g.add_edge_by_name(b, "y", c);
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        let dfa = Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::symbol(x)),
            Regex::symbol(y),
        ]));
        let resumed = resume_removal_case(&CsrGraph::from_graph(&g), &dfa, |delta| {
            assert!(delta.remove_edge(b, y, c));
        })
        .expect("within budget");
        assert!(
            resumed.answer.is_empty(),
            "the cycle must not keep itself alive"
        );
    }

    #[test]
    fn mixed_delta_matches_cold_evaluation() {
        // Remove one derivation of a multi-supported configuration and add a
        // replacement edge in the same delta: the surviving support must keep
        // N1 selected without re-derivation, and the insert must extend the
        // answer — all byte-identical to a cold evaluation.
        let g = figure1_like();
        let dfa = motivating(&g);
        let n1 = NodeId::from(0usize);
        let n2 = NodeId::from(1usize);
        let n4 = NodeId::from(2usize);
        let tram = g.label_id("tram").unwrap();
        let bus = g.label_id("bus").unwrap();
        let resumed = resume_removal_case(&g, &dfa, |delta| {
            let n5 = delta.add_node("N5");
            delta.add_edge(n2, tram, n5);
            delta.add_edge(n5, bus, n4);
            assert!(delta.remove_edge(n2, bus, n1));
        })
        .expect("within budget");
        assert!(
            resumed.answer.contains(n1),
            "N1 still reaches the cinema via tram"
        );
    }

    #[test]
    fn a_surviving_parallel_edge_re_derives_its_source() {
        // u --a--> v twice, query `a`: removing one copy dooms (u, start),
        // and re-derive finds the surviving copy; removing both kills it.
        let mut g = Graph::new();
        let u = g.add_node("u");
        let v = g.add_node("v");
        g.add_edge_by_name(u, "a", v);
        g.add_edge_by_name(u, "a", v);
        let a = g.label_id("a").unwrap();
        let dfa = Dfa::from_regex(&Regex::symbol(a));
        let g = CsrGraph::from_graph(&g);
        let one = resume_removal_case(&g, &dfa, |delta| {
            assert!(delta.remove_edge(u, a, v));
        })
        .expect("within budget");
        assert_eq!(one.overdeleted, 1, "the source is doomed");
        assert!(one.answer.contains(u), "and revived through the other copy");
        let both = resume_removal_case(&g, &dfa, |delta| {
            assert!(delta.remove_edge(u, a, v));
            assert!(delta.remove_edge(u, a, v));
        })
        .expect("within budget");
        assert_eq!(both.overdeleted, 1);
        assert!(both.answer.is_empty(), "no copy is left to derive it");
    }

    #[test]
    fn an_overdelete_past_half_the_alive_population_bails_to_cold() {
        // An odd x-cycle a0 -> a1 -> a2 -> a0 and a0 --y--> c, query
        // `(x.x)*.y`: each cycle node is alive in both non-accepting states
        // (6 configurations) and every node in the accepting one (4).
        // Removing the y edge dooms all 6 of the 10 alive configurations,
        // past the budget of half.
        let mut g = Graph::new();
        let [a0, a1, a2, c] = ["a0", "a1", "a2", "c"].map(|name| g.add_node(name));
        g.add_edge_by_name(a0, "x", a1);
        g.add_edge_by_name(a1, "x", a2);
        g.add_edge_by_name(a2, "x", a0);
        g.add_edge_by_name(a0, "y", c);
        let x = Regex::symbol(g.label_id("x").unwrap());
        let y = g.label_id("y").unwrap();
        let dfa = Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::concat([x.clone(), x])),
            Regex::symbol(y),
        ]));
        let bailed = resume_removal_case(&CsrGraph::from_graph(&g), &dfa, |delta| {
            assert!(delta.remove_edge(a0, y, c));
        });
        assert!(bailed.is_none(), "past the budget, the caller recomputes");
    }
}
