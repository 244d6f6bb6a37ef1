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
//! Each round runs in one of two modes (see [`Plan`]):
//!
//! * **push** — expand the frontier backward through the reverse adjacency;
//! * **pull** — scan still-dead configurations forward for an alive
//!   successor.
//!
//! [`Plan::Bidirectional`] re-picks the cheaper mode every round from the
//! estimated frontier/dead edge volumes, mirroring direction-optimizing BFS.
//! Either way a round walks `node set & occupancy words` of the label
//! partition it expands through ([`LabelIndex::rows`]) chunk by chunk — one
//! chunk lookup, then a word-masked loop over the chunk's rows — so it never
//! looks up a row the label has nothing in.
//!
//! Two entry points, two working sets.  A **cold** evaluation
//! ([`evaluate_with`] and friends) sweeps dense per-state bitsets in a
//! reusable [`Scratch`].  When asked to capture, it is still one pass: the
//! per-configuration support counts a resumable seed needs are taken in the
//! push loop, where each derivation's edge is already in hand; only the
//! frontiers a pull round left unexpanded are swept — counting, not
//! inserting — after the fixed point, and the dense result is packed once
//! into a block-shared [`EvalResume`].  An uncaptured evaluation is the same
//! function compiled without the counting.  A **resume** ([`resume`]) never
//! sees a `Scratch`: it clones that seed copy-on-write and touches only the
//! configurations a [`GraphDelta`] can change.

use crate::bitset::{word_ones, FixedBitSet};
use crate::index::{Direction, LabelIndex, CHUNK_ROWS, CHUNK_WORDS};
use crate::planner::Plan;
use gps_automata::Dfa;
use gps_graph::{GraphDelta, LabelId, NodeId, Path};
use gps_rpq::{EvalResume, QueryAnswer};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// The cap [`BatchEvaluator`](crate::BatchEvaluator) puts on a resume's
/// over-deletion, as a fraction of the post-insert alive configuration
/// population: when a removal's transitive over-delete cone grows past
/// `limit × alive_total` configurations, [`resume`] gives up (`None`) and
/// the caller falls back to a cold recompute — at that point the cold fixed
/// point is in the same cost class as over-delete *plus* re-derive, without
/// the bookkeeping.
pub const DEFAULT_OVERDELETE_LIMIT: f64 = 0.5;

/// Reusable allocation for one cold evaluation: per-state alive, frontier
/// and staging bitsets, plus — sized only by a capturing evaluation — the
/// dense support counters and the frontiers still owed theirs.  Batch callers
/// keep one `Scratch` per worker and amortize the allocations across every
/// query of the workload.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    alive: Vec<FixedBitSet>,
    frontier: Vec<FixedBitSet>,
    next: Vec<FixedBitSet>,
    /// Frontiers a pull round left unexpanded: alive configurations whose
    /// reverse edges no push sweep has counted yet.
    unpushed: Vec<FixedBitSet>,
    /// `supports[p][w]`: derivations of `(w, p)` counted so far, saturating.
    supports: Vec<Vec<u8>>,
}

impl Scratch {
    /// Resizes for `states` × `nodes` and clears every bit (and, when
    /// capturing, every counter).
    fn prepare(&mut self, states: usize, nodes: usize, capture: bool) {
        let reset = |sets: &mut Vec<FixedBitSet>| {
            sets.resize_with(states, FixedBitSet::default);
            for bits in sets {
                bits.reset(nodes);
            }
        };
        reset(&mut self.alive);
        reset(&mut self.frontier);
        reset(&mut self.next);
        if capture {
            reset(&mut self.unpushed);
            self.supports.resize_with(states, Vec::new);
            for counts in &mut self.supports {
                counts.clear();
                counts.resize(nodes, 0);
            }
        }
    }
}

/// Evaluates `dfa` over `index` with the given expansion plan, reusing
/// `scratch` for the per-state bitsets.
pub fn evaluate_with(
    index: &LabelIndex,
    dfa: &Dfa,
    plan: Plan,
    scratch: &mut Scratch,
) -> QueryAnswer {
    evaluate_counting(index, dfa, plan, scratch).0
}

/// [`evaluate_with`], additionally reporting how many frontier rounds the
/// fixed point swept (what `gps_exec_frontier_rounds_total` aggregates).
pub fn evaluate_counting(
    index: &LabelIndex,
    dfa: &Dfa,
    plan: Plan,
    scratch: &mut Scratch,
) -> (QueryAnswer, u64) {
    let (answer, rounds, _) = fixed_point::<false>(index, dfa, plan, scratch);
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
    plan: Plan,
    scratch: &mut Scratch,
) -> (QueryAnswer, u64, Option<EvalResume>) {
    fixed_point::<true>(index, dfa, plan, scratch)
}

/// Calls `visit(p, sources)` with the `a`-predecessor row of `u` for every
/// DFA transition `p --a--> q` and every `u` in `from[q]` that has one: each
/// entry `w` of such a row is one derivation of configuration `(w, p)` from
/// `(u, q)`.  Walks `from[q] & occupied(Reverse, a)` chunk by chunk, word by
/// word, so the rows a label has nothing in are never looked up.
#[inline]
fn for_each_derivation(
    index: &LabelIndex,
    rev_dfa: &[Vec<(LabelId, usize)>],
    from: &[FixedBitSet],
    mut visit: impl FnMut(usize, &[u32]),
) {
    for (transitions, from) in rev_dfa.iter().zip(from) {
        if from.is_empty() {
            continue;
        }
        for &(label, p) in transitions {
            let chunks = index.rows(Direction::Reverse, label).chunks();
            for (chunk, words) in chunks.iter().zip(from.as_words().chunks(CHUNK_WORDS)) {
                if chunk.is_empty() {
                    continue;
                }
                for (i, (&set, &occupied)) in words.iter().zip(chunk.occupied()).enumerate() {
                    for row in word_ones(i, set & occupied) {
                        visit(p, chunk.row(row));
                    }
                }
            }
        }
    }
}

/// Adds one derivation to each configuration `(w, state)` for `w` in
/// `sources`, saturating at 255; `counts` is the state's dense counter row.
#[inline]
fn count_derivations(counts: &mut [u8], sources: &[u32]) {
    for &w in sources {
        let slot = &mut counts[w as usize];
        *slot = slot.saturating_add(1);
    }
}

#[cfg(test)]
thread_local! {
    /// Whether each round of this thread's latest fixed point was a pull.
    static ROUND_LOG: std::cell::RefCell<Vec<bool>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The product fixed point.  With `CAPTURE` it also leaves, for every
/// configuration, its derivation count — `supports[p][w]` is the number of
/// `(DFA transition p --a--> q, graph edge w --a--> v)` pairs with `(v, q)`
/// alive, saturated at 255 — and packs both into a resumable seed.  A
/// non-accepting configuration is alive iff its support is positive;
/// accepting configurations are alive unconditionally (their support only
/// counts their edge-derivations); dead ones end at 0, since a derivation
/// from an alive target would have made them alive.
///
/// The counts cost no second pass.  Every alive configuration enters a
/// frontier exactly once and a push round walks the reverse edges of its
/// whole frontier, so the count is taken where the edge is already in hand.
/// Only a pull round leaves its frontier unexpanded: those are remembered in
/// `unpushed` and swept — counting, not inserting — once the fixed point is
/// complete.  Without `CAPTURE` none of this is compiled in.
fn fixed_point<const CAPTURE: bool>(
    index: &LabelIndex,
    dfa: &Dfa,
    plan: Plan,
    scratch: &mut Scratch,
) -> (QueryAnswer, u64, Option<EvalResume>) {
    let n = index.node_count();
    let s = dfa.state_count();
    if n == 0 || s == 0 {
        return (QueryAnswer::from_flags(vec![false; n]), 0, None);
    }
    scratch.prepare(s, n, CAPTURE);
    let Scratch {
        alive,
        frontier,
        next,
        unpushed,
        supports,
    } = scratch;

    // DFA transitions, forward (pull) and reversed (push), plus per-state
    // mean-degree weights for the adaptive cost model.
    let rev_dfa = reverse_transitions(dfa);
    let mut fwd_dfa: Vec<Vec<(LabelId, usize)>> = vec![Vec::new(); s];
    let mut push_weight = vec![0.0f64; s];
    let mut pull_weight = vec![0.0f64; s];
    let mean_degree = |label: LabelId| index.label_edge_count(label) as f64 / n as f64;
    for state in 0..s {
        for (label, target) in dfa.transitions_from(state) {
            fwd_dfa[state].push((label, target));
            push_weight[target] += mean_degree(label);
            pull_weight[state] += mean_degree(label);
        }
    }

    // Seed: every configuration whose DFA state is accepting.
    for state in 0..s {
        if dfa.is_accepting(state) {
            alive[state].insert_all();
            frontier[state].insert_all();
        }
    }

    let start = dfa.start();
    let mut rounds = 0u64;
    #[cfg(test)]
    ROUND_LOG.with_borrow_mut(Vec::clear);
    loop {
        // The answer only reads `alive[start]`; once every node is selected
        // no further round can change it.  This exit can leave *other*
        // states under-derived, so a capturing evaluation skips it and runs
        // on to the true fixed point — the seed must cover every state.
        if !CAPTURE && alive[start].count() == n {
            break;
        }
        rounds += 1;

        let pull = match plan {
            Plan::Reverse => false,
            Plan::Forward => true,
            Plan::Bidirectional => {
                let push_cost: f64 = (0..s)
                    .map(|q| frontier[q].count() as f64 * push_weight[q])
                    .sum();
                let pull_cost: f64 = (0..s)
                    .map(|p| (n - alive[p].count()) as f64 * pull_weight[p])
                    .sum();
                pull_cost < push_cost
            }
        };
        #[cfg(test)]
        ROUND_LOG.with_borrow_mut(|log| log.push(pull));

        let mut progress = false;
        if pull {
            // Jacobi round: read `alive`, stage discoveries in `next`.  Per
            // transition, only the still-dead nodes that have an edge under
            // its label are looked at, chunk by chunk.
            for (p, transitions) in fwd_dfa.iter().enumerate() {
                for &(label, q) in transitions {
                    let chunks = index.rows(Direction::Forward, label).chunks();
                    for (c, chunk) in chunks.iter().enumerate() {
                        if chunk.is_empty() {
                            continue;
                        }
                        let first = c * CHUNK_WORDS;
                        for (i, &occupied) in chunk.occupied().iter().enumerate() {
                            let found =
                                alive[p].as_words()[first + i] | next[p].as_words()[first + i];
                            for row in word_ones(i, occupied & !found) {
                                if chunk
                                    .row(row)
                                    .iter()
                                    .any(|&u| alive[q].contains(u as usize))
                                {
                                    next[p].insert(c * CHUNK_ROWS + row);
                                }
                            }
                        }
                    }
                }
            }
            for p in 0..s {
                progress |= alive[p].union_with(&next[p]);
                if CAPTURE {
                    unpushed[p].union_with(&frontier[p]);
                }
            }
        } else {
            // Gauss-Seidel round: mark `alive` immediately, collect the
            // delta in `next`.
            for_each_derivation(index, &rev_dfa, frontier, |p, sources| {
                if CAPTURE {
                    count_derivations(&mut supports[p], sources);
                }
                for &w in sources {
                    if alive[p].insert(w as usize) {
                        next[p].insert(w as usize);
                        progress = true;
                    }
                }
            });
        }
        if !progress {
            // No round mode can derive anything further: a true fixed point.
            break;
        }
        std::mem::swap(frontier, next);
        for bits in next.iter_mut() {
            bits.clear();
        }
    }

    if !CAPTURE {
        let answer = QueryAnswer::from_words(n, alive[start].as_words());
        return (answer, rounds, None);
    }
    for_each_derivation(index, &rev_dfa, unpushed, |p, sources| {
        count_derivations(&mut supports[p], sources)
    });
    // Dense rows want random increments; the blocks are packed from them
    // once, all-zero stretches shared.  The answer is the seed's start-state
    // alive set (shared blocks).
    let mut seed = EvalResume::new(n);
    for (bits, counts) in alive.iter().zip(supports.iter()) {
        seed.push_state(bits.as_words(), counts);
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

/// Adds one derivation to `(node, state)`'s counter, saturating at 255.
#[inline]
fn bump_support(seed: &mut EvalResume, state: usize, node: usize) {
    seed.set_support(state, node, seed.support(state, node).saturating_add(1));
}

/// Recomputes one configuration's support from scratch against the *current*
/// alive sets over the patched index — the exact fallback when a saturated
/// (255) counter must be decremented and the true count is unknown.
fn recount_support(
    index: &LabelIndex,
    dfa: &Dfa,
    seed: &EvalResume,
    state: usize,
    node: usize,
) -> u8 {
    let mut count = 0u32;
    for (label, target) in dfa.transitions_from(state) {
        for &v in index.neighbors(Direction::Forward, label, node) {
            if seed.is_alive(target, v as usize) {
                count += 1;
                if count >= u8::MAX as u32 {
                    return u8::MAX;
                }
            }
        }
    }
    count as u8
}

/// Pushes `frontier` — configurations that just turned alive — to closure
/// over the patched index: every frontier configuration sweeps its reverse
/// dependents exactly once, adding one derivation to each, and a dependent
/// that is dead and `eligible` turns alive and joins the next round's
/// frontier.  Returns the number of rounds that derived something.
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
                    bump_support(seed, p, w);
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
/// clone copies pointer tables, every alive bit or support counter the delta
/// changes copies the one block it lives in, and the worklists are plain
/// vectors of `(state, node)` configurations — so a resume costs the delta's
/// derivation cone (plus one `Arc` per block for the clone), never the node
/// count.  DRed-style, in three phases; the last two only run when the delta
/// removed edges:
///
/// 1. **Insert sweep.** Nodes added since the capture are alive in the
///    accepting states by definition; an added edge `u --a--> v` makes `(u,
///    p)` alive when `p --a--> q` and `(v, q)` is alive.  Those seed the
///    frontier and `push_to_closure` cascades them through old and new
///    edges alike.  Support accounting: a derivation through an added edge
///    whose target was alive *in the old seed* is invisible to the
///    newly-alive sweeps (the target never enters a frontier), so it is
///    counted here; targets that turn alive later are counted by their own
///    sweep, which enumerates the patched index and so sees the added edge.
///    The fixed point is monotone in the edge set, so for an insert-only
///    delta this is the whole resume.  Doing inserts first means the later
///    phases can enumerate the patched index uniformly: every derivation it
///    contains is counted exactly once.
/// 2. **Over-delete.** Each removed edge decrements the support of its
///    source configurations (only for targets alive *in the old seed* —
///    those are the derivations the counters actually contain; the patched
///    index no longer holds the removed edges, so no later sweep counted
///    them).  Every alive non-accepting configuration that lost a derivation
///    is *doomed* — unconditionally, regardless of remaining support,
///    because a positive count may rest on a non-well-founded cycle (two
///    configurations supporting only each other survive zero-propagation but
///    must die).  Dooming propagates transitively over the reverse index;
///    each popped configuration leaves the alive set and decrements its
///    dependents.  A decrement hitting a saturated (255) counter is deferred
///    to a post-phase exact recount instead of guessing.  When the doom
///    count passes `overdelete_limit ×` the alive population after the
///    insert sweep (carried in the seed, not re-counted), the sweep gives up
///    — the saturation fallback to a cold recompute, in the same cost class
///    at that point.
/// 3. **Re-derive.** After the worklist drains, supports count derivations
///    through *surviving* configurations only, so every doomed
///    configuration with a positive count is still derivable from the
///    surviving boundary: those re-enter the alive set and push to closure,
///    re-incrementing supports along the way.  Only doomed configurations
///    can revive — everything else alive-eligible survived over-delete.
///
/// Returns `None` when the seed's shape does not match the DFA or the index,
/// when the delta names a node the index does not have, or on the
/// saturation fallback.  `old` is never modified.
pub fn resume(
    index: &LabelIndex,
    dfa: &Dfa,
    old: &EvalResume,
    delta: &GraphDelta,
    overdelete_limit: f64,
) -> Option<Resumed> {
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
                if old.is_alive(q, v) {
                    bump_support(&mut seed, p, u);
                }
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
    // Aggregate the removed edges' derivation losses per configuration
    // before touching any counter, so parallel removed edges into the same
    // configuration subtract in one step.
    let mut losses: BTreeMap<(usize, usize), u32> = BTreeMap::new();
    for edge in &delta.removed_edges {
        let (u, v) = (edge.source.index(), edge.target.index());
        for p in 0..s {
            if let Some(q) = dfa.step(p, edge.label) {
                if old.is_alive(q, v) {
                    *losses.entry((p, u)).or_insert(0) += 1;
                }
            }
        }
    }

    let budget = overdelete_limit * seed.alive_total() as f64;
    // Doomed = over-deleted at least once this sweep, in discovery order;
    // the set answers membership.  A doomed configuration leaves the alive
    // set only when its own propagation runs, so in-flight recounts of
    // "derivations via alive targets" stay consistent.
    let mut doomed: Vec<(usize, usize)> = Vec::new();
    let mut is_doomed: HashSet<(usize, usize)> = HashSet::new();
    // Counters that were saturated when a decrement hit them: their true
    // value is unknown until the exact post-phase recount.
    let mut stale: BTreeSet<(usize, usize)> = BTreeSet::new();
    // Takes `k` derivations from `(node, state)` and dooms it; `false` once
    // the doom count is over budget.
    let mut lose = |seed: &mut EvalResume,
                    doomed: &mut Vec<(usize, usize)>,
                    state: usize,
                    node: usize,
                    k: u32|
     -> bool {
        match seed.support(state, node) {
            u8::MAX => {
                stale.insert((state, node));
            }
            support => seed.set_support(
                state,
                node,
                support.saturating_sub(k.min(u8::MAX as u32) as u8),
            ),
        }
        if !dfa.is_accepting(state) && seed.is_alive(state, node) && is_doomed.insert((state, node))
        {
            doomed.push((state, node));
        }
        doomed.len() as f64 <= budget
    };
    for (&(p, u), &k) in &losses {
        if !lose(&mut seed, &mut doomed, p, u, k) {
            return None;
        }
    }
    let mut popped = 0;
    while let Some(&(q, v)) = doomed.get(popped) {
        popped += 1;
        seed.remove(q, v);
        for &(label, p) in &rev_dfa[q] {
            for &w in index.neighbors(Direction::Reverse, label, v) {
                if !lose(&mut seed, &mut doomed, p, w as usize, 1) {
                    return None;
                }
            }
        }
    }
    // Exact recount for every counter a decrement found saturated, against
    // the post-over-delete alive sets — from here on each counter is either
    // exact or a true 255 again.
    for &(p, w) in &stale {
        let exact = recount_support(index, dfa, &seed, p, w);
        seed.set_support(p, w, exact);
    }

    // --- Re-derive --------------------------------------------------------
    frontier.clear();
    for &(p, u) in &doomed {
        if seed.support(p, u) > 0 && seed.insert(p, u) {
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

/// Forward single-source check: does some path from `source` spell an
/// accepted word?  Early-exits on the first accepting configuration, so for
/// selective queries over a handful of sources this beats the global fixed
/// point.
pub fn selects_from(index: &LabelIndex, dfa: &Dfa, source: usize) -> bool {
    let n = index.node_count();
    let s = dfa.state_count();
    if n == 0 || s == 0 || source >= n {
        return false;
    }
    if dfa.is_accepting(dfa.start()) {
        return true;
    }
    let mut fwd_dfa: Vec<Vec<(LabelId, usize)>> = vec![Vec::new(); s];
    for (state, transitions) in fwd_dfa.iter_mut().enumerate() {
        transitions.extend(dfa.transitions_from(state));
    }
    let mut visited: Vec<FixedBitSet> = (0..s).map(|_| FixedBitSet::new(n)).collect();
    let mut queue = std::collections::VecDeque::new();
    visited[dfa.start()].insert(source);
    queue.push_back((source, dfa.start()));
    while let Some((node, state)) = queue.pop_front() {
        for &(label, next_state) in &fwd_dfa[state] {
            for &u in index.neighbors(Direction::Forward, label, node) {
                if visited[next_state].insert(u as usize) {
                    if dfa.is_accepting(next_state) {
                        return true;
                    }
                    queue.push_back((u as usize, next_state));
                }
            }
        }
    }
    false
}

/// Shortest witness extraction over the label index: a BFS over `(node, DFA
/// state)` configurations following the per-label forward slices, with
/// parent links for path reconstruction.
///
/// Returns a path of the same (minimal) length as
/// `gps_rpq::witness::shortest_witness` — the concrete path may differ when
/// several shortest witnesses exist, but the length (what the interactive
/// layer's zooming decision consumes) is unique.
pub fn witness_from(index: &LabelIndex, dfa: &Dfa, source: usize) -> Option<Path> {
    let n = index.node_count();
    let s = dfa.state_count();
    if s == 0 || source >= n {
        return None;
    }
    let start_node = NodeId::from(source);
    if dfa.is_accepting(dfa.start()) {
        return Some(Path::empty(start_node));
    }
    // Parent links: (node, state) -> (parent node, parent state, label).
    let mut parents: std::collections::HashMap<(usize, usize), (usize, usize, LabelId)> =
        std::collections::HashMap::new();
    let mut visited: Vec<FixedBitSet> = (0..s).map(|_| FixedBitSet::new(n)).collect();
    let mut queue = std::collections::VecDeque::new();
    visited[dfa.start()].insert(source);
    queue.push_back((source, dfa.start()));
    while let Some((node, state)) = queue.pop_front() {
        for (label, next_state) in dfa.transitions_from(state) {
            for &u in index.neighbors(Direction::Forward, label, node) {
                let next = (u as usize, next_state);
                if visited[next_state].insert(u as usize) {
                    parents.insert(next, (node, state, label));
                    if dfa.is_accepting(next_state) {
                        // Reconstruct by walking the parent links back.
                        let mut word = Vec::new();
                        let mut nodes = vec![NodeId::from(next.0)];
                        let mut current = next;
                        while let Some(&(pn, ps, label)) = parents.get(&current) {
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

    fn eval(g: &CsrGraph, dfa: &Dfa, plan: Plan) -> QueryAnswer {
        let index = LabelIndex::from_csr(g);
        let mut scratch = Scratch::default();
        evaluate_with(&index, dfa, plan, &mut scratch)
    }

    #[test]
    fn all_plans_match_the_naive_evaluator() {
        let g = figure1_like();
        let dfa = motivating(&g);
        let expected = gps_rpq::eval::evaluate(&g, &dfa);
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            assert_eq!(eval(&g, &dfa, plan), expected, "{plan:?}");
        }
    }

    #[test]
    fn epsilon_selects_everything_and_empty_nothing() {
        let g = figure1_like();
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            let eps = eval(&g, &Dfa::from_regex(&Regex::Epsilon), plan);
            assert_eq!(eps.len(), g.node_count(), "{plan:?}");
            let empty = eval(&g, &Dfa::from_regex(&Regex::Empty), plan);
            assert!(empty.is_empty(), "{plan:?}");
        }
    }

    #[test]
    fn scratch_reuse_across_different_shapes() {
        let g = figure1_like();
        let index = LabelIndex::from_csr(&g);
        let mut scratch = Scratch::default();
        let big = motivating(&g);
        let small = Dfa::from_regex(&Regex::symbol(g.label_id("cinema").unwrap()));
        let first = evaluate_with(&index, &big, Plan::Bidirectional, &mut scratch);
        let second = evaluate_with(&index, &small, Plan::Bidirectional, &mut scratch);
        let third = evaluate_with(&index, &big, Plan::Bidirectional, &mut scratch);
        assert_eq!(first, third, "scratch reuse must not leak state");
        assert_eq!(second, gps_rpq::eval::evaluate(&g, &small));
    }

    #[test]
    fn selects_from_agrees_with_global_answer() {
        let g = figure1_like();
        let dfa = motivating(&g);
        let index = LabelIndex::from_csr(&g);
        let expected = gps_rpq::eval::evaluate(&g, &dfa);
        for node in 0..g.node_count() {
            assert_eq!(
                selects_from(&index, &dfa, node),
                expected.contains(gps_graph::NodeId::from(node)),
                "node {node}"
            );
        }
        assert!(!selects_from(&index, &dfa, 99), "out of range is false");
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
        let (answer, _, resume) =
            evaluate_captured(&index, &dfa, Plan::Bidirectional, &mut scratch);
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
        let patched = index.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        let resumed = super::resume(&patched, &dfa, &resume, &summary, DEFAULT_OVERDELETE_LIMIT)
            .expect("insert-only");
        assert_eq!(resumed.answer, gps_rpq::eval::evaluate(&compacted, &dfa));
        assert_eq!(resumed.overdeleted, 0);
    }

    #[test]
    fn a_run_mixing_pull_and_push_rounds_counts_every_derivation_once() {
        // `c.a.b*` over dense `b`, some `a` and a few `c` edges (the shape
        // `support_conformance` recounts): round 1 pulls — the accepting
        // frontier is every node and `b` is dense, while the dead states
        // only read the sparse `a` and `c` — leaving that frontier to the
        // post-fixed-point sweep; round 2 pushes the few nodes it found
        // through `c`, counting as it goes.
        let mut g = Graph::new();
        let n = g.add_nodes("n", 400);
        for i in 0..398 {
            g.add_edge_by_name(n[i], "b", n[i + 1]);
            g.add_edge_by_name(n[i], "b", n[i + 2]);
        }
        for i in 0..100 {
            g.add_edge_by_name(n[i], "a", n[i + 1]);
        }
        for i in 0..20 {
            g.add_edge_by_name(n[200 + i], "c", n[90 + i]);
        }
        let [a, b, c] = ["a", "b", "c"].map(|name| Regex::symbol(g.label_id(name).unwrap()));
        let dfa = Dfa::from_regex(&Regex::concat([c, a, Regex::star(b)]));
        let g = CsrGraph::from_graph(&g);
        let index = LabelIndex::from_csr(&g);
        let mut scratch = Scratch::default();
        let mut capture = |plan| {
            let (answer, _, seed) = evaluate_captured(&index, &dfa, plan, &mut scratch);
            assert_eq!(answer, gps_rpq::eval::evaluate(&g, &dfa), "{plan:?}");
            seed.expect("capturing evaluations always produce a seed")
        };
        let mixed = capture(Plan::Bidirectional);
        let pulls = ROUND_LOG.with_borrow(Vec::clone);
        assert_eq!(pulls, [true, false, false], "pull, then push to the end");
        assert_eq!(
            mixed,
            capture(Plan::Reverse),
            "all counted in the push loop"
        );
        assert_eq!(mixed, capture(Plan::Forward), "all counted by the sweep");
        // Spot checks against the definition: a `c` source whose target has
        // an `a` edge has one derivation, one whose target has none is dead;
        // a node's accepting-state support is its `b` out-degree.
        let (s0, s2) = (dfa.start(), 2);
        assert!(dfa.is_accepting(s2) && !dfa.is_accepting(s0));
        for (node, support) in [(200, 1), (209, 1), (210, 0), (219, 0)] {
            assert_eq!(mixed.support(s0, node), support, "node {node}");
        }
        assert_eq!(mixed.support(s2, 0), 2);
        assert_eq!(mixed.support(s2, 399), 0);
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
        let g = CsrGraph::from_graph(&g);
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            assert_eq!(eval(&g, &dfa, plan).len(), 2, "{plan:?}");
        }
    }

    /// Captures a seed on `g`, applies `mutate` on a [`DeltaGraph`] over it,
    /// and returns the delete-aware resumed answer + seed alongside the
    /// patched graph (panicking if the resume bails).
    fn resume_removal_case(
        g: &CsrGraph,
        dfa: &Dfa,
        limit: f64,
        mutate: impl FnOnce(&mut gps_graph::DeltaGraph),
    ) -> Option<(QueryAnswer, EvalResume, CsrGraph, LabelIndex)> {
        let index = LabelIndex::from_csr(g);
        let mut scratch = Scratch::default();
        let (_, _, resume) = evaluate_captured(&index, dfa, Plan::Bidirectional, &mut scratch);
        let resume = resume.expect("base capture");
        let base = std::sync::Arc::new(g.clone());
        let mut delta = gps_graph::DeltaGraph::new(base);
        mutate(&mut delta);
        let summary = delta.delta();
        let compacted = delta.compact();
        let patched = index.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        let resumed = super::resume(&patched, dfa, &resume, &summary, limit)?;
        assert_eq!(
            (0..dfa.state_count())
                .map(|state| resumed.seed.population(state))
                .collect::<Vec<_>>(),
            (0..dfa.state_count())
                .map(|state| resumed.seed.answer(state).len())
                .collect::<Vec<_>>(),
            "the carried population is the alive count"
        );
        Some((resumed.answer, resumed.seed, compacted, patched))
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
        let (answer, next, compacted, patched) =
            resume_removal_case(&CsrGraph::from_graph(&g), &dfa, 1.0, |delta| {
                assert!(delta.remove_edge(b, y, c));
            })
            .expect("within budget");
        assert!(answer.is_empty(), "the cycle must not keep itself alive");
        assert_eq!(answer, gps_rpq::eval::evaluate(&compacted, &dfa));
        // The produced seed must equal a from-scratch capture on the
        // patched graph — words and support counts both.
        let mut scratch = Scratch::default();
        let (_, _, fresh) = evaluate_captured(&patched, &dfa, Plan::Bidirectional, &mut scratch);
        assert_eq!(next, fresh.expect("fresh capture"));
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
        let (answer, next, compacted, patched) = resume_removal_case(&g, &dfa, 1.0, |delta| {
            let n5 = delta.add_node("N5");
            delta.add_edge(n2, tram, n5);
            delta.add_edge(n5, bus, n4);
            assert!(delta.remove_edge(n2, bus, n1));
        })
        .expect("within budget");
        assert_eq!(answer, gps_rpq::eval::evaluate(&compacted, &dfa));
        assert!(answer.contains(n1), "N1 still reaches the cinema via tram");
        let mut scratch = Scratch::default();
        let (_, _, fresh) = evaluate_captured(&patched, &dfa, Plan::Bidirectional, &mut scratch);
        assert_eq!(next, fresh.expect("fresh capture"));
    }

    #[test]
    fn overdelete_budget_zero_bails_to_cold() {
        let g = figure1_like();
        let dfa = motivating(&g);
        let n1 = NodeId::from(0usize);
        let bus = g.label_id("bus").unwrap();
        // Removing N2's only outgoing edge dooms (at least) one non-accepting
        // configuration, which a zero budget refuses to over-delete.
        let bailed = resume_removal_case(&g, &dfa, 0.0, |delta| {
            assert!(delta.remove_edge(NodeId::from(1usize), bus, n1));
        });
        assert!(bailed.is_none(), "budget 0.0 must force the cold fallback");
    }
}
