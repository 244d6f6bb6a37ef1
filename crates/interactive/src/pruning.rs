//! Uninformative-node pruning.
//!
//! After each interaction GPS "prunes the uninformative nodes, i.e. those
//! that do not add any information about the user's goal query".  A node is
//! uninformative when every one of its (bounded) paths is covered by negative
//! examples — asking the user about it could not change the version space.
//! Labeled nodes are also never proposed again.
//!
//! [`PruningState`] maintains this set incrementally and exposes the numbers
//! the pruning-effectiveness experiment (E4) reports.
//!
//! The state is kept up to date with
//! [`refresh_with`](PruningState::refresh_with), which reads words only
//! through the session's [`EvalHandle`]: scores start at each node's
//! bounded-word count, and each word the coverage covered since the last
//! sync walks its postings in the snapshot's shared word index
//! ([`gps_rpq::WordIndex::spellers`]) — exactly the nodes whose uncovered
//! count drops, by exactly one per word.  No graph sweep, no evaluation.  The
//! handle must serve the graph it is refreshed on (asserted).  The per-node
//! uncovered-word counts double as the informative-paths strategy's scores.

use crate::metrics::PruningMetrics;
use gps_graph::{CsrGraph, NodeId};
use gps_learner::ExampleSet;
use gps_rpq::{EvalHandle, NegativeCoverage};

/// The set of nodes that should no longer be proposed to the user.
#[derive(Debug, Clone)]
pub struct PruningState {
    /// One bit per node, set when pruned (grown on demand), and the number of
    /// set bits.
    pruned: Vec<u64>,
    pruned_count: usize,
    /// Per-node uncovered-word counts (`coverage.uncovered_count`), valid
    /// for the coverage version in `synced`.  A node is
    /// coverage-uninformative iff its entry is 0.
    scores: Vec<u32>,
    /// The coverage `(log_identity, version)` the scores were last
    /// synchronized against, `None` before the first refresh.  The identity
    /// lets the refresh and the strategy detect a *different* coverage object
    /// (whose delta would be meaningless here) instead of trusting a bare
    /// version number.
    synced: Option<(u64, u64)>,
    /// Telemetry handles (all disabled by default — one branch per event).
    /// The session installs registry-backed handles via
    /// [`set_metrics`](Self::set_metrics); they never affect which nodes get
    /// pruned.
    metrics: PruningMetrics,
}

impl PruningState {
    /// Creates an empty pruning state.  The refresh reads its path-length
    /// bound off the coverage it is given.
    // `_bound` is ignored; it is kept only for `benchmark/src/shadow.rs:453`.
    pub fn new(_bound: usize) -> Self {
        Self {
            pruned: Vec::new(),
            pruned_count: 0,
            scores: Vec::new(),
            synced: None,
            metrics: PruningMetrics::disabled(),
        }
    }

    /// Installs telemetry handles (see [`PruningMetrics`]); observational
    /// only — the pruned set evolves identically with or without them.
    pub fn set_metrics(&mut self, metrics: PruningMetrics) {
        self.metrics = metrics;
    }

    /// Returns `true` when the cached scores are synchronized with exactly
    /// this coverage's log lineage and version — the condition under which
    /// [`cached_score`](Self::cached_score) equals
    /// `coverage.uncovered_count` for every node.
    pub fn is_synced_to(&self, coverage: &NegativeCoverage) -> bool {
        self.synced == Some((coverage.log_identity(), coverage.version()))
    }

    /// Every node's cached uncovered-word count, indexed by node id, when the
    /// state has been refreshed.  Only meaningful for the coverage the state
    /// was refreshed with (check [`is_synced_to`](Self::is_synced_to) before
    /// trusting it).
    pub fn cached_scores(&self) -> Option<&[u32]> {
        self.synced.map(|_| self.scores.as_slice())
    }

    /// The cached uncovered-word count of `node` — see
    /// [`cached_scores`](Self::cached_scores).
    pub fn cached_score(&self, node: NodeId) -> Option<usize> {
        let score = self.cached_scores()?.get(node.index())?;
        Some(*score as usize)
    }

    /// Brings the pruned set up to date: labeled nodes plus nodes with no
    /// word left uncovered by `coverage`.  Returns the number of *newly*
    /// pruned nodes.
    ///
    /// While the state is synced to `coverage`'s log lineage, a call only
    /// touches the nodes spelling a word covered since the previous call —
    /// read off the word index's postings — plus the newly labeled nodes.
    /// Otherwise (the first call, or another coverage) every score restarts
    /// at the node's bounded-word count, its score at version 0, and the
    /// whole covered log is walked; the log holds each word exactly once.
    ///
    /// # Panics
    /// When `exec` does not serve `graph` ([`EvalHandle::assert_serves`]).
    pub fn refresh_with(
        &mut self,
        graph: &CsrGraph,
        examples: &ExampleSet,
        coverage: &NegativeCoverage,
        exec: &EvalHandle,
    ) -> usize {
        exec.assert_serves(graph);
        let before = self.pruned_count;
        let identity = coverage.log_identity();
        let version = coverage.version();
        let scores_current = self.scores.len() == graph.node_count();
        let synced_at = match self.synced {
            Some((id, v)) if id == identity && v <= version && scores_current => Some(v),
            _ => None,
        };
        if synced_at != Some(version) {
            let index = exec.bounded_words(coverage.bound());
            let since = match synced_at {
                Some(v) => v,
                None => {
                    let scores = exec.bounded_word_counts(coverage.bound());
                    for (node, &score) in scores.iter().enumerate() {
                        if score == 0 {
                            self.prune(NodeId::from(node));
                        }
                    }
                    self.scores = scores;
                    0
                }
            };
            // A node's uncovered count drops by one for every newly covered
            // word it spells.  Already-pruned nodes are decremented too,
            // keeping every cached score accurate.
            let mut walked = 0;
            for word in coverage.covered_since(since) {
                let spellers = index.spellers(word);
                walked += spellers.len();
                for &node in spellers {
                    let score = self.scores[node.index()].saturating_sub(1);
                    self.scores[node.index()] = score;
                    if score == 0 {
                        self.prune(node);
                    }
                }
            }
            if since < version {
                self.metrics.incremental_refreshes.inc();
                self.metrics.refresh_postings.add(walked as u64);
            }
            self.synced = Some((identity, version));
        }
        self.prune_labeled(examples);
        self.pruned_count - before
    }

    fn prune_labeled(&mut self, examples: &ExampleSet) {
        for (node, _) in examples.iter() {
            self.prune(node);
        }
    }

    /// Marks a single node as pruned (used when the user labels it).
    /// Returns `false` when it already was.
    pub fn prune(&mut self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / 64, 1u64 << (node.index() % 64));
        if word >= self.pruned.len() {
            self.pruned.resize(word + 1, 0);
        }
        let newly = self.pruned[word] & bit == 0;
        self.pruned[word] |= bit;
        self.pruned_count += usize::from(newly);
        newly
    }

    /// Returns `true` when `node` has been pruned.
    pub fn is_pruned(&self, node: NodeId) -> bool {
        self.pruned
            .get(node.index() / 64)
            .is_some_and(|word| word & (1u64 << (node.index() % 64)) != 0)
    }

    /// Number of pruned nodes.
    pub fn pruned_count(&self) -> usize {
        self.pruned_count
    }

    /// The nodes that may still be proposed to the user, in id order.
    pub fn candidates<'a>(&'a self, graph: &'a CsrGraph) -> impl Iterator<Item = NodeId> + 'a {
        graph.nodes().filter(move |n| !self.is_pruned(*n))
    }

    /// Fraction of the graph's nodes that has been pruned (0.0 for an empty
    /// graph).
    pub fn pruned_fraction(&self, graph: &CsrGraph) -> f64 {
        if graph.node_count() == 0 {
            0.0
        } else {
            self.pruned_count() as f64 / graph.node_count() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::Graph;

    /// N5 -bus-> N6 -cinema-> C2; N5 -restaurant-> R2; N8 isolated.
    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let n5 = g.add_node("N5");
        let n6 = g.add_node("N6");
        let c2 = g.add_node("C2");
        let r2 = g.add_node("R2");
        let _n8 = g.add_node("N8");
        g.add_edge_by_name(n5, "bus", n6);
        g.add_edge_by_name(n6, "cinema", c2);
        g.add_edge_by_name(n5, "restaurant", r2);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn sinks_are_pruned_immediately() {
        let g = sample();
        let mut pruning = PruningState::new(3);
        let examples = ExampleSet::new();
        let coverage = NegativeCoverage::new(3);
        let newly = pruning.refresh_with(&g, &examples, &coverage, &EvalHandle::naive(&g));
        // C2, R2 and the isolated N8 have no outgoing paths.
        assert_eq!(newly, 3);
        assert!(pruning.is_pruned(g.node_by_name("C2").unwrap()));
        assert!(pruning.is_pruned(g.node_by_name("N8").unwrap()));
        assert!(!pruning.is_pruned(g.node_by_name("N5").unwrap()));
        assert_eq!(pruning.candidates(&g).count(), 2);
    }

    #[test]
    fn labeled_nodes_are_pruned() {
        let g = sample();
        let mut pruning = PruningState::new(3);
        let mut examples = ExampleSet::new();
        let n5 = g.node_by_name("N5").unwrap();
        examples.add_positive(n5);
        let coverage = NegativeCoverage::new(3);
        pruning.refresh_with(&g, &examples, &coverage, &EvalHandle::naive(&g));
        assert!(pruning.is_pruned(n5));
    }

    #[test]
    fn negatives_make_covered_nodes_uninformative() {
        let g = sample();
        let exec = EvalHandle::naive(&g);
        let n5 = g.node_by_name("N5").unwrap();
        let n6 = g.node_by_name("N6").unwrap();
        let mut examples = ExampleSet::new();
        examples.add_negative(n5);
        let coverage = NegativeCoverage::from_negatives(&g, [n5], 3);
        let mut pruning = PruningState::new(3);
        pruning.refresh_with(&g, &examples, &coverage, &exec);
        // N5 is labeled; its words cover bus·cinema but NOT cinema, so N6
        // stays informative.
        assert!(pruning.is_pruned(n5));
        assert!(!pruning.is_pruned(n6));
        // Once N6 is also covered (label it negative too), nothing is left.
        let coverage2 = NegativeCoverage::from_negatives(&g, [n5, n6], 3);
        let mut examples2 = ExampleSet::new();
        examples2.add_negative(n5);
        examples2.add_negative(n6);
        let mut pruning2 = PruningState::new(3);
        pruning2.refresh_with(&g, &examples2, &coverage2, &exec);
        assert_eq!(pruning2.candidates(&g).count(), 0);
        assert!((pruning2.pruned_fraction(&g) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_refresh_matches_full_rescan() {
        let g = sample();
        let exec = EvalHandle::naive(&g);
        let n5 = g.node_by_name("N5").unwrap();
        let n6 = g.node_by_name("N6").unwrap();

        let mut incremental = PruningState::new(3);
        let mut examples = ExampleSet::new();
        let mut coverage = NegativeCoverage::new(3);

        // Replay a small session: initial scan, then a positive whose node
        // also spells later-covered words, then two negatives.
        for step in 0..4 {
            if step == 1 {
                examples.add_positive(n6);
            }
            if step == 2 {
                examples.add_negative(n5);
                coverage.add_negative(&g, n5);
            }
            if step == 3 {
                examples.add_negative(n6);
                coverage.add_negative(&g, n6);
            }
            let before = incremental.pruned_count();
            let newly = incremental.refresh_with(&g, &examples, &coverage, &exec);
            assert_eq!(incremental.pruned_count(), before + newly, "step {step}");
            // The reference: a full rescan of every node's enumerated words.
            for node in g.nodes() {
                let uncovered = coverage.uncovered_count(&g, node);
                assert_eq!(
                    incremental.is_pruned(node),
                    examples.is_labeled(node) || uncovered == 0,
                    "step {step}, node {node}"
                );
                assert_eq!(
                    incremental.cached_score(node),
                    Some(uncovered),
                    "step {step}, node {node}"
                );
            }
            assert!(incremental.is_synced_to(&coverage));
        }
    }

    #[test]
    fn foreign_coverage_forces_a_full_rescan_not_a_delta() {
        let g = sample();
        let exec = gps_rpq::EvalHandle::naive(&g);
        let n5 = g.node_by_name("N5").unwrap();
        let n6 = g.node_by_name("N6").unwrap();
        let examples = ExampleSet::new();
        // Sync against coverage A (empty), then refresh with an unrelated
        // coverage B at a higher version: B's delta must not be applied to
        // A-synced scores — the state rescans and matches B exactly.
        let a = NegativeCoverage::new(3);
        let mut pruning = PruningState::new(3);
        pruning.refresh_with(&g, &examples, &a, &exec);
        assert!(pruning.is_synced_to(&a));
        let b = NegativeCoverage::from_negatives(&g, [n5], 3);
        assert!(!pruning.is_synced_to(&b));
        pruning.refresh_with(&g, &examples, &b, &exec);
        assert!(pruning.is_synced_to(&b));
        for node in g.nodes() {
            assert_eq!(
                pruning.cached_score(node),
                Some(b.uncovered_count(&g, node)),
                "node {node}"
            );
        }
        // A clone shares the log lineage, so its future deltas are valid.
        let mut c = b.clone();
        assert!(pruning.is_synced_to(&c));
        c.add_negative(&g, n6);
        assert!(!pruning.is_synced_to(&c), "clone advanced past the sync");
        pruning.refresh_with(&g, &examples, &c, &exec);
        assert!(pruning.is_synced_to(&c));
        assert_eq!(pruning.cached_score(n6), Some(0), "cinema is now covered");
    }

    #[test]
    fn unsynced_state_reports_no_cached_scores() {
        let g = sample();
        let pruning = PruningState::new(3);
        assert!(!pruning.is_synced_to(&NegativeCoverage::new(3)));
        assert_eq!(pruning.cached_score(g.node_by_name("N5").unwrap()), None);
    }

    #[test]
    fn manual_prune_and_counters() {
        let g = sample();
        let mut pruning = PruningState::new(2);
        assert!(pruning.prune(g.node_by_name("N5").unwrap()));
        assert!(!pruning.prune(g.node_by_name("N5").unwrap()));
        assert_eq!(pruning.pruned_count(), 1);
        assert!(pruning.pruned_fraction(&g) > 0.0);
    }

    #[test]
    fn empty_graph_fraction_is_zero() {
        let g = CsrGraph::default();
        let pruning = PruningState::new(2);
        assert_eq!(pruning.pruned_fraction(&g), 0.0);
        assert_eq!(pruning.candidates(&g).count(), 0);
    }
}
