//! Node-proposal strategies `Υ`.
//!
//! A strategy is "a function that takes as input a graph G and a set of
//! examples S, and returns a node from G".  The paper asks for strategies
//! that are time-efficient and minimize the number of interactions, and its
//! practical strategy "seeks the nodes having an important number of paths
//! that are shorter than a fixed bound and not covered by any negative node".
//!
//! Three strategies are provided:
//!
//! * [`RandomStrategy`] — the baseline: a uniformly random candidate;
//! * [`DegreeStrategy`] — a cheap structural heuristic: highest out-degree
//!   first;
//! * [`InformativePathsStrategy`] — the paper's strategy: the candidate with
//!   the most short uncovered paths.

use crate::pruning::PruningState;
use gps_graph::{Graph, GraphBackend, NodeId};
use gps_learner::ExampleSet;
use gps_rpq::NegativeCoverage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything a strategy may look at when choosing the next node.
///
/// Generic over the [`GraphBackend`] the session runs on; defaults to the
/// mutable [`Graph`] so existing call sites read naturally.
#[derive(Debug, Clone, Copy)]
pub struct StrategyContext<'a, B: GraphBackend = Graph> {
    /// The graph database.
    pub graph: &'a B,
    /// The examples collected so far.
    pub examples: &'a ExampleSet,
    /// The coverage induced by the negative examples.
    pub coverage: &'a NegativeCoverage,
    /// The pruning state (nodes that must not be proposed).
    pub pruning: &'a PruningState,
}

/// A node-proposal strategy over backend `B` (defaults to [`Graph`]).
///
/// The provided strategies implement `Strategy<B>` for every backend, so one
/// strategy value can drive sessions on the mutable graph and on CSR
/// snapshots alike.
pub trait Strategy<B: GraphBackend = Graph> {
    /// A short name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Proposes the next node to label, or `None` when every node is either
    /// labeled or pruned.
    fn propose(&mut self, ctx: &StrategyContext<'_, B>) -> Option<NodeId>;
}

/// The nodes a strategy may propose: neither pruned nor labeled, in id order.
fn candidates<'a, B: GraphBackend>(
    ctx: &'a StrategyContext<'_, B>,
) -> impl Iterator<Item = NodeId> + 'a {
    ctx.graph
        .nodes()
        .filter(|&n| !ctx.pruning.is_pruned(n) && !ctx.examples.is_labeled(n))
}

/// Proposes a uniformly random unlabeled, unpruned node.
#[derive(Debug, Clone)]
pub struct RandomStrategy {
    rng: StdRng,
}

impl RandomStrategy {
    /// Creates a random strategy with an explicit seed (for reproducible
    /// experiments).
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Default for RandomStrategy {
    fn default() -> Self {
        Self::seeded(0)
    }
}

impl<B: GraphBackend> Strategy<B> for RandomStrategy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn propose(&mut self, ctx: &StrategyContext<'_, B>) -> Option<NodeId> {
        let candidates: Vec<NodeId> = candidates(ctx).collect();
        if candidates.is_empty() {
            return None;
        }
        Some(candidates[self.rng.gen_range(0..candidates.len())])
    }
}

/// Proposes the candidate with the highest out-degree (ties broken by node
/// id).  Cheap but oblivious to the labels collected so far.
#[derive(Debug, Clone, Default)]
pub struct DegreeStrategy;

impl<B: GraphBackend> Strategy<B> for DegreeStrategy {
    fn name(&self) -> &'static str {
        "degree"
    }

    fn propose(&mut self, ctx: &StrategyContext<'_, B>) -> Option<NodeId> {
        candidates(ctx).max_by_key(|&n| (ctx.graph.out_degree(n), std::cmp::Reverse(n)))
    }
}

/// The paper's practical strategy: proposes the candidate with the largest
/// number of short paths not covered by any negative example.
///
/// The scores are the pruning state's per-node uncovered-word counts, at the
/// session's path bound, so the context's pruning state must have been
/// refreshed against its coverage ([`PruningState::refresh_with`]); proposing
/// from an unsynced context panics.
#[derive(Debug, Clone, Default)]
pub struct InformativePathsStrategy;

impl<B: GraphBackend> Strategy<B> for InformativePathsStrategy {
    fn name(&self) -> &'static str {
        "informative-paths"
    }

    fn propose(&mut self, ctx: &StrategyContext<'_, B>) -> Option<NodeId> {
        let scores = ctx.pruning.cached_scores().unwrap_or_default();
        assert!(
            ctx.pruning.is_synced_to(ctx.coverage) && scores.len() == ctx.graph.node_count(),
            "the pruning state must be refreshed against the context's coverage and graph"
        );
        // One pass over the scores, asking whether a node is still a
        // candidate only when it would beat the best so far.  Ties go to the
        // smaller id, so only a strictly larger score displaces.
        let mut best = None;
        let mut best_score = 0;
        for (index, &score) in scores.iter().enumerate() {
            let node = NodeId::from(index);
            if score > best_score && !ctx.pruning.is_pruned(node) && !ctx.examples.is_labeled(node)
            {
                best = Some(node);
                best_score = score;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_datasets::figure1::figure1_graph;
    use gps_rpq::EvalHandle;

    fn context<'a>(
        graph: &'a Graph,
        examples: &'a ExampleSet,
        coverage: &'a NegativeCoverage,
        pruning: &'a PruningState,
    ) -> StrategyContext<'a> {
        StrategyContext {
            graph,
            examples,
            coverage,
            pruning,
        }
    }

    #[test]
    fn strategies_skip_labeled_and_pruned_nodes() {
        let (g, ids) = figure1_graph();
        let mut examples = ExampleSet::new();
        examples.add_positive(ids.n2);
        let coverage = NegativeCoverage::new(3);
        let mut pruning = PruningState::new(3);
        pruning.refresh_with(&g, &examples, &coverage, &EvalHandle::naive(&g));
        pruning.prune(ids.n1);
        let ctx = context(&g, &examples, &coverage, &pruning);
        for strategy in [
            &mut RandomStrategy::seeded(1) as &mut dyn Strategy,
            &mut DegreeStrategy as &mut dyn Strategy,
            &mut InformativePathsStrategy as &mut dyn Strategy,
        ] {
            for _ in 0..5 {
                let proposal = strategy.propose(&ctx).unwrap();
                assert_ne!(
                    proposal,
                    ids.n2,
                    "{} proposed a labeled node",
                    strategy.name()
                );
                assert_ne!(
                    proposal,
                    ids.n1,
                    "{} proposed a pruned node",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn degree_strategy_prefers_hubs() {
        let (g, ids) = figure1_graph();
        let examples = ExampleSet::new();
        let coverage = NegativeCoverage::new(3);
        let pruning = PruningState::new(3);
        let ctx = context(&g, &examples, &coverage, &pruning);
        let proposal = DegreeStrategy.propose(&ctx).unwrap();
        // N2 has out-degree 3 (bus, bus, restaurant), the maximum in Figure 1
        // together with N5; ties break towards the smaller id, which is N2.
        assert_eq!(proposal, ids.n2);
    }

    #[test]
    fn informative_strategy_prefers_nodes_with_many_uncovered_paths() {
        let (g, ids) = figure1_graph();
        let examples = ExampleSet::new();
        let coverage = NegativeCoverage::new(3);
        let mut pruning = PruningState::new(3);
        pruning.refresh_with(&g, &examples, &coverage, &EvalHandle::naive(&g));
        let ctx = context(&g, &examples, &coverage, &pruning);
        let proposal = InformativePathsStrategy.propose(&ctx).unwrap();
        // The proposal has the maximum reference score among all nodes.
        let score = |node| coverage.uncovered_count(&g, node);
        let best_score = g.nodes().map(score).max().unwrap();
        assert_eq!(score(proposal), best_score);
        assert!(best_score > 0);
        // Facility nodes score zero.
        assert_eq!(score(ids.c1), 0);
    }

    #[test]
    fn informative_strategy_returns_none_when_all_paths_covered() {
        let (g, ids) = figure1_graph();
        // Label every transport node negative: everything is covered.
        let negatives = [ids.n1, ids.n2, ids.n3, ids.n4, ids.n5, ids.n6];
        let mut examples = ExampleSet::new();
        for n in negatives {
            examples.add_negative(n);
        }
        let coverage = NegativeCoverage::from_negatives(&g, negatives, 3);
        let mut pruning = PruningState::new(3);
        pruning.refresh_with(&g, &examples, &coverage, &EvalHandle::naive(&g));
        let ctx = context(&g, &examples, &coverage, &pruning);
        assert_eq!(InformativePathsStrategy.propose(&ctx), None);
    }

    #[test]
    #[should_panic(expected = "refreshed against the context's coverage")]
    fn informative_strategy_rejects_an_unsynced_context() {
        let (g, _) = figure1_graph();
        let examples = ExampleSet::new();
        let coverage = NegativeCoverage::new(3);
        let pruning = PruningState::new(3);
        InformativePathsStrategy.propose(&context(&g, &examples, &coverage, &pruning));
    }

    #[test]
    fn random_strategy_is_reproducible_per_seed() {
        let (g, _) = figure1_graph();
        let examples = ExampleSet::new();
        let coverage = NegativeCoverage::new(3);
        let pruning = PruningState::new(3);
        let ctx = context(&g, &examples, &coverage, &pruning);
        let a: Vec<_> = {
            let mut s = RandomStrategy::seeded(42);
            (0..5).map(|_| s.propose(&ctx).unwrap()).collect()
        };
        let b: Vec<_> = {
            let mut s = RandomStrategy::seeded(42);
            (0..5).map(|_| s.propose(&ctx).unwrap()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn strategies_report_names() {
        assert_eq!(
            Strategy::<Graph>::name(&RandomStrategy::default()),
            "random"
        );
        assert_eq!(Strategy::<Graph>::name(&DegreeStrategy), "degree");
        assert_eq!(
            Strategy::<Graph>::name(&InformativePathsStrategy),
            "informative-paths"
        );
    }

    #[test]
    fn exhausted_graph_proposes_nothing() {
        let (g, _) = figure1_graph();
        let mut examples = ExampleSet::new();
        for n in g.nodes() {
            examples.add_negative(n);
        }
        let coverage = NegativeCoverage::new(3);
        let pruning = PruningState::new(3);
        let ctx = context(&g, &examples, &coverage, &pruning);
        assert_eq!(RandomStrategy::default().propose(&ctx), None);
        assert_eq!(DegreeStrategy.propose(&ctx), None);
    }
}
