//! Seeded input generators.  Everything a workload feeds the library comes
//! from here, derived from `--seed`; the library itself never sees the seed.

use gps_datasets::scale_free::ScaleFreeConfig;
use gps_graph::{LabelInterner, UpdateOp};
use gps_rpq::PathQuery;
use std::collections::BTreeSet;

/// Labels of every generated corpus: `a0` … `a7`.
pub const ALPHABET_SIZE: usize = 8;
/// Distinct goals in the pool — twice the 1,024-entry answer cache, so the
/// popular goals hit and the tail misses.
pub const GOAL_POOL_SIZE: usize = 2048;

/// SplitMix64: small, seedable, and the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent stream for one purpose (`tag`), so adding draws to one
    /// generator does not shift another's.
    pub fn fork(seed: u64, tag: u64) -> Self {
        let mut rng = Self(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }
}

/// Zipf(`exponent`) over ranks `0..n`: rank `r` has weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|r| (r as f64 + 1.0).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The seed of every corpus.  `--seed` draws the traffic — goals, their
/// popularity, updates, cold queries — over a corpus that stays put: which
/// hubs a 100,000-node preferential-attachment graph grows moved the median
/// step by 2x and the heap by 25% between seeds on unchanged code, and a
/// benchmark that unsteady cannot tell a regression from a reroll.
pub const CORPUS_SEED: u64 = 0x6770_7362; // "gpsb"

/// The scale-free corpus every workload runs on.
pub fn corpus_config(nodes: usize, edges_per_node: usize) -> ScaleFreeConfig {
    ScaleFreeConfig {
        nodes,
        edges_per_node,
        alphabet_size: ALPHABET_SIZE,
        skewed_labels: true,
        seed: CORPUS_SEED,
    }
}

fn label(rng: &mut Rng) -> String {
    format!("a{}", rng.below(ALPHABET_SIZE))
}

/// One star-free goal whose words are at most three labels long.
///
/// Star-free on purpose: the simulated user zooms out until a witness fits
/// the neighbourhood, and path validation then asks the shared cache for
/// every node's words up to that radius.  These goals never ask for more
/// than the path bound of 4, which set-up warms; one star goal with a
/// five-hop witness would enumerate every five-hop word of a 100,000-node
/// graph inside one `step`.  Most shapes have words of one or two labels,
/// which sessions usually learn within the 24-interaction budget; the
/// three-label chain mostly exhausts it, as some users do.
fn goal_syntax(rng: &mut Rng) -> String {
    let mut l = || label(rng);
    let [a, b, c, d] = [l(), l(), l(), l()];
    match rng.below(11) {
        0 => a,
        1 => format!("{a}+{b}"),
        2 => format!("{a}+{b}+{c}"),
        3 => format!("{a}.{b}"),
        4 => format!("({a}+{b}).{c}"),
        5 => format!("{a}.({b}+{c})"),
        6 => format!("({a}+{b}).({c}+{d})"),
        7 => format!("{a}+{b}.{c}"),
        8 => format!("({a}+{b}+{c}).{d}"),
        9 => format!("{a}.({b}+{c}+{d})"),
        _ => format!("{a}.{b}.{c}"),
    }
}

/// `size` goals over `labels`, distinct by [`PathQuery::display`], in draw
/// order (rank 0 is the most popular goal under the Zipf sampler).
pub fn goal_pool(labels: &LabelInterner, size: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng::fork(seed, 1);
    let mut seen = BTreeSet::new();
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let syntax = goal_syntax(&mut rng);
        let query = PathQuery::parse(&syntax, labels).expect("generated goals are well-formed");
        if seen.insert(query.display(labels)) {
            pool.push(syntax);
        }
    }
    pool
}

/// Queries no goal, warm query or earlier draw ever produced: four symbols,
/// two shapes in three starred, where goals are star-free with at most three
/// symbols and warm queries have at most three.
///
/// The draws are stratified, not independent.  What a cold evaluation costs
/// depends mostly on how frequent its labels are, and corpus labels are
/// skewed eight to one; a median over thirty independent draws moved by 28%
/// between seeds.  Here the base-8 digits `d0 d1 d2 d3` of draw `i` pick the
/// symbols `d0, d0+d1, d0+d2, d0+d3` (mod 8) through one seeded permutation
/// per position — a bijection on tuples — so across eight consecutive draws
/// every position takes every label once, and the shapes rotate.
#[derive(Debug)]
pub struct UnseenQueries {
    permutations: [[usize; ALPHABET_SIZE]; 4],
    drawn: usize,
}

impl UnseenQueries {
    /// Distinct queries before the stream wraps; no time box reaches it.
    pub const DISTINCT: usize = 3 * ALPHABET_SIZE.pow(4);

    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::fork(seed, 2);
        let mut permutations = [[0; ALPHABET_SIZE]; 4];
        for permutation in &mut permutations {
            for (i, slot) in permutation.iter_mut().enumerate() {
                *slot = i;
            }
            // Fisher–Yates.
            for i in (1..ALPHABET_SIZE).rev() {
                permutation.swap(i, rng.below(i + 1));
            }
        }
        Self {
            permutations,
            drawn: 0,
        }
    }
}

impl Iterator for UnseenQueries {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let i = self.drawn % Self::DISTINCT;
        self.drawn += 1;
        // 3 and 8^4 are coprime, so (shape, tuple) does not repeat before `DISTINCT`.
        let (shape, tuple) = (i % 3, i % ALPHABET_SIZE.pow(4));
        let digit = |j: u32| tuple / ALPHABET_SIZE.pow(j) % ALPHABET_SIZE;
        let symbol = |j: u32| {
            let index = if j == 0 {
                digit(0)
            } else {
                digit(0) + digit(j)
            };
            format!("a{}", self.permutations[j as usize][index % ALPHABET_SIZE])
        };
        let (a, b, c, d) = (symbol(0), symbol(1), symbol(2), symbol(3));
        Some(match shape {
            0 => format!("{a}.{b}.{c}.{d}"),
            1 => format!("({a}+{b})*.{c}.{d}.{a}"),
            _ => format!("{a}.{b}*.{c}.{d}"),
        })
    }
}

/// The 16-query warm set over `a0..a3` (the shapes of `rpq_baseline`'s IVM
/// groups): what a serving deployment keeps cached across publishes.
pub fn warm_set() -> Vec<String> {
    let l = ["a0", "a1", "a2", "a3"];
    vec![
        l[0].to_string(),
        l[1].to_string(),
        l[2].to_string(),
        l[3].to_string(),
        format!("{}.{}", l[0], l[1]),
        format!("{}.{}", l[1], l[2]),
        format!("{}.{}", l[2], l[3]),
        format!("{}.{}", l[3], l[0]),
        format!("{}*", l[0]),
        format!("{}*.{}", l[1], l[2]),
        format!("({}+{})*.{}", l[0], l[1], l[2]),
        format!("({}+{})*.{}", l[2], l[3], l[0]),
        format!("{}.{}*", l[0], l[1]),
        format!("({}+{}).{}", l[0], l[2], l[3]),
        format!("{}.{}.{}", l[1], l[2], l[3]),
        format!("({}+{})*.{}", l[1], l[3], l[2]),
    ]
}

/// What a publish of the large-corpus workload asks of answer migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishKind {
    /// Inserts under a label no cached query reads: every answer is carried.
    LeafCarry,
    /// Inserts under warm-set labels: touched answers resume from their seed.
    WarmReseed,
    /// Removes earlier inserts and adds new ones: the over-delete path.
    DeleteReseed,
}

/// An endless seeded stream of 4-op publishes cycling through the three
/// [`PublishKind`]s.  Endpoints are drawn from the youngest tenth of the
/// nodes, which preferential attachment leaves with few in-edges.
#[derive(Debug)]
pub struct PublishPlan {
    rng: Rng,
    nodes: usize,
    issued: usize,
    /// Warm-label edges inserted and not yet removed, oldest first.
    removable: Vec<(String, String, String)>,
}

impl PublishPlan {
    pub const OPS: usize = 4;

    pub fn new(nodes: usize, seed: u64) -> Self {
        assert!(nodes >= 20, "the plan draws from the youngest tenth");
        Self {
            rng: Rng::fork(seed, 3),
            nodes,
            issued: 0,
            removable: Vec::new(),
        }
    }

    fn leaf_pair(&mut self) -> (String, String) {
        let span = self.nodes / 10;
        let base = self.nodes - span;
        let source = base + self.rng.below(span);
        let mut target = base + self.rng.below(span);
        if target == source {
            target = base + (target - base + 1) % span;
        }
        (format!("v{source}"), format!("v{target}"))
    }

    fn add(&mut self, label: String, remember: bool) -> UpdateOp {
        let (source, target) = self.leaf_pair();
        if remember {
            self.removable
                .push((source.clone(), label.clone(), target.clone()));
        }
        UpdateOp::AddEdge {
            source,
            label,
            target,
        }
    }
}

impl Iterator for PublishPlan {
    type Item = (PublishKind, Vec<UpdateOp>);

    fn next(&mut self) -> Option<Self::Item> {
        let kind = [
            PublishKind::LeafCarry,
            PublishKind::WarmReseed,
            PublishKind::DeleteReseed,
        ][self.issued % 3];
        self.issued += 1;
        let warm = |rng: &mut Rng| format!("a{}", rng.below(4));
        let ops = match kind {
            PublishKind::LeafCarry => (0..Self::OPS)
                .map(|_| self.add("live".to_string(), false))
                .collect(),
            PublishKind::WarmReseed => (0..Self::OPS)
                .map(|_| {
                    let label = warm(&mut self.rng);
                    self.add(label, true)
                })
                .collect(),
            PublishKind::DeleteReseed => {
                let mut ops: Vec<UpdateOp> = self
                    .removable
                    .drain(..(Self::OPS / 2).min(self.removable.len()))
                    .map(|(source, label, target)| UpdateOp::RemoveEdge {
                        source,
                        label,
                        target,
                    })
                    .collect();
                while ops.len() < Self::OPS {
                    let label = warm(&mut self.rng);
                    ops.push(self.add(label, true));
                }
                ops
            }
        };
        Some((kind, ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet() -> LabelInterner {
        let mut labels = LabelInterner::new();
        for i in 0..ALPHABET_SIZE {
            labels.intern(&format!("a{i}"));
        }
        labels
    }

    #[test]
    fn the_goal_pool_repeats_per_seed_and_every_goal_parses() {
        let labels = alphabet();
        let pool = goal_pool(&labels, GOAL_POOL_SIZE, 7);
        assert_eq!(pool.len(), GOAL_POOL_SIZE);
        assert_eq!(pool, goal_pool(&labels, GOAL_POOL_SIZE, 7));
        assert_ne!(pool, goal_pool(&labels, GOAL_POOL_SIZE, 8));
        let displays: BTreeSet<String> = pool
            .iter()
            .map(|goal| PathQuery::parse(goal, &labels).unwrap().display(&labels))
            .collect();
        assert_eq!(displays.len(), GOAL_POOL_SIZE, "distinct by display");
    }

    #[test]
    fn unseen_queries_never_repeat_and_never_collide_with_goals() {
        let labels = alphabet();
        let goals: BTreeSet<String> = goal_pool(&labels, GOAL_POOL_SIZE, 3)
            .iter()
            .map(|goal| PathQuery::parse(goal, &labels).unwrap().display(&labels))
            .collect();
        let all = UnseenQueries::DISTINCT;
        let unseen: Vec<String> = UnseenQueries::new(3).take(all).collect();
        assert_eq!(unseen, UnseenQueries::new(3).take(all).collect::<Vec<_>>());
        assert_ne!(unseen, UnseenQueries::new(4).take(all).collect::<Vec<_>>());
        // Stratified: across eight consecutive draws (from a multiple of
        // eight) every position takes every label once.
        for window in unseen[16..56].chunks(8) {
            for position in 0..4 {
                let labels: BTreeSet<&str> = window
                    .iter()
                    .map(|q| {
                        q.split(|c: char| !c.is_ascii_alphanumeric())
                            .filter(|symbol| !symbol.is_empty())
                            .nth(position)
                            .unwrap()
                    })
                    .collect();
                assert_eq!(labels.len(), ALPHABET_SIZE, "{position} of {window:?}");
            }
        }
        let displays: BTreeSet<String> = unseen
            .iter()
            .map(|q| PathQuery::parse(q, &labels).unwrap().display(&labels))
            .collect();
        assert_eq!(displays.len(), unseen.len());
        assert!(displays.is_disjoint(&goals));
        for query in warm_set() {
            let display = PathQuery::parse(&query, &labels).unwrap().display(&labels);
            assert!(!displays.contains(&display));
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_repeats_per_seed() {
        let zipf = Zipf::new(GOAL_POOL_SIZE, 1.0);
        let draw = |seed| {
            let mut rng = Rng::fork(seed, 0);
            (0..20_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let draws = draw(11);
        assert_eq!(draws, draw(11));
        assert_ne!(draws, draw(12));
        assert!(draws.iter().all(|&rank| rank < GOAL_POOL_SIZE));
        let count = |rank| draws.iter().filter(|&&r| r == rank).count() as f64;
        // H(2048) ≈ 8.2, so rank 0 draws ≈ 12% and rank 1 half of that.
        assert!((count(0) / 20_000.0 - 0.122).abs() < 0.02);
        assert!((count(0) / count(1) - 2.0).abs() < 0.4);
        // The tail beyond the cache capacity is still asked for.
        assert!(draws.iter().filter(|&&r| r >= 1024).count() > 1_000);
    }

    #[test]
    fn the_publish_plan_cycles_kinds_and_only_removes_what_it_inserted() {
        let plan: Vec<_> = PublishPlan::new(1_000, 5).take(30).collect();
        let again: Vec<_> = PublishPlan::new(1_000, 5).take(30).collect();
        assert_eq!(plan, again);
        assert_ne!(
            plan,
            PublishPlan::new(1_000, 6).take(30).collect::<Vec<_>>()
        );
        let mut live: Vec<(String, String, String)> = Vec::new();
        for (i, (kind, ops)) in plan.iter().enumerate() {
            assert_eq!(ops.len(), PublishPlan::OPS);
            assert_eq!(*kind as usize, i % 3);
            for op in ops {
                match op {
                    UpdateOp::AddEdge {
                        source,
                        label,
                        target,
                    } => {
                        assert_ne!(source, target);
                        let id: usize = source[1..].parse().unwrap();
                        assert!((900..1_000).contains(&id));
                        assert_eq!(label == "live", *kind == PublishKind::LeafCarry);
                        live.push((source.clone(), label.clone(), target.clone()));
                    }
                    UpdateOp::RemoveEdge {
                        source,
                        label,
                        target,
                    } => {
                        assert_eq!(*kind, PublishKind::DeleteReseed);
                        let edge = (source.clone(), label.clone(), target.clone());
                        let at = live.iter().position(|e| *e == edge).expect("was inserted");
                        live.remove(at);
                    }
                    UpdateOp::AddNode(_) => panic!("the plan adds no nodes"),
                }
            }
        }
    }
}
