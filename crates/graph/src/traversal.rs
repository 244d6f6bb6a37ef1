//! Graph traversals: BFS, DFS, distances and reachability.
//!
//! These are the building blocks for neighborhood extraction
//! ([`crate::neighborhood`]) and for the informativeness analysis in the
//! interactive layer.

use crate::csr::CsrGraph;
use crate::ids::NodeId;
use std::collections::VecDeque;

/// Result of a breadth-first search: distance (in edges) from the start node
/// to every reachable node.
#[derive(Debug, Clone)]
pub struct BfsDistances {
    /// `distances[i]` is `Some(d)` when node `i` is reachable at distance `d`
    /// from the start node, `None` otherwise.
    distances: Vec<Option<u32>>,
    start: NodeId,
}

impl BfsDistances {
    /// The node the search started from.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// Distance from the start node to `node`, if reachable.
    pub fn distance(&self, node: NodeId) -> Option<u32> {
        self.distances.get(node.index()).copied().flatten()
    }

    /// Returns `true` if `node` is reachable from the start node.
    pub fn is_reachable(&self, node: NodeId) -> bool {
        self.distance(node).is_some()
    }

    /// Iterates over `(node, distance)` pairs of reachable nodes in node-id
    /// order.
    pub fn reachable(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.distances
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (NodeId::from(i), d)))
    }

    /// Number of reachable nodes (including the start node itself).
    pub fn reachable_count(&self) -> usize {
        self.distances.iter().filter(|d| d.is_some()).count()
    }
}

/// Direction of a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges from source to target.
    Forward,
    /// Follow edges from target to source.
    Backward,
    /// Follow edges in both directions (treat the graph as undirected).
    Both,
}

fn neighbors(
    graph: &CsrGraph,
    node: NodeId,
    direction: Direction,
) -> impl Iterator<Item = NodeId> + '_ {
    let (out, inc) = match direction {
        Direction::Forward => (graph.out(node), &[][..]),
        Direction::Backward => (&[][..], graph.inc(node)),
        Direction::Both => (graph.out(node), graph.inc(node)),
    };
    out.iter().chain(inc).map(|entry| entry.node)
}

/// Breadth-first search from `start`, optionally bounded by `max_depth`
/// (number of edges), following edges in the given `direction`.
pub fn bfs(
    graph: &CsrGraph,
    start: NodeId,
    max_depth: Option<u32>,
    direction: Direction,
) -> BfsDistances {
    let mut distances = vec![None; graph.node_count()];
    let mut queue = VecDeque::new();
    distances[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(node) = queue.pop_front() {
        let d = distances[node.index()].expect("queued nodes have distances");
        if let Some(limit) = max_depth {
            if d >= limit {
                continue;
            }
        }
        for next in neighbors(graph, node, direction) {
            if distances[next.index()].is_none() {
                distances[next.index()] = Some(d + 1);
                queue.push_back(next);
            }
        }
    }
    BfsDistances { distances, start }
}

/// Unbounded forward BFS from `start`.
pub fn bfs_forward(graph: &CsrGraph, start: NodeId) -> BfsDistances {
    bfs(graph, start, None, Direction::Forward)
}

/// Returns the nodes reachable from `start` (forward direction), including
/// `start` itself, in BFS order.
pub fn reachable_from(graph: &CsrGraph, start: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut visited = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    visited[start.index()] = true;
    queue.push_back(start);
    while let Some(node) = queue.pop_front() {
        order.push(node);
        for next in graph.out(node).iter().map(|entry| entry.node) {
            if !visited[next.index()] {
                visited[next.index()] = true;
                queue.push_back(next);
            }
        }
    }
    order
}

/// Depth-first search that invokes `visit` on every node reachable from
/// `start` in pre-order.
pub fn dfs_preorder(graph: &CsrGraph, start: NodeId, mut visit: impl FnMut(NodeId)) {
    let mut visited = vec![false; graph.node_count()];
    let mut stack = vec![start];
    while let Some(node) = stack.pop() {
        if visited[node.index()] {
            continue;
        }
        visited[node.index()] = true;
        visit(node);
        // Push successors in reverse so the first successor is visited first.
        for next in graph.out(node).iter().rev().map(|entry| entry.node) {
            if !visited[next.index()] {
                stack.push(next);
            }
        }
    }
}

/// Returns `true` if `target` is reachable from `source` following forward
/// edges.
pub fn is_reachable(graph: &CsrGraph, source: NodeId, target: NodeId) -> bool {
    if source == target {
        return true;
    }
    bfs_forward(graph, source).is_reachable(target)
}

/// Weakly connected components, ignoring edge direction.  Returns one vector
/// of node ids per component, each sorted by node id; components are sorted
/// by their smallest node id.
pub fn weakly_connected_components(graph: &CsrGraph) -> Vec<Vec<NodeId>> {
    let mut component = vec![usize::MAX; graph.node_count()];
    let mut components = Vec::new();
    for start in graph.nodes() {
        if component[start.index()] != usize::MAX {
            continue;
        }
        let idx = components.len();
        let mut members = Vec::new();
        let mut queue = VecDeque::new();
        component[start.index()] = idx;
        queue.push_back(start);
        while let Some(node) = queue.pop_front() {
            members.push(node);
            for next in neighbors(graph, node, Direction::Both) {
                if component[next.index()] == usize::MAX {
                    component[next.index()] = idx;
                    queue.push_back(next);
                }
            }
        }
        members.sort();
        components.push(members);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// a -> b -> c -> d, plus e isolated, plus d -> b cycle edge.
    fn chain_with_cycle() -> (CsrGraph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|n| g.add_node(*n))
            .collect();
        g.add_edge_by_name(ids[0], "x", ids[1]);
        g.add_edge_by_name(ids[1], "x", ids[2]);
        g.add_edge_by_name(ids[2], "x", ids[3]);
        g.add_edge_by_name(ids[3], "x", ids[1]);
        (CsrGraph::from_graph(&g), ids)
    }

    #[test]
    fn bfs_computes_shortest_distances() {
        let (g, n) = chain_with_cycle();
        let d = bfs_forward(&g, n[0]);
        assert_eq!(d.distance(n[0]), Some(0));
        assert_eq!(d.distance(n[1]), Some(1));
        assert_eq!(d.distance(n[2]), Some(2));
        assert_eq!(d.distance(n[3]), Some(3));
        assert_eq!(d.distance(n[4]), None);
        assert_eq!(d.reachable_count(), 4);
    }

    #[test]
    fn bounded_bfs_respects_depth() {
        let (g, n) = chain_with_cycle();
        let d = bfs(&g, n[0], Some(2), Direction::Forward);
        assert_eq!(d.distance(n[2]), Some(2));
        assert_eq!(d.distance(n[3]), None);
    }

    #[test]
    fn backward_bfs_follows_reverse_edges() {
        let (g, n) = chain_with_cycle();
        let d = bfs(&g, n[2], None, Direction::Backward);
        assert_eq!(d.distance(n[1]), Some(1));
        assert_eq!(d.distance(n[0]), Some(2));
        // d reaches b via d->b, so backwards from c we see d at distance 2.
        assert_eq!(d.distance(n[3]), Some(2));
    }

    #[test]
    fn both_direction_unions_neighbors() {
        let (g, n) = chain_with_cycle();
        let d = bfs(&g, n[4], None, Direction::Both);
        assert_eq!(d.reachable_count(), 1, "isolated node sees only itself");
        let d0 = bfs(&g, n[3], Some(1), Direction::Both);
        assert!(d0.is_reachable(n[1]));
        assert!(d0.is_reachable(n[2]));
    }

    #[test]
    fn reachable_from_returns_bfs_order() {
        let (g, n) = chain_with_cycle();
        let order = reachable_from(&g, n[0]);
        assert_eq!(order, vec![n[0], n[1], n[2], n[3]]);
    }

    #[test]
    fn dfs_preorder_visits_each_reachable_node_once() {
        let (g, n) = chain_with_cycle();
        let mut seen = Vec::new();
        dfs_preorder(&g, n[0], |node| seen.push(node));
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], n[0]);
        assert!(seen.contains(&n[3]));
        assert!(!seen.contains(&n[4]));
    }

    #[test]
    fn reachability_checks() {
        let (g, n) = chain_with_cycle();
        assert!(is_reachable(&g, n[0], n[3]));
        assert!(is_reachable(&g, n[3], n[2]), "via the cycle edge d->b->c");
        assert!(!is_reachable(&g, n[0], n[4]));
        assert!(is_reachable(&g, n[4], n[4]), "trivially reachable");
    }

    #[test]
    fn weak_components_split_isolated_node() {
        let (g, n) = chain_with_cycle();
        let comps = weakly_connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![n[0], n[1], n[2], n[3]]);
        assert_eq!(comps[1], vec![n[4]]);
    }

    #[test]
    fn reachable_iteration_lists_pairs() {
        let (g, n) = chain_with_cycle();
        let d = bfs_forward(&g, n[1]);
        let pairs: Vec<(NodeId, u32)> = d.reachable().collect();
        assert!(pairs.contains(&(n[1], 0)));
        assert!(pairs.contains(&(n[3], 2)));
        assert_eq!(d.start(), n[1]);
    }
}
