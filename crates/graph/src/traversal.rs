//! Graph traversals: BFS distances and weakly connected components.
//!
//! Each of these allocates per-node state over the whole graph, so a
//! traversal costs O(n) however little it reaches.  Neighborhood extraction
//! ([`crate::neighborhood`]) runs its own radius-bounded search instead;
//! [`bfs`] is the reference its differential test compares against.

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

    /// Iterates over `(node, distance)` pairs of reachable nodes in node-id
    /// order.
    pub fn reachable(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.distances
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (NodeId::from(i), d)))
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
        let d = bfs(&g, n[0], None, Direction::Forward);
        assert_eq!(d.distance(n[0]), Some(0));
        assert_eq!(d.distance(n[1]), Some(1));
        assert_eq!(d.distance(n[2]), Some(2));
        assert_eq!(d.distance(n[3]), Some(3));
        assert_eq!(d.distance(n[4]), None);
        assert_eq!(d.reachable().count(), 4);
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
        assert_eq!(d.reachable().count(), 1, "isolated node sees only itself");
        let d0 = bfs(&g, n[3], Some(1), Direction::Both);
        assert_eq!(d0.distance(n[1]), Some(1));
        assert_eq!(d0.distance(n[2]), Some(1));
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
        let d = bfs(&g, n[1], None, Direction::Forward);
        let pairs: Vec<(NodeId, u32)> = d.reachable().collect();
        assert!(pairs.contains(&(n[1], 0)));
        assert!(pairs.contains(&(n[3], 2)));
        assert_eq!(d.start(), n[1]);
    }
}
