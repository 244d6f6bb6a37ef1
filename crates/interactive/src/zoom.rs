//! Neighborhood zooming (Figure 3(a) → 3(b)).
//!
//! Before labeling, the user sees the neighborhood of the proposed node at
//! distance 2; she may repeatedly ask to zoom out, each time revealing the
//! next ring of nodes and edges.  [`ZoomState`] tracks the current fragment
//! and the deltas, and refuses to zoom past the point where nothing new can
//! be revealed (or past a configurable cap).

use gps_graph::{CsrGraph, Neighborhood, NeighborhoodDelta, NodeId};

/// The zooming state for one proposed node.
#[derive(Debug, Clone)]
pub struct ZoomState {
    node: NodeId,
    current: Neighborhood,
    deltas: Vec<NeighborhoodDelta>,
    max_radius: u32,
}

impl ZoomState {
    /// Starts zooming on `node` with the given initial radius (the paper uses
    /// 2) and a maximum radius cap.
    pub fn new(graph: &CsrGraph, node: NodeId, initial_radius: u32, max_radius: u32) -> Self {
        let current = Neighborhood::extract(graph, node, initial_radius);
        Self {
            node,
            current,
            deltas: Vec::new(),
            max_radius: max_radius.max(initial_radius),
        }
    }

    /// The node being inspected.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The currently visible fragment.
    pub fn neighborhood(&self) -> &Neighborhood {
        &self.current
    }

    /// The current radius.
    pub fn radius(&self) -> u32 {
        self.current.radius()
    }

    /// Number of zoom-out steps performed so far.
    pub fn zoom_count(&self) -> usize {
        self.deltas.len()
    }

    /// The deltas revealed by each zoom step, oldest first.
    pub fn deltas(&self) -> &[NeighborhoodDelta] {
        &self.deltas
    }

    /// Returns `true` when another zoom step can still reveal something (the
    /// radius cap has not been hit and the last zoom was not empty).
    pub fn can_zoom(&self) -> bool {
        self.radius() < self.max_radius
            && !matches!(self.deltas.last(), Some(delta) if delta.is_empty())
    }

    /// Zooms out by one ring.  Returns the delta, or `None` when zooming is
    /// no longer possible.
    pub fn zoom_out(&mut self, graph: &CsrGraph) -> Option<&NeighborhoodDelta> {
        if !self.can_zoom() {
            return None;
        }
        let (larger, delta) = self.current.zoom_out(graph);
        self.current = larger;
        self.deltas.push(delta);
        self.deltas.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_datasets::figure1::figure1_graph;

    fn figure1() -> (gps_graph::CsrGraph, gps_datasets::figure1::Figure1) {
        let (g, ids) = figure1_graph();
        (gps_graph::CsrGraph::from_graph(&g), ids)
    }

    #[test]
    fn initial_state_matches_the_paper_default() {
        let (g, ids) = figure1();
        let zoom = ZoomState::new(&g, ids.n2, 2, 5);
        assert_eq!(zoom.node(), ids.n2);
        assert_eq!(zoom.radius(), 2);
        assert_eq!(zoom.zoom_count(), 0);
        assert!(zoom.can_zoom());
        assert!(!zoom.neighborhood().contains(ids.c1));
    }

    #[test]
    fn zooming_reveals_the_cinema_as_in_figure3() {
        let (g, ids) = figure1();
        let mut zoom = ZoomState::new(&g, ids.n2, 2, 5);
        let delta = zoom.zoom_out(&g).expect("zoom succeeds").clone();
        assert_eq!(zoom.radius(), 3);
        assert!(zoom.neighborhood().contains(ids.c1));
        assert!(delta.added_nodes.contains(&ids.c1));
        assert_eq!(zoom.zoom_count(), 1);
        assert_eq!(zoom.deltas().len(), 1);
    }

    #[test]
    fn zooming_stops_at_the_cap() {
        let (g, ids) = figure1();
        let mut zoom = ZoomState::new(&g, ids.n2, 2, 3);
        assert!(zoom.zoom_out(&g).is_some());
        assert!(!zoom.can_zoom());
        assert!(zoom.zoom_out(&g).is_none());
        assert_eq!(zoom.radius(), 3);
    }

    #[test]
    fn zooming_stops_when_nothing_new_appears() {
        let (g, ids) = figure1();
        let mut zoom = ZoomState::new(&g, ids.n6, 2, 20);
        // From N6 everything reachable is within a few hops; keep zooming
        // until the state refuses.
        let mut steps = 0;
        while zoom.zoom_out(&g).is_some() {
            steps += 1;
            assert!(steps < 20, "zooming must terminate");
        }
        assert!(!zoom.can_zoom());
        // The last recorded delta is empty (that is what stopped us) or the
        // cap was hit; here the saturation happens first.
        assert!(zoom.deltas().last().unwrap().is_empty());
    }

    #[test]
    fn cap_below_initial_radius_is_clamped() {
        let (g, ids) = figure1();
        let zoom = ZoomState::new(&g, ids.n2, 2, 1);
        assert_eq!(zoom.radius(), 2);
        assert!(!zoom.can_zoom());
    }
}
