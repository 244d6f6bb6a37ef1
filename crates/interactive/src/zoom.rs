//! Neighborhood zooming (Figure 3(a) → 3(b)).
//!
//! Before labeling, the user sees the neighborhood of the proposed node at
//! distance 2; she may repeatedly ask to zoom out, each time revealing the
//! next ring of nodes and edges.  [`ZoomState`] tracks the current fragment
//! and refuses to zoom past a configurable cap or past a zoom that revealed
//! nothing.  A fragment at radius r+1 contains the one at radius r, nodes
//! and edges alike, so a zoom revealed nothing exactly when it left both
//! counts unchanged: the state keeps no delta.  The highlight of Figure
//! 3(b) is [`Neighborhood::zoom_out`]'s delta, which only the renderers
//! compute.

use gps_graph::{CsrGraph, Neighborhood, NodeId};

/// The zooming state for one proposed node.
#[derive(Debug, Clone)]
pub struct ZoomState {
    node: NodeId,
    current: Neighborhood,
    zooms: usize,
    /// The last zoom left the fragment's node and edge counts unchanged.
    saturated: bool,
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
            zooms: 0,
            saturated: false,
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

    /// Number of zoom-out steps performed so far, the one that revealed
    /// nothing included.
    pub fn zoom_count(&self) -> usize {
        self.zooms
    }

    /// Zooms out by one ring.  Returns `false`, changing nothing, once the
    /// radius cap is reached or the previous zoom revealed nothing.
    pub fn zoom_out(&mut self, graph: &CsrGraph) -> bool {
        if self.saturated || self.radius() >= self.max_radius {
            return false;
        }
        let larger = Neighborhood::extract(graph, self.node, self.radius() + 1);
        self.saturated = larger.node_count() == self.current.node_count()
            && larger.edge_count() == self.current.edge_count();
        self.current = larger;
        self.zooms += 1;
        true
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
        assert!(!zoom.neighborhood().contains(ids.c1));
    }

    #[test]
    fn zooming_reveals_the_cinema_as_in_figure3() {
        let (g, ids) = figure1();
        let mut zoom = ZoomState::new(&g, ids.n2, 2, 5);
        assert!(zoom.zoom_out(&g));
        assert_eq!(zoom.radius(), 3);
        assert!(zoom.neighborhood().contains(ids.c1));
        assert_eq!(zoom.zoom_count(), 1);
    }

    #[test]
    fn max_radius_stops_zooming_before_the_fragment_saturates() {
        let (g, ids) = figure1();
        let mut zoom = ZoomState::new(&g, ids.n2, 1, 2);
        assert!(zoom.zoom_out(&g));
        // Radius 3 would still reveal something: the cap, not saturation,
        // is what refuses the next zoom.
        let beyond = Neighborhood::extract(&g, ids.n2, 3);
        assert!(beyond.edge_count() > zoom.neighborhood().edge_count());
        assert!(!zoom.zoom_out(&g));
        assert_eq!(zoom.radius(), 2);
        assert_eq!(zoom.zoom_count(), 1);
    }

    #[test]
    fn a_saturated_fragment_counts_the_empty_zoom_then_refuses() {
        let (g, ids) = figure1();
        // A sink's fragment is saturated from the start: its first zoom is
        // allowed and counted, and reveals nothing.
        let mut sink = ZoomState::new(&g, ids.c1, 2, 20);
        assert!(sink.zoom_out(&g));
        assert_eq!((sink.radius(), sink.zoom_count()), (3, 1));
        assert_eq!(sink.neighborhood().node_count(), 1);
        assert!(!sink.zoom_out(&g));
        assert_eq!((sink.radius(), sink.zoom_count()), (3, 1));

        // From N6 every reachable node and edge shows within a few rings,
        // far below the cap of 20.
        let mut zoom = ZoomState::new(&g, ids.n6, 2, 20);
        while zoom.zoom_out(&g) {
            assert!(zoom.radius() < 20, "saturation comes before the cap");
        }
        let radius = zoom.radius();
        assert_eq!(zoom.zoom_count(), radius as usize - 2);
        // The last counted zoom revealed nothing, and the one before it did.
        let before = Neighborhood::extract(&g, ids.n6, radius - 1);
        assert_eq!(before.node_count(), zoom.neighborhood().node_count());
        assert_eq!(before.edge_count(), zoom.neighborhood().edge_count());
        let earlier = Neighborhood::extract(&g, ids.n6, radius - 2);
        assert!(earlier.edge_count() < before.edge_count());
        assert!(!zoom.zoom_out(&g));
        assert_eq!(zoom.radius(), radius);
    }

    #[test]
    fn cap_below_initial_radius_is_clamped() {
        let (g, ids) = figure1();
        let mut zoom = ZoomState::new(&g, ids.n2, 2, 1);
        assert_eq!(zoom.radius(), 2);
        assert!(!zoom.zoom_out(&g));
        assert_eq!(zoom.zoom_count(), 0);
    }
}
