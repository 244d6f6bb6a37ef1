//! The motivating example of the paper (Figure 1): a geographical graph of
//! six neighborhoods, two cinemas and two restaurants, connected by tram and
//! bus lines.
//!
//! The published figure is only available as an image; the edge set below is
//! reconstructed so that **every fact the paper states about it holds**:
//!
//! * `q = (tram+bus)*·cinema` selects exactly the neighborhoods N1, N2, N4
//!   and N6 (and no facility node);
//! * the witness paths listed in the paper exist:
//!   `N1 —tram→ N4 —cinema→ C1`, `N2 —bus→ N1 —tram→ N4 —cinema→ C1`,
//!   `N4 —cinema→ C1`, `N6 —cinema→ C2`;
//! * one can travel by bus from N2 to N3, N4 hosts cinema C1, N6 hosts
//!   cinema C2, N2 hosts restaurant R1, N5 hosts restaurant R2;
//! * no path starting at N5 (or N3) reaches a cinema, so labeling N5
//!   negative is consistent with the goal query;
//! * the query `bus` selects N2 and N6 but not N5 (the paper's example of a
//!   consistent-but-wrong query learned without path validation);
//! * the neighborhood of N2 at distance 2 contains no cinema, while the
//!   neighborhood at distance 3 does (Figure 3(a) vs 3(b)), and N2 has the
//!   length-3 path `bus·bus·cinema` highlighted in Figure 3(c).

use gps_graph::{Graph, NodeId};

/// Handles to the named nodes of the Figure 1 graph.
#[derive(Debug, Clone, Copy)]
pub struct Figure1 {
    /// Neighborhood N1.
    pub n1: NodeId,
    /// Neighborhood N2.
    pub n2: NodeId,
    /// Neighborhood N3.
    pub n3: NodeId,
    /// Neighborhood N4.
    pub n4: NodeId,
    /// Neighborhood N5.
    pub n5: NodeId,
    /// Neighborhood N6.
    pub n6: NodeId,
    /// Cinema C1 (in N4).
    pub c1: NodeId,
    /// Cinema C2 (in N6).
    pub c2: NodeId,
    /// Restaurant R1 (in N2).
    pub r1: NodeId,
    /// Restaurant R2 (in N5).
    pub r2: NodeId,
}

/// Builds the Figure 1 graph and returns it together with its node handles.
pub fn figure1_graph() -> (Graph, Figure1) {
    let mut g = Graph::new();
    let n1 = g.add_node("N1");
    let n2 = g.add_node("N2");
    let n3 = g.add_node("N3");
    let n4 = g.add_node("N4");
    let n5 = g.add_node("N5");
    let n6 = g.add_node("N6");
    let c1 = g.add_node("C1");
    let c2 = g.add_node("C2");
    let r1 = g.add_node("R1");
    let r2 = g.add_node("R2");

    let tram = g.label("tram");
    let bus = g.label("bus");
    let cinema = g.label("cinema");
    let restaurant = g.label("restaurant");

    // Transport edges.
    g.add_edge(n1, tram, n4);
    g.add_edge(n1, bus, n4);
    g.add_edge(n2, bus, n1);
    g.add_edge(n2, bus, n3);
    g.add_edge(n3, bus, n5);
    g.add_edge(n4, bus, n5);
    g.add_edge(n5, tram, n3);
    g.add_edge(n6, bus, n5);
    // Facility edges.
    g.add_edge(n4, cinema, c1);
    g.add_edge(n6, cinema, c2);
    g.add_edge(n2, restaurant, r1);
    g.add_edge(n5, restaurant, r2);

    (
        g,
        Figure1 {
            n1,
            n2,
            n3,
            n4,
            n5,
            n6,
            c1,
            c2,
            r1,
            r2,
        },
    )
}

/// The concrete syntax of the paper's motivating query.
pub const MOTIVATING_QUERY: &str = "(tram+bus)*.cinema";

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{CsrEntry, CsrGraph, Neighborhood, PathEnumerator};
    use gps_rpq::PathQuery;

    fn figure1() -> (CsrGraph, Figure1) {
        let (g, ids) = figure1_graph();
        (CsrGraph::from_graph(&g), ids)
    }

    #[test]
    fn graph_has_the_papers_shape() {
        let (g, ids) = figure1();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.label_count(), 4);
        assert_eq!(g.node_name(ids.n1), "N1");
        assert_eq!(g.node_name(ids.c2), "C2");
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        let has_edge = |source, label, node| g.out(source).contains(&CsrEntry { label, node });
        assert!(has_edge(ids.n2, bus, ids.n3), "bus travel from N2 to N3");
        assert!(has_edge(ids.n4, cinema, ids.c1), "cinema C1 in N4");
        assert!(has_edge(ids.n6, cinema, ids.c2), "cinema C2 in N6");
    }

    #[test]
    fn motivating_query_selects_exactly_the_papers_answer() {
        let (g, _) = figure1();
        let q = PathQuery::parse(MOTIVATING_QUERY, g.labels()).unwrap();
        let answer = q.evaluate(&g);
        assert_eq!(answer.node_names(&g), vec!["N1", "N2", "N4", "N6"]);
    }

    #[test]
    fn paper_witness_paths_exist() {
        let (g, ids) = figure1();
        let q = PathQuery::parse(MOTIVATING_QUERY, g.labels()).unwrap();
        let w1 = q.witness(&g, ids.n1).unwrap();
        assert_eq!(w1.render_word(&g), "tram·cinema");
        let w4 = q.witness(&g, ids.n4).unwrap();
        assert_eq!(w4.render_word(&g), "cinema");
        let w6 = q.witness(&g, ids.n6).unwrap();
        assert_eq!(w6.render_word(&g), "cinema");
        let w2 = q.witness(&g, ids.n2).unwrap();
        assert_eq!(w2.render_word(&g), "bus·tram·cinema");
        assert_eq!(w2.nodes, vec![ids.n2, ids.n1, ids.n4, ids.c1]);
    }

    #[test]
    fn n5_and_n3_cannot_reach_a_cinema() {
        let (g, ids) = figure1();
        let q = PathQuery::parse(MOTIVATING_QUERY, g.labels()).unwrap();
        let answer = q.evaluate(&g);
        assert!(!answer.contains(ids.n5));
        assert!(!answer.contains(ids.n3));
        // Even the unconstrained "some path ends with cinema" query misses
        // them.
        let any = PathQuery::parse("(tram+bus+restaurant)*.cinema", g.labels()).unwrap();
        let any_answer = any.evaluate(&g);
        assert!(!any_answer.contains(ids.n5));
        assert!(!any_answer.contains(ids.n3));
    }

    #[test]
    fn bus_query_matches_the_papers_counterexample() {
        // Scenario 2 of the demo: with examples +N2, +N6, −N5, the query
        // `bus` is consistent (selects both positives, not the negative) but
        // is not the goal query.
        let (g, ids) = figure1();
        let q = PathQuery::parse("bus", g.labels()).unwrap();
        let answer = q.evaluate(&g);
        assert!(answer.contains(ids.n2));
        assert!(answer.contains(ids.n6));
        assert!(!answer.contains(ids.n5));
    }

    #[test]
    fn figure3_neighborhood_radii() {
        let (g, ids) = figure1();
        // Distance ≤ 2 around N2: no cinema visible.
        let hood2 = Neighborhood::extract(&g, ids.n2, 2);
        assert!(!hood2.contains(ids.c1));
        assert!(!hood2.contains(ids.c2));
        // Distance ≤ 3: a cinema appears (C1 via N1→N4).
        let hood3 = Neighborhood::extract(&g, ids.n2, 3);
        assert!(hood3.contains(ids.c1));
    }

    #[test]
    fn figure3c_candidate_path_exists() {
        let (g, ids) = figure1();
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        let words = PathEnumerator::new(3).words_from(&g, ids.n2);
        assert!(
            words.contains(&vec![bus, bus, cinema]),
            "bus·bus·cinema is a length-3 path of N2"
        );
    }
}
