//! Reproduces Figure 3 of the paper as text: the neighborhood of N2 at
//! distance 2 (a), the zoom-out to distance 3 with the newly revealed nodes
//! highlighted (b), and the prefix tree of N2's paths of length at most 3
//! with the system's candidate path highlighted (c).
//!
//! Run with `cargo run --example neighborhood_zoom`.

use gps_core::Gps;
use gps_datasets::figure1::figure1_graph;

fn main() {
    let (graph, ids) = figure1_graph();
    let gps = Gps::new(graph);

    println!("=== Figure 3(a): neighborhood of N2, distance <= 2 ===");
    println!("{}", gps.render_neighborhood(ids.n2, 2));

    println!("=== Figure 3(b): zoom out to distance <= 3 (new nodes marked) ===");
    println!("{}", gps.render_zoom(ids.n2, 2));

    println!("=== Figure 3(c): prefix tree of N2's paths of length <= 3 ===");
    let labels = gps.snapshot().labels();
    let bus = labels.get("bus").unwrap();
    let cinema = labels.get("cinema").unwrap();
    // The system highlights bus·bus·cinema: a path of length 3, matching the
    // radius the user zoomed out to.
    println!("{}", gps.render_prefix_tree(ids.n2, 3, &[bus, bus, cinema]));
}
