//! Graph (de)serialization: a simple textual edge-list format and JSON.
//!
//! The edge-list format is one line per edge, `source label target`,
//! whitespace-separated, with `#` comments and blank lines ignored.  Node and
//! label names are arbitrary non-whitespace strings and are created on first
//! use.  Isolated nodes can be declared with a single-token line.
//!
//! ```text
//! # the Figure 1 fragment
//! N1 tram N4
//! N4 cinema C1
//! N5
//! ```

use crate::graph::Graph;
use std::fmt;
use std::path::Path as FsPath;

/// Errors raised while parsing or writing graphs.
#[derive(Debug)]
pub enum IoError {
    /// A line of the edge-list format had a number of tokens other than 1 or 3.
    MalformedLine {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        content: String,
    },
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Underlying JSON error.
    Json(serde_json::Error),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::MalformedLine { line, content } => {
                write!(f, "malformed edge-list line {line}: {content:?} (expected `source label target` or a single node name)")
            }
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Json(e)
    }
}

/// Parses a graph from the edge-list format.
pub fn parse_edge_list(input: &str) -> Result<Graph, IoError> {
    let mut graph = Graph::new();
    for (idx, raw_line) in input.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            [node] => {
                ensure_node(&mut graph, node);
            }
            [source, label, target] => {
                let s = ensure_node(&mut graph, source);
                let t = ensure_node(&mut graph, target);
                graph.add_edge_by_name(s, label, t);
            }
            _ => {
                return Err(IoError::MalformedLine {
                    line: idx + 1,
                    content: raw_line.to_string(),
                })
            }
        }
    }
    Ok(graph)
}

fn ensure_node(graph: &mut Graph, name: &str) -> crate::ids::NodeId {
    match graph.node_by_name(name) {
        Some(id) => id,
        None => graph.add_node(name),
    }
}

/// Serializes a graph to the edge-list format.  Isolated nodes are emitted as
/// single-token lines so the round trip is lossless up to edge ordering.
pub fn to_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    for (_, edge) in graph.edges() {
        out.push_str(graph.node_name(edge.source));
        out.push(' ');
        out.push_str(graph.label_name(edge.label).unwrap_or("?"));
        out.push(' ');
        out.push_str(graph.node_name(edge.target));
        out.push('\n');
    }
    for node in graph.nodes() {
        if graph.out_degree(node) == 0 && graph.in_degree(node) == 0 {
            out.push_str(graph.node_name(node));
            out.push('\n');
        }
    }
    out
}

/// Reads a graph from an edge-list file.
pub fn read_edge_list_file(path: impl AsRef<FsPath>) -> Result<Graph, IoError> {
    let content = std::fs::read_to_string(path)?;
    parse_edge_list(&content)
}

/// Serializes a graph to JSON.
pub fn to_json(graph: &Graph) -> Result<String, IoError> {
    Ok(serde_json::to_string_pretty(graph)?)
}

/// Deserializes a graph from JSON, rebuilding the lookup indexes.
pub fn from_json(json: &str) -> Result<Graph, IoError> {
    let mut graph: Graph = serde_json::from_str(json)?;
    graph.rebuild_indexes();
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment line
N1 tram N4

N4 cinema C1
N2 bus N1
N5
";

    #[test]
    fn parse_edge_list_builds_nodes_and_edges() {
        let g = parse_edge_list(SAMPLE).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 3);
        assert!(g.node_by_name("N5").is_some());
        let n1 = g.node_by_name("N1").unwrap();
        let n4 = g.node_by_name("N4").unwrap();
        let tram = g.label_id("tram").unwrap();
        assert!(g.edges().any(|(_, e)| e == crate::Edge::new(n1, tram, n4)));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let g = parse_edge_list("# only comments\n\n   \n").unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = parse_edge_list("N1 tram\n").unwrap_err();
        match err {
            IoError::MalformedLine { line, content } => {
                assert_eq!(line, 1);
                assert!(content.contains("N1 tram"));
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(err_to_string_contains(
            parse_edge_list("a b c d\n").unwrap_err(),
            "malformed"
        ));
    }

    fn err_to_string_contains(err: IoError, needle: &str) -> bool {
        err.to_string().contains(needle)
    }

    #[test]
    fn edge_list_round_trip() {
        let g = parse_edge_list(SAMPLE).unwrap();
        let text = to_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert!(g2.node_by_name("N5").is_some(), "isolated node preserved");
    }

    #[test]
    fn json_round_trip() {
        let g = parse_edge_list(SAMPLE).unwrap();
        let json = to_json(&g).unwrap();
        let g2 = from_json(&json).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.node_by_name("N2"), g.node_by_name("N2"));
        assert!(g2.label_id("cinema").is_some());
    }

    #[test]
    fn file_round_trip() {
        let g = parse_edge_list(SAMPLE).unwrap();
        // A directory of this process's own (the test's only call), so
        // concurrent runs never share a path, removed whole afterwards.
        let dir = std::env::temp_dir().join(format!("gps-graph-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.edges");
        std::fs::write(&path, to_edge_list(&g)).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(g2.edge_count(), g.edge_count());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_edge_list_file("/definitely/not/here.edges").unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
        assert!(err.to_string().contains("i/o error"));
    }

    #[test]
    fn bad_json_is_a_json_error() {
        let err = from_json("{not json").unwrap_err();
        assert!(matches!(err, IoError::Json(_)));
    }
}
