//! Serializable session transcripts.
//!
//! A transcript records what happened during a specification session in a
//! form that can be saved, replayed in reports, or compared across runs: the
//! sequence of proposed nodes with their labels and validated paths, the
//! final learned query, and the session statistics.

use gps_graph::CsrGraph;
use gps_interactive::session::SessionOutcome;
use gps_interactive::SessionStats;
use gps_learner::Label;
use serde::{Deserialize, Serialize};

/// One recorded interaction, with names resolved for readability.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranscriptEntry {
    /// Display name of the proposed node.
    pub node: String,
    /// Number of zoom-outs before answering.
    pub zooms: usize,
    /// `"+"` or `"-"`.
    pub label: String,
    /// The validated path, rendered as `bus·tram·cinema`, if any.
    pub validated_path: Option<String>,
}

/// A complete session transcript.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transcript {
    /// The interactions in order.
    pub entries: Vec<TranscriptEntry>,
    /// The learned query in the paper's concrete syntax, if one was learned.
    pub learned_query: Option<String>,
    /// Display names of the nodes selected by the learned query.
    pub answer: Vec<String>,
    /// Why the session stopped (display form of [`gps_interactive::HaltReason`]).
    pub halt_reason: String,
    /// The session statistics.
    pub stats: SessionStats,
}

impl Transcript {
    /// Builds a transcript from a session outcome, resolving names against
    /// the graph the session ran on.
    pub fn from_outcome(graph: &CsrGraph, outcome: &SessionOutcome) -> Self {
        let entries = outcome
            .transcript
            .iter()
            .map(|record| TranscriptEntry {
                node: graph.node_name(record.node).to_string(),
                zooms: record.zooms,
                label: match record.label {
                    Label::Positive => "+".to_string(),
                    Label::Negative => "-".to_string(),
                },
                validated_path: record
                    .validated_word
                    .as_ref()
                    .map(|w| gps_graph::paths::render_word(graph, w)),
            })
            .collect();
        let learned_query = outcome
            .learned
            .as_ref()
            .map(|l| gps_automata::printer::print(&l.regex, graph.labels()));
        let answer = outcome
            .learned
            .as_ref()
            .map(|l| {
                l.answer
                    .nodes()
                    .into_iter()
                    .map(|n| graph.node_name(n).to_string())
                    .collect()
            })
            .unwrap_or_default();
        Self {
            entries,
            learned_query,
            answer,
            halt_reason: format!("{:?}", outcome.halt_reason),
            stats: outcome.stats.clone(),
        }
    }

    /// Renders the transcript as a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, entry) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "{:>3}. {} {} (zooms: {})",
                i + 1,
                entry.label,
                entry.node,
                entry.zooms
            ));
            if let Some(path) = &entry.validated_path {
                out.push_str(&format!("  validated: {path}"));
            }
            out.push('\n');
        }
        match &self.learned_query {
            Some(q) => out.push_str(&format!("learned query: {q}\n")),
            None => out.push_str("no query learned\n"),
        }
        out.push_str(&format!("answer: {{{}}}\n", self.answer.join(", ")));
        out.push_str(&format!("halted: {}\n", self.halt_reason));
        out.push_str(&format!("stats: {}\n", self.stats.summary()));
        out
    }

    /// Serializes the transcript to pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
    use gps_interactive::session::{Session, SessionConfig};
    use gps_interactive::strategy::InformativePathsStrategy;
    use gps_interactive::user::SimulatedUser;
    use gps_rpq::PathQuery;

    fn run_session() -> (CsrGraph, SessionOutcome) {
        let g = CsrGraph::from_graph(&figure1_graph().0);
        let goal = PathQuery::parse(MOTIVATING_QUERY, g.labels()).unwrap();
        let mut user = SimulatedUser::new(goal, &g);
        let mut session = Session::new(&g, SessionConfig::default());
        let outcome = session.run(&mut InformativePathsStrategy::default(), &mut user);
        (g, outcome)
    }

    #[test]
    fn transcript_resolves_names_and_paths() {
        let (g, outcome) = run_session();
        let transcript = Transcript::from_outcome(&g, &outcome);
        assert_eq!(transcript.entries.len(), outcome.stats.interactions);
        for entry in &transcript.entries {
            assert!(
                entry.node.starts_with('N')
                    || entry.node.starts_with('C')
                    || entry.node.starts_with('R')
            );
            assert!(entry.label == "+" || entry.label == "-");
        }
        assert!(transcript.learned_query.is_some());
        assert!(!transcript.answer.is_empty());
    }

    #[test]
    fn rendering_is_readable() {
        let (g, outcome) = run_session();
        let transcript = Transcript::from_outcome(&g, &outcome);
        let text = transcript.render();
        assert!(text.contains("learned query:"));
        assert!(text.contains("halted:"));
        assert!(text.contains("stats:"));
        assert!(text.lines().count() >= transcript.entries.len() + 3);
    }

    #[test]
    fn json_round_trip() {
        let (g, outcome) = run_session();
        let transcript = Transcript::from_outcome(&g, &outcome);
        let json = transcript.to_json().unwrap();
        let back: Transcript = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries, transcript.entries);
        assert_eq!(back.learned_query, transcript.learned_query);
    }
}
