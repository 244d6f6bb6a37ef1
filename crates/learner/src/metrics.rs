//! Quality metrics for learned queries.
//!
//! The companion research paper evaluates learned queries by comparing their
//! answer against the goal query's answer on the instance (precision, recall,
//! F-measure) in addition to counting interactions.  These metrics are used
//! by the experiment harness (`repro --experiment a1`) and are handy for
//! downstream users who want to monitor convergence of partial hypotheses.

use gps_rpq::QueryAnswer;

/// Precision / recall / F1 of a hypothesis answer with respect to a goal
/// answer over the same graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerMetrics {
    /// |hypothesis ∩ goal| / |hypothesis| (1.0 when the hypothesis is empty).
    pub precision: f64,
    /// |hypothesis ∩ goal| / |goal| (1.0 when the goal is empty).
    pub recall: f64,
    /// Harmonic mean of precision and recall (0.0 when both are 0).
    pub f1: f64,
    /// Number of nodes selected by both.
    pub true_positives: usize,
    /// Number of nodes selected by the hypothesis but not the goal.
    pub false_positives: usize,
    /// Number of nodes selected by the goal but not the hypothesis.
    pub false_negatives: usize,
}

impl AnswerMetrics {
    /// Compares `hypothesis` against `goal`.
    pub fn compare(hypothesis: &QueryAnswer, goal: &QueryAnswer) -> Self {
        let selected = hypothesis.len();
        let wanted = goal.len();
        let true_positives = hypothesis.intersection_len(goal);
        let false_positives = selected - true_positives;
        let false_negatives = wanted - true_positives;
        let precision = if selected == 0 {
            1.0
        } else {
            true_positives as f64 / selected as f64
        };
        let recall = if wanted == 0 {
            1.0
        } else {
            true_positives as f64 / wanted as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
            true_positives,
            false_positives,
            false_negatives,
        }
    }

    /// Returns `true` when the hypothesis answer equals the goal answer.
    pub fn is_exact(&self) -> bool {
        self.false_positives == 0 && self.false_negatives == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(flags: &[bool]) -> QueryAnswer {
        QueryAnswer::from_flags(flags.to_vec())
    }

    #[test]
    fn exact_match_scores_one() {
        let goal = answer(&[true, false, true, false]);
        let metrics = AnswerMetrics::compare(&goal, &goal);
        assert_eq!(metrics.precision, 1.0);
        assert_eq!(metrics.recall, 1.0);
        assert_eq!(metrics.f1, 1.0);
        assert!(metrics.is_exact());
        assert_eq!(metrics.true_positives, 2);
    }

    #[test]
    fn overgeneralization_hurts_precision_only() {
        let goal = answer(&[true, false, false, false]);
        let hypothesis = answer(&[true, true, true, false]);
        let metrics = AnswerMetrics::compare(&hypothesis, &goal);
        assert!((metrics.precision - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(metrics.recall, 1.0);
        assert_eq!(metrics.false_positives, 2);
        assert_eq!(metrics.false_negatives, 0);
        assert!(!metrics.is_exact());
    }

    #[test]
    fn undergeneralization_hurts_recall_only() {
        let goal = answer(&[true, true, true, false]);
        let hypothesis = answer(&[true, false, false, false]);
        let metrics = AnswerMetrics::compare(&hypothesis, &goal);
        assert_eq!(metrics.precision, 1.0);
        assert!((metrics.recall - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(metrics.false_negatives, 2);
    }

    #[test]
    fn empty_answers_edge_cases() {
        let empty = answer(&[false, false]);
        let goal = answer(&[true, false]);
        let m1 = AnswerMetrics::compare(&empty, &goal);
        assert_eq!(m1.precision, 1.0, "empty hypothesis makes no false claim");
        assert_eq!(m1.recall, 0.0);
        assert_eq!(m1.f1, 0.0);
        let m2 = AnswerMetrics::compare(&goal, &empty);
        assert_eq!(m2.recall, 1.0, "empty goal is trivially covered");
        assert_eq!(m2.precision, 0.0);
        let m3 = AnswerMetrics::compare(&empty, &empty);
        assert!(m3.is_exact());
        assert_eq!(m3.f1, 1.0);
    }

    #[test]
    fn disjoint_answers_score_zero_f1() {
        let goal = answer(&[true, false]);
        let hypothesis = answer(&[false, true]);
        let metrics = AnswerMetrics::compare(&hypothesis, &goal);
        assert_eq!(metrics.f1, 0.0);
        assert_eq!(metrics.true_positives, 0);
    }
}
