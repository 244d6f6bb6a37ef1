//! Halt conditions.
//!
//! The interactions continue "until a halt condition is satisfied".  The
//! natural condition is that every remaining node is uninformative (the
//! version space cannot shrink further); weaker conditions let the user stop
//! early when satisfied with an intermediate query, or bound the number of
//! interactions.  Only the user judges whether a query is her goal: the
//! loop asks her ([`crate::User::satisfied_with`]) and never compares the
//! hypothesis with a goal itself.

use serde::{Deserialize, Serialize};

/// Why a session stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HaltReason {
    /// No informative, unlabeled node remains — the strongest condition.
    AllNodesResolved,
    /// The user declared herself satisfied with the current candidate query.
    UserSatisfied,
    /// The interaction budget was exhausted.
    InteractionBudgetExhausted,
    /// The client closed the session (service deployments only: a managed
    /// session was torn down before any halt condition fired).
    ClosedByClient,
}

impl HaltReason {
    /// Returns `true` when the session ended because learning genuinely
    /// converged (as opposed to running out of budget).
    pub fn is_convergence(self) -> bool {
        matches!(
            self,
            HaltReason::AllNodesResolved | HaltReason::UserSatisfied
        )
    }
}

/// Configuration of the halt conditions checked after every interaction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HaltConfig {
    /// Maximum number of label interactions before giving up.
    pub max_interactions: usize,
    /// Whether to ask the user after every interaction if the current
    /// hypothesis is her goal ([`crate::User::satisfied_with`]); a yes ends
    /// the session [`HaltReason::UserSatisfied`].
    pub stop_on_goal: bool,
}

impl Default for HaltConfig {
    fn default() -> Self {
        Self {
            max_interactions: 200,
            stop_on_goal: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_classification() {
        assert!(HaltReason::AllNodesResolved.is_convergence());
        assert!(HaltReason::UserSatisfied.is_convergence());
        assert!(!HaltReason::InteractionBudgetExhausted.is_convergence());
        assert!(!HaltReason::ClosedByClient.is_convergence());
    }

    #[test]
    fn default_budget_is_generous() {
        let config = HaltConfig::default();
        assert!(config.max_interactions >= 100);
        assert!(config.stop_on_goal);
    }

    #[test]
    fn serde_round_trip() {
        let config = HaltConfig {
            max_interactions: 7,
            stop_on_goal: false,
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: HaltConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.max_interactions, 7);
        assert!(!back.stop_on_goal);
        let reason_json = serde_json::to_string(&HaltReason::UserSatisfied).unwrap();
        let reason: HaltReason = serde_json::from_str(&reason_json).unwrap();
        assert_eq!(reason, HaltReason::UserSatisfied);
    }
}
