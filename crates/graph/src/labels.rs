//! Interning of edge labels.
//!
//! Graph databases in the GPS model are edge-labeled: every edge carries one
//! symbol from a finite alphabet (`tram`, `bus`, `cinema`, …).  The interner
//! maps each distinct label string to a dense [`LabelId`] so the rest of the
//! system can work with compact integers, and maps the identifiers back to
//! strings for display.

use crate::ids::LabelId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Bidirectional map between label strings and [`LabelId`]s.
///
/// Identifiers are dense and assigned in first-seen order, so an interner
/// with `n` labels uses identifiers `0..n`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelInterner {
    names: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, LabelId>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its identifier.  Repeated calls with the
    /// same name return the same identifier.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = LabelId::from(self.names.len());
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up a label by name without interning it.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.index.get(name).copied()
    }

    /// Returns the name of a label identifier, if it exists.
    pub fn name(&self, id: LabelId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of distinct labels interned so far (the alphabet size).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no label has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(LabelId, name)` pairs in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (LabelId::from(i), s.as_str()))
    }

    /// All label identifiers in identifier order.
    pub fn ids(&self) -> impl Iterator<Item = LabelId> + '_ {
        (0..self.names.len()).map(LabelId::from)
    }

    /// Rebuilds the name→id index.  Used after deserialization, where the
    /// reverse index is not stored.
    pub(crate) fn rebuild_index(&mut self) {
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), LabelId::from(i)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("tram");
        let b = interner.intern("tram");
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut interner = LabelInterner::new();
        let tram = interner.intern("tram");
        let bus = interner.intern("bus");
        let cinema = interner.intern("cinema");
        assert_eq!(tram.index(), 0);
        assert_eq!(bus.index(), 1);
        assert_eq!(cinema.index(), 2);
    }

    #[test]
    fn name_lookup_round_trips() {
        let mut interner = LabelInterner::new();
        let bus = interner.intern("bus");
        assert_eq!(interner.name(bus), Some("bus"));
        assert_eq!(interner.get("bus"), Some(bus));
        assert_eq!(interner.get("missing"), None);
        assert_eq!(interner.name(LabelId::new(99)), None);
    }

    #[test]
    fn iteration_follows_insertion_order() {
        let mut interner = LabelInterner::new();
        interner.intern("a");
        interner.intern("b");
        interner.intern("c");
        let names: Vec<&str> = interner.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(interner.ids().count(), 3);
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut interner = LabelInterner::new();
        interner.intern("x");
        interner.intern("y");
        let serialized = serde_json::to_string(&interner).unwrap();
        let mut restored: LabelInterner = serde_json::from_str(&serialized).unwrap();
        assert_eq!(restored.get("y"), None, "index is skipped by serde");
        restored.rebuild_index();
        assert_eq!(restored.get("y"), Some(LabelId::new(1)));
        assert_eq!(restored.name(LabelId::new(0)), Some("x"));
    }

    #[test]
    fn empty_interner_reports_empty() {
        let interner = LabelInterner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.len(), 0);
    }
}
