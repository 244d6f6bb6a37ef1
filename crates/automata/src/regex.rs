//! The regular-expression AST.
//!
//! Path queries in GPS are regular expressions over the edge-label alphabet,
//! e.g. the paper's motivating query `(tram + bus)* · cinema`.  The AST uses
//! n-ary concatenation and union, and the smart constructors apply the usual
//! algebraic simplifications (identity and absorbing elements, flattening,
//! star idempotence) so structurally different but trivially equal
//! expressions normalize to the same shape.

use crate::alphabet::Alphabet;
use gps_graph::LabelId;
use serde::{Deserialize, Serialize};

/// A regular expression over [`LabelId`] symbols.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The language containing only the empty word ε.
    Epsilon,
    /// A single symbol.
    Symbol(LabelId),
    /// Concatenation `r1 · r2 · … · rn` (n ≥ 2 after simplification).
    Concat(Vec<Regex>),
    /// Union `r1 + r2 + … + rn` (n ≥ 2 after simplification).
    Union(Vec<Regex>),
    /// Kleene star `r*`.
    Star(Box<Regex>),
}

impl Regex {
    /// A single-symbol expression.
    pub fn symbol(label: LabelId) -> Self {
        Regex::Symbol(label)
    }

    /// The expression spelling exactly the given word.
    pub fn word(word: &[LabelId]) -> Self {
        Regex::concat(word.iter().map(|&l| Regex::Symbol(l)))
    }

    /// Smart concatenation: flattens nested concatenations, drops ε factors
    /// and collapses to ∅ if any factor is ∅.
    pub fn concat(parts: impl IntoIterator<Item = Regex>) -> Self {
        let mut flat = Vec::new();
        for part in parts {
            match part {
                Regex::Epsilon => {}
                Regex::Empty => return Regex::Empty,
                Regex::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Regex::Epsilon,
            1 => flat.pop().expect("len checked"),
            _ => Regex::Concat(flat),
        }
    }

    /// Smart union: flattens nested unions, drops ∅ alternatives, and
    /// deduplicates syntactically equal alternatives.
    pub fn union(parts: impl IntoIterator<Item = Regex>) -> Self {
        let mut flat: Vec<Regex> = Vec::new();
        for part in parts {
            match part {
                Regex::Empty => {}
                Regex::Union(inner) => {
                    for r in inner {
                        if !flat.contains(&r) {
                            flat.push(r);
                        }
                    }
                }
                other => {
                    if !flat.contains(&other) {
                        flat.push(other);
                    }
                }
            }
        }
        match flat.len() {
            0 => Regex::Empty,
            1 => flat.pop().expect("len checked"),
            _ => Regex::Union(flat),
        }
    }

    /// Smart star: `∅* = ε* = ε`, `(r*)* = r*`.
    pub fn star(inner: Regex) -> Self {
        match inner {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            star @ Regex::Star(_) => star,
            other => Regex::Star(Box::new(other)),
        }
    }

    /// `r+ = r · r*`.
    pub fn plus(inner: Regex) -> Self {
        Regex::concat([inner.clone(), Regex::star(inner)])
    }

    /// `r? = ε + r`.
    pub fn optional(inner: Regex) -> Self {
        Regex::union([Regex::Epsilon, inner])
    }

    /// Binary concatenation convenience.
    pub fn then(self, other: Regex) -> Self {
        Regex::concat([self, other])
    }

    /// Binary union convenience.
    pub fn or(self, other: Regex) -> Self {
        Regex::union([self, other])
    }

    /// Returns `true` when the language of the expression contains ε.
    /// Computed syntactically (no automaton construction).
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Symbol(_) => false,
            Regex::Epsilon | Regex::Star(_) => true,
            Regex::Concat(parts) => parts.iter().all(Regex::nullable),
            Regex::Union(parts) => parts.iter().any(Regex::nullable),
        }
    }

    /// Returns `true` when the language is syntactically empty (the
    /// expression is ∅ or only built from ∅ in ways that preserve emptiness).
    /// Smart constructors already normalize such cases to `Regex::Empty`, so
    /// this is mostly a convenience for hand-built values.
    pub fn is_empty_language(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Epsilon | Regex::Symbol(_) | Regex::Star(_) => false,
            Regex::Concat(parts) => parts.iter().any(Regex::is_empty_language),
            Regex::Union(parts) => parts.iter().all(Regex::is_empty_language),
        }
    }

    /// The set of symbols occurring in the expression.
    pub fn alphabet(&self) -> Alphabet {
        let mut symbols = Vec::new();
        self.collect_symbols(&mut symbols);
        Alphabet::from_labels(symbols)
    }

    fn collect_symbols(&self, out: &mut Vec<LabelId>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Symbol(l) => out.push(*l),
            Regex::Concat(parts) | Regex::Union(parts) => {
                for p in parts {
                    p.collect_symbols(out);
                }
            }
            Regex::Star(inner) => inner.collect_symbols(out),
        }
    }

    /// Structural size of the expression (number of AST nodes), a proxy for
    /// query complexity used by the experiments.
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Symbol(_) => 1,
            Regex::Concat(parts) | Regex::Union(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(inner) => 1 + inner.size(),
        }
    }

    /// Star height (maximum nesting depth of Kleene stars).
    pub fn star_height(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Symbol(_) => 0,
            Regex::Concat(parts) | Regex::Union(parts) => {
                parts.iter().map(Regex::star_height).max().unwrap_or(0)
            }
            Regex::Star(inner) => 1 + inner.star_height(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId::new(i)
    }

    #[test]
    fn concat_simplifications() {
        assert_eq!(
            Regex::concat([Regex::Epsilon, Regex::symbol(l(0)), Regex::Epsilon]),
            Regex::symbol(l(0))
        );
        assert_eq!(
            Regex::concat([Regex::symbol(l(0)), Regex::Empty]),
            Regex::Empty
        );
        assert_eq!(Regex::concat(std::iter::empty()), Regex::Epsilon);
        // Nested concatenations flatten.
        let nested = Regex::concat([
            Regex::concat([Regex::symbol(l(0)), Regex::symbol(l(1))]),
            Regex::symbol(l(2)),
        ]);
        assert_eq!(
            nested,
            Regex::Concat(vec![
                Regex::symbol(l(0)),
                Regex::symbol(l(1)),
                Regex::symbol(l(2))
            ])
        );
    }

    #[test]
    fn union_simplifications() {
        assert_eq!(
            Regex::union([Regex::Empty, Regex::symbol(l(0))]),
            Regex::symbol(l(0))
        );
        assert_eq!(Regex::union(std::iter::empty()), Regex::Empty);
        // Duplicates collapse.
        assert_eq!(
            Regex::union([Regex::symbol(l(0)), Regex::symbol(l(0))]),
            Regex::symbol(l(0))
        );
        // Nested unions flatten.
        let nested = Regex::union([
            Regex::union([Regex::symbol(l(0)), Regex::symbol(l(1))]),
            Regex::symbol(l(2)),
        ]);
        assert_eq!(
            nested,
            Regex::Union(vec![
                Regex::symbol(l(0)),
                Regex::symbol(l(1)),
                Regex::symbol(l(2))
            ])
        );
    }

    #[test]
    fn star_simplifications() {
        assert_eq!(Regex::star(Regex::Empty), Regex::Epsilon);
        assert_eq!(Regex::star(Regex::Epsilon), Regex::Epsilon);
        let a_star = Regex::star(Regex::symbol(l(0)));
        assert_eq!(Regex::star(a_star.clone()), a_star);
    }

    #[test]
    fn plus_and_optional_expand() {
        let a = Regex::symbol(l(0));
        let plus = Regex::plus(a.clone());
        assert_eq!(plus, Regex::concat([a.clone(), Regex::star(a.clone())]));
        let opt = Regex::optional(a.clone());
        assert!(opt.nullable());
    }

    #[test]
    fn nullability() {
        let a = Regex::symbol(l(0));
        assert!(!a.nullable());
        assert!(Regex::Epsilon.nullable());
        assert!(!Regex::Empty.nullable());
        assert!(Regex::star(a.clone()).nullable());
        assert!(!Regex::concat([a.clone(), Regex::star(a.clone())]).nullable());
        assert!(Regex::union([a.clone(), Regex::Epsilon]).nullable());
    }

    #[test]
    fn empty_language_detection() {
        assert!(Regex::Empty.is_empty_language());
        assert!(!Regex::Epsilon.is_empty_language());
        // Hand-built (not via smart constructors) values:
        let concat_with_empty = Regex::Concat(vec![Regex::symbol(l(0)), Regex::Empty]);
        assert!(concat_with_empty.is_empty_language());
        let union_of_empties = Regex::Union(vec![Regex::Empty, Regex::Empty]);
        assert!(union_of_empties.is_empty_language());
    }

    #[test]
    fn alphabet_collects_symbols() {
        let q = Regex::concat([
            Regex::star(Regex::union([Regex::symbol(l(0)), Regex::symbol(l(1))])),
            Regex::symbol(l(2)),
        ]);
        let alpha = q.alphabet();
        assert_eq!(alpha.symbols(), &[l(0), l(1), l(2)]);
    }

    #[test]
    fn size_and_star_height() {
        let q = Regex::concat([
            Regex::star(Regex::union([Regex::symbol(l(0)), Regex::symbol(l(1))])),
            Regex::symbol(l(2)),
        ]);
        // concat(star(union(a,b)), c): 1 + (1 + (1+1+1)) + 1 = 6
        assert_eq!(q.size(), 6);
        assert_eq!(q.star_height(), 1);
        assert_eq!(Regex::symbol(l(0)).star_height(), 0);
        let nested = Regex::star(Regex::concat([
            Regex::symbol(l(0)),
            Regex::star(Regex::symbol(l(1))),
        ]));
        assert_eq!(nested.star_height(), 2);
    }

    #[test]
    fn word_builds_concatenation() {
        assert_eq!(Regex::word(&[]), Regex::Epsilon);
        assert_eq!(Regex::word(&[l(3)]), Regex::symbol(l(3)));
        assert_eq!(
            Regex::word(&[l(1), l(2)]),
            Regex::Concat(vec![Regex::symbol(l(1)), Regex::symbol(l(2))])
        );
    }

    #[test]
    fn then_and_or_compose() {
        let a = Regex::symbol(l(0));
        let b = Regex::symbol(l(1));
        assert_eq!(
            a.clone().then(b.clone()),
            Regex::Concat(vec![a.clone(), b.clone()])
        );
        assert_eq!(a.clone().or(b.clone()), Regex::Union(vec![a, b]));
    }
}
