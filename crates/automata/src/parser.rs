//! Parser for the paper's concrete regular-expression syntax.
//!
//! The demo paper writes queries such as `(tram + bus)* · cinema`.  The
//! grammar accepted here:
//!
//! ```text
//! union  := concat ('+' concat)*
//! concat := factor (('.' | '·')? factor)*      -- '.'/'·' optional
//! factor := atom ('*' | '?')*
//! atom   := label | '(' union ')' | 'ε' | 'eps' | '∅' | 'empty'
//! label  := [A-Za-z_][A-Za-z0-9_-]*
//! ```
//!
//! Label names are resolved against a [`LabelInterner`]; referencing a label
//! that the graph does not know is an error (a query can only be evaluated
//! over the graph's alphabet).
//!
//! The parser is recursive descent, and so is everything that later walks
//! the expression (printing, the Thompson construction, dropping it), so
//! parentheses may nest at most [`MAX_NESTING`] deep: a query string comes
//! from outside the program, and a hundred thousand `(` must be an error,
//! not a stack overflow.

use crate::regex::Regex;
use gps_graph::LabelInterner;
use std::fmt;

/// How deep parentheses may nest.  The paper's queries nest two or three
/// levels; at this depth parsing, compiling and printing the worst-case
/// expression stay under 256 KiB of stack in an unoptimised build — an
/// eighth of a spawned thread's default 2 MiB.
pub const MAX_NESTING: usize = 64;

/// Errors produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input ended unexpectedly.
    UnexpectedEnd,
    /// An unexpected character was found at the given byte offset.
    UnexpectedChar {
        /// Byte offset in the input.
        offset: usize,
        /// The character found.
        found: char,
    },
    /// A closing parenthesis was expected at the given byte offset.
    ExpectedClosingParen {
        /// Byte offset in the input.
        offset: usize,
    },
    /// A label name does not exist in the interner.
    UnknownLabel {
        /// The unresolved name.
        name: String,
    },
    /// Trailing input after a complete expression.
    TrailingInput {
        /// Byte offset of the first unconsumed token.
        offset: usize,
    },
    /// Parentheses nest more than [`MAX_NESTING`] deep.
    TooDeep {
        /// Byte offset of the opening parenthesis that went past the limit.
        offset: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedEnd => write!(f, "unexpected end of expression"),
            ParseError::UnexpectedChar { offset, found } => {
                write!(f, "unexpected character {found:?} at offset {offset}")
            }
            ParseError::ExpectedClosingParen { offset } => {
                write!(f, "expected ')' at offset {offset}")
            }
            ParseError::UnknownLabel { name } => {
                write!(f, "unknown label {name:?} (not part of the graph alphabet)")
            }
            ParseError::TrailingInput { offset } => {
                write!(f, "trailing input starting at offset {offset}")
            }
            ParseError::TooDeep { offset } => write!(
                f,
                "parentheses nested more than {MAX_NESTING} deep at offset {offset}"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Plus,
    Dot,
    Star,
    Question,
    LParen,
    RParen,
    Epsilon,
    EmptySet,
}

fn tokenize(input: &str) -> Result<Vec<(usize, Token)>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(offset, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '+' => {
                chars.next();
                tokens.push((offset, Token::Plus));
            }
            '.' | '·' => {
                chars.next();
                tokens.push((offset, Token::Dot));
            }
            '*' => {
                chars.next();
                tokens.push((offset, Token::Star));
            }
            '?' => {
                chars.next();
                tokens.push((offset, Token::Question));
            }
            '(' => {
                chars.next();
                tokens.push((offset, Token::LParen));
            }
            ')' => {
                chars.next();
                tokens.push((offset, Token::RParen));
            }
            'ε' => {
                chars.next();
                tokens.push((offset, Token::Epsilon));
            }
            '∅' => {
                chars.next();
                tokens.push((offset, Token::EmptySet));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut name = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let token = match name.as_str() {
                    "eps" | "epsilon" => Token::Epsilon,
                    "empty" => Token::EmptySet,
                    _ => Token::Ident(name),
                };
                tokens.push((offset, token));
            }
            other => {
                return Err(ParseError::UnexpectedChar {
                    offset,
                    found: other,
                })
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    tokens: Vec<(usize, Token)>,
    pos: usize,
    /// Byte length of the input, reported as the offset at end-of-input.
    end: usize,
    /// Parentheses currently open.
    depth: usize,
    labels: &'a LabelInterner,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn peek_offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|&(o, _)| o)
            .unwrap_or(self.end)
    }

    fn advance(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    fn parse_union(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.parse_concat()?];
        while matches!(self.peek(), Some(Token::Plus)) {
            self.advance();
            parts.push(self.parse_concat()?);
        }
        Ok(Regex::union(parts))
    }

    fn parse_concat(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.parse_factor()?];
        loop {
            match self.peek() {
                Some(Token::Dot) => {
                    self.advance();
                    parts.push(self.parse_factor()?);
                }
                // Implicit concatenation: the next token starts an atom.
                Some(Token::Ident(_))
                | Some(Token::LParen)
                | Some(Token::Epsilon)
                | Some(Token::EmptySet) => {
                    parts.push(self.parse_factor()?);
                }
                _ => break,
            }
        }
        Ok(Regex::concat(parts))
    }

    fn parse_factor(&mut self) -> Result<Regex, ParseError> {
        let mut atom = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.advance();
                    atom = Regex::star(atom);
                }
                Some(Token::Question) => {
                    self.advance();
                    atom = Regex::optional(atom);
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    fn parse_atom(&mut self) -> Result<Regex, ParseError> {
        match self.advance() {
            Some(Token::Ident(name)) => {
                let label = self
                    .labels
                    .get(&name)
                    .ok_or(ParseError::UnknownLabel { name })?;
                Ok(Regex::symbol(label))
            }
            Some(Token::Epsilon) => Ok(Regex::Epsilon),
            Some(Token::EmptySet) => Ok(Regex::Empty),
            Some(Token::LParen) => {
                if self.depth == MAX_NESTING {
                    return Err(ParseError::TooDeep {
                        offset: self.tokens[self.pos - 1].0,
                    });
                }
                self.depth += 1;
                let inner = self.parse_union()?;
                self.depth -= 1;
                match self.advance() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(ParseError::ExpectedClosingParen {
                        offset: self.peek_offset(),
                    }),
                }
            }
            Some(_) => Err(ParseError::UnexpectedChar {
                offset: self.peek_offset(),
                found: '?',
            }),
            None => Err(ParseError::UnexpectedEnd),
        }
    }
}

/// Parses an expression, resolving label names against `labels`.
pub fn parse(input: &str, labels: &LabelInterner) -> Result<Regex, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        end: input.len(),
        depth: 0,
        labels,
    };
    let regex = parser.parse_union()?;
    if parser.pos != parser.tokens.len() {
        return Err(ParseError::TrailingInput {
            offset: parser.peek_offset(),
        });
    }
    Ok(regex)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet() -> LabelInterner {
        let mut labels = LabelInterner::new();
        labels.intern("tram");
        labels.intern("bus");
        labels.intern("cinema");
        labels.intern("restaurant");
        labels
    }

    #[test]
    fn parses_the_motivating_query() {
        let labels = alphabet();
        let tram = labels.get("tram").unwrap();
        let bus = labels.get("bus").unwrap();
        let cinema = labels.get("cinema").unwrap();
        for syntax in [
            "(tram+bus)*.cinema",
            "(tram + bus)* · cinema",
            "( tram + bus ) * cinema",
        ] {
            let q = parse(syntax, &labels).unwrap();
            let expected = Regex::concat([
                Regex::star(Regex::union([Regex::symbol(tram), Regex::symbol(bus)])),
                Regex::symbol(cinema),
            ]);
            assert_eq!(q, expected, "syntax: {syntax}");
        }
    }

    #[test]
    fn parses_single_symbols_and_words() {
        let labels = alphabet();
        let bus = labels.get("bus").unwrap();
        let cinema = labels.get("cinema").unwrap();
        assert_eq!(parse("bus", &labels).unwrap(), Regex::symbol(bus));
        assert_eq!(
            parse("bus.cinema", &labels).unwrap(),
            Regex::word(&[bus, cinema])
        );
        assert_eq!(
            parse("bus cinema", &labels).unwrap(),
            Regex::word(&[bus, cinema]),
            "implicit concatenation"
        );
    }

    #[test]
    fn parses_epsilon_and_empty() {
        let labels = alphabet();
        assert_eq!(parse("ε", &labels).unwrap(), Regex::Epsilon);
        assert_eq!(parse("eps", &labels).unwrap(), Regex::Epsilon);
        assert_eq!(parse("∅", &labels).unwrap(), Regex::Empty);
        assert_eq!(parse("empty", &labels).unwrap(), Regex::Empty);
        assert_eq!(
            parse("bus + ∅", &labels).unwrap(),
            parse("bus", &labels).unwrap()
        );
    }

    #[test]
    fn optional_and_nested_stars() {
        let labels = alphabet();
        let bus = labels.get("bus").unwrap();
        let q = parse("bus?", &labels).unwrap();
        assert!(q.nullable());
        let q2 = parse("(bus*)*", &labels).unwrap();
        assert_eq!(q2, Regex::star(Regex::symbol(bus)));
    }

    #[test]
    fn unknown_label_is_rejected() {
        let labels = alphabet();
        let err = parse("spaceship", &labels).unwrap_err();
        assert_eq!(
            err,
            ParseError::UnknownLabel {
                name: "spaceship".to_string()
            }
        );
        assert!(err.to_string().contains("spaceship"));
    }

    #[test]
    fn syntax_errors_are_reported() {
        let labels = alphabet();
        assert!(matches!(
            parse("(bus", &labels).unwrap_err(),
            ParseError::ExpectedClosingParen { .. }
        ));
        assert!(matches!(
            parse("bus)", &labels).unwrap_err(),
            ParseError::TrailingInput { .. }
        ));
        assert!(matches!(
            parse("", &labels).unwrap_err(),
            ParseError::UnexpectedEnd
        ));
        assert!(matches!(
            parse("bus & tram", &labels).unwrap_err(),
            ParseError::UnexpectedChar { .. }
        ));
        assert!(matches!(
            parse("+bus", &labels).unwrap_err(),
            ParseError::UnexpectedChar { .. } | ParseError::UnexpectedEnd
        ));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let labels = alphabet();
        let nested = |depth: usize| format!("{}bus{}", "(".repeat(depth), ")".repeat(depth));
        assert_eq!(
            parse(&nested(MAX_NESTING), &labels).unwrap(),
            parse("bus", &labels).unwrap()
        );
        let err = parse(&nested(MAX_NESTING + 1), &labels).unwrap_err();
        assert_eq!(
            err,
            ParseError::TooDeep {
                offset: MAX_NESTING
            }
        );
        assert!(
            err.to_string()
                .contains(&format!("{MAX_NESTING} deep at offset {MAX_NESTING}")),
            "{err}"
        );
        // Unbalanced and far past any stack: still the same error.
        assert_eq!(
            parse(&"(".repeat(100_000), &labels).unwrap_err(),
            ParseError::TooDeep {
                offset: MAX_NESTING
            }
        );
        // Depth is nesting, not the number of groups.
        let flat = vec!["(bus)"; 4 * MAX_NESTING].join(".");
        assert!(parse(&flat, &labels).is_ok());
    }

    #[test]
    fn star_binds_tighter_than_concat_and_union() {
        let labels = alphabet();
        let tram = labels.get("tram").unwrap();
        let bus = labels.get("bus").unwrap();
        // tram+bus* == tram + (bus*)
        let q = parse("tram+bus*", &labels).unwrap();
        assert_eq!(
            q,
            Regex::union([Regex::symbol(tram), Regex::star(Regex::symbol(bus))])
        );
        // tram.bus* == tram.(bus*)
        let q2 = parse("tram.bus*", &labels).unwrap();
        assert_eq!(
            q2,
            Regex::concat([Regex::symbol(tram), Regex::star(Regex::symbol(bus))])
        );
    }
}
