//! A small text syntax for decision expressions.
//!
//! Grammar (usual precedence, `!` > `&` > `|`):
//!
//! ```text
//! expr    := or
//! or      := and ( '|' and )*
//! and     := unary ( '&' unary )*
//! unary   := '!' unary | primary
//! primary := 'true' | 'false' | label | '(' expr ')'
//! label   := [A-Za-z0-9_/.-]+
//! ```
//!
//! Labels may contain `/` so hierarchical names like `viable/seg_3_4` parse
//! directly.
//!
//! # Examples
//!
//! ```
//! use dde_logic::parse::parse_expr;
//!
//! let e = parse_expr("(viableA & viableB & viableC) | (viableD & viableE & viableF)")?;
//! assert_eq!(e.labels().len(), 6);
//! # Ok::<(), dde_logic::parse::ParseError>(())
//! ```

use crate::expr::Expr;
use core::fmt;

/// Error produced by [`parse_expr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses an expression from its text form.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input (unbalanced parentheses,
/// dangling operators, trailing garbage, empty input).
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let expr = p.parse_or()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(expr)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    #[expect(clippy::expect_used, reason = "guarded by children.len() == 1")]
    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut children = vec![self.parse_and()?];
        loop {
            self.skip_ws();
            if self.eat(b'|') {
                // Tolerate C-style `||`.
                self.eat(b'|');
                self.skip_ws();
                children.push(self.parse_and()?);
            } else {
                break;
            }
        }
        Ok(if children.len() == 1 {
            children.pop().expect("one child")
        } else {
            Expr::Or(children)
        })
    }

    #[expect(clippy::expect_used, reason = "guarded by children.len() == 1")]
    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut children = vec![self.parse_unary()?];
        loop {
            self.skip_ws();
            if self.eat(b'&') {
                self.eat(b'&');
                self.skip_ws();
                children.push(self.parse_unary()?);
            } else {
                break;
            }
        }
        Ok(if children.len() == 1 {
            children.pop().expect("one child")
        } else {
            Expr::And(children)
        })
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        self.skip_ws();
        if self.eat(b'!') {
            let inner = self.parse_unary()?;
            return Ok(Expr::not(inner));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let inner = self.parse_or()?;
                self.skip_ws();
                if !self.eat(b')') {
                    return Err(self.error("expected ')'"));
                }
                Ok(inner)
            }
            Some(c) if is_label_byte(c) => {
                let start = self.pos;
                while self.peek().is_some_and(is_label_byte) {
                    self.pos += 1;
                }
                #[expect(clippy::expect_used, reason = "is_label_byte admits only ASCII")]
                let word = core::str::from_utf8(&self.input[start..self.pos])
                    .expect("label bytes are ASCII");
                match word {
                    "true" => Ok(Expr::Const(true)),
                    "false" => Ok(Expr::Const(false)),
                    _ => Ok(Expr::label(word)),
                }
            }
            Some(_) => Err(self.error("expected label, constant, '!' or '('")),
            None => Err(self.error("unexpected end of input")),
        }
    }
}

fn is_label_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'.' | b'-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Assignment;
    use crate::time::{SimDuration, SimTime};
    use crate::truth::Truth;
    use proptest::prelude::*;

    #[test]
    fn parses_route_query() {
        let e = parse_expr("(a & b & c) | (d & e & f)").unwrap();
        assert_eq!(e.to_string(), "((a & b & c) | (d & e & f))");
        let dnf = e.to_dnf(16).unwrap();
        assert_eq!(dnf.terms().len(), 2);
    }

    #[test]
    fn parses_constants_and_negation() {
        assert_eq!(parse_expr("true").unwrap(), Expr::Const(true));
        assert_eq!(parse_expr("false").unwrap(), Expr::Const(false));
        assert_eq!(parse_expr("!x").unwrap(), Expr::not(Expr::label("x")));
        assert_eq!(
            parse_expr("!!x").unwrap(),
            Expr::not(Expr::not(Expr::label("x")))
        );
    }

    #[test]
    fn precedence_and_binds_tighter() {
        let e = parse_expr("a | b & c").unwrap();
        assert_eq!(
            e,
            Expr::or(vec![
                Expr::label("a"),
                Expr::and(vec![Expr::label("b"), Expr::label("c")]),
            ])
        );
    }

    #[test]
    fn tolerates_double_operators_and_whitespace() {
        let e1 = parse_expr("a && b || c").unwrap();
        let e2 = parse_expr("  a & b | c ").unwrap();
        assert_eq!(e1, e2);
    }

    #[test]
    fn hierarchical_label_names() {
        let e = parse_expr("viable/seg_3.4 & camera-7/fresh").unwrap();
        let labels = e.labels();
        assert!(labels.contains("viable/seg_3.4"));
        assert!(labels.contains("camera-7/fresh"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "(a", "a)", "a &", "| a", "a b", "&", "a @ b", "!("] {
            let err = parse_expr(bad).unwrap_err();
            assert!(!err.message.is_empty(), "input {bad:?} should fail");
        }
    }

    #[test]
    fn error_reports_position() {
        let err = parse_expr("a & $").unwrap_err();
        assert_eq!(err.position, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn parsed_expression_evaluates() {
        let e = parse_expr("(a & !b) | c").unwrap();
        let mut asg = Assignment::new();
        asg.set(
            crate::label::Label::new("a"),
            Truth::True,
            SimTime::ZERO,
            SimDuration::MAX,
        );
        asg.set(
            crate::label::Label::new("b"),
            Truth::False,
            SimTime::ZERO,
            SimDuration::MAX,
        );
        assert_eq!(e.eval_at(&asg, SimTime::ZERO), Truth::True);
    }

    proptest! {
        /// Display output of a parsed expression re-parses to an equal tree
        /// (Display always emits full parentheses, so this is exact).
        #[test]
        fn display_reparses(input in "[a-z]{1,3}( [&|] [a-z]{1,3}){0,4}") {
            let Ok(e) = parse_expr(&input) else { return Ok(()) };
            let printed = e.to_string();
            let reparsed = parse_expr(&printed).unwrap();
            // Re-parsing may flatten singleton And/Or differently, so compare
            // by DNF semantics over the small label pool instead.
            prop_assert_eq!(
                e.to_dnf(1024).unwrap().absorbed(),
                reparsed.to_dnf(1024).unwrap().absorbed()
            );
        }
    }
}
