//! General Boolean expression trees over labels.
//!
//! Decision queries "can be represented by Boolean expressions over
//! predicates that the underlying sensors can supply evidence to evaluate"
//! (§II-A). The canonical form used by the scheduling algorithms is DNF
//! ([`crate::dnf::Dnf`]); this module provides the general tree form that
//! applications author, partial evaluation under three-valued logic, and
//! conversion to DNF.

use crate::dnf::{Dnf, Literal, Term};
use crate::label::{Assignment, Label};
use crate::time::SimTime;
use crate::truth::Truth;
use core::fmt;
use std::collections::BTreeSet;

/// A Boolean expression over [`Label`]s.
///
/// # Examples
///
/// ```
/// use dde_logic::expr::Expr;
///
/// // (viableA ∧ viableB) ∨ (viableC ∧ viableD)
/// let e = Expr::or(vec![
///     Expr::and(vec![Expr::label("viableA"), Expr::label("viableB")]),
///     Expr::and(vec![Expr::label("viableC"), Expr::label("viableD")]),
/// ]);
/// assert_eq!(e.labels().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A constant truth value.
    Const(bool),
    /// A positive reference to a label.
    Label(Label),
    /// Negation.
    Not(Box<Expr>),
    /// Conjunction of zero or more sub-expressions (empty = true).
    And(Vec<Expr>),
    /// Disjunction of zero or more sub-expressions (empty = false).
    Or(Vec<Expr>),
}

impl Expr {
    /// A positive literal for the given label name.
    pub fn label(name: impl Into<Label>) -> Expr {
        Expr::Label(name.into())
    }

    /// Conjunction of the given sub-expressions.
    pub fn and(children: Vec<Expr>) -> Expr {
        Expr::And(children)
    }

    /// Disjunction of the given sub-expressions.
    pub fn or(children: Vec<Expr>) -> Expr {
        Expr::Or(children)
    }

    /// Negation of `inner`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(inner: Expr) -> Expr {
        Expr::Not(Box::new(inner))
    }

    /// Evaluates the expression under Kleene three-valued logic, with label
    /// values looked up in `asg` at time `now` (stale entries read as
    /// unknown).
    pub fn eval_at(&self, asg: &Assignment, now: SimTime) -> Truth {
        self.eval_with(&mut |label| asg.value_at(label, now))
    }

    /// Evaluates the expression with an arbitrary label oracle.
    pub fn eval_with(&self, lookup: &mut dyn FnMut(&Label) -> Truth) -> Truth {
        match self {
            Expr::Const(b) => Truth::from(*b),
            Expr::Label(l) => lookup(l),
            Expr::Not(e) => e.eval_with(lookup).negate(),
            Expr::And(children) => {
                let mut acc = Truth::True;
                for c in children {
                    acc = acc.and(c.eval_with(lookup));
                    if acc == Truth::False {
                        break;
                    }
                }
                acc
            }
            Expr::Or(children) => {
                let mut acc = Truth::False;
                for c in children {
                    acc = acc.or(c.eval_with(lookup));
                    if acc == Truth::True {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// All distinct labels mentioned in the expression.
    pub fn labels(&self) -> BTreeSet<Label> {
        let mut out = BTreeSet::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels(&self, out: &mut BTreeSet<Label>) {
        match self {
            Expr::Const(_) => {}
            Expr::Label(l) => {
                out.insert(*l);
            }
            Expr::Not(e) => e.collect_labels(out),
            Expr::And(cs) | Expr::Or(cs) => {
                for c in cs {
                    c.collect_labels(out);
                }
            }
        }
    }

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Label(_) => 1,
            Expr::Not(e) => 1 + e.size(),
            Expr::And(cs) | Expr::Or(cs) => 1 + cs.iter().map(Expr::size).sum::<usize>(),
        }
    }

    /// Pushes negations down to literals (negation normal form) and removes
    /// double negations.
    #[must_use]
    pub fn to_nnf(&self) -> Expr {
        self.nnf(false)
    }

    fn nnf(&self, negated: bool) -> Expr {
        match self {
            Expr::Const(b) => Expr::Const(*b != negated),
            Expr::Label(l) => {
                if negated {
                    Expr::Not(Box::new(Expr::Label(*l)))
                } else {
                    Expr::Label(*l)
                }
            }
            Expr::Not(e) => e.nnf(!negated),
            Expr::And(cs) => {
                let children = cs.iter().map(|c| c.nnf(negated)).collect();
                if negated {
                    Expr::Or(children)
                } else {
                    Expr::And(children)
                }
            }
            Expr::Or(cs) => {
                let children = cs.iter().map(|c| c.nnf(negated)).collect();
                if negated {
                    Expr::And(children)
                } else {
                    Expr::Or(children)
                }
            }
        }
    }

    /// Converts the expression to disjunctive normal form.
    ///
    /// # Errors
    ///
    /// Returns [`DnfOverflow`] if the conversion would produce more than
    /// `max_terms` terms — DNF conversion is exponential in the worst case,
    /// and a resource-management layer must not be tricked into building an
    /// astronomically large plan.
    pub fn to_dnf(&self, max_terms: usize) -> Result<Dnf, DnfOverflow> {
        let nnf = self.to_nnf();
        let terms = nnf.dnf_terms(max_terms)?;
        Ok(Dnf::from_terms(terms))
    }

    /// Core DNF distribution; expects `self` to be in NNF.
    fn dnf_terms(&self, max_terms: usize) -> Result<Vec<Term>, DnfOverflow> {
        match self {
            Expr::Const(true) => Ok(vec![Term::empty()]),
            Expr::Const(false) => Ok(vec![]),
            Expr::Label(l) => Ok(vec![Term::from_literals(vec![Literal::positive(*l)])]),
            Expr::Not(inner) => match inner.as_ref() {
                Expr::Label(l) => Ok(vec![Term::from_literals(vec![Literal::negative(*l)])]),
                _ => unreachable!("to_nnf pushes negations to literals"),
            },
            Expr::Or(cs) => {
                let mut terms = Vec::new();
                for c in cs {
                    terms.extend(c.dnf_terms(max_terms)?);
                    if terms.len() > max_terms {
                        return Err(DnfOverflow { limit: max_terms });
                    }
                }
                Ok(terms)
            }
            Expr::And(cs) => {
                // Distribute AND over the children's term lists.
                let mut acc: Vec<Term> = vec![Term::empty()];
                for c in cs {
                    let child_terms = c.dnf_terms(max_terms)?;
                    let mut next = Vec::with_capacity(acc.len() * child_terms.len().max(1));
                    for left in &acc {
                        for right in &child_terms {
                            if let Some(merged) = left.conjoin(right) {
                                next.push(merged);
                            }
                            if next.len() > max_terms {
                                return Err(DnfOverflow { limit: max_terms });
                            }
                        }
                    }
                    acc = next;
                }
                Ok(acc)
            }
        }
    }
}

/// Error returned by [`Expr::to_dnf`] when the DNF would exceed the caller's
/// term budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnfOverflow {
    /// The term budget that was exceeded.
    pub limit: usize,
}

impl fmt::Display for DnfOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DNF conversion exceeded {} terms", self.limit)
    }
}

impl std::error::Error for DnfOverflow {}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(b) => write!(f, "{b}"),
            Expr::Label(l) => write!(f, "{l}"),
            Expr::Not(e) => write!(f, "!{e}"),
            Expr::And(cs) => {
                if cs.is_empty() {
                    return write!(f, "true");
                }
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Expr::Or(cs) => {
                if cs.is_empty() {
                    return write!(f, "false");
                }
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn asg(pairs: &[(&str, Truth)]) -> Assignment {
        let mut a = Assignment::new();
        for (name, v) in pairs {
            a.set(Label::new(name), *v, SimTime::ZERO, SimDuration::MAX);
        }
        a
    }

    #[test]
    fn eval_basic_connectives() {
        let e = Expr::and(vec![Expr::label("a"), Expr::label("b")]);
        assert_eq!(
            e.eval_at(
                &asg(&[("a", Truth::True), ("b", Truth::True)]),
                SimTime::ZERO
            ),
            Truth::True
        );
        assert_eq!(
            e.eval_at(&asg(&[("a", Truth::False)]), SimTime::ZERO),
            Truth::False
        );
        assert_eq!(
            e.eval_at(&asg(&[("a", Truth::True)]), SimTime::ZERO),
            Truth::Unknown
        );
    }

    #[test]
    fn eval_respects_freshness() {
        let e = Expr::label("a");
        let mut a = Assignment::new();
        a.set(
            Label::new("a"),
            Truth::True,
            SimTime::ZERO,
            SimDuration::from_secs(1),
        );
        assert_eq!(e.eval_at(&a, SimTime::from_millis(500)), Truth::True);
        assert_eq!(e.eval_at(&a, SimTime::from_secs(2)), Truth::Unknown);
    }

    #[test]
    fn empty_connectives_are_identities() {
        assert_eq!(
            Expr::and(vec![]).eval_at(&Assignment::new(), SimTime::ZERO),
            Truth::True
        );
        assert_eq!(
            Expr::or(vec![]).eval_at(&Assignment::new(), SimTime::ZERO),
            Truth::False
        );
    }

    #[test]
    fn labels_collects_distinct() {
        let e = Expr::or(vec![
            Expr::and(vec![Expr::label("a"), Expr::label("b")]),
            Expr::and(vec![Expr::label("a"), Expr::not(Expr::label("c"))]),
        ]);
        let labels = e.labels();
        assert_eq!(labels.len(), 3);
        assert!(labels.contains("a"));
    }

    #[test]
    fn nnf_pushes_negations() {
        // !(a & !b) => !a | b
        let e = Expr::not(Expr::and(vec![
            Expr::label("a"),
            Expr::not(Expr::label("b")),
        ]));
        let nnf = e.to_nnf();
        assert_eq!(
            nnf,
            Expr::or(vec![Expr::not(Expr::label("a")), Expr::label("b")])
        );
    }

    #[test]
    fn nnf_on_constants() {
        assert_eq!(Expr::not(Expr::Const(true)).to_nnf(), Expr::Const(false));
        assert_eq!(
            Expr::not(Expr::not(Expr::label("x"))).to_nnf(),
            Expr::label("x")
        );
    }

    #[test]
    fn to_dnf_route_query() {
        // (a & b & c) | (d & e & f) is already DNF.
        let e = Expr::or(vec![
            Expr::and(vec![Expr::label("a"), Expr::label("b"), Expr::label("c")]),
            Expr::and(vec![Expr::label("d"), Expr::label("e"), Expr::label("f")]),
        ]);
        let dnf = e.to_dnf(64).unwrap();
        assert_eq!(dnf.terms().len(), 2);
        assert_eq!(dnf.terms()[0].len(), 3);
    }

    #[test]
    fn to_dnf_distributes() {
        // a & (b | c) => (a & b) | (a & c)
        let e = Expr::and(vec![
            Expr::label("a"),
            Expr::or(vec![Expr::label("b"), Expr::label("c")]),
        ]);
        let dnf = e.to_dnf(64).unwrap();
        assert_eq!(dnf.terms().len(), 2);
    }

    #[test]
    fn to_dnf_drops_contradictory_terms() {
        // a & !a is unsatisfiable => empty DNF (constant false)
        let e = Expr::and(vec![Expr::label("a"), Expr::not(Expr::label("a"))]);
        let dnf = e.to_dnf(64).unwrap();
        assert!(dnf.terms().is_empty());
    }

    #[test]
    fn to_dnf_overflow_guard() {
        // (a1|b1) & (a2|b2) & ... & (a12|b12) has 2^12 terms.
        let clauses: Vec<Expr> = (0..12)
            .map(|i| {
                Expr::or(vec![
                    Expr::label(format!("a{i}")),
                    Expr::label(format!("b{i}")),
                ])
            })
            .collect();
        let e = Expr::and(clauses);
        let err = e.to_dnf(100).unwrap_err();
        assert_eq!(err.limit, 100);
        assert!(err.to_string().contains("100"));
        assert!(e.to_dnf(5000).is_ok());
    }

    #[test]
    fn display_round_trip_shapes() {
        let e = Expr::or(vec![
            Expr::and(vec![Expr::label("a"), Expr::not(Expr::label("b"))]),
            Expr::Const(false),
        ]);
        assert_eq!(e.to_string(), "((a & !b) | false)");
        assert_eq!(Expr::and(vec![]).to_string(), "true");
        assert_eq!(Expr::or(vec![]).to_string(), "false");
    }

    /// Random expression over a small label pool.
    fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
        let leaf = prop_oneof![
            (0usize..4).prop_map(|i| Expr::label(format!("v{i}"))),
            any::<bool>().prop_map(Expr::Const),
        ];
        leaf.prop_recursive(depth, 32, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::And),
                prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::Or),
                inner.prop_map(Expr::not),
            ]
        })
        .boxed()
    }

    proptest! {
        /// DNF conversion preserves semantics on all total assignments.
        #[test]
        fn dnf_preserves_semantics(e in arb_expr(3), bits in 0u8..16) {
            let Ok(dnf) = e.to_dnf(4096) else { return Ok(()) };
            let mut a = Assignment::new();
            for i in 0..4 {
                let v = Truth::from(bits & (1 << i) != 0);
                a.set(Label::new(format!("v{i}")), v, SimTime::ZERO, SimDuration::MAX);
            }
            prop_assert_eq!(
                e.eval_at(&a, SimTime::ZERO),
                dnf.eval_at(&a, SimTime::ZERO)
            );
        }

        /// NNF preserves semantics under three-valued (partial) assignments.
        #[test]
        fn nnf_preserves_semantics(e in arb_expr(3), trits in prop::collection::vec(0u8..3, 4)) {
            let mut a = Assignment::new();
            for (i, t) in trits.iter().enumerate() {
                let v = match t { 0 => Truth::True, 1 => Truth::False, _ => continue };
                a.set(Label::new(format!("v{i}")), v, SimTime::ZERO, SimDuration::MAX);
            }
            prop_assert_eq!(
                e.eval_at(&a, SimTime::ZERO),
                e.to_nnf().eval_at(&a, SimTime::ZERO)
            );
        }

        /// Partial evaluation is sound: if the three-valued result is decided
        /// under a partial assignment, every completion agrees with it.
        #[test]
        fn partial_eval_sound(e in arb_expr(3), trits in prop::collection::vec(0u8..3, 4)) {
            let mut partial = Assignment::new();
            let mut unknowns = Vec::new();
            for (i, t) in trits.iter().enumerate() {
                let name = format!("v{i}");
                match t {
                    0 => { partial.set(Label::new(&name), Truth::True, SimTime::ZERO, SimDuration::MAX); }
                    1 => { partial.set(Label::new(&name), Truth::False, SimTime::ZERO, SimDuration::MAX); }
                    _ => unknowns.push(name),
                }
            }
            let partial_result = e.eval_at(&partial, SimTime::ZERO);
            if partial_result.is_known() {
                // Try all completions of the unknowns.
                for mask in 0..(1u32 << unknowns.len()) {
                    let mut total = partial.clone();
                    for (j, name) in unknowns.iter().enumerate() {
                        let v = Truth::from(mask & (1 << j) != 0);
                        total.set(Label::new(name), v, SimTime::ZERO, SimDuration::MAX);
                    }
                    prop_assert_eq!(e.eval_at(&total, SimTime::ZERO), partial_result);
                }
            }
        }
    }
}
