//! Disjunctive-normal-form decision queries.
//!
//! The paper's workload model (§III): a query
//! `q = (b00 ∧ b01 ∧ …) ∨ (b10 ∧ b11 ∧ …) ∨ …` where each disjunct is an
//! alternative *course of action* and each conjunct a Boolean condition. The
//! query is resolved when a single viable course of action is found (all of
//! one term's conditions true) or when every course of action has been ruled
//! out (each term contains a false condition).

use crate::label::{Assignment, Label};
use crate::time::SimTime;
use crate::truth::Truth;
use core::fmt;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A possibly-negated reference to a label.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    label: Label,
    negated: bool,
}

impl Literal {
    /// A positive literal (`label` must be true).
    pub fn positive(label: Label) -> Literal {
        Literal {
            label,
            negated: false,
        }
    }

    /// A negative literal (`label` must be false).
    pub fn negative(label: Label) -> Literal {
        Literal {
            label,
            negated: true,
        }
    }

    /// The referenced label.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// Whether the literal is negated.
    pub fn is_negated(&self) -> bool {
        self.negated
    }

    /// The literal's truth given the label's truth.
    pub fn eval(&self, label_value: Truth) -> Truth {
        if self.negated {
            label_value.negate()
        } else {
            label_value
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "!{}", self.label)
        } else {
            write!(f, "{}", self.label)
        }
    }
}

/// A conjunction of literals — one alternative course of action.
///
/// Internally deduplicated: each label appears at most once. Contradictory
/// conjunctions (`a ∧ !a`) cannot be represented; [`Term::conjoin`] reports
/// them by returning `None`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Term {
    // label -> negated?
    literals: BTreeMap<Label, bool>,
}

impl Term {
    /// The empty conjunction (constant true).
    pub fn empty() -> Term {
        Term::default()
    }

    /// Builds a term from literals.
    ///
    /// Duplicate literals collapse; a contradictory pair (`a` and `!a`) makes
    /// the whole term unsatisfiable, which is represented by... nothing: use
    /// [`Term::try_from_literals`] when contradiction is possible.
    ///
    /// # Panics
    ///
    /// Panics if the literals are contradictory.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking constructor; try_from_literals is the fallible path"
    )]
    pub fn from_literals(literals: Vec<Literal>) -> Term {
        Term::try_from_literals(literals).expect("contradictory term")
    }

    /// Builds a term from literals, returning `None` when they contradict.
    pub fn try_from_literals(literals: Vec<Literal>) -> Option<Term> {
        let mut map = BTreeMap::new();
        for lit in literals {
            if let Some(prev) = map.insert(lit.label, lit.negated) {
                if prev != lit.negated {
                    return None;
                }
            }
        }
        Some(Term { literals: map })
    }

    /// A term of positive literals over the given label names — the common
    /// case for the paper's route queries.
    ///
    /// # Examples
    ///
    /// ```
    /// use dde_logic::dnf::Term;
    ///
    /// let t = Term::all_of(["viableA", "viableB", "viableC"]);
    /// assert_eq!(t.literals().count(), 3);
    /// ```
    pub fn all_of<I, S>(labels: I) -> Term
    where
        I: IntoIterator<Item = S>,
        S: Into<Label>,
    {
        Term {
            literals: labels.into_iter().map(|l| (l.into(), false)).collect(),
        }
    }

    /// Iterates over the literals in label order.
    pub fn literals(&self) -> impl Iterator<Item = Literal> + '_ {
        self.literals.iter().map(|(label, &negated)| Literal {
            label: *label,
            negated,
        })
    }

    /// The labels mentioned by this term.
    pub fn labels(&self) -> impl Iterator<Item = &Label> {
        self.literals.keys()
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// Whether this is the empty (constant-true) term.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Whether the term contains a literal over `label`.
    pub fn contains(&self, label: &Label) -> bool {
        self.literals.contains_key(label)
    }

    /// Conjoins two terms; `None` if the result would be contradictory.
    pub fn conjoin(&self, other: &Term) -> Option<Term> {
        let mut merged = self.literals.clone();
        for (label, &negated) in &other.literals {
            if let Some(&prev) = merged.get(label) {
                if prev != negated {
                    return None;
                }
            } else {
                merged.insert(*label, negated);
            }
        }
        Some(Term { literals: merged })
    }

    /// Whether `self` subsumes `other` (every literal of `self` appears in
    /// `other`, so `other ⟹ self`).
    pub fn subsumes(&self, other: &Term) -> bool {
        self.literals
            .iter()
            .all(|(l, n)| other.literals.get(l) == Some(n))
    }

    /// Kleene evaluation of the conjunction under `asg` at `now`.
    pub fn eval_at(&self, asg: &Assignment, now: SimTime) -> Truth {
        let mut acc = Truth::True;
        for (label, &negated) in &self.literals {
            let v = asg.value_at(label, now);
            let lit = if negated { v.negate() } else { v };
            acc = acc.and(lit);
            if acc == Truth::False {
                break;
            }
        }
        acc
    }

    /// Labels of this term that are still unknown under `asg` at `now`.
    pub fn unknown_labels(&self, asg: &Assignment, now: SimTime) -> Vec<Label> {
        self.literals
            .keys()
            .filter(|l| !asg.value_at(l, now).is_known())
            .copied()
            .collect()
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "true");
        }
        write!(f, "(")?;
        for (i, lit) in self.literals().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{lit}")?;
        }
        write!(f, ")")
    }
}

/// The outcome of checking a query against the current assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Some course of action is fully satisfied; the payload is the index of
    /// the first viable term.
    Viable(usize),
    /// Every course of action contains a false condition: no viable action.
    Infeasible,
    /// Not yet decided; more evidence is needed.
    Undecided,
}

impl Resolution {
    /// Whether the query has been decided either way.
    pub fn is_decided(self) -> bool {
        !matches!(self, Resolution::Undecided)
    }
}

/// A decision query in disjunctive normal form.
///
/// # Examples
///
/// ```
/// use dde_logic::dnf::{Dnf, Term};
///
/// // The paper's route-finding example:
/// // (viableA & viableB & viableC) | (viableD & viableE & viableF)
/// let q = Dnf::from_terms(vec![
///     Term::all_of(["viableA", "viableB", "viableC"]),
///     Term::all_of(["viableD", "viableE", "viableF"]),
/// ]);
/// assert_eq!(q.terms().len(), 2);
/// assert_eq!(q.labels().len(), 6);
/// ```
///
/// A query is immutable once built and its terms are shared: `clone` bumps
/// a reference count, so announcing the decision structure to a whole network
/// (§VI `Query_Init`/`Query_Recv`) copies no term.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dnf {
    terms: Arc<[Term]>,
}

impl Dnf {
    /// Builds a query from alternative courses of action.
    ///
    /// Exact duplicate terms are removed (keeping first occurrences); term
    /// order is otherwise preserved, since the engine reports the *first*
    /// viable term.
    pub fn from_terms(terms: Vec<Term>) -> Dnf {
        let mut seen = BTreeSet::new();
        let terms = terms
            .into_iter()
            .filter(|t| seen.insert(t.clone()))
            .collect();
        Dnf { terms }
    }

    /// The constant-false query (no alternatives).
    pub fn unsatisfiable() -> Dnf {
        Dnf::default()
    }

    /// The alternative courses of action.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// All distinct labels across all terms.
    pub fn labels(&self) -> BTreeSet<Label> {
        self.terms
            .iter()
            .flat_map(|t| t.labels().copied())
            .collect()
    }

    /// Removes terms subsumed by another term (absorption: `a ∨ (a ∧ b) = a`).
    #[must_use]
    pub fn absorbed(&self) -> Dnf {
        let mut kept: Vec<Term> = Vec::new();
        for t in self.terms.iter() {
            if kept.iter().any(|k| k.subsumes(t)) {
                continue;
            }
            kept.retain(|k| !t.subsumes(k));
            kept.push(t.clone());
        }
        Dnf { terms: kept.into() }
    }

    /// Kleene evaluation under `asg` at `now`.
    pub fn eval_at(&self, asg: &Assignment, now: SimTime) -> Truth {
        let mut acc = Truth::False;
        for t in self.terms.iter() {
            acc = acc.or(t.eval_at(asg, now));
            if acc == Truth::True {
                break;
            }
        }
        acc
    }

    /// Checks whether the decision is resolved under `asg` at `now`.
    pub fn resolution(&self, asg: &Assignment, now: SimTime) -> Resolution {
        let mut any_unknown = false;
        for (i, t) in self.terms.iter().enumerate() {
            match t.eval_at(asg, now) {
                Truth::True => return Resolution::Viable(i),
                Truth::Unknown => any_unknown = true,
                Truth::False => {}
            }
        }
        if any_unknown {
            Resolution::Undecided
        } else {
            Resolution::Infeasible
        }
    }

    /// Labels that can still influence the outcome under `asg` at `now`.
    ///
    /// This is the short-circuit pruning of §II-A: once a term contains a
    /// false condition the rest of its conditions need not be examined, and
    /// once some term is fully true nothing else matters at all.
    pub fn relevant_labels(&self, asg: &Assignment, now: SimTime) -> BTreeSet<Label> {
        let mut out = BTreeSet::new();
        for t in self.terms.iter() {
            match t.eval_at(asg, now) {
                Truth::True => return BTreeSet::new(),
                Truth::False => {}
                Truth::Unknown => out.extend(t.unknown_labels(asg, now)),
            }
        }
        out
    }

    /// Indices of terms not yet falsified under `asg` at `now`.
    pub fn live_terms(&self, asg: &Assignment, now: SimTime) -> Vec<usize> {
        self.terms
            .iter()
            .enumerate()
            .filter(|(_, t)| t.eval_at(asg, now) != Truth::False)
            .map(|(i, _)| i)
            .collect()
    }
}

impl FromIterator<Term> for Dnf {
    fn from_iter<I: IntoIterator<Item = Term>>(iter: I) -> Self {
        Dnf::from_terms(iter.into_iter().collect())
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "false");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn set(asg: &mut Assignment, name: &str, v: bool) {
        asg.set(
            Label::new(name),
            Truth::from(v),
            SimTime::ZERO,
            SimDuration::MAX,
        );
    }

    fn route_query() -> Dnf {
        Dnf::from_terms(vec![
            Term::all_of(["a", "b", "c"]),
            Term::all_of(["d", "e", "f"]),
        ])
    }

    #[test]
    fn literal_eval() {
        let l = Literal::positive(Label::new("x"));
        assert_eq!(l.eval(Truth::True), Truth::True);
        let n = Literal::negative(Label::new("x"));
        assert_eq!(n.eval(Truth::True), Truth::False);
        assert_eq!(n.eval(Truth::Unknown), Truth::Unknown);
        assert!(n.is_negated());
        assert_eq!(n.to_string(), "!x");
    }

    #[test]
    fn term_dedup_and_contradiction() {
        let t = Term::try_from_literals(vec![
            Literal::positive(Label::new("a")),
            Literal::positive(Label::new("a")),
        ])
        .unwrap();
        assert_eq!(t.len(), 1);
        assert!(Term::try_from_literals(vec![
            Literal::positive(Label::new("a")),
            Literal::negative(Label::new("a")),
        ])
        .is_none());
    }

    #[test]
    fn term_conjoin() {
        let ab = Term::all_of(["a", "b"]);
        let bc = Term::all_of(["b", "c"]);
        let abc = ab.conjoin(&bc).unwrap();
        assert_eq!(abc.len(), 3);
        let not_b = Term::from_literals(vec![Literal::negative(Label::new("b"))]);
        assert!(ab.conjoin(&not_b).is_none());
    }

    #[test]
    fn term_subsumption() {
        let a = Term::all_of(["a"]);
        let ab = Term::all_of(["a", "b"]);
        assert!(a.subsumes(&ab));
        assert!(!ab.subsumes(&a));
        assert!(Term::empty().subsumes(&a));
    }

    #[test]
    fn absorption_removes_subsumed() {
        let q = Dnf::from_terms(vec![
            Term::all_of(["a", "b"]),
            Term::all_of(["a"]),
            Term::all_of(["c"]),
        ]);
        let abs = q.absorbed();
        assert_eq!(abs.terms().len(), 2);
        assert_eq!(abs.terms()[0], Term::all_of(["a"]));
    }

    #[test]
    fn duplicate_terms_removed() {
        let q = Dnf::from_terms(vec![Term::all_of(["a"]), Term::all_of(["a"])]);
        assert_eq!(q.terms().len(), 1);
    }

    #[test]
    fn resolution_viable_on_first_true_term() {
        let q = route_query();
        let mut asg = Assignment::new();
        set(&mut asg, "d", true);
        set(&mut asg, "e", true);
        set(&mut asg, "f", true);
        assert_eq!(q.resolution(&asg, SimTime::ZERO), Resolution::Viable(1));
    }

    #[test]
    fn resolution_infeasible_when_all_terms_false() {
        let q = route_query();
        let mut asg = Assignment::new();
        set(&mut asg, "a", false);
        set(&mut asg, "e", false);
        assert_eq!(q.resolution(&asg, SimTime::ZERO), Resolution::Infeasible);
        assert!(q.resolution(&asg, SimTime::ZERO).is_decided());
    }

    #[test]
    fn resolution_undecided_otherwise() {
        let q = route_query();
        let mut asg = Assignment::new();
        set(&mut asg, "a", true);
        assert_eq!(q.resolution(&asg, SimTime::ZERO), Resolution::Undecided);
    }

    #[test]
    fn empty_dnf_is_infeasible() {
        let q = Dnf::unsatisfiable();
        assert_eq!(
            q.resolution(&Assignment::new(), SimTime::ZERO),
            Resolution::Infeasible
        );
        assert_eq!(q.to_string(), "false");
    }

    #[test]
    fn relevant_labels_prunes_falsified_terms() {
        // Paper §II-A: "if a picture of segment A shows that it is badly
        // damaged, we can skip examining segments B and C".
        let q = route_query();
        let mut asg = Assignment::new();
        set(&mut asg, "a", false);
        let rel = q.relevant_labels(&asg, SimTime::ZERO);
        assert_eq!(
            rel.iter().map(Label::as_str).collect::<Vec<_>>(),
            vec!["d", "e", "f"]
        );
    }

    #[test]
    fn relevant_labels_empty_once_viable() {
        let q = route_query();
        let mut asg = Assignment::new();
        set(&mut asg, "a", true);
        set(&mut asg, "b", true);
        set(&mut asg, "c", true);
        assert!(q.relevant_labels(&asg, SimTime::ZERO).is_empty());
    }

    #[test]
    fn relevant_labels_excludes_already_known() {
        let q = route_query();
        let mut asg = Assignment::new();
        set(&mut asg, "a", true);
        let rel = q.relevant_labels(&asg, SimTime::ZERO);
        assert!(!rel.contains("a"));
        assert!(rel.contains("b"));
        assert_eq!(rel.len(), 5);
    }

    #[test]
    fn expired_labels_reopen_the_decision() {
        let q = Dnf::from_terms(vec![Term::all_of(["a"])]);
        let mut asg = Assignment::new();
        asg.set(
            Label::new("a"),
            Truth::True,
            SimTime::ZERO,
            SimDuration::from_secs(1),
        );
        assert_eq!(
            q.resolution(&asg, SimTime::from_millis(500)),
            Resolution::Viable(0)
        );
        // After expiry, the evidence no longer supports the decision.
        assert_eq!(
            q.resolution(&asg, SimTime::from_secs(2)),
            Resolution::Undecided
        );
    }

    #[test]
    fn live_terms_tracks_falsification() {
        let q = route_query();
        let mut asg = Assignment::new();
        assert_eq!(q.live_terms(&asg, SimTime::ZERO), vec![0, 1]);
        set(&mut asg, "b", false);
        assert_eq!(q.live_terms(&asg, SimTime::ZERO), vec![1]);
    }

    #[test]
    fn clone_shares_terms_and_behaves_like_the_original() {
        let q = Dnf::from_terms(vec![
            Term::all_of(["a", "b"]),
            Term::all_of(["a"]),
            Term::all_of(["a", "b"]),
            Term::all_of(["c"]),
        ]);
        let copy = q.clone();
        assert!(
            std::ptr::eq(q.terms().as_ptr(), copy.terms().as_ptr()),
            "a clone must share the term storage, not copy it"
        );
        assert_eq!(copy, q);
        assert_eq!(copy.to_string(), "(a & b) | (a) | (c)");
        assert_eq!(copy.labels(), q.labels());
        assert_eq!(
            copy.labels().iter().map(Label::as_str).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        // Derived queries own fresh storage and leave the source untouched.
        let abs = copy.absorbed();
        assert_eq!(abs.to_string(), "(a) | (c)");
        assert_eq!(q.terms().len(), 3);
        // Equality is by value, not by storage.
        let rebuilt: Dnf = q.terms().iter().cloned().collect();
        assert!(!std::ptr::eq(q.terms().as_ptr(), rebuilt.terms().as_ptr()));
        assert_eq!(rebuilt, q);
        assert_ne!(abs, q);
        assert_eq!(Dnf::default(), Dnf::unsatisfiable());
        assert!(Dnf::unsatisfiable().terms().is_empty());
    }

    #[test]
    fn display_shapes() {
        let q = route_query();
        assert_eq!(q.to_string(), "(a & b & c) | (d & e & f)");
        assert_eq!(Term::empty().to_string(), "true");
    }
}
