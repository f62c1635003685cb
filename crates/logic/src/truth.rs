//! Three-valued (Kleene) logic.
//!
//! The paper's system abstraction (§II-B) stores labels whose value can be
//! *true*, *false*, or *unknown* — unknown meaning that no fresh evidence has
//! been examined yet. Decision expressions are therefore evaluated under
//! Kleene's strong three-valued logic: an AND with a false conjunct is false
//! no matter what the unknowns turn out to be (this is exactly what makes
//! short-circuiting sound), and symmetrically for OR.

use core::fmt;
use core::ops::Not;

/// A three-valued truth value.
///
/// # Examples
///
/// ```
/// use dde_logic::truth::Truth;
///
/// // A false conjunct decides an AND even with unknowns present.
/// assert_eq!(Truth::False.and(Truth::Unknown), Truth::False);
/// // A true disjunct decides an OR.
/// assert_eq!(Truth::True.or(Truth::Unknown), Truth::True);
/// // Otherwise unknowns propagate.
/// assert_eq!(Truth::True.and(Truth::Unknown), Truth::Unknown);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Truth {
    /// The predicate is known to hold.
    True,
    /// The predicate is known not to hold.
    False,
    /// No (fresh) evidence has determined the predicate yet.
    #[default]
    Unknown,
}

impl Truth {
    /// Kleene conjunction.
    #[must_use]
    pub fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Kleene disjunction.
    #[must_use]
    pub fn or(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Kleene negation.
    #[must_use]
    pub fn negate(self) -> Truth {
        use Truth::*;
        match self {
            True => False,
            False => True,
            Unknown => Unknown,
        }
    }

    /// Whether the value is decided (not [`Truth::Unknown`]).
    pub fn is_known(self) -> bool {
        self != Truth::Unknown
    }
}

impl From<bool> for Truth {
    fn from(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }
}

impl From<Option<bool>> for Truth {
    fn from(b: Option<bool>) -> Truth {
        match b {
            Some(true) => Truth::True,
            Some(false) => Truth::False,
            None => Truth::Unknown,
        }
    }
}

impl Not for Truth {
    type Output = Truth;
    fn not(self) -> Truth {
        self.negate()
    }
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Truth::True => "true",
            Truth::False => "false",
            Truth::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Folds a conjunction over an iterator of truth values.
///
/// Returns [`Truth::True`] for an empty iterator (the empty conjunction).
///
/// # Examples
///
/// ```
/// use dde_logic::truth::{all, Truth};
///
/// assert_eq!(all([Truth::True, Truth::Unknown]), Truth::Unknown);
/// assert_eq!(all([Truth::True, Truth::False]), Truth::False);
/// assert_eq!(all(std::iter::empty()), Truth::True);
/// ```
pub fn all<I: IntoIterator<Item = Truth>>(iter: I) -> Truth {
    let mut acc = Truth::True;
    for t in iter {
        acc = acc.and(t);
        if acc == Truth::False {
            return Truth::False;
        }
    }
    acc
}

/// Folds a disjunction over an iterator of truth values.
///
/// Returns [`Truth::False`] for an empty iterator (the empty disjunction).
///
/// # Examples
///
/// ```
/// use dde_logic::truth::{any, Truth};
///
/// assert_eq!(any([Truth::False, Truth::Unknown]), Truth::Unknown);
/// assert_eq!(any([Truth::False, Truth::True]), Truth::True);
/// assert_eq!(any(std::iter::empty()), Truth::False);
/// ```
pub fn any<I: IntoIterator<Item = Truth>>(iter: I) -> Truth {
    let mut acc = Truth::False;
    for t in iter {
        acc = acc.or(t);
        if acc == Truth::True {
            return Truth::True;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::{all as t_all, any as t_any, *};
    use proptest::prelude::*;
    use Truth::*;

    const ALL: [Truth; 3] = [True, False, Unknown];

    fn arb_truth() -> impl Strategy<Value = Truth> {
        prop_oneof![Just(True), Just(False), Just(Unknown)]
    }

    #[test]
    fn and_truth_table() {
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(False), False);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
    }

    #[test]
    fn or_truth_table() {
        assert_eq!(False.or(False), False);
        assert_eq!(False.or(True), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(Unknown.or(Unknown), Unknown);
    }

    #[test]
    fn negation_involutive() {
        for t in ALL {
            assert_eq!(t.negate().negate(), t);
        }
        assert_eq!(!True, False);
    }

    #[test]
    fn conversions() {
        assert_eq!(Truth::from(true), True);
        assert_eq!(Truth::from(Some(false)), False);
        assert_eq!(Truth::from(None), Unknown);
        assert!(!Unknown.is_known());
        assert!(False.is_known());
    }

    #[test]
    fn folds_short_circuit() {
        assert_eq!(t_all([True, False, Unknown]), False);
        assert_eq!(t_any([False, True, Unknown]), True);
        assert_eq!(t_all([True, True]), True);
        assert_eq!(t_any([False, False]), False);
        assert_eq!(t_all([Unknown]), Unknown);
        assert_eq!(t_any([Unknown]), Unknown);
    }

    #[test]
    fn default_is_unknown() {
        assert_eq!(Truth::default(), Unknown);
    }

    proptest! {
        #[test]
        fn commutativity(a in arb_truth(), b in arb_truth()) {
            prop_assert_eq!(a.and(b), b.and(a));
            prop_assert_eq!(a.or(b), b.or(a));
        }

        #[test]
        fn associativity(a in arb_truth(), b in arb_truth(), c in arb_truth()) {
            prop_assert_eq!(a.and(b).and(c), a.and(b.and(c)));
            prop_assert_eq!(a.or(b).or(c), a.or(b.or(c)));
        }

        #[test]
        fn de_morgan(a in arb_truth(), b in arb_truth()) {
            prop_assert_eq!(a.and(b).negate(), a.negate().or(b.negate()));
            prop_assert_eq!(a.or(b).negate(), a.negate().and(b.negate()));
        }

        #[test]
        fn distributivity(a in arb_truth(), b in arb_truth(), c in arb_truth()) {
            prop_assert_eq!(a.and(b.or(c)), a.and(b).or(a.and(c)));
            prop_assert_eq!(a.or(b.and(c)), a.or(b).and(a.or(c)));
        }

        #[test]
        fn identity_elements(a in arb_truth()) {
            prop_assert_eq!(a.and(True), a);
            prop_assert_eq!(a.or(False), a);
            prop_assert_eq!(a.and(False), False);
            prop_assert_eq!(a.or(True), True);
        }

        #[test]
        fn kleene_refinement_monotone(a in arb_truth(), b in arb_truth()) {
            // Refining an Unknown operand to a concrete value must never flip
            // an already-decided result: this is what makes caching of partial
            // evaluations sound.
            if a.and(b).is_known() {
                for refined in ALL {
                    if b == Unknown {
                        prop_assert_eq!(a.and(refined), a.and(b));
                    }
                }
            }
            if a.or(b).is_known() {
                for refined in ALL {
                    if b == Unknown {
                        prop_assert_eq!(a.or(refined), a.or(b));
                    }
                }
            }
        }
    }
}
