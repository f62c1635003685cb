//! Hierarchical content names (§V-A).
//!
//! "In designing hierarchical name spaces (where names are like UNIX paths),
//! of specific interest is to develop naming schemes where more similar
//! objects have names that share longer prefixes." A [`Name`] is a sequence
//! of path components, e.g. `/city/marketplace/south/noon/camera1`.
//!
//! Components are interned [`Symbol`]s (see [`crate::symbol`]), so the hot
//! operations — component equality, [`Name::shared_prefix_len`],
//! [`Name::starts_with`] — are integer compares of ids. Order is not: it
//! compares ranks through this thread's rank snapshot. Strings are
//! resolved back out only at I/O boundaries
//! ([`Name::fmt`][core::fmt::Display], [`Symbol::as_str`], error messages).

use crate::symbol::{intern, Symbol};
use core::cmp::Ordering;
use core::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A hierarchical content name.
///
/// Ordering is **lexicographic over component strings** — exactly
/// the order the pre-interning `Arc<[String]>` representation had — so
/// every `BTreeMap<Name, _>` iterates, and every deterministic tie-break
/// resolves, byte-identically to earlier releases. Equal symbols
/// short-circuit as integer compares, and the first *differing* component
/// pair compares the interner's ranks, which sort as the strings do, so no
/// string is resolved; that one rank compare reads this thread's rank
/// snapshot through a thread-local.
///
/// # Examples
///
/// ```
/// use dde_naming::name::Name;
///
/// let a: Name = "/city/marketplace/south/noon/camera1".parse()?;
/// let b: Name = "/city/marketplace/south/noon/camera2".parse()?;
/// assert_eq!(a.shared_prefix_len(&b), 4);
/// assert!(a.starts_with(&"/city/marketplace".parse()?));
/// # Ok::<(), dde_naming::name::NameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Name {
    components: Arc<[Symbol]>,
}

fn validate(component: &str) -> Result<(), NameError> {
    if component.is_empty() || component.contains('/') {
        return Err(NameError {
            message: format!("invalid name component: {component:?}"),
        });
    }
    Ok(())
}

impl Name {
    /// The root name `/` (zero components).
    pub fn root() -> Name {
        Name::default()
    }

    /// Builds a name from components.
    ///
    /// # Errors
    ///
    /// Returns [`NameError`] if any component is empty or contains `/`.
    ///
    /// ```
    /// use dde_naming::name::Name;
    ///
    /// let name = Name::from_components(["city", "cam1"])?;
    /// assert_eq!(name.to_string(), "/city/cam1");
    /// assert!(Name::from_components(["bad/slash"]).is_err());
    /// # Ok::<(), dde_naming::name::NameError>(())
    /// ```
    pub fn from_components<I, S>(components: I) -> Result<Name, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut symbols = Vec::new();
        for c in components {
            let c = c.as_ref();
            validate(c)?;
            symbols.push(intern(c));
        }
        Ok(Name {
            components: symbols.into(),
        })
    }

    /// The interned components, in order.
    pub fn components(&self) -> &[Symbol] {
        &self.components
    }

    /// The component strings, in order, resolved through the interner —
    /// an I/O-boundary convenience; hot paths should compare [`Symbol`]s.
    pub fn component_strs(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.components.iter().map(|s| s.as_str())
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether this is the root name.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Number of leading components shared with `other` — the paper's
    /// similarity measure: "distances between them, such as the length of
    /// the shared name prefix". Integer compares only; the interner is
    /// never consulted.
    pub fn shared_prefix_len(&self, other: &Name) -> usize {
        self.components
            .iter()
            .zip(other.components.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Shared-prefix similarity normalized to `[0, 1]`:
    /// `shared / max(len_a, len_b)`. Two identical names score 1; disjoint
    /// names score 0. The root is similar to nothing (score 0) except
    /// itself (scored 1 by convention).
    pub fn similarity(&self, other: &Name) -> f64 {
        let denom = self.len().max(other.len());
        if denom == 0 {
            return 1.0;
        }
        self.shared_prefix_len(other) as f64 / denom as f64
    }

    /// Whether `prefix` is a (non-strict) prefix of this name.
    pub fn starts_with(&self, prefix: &Name) -> bool {
        prefix.len() <= self.len() && self.components[..prefix.len()] == prefix.components[..]
    }

    /// The name extended by one component.
    ///
    /// # Errors
    ///
    /// Returns [`NameError`] if `component` is empty or contains `/`.
    ///
    /// ```
    /// use dde_naming::name::Name;
    ///
    /// let base: Name = "/city".parse()?;
    /// assert_eq!(base.child("cam1")?.to_string(), "/city/cam1");
    /// assert!(base.child("a/b").is_err());
    /// # Ok::<(), dde_naming::name::NameError>(())
    /// ```
    pub fn child(&self, component: impl AsRef<str>) -> Result<Name, NameError> {
        let component = component.as_ref();
        validate(component)?;
        let mut v: Vec<Symbol> = self.components.to_vec();
        v.push(intern(component));
        Ok(Name {
            components: v.into(),
        })
    }

    /// The parent name, or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        if self.is_empty() {
            return None;
        }
        Some(Name {
            components: self.components[..self.len() - 1].to_vec().into(),
        })
    }

    /// The first `n` components as a name.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    #[must_use]
    pub fn prefix(&self, n: usize) -> Name {
        assert!(n <= self.len(), "prefix length out of range");
        Name {
            components: self.components[..n].to_vec().into(),
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Lexicographic over component strings (see the type-level docs).
    /// Symbol-equal components short-circuit as an integer compare; the
    /// first differing pair compares ranks.
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.components.iter().zip(other.components.iter()) {
            if a == b {
                continue;
            }
            // The interner is injective, so differing symbols name
            // differing strings and their ranks never tie.
            return a.cmp_as_str(*b);
        }
        self.components.len().cmp(&other.components.len())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return write!(f, "/");
        }
        for c in self.components.iter() {
            write!(f, "/{}", c.as_str())?;
        }
        Ok(())
    }
}

/// Error from parsing or building a [`Name`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid name: {}", self.message)
    }
}

impl std::error::Error for NameError {}

impl FromStr for Name {
    type Err = NameError;

    /// Parses `/a/b/c` (leading slash required; `/` alone is the root;
    /// trailing slash tolerated). Each component is interned on the way in.
    fn from_str(s: &str) -> Result<Name, NameError> {
        let Some(rest) = s.strip_prefix('/') else {
            return Err(NameError {
                message: format!("must start with '/': {s:?}"),
            });
        };
        let rest = rest.strip_suffix('/').unwrap_or(rest);
        if rest.is_empty() {
            return Ok(Name::root());
        }
        let mut symbols = Vec::new();
        for c in rest.split('/') {
            if c.is_empty() {
                return Err(NameError {
                    message: format!("empty component in {s:?}"),
                });
            }
            symbols.push(intern(c));
        }
        Ok(Name {
            components: symbols.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["/", "/a", "/city/market/south", "/a/b/c/d/e"] {
            let name = n(s);
            assert_eq!(name.to_string(), s);
            assert_eq!(name.to_string().parse::<Name>().unwrap(), name);
        }
        // Trailing slash tolerated on parse, normalized on display.
        assert_eq!(n("/a/b/"), n("/a/b"));
    }

    #[test]
    fn parse_errors() {
        assert!("a/b".parse::<Name>().is_err());
        assert!("".parse::<Name>().is_err());
        assert!("/a//b".parse::<Name>().is_err());
        let e = "x".parse::<Name>().unwrap_err();
        assert!(e.to_string().contains("must start"));
    }

    #[test]
    fn shared_prefix_examples() {
        // The paper's camera substitution example.
        let c1 = n("/city/marketplace/south/noon/camera1");
        let c2 = n("/city/marketplace/south/noon/camera2");
        let north = n("/city/marketplace/north/noon/camera1");
        assert_eq!(c1.shared_prefix_len(&c2), 4);
        assert_eq!(c1.shared_prefix_len(&north), 2);
        assert_eq!(c1.shared_prefix_len(&c1), 5);
        assert_eq!(c1.shared_prefix_len(&Name::root()), 0);
    }

    #[test]
    fn similarity_normalized() {
        let c1 = n("/a/b/c/d");
        let c2 = n("/a/b/x/y");
        assert!((c1.similarity(&c2) - 0.5).abs() < 1e-12);
        assert_eq!(c1.similarity(&c1), 1.0);
        assert_eq!(Name::root().similarity(&Name::root()), 1.0);
        assert_eq!(c1.similarity(&Name::root()), 0.0);
    }

    #[test]
    fn starts_with_and_prefix() {
        let full = n("/a/b/c");
        assert!(full.starts_with(&n("/a")));
        assert!(full.starts_with(&n("/a/b/c")));
        assert!(full.starts_with(&Name::root()));
        assert!(!full.starts_with(&n("/a/x")));
        assert!(!n("/a").starts_with(&full));
        assert_eq!(full.prefix(2), n("/a/b"));
        assert_eq!(full.prefix(0), Name::root());
    }

    #[test]
    fn child_and_parent() {
        let base = n("/city");
        let cam = base.child("cam1").unwrap();
        assert_eq!(cam, n("/city/cam1"));
        assert_eq!(cam.parent().unwrap(), base);
        assert_eq!(base.parent().unwrap(), Name::root());
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn child_rejects_invalid_components() {
        assert!(Name::root().child("a/b").is_err());
        assert!(Name::root().child("").is_err());
        let e = Name::root().child("a/b").unwrap_err();
        assert!(e.to_string().contains("invalid name component"));
    }

    #[test]
    fn from_components() {
        let name = Name::from_components(["a", "b"]).unwrap();
        assert_eq!(name, n("/a/b"));
        assert_eq!(name.component_strs().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(name.components().len(), 2);
        assert!(Name::from_components(["ok", "bad/slash"]).is_err());
        assert!(Name::from_components(["", "b"]).is_err());
    }

    #[test]
    fn ordering_is_lexicographic_not_id_order() {
        // Intern in anti-lexicographic order: the later-interned string
        // must still sort first, because Name order resolves strings.
        let z = n("/ord-test-zz/x");
        let a = n("/ord-test-aa/x");
        assert!(a < z, "lexicographic order must be independent of id order");
        let mut v = vec![z.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, z]);
        // Prefix sorts before its extensions.
        assert!(n("/a") < n("/a/b"));
        assert!(Name::root() < n("/a"));
    }

    proptest! {
        /// similarity is symmetric and bounded.
        #[test]
        fn similarity_symmetric(
            a in prop::collection::vec("[a-c]{1,2}", 0..5),
            b in prop::collection::vec("[a-c]{1,2}", 0..5),
        ) {
            let na = Name::from_components(a).unwrap();
            let nb = Name::from_components(b).unwrap();
            prop_assert!((na.similarity(&nb) - nb.similarity(&na)).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&na.similarity(&nb)));
        }

        /// Parsing the display form is the identity.
        #[test]
        fn display_parse_identity(a in prop::collection::vec("[a-z0-9_.-]{1,6}", 0..6)) {
            let name = Name::from_components(a).unwrap();
            prop_assert_eq!(name.to_string().parse::<Name>().unwrap(), name);
        }

        /// parse → intern → as_str round-trips: every component symbol
        /// resolves to exactly the substring it was parsed from, and the
        /// display form reproduces the input byte-for-byte.
        #[test]
        fn parse_intern_as_str_round_trip(
            comps in prop::collection::vec("[a-zA-Z0-9_.-]{1,12}", 1..6),
        ) {
            let text = format!("/{}", comps.join("/"));
            let name: Name = text.parse().unwrap();
            prop_assert_eq!(name.to_string(), text);
            let resolved: Vec<&str> = name.component_strs().collect();
            prop_assert_eq!(resolved, comps.iter().map(String::as_str).collect::<Vec<_>>());
        }

        /// Name order equals lexicographic order over component strings —
        /// the pre-interning representation's order, which keeps every
        /// BTreeMap<Name, _> iteration byte-compatible.
        #[test]
        fn order_matches_string_order(
            a in prop::collection::vec("[a-d]{1,3}", 0..5),
            b in prop::collection::vec("[a-d]{1,3}", 0..5),
        ) {
            let na = Name::from_components(a.clone()).unwrap();
            let nb = Name::from_components(b.clone()).unwrap();
            prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
        }

        /// shared_prefix_len is a valid ultrametric-ish similarity:
        /// sim(a,c) >= min(sim(a,b), sim(b,c)) in prefix length terms.
        #[test]
        fn prefix_ultrametric(
            a in prop::collection::vec("[ab]{1}", 0..5),
            b in prop::collection::vec("[ab]{1}", 0..5),
            c in prop::collection::vec("[ab]{1}", 0..5),
        ) {
            let (na, nb, nc) = (
                Name::from_components(a).unwrap(),
                Name::from_components(b).unwrap(),
                Name::from_components(c).unwrap(),
            );
            let ab = na.shared_prefix_len(&nb);
            let bc = nb.shared_prefix_len(&nc);
            let ac = na.shared_prefix_len(&nc);
            prop_assert!(ac >= ab.min(bc));
        }
    }
}
