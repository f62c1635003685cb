//! Task-criticality policies over the name space (§V-C).
//!
//! "Some parts of the name space can be considered more critical than
//! others. Objects published … in that part of the name space can thus
//! receive preferential treatment." The one treatment implemented is
//! exemption from approximate substitution: a node never serves a
//! similar-named stand-in for a [`Criticality::Critical`] object. Caching
//! and forwarding treat every class alike.

use crate::name::Name;
use core::fmt;
use std::collections::BTreeMap;

/// Criticality classes, ordered: `Routine < Elevated < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Criticality {
    /// Ordinary traffic: approximation allowed.
    #[default]
    Routine,
    /// Elevated: approximation still allowed; handled like `Routine`.
    Elevated,
    /// Critical: exempt from approximate substitution.
    Critical,
}

impl Criticality {
    /// Whether approximate name substitution may serve this class.
    pub fn allows_approximation(self) -> bool {
        self != Criticality::Critical
    }
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Criticality::Routine => "routine",
            Criticality::Elevated => "elevated",
            Criticality::Critical => "critical",
        };
        f.write_str(s)
    }
}

/// Maps name-space regions to criticality classes via longest-prefix match.
///
/// # Examples
///
/// ```
/// use dde_naming::criticality::{Criticality, CriticalityMap};
///
/// let mut map = CriticalityMap::new();
/// map.assign(&"/city/hospital".parse()?, Criticality::Critical);
/// assert_eq!(map.classify(&"/city/hospital/cam1".parse()?), Criticality::Critical);
/// assert_eq!(map.classify(&"/city/park".parse()?), Criticality::Routine);
/// # Ok::<(), dde_naming::name::NameError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CriticalityMap {
    prefixes: BTreeMap<Name, Criticality>,
}

impl CriticalityMap {
    /// Creates a map where everything defaults to [`Criticality::Routine`].
    pub fn new() -> CriticalityMap {
        CriticalityMap::default()
    }

    /// Assigns `class` to the name-space region under `prefix`. Returns the
    /// previous class assigned to that exact prefix.
    pub fn assign(&mut self, prefix: &Name, class: Criticality) -> Option<Criticality> {
        self.prefixes.insert(prefix.clone(), class)
    }

    /// The class of `name`: the longest matching assigned prefix, else
    /// `Routine`.
    pub fn classify(&self, name: &Name) -> Criticality {
        self.prefixes
            .iter()
            .filter(|(prefix, _)| name.starts_with(prefix))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Number of assigned prefixes.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether any prefixes are assigned.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn ordering_and_weights() {
        assert!(Criticality::Routine < Criticality::Elevated);
        assert!(Criticality::Elevated < Criticality::Critical);
        assert_eq!(Criticality::Critical.to_string(), "critical");
    }

    #[test]
    fn approximation_exemption() {
        assert!(Criticality::Routine.allows_approximation());
        assert!(Criticality::Elevated.allows_approximation());
        assert!(!Criticality::Critical.allows_approximation());
    }

    #[test]
    fn nested_prefixes_use_longest_match() {
        let mut map = CriticalityMap::new();
        map.assign(&Name::root(), Criticality::Elevated);
        map.assign(&n("/city"), Criticality::Routine);
        map.assign(&n("/city/hospital"), Criticality::Critical);
        assert_eq!(
            map.classify(&n("/city/hospital/icu")),
            Criticality::Critical
        );
        assert_eq!(map.classify(&n("/city/park")), Criticality::Routine);
        // The root prefix `/` matches every name.
        assert_eq!(map.classify(&n("/rural")), Criticality::Elevated);
        assert_eq!(map.classify(&Name::root()), Criticality::Elevated);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn reassignment_returns_previous() {
        let mut map = CriticalityMap::new();
        assert_eq!(map.assign(&n("/a"), Criticality::Critical), None);
        assert_eq!(
            map.assign(&n("/a"), Criticality::Routine),
            Some(Criticality::Critical)
        );
        assert_eq!(map.classify(&n("/a/b")), Criticality::Routine);
    }

    #[test]
    fn default_is_routine() {
        let map = CriticalityMap::new();
        assert!(map.is_empty());
        assert_eq!(map.classify(&n("/anything")), Criticality::Routine);
    }
}
