//! Labels: named Boolean variables describing physical-world state.
//!
//! The system "represents the physical world by a set of labels (names of
//! Boolean variables)" (§II-B). A label such as `viableA` is resolved to
//! *true*/*false* by an annotator examining evidence, and the resolved value
//! carries a *validity interval* after which it is stale.

use crate::symbol::{Symbol, LABELS};
use crate::time::{SimDuration, SimTime};
use crate::truth::Truth;
use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// An interned label name (e.g. `viable/seg_3_4` or `Dim`).
///
/// A `Label` is a `Copy` handle into the process-global label table (see
/// [`crate::symbol`]): `==` compares handles, one integer compare, and `<`
/// compares ranks, read through this thread's rank snapshot; both agree
/// with comparing the strings. A lookup that needs only identity keys on
/// [`Label::id`] and never pays for order.
/// `Hash`, `Debug` (`Label("viableA")`), `Display`, serde and
/// `Borrow<str>` all behave as the label's string does.
///
/// # Examples
///
/// ```
/// use dde_logic::label::Label;
///
/// let a = Label::new("viableA");
/// let b: Label = "viableA".into();
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "viableA");
/// assert!(Label::new("viableB") > a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Label(Symbol);

impl Label {
    /// Interns `name` in the label table and returns its handle.
    pub fn new(name: impl AsRef<str>) -> Self {
        Label(LABELS.intern(name.as_ref()))
    }

    /// The label's name.
    pub fn as_str(&self) -> &'static str {
        LABELS.resolve(self.0)
    }

    /// The dense id assigned when the label was first interned, as
    /// [`Symbol::id`] is for a name component. Ids are handed out in
    /// first-seen order, so they key lookups that need only identity and
    /// must never order anything a run shows.
    pub fn id(self) -> u32 {
        self.0.id()
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    /// String order, by rank.
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        LABELS.cmp(self.0, other.0)
    }
}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Label").field(&self.as_str()).finish()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label::new(s)
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl serde::Serialize for Label {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.as_str())
    }
}

impl<'de> serde::Deserialize<'de> for Label {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        String::deserialize(d).map(Label::from)
    }
}

/// A resolved label value together with the freshness bookkeeping the paper's
/// data-validity constraints require (§IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelValue {
    /// The truth value established by an annotator.
    pub value: Truth,
    /// When the underlying evidence was sampled.
    pub sampled_at: SimTime,
    /// How long after `sampled_at` the value remains fresh.
    pub validity: SimDuration,
}

impl LabelValue {
    /// Creates a resolved value sampled at `sampled_at` with validity
    /// interval `validity`.
    pub fn new(value: Truth, sampled_at: SimTime, validity: SimDuration) -> Self {
        LabelValue {
            value,
            sampled_at,
            validity,
        }
    }

    /// The instant at which this value ceases to be fresh.
    pub fn expires_at(&self) -> SimTime {
        self.sampled_at.saturating_add(self.validity)
    }

    /// Whether the value is still fresh at `now`.
    pub fn is_fresh_at(&self, now: SimTime) -> bool {
        now <= self.expires_at()
    }
}

/// A partial assignment of truth values to labels, with freshness awareness.
///
/// This is the working state of a decision query: labels resolve over time as
/// evidence arrives, and previously resolved labels may *expire* back to
/// unknown as the physical world moves on.
///
/// # Examples
///
/// ```
/// use dde_logic::label::{Assignment, Label};
/// use dde_logic::time::{SimDuration, SimTime};
/// use dde_logic::truth::Truth;
///
/// let mut asg = Assignment::new();
/// let a = Label::new("viableA");
/// asg.set(a.clone(), Truth::True, SimTime::ZERO, SimDuration::from_secs(10));
/// assert_eq!(asg.value_at(&a, SimTime::from_secs(5)), Truth::True);
/// assert_eq!(asg.value_at(&a, SimTime::from_secs(11)), Truth::Unknown);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    values: BTreeMap<Label, LabelValue>,
}

impl Assignment {
    /// Creates an empty assignment (every label unknown).
    pub fn new() -> Self {
        Assignment::default()
    }

    /// Records a resolved value for `label`.
    ///
    /// Returns the previously recorded value, if any.
    pub fn set(
        &mut self,
        label: Label,
        value: Truth,
        sampled_at: SimTime,
        validity: SimDuration,
    ) -> Option<LabelValue> {
        self.values
            .insert(label, LabelValue::new(value, sampled_at, validity))
    }

    /// Records an already-constructed [`LabelValue`].
    pub fn set_value(&mut self, label: Label, value: LabelValue) -> Option<LabelValue> {
        self.values.insert(label, value)
    }

    /// The stored entry for `label`, fresh or not.
    pub fn get(&self, label: &Label) -> Option<&LabelValue> {
        self.values.get(label)
    }

    /// The truth value of `label` at time `now`, treating expired entries as
    /// [`Truth::Unknown`].
    pub fn value_at(&self, label: &Label, now: SimTime) -> Truth {
        match self.values.get(label) {
            Some(v) if v.is_fresh_at(now) => v.value,
            _ => Truth::Unknown,
        }
    }

    /// Removes the entry for `label`, returning it if present.
    pub fn clear(&mut self, label: &Label) -> Option<LabelValue> {
        self.values.remove(label)
    }

    /// Number of recorded (fresh or stale) entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over all recorded `(label, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, &LabelValue)> {
        self.values.iter()
    }

    /// The earliest expiry instant among entries that are fresh at `now`, or
    /// `None` if nothing is fresh.
    ///
    /// This drives the paper's freshness constraint `min_i(t_i + I_i) ≥ F`.
    pub fn earliest_expiry(&self, now: SimTime) -> Option<SimTime> {
        self.values
            .values()
            .filter(|v| v.is_fresh_at(now))
            .map(|v| v.expires_at())
            .min()
    }
}

impl FromIterator<(Label, LabelValue)> for Assignment {
    fn from_iter<I: IntoIterator<Item = (Label, LabelValue)>>(iter: I) -> Self {
        Assignment {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Label, LabelValue)> for Assignment {
    fn extend<I: IntoIterator<Item = (Label, LabelValue)>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(value: Truth, at: u64, validity: u64) -> LabelValue {
        LabelValue::new(
            value,
            SimTime::from_secs(at),
            SimDuration::from_secs(validity),
        )
    }

    #[test]
    fn label_equality_and_borrow() {
        let a = Label::new("x");
        let b = Label::from("x".to_string());
        assert_eq!(a, b);
        let mut map = BTreeMap::new();
        map.insert(a, 1);
        // Borrow<str> lets us look up by &str without allocating.
        assert_eq!(map.get("x"), Some(&1));
    }

    #[test]
    fn label_value_freshness() {
        let v = lv(Truth::True, 2, 5);
        assert_eq!(v.expires_at(), SimTime::from_secs(7));
        assert!(v.is_fresh_at(SimTime::from_secs(7)));
        assert!(!v.is_fresh_at(SimTime::from_micros(7_000_001)));
    }

    #[test]
    fn infinite_validity_never_expires() {
        let v = LabelValue::new(Truth::True, SimTime::from_secs(1), SimDuration::MAX);
        assert!(v.is_fresh_at(SimTime::MAX));
    }

    #[test]
    fn assignment_set_get_and_expiry() {
        let mut asg = Assignment::new();
        let a = Label::new("a");
        assert!(asg.is_empty());
        asg.set_value(a, lv(Truth::False, 0, 3));
        assert_eq!(asg.len(), 1);
        assert_eq!(asg.value_at(&a, SimTime::from_secs(2)), Truth::False);
        assert_eq!(asg.value_at(&a, SimTime::from_secs(4)), Truth::Unknown);
        assert_eq!(
            asg.value_at(&Label::new("missing"), SimTime::ZERO),
            Truth::Unknown
        );
    }

    #[test]
    fn overwrite_returns_previous() {
        let mut asg = Assignment::new();
        let a = Label::new("a");
        assert!(asg.set_value(a, lv(Truth::True, 0, 1)).is_none());
        let prev = asg.set_value(a, lv(Truth::False, 5, 1)).unwrap();
        assert_eq!(prev.value, Truth::True);
        assert_eq!(asg.value_at(&a, SimTime::from_secs(5)), Truth::False);
    }

    #[test]
    fn earliest_expiry_tracks_fresh_entries() {
        let mut asg = Assignment::new();
        asg.set_value(Label::new("a"), lv(Truth::True, 0, 5));
        asg.set_value(Label::new("b"), lv(Truth::True, 0, 9));
        asg.set_value(Label::new("stale"), lv(Truth::True, 0, 1));
        let now = SimTime::from_secs(2);
        assert_eq!(asg.earliest_expiry(now), Some(SimTime::from_secs(5)));
        assert_eq!(asg.earliest_expiry(SimTime::from_secs(100)), None);
    }

    #[test]
    fn collect_and_extend() {
        let pairs = vec![
            (Label::new("a"), lv(Truth::True, 0, 1)),
            (Label::new("b"), lv(Truth::False, 0, 1)),
        ];
        let mut asg: Assignment = pairs.clone().into_iter().collect();
        assert_eq!(asg.len(), 2);
        asg.extend(vec![(Label::new("c"), lv(Truth::True, 0, 1))]);
        assert_eq!(asg.len(), 3);
    }

    #[test]
    fn clear_removes_entry() {
        let mut asg = Assignment::new();
        let a = Label::new("a");
        asg.set(a, Truth::True, SimTime::ZERO, SimDuration::from_secs(1));
        assert!(asg.clear(&a).is_some());
        assert!(asg.clear(&a).is_none());
    }
}
