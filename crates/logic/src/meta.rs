//! Per-condition metadata used by the retrieval-cost optimizations.
//!
//! §III-A: "Associated with each condition `b_ij` may be several pieces of
//! metadata. Examples include (i) retrieval cost `C_ij` (e.g., data bandwidth
//! consumed), (ii) estimated retrieval latency `l_ij`, (iii) success
//! probability `p_ij` (i.e., probability of evaluating to true), and (iv)
//! data validity interval `d_ij`."

use crate::label::Label;
use crate::time::SimDuration;
use core::fmt;
use std::collections::BTreeMap;

/// A probability in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use dde_logic::meta::Probability;
///
/// let p = Probability::new(0.6).unwrap();
/// assert_eq!(p.value(), 0.6);
/// assert_eq!(p.complement().value(), 0.4);
/// assert!(Probability::new(1.5).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Probability(f64);

impl Probability {
    /// Certain falsehood.
    pub const ZERO: Probability = Probability(0.0);
    /// Certain truth.
    pub const ONE: Probability = Probability(1.0);
    /// Maximum-entropy prior, used when nothing is known about a condition.
    pub const HALF: Probability = Probability(0.5);

    /// Creates a probability.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbability`] unless `0.0 <= p <= 1.0`.
    pub fn new(p: f64) -> Result<Probability, InvalidProbability> {
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(Probability(p))
        } else {
            Err(InvalidProbability(p))
        }
    }

    /// Creates a probability, clamping out-of-range finite values into
    /// `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    pub fn clamped(p: f64) -> Probability {
        assert!(!p.is_nan(), "probability must not be NaN");
        Probability(p.clamp(0.0, 1.0))
    }

    /// The underlying value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// `1 - p`: the short-circuit probability of an ANDed condition.
    #[must_use]
    pub fn complement(self) -> Probability {
        Probability(1.0 - self.0)
    }

    /// Product of two independent probabilities.
    #[must_use]
    pub fn and(self, other: Probability) -> Probability {
        Probability(self.0 * other.0)
    }

    /// Probability that at least one of two independent events occurs.
    #[must_use]
    pub fn or(self, other: Probability) -> Probability {
        Probability(1.0 - (1.0 - self.0) * (1.0 - other.0))
    }
}

impl Default for Probability {
    fn default() -> Self {
        Probability::HALF
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

/// Error returned by [`Probability::new`] for values outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidProbability(pub f64);

impl fmt::Display for InvalidProbability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probability out of range: {}", self.0)
    }
}

impl std::error::Error for InvalidProbability {}

/// Retrieval cost in bytes transferred over the bottleneck resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cost(u64);

impl Cost {
    /// Zero cost (e.g. a locally cached label).
    pub const ZERO: Cost = Cost(0);

    /// Cost of transferring `bytes` bytes.
    pub const fn from_bytes(bytes: u64) -> Cost {
        Cost(bytes)
    }

    /// The byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Cost as a float, for ratio computations.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating sum.
    #[must_use]
    pub fn saturating_add(self, other: Cost) -> Cost {
        Cost(self.0.saturating_add(other.0))
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

impl core::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Cost::saturating_add)
    }
}

/// Metadata for one condition of a decision query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConditionMeta {
    /// Retrieval cost `C` of the evidence object resolving this condition.
    pub cost: Cost,
    /// Estimated end-to-end retrieval latency `l`.
    pub latency: SimDuration,
    /// Probability `p` that the condition evaluates to *true*.
    pub prob_true: Probability,
    /// Validity interval `d` of the evidence.
    pub validity: SimDuration,
}

impl ConditionMeta {
    /// Creates metadata with the given cost and validity, default latency
    /// zero and maximum-entropy probability.
    pub fn new(cost: Cost, validity: SimDuration) -> ConditionMeta {
        ConditionMeta {
            cost,
            latency: SimDuration::ZERO,
            prob_true: Probability::HALF,
            validity,
        }
    }

    /// Sets the success probability.
    #[must_use]
    pub fn with_prob(mut self, p: Probability) -> ConditionMeta {
        self.prob_true = p;
        self
    }

    /// Sets the estimated retrieval latency.
    #[must_use]
    pub fn with_latency(mut self, l: SimDuration) -> ConditionMeta {
        self.latency = l;
        self
    }

    /// The short-circuit efficiency of this condition inside an AND:
    /// `(1 - p) / C` (§III-A).
    ///
    /// A zero-cost condition has infinite efficiency — evaluate it first.
    pub fn and_shortcircuit_ratio(&self) -> f64 {
        let c = self.cost.as_f64();
        if c == 0.0 {
            f64::INFINITY
        } else {
            self.prob_true.complement().value() / c
        }
    }

    /// The short-circuit efficiency of this condition inside an OR:
    /// `p / C`.
    pub fn or_shortcircuit_ratio(&self) -> f64 {
        let c = self.cost.as_f64();
        if c == 0.0 {
            f64::INFINITY
        } else {
            self.prob_true.value() / c
        }
    }
}

impl Default for ConditionMeta {
    fn default() -> Self {
        ConditionMeta::new(Cost::ZERO, SimDuration::MAX)
    }
}

/// A table of per-label condition metadata for a query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetaTable {
    entries: BTreeMap<Label, ConditionMeta>,
}

impl MetaTable {
    /// Creates an empty table.
    pub fn new() -> MetaTable {
        MetaTable::default()
    }

    /// Registers metadata for `label`, returning any previous entry.
    pub fn insert(&mut self, label: Label, meta: ConditionMeta) -> Option<ConditionMeta> {
        self.entries.insert(label, meta)
    }

    /// Metadata for `label`, if registered.
    pub fn get(&self, label: &Label) -> Option<&ConditionMeta> {
        self.entries.get(label)
    }

    /// Metadata for `label`, or the (pessimistic) default.
    pub fn get_or_default(&self, label: &Label) -> ConditionMeta {
        self.entries.get(label).copied().unwrap_or_default()
    }

    /// Number of registered labels.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(label, meta)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, &ConditionMeta)> {
        self.entries.iter()
    }
}

impl FromIterator<(Label, ConditionMeta)> for MetaTable {
    fn from_iter<I: IntoIterator<Item = (Label, ConditionMeta)>>(iter: I) -> Self {
        MetaTable {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Label, ConditionMeta)> for MetaTable {
    fn extend<I: IntoIterator<Item = (Label, ConditionMeta)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1_000_000;

    #[test]
    fn probability_validation() {
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(1.0).is_ok());
        assert!(Probability::new(-0.1).is_err());
        assert!(Probability::new(f64::NAN).is_err());
        assert_eq!(Probability::clamped(2.0), Probability::ONE);
        assert_eq!(Probability::clamped(-1.0), Probability::ZERO);
        let err = Probability::new(1.5).unwrap_err();
        assert!(err.to_string().contains("1.5"));
    }

    #[test]
    fn probability_algebra() {
        let p = Probability::new(0.25).unwrap();
        let q = Probability::new(0.5).unwrap();
        assert!((p.and(q).value() - 0.125).abs() < 1e-12);
        assert!((p.or(q).value() - 0.625).abs() < 1e-12);
        assert_eq!(Probability::default(), Probability::HALF);
        assert_eq!(p.to_string(), "0.250");
    }

    #[test]
    fn cost_arithmetic() {
        let c = Cost::from_bytes(4 * MB);
        assert_eq!(c.as_bytes(), 4 * MB);
        assert_eq!(
            vec![Cost::from_bytes(1), Cost::from_bytes(2)]
                .into_iter()
                .sum::<Cost>(),
            Cost::from_bytes(3)
        );
        assert_eq!(
            Cost::from_bytes(u64::MAX)
                .saturating_add(Cost::from_bytes(1))
                .as_bytes(),
            u64::MAX
        );
        assert_eq!(Cost::from_bytes(7).to_string(), "7B");
    }

    /// The paper's worked example (§III-A): h is a 4 MB clip with p = 0.6,
    /// k is a 5 MB clip with p = 0.2; k should be evaluated first because
    /// (1-0.2)/5 = 0.16 > (1-0.6)/4 = 0.1.
    #[test]
    fn paper_shortcircuit_example() {
        let h = ConditionMeta::new(Cost::from_bytes(4 * MB), SimDuration::MAX)
            .with_prob(Probability::new(0.6).unwrap());
        let k = ConditionMeta::new(Cost::from_bytes(5 * MB), SimDuration::MAX)
            .with_prob(Probability::new(0.2).unwrap());
        assert!(k.and_shortcircuit_ratio() > h.and_shortcircuit_ratio());
        assert!((k.and_shortcircuit_ratio() - 0.16 / MB as f64).abs() < 1e-18);
        assert!((h.and_shortcircuit_ratio() - 0.10 / MB as f64).abs() < 1e-18);
    }

    #[test]
    fn or_ratio_prefers_likely_true() {
        let likely = ConditionMeta::new(Cost::from_bytes(MB), SimDuration::MAX)
            .with_prob(Probability::new(0.9).unwrap());
        let unlikely = ConditionMeta::new(Cost::from_bytes(MB), SimDuration::MAX)
            .with_prob(Probability::new(0.1).unwrap());
        assert!(likely.or_shortcircuit_ratio() > unlikely.or_shortcircuit_ratio());
    }

    #[test]
    fn zero_cost_is_infinitely_efficient() {
        let free = ConditionMeta::new(Cost::ZERO, SimDuration::MAX);
        assert!(free.and_shortcircuit_ratio().is_infinite());
        assert!(free.or_shortcircuit_ratio().is_infinite());
    }

    #[test]
    fn meta_table_basics() {
        let mut t = MetaTable::new();
        assert!(t.is_empty());
        let a = Label::new("a");
        t.insert(
            a,
            ConditionMeta::new(Cost::from_bytes(10), SimDuration::from_secs(5)),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&a).unwrap().cost, Cost::from_bytes(10));
        // Unknown labels get the pessimistic default.
        let d = t.get_or_default(&Label::new("zzz"));
        assert_eq!(d.cost, Cost::ZERO);
        assert_eq!(d.validity, SimDuration::MAX);
    }

    #[test]
    fn meta_table_collect() {
        let t: MetaTable = vec![
            (Label::new("a"), ConditionMeta::default()),
            (Label::new("b"), ConditionMeta::default()),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn builder_methods() {
        let m = ConditionMeta::new(Cost::from_bytes(1), SimDuration::from_secs(1))
            .with_prob(Probability::new(0.3).unwrap())
            .with_latency(SimDuration::from_millis(20));
        assert_eq!(m.prob_true.value(), 0.3);
        assert_eq!(m.latency, SimDuration::from_millis(20));
    }
}
