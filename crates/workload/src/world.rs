//! Ground-truth world state with fast/slow dynamics (§VII).
//!
//! "Data objects belong to two different categories, namely slow changing
//! and fast changing. The ratio of fast changing objects to the total number
//! of objects is a quantification of the level of environmental dynamics."
//!
//! Each label's true value is piecewise-constant over *epochs* whose length
//! equals the label's validity interval — exactly the semantics of a
//! validity interval: within one epoch a fresh measurement stays accurate.
//! The value in each epoch is a deterministic hash of `(seed, label, epoch)`,
//! so the world needs no storage and every run is reproducible.

use crate::by_id::LabelIndex;
use core::fmt;
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use std::hash::{Hash, Hasher};

/// Dynamics class of a measured quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynamicsClass {
    /// Long validity interval (e.g. structural road damage).
    Slow,
    /// Short validity interval (e.g. flooding, moving obstacles).
    Fast,
}

impl fmt::Display for DynamicsClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DynamicsClass::Slow => "slow",
            DynamicsClass::Fast => "fast",
        })
    }
}

/// Per-label dynamics: how often the underlying state changes and how likely
/// it is to be "true" (viable) in any epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelDynamics {
    /// The dynamics class (determines the epoch length below).
    pub class: DynamicsClass,
    /// Epoch length = validity interval of measurements of this label.
    pub validity: SimDuration,
    /// Probability that the label is true in any given epoch.
    pub prob_true: f64,
}

/// The deterministic ground-truth world.
///
/// # Examples
///
/// ```
/// use dde_workload::world::{DynamicsClass, WorldModel};
/// use dde_logic::prelude::*;
///
/// let mut world = WorldModel::new(42);
/// world.register(Label::new("viable/x"), DynamicsClass::Fast,
///                SimDuration::from_secs(10), 0.8);
/// let v0 = world.value(&Label::new("viable/x"), SimTime::ZERO);
/// // Within one epoch the value is constant:
/// assert_eq!(v0, world.value(&Label::new("viable/x"), SimTime::from_secs(9)));
/// ```
#[derive(Clone)]
pub struct WorldModel {
    seed: u64,
    /// The registered labels, in registration order, each once.
    labels: Vec<Label>,
    by_label: LabelIndex<Registered>,
}

/// A registered label's dynamics and the hash state its values come from.
#[derive(Clone)]
struct Registered {
    dynamics: LabelDynamics,
    /// The mixer state after the seed and the label's bytes: a value in
    /// epoch `e` is this state with `e` hashed on top.
    hashed: u64,
}

impl Registered {
    fn epoch(&self, time: SimTime) -> u64 {
        time.as_micros() / self.dynamics.validity.as_micros().max(1)
    }
}

impl WorldModel {
    /// Creates an empty world driven by `seed`.
    pub fn new(seed: u64) -> WorldModel {
        WorldModel {
            seed,
            labels: Vec::new(),
            by_label: LabelIndex::default(),
        }
    }

    /// Registers a label's dynamics, replacing any registered before.
    ///
    /// # Panics
    ///
    /// Panics if `prob_true` is outside `[0, 1]` or `validity` is zero.
    pub fn register(
        &mut self,
        label: Label,
        class: DynamicsClass,
        validity: SimDuration,
        prob_true: f64,
    ) {
        assert!((0.0..=1.0).contains(&prob_true), "prob_true out of range");
        assert!(validity > SimDuration::ZERO, "validity must be positive");
        let mut h = Splitmix(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        label.as_str().hash(&mut h);
        let registered = Registered {
            dynamics: LabelDynamics {
                class,
                validity,
                prob_true,
            },
            hashed: h.0,
        };
        if self.by_label.insert(label, registered).is_none() {
            self.labels.push(label);
        }
    }

    /// The dynamics registered for `label`.
    pub fn dynamics(&self, label: &Label) -> Option<&LabelDynamics> {
        self.by_label.get(*label).map(|r| &r.dynamics)
    }

    /// Number of registered labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether any labels are registered.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over registered labels and their dynamics, in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, &LabelDynamics)> {
        let mut labels: Vec<&Label> = self.labels.iter().collect();
        labels.sort_unstable();
        labels
            .into_iter()
            .filter_map(|l| Some((l, self.dynamics(l)?)))
    }

    fn registered(&self, label: &Label) -> &Registered {
        self.by_label
            .get(*label)
            .unwrap_or_else(|| panic!("label not registered: {label}"))
    }

    /// The epoch index of `label` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `label` was never registered.
    pub fn epoch(&self, label: &Label, time: SimTime) -> u64 {
        self.registered(label).epoch(time)
    }

    /// The ground-truth value of `label` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `label` was never registered.
    pub fn value(&self, label: &Label, time: SimTime) -> bool {
        let registered = self.registered(label);
        let mut h = Splitmix(registered.hashed);
        registered.epoch(time).hash(&mut h);
        // Map to [0,1) and compare against prob_true.
        let unit = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
        unit < registered.dynamics.prob_true
    }

    /// The instant `label`'s current epoch (at `time`) ends — when a fresh
    /// measurement taken at `time` stops being valid.
    ///
    /// # Panics
    ///
    /// Panics if `label` was never registered.
    pub fn epoch_end(&self, label: &Label, time: SimTime) -> SimTime {
        let registered = self.registered(label);
        let validity = registered.dynamics.validity.as_micros();
        SimTime::from_micros((registered.epoch(time) + 1).saturating_mul(validity))
    }
}

/// `labels` as a map in label order: the id index has no order to show, and
/// `scenario_golden` pins this text.
impl fmt::Debug for WorldModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels = fmt::from_fn(|f| f.debug_map().entries(self.iter()).finish());
        f.debug_struct("WorldModel")
            .field("seed", &self.seed)
            .field("labels", &labels)
            .finish()
    }
}

/// FxHash-style mix; std's SipHasher with fixed keys would also do, but
/// DefaultHasher's keys are randomized per process, so roll a simple
/// explicit mixer for cross-run stability.
struct Splitmix(u64);

impl Hasher for Splitmix {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self
                .0
                .wrapping_add(b as u64)
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            self.0 = z ^ (z >> 31);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn world_with(label: &str, validity_s: u64, p: f64) -> (WorldModel, Label) {
        let mut w = WorldModel::new(1234);
        let l = Label::new(label);
        w.register(
            l,
            DynamicsClass::Fast,
            SimDuration::from_secs(validity_s),
            p,
        );
        (w, l)
    }

    #[test]
    fn constant_within_epoch() {
        let (w, l) = world_with("x", 10, 0.5);
        let v = w.value(&l, SimTime::ZERO);
        for s in 0..10 {
            assert_eq!(w.value(&l, SimTime::from_secs(s)), v);
        }
    }

    #[test]
    fn epoch_boundaries() {
        let (w, l) = world_with("x", 10, 0.5);
        assert_eq!(w.epoch(&l, SimTime::from_secs(9)), 0);
        assert_eq!(w.epoch(&l, SimTime::from_secs(10)), 1);
        assert_eq!(
            w.epoch_end(&l, SimTime::from_secs(3)),
            SimTime::from_secs(10)
        );
        assert_eq!(
            w.epoch_end(&l, SimTime::from_secs(10)),
            SimTime::from_secs(20)
        );
    }

    #[test]
    fn extreme_probabilities() {
        let (w, l) = world_with("always", 5, 1.0);
        for s in [0, 7, 100, 12345] {
            assert!(w.value(&l, SimTime::from_secs(s)));
        }
        let (w, l) = world_with("never", 5, 0.0);
        for s in [0, 7, 100] {
            assert!(!w.value(&l, SimTime::from_secs(s)));
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let (w1, l) = world_with("x", 10, 0.5);
        let (w2, _) = world_with("x", 10, 0.5);
        for s in 0..100 {
            assert_eq!(
                w1.value(&l, SimTime::from_secs(s)),
                w2.value(&l, SimTime::from_secs(s))
            );
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let l = Label::new("x");
        let mut w1 = WorldModel::new(1);
        let mut w2 = WorldModel::new(2);
        for w in [&mut w1, &mut w2] {
            w.register(l, DynamicsClass::Fast, SimDuration::from_secs(1), 0.5);
        }
        let differs = (0..200)
            .any(|s| w1.value(&l, SimTime::from_secs(s)) != w2.value(&l, SimTime::from_secs(s)));
        assert!(differs);
    }

    #[test]
    fn empirical_probability_tracks_target() {
        let (w, l) = world_with("x", 1, 0.8);
        let trues = (0..2000)
            .filter(|&s| w.value(&l, SimTime::from_secs(s)))
            .count();
        let frac = trues as f64 / 2000.0;
        assert!((frac - 0.8).abs() < 0.05, "empirical {frac} vs target 0.8");
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_label_panics() {
        let w = WorldModel::new(0);
        let _ = w.value(&Label::new("ghost"), SimTime::ZERO);
    }

    #[test]
    fn registry_introspection() {
        let (mut w, _) = world_with("x", 10, 0.5);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        w.register(
            Label::new("y"),
            DynamicsClass::Slow,
            SimDuration::from_secs(100),
            0.9,
        );
        assert_eq!(w.iter().count(), 2);
        let d = w.dynamics(&Label::new("y")).unwrap();
        assert_eq!(d.class, DynamicsClass::Slow);
    }

    proptest! {
        /// Values only change at epoch boundaries.
        #[test]
        fn changes_only_at_boundaries(validity_s in 1u64..30, t in 0u64..10_000) {
            let (w, l) = world_with("x", validity_s, 0.5);
            let t1 = SimTime::from_secs(t);
            let t2 = SimTime::from_secs(t + 1);
            if w.epoch(&l, t1) == w.epoch(&l, t2) {
                prop_assert_eq!(w.value(&l, t1), w.value(&l, t2));
            }
        }
    }
}
