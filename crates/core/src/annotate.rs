//! Annotators: entities that turn evidence into label values (§II-B).
//!
//! "An annotator could be a human analyst receiving a picture of route
//! segment A, and setting the corresponding label, viableA, to true or
//! false … Alternatively, an annotator could be a machine vision algorithm
//! performing the same function." In the reproduction, annotators consult
//! the ground-truth [`WorldModel`] *at the object's sampling time* — the
//! picture shows the world as it was when taken. Noisy and adversarial
//! variants support the reliability experiments of §IV-B.
//!
//! Following the paper's prototype, predicate evaluation happens at the
//! query source ("we restrict predicate evaluators to sources of the
//! query", §VI-C), so each Athena node owns one annotator used for its own
//! queries.

use crate::object::EvidenceObject;
use dde_logic::label::Label;
use dde_netsim::topology::NodeId;
use dde_workload::world::WorldModel;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Turns evidence objects into label judgments.
pub trait Annotator: std::fmt::Debug {
    /// Judges `label` from `object`'s evidence, or `None` when the object
    /// does not cover the label. The world is consulted at the object's
    /// sampling time.
    fn annotate(&self, object: &EvidenceObject, label: &Label, world: &WorldModel) -> Option<bool>;
}

/// A perfect annotator: reads the ground truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroundTruthAnnotator;

impl Annotator for GroundTruthAnnotator {
    fn annotate(&self, object: &EvidenceObject, label: &Label, world: &WorldModel) -> Option<bool> {
        if !object.covers_label(label) {
            return None;
        }
        Some(world.value(label, object.sampled_at))
    }
}

/// An annotator that misjudges each (object, label) pair independently with
/// probability `flip_prob`, deterministically per seed.
#[derive(Debug, Clone, Copy)]
pub struct NoisyAnnotator {
    seed: u64,
    flip_prob: f64,
}

impl NoisyAnnotator {
    /// Creates a noisy annotator.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= flip_prob <= 1.0`.
    pub fn new(seed: u64, flip_prob: f64) -> NoisyAnnotator {
        assert!((0.0..=1.0).contains(&flip_prob), "flip_prob out of range");
        NoisyAnnotator { seed, flip_prob }
    }
}

impl Annotator for NoisyAnnotator {
    fn annotate(&self, object: &EvidenceObject, label: &Label, world: &WorldModel) -> Option<bool> {
        let truth = GroundTruthAnnotator.annotate(object, label, world)?;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.seed.hash(&mut h);
        object.name.to_string().hash(&mut h);
        object.sampled_at.as_micros().hash(&mut h);
        label.as_str().hash(&mut h);
        let unit = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
        Some(if unit < self.flip_prob { !truth } else { truth })
    }
}

/// Inverts judgments for evidence originating at the listed sources —
/// models consistently faulty or compromised sensors, the situation the
/// paper's source-reliability profiles (§IV-B) are designed to catch.
#[derive(Debug, Clone)]
pub struct BiasedSourcesAnnotator {
    bad_sources: BTreeSet<NodeId>,
}

impl BiasedSourcesAnnotator {
    /// Creates an annotator that misreads evidence from `bad_sources`.
    pub fn new<I: IntoIterator<Item = NodeId>>(bad_sources: I) -> BiasedSourcesAnnotator {
        BiasedSourcesAnnotator {
            bad_sources: bad_sources.into_iter().collect(),
        }
    }
}

impl Annotator for BiasedSourcesAnnotator {
    fn annotate(&self, object: &EvidenceObject, label: &Label, world: &WorldModel) -> Option<bool> {
        let truth = GroundTruthAnnotator.annotate(object, label, world)?;
        Some(if self.bad_sources.contains(&object.source) {
            !truth
        } else {
            truth
        })
    }
}

/// An adversarial annotator: always lies.
#[derive(Debug, Clone, Copy, Default)]
pub struct LyingAnnotator;

impl Annotator for LyingAnnotator {
    fn annotate(&self, object: &EvidenceObject, label: &Label, world: &WorldModel) -> Option<bool> {
        GroundTruthAnnotator
            .annotate(object, label, world)
            .map(|v| !v)
    }
}

/// Trust policy over annotator signatures (§III-B: "the label values
/// computed by different annotators will be signed by the annotator. Such
/// signatures can be used to determine if a particular cached label meets
/// the trust requirements of the source").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TrustPolicy {
    /// Accept labels signed by any annotator.
    #[default]
    TrustAll,
    /// Accept only labels signed by the listed annotators.
    TrustOnly(BTreeSet<NodeId>),
    /// Never accept shared labels; always insist on raw evidence.
    TrustNone,
}

impl TrustPolicy {
    /// Whether a label signed by `annotator` is acceptable.
    pub fn accepts(&self, annotator: NodeId) -> bool {
        match self {
            TrustPolicy::TrustAll => true,
            TrustPolicy::TrustOnly(set) => set.contains(&annotator),
            TrustPolicy::TrustNone => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_logic::time::{SimDuration, SimTime};
    use dde_workload::world::DynamicsClass;

    fn setup() -> (WorldModel, EvidenceObject, Label) {
        let mut world = WorldModel::new(5);
        let label = Label::new("viable/x");
        world.register(label, DynamicsClass::Fast, SimDuration::from_secs(10), 0.5);
        let object = EvidenceObject {
            name: "/cam/a".parse().unwrap(),
            covers: vec![label],
            size: 1000,
            source: NodeId(0),
            sampled_at: SimTime::from_secs(3),
            validity: SimDuration::from_secs(10),
        };
        (world, object, label)
    }

    #[test]
    fn ground_truth_reads_world_at_sampling_time() {
        let (world, mut object, label) = setup();
        let v = GroundTruthAnnotator
            .annotate(&object, &label, &world)
            .unwrap();
        assert_eq!(v, world.value(&label, SimTime::from_secs(3)));
        // A sample from a different epoch may read differently but always
        // reflects its own sampling time.
        object.sampled_at = SimTime::from_secs(25);
        let v2 = GroundTruthAnnotator
            .annotate(&object, &label, &world)
            .unwrap();
        assert_eq!(v2, world.value(&label, SimTime::from_secs(25)));
    }

    #[test]
    fn uncovered_label_yields_none() {
        let (world, object, _) = setup();
        assert!(GroundTruthAnnotator
            .annotate(&object, &Label::new("other"), &world)
            .is_none());
    }

    #[test]
    fn lying_annotator_inverts() {
        let (world, object, label) = setup();
        let truth = GroundTruthAnnotator.annotate(&object, &label, &world);
        let lie = LyingAnnotator.annotate(&object, &label, &world);
        assert_eq!(truth.map(|v| !v), lie);
    }

    #[test]
    fn noisy_annotator_extremes() {
        let (world, object, label) = setup();
        let truth = GroundTruthAnnotator.annotate(&object, &label, &world);
        assert_eq!(
            NoisyAnnotator::new(1, 0.0).annotate(&object, &label, &world),
            truth
        );
        assert_eq!(
            NoisyAnnotator::new(1, 1.0).annotate(&object, &label, &world),
            truth.map(|v| !v)
        );
    }

    #[test]
    fn noisy_annotator_deterministic_and_roughly_calibrated() {
        let (world, mut object, label) = setup();
        let noisy = NoisyAnnotator::new(9, 0.3);
        let mut flips = 0;
        let n = 1000;
        for k in 0..n {
            object.sampled_at = SimTime::from_secs(k);
            let truth = GroundTruthAnnotator
                .annotate(&object, &label, &world)
                .unwrap();
            let got = noisy.annotate(&object, &label, &world).unwrap();
            let again = noisy.annotate(&object, &label, &world).unwrap();
            assert_eq!(got, again, "determinism");
            if got != truth {
                flips += 1;
            }
        }
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.06, "flip rate {rate}");
    }

    #[test]
    fn biased_sources_annotator_flips_only_bad_sources() {
        let (world, mut object, label) = setup();
        let biased = BiasedSourcesAnnotator::new([NodeId(7)]);
        let truth = GroundTruthAnnotator.annotate(&object, &label, &world);
        assert_eq!(biased.annotate(&object, &label, &world), truth);
        object.source = NodeId(7);
        assert_eq!(biased.annotate(&object, &label, &world), truth.map(|v| !v));
    }

    #[test]
    fn trust_policies() {
        assert!(TrustPolicy::TrustAll.accepts(NodeId(3)));
        assert!(!TrustPolicy::TrustNone.accepts(NodeId(3)));
        let only = TrustPolicy::TrustOnly([NodeId(1), NodeId(2)].into_iter().collect());
        assert!(only.accepts(NodeId(1)));
        assert!(!only.accepts(NodeId(3)));
        assert_eq!(TrustPolicy::default(), TrustPolicy::TrustAll);
    }

    #[test]
    #[should_panic(expected = "flip_prob out of range")]
    fn invalid_flip_prob() {
        let _ = NoisyAnnotator::new(0, 1.5);
    }
}
