//! The evidence-object catalog: who can supply which evidence (§II-B).
//!
//! "Sources that originate data, such as sensors, must advertise the type of
//! data they generate and the label names that their data objects help
//! resolve." The catalog is the global registry of advertised objects that
//! the lookup service (refs \[8,9]) would provide in a deployment.

use crate::by_id::{LabelIndex, NameIndex};
use crate::world::DynamicsClass;
use core::fmt;
use dde_logic::label::Label;
use dde_logic::time::SimDuration;
use dde_naming::name::Name;
use dde_netsim::topology::NodeId;

/// An advertised evidence object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSpec {
    /// Hierarchical content name.
    pub name: Name,
    /// Labels this object's evidence can resolve (a camera picture may cover
    /// several nearby road segments at once).
    pub covers: Vec<Label>,
    /// Object size in bytes (the retrieval cost).
    pub size: u64,
    /// The node hosting the sensor.
    pub source: NodeId,
    /// Dynamics class of the measured phenomenon.
    pub class: DynamicsClass,
    /// Validity interval of a fresh sample.
    pub validity: SimDuration,
}

/// Index of all advertised objects.
///
/// Lookups by label and by name compare interned ids, never ranks; what is
/// shown in order — [`Catalog::covered_labels`] and the `Debug` text — is
/// sorted by label or name.
#[derive(Clone, Default)]
pub struct Catalog {
    objects: Vec<ObjectSpec>,
    // names[i] is objects[i].name rendered once, in the form planners key
    // retrieval items and learned estimates by.
    names: Vec<Label>,
    by_label: LabelIndex<Vec<usize>>,
    by_name: NameIndex<usize>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers an object, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if an object with the same name is already registered.
    pub fn add(&mut self, spec: ObjectSpec) -> usize {
        let idx = self.objects.len();
        let prev = self.by_name.insert(spec.name.clone(), idx);
        assert!(prev.is_none(), "duplicate object name: {}", spec.name);
        for l in &spec.covers {
            self.by_label.get_or_insert_with(*l, Vec::new).push(idx);
        }
        self.names.push(Label::new(spec.name.to_string()));
        self.objects.push(spec);
        idx
    }

    /// All objects, in registration order.
    pub fn objects(&self) -> &[ObjectSpec] {
        &self.objects
    }

    /// The object with index `idx`.
    pub fn get(&self, idx: usize) -> &ObjectSpec {
        &self.objects[idx]
    }

    /// Object `idx`'s name as rendered text, interned once: copying it is
    /// free, where `get(idx).name.to_string()` formats and allocates.
    pub fn rendered_name(&self, idx: usize) -> &Label {
        &self.names[idx]
    }

    /// The object with the given name.
    pub fn by_name(&self, name: &Name) -> Option<&ObjectSpec> {
        self.by_name.get(name).map(|&i| &self.objects[i])
    }

    /// Indices of objects whose evidence can resolve `label`, in
    /// registration order.
    pub fn providers_of(&self, label: &Label) -> &[usize] {
        self.by_label.get(*label).map_or(&[], Vec::as_slice)
    }

    /// The cheapest (smallest) provider of `label`, if any; the first name
    /// in name order breaks a tie.
    pub fn cheapest_provider(&self, label: &Label) -> Option<&ObjectSpec> {
        self.providers_of(label)
            .iter()
            .map(|&i| &self.objects[i])
            .min_by(|a, b| a.size.cmp(&b.size).then_with(|| a.name.cmp(&b.name)))
    }

    /// All labels with at least one provider, in label order.
    pub fn covered_labels(&self) -> impl Iterator<Item = &Label> {
        let mut labels: Vec<&Label> = self.objects.iter().flat_map(|o| &o.covers).collect();
        labels.sort_unstable();
        labels.dedup();
        labels.into_iter()
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

/// `by_label` in label order and `by_name` in name order: the id indexes
/// have no order to show, and `scenario_golden` pins this text.
impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let by_label = fmt::from_fn(|f| {
            f.debug_map()
                .entries(self.covered_labels().map(|l| (l, self.providers_of(l))))
                .finish()
        });
        let by_name = fmt::from_fn(|f| {
            let mut names: Vec<(&Name, usize)> =
                self.objects.iter().map(|o| &o.name).zip(0..).collect();
            names.sort_unstable();
            f.debug_map().entries(names).finish()
        });
        f.debug_struct("Catalog")
            .field("objects", &self.objects)
            .field("names", &self.names)
            .field("by_label", &by_label)
            .field("by_name", &by_name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, covers: &[&str], size: u64, node: usize) -> ObjectSpec {
        ObjectSpec {
            name: name.parse().unwrap(),
            covers: covers.iter().map(|s| Label::new(*s)).collect(),
            size,
            source: NodeId(node),
            class: DynamicsClass::Slow,
            validity: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        let i0 = c.add(spec("/cam/0", &["segA", "segB"], 500, 0));
        let i1 = c.add(spec("/cam/1", &["segB"], 200, 1));
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.providers_of(&Label::new("segB")), &[0, 1]);
        assert_eq!(c.providers_of(&Label::new("segA")), &[0]);
        assert!(c.providers_of(&Label::new("ghost")).is_empty());
        assert_eq!(c.by_name(&"/cam/1".parse().unwrap()).unwrap().size, 200);
        for (i, o) in c.objects().iter().enumerate() {
            assert_eq!(c.rendered_name(i).as_str(), o.name.to_string());
        }
        assert!(c.by_name(&"/cam/9".parse().unwrap()).is_none());
    }

    #[test]
    fn cheapest_provider_picks_smallest() {
        let mut c = Catalog::new();
        c.add(spec("/cam/0", &["segB"], 500, 0));
        c.add(spec("/cam/1", &["segB"], 200, 1));
        assert_eq!(
            c.cheapest_provider(&Label::new("segB")).unwrap().name,
            "/cam/1".parse().unwrap()
        );
        assert!(c.cheapest_provider(&Label::new("ghost")).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate object name")]
    fn duplicate_name_rejected() {
        let mut c = Catalog::new();
        c.add(spec("/cam/0", &["a"], 1, 0));
        c.add(spec("/cam/0", &["b"], 2, 0));
    }

    #[test]
    fn covered_labels_sorted() {
        let mut c = Catalog::new();
        c.add(spec("/cam/0", &["z", "a"], 1, 0));
        let labels: Vec<_> = c.covered_labels().map(Label::as_str).collect();
        assert_eq!(labels, vec!["a", "z"]);
    }
}
