//! Lookups by interned id, for the catalog and the world model.
//!
//! A catalog or world lookup needs only identity, and an id compare is one
//! integer compare where a rank compare reads this thread's rank snapshot
//! (see [`dde_logic::symbol`]). Ids are handed out in first-seen order, so
//! id order would leak interning history: these types have `get` and
//! `insert` and no iterator, and whatever a run shows in order
//! ([`Catalog::covered_labels`](crate::catalog::Catalog::covered_labels),
//! [`WorldModel::iter`](crate::world::WorldModel::iter), `Debug`) is
//! sorted by label or name first.

use core::cmp::Ordering;
use dde_logic::label::Label;
use dde_naming::name::Name;
use std::collections::BTreeMap;

/// Values keyed by label id: slot `id` holds the label's value. The slots
/// run up to the largest id inserted, so their number is bounded by the
/// labels the process has interned, object names rendered as labels
/// included.
#[derive(Clone)]
pub(crate) struct LabelIndex<V> {
    slots: Vec<Option<V>>,
}

impl<V> Default for LabelIndex<V> {
    fn default() -> Self {
        LabelIndex { slots: Vec::new() }
    }
}

impl<V> LabelIndex<V> {
    pub(crate) fn get(&self, label: Label) -> Option<&V> {
        self.slots.get(label.id() as usize)?.as_ref()
    }

    /// Stores `value` for `label`, returning the value it replaces.
    pub(crate) fn insert(&mut self, label: Label, value: V) -> Option<V> {
        self.slot(label).replace(value)
    }

    /// The value for `label`, made by `make` first if there is none.
    pub(crate) fn get_or_insert_with(&mut self, label: Label, make: impl FnOnce() -> V) -> &mut V {
        self.slot(label).get_or_insert_with(make)
    }

    fn slot(&mut self, label: Label) -> &mut Option<V> {
        let id = label.id() as usize;
        if id >= self.slots.len() {
            self.slots.resize_with(id + 1, || None);
        }
        &mut self.slots[id]
    }
}

/// Values keyed by a name's component ids.
#[derive(Clone)]
pub(crate) struct NameIndex<V> {
    map: BTreeMap<ById, V>,
}

impl<V> Default for NameIndex<V> {
    fn default() -> Self {
        NameIndex {
            map: BTreeMap::new(),
        }
    }
}

impl<V> NameIndex<V> {
    /// Looks `name` up by its component ids. Wrapping it clones an `Arc`,
    /// which bumps a count and allocates nothing.
    pub(crate) fn get(&self, name: &Name) -> Option<&V> {
        self.map.get(&ById(name.clone()))
    }

    /// Stores `value` for `name`, returning the value it replaces.
    pub(crate) fn insert(&mut self, name: Name, value: V) -> Option<V> {
        self.map.insert(ById(name), value)
    }
}

/// A name ordered by its component ids instead of their ranks.
#[derive(Clone, PartialEq, Eq)]
struct ById(Name);

impl Ord for ById {
    fn cmp(&self, other: &Self) -> Ordering {
        let ids = self.0.components().iter().map(|s| s.id());
        ids.cmp(other.0.components().iter().map(|s| s.id()))
    }
}

impl PartialOrd for ById {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
