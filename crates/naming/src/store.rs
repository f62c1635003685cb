//! Freshness-aware content store (§VI-B/C).
//!
//! "Each node also serves as a data cache … Cached data objects will decay
//! over time, and eventually expire as they reach their freshness deadlines
//! (age out of their validity intervals)." The store is capacity-bounded in
//! bytes; eviction prefers expired entries, then least-recently-used.

use crate::name::Name;
use dde_logic::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A cached object's bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredObject<T> {
    /// The payload (typically object metadata or bytes).
    pub value: T,
    /// Size charged against store capacity.
    pub size: u64,
    /// When the underlying measurement was sampled.
    pub sampled_at: SimTime,
    /// Validity interval of the measurement.
    pub validity: SimDuration,
    last_used: SimTime,
}

impl<T> StoredObject<T> {
    /// The instant the entry stops being fresh.
    pub fn expires_at(&self) -> SimTime {
        self.sampled_at.saturating_add(self.validity)
    }

    /// Whether the entry is fresh at `now`.
    pub fn is_fresh_at(&self, now: SimTime) -> bool {
        now <= self.expires_at()
    }
}

/// A byte-capacity-bounded, freshness-aware cache keyed by [`Name`].
///
/// # Examples
///
/// ```
/// use dde_naming::store::ContentStore;
/// use dde_logic::time::{SimDuration, SimTime};
///
/// let mut cs = ContentStore::new(1_000_000);
/// let name = "/city/cam1".parse()?;
/// cs.insert(&name, "jpeg", 300_000, SimTime::ZERO, SimDuration::from_secs(60));
/// assert!(cs.get_fresh(&name, SimTime::from_secs(30)).is_some());
/// assert!(cs.get_fresh(&name, SimTime::from_secs(90)).is_none()); // expired
/// # Ok::<(), dde_naming::name::NameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContentStore<T> {
    capacity: u64,
    used: u64,
    entries: BTreeMap<Name, StoredObject<T>>,
    /// Cumulative eviction count (for metrics).
    pub evictions: u64,
}

impl<T> ContentStore<T> {
    /// Creates a store holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> ContentStore<T> {
        ContentStore {
            capacity: capacity_bytes,
            used: 0,
            entries: BTreeMap::new(),
            evictions: 0,
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// The configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts an object, evicting as needed. Objects larger than the whole
    /// store are not cached (returns `false`). Re-inserting an existing name
    /// replaces the entry.
    pub fn insert(
        &mut self,
        name: &Name,
        value: T,
        size: u64,
        sampled_at: SimTime,
        validity: SimDuration,
    ) -> bool {
        if size > self.capacity {
            return false;
        }
        if let Some(old) = self.entries.remove(name) {
            self.used -= old.size;
        }
        // Evict until it fits: expired entries first (oldest expiry first),
        // then strict LRU.
        while self.used + size > self.capacity {
            let Some(victim) = self.pick_victim(sampled_at) else {
                break;
            };
            let Some(old) = self.entries.remove(&victim) else {
                break; // unreachable: the victim was drawn from `entries`
            };
            self.used -= old.size;
            self.evictions += 1;
        }
        debug_assert!(self.used + size <= self.capacity);
        self.entries.insert(
            name.clone(),
            StoredObject {
                value,
                size,
                sampled_at,
                validity,
                last_used: sampled_at,
            },
        );
        self.used += size;
        true
    }

    fn pick_victim(&self, now: SimTime) -> Option<Name> {
        // Expired first (earliest expiry), else LRU; ties by name for
        // determinism.
        let expired = self
            .entries
            .iter()
            .filter(|(_, o)| !o.is_fresh_at(now))
            .min_by_key(|(n, o)| (o.expires_at(), (*n).clone()))
            .map(|(n, _)| n.clone());
        expired.or_else(|| {
            self.entries
                .iter()
                .min_by_key(|(n, o)| (o.last_used, (*n).clone()))
                .map(|(n, _)| n.clone())
        })
    }

    /// Returns the entry for `name` if present *and fresh* at `now`,
    /// updating its LRU stamp.
    pub fn get_fresh(&mut self, name: &Name, now: SimTime) -> Option<&StoredObject<T>> {
        let entry = self.entries.get_mut(name)?;
        if !entry.is_fresh_at(now) {
            return None;
        }
        entry.last_used = now;
        Some(&*entry)
    }

    /// Returns the entry for `name` regardless of freshness, without
    /// touching LRU state.
    pub fn peek(&self, name: &Name) -> Option<&StoredObject<T>> {
        self.entries.get(name)
    }

    /// Removes the entry for `name`.
    pub fn remove(&mut self, name: &Name) -> Option<T> {
        let old = self.entries.remove(name)?;
        self.used -= old.size;
        Some(old.value)
    }

    /// Iterates over `(name, entry)` pairs in ascending name order — a
    /// *defined* order, so consumers cannot inherit replay-breaking
    /// iteration nondeterminism from the store.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &StoredObject<T>)> {
        self.entries.iter()
    }

    /// The fresh entry (at `now`) whose name shares the longest prefix with
    /// `name`, requiring at least `min_shared` shared components — the
    /// approximate-substitution lookup of §V-A against live cache contents.
    pub fn closest_fresh(
        &self,
        name: &Name,
        now: SimTime,
        min_shared: usize,
    ) -> Option<(&Name, &StoredObject<T>)> {
        self.entries
            .iter()
            .filter(|(_, o)| o.is_fresh_at(now))
            .map(|(n, o)| (n.shared_prefix_len(name), n, o))
            .filter(|(shared, _, _)| *shared >= min_shared)
            .max_by(|(sa, na, _), (sb, nb, _)| sa.cmp(sb).then_with(|| nb.cmp(na)))
            .map(|(_, n, o)| (n, o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn insert_get_expire() {
        let mut cs = ContentStore::new(1000);
        assert!(cs.insert(&n("/a"), 1, 100, t(0), d(10)));
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.used_bytes(), 100);
        assert!(cs.get_fresh(&n("/a"), t(5)).is_some());
        assert!(cs.get_fresh(&n("/a"), t(11)).is_none());
        // Still present (stale), visible via peek.
        assert!(cs.peek(&n("/a")).is_some());
    }

    #[test]
    fn oversized_object_rejected() {
        let mut cs = ContentStore::new(100);
        assert!(!cs.insert(&n("/big"), 1, 101, t(0), d(10)));
        assert!(cs.is_empty());
    }

    #[test]
    fn reinsert_replaces_and_accounts() {
        let mut cs = ContentStore::new(1000);
        cs.insert(&n("/a"), 1, 400, t(0), d(10));
        cs.insert(&n("/a"), 2, 100, t(1), d(10));
        assert_eq!(cs.used_bytes(), 100);
        assert_eq!(cs.get_fresh(&n("/a"), t(2)).unwrap().value, 2);
    }

    #[test]
    fn eviction_prefers_expired() {
        let mut cs = ContentStore::new(300);
        cs.insert(&n("/expired"), 1, 150, t(0), d(1));
        cs.insert(&n("/fresh"), 2, 150, t(0), d(100));
        // At t=50, inserting a 150-byte object must evict /expired.
        assert!(cs.insert(&n("/new"), 3, 150, t(50), d(100)));
        assert!(cs.peek(&n("/expired")).is_none());
        assert!(cs.peek(&n("/fresh")).is_some());
        assert_eq!(cs.evictions, 1);
    }

    #[test]
    fn eviction_falls_back_to_lru() {
        let mut cs = ContentStore::new(300);
        cs.insert(&n("/old"), 1, 150, t(0), d(1000));
        cs.insert(&n("/newer"), 2, 150, t(10), d(1000));
        // Touch /old so /newer becomes LRU.
        cs.get_fresh(&n("/old"), t(20));
        assert!(cs.insert(&n("/third"), 3, 150, t(30), d(1000)));
        assert!(
            cs.peek(&n("/newer")).is_none(),
            "LRU victim should be /newer"
        );
        assert!(cs.peek(&n("/old")).is_some());
    }

    #[test]
    fn remove_returns_value() {
        let mut cs = ContentStore::new(1000);
        cs.insert(&n("/a"), 42, 10, t(0), d(1));
        assert_eq!(cs.remove(&n("/a")), Some(42));
        assert_eq!(cs.remove(&n("/a")), None);
        assert_eq!(cs.used_bytes(), 0);
    }

    #[test]
    fn closest_fresh_substitution() {
        let mut cs = ContentStore::new(10_000);
        cs.insert(&n("/city/market/cam2"), 1, 10, t(0), d(100));
        cs.insert(&n("/city/market/cam3"), 2, 10, t(0), d(1)); // will expire
        let got = cs.closest_fresh(&n("/city/market/cam1"), t(50), 2);
        let (name, obj) = got.unwrap();
        assert_eq!(*name, n("/city/market/cam2"));
        assert_eq!(obj.value, 1);
        // Below min_shared threshold: nothing.
        assert!(cs.closest_fresh(&n("/rural/cam"), t(50), 1).is_none());
    }

    /// Regression test for the latent replay hazard of a hashed store:
    /// the store used to be `HashMap`-keyed with `iter()` documented as
    /// "arbitrary order", so any consumer folding over it inherited std's
    /// per-instance-seeded iteration order — identical seeds could produce
    /// different `RunReport`s. `iter()` must yield a *defined* order
    /// (ascending by name), independent of insertion order.
    #[test]
    fn iteration_order_is_defined_and_insertion_independent() {
        let names = ["/g", "/c", "/a", "/h", "/e", "/b", "/f", "/d"];
        let mut forward = ContentStore::new(10_000);
        for (i, s) in names.iter().enumerate() {
            forward.insert(&n(s), i, 10, t(0), d(100));
        }
        let mut reverse = ContentStore::new(10_000);
        for (i, s) in names.iter().rev().enumerate() {
            reverse.insert(&n(s), i, 10, t(0), d(100));
        }
        let fwd: Vec<Name> = forward.iter().map(|(k, _)| k.clone()).collect();
        let rev: Vec<Name> = reverse.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = names.map(n).to_vec();
        sorted.sort();
        assert_eq!(fwd, sorted, "iter() must be ascending by name");
        assert_eq!(
            fwd, rev,
            "iteration order must not depend on insertion order"
        );
    }

    #[test]
    fn eviction_loop_fills_large_insert() {
        let mut cs = ContentStore::new(300);
        cs.insert(&n("/a"), 1, 100, t(0), d(1000));
        cs.insert(&n("/b"), 2, 100, t(1), d(1000));
        cs.insert(&n("/c"), 3, 100, t(2), d(1000));
        // 250-byte insert must evict multiple entries.
        assert!(cs.insert(&n("/d"), 4, 250, t(3), d(1000)));
        assert!(cs.used_bytes() <= 300);
        assert!(cs.peek(&n("/d")).is_some());
        assert!(cs.evictions >= 2);
    }
}
