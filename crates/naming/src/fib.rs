//! The Pending Interest Table (§VI-B).
//!
//! "Each node maintains an *Interest Table* that keeps track of which data
//! objects have been requested by which sources for what queries" — the
//! [`Pit`], which also suppresses duplicate downstream requests. Routing is
//! not name-based here: a node forwards along its topology's next hop.

use crate::name::Name;
use dde_logic::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// One pending-interest record: who asked for an object, for which query.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Interest<N, Q> {
    /// The neighbor (or local marker) that asked.
    pub requester: N,
    /// The query on whose behalf the request was made.
    pub query: Q,
    /// When the interest lapses.
    pub expires_at: SimTime,
}

/// Pending Interest Table: object name → set of interests.
#[derive(Debug, Clone)]
pub struct Pit<N, Q> {
    entries: BTreeMap<Name, BTreeSet<Interest<N, Q>>>,
    len: usize,
    /// No pending interest lapses before this instant: a lower bound on the
    /// earliest `expires_at` in the table (`SimTime::MAX` when that is
    /// vacuous). `register` lowers it, `take` leaves it (removing interests
    /// cannot make the earliest one earlier), and only a sweep in `expire`
    /// raises it, to the exact minimum over the survivors.
    lapse_bound: SimTime,
}

impl<N, Q> Default for Pit<N, Q> {
    fn default() -> Self {
        Pit {
            entries: BTreeMap::new(),
            len: 0,
            lapse_bound: SimTime::MAX,
        }
    }
}

impl<N, Q> Pit<N, Q>
where
    N: Ord + Clone,
    Q: Ord + Clone,
{
    /// Creates an empty PIT.
    pub fn new() -> Pit<N, Q> {
        Pit::default()
    }

    /// Records an interest in `name`. Returns `true` if this is the *first*
    /// pending interest for the name — i.e. the request should be forwarded
    /// downstream; further interests are aggregated ("avoid passing along
    /// unnecessary duplicate data object requests", §VI-B).
    pub fn register(&mut self, name: &Name, requester: N, query: Q, expires_at: SimTime) -> bool {
        let interest = Interest {
            requester,
            query,
            expires_at,
        };
        self.lapse_bound = self.lapse_bound.min(expires_at);
        match self.entries.get_mut(name) {
            Some(set) => {
                if set.insert(interest) {
                    self.len += 1;
                }
                false
            }
            None => {
                self.entries
                    .insert(name.clone(), BTreeSet::from([interest]));
                self.len += 1;
                true
            }
        }
    }

    /// Consumes and returns all interests pending on exactly `name`
    /// (typically upon data arrival, to fan the object back out).
    pub fn take(&mut self, name: &Name) -> Vec<Interest<N, Q>> {
        match self.entries.remove(name) {
            Some(set) => {
                self.len -= set.len();
                set.into_iter().collect()
            }
            None => Vec::new(),
        }
    }

    /// Interests pending on exactly `name`, without consuming them.
    pub fn peek(&self, name: &Name) -> impl Iterator<Item = &Interest<N, Q>> {
        self.entries.get(name).into_iter().flatten()
    }

    /// Whether any interest is pending on exactly `name`.
    pub fn has_pending(&self, name: &Name) -> bool {
        self.entries.get(name).is_some_and(|s| !s.is_empty())
    }

    /// Drops interests that have lapsed by `now`; returns how many were
    /// dropped. While `now` has not passed the table's lapse bound nothing
    /// can have lapsed, and the table is not touched.
    pub fn expire(&mut self, now: SimTime) -> usize {
        if now <= self.lapse_bound {
            return 0;
        }
        let mut dropped = 0;
        let mut earliest = SimTime::MAX;
        self.entries.retain(|_, set| {
            let before = set.len();
            set.retain(|i| i.expires_at >= now);
            dropped += before - set.len();
            earliest = set.iter().map(|i| i.expires_at).fold(earliest, Ord::min);
            !set.is_empty()
        });
        self.len -= dropped;
        self.lapse_bound = earliest;
        dropped
    }

    /// Total number of pending interests (across all names).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    #[test]
    fn pit_aggregates_duplicates() {
        let mut pit: Pit<u32, u32> = Pit::new();
        // First interest → forward.
        assert!(pit.register(&n("/obj"), 1, 100, t(10)));
        // Second requester → aggregate, don't forward.
        assert!(!pit.register(&n("/obj"), 2, 100, t(10)));
        // Same requester, same query, later expiry → new record, no forward.
        assert!(!pit.register(&n("/obj"), 1, 100, t(20)));
        assert_eq!(pit.len(), 3);
        assert!(pit.has_pending(&n("/obj")));
        assert!(!pit.has_pending(&n("/other")));
    }

    #[test]
    fn pit_take_consumes_all() {
        let mut pit: Pit<u32, u32> = Pit::new();
        pit.register(&n("/obj"), 1, 100, t(10));
        pit.register(&n("/obj"), 2, 101, t(10));
        let interests = pit.take(&n("/obj"));
        assert_eq!(interests.len(), 2);
        assert!(pit.is_empty());
        assert!(pit.take(&n("/obj")).is_empty());
        // Registering again counts as first once more.
        assert!(pit.register(&n("/obj"), 3, 102, t(20)));
    }

    #[test]
    fn pit_expire_drops_lapsed() {
        let mut pit: Pit<u32, u32> = Pit::new();
        pit.register(&n("/a"), 1, 1, t(5));
        pit.register(&n("/a"), 2, 2, t(50));
        pit.register(&n("/b"), 3, 3, t(5));
        assert_eq!(pit.expire(t(10)), 2);
        assert_eq!(pit.len(), 1);
        assert!(pit.has_pending(&n("/a")));
        assert!(!pit.has_pending(&n("/b")));
        // Expired names with no residue are removed entirely; registering /b
        // again forwards.
        assert!(pit.register(&n("/b"), 4, 4, t(60)));
    }

    /// While nothing can have lapsed, `expire` leaves the table alone — and
    /// says so by the same count a sweep would.
    #[test]
    fn pit_expire_before_the_lapse_bound_is_a_no_op() {
        let mut pit: Pit<u32, u32> = Pit::new();
        assert_eq!(pit.expire(t(1_000)), 0, "empty table");
        pit.register(&n("/a"), 1, 1, t(50));
        pit.register(&n("/b"), 2, 2, t(20));
        assert_eq!(pit.lapse_bound, t(20));
        // An interest lapses strictly after `expires_at`.
        assert_eq!(pit.expire(t(20)), 0);
        assert_eq!(pit.len(), 2);
        // Taking the earliest leaves the bound low; the next sweep finds
        // nothing to drop and raises it to the true minimum.
        assert_eq!(pit.take(&n("/b")).len(), 1);
        assert_eq!(pit.lapse_bound, t(20));
        assert_eq!(pit.expire(t(30)), 0);
        assert_eq!(pit.lapse_bound, t(50));
        assert_eq!(pit.expire(t(51)), 1);
        assert!(pit.is_empty());
        assert_eq!(pit.lapse_bound, SimTime::MAX);
    }

    #[test]
    fn pit_peek_does_not_consume() {
        let mut pit: Pit<u32, u32> = Pit::new();
        pit.register(&n("/a"), 1, 7, t(5));
        assert_eq!(pit.peek(&n("/a")).count(), 1);
        assert_eq!(pit.len(), 1);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The table without the bound: every `expire` sweeps every name.
        #[derive(Default)]
        struct NaivePit {
            entries: BTreeMap<Name, Vec<Interest<u32, u32>>>,
        }

        impl NaivePit {
            fn register(&mut self, name: &Name, interest: Interest<u32, u32>) -> bool {
                let first = !self.entries.contains_key(name);
                let set = self.entries.entry(name.clone()).or_default();
                if !set.contains(&interest) {
                    set.push(interest);
                    set.sort();
                }
                first
            }

            fn take(&mut self, name: &Name) -> Vec<Interest<u32, u32>> {
                self.entries.remove(name).unwrap_or_default()
            }

            fn expire(&mut self, now: SimTime) -> usize {
                let before = self.len();
                for set in self.entries.values_mut() {
                    set.retain(|i| i.expires_at >= now);
                }
                self.entries.retain(|_, set| !set.is_empty());
                before - self.len()
            }

            fn len(&self) -> usize {
                self.entries.values().map(Vec::len).sum()
            }

            fn earliest(&self) -> Option<SimTime> {
                self.entries.values().flatten().map(|i| i.expires_at).min()
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Register {
                name: usize,
                requester: u32,
                query: u32,
                lifetime: u64,
            },
            Take(usize),
            /// Advance the clock, then expire.
            Expire(u64),
            HasPending(usize),
        }

        fn op() -> BoxedStrategy<Op> {
            prop_oneof![
                (0usize..6, 0u32..3, 0u32..3, 0u64..40).prop_map(
                    |(name, requester, query, lifetime)| Op::Register {
                        name,
                        requester,
                        query,
                        lifetime
                    }
                ),
                (0usize..6).prop_map(Op::Take),
                (0u64..15).prop_map(Op::Expire),
                (0usize..6).prop_map(Op::HasPending),
            ]
            .boxed()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn pit_agrees_with_a_table_that_always_sweeps(
                ops in prop::collection::vec(op(), 1..80)
            ) {
                let names: Vec<Name> = ["/a", "/a/b", "/a/c", "/d", "/d/e/f", "/g"]
                    .iter()
                    .map(|s| n(s))
                    .collect();
                let mut pit: Pit<u32, u32> = Pit::new();
                let mut naive = NaivePit::default();
                let mut now = 0u64;
                for op in &ops {
                    match *op {
                        Op::Register { name, requester, query, lifetime } => {
                            let expires_at = t(now + lifetime);
                            let interest = Interest { requester, query, expires_at };
                            prop_assert_eq!(
                                pit.register(&names[name], requester, query, expires_at),
                                naive.register(&names[name], interest),
                                "{:?}", op
                            );
                        }
                        Op::Take(name) => {
                            prop_assert_eq!(
                                pit.take(&names[name]),
                                naive.take(&names[name]),
                                "{:?}", op
                            );
                        }
                        Op::Expire(dt) => {
                            now += dt;
                            prop_assert_eq!(pit.expire(t(now)), naive.expire(t(now)), "{:?}", op);
                        }
                        Op::HasPending(name) => {
                            prop_assert_eq!(
                                pit.has_pending(&names[name]),
                                naive.entries.contains_key(&names[name]),
                                "{:?}", op
                            );
                        }
                    }
                    prop_assert_eq!(pit.len(), naive.len(), "{:?}", op);
                    prop_assert_eq!(pit.is_empty(), naive.len() == 0);
                    for name in &names {
                        let survivors: Vec<_> = pit.peek(name).cloned().collect();
                        let expected = naive.entries.get(name).cloned().unwrap_or_default();
                        prop_assert_eq!(survivors, expected, "{} after {:?}", name, op);
                    }
                    prop_assert!(
                        pit.lapse_bound <= naive.earliest().unwrap_or(SimTime::MAX),
                        "bound {} is later than the earliest lapse after {:?}",
                        pit.lapse_bound, op
                    );
                }
            }
        }
    }
}
