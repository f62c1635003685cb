//! Hierarchical multi-query scheduling (§IV-A).
//!
//! For multiple independent decision queries (non-overlapping object sets)
//! sharing one channel, prior work (\[1] in the paper) proves the optimal
//! policy is *hierarchical*: assign non-overlapping priority bands to
//! queries, then order objects within each band (Least-Volatile-First).
//!
//! ## Band-priority keys
//!
//! The paper states the optimal band assignment gives highest priority to
//! the query with "the smallest value of the minimum of its object validity
//! expiration times and its decision deadline". Which quantity that minimum
//! is over depends on *when sensors are sampled*:
//!
//! - Under this crate's model — normally-off sensors activated at retrieval
//!   start (§IV-A) — a query's freshness constraints are relative to its own
//!   block and therefore *translation-invariant*: delaying the whole block
//!   delays the activations equally. Only deadlines bind across queries, so
//!   the optimal band order is **earliest deadline first**
//!   ([`BandPolicy::EarliestDeadlineFirst`], property-tested optimal against
//!   exhaustive interleaving search).
//! - When data is (or may already have been) sampled at query arrival — the
//!   situation of a running system holding partially-fresh caches — the
//!   expiration times are anchored at arrival and the paper's key
//!   `min(min_i I_i, D)` applies ([`BandPolicy::MinExpiryOrDeadline`]).
//!   The node does not use this key online: it advances its open queries
//!   in ascending query id. The `ablations` bench compares the two keys.

use crate::feasibility::{analyze, ScheduleAnalysis};
use crate::item::{Channel, RetrievalItem};
use crate::lvf::lvf_order;
use dde_logic::time::{SimDuration, SimTime};

/// One decision query in a multi-query workload.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Objects this query must retrieve (assumed disjoint from other
    /// queries' objects, per the model in \[1]).
    pub items: Vec<RetrievalItem>,
    /// Relative decision deadline.
    pub deadline: SimDuration,
}

impl QuerySpec {
    /// Creates a query spec.
    pub fn new(items: Vec<RetrievalItem>, deadline: SimDuration) -> QuerySpec {
        QuerySpec { items, deadline }
    }

    /// The paper's stated band key: `min(min_i I_i, D)`. Smaller = more
    /// urgent. Appropriate when measurements are sampled at query arrival.
    pub fn urgency_key(&self) -> SimDuration {
        self.items
            .iter()
            .map(|i| i.validity)
            .min()
            .unwrap_or(SimDuration::MAX)
            .min(self.deadline)
    }
}

/// How queries are ordered into priority bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BandPolicy {
    /// Order by relative deadline, shortest first. Optimal when sensors are
    /// activated at retrieval start (see module docs).
    #[default]
    EarliestDeadlineFirst,
    /// Order by `min(min_i I_i, D)` — the paper's stated key, appropriate
    /// when data is sampled at query arrival.
    MinExpiryOrDeadline,
}

/// The complete multi-query schedule produced by [`hierarchical_schedule`].
#[derive(Debug, Clone)]
pub struct MultiQuerySchedule {
    /// Query indices in band order (most urgent first).
    pub band_order: Vec<usize>,
    /// Per query (indexed as the input), the retrieval order and analysis.
    pub per_query: Vec<(Vec<RetrievalItem>, ScheduleAnalysis)>,
}

impl MultiQuerySchedule {
    /// Whether every query's freshness and deadline constraints hold.
    pub fn all_feasible(&self) -> bool {
        self.per_query.iter().all(|(_, a)| a.is_feasible())
    }

    /// Number of queries whose constraints hold.
    pub fn feasible_count(&self) -> usize {
        self.per_query
            .iter()
            .filter(|(_, a)| a.is_feasible())
            .count()
    }
}

/// Schedules `queries` (all arriving at `arrival`) hierarchically over
/// `channel` with the default (optimal) [`BandPolicy`].
pub fn hierarchical_schedule(
    queries: &[QuerySpec],
    channel: Channel,
    arrival: SimTime,
) -> MultiQuerySchedule {
    hierarchical_schedule_with(queries, channel, arrival, BandPolicy::default())
}

/// Schedules `queries` hierarchically with an explicit band policy: bands
/// in key order, LVF within each band. Each query's deadline is anchored at
/// `arrival`, but its transfers start only after all higher-priority bands
/// complete.
pub fn hierarchical_schedule_with(
    queries: &[QuerySpec],
    channel: Channel,
    arrival: SimTime,
    policy: BandPolicy,
) -> MultiQuerySchedule {
    let mut band_order: Vec<usize> = (0..queries.len()).collect();
    match policy {
        BandPolicy::EarliestDeadlineFirst => {
            band_order.sort_by_key(|&i| (queries[i].deadline, i));
        }
        BandPolicy::MinExpiryOrDeadline => {
            band_order.sort_by_key(|&i| (queries[i].urgency_key(), i));
        }
    }

    let mut per_query: Vec<Option<(Vec<RetrievalItem>, ScheduleAnalysis)>> =
        vec![None; queries.len()];
    let mut cursor = arrival;
    for &qi in &band_order {
        let q = &queries[qi];
        let order = lvf_order(&q.items);
        // The query's items start when the channel frees up (cursor), but
        // its deadline is anchored at its arrival: shrink the deadline
        // budget by the time already consumed by higher bands.
        let elapsed = cursor.saturating_since(arrival);
        let budget = q.deadline.saturating_sub(elapsed);
        let analysis = analyze(&order, channel, cursor, budget);
        cursor = analysis.finish;
        per_query[qi] = Some((order, analysis));
    }
    MultiQuerySchedule {
        band_order,
        #[expect(clippy::expect_used, reason = "the band loop above fills every slot")]
        per_query: per_query.into_iter().map(|o| o.expect("filled")).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_logic::meta::Cost;
    use proptest::prelude::*;

    fn item(label: &str, kb: u64, validity_ms: u64) -> RetrievalItem {
        RetrievalItem::new(
            label,
            Cost::from_bytes(kb * 1000),
            SimDuration::from_millis(validity_ms),
        )
    }

    #[test]
    fn urgency_key_is_min_of_validities_and_deadline() {
        let q = QuerySpec::new(
            vec![item("a", 1, 5000), item("b", 1, 3000)],
            SimDuration::from_secs(10),
        );
        assert_eq!(q.urgency_key(), SimDuration::from_secs(3));
        let q2 = QuerySpec::new(vec![item("a", 1, 50_000)], SimDuration::from_secs(10));
        assert_eq!(q2.urgency_key(), SimDuration::from_secs(10));
        let empty = QuerySpec::new(vec![], SimDuration::from_secs(2));
        assert_eq!(empty.urgency_key(), SimDuration::from_secs(2));
    }

    #[test]
    fn tight_deadline_query_goes_first() {
        let ch = Channel::mbps1();
        let relaxed = QuerySpec::new(
            vec![item("r1", 125, 60_000), item("r2", 125, 60_000)],
            SimDuration::from_secs(60),
        );
        let tight = QuerySpec::new(vec![item("t1", 125, 2500)], SimDuration::from_secs(2));
        let sched = hierarchical_schedule(&[relaxed, tight], ch, SimTime::ZERO);
        assert_eq!(sched.band_order, vec![1, 0]);
        assert!(sched.all_feasible());
        assert_eq!(sched.feasible_count(), 2);
    }

    #[test]
    fn paper_key_prioritizes_short_validity() {
        let ch = Channel::mbps1();
        let short_validity = QuerySpec::new(vec![item("s", 125, 1500)], SimDuration::from_secs(50));
        let long_validity =
            QuerySpec::new(vec![item("l", 125, 60_000)], SimDuration::from_secs(40));
        let sched = hierarchical_schedule_with(
            &[long_validity, short_validity],
            ch,
            SimTime::ZERO,
            BandPolicy::MinExpiryOrDeadline,
        );
        // Paper key: min(1.5 s, 50 s) = 1.5 s < min(60 s, 40 s) = 40 s.
        assert_eq!(sched.band_order, vec![1, 0]);
    }

    #[test]
    fn later_band_inherits_channel_backlog() {
        let ch = Channel::mbps1();
        let a = QuerySpec::new(vec![item("a", 250, 60_000)], SimDuration::from_secs(2));
        let b = QuerySpec::new(vec![item("b", 125, 60_000)], SimDuration::from_secs(3));
        // a (D = 2 s) goes first (2 s transfer), pushing b's finish to 3 s —
        // exactly its deadline.
        let sched = hierarchical_schedule(&[a, b], ch, SimTime::ZERO);
        assert_eq!(sched.band_order, vec![0, 1]);
        let (_, b_analysis) = &sched.per_query[1];
        assert_eq!(b_analysis.finish, SimTime::from_secs(3));
        assert!(b_analysis.is_feasible());
    }

    #[test]
    fn overload_reported_per_query() {
        let ch = Channel::mbps1();
        let a = QuerySpec::new(vec![item("a", 500, 60_000)], SimDuration::from_secs(5));
        let b = QuerySpec::new(vec![item("b", 500, 60_000)], SimDuration::from_secs(5));
        // Each needs 4 s of channel; together 8 s — someone misses.
        let sched = hierarchical_schedule(&[a, b], ch, SimTime::ZERO);
        assert!(!sched.all_feasible());
        assert_eq!(sched.feasible_count(), 1);
    }

    /// Brute-force feasibility over ALL interleavings of all per-query item
    /// orders (not just contiguous blocks), honoring per-query
    /// freshness/deadline constraints.
    fn brute_force_feasible(queries: &[QuerySpec], ch: Channel) -> bool {
        fn go(
            queries: &[QuerySpec],
            ch: Channel,
            remaining: &mut Vec<Vec<RetrievalItem>>,
            timeline: &mut Vec<(usize, RetrievalItem)>,
        ) -> bool {
            if remaining.iter().all(Vec::is_empty) {
                let mut cursor = SimTime::ZERO;
                let mut acts: Vec<Vec<(SimTime, SimDuration)>> = vec![Vec::new(); queries.len()];
                let mut finishes = vec![SimTime::ZERO; queries.len()];
                for (qi, it) in timeline.iter() {
                    acts[*qi].push((cursor, it.validity));
                    cursor += ch.transmission_time(it.cost);
                    finishes[*qi] = cursor;
                }
                return (0..queries.len()).all(|qi| {
                    let f = finishes[qi];
                    f <= SimTime::ZERO + queries[qi].deadline
                        && acts[qi].iter().all(|(t, v)| t.saturating_add(*v) >= f)
                });
            }
            for qi in 0..remaining.len() {
                for k in 0..remaining[qi].len() {
                    let it = remaining[qi].remove(k);
                    timeline.push((qi, it.clone()));
                    if go(queries, ch, remaining, timeline) {
                        return true;
                    }
                    timeline.pop();
                    remaining[qi].insert(k, it);
                }
            }
            false
        }
        let mut remaining: Vec<Vec<RetrievalItem>> =
            queries.iter().map(|q| q.items.clone()).collect();
        go(queries, ch, &mut remaining, &mut Vec::new())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The EDF hierarchical policy admits a fully-feasible schedule
        /// whenever ANY interleaving does.
        #[test]
        fn hierarchical_edf_optimal_vs_bruteforce(
            c1 in prop::collection::vec((1u64..150, 300u64..3000), 1..3),
            c2 in prop::collection::vec((1u64..150, 300u64..3000), 1..3),
            d1 in 500u64..4000,
            d2 in 500u64..4000,
        ) {
            let ch = Channel::mbps1();
            let q1 = QuerySpec::new(
                c1.iter().enumerate().map(|(i, (kb, v))| item(&format!("a{i}"), *kb, *v)).collect(),
                SimDuration::from_millis(d1),
            );
            let q2 = QuerySpec::new(
                c2.iter().enumerate().map(|(i, (kb, v))| item(&format!("b{i}"), *kb, *v)).collect(),
                SimDuration::from_millis(d2),
            );
            let queries = vec![q1, q2];
            let any = brute_force_feasible(&queries, ch);
            let hier = hierarchical_schedule(&queries, ch, SimTime::ZERO).all_feasible();
            prop_assert_eq!(hier, any);
        }
    }
}
