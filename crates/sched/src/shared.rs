//! Multi-query scheduling with *shared* objects — the paper's first
//! "remaining challenge" (§IV-B):
//!
//! > "It is important to consider the case where some queries overlap in
//! > needed data objects. In this case, retrieving each object once is not
//! > optimal anymore … there is a possibility that the same data object can
//! > be reused. Such reuse can reduce total cost. At present, the optimal
//! > solution to this problem is unknown."
//!
//! This module implements a reuse-aware heuristic: queries are laid out in
//! EDF bands (optimal for the disjoint case) with LVF inside each band, but
//! an object already fetched by an earlier band is *reused* — not fetched
//! again — whenever its sample will still be fresh at the later query's
//! decision time. Reuse shrinks later bands, which both saves cost and
//! pulls decision times earlier; stale candidates are detected against the
//! band's own finish time and refetched, iterated to a fixpoint.

use crate::feasibility::analyze;
use crate::item::{Channel, RetrievalItem};
use crate::lvf::sort_lvf;
use dde_logic::label::Label;
use dde_logic::meta::Cost;
use dde_logic::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One query in a shared-object workload. Items with equal labels across
/// queries denote the *same* object (same cost and validity expected).
#[derive(Debug, Clone, PartialEq)]
pub struct SharedQuery {
    /// The objects this query needs fresh at its decision time.
    pub items: Vec<RetrievalItem>,
    /// Relative decision deadline.
    pub deadline: SimDuration,
}

impl SharedQuery {
    /// Creates a query.
    pub fn new(items: Vec<RetrievalItem>, deadline: SimDuration) -> SharedQuery {
        SharedQuery { items, deadline }
    }
}

/// One scheduled retrieval in the global timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFetch {
    /// The fetched object's label.
    pub label: Label,
    /// Activation/sampling time (= retrieval start).
    pub start: SimTime,
    /// Retrieval cost.
    pub cost: Cost,
    /// Index of the query whose band triggered the fetch.
    pub for_query: usize,
}

/// Per-query outcome of the shared schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedQueryOutcome {
    /// The query's decision time (when its last needed object is fresh and
    /// available).
    pub finish: SimTime,
    /// Whether every freshness and deadline constraint holds.
    pub feasible: bool,
    /// Labels served by reusing an earlier band's fetch.
    pub reused: Vec<Label>,
}

/// The complete shared-object schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedSchedule {
    /// Every retrieval, in timeline order.
    pub fetches: Vec<ScheduledFetch>,
    /// Outcomes, indexed like the input queries.
    pub per_query: Vec<SharedQueryOutcome>,
    /// Total retrieval cost (reuse pays once).
    pub total_cost: Cost,
}

impl SharedSchedule {
    /// Whether every query's constraints hold.
    pub fn all_feasible(&self) -> bool {
        self.per_query.iter().all(|q| q.feasible)
    }

    /// Number of reuse hits across all queries.
    pub fn reuse_count(&self) -> usize {
        self.per_query.iter().map(|q| q.reused.len()).sum()
    }
}

/// Schedules `queries` (all arriving at `arrival`) over one channel with
/// cross-query object reuse. See the module docs for the policy.
pub fn shared_schedule(
    queries: &[SharedQuery],
    channel: Channel,
    arrival: SimTime,
) -> SharedSchedule {
    let mut band_order: Vec<usize> = (0..queries.len()).collect();
    band_order.sort_by_key(|&i| (queries[i].deadline, i));

    let mut fetches: Vec<ScheduledFetch> = Vec::new();
    let mut per_query: Vec<Option<SharedQueryOutcome>> = vec![None; queries.len()];
    // label → (activation time, validity) of its latest fetch
    let mut last_fetch: BTreeMap<Label, (SimTime, SimDuration)> = BTreeMap::new();
    let mut cursor = arrival;
    let mut total = Cost::ZERO;

    for &qi in &band_order {
        let q = &queries[qi];
        // Start optimistic: reuse everything previously fetched; demote
        // entries that turn out stale at this band's finish time. Each
        // iteration only moves items from `reused` to `to_fetch`, so the
        // loop terminates in ≤ items.len() rounds.
        let mut to_fetch: Vec<RetrievalItem> = Vec::new();
        let mut reused: Vec<RetrievalItem> = Vec::new();
        for it in &q.items {
            if last_fetch.contains_key(&it.label) {
                reused.push(it.clone());
            } else {
                to_fetch.push(it.clone());
            }
        }
        loop {
            sort_lvf(&mut to_fetch);
            let finish = cursor + channel.total_time(&to_fetch);
            let stale_idx: Vec<usize> = reused
                .iter()
                .enumerate()
                .filter(|(_, it)| {
                    let (t, validity) = last_fetch[&it.label];
                    t.saturating_add(validity) < finish
                })
                .map(|(k, _)| k)
                .collect();
            if stale_idx.is_empty() {
                break;
            }
            for k in stale_idx.into_iter().rev() {
                to_fetch.push(reused.remove(k));
            }
        }

        // Lay the band out and record the fetches.
        let elapsed = cursor.saturating_since(arrival);
        let budget = q.deadline.saturating_sub(elapsed);
        let analysis = analyze(&to_fetch, channel, cursor, budget);
        for (it, &start) in to_fetch.iter().zip(&analysis.activations) {
            last_fetch.insert(it.label.clone(), (start, it.validity));
            total = total.saturating_add(it.cost);
            fetches.push(ScheduledFetch {
                label: it.label.clone(),
                start,
                cost: it.cost,
                for_query: qi,
            });
        }
        let finish = analysis.finish;
        // Re-verify reused entries against the final finish (the fixpoint
        // loop already guaranteed this; double-check for safety).
        let reused_ok = reused.iter().all(|it| {
            let (t, validity) = last_fetch[&it.label];
            t.saturating_add(validity) >= finish
        });
        let feasible = analysis.is_feasible() && reused_ok;
        per_query[qi] = Some(SharedQueryOutcome {
            finish,
            feasible,
            reused: reused.iter().map(|it| it.label.clone()).collect(),
        });
        cursor = finish;
    }

    SharedSchedule {
        fetches,
        #[expect(clippy::expect_used, reason = "the fetch loop above fills every slot")]
        per_query: per_query.into_iter().map(|o| o.expect("filled")).collect(),
        total_cost: total,
    }
}

/// The no-reuse reference: every query fetches everything itself
/// (hierarchical EDF + LVF, as in the disjoint model of §IV-A). Returns
/// `(total cost, feasible-for-all)`.
pub fn no_reuse_cost(queries: &[SharedQuery], channel: Channel, arrival: SimTime) -> (Cost, bool) {
    let specs: Vec<crate::hierarchical::QuerySpec> = queries
        .iter()
        .map(|q| crate::hierarchical::QuerySpec::new(q.items.clone(), q.deadline))
        .collect();
    let sched = crate::hierarchical::hierarchical_schedule(&specs, channel, arrival);
    let cost = queries
        .iter()
        .flat_map(|q| q.items.iter().map(|i| i.cost))
        .sum();
    (cost, sched.all_feasible())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn item(label: &str, kb: u64, validity_ms: u64) -> RetrievalItem {
        RetrievalItem::new(
            label,
            Cost::from_bytes(kb * 1000),
            SimDuration::from_millis(validity_ms),
        )
    }

    #[test]
    fn identical_queries_pay_once() {
        let ch = Channel::mbps1();
        let items = vec![item("a", 125, 600_000), item("b", 125, 600_000)];
        let queries = vec![
            SharedQuery::new(items.clone(), SimDuration::from_secs(30)),
            SharedQuery::new(items.clone(), SimDuration::from_secs(40)),
        ];
        let sched = shared_schedule(&queries, ch, SimTime::ZERO);
        assert!(sched.all_feasible());
        assert_eq!(sched.fetches.len(), 2, "each object fetched once");
        assert_eq!(sched.total_cost, Cost::from_bytes(250_000));
        assert_eq!(sched.reuse_count(), 2);
        // The reusing query decides instantly (no new transfers).
        let second = &sched.per_query[1];
        assert_eq!(second.finish, SimTime::from_secs(2));
    }

    #[test]
    fn short_validity_forces_refetch() {
        let ch = Channel::mbps1();
        // Object expires 1.5 s after sampling; the second band starts 1 s in
        // and needs it fresh at its own finish.
        let shared = item("v", 125, 1500);
        let queries = vec![
            SharedQuery::new(
                vec![shared.clone(), item("x", 125, 600_000)],
                SimDuration::from_secs(30),
            ),
            SharedQuery::new(
                vec![shared.clone(), item("y", 125, 600_000)],
                SimDuration::from_secs(40),
            ),
        ];
        let sched = shared_schedule(&queries, ch, SimTime::ZERO);
        assert!(sched.all_feasible());
        // v fetched twice (stale for band 2), x and y once: 4 fetches.
        assert_eq!(sched.fetches.len(), 4);
        let v_fetches = sched
            .fetches
            .iter()
            .filter(|f| f.label.as_str() == "v")
            .count();
        assert_eq!(v_fetches, 2);
    }

    #[test]
    fn disjoint_queries_match_hierarchical() {
        let ch = Channel::mbps1();
        let queries = vec![
            SharedQuery::new(vec![item("a", 100, 60_000)], SimDuration::from_secs(10)),
            SharedQuery::new(vec![item("b", 200, 60_000)], SimDuration::from_secs(20)),
        ];
        let sched = shared_schedule(&queries, ch, SimTime::ZERO);
        let (no_reuse, feas) = no_reuse_cost(&queries, ch, SimTime::ZERO);
        assert!(sched.all_feasible());
        assert!(feas);
        assert_eq!(sched.total_cost, no_reuse);
        assert_eq!(sched.reuse_count(), 0);
    }

    #[test]
    fn reuse_can_rescue_deadlines() {
        let ch = Channel::mbps1();
        // Without reuse the second query's band starts too late to finish;
        // with reuse it needs nothing new and decides immediately.
        let big = item("big", 1000, 600_000); // 8 s transfer
        let queries = vec![
            SharedQuery::new(vec![big.clone()], SimDuration::from_secs(9)),
            SharedQuery::new(vec![big.clone()], SimDuration::from_secs(10)),
        ];
        let sched = shared_schedule(&queries, ch, SimTime::ZERO);
        assert!(sched.all_feasible());
        let (_, no_reuse_feasible) = no_reuse_cost(&queries, ch, SimTime::ZERO);
        assert!(!no_reuse_feasible, "without reuse the workload overloads");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Reuse never costs more than fetching everything per query, and
        /// the reported timeline is self-consistent (every fetched item's
        /// own freshness holds at its band's finish; reused items are fresh
        /// at the reusing band's finish).
        #[test]
        fn reuse_saves_and_is_consistent(
            pool in prop::collection::vec((50u64..300, 1000u64..60_000), 3..6),
            picks in prop::collection::vec(prop::collection::vec(0usize..6, 1..4), 1..4),
            deadlines in prop::collection::vec(5u64..60, 1..4),
        ) {
            let ch = Channel::mbps1();
            let pool_items: Vec<RetrievalItem> = pool.iter().enumerate()
                .map(|(i, (kb, v))| item(&format!("o{i}"), *kb, *v))
                .collect();
            let n = picks.len().min(deadlines.len());
            let queries: Vec<SharedQuery> = (0..n)
                .map(|qi| {
                    let mut items: Vec<RetrievalItem> = picks[qi].iter()
                        .map(|&k| pool_items[k % pool_items.len()].clone())
                        .collect();
                    items.dedup_by(|a, b| a.label == b.label);
                    SharedQuery::new(items, SimDuration::from_secs(deadlines[qi]))
                })
                .collect();
            let sched = shared_schedule(&queries, ch, SimTime::ZERO);
            let (no_reuse, _) = no_reuse_cost(&queries, ch, SimTime::ZERO);
            prop_assert!(sched.total_cost <= no_reuse);

            // Self-consistency: reconstruct each band's finish and verify.
            let mut last: BTreeMap<Label, (SimTime, SimDuration)> = BTreeMap::new();
            let mut order: Vec<usize> = (0..queries.len()).collect();
            order.sort_by_key(|&i| (queries[i].deadline, i));
            for &qi in &order {
                let outcome = &sched.per_query[qi];
                for f in sched.fetches.iter().filter(|f| f.for_query == qi) {
                    let it = queries[qi].items.iter()
                        .find(|i| i.label == f.label).expect("fetch belongs to query");
                    last.insert(f.label.clone(), (f.start, it.validity));
                    prop_assert!(f.start <= outcome.finish);
                }
                if outcome.feasible {
                    for it in &queries[qi].items {
                        let (t, v) = last.get(&it.label)
                            .copied()
                            .expect("feasible query has all items fetched");
                        prop_assert!(
                            t.saturating_add(v) >= outcome.finish,
                            "item {} stale at finish", it.label
                        );
                    }
                }
            }
        }

        /// With generous validities and deadlines, every duplicated label is
        /// fetched exactly once network-wide.
        #[test]
        fn full_overlap_fetches_once(
            labels in prop::collection::vec(0usize..4, 2..5),
        ) {
            let ch = Channel::mbps1();
            let mk = |k: usize| item(&format!("o{k}"), 100, 3_600_000);
            let queries: Vec<SharedQuery> = labels.iter()
                .map(|&k| SharedQuery::new(vec![mk(k)], SimDuration::from_secs(3600)))
                .collect();
            let sched = shared_schedule(&queries, ch, SimTime::ZERO);
            prop_assert!(sched.all_feasible());
            let mut distinct: Vec<usize> = labels.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(sched.fetches.len(), distinct.len());
        }
    }
}
