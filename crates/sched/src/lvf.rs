//! Least-Volatile-object-First scheduling (§IV-A).
//!
//! Prior work (\[1] in the paper) proves that for a single decision query
//! over a single channel, retrieving objects in order of *decreasing
//! validity interval* (longest first) is optimal: if any feasible retrieval
//! schedule exists, the LVF schedule is feasible. The exchange argument:
//! swapping an adjacent out-of-LVF pair never hurts — the later slot only
//! needs the *shorter*-lived object to survive the (identical) remaining
//! transfer time.

use crate::feasibility::{analyze, ScheduleAnalysis};
use crate::item::{Channel, RetrievalItem};
use dde_logic::time::{SimDuration, SimTime};

/// Returns the items reordered Least-Volatile-First (longest validity
/// first). Ties break by label for determinism.
pub fn lvf_order(items: &[RetrievalItem]) -> Vec<RetrievalItem> {
    let mut out = items.to_vec();
    sort_lvf(&mut out);
    out
}

/// Least-Volatile-First order: longest validity first, ties by label.
pub(crate) fn cmp_lvf(a: &RetrievalItem, b: &RetrievalItem) -> core::cmp::Ordering {
    b.validity
        .cmp(&a.validity)
        .then_with(|| a.label.cmp(&b.label))
}

/// Sorts `items` in place Least-Volatile-First.
pub fn sort_lvf(items: &mut [RetrievalItem]) {
    items.sort_by(cmp_lvf);
}

/// Schedules a single query with LVF and analyzes the result.
pub fn lvf_schedule(
    items: &[RetrievalItem],
    channel: Channel,
    arrival: SimTime,
    deadline: SimDuration,
) -> (Vec<RetrievalItem>, ScheduleAnalysis) {
    let order = lvf_order(items);
    let analysis = analyze(&order, channel, arrival, deadline);
    (order, analysis)
}

/// Whether *any* retrieval order of `items` is feasible. By the LVF
/// optimality theorem this reduces to checking the LVF order — no
/// permutation search required.
pub fn schedulable(
    items: &[RetrievalItem],
    channel: Channel,
    arrival: SimTime,
    deadline: SimDuration,
) -> bool {
    let (_, analysis) = lvf_schedule(items, channel, arrival, deadline);
    analysis.is_feasible()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::is_feasible;
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
    fn orders_longest_validity_first() {
        let items = vec![item("a", 1, 100), item("b", 1, 5000), item("c", 1, 600)];
        let order = lvf_order(&items);
        let labels: Vec<_> = order.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(labels, vec!["b", "c", "a"]);
    }

    #[test]
    fn ties_break_by_label() {
        let items = vec![item("z", 1, 100), item("a", 1, 100)];
        let order = lvf_order(&items);
        assert_eq!(order[0].label.as_str(), "a");
    }

    #[test]
    fn lvf_rescues_volatile_items() {
        let ch = Channel::mbps1();
        // 125 KB each = 1 s. Volatile item (1.2 s validity) must go last.
        let items = vec![item("volatile", 125, 1200), item("stable", 125, 60_000)];
        // Worst order is infeasible:
        assert!(!is_feasible(
            &[items[0].clone(), items[1].clone()],
            ch,
            SimTime::ZERO,
            SimDuration::from_secs(60)
        ));
        // LVF is feasible:
        assert!(schedulable(
            &items,
            ch,
            SimTime::ZERO,
            SimDuration::from_secs(60)
        ));
    }

    #[test]
    fn infeasible_when_no_order_works() {
        let ch = Channel::mbps1();
        // Two 1 s transfers but every validity < 1 s: even the last item's
        // data would be stale... actually last item finishes exactly as
        // sampled+1s; make validities 0.5 s so nothing works.
        let items = vec![item("a", 125, 500), item("b", 125, 500)];
        assert!(!schedulable(
            &items,
            ch,
            SimTime::ZERO,
            SimDuration::from_secs(60)
        ));
    }

    fn permutations<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
        if v.is_empty() {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for i in 0..v.len() {
            let mut rest = v.to_vec();
            let x = rest.remove(i);
            for mut p in permutations(&rest) {
                p.insert(0, x.clone());
                out.push(p);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The optimality theorem of [1]: if ANY permutation is feasible,
        /// the LVF order is feasible.
        #[test]
        fn lvf_feasible_whenever_any_order_is(
            costs in prop::collection::vec(1u64..300, 1..6),
            validities in prop::collection::vec(100u64..4000, 1..6),
            deadline_ms in 100u64..6000,
        ) {
            let n = costs.len().min(validities.len());
            let items: Vec<_> = (0..n)
                .map(|i| item(&format!("o{i}"), costs[i], validities[i]))
                .collect();
            let ch = Channel::mbps1();
            let deadline = SimDuration::from_millis(deadline_ms);
            let any_feasible = permutations(&items)
                .iter()
                .any(|p| is_feasible(p, ch, SimTime::ZERO, deadline));
            let lvf_feasible = schedulable(&items, ch, SimTime::ZERO, deadline);
            prop_assert_eq!(any_feasible, lvf_feasible);
        }

        /// LVF maximizes schedule slack over all permutations.
        #[test]
        fn lvf_maximizes_slack(
            costs in prop::collection::vec(1u64..200, 2..5),
            validities in prop::collection::vec(500u64..5000, 2..5),
        ) {
            let n = costs.len().min(validities.len());
            let items: Vec<_> = (0..n)
                .map(|i| item(&format!("o{i}"), costs[i], validities[i]))
                .collect();
            let ch = Channel::mbps1();
            let d = SimDuration::from_secs(3600);
            let (_, lvf) = lvf_schedule(&items, ch, SimTime::ZERO, d);
            let Some(lvf_slack) = lvf.slack() else { return Ok(()); };
            for p in permutations(&items) {
                let a = analyze(&p, ch, SimTime::ZERO, d);
                if let Some(s) = a.slack() {
                    prop_assert!(lvf_slack >= s,
                        "permutation had more slack than LVF: {s} > {lvf_slack}");
                }
            }
        }
    }
}
