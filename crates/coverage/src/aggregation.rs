//! The price of incorrectly aggregating coverage values (ref \[10], §III-B).
//!
//! When sources advertise only an *aggregate* coverage value (e.g. "I cover
//! 3 segments") instead of the exact label set, a selector that optimizes
//! against the aggregates can pick sources whose coverages overlap, paying
//! more than necessary — or believing it covered everything when it did not.
//! This module implements the aggregate-information selector and a
//! comparator quantifying that price, used by the ablation benches.

use crate::setcover::{greedy_cover, Cover, Source};
use dde_logic::label::Label;
use dde_logic::meta::Cost;
use std::collections::BTreeSet;

/// Selects sources knowing only each source's *count* of covered labels
/// (its aggregate coverage value), greedily by cost per advertised label,
/// until the advertised counts sum to at least the number of needed labels.
///
/// This mimics a selector that trusts aggregate advertisements. The chosen
/// set is then evaluated against the true coverage sets.
pub fn aggregate_select<Id>(needed: &BTreeSet<Label>, sources: &[Source<Id>]) -> Cover {
    let mut order: Vec<usize> = (0..sources.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = ratio(&sources[a]);
        let rb = ratio(&sources[b]);
        ra.total_cmp(&rb).then(a.cmp(&b))
    });

    let mut chosen = Vec::new();
    let mut claimed = 0usize;
    let mut cost = Cost::ZERO;
    for i in order {
        if claimed >= needed.len() {
            break;
        }
        if sources[i].covers.is_empty() {
            continue;
        }
        chosen.push(i);
        claimed += sources[i].covers.len();
        cost = cost.saturating_add(sources[i].cost);
    }

    // Ground truth: what did the chosen set actually cover?
    let covered: BTreeSet<Label> = chosen
        .iter()
        .flat_map(|&i| sources[i].covers.iter().copied())
        .collect();
    let uncovered = needed.difference(&covered).copied().collect();
    Cover {
        chosen,
        cost,
        uncovered,
    }
}

fn ratio<Id>(s: &Source<Id>) -> f64 {
    if s.covers.is_empty() {
        f64::INFINITY
    } else {
        s.cost.as_f64() / s.covers.len() as f64
    }
}

/// The outcome of comparing set-aware selection against aggregate selection
/// on the same instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationPrice {
    /// Cost of the set-aware greedy cover.
    pub set_aware_cost: Cost,
    /// Cost of the aggregate-information selection.
    pub aggregate_cost: Cost,
    /// Labels the aggregate selection *believed* covered but did not.
    pub aggregate_misses: usize,
    /// `aggregate_cost / set_aware_cost` (∞ represented as f64::INFINITY
    /// when the set-aware cost is zero and aggregate is not).
    pub cost_ratio: f64,
}

/// Quantifies the price of aggregation on one instance.
pub fn aggregation_price<Id>(needed: &BTreeSet<Label>, sources: &[Source<Id>]) -> AggregationPrice {
    let set_aware = greedy_cover(needed, sources);
    let aggregate = aggregate_select(needed, sources);
    let misses = aggregate.uncovered.difference(&set_aware.uncovered).count();
    let ratio = if set_aware.cost.as_bytes() == 0 {
        if aggregate.cost.as_bytes() == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        aggregate.cost.as_f64() / set_aware.cost.as_f64()
    };
    AggregationPrice {
        set_aware_cost: set_aware.cost,
        aggregate_cost: aggregate.cost,
        aggregate_misses: misses,
        cost_ratio: ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(names: &[&str]) -> BTreeSet<Label> {
        names.iter().map(|s| Label::new(*s)).collect()
    }

    fn src(id: usize, covers: &[&str], cost: u64) -> Source<usize> {
        Source::new(id, covers.iter().copied(), Cost::from_bytes(cost))
    }

    #[test]
    fn overlapping_sources_fool_aggregate_selector() {
        // Both cheap sources cover the SAME two labels; aggregate counts
        // (2 + 2 ≥ 3) make the selector stop early, missing label c.
        let needed = labels(&["a", "b", "c"]);
        let sources = vec![
            src(0, &["a", "b"], 4),
            src(1, &["a", "b"], 4),
            src(2, &["c"], 10),
        ];
        let agg = aggregate_select(&needed, &sources);
        assert_eq!(agg.chosen, vec![0, 1]);
        assert_eq!(agg.uncovered, labels(&["c"]));
        // The set-aware greedy covers everything.
        let cover = greedy_cover(&needed, &sources);
        assert!(cover.is_complete());
        let price = aggregation_price(&needed, &sources);
        assert_eq!(price.aggregate_misses, 1);
    }

    #[test]
    fn disjoint_sources_have_no_price() {
        let needed = labels(&["a", "b"]);
        let sources = vec![src(0, &["a"], 5), src(1, &["b"], 5)];
        let price = aggregation_price(&needed, &sources);
        assert_eq!(price.aggregate_misses, 0);
        assert_eq!(price.set_aware_cost, price.aggregate_cost);
        assert!((price.cost_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_need_costs_nothing() {
        let price = aggregation_price(&BTreeSet::new(), &[src(0, &["a"], 3)]);
        assert_eq!(price.set_aware_cost, Cost::ZERO);
        assert_eq!(price.aggregate_cost, Cost::ZERO);
        assert!((price.cost_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_coverage_sources_skipped() {
        let needed = labels(&["a"]);
        let sources = vec![src(0, &[], 1), src(1, &["a"], 2)];
        let agg = aggregate_select(&needed, &sources);
        assert_eq!(agg.chosen, vec![1]);
        assert!(agg.is_complete());
    }
}
