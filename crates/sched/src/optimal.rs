//! Exhaustive-search baselines, compiled for tests only.
//!
//! Validate the polynomial-time policies against ground truth on small
//! instances.

use crate::feasibility::is_feasible;
use crate::item::{Channel, RetrievalItem};
use crate::shortcircuit::expected_and_cost;
use dde_logic::time::{SimDuration, SimTime};

/// All permutations of `items`. Exponential; intended for `n ≤ 8`.
///
/// # Panics
///
/// Panics if `items.len() > 9` (362 880 permutations) to guard against
/// accidental blowups.
pub fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    assert!(items.len() <= 9, "permutation search capped at n = 9");
    fn go<T: Clone>(rest: &[T]) -> Vec<Vec<T>> {
        if rest.is_empty() {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for i in 0..rest.len() {
            let mut sub = rest.to_vec();
            let head = sub.remove(i);
            for mut p in go(&sub) {
                p.insert(0, head.clone());
                out.push(p);
            }
        }
        out
    }
    go(items)
}

/// The minimum expected AND-evaluation cost over all permutations.
pub fn brute_force_min_expected_cost(items: &[RetrievalItem]) -> f64 {
    permutations(items)
        .iter()
        .map(|p| expected_and_cost(p))
        .fold(f64::INFINITY, f64::min)
}

/// The minimum expected AND-evaluation cost over all *feasible*
/// permutations, or `None` if no permutation is feasible.
pub fn brute_force_min_feasible_cost(
    items: &[RetrievalItem],
    channel: Channel,
    arrival: SimTime,
    deadline: SimDuration,
) -> Option<f64> {
    permutations(items)
        .into_iter()
        .filter(|p| is_feasible(p, channel, arrival, deadline))
        .map(|p| expected_and_cost(&p))
        .fold(None, |acc, c| {
            Some(match acc {
                None => c,
                Some(a) => a.min(c),
            })
        })
}

/// Whether any permutation is feasible (ground truth for the LVF theorem).
pub fn brute_force_schedulable(
    items: &[RetrievalItem],
    channel: Channel,
    arrival: SimTime,
    deadline: SimDuration,
) -> bool {
    permutations(items)
        .iter()
        .any(|p| is_feasible(p, channel, arrival, deadline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::greedy_validity_shortcircuit;
    use crate::shortcircuit::optimal_and_order;
    use dde_logic::meta::{Cost, Probability};
    use proptest::prelude::*;

    fn item(label: &str, kb: u64, validity_ms: u64, p: f64) -> RetrievalItem {
        RetrievalItem::new(
            label,
            Cost::from_bytes(kb * 1000),
            SimDuration::from_millis(validity_ms),
        )
        .with_prob(Probability::new(p).unwrap())
    }

    #[test]
    fn permutation_count() {
        let items: Vec<_> = (0..4)
            .map(|i| item(&format!("o{i}"), 1, 1000, 0.5))
            .collect();
        assert_eq!(permutations(&items).len(), 24);
        assert_eq!(permutations::<RetrievalItem>(&[]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn permutation_guard() {
        let items: Vec<_> = (0..10).map(|i| item(&format!("o{i}"), 1, 1, 0.5)).collect();
        let _ = permutations(&items);
    }

    #[test]
    fn no_feasible_order_reports_none() {
        let ch = Channel::mbps1();
        let items = vec![item("a", 125, 100, 0.5), item("b", 125, 100, 0.5)];
        assert_eq!(
            brute_force_min_feasible_cost(&items, ch, SimTime::ZERO, SimDuration::from_secs(9)),
            None
        );
        assert!(!brute_force_schedulable(
            &items,
            ch,
            SimTime::ZERO,
            SimDuration::from_secs(9)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pure ratio sort matches brute force when freshness never binds.
        #[test]
        fn ratio_sort_matches_bruteforce(
            specs in prop::collection::vec((1u64..100, 0.0f64..=1.0), 1..5)
        ) {
            let items: Vec<_> = specs.iter().enumerate()
                .map(|(i, (kb, p))| item(&format!("o{i}"), *kb, 10_000_000, *p))
                .collect();
            let sorted = optimal_and_order(&items);
            prop_assert!(
                (expected_and_cost(&sorted) - brute_force_min_expected_cost(&items)).abs() < 1e-6
            );
        }

        /// The hybrid greedy is near the feasible optimum: we assert it is
        /// feasible-optimal on instances with ≤ 3 items (where greedy IS
        /// optimal by exhaustiveness of its lookahead) and within 2× beyond.
        #[test]
        fn hybrid_close_to_feasible_optimum(
            specs in prop::collection::vec((1u64..150, 500u64..4000, 0.05f64..0.95), 1..5),
            deadline_ms in 1000u64..8000,
        ) {
            let items: Vec<_> = specs.iter().enumerate()
                .map(|(i, (kb, v, p))| item(&format!("o{i}"), *kb, *v, *p))
                .collect();
            let ch = Channel::mbps1();
            let d = SimDuration::from_millis(deadline_ms);
            let Some(best) = brute_force_min_feasible_cost(&items, ch, SimTime::ZERO, d)
                else { return Ok(()); };
            let hybrid = greedy_validity_shortcircuit(&items, ch, SimTime::ZERO, d);
            let got = expected_and_cost(&hybrid);
            prop_assert!(got <= best * 2.0 + 1e-6,
                "greedy {got} vs optimum {best}");
        }
    }
}
