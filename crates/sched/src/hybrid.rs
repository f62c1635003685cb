//! The validity-constrained short-circuit greedy of ref \[3] (§III-A).
//!
//! "A greedy algorithm has been proposed, where all data object requests are
//! first ordered according to their validity intervals (longest first) to
//! meet data expiration constraints, then rearrangements are incrementally
//! added, according to objects' short-circuiting probabilities per unit
//! cost, to reduce the total expected retrieval cost."
//!
//! The implementation is a position-by-position greedy: at each slot, pick
//! the remaining item with the best short-circuit ratio `(1 − p)/C` *whose
//! placement still admits a feasible completion* (checked by appending the
//! remainder in LVF order — sound and complete by the LVF optimality
//! theorem). When no item admits a feasible completion (the instance is
//! unschedulable anyway), fall back to pure LVF.

use crate::item::{Channel, RetrievalItem};
use crate::lvf::cmp_lvf;
use crate::shortcircuit::cmp_and_ratio;
use dde_logic::time::{SimDuration, SimTime};

/// The position-by-position greedy, yielding indices into `items` in
/// retrieval order. Nothing is cloned: the candidate orders the probe
/// examines exist only as walks over two index lists.
struct Greedy<'a> {
    items: &'a [RetrievalItem],
    /// Transmission time of each item.
    tx: Vec<SimDuration>,
    /// Unplaced items in scan order: best ratio first, ties by label.
    scan: Vec<usize>,
    /// The same items Least-Volatile-First, ties by label.
    lvf: Vec<usize>,
    /// Where the next slot starts: arrival plus every placed transfer.
    cursor: SimTime,
    /// The decision time `F`. Every order of the same items finishes at
    /// the same instant, so the deadline verdict is one comparison made
    /// up front, and freshness is each item's `t_i + I_i` against this.
    finish: SimTime,
    /// No order is feasible: what is left goes out Least-Volatile-First.
    unschedulable: bool,
}

impl<'a> Greedy<'a> {
    fn new(
        items: &'a [RetrievalItem],
        channel: Channel,
        arrival: SimTime,
        deadline: SimDuration,
    ) -> Greedy<'a> {
        let tx: Vec<SimDuration> = items
            .iter()
            .map(|it| channel.transmission_time(it.cost))
            .collect();
        let mut scan: Vec<usize> = (0..items.len()).collect();
        scan.sort_by(|&a, &b| cmp_and_ratio(&items[a], &items[b]));
        // Stable from scan order, which is what sorting "the rest" of a
        // scan-ordered list yields whichever item is left out.
        let mut lvf = scan.clone();
        lvf.sort_by(|&a, &b| cmp_lvf(&items[a], &items[b]));
        let finish = tx.iter().fold(arrival, |t, &d| t + d);
        Greedy {
            items,
            tx,
            scan,
            lvf,
            cursor: arrival,
            finish,
            unschedulable: finish > arrival + deadline,
        }
    }

    /// The probe: with `next` in the coming slot and the other unplaced
    /// items after it Least-Volatile-First, is every one of them still
    /// fresh at the decision time? Items already placed were held to the
    /// same test when they were placed, and neither their slots nor the
    /// decision time have moved since.
    fn completes(&self, next: usize) -> bool {
        let fresh_from =
            |at: SimTime, i: usize| at.saturating_add(self.items[i].validity) >= self.finish;
        if !fresh_from(self.cursor, next) {
            return false;
        }
        let mut at = self.cursor + self.tx[next];
        for &i in self.lvf.iter().filter(|&&i| i != next) {
            if !fresh_from(at, i) {
                return false;
            }
            at += self.tx[i];
        }
        true
    }
}

impl Iterator for Greedy<'_> {
    type Item = usize;

    /// Places the first item in scan order that admits a feasible
    /// completion; when none does the instance is unschedulable (the LVF
    /// completion is itself one of the probes) and stays so.
    fn next(&mut self) -> Option<usize> {
        let feasible = if self.unschedulable {
            None
        } else {
            self.scan.iter().copied().find(|&i| self.completes(i))
        };
        let placed = match feasible {
            Some(i) => i,
            None => {
                self.unschedulable = true;
                *self.lvf.first()?
            }
        };
        self.scan.retain(|&i| i != placed);
        self.lvf.retain(|&i| i != placed);
        self.cursor += self.tx[placed];
        Some(placed)
    }
}

/// Orders a conjunction's items to minimize expected retrieval cost subject
/// to freshness and deadline feasibility. See the module docs.
pub fn greedy_validity_shortcircuit(
    items: &[RetrievalItem],
    channel: Channel,
    arrival: SimTime,
    deadline: SimDuration,
) -> Vec<RetrievalItem> {
    Greedy::new(items, channel, arrival, deadline)
        .map(|i| items[i].clone())
        .collect()
}

/// The index in `items` of the object [`greedy_validity_shortcircuit`]
/// retrieves first — all a node that re-plans after every arrival reads of
/// the order. `None` for no items.
pub fn first_pick(
    items: &[RetrievalItem],
    channel: Channel,
    arrival: SimTime,
    deadline: SimDuration,
) -> Option<usize> {
    Greedy::new(items, channel, arrival, deadline).next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::{analyze, is_feasible};
    use crate::lvf::{lvf_order, schedulable, sort_lvf};
    use crate::shortcircuit::{expected_and_cost, optimal_and_order};
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

    /// The greedy as it stood before it worked on indices — one cloned
    /// candidate order per probe — kept verbatim as the reference.
    fn cloning_greedy(
        items: &[RetrievalItem],
        channel: Channel,
        arrival: SimTime,
        deadline: SimDuration,
    ) -> Vec<RetrievalItem> {
        let mut remaining: Vec<RetrievalItem> = items.to_vec();
        // Deterministic scan order: best ratio first, ties by label.
        remaining.sort_by(|a, b| {
            b.and_shortcircuit_ratio()
                .total_cmp(&a.and_shortcircuit_ratio())
                .then_with(|| a.label.cmp(&b.label))
        });

        let mut chosen: Vec<RetrievalItem> = Vec::with_capacity(items.len());
        while !remaining.is_empty() {
            let mut picked = None;
            for idx in 0..remaining.len() {
                // Tentatively place remaining[idx] next, then complete with LVF.
                let mut candidate = chosen.clone();
                candidate.push(remaining[idx].clone());
                let mut rest: Vec<RetrievalItem> = remaining
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != idx)
                    .map(|(_, it)| it.clone())
                    .collect();
                sort_lvf(&mut rest);
                candidate.extend(rest);
                if analyze(&candidate, channel, arrival, deadline).is_feasible() {
                    picked = Some(idx);
                    break;
                }
            }
            match picked {
                Some(idx) => chosen.push(remaining.remove(idx)),
                None => {
                    // Unschedulable: emit the LVF completion (least bad).
                    sort_lvf(&mut remaining);
                    chosen.append(&mut remaining);
                }
            }
        }
        chosen
    }

    /// Both entry points against the reference on one instance.
    fn check_against_reference(
        items: &[RetrievalItem],
        ch: Channel,
        arrival: SimTime,
        d: SimDuration,
    ) -> Result<(), TestCaseError> {
        let reference = cloning_greedy(items, ch, arrival, d);
        prop_assert_eq!(
            &greedy_validity_shortcircuit(items, ch, arrival, d),
            &reference
        );
        let first = first_pick(items, ch, arrival, d).map(|i| &items[i]);
        prop_assert_eq!(first, reference.first());
        Ok(())
    }

    #[test]
    fn unconstrained_equals_pure_shortcircuit_order() {
        // Huge validities: freshness never binds.
        let items = vec![
            item("a", 100, 1_000_000, 0.9),
            item("b", 50, 1_000_000, 0.1),
            item("c", 75, 1_000_000, 0.5),
        ];
        let hybrid = greedy_validity_shortcircuit(
            &items,
            Channel::mbps1(),
            SimTime::ZERO,
            SimDuration::from_secs(3600),
        );
        let pure = optimal_and_order(&items);
        let h: Vec<_> = hybrid.iter().map(|i| i.label.as_str()).collect();
        let p: Vec<_> = pure.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(h, p);
    }

    #[test]
    fn tight_validities_force_lvf_positions() {
        let ch = Channel::mbps1();
        // "volatile" has the best short-circuit ratio but must go last or
        // its data expires: 2 items of 1 s each; volatile validity 1.5 s.
        let items = vec![
            item("volatile", 125, 1500, 0.0),
            item("stable", 125, 60_000, 0.99),
        ];
        let order =
            greedy_validity_shortcircuit(&items, ch, SimTime::ZERO, SimDuration::from_secs(60));
        let labels: Vec<_> = order.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(labels, vec!["stable", "volatile"]);
        assert!(is_feasible(
            &order,
            ch,
            SimTime::ZERO,
            SimDuration::from_secs(60)
        ));
    }

    #[test]
    fn unschedulable_falls_back_to_lvf() {
        let ch = Channel::mbps1();
        let items = vec![item("a", 125, 100, 0.5), item("b", 125, 100, 0.5)];
        assert!(!schedulable(
            &items,
            ch,
            SimTime::ZERO,
            SimDuration::from_secs(60)
        ));
        let order =
            greedy_validity_shortcircuit(&items, ch, SimTime::ZERO, SimDuration::from_secs(60));
        let lvf = lvf_order(&items);
        let o: Vec<_> = order.iter().map(|i| i.label.as_str()).collect();
        let l: Vec<_> = lvf.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(o, l);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The hybrid order is feasible whenever the instance is schedulable.
        #[test]
        fn hybrid_preserves_feasibility(
            specs in prop::collection::vec((1u64..200, 300u64..5000, 0.0f64..=1.0), 1..6),
            deadline_ms in 500u64..8000,
        ) {
            let items: Vec<_> = specs.iter().enumerate()
                .map(|(i, (kb, v, p))| item(&format!("o{i}"), *kb, *v, *p))
                .collect();
            let ch = Channel::mbps1();
            let d = SimDuration::from_millis(deadline_ms);
            let order = greedy_validity_shortcircuit(&items, ch, SimTime::ZERO, d);
            // Same multiset of items.
            prop_assert_eq!(order.len(), items.len());
            if schedulable(&items, ch, SimTime::ZERO, d) {
                prop_assert!(is_feasible(&order, ch, SimTime::ZERO, d));
            }
        }

        /// The index greedy and its first pick are the cloning greedy's, on
        /// the generator above: its tight deadlines leave about a third of
        /// the instances unschedulable, so the LVF fallback is covered.
        #[test]
        fn index_greedy_matches_the_cloning_one(
            specs in prop::collection::vec((1u64..200, 300u64..5000, 0.0f64..=1.0), 0..6),
            deadline_ms in 500u64..8000,
            arrival_ms in 0u64..10_000,
        ) {
            let items: Vec<_> = specs.iter().enumerate()
                .map(|(i, (kb, v, p))| item(&format!("o{i}"), *kb, *v, *p))
                .collect();
            check_against_reference(
                &items,
                Channel::mbps1(),
                SimTime::from_millis(arrival_ms),
                SimDuration::from_millis(deadline_ms),
            )?;
        }

        /// The same with ties everywhere — a handful of sizes, validities,
        /// priors and *labels*, so equal keys fall back on input order —
        /// and with validities and deadlines that saturate the clock.
        #[test]
        fn index_greedy_matches_under_ties_and_saturation(
            specs in prop::collection::vec((0usize..3, 0usize..4, 0usize..3, 0usize..3), 0..7),
            deadline in prop_oneof![Just(1_500u64), Just(4_000), Just(u64::MAX / 1000)],
        ) {
            let sizes = [0u64, 125, 250];
            let validities = [1_000u64, 2_500, 2_500_000, u64::MAX / 1000];
            let priors = [0.0, 0.5, 1.0];
            let items: Vec<_> = specs.iter()
                .map(|&(kb, v, p, name)| item(&format!("o{name}"), sizes[kb], validities[v], priors[p]))
                .collect();
            for arrival in [SimTime::ZERO, SimTime::from_secs(7), SimTime::MAX - SimDuration::from_secs(1)] {
                check_against_reference(
                    &items, Channel::mbps1(), arrival, SimDuration::from_millis(deadline))?;
            }
        }

        /// Never worse in expected cost than plain LVF when both feasible.
        #[test]
        fn hybrid_no_worse_than_lvf(
            specs in prop::collection::vec((1u64..200, 1000u64..8000, 0.0f64..=1.0), 1..6),
        ) {
            let items: Vec<_> = specs.iter().enumerate()
                .map(|(i, (kb, v, p))| item(&format!("o{i}"), *kb, *v, *p))
                .collect();
            let ch = Channel::mbps1();
            let d = SimDuration::from_secs(3600);
            let hybrid = greedy_validity_shortcircuit(&items, ch, SimTime::ZERO, d);
            let lvf = lvf_order(&items);
            if is_feasible(&lvf, ch, SimTime::ZERO, d) {
                prop_assert!(
                    expected_and_cost(&hybrid) <= expected_and_cost(&lvf) + 1e-6
                );
            }
        }
    }
}
