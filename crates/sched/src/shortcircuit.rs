//! Short-circuit-aware retrieval ordering (§III-A).
//!
//! Evaluating a conjunction `a = b_0 ∧ b_1 ∧ …` sequentially, the expected
//! retrieval cost under order `π` is
//!
//! ```text
//! E[cost] = Σ_k  C_{π_k} · Π_{j<k} p_{π_j}
//! ```
//!
//! — the `k`-th object is only fetched if every earlier condition came back
//! true. Sorting by descending short-circuit efficiency `(1 − p)/C`
//! minimizes this (the classic "pipelined filter ordering" exchange
//! argument). Dually, a disjunction stops at the first *true* disjunct, so
//! `p/C` descending is optimal.
//!
//! For a full DNF (OR of ANDs), terms are processed as units: each term is
//! internally ordered by `(1 − p)/C`, then terms are ordered by descending
//! `P(term true) / E[term cost]`. Truly optimal DNF evaluation (interleaving
//! conditions across terms, exploiting shared labels) is NP-hard; this is
//! the paper's heuristic.

use crate::item::RetrievalItem;
use dde_logic::dnf::Dnf;
use dde_logic::meta::MetaTable;

/// Expected cost (in bytes) of evaluating the conjunction `items` in the
/// given order, under independence of conditions.
pub fn expected_and_cost(items: &[RetrievalItem]) -> f64 {
    let mut reach_prob = 1.0;
    let mut total = 0.0;
    for it in items {
        total += reach_prob * it.cost.as_f64();
        reach_prob *= it.prob_true.value();
    }
    total
}

/// Probability that the conjunction evaluates to true.
pub fn and_truth_prob(items: &[RetrievalItem]) -> f64 {
    items.iter().map(|i| i.prob_true.value()).product()
}

/// Expected cost of evaluating the disjunction `items` in order (stop at
/// first true).
pub fn expected_or_cost(items: &[RetrievalItem]) -> f64 {
    let mut reach_prob = 1.0;
    let mut total = 0.0;
    for it in items {
        total += reach_prob * it.cost.as_f64();
        reach_prob *= 1.0 - it.prob_true.value();
    }
    total
}

/// The cost-optimal order of a conjunction: descending `(1 − p)/C`, ties
/// by label.
pub(crate) fn cmp_and_ratio(a: &RetrievalItem, b: &RetrievalItem) -> core::cmp::Ordering {
    b.and_shortcircuit_ratio()
        .total_cmp(&a.and_shortcircuit_ratio())
        .then_with(|| a.label.cmp(&b.label))
}

/// Reorders a conjunction for minimum expected cost: descending
/// `(1 − p)/C`. Ties break by label.
pub fn optimal_and_order(items: &[RetrievalItem]) -> Vec<RetrievalItem> {
    let mut out = items.to_vec();
    out.sort_by(cmp_and_ratio);
    out
}

/// Reorders a disjunction for minimum expected cost: descending `p/C`.
pub fn optimal_or_order(items: &[RetrievalItem]) -> Vec<RetrievalItem> {
    let mut out = items.to_vec();
    out.sort_by(|a, b| {
        let ra = a.as_meta().or_shortcircuit_ratio();
        let rb = b.as_meta().or_shortcircuit_ratio();
        rb.total_cmp(&ra).then_with(|| a.label.cmp(&b.label))
    });
    out
}

/// A retrieval plan for a DNF query: terms in evaluation order, each with
/// its internally-ordered items.
#[derive(Debug, Clone)]
pub struct DnfPlan {
    /// For each planned term (in evaluation order): the index of the term in
    /// the original DNF and the ordered retrieval items for its conditions.
    pub terms: Vec<(usize, Vec<RetrievalItem>)>,
}

impl DnfPlan {
    /// Expected total retrieval cost of executing the plan: term `k`'s
    /// expected cost is paid only if no earlier term came back true.
    pub fn expected_cost(&self) -> f64 {
        let mut reach = 1.0;
        let mut total = 0.0;
        for (_, items) in &self.terms {
            total += reach * expected_and_cost(items);
            reach *= 1.0 - and_truth_prob(items);
        }
        total
    }

    /// The flat retrieval order (terms concatenated).
    pub fn flat_order(&self) -> Vec<RetrievalItem> {
        self.terms
            .iter()
            .flat_map(|(_, items)| items.iter().cloned())
            .collect()
    }
}

/// Builds the short-circuit-aware plan for a DNF query, looking up each
/// label's metadata in `meta`.
///
/// Labels missing from `meta` get the pessimistic default (zero cost,
/// probability ½) — zero-cost conditions are evaluated first, which is
/// always sound.
pub fn plan_dnf(query: &Dnf, meta: &MetaTable) -> DnfPlan {
    plan_terms(query.terms().iter().map(|term| {
        term.labels().map(|l| {
            let m = meta.get_or_default(l);
            RetrievalItem {
                label: *l,
                cost: m.cost,
                validity: m.validity,
                prob_true: m.prob_true,
            }
        })
    }))
}

/// The planning body behind [`plan_dnf`]: `terms` are the expression's
/// terms in order, each as the retrieval items of its labels in label
/// order. A caller that already numbers its labels (a query's state at its
/// origin) builds one item per label id and hands each term's items over
/// by id, with no [`MetaTable`] and no label lookup.
///
/// Each term's conditions are ordered by descending `(1 − p)/C` (ties by
/// label), then the terms by descending `P(term true) / E[term cost]`
/// (ties by term index); each term's sort key is computed once.
pub fn plan_terms<T>(terms: impl IntoIterator<Item = T>) -> DnfPlan
where
    T: IntoIterator<Item = RetrievalItem>,
{
    let mut keyed: Vec<(f64, (usize, Vec<RetrievalItem>))> = terms
        .into_iter()
        .enumerate()
        .map(|(idx, items)| {
            let mut items: Vec<RetrievalItem> = items.into_iter().collect();
            items.sort_by(cmp_and_ratio);
            let (p, e) = (and_truth_prob(&items), expected_and_cost(&items));
            let ratio = if e == 0.0 { f64::INFINITY } else { p / e };
            (ratio, (idx, items))
        })
        .collect();
    keyed.sort_by(|(ra, (ia, _)), (rb, (ib, _))| rb.total_cmp(ra).then_with(|| ia.cmp(ib)));
    DnfPlan {
        terms: keyed.into_iter().map(|(_, term)| term).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::permutations;
    use dde_logic::dnf::Term;
    use dde_logic::label::Label;
    use dde_logic::meta::{ConditionMeta, Cost, Probability};
    use dde_logic::time::SimDuration;
    use proptest::prelude::*;

    const MB: u64 = 1_000_000;

    fn item(label: &str, bytes: u64, p: f64) -> RetrievalItem {
        RetrievalItem::new(label, Cost::from_bytes(bytes), SimDuration::MAX)
            .with_prob(Probability::new(p).unwrap())
    }

    /// The paper's worked example: h = 4 MB @ p=0.6, k = 5 MB @ p=0.2.
    /// Evaluating k first costs 5 + 0.2·4 = 5.8 MB expected; h first costs
    /// 4 + 0.6·5 = 7 MB.
    #[test]
    fn paper_worked_example() {
        let h = item("h", 4 * MB, 0.6);
        let k = item("k", 5 * MB, 0.2);
        let k_first = expected_and_cost(&[k.clone(), h.clone()]);
        let h_first = expected_and_cost(&[h.clone(), k.clone()]);
        assert!((k_first - 5.8e6).abs() < 1.0);
        assert!((h_first - 7.0e6).abs() < 1.0);
        let order = optimal_and_order(&[h, k]);
        assert_eq!(order[0].label.as_str(), "k");
    }

    #[test]
    fn and_truth_prob_is_product() {
        let items = vec![item("a", 1, 0.5), item("b", 1, 0.5)];
        assert!((and_truth_prob(&items) - 0.25).abs() < 1e-12);
        assert_eq!(and_truth_prob(&[]), 1.0);
    }

    #[test]
    fn or_order_prefers_high_p_per_cost() {
        let a = item("a", 2 * MB, 0.5); // 0.25 per MB
        let b = item("b", MB, 0.4); // 0.4 per MB
        let order = optimal_or_order(&[a.clone(), b.clone()]);
        assert_eq!(order[0].label.as_str(), "b");
        assert!(expected_or_cost(&order) <= expected_or_cost(&[a, b]));
    }

    #[test]
    fn empty_costs_are_zero() {
        assert_eq!(expected_and_cost(&[]), 0.0);
        assert_eq!(expected_or_cost(&[]), 0.0);
    }

    fn meta_for(entries: &[(&str, u64, f64)]) -> MetaTable {
        entries
            .iter()
            .map(|(l, bytes, p)| {
                (
                    Label::new(l),
                    ConditionMeta::new(Cost::from_bytes(*bytes), SimDuration::MAX)
                        .with_prob(Probability::new(*p).unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn plan_orders_terms_and_conditions() {
        // Term 0: expensive & unlikely. Term 1: cheap & likely.
        let q = Dnf::from_terms(vec![Term::all_of(["x1", "x2"]), Term::all_of(["y1", "y2"])]);
        let meta = meta_for(&[
            ("x1", 5 * MB, 0.1),
            ("x2", 5 * MB, 0.1),
            ("y1", MB, 0.9),
            ("y2", MB, 0.9),
        ]);
        let plan = plan_dnf(&q, &meta);
        // The likely-true cheap term is tried first.
        assert_eq!(plan.terms[0].0, 1);
        // Inside term 0 both conditions tie on ratio; label order breaks it.
        assert_eq!(plan.terms[1].1[0].label.as_str(), "x1");
        // Flat order has all 4 items.
        assert_eq!(plan.flat_order().len(), 4);
    }

    #[test]
    fn plan_expected_cost_accounts_for_term_shortcircuit() {
        let q = Dnf::from_terms(vec![Term::all_of(["a"]), Term::all_of(["b"])]);
        let meta = meta_for(&[("a", MB, 0.5), ("b", MB, 0.5)]);
        let plan = plan_dnf(&q, &meta);
        // E = 1 + (1-0.5)*1 = 1.5 MB.
        assert!((plan.expected_cost() - 1.5e6).abs() < 1.0);
    }

    #[test]
    fn plan_handles_unknown_labels() {
        let q = Dnf::from_terms(vec![Term::all_of(["mystery"])]);
        let plan = plan_dnf(&q, &MetaTable::new());
        assert_eq!(plan.terms.len(), 1);
        assert_eq!(plan.expected_cost(), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// (1-p)/C descending minimizes expected AND cost over all
        /// permutations.
        #[test]
        fn and_order_is_optimal(
            specs in prop::collection::vec((1u64..100, 0.0f64..=1.0), 1..6)
        ) {
            let items: Vec<_> = specs
                .iter()
                .enumerate()
                .map(|(i, (c, p))| item(&format!("o{i}"), *c, *p))
                .collect();
            let best = expected_and_cost(&optimal_and_order(&items));
            for perm in permutations(&items) {
                prop_assert!(best <= expected_and_cost(&perm) + 1e-9);
            }
        }

        /// p/C descending minimizes expected OR cost.
        #[test]
        fn or_order_is_optimal(
            specs in prop::collection::vec((1u64..100, 0.0f64..=1.0), 1..6)
        ) {
            let items: Vec<_> = specs
                .iter()
                .enumerate()
                .map(|(i, (c, p))| item(&format!("o{i}"), *c, *p))
                .collect();
            let best = expected_or_cost(&optimal_or_order(&items));
            for perm in permutations(&items) {
                prop_assert!(best <= expected_or_cost(&perm) + 1e-9);
            }
        }

        /// Term-level ordering by P/E is optimal among whole-term orderings.
        #[test]
        fn term_order_is_optimal_among_term_orderings(
            t1 in prop::collection::vec((1u64..50, 0.05f64..0.95), 1..3),
            t2 in prop::collection::vec((1u64..50, 0.05f64..0.95), 1..3),
            t3 in prop::collection::vec((1u64..50, 0.05f64..0.95), 1..3),
        ) {
            let mk = |prefix: &str, specs: &[(u64, f64)]| -> Vec<RetrievalItem> {
                specs.iter().enumerate()
                    .map(|(i, (c, p))| item(&format!("{prefix}{i}"), *c, *p))
                    .collect()
            };
            let terms = [mk("a", &t1), mk("b", &t2), mk("c", &t3)];
            let eval = |order: &[Vec<RetrievalItem>]| -> f64 {
                let mut reach = 1.0;
                let mut total = 0.0;
                for t in order {
                    total += reach * expected_and_cost(t);
                    reach *= 1.0 - and_truth_prob(t);
                }
                total
            };
            // Build plan via the library (through a Dnf + MetaTable).
            let dnf = Dnf::from_terms(
                terms.iter()
                    .map(|t| Term::all_of(t.iter().map(|i| i.label.as_str().to_string())))
                    .collect()
            );
            let meta: MetaTable = terms.iter().flatten()
                .map(|i| (i.label,
                          ConditionMeta::new(i.cost, i.validity).with_prob(i.prob_true)))
                .collect();
            let plan = plan_dnf(&dnf, &meta);
            let planned: Vec<Vec<RetrievalItem>> =
                plan.terms.iter().map(|(_, items)| items.clone()).collect();
            let best = eval(&planned);
            for perm in permutations(&planned) {
                prop_assert!(best <= eval(&perm) + 1e-6,
                    "plan cost {best} beaten by permutation {}", eval(&perm));
            }
        }
    }

    /// `plan_dnf`'s body before `plan_terms`, kept as the oracle:
    /// per-literal metadata lookups, the comparator recomputing each
    /// term's key on every comparison.
    fn plan_dnf_oracle(query: &Dnf, meta: &MetaTable) -> DnfPlan {
        let mut terms: Vec<(usize, Vec<RetrievalItem>)> = query
            .terms()
            .iter()
            .enumerate()
            .map(|(idx, term)| {
                let items: Vec<RetrievalItem> = term
                    .labels()
                    .map(|l| {
                        let m = meta.get_or_default(l);
                        RetrievalItem {
                            label: *l,
                            cost: m.cost,
                            validity: m.validity,
                            prob_true: m.prob_true,
                        }
                    })
                    .collect();
                (idx, optimal_and_order(&items))
            })
            .collect();
        terms.sort_by(|(ia, a), (ib, b)| {
            let (pa, ea) = (and_truth_prob(a), expected_and_cost(a));
            let (pb, eb) = (and_truth_prob(b), expected_and_cost(b));
            let ra = if ea == 0.0 { f64::INFINITY } else { pa / ea };
            let rb = if eb == 0.0 { f64::INFINITY } else { pb / eb };
            rb.total_cmp(&ra).then_with(|| ia.cmp(ib))
        });
        DnfPlan { terms }
    }

    /// A query over a pool of eight labels: up to five terms of up to four
    /// labels, with metadata for some labels (the rest take the default),
    /// drawn from few values so that ratios tie across labels and terms.
    fn query_and_meta() -> impl Strategy<Value = (Dnf, MetaTable)> {
        let term = prop::collection::vec(0usize..8, 1..5);
        let spec = (
            prop_oneof![Just(0u64), Just(MB), Just(2 * MB), 1u64..5 * MB],
            prop_oneof![Just(0.0), Just(0.5), Just(0.8), Just(1.0), 0.0f64..=1.0],
        );
        (
            prop::collection::vec(term, 1..6),
            prop::collection::vec((any::<bool>(), spec), 8),
        )
            .prop_map(|(terms, specs)| {
                let name = |i: usize| format!("l{i}");
                let dnf = Dnf::from_terms(
                    terms
                        .into_iter()
                        .map(|t| Term::all_of(t.into_iter().map(name)))
                        .collect(),
                );
                let meta = specs
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (known, _))| *known)
                    .map(|(i, (_, (bytes, p)))| {
                        (
                            Label::new(name(i)),
                            ConditionMeta::new(Cost::from_bytes(bytes), SimDuration::MAX)
                                .with_prob(Probability::new(p).unwrap()),
                        )
                    })
                    .collect();
                (dnf, meta)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `plan_dnf`, and the planning body fed the way a query's origin
        /// feeds it (one item per sorted label id, each term's items by
        /// id), both equal the oracle.
        #[test]
        fn id_based_planning_equals_plan_dnf((dnf, meta) in query_and_meta()) {
            let oracle = plan_dnf_oracle(&dnf, &meta).terms;
            prop_assert_eq!(&plan_dnf(&dnf, &meta).terms, &oracle);
            let labels: Vec<Label> = dnf.labels().into_iter().collect();
            let items: Vec<RetrievalItem> = labels
                .iter()
                .map(|l| {
                    let m = meta.get_or_default(l);
                    RetrievalItem::new(*l, m.cost, m.validity).with_prob(m.prob_true)
                })
                .collect();
            let by_id = dnf.terms().iter().map(|t| {
                t.labels()
                    .map(|l| items[labels.binary_search(l).unwrap()].clone())
                    .collect::<Vec<_>>()
            });
            prop_assert_eq!(&plan_terms(by_id).terms, &oracle);
        }
    }
}
