//! Property-style integration tests over the strategy stack: candidate
//! selection, pruning, and planner behavior against generated scenarios.

use dde_core::msg::QueryId;
use dde_core::query::QueryState;
use dde_core::strategy::{Priors, Strategy};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_sched::item::Channel;
use dde_workload::prelude::*;
use proptest::prelude::*;

fn scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig::small().with_seed(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Source-selected candidate sets cover exactly the coverable labels and
    /// never exceed cmp's candidate set.
    #[test]
    fn candidates_cover_and_shrink(seed in 0u64..200, qidx in 0usize..8) {
        let s = scenario(seed);
        let q = &s.queries[qidx % s.queries.len()];
        let labels: Vec<Label> = q.expr.labels().into_iter().collect();
        let cmp = Strategy::Comprehensive.candidates(&labels, &s.catalog, q.origin, &s.topology);
        let slt = Strategy::SelectedSources.candidates(&labels, &s.catalog, q.origin, &s.topology);
        prop_assert!(slt.len() <= cmp.len());
        // Every label with a provider is covered by the selected set.
        for label in &labels {
            if !s.catalog.providers_of(label).is_empty() {
                prop_assert!(
                    slt.iter().any(|&i| s.catalog.get(i).covers.contains(label)),
                    "label {label} lost by source selection"
                );
            }
        }
        // Candidate sets are deterministic.
        prop_assert_eq!(
            &slt,
            &Strategy::Lvf.candidates(&labels, &s.catalog, q.origin, &s.topology)
        );
    }

    /// The planner always proposes a fetch that (a) is in the candidate set
    /// and (b) covers a currently-unknown label; and for decision-driven
    /// strategies, a *relevant* one.
    #[test]
    fn next_request_is_sound(seed in 0u64..200, qidx in 0usize..8) {
        let s = scenario(seed);
        let inst = &s.queries[qidx % s.queries.len()];
        let labels: Vec<Label> = inst.expr.labels().into_iter().collect();
        let now = SimTime::from_secs(1);
        for strategy in Strategy::ALL {
            let cands = strategy.candidates(&labels, &s.catalog, inst.origin, &s.topology);
            let q = QueryState::new(QueryId(0), inst.expr.clone(), SimTime::ZERO, inst.deadline);
            let Some((idx, label)) = strategy.next_request(
                &q, &cands, &s.catalog, inst.origin, &s.topology, now, Channel::mbps1(),
                &Priors::Fixed(0.8),
            ) else {
                // Nothing to fetch on a fresh query only if no candidates.
                prop_assert!(cands.is_empty());
                continue;
            };
            prop_assert!(cands.contains(&idx), "{strategy} proposed non-candidate");
            prop_assert!(
                s.catalog.get(idx).covers.contains(&label),
                "{strategy} proposed object not covering its label"
            );
            prop_assert!(q.unknown_labels(now).contains(&label));
            if strategy.is_decision_driven() {
                prop_assert!(q.relevant_labels(now).contains(&label));
            }
        }
    }

    /// Pruning monotonicity: learning a falsifying label never makes the
    /// decision-driven relevant set larger.
    #[test]
    fn pruning_shrinks_relevant_set(seed in 0u64..100, qidx in 0usize..8) {
        let s = scenario(seed);
        let inst = &s.queries[qidx % s.queries.len()];
        let now = SimTime::from_secs(1);
        let mut q = QueryState::new(QueryId(0), inst.expr.clone(), SimTime::ZERO, inst.deadline);
        let before = q.relevant_labels(now);
        // Falsify the first label of the first term.
        let first_label: Label = *inst.expr.terms()[0]
            .labels()
            .next()
            .expect("non-empty term");
        q.record_label(&first_label, false, now, SimDuration::from_secs(600));
        let after = q.relevant_labels(now);
        prop_assert!(after.len() <= before.len());
        prop_assert!(!after.contains(&first_label));
    }
}

#[test]
fn relevant_labels_subset_of_unknown() {
    let s = scenario(3);
    for inst in &s.queries {
        let q = QueryState::new(QueryId(0), inst.expr.clone(), SimTime::ZERO, inst.deadline);
        let now = SimTime::from_secs(2);
        let relevant = q.relevant_labels(now);
        let unknown = q.unknown_labels(now);
        assert!(relevant.is_subset(&unknown));
    }
}
