//! Cross-crate pipeline tests: generated workloads flowing through source
//! selection (dde-coverage), retrieval planning (dde-sched), and decision
//! logic (dde-logic) together — without the network in the loop.

use dde_coverage::setcover::{greedy_cover, Source};
use dde_logic::label::{Assignment, Label};
use dde_logic::meta::{ConditionMeta, Cost, MetaTable, Probability};
use dde_logic::time::{SimDuration, SimTime};
use dde_logic::truth::Truth;
use dde_sched::feasibility::is_feasible;
use dde_sched::hybrid::greedy_validity_shortcircuit;
use dde_sched::item::{Channel, RetrievalItem};
use dde_sched::lvf::schedulable;
use dde_sched::shortcircuit::plan_dnf;
use dde_workload::prelude::*;
use proptest::prelude::*;

fn scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig::small().with_seed(seed))
}

/// Builds a MetaTable for a query from the scenario catalog (cheapest
/// provider per label).
fn meta_for(s: &Scenario, q: &QueryInstance) -> MetaTable {
    q.expr
        .labels()
        .into_iter()
        .filter_map(|l| {
            let spec = s.catalog.cheapest_provider(&l)?;
            Some((
                l,
                ConditionMeta::new(Cost::from_bytes(spec.size), spec.validity)
                    .with_prob(Probability::clamped(s.config.prob_viable)),
            ))
        })
        .collect()
}

#[test]
fn generated_queries_plan_end_to_end() {
    let s = scenario(1);
    for q in &s.queries {
        let meta = meta_for(&s, q);
        let plan = plan_dnf(&q.expr, &meta);
        assert_eq!(plan.terms.len(), q.expr.terms().len());
        assert!(plan.expected_cost() > 0.0);
        // Executing the plan against ground truth resolves the query.
        let mut asg = Assignment::new();
        let t0 = q.issue_at;
        for item in plan.flat_order() {
            if q.expr.resolution(&asg, t0).is_decided() {
                break;
            }
            let label = Label::new(item.label.as_str());
            let value = s.world.value(&label, t0);
            asg.set(label, Truth::from(value), t0, SimDuration::MAX);
        }
        assert!(
            q.expr.resolution(&asg, t0).is_decided(),
            "query {} undecided after full plan",
            q.id
        );
    }
}

#[test]
fn short_circuit_execution_reads_fewer_labels() {
    // Executing in planned order with pruning must never read more labels
    // than exhaustive retrieval.
    let s = scenario(2);
    for q in &s.queries {
        let meta = meta_for(&s, q);
        let plan = plan_dnf(&q.expr, &meta);
        let mut asg = Assignment::new();
        let mut reads = 0usize;
        for item in plan.flat_order() {
            if q.expr.resolution(&asg, q.issue_at).is_decided() {
                break;
            }
            let label = Label::new(item.label.as_str());
            if !q.expr.relevant_labels(&asg, q.issue_at).contains(&label) {
                continue; // pruned
            }
            let value = s.world.value(&label, q.issue_at);
            asg.set(label, Truth::from(value), q.issue_at, SimDuration::MAX);
            reads += 1;
        }
        assert!(reads <= q.expr.labels().len());
        assert!(q.expr.resolution(&asg, q.issue_at).is_decided());
    }
}

#[test]
fn cover_then_schedule_round_trip() {
    let s = scenario(3);
    let channel = Channel::new(s.config.link_bandwidth_bps);
    for q in s.queries.iter().take(4) {
        let labels = q.expr.labels();
        // Source selection over the catalog.
        let sources: Vec<Source<usize>> = s
            .catalog
            .objects()
            .iter()
            .enumerate()
            .filter(|(_, o)| o.covers.iter().any(|l| labels.contains(l)))
            .map(|(i, o)| {
                Source::new(
                    i,
                    o.covers.iter().filter(|l| labels.contains(*l)).copied(),
                    Cost::from_bytes(o.size),
                )
            })
            .collect();
        let cover = greedy_cover(&labels, &sources);
        assert!(cover.is_complete(), "scenario guarantees full coverage");

        // Schedule the chosen objects through the validity-aware greedy.
        let items: Vec<RetrievalItem> = cover
            .chosen
            .iter()
            .map(|&k| {
                let spec = s.catalog.get(sources[k].id);
                RetrievalItem::new(
                    spec.name.to_string(),
                    Cost::from_bytes(spec.size),
                    spec.validity,
                )
            })
            .collect();
        let order = greedy_validity_shortcircuit(&items, channel, q.issue_at, q.deadline);
        assert_eq!(order.len(), items.len());
        // If LVF can meet the constraints, the hybrid order does too.
        if schedulable(&items, channel, q.issue_at, q.deadline) {
            assert!(is_feasible(&order, channel, q.issue_at, q.deadline));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// World values observed at plan-execution time always agree with the
    /// epoch model: re-reading within the same epoch yields the same value.
    #[test]
    fn world_reads_stable_within_epoch(seed in 0u64..50, offset_ms in 0u64..5_000) {
        let s = scenario(seed);
        let t = SimTime::from_micros(offset_ms * 1000);
        for (label, dynamics) in s.world.iter().take(20) {
            let v1 = s.world.value(label, t);
            let step = SimDuration::from_micros(dynamics.validity.as_micros() / 10);
            let t2 = t + step;
            if s.world.epoch(label, t) == s.world.epoch(label, t2) {
                prop_assert_eq!(v1, s.world.value(label, t2));
            }
        }
    }
}
