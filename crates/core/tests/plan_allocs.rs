//! The exact, clock-free gate on the planner's hot path: asking an issued
//! query for its next request allocates a fixed handful of blocks — its
//! buffers, each sized once — under the decision-driven strategies, and
//! nothing at all under the baselines, however many candidates and labels
//! the query has. The string-keyed planner allocated per candidate, per
//! label and per term entry, and the baselines rebuilt two label sets and
//! a sorted candidate list per call; a wall clock cannot hold that line, a
//! count can.

use dde_core::msg::QueryId;
use dde_core::query::QueryState;
use dde_core::strategy::{Priors, Strategy};
use dde_logic::time::{SimDuration, SimTime};
use dde_sched::item::Channel;
use dde_workload::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations per thread, so the harness's own threads cannot
/// disturb a count.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor runs after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches one thread-local
// cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread made while `work` ran.
fn allocs_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = work();
    (out, ALLOCS.with(Cell::get) - before)
}

/// What one decision-driven `next_from_plan` call may allocate: the
/// per-label provider memo, the pick list, two pairs of term buffers, and
/// the three index lists of the first-pick greedy. The label values are
/// read from the query's own evidence vector, so they need no buffer.
const ALLOCS_PER_CALL: u64 = 9;

/// `catalog` with every object advertised a second time under another
/// name: twice the providers of every label.
fn doubled(catalog: &Catalog) -> Catalog {
    let mut out = Catalog::new();
    for o in catalog.objects() {
        out.add(o.clone());
    }
    for o in catalog.objects() {
        let mut twin = o.clone();
        twin.name = format!("{}/twin", o.name).parse().unwrap();
        out.add(twin);
    }
    out
}

/// Every query of the paper-config scenario, fresh and with every other
/// label already known, planned by `strategy` over all providers of its
/// labels: the allocations of each call that planned a fetch, and how many
/// candidates the widest plan had.
fn counts(strategy: Strategy, scenario: &Scenario, catalog: &Catalog) -> (Vec<u64>, usize) {
    let mut out = Vec::new();
    let mut widest = 0;
    for inst in &scenario.queries {
        let labels = inst.expr.labels();
        let mut query = QueryState::new(
            QueryId(inst.id),
            inst.expr.clone(),
            SimTime::ZERO,
            inst.deadline,
        );
        let candidates = Strategy::Comprehensive.candidates(
            query.labels(),
            catalog,
            inst.origin,
            &scenario.topology,
        );
        widest = widest.max(candidates.len());
        let plan = strategy.plan(&query, candidates, catalog);
        for round in 0..2 {
            let (next, allocs) = allocs_during(|| {
                strategy.next_from_plan(
                    &query,
                    &plan,
                    catalog,
                    inst.origin,
                    &scenario.topology,
                    SimTime::from_secs(1),
                    Channel::mbps1(),
                    &Priors::Fixed(0.8),
                )
            });
            // With half its labels known a query may already be decided;
            // only a call that plans a fetch runs the whole planner.
            assert!(next.is_some() || round == 1, "fresh query {}", inst.id);
            if next.is_some() {
                out.push(allocs);
            }
            for label in labels.iter().step_by(2) {
                query.record_label(label, true, SimTime::ZERO, SimDuration::from_secs(600));
            }
        }
    }
    (out, widest)
}

#[test]
fn strategy_next_request_allocates_a_fixed_handful_whatever_the_catalog_size() {
    let scenario = Scenario::build(ScenarioConfig::default().with_seed(1));
    let twice = doubled(&scenario.catalog);
    for (strategy, per_call) in [
        (Strategy::Lvf, ALLOCS_PER_CALL),
        (Strategy::Comprehensive, 0),
        (Strategy::SelectedSources, 0),
        (Strategy::LowestCostFirst, 0),
    ] {
        let (single, widest) = counts(strategy, &scenario, &scenario.catalog);
        assert!(
            single.len() > scenario.queries.len(),
            "{strategy}: {}",
            single.len()
        );
        assert!(
            single.iter().all(|&n| n == per_call),
            "{strategy} allocations per call: {single:?}"
        );

        let (double, widest_twice) = counts(strategy, &scenario, &twice);
        assert_eq!(widest_twice, 2 * widest, "twice the candidates");
        assert_eq!(double, single, "{strategy}: and not one allocation more");
    }
}
