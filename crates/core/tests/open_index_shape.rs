//! Pins when and in what order local queries end, on an observed ring run
//! with four queries per origin: every query emits exactly one terminal
//! trace event (`query-resolved` / `query-missed`), queries that end inside
//! one handler are reported in ascending id order at that handler's
//! instant, and under adaptive planning each decision is folded into the
//! load estimator once. The expected values were first recorded before the
//! node kept an index of its open queries, so they held the index to the
//! behaviour of the scan over every query ever issued that it replaced.
//! The announce tree later moved the instants of the data-driven endings,
//! not their order or the load estimates.

use dde_core::prelude::*;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::{LinkSpec, NodeId, ShardedSimulator, Topology};
use dde_obs::{EventKind, MemorySink, SharedSink};
use dde_sched::adaptive::AdaptiveConfig;
use dde_workload::catalog::{Catalog, ObjectSpec};
use dde_workload::scenario::QueryInstance;
use dde_workload::world::{DynamicsClass, WorldModel};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Labels `x` and `y` are true and `n` is false, each covered by one
/// 20 kB object (0.16 s a hop at 1 Mb/s, so fetches overlap);
/// `ghost` has no provider.
fn simulator(options: RunOptions) -> ShardedSimulator<AthenaNode> {
    let topology = Topology::ring(6, LinkSpec::mbps1());
    let validity = SimDuration::from_secs(600);
    let mut world = WorldModel::new(4);
    let mut catalog = Catalog::new();
    for (label, source, prob_true) in [("x", 3, 1.0), ("y", 4, 1.0), ("n", 5, 0.0)] {
        world.register(Label::new(label), DynamicsClass::Slow, validity, prob_true);
        catalog.add(ObjectSpec {
            name: format!("/city/seg/{label}/cam/a").parse().unwrap(),
            covers: vec![Label::new(label)],
            size: 20_000,
            source: NodeId(source),
            class: DynamicsClass::Slow,
            validity,
        });
    }
    let shared = Arc::new(SharedWorld::new(catalog, world, options));
    let nodes = (0..topology.len())
        .map(|_| AthenaNode::new(Arc::clone(&shared), Arc::new(GroundTruthAnnotator)))
        .collect();
    ShardedSimulator::new(topology, nodes, 1, 1)
}

/// `(id, origin, issue time in ms, terms)`, in scheduling order — ids are
/// deliberately not in issue order.
const QUERIES: [(u64, usize, u64, &[&[&str]]); 8] = [
    // Origin 0. Queries 9 and 4 wait on the same object and end together.
    (9, 0, 0, &[&["x"]]),
    (4, 0, 0, &[&["x"]]),
    (1, 0, 0, &[&["x", "y"]]),
    (2, 0, 1_000, &[&["ghost"]]),
    // Origin 2.
    (6, 2, 0, &[&["ghost"]]),
    (3, 2, 0, &[&["y"]]),
    (0, 2, 500, &[&["x"], &["ghost"]]),
    (5, 2, 1_000, &[&["n"]]),
];

/// A terminal trace event: `(instant in µs, node, query, outcome)`.
type Ending = (u64, u32, u64, &'static str);

/// What the run records, static or adaptive. Queries 1, 4 and 9 end in one
/// `Data` handler; query 0 finds `x` cached at its origin as it is issued;
/// queries 6 and 2 run into their deadline timers.
const ENDINGS: [Ending; 8] = [
    (330_560, 2, 3, "viable"),
    (493_616, 0, 1, "viable"),
    (493_616, 0, 4, "viable"),
    (493_616, 0, 9, "viable"),
    (500_000, 2, 0, "viable"),
    (1_493_616, 2, 5, "infeasible"),
    (20_000_000, 2, 6, "missed"),
    (21_000_000, 0, 2, "missed"),
];

/// Runs [`QUERIES`] to quiescence under `options`; returns the terminal
/// events in trace order and the simulator.
fn run(options: RunOptions) -> (Vec<Ending>, ShardedSimulator<AthenaNode>) {
    let mut sim = simulator(options);
    let sink = SharedSink::new(MemorySink::new());
    sim.set_sink(Box::new(sink.clone()));
    for (id, origin, issue_ms, terms) in QUERIES {
        let issue_at = SimTime::from_millis(issue_ms);
        let inst = QueryInstance {
            id,
            origin: NodeId(origin),
            expr: Dnf::from_terms(
                terms
                    .iter()
                    .map(|t| Term::all_of(t.iter().copied()))
                    .collect(),
            ),
            deadline: SimDuration::from_secs(20),
            issue_at,
        };
        sim.schedule_external(issue_at, NodeId(origin), inst.into());
    }
    sim.run();
    let endings = sink.with(|s| {
        s.events()
            .iter()
            .filter_map(|r| match r.kind {
                EventKind::QueryResolved { query, outcome, .. } => {
                    Some((r.at.as_micros(), r.node, query, outcome))
                }
                EventKind::QueryMissed { query } => {
                    Some((r.at.as_micros(), r.node, query, "missed"))
                }
                _ => None,
            })
            .collect()
    });
    (endings, sim)
}

fn assert_one_ending_per_query(endings: &[Ending]) {
    let mut count: BTreeMap<u64, usize> = BTreeMap::new();
    for (_, node, query, _) in endings {
        *count.entry(*query).or_default() += 1;
        let origin = QUERIES.iter().find(|q| q.0 == *query).unwrap().1;
        assert_eq!(*node as usize, origin, "query {query} ends at its origin");
    }
    for (id, ..) in QUERIES {
        assert_eq!(count.get(&id), Some(&1), "terminal events of query {id}");
    }
}

#[test]
fn every_query_ends_once_in_the_recorded_order() {
    let (endings, sim) = run(RunOptions::new(Strategy::Lvf));
    assert_one_ending_per_query(&endings);
    assert_eq!(endings, ENDINGS);
    for node in sim.nodes() {
        assert!(node.queries().all(|q| q.status.is_final()));
    }
}

#[test]
fn adaptive_folds_each_decision_into_the_load_estimator_once() {
    let mut options = RunOptions::new(Strategy::Lvf);
    options.adaptive = Some(AdaptiveConfig::default());
    let (endings, sim) = run(options);
    assert_one_ending_per_query(&endings);
    assert_eq!(endings, ENDINGS, "learning alone moves no ending here");
    // The estimate is an EWMA, so it also depends on the order of the folds.
    let expected = [
        (0, 4, Some(10781.25)),
        (1, 0, None),
        (2, 4, Some(5859.375)),
        (3, 0, None),
        (4, 0, None),
        (5, 0, None),
    ];
    for (node, decisions, bytes_per_decision) in expected {
        let load = &sim.node(NodeId(node)).adaptive_state().unwrap().load;
        assert_eq!(
            load.decisions(),
            decisions,
            "decisions folded at node {node}"
        );
        assert_eq!(
            load.bytes_per_decision(),
            bytes_per_decision,
            "load estimate at node {node}"
        );
    }
}
