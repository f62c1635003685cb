//! Pins the traffic of the announce flood (`Query_Init`/`Query_Recv`, §VI)
//! on fixed topologies, once per site that starts or continues a flood:
//! issue, announce-only, deferred-then-admitted, relay, and crash recovery.
//!
//! One flood of a query from `origin` costs `deg(origin)` sends at the
//! origin plus `deg(v) − 1` at every other node `v` (each relays once, to
//! everyone but the sender): `Σ deg − (n − 1)` announces, `n − 1` relays.

use dde_core::prelude::*;
use dde_core::AthenaEvent;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::{FaultSchedule, LinkSpec, NodeId, ShardedSimulator, Topology, WireMessage};
use dde_sched::adaptive::{AdaptiveConfig, AdmissionPolicy};
use dde_workload::catalog::{Catalog, ObjectSpec};
use dde_workload::scenario::QueryInstance;
use dde_workload::world::{DynamicsClass, WorldModel};
use std::sync::Arc;

const ORIGIN: NodeId = NodeId(0);

fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("ring", Topology::ring(6, LinkSpec::mbps1())),
        ("grid", Topology::grid(3, 3, LinkSpec::mbps1())),
    ]
}

/// Labels `x` and `y` are each covered by one small object hosted at the
/// last node; label `ghost` has no provider, so a query over it stays
/// pending to its deadline without sending a single request.
fn simulator(topology: &Topology, config: NodeConfig) -> ShardedSimulator<AthenaNode> {
    let n = topology.len();
    let validity = SimDuration::from_secs(600);
    let mut world = WorldModel::new(4);
    let mut catalog = Catalog::new();
    for label in ["x", "y"] {
        world.register(Label::new(label), DynamicsClass::Slow, validity, 1.0);
        catalog.add(ObjectSpec {
            name: format!("/city/seg/{label}/cam/a").parse().unwrap(),
            covers: vec![Label::new(label)],
            size: 1_000,
            source: NodeId(n - 1),
            class: DynamicsClass::Slow,
            validity,
        });
    }
    let shared = Arc::new(SharedWorld {
        catalog,
        world,
        config,
    });
    let nodes = (0..n)
        .map(|_| AthenaNode::new(Arc::clone(&shared), Arc::new(GroundTruthAnnotator)))
        .collect();
    ShardedSimulator::new(topology.clone(), nodes, 1, 1)
}

fn query(id: u64, label: &str) -> QueryInstance {
    QueryInstance {
        id,
        origin: ORIGIN,
        expr: Dnf::from_terms(vec![Term::all_of([label]), Term::all_of([label, "other"])]),
        deadline: SimDuration::from_secs(60),
        issue_at: SimTime::ZERO,
    }
}

fn announce_bytes(q: &QueryInstance) -> u64 {
    AthenaMsg::QueryAnnounce {
        qid: QueryId(q.id),
        origin: q.origin,
        expr: q.expr.clone(),
        deadline_at: q.issue_at + q.deadline,
    }
    .wire_size()
}

fn degree_sum(topology: &Topology) -> u64 {
    topology.directed_link_count() as u64
}

/// Asserts that the run sent exactly `floods` whole floods from [`ORIGIN`]
/// plus `extra_sends` further announces that every receiver dropped.
fn assert_flood_shape(
    what: &str,
    sim: &ShardedSimulator<AthenaNode>,
    floods: u64,
    extra_sends: u64,
    bytes_per_announce: u64,
) {
    let topology = sim.topology();
    let n = topology.len() as u64;
    let sends = floods * (degree_sum(topology) - (n - 1)) + extra_sends;
    let announce = sim.metrics().kind("announce");
    assert_eq!(announce.count, sends, "{what}: announces sent");
    assert_eq!(
        announce.bytes,
        sends * bytes_per_announce,
        "{what}: announce bytes"
    );
    let by_kind: Vec<_> = sim.metrics().kinds().collect();
    assert!(
        by_kind.contains(&("announce", announce)),
        "{what}: kinds() lists the same counters"
    );
    for node in topology.nodes() {
        let relayed = sim.node(node).stats.announces_relayed;
        let expected = if node == ORIGIN { 0 } else { floods };
        assert_eq!(relayed, expected, "{what}: relays at {node}");
    }
}

#[test]
fn issue_floods_once() {
    for (name, topology) in topologies() {
        let mut sim = simulator(&topology, NodeConfig::new(Strategy::Lvf));
        let q = query(0, "ghost");
        sim.schedule_external(SimTime::ZERO, ORIGIN, q.clone().into());
        sim.run();
        assert_flood_shape(&format!("{name} issue"), &sim, 1, 0, announce_bytes(&q));
        assert_eq!(sim.metrics().kind("request").count, 0);
    }
}

#[test]
fn announce_only_floods_once_and_the_later_issue_is_silent() {
    for (name, topology) in topologies() {
        let mut sim = simulator(&topology, NodeConfig::new(Strategy::Lvf));
        let q = query(0, "ghost");
        sim.schedule_external(SimTime::ZERO, ORIGIN, AthenaEvent::AnnounceOnly(q.clone()));
        // A second early announcement of the same query is deduplicated.
        sim.schedule_external(
            SimTime::from_secs(1),
            ORIGIN,
            AthenaEvent::AnnounceOnly(q.clone()),
        );
        sim.run();
        assert_flood_shape(
            &format!("{name} announce-only"),
            &sim,
            1,
            0,
            announce_bytes(&q),
        );
    }
}

#[test]
fn relay_skips_the_sender_and_fires_once_per_node() {
    // Two queries from the same origin: every other node relays each once.
    for (name, topology) in topologies() {
        let mut sim = simulator(&topology, NodeConfig::new(Strategy::Lvf));
        let (a, b) = (query(0, "ghost"), query(1, "ghost"));
        sim.schedule_external(SimTime::ZERO, ORIGIN, a.clone().into());
        sim.schedule_external(SimTime::from_secs(1), ORIGIN, b.into());
        sim.run();
        assert_flood_shape(&format!("{name} relay"), &sim, 2, 0, announce_bytes(&a));
    }
}

#[test]
fn deferred_query_floods_when_admitted() {
    // The gate counts the node overloaded as soon as one query is active,
    // and admits nothing with a positive predicted cost while it is: query 1
    // is deferred behind query 0 and admitted once query 0 has resolved.
    let policy = AdmissionPolicy {
        budget_bytes: 0,
        overload_bytes: 0,
        min_active: 1,
        defer_for: SimDuration::from_secs(5),
        max_defers: 3,
    };
    for (name, topology) in topologies() {
        let mut config = NodeConfig::new(Strategy::Lvf);
        config.adaptive = Some(AdaptiveConfig {
            admission: Some(policy),
            ..AdaptiveConfig::default()
        });
        let mut sim = simulator(&topology, config);
        let (a, b) = (query(0, "x"), query(1, "y"));
        sim.schedule_external(SimTime::ZERO, ORIGIN, a.clone().into());
        sim.schedule_external(SimTime::ZERO, ORIGIN, b.into());
        sim.run_until(SimTime::from_secs(1));
        let what = format!("{name} deferred");
        assert_flood_shape(&what, &sim, 1, 0, announce_bytes(&a));
        assert_eq!(sim.node(ORIGIN).stats.admission_deferred, 1, "{what}");
        sim.run();
        assert_flood_shape(&what, &sim, 2, 0, announce_bytes(&a));
        assert_eq!(sim.node(ORIGIN).stats.admission_deferred, 1, "{what}");
        assert_eq!(sim.node(ORIGIN).stats.admission_shed, 0, "{what}");
    }
}

#[test]
fn recovery_reannounces_to_neighbors_only() {
    for (name, topology) in topologies() {
        let mut sim = simulator(&topology, NodeConfig::new(Strategy::Lvf));
        let q = query(0, "ghost");
        sim.schedule_external(SimTime::ZERO, ORIGIN, q.clone().into());
        let mut faults = FaultSchedule::new();
        faults.crash_at(SimTime::from_secs(10), ORIGIN);
        faults.recover_at(SimTime::from_secs(20), ORIGIN);
        sim.install_faults(&faults);
        sim.run();
        // The query is still open at recovery, so the origin announces it
        // again; every neighbor has seen it and drops the repeat.
        let repeats = topology.neighbors(ORIGIN).count() as u64;
        assert_flood_shape(
            &format!("{name} recover"),
            &sim,
            1,
            repeats,
            announce_bytes(&q),
        );
    }
}
