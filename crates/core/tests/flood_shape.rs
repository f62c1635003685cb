//! Pins the traffic of the query announce (`Query_Init`/`Query_Recv`, §VI)
//! on fixed and random topologies, once per site that starts or continues
//! one: issue, announce-only, relay, and crash recovery (which sends
//! none).
//!
//! An announce of a query from `origin` travels down `origin`'s routing
//! tree: a node sends it to each neighbor whose next hop toward `origin` is
//! that node. With `r` nodes reachable from `origin` (`n` when nothing is
//! down) one announce costs `r − 1` sends, and every reachable node but the
//! origin relays it once. Since each relay consumes a copy, `r − 1` sends
//! and `r − 1` relays mean each node heard it exactly once.

use dde_core::prelude::*;
use dde_core::AthenaEvent;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::{FaultSchedule, LinkSpec, NodeId, ShardedSimulator, Topology, WireMessage};
use dde_workload::catalog::{Catalog, ObjectSpec};
use dde_workload::scenario::QueryInstance;
use dde_workload::world::{DynamicsClass, WorldModel};
use std::sync::Arc;

const ORIGIN: NodeId = NodeId(0);

fn topologies() -> Vec<(String, Topology)> {
    let mut all = vec![
        ("ring".to_string(), Topology::ring(6, LinkSpec::mbps1())),
        ("grid".to_string(), Topology::grid(3, 3, LinkSpec::mbps1())),
        ("star".to_string(), Topology::star(5, LinkSpec::mbps1())),
        ("line".to_string(), Topology::line(5, LinkSpec::mbps1())),
    ];
    for seed in 1..=4 {
        for extra in [0, 15, 45] {
            all.push((
                format!("random(30, {extra}, {seed})"),
                Topology::random_connected(30, extra, seed),
            ));
        }
    }
    all
}

/// Labels `x` and `y` are each covered by one small object hosted at the
/// last node; label `ghost` has no provider, so a query over it stays
/// pending to its deadline without sending a single request.
fn simulator(topology: &Topology, options: RunOptions) -> ShardedSimulator<AthenaNode> {
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
    let shared = Arc::new(SharedWorld::new(catalog, world, options));
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

/// Asserts that the run sent exactly `announces` announces from [`ORIGIN`]
/// down its tree, each reaching every node in `reachable` (which includes
/// the origin) once, and nothing else.
fn assert_tree_shape(
    what: &str,
    sim: &ShardedSimulator<AthenaNode>,
    reachable: &[NodeId],
    announces: u64,
    bytes_per_announce: u64,
) {
    let sends = announces * (reachable.len() as u64 - 1);
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
    for node in sim.topology().nodes() {
        let relayed = sim.node(node).stats.announces_relayed;
        let expected = if node != ORIGIN && reachable.contains(&node) {
            announces
        } else {
            0
        };
        assert_eq!(relayed, expected, "{what}: relays at {node}");
    }
}

fn all_nodes(topology: &Topology) -> Vec<NodeId> {
    topology.nodes().collect()
}

#[test]
fn issue_floods_once() {
    for (name, topology) in topologies() {
        let mut sim = simulator(&topology, RunOptions::new(Strategy::Lvf));
        let q = query(0, "ghost");
        sim.schedule_external(SimTime::ZERO, ORIGIN, q.clone().into());
        sim.run();
        let what = format!("{name} issue");
        assert_tree_shape(&what, &sim, &all_nodes(&topology), 1, announce_bytes(&q));
        assert_eq!(sim.metrics().kind("request").count, 0, "{what}");
    }
}

#[test]
fn announce_only_floods_once_and_the_later_issue_is_silent() {
    for (name, topology) in topologies() {
        let mut sim = simulator(&topology, RunOptions::new(Strategy::Lvf));
        let q = query(0, "ghost");
        sim.schedule_external(SimTime::ZERO, ORIGIN, AthenaEvent::AnnounceOnly(q.clone()));
        // A second early announcement of the same query is deduplicated.
        sim.schedule_external(
            SimTime::from_secs(1),
            ORIGIN,
            AthenaEvent::AnnounceOnly(q.clone()),
        );
        sim.run();
        assert_tree_shape(
            &format!("{name} announce-only"),
            &sim,
            &all_nodes(&topology),
            1,
            announce_bytes(&q),
        );
    }
}

#[test]
fn relay_skips_the_sender_and_fires_once_per_node() {
    // Two queries from the same origin: every other node relays each once.
    for (name, topology) in topologies() {
        let mut sim = simulator(&topology, RunOptions::new(Strategy::Lvf));
        let (a, b) = (query(0, "ghost"), query(1, "ghost"));
        sim.schedule_external(SimTime::ZERO, ORIGIN, a.clone().into());
        sim.schedule_external(SimTime::from_secs(1), ORIGIN, b.into());
        sim.run();
        assert_tree_shape(
            &format!("{name} relay"),
            &sim,
            &all_nodes(&topology),
            2,
            announce_bytes(&a),
        );
    }
}

#[test]
fn a_link_down_before_issue_reshapes_the_tree() {
    // On the ring the tree detours around the cut and still reaches every
    // node; on the line the cut strands the far side, which hears nothing.
    let cases = [
        ("ring", Topology::ring(6, LinkSpec::mbps1()), NodeId(1), 6),
        ("line", Topology::line(5, LinkSpec::mbps1()), NodeId(3), 3),
    ];
    for (name, topology, far, reached) in cases {
        let near = NodeId(far.index() - 1);
        let mut cut = topology.clone();
        cut.set_link_enabled(near, far, false);
        cut.rebuild_routes();
        let reachable: Vec<NodeId> = cut
            .nodes()
            .filter(|&v| cut.hop_distance(v, ORIGIN).is_some())
            .collect();

        let mut sim = simulator(&topology, RunOptions::new(Strategy::Lvf));
        let mut faults = FaultSchedule::new();
        faults.link_down_at(SimTime::ZERO, near, far);
        sim.install_faults(&faults);
        let q = query(0, "ghost");
        sim.schedule_external(SimTime::from_secs(1), ORIGIN, q.clone().into());
        sim.run();
        let what = format!("{name} link down");
        assert_eq!(reachable.len(), reached, "{what}: reachable nodes");
        assert_tree_shape(&what, &sim, &reachable, 1, announce_bytes(&q));
    }
}

#[test]
fn recovery_sends_no_announce() {
    for (name, topology) in topologies() {
        let mut sim = simulator(&topology, RunOptions::new(Strategy::Lvf));
        let q = query(0, "ghost");
        sim.schedule_external(SimTime::ZERO, ORIGIN, q.clone().into());
        let mut faults = FaultSchedule::new();
        faults.crash_at(SimTime::from_secs(10), ORIGIN);
        faults.recover_at(SimTime::from_secs(20), ORIGIN);
        sim.install_faults(&faults);
        sim.run();
        // The query is still open at recovery; every node heard its
        // announce before the crash, so the origin sends none again.
        let what = format!("{name} recover");
        assert_tree_shape(&what, &sim, &all_nodes(&topology), 1, announce_bytes(&q));
        let q = sim.node(ORIGIN).queries().next().unwrap();
        assert_eq!(
            q.status,
            QueryStatus::Missed,
            "{what}: the deadline still fires"
        );
    }
}
