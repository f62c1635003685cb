//! End-to-end backend equivalence, the one DES-vs-TCP check: the same
//! scenario through the DES ([`run_scenario_observed`]) and through a
//! loopback TCP cluster ([`run_cluster_tcp_observed`]) must reach the
//! **same decision outcomes** and charge the **same attributed bytes** to
//! each query, with no failed send and no undecodable frame.
//!
//! What is compared — and what deliberately is not — encodes the
//! nondeterminism boundary of the live backend (DESIGN.md §5g):
//!
//! - compared: per-query outcome (viable/infeasible/missed, and *which*
//!   course of action), the resolved/viable/infeasible/missed tallies,
//!   per-query ledger byte totals and their per-message-kind breakdown,
//!   overhead bytes, the run's total bytes, and the summed
//!   `host.send_errors` and `tcp.decode_errors` counters (zero);
//! - excluded: latencies, decision timestamps, and trace order — thread
//!   scheduling and wall-clock jitter make those vary run to run on TCP.
//!
//! The scenarios are built to be *timing-insensitive* so that byte totals
//! are a pure function of protocol decisions: static ground truth
//! (`prob_true = 1.0`, 600 s validity — far beyond any delivery jitter),
//! queries spaced well apart, retry timeout (30 s) far above worst-case
//! fetch latency, and no loss, faults, or prefetch pacing.
//!
//! The star runs in tier-1. The chains of 2, 4 and 8 nodes take about
//! 19 s of virtual-clock wall between them, so they are `#[ignore]`d and
//! run with `cargo test --release -p dde-net -- --include-ignored`.

use dde_core::{run_scenario_observed, QueryOutcome, QueryStatus, RunOptions, RunReport, Strategy};
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_net::{run_cluster_tcp_observed, ClusterConfig, ClusterOutcome, NetError};
use dde_netsim::{FaultSchedule, LinkSpec, NodeId, Topology};
use dde_obs::NullSink;
use dde_workload::{
    Catalog, DynamicsClass, ObjectSpec, QueryInstance, RoadGrid, Scenario, ScenarioConfig,
    WorldModel,
};

/// Two static labels over `topology`: `x` covered by a cheap camera and a
/// wide shot, both hosted at `source`; `y` covered only by the wide shot.
/// Three queries, far apart, from `origins`: `x`, then `x ∧ y`, then `x`.
fn band(topology: Topology, source: usize, origins: [usize; 3]) -> Scenario {
    let n = topology.len();
    let slow = SimDuration::from_secs(600);
    let mut world = WorldModel::new(5);
    world.register(Label::new("x"), DynamicsClass::Slow, slow, 1.0);
    world.register(Label::new("y"), DynamicsClass::Slow, slow, 1.0);

    let mut catalog = Catalog::new();
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/a".parse().expect("valid name"),
        covers: vec![Label::new("x")],
        size: 250_000,
        source: NodeId(source),
        class: DynamicsClass::Slow,
        validity: slow,
    });
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/wide".parse().expect("valid name"),
        covers: vec![Label::new("x"), Label::new("y")],
        size: 450_000,
        source: NodeId(source),
        class: DynamicsClass::Slow,
        validity: slow,
    });

    // Queries issue well after cluster boot (5 s of virtual slack) and
    // far apart, so a millisecond of scheduling jitter cannot reorder
    // which query's evidence is cached when the next one plans.
    let query = |id: u64, labels: &[&str], at: u64| QueryInstance {
        id,
        origin: NodeId(origins[id as usize]),
        expr: Dnf::from_terms(vec![Term::all_of(labels.iter().copied())]),
        deadline: SimDuration::from_secs(60),
        issue_at: SimTime::from_secs(at),
    };
    let queries = vec![
        query(0, &["x"], 5),
        query(1, &["x", "y"], 20),
        query(2, &["x"], 35),
    ];

    let grid = RoadGrid::new(2, n);
    let node_sites = grid.intersections().take(n).collect();
    Scenario {
        config: ScenarioConfig::small(),
        grid,
        node_sites,
        topology,
        world,
        catalog,
        queries,
        faults: FaultSchedule::new(),
    }
}

/// A 4-node star — leaf 0, hub 1, leaf 2, source-leaf 3: a two-hop fetch
/// from leaf 0, a panorama from leaf 2 after the hub warmed up, and a
/// co-located query at the source that needs no network.
fn star_scenario() -> Scenario {
    let mut topology = Topology::new(4);
    topology.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1());
    topology.add_link(NodeId(1), NodeId(2), LinkSpec::mbps1());
    topology.add_link(NodeId(1), NodeId(3), LinkSpec::mbps1());
    topology.rebuild_routes();
    band(topology, 3, [0, 2, 3])
}

/// A chain `0 — 1 — … — n−1` with both objects at the far end: a
/// full-chain fetch, a panorama from mid-chain, and a co-located query.
fn chain_scenario(n: usize) -> Scenario {
    band(
        Topology::line(n, LinkSpec::mbps1()),
        n - 1,
        [0, n / 2, n - 1],
    )
}

fn outcome_of(record: &dde_core::QueryRecord) -> Option<QueryOutcome> {
    match record.status {
        QueryStatus::Decided { outcome, .. } => Some(outcome),
        _ => None,
    }
}

/// Asserts the decision-level and byte-level agreement between two
/// reports, ignoring every timing-derived field.
fn assert_equivalent(what: &str, des: &RunReport, tcp: &RunReport) {
    assert_eq!(des.total_queries, tcp.total_queries, "{what}");
    assert_eq!(
        des.resolved, tcp.resolved,
        "{what}: resolved counts diverge"
    );
    assert_eq!(des.viable, tcp.viable, "{what}: viable counts diverge");
    assert_eq!(
        des.infeasible, tcp.infeasible,
        "{what}: infeasible counts diverge"
    );
    assert_eq!(des.missed, tcp.missed, "{what}: missed counts diverge");
    assert_eq!(des.accurate, tcp.accurate, "{what}: accuracy diverges");

    assert_eq!(des.queries.len(), tcp.queries.len(), "{what}");
    for (d, t) in des.queries.iter().zip(&tcp.queries) {
        assert_eq!(d.id, t.id, "{what}");
        assert_eq!(d.origin, t.origin, "{what}");
        assert_eq!(
            outcome_of(d),
            outcome_of(t),
            "{what}: query {} decided differently",
            d.id
        );
    }

    // Byte accounting: identical in total, per kind, and per query.
    assert_eq!(
        des.total_bytes, tcp.total_bytes,
        "{what}: total bytes diverge"
    );
    assert_eq!(
        des.bytes_by_kind, tcp.bytes_by_kind,
        "{what}: per-kind bytes diverge"
    );

    let des_ledger = des.ledger.as_ref().expect("DES observed run has a ledger");
    let tcp_ledger = tcp.ledger.as_ref().expect("TCP run has a ledger");
    assert_eq!(des_ledger.total_bytes, tcp_ledger.total_bytes, "{what}");
    assert_eq!(
        des_ledger.total_messages, tcp_ledger.total_messages,
        "{what}"
    );
    assert_eq!(
        des_ledger.overhead.bytes, tcp_ledger.overhead.bytes,
        "{what}"
    );
    assert_eq!(
        des_ledger.queries.keys().collect::<Vec<_>>(),
        tcp_ledger.queries.keys().collect::<Vec<_>>(),
        "{what}: attributed query sets diverge"
    );
    for (qid, d) in &des_ledger.queries {
        let t = &tcp_ledger.queries[qid];
        assert_eq!(d.bytes, t.bytes, "{what}: query {qid} byte totals diverge");
        assert_eq!(
            d.bytes_by_msg, t.bytes_by_msg,
            "{what}: query {qid} per-kind bytes diverge"
        );
        assert_eq!(
            d.messages, t.messages,
            "{what}: query {qid} message counts diverge"
        );
    }
}

/// `name` summed over every node of a cluster run.
fn cluster_counter(outcome: &ClusterOutcome, name: &str) -> u64 {
    outcome
        .nodes
        .iter()
        .map(|node| node.snapshot.counter(name).unwrap_or(0))
        .sum()
}

/// Runs `scenario` on both backends, checks the DES decided every query
/// with some traffic, and holds the TCP run to it.
fn assert_backends_agree(what: &str, scenario: &Scenario) {
    let options = RunOptions::new(Strategy::Lvf);
    let des = run_scenario_observed(scenario, options.clone(), Box::new(NullSink));
    let tcp =
        run_cluster_tcp_observed::<NullSink>(scenario, &options, &ClusterConfig::default(), None)
            .unwrap_or_else(|e| panic!("{what}: cluster run failed: {e}"));

    // The scenario must actually exercise the network for the comparison
    // to mean anything.
    assert_eq!(des.total_queries, 3, "{what}");
    assert_eq!(des.resolved, 3, "{what}: DES failed to decide all queries");
    assert!(des.total_bytes > 0, "{what}: scenario produced no traffic");

    assert_equivalent(what, &des, &tcp.report);
    assert_eq!(cluster_counter(&tcp, "host.send_errors"), 0, "{what}");
    assert_eq!(cluster_counter(&tcp, "tcp.decode_errors"), 0, "{what}");
}

#[test]
fn loopback_tcp_cluster_matches_des_outcomes_and_bytes() {
    assert_backends_agree("star", &star_scenario());
}

#[test]
#[ignore = "~19 s of virtual-clock wall on loopback TCP; run with --include-ignored"]
fn loopback_tcp_chains_of_2_4_and_8_nodes_match_des_outcomes_and_bytes() {
    for n in [2, 4, 8] {
        assert_backends_agree(&format!("chain of {n}"), &chain_scenario(n));
    }
}

#[test]
fn tcp_backend_refuses_fault_schedules() {
    let mut scenario = star_scenario();
    scenario.faults.crash_at(SimTime::from_secs(1), NodeId(1));
    let options = RunOptions::new(Strategy::Lvf);
    let err =
        run_cluster_tcp_observed::<NullSink>(&scenario, &options, &ClusterConfig::default(), None);
    assert!(matches!(err, Err(NetError::Unsupported { .. })));
}
