//! Live-cluster equivalence gate (`BENCH_live.json`).
//!
//! Boots loopback TCP clusters at each of [`NODE_COUNTS`], runs the same
//! timing-insensitive query band on each, and writes one exact
//! `invariant` block per cluster size: the DES baseline's decision
//! outcomes and byte totals, whether every live rep matched them — the
//! decision-driven equivalence claim at bench scale — and the summed
//! send/decode error counters (zero on a healthy run). What the sockets
//! *cost* in wall time is `benchmark/`'s `live_chain` workload
//! (`net.tcp_*`, `net.decision_wall_us_p95`), not this file's.
//!
//! Usage: `cargo run -p dde-bench --bin live --release`
//! Knobs: `DDE_REPS` (live runs per cluster size, default 3).

use dde_bench::{env_reps, write_bench_json};
use dde_core::{RunOptions, RunReport, Strategy};
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_net::{run_cluster_tcp_observed, ClusterConfig, ClusterOutcome, DesTransport};
use dde_netsim::{FaultSchedule, LinkSpec, NodeId, Topology};
use dde_obs::{JsonValue, NullSink};
use dde_workload::{
    Catalog, DynamicsClass, ObjectSpec, QueryInstance, RoadGrid, Scenario, ScenarioConfig,
    WorldModel,
};

/// Cluster sizes the equivalence is checked at.
const NODE_COUNTS: [usize; 3] = [2, 4, 8];

/// Virtual-clock scale: one wall second carries this many simulated ones.
const TIME_SCALE: u64 = 32;

/// A chain of `n` nodes (0 — 1 — … — n−1) with both objects hosted at the
/// far end and three spaced queries. Timing-insensitive by the same
/// construction as the DES/TCP equivalence suite: static ground truth,
/// 600 s validity, 60 s deadlines — so decision outcomes and byte totals
/// are a pure function of protocol decisions at any node count.
fn chain_scenario(n: usize) -> Scenario {
    assert!(n >= 2, "chain needs at least two nodes");
    let mut topology = Topology::new(n);
    for i in 0..n - 1 {
        topology.add_link(NodeId(i), NodeId(i + 1), LinkSpec::mbps1());
    }
    topology.rebuild_routes();

    let slow = SimDuration::from_secs(600);
    let mut world = WorldModel::new(5);
    world.register(Label::new("x"), DynamicsClass::Slow, slow, 1.0);
    world.register(Label::new("y"), DynamicsClass::Slow, slow, 1.0);

    let mut catalog = Catalog::new();
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/a".parse().expect("valid name"),
        covers: vec![Label::new("x")],
        size: 250_000,
        source: NodeId(n - 1),
        class: DynamicsClass::Slow,
        validity: slow,
    });
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/wide".parse().expect("valid name"),
        covers: vec![Label::new("x"), Label::new("y")],
        size: 450_000,
        source: NodeId(n - 1),
        class: DynamicsClass::Slow,
        validity: slow,
    });

    let query = |id: u64, origin: usize, labels: &[&str], at: u64| QueryInstance {
        id,
        origin: NodeId(origin),
        expr: Dnf::from_terms(vec![Term::all_of(labels.iter().copied())]),
        deadline: SimDuration::from_secs(60),
        issue_at: SimTime::from_secs(at),
    };
    let queries = vec![
        query(0, 0, &["x"], 5),           // full-chain fetch
        query(1, n / 2, &["x", "y"], 20), // panorama from mid-chain
        query(2, n - 1, &["x"], 35),      // co-located, no network needed
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

/// Decision-level agreement with the DES baseline: outcome tallies and
/// the total byte count (the equivalence suite's headline claim).
fn matches_des(des: &RunReport, live: &RunReport) -> bool {
    des.resolved == live.resolved
        && des.viable == live.viable
        && des.infeasible == live.infeasible
        && des.missed == live.missed
        && des.total_bytes == live.total_bytes
}

/// What one live rep contributes to the invariant block.
struct RepObs {
    send_errors: u64,
    decode_errors: u64,
    matched: bool,
}

fn observe_rep(des: &RunReport, outcome: &ClusterOutcome) -> RepObs {
    let sum = |name: &str| -> u64 {
        outcome
            .nodes
            .iter()
            .map(|node| node.snapshot.counter(name).unwrap_or(0))
            .sum()
    };
    RepObs {
        send_errors: sum("host.send_errors"),
        decode_errors: sum("tcp.decode_errors"),
        matched: matches_des(des, &outcome.report),
    }
}

fn point_json(n: usize, des: &RunReport, obs: &[RepObs]) -> JsonValue {
    let all_matched = obs.iter().all(|o| o.matched);
    let send_errors: u64 = obs.iter().map(|o| o.send_errors).sum();
    let decode_errors: u64 = obs.iter().map(|o| o.decode_errors).sum();
    let invariant = JsonValue::Object(vec![
        ("queries".into(), JsonValue::Int(des.total_queries as i64)),
        ("resolved".into(), JsonValue::Int(des.resolved as i64)),
        ("viable".into(), JsonValue::Int(des.viable as i64)),
        ("infeasible".into(), JsonValue::Int(des.infeasible as i64)),
        ("missed".into(), JsonValue::Int(des.missed as i64)),
        ("total_bytes".into(), JsonValue::Int(des.total_bytes as i64)),
        ("live_matches_des".into(), JsonValue::Bool(all_matched)),
        ("send_errors".into(), JsonValue::Int(send_errors as i64)),
        ("decode_errors".into(), JsonValue::Int(decode_errors as i64)),
    ]);
    JsonValue::Object(vec![
        ("nodes".into(), JsonValue::Int(n as i64)),
        ("invariant".into(), invariant),
    ])
}

fn main() -> std::io::Result<()> {
    let reps = env_reps(3);
    println!(
        "== live cluster gate: nodes {NODE_COUNTS:?}, {reps} reps, virtual-clock scale {TIME_SCALE} ==\n"
    );
    let options = RunOptions::new(Strategy::Lvf);
    let config = ClusterConfig {
        time_scale: TIME_SCALE,
        probe_wall_ms: Some(100),
        flight_recorder_cap: 256,
    };

    let mut points = Vec::new();
    let mut failures = 0usize;
    for n in NODE_COUNTS {
        let scenario = chain_scenario(n);
        let des = DesTransport::new(options.clone()).run_observed(&scenario, Box::new(NullSink));
        assert_eq!(
            des.resolved, des.total_queries,
            "DES baseline failed to decide all queries at n={n}"
        );

        let mut obs = Vec::new();
        for rep in 0..reps {
            match run_cluster_tcp_observed::<NullSink>(&scenario, &options, &config, None) {
                Ok(outcome) => obs.push(observe_rep(&des, &outcome)),
                Err(e) => {
                    eprintln!("live gate: n={n} rep={rep}: cluster run failed: {e}");
                    failures += 1;
                }
            }
        }
        if obs.is_empty() {
            failures += 1;
            continue;
        }
        println!(
            "  n={n}: {} of {} live runs match the DES baseline",
            obs.iter().filter(|o| o.matched).count(),
            obs.len(),
        );
        points.push(point_json(n, &des, &obs));
    }

    let doc = JsonValue::Object(vec![
        ("figure".into(), JsonValue::Str("live".into())),
        ("scale".into(), JsonValue::Str("small".into())),
        ("points".into(), JsonValue::Array(points)),
    ]);
    write_bench_json("BENCH_live.json", &doc)?;
    if failures > 0 {
        eprintln!("live gate FAILED: {failures} cluster run(s) did not complete");
        std::process::exit(1);
    }
    Ok(())
}
