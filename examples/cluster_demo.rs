//! Cluster demo: the same scenario on both transport backends.
//!
//! Runs a small query band through the deterministic DES backend and on a
//! loopback TCP cluster — one OS thread + real socket endpoint per Athena
//! node — and prints both backends' per-query outcomes and attributed
//! bytes side by side. The live run's merged trace is written as JSONL,
//! its per-node metrics snapshots as a `{"nodes": [...]}` collection
//! readable by `dde-trace metrics` (CI uploads both as artifacts).
//!
//! Run with: `cargo run -p dde-examples --bin cluster_demo
//! [trace.jsonl [metrics.json]]`
//!
//! Exits nonzero only when a run fails. Whether the backends agree is
//! checked by `crates/net/tests/des_tcp_equivalence.rs`.

// CLI argument parsing reads the environment; the scenario and both
// backend runs are fixed (same policy as city_scale.rs).
#![allow(clippy::disallowed_methods)]
use dde_core::{run_scenario_observed, QueryOutcome, QueryStatus, RunOptions, RunReport, Strategy};
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_net::{run_cluster_tcp_observed, ClusterConfig, NodeTelemetry};
use dde_netsim::{FaultSchedule, LinkSpec, NodeId, Topology};
use dde_obs::{JsonValue, JsonlSink, NullSink};
use dde_workload::{
    Catalog, DynamicsClass, ObjectSpec, QueryInstance, RoadGrid, Scenario, ScenarioConfig,
    WorldModel,
};
use std::io::BufWriter;

/// A 4-node star (leaf 0 — hub 1 — leaves 2, 3) with static ground truth
/// and spaced queries: timing-insensitive by construction, so byte totals
/// are a pure function of protocol decisions on either backend.
fn star_scenario() -> Scenario {
    let mut topology = Topology::new(4);
    topology.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1());
    topology.add_link(NodeId(1), NodeId(2), LinkSpec::mbps1());
    topology.add_link(NodeId(1), NodeId(3), LinkSpec::mbps1());
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
        source: NodeId(3),
        class: DynamicsClass::Slow,
        validity: slow,
    });
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/wide".parse().expect("valid name"),
        covers: vec![Label::new("x"), Label::new("y")],
        size: 450_000,
        source: NodeId(3),
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
        query(0, 0, &["x"], 5),
        query(1, 2, &["x", "y"], 20),
        query(2, 3, &["x"], 35),
    ];

    let grid = RoadGrid::new(2, 2);
    let node_sites = grid.intersections().take(4).collect();
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

fn outcome_str(status: &QueryStatus) -> String {
    match status {
        QueryStatus::Decided {
            outcome: QueryOutcome::Viable(i),
            ..
        } => format!("viable(route {i})"),
        QueryStatus::Decided {
            outcome: QueryOutcome::Infeasible,
            ..
        } => "infeasible".to_string(),
        QueryStatus::Missed => "missed".to_string(),
        QueryStatus::Pending => "pending".to_string(),
    }
}

/// Prints each query's outcome and attributed bytes on both backends.
fn print_side_by_side(des: &RunReport, tcp: &RunReport) {
    println!("\n  per-query outcomes:");
    println!(
        "  {:>5} {:>7} {:>20} {:>20} {:>10} {:>10}",
        "query", "origin", "DES outcome", "TCP outcome", "DES bytes", "TCP bytes"
    );
    let bytes = |report: &RunReport, qid: u64| {
        report
            .ledger
            .as_ref()
            .and_then(|l| l.queries.get(&qid))
            .map_or(0, |q| q.bytes)
    };
    for (d, t) in des.queries.iter().zip(&tcp.queries) {
        println!(
            "  {:>5} {:>7} {:>20} {:>20} {:>10} {:>10}",
            d.id.to_string(),
            d.origin.to_string(),
            outcome_str(&d.status),
            outcome_str(&t.status),
            bytes(des, d.id.0),
            bytes(tcp, t.id.0),
        );
    }
}

/// Prints the per-node live-telemetry table: what each node's registry
/// counted, plus the coordinator prober's tallies.
fn print_telemetry(nodes: &[NodeTelemetry]) {
    println!("\n  per-node live telemetry:");
    println!(
        "  {:>4} {:>10} {:>10} {:>12} {:>10} {:>12} {:>8} {:>12} {:>12}",
        "node",
        "dispatches",
        "frames_out",
        "bytes_out",
        "frames_in",
        "bytes_in",
        "retries",
        "send p95 us",
        "probes ok/ko"
    );
    for t in nodes {
        let c = |name: &str| t.snapshot.counter(name).unwrap_or(0);
        let send_p95 = t
            .snapshot
            .histogram("host.send_wall_us")
            .and_then(|h| h.p95())
            .map_or(0, |d| d.as_micros());
        println!(
            "  {:>4} {:>10} {:>10} {:>12} {:>10} {:>12} {:>8} {:>12} {:>9}/{:<2}",
            t.node,
            c("host.dispatches"),
            c("tcp.frames_out"),
            c("tcp.bytes_out"),
            c("tcp.frames_in"),
            c("tcp.bytes_in"),
            c("tcp.connect_retries"),
            send_p95,
            t.probes_ok,
            t.probes_failed,
        );
    }
}

/// The metrics artifact: the per-node collection shape
/// `dde_obs::parse_snapshot_document` (and `dde-trace metrics`) accepts,
/// with the prober tallies alongside each snapshot.
fn metrics_document(nodes: &[NodeTelemetry]) -> JsonValue {
    let entries = nodes
        .iter()
        .map(|t| {
            JsonValue::Object(vec![
                ("node".into(), JsonValue::Int(t.node as i64)),
                (
                    "probes_ok".into(),
                    JsonValue::Int(t.probes_ok.min(i64::MAX as u64) as i64),
                ),
                (
                    "probes_failed".into(),
                    JsonValue::Int(t.probes_failed.min(i64::MAX as u64) as i64),
                ),
                ("metrics".into(), t.snapshot.to_json_value()),
            ])
        })
        .collect();
    JsonValue::Object(vec![("nodes".into(), JsonValue::Array(entries))])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "cluster_trace.jsonl".to_string());
    let metrics_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "cluster_metrics.json".to_string());
    let scenario = star_scenario();
    let options = RunOptions::new(Strategy::Lvf);

    println!("== DES backend (deterministic baseline) ==");
    let des = run_scenario_observed(&scenario, options.clone(), Box::new(NullSink));
    println!(
        "  resolved {}/{} | total bytes {}",
        des.resolved, des.total_queries, des.total_bytes
    );

    println!(
        "\n== TCP backend (loopback cluster, {} real node threads) ==",
        scenario.topology.len()
    );
    let trace = JsonlSink::new(BufWriter::new(std::fs::File::create(&trace_path)?));
    let outcome =
        run_cluster_tcp_observed(&scenario, &options, &ClusterConfig::default(), Some(trace))?;
    let tcp = &outcome.report;
    println!(
        "  resolved {}/{} | total bytes {} | trace -> {}",
        tcp.resolved, tcp.total_queries, tcp.total_bytes, trace_path
    );

    print_telemetry(&outcome.nodes);
    let mut doc = metrics_document(&outcome.nodes).to_pretty_string();
    doc.push('\n');
    std::fs::write(&metrics_path, doc)?;
    println!("  metrics -> {metrics_path}");

    print_side_by_side(&des, tcp);
    Ok(())
}
