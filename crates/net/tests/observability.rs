//! Live observability plane, end to end: the flight recorder's
//! post-mortem dump on an injected [`NetError`], the health-probe wire
//! exchange against a real [`TcpTransport`], and the per-node telemetry a
//! full observed cluster run hands back.

use dde_core::{RunOptions, Strategy};
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_net::{
    probe_health, run_cluster_tcp_observed, ClusterConfig, HealthState, MessageHandler, NetError,
    NodeHost, TcpTransport, Transport, VirtualClock,
};
use dde_netsim::{FaultSchedule, LinkSpec, NodeId, Topology};
use dde_obs::metrics::MetricsRegistry;
use dde_obs::{FlightRecorder, NullSink, SharedSink};
use dde_workload::{
    Catalog, DynamicsClass, ObjectSpec, QueryInstance, RoadGrid, Scenario, ScenarioConfig,
    WorldModel,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Two nodes, one link: node 0 issues a query over label `x`, node 1
/// hosts the only object covering it — so node 0 *must* transmit.
fn pair_scenario() -> Scenario {
    let mut topology = Topology::new(2);
    topology.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1());
    topology.rebuild_routes();

    let slow = SimDuration::from_secs(600);
    let mut world = WorldModel::new(5);
    world.register(Label::new("x"), DynamicsClass::Slow, slow, 1.0);

    let mut catalog = Catalog::new();
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/a".parse().expect("valid name"),
        covers: vec![Label::new("x")],
        size: 250_000,
        source: NodeId(1),
        class: DynamicsClass::Slow,
        validity: slow,
    });

    let queries = vec![QueryInstance {
        id: 0,
        origin: NodeId(0),
        expr: Dnf::from_terms(vec![Term::all_of(["x"])]),
        deadline: SimDuration::from_secs(60),
        issue_at: SimTime::from_secs(1),
    }];

    let grid = RoadGrid::new(2, 2);
    let node_sites = grid.intersections().take(2).collect();
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

/// A transport whose every send fails fatally — the injected
/// [`NetError`] that must trigger the flight recorder's dump.
struct FailingTransport {
    id: NodeId,
    neighbors: Vec<NodeId>,
    clock: Arc<VirtualClock>,
    _handler: Option<MessageHandler>,
}

impl Transport for FailingTransport {
    fn local_node(&self) -> NodeId {
        self.id
    }
    fn neighbors(&self) -> Vec<NodeId> {
        self.neighbors.clone()
    }
    fn local_now(&self) -> SimTime {
        self.clock.now()
    }
    fn send_to(&self, _to: NodeId, _msg: &dde_core::AthenaMsg) -> Result<(), NetError> {
        Err(NetError::Shutdown)
    }
    fn set_message_handler(&mut self, handler: MessageHandler) {
        self._handler = Some(handler);
    }
    fn shutdown(&mut self) -> Result<(), NetError> {
        Ok(())
    }
}

#[test]
fn flight_recorder_retains_the_tail_when_a_send_fails_fatally() {
    let scenario = pair_scenario();
    let options = RunOptions::new(Strategy::Lvf);
    let shared = dde_core::build_shared_world(&scenario, &options);
    let annotator: Arc<dyn dde_core::Annotator + Send + Sync> =
        Arc::new(dde_core::GroundTruthAnnotator);
    let node = dde_core::build_nodes(&scenario, &shared, &annotator)
        .into_iter()
        .next()
        .expect("node 0");
    let mut topology = scenario.topology.clone();
    topology.ensure_routes();

    // Large scale: the whole virtual band elapses in microseconds of
    // wall time, so the query fires on the first loop pass.
    let clock = Arc::new(VirtualClock::start(1_000_000));
    let transport = FailingTransport {
        id: NodeId(0),
        neighbors: vec![NodeId(1)],
        clock: Arc::clone(&clock),
        _handler: None,
    };
    let recorder = SharedSink::new(FlightRecorder::new(32));
    let query = scenario.queries[0].clone();
    let externals = vec![(query.issue_at, query.into())];
    let horizon = SimTime::from_secs(90);

    let result = NodeHost::new(
        NodeId(0),
        node,
        topology,
        Box::new(transport),
        externals,
        horizon,
        Box::new(recorder.clone()),
        clock,
    )
    .with_recorder(recorder.clone())
    .run();

    // The injected error is fatal and typed...
    assert!(matches!(result, Err(NetError::Shutdown)), "{result:?}");
    // ...and the recorder kept the trace tail for the post-mortem dump
    // (run() has already printed it to stderr at this point): the
    // Transmit record of the very send that failed is in there.
    let report = recorder.with(|r| r.render_report("test"));
    assert!(
        recorder.with(|r| !r.is_empty()),
        "flight recorder retained nothing"
    );
    assert!(report.contains("=== flight recorder: test"), "{report}");
    assert!(report.contains("\"transmit\""), "no Transmit in:\n{report}");
}

#[test]
fn health_probes_answer_over_the_wire_with_metrics_snapshots() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("local_addr");
    let registry = Arc::new(MetricsRegistry::new());
    let health = Arc::new(HealthState::new(Arc::clone(&registry)));
    let clock = Arc::new(VirtualClock::start(16));
    let mut transport = TcpTransport::new(
        NodeId(0),
        listener,
        Arc::new(vec![addr]),
        Vec::new(),
        clock,
        &registry,
        Arc::clone(&health),
    )
    .expect("transport");

    health.mark_ready();
    health.beat(SimTime::from_micros(42_000));
    health.record_dispatch();

    let report = probe_health(addr, 7, Duration::from_secs(2)).expect("probe");
    assert_eq!(report.seq, 7);
    assert_eq!(report.node, 0);
    assert!(report.ready);
    assert_eq!(report.heartbeat_us, 42_000);
    assert_eq!(report.dispatches, 1);
    let snap = report.metrics().expect("parseable snapshot");
    assert_eq!(snap.gauge("health.ready"), Some(1));
    assert_eq!(snap.counter("host.dispatches"), Some(1));

    // The transport counts answered probes (the increment lands after the
    // reply is written, so poll briefly rather than race the reader).
    let mut answered = 0;
    for _ in 0..100 {
        answered = registry
            .snapshot()
            .counter("tcp.probes_answered")
            .unwrap_or(0);
        if answered >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(answered, 1);

    transport.shutdown().expect("shutdown");
    // A stopped transport no longer answers probes.
    assert!(probe_health(addr, 8, Duration::from_millis(300)).is_err());
}

#[test]
fn observed_cluster_run_returns_per_node_telemetry() {
    let scenario = pair_scenario();
    let options = RunOptions::new(Strategy::Lvf);
    let config = ClusterConfig {
        time_scale: 16,
        probe_wall_ms: Some(50),
    };
    let outcome = run_cluster_tcp_observed::<NullSink>(&scenario, &options, &config, None)
        .expect("cluster run");

    assert_eq!(outcome.report.total_queries, 1);
    assert_eq!(outcome.report.resolved, 1, "query undecided");
    assert_eq!(outcome.nodes.len(), 2);

    for node in &outcome.nodes {
        // Every host dispatched at least its on_start stimulus and was
        // marked stopped again by the time the snapshot was taken.
        assert!(
            node.snapshot.counter("host.dispatches").unwrap_or(0) >= 1,
            "node {} dispatched nothing",
            node.node
        );
        assert_eq!(node.snapshot.gauge("health.ready"), Some(0));
        // The coordinator prober swept every 50 ms across a multi-second
        // run; every node must have answered at least once.
        assert!(node.probes_ok > 0, "node {} never probed ok", node.node);
        let last = node
            .last_report
            .as_ref()
            .unwrap_or_else(|| panic!("node {} has no last report", node.node));
        assert_eq!(last.node as usize, node.node);
        last.metrics().expect("last report snapshot parses");
    }

    // The query's fetch crossed the wire: the origin timed its sends and
    // somebody moved protocol frames in both directions.
    let origin = &outcome.nodes[0].snapshot;
    assert!(
        origin
            .histogram("host.send_wall_us")
            .map(|h| h.count())
            .unwrap_or(0)
            >= 1,
        "origin recorded no send latency"
    );
    let frames_out: u64 = outcome
        .nodes
        .iter()
        .map(|n| n.snapshot.counter("tcp.frames_out").unwrap_or(0))
        .sum();
    let frames_in: u64 = outcome
        .nodes
        .iter()
        .map(|n| n.snapshot.counter("tcp.frames_in").unwrap_or(0))
        .sum();
    assert!(frames_out > 0, "no frames sent");
    assert!(frames_in > 0, "no frames received");
}
