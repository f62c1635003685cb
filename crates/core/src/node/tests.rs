//! Unit tests of the node: small simulated runs over a four-node star, and
//! single handler calls on a hand-built hub.

use super::*;
use crate::annotate::GroundTruthAnnotator;
use crate::msg::RequestKind;
use crate::strategy::Strategy;
use dde_logic::dnf::Term;
use dde_netsim::topology::{LinkSpec, Topology};
use dde_netsim::ShardedSimulator;
use dde_workload::catalog::ObjectSpec;
use dde_workload::scenario::QueryInstance;
use dde_workload::world::DynamicsClass;

/// How long the star's labels keep a value, and by default how long a
/// sampled object stays valid.
const SLOW: SimDuration = SimDuration::from_secs(600);

/// A 4-node star — leaf 0, hub 1, leaf 2, source-leaf 3 — with two
/// labels: `x` covered by a cheap camera and a wide shot (both hosted
/// at node 3); `y` covered only by the wide shot. Requests from either
/// leaf transit the hub, which is where caching/label effects show.
fn harness(options: RunOptions) -> (ShardedSimulator<AthenaNode>, Arc<SharedWorld>) {
    harness_valid_for(options, SLOW)
}

/// [`harness`] with objects valid for `validity` once sampled.
fn harness_valid_for(
    options: RunOptions,
    validity: SimDuration,
) -> (ShardedSimulator<AthenaNode>, Arc<SharedWorld>) {
    let (topology, shared) = star(options, validity);
    let nodes: Vec<AthenaNode> = (0..4)
        .map(|_| AthenaNode::new(Arc::clone(&shared), Arc::new(GroundTruthAnnotator)))
        .collect();
    (ShardedSimulator::new(topology, nodes, 1, 1), shared)
}

/// The topology and world of [`harness_valid_for`], without nodes or
/// simulator.
fn star(options: RunOptions, validity: SimDuration) -> (Topology, Arc<SharedWorld>) {
    let mut topology = Topology::new(4);
    topology.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1());
    topology.add_link(NodeId(1), NodeId(2), LinkSpec::mbps1());
    topology.add_link(NodeId(1), NodeId(3), LinkSpec::mbps1());
    topology.rebuild_routes();
    let mut world = WorldModel::new(4);
    world.register(Label::new("x"), DynamicsClass::Slow, SLOW, 1.0);
    world.register(Label::new("y"), DynamicsClass::Slow, SLOW, 1.0);
    let mut catalog = Catalog::new();
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/a".parse().unwrap(),
        covers: vec![Label::new("x")],
        size: 250_000,
        source: NodeId(3),
        class: DynamicsClass::Slow,
        validity,
    });
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/wide".parse().unwrap(),
        covers: vec![Label::new("x"), Label::new("y")],
        size: 450_000,
        source: NodeId(3),
        class: DynamicsClass::Slow,
        validity,
    });
    let shared = Arc::new(SharedWorld::new(catalog, world, options));
    (topology, shared)
}

fn query(id: u64, origin: usize, labels: &[&str]) -> QueryInstance {
    QueryInstance {
        id,
        origin: NodeId(origin),
        expr: Dnf::from_terms(vec![Term::all_of(labels.iter().copied())]),
        deadline: SimDuration::from_secs(60),
        issue_at: SimTime::ZERO,
    }
}

#[test]
fn local_source_resolves_without_network() {
    let (mut sim, _) = harness(RunOptions::new(Strategy::Lvf));
    sim.schedule_external(SimTime::ZERO, NodeId(3), query(0, 3, &["x"]).into());
    sim.run();
    let node = sim.node(NodeId(3));
    let q = node.queries().next().unwrap();
    assert!(matches!(
        q.status,
        crate::query::QueryStatus::Decided { .. }
    ));
    assert_eq!(q.counters.requests_sent, 0, "co-located evidence is free");
    assert!(node.stats.local_samples >= 1);
    assert_eq!(sim.metrics().kind("data").count, 0);
}

#[test]
fn remote_fetch_travels_hop_by_hop() {
    let (mut sim, _) = harness(RunOptions::new(Strategy::Lvf));
    sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
    sim.run();
    let q = sim.node(NodeId(0)).queries().next().unwrap();
    assert!(matches!(
        q.status,
        crate::query::QueryStatus::Decided { .. }
    ));
    // Data crossed both hops: the forwarder relayed it.
    assert!(sim.node(NodeId(1)).stats.requests_forwarded >= 1);
    assert!(sim.node(NodeId(1)).stats.data_forwarded >= 1);
    // ...and cached a copy along the way.
    assert!(sim
        .node(NodeId(1))
        .content_store()
        .peek(&"/city/seg/x/cam/a".parse().unwrap())
        .is_some());
}

#[test]
fn forwarder_cache_serves_second_query() {
    let (mut sim, _) = harness(RunOptions::new(Strategy::Lvf));
    sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
    // Leaf 2 asks later for the same label; the hub cached the transit
    // copy of the first fetch and answers directly.
    sim.schedule_external(
        SimTime::from_secs(20),
        NodeId(2),
        query(1, 2, &["x"]).into(),
    );
    sim.run();
    let q1 = sim.node(NodeId(2)).queries().next().unwrap();
    assert!(matches!(
        q1.status,
        crate::query::QueryStatus::Decided { .. }
    ));
    assert!(sim.node(NodeId(1)).stats.cache_hits >= 1);
    // First fetch: 3→1, 1→0. Second: 1→2 from cache. Three data sends.
    assert_eq!(sim.metrics().kind("data").count, 3);

    // The same second query at the first origin never leaves it: node 0
    // kept the object it fetched and serves the query from its own store.
    let (mut sim, _) = harness(RunOptions::new(Strategy::Lvf));
    sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
    sim.schedule_external(
        SimTime::from_secs(20),
        NodeId(0),
        query(1, 0, &["x"]).into(),
    );
    sim.run();
    let origin = sim.node(NodeId(0));
    assert_eq!(origin.queries().count(), 2);
    for q in origin.queries() {
        assert!(matches!(
            q.status,
            crate::query::QueryStatus::Decided { .. }
        ));
    }
    let second = origin.queries().find(|q| q.id == QueryId(1)).unwrap();
    assert_eq!(second.counters.requests_sent, 0);
    // One query's traffic: request 0→1→3, data 3→1→0.
    assert_eq!(sim.metrics().kind("request").count, 2);
    assert_eq!(sim.metrics().kind("data").count, 2);
}

#[test]
fn pit_aggregates_concurrent_fetches() {
    let (mut sim, _) = harness(RunOptions::new(Strategy::Lvf));
    // Both leaves want the same object at the same time; their requests
    // meet at the hub, whose PIT forwards only one upstream.
    sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
    sim.schedule_external(SimTime::ZERO, NodeId(2), query(1, 2, &["x"]).into());
    sim.run();
    for n in [0usize, 2] {
        let q = sim.node(NodeId(n)).queries().next().unwrap();
        assert!(matches!(
            q.status,
            crate::query::QueryStatus::Decided { .. }
        ));
    }
    // The source transmitted once (3→1); the hub fanned out to both
    // leaves: 3 data transmissions total, not 4.
    assert_eq!(sim.metrics().kind("data").count, 3);

    // Two queries for the same object at one origin: the second registers
    // onto the first's pending interest there and sends nothing, and the
    // one data arrival resolves both.
    let (mut sim, _) = harness(RunOptions::new(Strategy::Lvf));
    sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
    sim.schedule_external(SimTime::ZERO, NodeId(0), query(1, 0, &["x"]).into());
    sim.run();
    let origin = sim.node(NodeId(0));
    assert_eq!(origin.queries().count(), 2);
    for q in origin.queries() {
        assert!(matches!(
            q.status,
            crate::query::QueryStatus::Decided { .. }
        ));
    }
    // One query's traffic: request 0→1→3, data 3→1→0.
    assert_eq!(sim.metrics().kind("request").count, 2);
    assert_eq!(sim.metrics().kind("data").count, 2);
}

#[test]
fn label_sharing_serves_request_with_label() {
    let (mut sim, _) = harness(RunOptions::new(Strategy::LvfLabelShare));
    // Leaf 2 resolves x first and (lvfl) shares the label toward the
    // source; the hub caches it in transit.
    sim.schedule_external(SimTime::ZERO, NodeId(2), query(0, 2, &["x"]).into());
    // Leaf 0 asks later; its request stops at the hub's cached label.
    sim.schedule_external(
        SimTime::from_secs(30),
        NodeId(0),
        query(1, 0, &["x"]).into(),
    );
    sim.run();
    let q1 = sim.node(NodeId(0)).queries().next().unwrap();
    assert!(matches!(
        q1.status,
        crate::query::QueryStatus::Decided { .. }
    ));
    assert!(
        sim.node(NodeId(1)).stats.label_hits >= 1,
        "the hub should answer with its cached label"
    );
    assert_eq!(
        q1.counters.labels_from_shares, 1,
        "leaf 0 learned x from a shared label"
    );
    // Only the first query moved object bytes (3→1, 1→2).
    assert_eq!(sim.metrics().kind("data").count, 2);
    assert!(sim.metrics().kind("label").count >= 1);
}

#[test]
fn headroom_refuses_nearly_expired_cache() {
    // The hub caches leaf 0's fetch, valid for 30 s from its sampling just
    // after zero. Leaf 2 asks for the same object at 10 s, when the copy
    // outlives the 15 s serve headroom, and the hub serves it: 3 data sends,
    // as in forwarder_cache_serves_second_query. At 20 s the copy is still
    // fresh but nearly expired, so the hub refuses it and the request goes
    // all the way to the source: 4 data sends.
    for (second_at, data_sends, hub_hits) in [(10, 3, 1), (20, 4, 0)] {
        let (mut sim, _) =
            harness_valid_for(RunOptions::new(Strategy::Lvf), SimDuration::from_secs(30));
        sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
        let mut second = query(1, 2, &["x"]);
        second.issue_at = SimTime::from_secs(second_at);
        sim.schedule_external(second.issue_at, NodeId(2), second.into());
        sim.run();
        assert_eq!(
            sim.metrics().kind("data").count,
            data_sends,
            "second query at {second_at} s"
        );
        assert_eq!(sim.node(NodeId(1)).stats.cache_hits, hub_hits);
        let q1 = sim.node(NodeId(2)).queries().next().unwrap();
        assert!(matches!(q1.status, QueryStatus::Decided { .. }));
    }
}

#[test]
fn wanted_labels_from_panorama_resolve_together() {
    let (mut sim, _) = harness(RunOptions::new(Strategy::Lvf));
    // One query needing both labels: the cover picks the wide camera
    // (600 KB for two labels beats 250 + 600).
    sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x", "y"]).into());
    sim.run();
    let q = sim.node(NodeId(0)).queries().next().unwrap();
    assert!(matches!(
        q.status,
        crate::query::QueryStatus::Decided { .. }
    ));
    assert_eq!(
        q.counters.requests_sent, 1,
        "one wide fetch should resolve both labels"
    );
}

#[test]
fn deadline_timer_finalizes_unresolvable_query() {
    let (mut sim, _) = harness(RunOptions::new(Strategy::Lvf));
    // A label nobody provides: the query can never resolve.
    sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["ghost"]).into());
    sim.run();
    let q = sim.node(NodeId(0)).queries().next().unwrap();
    assert_eq!(q.status, crate::query::QueryStatus::Missed);
    assert_eq!(sim.metrics().kind("data").count, 0);
}

/// A node wakes only for its own queries and prefetch work, so a pure
/// forwarder's interest table is swept when a request arrives: a later
/// request for a name whose interest lapsed is forwarded, not aggregated
/// onto the dead entry.
#[test]
fn forwarder_sweeps_a_lapsed_interest_and_forwards_the_next_request() {
    let (mut sim, _) = harness(RunOptions::new(Strategy::Lvf));
    // Leaf 0 asks; the reply (2 s on the wire, 3→1) dies with the link.
    sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
    let mut faults = dde_netsim::FaultSchedule::new();
    faults.link_down_at(SimTime::from_secs(1), NodeId(1), NodeId(3));
    faults.link_up_at(SimTime::from_secs(5), NodeId(1), NodeId(3));
    sim.install_faults(&faults);
    // Leaf 2 asks long after the hub's interest for leaf 0 lapsed.
    let lapsed_by = SimTime::from_secs(5) + INTEREST_LIFETIME;
    let later = SimTime::from_secs(100);
    assert!(later > lapsed_by);
    let mut second = query(1, 2, &["x"]);
    second.issue_at = later;
    sim.schedule_external(later, NodeId(2), second.into());
    sim.run();

    let hub = sim.node(NodeId(1));
    assert_eq!(hub.queries().count(), 0, "the hub is a pure forwarder");
    assert_eq!(hub.pit.len(), 0, "the lapsed interest was swept");
    assert_eq!(hub.stats.requests_forwarded, 2, "both requests");
    // 0→1 and 1→3 for the first query, 2→1 and 1→3 for the second.
    // (Leaf 0's retry after 30 s sends nothing: its own first interest is
    // still pending, so the re-registration is not "first".)
    assert_eq!(sim.metrics().kind("request").count, 4);
    let first = sim.node(NodeId(0)).queries().next().unwrap();
    assert_eq!(first.status, QueryStatus::Missed, "its reply died");
    let second = sim.node(NodeId(2)).queries().next().unwrap();
    assert!(matches!(second.status, QueryStatus::Decided { .. }));
}

#[test]
fn prefetch_config_default_off() {
    assert!(!RunOptions::new(Strategy::Lvf).prefetch);
}

#[test]
fn cached_label_freshness() {
    let c = CachedLabel {
        value: true,
        sampled_at: SimTime::from_secs(10),
        validity: SimDuration::from_secs(5),
        annotator: NodeId(0),
        based_on: "/x".parse().unwrap(),
    };
    assert!(c.is_fresh_at(SimTime::from_secs(15)));
    assert!(!c.is_fresh_at(SimTime::from_secs(16)));
}

#[test]
fn reliability_score_defaults_to_optimistic() {
    let (sim, _) = harness(RunOptions::new(Strategy::Lvf));
    let node = sim.node(NodeId(0));
    assert_eq!(node.reliability_of(NodeId(3)), (0, 0));
    assert_eq!(node.reliability_score(NodeId(3)), 1.0);
}

/// The star's hub (node 1) on its own, driven the way `net/src/host.rs`
/// drives a node: one handler call through a hand-built [`Context`]
/// over a command buffer, no simulator.
struct Hub {
    topology: Topology,
    node: AthenaNode,
}

const HUB: NodeId = NodeId(1);
const SOURCE: NodeId = NodeId(3);
const CAM: &str = "/city/seg/x/cam/a";
const WIDE: &str = "/city/seg/x/cam/wide";

impl Hub {
    fn new() -> Hub {
        let (topology, shared) = star(RunOptions::new(Strategy::LvfLabelShare), SLOW);
        let node = AthenaNode::new(shared, Arc::new(GroundTruthAnnotator));
        Hub { topology, node }
    }

    /// Delivers `msg` from `from` at `at`; returns what the hub sent,
    /// in order.
    fn deliver(&mut self, at: SimTime, from: NodeId, msg: AthenaMsg) -> Vec<(NodeId, AthenaMsg)> {
        let mut commands = Vec::new();
        let mut sink = dde_obs::NullSink;
        let mut ctx = Context::new(at, HUB, &self.topology, &mut commands, &mut sink);
        self.node.on_message(&mut ctx, from, msg);
        commands
            .into_iter()
            .filter_map(|c| match c {
                dde_netsim::Command::Send { to, msg } => Some((to, msg)),
                dde_netsim::Command::Timer { .. } => None,
            })
            .collect()
    }

    /// A request from leaf `from` for the wide shot, wanting `labels`,
    /// arriving at `at`. Only the first one is forwarded to the source.
    fn request_wide(&mut self, at: SimTime, from: usize, qid: u64, labels: &[&str]) {
        let sent = self.deliver(
            at,
            NodeId(from),
            AthenaMsg::Request {
                name: WIDE.parse().unwrap(),
                wanted: labels.iter().map(|l| Label::new(*l)).collect(),
                qid: QueryId(qid),
                origin: NodeId(from),
                kind: RequestKind::Fetch,
            },
        );
        assert!(sent.iter().all(|(to, _)| *to == SOURCE));
    }

    /// What is pending under the wide shot's name: (requester, query,
    /// wanted labels, lapse time).
    fn pending_wide(&self) -> Vec<(Requester, u64, Vec<String>, SimTime)> {
        self.node
            .pit
            .peek(&WIDE.parse().unwrap())
            .map(|i| {
                let wanted = i.query.1.iter().map(|l| l.to_string()).collect();
                (i.requester, i.query.0 .0, wanted, i.expires_at)
            })
            .collect()
    }
}

/// Leaf 2's judgment that `x` holds, based on the cheap camera.
fn share_of_x(at: SimTime) -> AthenaMsg {
    AthenaMsg::LabelShare {
        label: Label::new("x"),
        value: true,
        sampled_at: at,
        validity: SimDuration::from_secs(600),
        annotator: NodeId(2),
        based_on: CAM.parse().unwrap(),
        for_query: Some(QueryId(9)),
    }
}

/// The synthetic repair requests among `sent`: (next hop, name, wanted).
fn repairs(sent: &[(NodeId, AthenaMsg)]) -> Vec<(NodeId, String, Vec<String>)> {
    sent.iter()
        .filter_map(|(to, msg)| match msg {
            AthenaMsg::Request {
                name, wanted, qid, ..
            } if qid.0 == u64::MAX => Some((
                *to,
                name.to_string(),
                wanted.iter().map(|l| l.to_string()).collect(),
            )),
            _ => None,
        })
        .collect()
}

#[test]
fn label_share_whittles_an_interest_and_keeps_its_lifetime() {
    let mut hub = Hub::new();
    hub.request_wide(SimTime::from_secs(1), 0, 7, &["x", "y"]);
    let lapses = SimTime::from_secs(1) + INTEREST_LIFETIME;
    assert_eq!(
        hub.pending_wide(),
        vec![(
            Requester::Neighbor(NodeId(0)),
            7,
            vec!["x".into(), "y".into()],
            lapses
        )]
    );

    let sent = hub.deliver(
        SimTime::from_secs(5),
        NodeId(2),
        share_of_x(SimTime::from_secs(4)),
    );

    // The interest lives on for `y` alone, and lapses when it always would.
    assert_eq!(
        hub.pending_wide(),
        vec![(Requester::Neighbor(NodeId(0)), 7, vec!["y".into()], lapses)]
    );
    // Leaf 0 gets the label, tagged with its own query; the share also
    // travels on toward the camera's source. Nothing emptied, so no repair.
    let shares: Vec<(NodeId, Option<QueryId>)> = sent
        .iter()
        .filter_map(|(to, msg)| match msg {
            AthenaMsg::LabelShare { for_query, .. } => Some((*to, *for_query)),
            _ => None,
        })
        .collect();
    assert_eq!(
        shares,
        vec![(NodeId(0), Some(QueryId(7))), (SOURCE, Some(QueryId(9)))]
    );
    assert_eq!(sent.len(), 2);
    assert_eq!(hub.node.stats.labels_forwarded, 1);
}

#[test]
fn an_emptied_interest_triggers_one_repair_request_for_the_survivors() {
    let mut hub = Hub::new();
    hub.request_wide(SimTime::from_secs(1), 0, 7, &["x"]);
    hub.request_wide(SimTime::from_secs(2), 2, 8, &["x", "y"]);
    assert_eq!(
        hub.node.stats.requests_forwarded, 1,
        "the second aggregates"
    );

    let sent = hub.deliver(
        SimTime::from_secs(5),
        SOURCE,
        share_of_x(SimTime::from_secs(4)),
    );

    // Leaf 0's interest is gone — and with it, possibly, the request that
    // was in flight — so leaf 2's surviving `y` is asked for again, once.
    assert_eq!(
        hub.pending_wide(),
        vec![(
            Requester::Neighbor(NodeId(2)),
            8,
            vec!["y".into()],
            SimTime::from_secs(2) + INTEREST_LIFETIME
        )]
    );
    assert_eq!(
        repairs(&sent),
        vec![(SOURCE, WIDE.to_string(), vec!["y".to_string()])]
    );
    assert_eq!(hub.node.stats.requests_forwarded, 2);
    // The repair leaves before the shares, which go to both leaves and —
    // having come from the source's side — not back toward it.
    assert!(matches!(sent[0].1, AthenaMsg::Request { .. }));
    let share_targets: Vec<NodeId> = sent[1..].iter().map(|(to, _)| *to).collect();
    assert_eq!(share_targets, vec![NodeId(0), NodeId(2)]);
}

#[test]
fn data_under_another_provider_name_serves_a_neighbor_once() {
    let mut hub = Hub::new();
    // Two interests of the same leaf under the wide shot's name.
    hub.request_wide(SimTime::from_secs(1), 0, 7, &["x"]);
    hub.request_wide(SimTime::from_secs(2), 0, 8, &["x", "y"]);
    assert_eq!(hub.pending_wide().len(), 2);

    // The cheap camera — another provider of `x` — passes through.
    let cam = hub.node.catalog().by_name(&CAM.parse().unwrap()).unwrap();
    let object = EvidenceObject::sample(cam, SimTime::from_secs(4));
    let sent = hub.deliver(
        SimTime::from_secs(5),
        SOURCE,
        AthenaMsg::Data {
            object,
            push_to: None,
            for_query: None,
        },
    );

    let copies: Vec<(NodeId, Option<QueryId>)> = sent
        .iter()
        .filter_map(|(to, msg)| match msg {
            AthenaMsg::Data { for_query, .. } => Some((*to, *for_query)),
            _ => None,
        })
        .collect();
    assert_eq!(
        copies,
        vec![(NodeId(0), Some(QueryId(7)))],
        "one copy, not two"
    );
    assert_eq!(hub.node.stats.data_forwarded, 1);
    // Query 7's interest emptied; query 8's survives for `y` and is
    // repaired, after the copy has left.
    assert_eq!(hub.pending_wide().len(), 1);
    assert_eq!(
        repairs(&sent),
        vec![(SOURCE, WIDE.to_string(), vec!["y".to_string()])]
    );
    assert!(matches!(sent[0].1, AthenaMsg::Data { .. }));
    assert_eq!(sent.len(), 2);
}

/// A prefetching node of the star hears leaf 0's query for `x ∧ y`
/// announced by `from`; returns the node and how many source-selection
/// covers the announcement made it compute.
fn announced_to(me: NodeId, from: NodeId) -> (AthenaNode, u64) {
    let mut options = RunOptions::new(Strategy::LvfLabelShare);
    options.prefetch = true;
    let (topology, shared) = star(options, SLOW);
    let mut node = AthenaNode::new(shared, Arc::new(GroundTruthAnnotator));
    let (mut commands, mut sink) = (Vec::new(), dde_obs::NullSink);
    let mut ctx = Context::new(
        SimTime::from_secs(1),
        me,
        &topology,
        &mut commands,
        &mut sink,
    );
    let announce = AthenaMsg::QueryAnnounce {
        qid: QueryId(5),
        origin: NodeId(0),
        expr: query(5, 0, &["x", "y"]).expr,
        deadline_at: SimTime::from_secs(61),
    };
    let covers_before = crate::strategy::COVERS_RUN.get();
    node.on_message(&mut ctx, from, announce);
    (node, crate::strategy::COVERS_RUN.get() - covers_before)
}

#[test]
fn announce_reaches_a_relay_that_sources_nothing_queues_nothing_and_runs_no_cover() {
    let (hub, covers) = announced_to(HUB, NodeId(0));
    assert_eq!(hub.stats.announces_relayed, 1);
    assert!(hub.prefetch_queue.is_empty());
    assert_eq!(covers, 0, "nothing it could queue: no cover to compute");
}

#[test]
fn announce_reaches_a_source_which_queues_its_share_of_the_cover() {
    let (source, covers) = announced_to(SOURCE, HUB);
    assert_eq!(covers, 1);
    // The cover of {x, y} is the wide shot alone — nothing else resolves
    // `y`, and it brings `x` along — and node 3 hosts it: what it queued
    // before the relay shortcut.
    let queued: Vec<_> = source
        .prefetch_queue
        .iter()
        .map(|t| (t.object_idx, t.origin, t.qid, t.deadline_at))
        .collect();
    assert_eq!(
        queued,
        vec![(1, NodeId(0), QueryId(5), SimTime::from_secs(61))]
    );
}

/// What one handler call on `node`, running as `me` at `at`, queued: its
/// sends in order, and its timers as `(instant, tag)`.
type Queued = (Vec<(NodeId, AthenaMsg)>, Vec<(SimTime, u64)>);

fn handle(
    node: &mut AthenaNode,
    topology: &Topology,
    me: NodeId,
    at: SimTime,
    f: impl FnOnce(&mut AthenaNode, &mut Context<'_, AthenaMsg>),
) -> Queued {
    let (mut commands, mut sink) = (Vec::new(), dde_obs::NullSink);
    let mut ctx = Context::new(at, me, topology, &mut commands, &mut sink);
    f(node, &mut ctx);
    let (mut sends, mut timers) = (Vec::new(), Vec::new());
    for c in commands {
        match c {
            dde_netsim::Command::Send { to, msg } => sends.push((to, msg)),
            dde_netsim::Command::Timer { at, tag } => timers.push((at, tag)),
        }
    }
    (sends, timers)
}

/// The live backend dispatches a timer at its wall-derived `now`, a little
/// after the instant it was set for. A wake-up must still do its work
/// then: leaf 0's fetch, whose reply never comes, is retried when the
/// wake-up armed for its timeout fires 3 ms late. A wake-up handled before
/// the armed instant (a superseded timer) does nothing.
#[test]
fn a_late_wake_up_retries_the_timed_out_fetch() {
    const LEAF: NodeId = NodeId(0);
    let (topology, shared) = star(RunOptions::new(Strategy::Lvf), SLOW);
    let mut node = AthenaNode::new(shared, Arc::new(GroundTruthAnnotator));
    let mut q = query(0, 0, &["x"]);
    q.deadline = SimDuration::from_secs(120);
    let (sent, timers) = handle(&mut node, &topology, LEAF, SimTime::ZERO, |n, ctx| {
        n.on_external(ctx, q.into())
    });
    let requests = |sent: &[(NodeId, AthenaMsg)]| {
        sent.iter()
            .filter(|(_, m)| matches!(m, AthenaMsg::Request { .. }))
            .count()
    };
    assert_eq!(requests(&sent), 1);
    let due = SimTime::ZERO + RETRY_TIMEOUT + ONE_US;
    assert_eq!(
        timers,
        vec![(SimTime::from_secs(120), 1), (due, WAKE_TAG)],
        "the deadline, then one wake-up at the first instant the fetch times out"
    );
    let requests_sent = |node: &AthenaNode| node.queries().next().unwrap().counters.requests_sent;

    let early = due - SimDuration::from_millis(1);
    let queued = handle(&mut node, &topology, LEAF, early, |n, ctx| {
        n.on_timer(ctx, WAKE_TAG)
    });
    assert_eq!(queued, (vec![], vec![]));
    assert_eq!(requests_sent(&node), 1);

    let late = due + SimDuration::from_millis(3);
    let (sent, timers) = handle(&mut node, &topology, LEAF, late, |n, ctx| {
        n.on_timer(ctx, WAKE_TAG)
    });
    assert_eq!(requests_sent(&node), 2, "the fetch is re-issued");
    let q = node.queries().next().unwrap();
    assert_eq!(q.outstanding.as_ref().map(|o| o.sent_at), Some(late));
    // Its first interest is still pending at the origin, so the re-issue
    // registers onto it and nothing new leaves.
    assert_eq!(requests(&sent), 0);
    assert_eq!(timers, vec![(late + RETRY_TIMEOUT + ONE_US, WAKE_TAG)]);
}
