//! Pins when a node wakes up. A node arms one timer (tag 0) at the earliest
//! instant something it holds can change without a message arriving: a
//! fetch timing out, a label lapsing, a deferral ripening, the next
//! prefetch slot. These runs count the timer's firings through a wrapper
//! [`Protocol`] and pin them, one case per source of wake-ups:
//!
//! - a query with nothing to fetch never wakes its node (a 250 ms
//!   housekeeping tick fired ≈240 times over the same 60 s);
//! - a fetch whose reply is lost wakes its origin once, at the first
//!   instant the fetch counts as timed out, and is re-issued once;
//! - a deferred query wakes its origin when each deferral ripens;
//! - announce-ahead prefetch pushes leave their source 250 ms apart.

use dde_core::prelude::*;
use dde_core::AthenaEvent;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::{Context, FaultSchedule, LinkSpec, NodeId, Protocol, ShardedSimulator, Topology};
use dde_sched::adaptive::{AdaptiveConfig, AdmissionPolicy};
use dde_workload::catalog::{Catalog, ObjectSpec};
use dde_workload::scenario::QueryInstance;
use dde_workload::world::{DynamicsClass, WorldModel};
use std::sync::Arc;

const ORIGIN: NodeId = NodeId(0);
const RELAY: NodeId = NodeId(1);
const SOURCE: NodeId = NodeId(2);

/// The wake-up timer's tag.
const WAKE: u64 = 0;

/// An [`AthenaNode`] that notes the instant of every wake-up timer it
/// handles and of every announce delivered to it.
struct Counted {
    node: AthenaNode,
    wakes: Vec<SimTime>,
    announced: Vec<SimTime>,
}

impl Protocol for Counted {
    type Msg = AthenaMsg;
    type Ext = AthenaEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AthenaMsg>, from: NodeId, msg: AthenaMsg) {
        if matches!(msg, AthenaMsg::QueryAnnounce { .. }) {
            self.announced.push(ctx.now());
        }
        self.node.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AthenaMsg>, tag: u64) {
        if tag == WAKE {
            self.wakes.push(ctx.now());
        }
        self.node.on_timer(ctx, tag);
    }

    fn on_external(&mut self, ctx: &mut Context<'_, AthenaMsg>, ext: AthenaEvent) {
        self.node.on_external(ctx, ext);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        self.node.on_recover(ctx);
    }
}

/// A three-node line, origin – relay – source. Labels `x` and `y` are each
/// covered by one object of `size` bytes hosted at the source; `ghost` has
/// no provider.
fn simulator(options: RunOptions, size: u64) -> ShardedSimulator<Counted> {
    let topology = Topology::line(3, LinkSpec::mbps1());
    let validity = SimDuration::from_secs(600);
    let mut world = WorldModel::new(4);
    let mut catalog = Catalog::new();
    for label in ["x", "y"] {
        world.register(Label::new(label), DynamicsClass::Slow, validity, 1.0);
        catalog.add(ObjectSpec {
            name: format!("/city/seg/{label}/cam/a").parse().unwrap(),
            covers: vec![Label::new(label)],
            size,
            source: SOURCE,
            class: DynamicsClass::Slow,
            validity,
        });
    }
    let shared = Arc::new(SharedWorld::new(catalog, world, options));
    let nodes = (0..topology.len())
        .map(|_| Counted {
            node: AthenaNode::new(Arc::clone(&shared), Arc::new(GroundTruthAnnotator)),
            wakes: Vec::new(),
            announced: Vec::new(),
        })
        .collect();
    ShardedSimulator::new(topology, nodes, 1, 1)
}

/// Query `id` at the origin, issued at zero with a 60 s deadline, over
/// `labels` all holding.
fn query(id: u64, labels: &[&str]) -> QueryInstance {
    QueryInstance {
        id,
        origin: ORIGIN,
        expr: Dnf::from_terms(vec![Term::all_of(labels.iter().copied())]),
        deadline: SimDuration::from_secs(60),
        issue_at: SimTime::ZERO,
    }
}

/// Every node's wake-ups, by node.
fn wakes(sim: &ShardedSimulator<Counted>) -> Vec<Vec<SimTime>> {
    sim.topology()
        .nodes()
        .map(|n| sim.node(n).wakes.clone())
        .collect()
}

fn only_query(sim: &ShardedSimulator<Counted>) -> &QueryState {
    sim.node(ORIGIN).node.queries().next().unwrap()
}

#[test]
fn a_query_with_nothing_to_fetch_never_wakes() {
    let mut sim = simulator(RunOptions::new(Strategy::Lvf), 1_000);
    sim.schedule_external(SimTime::ZERO, ORIGIN, query(0, &["ghost"]).into());
    sim.run();
    assert_eq!(only_query(&sim).status, QueryStatus::Missed);
    assert_eq!(wakes(&sim), vec![Vec::<SimTime>::new(); 3]);
}

#[test]
fn a_lost_reply_wakes_its_origin_once_at_the_timeout() {
    // The 250 kB reply needs 2 s on the source's link, which goes down
    // after 1 s and takes the reply with it.
    let mut sim = simulator(RunOptions::new(Strategy::Lvf), 250_000);
    sim.schedule_external(SimTime::ZERO, ORIGIN, query(0, &["x"]).into());
    let mut faults = FaultSchedule::new();
    faults.link_down_at(SimTime::from_secs(1), RELAY, SOURCE);
    faults.link_up_at(SimTime::from_secs(5), RELAY, SOURCE);
    sim.install_faults(&faults);
    sim.run();

    let q = only_query(&sim);
    assert_eq!(q.status, QueryStatus::Missed);
    assert_eq!(q.counters.requests_sent, 2, "sent at zero, re-issued once");
    // The first instant the fetch sent at zero counts as timed out. The
    // re-issue would time out after the deadline, so nothing more is armed.
    let timeout = SimTime::from_secs(30) + SimDuration::from_micros(1);
    assert_eq!(wakes(&sim), vec![vec![timeout], vec![], vec![]]);
    // The re-issue registers onto the origin's own pending interest, so the
    // wire carries the first request only: origin → relay → source.
    assert_eq!(sim.metrics().kind("request").count, 2);
}

#[test]
fn a_deferred_query_wakes_its_origin_when_each_deferral_ripens() {
    // The gate counts the node overloaded while one query is active and
    // admits nothing with a positive predicted cost meanwhile. The `ghost`
    // query is admitted (nothing active yet, and it costs nothing) and
    // stays active to its deadline, so the `x` query is deferred three
    // times, 5 s each, and then shed.
    let policy = AdmissionPolicy {
        budget_bytes: 0,
        overload_bytes: 0,
        min_active: 1,
        defer_for: SimDuration::from_secs(5),
        max_defers: 3,
    };
    let mut options = RunOptions::new(Strategy::Lvf);
    options.adaptive = Some(AdaptiveConfig {
        admission: Some(policy),
        ..AdaptiveConfig::default()
    });
    let mut sim = simulator(options, 1_000);
    sim.schedule_external(SimTime::ZERO, ORIGIN, query(0, &["ghost"]).into());
    sim.schedule_external(SimTime::ZERO, ORIGIN, query(1, &["x"]).into());
    sim.run();

    let origin = &sim.node(ORIGIN).node;
    assert_eq!(origin.stats.admission_deferred, 3);
    assert_eq!(origin.stats.admission_shed, 1);
    let ripens = [5, 10, 15].map(SimTime::from_secs).to_vec();
    assert_eq!(wakes(&sim), vec![ripens, vec![], vec![]]);
    assert_eq!(sim.metrics().kind("request").count, 0);
}

#[test]
fn announce_ahead_pushes_leave_one_poll_apart() {
    let mut options = RunOptions::new(Strategy::Lvf);
    options.prefetch = Some(true);
    let mut sim = simulator(options, 1_000);
    let ahead = query(0, &["x", "y"]);
    sim.schedule_external(SimTime::ZERO, ORIGIN, AthenaEvent::AnnounceOnly(ahead));
    sim.run();

    // The source queues a push for each of its two objects when the
    // announce arrives, and sends one per wake-up, 250 ms apart; with the
    // queue empty it arms nothing more.
    let source = sim.node(SOURCE);
    assert_eq!(source.node.stats.prefetch_pushes, 2);
    let &[heard] = source.announced.as_slice() else {
        panic!("the source hears the announce once");
    };
    let poll = SimDuration::from_millis(250);
    assert_eq!(
        wakes(&sim),
        vec![vec![], vec![], vec![heard + poll, heard + poll * 2]]
    );
    assert_eq!(sim.metrics().kind("data").count, 4, "two pushes, two hops");
}
