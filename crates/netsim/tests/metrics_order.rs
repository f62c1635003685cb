//! `Metrics::kinds()` is a reporting surface: kinds in name order. The
//! engine counts by kind-literal address, which is not that order, so this
//! pins what readers see, and the byte total, against an independent fold
//! of the transmit trace into ordered maps: per kind, and per directed link
//! for the links the trace shows carrying traffic.

use dde_netsim::prelude::*;
use dde_netsim::{KindCounters, SendError};
use dde_obs::{EventKind, MemorySink, SharedSink};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Ball {
    Serve { hops: u32 },
    Return { hops: u32 },
}

impl WireMessage for Ball {
    fn wire_size(&self) -> u64 {
        match self {
            Ball::Serve { hops } => 100 + u64::from(*hops),
            Ball::Return { .. } => 40,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            Ball::Serve { .. } => "serve",
            Ball::Return { .. } => "return",
        }
    }
}

/// Node 0 serves to every neighbor; the ball bounces until the hop budget
/// is spent. Node 0 also tries two sends it has no link for.
#[derive(Default)]
struct Echo {
    strays: Vec<SendError>,
}

const BUDGET: u32 = 5;
const HUB: NodeId = NodeId(0);
const ISOLATED: NodeId = NodeId(5);

impl Protocol for Echo {
    type Msg = Ball;
    type Ext = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        if ctx.node() != HUB {
            return;
        }
        for peer in ctx.topology().neighbors(HUB) {
            ctx.send(peer, Ball::Serve { hops: 0 });
        }
        // A node with no links at all, and a node two hops away.
        for stray in [ISOLATED, NodeId(2)] {
            if let Err(err) = ctx.try_send(stray, Ball::Serve { hops: 0 }) {
                self.strays.push(err);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeId, msg: Ball) {
        let (Ball::Serve { hops } | Ball::Return { hops }) = msg;
        if hops < BUDGET {
            let next = hops + 1;
            ctx.send(
                from,
                if ctx.node() == HUB {
                    Ball::Serve { hops: next }
                } else {
                    Ball::Return { hops: next }
                },
            );
        }
    }
}

/// Six nodes; the hub's adjacency order (3, 1, 4) is not id order, the
/// 3–2 and 1–2 links never carry traffic, and node 5 has no links.
fn topology() -> Topology {
    let mut t = Topology::new(6);
    for (a, b) in [(0, 3), (0, 1), (3, 2), (1, 2), (4, 0)] {
        t.add_link(NodeId(a), NodeId(b), LinkSpec::mbps1());
    }
    t.rebuild_routes();
    t
}

type Links = Vec<((NodeId, NodeId), u64)>;
type Kinds = Vec<(&'static str, KindCounters)>;

/// Bytes per directed link and counters per kind, folded from the trace.
fn fold_trace(sink: &SharedSink<MemorySink>) -> (Links, Kinds, usize) {
    let mut links: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    let mut kinds: BTreeMap<&'static str, KindCounters> = BTreeMap::new();
    let mut stray_drops = 0;
    for rec in sink.with(|m| m.events().to_vec()) {
        match rec.kind {
            EventKind::Transmit {
                from,
                to,
                msg,
                bytes,
                ..
            } => {
                *links
                    .entry((NodeId(from as usize), NodeId(to as usize)))
                    .or_insert(0) += bytes;
                let k = kinds.entry(msg).or_default();
                k.count += 1;
                k.bytes += bytes;
            }
            EventKind::Drop { reason, .. } => {
                assert_eq!(reason, "not-neighbor");
                stray_drops += 1;
            }
            _ => {}
        }
    }
    (
        links.into_iter().collect(),
        kinds.into_iter().collect(),
        stray_drops,
    )
}

#[test]
fn links_and_kinds_report_in_key_order() {
    let sink = SharedSink::new(MemorySink::new());
    let nodes = (0..6).map(|_| Echo::default()).collect();
    let mut sim = ShardedSimulator::new(topology(), nodes, 3, 1);
    sim.set_sink(Box::new(sink.clone()));
    sim.run();
    let metrics = sim.metrics();
    let (links, kinds, stray_drops) = fold_trace(&sink);
    assert_eq!(metrics.kinds().collect::<Kinds>(), kinds);
    // Spot checks that do not go through the fold.
    let order: Vec<(usize, usize)> = links.iter().map(|((a, b), _)| (a.0, b.0)).collect();
    assert_eq!(order, [(0, 1), (0, 3), (0, 4), (1, 0), (3, 0), (4, 0)]);
    assert_eq!(kinds[0].0, "return");
    assert_eq!(kinds[1].0, "serve");
    assert_eq!(metrics.kind("serve"), kinds[1].1);
    assert_eq!(metrics.kind("nonexistent"), KindCounters::default());
    assert_eq!(
        metrics.bytes_sent,
        links.iter().map(|(_, b)| b).sum::<u64>()
    );
    // The stray sends were refused with a typed error and a trace record;
    // they reached no link and no counter.
    let stray = |to| SendError::NotNeighbor { from: HUB, to };
    assert_eq!(sim.node(HUB).strays, [stray(ISOLATED), stray(NodeId(2))]);
    assert_eq!(stray_drops, 2);
    assert_eq!(metrics.messages_lost + metrics.messages_dropped, 0);
    assert_eq!(metrics.messages_sent, metrics.messages_delivered);
}
