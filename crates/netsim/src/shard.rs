//! The event loop: one heap, one thread.
//!
//! [`ShardedSimulator`] owns every node, every link transmitter, the
//! topology and one [`BinaryHeap`] of pending events, and dispatches them
//! one at a time on the calling thread. The name, the region count
//! [`ShardedSimulator::new`] takes and [`ShardedSimulator::partition`] are
//! left from a conservative-parallel mode that never ran faster than this
//! loop (EXPERIMENTS.md, "Threads: the verdict"); they are inert, kept
//! because the frozen `benchmark/` names them.
//!
//! # Event order
//!
//! A run is a pure function of its inputs because nothing in it depends on
//! the order in which code happened to push events:
//!
//! - Same-instant events dispatch in [`EventKey`] order, and a key is
//!   derived from simulation state only (event class, owning node or link,
//!   a per-owner occurrence counter) — never from an insertion sequence.
//! - All faults scheduled for an instant apply as one batch ahead of every
//!   event of that instant (the start events at `t = 0` included): first
//!   the whole batch lands on the topology and the routes are rebuilt once,
//!   then purges and recoveries run against that final state.
//! - Link loss is a counter-based hash of `(seed, link, transmission
//!   index)`, not a draw from a shared generator.
//! - A trace record goes to the caller's sink the moment it is born, so
//!   trace order is dispatch order and nothing is buffered.

use crate::fault::{FaultEvent, FaultSchedule, TimedFault};
use crate::metrics::Metrics;
use crate::partition::Partition;
use crate::sim::{
    deliver_record, loss_record, transmit_record, Command, Context, Hop, LinkState, MediumMode,
    Protocol, WireMessage,
};
use crate::topology::{NodeId, Topology};
use dde_logic::time::{SimDuration, SimTime};
use dde_obs::{EventKind, NullSink, Sink, TraceRecord};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Event class ranks: at equal timestamps, classes dispatch in this order.
const CLASS_START: u64 = 0;
const CLASS_EXTERNAL: u64 = 1;
const CLASS_TIMER: u64 = 2;
const CLASS_LINK_FREE: u64 = 3;
const CLASS_DELIVER: u64 = 4;

/// A stable identity for a scheduled event.
///
/// Same-timestamp events order by this key instead of a heap insertion
/// sequence, so the dispatch order is a property of the *simulation*, not
/// of which code path inserted what first. Identity components per class:
///
/// | class       | `a`          | `b`            | `c`                  |
/// |-------------|--------------|----------------|----------------------|
/// | start       | node         | 0              | 0                    |
/// | external    | install idx  | 0              | 0                    |
/// | timer       | node         | per-node seq   | 0                    |
/// | link-free   | from         | to             | per-link tx seq      |
/// | deliver     | from         | to             | per-link tx seq      |
///
/// Faults are not keyed: a fault batch is applied ahead of every event of
/// its instant, in install order.
///
/// The fields are private, so outside this module the named constructors
/// are the only way to build a key:
///
/// ```compile_fail,E0451
/// let key = dde_netsim::EventKey { class: 4, a: 0, b: 1, c: 0 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Event class rank (see the table above).
    class: u64,
    /// First identity component.
    a: u64,
    /// Second identity component.
    b: u64,
    /// Third identity component.
    c: u64,
}

impl EventKey {
    /// Key for a node's start event.
    pub fn start(node: NodeId) -> EventKey {
        EventKey {
            class: CLASS_START,
            a: node.index() as u64,
            b: 0,
            c: 0,
        }
    }

    /// Key for an external stimulus, identified by install index.
    pub fn external(idx: u64) -> EventKey {
        EventKey {
            class: CLASS_EXTERNAL,
            a: idx,
            b: 0,
            c: 0,
        }
    }

    /// Key for a node-owned timer, identified by the per-node sequence.
    pub fn timer(node: NodeId, seq: u64) -> EventKey {
        EventKey {
            class: CLASS_TIMER,
            a: node.index() as u64,
            b: seq,
            c: 0,
        }
    }

    /// Key for a link-free event, identified by the per-link
    /// transmission sequence.
    pub fn link_free(from: NodeId, to: NodeId, txn: u64) -> EventKey {
        EventKey {
            class: CLASS_LINK_FREE,
            a: from.index() as u64,
            b: to.index() as u64,
            c: txn,
        }
    }

    /// Key for a message delivery, identified by the per-link
    /// transmission sequence.
    pub fn deliver(from: NodeId, to: NodeId, txn: u64) -> EventKey {
        EventKey {
            class: CLASS_DELIVER,
            a: from.index() as u64,
            b: to.index() as u64,
            c: txn,
        }
    }
}

/// Stateless counter-based loss draw in `[0, 1)`: a splitmix64 chain over
/// `(seed, from, to, transmission index)`.
fn loss_unit(seed: u64, from: NodeId, to: NodeId, txn: u64) -> f64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mut h = mix(seed);
    h = mix(h ^ from.index() as u64);
    h = mix(h ^ to.index() as u64);
    h = mix(h ^ txn);
    (h >> 11) as f64 / (1u64 << 53) as f64
}
enum Event<P: Protocol> {
    Start {
        node: NodeId,
    },
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: P::Msg,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
    External {
        node: NodeId,
        ext: P::Ext,
    },
    LinkFree(Hop),
}

struct Scheduled<P: Protocol> {
    at: SimTime,
    key: EventKey,
    event: Event<P>,
}

impl<P: Protocol> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<P: Protocol> Eq for Scheduled<P> {}
impl<P: Protocol> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: Protocol> Ord for Scheduled<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// The discrete-event simulator.
///
/// For pre-scheduled workloads: construct, `set_medium`/`set_sink`,
/// `install_faults`, `schedule_external`, then
/// [`run_until`](ShardedSimulator::run_until). Everything runs on the
/// calling thread.
pub struct ShardedSimulator<P: Protocol> {
    topology: Topology,
    node_up: Vec<bool>,
    partition: Partition,
    nodes: Vec<P>,
    heap: BinaryHeap<Scheduled<P>>,
    /// Transmitters, by `Topology::link_slot`.
    links: Vec<LinkState<P::Msg>>,
    /// Handler outbox, emptied after every dispatch and reused by the next.
    commands: Vec<Command<P::Msg>>,
    node_tx_busy: Vec<u32>,
    timer_seq: Vec<u64>,
    /// Transmissions started per link, by slot.
    tx_seq: Vec<u64>,
    metrics: Metrics,
    /// Installed faults, time-sorted, install order within an instant.
    faults: Vec<TimedFault>,
    fault_cursor: usize,
    ext_seq: u64,
    now: SimTime,
    events_processed: u64,
    sink: Box<dyn Sink>,
    /// `sink.enabled()`, read once per run so the engine's own emit sites
    /// cost a field test when nothing is listening.
    tracing: bool,
    medium: MediumMode,
    seed: u64,
}

impl<P: Protocol> std::fmt::Debug for ShardedSimulator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulator")
            .field("now", &self.now)
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<P: Protocol> ShardedSimulator<P> {
    /// Creates a simulator over `topology` with one protocol instance per
    /// node. `seed` drives link-loss sampling. `regions` only shapes the
    /// [`Partition`] that [`partition`](ShardedSimulator::partition)
    /// reports; the run is the same for every value.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topology.len()`, on an empty topology, or
    /// if `regions > 1` and a link the partition cuts has zero latency.
    pub fn new(mut topology: Topology, nodes: Vec<P>, seed: u64, regions: usize) -> Self {
        assert_eq!(
            nodes.len(),
            topology.len(),
            "need exactly one protocol instance per topology node"
        );
        topology.ensure_routes();
        let partition = Partition::build(&topology, regions.max(1), seed);
        let n = nodes.len();
        let heap = (0..n)
            .map(|i| Scheduled {
                at: SimTime::ZERO,
                key: EventKey::start(NodeId(i)),
                event: Event::Start { node: NodeId(i) },
            })
            .collect();
        ShardedSimulator {
            node_up: vec![true; n],
            partition,
            nodes,
            heap,
            links: LinkState::table(&topology),
            commands: Vec::new(),
            node_tx_busy: vec![0; n],
            timer_seq: vec![0; n],
            tx_seq: vec![0; topology.directed_link_count()],
            topology,
            metrics: Metrics::new(),
            faults: Vec::new(),
            fault_cursor: 0,
            ext_seq: 0,
            now: SimTime::ZERO,
            events_processed: 0,
            sink: Box::new(NullSink),
            tracing: false,
            medium: MediumMode::FullDuplex,
            seed,
        }
    }

    /// How [`Partition::build`] would cut the topology into the region
    /// count given to [`new`](ShardedSimulator::new). Nothing executes the
    /// cut.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far (dispatched events plus one per
    /// installed fault transition).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Traffic counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The topology the simulation runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Selects how node transmitters share the medium. Must be called
    /// before any traffic flows.
    pub fn set_medium(&mut self, medium: MediumMode) {
        debug_assert!(self.metrics.messages_sent == 0, "set_medium before traffic");
        self.medium = medium;
    }

    /// Installs a trace sink. Each record reaches it as the event that
    /// produced it is dispatched, so it sees the trace in dispatch order.
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = sink;
    }

    /// The active trace sink (e.g. to flush it after a run).
    pub fn sink_mut(&mut self) -> &mut dyn Sink {
        &mut *self.sink
    }

    /// Schedules an external stimulus (e.g. a user query) for `node` at
    /// absolute time `at`. Externals dispatch in install order at equal
    /// timestamps.
    pub fn schedule_external(&mut self, at: SimTime, node: NodeId, ext: P::Ext) {
        assert!(node.index() < self.nodes.len(), "node out of range");
        let idx = self.ext_seq;
        self.ext_seq += 1;
        self.heap.push(Scheduled {
            at: at.max(self.now),
            key: EventKey::external(idx),
            event: Event::External { node, ext },
        });
    }

    /// Installs every event of a [`FaultSchedule`]. All faults scheduled
    /// for one instant are applied as one batch, in install order, before
    /// any same-instant protocol event runs.
    ///
    /// May be called multiple times **before** the run; schedules merge in
    /// `(time, install order)`.
    ///
    /// # Panics
    ///
    /// Panics if called after the run started, if any event is scheduled
    /// in the past, or if one names an unknown node or link.
    pub fn install_faults(&mut self, schedule: &FaultSchedule) {
        assert_eq!(
            self.fault_cursor, 0,
            "install_faults before running the simulator"
        );
        for f in schedule.events() {
            assert!(f.at >= self.now, "fault scheduled in the past: {f:?}");
            let valid = |n: NodeId| n.index() < self.nodes.len();
            match f.event {
                FaultEvent::NodeCrash(n) | FaultEvent::NodeRecover(n) => {
                    assert!(valid(n), "fault names unknown node {n}");
                }
                FaultEvent::LinkDown(a, b) | FaultEvent::LinkUp(a, b) => {
                    assert!(valid(a) && valid(b), "fault names unknown link {a}-{b}");
                    assert!(
                        self.topology.has_link(a, b),
                        "fault names non-existent link {a}-{b}"
                    );
                }
            }
            self.faults.push(*f);
        }
        // Stable by time, so install order breaks ties.
        self.faults.sort_by_key(|f| f.at);
    }

    /// Runs until the event queue drains. Returns the number of events
    /// processed by this call.
    ///
    /// # Panics
    ///
    /// Panics after 100 million events as a runaway-protocol backstop; use
    /// [`run_until`](ShardedSimulator::run_until) for open-ended
    /// workloads.
    pub fn run(&mut self) -> u64 {
        self.run_until_opt(None)
    }

    /// Runs until simulated time would exceed `deadline` (events at
    /// exactly `deadline` are processed) or the queue drains. Returns the
    /// number of events processed by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.run_until_opt(Some(deadline))
    }

    fn run_until_opt(&mut self, deadline: Option<SimTime>) -> u64 {
        let before = self.events_processed;
        self.tracing = self.sink.enabled();
        // Events at exactly `deadline` run, so the bound is one tick past it.
        let horizon = deadline.map_or(SimTime::MAX, |d| {
            d.saturating_add(SimDuration::from_micros(1))
        });
        loop {
            // A fault batch precedes its instant's events, so events run up
            // to the next fault instant exclusive, then the batch.
            let next_fault = self.faults.get(self.fault_cursor).map(|f| f.at);
            let next_fault = next_fault.filter(|&at| at < horizon);
            let until = next_fault.unwrap_or(horizon);
            while self.heap.peek().is_some_and(|head| head.at < until) {
                #[expect(clippy::expect_used, reason = "peek above guarantees an entry")]
                let scheduled = self.heap.pop().expect("peeked entry exists");
                self.step(scheduled);
                assert!(
                    self.events_processed < 100_000_000,
                    "runaway simulation: 1e8 events processed"
                );
            }
            match next_fault {
                Some(at) => self.apply_fault_batch(at),
                None => break,
            }
        }
        if let Some(d) = deadline {
            self.now = self.now.max(d);
        }
        self.events_processed - before
    }

    fn emit(&mut self, node: NodeId, kind: EventKind) {
        if self.tracing {
            self.sink.record(&TraceRecord {
                at: self.now,
                node: node.index() as u32,
                kind,
            });
        }
    }

    /// Applies every fault scheduled for instant `at`.
    fn apply_fault_batch(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        // The whole batch lands on the topology before any side effect
        // runs, so purges and recoveries see the instant's final state.
        // Only transitions that changed something have side effects.
        let mut applied = Vec::new();
        while let Some(fault) = self.faults.get(self.fault_cursor).filter(|f| f.at == at) {
            let event = fault.event;
            self.fault_cursor += 1;
            self.events_processed += 1;
            let changed = match event {
                FaultEvent::NodeCrash(n) | FaultEvent::NodeRecover(n) => {
                    let up = matches!(event, FaultEvent::NodeRecover(_));
                    let changed = self.node_up[n.index()] != up;
                    if changed {
                        self.node_up[n.index()] = up;
                        self.topology.set_node_enabled(n, up);
                    }
                    changed
                }
                FaultEvent::LinkDown(a, b) => self.topology.set_link_enabled(a, b, false),
                FaultEvent::LinkUp(a, b) => self.topology.set_link_enabled(a, b, true),
            };
            if changed {
                applied.push(event);
            }
        }
        if applied.is_empty() {
            return;
        }
        self.topology.rebuild_routes();
        for event in applied {
            let (fault, node, peer) = match event {
                FaultEvent::NodeCrash(n) => ("node-crash", n, None),
                FaultEvent::NodeRecover(n) => ("node-recover", n, None),
                FaultEvent::LinkDown(a, b) => ("link-down", a, Some(b)),
                FaultEvent::LinkUp(a, b) => ("link-up", a, Some(b)),
            };
            self.emit(
                node,
                EventKind::Fault {
                    fault,
                    node: node.index() as u32,
                    peer: peer.map(|p| p.index() as u32),
                },
            );
            // Purges of one fault go in ascending `(from, to)`, the order the
            // pinned traces have their records in.
            match event {
                FaultEvent::NodeCrash(n) => {
                    let mut neighbors: Vec<NodeId> = self.topology.neighbors(n).collect();
                    neighbors.sort_unstable();
                    for nb in neighbors {
                        self.purge_link_queues(n, nb);
                    }
                }
                FaultEvent::NodeRecover(n) => self.dispatch(n, |p, ctx| p.on_recover(ctx)),
                FaultEvent::LinkDown(a, b) => {
                    self.purge_link_queues(a.min(b), a.max(b));
                    self.purge_link_queues(a.max(b), a.min(b));
                }
                FaultEvent::LinkUp(..) => {}
            }
        }
    }

    fn step(&mut self, scheduled: Scheduled<P>) {
        let Scheduled { at, event, .. } = scheduled;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;

        if let Event::LinkFree(hop) = event {
            self.link_freed(hop);
            return;
        }
        let node_id = match &event {
            Event::Start { node } | Event::Timer { node, .. } | Event::External { node, .. } => {
                *node
            }
            Event::Deliver { to, .. } => *to,
            Event::LinkFree(_) => unreachable!("handled above"),
        };
        if let Event::Deliver { from, to, .. } = &event {
            // The link went down (by fault) while the message was in
            // flight: it never arrives.
            if !self.topology.is_link_enabled(*from, *to) {
                self.metrics.messages_dropped += 1;
                self.metrics.messages_dropped_by_fault += 1;
                let (from, to) = (*from, *to);
                self.emit(
                    to,
                    EventKind::Drop {
                        from: from.index() as u32,
                        to: to.index() as u32,
                        reason: "link-down",
                    },
                );
                return;
            }
        }
        if !self.node_up[node_id.index()] {
            if let Event::Deliver { from, to, .. } = &event {
                self.metrics.messages_dropped += 1;
                if !self.topology.is_node_enabled(node_id) {
                    self.metrics.messages_dropped_by_fault += 1;
                }
                let (from, to) = (*from, *to);
                self.emit(
                    to,
                    EventKind::Drop {
                        from: from.index() as u32,
                        to: to.index() as u32,
                        reason: "node-down",
                    },
                );
            }
            return;
        }
        if let Event::Deliver { from, to, msg } = &event {
            self.metrics.messages_delivered += 1;
            self.emit(*to, deliver_record(*from, *to, msg));
        }

        self.dispatch(node_id, |node, ctx| match event {
            Event::Start { .. } => node.on_start(ctx),
            Event::Deliver { from, msg, .. } => node.on_message(ctx, from, msg),
            Event::Timer { tag, .. } => node.on_timer(ctx, tag),
            Event::External { ext, .. } => node.on_external(ctx, ext),
            Event::LinkFree(_) => unreachable!("handled above"),
        });
    }

    /// Runs one handler of `node_id` and realizes what it queued, in order.
    /// The outbox is the one reused buffer; it is taken and handed back
    /// only here, so no early return of [`ShardedSimulator::step`] can
    /// strand it.
    fn dispatch(
        &mut self,
        node_id: NodeId,
        handler: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        let mut commands = std::mem::take(&mut self.commands);
        let mut ctx = Context::new(
            self.now,
            node_id,
            &self.topology,
            &mut commands,
            &mut *self.sink,
        );
        handler(&mut self.nodes[node_id.index()], &mut ctx);
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send { to, msg } => self.transmit(node_id, to, msg),
                Command::Timer { at, tag } => {
                    let seq = self.timer_seq[node_id.index()];
                    self.timer_seq[node_id.index()] += 1;
                    self.heap.push(Scheduled {
                        at,
                        key: EventKey::timer(node_id, seq),
                        event: Event::Timer { node: node_id, tag },
                    });
                }
            }
        }
        self.commands = commands;
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let Some(hop) = Hop::resolve(&self.topology, from, to) else {
            // Context::try_send checks adjacency, so this is unreachable
            // from well-formed command streams; degrade to a counted drop
            // rather than a panic (same policy as the send path).
            debug_assert!(false, "transmission on non-existent link {from}->{to}");
            self.metrics.messages_lost += 1;
            self.emit(
                from,
                EventKind::Drop {
                    from: from.index() as u32,
                    to: to.index() as u32,
                    reason: "not-neighbor",
                },
            );
            return;
        };
        let node_blocked =
            self.medium == MediumMode::HalfDuplexTx && self.node_tx_busy[from.index()] > 0;
        let link = &mut self.links[hop.slot];
        if link.busy || node_blocked {
            if msg.background() {
                link.background.push_back(msg);
            } else {
                link.foreground.push_back(msg);
            }
        } else {
            self.start_transmission(hop, msg);
        }
    }

    fn start_transmission(&mut self, hop: Hop, msg: P::Msg) {
        let (from, to, slot, spec) = (hop.from, hop.to, hop.slot, hop.spec);
        let bytes = msg.wire_size();
        let depart = self.now + spec.transmission_time(bytes);
        self.links[slot].busy = true;
        self.node_tx_busy[from.index()] += 1;
        self.metrics.record_send(bytes, msg.kind());
        self.emit(from, transmit_record(from, to, &msg));
        let txn = self.tx_seq[slot];
        self.tx_seq[slot] += 1;
        let lost = spec.loss > 0.0 && loss_unit(self.seed, from, to, txn) < spec.loss;
        if !lost {
            self.heap.push(Scheduled {
                at: depart + spec.latency,
                key: EventKey::deliver(from, to, txn),
                event: Event::Deliver { to, from, msg },
            });
        } else {
            self.metrics.messages_lost += 1;
            self.emit(from, loss_record(from, to, &msg));
        }
        self.heap.push(Scheduled {
            at: depart,
            key: EventKey::link_free(from, to, txn),
            event: Event::LinkFree(hop),
        });
    }

    fn link_freed(&mut self, hop: Hop) {
        let from = hop.from;
        let link = &mut self.links[hop.slot];
        link.busy = false;
        self.node_tx_busy[from.index()] = self.node_tx_busy[from.index()].saturating_sub(1);
        match self.medium {
            MediumMode::FullDuplex => {
                let next = link
                    .foreground
                    .pop_front()
                    .or_else(|| link.background.pop_front());
                if let Some(msg) = next {
                    self.start_transmission(hop, msg);
                }
            }
            MediumMode::HalfDuplexTx => {
                if self.node_tx_busy[from.index()] > 0 {
                    return; // radio already claimed again
                }
                // Foreground from any link first, then background. The walk
                // only pops: the transmission starts once it has let go of
                // the topology.
                let mut next = None;
                'walk: for foreground in [true, false] {
                    for (to, slot, spec) in self.topology.links_from(from) {
                        let link = &mut self.links[slot];
                        if link.busy {
                            continue;
                        }
                        let queue = if foreground {
                            &mut link.foreground
                        } else {
                            &mut link.background
                        };
                        if let Some(msg) = queue.pop_front() {
                            let hop = Hop {
                                from,
                                to,
                                slot,
                                spec,
                            };
                            next = Some((hop, msg));
                            break 'walk;
                        }
                    }
                }
                if let Some((hop, msg)) = next {
                    self.start_transmission(hop, msg);
                }
            }
        }
    }

    fn purge_link_queues(&mut self, from: NodeId, to: NodeId) {
        if let Some((slot, _)) = self.topology.link_slot(from, to) {
            let link = &mut self.links[slot];
            let purged = (link.foreground.len() + link.background.len()) as u64;
            link.foreground.clear();
            link.background.clear();
            self.metrics.messages_purged_by_fault += purged;
            if purged > 0 {
                self.emit(
                    from,
                    EventKind::Purge {
                        from: from.index() as u32,
                        to: to.index() as u32,
                        count: purged,
                    },
                );
            }
        }
    }

    /// Shared access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    /// Iterates over all protocol instances in node-id order.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// Consumes the simulator, returning the protocol instances in node-id
    /// order.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;
    use dde_obs::{MemorySink, SharedSink};

    #[derive(Debug, Clone)]
    struct Ball {
        hops: u32,
    }
    impl WireMessage for Ball {
        fn wire_size(&self) -> u64 {
            100
        }
        fn kind(&self) -> &'static str {
            "ball"
        }
    }

    /// Every node serves to its neighbors at start and echoes until the hop
    /// budget is spent, looking into the sink the engine writes to as it
    /// goes: the record of the event being dispatched is already the last
    /// one there.
    struct Echo {
        started: bool,
        budget: u32,
        sink: SharedSink<MemorySink>,
    }

    impl Echo {
        fn assert_last_record(&self, ctx: &Context<'_, Ball>, kind: EventKind) {
            let expected = TraceRecord {
                at: ctx.now(),
                node: ctx.node().index() as u32,
                kind,
            };
            let last = self.sink.with(|m| m.events().last().cloned());
            assert_eq!(last, Some(expected), "the sink lags the dispatch");
        }
    }

    impl Protocol for Echo {
        type Msg = Ball;
        type Ext = ();
        fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
            self.started = true;
            for peer in ctx.topology().neighbors(ctx.node()) {
                ctx.send(peer, Ball { hops: 0 });
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeId, msg: Ball) {
            self.assert_last_record(ctx, deliver_record(from, ctx.node(), &msg));
            if msg.hops < self.budget {
                ctx.send(from, Ball { hops: msg.hops + 1 });
            }
        }
        fn on_recover(&mut self, ctx: &mut Context<'_, Ball>) {
            self.assert_last_record(
                ctx,
                EventKind::Fault {
                    fault: "node-recover",
                    node: ctx.node().index() as u32,
                    peer: None,
                },
            );
            self.on_start(ctx);
        }
    }

    fn echo_line(n: usize, budget: u32) -> (ShardedSimulator<Echo>, SharedSink<MemorySink>) {
        let sink = SharedSink::new(MemorySink::new());
        let nodes = (0..n)
            .map(|_| Echo {
                started: false,
                budget,
                sink: sink.clone(),
            })
            .collect();
        let mut sim = ShardedSimulator::new(Topology::line(n, LinkSpec::mbps1()), nodes, 7, 1);
        sim.set_sink(Box::new(sink.clone()));
        (sim, sink)
    }

    #[test]
    fn trace_reaches_the_sink_event_by_event() {
        let (mut sim, sink) = echo_line(5, 200);
        let mut faults = FaultSchedule::new();
        faults.crash_at(SimTime::from_millis(20), NodeId(2));
        faults.link_down_at(SimTime::from_millis(20), NodeId(0), NodeId(1));
        faults.recover_at(SimTime::from_millis(60), NodeId(2));
        faults.link_up_at(SimTime::from_millis(60), NodeId(0), NodeId(1));
        sim.install_faults(&faults);
        sim.run();
        // The handlers did the checking; make sure they had work to check.
        assert!(sim.metrics().messages_delivered > 200);
        assert!(sim.metrics().messages_dropped_by_fault > 0);
        let records = sink.with(|m| m.take());
        assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn a_fault_at_time_zero_precedes_the_start_events() {
        // Node 1 is crashed before anything runs, so it never starts; its
        // neighbors do, and what they serve it is dropped on arrival. The
        // trace is in dispatch order: fault first.
        let (mut sim, sink) = echo_line(3, 0);
        let mut faults = FaultSchedule::new();
        faults.crash_at(SimTime::ZERO, NodeId(1));
        sim.install_faults(&faults);
        sim.run();
        let started: Vec<bool> = sim.nodes().map(|n| n.started).collect();
        assert_eq!(started, [true, false, true]);
        let trace: Vec<(u64, u32, &'static str)> = sink.with(|m| {
            m.events()
                .iter()
                .map(|r| (r.at.as_micros(), r.node, r.kind.kind_name()))
                .collect()
        });
        assert_eq!(
            trace,
            [
                (0, 1, "fault"),
                (0, 0, "transmit"),
                (0, 2, "transmit"),
                (1800, 1, "drop"),
                (1800, 1, "drop"),
            ]
        );
    }

    #[test]
    fn region_queue_order_is_insertion_independent() {
        // Same-timestamp events pop in stable-key order no matter the
        // order they were pushed in — unlike a `(time, seq)` heap, whose
        // tie-break is the insertion sequence itself.
        let at = SimTime::from_millis(1);
        let keys = [
            EventKey {
                class: CLASS_DELIVER,
                a: 1,
                b: 2,
                c: 0,
            },
            EventKey {
                class: CLASS_TIMER,
                a: 4,
                b: 0,
                c: 0,
            },
            EventKey {
                class: CLASS_EXTERNAL,
                a: 0,
                b: 0,
                c: 0,
            },
            EventKey {
                class: CLASS_LINK_FREE,
                a: 1,
                b: 2,
                c: 0,
            },
        ];
        let pop_order = |insert: &[usize]| {
            let mut heap: BinaryHeap<Scheduled<Echo>> = BinaryHeap::new();
            for &i in insert {
                heap.push(Scheduled {
                    at,
                    key: keys[i],
                    event: Event::Timer {
                        node: NodeId(0),
                        tag: i as u64,
                    },
                });
            }
            let mut order = Vec::new();
            while let Some(s) = heap.pop() {
                order.push(s.key);
            }
            order
        };
        let a = pop_order(&[0, 1, 2, 3]);
        let b = pop_order(&[3, 2, 1, 0]);
        let c = pop_order(&[2, 0, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        // And the order is the key order: external < timer < link-free <
        // deliver at one instant.
        let mut sorted = keys.to_vec();
        sorted.sort();
        assert_eq!(a, sorted);
    }

    #[test]
    fn loss_hash_is_deterministic_and_uniform_ish() {
        let a = loss_unit(7, NodeId(1), NodeId(2), 0);
        assert_eq!(a, loss_unit(7, NodeId(1), NodeId(2), 0));
        assert_ne!(a, loss_unit(7, NodeId(1), NodeId(2), 1));
        assert_ne!(a, loss_unit(8, NodeId(1), NodeId(2), 0));
        let draws: Vec<f64> = (0..1000)
            .map(|i| loss_unit(1, NodeId(0), NodeId(1), i))
            .collect();
        assert!(draws.iter().all(|d| (0.0..1.0).contains(d)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }
}
