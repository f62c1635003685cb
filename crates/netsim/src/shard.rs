//! The event loop: one heap, one thread.
//!
//! [`ShardedSimulator`] owns every node, every transmitter, the topology
//! and one queue of pending events, and dispatches them one at a time on
//! the calling thread. The name, the region count
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
//!
//! # The queue
//!
//! The [`BinaryHeap`] holds 32-byte `Copy` entries. Each is an event's
//! `(at, EventKey)` packed into one `u128` whose integer order is exactly
//! the tuple's order, plus the index of the event's payload in a slab with
//! a free list. A heap step is one integer compare. A link's events pack
//! the link's rank in `(from, to)` order, from a table built in
//! [`ShardedSimulator::new`]; the dense slot that finds the link's queues
//! is in adjacency order and never reaches a key. The slab, its free list
//! and the rank table belong to the simulator value and die with it.
//!
//! A transmitter — the link under [`MediumMode::FullDuplex`], the node's
//! radio under [`MediumMode::HalfDuplexTx`] — queues its free event only
//! while a message waits behind it. An idle transmitter counts as free once
//! the `(busy_until, EventKey::link_free(..))` order of its last
//! transmission sorts at or before the event being dispatched, and a fault
//! batch sorts before every event of its instant. That is exactly when the
//! skipped event would have run, so skipping it moves nothing but the event
//! count.

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

/// Bits of the packed key's low word below the class.
const IDENTITY_BITS: u32 = 61;
/// Bits of a timer's node and of a link's `(from, to)` rank.
const OWNER_BITS: u32 = 24;
/// Bits of a timer's per-node sequence and of a link's `txn`.
const SEQ_BITS: u32 = IDENTITY_BITS - OWNER_BITS;

/// `value`, checked to fit `bits` bits of the packed key.
#[inline]
fn field(value: u64, bits: u32, what: &str) -> u64 {
    assert!(
        value < 1 << bits,
        "event key field {what} = {value} reaches its limit 2^{bits}"
    );
    value
}

/// An event's place in the queue: `(at, EventKey)` packed into one integer
/// whose order is exactly the tuple's order.
///
/// `at` (in µs) is the high 64 bits. The low 64 bits are the class (3
/// bits) over 61 identity bits: the node of a start, the install index of
/// an external, node (24 bits) | sequence (37) of a timer, and the link's
/// `(from, to)` rank (24) | `txn` (37) of a link-free or a delivery. The
/// 1e8-event runaway backstop keeps every counter far below 2^37.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Order(u128);

impl Order {
    /// Instant `at`, ahead of every event of it: a fault batch's place.
    #[inline]
    fn instant(at: SimTime) -> Order {
        Order(u128::from(at.as_micros()) << 64)
    }

    /// Packs `(at, key)`. `rank` is the `(from, to)` rank of a link key's
    /// link and is read only for the link classes.
    ///
    /// # Panics
    ///
    /// Panics if a field does not fit its width.
    #[inline]
    fn of(at: SimTime, key: EventKey, rank: u32) -> Order {
        let identity = match key.class {
            CLASS_START => field(key.a, IDENTITY_BITS, "node"),
            CLASS_EXTERNAL => field(key.a, IDENTITY_BITS, "install index"),
            CLASS_TIMER => {
                field(key.a, OWNER_BITS, "timer node") << SEQ_BITS
                    | field(key.b, SEQ_BITS, "timer sequence")
            }
            _ => {
                field(u64::from(rank), OWNER_BITS, "link rank") << SEQ_BITS
                    | field(key.c, SEQ_BITS, "txn")
            }
        };
        Order(Order::instant(at).0 | u128::from(key.class << IDENTITY_BITS | identity))
    }

    /// The instant the event is at.
    #[inline]
    fn at(self) -> SimTime {
        SimTime::from_micros((self.0 >> 64) as u64)
    }
}

/// Each directed link's rank in `(from, to)` order, by
/// [`Topology::link_slot`]: what a link's events key on.
fn link_ranks(topology: &Topology) -> Vec<u32> {
    let mut ranks = vec![0; topology.directed_link_count()];
    let mut out = Vec::new();
    let mut next = 0;
    for from in topology.nodes() {
        out.clear();
        out.extend(topology.links_from(from).map(|(to, slot, _)| (to, slot)));
        out.sort_unstable();
        for &(_, slot) in &out {
            ranks[slot] = next;
            next += 1;
        }
    }
    ranks
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
    /// A transmitter frees with a message waiting. The hop is one the
    /// transmitter serves; under `HalfDuplexTx` only its `from` is read.
    LinkFree(Hop),
}

/// A heap entry: an event's order and the slab slot of its payload.
#[derive(Clone, Copy)]
struct Entry {
    order: Order,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.order.cmp(&self.order)
    }
}

/// Pending events: a heap of small entries over a slab of payloads. No two
/// pending events share an order, so the entry's slot never breaks a tie.
struct EventQueue<P: Protocol> {
    heap: BinaryHeap<Entry>,
    slab: Vec<Option<Event<P>>>,
    /// Slab slots whose event has been popped, for reuse.
    vacant: Vec<u32>,
}

impl<P: Protocol> EventQueue<P> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            vacant: Vec::new(),
        }
    }

    fn push(&mut self, order: Order, event: Event<P>) {
        let slot = match self.vacant.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = self.slab.len();
                assert!(slot < u32::MAX as usize, "2^32 - 1 pending events");
                self.slab.push(Some(event));
                slot as u32
            }
        };
        self.heap.push(Entry { order, slot });
    }

    /// Pops the first event if it sorts before `until`.
    #[inline]
    fn pop_before(&mut self, until: Order) -> Option<(Order, Event<P>)> {
        if self.heap.peek()?.order >= until {
            return None;
        }
        let Entry { order, slot } = self.heap.pop()?;
        self.vacant.push(slot);
        #[expect(clippy::expect_used, reason = "a heap entry's slot holds its event")]
        let event = self.slab[slot as usize]
            .take()
            .expect("slot holds an event");
        Some((order, event))
    }
}

/// A transmitter: a directed link under [`MediumMode::FullDuplex`], a
/// node's radio under [`MediumMode::HalfDuplexTx`].
#[derive(Debug, Clone, Copy)]
struct Transmitter {
    /// Order of the link-free event of the last transmission. The
    /// transmitter is free once this sorts at or before the event being
    /// dispatched; `Order(0)` before its first transmission.
    free: Order,
    /// Messages waiting in the queues it serves.
    waiting: usize,
    /// Whether its free event is in the queue.
    free_queued: bool,
}

impl Transmitter {
    /// One idle transmitter per directed link (full duplex) or per node
    /// (half duplex).
    fn table(topology: &Topology, medium: MediumMode) -> Vec<Transmitter> {
        let idle = Transmitter {
            free: Order(0),
            waiting: 0,
            free_queued: false,
        };
        let count = match medium {
            MediumMode::FullDuplex => topology.directed_link_count(),
            MediumMode::HalfDuplexTx => topology.len(),
        };
        vec![idle; count]
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
    queue: EventQueue<P>,
    /// Order of the event being dispatched; a fault batch's instant while
    /// it applies.
    dispatching: Order,
    /// Wait queues, by `Topology::link_slot`.
    links: Vec<LinkState<P::Msg>>,
    /// By slot under full duplex, by node under half duplex.
    transmitters: Vec<Transmitter>,
    /// Each link's `(from, to)` rank, by slot.
    ranks: Vec<u32>,
    /// Handler outbox, emptied after every dispatch and reused by the next.
    commands: Vec<Command<P::Msg>>,
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
        let mut queue = EventQueue::new();
        for i in 0..n {
            let node = NodeId(i);
            let order = Order::of(SimTime::ZERO, EventKey::start(node), 0);
            queue.push(order, Event::Start { node });
        }
        ShardedSimulator {
            node_up: vec![true; n],
            partition,
            nodes,
            queue,
            dispatching: Order(0),
            links: LinkState::table(&topology),
            transmitters: Transmitter::table(&topology, MediumMode::FullDuplex),
            ranks: link_ranks(&topology),
            commands: Vec::new(),
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

    /// Number of events processed so far: dispatched events plus one per
    /// installed fault transition.
    ///
    /// An idle link's free instant is not an event: a transmitter queues
    /// its free event only while a message waits behind it. A transmission
    /// that leaves its transmitter idle costs one event (its delivery), not
    /// two, so `RunReport::events` and the benchmark's `netsim.events`
    /// count fewer events than they did when every link freed by an event,
    /// and `netsim.ns_per_event` divides by fewer.
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
    ///
    /// # Panics
    ///
    /// Panics once a message has been sent: the transmitter table is
    /// rebuilt for the new medium, and a busy transmitter would be lost.
    pub fn set_medium(&mut self, medium: MediumMode) {
        assert!(self.metrics.messages_sent == 0, "set_medium before traffic");
        self.medium = medium;
        self.transmitters = Transmitter::table(&self.topology, medium);
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
        let order = Order::of(at.max(self.now), EventKey::external(idx), 0);
        self.queue.push(order, Event::External { node, ext });
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
            let until = Order::instant(next_fault.unwrap_or(horizon));
            while let Some((order, event)) = self.queue.pop_before(until) {
                self.step(order, event);
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
        self.dispatching = Order::instant(at);
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

    fn step(&mut self, order: Order, event: Event<P>) {
        let at = order.at();
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.dispatching = order;
        self.events_processed += 1;

        let node_id = match &event {
            Event::LinkFree(hop) => {
                self.link_freed(*hop);
                return;
            }
            Event::Start { node } | Event::Timer { node, .. } | Event::External { node, .. } => {
                *node
            }
            Event::Deliver { to, .. } => *to,
        };
        if let Event::Deliver { from, to, msg } = &event {
            let (from, to) = (*from, *to);
            // Faults are the only way a link or a node goes down (a batch
            // writes `node_up` and the topology together): a message in
            // flight on a link that went down, or arriving at a crashed
            // node, is dropped by a fault.
            let dropped = if !self.topology.is_link_enabled(from, to) {
                Some("link-down")
            } else if !self.node_up[to.index()] {
                Some("node-down")
            } else {
                None
            };
            if let Some(reason) = dropped {
                self.metrics.messages_dropped += 1;
                self.metrics.messages_dropped_by_fault += 1;
                self.emit(
                    to,
                    EventKind::Drop {
                        from: from.index() as u32,
                        to: to.index() as u32,
                        reason,
                    },
                );
                return;
            }
            self.metrics.messages_delivered += 1;
            self.emit(to, deliver_record(from, to, msg));
        } else if !self.node_up[node_id.index()] {
            return;
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
                    let order = Order::of(at, EventKey::timer(node_id, seq), 0);
                    self.queue.push(order, Event::Timer { node: node_id, tag });
                }
            }
        }
        self.commands = commands;
    }

    /// The transmitter that clocks `hop` out.
    #[inline]
    fn transmitter(&self, hop: &Hop) -> usize {
        match self.medium {
            MediumMode::FullDuplex => hop.slot,
            MediumMode::HalfDuplexTx => hop.from.index(),
        }
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
        let t = self.transmitter(&hop);
        if self.transmitters[t].free <= self.dispatching {
            self.start_transmission(t, hop, msg);
            return;
        }
        let link = &mut self.links[hop.slot];
        if msg.background() {
            link.background.push_back(msg);
        } else {
            link.foreground.push_back(msg);
        }
        self.transmitters[t].waiting += 1;
        self.queue_free_event(t, hop);
    }

    /// Queues transmitter `t`'s free event if a message waits behind it
    /// and the event is not queued yet. `hop` is one `t` serves.
    fn queue_free_event(&mut self, t: usize, hop: Hop) {
        let tx = &mut self.transmitters[t];
        if tx.waiting > 0 && !tx.free_queued {
            tx.free_queued = true;
            let order = tx.free;
            self.queue.push(order, Event::LinkFree(hop));
        }
    }

    fn start_transmission(&mut self, t: usize, hop: Hop, msg: P::Msg) {
        let (from, to, slot, spec) = (hop.from, hop.to, hop.slot, hop.spec);
        let bytes = msg.wire_size();
        let depart = self.now + spec.transmission_time(bytes);
        let rank = self.ranks[slot];
        let txn = self.tx_seq[slot];
        self.tx_seq[slot] += 1;
        self.transmitters[t].free = Order::of(depart, EventKey::link_free(from, to, txn), rank);
        self.metrics.record_send(bytes, msg.kind());
        self.emit(from, transmit_record(from, to, &msg));
        let lost = spec.loss > 0.0 && loss_unit(self.seed, from, to, txn) < spec.loss;
        if !lost {
            let order = Order::of(
                depart + spec.latency,
                EventKey::deliver(from, to, txn),
                rank,
            );
            self.queue.push(order, Event::Deliver { to, from, msg });
        } else {
            self.metrics.messages_lost += 1;
            self.emit(from, loss_record(from, to, &msg));
        }
    }

    /// The free event of the transmitter serving `hop`: it starts the next
    /// message waiting behind it, unless a purge took them all.
    fn link_freed(&mut self, hop: Hop) {
        let t = self.transmitter(&hop);
        self.transmitters[t].free_queued = false;
        let from = hop.from;
        let next = match self.medium {
            MediumMode::FullDuplex => {
                let link = &mut self.links[hop.slot];
                let next = link
                    .foreground
                    .pop_front()
                    .or_else(|| link.background.pop_front());
                next.map(|msg| (hop, msg))
            }
            // Foreground from any link first, then background. The walk
            // only pops: the transmission starts once it has let go of the
            // topology.
            MediumMode::HalfDuplexTx => {
                let mut next = None;
                'walk: for foreground in [true, false] {
                    for (to, slot, spec) in self.topology.links_from(from) {
                        let link = &mut self.links[slot];
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
                next
            }
        };
        if let Some((hop, msg)) = next {
            self.transmitters[t].waiting -= 1;
            self.start_transmission(t, hop, msg);
            self.queue_free_event(t, hop);
        }
    }

    fn purge_link_queues(&mut self, from: NodeId, to: NodeId) {
        if let Some(hop) = Hop::resolve(&self.topology, from, to) {
            let link = &mut self.links[hop.slot];
            let purged = link.foreground.len() + link.background.len();
            link.foreground.clear();
            link.background.clear();
            let t = self.transmitter(&hop);
            self.transmitters[t].waiting -= purged;
            self.metrics.messages_purged_by_fault += purged as u64;
            if purged > 0 {
                self.emit(
                    from,
                    EventKind::Purge {
                        from: from.index() as u32,
                        to: to.index() as u32,
                        count: purged as u64,
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
    use proptest::prelude::*;

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

    fn echo_on(
        topology: Topology,
        budget: u32,
    ) -> (ShardedSimulator<Echo>, SharedSink<MemorySink>) {
        let sink = SharedSink::new(MemorySink::new());
        let nodes = (0..topology.len())
            .map(|_| Echo {
                started: false,
                budget,
                sink: sink.clone(),
            })
            .collect();
        let mut sim = ShardedSimulator::new(topology, nodes, 7, 1);
        sim.set_sink(Box::new(sink.clone()));
        (sim, sink)
    }

    fn echo_line(n: usize, budget: u32) -> (ShardedSimulator<Echo>, SharedSink<MemorySink>) {
        echo_on(Topology::line(n, LinkSpec::mbps1()), budget)
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
        let (one, two, four) = (NodeId(1), NodeId(2), NodeId(4));
        let keys = [
            EventKey::deliver(one, two, 0),
            EventKey::timer(four, 0),
            EventKey::external(0),
            EventKey::link_free(one, two, 0),
        ];
        let pop_order = |insert: &[usize]| {
            let mut queue: EventQueue<Echo> = EventQueue::new();
            for &i in insert {
                let event = Event::Timer {
                    node: NodeId(0),
                    tag: i as u64,
                };
                queue.push(Order::of(at, keys[i], 0), event);
            }
            let mut order = Vec::new();
            while let Some((_, event)) = queue.pop_before(Order(u128::MAX)) {
                let Event::Timer { tag, .. } = event else {
                    unreachable!("only timers were pushed")
                };
                order.push(keys[tag as usize]);
            }
            // Every payload went back to the free list.
            assert_eq!(queue.vacant.len(), queue.slab.len());
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
    fn the_slab_reuses_popped_slots() {
        let mut queue: EventQueue<Echo> = EventQueue::new();
        for round in 0..3u64 {
            for node in 0..4 {
                let at = SimTime::from_micros(round);
                let order = Order::of(at, EventKey::start(NodeId(node)), 0);
                queue.push(order, Event::Start { node: NodeId(node) });
            }
            let until = Order::instant(SimTime::from_micros(round + 1));
            let popped: Vec<Order> =
                std::iter::from_fn(|| queue.pop_before(until).map(|(o, _)| o)).collect();
            assert_eq!(popped.len(), 4);
            assert!(popped.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(queue.slab.len(), 4, "three rounds of four share four slots");
    }

    /// A value of a `bits`-wide field: zero, its maximum, a small value or
    /// anything in range, so ties and extremes are as likely as the middle.
    fn field_value(bits: u32) -> impl Strategy<Value = u64> {
        let max = u64::MAX >> (64 - bits);
        (0u8..4, 0..=max).prop_map(move |(pick, any)| match pick {
            0 => 0,
            1 => max,
            2 => any % 3,
            _ => any,
        })
    }

    /// A random `(at, key, rank)`. A link's endpoints are the two 12-bit
    /// halves of its 24-bit rank, so the rank is the `(from, to)` order a
    /// simulator's rank table gives, up to the field's maximum.
    fn timed_key() -> impl Strategy<Value = (SimTime, EventKey, u32)> {
        let fields = (
            0u64..5,
            field_value(64),
            field_value(IDENTITY_BITS),
            field_value(OWNER_BITS),
            field_value(SEQ_BITS),
        );
        fields.prop_map(|(class, at, wide, owner, seq)| {
            let (from, to) = (
                NodeId((owner >> 12) as usize),
                NodeId((owner & 0xfff) as usize),
            );
            let rank = owner as u32;
            let (key, rank) = match class {
                CLASS_START => (EventKey::start(NodeId(wide as usize)), 0),
                CLASS_EXTERNAL => (EventKey::external(wide), 0),
                CLASS_TIMER => (EventKey::timer(NodeId(owner as usize), seq), 0),
                CLASS_LINK_FREE => (EventKey::link_free(from, to, seq), rank),
                _ => (EventKey::deliver(from, to, seq), rank),
            };
            (SimTime::from_micros(at), key, rank)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn packed_order_is_the_tuple_order(x in timed_key(), y in timed_key()) {
            let (x_at, x_key, x_rank) = x;
            let (y_at, y_key, y_rank) = y;
            let packed = Order::of(x_at, x_key, x_rank).cmp(&Order::of(y_at, y_key, y_rank));
            prop_assert_eq!(packed, (x_at, x_key).cmp(&(y_at, y_key)));
            prop_assert_eq!(Order::of(x_at, x_key, x_rank).at(), x_at);
            // A fault batch at an instant sorts before all of its events.
            prop_assert!(Order::instant(x_at) <= Order::of(x_at, x_key, x_rank));
        }
    }

    #[test]
    fn a_field_one_past_its_limit_panics() {
        let (a, b) = (NodeId(0), NodeId(1));
        let cases = [
            ("node", EventKey::start(NodeId(1 << IDENTITY_BITS)), 0),
            ("install index", EventKey::external(1 << IDENTITY_BITS), 0),
            ("timer node", EventKey::timer(NodeId(1 << OWNER_BITS), 0), 0),
            ("timer sequence", EventKey::timer(a, 1 << SEQ_BITS), 0),
            ("link rank", EventKey::link_free(a, b, 0), 1 << OWNER_BITS),
            ("link rank", EventKey::deliver(a, b, 0), 1 << OWNER_BITS),
            ("txn", EventKey::link_free(a, b, 1 << SEQ_BITS), 0),
            ("txn", EventKey::deliver(a, b, 1 << SEQ_BITS), 0),
        ];
        for (what, key, rank) in cases {
            let err =
                std::panic::catch_unwind(|| Order::of(SimTime::MAX, key, rank)).expect_err(what);
            let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                message.contains(what) && message.contains("limit 2^"),
                "{what}: {message:?}"
            );
        }
    }

    #[test]
    fn link_ranks_follow_from_to_order_not_slots() {
        // Adjacency order is insertion order: node 1 lists 4 before 0, and
        // node 0 lists 3 before 1.
        let mut t = Topology::new(5);
        t.add_link(NodeId(1), NodeId(4), LinkSpec::mbps1());
        t.add_link(NodeId(0), NodeId(3), LinkSpec::mbps1());
        t.add_link(NodeId(1), NodeId(0), LinkSpec::mbps1());
        t.add_link(NodeId(2), NodeId(1), LinkSpec::mbps1());
        t.rebuild_routes();
        let ranks = link_ranks(&t);
        let mut by_rank = Vec::new();
        let mut slot_differs = false;
        for from in t.nodes() {
            for (to, slot, _) in t.links_from(from) {
                by_rank.push((ranks[slot], from, to));
                slot_differs |= ranks[slot] as usize != slot;
            }
        }
        by_rank.sort_unstable();
        let ranked: Vec<u32> = by_rank.iter().map(|&(rank, ..)| rank).collect();
        assert_eq!(ranked, (0..8).collect::<Vec<u32>>());
        assert!(by_rank
            .windows(2)
            .all(|w| (w[0].1, w[0].2) < (w[1].1, w[1].2)));
        assert!(slot_differs, "the topology must tell slots from ranks");
    }

    /// Under both media, every transmitter's free order is the packed
    /// `link_free` key of the last transmission it started: the link's
    /// `(from, to)` rank, its last `txn`, the instant the message clears.
    #[test]
    fn a_transmitters_free_order_is_its_last_link_free_key() {
        for medium in [MediumMode::FullDuplex, MediumMode::HalfDuplexTx] {
            let (mut sim, sink) = echo_on(Topology::star(5, LinkSpec::mbps1()), 6);
            sim.set_medium(medium);
            sim.run();
            let topology = sim.topology().clone();
            let mut pairs: Vec<(NodeId, NodeId)> = topology
                .nodes()
                .flat_map(|a| topology.neighbors(a).map(move |b| (a, b)))
                .collect();
            pairs.sort_unstable();
            // (from, to) -> (transmissions, departure of the last one)
            let mut last = std::collections::BTreeMap::new();
            // transmitter -> its last transmission's (from, to)
            let mut latest = std::collections::BTreeMap::new();
            for r in sink.with(|m| m.take()) {
                if let EventKind::Transmit {
                    from, to, bytes, ..
                } = r.kind
                {
                    let (from, to) = (NodeId(from as usize), NodeId(to as usize));
                    let (slot, spec) = topology.link_slot(from, to).unwrap();
                    let depart = r.at + spec.transmission_time(bytes);
                    let entry = last.entry((from, to)).or_insert((0, depart));
                    *entry = (entry.0 + 1, depart);
                    let t = match medium {
                        MediumMode::FullDuplex => slot,
                        MediumMode::HalfDuplexTx => from.index(),
                    };
                    latest.insert(t, (from, to));
                }
            }
            assert_eq!(
                latest.len(),
                sim.transmitters.len(),
                "every transmitter sent"
            );
            for (t, (from, to)) in latest {
                let (count, depart) = last[&(from, to)];
                let rank = pairs.binary_search(&(from, to)).unwrap() as u32;
                let key = EventKey::link_free(from, to, count - 1);
                assert_eq!(
                    sim.transmitters[t].free,
                    Order::of(depart, key, rank),
                    "{medium:?} {from}->{to}"
                );
            }
        }
    }

    /// A packet of a given size, foreground or background.
    #[derive(Debug, Clone)]
    struct Blob {
        bytes: u64,
        background: bool,
    }
    impl WireMessage for Blob {
        fn wire_size(&self) -> u64 {
            self.bytes
        }
        fn background(&self) -> bool {
            self.background
        }
    }

    /// What makes node 0 send at exactly 1 s, the instant its first
    /// transmission (1 s on the wire) leaves the link.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Trigger {
        /// A timer node 0 set for 1 s: timers sort before link-free.
        Timer,
        /// A packet node 1 sent at 0 that arrives at 1 s: deliveries sort
        /// after link-free.
        Delivery,
        /// Node 0 crashes at 0.5 s and recovers at 1 s: a fault batch sorts
        /// before every event of its instant.
        Recovery,
    }

    /// At the trigger, node 0 sends a background packet and then a
    /// foreground one. If the link is still busy both queue and the
    /// foreground one leaves first; if it is free the background one
    /// leaves at once.
    struct Boundary(Trigger);

    impl Boundary {
        fn burst(ctx: &mut Context<'_, Blob>) {
            for background in [true, false] {
                let bytes = 62_500; // 0.5 s at 1 Mbps
                ctx.send(NodeId(1), Blob { bytes, background });
            }
        }
    }

    impl Protocol for Boundary {
        type Msg = Blob;
        type Ext = ();
        fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
            if ctx.node() == NodeId(0) {
                let first = Blob {
                    bytes: 125_000,
                    background: false,
                };
                ctx.send(NodeId(1), first);
                if self.0 == Trigger::Timer {
                    ctx.set_timer_at(SimTime::from_secs(1), 0);
                }
            } else if self.0 == Trigger::Delivery {
                // 0.999 s on the wire plus 1 ms of latency.
                let bytes = 124_875;
                ctx.send(
                    NodeId(0),
                    Blob {
                        bytes,
                        background: false,
                    },
                );
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Blob>, _: NodeId, _: Blob) {
            if ctx.node() == NodeId(0) {
                Boundary::burst(ctx);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Blob>, _: u64) {
            Boundary::burst(ctx);
        }
        fn on_recover(&mut self, ctx: &mut Context<'_, Blob>) {
            Boundary::burst(ctx);
        }
    }

    /// Node 0's transmissions as `(instant in µs, background)`.
    fn boundary_transmits(trigger: Trigger, medium: MediumMode) -> Vec<(u64, bool)> {
        let sink = SharedSink::new(MemorySink::new());
        let nodes = vec![Boundary(trigger), Boundary(trigger)];
        let mut sim = ShardedSimulator::new(Topology::line(2, LinkSpec::mbps1()), nodes, 1, 1);
        sim.set_medium(medium);
        sim.set_sink(Box::new(sink.clone()));
        if trigger == Trigger::Recovery {
            let mut faults = FaultSchedule::new();
            faults.crash_at(SimTime::from_millis(500), NodeId(0));
            faults.recover_at(SimTime::from_secs(1), NodeId(0));
            sim.install_faults(&faults);
        }
        sim.run();
        sink.with(|m| {
            m.events()
                .iter()
                .filter_map(|r| match r.kind {
                    EventKind::Transmit {
                        from: 0,
                        background,
                        ..
                    } => Some((r.at.as_micros(), background)),
                    _ => None,
                })
                .collect()
        })
    }

    /// Queued at the free instant: the foreground packet leaves first.
    const QUEUED: [(u64, bool); 3] = [(0, false), (1_000_000, false), (1_500_000, true)];
    /// Sent on a free link: the background packet leaves at once.
    const IMMEDIATE: [(u64, bool); 3] = [(0, false), (1_000_000, true), (1_500_000, false)];

    #[test]
    fn a_send_from_a_timer_at_the_free_instant_queues() {
        for medium in [MediumMode::FullDuplex, MediumMode::HalfDuplexTx] {
            assert_eq!(
                boundary_transmits(Trigger::Timer, medium),
                QUEUED,
                "{medium:?}"
            );
        }
    }

    #[test]
    fn a_send_from_a_delivery_at_the_free_instant_transmits_at_once() {
        for medium in [MediumMode::FullDuplex, MediumMode::HalfDuplexTx] {
            let got = boundary_transmits(Trigger::Delivery, medium);
            assert_eq!(got, IMMEDIATE, "{medium:?}");
        }
    }

    #[test]
    fn a_send_from_a_recovery_at_the_free_instant_queues() {
        for medium in [MediumMode::FullDuplex, MediumMode::HalfDuplexTx] {
            let got = boundary_transmits(Trigger::Recovery, medium);
            assert_eq!(got, QUEUED, "{medium:?}");
        }
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
