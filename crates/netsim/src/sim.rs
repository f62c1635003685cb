//! The seam between protocol logic and whatever drives it.
//!
//! This replaces the paper's EMANE-based emulation (§VII): each node runs a
//! [`Protocol`] implementation whose handlers see the world through a
//! [`Context`] and queue [`Command`]s (sends to neighbors, timers). The
//! event loop that realizes those commands — links with finite bandwidth,
//! propagation latency and optional loss, a deterministic `(time, key)`
//! event order — is [`crate::shard`]; a live host (`dde-net`) realizes the
//! same commands against sockets and a timer wheel.

use crate::shard::ShardedSimulator;
use crate::topology::{LinkSpec, NodeId, Topology};
use dde_logic::time::{SimDuration, SimTime};
use dde_obs::{EventKind, Sink, TraceRecord};

/// A message that can be clocked onto a link.
pub trait WireMessage {
    /// Size on the wire, in bytes (headers included, by convention).
    fn wire_size(&self) -> u64;

    /// A short static tag used for per-kind traffic accounting
    /// (e.g. `"request"`, `"data"`, `"label"`).
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// Whether the message is *background* traffic: a link transmits a
    /// background message only when no foreground message is waiting
    /// (strict two-level priority, non-preemptive). Used for Athena's
    /// prefetch pushes ("the prefetch queue is only processed in the
    /// background", §VI-A of the paper).
    fn background(&self) -> bool {
        false
    }

    /// The decision query this message is serving, if the protocol can
    /// attribute it. Carried on the `transmit`/`deliver`/`loss` trace
    /// events so the `dde-obs` cost ledger can charge link bytes to the
    /// causing decision; `None` traffic lands in the ledger's overhead
    /// bucket. Purely observational — never consulted by the simulator.
    fn attribution(&self) -> Option<u64> {
        None
    }
}

/// Node-local protocol logic.
///
/// Handlers receive a [`Context`] through which they may send messages to
/// *neighbors* (multi-hop forwarding is the protocol's job, as in the
/// paper's hop-by-hop Athena design) and set timers.
pub trait Protocol {
    /// The message type exchanged between nodes.
    type Msg: WireMessage;
    /// External stimulus type (e.g. a user-initiated decision query).
    type Ext;

    /// Called once per node when the simulation starts.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message from a neighbor is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called when an external stimulus scheduled through
    /// [`ShardedSimulator::schedule_external`] arrives.
    fn on_external(&mut self, ctx: &mut Context<'_, Self::Msg>, ext: Self::Ext) {
        let _ = (ctx, ext);
    }

    /// Called when this node comes back up after a scheduled
    /// [`FaultEvent::NodeRecover`](crate::fault::FaultEvent::NodeRecover).
    /// Protocols use this to rebuild any state lost in the crash
    /// (re-announce queries, re-arm timers). Default: do nothing.
    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// Handler-side view of the simulation: clock, identity, topology, an
/// outbox for sends and timers, and the trace sink.
pub struct Context<'a, M> {
    now: SimTime,
    node: NodeId,
    topology: &'a Topology,
    commands: &'a mut Vec<Command<M>>,
    sink: &'a mut dyn Sink,
}

impl<M> std::fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("node", &self.node)
            .finish()
    }
}

impl<'a, M> Context<'a, M> {
    /// Assembles a handler context. The engine (`crate::shard`) builds one
    /// per dispatched event, and external hosts (a live transport runtime
    /// such as `dde-net`) use this to drive a [`Protocol`] outside any
    /// simulator: dispatch one handler, then drain the `commands` vec and
    /// realize each [`Command`] against the real network and a real timer
    /// wheel.
    pub fn new(
        now: SimTime,
        node: NodeId,
        topology: &'a Topology,
        commands: &'a mut Vec<Command<M>>,
        sink: &'a mut dyn Sink,
    ) -> Context<'a, M> {
        Context {
            now,
            node,
            topology,
            commands,
            sink,
        }
    }

    /// Whether the active trace sink consumes events. Protocol code should
    /// check this before building event payloads that allocate (names,
    /// rationale strings) so the default [`dde_obs::NullSink`] costs one
    /// branch per site.
    pub fn obs_enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Records a trace event stamped with the current simulated time and
    /// this node's identity. A no-op when the sink is disabled.
    pub fn emit(&mut self, kind: EventKind) {
        if self.sink.enabled() {
            self.sink.record(&TraceRecord {
                at: self.now,
                node: self.node.index() as u32,
                kind,
            });
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this handler runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The (immutable) network topology, for neighbor and routing queries.
    /// The borrow outlives this call, so a handler can walk its neighbors
    /// while sending to them.
    pub fn topology(&self) -> &'a Topology {
        self.topology
    }

    /// The next hop toward `dst`, or `None` if unreachable.
    pub fn next_hop_toward(&self, dst: NodeId) -> Option<NodeId> {
        self.topology.next_hop(self.node, dst)
    }

    /// Queues `msg` for transmission to the *neighbor* `to`.
    ///
    /// Protocols are hop-by-hop; route first with
    /// [`Context::next_hop_toward`]. A send to a non-neighbor trips a
    /// debug assertion (DES tests catch protocol routing bugs loudly); in
    /// release builds the message is dropped and a `Drop` trace record
    /// with reason `"not-neighbor"` is emitted, so a routing race in a
    /// live deployment can never take down the node. Callers that want
    /// the error surfaced use [`Context::try_send`].
    pub fn send(&mut self, to: NodeId, msg: M) {
        if let Err(err) = self.try_send(to, msg) {
            debug_assert!(false, "{err}");
        }
    }

    /// Queues `msg` for transmission to the *neighbor* `to`, surfacing a
    /// typed [`SendError`] instead of asserting when `to` is not adjacent.
    ///
    /// On error the message is not queued and a `Drop` trace record with
    /// reason `"not-neighbor"` is emitted for the cost ledger's overhead
    /// accounting.
    pub fn try_send(&mut self, to: NodeId, msg: M) -> Result<(), SendError> {
        if !self.topology.has_link(self.node, to) {
            self.emit(EventKind::Drop {
                from: self.node.index() as u32,
                to: to.index() as u32,
                reason: "not-neighbor",
            });
            return Err(SendError::NotNeighbor {
                from: self.node,
                to,
            });
        }
        self.commands.push(Command::Send { to, msg });
        Ok(())
    }

    /// Sets a timer to fire `after` from now, carrying `tag`.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) {
        self.commands.push(Command::Timer {
            at: self.now + after,
            tag,
        });
    }

    /// Sets a timer to fire at absolute time `at` (clamped to now if in the
    /// past), carrying `tag`.
    pub fn set_timer_at(&mut self, at: SimTime, tag: u64) {
        self.commands.push(Command::Timer {
            at: at.max(self.now),
            tag,
        });
    }
}

/// A failed [`Context::try_send`]. The only current variant is a
/// non-neighbor destination; live transports (`dde-net`) wrap this in
/// their own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination is not adjacent to the sending node. Protocols are
    /// hop-by-hop: route with [`Context::next_hop_toward`] first.
    NotNeighbor {
        /// The node that attempted the send.
        from: NodeId,
        /// The non-adjacent destination.
        to: NodeId,
    },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::NotNeighbor { from, to } => {
                write!(f, "{from} attempted to send to non-neighbor {to}")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// An action queued by a protocol handler, drained by whatever is driving
/// the node: the simulator, or an external host realizing sends against a
/// live transport and timers against a wall-clock timer wheel.
#[derive(Debug)]
pub enum Command<M> {
    /// Transmit `msg` to the adjacent node `to`.
    Send {
        /// Destination (already adjacency-checked by [`Context`]).
        to: NodeId,
        /// The message to clock onto the link.
        msg: M,
    },
    /// Fire [`Protocol::on_timer`] with `tag` at time `at`.
    Timer {
        /// Absolute fire time.
        at: SimTime,
        /// Opaque protocol-chosen discriminator.
        tag: u64,
    },
}

/// How node transmitters share the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MediumMode {
    /// Every directed link has its own transmitter (wired point-to-point).
    #[default]
    FullDuplex,
    /// A node owns one radio: it clocks out on at most one link at a time,
    /// as in the paper's wireless EMANE setting. Receptions are unlimited
    /// (no interference model).
    HalfDuplexTx,
}

/// A directed link as an engine transmits on it: endpoints, dense index
/// and spec, resolved by one [`Topology::link_slot`] scan per message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hop {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) slot: usize,
    pub(crate) spec: LinkSpec,
}

impl Hop {
    pub(crate) fn resolve(topology: &Topology, from: NodeId, to: NodeId) -> Option<Hop> {
        let (slot, spec) = topology.link_slot(from, to)?;
        Some(Hop {
            from,
            to,
            slot,
            spec,
        })
    }
}

/// Transmitter state of one directed link: whether it is currently
/// clocking a message out, plus foreground and background wait queues.
pub(crate) struct LinkState<M> {
    pub(crate) busy: bool,
    pub(crate) foreground: std::collections::VecDeque<M>,
    pub(crate) background: std::collections::VecDeque<M>,
}

impl<M> Default for LinkState<M> {
    fn default() -> Self {
        LinkState {
            busy: false,
            foreground: std::collections::VecDeque::new(),
            background: std::collections::VecDeque::new(),
        }
    }
}

impl<M> LinkState<M> {
    /// One idle transmitter per directed link of `topology`, indexed by
    /// [`Topology::link_slot`].
    pub(crate) fn table(topology: &Topology) -> Vec<LinkState<M>> {
        std::iter::repeat_with(LinkState::default)
            .take(topology.directed_link_count())
            .collect()
    }
}

/// [`ShardedSimulator`] under the name and constructor it had before it
/// took a region count.
///
/// A logic-free wrapper, every method by `Deref`; it exists because the
/// frozen `benchmark/` names it.
///
/// # Examples
///
/// A two-node ping-pong:
///
/// ```
/// use dde_netsim::prelude::*;
///
/// struct Ping { count: u32 }
///
/// #[derive(Debug)]
/// struct Ball;
/// impl WireMessage for Ball {
///     fn wire_size(&self) -> u64 { 100 }
/// }
///
/// impl Protocol for Ping {
///     type Msg = Ball;
///     type Ext = ();
///     fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
///         if ctx.node() == NodeId(0) {
///             ctx.send(NodeId(1), Ball);
///         }
///     }
///     fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeId, _msg: Ball) {
///         self.count += 1;
///         if self.count < 3 {
///             ctx.send(from, Ball);
///         }
///     }
/// }
///
/// let topo = Topology::line(2, LinkSpec::mbps1());
/// let mut sim = Simulator::new(topo, vec![Ping { count: 0 }, Ping { count: 0 }], 7);
/// sim.run();
/// // The ball bounces until each side has seen it 3 times: 5 deliveries.
/// assert_eq!(sim.metrics().messages_delivered, 5);
/// ```
pub struct Simulator<P: Protocol>(ShardedSimulator<P>);

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator over `topology` with one protocol instance per
    /// node. `seed` drives link-loss sampling.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topology.len()`.
    pub fn new(topology: Topology, nodes: Vec<P>, seed: u64) -> Simulator<P> {
        Simulator(ShardedSimulator::new(topology, nodes, seed, 1))
    }

    /// Consumes the simulator, returning the protocol instances.
    pub fn into_nodes(self) -> Vec<P> {
        self.0.into_nodes()
    }
}

impl<P: Protocol> std::ops::Deref for Simulator<P> {
    type Target = ShardedSimulator<P>;
    fn deref(&self) -> &ShardedSimulator<P> {
        &self.0
    }
}

impl<P: Protocol> std::ops::DerefMut for Simulator<P> {
    fn deref_mut(&mut self) -> &mut ShardedSimulator<P> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSchedule;

    #[derive(Debug, Clone)]
    struct Packet(u64);
    impl WireMessage for Packet {
        fn wire_size(&self) -> u64 {
            self.0
        }
        fn kind(&self) -> &'static str {
            "packet"
        }
    }

    /// Flood protocol: node 0 sends `initial` packets to its neighbor at
    /// start; every receiver re-sends up to `ttl` times.
    struct Echo {
        received_at: Vec<SimTime>,
        bounce: bool,
    }

    impl Protocol for Echo {
        type Msg = Packet;
        type Ext = Packet;

        fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
            if ctx.node() == NodeId(0) && self.bounce {
                ctx.send(NodeId(1), Packet(125_000)); // 1 s at 1 Mbps
            }
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, Packet>, _from: NodeId, _msg: Packet) {
            self.received_at.push(_ctx.now());
        }

        fn on_external(&mut self, ctx: &mut Context<'_, Packet>, ext: Packet) {
            if let Some(next) = ctx.next_hop_toward(NodeId(0)) {
                if next != ctx.node() {
                    ctx.send(next, ext);
                }
            }
        }
    }

    fn echo(bounce: bool) -> Echo {
        Echo {
            received_at: Vec::new(),
            bounce,
        }
    }

    #[test]
    fn transfer_time_includes_tx_and_latency() {
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![echo(true), echo(false)], 1, 1);
        sim.run();
        let rx = &sim.node(NodeId(1)).received_at;
        assert_eq!(rx.len(), 1);
        // 125000 B * 8 / 1 Mbps = 1 s, + 1 ms latency.
        assert_eq!(rx[0], SimTime::from_millis(1001));
        assert_eq!(sim.metrics().bytes_sent, 125_000);
        assert_eq!(sim.metrics().kind("packet").count, 1);
    }

    #[test]
    fn fifo_link_serializes_transmissions() {
        struct Burst;
        impl Protocol for Burst {
            type Msg = Packet;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                if ctx.node() == NodeId(0) {
                    // Two 0.5 s packets back to back.
                    ctx.send(NodeId(1), Packet(62_500));
                    ctx.send(NodeId(1), Packet(62_500));
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Packet>, _: NodeId, _: Packet) {
                ARRIVALS.with(|a| a.borrow_mut().push(ctx.now()));
            }
        }
        thread_local! {
            static ARRIVALS: std::cell::RefCell<Vec<SimTime>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        ARRIVALS.with(|a| a.borrow_mut().clear());
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![Burst, Burst], 1, 1);
        sim.run();
        ARRIVALS.with(|a| {
            let arr = a.borrow();
            assert_eq!(arr.len(), 2);
            // Second transmission waits for the first to clear the link.
            assert_eq!(arr[0], SimTime::from_millis(501));
            assert_eq!(arr[1], SimTime::from_millis(1001));
        });
    }

    #[test]
    fn external_events_are_delivered() {
        let topo = Topology::line(3, LinkSpec::mbps1());
        let mut sim =
            ShardedSimulator::new(topo, vec![echo(false), echo(false), echo(false)], 1, 1);
        // Node 2 receives an external packet and forwards toward node 0.
        sim.schedule_external(SimTime::from_secs(1), NodeId(2), Packet(1000));
        sim.run();
        assert_eq!(sim.node(NodeId(1)).received_at.len(), 1);
        assert!(sim.node(NodeId(1)).received_at[0] > SimTime::from_secs(1));
    }

    #[test]
    fn down_node_drops_messages() {
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![echo(true), echo(false)], 1, 1);
        let mut faults = FaultSchedule::new();
        faults.crash_at(SimTime::ZERO, NodeId(1));
        sim.install_faults(&faults);
        sim.run();
        assert_eq!(sim.node(NodeId(1)).received_at.len(), 0);
        assert_eq!(sim.metrics().messages_dropped, 1);
        // Bytes were still consumed on the medium.
        assert_eq!(sim.metrics().bytes_sent, 125_000);
    }

    #[test]
    fn lossy_link_drops_but_charges_bandwidth() {
        struct Spam;
        impl Protocol for Spam {
            type Msg = Packet;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                if ctx.node() == NodeId(0) {
                    for _ in 0..100 {
                        ctx.send(NodeId(1), Packet(100));
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Packet>, _: NodeId, _: Packet) {}
        }
        let mut topo = Topology::new(2);
        topo.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1().loss(0.5));
        topo.rebuild_routes();
        let mut sim = ShardedSimulator::new(topo, vec![Spam, Spam], 42, 1);
        sim.run();
        let m = sim.metrics();
        assert_eq!(m.messages_sent, 100);
        assert_eq!(m.bytes_sent, 10_000);
        assert!(
            m.messages_lost > 20 && m.messages_lost < 80,
            "lost {}",
            m.messages_lost
        );
        assert_eq!(m.messages_lost + m.messages_delivered, 100);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut topo = Topology::new(2);
            topo.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1().loss(0.3));
            topo.rebuild_routes();
            let mut sim = ShardedSimulator::new(topo, vec![echo(true), echo(false)], seed, 1);
            sim.run();
            (sim.metrics().messages_lost, sim.events_processed())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        struct TimerChain;
        impl Protocol for TimerChain {
            type Msg = Packet;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, Packet>, _: NodeId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, tag: u64) {
                ctx.set_timer(SimDuration::from_secs(1), tag + 1);
            }
        }
        let topo = Topology::line(1, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![TimerChain], 1, 1);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // start + timers at 1..=5.
        assert_eq!(sim.events_processed(), 6);
        // Queue still holds the timer at t=6.
        assert_eq!(sim.run_until(SimTime::from_secs(6)), 1);
    }

    #[test]
    fn timer_tags_round_trip() {
        struct Tags(Vec<u64>);
        impl Protocol for Tags {
            type Msg = Packet;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                ctx.set_timer(SimDuration::from_secs(2), 7);
                ctx.set_timer_at(SimTime::from_secs(1), 3);
            }
            fn on_message(&mut self, _: &mut Context<'_, Packet>, _: NodeId, _: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, Packet>, tag: u64) {
                self.0.push(tag);
            }
        }
        let topo = Topology::line(1, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![Tags(Vec::new())], 1, 1);
        sim.run();
        assert_eq!(sim.node(NodeId(0)).0, vec![3, 7]);
    }

    // The debug assertion stays so DES tests catch routing bugs loudly;
    // release builds degrade to a typed error (next test).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Msg = Packet;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                if ctx.node() == NodeId(0) {
                    ctx.send(NodeId(2), Packet(1));
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Packet>, _: NodeId, _: Packet) {}
        }
        let topo = Topology::line(3, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![Bad, Bad, Bad], 1, 1);
        sim.run();
    }

    #[test]
    fn try_send_to_non_neighbor_returns_typed_error() {
        struct Probe {
            err: Option<SendError>,
        }
        impl Protocol for Probe {
            type Msg = Packet;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                if ctx.node() == NodeId(0) {
                    self.err = ctx.try_send(NodeId(2), Packet(1)).err();
                    // The adjacent hop still works after the failed send.
                    ctx.try_send(NodeId(1), Packet(2)).unwrap();
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Packet>, _: NodeId, _: Packet) {}
        }
        let topo = Topology::line(3, LinkSpec::mbps1());
        let nodes = (0..3).map(|_| Probe { err: None }).collect();
        let mut sim = ShardedSimulator::new(topo, nodes, 1, 1);
        sim.run();
        assert_eq!(
            sim.node(NodeId(0)).err,
            Some(SendError::NotNeighbor {
                from: NodeId(0),
                to: NodeId(2),
            })
        );
        assert_eq!(sim.metrics().messages_delivered, 1);
    }

    #[test]
    fn background_traffic_yields_to_foreground() {
        #[derive(Debug, Clone)]
        struct Tagged(u64, bool); // (bytes, background)
        impl WireMessage for Tagged {
            fn wire_size(&self) -> u64 {
                self.0
            }
            fn background(&self) -> bool {
                self.1
            }
        }
        struct Mixer;
        impl Protocol for Mixer {
            type Msg = Tagged;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Tagged>) {
                if ctx.node() == NodeId(0) {
                    // One background blob first, then two foreground packets.
                    ctx.send(NodeId(1), Tagged(125_000, true)); // 1 s
                    ctx.send(NodeId(1), Tagged(62_500, false)); // 0.5 s
                    ctx.send(NodeId(1), Tagged(62_500, false)); // 0.5 s
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Tagged>, _: NodeId, msg: Tagged) {
                MIXER_LOG.with(|l| l.borrow_mut().push((ctx.now(), msg.1)));
            }
        }
        thread_local! {
            static MIXER_LOG: std::cell::RefCell<Vec<(SimTime, bool)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        MIXER_LOG.with(|l| l.borrow_mut().clear());
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![Mixer, Mixer], 1, 1);
        sim.run();
        MIXER_LOG.with(|l| {
            let log = l.borrow();
            assert_eq!(log.len(), 3);
            // All three arrived at start together; the background blob was
            // already in flight (non-preemptive), but the two foreground
            // packets overtake any *queued* background work. Since the blob
            // started first (queue order), it arrives first; had it been
            // queued behind, it would arrive last — exercise that too:
            assert!(log.iter().filter(|(_, bg)| *bg).count() == 1);
        });

        // Second shape: foreground first, then background + foreground mix.
        struct Mixer2;
        impl Protocol for Mixer2 {
            type Msg = Tagged;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Tagged>) {
                if ctx.node() == NodeId(0) {
                    ctx.send(NodeId(1), Tagged(62_500, false)); // starts now
                    ctx.send(NodeId(1), Tagged(125_000, true)); // queued bg
                    ctx.send(NodeId(1), Tagged(62_500, false)); // queued fg
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Tagged>, _: NodeId, msg: Tagged) {
                MIXER2_LOG.with(|l| l.borrow_mut().push((ctx.now(), msg.1)));
            }
        }
        thread_local! {
            static MIXER2_LOG: std::cell::RefCell<Vec<(SimTime, bool)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        MIXER2_LOG.with(|l| l.borrow_mut().clear());
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![Mixer2, Mixer2], 1, 1);
        sim.run();
        MIXER2_LOG.with(|l| {
            let log = l.borrow();
            assert_eq!(log.len(), 3);
            // The queued foreground packet overtakes the queued background
            // blob: arrival order fg, fg, bg.
            assert!(
                !log[0].1 && !log[1].1 && log[2].1,
                "expected fg,fg,bg got {log:?}"
            );
        });
    }

    #[test]
    fn half_duplex_serializes_a_nodes_transmissions() {
        struct Fanout;
        impl Protocol for Fanout {
            type Msg = Packet;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                if ctx.node() == NodeId(0) {
                    ctx.send(NodeId(1), Packet(125_000)); // 1 s each
                    ctx.send(NodeId(2), Packet(125_000));
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Packet>, _: NodeId, _: Packet) {
                FANOUT_LOG.with(|l| l.borrow_mut().push((ctx.node(), ctx.now())));
            }
        }
        thread_local! {
            static FANOUT_LOG: std::cell::RefCell<Vec<(NodeId, SimTime)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let run = |medium: MediumMode| -> Vec<(NodeId, SimTime)> {
            FANOUT_LOG.with(|l| l.borrow_mut().clear());
            let topo = Topology::star(3, LinkSpec::mbps1());
            let mut sim = ShardedSimulator::new(topo, vec![Fanout, Fanout, Fanout], 1, 1);
            sim.set_medium(medium);
            sim.run();
            FANOUT_LOG.with(|l| l.borrow().clone())
        };
        // Full duplex: both transfers run concurrently, arriving together.
        let full = run(MediumMode::FullDuplex);
        assert_eq!(full.len(), 2);
        assert_eq!(full[0].1, SimTime::from_millis(1001));
        assert_eq!(full[1].1, SimTime::from_millis(1001));
        // Half duplex: one radio — the second transfer waits a full second.
        let half = run(MediumMode::HalfDuplexTx);
        assert_eq!(half.len(), 2);
        assert_eq!(half[0].1, SimTime::from_millis(1001));
        assert_eq!(half[1].1, SimTime::from_millis(2001));
    }

    #[test]
    fn sink_records_link_layer_lifecycle() {
        use dde_obs::{MemorySink, SharedSink};
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![echo(true), echo(false)], 1, 1);
        let shared = SharedSink::new(MemorySink::new());
        sim.set_sink(Box::new(shared.clone()));
        sim.run();
        let records = shared.with(|s| s.take());
        let kinds: Vec<&'static str> = records.iter().map(|r| r.kind.kind_name()).collect();
        // One transmission at t=0, delivered after tx + latency.
        assert_eq!(kinds, vec!["transmit", "deliver"]);
        assert_eq!(records[0].node, 0);
        assert_eq!(records[1].node, 1);
        assert_eq!(records[1].at, SimTime::from_millis(1001));
    }

    #[test]
    fn sink_records_fault_lifecycle() {
        use dde_obs::{MemorySink, SharedSink};
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![echo(true), echo(false)], 1, 1);
        let mut faults = FaultSchedule::new();
        faults.crash_at(SimTime::from_millis(500), NodeId(1));
        faults.recover_at(SimTime::from_secs(5), NodeId(1));
        sim.install_faults(&faults);
        let shared = SharedSink::new(MemorySink::new());
        sim.set_sink(Box::new(shared.clone()));
        sim.run();
        let kinds: Vec<&'static str> =
            shared.with(|s| s.events().iter().map(|r| r.kind.kind_name()).collect());
        // transmit at t=0, crash at 0.5s, arrival dropped at 1.001s,
        // recovery at 5s.
        assert_eq!(kinds, vec!["transmit", "fault", "drop", "fault"]);
    }

    #[test]
    fn message_conservation_after_drain() {
        // After the queue drains: sent = delivered + lost + dropped.
        let mut topo = Topology::new(3);
        topo.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1().loss(0.4));
        topo.add_link(NodeId(1), NodeId(2), LinkSpec::mbps1());
        topo.rebuild_routes();
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = Packet;
            type Ext = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                let me = ctx.node();
                let targets: Vec<NodeId> = ctx.topology().neighbors(me).collect();
                for t in targets {
                    for _ in 0..20 {
                        ctx.send(t, Packet(500));
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Packet>, _: NodeId, _: Packet) {}
        }
        let mut sim = ShardedSimulator::new(topo, vec![Chatter, Chatter, Chatter], 11, 1);
        let mut faults = FaultSchedule::new();
        faults.crash_at(SimTime::ZERO, NodeId(2));
        sim.install_faults(&faults);
        sim.run();
        let m = sim.metrics();
        assert_eq!(
            m.messages_sent,
            m.messages_delivered + m.messages_lost + m.messages_dropped,
            "conservation: {m:?}"
        );
    }

    #[test]
    fn into_nodes_returns_state() {
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![echo(true), echo(false)], 1, 1);
        sim.run();
        let nodes = sim.into_nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].received_at.len(), 1);
    }

    #[test]
    fn empty_fault_schedule_is_a_strict_noop() {
        let run = |install: bool| {
            let mut topo = Topology::new(2);
            topo.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1().loss(0.3));
            topo.rebuild_routes();
            let mut sim = ShardedSimulator::new(topo, vec![echo(true), echo(false)], 9, 1);
            if install {
                sim.install_faults(&FaultSchedule::new());
            }
            sim.run();
            (
                sim.metrics().messages_sent,
                sim.metrics().messages_lost,
                sim.metrics().messages_delivered,
                sim.events_processed(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn crashed_node_drops_deliveries_and_attributes_fault() {
        // Node 0 starts a 1 s transfer at t=0; node 1 crashes at t=0.5 s,
        // so the message (arriving at 1.001 s) is dropped as a fault.
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![echo(true), echo(false)], 1, 1);
        let mut faults = FaultSchedule::new();
        faults.crash_at(SimTime::from_millis(500), NodeId(1));
        sim.install_faults(&faults);
        sim.run();
        assert_eq!(sim.node(NodeId(1)).received_at.len(), 0);
        assert_eq!(sim.metrics().messages_dropped, 1);
        assert_eq!(sim.metrics().messages_dropped_by_fault, 1);
        // Bandwidth was still consumed: the tail had already radiated.
        assert_eq!(sim.metrics().bytes_sent, 125_000);
    }

    #[test]
    fn crash_purges_queued_traffic_and_recovery_restores_processing() {
        struct Burst3;
        impl Protocol for Burst3 {
            type Msg = Packet;
            type Ext = Packet;
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                if ctx.node() == NodeId(0) {
                    // Four 1 s packets: one in flight, three queued.
                    for _ in 0..4 {
                        ctx.send(NodeId(1), Packet(125_000));
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Packet>, _: NodeId, _: Packet) {}
            fn on_external(&mut self, ctx: &mut Context<'_, Packet>, ext: Packet) {
                ctx.send(NodeId(1), ext);
            }
        }
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![Burst3, Burst3], 1, 1);
        let mut faults = FaultSchedule::new();
        // Sender crashes mid-first-transmission, recovers later.
        faults.crash_at(SimTime::from_millis(500), NodeId(0));
        faults.recover_at(SimTime::from_secs(10), NodeId(0));
        sim.install_faults(&faults);
        // After recovery, an external triggers one more send — it flows.
        sim.schedule_external(SimTime::from_secs(11), NodeId(0), Packet(1000));
        sim.run();
        let m = sim.metrics();
        assert_eq!(m.messages_purged_by_fault, 3, "queued packets purged");
        // In-flight packet + post-recovery packet were sent and delivered.
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.messages_delivered, 2);
        assert_eq!(
            m.messages_sent,
            m.messages_delivered + m.messages_lost + m.messages_dropped
        );
    }

    #[test]
    fn link_down_purges_reroutes_and_drops_in_flight() {
        // Triangle: 0-1 direct plus 0-2-1 detour. Kill 0-1 mid-flight.
        let mut topo = Topology::new(3);
        topo.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1());
        topo.add_link(NodeId(0), NodeId(2), LinkSpec::mbps1());
        topo.add_link(NodeId(2), NodeId(1), LinkSpec::mbps1());
        topo.rebuild_routes();
        let mut sim = ShardedSimulator::new(topo, vec![echo(true), echo(false), echo(false)], 1, 1);
        let mut faults = FaultSchedule::new();
        faults.link_down_at(SimTime::from_millis(500), NodeId(0), NodeId(1));
        sim.install_faults(&faults);
        sim.run();
        // The in-flight packet (arrival 1.001 s) died with the link.
        assert_eq!(sim.node(NodeId(1)).received_at.len(), 0);
        assert_eq!(sim.metrics().messages_dropped_by_fault, 1);
        // Routing now detours through node 2.
        assert_eq!(
            sim.topology().next_hop(NodeId(0), NodeId(1)),
            Some(NodeId(2))
        );
    }

    #[test]
    fn link_up_restores_routes() {
        let topo = Topology::line(3, LinkSpec::mbps1());
        let mut sim =
            ShardedSimulator::new(topo, vec![echo(false), echo(false), echo(false)], 1, 1);
        let mut faults = FaultSchedule::new();
        faults.link_down_at(SimTime::from_secs(1), NodeId(1), NodeId(2));
        faults.link_up_at(SimTime::from_secs(2), NodeId(1), NodeId(2));
        sim.install_faults(&faults);
        sim.run_until(SimTime::from_millis(1500));
        assert_eq!(sim.topology().next_hop(NodeId(0), NodeId(2)), None);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(
            sim.topology().next_hop(NodeId(0), NodeId(2)),
            Some(NodeId(1))
        );
    }

    #[test]
    fn recovery_invokes_protocol_hook() {
        struct Recover(u32);
        impl Protocol for Recover {
            type Msg = Packet;
            type Ext = ();
            fn on_message(&mut self, _: &mut Context<'_, Packet>, _: NodeId, _: Packet) {}
            fn on_recover(&mut self, ctx: &mut Context<'_, Packet>) {
                self.0 += 1;
                // Recovering protocols may immediately transmit.
                ctx.send(NodeId(1), Packet(10));
            }
        }
        let topo = Topology::line(2, LinkSpec::mbps1());
        let mut sim = ShardedSimulator::new(topo, vec![Recover(0), Recover(0)], 1, 1);
        let mut faults = FaultSchedule::new();
        faults.crash_at(SimTime::from_secs(1), NodeId(0));
        faults.recover_at(SimTime::from_secs(2), NodeId(0));
        sim.install_faults(&faults);
        sim.run();
        assert_eq!(sim.node(NodeId(0)).0, 1);
        assert_eq!(sim.metrics().messages_delivered, 1);
    }
}
