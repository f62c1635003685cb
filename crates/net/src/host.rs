//! [`NodeHost`] — the live runtime that drives one Athena node over a
//! [`Transport`] — and [`run_cluster_tcp_observed`], which boots a
//! loopback cluster of node threads from a [`Scenario`] and folds the
//! per-node outcomes into the same [`RunReport`] the DES engine produces.
//!
//! The host replays exactly the seam the simulator uses: each stimulus
//! (start, delivery, timer, external) is dispatched through
//! [`dde_netsim::Context`], and the queued [`dde_netsim::Command`]s are
//! realized against the transport (sends) and a local timer wheel
//! (timers). Protocol time is a **scaled virtual clock**: `now = wall
//! elapsed × scale` in simulation units, so a 60-second scenario runs in
//! a couple of wall seconds while deadlines, validity windows, and retry
//! and poll periods keep their simulated meaning. A timer fires at the
//! clock's `now` once its instant has passed — never before it, and almost
//! never exactly on it, which the node's wake-up handler allows for.
//!
//! What is — deliberately — *not* reproduced here is determinism: thread
//! scheduling and wall-clock jitter reorder deliveries, so traces and
//! latency figures differ run to run. The equivalence suite pins what
//! must carry across the boundary instead: decision outcomes and
//! attributed byte totals. Fault schedules are not supported on this
//! backend (fault injection is the DES's job); requesting one is a typed
//! error, not a silent ignore.
//!
//! This file owns threads, channels, and the virtual clock. The one
//! wall-clock read is [`VirtualClock::start`], under an explicit
//! `#[expect(clippy::disallowed_methods)]`.

use crate::error::NetError;
use crate::health::{probe_health, HealthReport, HealthState};
use crate::tcp::TcpTransport;
use crate::transport::Transport;
use dde_core::{AthenaEvent, AthenaMsg, AthenaNode, GroundTruthAnnotator, RunOptions, RunReport};
use dde_logic::time::SimTime;
use dde_netsim::sim::WireMessage;
use dde_netsim::{
    deliver_record, transmit_record, Command, Context, Metrics, NodeId, Protocol, Topology,
};
use dde_obs::metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot, WallHist};
use dde_obs::{FlightRecorder, LedgerSink, SharedSink, Sink, TeeSink, TraceRecord};
use dde_workload::scenario::Scenario;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotone protocol clock: simulation units elapsing `scale`× faster
/// than the wall clock. All hosts of a cluster share one clock so their
/// timelines agree (up to scheduling jitter — the documented
/// nondeterminism boundary of the live backend).
#[derive(Debug)]
pub struct VirtualClock {
    epoch: Instant,
    scale: u64,
}

impl VirtualClock {
    /// Starts a clock at simulated time zero, running `scale` simulated
    /// microseconds per wall microsecond (clamped to at least 1).
    #[expect(
        clippy::disallowed_methods,
        reason = "live-backend clock epoch; the DES backend never runs this"
    )]
    pub fn start(scale: u64) -> VirtualClock {
        VirtualClock {
            // The one wall-clock anchor of the live runtime. Everything
            // downstream is *relative* to this epoch, in simulation units.
            epoch: Instant::now(),
            scale: scale.max(1),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        let wall = self.epoch.elapsed().as_micros();
        SimTime::from_micros((wall as u64).saturating_mul(self.scale))
    }

    /// Wall-clock duration from now until virtual time `at` (zero if
    /// already past).
    pub fn wall_until(&self, at: SimTime) -> Duration {
        let now = self.now();
        if at <= now {
            return Duration::ZERO;
        }
        Duration::from_micros((at.as_micros() - now.as_micros()) / self.scale)
    }

    /// The configured scale factor.
    pub fn scale(&self) -> u64 {
        self.scale
    }
}

/// What one node host hands back when its run completes.
#[derive(Debug)]
pub struct HostOutcome {
    /// The node's final protocol state (query table, stats, caches).
    pub node: AthenaNode,
    /// Link-layer accounting from this node's perspective (sends only —
    /// folding across hosts must not double-count).
    pub metrics: Metrics,
    /// The node's final metrics snapshot (host loop + transport series),
    /// including the `host.dispatches` and `host.send_errors` counters.
    /// Wall-clock values are nondeterministic by nature; the snapshot
    /// format is deterministic (DESIGN.md §5i).
    pub snapshot: MetricsSnapshot,
}

/// Drives one [`AthenaNode`] over a [`Transport`] until the scenario
/// horizon passes on the virtual clock.
pub struct NodeHost {
    id: NodeId,
    node: AthenaNode,
    topology: Topology,
    transport: Box<dyn Transport>,
    /// `(fire_at, event)` pairs sorted ascending by time.
    externals: Vec<(SimTime, AthenaEvent)>,
    horizon: SimTime,
    sink: Box<dyn Sink>,
    clock: Arc<VirtualClock>,
    registry: Arc<MetricsRegistry>,
    health: Arc<HealthState>,
    recorder: Option<SharedSink<FlightRecorder>>,
    /// The host loop's series, registered in `registry`.
    hm: HostMetrics,
    /// Link-layer accounting of this node's sends.
    metrics: Metrics,
    /// Timer wheel keyed `(fire_at_micros, seq, tag)`: same-instant timers
    /// fire in the order they were set, like the simulator's event heap
    /// sequence numbers.
    timers: BinaryHeap<Reverse<(u64, u64, u64)>>,
    timer_seq: u64,
}

impl NodeHost {
    /// Assembles a host. `topology` must have its routing tables built
    /// ([`Topology::ensure_routes`]); `externals` are this node's
    /// scheduled stimuli, sorted by fire time. The host gets a private
    /// metrics registry and health state; share them with the transport
    /// via [`with_telemetry`](Self::with_telemetry).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: NodeId,
        node: AthenaNode,
        topology: Topology,
        transport: Box<dyn Transport>,
        externals: Vec<(SimTime, AthenaEvent)>,
        horizon: SimTime,
        sink: Box<dyn Sink>,
        clock: Arc<VirtualClock>,
    ) -> NodeHost {
        let registry = Arc::new(MetricsRegistry::new());
        let health = Arc::new(HealthState::new(Arc::clone(&registry)));
        NodeHost {
            id,
            node,
            topology,
            transport,
            externals,
            horizon,
            sink,
            clock,
            hm: HostMetrics::new(&registry),
            registry,
            health,
            recorder: None,
            metrics: Metrics::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
        }
    }

    /// Replace the host's registry and health state — used by the
    /// cluster runtime so the host loop, the transport's `tcp.*` series,
    /// and the probe answers all share one registry per node.
    pub fn with_telemetry(
        mut self,
        registry: Arc<MetricsRegistry>,
        health: Arc<HealthState>,
    ) -> NodeHost {
        self.hm = HostMetrics::new(&registry);
        self.registry = registry;
        self.health = health;
        self
    }

    /// Attach a flight recorder handle. The host dumps its retained tail
    /// to stderr if the run fails with a [`NetError`]; tee the same
    /// recorder into `sink` so it actually receives the trace records.
    pub fn with_recorder(mut self, recorder: SharedSink<FlightRecorder>) -> NodeHost {
        self.recorder = Some(recorder);
        self
    }

    /// Runs the node to the horizon, then shuts the transport down and
    /// returns the outcome. All protocol callbacks happen on the calling
    /// thread; only the transport's reader threads run concurrently.
    ///
    /// On failure, the attached flight recorder (if any) dumps its
    /// retained trace tail to stderr before the error propagates — the
    /// post-mortem evidence survives even when no full trace sink was
    /// wired.
    pub fn run(self) -> Result<HostOutcome, NetError> {
        let recorder = self.recorder.clone();
        let id = self.id;
        match self.run_inner() {
            Ok(outcome) => Ok(outcome),
            Err(e) => {
                if let Some(rec) = recorder {
                    eprintln!(
                        "{}",
                        rec.with(
                            |r| r.render_report(&format!("node {} host error: {e}", id.index()))
                        )
                    );
                }
                Err(e)
            }
        }
    }

    fn run_inner(mut self) -> Result<HostOutcome, NetError> {
        let scale = self.clock.scale();
        let (tx, rx) = mpsc::channel::<(NodeId, AthenaMsg, SimTime)>();
        {
            let clock = Arc::clone(&self.clock);
            let recv_enqueued = Arc::clone(&self.hm.recv_enqueued);
            let queue_depth = Arc::clone(&self.hm.recv_queue_depth);
            self.transport
                .set_message_handler(Box::new(move |from, msg| {
                    recv_enqueued.inc();
                    queue_depth.add(1);
                    // A send error here means the host loop already exited;
                    // the message is simply late, like a delivery after
                    // run_until's deadline in the DES.
                    let _ = tx.send((from, msg, clock.now()));
                }));
        }

        // on_start at (virtual) time zero-ish, exactly once, before any
        // other stimulus — as the simulator does.
        self.dispatch(|node, ctx| node.on_start(ctx))?;
        self.health.mark_ready();

        let mut ext_idx = 0usize;
        loop {
            // Fire everything due: timers and externals interleaved in
            // time order.
            loop {
                let now = self.clock.now();
                let next_timer = self.timers.peek().map(|Reverse((at, _, _))| *at);
                let next_ext = self.externals.get(ext_idx).map(|(at, _)| at.as_micros());
                let timer_due = next_timer.is_some_and(|at| at <= now.as_micros());
                let ext_due = next_ext.is_some_and(|at| at <= now.as_micros());
                if ext_due && (!timer_due || next_ext <= next_timer) {
                    let (at, ev) = self.externals[ext_idx].clone();
                    ext_idx += 1;
                    // How far behind the virtual schedule this stimulus
                    // fired, in wall microseconds.
                    self.hm
                        .loop_lag_wall_us
                        .record_us(now.as_micros().saturating_sub(at.as_micros()) / scale);
                    self.dispatch(|node, ctx| node.on_external(ctx, ev))?;
                } else if timer_due {
                    let Some(Reverse((at, _, tag))) = self.timers.pop() else {
                        break;
                    };
                    self.hm
                        .loop_lag_wall_us
                        .record_us(now.as_micros().saturating_sub(at) / scale);
                    self.dispatch(|node, ctx| node.on_timer(ctx, tag))?;
                } else {
                    break;
                }
            }

            let now = self.clock.now();
            self.health.beat(now);
            if now >= self.horizon {
                break;
            }
            // Sleep (in the inbox) until the next scheduled thing — or a
            // delivery, whichever comes first.
            let mut next = self.horizon;
            if let Some(Reverse((at, _, _))) = self.timers.peek() {
                next = next.min(SimTime::from_micros(*at));
            }
            if let Some((at, _)) = self.externals.get(ext_idx) {
                next = next.min(*at);
            }
            match rx.recv_timeout(self.clock.wall_until(next)) {
                Ok((from, msg, enqueued_at)) => {
                    let now = self.clock.now();
                    self.hm.recv_dequeued.inc();
                    self.hm.recv_queue_depth.add(-1);
                    // Wall time the message sat in the inbox between the
                    // reader thread's enqueue and this dequeue.
                    self.hm
                        .recv_wait_wall_us
                        .record_us(now.as_micros().saturating_sub(enqueued_at.as_micros()) / scale);
                    if now >= self.horizon {
                        break; // past the cut-off, like run_until
                    }
                    self.metrics.messages_delivered += 1;
                    self.deliver(from, msg)?;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        self.health.mark_stopped();
        self.transport.shutdown()?;
        let _ = self.sink.flush();
        Ok(HostOutcome {
            node: self.node,
            metrics: self.metrics,
            snapshot: self.registry.snapshot(),
        })
    }

    /// Emits the Deliver record and hands the message to the protocol.
    fn deliver(&mut self, from: NodeId, msg: AthenaMsg) -> Result<(), NetError> {
        if self.sink.enabled() {
            self.sink.record(&TraceRecord {
                at: self.clock.now(),
                node: self.id.index() as u32,
                kind: deliver_record(from, self.id, &msg),
            });
        }
        self.dispatch(|node, ctx| node.on_message(ctx, from, msg))
    }

    /// Runs one protocol callback through a [`Context`], then realizes
    /// the queued commands: sends go to the transport (with the same
    /// Transmit trace + metrics bookkeeping as the simulator's link
    /// layer), timers go on the wheel. Counts the stimulus as dispatched.
    fn dispatch(
        &mut self,
        f: impl FnOnce(&mut AthenaNode, &mut Context<'_, AthenaMsg>),
    ) -> Result<(), NetError> {
        let now = self.clock.now();
        let mut commands: Vec<Command<AthenaMsg>> = Vec::new();
        {
            let mut ctx =
                Context::new(now, self.id, &self.topology, &mut commands, &mut *self.sink);
            f(&mut self.node, &mut ctx);
        }
        for cmd in commands {
            match cmd {
                Command::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    if self.sink.enabled() {
                        self.sink.record(&TraceRecord {
                            at: now,
                            node: self.id.index() as u32,
                            kind: transmit_record(self.id, to, &msg),
                        });
                    }
                    self.metrics.record_send(bytes, msg.kind());
                    // Wall-clock send latency, measured as a virtual-time
                    // delta divided back by the scale — the host loop's
                    // only sanctioned clock is the VirtualClock.
                    let sent_at = self.clock.now();
                    let result = self.transport.send_to(to, &msg);
                    let wall_us = self
                        .clock
                        .now()
                        .as_micros()
                        .saturating_sub(sent_at.as_micros())
                        / self.clock.scale();
                    self.hm.send_wall_us.record_us(wall_us);
                    match result {
                        Ok(()) => {}
                        Err(NetError::Shutdown) => return Err(NetError::Shutdown),
                        // Counted, not fatal — mirroring the simulator's
                        // drop-and-trace policy.
                        Err(_) => self.hm.send_errors.inc(),
                    }
                }
                Command::Timer { at, tag } => {
                    self.timers
                        .push(Reverse((at.as_micros(), self.timer_seq, tag)));
                    self.timer_seq += 1;
                }
            }
        }
        self.health.record_dispatch();
        Ok(())
    }
}

/// The host loop's pre-registered metric handles (the registry lock is
/// taken once here, never on the hot path).
struct HostMetrics {
    send_wall_us: Arc<WallHist>,
    loop_lag_wall_us: Arc<WallHist>,
    recv_wait_wall_us: Arc<WallHist>,
    send_errors: Arc<Counter>,
    recv_enqueued: Arc<Counter>,
    recv_dequeued: Arc<Counter>,
    recv_queue_depth: Arc<Gauge>,
}

impl HostMetrics {
    fn new(registry: &MetricsRegistry) -> HostMetrics {
        HostMetrics {
            send_wall_us: registry.hist("host.send_wall_us"),
            loop_lag_wall_us: registry.hist("host.loop_lag_wall_us"),
            recv_wait_wall_us: registry.hist("host.recv_wait_wall_us"),
            send_errors: registry.counter("host.send_errors"),
            recv_enqueued: registry.counter("host.recv_enqueued"),
            recv_dequeued: registry.counter("host.recv_dequeued"),
            recv_queue_depth: registry.gauge("host.recv_queue_depth"),
        }
    }
}

/// Tuning for a loopback TCP cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Simulated microseconds per wall microsecond. 16 runs a 60 s
    /// scenario band in under 4 wall seconds while keeping the protocol's
    /// 250 ms poll period ~16 ms of wall time — coarse enough for thread
    /// scheduling noise to stay far from decision deadlines.
    pub time_scale: u64,
    /// Wall-clock period between coordinator health-probe sweeps, in
    /// milliseconds; `None` disables the prober thread entirely.
    pub probe_wall_ms: Option<u64>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            time_scale: 16,
            probe_wall_ms: Some(200),
        }
    }
}

/// How many trace records each node's flight recorder retains for the
/// post-mortem dump on host failure.
const FLIGHT_RECORDER_CAP: usize = 256;

/// One node's live telemetry from an observed cluster run.
#[derive(Debug)]
pub struct NodeTelemetry {
    /// The node's index.
    pub node: usize,
    /// Final metrics snapshot (host loop + transport series).
    pub snapshot: MetricsSnapshot,
    /// Health probes this node answered successfully.
    pub probes_ok: u64,
    /// Health probes that failed (connect/timeout/decode).
    pub probes_failed: u64,
    /// The last health report received, if any probe succeeded.
    pub last_report: Option<HealthReport>,
}

/// A cluster run's report plus per-node live telemetry.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The folded protocol report — same assembly as the DES engine's.
    pub report: RunReport,
    /// Per-node telemetry, indexed by node id.
    pub nodes: Vec<NodeTelemetry>,
}

/// Boots one OS thread + TCP endpoint per scenario node on 127.0.0.1,
/// runs the query band to its horizon, and folds the per-node outcomes
/// into a [`RunReport`] via the same report assembly the DES engine
/// uses. The report always carries a cost ledger; pass `sink` to also
/// capture the merged live trace (record order across nodes is
/// wall-clock arrival order — nondeterministic by nature).
///
/// Alongside the report comes the live observability plane: one metrics
/// registry per node shared by its host loop and transport, a
/// coordinator prober polling every node's health endpoint over the
/// wire ([`ClusterConfig::probe_wall_ms`]), and one flight recorder per
/// node whose retained trace tail is dumped to stderr when that host
/// fails or panics.
///
/// Fault schedules are unsupported here ([`NetError::Unsupported`]):
/// fault injection is the DES backend's job.
pub fn run_cluster_tcp_observed<S: Sink + Send + 'static>(
    scenario: &Scenario,
    options: &RunOptions,
    config: &ClusterConfig,
    sink: Option<S>,
) -> Result<ClusterOutcome, NetError> {
    if !scenario.faults.is_empty() || !options.faults.is_empty() {
        return Err(NetError::Unsupported {
            what: "fault schedules on the TCP backend",
        });
    }
    let n = scenario.topology.len();
    let shared = dde_core::build_shared_world(scenario, options);
    let annotator: Arc<dyn dde_core::Annotator + Send + Sync> = Arc::new(GroundTruthAnnotator);
    let nodes = dde_core::build_nodes(scenario, &shared, &annotator);
    let mut topology = scenario.topology.clone();
    topology.ensure_routes();

    // Bind every listener before any host runs, so connect retries only
    // ever race thread startup, not address allocation.
    let mut listeners = Vec::with_capacity(n);
    let mut book = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|source| NetError::Io {
            context: "bind",
            source,
        })?;
        book.push(listener.local_addr().map_err(|source| NetError::Io {
            context: "local_addr",
            source,
        })?);
        listeners.push(listener);
    }
    let book = Arc::new(book);

    // The engine's schedule, grouped per origin node in install order.
    let (stimuli, horizon) = dde_core::schedule(scenario, options);
    let mut externals: Vec<Vec<(SimTime, AthenaEvent)>> = (0..n).map(|_| Vec::new()).collect();
    for (at, origin, event) in stimuli {
        externals[origin.index()].push((at, event));
    }
    for per_node in &mut externals {
        per_node.sort_by_key(|(at, _)| *at);
    }

    let ledger = SharedSink::new(LedgerSink::new());
    let user = sink.map(SharedSink::new);
    let clock = Arc::new(VirtualClock::start(config.time_scale));

    // Per-node observability plane: one registry (shared by host loop and
    // transport), one health state (answered over the wire by reader
    // threads), one bounded flight recorder (post-mortem trace tail).
    let registries: Vec<Arc<MetricsRegistry>> =
        (0..n).map(|_| Arc::new(MetricsRegistry::new())).collect();
    let healths: Vec<Arc<HealthState>> = registries
        .iter()
        .map(|r| Arc::new(HealthState::new(Arc::clone(r))))
        .collect();
    let recorders: Vec<SharedSink<FlightRecorder>> = (0..n)
        .map(|_| SharedSink::new(FlightRecorder::new(FLIGHT_RECORDER_CAP)))
        .collect();

    // Coordinator prober: sweeps every node's health endpoint on a
    // wall-clock period until told to stop (or until every host handle
    // is joined and the stop sender drops).
    let (probe_stop_tx, probe_stop_rx) = mpsc::channel::<()>();
    let prober = config.probe_wall_ms.map(|period_ms| {
        let book = Arc::clone(&book);
        std::thread::spawn(move || {
            let period = Duration::from_millis(period_ms.max(1));
            let probe_timeout = Duration::from_millis(500);
            let n = book.len();
            let mut ok = vec![0u64; n];
            let mut failed = vec![0u64; n];
            let mut last: Vec<Option<HealthReport>> = vec![None; n];
            let mut seq = 0u64;
            loop {
                match probe_stop_rx.recv_timeout(period) {
                    Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                }
                for (i, addr) in book.iter().enumerate() {
                    seq += 1;
                    match probe_health(*addr, seq, probe_timeout) {
                        Ok(report) => {
                            ok[i] += 1;
                            last[i] = Some(report);
                        }
                        Err(_) => failed[i] += 1,
                    }
                }
            }
            (ok, failed, last)
        })
    });

    let mut handles = Vec::with_capacity(n);
    for (id, (node, listener)) in nodes.into_iter().zip(listeners).enumerate() {
        let id = NodeId(id);
        let neighbors: Vec<NodeId> = topology.neighbors(id).collect();
        let topology = topology.clone();
        let book = Arc::clone(&book);
        let clock = Arc::clone(&clock);
        let ledger = ledger.clone();
        let user = user.clone();
        let registry = Arc::clone(&registries[id.index()]);
        let health = Arc::clone(&healths[id.index()]);
        let recorder = recorders[id.index()].clone();
        let externals_i = std::mem::take(&mut externals[id.index()]);
        handles.push(std::thread::spawn(
            move || -> Result<HostOutcome, NetError> {
                let transport = TcpTransport::new(
                    id,
                    listener,
                    book,
                    neighbors,
                    Arc::clone(&clock),
                    &registry,
                    Arc::clone(&health),
                )?;
                let base: Box<dyn Sink> = match user {
                    Some(u) => Box::new(TeeSink::new(Box::new(u), Box::new(ledger))),
                    None => Box::new(ledger),
                };
                let host_sink: Box<dyn Sink> =
                    Box::new(TeeSink::new(Box::new(recorder.clone()), base));
                NodeHost::new(
                    id,
                    node,
                    topology,
                    Box::new(transport),
                    externals_i,
                    horizon,
                    host_sink,
                    clock,
                )
                .with_telemetry(registry, health)
                .with_recorder(recorder)
                .run()
            },
        ));
    }

    let mut metrics = Metrics::new();
    let mut final_nodes = Vec::with_capacity(n);
    let mut snapshots = Vec::with_capacity(n);
    let mut dispatches = 0u64;
    for (id, handle) in handles.into_iter().enumerate() {
        let outcome = match handle.join() {
            Ok(outcome) => outcome?,
            Err(_) => {
                // The host thread panicked: dump its retained trace tail
                // before surfacing the typed failure.
                let report =
                    recorders[id].with(|r| r.render_report(&format!("node {id} host panicked")));
                eprint!("{report}");
                return Err(NetError::HostFailed { node: NodeId(id) });
            }
        };
        metrics.absorb(&outcome.metrics);
        dispatches += outcome.snapshot.counter("host.dispatches").unwrap_or(0);
        final_nodes.push(outcome.node);
        snapshots.push(outcome.snapshot);
    }

    // All hosts are done: stop the prober sweep and collect its tallies.
    let _ = probe_stop_tx.send(());
    let (probes_ok, probes_failed, last_reports) = match prober {
        Some(handle) => handle
            .join()
            .unwrap_or_else(|_| (vec![0; n], vec![0; n], (0..n).map(|_| None).collect())),
        None => (vec![0; n], vec![0; n], (0..n).map(|_| None).collect()),
    };
    let telemetry: Vec<NodeTelemetry> = snapshots
        .into_iter()
        .zip(probes_ok)
        .zip(probes_failed)
        .zip(last_reports)
        .enumerate()
        .map(
            |(node, (((snapshot, probes_ok), probes_failed), last_report))| NodeTelemetry {
                node,
                snapshot,
                probes_ok,
                probes_failed,
                last_report,
            },
        )
        .collect();

    if let Some(u) = &user {
        let mut u = u.clone();
        let _ = u.flush();
    }
    let node_refs: Vec<&AthenaNode> = final_nodes.iter().collect();
    let mut report = dde_core::collect_report_parts(
        &metrics,
        horizon,
        dispatches,
        &node_refs,
        scenario,
        options.strategy,
        0,
    );
    report.ledger = Some(ledger.with(|l| l.take_ledger()));
    Ok(ClusterOutcome {
        report,
        nodes: telemetry,
    })
}
