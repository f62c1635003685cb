//! [`TcpTransport`] — the production backend on `std::net`.
//!
//! No async runtime: the workspace builds offline with vendored deps
//! only, so concurrency is plain threads. Each transport owns
//!
//! - an **accept loop** on the node's listener, which spawns one
//!   **reader thread** per inbound connection;
//! - a write-side **connection table** (lazy connect with capped-backoff
//!   retry, so boot order between cluster nodes does not matter);
//! - the shared **inbound queue**: reader threads hand decoded messages
//!   to the registered handler, buffering anything that arrives before
//!   registration.
//!
//! Wire format: one length-prefixed [`crate::frame`] per message, after
//! an 8-byte hello identifying the connecting node. A malformed frame
//! closes that connection with a typed error recorded — never a panic,
//! whatever bytes the peer sends.
//!
//! Threads, `Mutex`es, and the stop flag live here, *below* the protocol
//! seam: the connection table, inbound queue, and reader registry are
//! shared with this transport's own accept/reader threads. Protocol code
//! above [`Transport`] holds no shared mutable state.

use crate::error::NetError;
use crate::frame::{self, ControlMsg, WireFrame};
use crate::health::HealthState;
use crate::host::VirtualClock;
use crate::transport::{MessageHandler, Transport};
use dde_core::AthenaMsg;
use dde_logic::time::SimTime;
use dde_netsim::NodeId;
use dde_obs::metrics::{Counter, MetricsRegistry};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hello preamble: magic(2) + version(1) + role(1) + node id(u32 BE).
pub(crate) const HELLO_LEN: usize = 8;
pub(crate) const HELLO_MAGIC: [u8; 2] = *b"DH";
pub(crate) const HELLO_VERSION: u8 = 1;
/// Role byte: a cluster peer streaming protocol frames.
pub(crate) const HELLO_ROLE_PEER: u8 = 0;
/// Role byte: a health prober exchanging control frames on this
/// connection (served below the protocol seam; see `crate::health`).
pub(crate) const HELLO_ROLE_PROBER: u8 = 1;

/// Reader poll granularity: how often a blocked read re-checks the stop
/// flag. Bounds shutdown latency, not throughput.
const READ_POLL: Duration = Duration::from_millis(25);

/// Connect retry: capped exponential backoff. First attempt immediate,
/// then 1, 2, 4, … ms up to [`CONNECT_BACKOFF_CAP`], at most
/// [`CONNECT_ATTEMPTS`] attempts (~2.5 s worst case) — enough for every
/// peer of a freshly booted cluster to come up.
const CONNECT_ATTEMPTS: u32 = 32;
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Inbound dispatch state shared between reader threads and
/// [`Transport::set_message_handler`].
struct Inbound {
    handler: Option<MessageHandler>,
    /// Messages that arrived before a handler was registered, replayed in
    /// arrival order at registration.
    pending: Vec<(NodeId, AthenaMsg)>,
}

impl Inbound {
    fn dispatch(&mut self, from: NodeId, msg: AthenaMsg) {
        match self.handler.as_mut() {
            Some(h) => h(from, msg),
            None => self.pending.push((from, msg)),
        }
    }
}

/// Helper: recover from a poisoned lock — the data is still the best
/// evidence we have (same policy as `dde_obs::SharedSink`).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The transport's metric handles, pre-registered so hot paths never
/// touch the registry lock. Shared with the accept/reader threads.
#[derive(Debug)]
pub(crate) struct TcpStats {
    /// Connection attempts, including the first try of each connect.
    pub connect_attempts: Arc<Counter>,
    /// Backoff retries (attempts beyond the first per connect call).
    pub connect_retries: Arc<Counter>,
    /// Protocol frames written.
    pub frames_out: Arc<Counter>,
    /// Protocol frame bytes written (header + payload).
    pub bytes_out: Arc<Counter>,
    /// Protocol frames fully read and decoded.
    pub frames_in: Arc<Counter>,
    /// Protocol frame bytes read (header + payload).
    pub bytes_in: Arc<Counter>,
    /// Malformed hellos/frames (each closed its connection).
    pub decode_errors: Arc<Counter>,
    /// Health probes answered on prober connections.
    pub probes_answered: Arc<Counter>,
}

impl TcpStats {
    fn new(registry: &MetricsRegistry) -> TcpStats {
        TcpStats {
            connect_attempts: registry.counter("tcp.connect_attempts"),
            connect_retries: registry.counter("tcp.connect_retries"),
            frames_out: registry.counter("tcp.frames_out"),
            bytes_out: registry.counter("tcp.bytes_out"),
            frames_in: registry.counter("tcp.frames_in"),
            bytes_in: registry.counter("tcp.bytes_in"),
            decode_errors: registry.counter("tcp.decode_errors"),
            probes_answered: registry.counter("tcp.probes_answered"),
        }
    }
}

/// One node's TCP endpoint. See the module docs for the thread layout.
pub struct TcpTransport {
    local: NodeId,
    neighbors: Vec<NodeId>,
    book: Arc<Vec<SocketAddr>>,
    local_addr: SocketAddr,
    clock: Arc<VirtualClock>,
    /// Write-side connections, keyed by destination node.
    conns: Mutex<BTreeMap<usize, TcpStream>>,
    inbound: Arc<Mutex<Inbound>>,
    stop: Arc<AtomicBool>,
    /// Live metric handles (frames/bytes in and out, connect retries,
    /// decode errors, probes answered).
    stats: Arc<TcpStats>,
    accept_thread: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("local", &self.local)
            .field("addr", &self.local_addr)
            .field("neighbors", &self.neighbors)
            .finish()
    }
}

impl TcpTransport {
    /// Starts a transport endpoint for `local` on a pre-bound
    /// `listener`. `book[i]` is node *i*'s listen address; `neighbors`
    /// are `local`'s adjacent nodes (ascending). The accept loop starts
    /// immediately, so peers may connect before the host begins driving
    /// the protocol. `registry` receives the transport's `tcp.*` metric
    /// series; `health` answers probe connections.
    pub fn new(
        local: NodeId,
        listener: TcpListener,
        book: Arc<Vec<SocketAddr>>,
        mut neighbors: Vec<NodeId>,
        clock: Arc<VirtualClock>,
        registry: &MetricsRegistry,
        health: Arc<HealthState>,
    ) -> Result<TcpTransport, NetError> {
        neighbors.sort_unstable();
        let local_addr = listener.local_addr().map_err(|source| NetError::Io {
            context: "local_addr",
            source,
        })?;
        let inbound = Arc::new(Mutex::new(Inbound {
            handler: None,
            pending: Vec::new(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TcpStats::new(registry));
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let inbound = Arc::clone(&inbound);
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let readers = Arc::clone(&readers);
            let nodes = book.len();
            std::thread::spawn(move || {
                accept_loop(
                    listener, local, nodes, inbound, stop, stats, health, readers,
                );
            })
        };

        Ok(TcpTransport {
            local,
            neighbors,
            book,
            local_addr,
            clock,
            conns: Mutex::new(BTreeMap::new()),
            inbound,
            stop,
            stats,
            accept_thread: Some(accept_thread),
            readers,
        })
    }

    /// The address this endpoint accepts connections on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// How many inbound frames failed to decode (each closed its
    /// connection).
    pub fn decode_errors(&self) -> u64 {
        self.stats.decode_errors.get()
    }

    /// Connects to `to` with capped-backoff retry and sends the hello.
    fn connect(&self, to: NodeId) -> Result<TcpStream, NetError> {
        let addr = *self
            .book
            .get(to.0)
            .ok_or(NetError::UnknownPeer { peer: to })?;
        let mut backoff = Duration::from_millis(1);
        let mut last = None;
        for attempt in 0..CONNECT_ATTEMPTS {
            if self.stop.load(Ordering::SeqCst) {
                return Err(NetError::Shutdown);
            }
            if attempt > 0 {
                self.stats.connect_retries.inc();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
            }
            self.stats.connect_attempts.inc();
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    let _ = stream.set_nodelay(true);
                    let mut hello = [0u8; HELLO_LEN];
                    hello[0..2].copy_from_slice(&HELLO_MAGIC);
                    hello[2] = HELLO_VERSION;
                    hello[3] = HELLO_ROLE_PEER;
                    let id = u32::try_from(self.local.0).map_err(|_| {
                        NetError::Frame(frame::FrameError::NodeTooLarge { node: self.local.0 })
                    })?;
                    hello[4..8].copy_from_slice(&id.to_be_bytes());
                    match stream.write_all(&hello) {
                        Ok(()) => return Ok(stream),
                        Err(source) => last = Some(source),
                    }
                }
                Err(source) => last = Some(source),
            }
        }
        match last {
            Some(source) => Err(NetError::Io {
                context: "connect",
                source,
            }),
            None => Err(NetError::PeerUnavailable { peer: to }),
        }
    }

    /// Writes `bytes` to `to`, establishing or re-establishing the
    /// connection as needed (one reconnect attempt on a stale write
    /// half).
    fn write_frame(&self, to: NodeId, bytes: &[u8]) -> Result<(), NetError> {
        let mut conns = lock(&self.conns);
        if let std::collections::btree_map::Entry::Vacant(e) = conns.entry(to.0) {
            let stream = self.connect(to)?;
            e.insert(stream);
        }
        // The entry exists now; a vacant entry above was just filled.
        if let Some(stream) = conns.get_mut(&to.0) {
            if stream.write_all(bytes).is_ok() {
                return Ok(());
            }
        }
        // Stale connection (peer restarted, half-closed socket): retire it
        // and retry once on a fresh one.
        conns.remove(&to.0);
        let mut stream = self.connect(to)?;
        let result = stream.write_all(bytes).map_err(|source| NetError::Io {
            context: "write",
            source,
        });
        conns.insert(to.0, stream);
        result
    }
}

impl Transport for TcpTransport {
    fn local_node(&self) -> NodeId {
        self.local
    }

    fn neighbors(&self) -> Vec<NodeId> {
        self.neighbors.clone()
    }

    fn local_now(&self) -> SimTime {
        self.clock.now()
    }

    fn send_to(&self, to: NodeId, msg: &AthenaMsg) -> Result<(), NetError> {
        if self.stop.load(Ordering::SeqCst) {
            return Err(NetError::Shutdown);
        }
        if !self.neighbors.contains(&to) {
            return Err(NetError::NotNeighbor {
                from: self.local,
                to,
            });
        }
        let bytes = frame::encode(msg)?;
        self.write_frame(to, &bytes)?;
        self.stats.frames_out.inc();
        self.stats.bytes_out.add(bytes.len() as u64);
        Ok(())
    }

    fn set_message_handler(&mut self, mut handler: MessageHandler) {
        let mut inbound = lock(&self.inbound);
        for (from, msg) in inbound.pending.drain(..) {
            handler(from, msg);
        }
        inbound.handler = Some(handler);
    }

    fn shutdown(&mut self) -> Result<(), NetError> {
        if self.stop.swap(true, Ordering::SeqCst) {
            return Ok(()); // idempotent
        }
        // Unblock the accept loop with a wake-up connection; readers
        // notice the flag at their next poll tick.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.readers).drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        lock(&self.conns).clear();
        Ok(())
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Everything a reader thread needs, cloneable per accepted connection.
struct ReaderCtx {
    local: NodeId,
    nodes: usize,
    inbound: Arc<Mutex<Inbound>>,
    stop: Arc<AtomicBool>,
    stats: Arc<TcpStats>,
    health: Arc<HealthState>,
}

impl Clone for ReaderCtx {
    fn clone(&self) -> Self {
        ReaderCtx {
            local: self.local,
            nodes: self.nodes,
            inbound: Arc::clone(&self.inbound),
            stop: Arc::clone(&self.stop),
            stats: Arc::clone(&self.stats),
            health: Arc::clone(&self.health),
        }
    }
}

/// Accepts connections until the stop flag rises, spawning one reader
/// per connection.
#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    local: NodeId,
    nodes: usize,
    inbound: Arc<Mutex<Inbound>>,
    stop: Arc<AtomicBool>,
    stats: Arc<TcpStats>,
    health: Arc<HealthState>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let ctx = ReaderCtx {
        local,
        nodes,
        inbound,
        stop,
        stats,
        health,
    };
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if ctx.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if ctx.stop.load(Ordering::SeqCst) {
            return; // the wake-up connection from shutdown()
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let ctx_r = ctx.clone();
        let handle = std::thread::spawn(move || {
            reader_loop(stream, ctx_r);
        });
        lock(&readers).push(handle);
    }
}

/// Reads the hello, then dispatches on the role byte: peer connections
/// stream protocol frames to the handler; prober connections are
/// answered with health reports below the protocol seam. Any malformed
/// input (bad hello, bad header, undecodable payload) closes the
/// connection; the process never panics on wire bytes.
fn reader_loop(mut stream: TcpStream, ctx: ReaderCtx) {
    let mut hello = [0u8; HELLO_LEN];
    if read_exact_polled(&mut stream, &mut hello, &ctx.stop).is_err() {
        return;
    }
    if hello[0..2] != HELLO_MAGIC || hello[2] != HELLO_VERSION {
        ctx.stats.decode_errors.inc();
        return;
    }
    if hello[3] == HELLO_ROLE_PROBER {
        prober_loop(stream, &ctx);
        return;
    }
    if hello[3] != HELLO_ROLE_PEER {
        ctx.stats.decode_errors.inc();
        return;
    }
    let from = u32::from_be_bytes([hello[4], hello[5], hello[6], hello[7]]) as usize;
    if from >= ctx.nodes {
        ctx.stats.decode_errors.inc();
        return;
    }
    let from = NodeId(from);

    loop {
        let Some(buf) = read_frame(&mut stream, &ctx) else {
            return;
        };
        // Control frames are not legal on peer connections: frame::decode
        // rejects them, which closes this connection like any other
        // malformed input.
        match frame::decode(&buf) {
            Ok(msg) => {
                ctx.stats.frames_in.inc();
                ctx.stats.bytes_in.add(buf.len() as u64);
                lock(&ctx.inbound).dispatch(from, msg);
            }
            Err(_) => {
                ctx.stats.decode_errors.inc();
                return;
            }
        }
    }
}

/// Reads one complete frame (header + payload). `None` once the stream
/// ends, fails or is stopped, and on a bad header, which also counts a
/// decode error.
fn read_frame(stream: &mut TcpStream, ctx: &ReaderCtx) -> Option<Vec<u8>> {
    let mut header = [0u8; frame::HEADER_LEN];
    read_exact_polled(stream, &mut header, &ctx.stop).ok()?;
    let Ok(len) = frame::payload_len(&header) else {
        ctx.stats.decode_errors.inc();
        return None;
    };
    let mut buf = vec![0u8; frame::HEADER_LEN + len];
    buf[..frame::HEADER_LEN].copy_from_slice(&header);
    read_exact_polled(stream, &mut buf[frame::HEADER_LEN..], &ctx.stop).ok()?;
    Some(buf)
}

/// Serves one prober connection: each [`ControlMsg::HealthProbe`] frame
/// is answered with a [`ControlMsg::HealthReport`] on the same stream.
/// Anything else closes the connection. The Athena protocol (and its
/// trace) never observes this exchange.
fn prober_loop(mut stream: TcpStream, ctx: &ReaderCtx) {
    loop {
        let Some(buf) = read_frame(&mut stream, ctx) else {
            return;
        };
        match frame::decode_any(&buf) {
            Ok(WireFrame::Control(ControlMsg::HealthProbe { seq })) => {
                let report = ctx.health.report(ctx.local, seq);
                let Ok(reply) = frame::encode_control(&ControlMsg::HealthReport(report)) else {
                    return;
                };
                if stream.write_all(&reply).is_err() {
                    return;
                }
                ctx.stats.probes_answered.inc();
            }
            Ok(_) | Err(_) => {
                ctx.stats.decode_errors.inc();
                return;
            }
        }
    }
}

/// `read_exact` that survives the read-timeout polling: partial reads
/// accumulate across timeouts, and the stop flag aborts cleanly between
/// chunks (never mid-frame corruption — a frame is either fully read or
/// the connection is abandoned).
fn read_exact_polled(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> Result<(), ()> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(()), // peer closed
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::SeqCst) {
                    return Err(());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    Ok(())
}
