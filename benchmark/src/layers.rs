//! The one file that calls into the repository's crates.
//!
//! Everything the benchmark needs from the program under test — building
//! scenarios, running them on each engine, driving an engine with timing
//! wrappers around every node callback and the trace sink, replaying captured
//! inputs through the pure crates, booting loopback clusters — goes through
//! here, so a change to a crate's API is a change to this file only. The rest
//! of the benchmark sees plain numbers plus two opaque types it may compare
//! for equality ([`RunReport`], [`Scenario`]).

use crate::calib;
use crate::span;
use crate::stats;
use dde_core::{
    build_nodes, build_shared_world, collect_report_parts, run_scenario, run_scenario_observed,
    run_scenario_sharded, Annotator, AthenaEvent, AthenaMsg, AthenaNode, GroundTruthAnnotator,
    QueryId, RequestKind, RunOptions, Strategy,
};
use dde_coverage::setcover::{greedy_cover, Source};
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::{Assignment, Label};
use dde_logic::meta::{ConditionMeta, Cost, MetaTable, Probability};
use dde_logic::time::{SimDuration, SimTime};
use dde_logic::truth::Truth;
use dde_naming::fib::Pit;
use dde_naming::name::Name;
use dde_naming::store::ContentStore;
use dde_net::{
    frame, run_cluster_tcp_observed, ClusterConfig, DesTransport, HealthState, TcpTransport,
    Transport, VirtualClock,
};
use dde_netsim::{
    Context, FaultSchedule, LinkSpec, NodeId, Protocol, ShardedSimulator, Simulator, Topology,
};
use dde_obs::metrics::MetricsRegistry;
use dde_obs::{
    FeedbackSink, JsonlSink, LedgerSink, MemorySink, NullSink, SharedSink, Sink, TeeSink,
    TraceRecord,
};
use dde_sched::shortcircuit::plan_dnf;
use dde_workload::{
    Catalog, DynamicsClass, ObjectSpec, QueryInstance, RoadGrid, ScenarioConfig, WorldModel,
};
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

pub use dde_core::RunReport;
pub use dde_obs::json::{parse as parse_json, JsonValue};
pub use dde_workload::Scenario;

// ---- Scenarios ---------------------------------------------------------

/// The paper's §VII configuration: 30 nodes, 90 queries, 40 % fast-changing
/// segments.
pub fn paper_scenario(seed: u64) -> Scenario {
    Scenario::build(
        ScenarioConfig::default()
            .with_seed(seed)
            .with_fast_ratio(0.4),
    )
}

/// The city band: 60 nodes, 120 queries, about four times the events.
pub fn city_scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig::city().with_seed(seed).with_fast_ratio(0.4))
}

/// Nodes of the live chain `0 — 1 — 2 — 3`.
const CHAIN_NODES: usize = 4;
/// Queries per live repetition; also the size of the label universe, so
/// every label is needed exactly twice.
pub const CHAIN_QUERIES: usize = 400;
/// Simulated milliseconds between consecutive issues on the chain: at
/// [`LIVE_TIME_SCALE`] one query is due every 3.9 ms of wall time.
const CHAIN_SPACING_MS: u64 = 500;
const CHAIN_DEADLINE_S: u64 = 30;

/// SplitMix64: the benchmark's own generator for the inputs it builds itself,
/// so the chain scenario depends on nothing but `--seed`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The live workload's scenario: a four-node chain on which
/// [`CHAIN_QUERIES`] two-label queries are issued on a fixed schedule.
///
/// Built to be insensitive to delivery timing, like the repository's DES↔TCP
/// equivalence suite, so the DES can serve as oracle for a live run: ground
/// truth is static and always true, evidence never expires within a run,
/// deadlines are sixty issue periods long, and the second use of a label
/// comes [`CHAIN_QUERIES`]` / 2` queries after the first. Each label has one
/// camera at a seeded node; round one pairs the labels up at random, round
/// two re-pairs each first label with the next query's second label and
/// issues from a different origin than round one did.
pub fn chain_scenario(seed: u64) -> Scenario {
    let mut rng = SplitMix(seed);
    let link = LinkSpec::with_bandwidth(10_000_000);
    let topology = Topology::line(CHAIN_NODES, link);

    let forever = SimDuration::from_secs(1_000_000);
    let mut world = WorldModel::new(seed);
    let mut catalog = Catalog::new();
    let mut labels: Vec<Label> = Vec::with_capacity(CHAIN_QUERIES);
    for i in 0..CHAIN_QUERIES {
        let label = Label::new(format!("l{i}"));
        world.register(label.clone(), DynamicsClass::Slow, forever, 1.0);
        catalog.add(ObjectSpec {
            name: format!("/chain/seg/l{i}/cam")
                .parse()
                .expect("generated names are valid"),
            covers: vec![label.clone()],
            size: 10_000 + rng.below(40_000),
            source: NodeId(rng.below(CHAIN_NODES as u64) as usize),
            class: DynamicsClass::Slow,
            validity: forever,
        });
        labels.push(label);
    }
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.below(i as u64 + 1) as usize);
    }

    let pairs = CHAIN_QUERIES / 2;
    let firsts = &labels[..pairs];
    let seconds = &labels[pairs..];
    let round_one: Vec<usize> = (0..pairs)
        .map(|_| rng.below(CHAIN_NODES as u64) as usize)
        .collect();
    let mut queries = Vec::with_capacity(CHAIN_QUERIES);
    for q in 0..CHAIN_QUERIES {
        let j = q % pairs;
        let (second, origin) = if q < pairs {
            (&seconds[j], round_one[j])
        } else {
            let shift = 1 + rng.below(CHAIN_NODES as u64 - 1) as usize;
            (
                &seconds[(j + 1) % pairs],
                (round_one[j] + shift) % CHAIN_NODES,
            )
        };
        queries.push(QueryInstance {
            id: q as u64,
            origin: NodeId(origin),
            expr: Dnf::from_terms(vec![Term::all_of([firsts[j].as_str(), second.as_str()])]),
            deadline: SimDuration::from_secs(CHAIN_DEADLINE_S),
            issue_at: SimTime::from_millis(5000 + CHAIN_SPACING_MS * q as u64),
        });
    }

    let grid = RoadGrid::new(2, CHAIN_NODES);
    let node_sites = grid.intersections().take(CHAIN_NODES).collect();
    Scenario {
        config: ScenarioConfig {
            node_count: CHAIN_NODES,
            prob_viable: 1.0,
            link_bandwidth_bps: link.bandwidth_bps,
            seed,
            ..ScenarioConfig::small()
        },
        grid,
        node_sites,
        topology,
        world,
        catalog,
        queries,
        faults: FaultSchedule::new(),
    }
}

// ---- Running a scenario --------------------------------------------------

/// Which event loop runs the scenario, and whether it is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `run_scenario`: the classic event heap, no sink constructed.
    Classic,
    /// `run_scenario_observed` into an in-memory JSONL sink, with the cost
    /// ledger teed in by the engine.
    ClassicObserved,
    /// `run_scenario_sharded` at one thread (the inline path).
    Sharded,
}

/// The retrieval scheme under test (`cmp`, `lvf`, `lvfl` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Cmp,
    Lvf,
    Lvfl,
}

impl Scheme {
    fn options(self) -> RunOptions {
        RunOptions::new(match self {
            Scheme::Cmp => Strategy::Comprehensive,
            Scheme::Lvf => Strategy::Lvf,
            Scheme::Lvfl => Strategy::LvfLabelShare,
        })
    }
}

/// Length and FNV-1a hash of a JSONL trace: enough to tell two traces apart
/// without keeping megabytes per scenario alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    pub bytes: u64,
    pub hash: u64,
}

fn digest(trace: &[u8]) -> TraceDigest {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in trace {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    TraceDigest {
        bytes: trace.len() as u64,
        hash,
    }
}

type TraceSink = SharedSink<JsonlSink<Vec<u8>>>;

/// What one run hands back. The trace stays in its sink until
/// [`RunOutput::finish`], so hashing it is not part of the timed run.
pub struct RunOutput {
    pub report: RunReport,
    trace: Option<TraceSink>,
}

impl RunOutput {
    /// The report, and the digest of the trace if the run was observed.
    pub fn finish(self) -> (RunReport, Option<TraceDigest>) {
        let trace = self.trace.map(|sink| sink.with(|s| digest(s.get_ref())));
        (self.report, trace)
    }
}

fn trace_sink() -> TraceSink {
    SharedSink::new(JsonlSink::new(Vec::with_capacity(8 << 20)))
}

/// Runs `scenario` through the repository's own entry point for `engine`.
pub fn run(engine: Engine, scheme: Scheme, scenario: &Scenario) -> RunOutput {
    let options = scheme.options();
    match engine {
        Engine::Classic => RunOutput {
            report: run_scenario(scenario, options),
            trace: None,
        },
        Engine::ClassicObserved => {
            let sink = trace_sink();
            RunOutput {
                report: run_scenario_observed(scenario, options, Box::new(sink.clone())),
                trace: Some(sink),
            }
        }
        Engine::Sharded => RunOutput {
            report: run_scenario_sharded(scenario, options, 1),
            trace: None,
        },
    }
}

/// The sharded engine at `threads` worker threads.
pub fn run_sharded(scheme: Scheme, scenario: &Scenario, threads: usize) -> RunReport {
    run_scenario_sharded(scenario, scheme.options(), threads)
}

/// Queries `scenario` issues.
pub fn query_count(scenario: &Scenario) -> u64 {
    scenario.queries.len() as u64
}

/// What the metrics need from a report.
pub struct Outcome {
    pub queries: u64,
    pub resolved: u64,
    pub accurate: u64,
    pub total_bytes: u64,
    pub events: u64,
    /// Issue-to-decision latency of every decided query, simulated seconds.
    pub latencies_s: Vec<f64>,
    pub cache_hits: u64,
    pub label_hits: u64,
    pub requests_forwarded: u64,
    pub data_forwarded: u64,
    /// Whether the observed run's cost ledger conserves (unobserved: `None`).
    pub ledger_conserves: Option<bool>,
}

pub fn outcome(report: &RunReport) -> Outcome {
    Outcome {
        queries: report.total_queries as u64,
        resolved: report.resolved as u64,
        accurate: report.accurate as u64,
        total_bytes: report.total_bytes,
        events: report.events,
        latencies_s: report
            .queries
            .iter()
            .filter_map(|q| q.latency)
            .map(|d| d.as_secs_f64())
            .collect(),
        cache_hits: report.cache_hits,
        label_hits: report.label_hits,
        requests_forwarded: report.node_stats.iter().map(|s| s.requests_forwarded).sum(),
        data_forwarded: report.node_stats.iter().map(|s| s.data_forwarded).sum(),
        ledger_conserves: report.ledger.as_ref().map(|l| l.conserves()),
    }
}

// ---- Traced runs -----------------------------------------------------------

/// Message kinds, in the order every per-kind array in the benchmark uses.
pub const KINDS: [&str; 4] = ["announce", "request", "data", "label"];

fn kind_index(msg: &AthenaMsg) -> usize {
    match msg {
        AthenaMsg::QueryAnnounce { .. } => 0,
        AthenaMsg::Request { .. } => 1,
        AthenaMsg::Data { .. } => 2,
        AthenaMsg::LabelShare { .. } => 3,
    }
}

/// Span names of the node callbacks, by message kind for `on_message`.
pub const ON_MESSAGE: [&str; 4] = [
    "core.on_message_announce",
    "core.on_message_request",
    "core.on_message_data",
    "core.on_message_label",
];
pub const ON_EXTERNAL: &str = "core.on_external";
pub const ON_TIMER_TICK: &str = "core.on_timer_tick";
pub const ON_TIMER_DEADLINE: &str = "core.on_timer_deadline";
/// Every node-callback span; `<span>.busy_ms` and `<span>.calls` are metrics.
pub const HANDLERS: [&str; 7] = [
    ON_EXTERNAL,
    ON_MESSAGE[0],
    ON_MESSAGE[1],
    ON_MESSAGE[2],
    ON_MESSAGE[3],
    ON_TIMER_TICK,
    ON_TIMER_DEADLINE,
];
pub const SINK_RECORD: &str = "obs.sink_record";
pub const RUN: &str = "run";
pub const ENGINE_SETUP: &str = "netsim.setup";
pub const ENGINE_RUN: &str = "netsim.run_until";
pub const COLLECT: &str = "core.collect_report";

/// Delivered messages kept per node for the replay corpus.
const CAPTURE_PER_NODE: usize = 512;

/// An [`AthenaNode`] that opens a span around each callback and, on request,
/// keeps a copy of the messages delivered to it.
struct Traced {
    inner: AthenaNode,
    capture: bool,
    captured: Vec<AthenaMsg>,
}

impl Protocol for Traced {
    type Msg = AthenaMsg;
    type Ext = AthenaEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AthenaMsg>, from: NodeId, msg: AthenaMsg) {
        if self.capture && self.captured.len() < CAPTURE_PER_NODE {
            self.captured.push(msg.clone());
        }
        let _span = span::enter(ON_MESSAGE[kind_index(&msg)]);
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AthenaMsg>, tag: u64) {
        // Tag 0 is the node's periodic tick; any other tag is a deadline.
        let _span = span::enter(if tag == 0 {
            ON_TIMER_TICK
        } else {
            ON_TIMER_DEADLINE
        });
        self.inner.on_timer(ctx, tag);
    }

    fn on_external(&mut self, ctx: &mut Context<'_, AthenaMsg>, ext: AthenaEvent) {
        let _span = span::enter(ON_EXTERNAL);
        self.inner.on_external(ctx, ext);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        self.inner.on_recover(ctx);
    }
}

/// A sink that opens a span around each record handed to the wrapped sink.
struct TimedSink {
    inner: Box<dyn Sink>,
    records: Arc<AtomicU64>,
}

impl Sink for TimedSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, rec: &TraceRecord) {
        let _span = span::enter(SINK_RECORD);
        // Statistic only; nothing else is published through it.
        self.records.fetch_add(1, Ordering::Relaxed);
        self.inner.record(rec);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Inputs captured from traced runs, replayed through the pure crates.
#[derive(Default)]
pub struct Corpus {
    msgs: Vec<AthenaMsg>,
    records: Vec<TraceRecord>,
}

/// What a traced run adds to a plain one.
pub struct TracedOutput {
    pub output: RunOutput,
    /// Messages handed to the medium, by kind (see [`KINDS`]).
    pub msgs_sent: [u64; 4],
    /// Records that reached the sink (observed engine only).
    pub sink_records: u64,
}

/// The steps `run_scenario*` performs between building the simulator and
/// reading its results, identical for both engines.
macro_rules! drive {
    ($sim:ident, $scenario:ident, $options:ident) => {{
        $sim.set_medium($options.medium);
        let mut faults = $scenario.faults.clone();
        faults.merge(&$options.faults);
        $sim.install_faults(&faults);
        let mut last_deadline = SimTime::ZERO;
        for q in &$scenario.queries {
            $sim.schedule_external(q.issue_at, q.origin, q.clone().into());
            last_deadline = last_deadline.max(q.issue_at + q.deadline);
        }
        (faults.len(), last_deadline + $options.drain)
    }};
}

/// Runs `scenario` as [`run`] does, but drives the engine from here with a
/// [`Traced`] wrapper around every node (and a [`TimedSink`] around the sink
/// of an observed run), recording spans into the thread's recorder. With
/// `corpus`, also keeps delivered messages — and, for an observed run, the
/// trace records in place of the JSONL bytes — for the replay benchmarks.
///
/// The report must equal the plain run's; the caller checks that it does.
pub fn run_traced(
    engine: Engine,
    scheme: Scheme,
    scenario: &Scenario,
    corpus: Option<&mut Corpus>,
) -> TracedOutput {
    let _run = span::enter(RUN);
    let options = scheme.options();
    let setup = span::enter(ENGINE_SETUP);
    let annotator: Arc<dyn Annotator + Send + Sync> = Arc::new(GroundTruthAnnotator);
    let shared = build_shared_world(scenario, &options);
    let nodes: Vec<Traced> = build_nodes(scenario, &shared, &annotator)
        .into_iter()
        .map(|inner| Traced {
            inner,
            capture: corpus.is_some(),
            captured: Vec::new(),
        })
        .collect();

    let sink_records = Arc::new(AtomicU64::new(0));
    let mut trace = None;
    let mut memory = None;
    let mut ledger = None;
    let sink: Option<Box<dyn Sink>> = (engine == Engine::ClassicObserved).then(|| {
        let user: Box<dyn Sink> = if corpus.is_some() {
            Box::new(memory.insert(SharedSink::new(MemorySink::new())).clone())
        } else {
            Box::new(trace.insert(trace_sink()).clone())
        };
        let ledger_half = ledger.insert(SharedSink::new(LedgerSink::new())).clone();
        Box::new(TimedSink {
            inner: Box::new(TeeSink::new(user, Box::new(ledger_half))),
            records: Arc::clone(&sink_records),
        }) as Box<dyn Sink>
    });

    let (mut report, nodes, msgs_sent) = if engine == Engine::Sharded {
        let mut sim = ShardedSimulator::new(scenario.topology.clone(), nodes, options.seed, 1);
        let (fault_events, horizon) = drive!(sim, scenario, options);
        drop(setup);
        {
            let _span = span::enter(ENGINE_RUN);
            sim.run_until(horizon);
        }
        let _span = span::enter(COLLECT);
        let metrics = sim.metrics();
        let inner: Vec<&AthenaNode> = sim.nodes().map(|n| &n.inner).collect();
        let report = collect_report_parts(
            &metrics,
            sim.now(),
            sim.events_processed(),
            &inner,
            scenario,
            options.strategy,
            fault_events,
        );
        drop(inner);
        let msgs_sent = KINDS.map(|k| metrics.kind(k).count);
        (report, sim.into_nodes(), msgs_sent)
    } else {
        let mut sim = Simulator::new(scenario.topology.clone(), nodes, options.seed);
        if let Some(sink) = sink {
            sim.set_sink(sink);
        }
        let (fault_events, horizon) = drive!(sim, scenario, options);
        drop(setup);
        {
            let _span = span::enter(ENGINE_RUN);
            sim.run_until(horizon);
            let _ = sim.sink_mut().flush();
        }
        let _span = span::enter(COLLECT);
        let inner: Vec<&AthenaNode> = sim.nodes().map(|n| &n.inner).collect();
        let report = collect_report_parts(
            sim.metrics(),
            sim.now(),
            sim.events_processed(),
            &inner,
            scenario,
            options.strategy,
            fault_events,
        );
        drop(inner);
        let msgs_sent = KINDS.map(|k| sim.metrics().kind(k).count);
        (report, sim.into_nodes(), msgs_sent)
    };
    report.ledger = ledger.map(|l| l.with(|l| l.take_ledger()));

    if let Some(corpus) = corpus {
        for node in nodes {
            corpus.msgs.extend(node.captured);
        }
        if let Some(memory) = memory {
            corpus.records.extend(memory.with(|m| m.take()));
        }
    }
    TracedOutput {
        output: RunOutput { report, trace },
        msgs_sent,
        sink_records: sink_records.load(Ordering::Relaxed),
    }
}

/// How the sharded engine would cut `scenario` at `threads` threads:
/// `(regions, share of directed links that cross a region boundary,
/// lookahead in simulated µs)`.
pub fn shard_partition(scheme: Scheme, scenario: &Scenario, threads: usize) -> (u64, f64, u64) {
    let options = scheme.options();
    let annotator: Arc<dyn Annotator + Send + Sync> = Arc::new(GroundTruthAnnotator);
    let shared = build_shared_world(scenario, &options);
    let nodes = build_nodes(scenario, &shared, &annotator);
    let sim = ShardedSimulator::new(scenario.topology.clone(), nodes, options.seed, threads);
    let partition = sim.partition();
    let topology = &scenario.topology;
    let (mut links, mut crossing) = (0u64, 0u64);
    for a in topology.nodes() {
        for b in topology.neighbors(a) {
            links += 1;
            crossing += u64::from(partition.region_of(a) != partition.region_of(b));
        }
    }
    (
        partition.count() as u64,
        crossing as f64 / links.max(1) as f64,
        partition.lookahead().map_or(0, |d| d.as_micros()),
    )
}

// ---- Replaying captured inputs through the pure crates ---------------------

/// Timed repetitions per replay benchmark; the fastest is kept.
const REPLAY_RUNS: usize = 5;

/// Nanoseconds per operation of `work`, which performs `ops` operations per
/// call. `0.0` when there is nothing to replay.
fn ns_per_op(ops: usize, mut work: impl FnMut()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    for _ in 0..REPLAY_RUNS {
        let start = calib::now();
        work();
        best = best.min(calib::secs_since(start));
    }
    best * 1e9 / ops as f64
}

/// Results of the replay benchmarks, all in nanoseconds per call unless the
/// name says otherwise.
#[derive(Default)]
pub struct Replay {
    pub frame_encode_ns: [f64; 4],
    pub frame_decode_ns: [f64; 4],
    pub frame_bytes_mean: f64,
    pub plan_dnf_ns: f64,
    pub greedy_cover_ns: f64,
    pub resolution_ns: f64,
    pub name_parse_ns: f64,
    pub store_insert_ns: f64,
    pub store_insert_evict_ns: f64,
    pub store_get_fresh_ns: f64,
    pub pit_register_take_ns: f64,
    /// Milliseconds to fold one run's trace records through `LedgerSink` /
    /// `FeedbackSink` on their own (observed engine only).
    pub ledger_fold_ms: f64,
    pub feedback_fold_ms: f64,
}

/// Replays what `corpus` captured over `runs` traced runs, plus the queries
/// and catalog of `scenario`, through the public functions of the pure
/// crates.
pub fn replay(corpus: &Corpus, runs: usize, scenario: &Scenario) -> Replay {
    let mut out = Replay::default();

    // net: the wire codec, per message kind.
    let mut frame_bytes = 0usize;
    let mut frame_count = 0usize;
    for (k, _) in KINDS.iter().enumerate() {
        let msgs: Vec<&AthenaMsg> = corpus.msgs.iter().filter(|m| kind_index(m) == k).collect();
        out.frame_encode_ns[k] = ns_per_op(msgs.len(), || {
            for m in &msgs {
                std::hint::black_box(frame::encode(m).expect("captured messages encode"));
            }
        });
        let frames: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| frame::encode(m).expect("captured messages encode"))
            .collect();
        frame_bytes += frames.iter().map(Vec::len).sum::<usize>();
        frame_count += frames.len();
        out.frame_decode_ns[k] = ns_per_op(frames.len(), || {
            for f in &frames {
                std::hint::black_box(frame::decode(f).expect("own frames decode"));
            }
        });
    }
    out.frame_bytes_mean = frame_bytes as f64 / frame_count.max(1) as f64;

    // sched, coverage, logic: the planner's inputs are the scenario's query
    // expressions and catalog.
    let catalog = &scenario.catalog;
    let dnfs: Vec<&Dnf> = scenario.queries.iter().map(|q| &q.expr).collect();
    let mut meta = MetaTable::new();
    for label in catalog.covered_labels() {
        if let Some(object) = catalog.cheapest_provider(label) {
            meta.insert(
                label.clone(),
                ConditionMeta::new(Cost::from_bytes(object.size), object.validity)
                    .with_prob(Probability::clamped(scenario.config.prob_viable)),
            );
        }
    }
    out.plan_dnf_ns = ns_per_op(dnfs.len(), || {
        for dnf in &dnfs {
            std::hint::black_box(plan_dnf(dnf, &meta));
        }
    });
    let covers: Vec<(BTreeSet<Label>, Vec<Source<usize>>)> = dnfs
        .iter()
        .map(|dnf| {
            let labels = dnf.labels();
            let sources = catalog
                .objects()
                .iter()
                .enumerate()
                .filter(|(_, o)| o.covers.iter().any(|l| labels.contains(l)))
                .map(|(i, o)| {
                    Source::new(
                        i,
                        o.covers.iter().filter(|l| labels.contains(*l)).cloned(),
                        Cost::from_bytes(o.size),
                    )
                })
                .collect();
            (labels, sources)
        })
        .collect();
    out.greedy_cover_ns = ns_per_op(covers.len(), || {
        for (labels, sources) in &covers {
            std::hint::black_box(greedy_cover(labels, sources));
        }
    });
    let now = SimTime::from_secs(1);
    let half_known: Vec<Assignment> = dnfs
        .iter()
        .map(|dnf| {
            let mut asg = Assignment::new();
            for label in dnf.labels().into_iter().step_by(2) {
                asg.set(
                    label,
                    Truth::True,
                    SimTime::ZERO,
                    SimDuration::from_secs(600),
                );
            }
            asg
        })
        .collect();
    out.resolution_ns = ns_per_op(dnfs.len(), || {
        for (dnf, asg) in dnfs.iter().zip(&half_known) {
            std::hint::black_box(dnf.resolution(asg, now));
        }
    });

    // naming: the catalog's names through the parser, the store and the PIT.
    let objects = catalog.objects();
    let strings: Vec<String> = objects.iter().map(|o| o.name.to_string()).collect();
    out.name_parse_ns = ns_per_op(strings.len(), || {
        for s in &strings {
            std::hint::black_box(s.parse::<Name>().expect("catalog names parse"));
        }
    });
    let total_bytes: u64 = objects.iter().map(|o| o.size).sum();
    let fill = |capacity: u64| {
        let mut store: ContentStore<u32> = ContentStore::new(capacity);
        for (i, o) in objects.iter().enumerate() {
            store.insert(
                &o.name,
                i as u32,
                o.size,
                SimTime::from_secs(i as u64),
                o.validity,
            );
        }
        store
    };
    out.store_insert_ns = ns_per_op(objects.len(), || {
        std::hint::black_box(fill(u64::MAX).len());
    });
    out.store_insert_evict_ns = ns_per_op(objects.len(), || {
        std::hint::black_box(fill(total_bytes / 4).evictions);
    });
    let mut store = fill(u64::MAX);
    out.store_get_fresh_ns = ns_per_op(objects.len(), || {
        for o in objects {
            std::hint::black_box(store.get_fresh(&o.name, now).is_some());
        }
    });
    out.pit_register_take_ns = ns_per_op(objects.len(), || {
        let mut pit: Pit<u32, u64> = Pit::new();
        for (i, o) in objects.iter().enumerate() {
            pit.register(&o.name, i as u32, i as u64, SimTime::from_secs(30));
        }
        for o in objects {
            std::hint::black_box(pit.take(&o.name).len());
        }
    });

    // obs: the captured records through each fold on its own.
    if !corpus.records.is_empty() {
        let per_run = 1e-6 / runs.max(1) as f64;
        out.ledger_fold_ms = per_run
            * ns_per_op(1, || {
                let mut sink = LedgerSink::new();
                for rec in &corpus.records {
                    sink.record(rec);
                }
                std::hint::black_box(sink.ledger().attributed_bytes());
            });
        out.feedback_fold_ms = per_run
            * ns_per_op(1, || {
                let mut sink = FeedbackSink::new(16);
                for rec in &corpus.records {
                    sink.record(rec);
                }
                sink.finish();
                std::hint::black_box(sink.epochs().len());
            });
    }
    out
}

// ---- The live cluster --------------------------------------------------------

/// Simulated microseconds per wall microsecond on the live chain. What a
/// stalled host thread may cost before outcomes change is the node's 30 s
/// retry timeout and the 30 s deadline, 234 ms of wall time each at this
/// scale; at 512 (58 ms) a repetition broke when a compiler ran beside it.
pub const LIVE_TIME_SCALE: u64 = 128;

/// One repetition of the live chain.
pub struct LiveRep {
    pub report: RunReport,
    /// Wall µs from issue to decision of every query that sent at least one
    /// request, ascending. A query that missed its deadline is entered at the
    /// deadline, i.e. beyond any limit a decided query can reach.
    pub decision_wall_us: Vec<f64>,
    pub frames_out: u64,
    pub bytes_out: u64,
    pub connect_retries: u64,
    pub send_errors: u64,
    pub decode_errors: u64,
    /// The latest any scheduled stimulus fired behind the open-loop
    /// schedule, wall µs, over all hosts.
    pub issue_lag_us_max: u64,
}

/// Boots a loopback TCP cluster of one host thread per node and runs
/// `scenario` on it. No load generator: the hosts fire the schedule.
pub fn run_live(scenario: &Scenario) -> Result<LiveRep, String> {
    let config = ClusterConfig {
        time_scale: LIVE_TIME_SCALE,
        probe_wall_ms: None,
        ..ClusterConfig::default()
    };
    let outcome =
        run_cluster_tcp_observed::<NullSink>(scenario, &Scheme::Lvf.options(), &config, None)
            .map_err(|e| e.to_string())?;
    let deadline_wall_us = (CHAIN_DEADLINE_S * 1_000_000 / LIVE_TIME_SCALE) as f64;
    let decision_wall_us: Vec<f64> = outcome
        .report
        .queries
        .iter()
        .filter(|q| q.counters.requests_sent > 0)
        .map(|q| {
            q.latency.map_or(deadline_wall_us, |d| {
                d.as_micros() as f64 / LIVE_TIME_SCALE as f64
            })
        })
        .collect();
    let counter = |name: &str| -> u64 {
        outcome
            .nodes
            .iter()
            .map(|n| n.snapshot.counter(name).unwrap_or(0))
            .sum()
    };
    Ok(LiveRep {
        decision_wall_us: stats::sorted(&decision_wall_us),
        frames_out: counter("tcp.frames_out"),
        bytes_out: counter("tcp.bytes_out"),
        connect_retries: counter("tcp.connect_retries"),
        send_errors: counter("host.send_errors"),
        decode_errors: counter("tcp.decode_errors"),
        issue_lag_us_max: outcome
            .nodes
            .iter()
            .filter_map(|n| n.snapshot.histogram("host.loop_lag_wall_us"))
            .map(|h| h.max_us())
            .max()
            .unwrap_or(0),
        report: outcome.report,
    })
}

/// The live run's oracle: the same scenario through the DES backend.
pub fn run_oracle(scenario: &Scenario) -> RunReport {
    DesTransport::new(Scheme::Lvf.options()).run(scenario)
}

/// Decision-level agreement between a live run and its oracle: the outcome
/// tallies and the byte total, which delivery timing must not change.
pub fn matches_oracle(oracle: &RunReport, live: &RunReport) -> bool {
    oracle.resolved == live.resolved
        && oracle.viable == live.viable
        && oracle.infeasible == live.infeasible
        && oracle.missed == live.missed
        && oracle.total_bytes == live.total_bytes
}

/// Results of the transport benchmarks on bare `TcpTransport` endpoints.
#[derive(Default)]
pub struct TcpBench {
    pub send_to_us_p50: f64,
    pub rtt_us_p50: f64,
    pub oneway_frames_per_s: f64,
    pub fanout_frames_per_s: f64,
}

const TCP_PINGS: usize = 2000;
const TCP_FLOOD: u64 = 20_000;
/// How long the transport benchmark waits for a frame before it gives up.
const TCP_PATIENCE_S: f64 = 20.0;

fn probe_msg(i: u64) -> AthenaMsg {
    AthenaMsg::Request {
        name: "/bench/seg/x/cam".parse().expect("valid name"),
        wanted: vec![Label::new("x")],
        qid: QueryId(i),
        origin: NodeId(0),
        kind: RequestKind::Fetch,
    }
}

/// Four endpoints on loopback, node 0 adjacent to 1, 2 and 3, no host loop:
/// what a frame costs below the `Transport` seam.
pub fn tcp_bench() -> Result<TcpBench, String> {
    const N: usize = 4;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut listeners = Vec::with_capacity(N);
    let mut book = Vec::with_capacity(N);
    for _ in 0..N {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| err(&e))?;
        book.push(listener.local_addr().map_err(|e| err(&e))?);
        listeners.push(listener);
    }
    let book = Arc::new(book);
    let clock = Arc::new(VirtualClock::start(1));
    let mut endpoints = Vec::with_capacity(N);
    for (i, listener) in listeners.into_iter().enumerate() {
        let neighbors = if i == 0 {
            (1..N).map(NodeId).collect()
        } else {
            vec![NodeId(0)]
        };
        let registry = Arc::new(MetricsRegistry::new());
        let health = Arc::new(HealthState::new(Arc::clone(&registry)));
        endpoints.push(
            TcpTransport::new(
                NodeId(i),
                listener,
                Arc::clone(&book),
                neighbors,
                Arc::clone(&clock),
                &registry,
                health,
            )
            .map_err(|e| err(&e))?,
        );
    }

    // Every endpoint counts what it receives; 0 and 1 also forward into a
    // channel, as a host loop would, for the ping-pong.
    let received: Vec<Arc<AtomicU64>> = (0..N).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let (pong_tx, pong_rx) = mpsc::channel::<()>();
    let (ping_tx, ping_rx) = mpsc::channel::<()>();
    for (i, endpoint) in endpoints.iter_mut().enumerate() {
        let count = Arc::clone(&received[i]);
        let forward = match i {
            0 => Some(pong_tx.clone()),
            1 => Some(ping_tx.clone()),
            _ => None,
        };
        endpoint.set_message_handler(Box::new(move |_, _| {
            // Statistic only; the channel send below is what synchronises.
            count.fetch_add(1, Ordering::Relaxed);
            if let Some(tx) = &forward {
                let _ = tx.send(());
            }
        }));
    }
    let wait_for = |who: usize, target: u64| -> Result<(), String> {
        let start = calib::now();
        while received[who].load(Ordering::Relaxed) < target {
            if calib::secs_since(start) > TCP_PATIENCE_S {
                return Err(format!("node {who} did not receive {target} frames"));
            }
            std::thread::yield_now();
        }
        Ok(())
    };

    let patience = std::time::Duration::from_secs_f64(TCP_PATIENCE_S);
    let mut out = TcpBench::default();
    let result = std::thread::scope(|scope| -> Result<(), String> {
        let (hub, spokes) = endpoints.split_first().expect("four endpoints");
        // Node 1 answers each ping with a pong, on a thread of its own as a
        // host loop would.
        let echo = scope.spawn(move || {
            for _ in 0..TCP_PINGS {
                if ping_rx.recv_timeout(patience).is_err()
                    || spokes[0].send_to(NodeId(0), &probe_msg(0)).is_err()
                {
                    break;
                }
            }
        });

        // Ping-pong: also the first frames, so they pay the connects.
        let mut send_us = Vec::with_capacity(TCP_PINGS);
        let mut rtt_us = Vec::with_capacity(TCP_PINGS);
        for i in 0..TCP_PINGS {
            let start = calib::now();
            hub.send_to(NodeId(1), &probe_msg(i as u64))
                .map_err(|e| err(&e))?;
            send_us.push(calib::secs_since(start) * 1e6);
            pong_rx.recv_timeout(patience).map_err(|e| err(&e))?;
            rtt_us.push(calib::secs_since(start) * 1e6);
        }
        out.send_to_us_p50 = stats::median(&send_us);
        out.rtt_us_p50 = stats::median(&rtt_us);
        echo.join()
            .map_err(|_| "echo thread panicked".to_string())?;

        // One-way flood to node 2, counted in its handler.
        let start = calib::now();
        for i in 0..TCP_FLOOD {
            hub.send_to(NodeId(2), &probe_msg(i)).map_err(|e| err(&e))?;
        }
        wait_for(2, TCP_FLOOD)?;
        out.oneway_frames_per_s = TCP_FLOOD as f64 / calib::secs_since(start);

        // Fan-out: three threads share node 0's endpoint, one peer each —
        // the case its node-wide connection table serialises.
        let base: Vec<u64> = (0..N)
            .map(|i| received[i].load(Ordering::Relaxed))
            .collect();
        let start = calib::now();
        let senders: Vec<_> = (1..N)
            .map(|peer| {
                scope.spawn(move || {
                    (0..TCP_FLOOD / 3)
                        .try_for_each(|i| hub.send_to(NodeId(peer), &probe_msg(i)))
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        for sender in senders {
            sender
                .join()
                .map_err(|_| "sender thread panicked".to_string())??;
        }
        for (peer, before) in base.iter().enumerate().skip(1) {
            wait_for(peer, before + TCP_FLOOD / 3)?;
        }
        out.fanout_frames_per_s = (TCP_FLOOD / 3 * 3) as f64 / calib::secs_since(start);
        Ok(())
    });
    for endpoint in &mut endpoints {
        let _ = endpoint.shutdown();
    }
    result.map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_scenario_is_a_function_of_the_seed_and_uses_each_label_twice() {
        let a = chain_scenario(7);
        let b = chain_scenario(7);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.catalog.objects(), b.catalog.objects());
        assert_ne!(a.queries, chain_scenario(8).queries);

        assert_eq!(a.queries.len(), CHAIN_QUERIES);
        let mut uses = std::collections::BTreeMap::new();
        for q in &a.queries {
            let labels = q.expr.labels();
            assert_eq!(labels.len(), 2, "two-label queries");
            for label in labels {
                uses.entry(label).or_insert_with(Vec::new).push(q.id);
            }
        }
        assert_eq!(
            uses.len(),
            CHAIN_QUERIES,
            "the whole label universe is used"
        );
        for (label, ids) in &uses {
            assert_eq!(ids.len(), 2, "{label:?} is needed exactly twice");
            // Far enough apart that the first fetch is long over.
            assert!(
                ids[1] - ids[0] >= CHAIN_QUERIES as u64 / 2 - 1,
                "{label:?} at {ids:?}"
            );
        }
    }

    #[test]
    fn traced_run_reproduces_the_plain_run_and_records_every_callback() {
        let scenario = chain_scenario(3);
        for engine in [Engine::Classic, Engine::ClassicObserved, Engine::Sharded] {
            let plain = run(engine, Scheme::Lvf, &scenario).finish();
            span::start(1 << 16);
            let traced = run_traced(engine, Scheme::Lvf, &scenario, None);
            let (spans, dropped) = span::finish();
            let sink_records = traced.sink_records;
            let got = traced.output.finish();
            assert_eq!(dropped, 0);
            assert!(
                got.0 == plain.0,
                "{engine:?}: traced report equals plain report"
            );
            assert_eq!(got.1, plain.1, "{engine:?}: same trace bytes");
            assert_eq!(got.1.is_some(), engine == Engine::ClassicObserved);

            let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
            assert_eq!(count(RUN), 1);
            assert_eq!(count(ENGINE_RUN), 1);
            assert_eq!(count(ON_EXTERNAL), CHAIN_QUERIES, "one issue per query");
            assert_eq!(count(ON_TIMER_DEADLINE), CHAIN_QUERIES);
            assert!(count(ON_MESSAGE[1]) > 0 && count(ON_MESSAGE[2]) > 0);
            assert_eq!(count(SINK_RECORD) as u64, sink_records);
            assert_eq!(sink_records > 0, engine == Engine::ClassicObserved);
            assert_eq!(spans[0].parent, span::NO_PARENT, "the run span is the root");
        }
    }

    #[test]
    fn capture_feeds_every_replay_benchmark() {
        let scenario = chain_scenario(3);
        let mut corpus = Corpus::default();
        run_traced(
            Engine::ClassicObserved,
            Scheme::Lvf,
            &scenario,
            Some(&mut corpus),
        );
        assert!(!corpus.msgs.is_empty() && !corpus.records.is_empty());
        let r = replay(&corpus, 1, &scenario);
        // The chain runs scheme lvf, which shares no labels.
        for (k, kind) in KINDS.iter().enumerate().take(3) {
            assert!(
                r.frame_encode_ns[k] > 0.0 && r.frame_decode_ns[k] > 0.0,
                "{kind}"
            );
        }
        assert_eq!(
            r.frame_encode_ns[3], 0.0,
            "nothing captured, nothing replayed"
        );
        let all = [
            r.frame_bytes_mean,
            r.plan_dnf_ns,
            r.greedy_cover_ns,
            r.resolution_ns,
            r.name_parse_ns,
            r.store_insert_ns,
            r.store_insert_evict_ns,
            r.store_get_fresh_ns,
            r.pit_register_take_ns,
            r.ledger_fold_ms,
            r.feedback_fold_ms,
        ];
        assert!(all.iter().all(|v| *v > 0.0), "{all:?}");
    }

    #[test]
    fn digest_tells_traces_apart() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_eq!(digest(b"abc").bytes, 3);
    }

    #[test]
    fn oracle_matches_itself_and_not_a_different_scenario() {
        let a = run_oracle(&chain_scenario(3));
        assert!(matches_oracle(&a, &a));
        assert!(!matches_oracle(&a, &run_oracle(&chain_scenario(4))));
        let o = outcome(&a);
        assert_eq!(o.queries, CHAIN_QUERIES as u64);
        assert_eq!(o.resolved, o.queries, "no operation fails on this workload");
        assert_eq!(o.latencies_s.len() as u64, o.resolved);
    }
}
