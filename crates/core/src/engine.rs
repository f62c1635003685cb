//! The experiment engine: scenario + strategy → one measured run (§VII).
//!
//! Builds a [`ShardedSimulator`] of [`AthenaNode`]s over the scenario
//! topology, injects the decision queries at their issue times, runs to
//! quiescence, and collects the two quantities the paper's figures report —
//! the query resolution ratio (Fig. 2) and total network bandwidth (Fig. 3)
//! — plus a breakdown useful for the ablations.

use crate::annotate::{Annotator, GroundTruthAnnotator, TrustPolicy};
use crate::node::{AthenaEvent, AthenaNode, SharedWorld};
use crate::query::{QueryOutcome, QueryStatus};
use crate::strategy::Strategy;
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::fault::FaultSchedule;
use dde_netsim::shard::ShardedSimulator;
use dde_netsim::{Metrics, NodeId};
use dde_obs::{CostLedger, Histogram, LedgerSink, Sink, TeeSink, TraceRecord};
use dde_workload::scenario::Scenario;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Options for one run: the configuration every node of the run shares,
/// plus how the run is driven (announce lead, medium, drain, faults, seed).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The strategy under test.
    pub strategy: Strategy,
    /// Whether sources push prefetches on hearing query announcements
    /// (prefetch pushes ride as background traffic). Off by default: the
    /// headline figures compare pure retrieval protocols; the prefetch
    /// ablation and the Fig. 1 walkthrough turn it on.
    pub prefetch: bool,
    /// Trust policy for shared labels.
    pub trust: TrustPolicy,
    /// Per-node content-store capacity in bytes.
    pub cache_capacity: u64,
    /// Approximate name substitution (§V-A): when the exact object is not
    /// cached, serve the fresh cached object sharing at least this many
    /// leading name components. `None` disables substitution.
    pub approx_min_shared: Option<usize>,
    /// Criticality classes over the name space (§V-C): objects in a
    /// [`Criticality::Critical`] region are exempt from approximation.
    ///
    /// [`Criticality::Critical`]: dde_naming::criticality::Criticality::Critical
    pub criticality: dde_naming::criticality::CriticalityMap,
    /// How many independent pieces of evidence must corroborate a label
    /// before it is accepted (§IV-B, "Noisy sensor data"); 1 = accept the
    /// first annotation. When fewer distinct providers exist, the node
    /// accepts the majority of whatever it could gather.
    pub corroboration: usize,
    /// Anticipation lead (§VIII): announce each query's decision structure
    /// this long before it is issued, so prefetching can stage evidence.
    /// Only meaningful with prefetch enabled.
    pub announce_lead: Option<SimDuration>,
    /// Sub-additive utility triage for *background* traffic (§V-B): a
    /// prefetch push is dropped at a hop when its marginal utility
    /// `1 − max_similarity` against recently pushed names on that link
    /// falls below this threshold. `None` disables triage.
    pub triage_threshold: Option<f64>,
    /// Medium model: wired point-to-point (default) or one shared radio
    /// transmitter per node, as in the paper's wireless emulation.
    pub medium: dde_netsim::MediumMode,
    /// Extra simulated time after the last deadline before the run is cut
    /// off.
    pub drain: SimDuration,
    /// Deterministic fault timeline, merged with whatever churn the
    /// scenario itself schedules. An empty schedule reproduces the
    /// fault-free run bit-for-bit.
    pub faults: FaultSchedule,
    /// Whether a crashed node loses its content store and label cache on
    /// recovery (RAM-backed caches) or keeps them (flash-backed caches).
    /// Volatile forwarding state — PIT, prefetch queue, in-flight fetch
    /// bookkeeping — is always lost.
    pub crash_wipes_cache: bool,
    /// Online adaptive planning: when set, each node learns short-circuit
    /// probabilities per (name-prefix, condition) from its own annotations
    /// ([`dde_sched::TruthEstimator`]) and plans with them in place of the
    /// static prior. Off — the default — reproduces the static planners
    /// byte-for-byte.
    pub adaptive: bool,
    /// Simulator seed (link-loss sampling).
    pub seed: u64,
}

impl RunOptions {
    /// Defaults for `strategy`.
    pub fn new(strategy: Strategy) -> RunOptions {
        RunOptions {
            strategy,
            prefetch: false,
            trust: TrustPolicy::TrustAll,
            cache_capacity: 64_000_000,
            approx_min_shared: None,
            criticality: dde_naming::criticality::CriticalityMap::new(),
            corroboration: 1,
            announce_lead: None,
            triage_threshold: None,
            medium: dde_netsim::MediumMode::FullDuplex,
            drain: SimDuration::from_secs(5),
            faults: FaultSchedule::new(),
            crash_wipes_cache: false,
            adaptive: false,
            seed: 7,
        }
    }
}

/// Per-query record for downstream analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// The query's id.
    pub id: crate::msg::QueryId,
    /// The issuing node.
    pub origin: dde_netsim::NodeId,
    /// Terminal status.
    pub status: QueryStatus,
    /// Issue-to-decision latency, when decided.
    pub latency: Option<SimDuration>,
    /// Requests sent, labels from data/shares/local, expiries.
    pub counters: crate::query::QueryCounters,
}

/// Aggregated results of one run.
///
/// Implements full [`PartialEq`]: two reports compare equal only when every
/// metric and every per-query record matches, which is exactly the property
/// the determinism regression tests assert (same seed + same fault schedule
/// ⇒ identical report).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// Total queries issued.
    pub total_queries: usize,
    /// Queries decided (either way) by their deadline.
    pub resolved: usize,
    /// Queries decided with a viable course of action.
    pub viable: usize,
    /// Queries decided infeasible.
    pub infeasible: usize,
    /// Queries that missed their deadline.
    pub missed: usize,
    /// Decided queries whose outcome matches ground truth at decision time.
    pub accurate: usize,
    /// Total bytes clocked onto all links.
    pub total_bytes: u64,
    /// Bytes by message kind (`announce`, `request`, `data`, `label`).
    pub bytes_by_kind: BTreeMap<&'static str, u64>,
    /// Mean time from issue to decision over decided queries.
    pub mean_resolution_latency: Option<SimDuration>,
    /// Requests answered from intermediate caches (sum over nodes).
    pub cache_hits: u64,
    /// Requests answered with shared labels (sum over nodes).
    pub label_hits: u64,
    /// Labels resolved by co-located sampling (no network).
    pub local_samples: u64,
    /// Source-side prefetch pushes.
    pub prefetch_pushes: u64,
    /// Requests answered with approximate (same-prefix) substitutes.
    pub approx_hits: u64,
    /// Background pushes dropped by utility triage (§V-B).
    pub triage_drops: u64,
    /// Number of fault events installed for this run (0 = fault-free).
    pub fault_events: usize,
    /// In-flight messages dropped because a fault took down their
    /// destination or link.
    pub messages_dropped_by_fault: u64,
    /// Queued (never transmitted) messages purged when their sender
    /// crashed or their link went down.
    pub messages_purged_by_fault: u64,
    /// Simulated time at which the run ended.
    pub finished_at: SimTime,
    /// Events processed by the simulator.
    pub events: u64,
    /// Fixed-bucket histogram of issue-to-decision latencies over decided
    /// queries; see [`RunReport::latency_p50`].
    pub latency_hist: Histogram,
    /// Per-node protocol counters, indexed by node id.
    pub node_stats: Vec<crate::node::NodeStats>,
    /// One record per query, in (origin, id) order.
    pub queries: Vec<QueryRecord>,
    /// Per-decision resource attribution, folded live from the trace
    /// stream. `Some` only for observed runs
    /// ([`run_scenario_observed`]) — the unobserved paths skip ledger
    /// bookkeeping entirely so their hot path stays free of it.
    pub ledger: Option<CostLedger>,
}

impl RunReport {
    /// The paper's Fig. 2 metric: fraction of queries decided by deadline.
    pub fn resolution_ratio(&self) -> f64 {
        if self.total_queries == 0 {
            return 1.0;
        }
        self.resolved as f64 / self.total_queries as f64
    }

    /// Fraction of decided queries that match ground truth.
    pub fn accuracy(&self) -> f64 {
        if self.resolved == 0 {
            return 1.0;
        }
        self.accurate as f64 / self.resolved as f64
    }

    /// Total bandwidth in megabytes (Fig. 3's unit).
    pub fn total_megabytes(&self) -> f64 {
        self.total_bytes as f64 / 1e6
    }

    /// Median issue-to-decision latency (bucket resolution); `None` if no
    /// query was decided.
    pub fn latency_p50(&self) -> Option<SimDuration> {
        self.latency_hist.p50()
    }

    /// Mean attributed bytes per resolved decision, from the run's cost
    /// ledger. `None` when the run was not observed or nothing resolved.
    pub fn cost_per_decision(&self) -> Option<f64> {
        self.ledger.as_ref().and_then(|l| l.cost_per_decision())
    }
}

/// Runs `scenario` under `options` with ground-truth annotators.
pub fn run_scenario(scenario: &Scenario, options: RunOptions) -> RunReport {
    run(scenario, options, Arc::new(GroundTruthAnnotator), None)
}

/// Runs `scenario` with a trace sink observing the full event lifecycle:
/// every link-layer event from the simulator and every protocol decision
/// from the Athena nodes flows into `sink`, stamped with simulated time.
/// The sink is flushed before the report is returned.
pub fn run_scenario_observed(
    scenario: &Scenario,
    options: RunOptions,
    sink: Box<dyn Sink>,
) -> RunReport {
    run(
        scenario,
        options,
        Arc::new(GroundTruthAnnotator),
        Some(sink),
    )
}

/// Runs `scenario` with a custom annotator (noise/reliability ablations).
pub fn run_scenario_with_annotator(
    scenario: &Scenario,
    options: RunOptions,
    annotator: Arc<dyn Annotator + Send + Sync>,
) -> RunReport {
    run(scenario, options, annotator, None)
}

/// [`run_scenario`]; the last argument is ignored. There is one event loop
/// and it runs on the calling thread. The name stays because the frozen
/// `benchmark/` calls it.
pub fn run_scenario_sharded(
    scenario: &Scenario,
    options: RunOptions,
    _threads: usize,
) -> RunReport {
    run_scenario(scenario, options)
}

/// The one run body behind every `run_scenario*` entry point.
fn run(
    scenario: &Scenario,
    options: RunOptions,
    annotator: Arc<dyn Annotator + Send + Sync>,
    sink: Option<Box<dyn Sink>>,
) -> RunReport {
    let shared = build_shared_world(scenario, &options);
    let nodes = build_nodes(scenario, &shared, &annotator);
    let mut sim = ShardedSimulator::new(scenario.topology.clone(), nodes, options.seed, 1);
    sim.set_medium(options.medium);
    // Observed runs tee the event stream into a live cost ledger alongside
    // the caller's sink, so every observed run gets per-decision
    // attribution for free; unobserved runs skip the machinery entirely.
    // The run owns its ledger and the event loop is its only writer, so a
    // record takes the caller's lock, if any, and no other.
    let ledger = sink.map(|user| {
        let ledger = RunLedger::default();
        sim.set_sink(Box::new(TeeSink::new(user, Box::new(ledger.clone()))));
        ledger
    });

    // Faults: whatever the scenario schedules (churn config) plus whatever
    // the caller adds on top (partitions, targeted crashes). Installing an
    // empty schedule is a strict no-op.
    let mut faults = scenario.faults.clone();
    faults.merge(&options.faults);
    sim.install_faults(&faults);

    let (stimuli, horizon) = schedule(scenario, &options);
    for (at, origin, event) in stimuli {
        sim.schedule_external(at, origin, event);
    }
    sim.run_until(horizon);

    // Flushing here (rather than leaving it to the caller) guarantees
    // streaming sinks have written the complete trace before the report is
    // in hand. A flush failure must not invalidate the run itself, so it
    // is not returned here: a sink keeps its write error for its owner
    // (`JsonlSink::into_inner`).
    let _ = sim.sink_mut().flush();
    let nodes: Vec<&AthenaNode> = sim.nodes().collect();
    let mut report = collect_report_parts(
        sim.metrics(),
        sim.now(),
        sim.events_processed(),
        &nodes,
        scenario,
        options.strategy,
        faults.len(),
    );
    report.ledger = ledger.map(|l| l.0.borrow_mut().take_ledger());
    report
}

/// The live cost ledger of one observed run: a [`LedgerSink`] the
/// simulator writes through its sink while [`run`] keeps a handle to take
/// the ledger back afterwards. Single-threaded, so a record costs a flag
/// check where a [`dde_obs::SharedSink`] would take a lock.
#[derive(Debug, Clone, Default)]
struct RunLedger(Rc<RefCell<LedgerSink>>);

impl Sink for RunLedger {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.borrow_mut().record(rec);
    }
}

/// The stimuli of one run and its horizon — the one schedule every backend
/// installs. For each query in scenario order: its
/// [`AthenaEvent::AnnounceOnly`] [`RunOptions::announce_lead`] ahead of
/// the issue (when a lead is set), then its [`AthenaEvent::Issue`], each as
/// `(fire at, origin, event)`. The horizon is the last deadline plus
/// [`RunOptions::drain`].
pub fn schedule(
    scenario: &Scenario,
    options: &RunOptions,
) -> (Vec<(SimTime, NodeId, AthenaEvent)>, SimTime) {
    let mut stimuli = Vec::with_capacity(scenario.queries.len() * 2);
    let mut last_deadline = SimTime::ZERO;
    for q in &scenario.queries {
        if let Some(lead) = options.announce_lead {
            stimuli.push((
                q.issue_at - lead,
                q.origin,
                AthenaEvent::AnnounceOnly(q.clone()),
            ));
        }
        stimuli.push((q.issue_at, q.origin, q.clone().into()));
        last_deadline = last_deadline.max(q.issue_at + q.deadline);
    }
    (stimuli, last_deadline + options.drain)
}

/// Builds the world + options shared by every node of a run. Public so
/// alternative engines (the `dde-net` live-transport host) assemble node
/// state exactly as the DES entry points do.
pub fn build_shared_world(scenario: &Scenario, options: &RunOptions) -> Arc<SharedWorld> {
    Arc::new(SharedWorld {
        catalog: scenario.catalog.clone(),
        world: scenario.world.clone(),
        options: options.clone(),
        prob_true_prior: scenario.config.prob_viable,
        planning_bandwidth_bps: scenario.config.link_bandwidth_bps,
    })
}

/// One Athena node per topology node, all sharing `shared` + `annotator`.
pub fn build_nodes(
    scenario: &Scenario,
    shared: &Arc<SharedWorld>,
    annotator: &Arc<dyn Annotator + Send + Sync>,
) -> Vec<AthenaNode> {
    (0..scenario.topology.len())
        .map(|_| AthenaNode::new(Arc::clone(shared), Arc::clone(annotator)))
        .collect()
}

/// Backend-agnostic report assembly: the simulator and the `dde-net`
/// live-transport host both reduce to the same
/// `(metrics, clock, event count, node states)` observables.
pub fn collect_report_parts(
    metrics: &Metrics,
    finished_at: SimTime,
    events: u64,
    nodes: &[&AthenaNode],
    scenario: &Scenario,
    strategy: Strategy,
    fault_events: usize,
) -> RunReport {
    let mut report = RunReport {
        strategy,
        total_queries: scenario.queries.len(),
        resolved: 0,
        viable: 0,
        infeasible: 0,
        missed: 0,
        accurate: 0,
        total_bytes: metrics.bytes_sent,
        bytes_by_kind: metrics.kinds().map(|(k, c)| (k, c.bytes)).collect(),
        mean_resolution_latency: None,
        cache_hits: 0,
        label_hits: 0,
        local_samples: 0,
        prefetch_pushes: 0,
        approx_hits: 0,
        triage_drops: 0,
        fault_events,
        messages_dropped_by_fault: metrics.messages_dropped_by_fault,
        messages_purged_by_fault: metrics.messages_purged_by_fault,
        finished_at,
        events,
        latency_hist: Histogram::new(),
        node_stats: nodes.iter().map(|n| n.stats).collect(),
        queries: Vec::with_capacity(scenario.queries.len()),
        ledger: None,
    };

    let mut latency_sum = SimDuration::ZERO;
    let mut latency_count = 0u64;
    for (index, node) in nodes.iter().enumerate() {
        // `nodes` is indexed by node id, and a query lives only where it
        // was issued.
        let origin = dde_netsim::NodeId(index);
        report.cache_hits += node.stats.cache_hits;
        report.label_hits += node.stats.label_hits;
        report.local_samples += node.stats.local_samples;
        report.prefetch_pushes += node.stats.prefetch_pushes;
        report.approx_hits += node.stats.approx_hits;
        report.triage_drops += node.stats.triage_drops;
        for q in node.queries() {
            debug_assert!(
                scenario
                    .queries
                    .iter()
                    .any(|inst| inst.id == q.id.0 && inst.origin == origin),
                "query {} is held by {origin}, which the scenario does not name as its origin",
                q.id.0
            );
            report.queries.push(QueryRecord {
                id: q.id,
                origin,
                status: q.status,
                latency: q.resolution_latency(),
                counters: q.counters,
            });
            match q.status {
                QueryStatus::Decided { outcome, at } => {
                    report.resolved += 1;
                    match outcome {
                        QueryOutcome::Viable(i) => {
                            report.viable += 1;
                            // Accurate iff the chosen route is truly viable
                            // at decision time.
                            let term = &q.expr.terms()[i];
                            let truly = term.labels().all(|l| scenario.world.value(l, at));
                            if truly {
                                report.accurate += 1;
                            }
                        }
                        QueryOutcome::Infeasible => {
                            report.infeasible += 1;
                            let truly = q
                                .expr
                                .terms()
                                .iter()
                                .all(|t| t.labels().any(|l| !scenario.world.value(l, at)));
                            if truly {
                                report.accurate += 1;
                            }
                        }
                    }
                    let latency = at.saturating_since(q.issued_at);
                    latency_sum += latency;
                    latency_count += 1;
                    report.latency_hist.record(latency);
                }
                QueryStatus::Missed => report.missed += 1,
                QueryStatus::Pending => {
                    // Ran out of simulated time before the deadline fired;
                    // count as missed for reporting purposes.
                    report.missed += 1;
                }
            }
        }
    }
    if latency_count > 0 {
        report.mean_resolution_latency = Some(latency_sum / latency_count);
    }
    report
}

/// Runs all five strategies on the same scenario; convenience for the
/// figure harnesses.
pub fn run_all_strategies(scenario: &Scenario, seed: u64) -> Vec<RunReport> {
    Strategy::ALL
        .iter()
        .map(|&s| {
            let mut o = RunOptions::new(s);
            o.seed = seed;
            run_scenario(scenario, o)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_workload::scenario::ScenarioConfig;

    fn small_scenario(seed: u64, fast_ratio: f64) -> Scenario {
        Scenario::build(
            ScenarioConfig::small()
                .with_seed(seed)
                .with_fast_ratio(fast_ratio),
        )
    }

    #[test]
    fn lvf_resolves_small_scenario() {
        let s = small_scenario(3, 0.2);
        let r = run_scenario(&s, RunOptions::new(Strategy::Lvf));
        assert_eq!(r.total_queries, 8);
        assert!(
            r.resolution_ratio() > 0.7,
            "lvf resolved only {}/{}",
            r.resolved,
            r.total_queries
        );
        assert!(r.total_bytes > 0);
        assert_eq!(
            r.resolved + r.missed,
            r.total_queries,
            "every query accounted for"
        );
    }

    #[test]
    fn ground_truth_annotation_is_accurate() {
        let s = small_scenario(4, 0.2);
        let r = run_scenario(&s, RunOptions::new(Strategy::Lvf));
        assert!(r.resolved > 0);
        assert_eq!(
            r.accuracy(),
            1.0,
            "fresh ground-truth annotations must be accurate"
        );
    }

    #[test]
    fn label_sharing_does_not_hurt_resolution() {
        let s = small_scenario(5, 0.4);
        let lvf = run_scenario(&s, RunOptions::new(Strategy::Lvf));
        let lvfl = run_scenario(&s, RunOptions::new(Strategy::LvfLabelShare));
        assert!(lvfl.resolved >= lvf.resolved.saturating_sub(1));
    }

    #[test]
    fn deterministic_runs() {
        let s = small_scenario(6, 0.4);
        let a = run_scenario(&s, RunOptions::new(Strategy::Lvf));
        let b = run_scenario(&s, RunOptions::new(Strategy::Lvf));
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.resolved, b.resolved);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn schedule_announces_ahead_then_issues_each_query_in_scenario_order() {
        let s = small_scenario(8, 0.4);
        let mut options = RunOptions::new(Strategy::Lvf);
        let lead = SimDuration::from_secs(2);
        options.announce_lead = Some(lead);
        options.drain = SimDuration::from_secs(9);
        let (stimuli, horizon) = schedule(&s, &options);

        assert_eq!(stimuli.len(), 2 * s.queries.len());
        for (q, pair) in s.queries.iter().zip(stimuli.chunks(2)) {
            let (announce_at, announce_origin, announce) = &pair[0];
            let (issue_at, issue_origin, issue) = &pair[1];
            assert_eq!(*announce_at, q.issue_at - lead);
            assert_eq!(*issue_at, q.issue_at);
            assert_eq!((*announce_origin, *issue_origin), (q.origin, q.origin));
            assert!(matches!(announce, AthenaEvent::AnnounceOnly(a) if a == q));
            assert!(matches!(issue, AthenaEvent::Issue(i) if i == q));
        }
        let last_deadline = s.queries.iter().map(|q| q.issue_at + q.deadline).max();
        assert_eq!(Some(horizon), last_deadline.map(|d| d + options.drain));

        options.announce_lead = None;
        let (issues, same_horizon) = schedule(&s, &options);
        assert_eq!(same_horizon, horizon);
        assert!(issues
            .iter()
            .zip(&s.queries)
            .all(|((at, _, e), q)| *at == q.issue_at && matches!(e, AthenaEvent::Issue(_))));
        assert_eq!(issues.len(), s.queries.len());
    }

    #[test]
    fn run_all_returns_five_reports() {
        let s = small_scenario(7, 0.4);
        let reports = run_all_strategies(&s, 1);
        assert_eq!(reports.len(), 5);
        let codes: Vec<_> = reports.iter().map(|r| r.strategy.code()).collect();
        assert_eq!(codes, vec!["cmp", "slt", "lcf", "lvf", "lvfl"]);
    }
}
