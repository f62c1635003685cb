//! The Athena node protocol (§VI).
//!
//! Each node implements the paper's six functions over the simulated
//! network, one file per side of the protocol:
//!
//! - `Query_Init`, `Request_Send` (`origin.rs`) — [`Protocol::on_external`]
//!   creates the query's record, announces the Boolean expression down the
//!   origin's routing tree, and starts the decision-driven (or baseline)
//!   retrieval loop; an annotator turns delivered evidence into label
//!   values, which under `lvfl` are shared back toward the data source
//!   (§VI-D);
//! - `Request_Recv`, `Data_Send` / `Data_Recv` (`forward.rs`) — hop-by-hop
//!   object requests with a Pending Interest Table for duplicate
//!   suppression, served from caches when a fresh copy (or, under `lvfl`, a
//!   fresh trusted label) exists; evidence flows back along interests,
//!   cached at every hop;
//! - `Query_Recv` (`prefetch.rs`) — receivers of the announce may *prefetch*
//!   (source-side push, exactly the Fig. 1 pattern), in the background.
//!
//! This file holds what they share: configuration, the node's state, and
//! the [`Protocol`] dispatch. Everything the node keeps for a query it
//! originated lives in one `LocalQuery` record, reached through
//! `AthenaNode::local`.

mod forward;
mod origin;
mod prefetch;
#[cfg(test)]
mod tests;

use crate::annotate::Annotator;
use crate::engine::RunOptions;
use crate::msg::{AthenaMsg, QueryId};
use crate::object::EvidenceObject;
use crate::query::{QueryOutcome, QueryState, QueryStatus};
use crate::strategy::PlanTable;
use dde_logic::dnf::Dnf;
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_naming::fib::Pit;
use dde_naming::name::Name;
use dde_naming::store::ContentStore;
use dde_netsim::sim::{Context, Protocol};
use dde_netsim::topology::NodeId;
use dde_obs::EventKind;
use dde_sched::adaptive::TruthEstimator;
use dde_workload::catalog::{Catalog, ObjectSpec};
use dde_workload::scenario::QueryInstance;
use dde_workload::world::WorldModel;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Timer tag of the wake-up timer; deadline timers carry `qid + 1`. The
/// value stays 0: `benchmark/src/layers.rs` reads tag 0 as the
/// `core.on_timer_tick` span, and `benchmark/` is frozen.
const WAKE_TAG: u64 = 0;

/// Re-check period where no event announces a change: a query whose
/// chosen source has no route (the node is not told when the topology
/// heals), a timed-out fetch that could not be replaced, and the pacing of
/// background prefetch pushes, one per period (§VI-A).
const POLL: SimDuration = SimDuration::from_millis(250);

/// The step from the last instant a condition holds to the first instant
/// it does not: time is counted in whole microseconds.
const ONE_US: SimDuration = SimDuration::from_micros(1);

/// Re-issue an unanswered fetch after this long.
const RETRY_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Minimum remaining validity a cached object or label must have to be
/// served to a *remote* requester. Serving a nearly-expired copy wastes
/// bandwidth: it goes stale before the requester's decision completes and
/// triggers a refetch.
const SERVE_HEADROOM: SimDuration = SimDuration::from_secs(15);

/// Lifetime of a pending interest.
const INTEREST_LIFETIME: SimDuration = SimDuration::from_secs(60);

/// Corroboration votes for one (query, label): source → (judgment,
/// sampled_at, validity).
type VoteSet = BTreeMap<NodeId, (bool, SimTime, SimDuration)>;

/// Who registered a pending interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Requester {
    /// A query on this node.
    Local,
    /// A neighbor that forwarded a request to us.
    Neighbor(NodeId),
}

/// A label value cached at a node, with the annotator's signature.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedLabel {
    /// The judged value.
    pub value: bool,
    /// Sampling time of the underlying evidence.
    pub sampled_at: SimTime,
    /// Validity of the underlying evidence.
    pub validity: SimDuration,
    /// Who judged it.
    pub annotator: NodeId,
    /// The evidence it is based on.
    pub based_on: Name,
}

impl CachedLabel {
    /// Whether the cached value is still fresh at `now`.
    pub fn is_fresh_at(&self, now: SimTime) -> bool {
        now <= self.sampled_at.saturating_add(self.validity)
    }
}

/// Immutable state shared by all nodes of one run.
#[derive(Debug)]
pub struct SharedWorld {
    /// The advertised-object catalog (the lookup service of refs \[8, 9]).
    pub catalog: Catalog,
    /// Ground truth.
    pub world: WorldModel,
    /// The run's options; every node reads its configuration from here.
    pub options: RunOptions,
    /// Prior probability a condition is true (drives short-circuit
    /// ratios): the scenario's `prob_viable`.
    pub prob_true_prior: f64,
    /// Bottleneck bandwidth assumed by the retrieval planner: the
    /// scenario's link bandwidth.
    pub planning_bandwidth_bps: u64,
}

impl SharedWorld {
    /// A world for a hand-built catalog and ground truth, planned with the
    /// paper configuration's prior (0.8) and link bandwidth (1 Mbps).
    pub fn new(catalog: Catalog, world: WorldModel, options: RunOptions) -> SharedWorld {
        SharedWorld {
            catalog,
            world,
            options,
            prob_true_prior: 0.8,
            planning_bandwidth_bps: 1_000_000,
        }
    }
}

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests answered from the local content store.
    pub cache_hits: u64,
    /// Requests answered with a shared label instead of data.
    pub label_hits: u64,
    /// Labels resolved by sampling a co-located sensor (no network).
    pub local_samples: u64,
    /// Requests answered with an approximate (same-prefix) substitute.
    pub approx_hits: u64,
    /// Prefetch pushes initiated (this node as source).
    pub prefetch_pushes: u64,
    /// Query announcements heard for the first time, each relayed to this
    /// node's children in the origin's routing tree (none at a leaf).
    pub announces_relayed: u64,
    /// Foreground requests forwarded toward sources.
    pub requests_forwarded: u64,
    /// Data messages forwarded toward requesters.
    pub data_forwarded: u64,
    /// Label shares forwarded onward.
    pub labels_forwarded: u64,
    /// Background pushes dropped by information-utility triage (§V-B).
    pub triage_drops: u64,
}

/// External stimuli delivered to an Athena node.
#[derive(Debug, Clone)]
pub enum AthenaEvent {
    /// A user issues a decision query here (`Query_Init`).
    Issue(QueryInstance),
    /// Announce an upcoming query without issuing it (§VIII anticipation:
    /// "anticipating what information is needed next … gives the system
    /// more time to acquire it before it is actually used"). The network
    /// hears the decision structure early and can prefetch.
    AnnounceOnly(QueryInstance),
}

impl From<QueryInstance> for AthenaEvent {
    fn from(inst: QueryInstance) -> AthenaEvent {
        AthenaEvent::Issue(inst)
    }
}

/// A queued source-side prefetch push.
#[derive(Debug, Clone)]
struct PushTask {
    object_idx: usize,
    origin: NodeId,
    qid: QueryId,
    deadline_at: SimTime,
}

/// The ledger attribution of a request's query id: synthetic re-forwarded
/// requests (`u64::MAX`, see [`AthenaNode::reforward_request`]) have no
/// owning decision.
fn qid_attr(qid: QueryId) -> Option<u64> {
    (qid.0 != u64::MAX).then_some(qid.0)
}

/// Same attribution as the observational `for_query` tag carried on reply
/// messages.
fn qid_tag(qid: QueryId) -> Option<QueryId> {
    (qid.0 != u64::MAX).then_some(qid)
}

/// The wire form of a cached label value, traveling for `for_query`.
fn share_msg(label: &Label, c: &CachedLabel, for_query: Option<QueryId>) -> AthenaMsg {
    AthenaMsg::LabelShare {
        label: *label,
        value: c.value,
        sampled_at: c.sampled_at,
        validity: c.validity,
        annotator: c.annotator,
        based_on: c.based_on.clone(),
        for_query,
    }
}

/// Everything this node keeps for one query it originated: the one record
/// the §VI functions share. `Query_Init` creates it; it is never removed.
#[derive(Debug)]
struct LocalQuery {
    /// Lifecycle, evidence and counters — what reports read.
    state: QueryState,
    /// The candidate objects chosen at issue time, laid out for the
    /// planner in `state`'s label ids.
    plan: PlanTable,
    /// Corroboration votes per label: evidence *source* → judgment. Keyed
    /// by source node, not object, so that two views from the same
    /// (possibly compromised) sensor host count once (§IV-B).
    votes: BTreeMap<Label, VoteSet>,
}

impl LocalQuery {
    /// Whether the query is still open and its expression mentions `label`.
    fn tracks(&self, label: &Label) -> bool {
        !self.state.status.is_final() && self.state.label_id(label).is_some()
    }

    /// Whether a value for `label` would be news at `now`: the query
    /// tracks the label and holds no fresh value for it.
    fn wants(&self, label: &Label, now: SimTime) -> bool {
        !self.state.status.is_final()
            && self
                .state
                .label_id(label)
                .is_some_and(|id| !self.state.value_of(id, now).is_known())
    }
}

/// One Athena node.
#[derive(Debug)]
pub struct AthenaNode {
    shared: Arc<SharedWorld>,
    annotator: Arc<dyn Annotator + Send + Sync>,
    /// Locally originated queries, one record each.
    queries: BTreeMap<QueryId, LocalQuery>,
    /// Ascending ids of the local queries that have not been retired: every
    /// non-final query, plus — within a handler only — those that turned
    /// final since [`AthenaNode::retire_finished`] last ran.
    open: Vec<QueryId>,
    /// Announcements already heard. A repeat is dropped: the issue of a
    /// query announced ahead, or a second copy after a route changed
    /// mid-relay.
    seen_announces: BTreeSet<QueryId>,
    /// Object cache.
    content: ContentStore<EvidenceObject>,
    /// Label cache (the network-side label store of §VI-D).
    labels: BTreeMap<Label, CachedLabel>,
    /// Pending interests: name → who wants it for which (query, labels).
    pit: Pit<Requester, (QueryId, Vec<Label>)>,
    /// Background prefetch queue (processed when foreground is idle).
    prefetch_queue: VecDeque<PushTask>,
    /// Last push per (object, next hop), for dedup.
    recent_pushes: BTreeMap<(Name, NodeId), SimTime>,
    /// Recently forwarded background names per next hop (for §V-B triage).
    recent_bg: BTreeMap<NodeId, Vec<(Name, SimTime)>>,
    /// Reliability profile per evidence *source*: (agreed, disagreed) with
    /// the corroborated majority (§IV-B annotator feedback).
    reliability: BTreeMap<NodeId, (u64, u64)>,
    /// The earliest wake-up timer armed and not yet fired (`None`: none).
    /// Later ones may still be pending; they fire and find nothing due.
    wake_at: Option<SimTime>,
    /// Learned short-circuit probabilities (`None` = static planning).
    /// Built when [`RunOptions::adaptive`] is on; updated only at
    /// trace-visible events so observed and unobserved runs evolve
    /// identically.
    truth: Option<TruthEstimator>,
    /// Counters.
    pub stats: NodeStats,
}

impl AthenaNode {
    /// Creates a node.
    pub fn new(
        shared: Arc<SharedWorld>,
        annotator: Arc<dyn Annotator + Send + Sync>,
    ) -> AthenaNode {
        let cache_capacity = shared.options.cache_capacity;
        let truth = shared
            .options
            .adaptive
            .then(|| TruthEstimator::new(shared.prob_true_prior));
        AthenaNode {
            shared,
            annotator,
            queries: BTreeMap::new(),
            open: Vec::new(),
            seen_announces: BTreeSet::new(),
            content: ContentStore::new(cache_capacity),
            labels: BTreeMap::new(),
            pit: Pit::new(),
            prefetch_queue: VecDeque::new(),
            recent_pushes: BTreeMap::new(),
            recent_bg: BTreeMap::new(),
            reliability: BTreeMap::new(),
            wake_at: None,
            truth,
            stats: NodeStats::default(),
        }
    }

    /// The node's local queries, in id order (for post-run inspection).
    pub fn queries(&self) -> impl Iterator<Item = &QueryState> {
        self.queries.values().map(|lq| &lq.state)
    }

    /// The node's label cache (for post-run inspection).
    pub fn cached_labels(&self) -> impl Iterator<Item = (&Label, &CachedLabel)> {
        self.labels.iter()
    }

    /// The node's content store (for post-run inspection).
    pub fn content_store(&self) -> &ContentStore<EvidenceObject> {
        &self.content
    }

    /// The reliability profile this node has accumulated for an evidence
    /// source: `(agreements, disagreements)` with corroborated majorities.
    pub fn reliability_of(&self, source: NodeId) -> (u64, u64) {
        self.reliability.get(&source).copied().unwrap_or((0, 0))
    }

    /// Estimated source reliability in `[0, 1]` (1.0 when unobserved).
    pub fn reliability_score(&self, source: NodeId) -> f64 {
        let (agree, disagree) = self.reliability_of(source);
        if agree + disagree == 0 {
            1.0
        } else {
            agree as f64 / (agree + disagree) as f64
        }
    }

    /// The record of local query `qid`, for handlers that hold an id drawn
    /// from `open`, a local interest or a vote.
    #[expect(
        clippy::expect_used,
        reason = "every such id was issued here, and local queries are never removed"
    )]
    fn local(&mut self, qid: QueryId) -> &mut LocalQuery {
        self.queries.get_mut(&qid).expect("query exists")
    }

    fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Whether a cached label is *usable* at `now`: fresh, with enough
    /// remaining validity to survive the rest of its query's term
    /// completion, and from an annotator we trust. A label about to expire
    /// triggers churn — the term that consumed it reopens before its
    /// remaining conditions resolve — so we require the lesser of twice the
    /// serve headroom and half the label's full validity.
    fn label_usable(&self, c: &CachedLabel, now: SimTime) -> bool {
        let margin = (SERVE_HEADROOM * 2).min(c.validity / 2);
        c.is_fresh_at(now + margin) && self.shared.options.trust.accepts(c.annotator)
    }

    /// The next hop toward the node that sources `name`: `None` when that
    /// is this node, the catalog does not know the name, or no route exists.
    fn hop_toward_source(&self, ctx: &Context<'_, AthenaMsg>, name: &Name) -> Option<NodeId> {
        let source = self.catalog().by_name(name)?.source;
        if source == ctx.node() {
            return None;
        }
        ctx.next_hop_toward(source)
    }

    /// Retires every open query that has reached a final status — the one
    /// place a query leaves [`AthenaNode::open`], so its terminal trace
    /// event (`query-resolved` / `query-missed`) is emitted once per query.
    /// Runs at the end of every handler that can change a status, after the
    /// handler's other trace events.
    fn retire_finished(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        let queries = &self.queries;
        self.open.retain(|qid| {
            let q = &queries[qid].state;
            if !q.status.is_final() {
                return true;
            }
            if ctx.obs_enabled() {
                match q.status {
                    QueryStatus::Decided { outcome, at } => ctx.emit(EventKind::QueryResolved {
                        query: qid.0,
                        outcome: match outcome {
                            QueryOutcome::Viable(_) => "viable",
                            QueryOutcome::Infeasible => "infeasible",
                        },
                        latency_us: at.saturating_since(q.issued_at).as_micros(),
                    }),
                    QueryStatus::Missed => ctx.emit(EventKind::QueryMissed { query: qid.0 }),
                    QueryStatus::Pending => {}
                }
            }
            false
        });
    }

    /// Arms the wake-up timer at the earlier of `due` and the next prefetch
    /// slot, unless a wake-up at or before that instant is armed already.
    /// Every handler that can change when work is due ends here. A
    /// superseded (later) timer still fires; [`Protocol::on_timer`] lets it
    /// pass.
    fn arm(&mut self, ctx: &mut Context<'_, AthenaMsg>, due: Option<SimTime>) {
        let now = ctx.now();
        let Some(at) = due.into_iter().chain(self.prefetch_due(now)).min() else {
            return;
        };
        debug_assert!(at > now, "wake-up at {at:?} is not after {now:?}");
        if self.wake_at.is_none_or(|armed| at < armed) {
            self.wake_at = Some(at);
            ctx.set_timer_at(at, WAKE_TAG);
        }
    }

    /// Samples a fresh instance of `spec`, with per-label epoch-aligned
    /// validity so that a fresh cached object always implies a
    /// still-accurate annotation.
    fn sample_object(&self, spec: &ObjectSpec, now: SimTime) -> EvidenceObject {
        let mut obj = EvidenceObject::sample(spec, now);
        let effective = spec
            .covers
            .iter()
            .map(|l| self.shared.world.epoch_end(l, now).saturating_since(now))
            .min()
            .unwrap_or(spec.validity);
        obj.validity = effective.min(spec.validity);
        obj
    }

    /// Caches `object` and says so on the trace, charged to `query`.
    fn store(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        object: &EvidenceObject,
        query: Option<u64>,
    ) {
        self.content.insert(
            &object.name,
            object.clone(),
            object.size,
            object.sampled_at,
            object.validity,
        );
        if ctx.obs_enabled() {
            ctx.emit(EventKind::CacheStore {
                name: object.name.to_string(),
                bytes: object.size,
                validity_us: object.validity.as_micros(),
                query,
            });
        }
    }
}

/// Sends the decision structure of query `qid` (issued at `origin`) one
/// level down `origin`'s routing tree: to each neighbor whose next hop
/// toward `origin` is this node. The routing tables come from one BFS per
/// destination, so those pointers form an in-tree rooted at `origin`, and
/// relaying at every node that hears the announce reaches each reachable
/// node exactly once. Each copy shares `expr`'s terms.
fn announce_to_children(
    ctx: &mut Context<'_, AthenaMsg>,
    qid: QueryId,
    origin: NodeId,
    expr: &Dnf,
    deadline_at: SimTime,
) {
    let (me, topology) = (ctx.node(), ctx.topology());
    for nb in topology.neighbors(me) {
        if topology.next_hop(nb, origin) == Some(me) {
            ctx.send(
                nb,
                AthenaMsg::QueryAnnounce {
                    qid,
                    origin,
                    expr: expr.clone(),
                    deadline_at,
                },
            );
        }
    }
}

impl Protocol for AthenaNode {
    type Msg = AthenaMsg;
    type Ext = AthenaEvent;

    fn on_external(&mut self, ctx: &mut Context<'_, AthenaMsg>, event: AthenaEvent) {
        match event {
            AthenaEvent::Issue(inst) => self.issue(ctx, inst),
            AthenaEvent::AnnounceOnly(inst) => self.announce_only(ctx, inst),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AthenaMsg>, from: NodeId, msg: AthenaMsg) {
        match msg {
            AthenaMsg::QueryAnnounce {
                qid,
                origin,
                expr,
                deadline_at,
            } => self.handle_announce(ctx, qid, origin, expr, deadline_at),
            AthenaMsg::Request {
                name,
                wanted,
                qid,
                origin,
                kind,
            } => self.handle_request(ctx, from, name, wanted, qid, origin, kind),
            AthenaMsg::Data {
                object,
                push_to,
                for_query,
            } => self.handle_data(ctx, object, push_to, for_query),
            AthenaMsg::LabelShare {
                label,
                value,
                sampled_at,
                validity,
                annotator,
                based_on,
                for_query,
            } => {
                let received = CachedLabel {
                    value,
                    sampled_at,
                    validity,
                    annotator,
                    based_on,
                };
                self.handle_label_share(ctx, from, label, received, for_query);
            }
        }
    }

    /// Crash recovery (fault injection): volatile forwarding state is gone;
    /// caches survive or not per [`RunOptions::crash_wipes_cache`]. Open
    /// queries restart their retrieval loop — the in-flight fetch and the
    /// votes gathered so far are forgotten (replies, if any, were dropped
    /// while we were down) — and their deadline timers and the wake-up are
    /// re-armed (timers that fired during the outage were swallowed).
    /// Nothing is re-announced: every node that heard the announce before
    /// the crash still holds it in `seen_announces` and would drop a repeat.
    fn on_recover(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        let now = ctx.now();
        self.pit = Pit::new();
        self.prefetch_queue.clear();
        self.recent_pushes.clear();
        self.recent_bg.clear();
        self.wake_at = None;
        if self.shared.options.crash_wipes_cache {
            self.content = ContentStore::new(self.shared.options.cache_capacity);
            self.labels.clear();
        }
        for at in 0..self.open.len() {
            let qid = self.open[at];
            let lq = self.local(qid);
            lq.votes.clear();
            if lq.state.check(now).is_final() {
                continue;
            }
            lq.state.outstanding = None;
            ctx.set_timer_at(lq.state.deadline_at, qid.0 + 1);
        }
        self.advance_queries(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AthenaMsg>, tag: u64) {
        let now = ctx.now();
        if tag == WAKE_TAG {
            // Only the earliest armed wake-up works, and at or after its
            // instant, not just on it: the live backend dispatches a timer
            // at the wall-derived `now`, never before the scheduled instant
            // and almost never on it.
            if self.wake_at.is_none_or(|armed| now < armed) {
                return;
            }
            self.wake_at = None;
            self.pit.expire(now);
            let due = self.advance_open(ctx);
            self.process_prefetch(ctx);
            self.arm(ctx, due);
        } else {
            // Deadline for query (tag - 1).
            if let Some(lq) = self.queries.get_mut(&QueryId(tag - 1)) {
                lq.state.check(now);
            }
            self.retire_finished(ctx);
            // A query that ended with its fetch in flight may free the
            // prefetch queue.
            self.arm(ctx, None);
        }
    }
}
