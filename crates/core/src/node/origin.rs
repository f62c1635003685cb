//! The originating side of a query (§VI-A): `Query_Init`, the retrieval
//! loop (`Request_Send`), and turning delivered evidence into label values
//! — annotation, corroboration, label sharing.

use super::{
    announce_to_children, share_msg, AthenaNode, CachedLabel, LocalQuery, Requester, SharedWorld,
    VoteSet, INTEREST_LIFETIME, ONE_US, POLL, RETRY_TIMEOUT,
};
use crate::msg::{AthenaMsg, QueryId, RequestKind};
use crate::object::EvidenceObject;
use crate::query::{Outstanding, QueryCounters, QueryState};
use crate::strategy::{Priors, Strategy};
use dde_logic::label::Label;
use dde_logic::meta::{Cost, Probability};
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::sim::Context;
use dde_netsim::topology::NodeId;
use dde_obs::EventKind;
use dde_sched::explain::{explain_dnf_plan, summarize_dnf_plan};
use dde_sched::item::Channel;
use dde_sched::item::RetrievalItem;
use dde_sched::shortcircuit::{plan_terms, DnfPlan};
use dde_workload::scenario::QueryInstance;
use std::collections::BTreeMap;
use std::sync::Arc;

impl AthenaNode {
    /// `Query_Init`: creates the query's record, emits its plan on the
    /// trace, announces its decision structure so the network can
    /// prefetch, and starts retrieval.
    pub(super) fn issue(&mut self, ctx: &mut Context<'_, AthenaMsg>, inst: QueryInstance) {
        let me = ctx.node();
        debug_assert_eq!(inst.origin, me, "query delivered to wrong node");
        let qid = QueryId(inst.id);
        let strategy = self.shared.options.strategy;
        let state = QueryState::new(qid, inst.expr, ctx.now(), inst.deadline);
        let candidates = strategy.candidates(state.labels(), self.catalog(), me, ctx.topology());
        let plan = strategy.plan(&state, candidates, self.catalog());
        let deadline_at = state.deadline_at;
        let lq = LocalQuery {
            state,
            plan,
            votes: BTreeMap::new(),
        };
        if ctx.obs_enabled() {
            ctx.emit(EventKind::QueryInit {
                query: qid.0,
                origin: me.index() as u32,
            });
            let plan = self.plan(&lq, ctx);
            ctx.emit(EventKind::Plan {
                query: qid.0,
                strategy: strategy.code(),
                candidates: lq.plan.candidates().len() as u64,
                expected_bytes: summarize_dnf_plan(&plan).expected_bytes_rounded(),
                rationale: explain_dnf_plan(&plan),
            });
        }
        announce_to_children(ctx, qid, me, &lq.state.expr, deadline_at);
        self.queries.insert(qid, lq);
        if let Err(at) = self.open.binary_search(&qid) {
            self.open.insert(at, qid);
        }
        self.seen_announces.insert(qid);
        // Deadline timer: tag = qid + 1 (0 is the wake-up).
        ctx.set_timer_at(deadline_at, qid.0 + 1);
        self.advance_queries(ctx);
    }

    /// Announces the decision structure of a query that has not been
    /// issued yet, giving sources a prefetching head start (§VIII).
    pub(super) fn announce_only(&mut self, ctx: &mut Context<'_, AthenaMsg>, inst: QueryInstance) {
        let me = ctx.node();
        let qid = QueryId(inst.id);
        if !self.seen_announces.insert(qid) {
            return;
        }
        let deadline_at = inst.issue_at + inst.deadline;
        announce_to_children(ctx, qid, me, &inst.expr, deadline_at);
    }

    /// The §III-A short-circuit plan for `lq`'s expression as seen from this
    /// node, over the label ids its query state already assigns: one
    /// retrieval item per label, terms from [`QueryState::terms`].
    /// Each condition enters with its cheapest-provider retrieval cost, its
    /// most conservative provider validity, and its short-circuit
    /// probability — learned per (name-prefix, condition) when adaptive
    /// planning is on, the run's static prior otherwise.
    fn plan(&self, lq: &LocalQuery, ctx: &Context<'_, AthenaMsg>) -> DnfPlan {
        let (me, topology) = (ctx.node(), ctx.topology());
        let items: Vec<RetrievalItem> = lq
            .state
            .labels()
            .iter()
            .map(|l| {
                let providers = self.catalog().providers_of(l);
                let cost = providers
                    .iter()
                    .map(|&i| Strategy::effective_cost(i, self.catalog(), me, topology))
                    .min()
                    .unwrap_or(0);
                let validity = providers
                    .iter()
                    .map(|&i| self.catalog().get(i).validity)
                    .min()
                    .unwrap_or(SimDuration::MAX);
                let prob = match &self.truth {
                    // The cheapest provider's name keys the learned
                    // estimate — the same prefix the annotation feedback
                    // updates in `finalize_label`.
                    Some(truth) => providers
                        .iter()
                        .min_by_key(|&&i| {
                            (Strategy::effective_cost(i, self.catalog(), me, topology), i)
                        })
                        .map(|&i| truth.prob(self.catalog().rendered_name(i).as_str(), l))
                        .unwrap_or_else(|| truth.prior()),
                    None => self.shared.prob_true_prior,
                };
                RetrievalItem {
                    label: *l,
                    cost: Cost::from_bytes(cost),
                    validity,
                    prob_true: Probability::clamped(prob),
                }
            })
            .collect();
        let terms = lq.state.terms().iter();
        plan_terms(terms.map(|t| t.iter().map(|&(id, _)| items[id].clone())))
    }

    /// The first (OR-term, condition) coordinates of `label` in `qid`'s
    /// expression, for trace attribution. `(None, None)` when the query is
    /// not local or the label does not appear.
    fn locate_predicate(&self, qid: QueryId, label: &Label) -> (Option<u32>, Option<u32>) {
        let Some(state) = self.queries.get(&qid).map(|lq| &lq.state) else {
            return (None, None);
        };
        let Some(id) = state.label_id(label) else {
            return (None, None);
        };
        // A term lists its literals in label order, so a position among
        // its ids is the condition's index.
        for (ti, term) in state.terms().iter().enumerate() {
            if let Some(ci) = term.iter().position(|&(l, _)| l == id) {
                return (Some(ti as u32), Some(ci as u32));
            }
        }
        (None, None)
    }

    /// The retrieval loop ([`AthenaNode::advance_open`]), then the wake-up
    /// for whatever it leaves due.
    pub(super) fn advance_queries(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        let due = self.advance_open(ctx);
        self.arm(ctx, due);
    }

    /// The retrieval loop: satisfy next requests locally when possible,
    /// otherwise send one fetch per query into the network. Returns the
    /// earliest instant, before its deadline, at which an open query can
    /// progress with no message arriving (§IV: a verdict changes only when
    /// evidence arrives or a validity interval ends):
    ///
    /// - a fetch in flight: the first instant it counts as timed out;
    /// - nothing left to fetch: the first instant a recorded label lapses —
    ///   the planner reads the clock only through label freshness;
    /// - no route to the chosen source, or a timed-out fetch that could
    ///   not be replaced: one [`POLL`] from now. The node is not told when
    ///   routes heal, and a standing fetch holds prefetch back.
    pub(super) fn advance_open(&mut self, ctx: &mut Context<'_, AthenaMsg>) -> Option<SimTime> {
        let now = ctx.now();
        // A handle of our own, so catalog entries can stay borrowed across
        // the `&mut self` calls below.
        let shared = Arc::clone(&self.shared);
        let mut due: Option<SimTime> = None;

        // Retired queries are final for good and have nothing to advance.
        // `open` only changes when a query is issued or retired, neither of
        // which happens inside this loop.
        for at in 0..self.open.len() {
            let qid = self.open[at];
            let wake = self.retrieve(ctx, &shared, qid);
            let q = &mut self.local(qid).state;
            if !q.check(now).is_final() {
                if let Some(at) = wake.filter(|&at| at < q.deadline_at) {
                    due = Some(due.map_or(at, |d| d.min(at)));
                }
            }
        }
        self.retire_finished(ctx);
        due
    }

    /// One query's share of [`AthenaNode::advance_open`]: makes what
    /// progress is possible at `now` — local resolution, or one fetch sent
    /// into the network — and returns when it next can without news.
    fn retrieve(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        shared: &SharedWorld,
        qid: QueryId,
    ) -> Option<SimTime> {
        let now = ctx.now();
        let me = ctx.node();
        let strategy = shared.options.strategy;
        let channel = Channel::new(shared.planning_bandwidth_bps);
        let k = shared.options.corroboration.max(1);
        let adaptive = self.truth.is_some();
        loop {
            let q = &mut self.local(qid).state;
            if q.check(now).is_final() {
                return None;
            }
            // Waiting on an in-flight fetch that hasn't timed out?
            if let Some(o) = &q.outstanding {
                if !q.outstanding_timed_out(now, RETRY_TIMEOUT) {
                    return Some(o.sent_at + RETRY_TIMEOUT + ONE_US);
                }
            }
            // A timed-out fetch falls through to re-plan; adaptive runs
            // say so on the trace (`fetch-timeout`).
            let timed_out = q
                .outstanding
                .as_ref()
                .filter(|_| adaptive && ctx.obs_enabled());
            if let Some(spec) = timed_out.and_then(|o| shared.catalog.by_name(&o.name)) {
                ctx.emit(EventKind::FetchTimeout {
                    query: qid.0,
                    name: spec.name.to_string(),
                    source: spec.source.index() as u32,
                });
            }
            let priors = match self.truth.as_ref() {
                Some(truth) => Priors::Learned(truth),
                None => Priors::Fixed(shared.prob_true_prior),
            };
            let lq = &self.queries[&qid];
            let Some((idx, label)) = strategy.next_from_plan(
                &lq.state,
                &lq.plan,
                &shared.catalog,
                me,
                ctx.topology(),
                now,
                channel,
                &priors,
            ) else {
                // Nothing to fetch until a recorded label lapses — but a
                // timed-out fetch left standing is only cleared by a poll.
                let q = &self.queries[&qid].state;
                if q.outstanding.is_some() {
                    return Some(now + POLL);
                }
                return q
                    .undecided_memo()
                    .map(|(_, through)| through.saturating_add(ONE_US));
            };
            // Corroboration (§IV-B): if this provider already voted on
            // this label, fetch a *different* provider; if none remains,
            // accept the majority of the votes gathered so far.
            let mut chosen = idx;
            if k > 1 {
                if let Some(entry) = lq.votes.get(&label) {
                    if entry.contains_key(&shared.catalog.get(idx).source) {
                        match self.alternate_provider(&label, entry) {
                            Some(a) => chosen = a,
                            None => {
                                self.finalize_votes(ctx, qid, &label);
                                continue;
                            }
                        }
                    }
                }
            }
            let spec = shared.catalog.get(chosen);
            // Bookkeeping: chasing a label whose previous value expired.
            // The planner only picks a label with no fresh value, so a
            // value still recorded for it has lapsed.
            let q = &mut self.local(qid).state;
            debug_assert!(!q.value_at(&label, now).is_known());
            if q.forget_label(&label).is_some() {
                q.counters.label_expiries += 1;
            }

            // 1. Fresh trusted cached label (shared by someone else)?
            if strategy.label_sharing() {
                if let Some(c) = self.labels.get(&label) {
                    if self.label_usable(c, now) {
                        let (value, sampled_at, validity) = (c.value, c.sampled_at, c.validity);
                        let q = &mut self.local(qid).state;
                        q.record_label(&label, value, sampled_at, validity);
                        q.counters.labels_from_shares += 1;
                        continue;
                    }
                }
            }
            // 2. Fresh object in the local content store?
            if let Some(stored) = self.content.get_fresh(&spec.name, now) {
                let object = stored.value.clone();
                self.annotate_object(ctx, &object);
                let q = &self.queries[&qid].state;
                if k == 1 && !q.value_at(&label, now).is_known() {
                    // Annotation failed to resolve the label (cannot
                    // happen with covering objects); avoid spinning.
                    return Some(now + POLL);
                }
                // Under corroboration an unresolved label just gained a
                // vote — loop to fetch the next distinct provider.
                continue;
            }
            // 3. We are the source: sample locally, free of charge.
            if spec.source == me {
                self.stats.local_samples += 1;
                if ctx.obs_enabled() {
                    ctx.emit(EventKind::LocalSample {
                        name: spec.name.to_string(),
                        query: Some(qid.0),
                    });
                }
                let object = self.sample_object(spec, now);
                self.store(ctx, &object, Some(qid.0));
                self.local(qid).state.counters.labels_from_local += 1;
                self.annotate_object(ctx, &object);
                continue;
            }
            // 4. Fetch over the network. The request carries every
            // still-unknown label this object can resolve, so that an
            // intermediate node may answer with labels only if it can
            // supply all of them.
            let lq = &self.queries[&qid];
            let mut wanted: Vec<Label> = spec
                .covers
                .iter()
                .filter(|l| lq.wants(l, now))
                .copied()
                .collect();
            if !wanted.contains(&label) {
                wanted.push(label);
            }
            // The selected source may be unreachable right now (crashed
            // or partitioned away, with no alternate provider). Don't
            // register an interest or pretend a fetch is in flight:
            // leave the query pending and re-plan every poll until a
            // route exists again, then send at once.
            let Some(hop) = ctx.next_hop_toward(spec.source) else {
                return Some(now + POLL);
            };
            // Lapsed interests go first, as in `handle_request`: with no
            // periodic sweep, a dead entry would otherwise swallow this
            // request.
            self.pit.expire(now);
            let first = self.pit.register(
                &spec.name,
                Requester::Local,
                (qid, wanted.clone()),
                now + INTEREST_LIFETIME,
            );
            let q = &mut self.local(qid).state;
            q.outstanding = Some(Outstanding {
                name: spec.name.clone(),
                wanted: wanted.clone(),
                sent_at: now,
            });
            q.counters.requests_sent += 1;
            if first {
                if ctx.obs_enabled() {
                    let (term, cond) = self.locate_predicate(qid, &label);
                    ctx.emit(EventKind::RequestSend {
                        query: qid.0,
                        name: spec.name.to_string(),
                        hop: hop.index() as u32,
                        term,
                        cond,
                    });
                }
                ctx.send(
                    hop,
                    AthenaMsg::Request {
                        name: spec.name.clone(),
                        wanted,
                        qid,
                        origin: me,
                        kind: RequestKind::Fetch,
                    },
                );
            }
            return Some(now + RETRY_TIMEOUT + ONE_US);
        }
    }

    /// Annotates `object` against every *local pending* query that
    /// references one of its labels. Under corroboration (§IV-B) the
    /// judgment is held as a *vote* until enough independent evidence
    /// agrees; otherwise it is accepted immediately, cached, and (under
    /// `lvfl`) shared toward the data source.
    pub(super) fn annotate_object(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        object: &EvidenceObject,
    ) {
        let now = ctx.now();
        // Which covered labels do local pending queries care about?
        let mut wanted: Vec<(QueryId, Label)> = Vec::new();
        for (qid, lq) in &self.queries {
            for l in &object.covers {
                if lq.wants(l, now) {
                    wanted.push((*qid, *l));
                }
            }
        }
        let k = self.shared.options.corroboration.max(1);
        for (qid, label) in wanted {
            let Some(value) = self.annotator.annotate(object, &label, &self.shared.world) else {
                continue;
            };
            if k == 1 {
                let judged = CachedLabel {
                    value,
                    sampled_at: object.sampled_at,
                    validity: object.validity,
                    annotator: ctx.node(),
                    based_on: object.name.clone(),
                };
                self.finalize_label(ctx, qid, &label, judged);
                continue;
            }
            // Corroboration: collect votes from distinct evidence *sources*.
            let entry = self.local(qid).votes.entry(label).or_default();
            entry.insert(object.source, (value, object.sampled_at, object.validity));
            let votes = entry.len();
            let source_count = {
                let mut sources: Vec<NodeId> = self
                    .catalog()
                    .providers_of(&label)
                    .iter()
                    .map(|&i| self.catalog().get(i).source)
                    .collect();
                sources.sort_unstable();
                sources.dedup();
                sources.len().max(1)
            };
            if votes >= k.min(source_count) {
                self.finalize_votes(ctx, qid, &label);
            }
        }
    }

    /// Resolves the corroboration votes for `(qid, label)` by majority,
    /// records the outcome, and feeds reliability profiles back (§IV-B:
    /// "annotators can offer feedback on the quality of individual
    /// inputs").
    fn finalize_votes(&mut self, ctx: &mut Context<'_, AthenaMsg>, qid: QueryId, label: &Label) {
        let Some(entry) = self.local(qid).votes.remove(label) else {
            return;
        };
        if entry.is_empty() {
            return;
        }
        // Reliability-weighted majority: votes from sources with a poor
        // track record count less, so learned profiles break ties in favor
        // of historically honest sensors (§IV-B).
        let mut weight_true = 0.0;
        let mut weight_false = 0.0;
        for (source, (v, _, _)) in &entry {
            let w = self.reliability_score(*source).max(0.05);
            if *v {
                weight_true += w;
            } else {
                weight_false += w;
            }
        }
        let majority = weight_true >= weight_false;
        // Freshness of the corroborated label: the most conservative of the
        // agreeing evidence (latest sample, its validity).
        #[expect(
            clippy::expect_used,
            reason = "the majority was computed from these votes"
        )]
        let (_, sampled_at, validity) = entry
            .values()
            .filter(|(v, _, _)| *v == majority)
            .max_by_key(|(_, t, _)| *t)
            .copied()
            .expect("majority side is non-empty");

        // Evidence attribution: name an object from an agreeing source.
        #[expect(
            clippy::expect_used,
            reason = "the majority was computed from these votes"
        )]
        let agreeing_source = entry
            .iter()
            .find(|(_, (v, _, _))| *v == majority)
            .map(|(src, _)| *src)
            .expect("majority side is non-empty");
        #[expect(
            clippy::expect_used,
            reason = "votes come only from providers of this label"
        )]
        let based_on = self
            .catalog()
            .providers_of(label)
            .iter()
            .map(|&i| self.catalog().get(i))
            .find(|spec| spec.source == agreeing_source)
            .map(|spec| spec.name.clone())
            .expect("agreeing source provides the label");
        for (source, (v, _, _)) in &entry {
            let slot = self.reliability.entry(*source).or_insert((0, 0));
            if *v == majority {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
        let judged = CachedLabel {
            value: majority,
            sampled_at,
            validity,
            annotator: ctx.node(),
            based_on,
        };
        self.finalize_label(ctx, qid, label, judged);
    }

    /// Accepts this node's own judgment of `label`, reached on behalf of
    /// `qid`: records it, caches it, and (under `lvfl`) shares it toward
    /// the evidence's source.
    fn finalize_label(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        qid: QueryId,
        label: &Label,
        judged: CachedLabel,
    ) {
        if ctx.obs_enabled() {
            let (term, cond) = self.locate_predicate(qid, label);
            ctx.emit(EventKind::Annotate {
                query: qid.0,
                label: label.to_string(),
                value: judged.value,
                term,
                cond,
            });
        }
        // Adaptive feedback: the annotation outcome updates the truth
        // estimate for this evidence's name prefix. The update uses only
        // what the `annotate` trace event carries, so observed and
        // unobserved runs evolve identically.
        if let Some(truth) = self.truth.as_mut() {
            truth.observe(&judged.based_on.to_string(), label, judged.value);
        }
        // The judgment is valid evidence for every local query that
        // references this label, not just `qid`.
        self.record_on_open(label, &judged, ctx.now(), Some(qid), |n| {
            n.labels_from_data += 1
        });
        if self.shared.options.strategy.label_sharing() {
            if let Some(hop) = self.hop_toward_source(ctx, &judged.based_on) {
                if ctx.obs_enabled() {
                    ctx.emit(EventKind::LabelShare {
                        label: label.to_string(),
                        value: judged.value,
                        toward: hop.index() as u32,
                        query: Some(qid.0),
                    });
                }
                ctx.send(hop, share_msg(label, &judged, Some(qid)));
            }
        }
        self.labels.insert(*label, judged);
    }

    /// Records `c` as the value of `label` on every open local query that
    /// wants one — and on `owner`, the query whose retrieval produced it,
    /// even if it already holds one — counting each through `count`.
    pub(super) fn record_on_open(
        &mut self,
        label: &Label,
        c: &CachedLabel,
        now: SimTime,
        owner: Option<QueryId>,
        count: impl Fn(&mut QueryCounters),
    ) {
        for lq in self.queries.values_mut() {
            if lq.wants(label, now) || (owner == Some(lq.state.id) && lq.tracks(label)) {
                lq.state
                    .record_label(label, c.value, c.sampled_at, c.validity);
                count(&mut lq.state.counters);
            }
        }
    }

    /// Picks the cheapest provider of `label` whose *source node* has not
    /// voted yet, preferring sources whose reliability profile is not
    /// condemned (score < 0.3 after ≥ 4 observations), falling back to
    /// condemned ones only when nothing else remains.
    fn alternate_provider(&self, label: &Label, already_voted: &VoteSet) -> Option<usize> {
        let unused: Vec<usize> = self
            .catalog()
            .providers_of(label)
            .iter()
            .copied()
            .filter(|&i| !already_voted.contains_key(&self.catalog().get(i).source))
            .collect();
        let trusted: Vec<usize> = unused
            .iter()
            .copied()
            .filter(|&i| {
                let source = self.catalog().get(i).source;
                let (agree, disagree) = self.reliability_of(source);
                agree + disagree < 4 || self.reliability_score(source) >= 0.3
            })
            .collect();
        let pool = if trusted.is_empty() { unused } else { trusted };
        pool.into_iter()
            .min_by_key(|&i| (self.catalog().get(i).size, i))
    }
}
