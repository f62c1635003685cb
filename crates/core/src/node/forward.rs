//! The forwarding side (§VI-B, §VI-C, §VI-D): `Request_Recv`, `Data_Recv`
//! and label shares, over the Pending Interest Table.

use super::{
    qid_attr, qid_tag, share_msg, AthenaNode, CachedLabel, Requester, INTEREST_LIFETIME,
    SERVE_HEADROOM,
};
use crate::msg::{AthenaMsg, QueryId, RequestKind};
use crate::object::EvidenceObject;
use dde_logic::label::Label;
use dde_logic::time::SimTime;
use dde_naming::criticality::Criticality;
use dde_naming::name::Name;
use dde_netsim::sim::Context;
use dde_netsim::topology::NodeId;
use dde_obs::EventKind;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Sends `object` to the neighbor `to` in answer to request `qid`.
fn reply_data(ctx: &mut Context<'_, AthenaMsg>, to: NodeId, object: EvidenceObject, qid: QueryId) {
    ctx.send(
        to,
        AthenaMsg::Data {
            object,
            push_to: None,
            for_query: qid_tag(qid),
        },
    );
}

/// What [`AthenaNode::whittle_interests`] found under one object name.
#[derive(Debug, Default)]
struct Whittled {
    /// Each neighbor with an interest the evidence (partly) answers, with
    /// the query id of its first such interest, in interest order.
    served: Vec<(NodeId, QueryId)>,
    /// When an interest emptied — it may have been the one whose request
    /// is in flight — the labels the surviving interests still wait for.
    starved: Vec<Label>,
}

impl AthenaNode {
    /// `Request_Recv`: serves an incoming object request from the label
    /// cache, the content store or the local sensor, or forwards it.
    #[allow(clippy::too_many_arguments)] // the fields of `AthenaMsg::Request`, plus the sender
    pub(super) fn handle_request(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        from: NodeId,
        name: Name,
        mut wanted: Vec<Label>,
        qid: QueryId,
        origin: NodeId,
        kind: RequestKind,
    ) {
        let now = ctx.now();
        let me = ctx.node();
        // Cheapest first (§II-C): fresh trusted *labels* in place of the
        // object (§VI-D) — "several orders of magnitude resource savings".
        // Usable labels answer their share of the request immediately; only
        // the remainder (if any) keeps traveling as an object request.
        if self.shared.options.strategy.label_sharing() {
            let (usable, rest): (Vec<Label>, Vec<Label>) = wanted.into_iter().partition(|l| {
                self.labels
                    .get(l)
                    .is_some_and(|c| self.label_usable(c, now))
            });
            if !usable.is_empty() {
                self.stats.label_hits += 1;
                if ctx.obs_enabled() {
                    ctx.emit(EventKind::LabelHit {
                        requester: from.index() as u32,
                        labels: usable.len() as u64,
                        query: qid_attr(qid),
                    });
                }
                for l in &usable {
                    ctx.send(from, share_msg(l, &self.labels[l], qid_tag(qid)));
                }
                if rest.is_empty() {
                    return;
                }
            }
            wanted = rest;
        }
        // Fresh cached object with enough remaining validity to survive the
        // trip and the requester's decision?
        if let Some(stored) = self.content.get_fresh(&name, now) {
            if stored.expires_at() >= now + SERVE_HEADROOM {
                let object = stored.value.clone();
                self.stats.cache_hits += 1;
                if ctx.obs_enabled() {
                    ctx.emit(EventKind::CacheHit {
                        name: name.to_string(),
                        requester: from.index() as u32,
                        query: qid_attr(qid),
                    });
                }
                reply_data(ctx, from, object, qid);
                return;
            }
        }
        // Approximate substitution (§V-A): a fresh cached object whose name
        // shares a long-enough prefix — e.g. another camera over the same
        // road segment — unless the name space region is critical (§V-C).
        if let Some(min_shared) = self.shared.options.approx_min_shared {
            if self.shared.options.criticality.classify(&name) != Criticality::Critical {
                if let Some((_, stored)) =
                    self.content
                        .closest_fresh(&name, now + SERVE_HEADROOM, min_shared)
                {
                    // The name-similarity proxy is checked against ground
                    // truth coverage so a bad namespace design cannot send
                    // useless evidence on a long trip.
                    if wanted.iter().all(|l| stored.value.covers_label(l)) {
                        let object = stored.value.clone();
                        self.stats.approx_hits += 1;
                        if ctx.obs_enabled() {
                            ctx.emit(EventKind::ApproxHit {
                                name: name.to_string(),
                                substitute: object.name.to_string(),
                                query: qid_attr(qid),
                            });
                        }
                        reply_data(ctx, from, object, qid);
                        return;
                    }
                }
            }
        }
        let Some(spec) = self.catalog().by_name(&name) else {
            return; // unknown object: drop
        };
        let source = spec.source;
        // We are the source: sample fresh and reply.
        if source == me {
            let object = self.sample_object(spec, now);
            self.store(ctx, &object, qid_attr(qid));
            reply_data(ctx, from, object, qid);
            return;
        }
        // Prefetch requests are not forwarded (§VI-B).
        if kind == RequestKind::Prefetch {
            return;
        }
        let hop = ctx.next_hop_toward(source).filter(|h| *h != from);
        if ctx.obs_enabled() {
            ctx.emit(EventKind::CacheMiss {
                name: name.to_string(),
                forwarded_to: hop.map(|h| h.index() as u32),
                query: qid_attr(qid),
            });
        }
        // Register the interest; forward only the first. Lapsed interests
        // go first, so a request never aggregates onto a dead entry: a
        // pure forwarder has no wake-up to sweep them (free when none is
        // due).
        self.pit.expire(now);
        let first = self.pit.register(
            &name,
            Requester::Neighbor(from),
            (qid, wanted.clone()),
            now + INTEREST_LIFETIME,
        );
        if let (true, Some(hop)) = (first, hop) {
            self.stats.requests_forwarded += 1;
            ctx.send(
                hop,
                AthenaMsg::Request {
                    name,
                    wanted,
                    qid,
                    origin,
                    kind,
                },
            );
        }
    }

    /// Re-forwards a request toward `name`'s source after the in-flight
    /// request may have been consumed by a partial PIT satisfaction —
    /// restores the invariant that pending interests imply a request in
    /// flight. Nothing leaves when we are the source: data will be produced
    /// locally.
    fn reforward_request(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        name: &Name,
        wanted: Vec<Label>,
    ) {
        if let Some(hop) = self.hop_toward_source(ctx, name) {
            self.stats.requests_forwarded += 1;
            ctx.send(
                hop,
                AthenaMsg::Request {
                    name: name.clone(),
                    wanted,
                    qid: QueryId(u64::MAX), // synthetic repair request
                    origin: ctx.node(),
                    kind: RequestKind::Fetch,
                },
            );
        }
    }

    /// Takes the interests pending under `name`, strikes from each the
    /// labels that arriving evidence `resolves`, and re-registers what is
    /// left of them with their original lifetimes. An interest is served
    /// when the evidence resolves at least one of its labels; local
    /// interests are served through annotation, so only neighbors are
    /// reported back.
    fn whittle_interests(&mut self, name: &Name, resolves: impl Fn(&Label) -> bool) -> Whittled {
        let mut out = Whittled::default();
        let mut any_emptied = false;
        for i in self.pit.take(name) {
            let (qid, mut wanted) = i.query;
            if wanted.iter().any(&resolves) {
                if let Requester::Neighbor(nb) = i.requester {
                    if !out.served.iter().any(|(seen, _)| *seen == nb) {
                        out.served.push((nb, qid));
                    }
                }
                wanted.retain(|l| !resolves(l));
            }
            if wanted.is_empty() {
                any_emptied = true;
                continue;
            }
            for l in &wanted {
                if !out.starved.contains(l) {
                    out.starved.push(l.clone());
                }
            }
            self.pit
                .register(name, i.requester, (qid, wanted), i.expires_at);
        }
        if !any_emptied {
            out.starved.clear();
        }
        out
    }

    /// `Data_Recv`: caches arriving data, serves the interests it answers,
    /// continues a prefetch push, and annotates for local queries.
    /// `for_query` is the sender's attribution tag — the decision the
    /// object is traveling for, when the sender knew it.
    pub(super) fn handle_data(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        object: EvidenceObject,
        push_to: Option<NodeId>,
        for_query: Option<QueryId>,
    ) {
        let me = ctx.node();
        // Who asked for exactly this object: distinct neighbors, each with
        // the first decision its interests name (for attribution of the
        // forwarded copies), and the local queries.
        let mut targets: BTreeMap<NodeId, Option<QueryId>> = BTreeMap::new();
        let mut local_qids: BTreeSet<QueryId> = BTreeSet::new();
        let mut interest_query: Option<QueryId> = None;
        for i in self.pit.take(&object.name) {
            let tag = qid_tag(i.query.0);
            interest_query = interest_query.or(tag);
            match i.requester {
                Requester::Local => local_qids.extend(tag),
                Requester::Neighbor(nb) => {
                    let slot = targets.entry(nb).or_insert(None);
                    *slot = slot.or(tag);
                }
            }
        }
        self.store(ctx, &object, for_query.or(interest_query).map(|q| q.0));
        // Continue a prefetch push toward its destination.
        let mut push_hop: Option<(NodeId, NodeId)> = None; // (next hop, final dst)
        if let Some(dst) = push_to {
            if dst != me {
                if let Some(hop) = ctx.next_hop_toward(dst) {
                    push_hop = Some((hop, dst));
                }
            }
        }
        for (nb, tag) in &targets {
            let continues_push = push_hop.is_some_and(|(hop, _)| hop == *nb);
            self.stats.data_forwarded += 1;
            ctx.send(
                *nb,
                AthenaMsg::Data {
                    object: object.clone(),
                    push_to: if continues_push { push_to } else { None },
                    for_query: tag.or(for_query),
                },
            );
            if continues_push {
                push_hop = None; // the forwarded copy carries the push onward
            }
        }
        if let Some((hop, dst)) = push_hop {
            if !self.triage_redundant(ctx, hop, &object.name) {
                ctx.send(
                    hop,
                    AthenaMsg::Data {
                        object: object.clone(),
                        push_to: Some(dst),
                        for_query,
                    },
                );
            }
        }
        // Adaptive load signal: evidence bytes arriving for local queries
        // accumulate per query and are folded into the load estimator when
        // the decision completes — the same Deliver-with-attribution the
        // cost ledger charges. Local delivery itself happens via the
        // annotation below.
        if self.adaptive.is_some() {
            for qid in local_qids {
                self.local(qid).ingress_bytes += object.size;
            }
        }

        // The object may also satisfy interests registered under *other*
        // names — a panorama or an approximate substitute covers the same
        // label as the exact object someone asked for. Each neighbor gets
        // one copy, however many of its interests the object answers.
        let mut served: BTreeSet<NodeId> = targets.into_keys().collect();
        let shared = Arc::clone(&self.shared);
        for label in &object.covers {
            for &i in shared.catalog.providers_of(label) {
                let name = &shared.catalog.get(i).name;
                if *name == object.name {
                    continue;
                }
                let whittled = self.whittle_interests(name, |l| object.covers_label(l));
                for (nb, qid) in whittled.served {
                    if served.insert(nb) {
                        self.stats.data_forwarded += 1;
                        reply_data(ctx, nb, object.clone(), qid);
                    }
                }
                if !whittled.starved.is_empty() {
                    self.reforward_request(ctx, name, whittled.starved);
                }
            }
        }
        // Annotate for any local query that cares (origin-side evaluation).
        self.annotate_object(ctx, &object);
        self.advance_queries(ctx);
    }

    /// Applies a trusted shared label to the cache and to local queries.
    fn apply_shared_label(&mut self, label: &Label, c: &CachedLabel, now: SimTime) {
        let fresher = self
            .labels
            .get(label)
            .is_none_or(|old| c.sampled_at > old.sampled_at);
        if fresher {
            self.labels.insert(label.clone(), c.clone());
        }
        if c.is_fresh_at(now) {
            self.record_on_open(label, c, now, None, |n| n.labels_from_shares += 1);
        }
    }

    /// Handles a shared label: cache, apply, serve matching interests,
    /// forward toward the data source (trusted or not: the next node may
    /// trust its annotator).
    pub(super) fn handle_label_share(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        from: NodeId,
        label: Label,
        c: CachedLabel,
        for_query: Option<QueryId>,
    ) {
        // A share we trust answers local queries and the pending interests
        // that wanted an object *for this label*: the share is forwarded to
        // each such requester, and its interest stays pending for its other
        // labels.
        if self.shared.options.trust.accepts(c.annotator) {
            self.apply_shared_label(&label, &c, ctx.now());
            let shared = Arc::clone(&self.shared);
            for &i in shared.catalog.providers_of(&label) {
                let name = &shared.catalog.get(i).name;
                let whittled = self.whittle_interests(name, |l| *l == label);
                // An emptied interest may have been the one whose request
                // was in flight (answered upstream without forwarding);
                // re-request the survivors' labels so they are not starved.
                if !whittled.starved.is_empty() {
                    self.reforward_request(ctx, name, whittled.starved);
                }
                for (nb, qid) in whittled.served {
                    self.stats.labels_forwarded += 1;
                    ctx.send(nb, share_msg(&label, &c, qid_tag(qid).or(for_query)));
                }
            }
        }

        // Propagate toward the data source so future requests en route can
        // be served (§VI-D).
        if let Some(hop) = self.hop_toward_source(ctx, &c.based_on) {
            if hop != from {
                ctx.send(hop, share_msg(&label, &c, for_query));
            }
        }
        self.advance_queries(ctx);
    }
}
