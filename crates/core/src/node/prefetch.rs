//! Background traffic (§VI-A, §V-B): `Query_Recv` queues source-side
//! pushes for announced queries, wake-ups one [`POLL`] apart send them one
//! at a time while no local fetch is in flight, and utility triage drops
//! the redundant ones.

use super::{announce_to_children, AthenaNode, PushTask, POLL};
use crate::msg::{AthenaMsg, QueryId};
use dde_logic::dnf::Dnf;
use dde_logic::time::{SimDuration, SimTime};
use dde_naming::name::Name;
use dde_netsim::sim::Context;
use dde_netsim::topology::NodeId;
use dde_obs::EventKind;

impl AthenaNode {
    /// `Query_Recv`: relays a query announcement once, down the origin's
    /// routing tree, and, with prefetch on, queues a background push for
    /// every candidate object this node sources.
    pub(super) fn handle_announce(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        qid: QueryId,
        origin: NodeId,
        expr: Dnf,
        deadline_at: SimTime,
    ) {
        if !self.seen_announces.insert(qid) {
            return;
        }
        self.stats.announces_relayed += 1;
        let me = ctx.node();
        announce_to_children(ctx, qid, origin, &expr, deadline_at);
        if self.shared.options.prefetch_enabled() && ctx.now() < deadline_at {
            let labels = expr.labels();
            // Only candidates this node sources are queued, and a
            // candidate provides some label of the expression: a node
            // hosting no such sensor — most receivers of an announce — has
            // nothing to find in the cover and skips computing it.
            let sources_any = labels.iter().any(|l| {
                let providers = self.catalog().providers_of(l);
                providers
                    .iter()
                    .any(|&i| self.catalog().get(i).source == me)
            });
            let candidates = if sources_any {
                let strategy = self.shared.options.strategy;
                strategy.candidates(&labels, self.catalog(), origin, ctx.topology())
            } else {
                Vec::new()
            };
            for idx in candidates {
                if self.catalog().get(idx).source == me {
                    self.prefetch_queue.push_back(PushTask {
                        object_idx: idx,
                        origin,
                        qid,
                        deadline_at,
                    });
                }
            }
            self.arm(ctx, None);
        }
    }

    /// Whether a local query has a fetch in flight. Called where `open`
    /// holds exactly the non-final queries.
    fn foreground_busy(&self) -> bool {
        self.open
            .iter()
            .any(|qid| self.queries[qid].state.outstanding.is_some())
    }

    /// The next prefetch slot: one [`POLL`] from `now` while the queue holds
    /// a live task and no local fetch is in flight. A fetch in flight has a
    /// wake-up of its own, and whatever ends it arms again.
    pub(super) fn prefetch_due(&self, now: SimTime) -> Option<SimTime> {
        let live = self.prefetch_queue.iter().any(|t| t.deadline_at > now);
        (live && !self.foreground_busy()).then(|| now + POLL)
    }

    /// Processes the background prefetch queue: one source-side push per
    /// wake-up, and only when no local foreground fetch is outstanding
    /// ("the prefetch queue is only processed in the background", §VI-A).
    pub(super) fn process_prefetch(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        let now = ctx.now();
        let me = ctx.node();
        // Runs after the retrieval loop, so every open query is non-final.
        if self.foreground_busy() {
            return;
        }
        while let Some(task) = self.prefetch_queue.pop_front() {
            if task.deadline_at <= now {
                continue; // stale task
            }
            let spec = self.catalog().get(task.object_idx);
            debug_assert_eq!(spec.source, me);
            if task.origin == me {
                continue; // our own upcoming query; nothing to push to
            }
            let Some(hop) = ctx.next_hop_toward(task.origin) else {
                continue;
            };
            // Dedup: skip if we pushed this object on this link recently
            // (within its validity).
            let key = (spec.name.clone(), hop);
            if let Some(&last) = self.recent_pushes.get(&key) {
                if now.saturating_since(last) < spec.validity {
                    continue;
                }
            }
            if self.triage_redundant(ctx, hop, &key.0) {
                continue; // a very similar view was just pushed this way
            }
            let object = self.sample_object(self.catalog().get(task.object_idx), now);
            self.store(ctx, &object, Some(task.qid.0));
            self.recent_pushes.insert(key, now);
            self.stats.prefetch_pushes += 1;
            if ctx.obs_enabled() {
                ctx.emit(EventKind::PrefetchPush {
                    name: object.name.to_string(),
                    toward: hop.index() as u32,
                    query: Some(task.qid.0),
                });
            }
            ctx.send(
                hop,
                AthenaMsg::Data {
                    object,
                    push_to: Some(task.origin),
                    for_query: Some(task.qid),
                },
            );
            break; // one push per wake-up keeps prefetch in the background
        }
    }

    /// §V-B triage: whether a background push of `name` toward `hop` is
    /// redundant against what was recently pushed on that link. "Sending 10
    /// pictures of that same bridge … does not offer 10-times more
    /// information": marginal utility is `1 − max_similarity` to the
    /// recently delivered set, judged by shared name prefixes.
    pub(super) fn triage_redundant(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        hop: NodeId,
        name: &Name,
    ) -> bool {
        let Some(threshold) = self.shared.options.triage_threshold else {
            return false;
        };
        const WINDOW: SimDuration = SimDuration::from_secs(60);
        let now = ctx.now();
        let recent = self.recent_bg.entry(hop).or_default();
        recent.retain(|(_, at)| now.saturating_since(*at) < WINDOW);
        let max_sim = recent
            .iter()
            .map(|(n, _)| n.similarity(name))
            .fold(0.0, f64::max);
        if 1.0 - max_sim < threshold {
            self.stats.triage_drops += 1;
            if ctx.obs_enabled() {
                ctx.emit(EventKind::TriageDrop {
                    name: name.to_string(),
                    hop: hop.index() as u32,
                });
            }
            return true;
        }
        recent.push((name.clone(), now));
        false
    }
}
