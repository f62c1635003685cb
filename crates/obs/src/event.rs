//! The trace event taxonomy: typed events over the full query lifecycle.
//!
//! Events cover both layers of the stack. The network simulator emits
//! link-level events (`transmit`, `deliver`, `loss`, `drop`, `purge`,
//! `fault`); the Athena protocol emits decision-level events (`query-init`,
//! `plan`, `request-send`, `cache-hit`/`cache-miss`, `label-hit`,
//! `approx-hit`, `local-sample`, `cache-store`, `annotate`, `label-share`,
//! `prefetch-push`, `triage-drop`, `query-resolved`, `query-missed`).
//!
//! Events that consume resources on behalf of a decision carry an
//! *attribution key*: the causing query id (link-layer `query` field) and,
//! where the predicate is known, the OR-term/condition coordinates
//! (`term`/`cond` on `request-send` and `annotate`). The
//! [`ledger`](crate::ledger) module folds these into a per-decision
//! [`CostLedger`](crate::ledger::CostLedger).
//!
//! A [`TraceRecord`] stamps an [`EventKind`] with the *simulated* time it
//! occurred and the node reporting it. Node identity is a plain `u32`
//! (`NodeId` lives upstream in `dde-netsim`, which depends on this crate).

use crate::json::{write_json_int, write_json_string, JsonValue};
use dde_logic::time::SimTime;

/// One trace event: what happened, where, at which simulated instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Index of the node reporting the event.
    pub node: u32,
    /// The event itself.
    pub kind: EventKind,
}

/// What happened. Variants carrying `String` payloads should only be built
/// when the active sink is [enabled](crate::sink::Sink::enabled), so the
/// null sink costs a branch and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A message started clocking onto the directed link `from → to`.
    Transmit {
        /// Transmitting node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Message kind tag (`announce`, `request`, `data`, `label`, …).
        msg: &'static str,
        /// Wire size in bytes.
        bytes: u64,
        /// Whether it rode in the background priority class.
        background: bool,
        /// The decision query this transmission serves, when attributable.
        query: Option<u64>,
    },
    /// A message arrived and is being handled at `to`.
    Deliver {
        /// Transmitting node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Message kind tag.
        msg: &'static str,
        /// The decision query this delivery serves, when attributable.
        query: Option<u64>,
    },
    /// A transmission was lost to link noise (seeded sampling).
    Loss {
        /// Transmitting node.
        from: u32,
        /// Intended receiver.
        to: u32,
        /// Message kind tag.
        msg: &'static str,
        /// Wire size in bytes (bandwidth was still consumed).
        bytes: u64,
        /// The decision query the lost message served, when attributable.
        query: Option<u64>,
    },
    /// An in-flight message was dropped at arrival.
    Drop {
        /// Transmitting node.
        from: u32,
        /// Intended receiver.
        to: u32,
        /// Why: `link-down` or `node-down`.
        reason: &'static str,
    },
    /// Queued (never transmitted) messages were purged from a link by a
    /// fault.
    Purge {
        /// Transmitting side of the purged link.
        from: u32,
        /// Receiving side of the purged link.
        to: u32,
        /// How many messages vanished.
        count: u64,
    },
    /// A scheduled fault transition was applied.
    Fault {
        /// Which: `node-crash`, `node-recover`, `link-down`, `link-up`.
        fault: &'static str,
        /// The affected node (or one endpoint of the affected link).
        node: u32,
        /// The other link endpoint, for link faults.
        peer: Option<u32>,
    },
    /// A decision query was issued at its origin (`Query_Init`).
    QueryInit {
        /// Query id.
        query: u64,
        /// Origin node.
        origin: u32,
    },
    /// The origin planned its retrieval: the decision-driven ordering
    /// rationale, rendered by `dde-sched`'s `explain`.
    Plan {
        /// Query id.
        query: u64,
        /// Strategy code (`cmp`, `slt`, `lcf`, `lvf`, `lvfl`).
        strategy: &'static str,
        /// Number of candidate objects selected.
        candidates: u64,
        /// Predicted expected retrieval cost in bytes (§III-A expected
        /// short-circuit cost of the chosen plan ordering).
        expected_bytes: u64,
        /// Human-readable ordering rationale (term ranking, expected
        /// costs, short-circuit ratios).
        rationale: String,
    },
    /// The origin sent a fetch request into the network.
    RequestSend {
        /// Query id.
        query: u64,
        /// Requested object name.
        name: String,
        /// First hop the request was sent to.
        hop: u32,
        /// OR-term index of the predicate driving this fetch.
        term: Option<u32>,
        /// Condition index within the OR-term.
        cond: Option<u32>,
    },
    /// A request was answered from this node's content store.
    CacheHit {
        /// Served object name.
        name: String,
        /// Neighbor the reply was sent to.
        requester: u32,
        /// The decision query the request served, when attributable.
        query: Option<u64>,
    },
    /// A request could not be served locally and was forwarded (or hit a
    /// dead end).
    CacheMiss {
        /// Requested object name.
        name: String,
        /// Next hop it was forwarded to, if a route existed.
        forwarded_to: Option<u32>,
        /// The decision query the request served, when attributable.
        query: Option<u64>,
    },
    /// A request was answered with cached *labels* instead of data (§VI-D).
    LabelHit {
        /// Neighbor the labels were sent to.
        requester: u32,
        /// How many of the request's labels were answered.
        labels: u64,
        /// The decision query the request served, when attributable.
        query: Option<u64>,
    },
    /// A request was answered with an approximate (same-prefix) substitute
    /// object (§V-A).
    ApproxHit {
        /// Requested object name.
        name: String,
        /// The substitute actually served.
        substitute: String,
        /// The decision query the request served, when attributable.
        query: Option<u64>,
    },
    /// A label was resolved by sampling a co-located sensor (no network).
    LocalSample {
        /// Sampled object name.
        name: String,
        /// The decision query the sample served, when attributable.
        query: Option<u64>,
    },
    /// An object was stored into a node's content store; occupancy is
    /// charged as `bytes × validity_us` (byte-microseconds) to `query`.
    CacheStore {
        /// Stored object name.
        name: String,
        /// Object payload size in bytes.
        bytes: u64,
        /// Remaining validity when stored, in microseconds.
        validity_us: u64,
        /// The decision query whose retrieval caused the store.
        query: Option<u64>,
    },
    /// Evidence was annotated into a label value at the query origin.
    Annotate {
        /// Query id.
        query: u64,
        /// The judged label.
        label: String,
        /// The judged value.
        value: bool,
        /// OR-term index of the annotated predicate.
        term: Option<u32>,
        /// Condition index within the OR-term.
        cond: Option<u32>,
    },
    /// A label value was shared toward the evidence source (§VI-D).
    LabelShare {
        /// The shared label.
        label: String,
        /// The shared value.
        value: bool,
        /// First hop of the share.
        toward: u32,
        /// The decision query whose annotation is being shared.
        query: Option<u64>,
    },
    /// A source-side prefetch push was initiated (§VI-A).
    PrefetchPush {
        /// Pushed object name.
        name: String,
        /// First hop toward the anticipated consumer.
        toward: u32,
        /// The decision query whose announce triggered the push.
        query: Option<u64>,
    },
    /// A background push was dropped by sub-additive utility triage (§V-B).
    TriageDrop {
        /// The redundant object name.
        name: String,
        /// The hop it would have been pushed to.
        hop: u32,
    },
    /// A query reached a decision before its deadline.
    QueryResolved {
        /// Query id.
        query: u64,
        /// `viable` or `infeasible`.
        outcome: &'static str,
        /// Issue-to-decision latency in microseconds.
        latency_us: u64,
    },
    /// A query's deadline passed while undecided.
    QueryMissed {
        /// Query id.
        query: u64,
    },
    /// An in-flight fetch hit its retry timeout and the origin is about to
    /// re-plan; the selected source's reliability estimate is discounted.
    /// Emitted only by adaptive-planning runs.
    FetchTimeout {
        /// Query id.
        query: u64,
        /// The object name whose fetch timed out.
        name: String,
        /// The source node the fetch was directed at.
        source: u32,
    },
    /// The admission gate ruled on a query (adaptive-planning runs only).
    Admission {
        /// Query id.
        query: u64,
        /// `admit`, `defer`, or `shed`.
        verdict: &'static str,
        /// Predicted expected retrieval cost in bytes at gate time.
        predicted_bytes: u64,
    },
}

/// One payload value of an event, borrowed from the record that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldVal<'a> {
    /// A count, size, id or microsecond figure.
    Int(i64),
    /// A name, tag or rationale.
    Str(&'a str),
    /// A flag.
    Bool(bool),
    /// An absent value whose key is still written (`forwarded_to`).
    Null,
}

/// A `u64` as the trace can carry it. JSON integers here are `i64`, so a
/// larger value ("never expires" validities) saturates instead of wrapping
/// negative; the live ledger view applies the same function, which keeps
/// the live fold equal to the offline one for every input.
pub(crate) fn wire_u64(v: u64) -> u64 {
    v.min(i64::MAX as u64)
}

fn n(v: u64) -> FieldVal<'static> {
    FieldVal::Int(wire_u64(v) as i64)
}

fn u(v: u32) -> FieldVal<'static> {
    FieldVal::Int(i64::from(v))
}

impl EventKind {
    /// The stable kind tag used in JSONL traces and per-kind diff deltas.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EventKind::Transmit { .. } => "transmit",
            EventKind::Deliver { .. } => "deliver",
            EventKind::Loss { .. } => "loss",
            EventKind::Drop { .. } => "drop",
            EventKind::Purge { .. } => "purge",
            EventKind::Fault { .. } => "fault",
            EventKind::QueryInit { .. } => "query-init",
            EventKind::Plan { .. } => "plan",
            EventKind::RequestSend { .. } => "request-send",
            EventKind::CacheHit { .. } => "cache-hit",
            EventKind::CacheMiss { .. } => "cache-miss",
            EventKind::LabelHit { .. } => "label-hit",
            EventKind::ApproxHit { .. } => "approx-hit",
            EventKind::LocalSample { .. } => "local-sample",
            EventKind::CacheStore { .. } => "cache-store",
            EventKind::Annotate { .. } => "annotate",
            EventKind::LabelShare { .. } => "label-share",
            EventKind::PrefetchPush { .. } => "prefetch-push",
            EventKind::TriageDrop { .. } => "triage-drop",
            EventKind::QueryResolved { .. } => "query-resolved",
            EventKind::QueryMissed { .. } => "query-missed",
            EventKind::FetchTimeout { .. } => "fetch-timeout",
            EventKind::Admission { .. } => "admission",
        }
    }

    /// The variant's payload fields in wire order (without the common
    /// `t`/`node`/`kind` envelope), borrowed from the record. This is the
    /// one field table: the JSONL encoder and [`fields`](Self::fields) both
    /// read it, so a key is named and ordered in exactly one place.
    pub fn visit_fields<'a>(&'a self, f: &mut impl FnMut(&'static str, FieldVal<'a>)) {
        use FieldVal::{Bool, Null, Str};
        /// `"query": q` only when the attribution is present, so
        /// unattributable events keep their pre-attribution wire shape.
        fn query<'a>(f: &mut impl FnMut(&'static str, FieldVal<'a>), query: &Option<u64>) {
            if let Some(q) = query {
                f("query", n(*q));
            }
        }
        /// `"term"`/`"cond"` predicate coordinates when present.
        fn pred<'a>(
            f: &mut impl FnMut(&'static str, FieldVal<'a>),
            term: &Option<u32>,
            cond: &Option<u32>,
        ) {
            if let Some(t) = term {
                f("term", u(*t));
            }
            if let Some(c) = cond {
                f("cond", u(*c));
            }
        }
        match self {
            EventKind::Transmit {
                from,
                to,
                msg,
                bytes,
                background,
                query: q,
            } => {
                f("from", u(*from));
                f("to", u(*to));
                f("msg", Str(msg));
                f("bytes", n(*bytes));
                f("bg", Bool(*background));
                query(f, q);
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                query: q,
            } => {
                f("from", u(*from));
                f("to", u(*to));
                f("msg", Str(msg));
                query(f, q);
            }
            EventKind::Loss {
                from,
                to,
                msg,
                bytes,
                query: q,
            } => {
                f("from", u(*from));
                f("to", u(*to));
                f("msg", Str(msg));
                f("bytes", n(*bytes));
                query(f, q);
            }
            EventKind::Drop { from, to, reason } => {
                f("from", u(*from));
                f("to", u(*to));
                f("reason", Str(reason));
            }
            EventKind::Purge { from, to, count } => {
                f("from", u(*from));
                f("to", u(*to));
                f("count", n(*count));
            }
            EventKind::Fault { fault, node, peer } => {
                f("fault", Str(fault));
                f("a", u(*node));
                if let Some(p) = peer {
                    f("b", u(*p));
                }
            }
            EventKind::QueryInit { query, origin } => {
                f("query", n(*query));
                f("origin", u(*origin));
            }
            EventKind::Plan {
                query,
                strategy,
                candidates,
                expected_bytes,
                rationale,
            } => {
                f("query", n(*query));
                f("strategy", Str(strategy));
                f("candidates", n(*candidates));
                f("expected_bytes", n(*expected_bytes));
                f("rationale", Str(rationale));
            }
            EventKind::RequestSend {
                query,
                name,
                hop,
                term,
                cond,
            } => {
                f("query", n(*query));
                f("name", Str(name));
                f("hop", u(*hop));
                pred(f, term, cond);
            }
            EventKind::CacheHit {
                name,
                requester,
                query: q,
            } => {
                f("name", Str(name));
                f("requester", u(*requester));
                query(f, q);
            }
            EventKind::CacheMiss {
                name,
                forwarded_to,
                query: q,
            } => {
                f("name", Str(name));
                f("forwarded_to", forwarded_to.map_or(Null, u));
                query(f, q);
            }
            EventKind::LabelHit {
                requester,
                labels,
                query: q,
            } => {
                f("requester", u(*requester));
                f("labels", n(*labels));
                query(f, q);
            }
            EventKind::ApproxHit {
                name,
                substitute,
                query: q,
            } => {
                f("name", Str(name));
                f("substitute", Str(substitute));
                query(f, q);
            }
            EventKind::LocalSample { name, query: q } => {
                f("name", Str(name));
                query(f, q);
            }
            EventKind::CacheStore {
                name,
                bytes,
                validity_us,
                query: q,
            } => {
                f("name", Str(name));
                f("bytes", n(*bytes));
                f("validity_us", n(*validity_us));
                query(f, q);
            }
            EventKind::Annotate {
                query,
                label,
                value,
                term,
                cond,
            } => {
                f("query", n(*query));
                f("label", Str(label));
                f("value", Bool(*value));
                pred(f, term, cond);
            }
            EventKind::LabelShare {
                label,
                value,
                toward,
                query: q,
            } => {
                f("label", Str(label));
                f("value", Bool(*value));
                f("toward", u(*toward));
                query(f, q);
            }
            EventKind::PrefetchPush {
                name,
                toward,
                query: q,
            } => {
                f("name", Str(name));
                f("toward", u(*toward));
                query(f, q);
            }
            EventKind::TriageDrop { name, hop } => {
                f("name", Str(name));
                f("hop", u(*hop));
            }
            EventKind::QueryResolved {
                query,
                outcome,
                latency_us,
            } => {
                f("query", n(*query));
                f("outcome", Str(outcome));
                f("latency_us", n(*latency_us));
            }
            EventKind::QueryMissed { query } => f("query", n(*query)),
            EventKind::FetchTimeout {
                query,
                name,
                source,
            } => {
                f("query", n(*query));
                f("name", Str(name));
                f("source", u(*source));
            }
            EventKind::Admission {
                query,
                verdict,
                predicted_bytes,
            } => {
                f("query", n(*query));
                f("verdict", Str(verdict));
                f("predicted_bytes", n(*predicted_bytes));
            }
        }
    }

    /// The payload fields as an owned JSON tree, for consumers that nest
    /// them in a larger document (the Chrome export's `args`).
    pub fn fields(&self) -> Vec<(String, JsonValue)> {
        let mut pairs = Vec::new();
        self.visit_fields(&mut |key, val| {
            let val = match val {
                FieldVal::Int(i) => JsonValue::Int(i),
                FieldVal::Str(s) => JsonValue::Str(s.to_string()),
                FieldVal::Bool(b) => JsonValue::Bool(b),
                FieldVal::Null => JsonValue::Null,
            };
            pairs.push((key.to_string(), val));
        });
        pairs
    }
}

impl TraceRecord {
    /// Appends the record to `out` as one JSON object (no trailing
    /// newline) with a fixed key order: `t` (microseconds of simulated
    /// time), `node`, `kind`, then the variant's payload fields. Nothing is
    /// built on the way: keys are literals and values are written from the
    /// record's own fields, so encoding allocates only if `out` must grow.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"t\":");
        write_json_int(out, wire_u64(self.at.as_micros()) as i64);
        out.push_str(",\"node\":");
        write_json_int(out, i64::from(self.node));
        out.push_str(",\"kind\":");
        write_json_string(out, self.kind.kind_name());
        self.kind.visit_fields(&mut |key, val| {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            match val {
                FieldVal::Int(i) => write_json_int(out, i),
                FieldVal::Str(s) => write_json_string(out, s),
                FieldVal::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                FieldVal::Null => out.push_str("null"),
            }
        });
        out.push('}');
    }

    /// The record as one JSONL line (no trailing newline).
    pub fn to_jsonl_line(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn jsonl_line_has_fixed_envelope() {
        let rec = TraceRecord {
            at: SimTime::from_micros(1500),
            node: 3,
            kind: EventKind::Transmit {
                from: 3,
                to: 4,
                msg: "data",
                bytes: 450_000,
                background: false,
                query: None,
            },
        };
        assert_eq!(
            rec.to_jsonl_line(),
            r#"{"t":1500,"node":3,"kind":"transmit","from":3,"to":4,"msg":"data","bytes":450000,"bg":false}"#
        );
    }

    #[test]
    fn attribution_appends_query_field() {
        let rec = TraceRecord {
            at: SimTime::from_micros(1500),
            node: 3,
            kind: EventKind::Transmit {
                from: 3,
                to: 4,
                msg: "data",
                bytes: 450_000,
                background: false,
                query: Some(12),
            },
        };
        assert_eq!(
            rec.to_jsonl_line(),
            r#"{"t":1500,"node":3,"kind":"transmit","from":3,"to":4,"msg":"data","bytes":450000,"bg":false,"query":12}"#
        );
    }

    /// Strings that exercise every escape, the empty case and multi-byte text.
    const HOSTILE: [&str; 10] = [
        "",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{1}",
        "héllo → wörld 🚀",
        "a\"b\\c\nd\u{1f}e\u{7f}",
        "/city/x",
    ];

    /// Every variant once, with string fields set to `s` and `Option` fields
    /// `Some` or `None` as `a` (first optional) and `b` (second) say.
    fn every_variant(s: &'static str, a: bool, b: bool) -> Vec<EventKind> {
        let q = a.then_some(7u64);
        let term = a.then_some(1u32);
        let cond = b.then_some(2u32);
        vec![
            EventKind::Transmit {
                from: 0,
                to: 1,
                msg: s,
                bytes: 64,
                background: b,
                query: q,
            },
            EventKind::Deliver {
                from: 0,
                to: 1,
                msg: s,
                query: q,
            },
            EventKind::Loss {
                from: 0,
                to: 1,
                msg: s,
                bytes: 9,
                query: q,
            },
            EventKind::Drop {
                from: 0,
                to: 1,
                reason: s,
            },
            EventKind::Purge {
                from: 0,
                to: 1,
                count: 3,
            },
            EventKind::Fault {
                fault: s,
                node: 5,
                peer: a.then_some(1),
            },
            EventKind::QueryInit {
                query: 7,
                origin: 2,
            },
            EventKind::Plan {
                query: 7,
                strategy: s,
                candidates: 4,
                expected_bytes: 120_000,
                rationale: s.to_string(),
            },
            EventKind::RequestSend {
                query: 7,
                name: s.to_string(),
                hop: 1,
                term,
                cond,
            },
            EventKind::CacheHit {
                name: s.to_string(),
                requester: 0,
                query: q,
            },
            EventKind::CacheMiss {
                name: s.to_string(),
                forwarded_to: b.then_some(3),
                query: q,
            },
            EventKind::LabelHit {
                requester: 0,
                labels: 2,
                query: q,
            },
            EventKind::ApproxHit {
                name: s.to_string(),
                substitute: s.to_string(),
                query: q,
            },
            EventKind::LocalSample {
                name: s.to_string(),
                query: q,
            },
            EventKind::CacheStore {
                name: s.to_string(),
                bytes: 450_000,
                validity_us: 60_000_000,
                query: q,
            },
            EventKind::Annotate {
                query: 7,
                label: s.to_string(),
                value: b,
                term,
                cond,
            },
            EventKind::LabelShare {
                label: s.to_string(),
                value: b,
                toward: 3,
                query: q,
            },
            EventKind::PrefetchPush {
                name: s.to_string(),
                toward: 3,
                query: q,
            },
            EventKind::TriageDrop {
                name: s.to_string(),
                hop: 3,
            },
            EventKind::QueryResolved {
                query: 7,
                outcome: s,
                latency_us: 1_200_000,
            },
            EventKind::QueryMissed { query: 8 },
            EventKind::FetchTimeout {
                query: 7,
                name: s.to_string(),
                source: 3,
            },
            EventKind::Admission {
                query: 9,
                verdict: s,
                predicted_bytes: 450_000,
            },
        ]
    }

    /// A variant's position in [`every_variant`]. No wildcard arm: a new
    /// variant fails to compile here until the list above covers it.
    fn variant_index(kind: &EventKind) -> usize {
        match kind {
            EventKind::Transmit { .. } => 0,
            EventKind::Deliver { .. } => 1,
            EventKind::Loss { .. } => 2,
            EventKind::Drop { .. } => 3,
            EventKind::Purge { .. } => 4,
            EventKind::Fault { .. } => 5,
            EventKind::QueryInit { .. } => 6,
            EventKind::Plan { .. } => 7,
            EventKind::RequestSend { .. } => 8,
            EventKind::CacheHit { .. } => 9,
            EventKind::CacheMiss { .. } => 10,
            EventKind::LabelHit { .. } => 11,
            EventKind::ApproxHit { .. } => 12,
            EventKind::LocalSample { .. } => 13,
            EventKind::CacheStore { .. } => 14,
            EventKind::Annotate { .. } => 15,
            EventKind::LabelShare { .. } => 16,
            EventKind::PrefetchPush { .. } => 17,
            EventKind::TriageDrop { .. } => 18,
            EventKind::QueryResolved { .. } => 19,
            EventKind::QueryMissed { .. } => 20,
            EventKind::FetchTimeout { .. } => 21,
            EventKind::Admission { .. } => 22,
        }
    }

    /// Every variant × every `Option` shape × strings needing every escape:
    /// the directly written line is the compact form of the tree built from
    /// the envelope and `fields()`, and parses back to it, key order
    /// included.
    #[test]
    fn every_variant_serializes_and_parses() {
        for s in HOSTILE {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let kinds = every_variant(s, a, b);
                for (i, kind) in kinds.iter().enumerate() {
                    assert_eq!(variant_index(kind), i, "list covers every variant");
                }
                for kind in kinds {
                    let rec = TraceRecord {
                        at: SimTime::from_micros(1_234_567),
                        node: 42,
                        kind,
                    };
                    let mut pairs = vec![
                        ("t".to_string(), JsonValue::Int(1_234_567)),
                        ("node".to_string(), JsonValue::Int(42)),
                        (
                            "kind".to_string(),
                            JsonValue::Str(rec.kind.kind_name().to_string()),
                        ),
                    ];
                    pairs.extend(rec.kind.fields());
                    let tree = JsonValue::Object(pairs);
                    let mut line = String::from("kept:");
                    rec.write_jsonl(&mut line);
                    let line = line.strip_prefix("kept:").expect("write_jsonl appends");
                    assert_eq!(line, tree.to_compact_string(), "{rec:?}");
                    assert_eq!(line, rec.to_jsonl_line());
                    assert_eq!(parse(line).expect(line), tree, "{rec:?}");
                }
            }
        }
    }
}
