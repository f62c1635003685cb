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

use crate::json::{
    into_string, parse, write_json_bool, write_json_int, write_json_string, write_json_u64,
    JsonValue,
};
use dde_logic::symbol::Interner;
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
    /// re-plan. Emitted only by adaptive-planning runs.
    FetchTimeout {
        /// Query id.
        query: u64,
        /// The object name whose fetch timed out.
        name: String,
        /// The source node the fetch was directed at.
        source: u32,
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
/// negative; the live folds apply the same function to what they read
/// from a record, which keeps the live ledger equal to the offline one for
/// every input.
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
        }
    }

    /// The decision query the event is charged to, as the trace carries it;
    /// `None` for plumbing no decision caused (faults, purges, drops,
    /// triage, unattributed link traffic).
    pub(crate) fn query(&self) -> Option<u64> {
        let query = match self {
            EventKind::Transmit { query, .. }
            | EventKind::Deliver { query, .. }
            | EventKind::Loss { query, .. }
            | EventKind::CacheHit { query, .. }
            | EventKind::CacheMiss { query, .. }
            | EventKind::LabelHit { query, .. }
            | EventKind::ApproxHit { query, .. }
            | EventKind::LocalSample { query, .. }
            | EventKind::CacheStore { query, .. }
            | EventKind::LabelShare { query, .. }
            | EventKind::PrefetchPush { query, .. } => *query,
            EventKind::QueryInit { query, .. }
            | EventKind::Plan { query, .. }
            | EventKind::RequestSend { query, .. }
            | EventKind::Annotate { query, .. }
            | EventKind::QueryResolved { query, .. }
            | EventKind::QueryMissed { query }
            | EventKind::FetchTimeout { query, .. } => Some(*query),
            EventKind::Drop { .. }
            | EventKind::Purge { .. }
            | EventKind::Fault { .. }
            | EventKind::TriageDrop { .. } => None,
        };
        query.map(wire_u64)
    }

    /// The variant's payload fields in wire order (without the common
    /// `t`/`node`/`kind` envelope), borrowed from the record. This is the
    /// one field table: [`fields`](Self::fields) reads it, and so does the
    /// JSONL encoder for every kind but `transmit` and `deliver`, whose
    /// hand-written shapes the tests check against it.
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
        }
    }

    /// The payload fields as an owned JSON tree: what a JSONL line holds
    /// besides its envelope, and so what the Chrome export puts under
    /// `args`.
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
    /// The one encoder: appends the record to `out` as one JSON object (no
    /// trailing newline) with a fixed key order: `t` (microseconds of
    /// simulated time), `node`, `kind`, then the variant's payload fields.
    /// Nothing is built on the way: keys and kind tags are literals copied
    /// as bytes (no tag needs escaping) and values are written from the
    /// record's own fields, so encoding allocates only if `out` must grow.
    ///
    /// `transmit` and `deliver`, three records in four of a run, are
    /// written by hand: each run of literal text between two values is one
    /// copy, and the flag with its key is one literal. Every other kind
    /// walks [`EventKind::visit_fields`]. The hand-written shapes must
    /// equal the table's; the tests hold them to it.
    pub(crate) fn encode_jsonl(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"t\":");
        write_json_u64(out, wire_u64(self.at.as_micros()));
        out.extend_from_slice(b",\"node\":");
        write_json_u64(out, u64::from(self.node));
        match &self.kind {
            EventKind::Transmit {
                from,
                to,
                msg,
                bytes,
                background,
                query,
            } => {
                out.extend_from_slice(b",\"kind\":\"transmit\",\"from\":");
                write_link(out, *from, *to, msg);
                out.extend_from_slice(b",\"bytes\":");
                write_json_u64(out, wire_u64(*bytes));
                out.extend_from_slice(if *background {
                    b",\"bg\":true"
                } else {
                    b",\"bg\":false"
                });
                write_query(out, *query);
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                query,
            } => {
                out.extend_from_slice(b",\"kind\":\"deliver\",\"from\":");
                write_link(out, *from, *to, msg);
                write_query(out, *query);
            }
            kind => kind.encode_fields(out),
        }
        out.push(b'}');
    }

    /// Appends the record to `out` as one JSONL line (no trailing newline),
    /// through the byte encoder [`JsonlSink`](crate::sink::JsonlSink) uses.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str(&self.to_jsonl_line());
    }

    /// The record as one JSONL line (no trailing newline).
    pub fn to_jsonl_line(&self) -> String {
        let mut out = Vec::new();
        self.encode_jsonl(&mut out);
        into_string(out)
    }

    /// The encoder's inverse: the record one JSONL line holds, so encoding
    /// it again gives the line back byte for byte. Integers come back as
    /// the trace carries them: a `u64` past `i64::MAX` was written
    /// saturated and reads back as `i64::MAX`. Strict: an unknown `kind`,
    /// a missing field or a field of the wrong type is an error naming
    /// it. The tags (`msg`, `reason`, `fault`, `strategy`, `outcome`) are
    /// resolved through `tags`, which leaks each distinct tag once,
    /// however many lines repeat it.
    pub fn decode_jsonl(line: &str, tags: &mut Interner) -> Result<TraceRecord, String> {
        let obj = parse(line).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let mut d = Fields { obj: &obj, tags };
        let kind = match d.text("kind")? {
            "transmit" => EventKind::Transmit {
                from: d.int("from")?,
                to: d.int("to")?,
                msg: d.tag("msg")?,
                bytes: d.int("bytes")?,
                background: d.flag("bg")?,
                query: d.opt("query")?,
            },
            "deliver" => EventKind::Deliver {
                from: d.int("from")?,
                to: d.int("to")?,
                msg: d.tag("msg")?,
                query: d.opt("query")?,
            },
            "loss" => EventKind::Loss {
                from: d.int("from")?,
                to: d.int("to")?,
                msg: d.tag("msg")?,
                bytes: d.int("bytes")?,
                query: d.opt("query")?,
            },
            "drop" => EventKind::Drop {
                from: d.int("from")?,
                to: d.int("to")?,
                reason: d.tag("reason")?,
            },
            "purge" => EventKind::Purge {
                from: d.int("from")?,
                to: d.int("to")?,
                count: d.int("count")?,
            },
            "fault" => EventKind::Fault {
                fault: d.tag("fault")?,
                node: d.int("a")?,
                peer: d.opt("b")?,
            },
            "query-init" => EventKind::QueryInit {
                query: d.int("query")?,
                origin: d.int("origin")?,
            },
            "plan" => EventKind::Plan {
                query: d.int("query")?,
                strategy: d.tag("strategy")?,
                candidates: d.int("candidates")?,
                expected_bytes: d.int("expected_bytes")?,
                rationale: d.text("rationale")?.to_string(),
            },
            "request-send" => EventKind::RequestSend {
                query: d.int("query")?,
                name: d.text("name")?.to_string(),
                hop: d.int("hop")?,
                term: d.opt("term")?,
                cond: d.opt("cond")?,
            },
            "cache-hit" => EventKind::CacheHit {
                name: d.text("name")?.to_string(),
                requester: d.int("requester")?,
                query: d.opt("query")?,
            },
            "cache-miss" => EventKind::CacheMiss {
                name: d.text("name")?.to_string(),
                forwarded_to: match d.field("forwarded_to")? {
                    JsonValue::Null => None,
                    _ => Some(d.int("forwarded_to")?),
                },
                query: d.opt("query")?,
            },
            "label-hit" => EventKind::LabelHit {
                requester: d.int("requester")?,
                labels: d.int("labels")?,
                query: d.opt("query")?,
            },
            "approx-hit" => EventKind::ApproxHit {
                name: d.text("name")?.to_string(),
                substitute: d.text("substitute")?.to_string(),
                query: d.opt("query")?,
            },
            "local-sample" => EventKind::LocalSample {
                name: d.text("name")?.to_string(),
                query: d.opt("query")?,
            },
            "cache-store" => EventKind::CacheStore {
                name: d.text("name")?.to_string(),
                bytes: d.int("bytes")?,
                validity_us: d.int("validity_us")?,
                query: d.opt("query")?,
            },
            "annotate" => EventKind::Annotate {
                query: d.int("query")?,
                label: d.text("label")?.to_string(),
                value: d.flag("value")?,
                term: d.opt("term")?,
                cond: d.opt("cond")?,
            },
            "label-share" => EventKind::LabelShare {
                label: d.text("label")?.to_string(),
                value: d.flag("value")?,
                toward: d.int("toward")?,
                query: d.opt("query")?,
            },
            "prefetch-push" => EventKind::PrefetchPush {
                name: d.text("name")?.to_string(),
                toward: d.int("toward")?,
                query: d.opt("query")?,
            },
            "triage-drop" => EventKind::TriageDrop {
                name: d.text("name")?.to_string(),
                hop: d.int("hop")?,
            },
            "query-resolved" => EventKind::QueryResolved {
                query: d.int("query")?,
                outcome: d.tag("outcome")?,
                latency_us: d.int("latency_us")?,
            },
            "query-missed" => EventKind::QueryMissed {
                query: d.int("query")?,
            },
            "fetch-timeout" => EventKind::FetchTimeout {
                query: d.int("query")?,
                name: d.text("name")?.to_string(),
                source: d.int("source")?,
            },
            other => return Err(format!("unknown kind `{other}`")),
        };
        Ok(TraceRecord {
            at: SimTime::from_micros(d.int("t")?),
            node: d.int("node")?,
            kind,
        })
    }
}

/// `from` (its key already written), then `,"to":` and `,"msg":`.
fn write_link(out: &mut Vec<u8>, from: u32, to: u32, msg: &str) {
    write_json_u64(out, u64::from(from));
    out.extend_from_slice(b",\"to\":");
    write_json_u64(out, u64::from(to));
    out.extend_from_slice(b",\"msg\":");
    write_json_string(out, msg);
}

/// `,"query":q` when the record is attributed, as the table's `query`.
fn write_query(out: &mut Vec<u8>, query: Option<u64>) {
    if let Some(q) = query {
        out.extend_from_slice(b",\"query\":");
        write_json_u64(out, wire_u64(q));
    }
}

impl EventKind {
    /// The `kind` tag and the payload, as [`visit_fields`](Self::visit_fields)
    /// lists them.
    fn encode_fields(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b",\"kind\":\"");
        out.extend_from_slice(self.kind_name().as_bytes());
        out.push(b'"');
        self.visit_fields(&mut |key, val| {
            out.extend_from_slice(b",\"");
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\":");
            match val {
                FieldVal::Int(i) => write_json_int(out, i),
                FieldVal::Str(s) => write_json_string(out, s),
                FieldVal::Bool(b) => write_json_bool(out, b),
                FieldVal::Null => out.extend_from_slice(b"null"),
            }
        });
    }
}

/// One parsed JSONL object, read field by field for
/// [`TraceRecord::decode_jsonl`]; each read names the field it failed on.
struct Fields<'a> {
    obj: &'a JsonValue,
    tags: &'a mut Interner,
}

impl<'a> Fields<'a> {
    fn field(&self, key: &str) -> Result<&'a JsonValue, String> {
        self.obj
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    fn wrong<T>(key: &str, want: &str) -> Result<T, String> {
        Err(format!("field `{key}` is not {want}"))
    }

    /// An integer that fits `T`.
    fn int<T: TryFrom<i64>>(&self, key: &str) -> Result<T, String> {
        match self.field(key)?.as_int().map(T::try_from) {
            Some(Ok(v)) => Ok(v),
            _ => Self::wrong(key, std::any::type_name::<T>()),
        }
    }

    /// An integer that fits `T`, or `None` when the key is absent.
    fn opt<T: TryFrom<i64>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.obj.get(key) {
            None => Ok(None),
            Some(_) => self.int(key).map(Some),
        }
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            JsonValue::Bool(b) => Ok(*b),
            _ => Self::wrong(key, "a bool"),
        }
    }

    fn text(&self, key: &str) -> Result<&'a str, String> {
        match self.field(key)?.as_str() {
            Some(s) => Ok(s),
            None => Self::wrong(key, "a string"),
        }
    }

    /// A tag, as the `&'static str` its [`EventKind`] field holds.
    fn tag(&mut self, key: &str) -> Result<&'static str, String> {
        let sym = self.tags.intern(self.text(key)?);
        // A symbol the table just handed out always resolves.
        Ok(self.tags.resolve(sym).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use proptest::prelude::*;

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
        }
    }

    /// The oracle: the record's tree, built from the envelope and
    /// `fields()`, never from the encoder.
    fn tree(rec: &TraceRecord) -> JsonValue {
        let mut pairs = vec![
            (
                "t".to_string(),
                JsonValue::Int(wire_u64(rec.at.as_micros()) as i64),
            ),
            ("node".to_string(), JsonValue::Int(i64::from(rec.node))),
            (
                "kind".to_string(),
                JsonValue::Str(rec.kind.kind_name().to_string()),
            ),
        ];
        pairs.extend(rec.kind.fields());
        JsonValue::Object(pairs)
    }

    /// Every variant × every `Option` shape × strings needing every escape:
    /// the directly written line is the compact form of the tree built from
    /// the envelope and `fields()`, and parses back to it, key order
    /// included; it decodes back to the record, and each tag is leaked once.
    #[test]
    fn every_variant_serializes_and_parses() {
        let mut tags = Interner::new();
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
                    let tree = tree(&rec);
                    let mut line = String::from("kept:");
                    rec.write_jsonl(&mut line);
                    let line = line.strip_prefix("kept:").expect("write_jsonl appends");
                    assert_eq!(line, tree.to_compact_string(), "{rec:?}");
                    assert_eq!(line, rec.to_jsonl_line());
                    assert_eq!(parse(line).expect(line), tree, "{rec:?}");
                    let back = TraceRecord::decode_jsonl(line, &mut tags).expect(line);
                    assert_eq!(back, rec);
                    assert_eq!(back.to_jsonl_line(), line);
                }
            }
        }
        assert_eq!(tags.len(), HOSTILE.len());
    }

    /// Integers across the writer's edges: small, anything, either side of
    /// `i64::MAX` (where [`wire_u64`] starts to saturate) and `u64::MAX`.
    fn wide() -> impl Strategy<Value = u64> {
        const EDGE: u64 = i64::MAX as u64;
        prop_oneof![
            0u64..1_000,
            any::<u64>(),
            (EDGE - 2)..(EDGE + 3),
            Just(u64::MAX),
        ]
    }

    /// The variant at `index` in [`variant_index`] order, built from drawn
    /// parts: `ints` feed the numeric fields, `texts` the owned strings,
    /// `tag` the static ones, and bit `k` of `shape` says whether the
    /// `k`-th optional field is present.
    fn drawn_variant(
        index: usize,
        ints: &[u64],
        texts: &[String],
        tag: &'static str,
        shape: u8,
    ) -> EventKind {
        let (a, b) = (shape & 1 == 1, shape & 2 == 2);
        let big = |k: usize| ints[k];
        let small = |k: usize| ints[k] as u32;
        let text = |k: usize| texts[k].clone();
        let q = a.then(|| big(5));
        let (term, cond) = (a.then(|| small(3)), b.then(|| small(4)));
        match index {
            0 => EventKind::Transmit {
                from: small(0),
                to: small(1),
                msg: tag,
                bytes: big(2),
                background: b,
                query: q,
            },
            1 => EventKind::Deliver {
                from: small(0),
                to: small(1),
                msg: tag,
                query: q,
            },
            2 => EventKind::Loss {
                from: small(0),
                to: small(1),
                msg: tag,
                bytes: big(2),
                query: q,
            },
            3 => EventKind::Drop {
                from: small(0),
                to: small(1),
                reason: tag,
            },
            4 => EventKind::Purge {
                from: small(0),
                to: small(1),
                count: big(2),
            },
            5 => EventKind::Fault {
                fault: tag,
                node: small(0),
                peer: a.then(|| small(1)),
            },
            6 => EventKind::QueryInit {
                query: big(5),
                origin: small(0),
            },
            7 => EventKind::Plan {
                query: big(5),
                strategy: tag,
                candidates: big(1),
                expected_bytes: big(2),
                rationale: text(0),
            },
            8 => EventKind::RequestSend {
                query: big(5),
                name: text(0),
                hop: small(1),
                term,
                cond,
            },
            9 => EventKind::CacheHit {
                name: text(0),
                requester: small(1),
                query: q,
            },
            10 => EventKind::CacheMiss {
                name: text(0),
                forwarded_to: b.then(|| small(1)),
                query: q,
            },
            11 => EventKind::LabelHit {
                requester: small(1),
                labels: big(2),
                query: q,
            },
            12 => EventKind::ApproxHit {
                name: text(0),
                substitute: text(1),
                query: q,
            },
            13 => EventKind::LocalSample {
                name: text(0),
                query: q,
            },
            14 => EventKind::CacheStore {
                name: text(0),
                bytes: big(2),
                validity_us: big(1),
                query: q,
            },
            15 => EventKind::Annotate {
                query: big(5),
                label: text(0),
                value: b,
                term,
                cond,
            },
            16 => EventKind::LabelShare {
                label: text(0),
                value: b,
                toward: small(1),
                query: q,
            },
            17 => EventKind::PrefetchPush {
                name: text(0),
                toward: small(1),
                query: q,
            },
            18 => EventKind::TriageDrop {
                name: text(0),
                hop: small(1),
            },
            19 => EventKind::QueryResolved {
                query: big(5),
                outcome: tag,
                latency_us: big(2),
            },
            20 => EventKind::QueryMissed { query: big(5) },
            _ => EventKind::FetchTimeout {
                query: big(5),
                name: text(0),
                source: small(1),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Random records of every variant and `Option` shape, with hostile
        /// text and integers past `i64::MAX`: the encoder writes exactly the
        /// compact form of the `fields()` tree, so a hand-written writer
        /// that drops [`wire_u64`], a key or an escape fails here; and the
        /// line decodes to a record that encodes to the same line.
        #[test]
        fn the_encoder_writes_the_fields_tree(
            index in 0usize..22,
            ints in prop::collection::vec(wide(), 6),
            texts in prop::collection::vec(crate::json::tests::text(), 2),
            tag in 0usize..HOSTILE.len(),
            shape in 0u8..4,
            (t, node) in (wide(), any::<u32>()),
        ) {
            let kind = drawn_variant(index, &ints, &texts, HOSTILE[tag], shape);
            prop_assert_eq!(variant_index(&kind), index);
            let rec = TraceRecord {
                at: SimTime::from_micros(t),
                node,
                kind,
            };
            let line = rec.to_jsonl_line();
            let tree = tree(&rec);
            prop_assert_eq!(&line, &tree.to_compact_string(), "{:?}", rec);
            prop_assert_eq!(parse(&line).expect("valid JSON"), tree);
            let back = TraceRecord::decode_jsonl(&line, &mut Interner::new()).expect("decodes");
            prop_assert_eq!(back.to_jsonl_line(), line);
        }
    }
}
