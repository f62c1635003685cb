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
//!
//! Each kind is declared once, as one row of the table that defines
//! [`EventKind`]: its variant, its `kind` tag, the field it is charged to
//! (if any), and each field's doc, Rust type and JSON key (the field's name
//! unless the row gives `=> "key"`), in wire order. The row generates the
//! variant, [`kind_name`](EventKind::kind_name), the attribution the ledger
//! reads, [`visit_fields`](EventKind::visit_fields), the JSONL encoder and
//! its inverse, [`TraceRecord::decode_jsonl`]. A field's wire shape follows
//! from its type (`Wire`); the one exception, `cache-miss`'s
//! `forwarded_to`, names its shape in its row (`as Nullable`). Adding a
//! field is editing one row.

use crate::json::{
    into_string, parse, write_json_bool, write_json_string, write_json_u64, JsonValue,
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

/// A field's JSON key: its name, unless its row gives one.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// A field's wire shape: its type's own, unless its row names one.
macro_rules! shape {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $shape:ty) => {
        $shape
    };
}

/// The query a row's charged field holds, or `None` for a row with none.
macro_rules! charged {
    () => {
        None
    };
    ($query:ident) => {
        Option::<u64>::from(*$query)
    };
}

/// The record kind table. A row reads
/// `Variant("tag", charged_field) { field: Type => "key" as Shape, … }`,
/// where `charged_field`, `=> "key"` and `as Shape` are optional, and gives
/// its variant and one arm of each function generated below. Field order is
/// wire order. An encoder arm is straight-line code: it copies literal keys
/// built by `concat!` and walks no closure.
macro_rules! event_kinds {
    (
        $(#[$meta:meta])*
        pub enum EventKind {
            $(
                $(#[$vmeta:meta])*
                $variant:ident($tag:literal $(, $charged:ident)?) {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty $(=> $key:literal)? $(as $shape:ty)?
                    ),* $(,)?
                }
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum EventKind {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl EventKind {
            /// The stable kind tag used in JSONL traces and per-kind diff deltas.
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $tag, )*
                }
            }

            /// The decision query the event is charged to, as the trace
            /// carries it; `None` for plumbing no decision caused (faults,
            /// purges, drops, triage, unattributed link traffic).
            pub(crate) fn query(&self) -> Option<u64> {
                let query = match self {
                    $( EventKind::$variant { $($charged,)? .. } => charged!($($charged)?), )*
                };
                query.map(wire_u64)
            }

            /// The variant's payload fields in wire order (without the
            /// common `t`/`node`/`kind` envelope), borrowed from the record;
            /// a key the encoder omits is not visited.
            pub fn visit_fields<'a>(&'a self, f: &mut impl FnMut(&'static str, FieldVal<'a>)) {
                match self {
                    $( EventKind::$variant { $($field),* } => {
                        $(
                            if let Some(v) = <shape!($ty $(, $shape)?) as Wire<$ty>>::value($field) {
                                f(key!($field $($key)?), v);
                            }
                        )*
                    } )*
                }
            }

            /// Appends `,"kind":"tag"` and the payload fields to `out`.
            fn encode_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $( EventKind::$variant { $($field),* } => {
                        out.extend_from_slice(concat!(",\"kind\":\"", $tag, "\"").as_bytes());
                        $(
                            <shape!($ty $(, $shape)?) as Wire<$ty>>::encode(
                                $field,
                                out,
                                concat!(",\"", key!($field $($key)?), "\":").as_bytes(),
                            );
                        )*
                    } )*
                }
            }

            /// The kind the object's `kind` tag names, read field by field.
            fn decode_payload(d: &mut Fields<'_>) -> Result<EventKind, String> {
                Ok(match d.text("kind")? {
                    $( $tag => EventKind::$variant {
                        $( $field: <shape!($ty $(, $shape)?) as Wire<$ty>>::decode(
                            d,
                            key!($field $($key)?),
                        )?, )*
                    }, )*
                    other => return Err(format!("unknown kind `{other}`")),
                })
            }
        }
    };
}

event_kinds! {
    /// What happened. Variants carrying `String` payloads should only be built
    /// when the active sink is [enabled](crate::sink::Sink::enabled), so the
    /// null sink costs a branch and nothing else.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EventKind {
        /// A message started clocking onto the directed link `from → to`.
        Transmit("transmit", query) {
            /// Transmitting node.
            from: u32,
            /// Receiving node.
            to: u32,
            /// Message kind tag (`announce`, `request`, `data`, `label`, …).
            msg: &'static str,
            /// Wire size in bytes.
            bytes: u64,
            /// Whether it rode in the background priority class.
            background: bool => "bg",
            /// The decision query this transmission serves, when attributable.
            query: Option<u64>,
        }
        /// A message arrived and is being handled at `to`.
        Deliver("deliver", query) {
            /// Transmitting node.
            from: u32,
            /// Receiving node.
            to: u32,
            /// Message kind tag.
            msg: &'static str,
            /// The decision query this delivery serves, when attributable.
            query: Option<u64>,
        }
        /// A transmission was lost to link noise (seeded sampling).
        Loss("loss", query) {
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
        }
        /// An in-flight message was dropped at arrival.
        Drop("drop") {
            /// Transmitting node.
            from: u32,
            /// Intended receiver.
            to: u32,
            /// Why: `link-down` or `node-down`.
            reason: &'static str,
        }
        /// Queued (never transmitted) messages were purged from a link by a
        /// fault.
        Purge("purge") {
            /// Transmitting side of the purged link.
            from: u32,
            /// Receiving side of the purged link.
            to: u32,
            /// How many messages vanished.
            count: u64,
        }
        /// A scheduled fault transition was applied.
        Fault("fault") {
            /// Which: `node-crash`, `node-recover`, `link-down`, `link-up`.
            fault: &'static str,
            /// The affected node (or one endpoint of the affected link).
            node: u32 => "a",
            /// The other link endpoint, for link faults.
            peer: Option<u32> => "b",
        }
        /// A decision query was issued at its origin (`Query_Init`).
        QueryInit("query-init", query) {
            /// Query id.
            query: u64,
            /// Origin node.
            origin: u32,
        }
        /// The origin planned its retrieval: the decision-driven ordering
        /// rationale, rendered by `dde-sched`'s `explain`.
        Plan("plan", query) {
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
        }
        /// The origin sent a fetch request into the network.
        RequestSend("request-send", query) {
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
        }
        /// A request was answered from this node's content store.
        CacheHit("cache-hit", query) {
            /// Served object name.
            name: String,
            /// Neighbor the reply was sent to.
            requester: u32,
            /// The decision query the request served, when attributable.
            query: Option<u64>,
        }
        /// A request could not be served locally and was forwarded (or hit a
        /// dead end).
        CacheMiss("cache-miss", query) {
            /// Requested object name.
            name: String,
            /// Next hop it was forwarded to, if a route existed.
            forwarded_to: Option<u32> as Nullable,
            /// The decision query the request served, when attributable.
            query: Option<u64>,
        }
        /// A request was answered with cached *labels* instead of data (§VI-D).
        LabelHit("label-hit", query) {
            /// Neighbor the labels were sent to.
            requester: u32,
            /// How many of the request's labels were answered.
            labels: u64,
            /// The decision query the request served, when attributable.
            query: Option<u64>,
        }
        /// A request was answered with an approximate (same-prefix) substitute
        /// object (§V-A).
        ApproxHit("approx-hit", query) {
            /// Requested object name.
            name: String,
            /// The substitute actually served.
            substitute: String,
            /// The decision query the request served, when attributable.
            query: Option<u64>,
        }
        /// A label was resolved by sampling a co-located sensor (no network).
        LocalSample("local-sample", query) {
            /// Sampled object name.
            name: String,
            /// The decision query the sample served, when attributable.
            query: Option<u64>,
        }
        /// An object was stored into a node's content store; occupancy is
        /// charged as `bytes × validity_us` (byte-microseconds) to `query`.
        CacheStore("cache-store", query) {
            /// Stored object name.
            name: String,
            /// Object payload size in bytes.
            bytes: u64,
            /// Remaining validity when stored, in microseconds.
            validity_us: u64,
            /// The decision query whose retrieval caused the store.
            query: Option<u64>,
        }
        /// Evidence was annotated into a label value at the query origin.
        Annotate("annotate", query) {
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
        }
        /// A label value was shared toward the evidence source (§VI-D).
        LabelShare("label-share", query) {
            /// The shared label.
            label: String,
            /// The shared value.
            value: bool,
            /// First hop of the share.
            toward: u32,
            /// The decision query whose annotation is being shared.
            query: Option<u64>,
        }
        /// A source-side prefetch push was initiated (§VI-A).
        PrefetchPush("prefetch-push", query) {
            /// Pushed object name.
            name: String,
            /// First hop toward the anticipated consumer.
            toward: u32,
            /// The decision query whose announce triggered the push.
            query: Option<u64>,
        }
        /// A background push was dropped by sub-additive utility triage (§V-B).
        TriageDrop("triage-drop") {
            /// The redundant object name.
            name: String,
            /// The hop it would have been pushed to.
            hop: u32,
        }
        /// A query reached a decision before its deadline.
        QueryResolved("query-resolved", query) {
            /// Query id.
            query: u64,
            /// `viable` or `infeasible`.
            outcome: &'static str,
            /// Issue-to-decision latency in microseconds.
            latency_us: u64,
        }
        /// A query's deadline passed while undecided.
        QueryMissed("query-missed", query) {
            /// Query id.
            query: u64,
        }
        /// An in-flight fetch hit its retry timeout and the origin is about to
        /// re-plan. Emitted only by adaptive-planning runs.
        FetchTimeout("fetch-timeout", query) {
            /// Query id.
            query: u64,
            /// The object name whose fetch timed out.
            name: String,
            /// The source node the fetch was directed at.
            source: u32,
        }
    }
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

/// How a field of type `T` is written, visited and read back. A field's
/// type is its own shape: `u32` is written as it is, `u64` saturates
/// through [`wire_u64`], `bool` is a flag, `String` is text, a `&'static
/// str` is a tag (interned on decode) and an `Option` omits its key when
/// `None` (a missing key reads back as `None`).
trait Wire<T> {
    /// Appends `key` (the literal `,"key":`) and the value, or nothing for
    /// a value whose key is omitted.
    fn encode(v: &T, out: &mut Vec<u8>, key: &[u8]);
    /// The value as [`EventKind::visit_fields`] hands it out; `None` when
    /// the key is omitted.
    fn value(v: &T) -> Option<FieldVal<'_>>;
    /// Reads the field `key`; an error names it.
    fn decode(d: &mut Fields<'_>, key: &str) -> Result<T, String>;
}

impl Wire<u32> for u32 {
    fn encode(v: &u32, out: &mut Vec<u8>, key: &[u8]) {
        out.extend_from_slice(key);
        write_json_u64(out, u64::from(*v));
    }
    fn value(v: &u32) -> Option<FieldVal<'_>> {
        Some(FieldVal::Int(i64::from(*v)))
    }
    fn decode(d: &mut Fields<'_>, key: &str) -> Result<u32, String> {
        d.int(key)
    }
}

impl Wire<u64> for u64 {
    fn encode(v: &u64, out: &mut Vec<u8>, key: &[u8]) {
        out.extend_from_slice(key);
        write_json_u64(out, wire_u64(*v));
    }
    fn value(v: &u64) -> Option<FieldVal<'_>> {
        Some(FieldVal::Int(wire_u64(*v) as i64))
    }
    fn decode(d: &mut Fields<'_>, key: &str) -> Result<u64, String> {
        d.int(key)
    }
}

impl Wire<bool> for bool {
    fn encode(v: &bool, out: &mut Vec<u8>, key: &[u8]) {
        out.extend_from_slice(key);
        write_json_bool(out, *v);
    }
    fn value(v: &bool) -> Option<FieldVal<'_>> {
        Some(FieldVal::Bool(*v))
    }
    fn decode(d: &mut Fields<'_>, key: &str) -> Result<bool, String> {
        match d.field(key)? {
            JsonValue::Bool(b) => Ok(*b),
            _ => Fields::wrong(key, "a bool"),
        }
    }
}

impl Wire<String> for String {
    fn encode(v: &String, out: &mut Vec<u8>, key: &[u8]) {
        out.extend_from_slice(key);
        write_json_string(out, v);
    }
    fn value(v: &String) -> Option<FieldVal<'_>> {
        Some(FieldVal::Str(v))
    }
    fn decode(d: &mut Fields<'_>, key: &str) -> Result<String, String> {
        d.text(key).map(str::to_string)
    }
}

impl Wire<&'static str> for &'static str {
    fn encode(v: &&'static str, out: &mut Vec<u8>, key: &[u8]) {
        out.extend_from_slice(key);
        write_json_string(out, v);
    }
    fn value<'a>(v: &'a &'static str) -> Option<FieldVal<'a>> {
        Some(FieldVal::Str(v))
    }
    /// The tag as the `&'static str` its field holds: resolved through
    /// `d.tags`, which leaks each distinct tag once.
    fn decode(d: &mut Fields<'_>, key: &str) -> Result<&'static str, String> {
        let sym = d.tags.intern(d.text(key)?);
        // A symbol the table just handed out always resolves.
        Ok(d.tags.resolve(sym).unwrap_or_default())
    }
}

impl<T: Wire<T>> Wire<Option<T>> for Option<T> {
    fn encode(v: &Option<T>, out: &mut Vec<u8>, key: &[u8]) {
        if let Some(v) = v {
            T::encode(v, out, key);
        }
    }
    fn value(v: &Option<T>) -> Option<FieldVal<'_>> {
        v.as_ref().and_then(T::value)
    }
    fn decode(d: &mut Fields<'_>, key: &str) -> Result<Option<T>, String> {
        match d.obj.get(key) {
            None => Ok(None),
            Some(_) => T::decode(d, key).map(Some),
        }
    }
}

/// The one shape a row names instead of its type's (`cache-miss`'s
/// `forwarded_to`): the key is always written, with `null` for `None`, so
/// decoding requires it.
enum Nullable {}

impl<T: Wire<T>> Wire<Option<T>> for Nullable {
    fn encode(v: &Option<T>, out: &mut Vec<u8>, key: &[u8]) {
        match v {
            Some(v) => T::encode(v, out, key),
            None => {
                out.extend_from_slice(key);
                out.extend_from_slice(b"null");
            }
        }
    }
    fn value(v: &Option<T>) -> Option<FieldVal<'_>> {
        Some(v.as_ref().and_then(T::value).unwrap_or(FieldVal::Null))
    }
    fn decode(d: &mut Fields<'_>, key: &str) -> Result<Option<T>, String> {
        match d.field(key)? {
            JsonValue::Null => Ok(None),
            _ => T::decode(d, key).map(Some),
        }
    }
}

impl EventKind {
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
    pub(crate) fn encode_jsonl(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"t\":");
        write_json_u64(out, wire_u64(self.at.as_micros()));
        out.extend_from_slice(b",\"node\":");
        write_json_u64(out, u64::from(self.node));
        self.kind.encode_payload(out);
        out.push(b'}');
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
        let kind = EventKind::decode_payload(&mut d)?;
        Ok(TraceRecord {
            at: SimTime::from_micros(d.int("t")?),
            node: d.int("node")?,
            kind,
        })
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

    fn text(&self, key: &str) -> Result<&'a str, String> {
        match self.field(key)?.as_str() {
            Some(s) => Ok(s),
            None => Self::wrong(key, "a string"),
        }
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
                    let line = rec.to_jsonl_line();
                    let line = line.as_str();
                    assert_eq!(line, tree.to_compact_string(), "{rec:?}");
                    assert_eq!(parse(line).expect(line), tree, "{rec:?}");
                    let back = TraceRecord::decode_jsonl(line, &mut tags).expect(line);
                    assert_eq!(back, rec);
                    assert_eq!(back.to_jsonl_line(), line);
                }
            }
        }
        assert_eq!(tags.len(), HOSTILE.len());
    }

    /// The keys of `kind`'s line, with the envelope, as a JSON object.
    fn pairs(kind: EventKind) -> Vec<(String, JsonValue)> {
        let rec = TraceRecord {
            at: SimTime::from_micros(5),
            node: 1,
            kind,
        };
        match parse(&rec.to_jsonl_line()) {
            Ok(JsonValue::Object(pairs)) => pairs,
            other => panic!("not an object: {other:?}"),
        }
    }

    /// Decoding is strict field by field, over every kind. A key the line
    /// carries even when every `Option` is `None` is required: dropping it
    /// is an error naming it. Any other key (`query`, `term`, `cond`, `b`)
    /// is optional: dropping it reads back as `None`. Any key with a value
    /// of the wrong type, or a negative integer, is an error naming it.
    #[test]
    fn decode_is_strict_field_by_field() {
        let decode = |pairs: &[(String, JsonValue)]| {
            let line = JsonValue::Object(pairs.to_vec()).to_compact_string();
            (TraceRecord::decode_jsonl(&line, &mut Interner::new()), line)
        };
        let all_some = every_variant("tag", true, true);
        for (full, bare) in all_some.into_iter().zip(every_variant("tag", false, false)) {
            let required: Vec<String> = pairs(bare).into_iter().map(|(k, _)| k).collect();
            let full = pairs(full);
            for (i, (key, val)) in full.iter().enumerate() {
                let named = format!("`{key}`");
                let mut dropped = full.clone();
                dropped.remove(i);
                match decode(&dropped) {
                    (Err(err), _) => {
                        assert!(required.contains(key), "optional `{key}`: {err}");
                        assert!(err.contains(&named), "{err}");
                    }
                    (Ok(back), line) => {
                        assert!(!required.contains(key), "required `{key}` dropped: {line}");
                        assert!(["query", "term", "cond", "b"].contains(&key.as_str()));
                        assert_eq!(back.to_jsonl_line(), line, "`{key}` reads as None");
                    }
                }
                let mut wrong = vec![match val {
                    JsonValue::Str(_) => JsonValue::Bool(true),
                    _ => JsonValue::Str("1".into()),
                }];
                if let JsonValue::Int(_) = val {
                    wrong.push(JsonValue::Int(-1));
                }
                for value in wrong {
                    let mut bad = full.clone();
                    bad[i].1 = value;
                    let (result, line) = decode(&bad);
                    let err = result.expect_err(&line);
                    assert!(err.contains(&named), "{err}");
                }
            }
        }
        let null = pairs(every_variant("tag", false, false).swap_remove(10));
        assert!(null.contains(&("forwarded_to".into(), JsonValue::Null)));
        let (back, line) = decode(&null);
        assert!(
            matches!(
                back.expect(&line).kind,
                EventKind::CacheMiss {
                    forwarded_to: None,
                    ..
                }
            ),
            "{line}"
        );
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
