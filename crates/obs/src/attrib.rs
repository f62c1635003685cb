//! Attribution keys and the normalized record view the ledger folds over.
//!
//! Cost accounting has two entry points — a live [`Sink`](crate::sink::Sink)
//! observing typed [`TraceRecord`]s, and an
//! offline fold over a JSONL trace file. Both are lowered to the same
//! [`LedgerView`] here, so the two paths cannot drift apart: charging rules
//! are written once, against the view.

use crate::event::{wire_u64, EventKind, TraceRecord};
use crate::json::JsonValue;
use std::borrow::Cow;

/// Predicate coordinates inside a DNF decision query: which OR-term and
/// which condition within it caused a fetch or annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PredKey {
    /// OR-term (course-of-action) index.
    pub term: u32,
    /// Condition index within the term.
    pub cond: u32,
}

/// What a record means to the cost ledger, independent of representation.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewKind {
    /// Bytes clocked onto a link (bandwidth consumed even if later lost).
    Transmit {
        /// Message kind tag (`announce`, `request`, `data`, `label`, …):
        /// borrowed from a typed record, owned when read back from JSON.
        msg: Cow<'static, str>,
        /// Wire size in bytes.
        bytes: u64,
        /// Background priority class (prefetch/continuation pushes).
        background: bool,
    },
    /// A message finished transit and was handled.
    Deliver {
        /// Message kind tag.
        msg: Cow<'static, str>,
    },
    /// A transmission lost to link noise.
    Loss {
        /// Wire size in bytes.
        bytes: u64,
    },
    /// `Query_Init` at the origin: starts the critical-path clock.
    QueryInit,
    /// The origin's retrieval plan, with its predicted expected cost.
    Plan {
        /// Predicted expected retrieval cost in bytes (§III-A).
        expected_bytes: u64,
    },
    /// A fetch request left the origin.
    RequestSend {
        /// Requested object name (keys retransmission detection).
        name: String,
    },
    /// A request served from a content store.
    CacheHit,
    /// A request that missed the local store.
    CacheMiss,
    /// A request answered with cached labels (§VI-D).
    LabelHit,
    /// A request answered with an approximate substitute (§V-A).
    ApproxHit,
    /// A label resolved by sampling a co-located sensor.
    LocalSample,
    /// An object stored into a content store; occupancy-time charge.
    CacheStore {
        /// Payload bytes × remaining validity µs (occupancy charge).
        byte_us: u64,
    },
    /// Evidence annotated into a label value.
    Annotate,
    /// The query reached a decision.
    QueryResolved {
        /// `viable` or `infeasible`.
        outcome: String,
        /// Issue-to-decision latency in microseconds.
        latency_us: u64,
    },
    /// The query's deadline passed undecided.
    QueryMissed,
    /// Any other event (faults, purges, drops, shares, pushes, triage);
    /// carries no direct charge but still advances the critical path.
    Other,
}

/// A normalized, representation-independent view of one trace record:
/// when, where, what, and on whose behalf.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerView {
    /// Simulated microseconds.
    pub t_us: u64,
    /// Reporting node.
    pub node: u32,
    /// What happened, reduced to what cost accounting needs.
    pub kind: ViewKind,
    /// The decision query charged, if attributable.
    pub query: Option<u64>,
    /// Predicate coordinates, where the emitter knew them.
    pub pred: Option<PredKey>,
}

fn pred_from(term: &Option<u32>, cond: &Option<u32>) -> Option<PredKey> {
    match (term, cond) {
        (Some(t), Some(c)) => Some(PredKey { term: *t, cond: *c }),
        _ => None,
    }
}

impl LedgerView {
    /// Lower a typed record into its ledger view. Numbers pass through
    /// the same saturation the encoder applies, so the view of a record is
    /// the view of its JSONL line.
    pub fn from_record(rec: &TraceRecord) -> Self {
        let (kind, query, pred) = match &rec.kind {
            EventKind::Transmit {
                msg,
                bytes,
                background,
                query,
                ..
            } => (
                ViewKind::Transmit {
                    msg: Cow::Borrowed(msg),
                    bytes: wire_u64(*bytes),
                    background: *background,
                },
                *query,
                None,
            ),
            EventKind::Deliver { msg, query, .. } => (
                ViewKind::Deliver {
                    msg: Cow::Borrowed(msg),
                },
                *query,
                None,
            ),
            EventKind::Loss { bytes, query, .. } => (
                ViewKind::Loss {
                    bytes: wire_u64(*bytes),
                },
                *query,
                None,
            ),
            EventKind::QueryInit { query, .. } => (ViewKind::QueryInit, Some(*query), None),
            EventKind::Plan {
                query,
                expected_bytes,
                ..
            } => (
                ViewKind::Plan {
                    expected_bytes: wire_u64(*expected_bytes),
                },
                Some(*query),
                None,
            ),
            EventKind::RequestSend {
                query,
                name,
                term,
                cond,
                ..
            } => (
                ViewKind::RequestSend { name: name.clone() },
                Some(*query),
                pred_from(term, cond),
            ),
            EventKind::CacheHit { query, .. } => (ViewKind::CacheHit, *query, None),
            EventKind::CacheMiss { query, .. } => (ViewKind::CacheMiss, *query, None),
            EventKind::LabelHit { query, .. } => (ViewKind::LabelHit, *query, None),
            EventKind::ApproxHit { query, .. } => (ViewKind::ApproxHit, *query, None),
            EventKind::LocalSample { query, .. } => (ViewKind::LocalSample, *query, None),
            EventKind::CacheStore {
                bytes,
                validity_us,
                query,
                ..
            } => (
                ViewKind::CacheStore {
                    byte_us: wire_u64(*bytes).saturating_mul(wire_u64(*validity_us)),
                },
                *query,
                None,
            ),
            EventKind::Annotate {
                query, term, cond, ..
            } => (ViewKind::Annotate, Some(*query), pred_from(term, cond)),
            EventKind::QueryResolved {
                query,
                outcome,
                latency_us,
            } => (
                ViewKind::QueryResolved {
                    outcome: (*outcome).to_string(),
                    latency_us: wire_u64(*latency_us),
                },
                Some(*query),
                None,
            ),
            EventKind::QueryMissed { query } => (ViewKind::QueryMissed, Some(*query), None),
            EventKind::LabelShare { query, .. } | EventKind::PrefetchPush { query, .. } => {
                (ViewKind::Other, *query, None)
            }
            // Adaptive-planning bookkeeping events: no direct charge (the
            // retransmission after a timeout is charged by its own
            // `transmit`), but the query attribution keeps them on the
            // right decision's timeline.
            EventKind::FetchTimeout { query, .. } | EventKind::Admission { query, .. } => {
                (ViewKind::Other, Some(*query), None)
            }
            EventKind::Drop { .. }
            | EventKind::Purge { .. }
            | EventKind::Fault { .. }
            | EventKind::TriageDrop { .. } => (ViewKind::Other, None, None),
        };
        LedgerView {
            t_us: wire_u64(rec.at.as_micros()),
            node: rec.node,
            kind,
            query: query.map(wire_u64),
            pred,
        }
    }

    /// Lower one parsed JSONL object into its ledger view.
    ///
    /// Returns `None` when the object lacks the `t`/`node`/`kind` envelope
    /// or a required payload field — callers decide whether that is an
    /// error (strict CLI) or a skip.
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        let t_us = u64::try_from(v.get("t")?.as_int()?).ok()?;
        let node = u32::try_from(v.get("node")?.as_int()?).ok()?;
        let kind_tag = v.get("kind")?.as_str()?;
        let get_u64 = |key: &str| -> Option<u64> {
            v.get(key)
                .and_then(|f| f.as_int())
                .and_then(|i| u64::try_from(i).ok())
        };
        let get_u32 = |key: &str| -> Option<u32> {
            v.get(key)
                .and_then(|f| f.as_int())
                .and_then(|i| u32::try_from(i).ok())
        };
        let query = get_u64("query");
        let pred = match (get_u32("term"), get_u32("cond")) {
            (Some(term), Some(cond)) => Some(PredKey { term, cond }),
            _ => None,
        };
        let kind = match kind_tag {
            "transmit" => ViewKind::Transmit {
                msg: Cow::Owned(v.get("msg")?.as_str()?.to_string()),
                bytes: get_u64("bytes")?,
                background: matches!(v.get("bg"), Some(JsonValue::Bool(true))),
            },
            "deliver" => ViewKind::Deliver {
                msg: Cow::Owned(v.get("msg")?.as_str()?.to_string()),
            },
            "loss" => ViewKind::Loss {
                bytes: get_u64("bytes")?,
            },
            "query-init" => ViewKind::QueryInit,
            "plan" => ViewKind::Plan {
                expected_bytes: get_u64("expected_bytes")?,
            },
            "request-send" => ViewKind::RequestSend {
                name: v.get("name")?.as_str()?.to_string(),
            },
            "cache-hit" => ViewKind::CacheHit,
            "cache-miss" => ViewKind::CacheMiss,
            "label-hit" => ViewKind::LabelHit,
            "approx-hit" => ViewKind::ApproxHit,
            "local-sample" => ViewKind::LocalSample,
            "cache-store" => ViewKind::CacheStore {
                byte_us: get_u64("bytes")?.saturating_mul(get_u64("validity_us")?),
            },
            "annotate" => ViewKind::Annotate,
            "query-resolved" => ViewKind::QueryResolved {
                outcome: v.get("outcome")?.as_str()?.to_string(),
                latency_us: get_u64("latency_us")?,
            },
            "query-missed" => ViewKind::QueryMissed,
            _ => ViewKind::Other,
        };
        Some(LedgerView {
            t_us,
            node,
            kind,
            query,
            pred,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use dde_logic::time::SimTime;

    fn roundtrip(kind: EventKind) -> (LedgerView, LedgerView) {
        let rec = TraceRecord {
            at: SimTime::from_micros(42),
            node: 3,
            kind,
        };
        let typed = LedgerView::from_record(&rec);
        let parsed = parse(&rec.to_jsonl_line()).expect("valid JSONL");
        let json = LedgerView::from_json(&parsed).expect("complete envelope");
        (typed, json)
    }

    #[test]
    fn typed_and_json_paths_agree_on_transmit() {
        let (typed, json) = roundtrip(EventKind::Transmit {
            from: 1,
            to: 2,
            msg: "data",
            bytes: 450_000,
            background: false,
            query: Some(9),
        });
        assert_eq!(typed, json);
        assert_eq!(typed.query, Some(9));
        assert!(matches!(
            typed.kind,
            ViewKind::Transmit { bytes: 450_000, .. }
        ));
    }

    #[test]
    fn typed_and_json_paths_agree_on_request_send() {
        let (typed, json) = roundtrip(EventKind::RequestSend {
            query: 5,
            name: "/city/a".into(),
            hop: 1,
            term: Some(1),
            cond: Some(2),
        });
        assert_eq!(typed, json);
        assert_eq!(typed.pred, Some(PredKey { term: 1, cond: 2 }));
    }

    #[test]
    fn unattributed_link_events_view_as_overhead() {
        let (typed, json) = roundtrip(EventKind::Loss {
            from: 0,
            to: 1,
            msg: "announce",
            bytes: 88,
            query: None,
        });
        assert_eq!(typed, json);
        assert_eq!(typed.query, None);
    }

    #[test]
    fn cache_store_charge_is_bytes_times_validity() {
        let (typed, json) = roundtrip(EventKind::CacheStore {
            name: "/city/a".into(),
            bytes: 1000,
            validity_us: 2_000_000,
            query: Some(4),
        });
        assert_eq!(typed, json);
        assert!(matches!(
            typed.kind,
            ViewKind::CacheStore {
                byte_us: 2_000_000_000
            }
        ));
    }

    #[test]
    fn values_above_i64_max_saturate_the_same_way_live_and_offline() {
        // "Never expires" is `SimDuration::MAX`, and the trace carries
        // `i64`: both folds must see the saturated value, not one of them
        // a negative number it then rejects.
        let cap = i64::MAX as u64;
        let (typed, json) = roundtrip(EventKind::CacheStore {
            name: "/city/a".into(),
            bytes: u64::MAX,
            validity_us: u64::MAX,
            query: Some(u64::MAX),
        });
        assert_eq!(typed, json);
        assert_eq!(typed.query, Some(cap));
        assert_eq!(typed.kind, ViewKind::CacheStore { byte_us: u64::MAX });

        let (typed, json) = roundtrip(EventKind::Transmit {
            from: 1,
            to: 2,
            msg: "data",
            bytes: u64::MAX,
            background: true,
            query: Some(4),
        });
        assert_eq!(typed, json);
        assert!(matches!(typed.kind, ViewKind::Transmit { bytes, .. } if bytes == cap));

        let (typed, json) = roundtrip(EventKind::Loss {
            from: 1,
            to: 2,
            msg: "data",
            bytes: u64::MAX,
            query: None,
        });
        assert_eq!(typed, json);

        let (typed, json) = roundtrip(EventKind::Plan {
            query: 4,
            strategy: "lvf",
            candidates: u64::MAX,
            expected_bytes: u64::MAX,
            rationale: String::new(),
        });
        assert_eq!(typed, json);

        let (typed, json) = roundtrip(EventKind::QueryResolved {
            query: 4,
            outcome: "viable",
            latency_us: u64::MAX,
        });
        assert_eq!(typed, json);
        assert!(matches!(
            typed.kind,
            ViewKind::QueryResolved { latency_us, .. } if latency_us == cap
        ));
    }
}
