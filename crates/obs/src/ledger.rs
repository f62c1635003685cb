//! The per-decision resource-attribution ledger.
//!
//! The paper's thesis is that every resource the network spends should be
//! spent *because a decision needs it* (§I, §III). The ledger makes that
//! auditable: folding a trace — live through [`LedgerSink`], or offline
//! from JSONL — produces a [`CostLedger`] that charges every transmitted
//! byte, retrieval, annotation, and cache byte-microsecond to the decision
//! query that caused it, with unattributable traffic in an explicit
//! [`overhead`](CostLedger::overhead) bucket.
//!
//! **Conservation invariant.** Every `transmit` record is charged to
//! exactly one bucket (its `query` attribution, else overhead), and the
//! ledger's global totals count the same records, so
//! `Σ per-query bytes + overhead bytes == total bytes` holds *by
//! construction* — and the totals equal the simulator's own
//! `bytes_sent`/`messages_sent` counters because both sides count the same
//! transmissions (lost messages included: bandwidth was consumed). The
//! `tests/ledger_conservation.rs` suite checks this against `dde-netsim`'s
//! metrics for random scenarios, seeds, and fault schedules.

use crate::attrib::{LedgerView, PredKey, ViewKind};
use crate::critical::{PathBreakdown, PathWalk};
use crate::event::TraceRecord;
use crate::json::JsonValue;
use crate::sink::Sink;
use core::fmt::Write as _;
use std::collections::{BTreeMap, BTreeSet};

/// Fetch/annotation counts for one predicate (OR-term, condition) of a
/// query — the finest attribution grain the emitters know.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateWork {
    /// Fetch requests issued for this predicate.
    pub requests: u64,
    /// Annotations judged for this predicate.
    pub annotations: u64,
}

/// Everything one decision query was charged for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryCost {
    /// Bytes clocked onto links on this query's behalf (lost included).
    pub bytes: u64,
    /// Messages transmitted on this query's behalf.
    pub messages: u64,
    /// Bytes of those transmissions that were lost to link noise.
    pub lost_bytes: u64,
    /// Bytes broken down by message kind tag (`announce`, `request`, …).
    pub bytes_by_msg: BTreeMap<String, u64>,
    /// Fetch requests issued at the origin.
    pub requests: u64,
    /// Re-issued fetches: a `request-send` repeating an earlier name for
    /// the same query (retry after loss, fault, or timeout).
    pub retransmissions: u64,
    /// Requests served from a content store somewhere on the path.
    pub cache_hits: u64,
    /// Requests answered from cached labels (§VI-D).
    pub label_hits: u64,
    /// Requests answered with an approximate substitute (§V-A).
    pub approx_hits: u64,
    /// Labels resolved by sampling a co-located sensor.
    pub local_samples: u64,
    /// Objects stored into content stores on this query's behalf.
    pub cache_stores: u64,
    /// Cache occupancy charge: Σ payload bytes × remaining validity µs.
    pub cache_byte_us: u64,
    /// Evidence annotations judged at the origin.
    pub annotations: u64,
    /// The planner's predicted expected retrieval cost (§III-A), if a
    /// `plan` record was seen.
    pub predicted_bytes: Option<u64>,
    /// `viable`, `infeasible`, or `missed` once a terminal record is seen.
    pub outcome: Option<String>,
    /// Issue-to-decision latency for resolved queries.
    pub latency_us: Option<u64>,
    /// Per-predicate work, keyed by (OR-term, condition) coordinates.
    pub predicates: BTreeMap<PredKey, PredicateWork>,
    walk: PathWalk,
    seen_names: BTreeSet<String>,
}

impl QueryCost {
    /// The critical-path breakdown accumulated for this query.
    pub fn path(&self) -> &PathBreakdown {
        self.walk.breakdown()
    }

    /// Whether the query reached a terminal event (resolved or missed).
    pub fn is_terminal(&self) -> bool {
        self.outcome.is_some()
    }
}

/// The fold result: per-query charges, the overhead bucket, and the global
/// totals they must conserve against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostLedger {
    /// Charges per decision query, keyed by query id.
    pub queries: BTreeMap<u64, QueryCost>,
    /// Traffic no decision can be charged for: announce floods from other
    /// origins' re-forwarding, PIT-less re-forwards, and similar plumbing.
    pub overhead: QueryCost,
    /// All bytes transmitted in the trace (mirror of the simulator's
    /// `bytes_sent`).
    pub total_bytes: u64,
    /// All messages transmitted in the trace (mirror of `messages_sent`).
    pub total_messages: u64,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one normalized view into the ledger.
    pub fn observe(&mut self, view: &LedgerView) {
        // Global totals and the byte/message charge: every transmit goes
        // to exactly one bucket, which is what makes conservation a
        // construction property rather than a hope.
        if let ViewKind::Transmit { msg, bytes, .. } = &view.kind {
            self.total_bytes = self.total_bytes.saturating_add(*bytes);
            self.total_messages = self.total_messages.saturating_add(1);
            let bucket = match view.query {
                Some(q) => self.queries.entry(q).or_default(),
                None => &mut self.overhead,
            };
            bucket.bytes = bucket.bytes.saturating_add(*bytes);
            bucket.messages = bucket.messages.saturating_add(1);
            // Look up by `&str` first: only the first transmit of a message
            // kind in a bucket pays for an owned key.
            match bucket.bytes_by_msg.get_mut(msg.as_ref()) {
                Some(by_msg) => *by_msg = by_msg.saturating_add(*bytes),
                None => {
                    bucket.bytes_by_msg.insert(msg.to_string(), *bytes);
                }
            }
        }
        let Some(q) = view.query else {
            if let ViewKind::Loss { bytes } = &view.kind {
                self.overhead.lost_bytes = self.overhead.lost_bytes.saturating_add(*bytes);
            }
            return;
        };
        let cost = self.queries.entry(q).or_default();
        match &view.kind {
            ViewKind::Transmit { .. } | ViewKind::Deliver { .. } => {}
            ViewKind::Loss { bytes } => {
                cost.lost_bytes = cost.lost_bytes.saturating_add(*bytes);
            }
            ViewKind::QueryInit => {}
            ViewKind::Plan { expected_bytes } => {
                cost.predicted_bytes = Some(*expected_bytes);
            }
            ViewKind::RequestSend { name } => {
                cost.requests = cost.requests.saturating_add(1);
                if !cost.seen_names.insert(name.clone()) {
                    cost.retransmissions = cost.retransmissions.saturating_add(1);
                }
                if let Some(pred) = view.pred {
                    let work = cost.predicates.entry(pred).or_default();
                    work.requests = work.requests.saturating_add(1);
                }
            }
            ViewKind::CacheHit => cost.cache_hits = cost.cache_hits.saturating_add(1),
            ViewKind::CacheMiss => {}
            ViewKind::LabelHit => cost.label_hits = cost.label_hits.saturating_add(1),
            ViewKind::ApproxHit => cost.approx_hits = cost.approx_hits.saturating_add(1),
            ViewKind::LocalSample => cost.local_samples = cost.local_samples.saturating_add(1),
            ViewKind::CacheStore { byte_us } => {
                cost.cache_stores = cost.cache_stores.saturating_add(1);
                cost.cache_byte_us = cost.cache_byte_us.saturating_add(*byte_us);
            }
            ViewKind::Annotate => {
                cost.annotations = cost.annotations.saturating_add(1);
                if let Some(pred) = view.pred {
                    let work = cost.predicates.entry(pred).or_default();
                    work.annotations = work.annotations.saturating_add(1);
                }
            }
            ViewKind::QueryResolved {
                outcome,
                latency_us,
            } => {
                cost.outcome = Some(outcome.clone());
                cost.latency_us = Some(*latency_us);
            }
            ViewKind::QueryMissed => {
                cost.outcome = Some("missed".to_string());
            }
            ViewKind::Other => {}
        }
        cost.walk.observe(view);
    }

    /// Fold a stream of typed records.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Self {
        let mut ledger = Self::new();
        for rec in records {
            ledger.observe(&LedgerView::from_record(rec));
        }
        ledger
    }

    /// Fold a JSONL trace. Strict: any unparseable or incomplete line is
    /// an error naming its 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut ledger = Self::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = crate::json::parse(line)
                .map_err(|e| format!("line {}: invalid JSON: {e:?}", idx + 1))?;
            let view = LedgerView::from_json(&value)
                .ok_or_else(|| format!("line {}: missing trace envelope or payload", idx + 1))?;
            ledger.observe(&view);
        }
        Ok(ledger)
    }

    /// Bytes charged to decision queries (excluding overhead).
    pub fn attributed_bytes(&self) -> u64 {
        self.queries
            .values()
            .fold(0u64, |acc, c| acc.saturating_add(c.bytes))
    }

    /// Messages charged to decision queries (excluding overhead).
    pub fn attributed_messages(&self) -> u64 {
        self.queries
            .values()
            .fold(0u64, |acc, c| acc.saturating_add(c.messages))
    }

    /// The conservation invariant: per-query charges plus overhead equal
    /// the global byte/message totals.
    pub fn conserves(&self) -> bool {
        self.attributed_bytes().saturating_add(self.overhead.bytes) == self.total_bytes
            && self
                .attributed_messages()
                .saturating_add(self.overhead.messages)
                == self.total_messages
    }

    /// Mean bytes charged per decision query, or `None` when the trace
    /// held no queries.
    pub fn cost_per_decision(&self) -> Option<f64> {
        if self.queries.is_empty() {
            return None;
        }
        Some(self.attributed_bytes() as f64 / self.queries.len() as f64)
    }

    /// Mean predicted vs. mean actual bytes over queries that carried a
    /// plan prediction — the §III-A ordering-rule check.
    pub fn predicted_vs_actual(&self) -> Option<(f64, f64)> {
        let planned: Vec<&QueryCost> = self
            .queries
            .values()
            .filter(|c| c.predicted_bytes.is_some())
            .collect();
        if planned.is_empty() {
            return None;
        }
        let n = planned.len() as f64;
        let predicted: u64 = planned
            .iter()
            .map(|c| c.predicted_bytes.unwrap_or(0))
            .fold(0u64, u64::saturating_add);
        let actual: u64 = planned
            .iter()
            .map(|c| c.bytes)
            .fold(0u64, u64::saturating_add);
        Some((predicted as f64 / n, actual as f64 / n))
    }

    /// Critical-path segments summed over resolved queries.
    pub fn path_total(&self) -> PathBreakdown {
        let mut total = PathBreakdown::default();
        for cost in self.queries.values() {
            if cost.latency_us.is_some() {
                total.add(cost.path());
            }
        }
        total
    }

    /// The ledger as a deterministic JSON document.
    pub fn to_json_value(&self) -> JsonValue {
        fn ni(v: u64) -> JsonValue {
            JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
        }
        fn bucket_pairs(cost: &QueryCost) -> Vec<(String, JsonValue)> {
            let by_msg = cost
                .bytes_by_msg
                .iter()
                .map(|(k, v)| (k.clone(), ni(*v)))
                .collect();
            vec![
                ("bytes".into(), ni(cost.bytes)),
                ("messages".into(), ni(cost.messages)),
                ("lost_bytes".into(), ni(cost.lost_bytes)),
                ("bytes_by_msg".into(), JsonValue::Object(by_msg)),
            ]
        }
        let queries = self
            .queries
            .iter()
            .map(|(qid, cost)| {
                let mut pairs = vec![("query".into(), ni(*qid))];
                pairs.extend(bucket_pairs(cost));
                pairs.push(("requests".into(), ni(cost.requests)));
                pairs.push(("retransmissions".into(), ni(cost.retransmissions)));
                pairs.push(("cache_hits".into(), ni(cost.cache_hits)));
                pairs.push(("label_hits".into(), ni(cost.label_hits)));
                pairs.push(("approx_hits".into(), ni(cost.approx_hits)));
                pairs.push(("local_samples".into(), ni(cost.local_samples)));
                pairs.push(("cache_stores".into(), ni(cost.cache_stores)));
                pairs.push(("cache_byte_us".into(), ni(cost.cache_byte_us)));
                pairs.push(("annotations".into(), ni(cost.annotations)));
                pairs.push((
                    "predicted_bytes".into(),
                    cost.predicted_bytes.map(ni).unwrap_or(JsonValue::Null),
                ));
                pairs.push((
                    "outcome".into(),
                    cost.outcome
                        .as_ref()
                        .map(|o| JsonValue::Str(o.clone()))
                        .unwrap_or(JsonValue::Null),
                ));
                pairs.push((
                    "latency_us".into(),
                    cost.latency_us.map(ni).unwrap_or(JsonValue::Null),
                ));
                pairs.push(("path".into(), cost.path().to_json_value()));
                let preds = cost
                    .predicates
                    .iter()
                    .map(|(key, work)| {
                        JsonValue::Object(vec![
                            ("term".into(), JsonValue::Int(key.term as i64)),
                            ("cond".into(), JsonValue::Int(key.cond as i64)),
                            ("requests".into(), ni(work.requests)),
                            ("annotations".into(), ni(work.annotations)),
                        ])
                    })
                    .collect();
                pairs.push(("predicates".into(), JsonValue::Array(preds)));
                JsonValue::Object(pairs)
            })
            .collect();
        JsonValue::Object(vec![
            ("queries".into(), JsonValue::Array(queries)),
            (
                "overhead".into(),
                JsonValue::Object(bucket_pairs(&self.overhead)),
            ),
            ("total_bytes".into(), ni(self.total_bytes)),
            ("total_messages".into(), ni(self.total_messages)),
            ("conserved".into(), JsonValue::Bool(self.conserves())),
        ])
    }

    /// Human-readable attribution table for `dde-trace attribute`.
    pub fn render_attribution(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "per-decision cost ledger — {} queries, {}",
            self.queries.len(),
            if self.conserves() {
                "conserved"
            } else {
                "NOT CONSERVED"
            }
        );
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>7} {:>5} {:>4} {:>6} {:>6} {:>6} {:>6} {:>6} {:>14} {:>12} {:>11} {:>12}",
            "query",
            "bytes",
            "msgs",
            "req",
            "rtx",
            "c-hit",
            "l-hit",
            "a-hit",
            "local",
            "annot",
            "cache-B.us",
            "pred-B",
            "outcome",
            "latency-us"
        );
        for (qid, c) in &self.queries {
            let _ = writeln!(
                out,
                "{:>6} {:>12} {:>7} {:>5} {:>4} {:>6} {:>6} {:>6} {:>6} {:>6} {:>14} {:>12} {:>11} {:>12}",
                qid,
                c.bytes,
                c.messages,
                c.requests,
                c.retransmissions,
                c.cache_hits,
                c.label_hits,
                c.approx_hits,
                c.local_samples,
                c.annotations,
                c.cache_byte_us,
                c.predicted_bytes
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                c.outcome.as_deref().unwrap_or("-"),
                c.latency_us
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        let _ = writeln!(
            out,
            "overhead: {} bytes / {} msgs",
            self.overhead.bytes, self.overhead.messages
        );
        let _ = writeln!(
            out,
            "totals: attributed {} B / {} msgs + overhead {} B / {} msgs = {} B / {} msgs",
            self.attributed_bytes(),
            self.attributed_messages(),
            self.overhead.bytes,
            self.overhead.messages,
            self.total_bytes,
            self.total_messages,
        );
        if let Some((predicted, actual)) = self.predicted_vs_actual() {
            let _ = writeln!(
                out,
                "predicted-vs-actual: E[cost]={predicted:.0} B planned, {actual:.0} B spent per decision",
            );
        }
        out
    }

    /// Human-readable critical-path table for `dde-trace critical-path`.
    pub fn render_critical_path(&self) -> String {
        let mut out = String::new();
        let resolved = self
            .queries
            .values()
            .filter(|c| c.latency_us.is_some())
            .count();
        let _ = writeln!(
            out,
            "critical paths — {} resolved / {} queries",
            resolved,
            self.queries.len()
        );
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>8} {:>8} {:>8} {:>8}",
            "query", "latency-us", "queue%", "transit%", "annot%", "sched%"
        );
        for (qid, c) in &self.queries {
            let Some(latency) = c.latency_us else {
                continue;
            };
            let Some(f) = c.path().fractions() else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:>6} {:>12} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                qid,
                latency,
                f[0] * 100.0,
                f[1] * 100.0,
                f[2] * 100.0,
                f[3] * 100.0
            );
        }
        let total = self.path_total();
        if let Some(f) = total.fractions() {
            let _ = writeln!(
                out,
                "aggregate: queueing {:.1}%  transit {:.1}%  annotation {:.1}%  scheduler-wait {:.1}%",
                f[0] * 100.0,
                f[1] * 100.0,
                f[2] * 100.0,
                f[3] * 100.0
            );
        }
        out
    }

    /// Critical paths as a deterministic JSON document.
    pub fn critical_path_json(&self) -> JsonValue {
        fn ni(v: u64) -> JsonValue {
            JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
        }
        let queries = self
            .queries
            .iter()
            .filter_map(|(qid, c)| {
                let latency = c.latency_us?;
                Some(JsonValue::Object(vec![
                    ("query".into(), ni(*qid)),
                    ("latency_us".into(), ni(latency)),
                    ("path".into(), c.path().to_json_value()),
                ]))
            })
            .collect();
        JsonValue::Object(vec![
            ("queries".into(), JsonValue::Array(queries)),
            ("aggregate".into(), self.path_total().to_json_value()),
        ])
    }
}

/// A live [`Sink`] maintaining a [`CostLedger`] incrementally: O(1) state
/// per query, no trace buffering — suitable for attaching to every bench
/// run.
#[derive(Debug, Default)]
pub struct LedgerSink {
    ledger: CostLedger,
}

impl LedgerSink {
    /// An empty ledger sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ledger accumulated so far.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Take the accumulated ledger, leaving an empty one.
    pub fn take_ledger(&mut self) -> CostLedger {
        std::mem::take(&mut self.ledger)
    }
}

impl Sink for LedgerSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.ledger.observe(&LedgerView::from_record(rec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use dde_logic::time::SimTime;

    fn rec(t: u64, node: u32, kind: EventKind) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_micros(t),
            node,
            kind,
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            rec(
                0,
                0,
                EventKind::QueryInit {
                    query: 1,
                    origin: 0,
                },
            ),
            rec(
                1,
                0,
                EventKind::Plan {
                    query: 1,
                    strategy: "lvf",
                    candidates: 2,
                    expected_bytes: 1000,
                    rationale: String::new(),
                },
            ),
            rec(
                2,
                0,
                EventKind::RequestSend {
                    query: 1,
                    name: "/a".into(),
                    hop: 1,
                    term: Some(0),
                    cond: Some(0),
                },
            ),
            rec(
                3,
                0,
                EventKind::Transmit {
                    from: 0,
                    to: 1,
                    msg: "request",
                    bytes: 100,
                    background: false,
                    query: Some(1),
                },
            ),
            rec(
                10,
                1,
                EventKind::Loss {
                    from: 0,
                    to: 1,
                    msg: "request",
                    bytes: 100,
                    query: Some(1),
                },
            ),
            // Retry: same name, same query.
            rec(
                20,
                0,
                EventKind::RequestSend {
                    query: 1,
                    name: "/a".into(),
                    hop: 1,
                    term: Some(0),
                    cond: Some(0),
                },
            ),
            rec(
                21,
                0,
                EventKind::Transmit {
                    from: 0,
                    to: 1,
                    msg: "request",
                    bytes: 100,
                    background: false,
                    query: Some(1),
                },
            ),
            rec(
                30,
                1,
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    msg: "request",
                    query: Some(1),
                },
            ),
            rec(
                31,
                1,
                EventKind::Transmit {
                    from: 1,
                    to: 0,
                    msg: "data",
                    bytes: 500,
                    background: false,
                    query: Some(1),
                },
            ),
            rec(
                40,
                0,
                EventKind::CacheStore {
                    name: "/a".into(),
                    bytes: 500,
                    validity_us: 1000,
                    query: Some(1),
                },
            ),
            rec(
                41,
                0,
                EventKind::Annotate {
                    query: 1,
                    label: "a".into(),
                    value: true,
                    term: Some(0),
                    cond: Some(0),
                },
            ),
            rec(
                42,
                0,
                EventKind::QueryResolved {
                    query: 1,
                    outcome: "viable",
                    latency_us: 42,
                },
            ),
            // Unattributable overhead transmit.
            rec(
                50,
                2,
                EventKind::Transmit {
                    from: 2,
                    to: 3,
                    msg: "request",
                    bytes: 77,
                    background: false,
                    query: None,
                },
            ),
        ]
    }

    #[test]
    fn charges_and_conservation() {
        let ledger = CostLedger::from_records(&sample_records());
        assert!(ledger.conserves());
        assert_eq!(ledger.total_bytes, 100 + 100 + 500 + 77);
        assert_eq!(ledger.total_messages, 4);
        assert_eq!(ledger.overhead.bytes, 77);
        let c = ledger.queries.get(&1).expect("query 1 charged");
        assert_eq!(c.bytes, 700);
        assert_eq!(c.messages, 3);
        assert_eq!(c.lost_bytes, 100);
        assert_eq!(c.requests, 2);
        assert_eq!(c.retransmissions, 1, "re-issued /a counts once");
        assert_eq!(c.cache_stores, 1);
        assert_eq!(c.cache_byte_us, 500_000);
        assert_eq!(c.annotations, 1);
        assert_eq!(c.predicted_bytes, Some(1000));
        assert_eq!(c.outcome.as_deref(), Some("viable"));
        assert_eq!(c.bytes_by_msg.get("data"), Some(&500));
        let work = c
            .predicates
            .get(&PredKey { term: 0, cond: 0 })
            .expect("predicate work");
        assert_eq!(work.requests, 2);
        assert_eq!(work.annotations, 1);
    }

    #[test]
    fn path_segments_sum_to_latency() {
        let ledger = CostLedger::from_records(&sample_records());
        let c = ledger.queries.get(&1).expect("query 1");
        assert_eq!(c.path().total_us(), 42);
    }

    #[test]
    fn typed_fold_equals_jsonl_fold() {
        let records = sample_records();
        let typed = CostLedger::from_records(&records);
        let mut jsonl = String::new();
        for r in &records {
            r.write_jsonl(&mut jsonl);
            jsonl.push('\n');
        }
        let folded = CostLedger::from_jsonl(&jsonl).expect("valid trace");
        assert_eq!(typed, folded);
    }

    #[test]
    fn json_document_is_deterministic_and_conserved() {
        let ledger = CostLedger::from_records(&sample_records());
        let a = ledger.to_json_value().to_compact_string();
        let b = ledger.to_json_value().to_compact_string();
        assert_eq!(a, b);
        assert!(a.contains("\"conserved\":true"));
        assert!(a.contains("\"overhead\""));
    }

    #[test]
    fn ledger_sink_matches_offline_fold() {
        let records = sample_records();
        let mut sink = LedgerSink::new();
        for r in &records {
            sink.record(r);
        }
        assert_eq!(sink.take_ledger(), CostLedger::from_records(&records));
    }

    #[test]
    fn renders_mention_totals() {
        let ledger = CostLedger::from_records(&sample_records());
        let text = ledger.render_attribution();
        assert!(text.contains("conserved"));
        assert!(text.contains("overhead"));
        let cp = ledger.render_critical_path();
        assert!(cp.contains("aggregate"));
    }
}
