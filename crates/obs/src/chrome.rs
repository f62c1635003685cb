//! Chrome trace-event export.
//!
//! Produces the JSON object format understood by `about:tracing` and
//! Perfetto: each JSONL trace line becomes an instant event (`"ph":"i"`)
//! with the simulated microsecond as `ts`, the node index as `tid`, and
//! the event payload under `args`. Timestamps being simulated means the
//! visual timeline *is* the simulation timeline.

use crate::json::JsonValue;

/// Convert a JSONL trace (as produced by
/// [`JsonlSink`](crate::sink::JsonlSink)) into a Chrome trace-event
/// document. Lines that fail to parse are skipped.
pub fn chrome_trace_from_jsonl(jsonl: &str) -> String {
    let mut events = Vec::new();
    for line in jsonl.lines() {
        let Ok(v) = crate::json::parse(line) else {
            continue;
        };
        let ts = v.get("t").and_then(|t| t.as_int()).unwrap_or(0);
        let tid = v.get("node").and_then(|n| n.as_int()).unwrap_or(0);
        let name = v
            .get("kind")
            .and_then(|k| k.as_str())
            .unwrap_or("?")
            .to_string();
        let args: Vec<(String, JsonValue)> = match &v {
            JsonValue::Object(pairs) => pairs
                .iter()
                .filter(|(k, _)| k != "t" && k != "node" && k != "kind")
                .cloned()
                .collect(),
            _ => Vec::new(),
        };
        events.push(JsonValue::Object(vec![
            ("name".into(), JsonValue::Str(name)),
            ("ph".into(), JsonValue::Str("i".into())),
            ("s".into(), JsonValue::Str("t".into())),
            ("ts".into(), JsonValue::Int(ts)),
            ("pid".into(), JsonValue::Int(0)),
            ("tid".into(), JsonValue::Int(tid)),
            ("args".into(), JsonValue::Object(args)),
        ]));
    }
    let doc = JsonValue::Object(vec![
        ("traceEvents".into(), JsonValue::Array(events)),
        ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
    ]);
    doc.to_pretty_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceRecord};
    use crate::json::parse;
    use dde_logic::time::SimTime;

    #[test]
    fn records_export_as_instant_events() {
        let rec = TraceRecord {
            at: SimTime::from_micros(42),
            node: 7,
            kind: EventKind::Deliver {
                from: 1,
                to: 7,
                msg: "data",
                query: None,
            },
        };
        let jsonl = rec.to_jsonl_line();
        let doc = chrome_trace_from_jsonl(&jsonl);
        let v = parse(&doc).unwrap();
        let events = match v.get("traceEvents") {
            Some(JsonValue::Array(a)) => a,
            _ => panic!("missing traceEvents"),
        };
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ts").and_then(|t| t.as_int()), Some(42));
        assert_eq!(events[0].get("tid").and_then(|t| t.as_int()), Some(7));
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("deliver")
        );
        assert_eq!(
            events[0].get("args"),
            Some(&JsonValue::Object(rec.kind.fields()))
        );
    }

    #[test]
    fn jsonl_round_trip_matches_record_export() {
        let rec = TraceRecord {
            at: SimTime::from_micros(10),
            node: 2,
            kind: EventKind::CacheHit {
                name: "/x".into(),
                requester: 0,
                query: None,
            },
        };
        let jsonl = rec.to_jsonl_line();
        let expected = JsonValue::Object(vec![
            (
                "traceEvents".into(),
                JsonValue::Array(vec![JsonValue::Object(vec![
                    ("name".into(), JsonValue::Str(rec.kind.kind_name().into())),
                    ("ph".into(), JsonValue::Str("i".into())),
                    ("s".into(), JsonValue::Str("t".into())),
                    ("ts".into(), JsonValue::Int(rec.at.as_micros() as i64)),
                    ("pid".into(), JsonValue::Int(0)),
                    ("tid".into(), JsonValue::Int(rec.node as i64)),
                    ("args".into(), JsonValue::Object(rec.kind.fields())),
                ])]),
            ),
            ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
        ]);
        assert_eq!(chrome_trace_from_jsonl(&jsonl), expected.to_pretty_string());
    }
}
