//! A bounded flight-recorder ring sink for post-mortem debugging.
//!
//! [`FlightRecorder`] is a [`Sink`] that keeps only the last `cap` trace
//! records (older records are evicted and counted, never reallocated into
//! an unbounded buffer). The live cluster runtime tees one per node host
//! and dumps the retained tail when the host dies — panic, `NetError`, or
//! an equivalence mismatch — so the evidence that led up to the failure
//! survives even when the full JSONL trace was never enabled.
//!
//! The recorder itself is deterministic given a deterministic record
//! stream (it is just a ring); nondeterminism only enters through the live
//! backend that feeds it, which is already the documented boundary
//! (DESIGN.md §5g/§5i).

use crate::event::TraceRecord;
use crate::sink::Sink;
use std::collections::VecDeque;

/// Keeps the last `cap` [`TraceRecord`]s seen, evicting from the front.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: VecDeque<TraceRecord>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `cap` records (`cap` is clamped to at
    /// least 1 so the most recent record is always available).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// How many records have been evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained tail as JSON Lines (same format as
    /// [`JsonlSink`](crate::sink::JsonlSink)), oldest first.
    pub fn render_jsonl(&self) -> String {
        let mut out = Vec::new();
        for rec in &self.ring {
            rec.encode_jsonl(&mut out);
            out.push(b'\n');
        }
        crate::json::into_string(out)
    }

    /// A framed human-readable dump for stderr: a header naming the
    /// failure `context` and the drop count, then the JSONL tail.
    pub fn render_report(&self, context: &str) -> String {
        let mut out = format!(
            "=== flight recorder: {} (last {} of {} records) ===\n",
            context,
            self.ring.len(),
            self.ring.len() as u64 + self.dropped
        );
        out.push_str(&self.render_jsonl());
        out.push_str("=== end flight recorder ===\n");
        out
    }
}

impl Sink for FlightRecorder {
    fn record(&mut self, rec: &TraceRecord) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use dde_logic::time::SimTime;

    fn rec(t: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_micros(t),
            node: 0,
            kind: EventKind::LocalSample {
                name: "/x".to_string(),
                query: None,
            },
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_tail() {
        let mut r = FlightRecorder::new(3);
        for t in 0..10 {
            r.record(&rec(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        let times: Vec<u64> = r.records().map(|x| x.at.as_micros()).collect();
        assert_eq!(times, vec![7, 8, 9]);
    }

    #[test]
    fn cap_zero_still_keeps_the_latest_record() {
        let mut r = FlightRecorder::new(0);
        r.record(&rec(1));
        r.record(&rec(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.records().next().unwrap().at.as_micros(), 2);
    }

    #[test]
    fn report_frames_the_jsonl_tail() {
        let mut r = FlightRecorder::new(2);
        for t in 0..4 {
            r.record(&rec(t));
        }
        let report = r.render_report("NetError: peer unavailable");
        assert!(report.starts_with("=== flight recorder: NetError"));
        assert!(report.contains("(last 2 of 4 records)"));
        assert_eq!(report.lines().count(), 4, "{report}");
        assert!(report.ends_with("=== end flight recorder ===\n"));
    }

    #[test]
    fn empty_recorder_renders_empty_tail() {
        let r = FlightRecorder::new(8);
        assert!(r.is_empty());
        assert_eq!(r.render_jsonl(), "");
    }
}
