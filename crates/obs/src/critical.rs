//! Critical-path extraction: where each query's issue-to-decision latency
//! actually went.
//!
//! For one resolved query, the attributed events between its `query-init`
//! and `query-resolved` records form a time-ordered chain (the simulator
//! dispatches in time order, and the JSONL trace preserves dispatch
//! order). Each inter-event gap is classified by the event that *ends* it:
//! a `transmit` ends a **queueing** wait (the message sat behind the link's
//! busy time), a `deliver`/`loss` ends a **transit** span, an
//! `annotate`/`query-resolved` ends an **annotation** span (judging
//! evidence at the origin), and everything else ends **scheduler wait**
//! (planning, PIT bookkeeping, timer waits between retries).
//!
//! Because every accounted event advances the walk's clock and the walk
//! runs from `query-init` to the terminal event, the four segment sums
//! partition the observed latency exactly:
//! `queueing + transit + annotation + scheduler_wait == latency_us`.
//! That identity is asserted by the conservation tests, so the breakdown
//! can be trusted as an accounting of real simulated time, not an estimate.
//!
//! Announce-flood records and background (prefetch-class) transmissions are
//! excluded from the walk — they serve the query but are not on its
//! resolve path; their time folds into the enclosing segment. Their bytes
//! are still charged in the [`CostLedger`](crate::ledger::CostLedger).

use crate::attrib::{LedgerView, ViewKind};
use crate::json::JsonValue;

/// How one query's issue-to-decision latency decomposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathBreakdown {
    /// Time spent waiting for links to free up (ended by a `transmit`).
    pub queueing_us: u64,
    /// Time on the wire (ended by a `deliver` or `loss`).
    pub transit_us: u64,
    /// Time judging evidence at the origin (ended by `annotate`/resolve).
    pub annotation_us: u64,
    /// Everything else: planning, PIT bookkeeping, retry timers.
    pub scheduler_wait_us: u64,
}

impl PathBreakdown {
    /// Segment names in [`PathBreakdown::fractions`] order.
    pub const SEGMENT_NAMES: [&'static str; 4] =
        ["queueing", "transit", "annotation", "scheduler_wait"];

    /// Sum of all four segments; equals the query's observed latency for
    /// resolved queries.
    pub fn total_us(&self) -> u64 {
        self.queueing_us
            .saturating_add(self.transit_us)
            .saturating_add(self.annotation_us)
            .saturating_add(self.scheduler_wait_us)
    }

    /// Accumulate another breakdown into this one.
    pub fn add(&mut self, other: &PathBreakdown) {
        self.queueing_us = self.queueing_us.saturating_add(other.queueing_us);
        self.transit_us = self.transit_us.saturating_add(other.transit_us);
        self.annotation_us = self.annotation_us.saturating_add(other.annotation_us);
        self.scheduler_wait_us = self
            .scheduler_wait_us
            .saturating_add(other.scheduler_wait_us);
    }

    /// The four segments as fractions of the total, or `None` for an empty
    /// (zero-length) path.
    pub fn fractions(&self) -> Option<[f64; 4]> {
        let total = self.total_us();
        if total == 0 {
            return None;
        }
        let t = total as f64;
        Some([
            self.queueing_us as f64 / t,
            self.transit_us as f64 / t,
            self.annotation_us as f64 / t,
            self.scheduler_wait_us as f64 / t,
        ])
    }

    /// The breakdown as an ordered JSON object (microsecond fields).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "queueing_us".into(),
                JsonValue::Int(self.queueing_us as i64),
            ),
            ("transit_us".into(), JsonValue::Int(self.transit_us as i64)),
            (
                "annotation_us".into(),
                JsonValue::Int(self.annotation_us as i64),
            ),
            (
                "scheduler_wait_us".into(),
                JsonValue::Int(self.scheduler_wait_us as i64),
            ),
        ])
    }
}

/// Incremental critical-path walk state for one query. O(1) memory: only
/// the walk clock and the four accumulators are kept, so a live sink can
/// maintain one per in-flight query without buffering the trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathWalk {
    started: bool,
    done: bool,
    last_us: u64,
    breakdown: PathBreakdown,
}

/// Which segment an event terminates, if it is on the resolve path at all.
fn segment_of(kind: &ViewKind) -> Option<Segment> {
    match kind {
        ViewKind::Transmit {
            msg, background, ..
        } => {
            if msg == "announce" || *background {
                None
            } else {
                Some(Segment::Queueing)
            }
        }
        ViewKind::Deliver { msg } => {
            if msg == "announce" {
                None
            } else {
                Some(Segment::Transit)
            }
        }
        ViewKind::Loss { .. } => Some(Segment::Transit),
        ViewKind::Annotate | ViewKind::QueryResolved { .. } => Some(Segment::Annotation),
        _ => Some(Segment::SchedulerWait),
    }
}

#[derive(Debug, Clone, Copy)]
enum Segment {
    Queueing,
    Transit,
    Annotation,
    SchedulerWait,
}

impl PathWalk {
    /// Advance the walk with one event already known to be attributed to
    /// this walk's query.
    pub fn observe(&mut self, view: &LedgerView) {
        if self.done {
            return;
        }
        if matches!(view.kind, ViewKind::QueryInit) {
            self.started = true;
            self.last_us = view.t_us;
            return;
        }
        if !self.started {
            return;
        }
        let Some(segment) = segment_of(&view.kind) else {
            return;
        };
        let gap = view.t_us.saturating_sub(self.last_us);
        self.last_us = view.t_us;
        match segment {
            Segment::Queueing => {
                self.breakdown.queueing_us = self.breakdown.queueing_us.saturating_add(gap)
            }
            Segment::Transit => {
                self.breakdown.transit_us = self.breakdown.transit_us.saturating_add(gap)
            }
            Segment::Annotation => {
                self.breakdown.annotation_us = self.breakdown.annotation_us.saturating_add(gap)
            }
            Segment::SchedulerWait => {
                self.breakdown.scheduler_wait_us =
                    self.breakdown.scheduler_wait_us.saturating_add(gap)
            }
        }
        if matches!(
            view.kind,
            ViewKind::QueryResolved { .. } | ViewKind::QueryMissed
        ) {
            self.done = true;
        }
    }

    /// The breakdown accumulated so far.
    pub fn breakdown(&self) -> &PathBreakdown {
        &self.breakdown
    }

    /// Whether the walk reached a terminal event.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(t_us: u64, kind: ViewKind) -> LedgerView {
        LedgerView {
            t_us,
            node: 0,
            kind,
            query: Some(1),
            pred: None,
        }
    }

    fn tx(t_us: u64, msg: &'static str, background: bool) -> LedgerView {
        view(
            t_us,
            ViewKind::Transmit {
                msg: msg.into(),
                bytes: 100,
                background,
            },
        )
    }

    #[test]
    fn segments_partition_the_latency() {
        let mut walk = PathWalk::default();
        walk.observe(&view(100, ViewKind::QueryInit));
        walk.observe(&view(110, ViewKind::RequestSend { name: "/a".into() })); // 10us scheduler
        walk.observe(&tx(130, "request", false)); // 20us queueing
        walk.observe(&view(180, ViewKind::Deliver { msg: "data".into() })); // 50us transit
        walk.observe(&view(200, ViewKind::Annotate)); // 20us annotation
        walk.observe(&view(
            250,
            ViewKind::QueryResolved {
                outcome: "viable".into(),
                latency_us: 150,
            },
        )); // 50us annotation
        let b = *walk.breakdown();
        assert!(walk.is_done());
        assert_eq!(b.scheduler_wait_us, 10);
        assert_eq!(b.queueing_us, 20);
        assert_eq!(b.transit_us, 50);
        assert_eq!(b.annotation_us, 70);
        assert_eq!(b.total_us(), 150, "segments must sum to the latency");
    }

    #[test]
    fn announce_and_background_traffic_fold_into_the_next_segment() {
        let mut walk = PathWalk::default();
        walk.observe(&view(0, ViewKind::QueryInit));
        walk.observe(&tx(10, "announce", false)); // excluded
        walk.observe(&tx(30, "data", true)); // background: excluded
        walk.observe(&tx(40, "request", false)); // 40us queueing (absorbs both)
        walk.observe(&view(
            50,
            ViewKind::QueryResolved {
                outcome: "viable".into(),
                latency_us: 50,
            },
        ));
        let b = *walk.breakdown();
        assert_eq!(b.queueing_us, 40);
        assert_eq!(b.annotation_us, 10);
        assert_eq!(b.total_us(), 50);
    }

    #[test]
    fn events_after_resolution_are_ignored() {
        let mut walk = PathWalk::default();
        walk.observe(&view(0, ViewKind::QueryInit));
        walk.observe(&view(
            5,
            ViewKind::QueryResolved {
                outcome: "viable".into(),
                latency_us: 5,
            },
        ));
        walk.observe(&tx(100, "data", false));
        assert_eq!(walk.breakdown().total_us(), 5);
    }

    #[test]
    fn fractions_sum_to_one() {
        let b = PathBreakdown {
            queueing_us: 10,
            transit_us: 20,
            annotation_us: 30,
            scheduler_wait_us: 40,
        };
        let f = b.fractions().expect("non-empty");
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(PathBreakdown::default().fractions(), None);
    }
}
