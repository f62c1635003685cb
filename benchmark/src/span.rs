//! Spans recorded by the benchmark's own wrappers, from outside the program.
//!
//! A span is `(name, start, end, parent)`; all spans of one scenario run
//! share a trace id (`<workload>/<scenario seed>`). They are kept in
//! pre-allocated memory while the run is timed and folded or written out
//! afterwards. The recorder is thread-local: every traced run in this
//! benchmark executes on the calling thread (the classic event loop, and the
//! sharded engine's inline path at one region).

use crate::calib;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// A span that has no parent: the root of a trace.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// The innermost open span, or `NO_PARENT`.
    current: u32,
    /// Spans that did not fit the pre-allocated buffer.
    dropped: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread into a buffer of `capacity` spans.
pub fn start(capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: calib::now(),
            spans: Vec::with_capacity(capacity),
            current: NO_PARENT,
            dropped: 0,
        });
    });
}

/// Stops recording and returns the spans, in the order they were opened,
/// plus how many were dropped because the buffer was full.
pub fn finish() -> (Vec<Span>, u64) {
    RECORDER.with(|r| {
        let rec = r.borrow_mut().take();
        rec.map_or((Vec::new(), 0), |rec| (rec.spans, rec.dropped))
    })
}

/// An open span; closes when dropped. A no-op when nothing is recording.
pub struct Guard {
    index: u32,
}

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(rec) = slot.as_mut() else {
            return Guard { index: NO_PARENT };
        };
        if rec.spans.len() == rec.spans.capacity() {
            rec.dropped += 1;
            return Guard { index: NO_PARENT };
        }
        let index = rec.spans.len() as u32;
        let start_ns = calib::now().duration_since(rec.epoch).as_nanos() as u64;
        rec.spans.push(Span {
            name,
            parent: rec.current,
            start_ns,
            end_ns: start_ns,
        });
        rec.current = index;
        Guard { index }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.index == NO_PARENT {
            return;
        }
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let end_ns = calib::now().duration_since(rec.epoch).as_nanos() as u64;
                let span = &mut rec.spans[self.index as usize];
                span.end_ns = end_ns;
                rec.current = span.parent;
            }
        });
    }
}

/// Each span's self time: its duration minus its direct children's. Children
/// lie inside their parent and do not overlap (one thread), so this is the
/// time spent in the span's own code.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children_ns[span.parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children_ns)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Per-name totals over any number of traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Adds one trace's spans to the per-name totals.
pub fn fold_into(stats: &mut BTreeMap<&'static str, NameStat>, spans: &[Span]) {
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let stat = stats.entry(span.name).or_default();
        stat.count += 1;
        stat.total_ns += span.duration_ns();
        stat.self_ns += self_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // run [0,100) ── a [10,40) ── a1 [15,25)
        //             └─ b [50,70)        (sibling of a)
        let spans = [
            span("run", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("a1", 1, 15, 25),
            span("b", 0, 50, 70),
        ];
        // Only direct children are subtracted: a1 comes off a, not off run.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);

        let mut stats = BTreeMap::new();
        fold_into(&mut stats, &spans);
        fold_into(&mut stats, &spans);
        assert_eq!(
            stats["a"],
            NameStat {
                count: 2,
                total_ns: 60,
                self_ns: 40
            }
        );
        let self_sum: u64 = stats.values().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, 200, "self times partition the root spans");
    }

    #[test]
    fn recorder_nests_by_scope_and_counts_overflow() {
        start(2);
        {
            let _run = enter("run");
            {
                let _a = enter("a");
            }
            let _dropped = enter("b");
        }
        let (spans, dropped) = finish();
        assert_eq!(dropped, 1);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("run", NO_PARENT));
        assert_eq!((spans[1].name, spans[1].parent), ("a", 0));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        // Nothing recording: a guard is a no-op.
        let _idle = enter("idle");
        assert_eq!(finish(), (Vec::new(), 0));
    }
}
