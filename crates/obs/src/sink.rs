//! The [`Sink`] contract and stock sink implementations.
//!
//! Instrumentation sites hold a `&mut dyn Sink` (or a cloneable
//! [`SharedSink`] handle) and call [`Sink::record`] per event. Sites are
//! expected to check [`Sink::enabled`] before building events with owned
//! payloads, so the default [`NullSink`] costs one branch per site.

use crate::event::TraceRecord;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A consumer of [`TraceRecord`]s.
///
/// Implementations must be deterministic given a deterministic record
/// stream: no wall-clock reads, no hashing-order iteration, no sampling.
pub trait Sink {
    /// Whether this sink actually consumes records. Instrumentation sites
    /// use this to skip building event payloads (strings, rationale
    /// rendering) entirely. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flush any buffered output. Defaults to a no-op.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The do-nothing sink: [`enabled`](Sink::enabled) is `false`, so
/// instrumented code skips event construction. This is the default wiring;
/// it is what "instrumentation compiled in, null sink overhead only" means.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _rec: &TraceRecord) {}
}

/// Collects records into a `Vec`, optionally bounded.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<TraceRecord>,
    cap: Option<usize>,
}

impl MemorySink {
    /// An unbounded in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that keeps only the first `cap` records (later records are
    /// silently discarded, mirroring the legacy `trace_cap` behaviour).
    pub fn with_cap(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            cap: Some(cap),
        }
    }

    /// The records collected so far.
    pub fn events(&self) -> &[TraceRecord] {
        &self.events
    }

    /// Drain the collected records, leaving the sink empty (and still
    /// collecting).
    pub fn take(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.events)
    }
}

impl Sink for MemorySink {
    fn record(&mut self, rec: &TraceRecord) {
        if self.events.len() < self.cap.unwrap_or(usize::MAX) {
            self.events.push(rec.clone());
        }
    }
}

/// Streams records as JSON Lines to any [`Write`] target.
///
/// Write errors are captured rather than panicked on (the simulator hot
/// path must stay panic-free); the first error is surfaced by
/// [`flush`](Sink::flush) and by [`JsonlSink::into_inner`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    /// The line being encoded; reused, so a record costs no allocation
    /// once it has grown to the longest line seen.
    line: String,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer. Callers owning a `File` may want to wrap it in a
    /// `BufWriter` first.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            line: String::new(),
            error: None,
        }
    }

    /// The underlying writer.
    pub fn get_ref(&self) -> &W {
        &self.writer
    }

    /// Unwrap into the underlying writer, surfacing any deferred write
    /// error.
    pub fn into_inner(self) -> (W, Option<std::io::Error>) {
        (self.writer, self.error)
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        rec.write_jsonl(&mut self.line);
        self.line.push('\n');
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }
}

/// Buffers records and writes a complete Chrome trace-event JSON document
/// (loadable in `about:tracing` / Perfetto) on [`flush`](Sink::flush).
#[derive(Debug)]
pub struct ChromeTraceSink<W: Write> {
    writer: W,
    records: Vec<TraceRecord>,
    error: Option<std::io::Error>,
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wrap a writer; the document is produced on flush.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            records: Vec::new(),
            error: None,
        }
    }

    /// Unwrap into the underlying writer, surfacing any deferred write
    /// error.
    pub fn into_inner(self) -> (W, Option<std::io::Error>) {
        (self.writer, self.error)
    }
}

impl<W: Write> Sink for ChromeTraceSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(rec.clone());
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let doc = crate::chrome::chrome_trace_from_records(&self.records);
        self.writer.write_all(doc.as_bytes())?;
        self.writer.flush()
    }
}

/// Fans each record out to two sinks — e.g. the caller's trace sink plus
/// the engine's live [`LedgerSink`](crate::ledger::LedgerSink).
///
/// Enabled when *either* side is enabled; a disabled side is skipped per
/// record, so teeing a `NullSink` with a ledger costs the ledger alone.
pub struct TeeSink {
    a: Box<dyn Sink>,
    b: Box<dyn Sink>,
}

impl std::fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeSink").finish_non_exhaustive()
    }
}

impl TeeSink {
    /// Tee records to both `a` and `b`.
    pub fn new(a: Box<dyn Sink>, b: Box<dyn Sink>) -> Self {
        Self { a, b }
    }
}

impl Sink for TeeSink {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn record(&mut self, rec: &TraceRecord) {
        if self.a.enabled() {
            self.a.record(rec);
        }
        if self.b.enabled() {
            self.b.record(rec);
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let ra = self.a.flush();
        let rb = self.b.flush();
        ra.and(rb)
    }
}

/// A cloneable handle to a shared sink, for wiring one sink into several
/// owners (e.g. the simulator plus the caller that wants the collected
/// trace back afterwards).
// The event loop is the handle's only writer during a simulated run, so
// lock acquisition order cannot affect trace order; the live backend's
// host and reader threads tee into one handle and make no order claim.
#[derive(Debug)]
pub struct SharedSink<S: Sink> {
    inner: Arc<Mutex<S>>,
}

impl<S: Sink> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: Sink> SharedSink<S> {
    /// Share `sink` behind a cloneable handle.
    pub fn new(sink: S) -> Self {
        Self {
            inner: Arc::new(Mutex::new(sink)),
        }
    }

    /// Run `f` with exclusive access to the shared sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        // A poisoned lock only means another holder panicked mid-record;
        // the sink data is still the best evidence we have, so recover it.
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }
}

impl<S: Sink> Sink for SharedSink<S> {
    fn enabled(&self) -> bool {
        self.with(|s| s.enabled())
    }

    fn record(&mut self, rec: &TraceRecord) {
        self.with(|s| s.record(rec));
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.with(|s| s.flush())
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
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn memory_sink_respects_cap() {
        let mut sink = MemorySink::with_cap(2);
        for t in 0..5 {
            sink.record(&rec(t));
        }
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(1));
        sink.record(&rec(2));
        sink.flush().unwrap();
        let (buf, err) = sink.into_inner();
        assert!(err.is_none());
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn tee_sink_feeds_both_sides_and_skips_disabled_ones() {
        let left = SharedSink::new(MemorySink::new());
        let right = SharedSink::new(MemorySink::new());
        let mut tee = TeeSink::new(Box::new(left.clone()), Box::new(right.clone()));
        assert!(tee.enabled());
        tee.record(&rec(1));
        assert_eq!(left.with(|s| s.events().len()), 1);
        assert_eq!(right.with(|s| s.events().len()), 1);

        let only = SharedSink::new(MemorySink::new());
        let mut tee = TeeSink::new(Box::new(NullSink), Box::new(only.clone()));
        assert!(tee.enabled(), "one enabled side keeps the tee enabled");
        tee.record(&rec(2));
        assert_eq!(only.with(|s| s.events().len()), 1);
    }

    #[test]
    fn shared_sink_clones_see_the_same_store() {
        let shared = SharedSink::new(MemorySink::new());
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.record(&rec(1));
        b.record(&rec(2));
        assert_eq!(shared.with(|s| s.events().len()), 2);
    }
}
