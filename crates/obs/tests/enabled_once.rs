//! The `Sink::enabled` contract, counted: the answer is fixed for a sink's
//! life, so [`TeeSink`] asks each side once, when it is built, and never
//! again per record. For a `SharedSink` side every question is a lock; a
//! count, unlike a clock, holds that line exactly.

use dde_logic::time::SimTime;
use dde_obs::{EventKind, NullSink, Sink, TeeSink, TraceRecord};
use std::cell::Cell;
use std::rc::Rc;

/// Counts the `enabled()` questions and the records it is handed.
struct Counting {
    on: bool,
    asked: Rc<Cell<u64>>,
    records: Rc<Cell<u64>>,
}

impl Counting {
    /// A sink answering `on`, and its two counters.
    fn new(on: bool) -> (Self, Rc<Cell<u64>>, Rc<Cell<u64>>) {
        let (asked, records) = (Rc::default(), Rc::default());
        let sink = Counting {
            on,
            asked: Rc::clone(&asked),
            records: Rc::clone(&records),
        };
        (sink, asked, records)
    }
}

impl Sink for Counting {
    fn enabled(&self) -> bool {
        self.asked.set(self.asked.get() + 1);
        self.on
    }

    fn record(&mut self, _rec: &TraceRecord) {
        self.records.set(self.records.get() + 1);
    }
}

fn rec(t: u64) -> TraceRecord {
    TraceRecord {
        at: SimTime::from_micros(t),
        node: 1,
        kind: EventKind::QueryMissed { query: t },
    }
}

#[test]
fn a_tee_asks_each_side_once_at_construction_and_never_per_record() {
    let (a, a_asked, a_records) = Counting::new(true);
    let (b, b_asked, b_records) = Counting::new(true);
    let mut tee = TeeSink::new(Box::new(a), Box::new(b));
    assert_eq!(
        (a_asked.get(), b_asked.get()),
        (1, 1),
        "asked at construction"
    );
    for t in 0..1_000 {
        assert!(tee.enabled());
        tee.record(&rec(t));
    }
    assert_eq!(
        (a_asked.get(), b_asked.get()),
        (1, 1),
        "1 000 checks and records ask neither side again"
    );
    assert_eq!((a_records.get(), b_records.get()), (1_000, 1_000));
}

#[test]
fn a_disabled_side_is_skipped_without_being_asked_again() {
    let (off, off_asked, off_records) = Counting::new(false);
    let (on, on_asked, on_records) = Counting::new(true);
    let mut tee = TeeSink::new(Box::new(off), Box::new(on));
    for t in 0..100 {
        tee.record(&rec(t));
    }
    assert_eq!((off_asked.get(), on_asked.get()), (1, 1));
    assert_eq!((off_records.get(), on_records.get()), (0, 100));

    let (off, asked, _) = Counting::new(false);
    let tee = TeeSink::new(Box::new(NullSink), Box::new(off));
    assert!(!tee.enabled(), "two disabled sides make a disabled tee");
    assert!(!tee.enabled());
    assert_eq!(asked.get(), 1);
}
