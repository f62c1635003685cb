//! The exact, clock-free gate on the trace hot path: once warm, encoding a
//! record into a [`JsonlSink`] and folding a known query's records into a
//! [`LedgerSink`] allocate nothing, and a request name the query has not
//! asked for before costs one. A wall clock cannot hold this line; a count
//! can.

use dde_logic::time::SimTime;
use dde_obs::{EventKind, JsonlSink, LedgerSink, Sink, TraceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations per thread, so the harness's own threads and the
/// other test in this binary cannot disturb a count.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor runs after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches one thread-local
// cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread made while `work` ran.
fn allocs_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    work();
    ALLOCS.with(Cell::get) - before
}

fn rec(t: u64, kind: EventKind) -> TraceRecord {
    TraceRecord {
        at: SimTime::from_micros(t),
        node: 3,
        kind,
    }
}

fn transmit(t: u64) -> TraceRecord {
    rec(
        t,
        EventKind::Transmit {
            from: 3,
            to: 4,
            msg: "data",
            bytes: 450_000,
            background: false,
            query: Some(7),
        },
    )
}

fn deliver(t: u64) -> TraceRecord {
    rec(
        t,
        EventKind::Deliver {
            from: 3,
            to: 4,
            msg: "data",
            query: Some(7),
        },
    )
}

#[test]
fn a_warm_jsonl_sink_encodes_without_allocating() {
    let records = [
        transmit(1_000_000),
        deliver(1_000_001),
        rec(
            1_000_002,
            EventKind::RequestSend {
                query: 7,
                name: "/city/district-12/camera/4".into(),
                hop: 4,
                term: Some(1),
                cond: Some(2),
            },
        ),
        rec(
            1_000_003,
            EventKind::CacheStore {
                name: "/city/district-12/camera/4".into(),
                bytes: 450_000,
                validity_us: 60_000_000,
                query: Some(7),
            },
        ),
    ];
    let mut sink = JsonlSink::new(Vec::with_capacity(1 << 20));
    // Warm-up: the line buffer grows to the longest of the four.
    for r in &records {
        sink.record(r);
    }
    let allocs = allocs_during(|| {
        for _ in 0..1_000 {
            for r in &records {
                sink.record(r);
            }
        }
    });
    assert_eq!(allocs, 0, "4 000 records into a warm sink");
    let (buf, err) = sink.into_inner();
    assert!(err.is_none());
    assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 4_004);
}

#[test]
fn a_transmit_for_a_known_query_and_message_folds_without_allocating() {
    let mut sink = LedgerSink::new();
    // Warm-up: the query's bucket and its `data` entry come into being.
    sink.record(&transmit(0));
    let (tx, rx) = (transmit(1), deliver(2));
    let allocs = allocs_during(|| {
        for _ in 0..1_000 {
            sink.record(&tx);
            sink.record(&rx);
        }
    });
    assert_eq!(
        allocs, 0,
        "1 000 transmits and delivers for a seen (query, msg)"
    );
    let ledger = sink.take_ledger();
    assert_eq!(ledger.total_messages, 1_001);
    assert_eq!(ledger.queries[&7].bytes_by_msg["data"], 1_001 * 450_000);
}

fn request_send(t: u64, name: &str) -> TraceRecord {
    rec(
        t,
        EventKind::RequestSend {
            query: 7,
            name: name.into(),
            hop: 4,
            term: Some(0),
            cond: Some(1),
        },
    )
}

#[test]
fn a_warm_ledger_folds_a_known_query_without_allocating_and_a_new_name_with_one() {
    let annotate = rec(
        3,
        EventKind::Annotate {
            query: 7,
            label: "seg-3-4".into(),
            value: true,
            term: Some(0),
            cond: Some(1),
        },
    );
    let resolved = rec(
        4,
        EventKind::QueryResolved {
            query: 7,
            outcome: "viable",
            latency_us: 4,
        },
    );
    let (repeat, fresh) = (request_send(5, "/city/a"), request_send(6, "/city/b"));
    let mut sink = LedgerSink::new();
    // Warm-up: the query's bucket, its predicate entry, its first name and
    // its `data` entry come into being.
    for r in [
        rec(
            0,
            EventKind::QueryInit {
                query: 7,
                origin: 3,
            },
        ),
        request_send(1, "/city/a"),
        transmit(2),
        deliver(2),
        annotate.clone(),
        resolved.clone(),
    ] {
        sink.record(&r);
    }
    let allocs = allocs_during(|| {
        for _ in 0..1_000 {
            sink.record(&deliver(2));
            sink.record(&annotate);
            sink.record(&resolved);
            sink.record(&repeat);
        }
    });
    assert_eq!(
        allocs, 0,
        "1 000 delivers, annotates, resolves and repeated request names"
    );
    // The records are built before the count starts: only the fold counts.
    assert_eq!(allocs_during(|| sink.record(&fresh)), 1, "a new name");
    let ledger = sink.take_ledger();
    let cost = &ledger.queries[&7];
    assert_eq!(cost.requests, 1_002);
    assert_eq!(cost.retransmissions, 1_000);
    assert_eq!(cost.annotations, 1_001);
    assert_eq!(cost.outcome, Some("viable"));
}
