//! A handler context reads its sink's `enabled()` once, when it is
//! assembled: a handler that checks and emits N times asks no more. The
//! `Sink` contract fixes the answer for the sink's life, so the one read
//! per dispatch is all a run needs; for a shared sink each read is a lock.
//! Counted, not clocked.

use dde_netsim::prelude::*;
use dde_netsim::Command;
use dde_obs::{EventKind, Sink, TraceRecord};
use std::cell::Cell;
use std::rc::Rc;

/// Counts the `enabled()` questions and the records it is handed.
#[derive(Clone, Default)]
struct Counting {
    asked: Rc<Cell<u64>>,
    records: Rc<Cell<u64>>,
}

impl Sink for Counting {
    fn enabled(&self) -> bool {
        self.asked.set(self.asked.get() + 1);
        true
    }

    fn record(&mut self, _rec: &TraceRecord) {
        self.records.set(self.records.get() + 1);
    }
}

const N: u64 = 100;

/// Checks and emits `N` records per handler, and counts its dispatches.
struct Chatty {
    dispatches: Rc<Cell<u64>>,
}

impl Chatty {
    fn chatter(&self, ctx: &mut Context<'_, Ping>) {
        self.dispatches.set(self.dispatches.get() + 1);
        for query in 0..N {
            if ctx.obs_enabled() {
                ctx.emit(EventKind::QueryMissed { query });
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Ping;

impl WireMessage for Ping {
    fn wire_size(&self) -> u64 {
        64
    }
    fn kind(&self) -> &'static str {
        "ping"
    }
}

impl Protocol for Chatty {
    type Msg = Ping;
    type Ext = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        self.chatter(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {
        self.chatter(ctx);
    }

    fn on_external(&mut self, ctx: &mut Context<'_, Ping>, _ext: ()) {
        self.chatter(ctx);
        let peer = NodeId(1 - ctx.node().0);
        ctx.send(peer, Ping);
    }
}

#[test]
fn a_context_asks_once_however_much_its_handler_emits() {
    let topology = Topology::line(2, LinkSpec::mbps1());
    let mut commands: Vec<Command<Ping>> = Vec::new();
    let mut sink = Counting::default();
    let (asked, records) = (Rc::clone(&sink.asked), Rc::clone(&sink.records));
    let mut ctx = Context::new(
        SimTime::ZERO,
        NodeId(0),
        &topology,
        &mut commands,
        &mut sink,
    );
    assert_eq!(asked.get(), 1, "read when the context is assembled");
    for query in 0..N {
        assert!(ctx.obs_enabled());
        ctx.emit(EventKind::QueryMissed { query });
    }
    assert_eq!(asked.get(), 1, "{N} checks and emits ask no more");
    assert_eq!(records.get(), N);
}

#[test]
fn a_run_asks_at_most_once_per_dispatch() {
    let dispatches = Rc::new(Cell::new(0));
    let nodes = (0..2)
        .map(|_| Chatty {
            dispatches: Rc::clone(&dispatches),
        })
        .collect();
    let mut sim = ShardedSimulator::new(Topology::line(2, LinkSpec::mbps1()), nodes, 1, 1);
    let sink = Counting::default();
    let (asked, records) = (Rc::clone(&sink.asked), Rc::clone(&sink.records));
    sim.set_sink(Box::new(sink));
    sim.schedule_external(SimTime::from_secs(1), NodeId(0), ());
    sim.schedule_external(SimTime::from_secs(2), NodeId(1), ());
    sim.run();
    // Two starts, two stimuli, two pings delivered.
    assert_eq!(dispatches.get(), 6);
    assert!(records.get() >= 6 * N, "{} records", records.get());
    // One read per dispatch, plus the engine's own once per run.
    assert!(
        asked.get() <= dispatches.get() + 1,
        "{} reads for {} dispatches",
        asked.get(),
        dispatches.get()
    );
}
