//! A one-region run streams its trace: records reach the caller's sink
//! while the run is still going, not in one flush when its single barrier
//! window ends — and the stream is the same bytes a four-region run merges.

use dde_netsim::prelude::*;
use dde_obs::{MemorySink, SharedSink};

#[derive(Debug, Clone)]
struct Ball {
    hops: u32,
}

impl WireMessage for Ball {
    fn wire_size(&self) -> u64 {
        100
    }
    fn kind(&self) -> &'static str {
        "ball"
    }
}

const BUDGET: u32 = 400;
const LATE: SimDuration = SimDuration::from_secs(1);

/// Every node serves to its neighbors and echoes until the hop budget is
/// spent; a late timer looks into the sink the engine is writing to.
struct Echo {
    sink: SharedSink<MemorySink>,
}

impl Protocol for Echo {
    type Msg = Ball;
    type Ext = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        for peer in ctx.topology().neighbors(ctx.node()) {
            ctx.send(peer, Ball { hops: 0 });
        }
        ctx.set_timer(LATE, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeId, msg: Ball) {
        if msg.hops < BUDGET {
            ctx.send(from, Ball { hops: msg.hops + 1 });
        }
    }

    fn on_timer(&mut self, _: &mut Context<'_, Ball>, _: u64) {
        let streamed = self.sink.with(|m| m.events().len());
        assert!(streamed > 0, "no record reached the sink before t = 1 s");
    }
}

fn jsonl(threads: usize) -> (usize, String) {
    let sink = SharedSink::new(MemorySink::new());
    let nodes = (0..8).map(|_| Echo { sink: sink.clone() }).collect();
    let topology = Topology::ring(8, LinkSpec::mbps1());
    let mut sim = ShardedSimulator::new(topology, nodes, 5, threads);
    sim.set_sink(Box::new(sink.clone()));
    sim.run_until(SimTime::from_secs(5));
    let records = sink.with(|m| m.take());
    let lines: Vec<String> = records.iter().map(|r| r.to_jsonl_line()).collect();
    (records.len(), lines.join("\n"))
}

#[test]
fn one_region_streams_the_trace_four_regions_merge() {
    let (records, one) = jsonl(1);
    assert!(records >= 10_000, "only {records} records");
    let (_, four) = jsonl(4);
    assert_eq!(one, four, "trace bytes differ between 1 and 4 threads");
}
