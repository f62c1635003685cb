//! Determinism guarantees of the `dde-obs` trace subsystem.
//!
//! The observability layer is keyed entirely to the simulated clock, so it
//! inherits the simulator's replayability: two runs from the same seed must
//! produce **byte-identical** JSONL traces, `dde-obs`'s structural differ
//! must report zero divergence on them, and attaching a sink must not
//! perturb the simulation itself (the null-sink report equals the
//! observed-run report).

use dde_core::prelude::*;
use dde_core::Strategy;
use dde_obs::{diff_jsonl, EventKind, JsonlSink, MemorySink, SharedSink, Sink};
use dde_workload::scenario::{Scenario, ScenarioConfig};
use proptest::prelude::*;

fn small_scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.4))
}

fn options(seed: u64) -> RunOptions {
    let mut options = RunOptions::new(Strategy::LvfLabelShare);
    options.seed = seed ^ 0x5eed;
    options
}

/// Runs the scenario with a JSONL sink into memory and returns the bytes.
fn jsonl_trace(seed: u64) -> Vec<u8> {
    let scenario = small_scenario(seed);
    let sink = SharedSink::new(JsonlSink::new(Vec::new()));
    let handle = sink.clone();
    let _ = run_scenario_observed(&scenario, options(seed), Box::new(sink));
    handle.with(|j| j.get_ref().clone())
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = jsonl_trace(7);
    let b = jsonl_trace(7);
    assert!(!a.is_empty(), "trace should capture events");
    assert_eq!(a, b, "same-seed runs must serialize identical traces");
}

#[test]
fn self_diff_reports_zero_divergence() {
    let a = String::from_utf8(jsonl_trace(11)).expect("trace is UTF-8");
    let b = String::from_utf8(jsonl_trace(11)).expect("trace is UTF-8");
    let diff = diff_jsonl(&a, &b);
    assert!(diff.is_identical(), "diff found: {}", diff.render());
    assert!(diff.divergence.is_none());
}

#[test]
fn different_seeds_diverge() {
    let a = String::from_utf8(jsonl_trace(7)).expect("trace is UTF-8");
    let b = String::from_utf8(jsonl_trace(8)).expect("trace is UTF-8");
    let diff = diff_jsonl(&a, &b);
    assert!(
        !diff.is_identical(),
        "different seeds should produce different traces"
    );
}

#[test]
fn sink_does_not_perturb_the_simulation() {
    let seed = 5;
    let baseline = run_scenario(&small_scenario(seed), options(seed));
    let sink = SharedSink::new(MemorySink::new());
    let mut observed = run_scenario_observed(&small_scenario(seed), options(seed), Box::new(sink));
    // Observed runs additionally carry the cost ledger; everything the
    // simulation itself computed must be identical.
    let ledger = observed
        .ledger
        .take()
        .expect("observed runs carry a ledger");
    assert!(ledger.conserves(), "ledger must conserve byte/msg totals");
    assert_eq!(
        baseline, observed,
        "attaching a sink must not change the RunReport"
    );
}

#[test]
fn trace_covers_the_query_lifecycle() {
    let seed = 5;
    let sink = SharedSink::new(MemorySink::new());
    let handle = sink.clone();
    let report = run_scenario_observed(&small_scenario(seed), options(seed), Box::new(sink));
    let events = handle.with(|m| m.events().to_vec());
    let count = |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|r| pred(&r.kind)).count();
    let inits = count(&|k| matches!(k, EventKind::QueryInit { .. }));
    let plans = count(&|k| matches!(k, EventKind::Plan { .. }));
    let finals = count(&|k| {
        matches!(
            k,
            EventKind::QueryResolved { .. } | EventKind::QueryMissed { .. }
        )
    });
    assert_eq!(inits, report.total_queries, "one init per local query");
    assert_eq!(plans, report.total_queries, "one plan per local query");
    assert_eq!(
        finals, report.total_queries,
        "every query emits exactly one terminal event"
    );
    let transmits = count(&|k| matches!(k, EventKind::Transmit { .. }));
    assert!(transmits > 0, "link layer should be instrumented");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-node event timestamps never go backwards: the sink records
    /// events in simulator dispatch order, which is time-ordered.
    #[test]
    fn per_node_timestamps_are_monotone(seed in 1u64..500) {
        let scenario = small_scenario(seed);
        let sink = SharedSink::new(MemorySink::new());
        let handle = sink.clone();
        let _ = run_scenario_observed(&scenario, options(seed), Box::new(sink));
        let events = handle.with(|m| m.events().to_vec());
        prop_assert!(!events.is_empty());
        let mut last = std::collections::BTreeMap::new();
        for rec in &events {
            let prev = last.insert(rec.node, rec.at);
            if let Some(prev) = prev {
                prop_assert!(
                    rec.at >= prev,
                    "node {} went backwards: {:?} after {:?}",
                    rec.node, rec.at, prev
                );
            }
        }
    }
}

/// A writer whose `fail_at`-th write fails; it counts the writes it is
/// asked for after that.
#[derive(Debug, Default)]
struct FailingWriter {
    fail_at: usize,
    writes: usize,
    written: Vec<u8>,
    writes_after_failure: usize,
}

impl std::io::Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        if self.writes > self.fail_at {
            self.writes_after_failure += 1;
        }
        if self.writes >= self.fail_at {
            return Err(std::io::Error::other("disk full"));
        }
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_trace_write_error_sticks_until_the_owner_reads_it() {
    let seed = 5;
    let fail_at = 40;
    let sink = SharedSink::new(JsonlSink::new(FailingWriter {
        fail_at,
        ..FailingWriter::default()
    }));
    let handle = sink.clone();
    let mut observed = run_scenario_observed(&small_scenario(seed), options(seed), Box::new(sink));
    observed.ledger = None;
    assert_eq!(
        run_scenario(&small_scenario(seed), options(seed)),
        observed,
        "a failing trace writer must not change the run"
    );
    // The engine's flush saw the error; it is still there for the owner.
    for _ in 0..2 {
        let err = handle.with(|s| s.flush()).expect_err("the error sticks");
        assert_eq!(err.to_string(), "disk full");
    }
    let sink = handle.with(|s| std::mem::replace(s, JsonlSink::new(FailingWriter::default())));
    let (writer, err) = sink.into_inner();
    assert_eq!(err.expect("into_inner reports it").to_string(), "disk full");
    assert_eq!(
        writer.writes_after_failure, 0,
        "no record after the torn one"
    );
    let text = String::from_utf8(writer.written).expect("UTF-8");
    assert_eq!(text.lines().count(), fail_at - 1);
    assert!(text.ends_with('\n'), "every line written is whole");
}
