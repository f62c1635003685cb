//! Observability smoke check: runs the same small scenario twice with a
//! JSONL trace sink and asserts the two traces are **byte-identical** —
//! the executable form of the determinism guarantee `dde-trace diff`
//! relies on — then that every line of `trace_a.jsonl` decodes with
//! `TraceRecord::decode_jsonl` and re-encodes to the same bytes. Leaves
//! `trace_a.jsonl` / `trace_b.jsonl` in the working directory for
//! `dde-trace` to diff/summarize (CI uploads them).
//!
//! Usage: `cargo run -p dde-bench --bin trace_smoke --release`
//! Knobs: `DDE_SEED` (default 1).

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use dde_core::engine::{run_scenario_observed, RunOptions};
use dde_core::strategy::Strategy;
use dde_logic::symbol::Interner;
use dde_obs::{JsonlSink, TraceRecord};
use dde_workload::scenario::{Scenario, ScenarioConfig};

fn run_once(path: &str, seed: u64) -> std::io::Result<()> {
    let cfg = ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.4);
    let scenario = Scenario::build(cfg);
    let mut options = RunOptions::new(Strategy::LvfLabelShare);
    options.seed = seed ^ 0x5eed;
    let sink = JsonlSink::new(BufWriter::new(File::create(path)?));
    let report = run_scenario_observed(&scenario, options, Box::new(sink));
    eprintln!(
        "{path}: {} queries, {} resolved, {} events",
        report.total_queries, report.resolved, report.events
    );
    Ok(())
}

/// Decodes each line of `trace` and encodes it again: the number of
/// lines, all of which came back byte for byte, or the first that did not.
fn round_trip(trace: &[u8]) -> Result<usize, String> {
    let text = std::str::from_utf8(trace).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut tags = Interner::new();
    let mut lines = 0;
    for (i, line) in text.lines().enumerate() {
        let rec = TraceRecord::decode_jsonl(line, &mut tags)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.to_jsonl_line() != line {
            return Err(format!("line {} re-encodes differently: {line}", i + 1));
        }
        lines += 1;
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let seed = dde_bench::env_seed();
    for path in ["trace_a.jsonl", "trace_b.jsonl"] {
        if let Err(e) = run_once(path, seed) {
            eprintln!("trace_smoke: failed to write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let (a, b) = match (
        std::fs::read("trace_a.jsonl"),
        std::fs::read("trace_b.jsonl"),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (ra, rb) => {
            eprintln!("trace_smoke: failed to read traces back: {ra:?} {rb:?}");
            return ExitCode::from(2);
        }
    };
    if a != b {
        println!("trace_smoke FAIL: same-seed traces differ (run `dde-trace diff trace_a.jsonl trace_b.jsonl`)");
        return ExitCode::FAILURE;
    }
    println!(
        "trace_smoke OK: two seed-{seed} runs produced byte-identical traces ({} bytes, {} events)",
        a.len(),
        a.iter().filter(|&&c| c == b'\n').count()
    );
    match round_trip(&a) {
        Ok(lines) => {
            println!("trace_smoke OK: {lines} lines of trace_a.jsonl decode and re-encode to the same bytes");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("trace_smoke FAIL: trace_a.jsonl {e}");
            ExitCode::FAILURE
        }
    }
}
