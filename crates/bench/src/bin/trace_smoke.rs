//! Observability smoke check: runs the same small scenario twice with a
//! JSONL trace sink and asserts the two traces are **byte-identical** —
//! the executable form of the determinism guarantee `dde-trace diff`
//! relies on. Leaves `trace_a.jsonl` / `trace_b.jsonl` in the working
//! directory for `dde-trace` to diff/summarize (CI uploads them).
//!
//! Usage: `cargo run -p dde-bench --bin trace_smoke --release`
//! Knobs: `DDE_SEED` (default 1).

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use dde_core::engine::{run_scenario_observed, RunOptions};
use dde_core::strategy::Strategy;
use dde_obs::JsonlSink;
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
    if a == b {
        println!(
            "trace_smoke OK: two seed-{seed} runs produced byte-identical traces ({} bytes, {} events)",
            a.len(),
            a.iter().filter(|&&c| c == b'\n').count()
        );
        ExitCode::SUCCESS
    } else {
        println!("trace_smoke FAIL: same-seed traces differ (run `dde-trace diff trace_a.jsonl trace_b.jsonl`)");
        ExitCode::FAILURE
    }
}
