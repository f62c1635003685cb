//! `dde-trace` — inspect, diff, and account deterministic JSONL traces.
//!
//! ```text
//! dde-trace diff A.jsonl B.jsonl        # exit 0 if identical, 1 if divergent
//! dde-trace summary A.jsonl [--query N] # per-kind event counts + time span
//! dde-trace chrome A.jsonl              # Chrome trace-event JSON on stdout
//! dde-trace attribute A.jsonl [--json]  # per-decision cost ledger
//! dde-trace critical-path A.jsonl [--json]  # latency breakdown per query
//! dde-trace metrics SNAP.json [OTHER.json]  # pretty-print or diff snapshots
//! ```

// CLI entry point: argv/exit-code handling is inherently ambient; the
// determinism rules target simulation code, not operator tooling.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use dde_obs::json::parse;
use dde_obs::{
    chrome_trace_from_jsonl, diff_jsonl, parse_snapshot_document, CostLedger, MetricsSnapshot,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;

/// Writes `text` to stdout; a closed pipe (e.g. `| head`) is not an error.
fn write_stdout(text: &str) -> Result<(), String> {
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("dde-trace: cannot write to stdout: {e}")),
    }
}

const USAGE: &str = "usage:
  dde-trace diff <left.jsonl> <right.jsonl>   structural diff; exit 1 on divergence
  dde-trace summary <trace.jsonl> [--query <id>]
                                              per-kind counts and time span,
                                              optionally for one query only
  dde-trace chrome <trace.jsonl>              convert to Chrome trace-event JSON
  dde-trace attribute <trace.jsonl> [--json]  per-decision cost ledger with
                                              conservation check
  dde-trace critical-path <trace.jsonl> [--json]
                                              per-query latency breakdown
  dde-trace metrics <snapshot.json>           pretty-print a metrics snapshot
                                              (bare or per-node collection);
                                              exit 1 on malformed input
  dde-trace metrics <a.json> <b.json>         diff two snapshots; exit 1 on
                                              difference or malformed input
";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("dde-trace: cannot read {path}: {e}"))
}

fn cmd_diff(left: &str, right: &str) -> Result<ExitCode, String> {
    let l = read(left)?;
    let r = read(right)?;
    let diff = diff_jsonl(&l, &r);
    write_stdout(&diff.render())?;
    Ok(if diff.is_identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_summary(path: &str, query: Option<u64>) -> Result<ExitCode, String> {
    let text = read(path)?;
    let mut out = String::new();
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let mut events = 0u64;
    let mut first_t: Option<i64> = None;
    let mut last_t: Option<i64> = None;
    for line in text.lines() {
        let parsed = parse(line).ok();
        if let Some(want) = query {
            let q = parsed
                .as_ref()
                .and_then(|v| v.get("query"))
                .and_then(|q| q.as_int());
            if q != Some(want as i64) {
                continue;
            }
        }
        events += 1;
        let kind = parsed
            .and_then(|v| {
                if let Some(t) = v.get("t").and_then(|t| t.as_int()) {
                    first_t = Some(first_t.map_or(t, |f| f.min(t)));
                    last_t = Some(last_t.map_or(t, |l| l.max(t)));
                }
                v.get("kind").and_then(|k| k.as_str().map(String::from))
            })
            .unwrap_or_else(|| "?".to_string());
        *kinds.entry(kind).or_default() += 1;
    }
    if let Some(q) = query {
        out.push_str(&format!("query:  {q}\n"));
    }
    out.push_str(&format!("events: {events}\n"));
    if let (Some(f), Some(l)) = (first_t, last_t) {
        out.push_str(&format!(
            "span:   t={f}us .. t={l}us ({:.3}s)\n",
            (l - f) as f64 / 1e6
        ));
    }
    for (kind, count) in &kinds {
        out.push_str(&format!("  {kind:>14}: {count:>8}\n"));
    }
    write_stdout(&out)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_chrome(path: &str) -> Result<ExitCode, String> {
    let text = read(path)?;
    write_stdout(&chrome_trace_from_jsonl(&text))?;
    Ok(ExitCode::SUCCESS)
}

fn ledger_of(path: &str) -> Result<CostLedger, String> {
    let text = read(path)?;
    CostLedger::from_jsonl(&text).map_err(|e| format!("dde-trace: {path}: {e}"))
}

fn cmd_attribute(path: &str, json: bool) -> Result<ExitCode, String> {
    let ledger = ledger_of(path)?;
    if json {
        let mut doc = ledger.to_json_value().to_pretty_string();
        doc.push('\n');
        write_stdout(&doc)?;
    } else {
        write_stdout(&ledger.render_attribution())?;
    }
    Ok(if ledger.conserves() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_critical_path(path: &str, json: bool) -> Result<ExitCode, String> {
    let ledger = ledger_of(path)?;
    if json {
        let mut doc = ledger.critical_path_json().to_pretty_string();
        doc.push('\n');
        write_stdout(&doc)?;
    } else {
        write_stdout(&ledger.render_critical_path())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Loads a metrics document: either one bare snapshot or the cluster
/// demo's `{"nodes":[{"node":N,"metrics":{...}}]}` collection. Malformed
/// input is a *gate failure* (printed, exit 1), not a usage error.
fn load_snapshots(path: &str) -> Result<Vec<(Option<u64>, MetricsSnapshot)>, String> {
    let text = read(path)?;
    let doc = parse(&text).map_err(|e| format!("dde-trace: {path}: invalid JSON: {e:?}"))?;
    parse_snapshot_document(&doc).map_err(|e| format!("dde-trace: {path}: {e}"))
}

fn cmd_metrics(path: &str) -> Result<ExitCode, String> {
    let snaps = match load_snapshots(path) {
        Ok(snaps) => snaps,
        Err(msg) => {
            eprintln!("{msg}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut out = String::new();
    for (node, snap) in &snaps {
        if let Some(n) = node {
            out.push_str(&format!("node {n}\n"));
        }
        out.push_str(&snap.render_text());
    }
    write_stdout(&out)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_metrics_diff(left: &str, right: &str) -> Result<ExitCode, String> {
    let (l, r) = match (load_snapshots(left), load_snapshots(right)) {
        (Ok(l), Ok(r)) => (l, r),
        (l, r) => {
            for res in [l.err(), r.err()].into_iter().flatten() {
                eprintln!("{res}");
            }
            return Ok(ExitCode::FAILURE);
        }
    };
    // Per-node collections are folded into one aggregate per side, so a
    // 4-node run diffs cleanly against a 2-node one.
    let fold = |snaps: Vec<(Option<u64>, MetricsSnapshot)>| {
        let mut total = MetricsSnapshot::default();
        for (_, snap) in &snaps {
            total.merge(snap);
        }
        total
    };
    let delta = fold(l).diff(&fold(r));
    if delta.is_empty() {
        write_stdout(&format!("metrics: {left} and {right} are identical\n"))?;
        Ok(ExitCode::SUCCESS)
    } else {
        write_stdout(&delta)?;
        Ok(ExitCode::FAILURE)
    }
}

fn parse_query_flag(args: &[String]) -> Result<Option<u64>, String> {
    match args {
        [] => Ok(None),
        [flag, id] if flag == "--query" => id
            .parse()
            .map(Some)
            .map_err(|_| format!("dde-trace: bad query id `{id}`\n{USAGE}")),
        _ => Err(USAGE.to_string()),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [cmd, a, b] if cmd == "diff" => cmd_diff(a, b),
        [cmd, a, rest @ ..] if cmd == "summary" => cmd_summary(a, parse_query_flag(rest)?),
        [cmd, a] if cmd == "chrome" => cmd_chrome(a),
        [cmd, a] if cmd == "attribute" => cmd_attribute(a, false),
        [cmd, a, flag] if cmd == "attribute" && flag == "--json" => cmd_attribute(a, true),
        [cmd, a] if cmd == "critical-path" => cmd_critical_path(a, false),
        [cmd, a, flag] if cmd == "critical-path" && flag == "--json" => cmd_critical_path(a, true),
        [cmd, a] if cmd == "metrics" => cmd_metrics(a),
        [cmd, a, b] if cmd == "metrics" => cmd_metrics_diff(a, b),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    // lint: allow(nondeterminism) — CLI argv parsing, not simulation state.
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_command_prints_diffs_and_rejects_malformed_input() {
        let dir = std::env::temp_dir();
        let write = |name: &str, text: &str| {
            let path = dir.join(format!("dde_trace_test_{name}"));
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let reg_a = dde_obs::MetricsRegistry::new();
        reg_a.counter("tcp.frames_out").add(3);
        let a = write(
            "a.json",
            &reg_a.snapshot().to_json_value().to_compact_string(),
        );
        let reg_b = dde_obs::MetricsRegistry::new();
        reg_b.counter("tcp.frames_out").add(5);
        let b = write(
            "b.json",
            &reg_b.snapshot().to_json_value().to_compact_string(),
        );

        // ExitCode has no PartialEq; compare through Debug.
        let code = |r: Result<ExitCode, String>| format!("{:?}", r.unwrap());
        let ok = format!("{:?}", ExitCode::SUCCESS);
        let fail = format!("{:?}", ExitCode::FAILURE);

        assert_eq!(code(cmd_metrics(&a)), ok);
        assert_eq!(code(cmd_metrics_diff(&a, &a)), ok);
        assert_eq!(code(cmd_metrics_diff(&a, &b)), fail);

        // A per-node collection is accepted whole...
        let nodes = write(
            "nodes.json",
            &format!(
                r#"{{"nodes":[{{"node":0,"metrics":{}}}]}}"#,
                reg_a.snapshot().to_json_value().to_compact_string()
            ),
        );
        assert_eq!(code(cmd_metrics(&nodes)), ok);
        assert_eq!(code(cmd_metrics_diff(&nodes, &a)), ok);

        // ...and malformed input is a gate failure, not a crash.
        let bad = write("bad.json", r#"{"counters":"nope"}"#);
        assert_eq!(code(cmd_metrics(&bad)), fail);
        assert_eq!(code(cmd_metrics_diff(&bad, &a)), fail);
        let not_json = write("bad.txt", "not json at all");
        assert_eq!(code(cmd_metrics(&not_json)), fail);
    }

    #[test]
    fn query_flag_parses() {
        assert_eq!(parse_query_flag(&[]).unwrap(), None);
        let args = ["--query".to_string(), "7".to_string()];
        assert_eq!(parse_query_flag(&args).unwrap(), Some(7));
        assert!(parse_query_flag(&["--query".to_string()]).is_err());
    }
}
