//! The repository's benchmark: five workloads, seven end-to-end metrics and
//! seventy-six per-layer metrics, timed from outside the program under test.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--out DIR] [--selfcheck]
//! ```
//!
//! One workload runs in this process; `all` and `--selfcheck` start one child
//! process per workload. Every metric is printed as
//! `<workload> <metric> <value> <unit>`, and the last line of standard output
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. README.md in this directory is the manual.

// The repository's clippy.toml bans wall-clock reads, argv and interior
// mutability for simulation code; a benchmark is made of them.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod alloc;
mod calib;
mod des;
mod layers;
mod live;
mod span;
mod spec;
mod stats;

use layers::JsonValue;
use spec::{Better, Measured, Metric, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where span files go unless `--out` says otherwise: inside the build
/// directory the driver sets (`CARGO_TARGET_DIR=.bench_build`), which the
/// repository ignores.
const DEFAULT_OUT: &str = ".bench_build/trace";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// `None` is `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    selfcheck: bool,
}

const USAGE: &str = "usage: benchmark --workload <paper_lvfl|paper_cmp|paper_lvfl_observed|city_sharded|live_chain|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--selfcheck]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
        selfcheck: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            parsed.selfcheck = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value for {flag}: {value}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                named = true;
                parsed.workload = match value.as_str() {
                    "all" => None,
                    name => Some(Workload::from_name(name).ok_or_else(bad)?),
                };
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if !named {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(parsed)
}

/// Runs one workload in this process.
fn measure(workload: Workload, args: &Args) -> Measured {
    match (workload, args.trace) {
        (Workload::LiveChain, false) => live::end_to_end(args.seed, args.seconds),
        (Workload::LiveChain, true) => live::per_layer(args.seed, args.seconds, &args.out),
        (w, false) => des::end_to_end(w, args.seed, args.seconds),
        (w, true) => des::per_layer(w, args.seed, args.seconds, &args.out),
    }
}

fn table(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(measured: &Measured, table: &[Metric]) -> JsonValue {
    let metrics = measured
        .values
        .in_table_order(table)
        .into_iter()
        .map(|(m, value)| {
            (
                m.name.to_string(),
                JsonValue::Object(vec![
                    ("value".into(), JsonValue::Float(value)),
                    ("unit".into(), JsonValue::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    JsonValue::Object(vec![
        (
            "correct".into(),
            JsonValue::Bool(measured.problems.is_empty()),
        ),
        (
            "attempted".into(),
            JsonValue::Int(measured.attempted.max(1) as i64),
        ),
        ("failed".into(), JsonValue::Int(measured.failed as i64)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ])
}

/// Prints one workload's metrics, notes and problems, then the result line.
fn print_workload(workload: Workload, mut measured: Measured, trace: bool) {
    let table = table(trace);
    println!("# {} {}", workload.name(), workload.why());
    for name in measured.values.unknown_to(table) {
        measured
            .problems
            .push(format!("{name} is not in the metric table"));
    }
    for (m, value) in measured.values.in_table_order(table) {
        println!("{} {} {value} {}", workload.name(), m.name, m.unit);
        let usable = value.is_finite() && value > 0.0;
        if !trace && !usable {
            measured.problems.push(format!(
                "{} is {value}: end-to-end metrics are never 0",
                m.name
            ));
        }
    }
    for note in &measured.notes {
        println!("# {} {note}", workload.name());
    }
    for problem in &measured.problems {
        println!("! {} {problem}", workload.name());
    }
    println!("{}", result_json(&measured, table).to_compact_string());
}

/// What a child process reported on its last line.
struct ChildResult {
    correct: bool,
    attempted: i64,
    failed: i64,
    values: Vec<(String, f64)>,
}

fn parse_result(line: &str) -> Result<ChildResult, String> {
    let doc = layers::parse_json(line).map_err(|e| format!("result line: {e:?}"))?;
    let int = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_int)
            .ok_or_else(|| format!("result line lacks {key}"))
    };
    let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
        return Err("result line lacks metrics".into());
    };
    let values = metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(JsonValue::as_float)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} lacks a value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: matches!(doc.get("correct"), Some(JsonValue::Bool(true))),
        attempted: int("attempted")?,
        failed: int("failed")?,
        values,
    })
}

/// Runs `workload` in a child process, echoes what it prints, and returns
/// what its result line says.
fn run_child(workload: Workload, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    parse_result(last)
}

/// One child per workload; `None` for a workload whose child failed.
fn run_all(args: &Args, problems: &mut Vec<String>) -> Vec<(Workload, Option<ChildResult>)> {
    Workload::ALL
        .into_iter()
        .map(|w| match run_child(w, args) {
            Ok(result) => {
                if !result.correct {
                    problems.push(format!("{}: a correctness check failed", w.name()));
                }
                (w, Some(result))
            }
            Err(e) => {
                problems.push(e);
                (w, None)
            }
        })
        .collect()
}

fn value_of(set: &[(Workload, Option<ChildResult>)], w: Workload, name: &str) -> Option<f64> {
    set.iter()
        .find(|(sw, _)| *sw == w)
        .and_then(|(_, r)| r.as_ref())
        .and_then(|r| r.values.iter().find(|(n, _)| n == name))
        .map(|(_, v)| *v)
}

/// The paper's shape (Figs. 2 and 3): the headline scheme decides more
/// queries in time, and moves fewer bytes per decision, than the baseline.
fn check_paper_shape(set: &[(Workload, Option<ChildResult>)], problems: &mut Vec<String>) {
    let get = |w, name| value_of(set, w, name).unwrap_or(f64::NAN);
    let (lvfl, cmp) = (Workload::PaperLvfl, Workload::PaperCmp);
    // Written so that a missing value (NaN) fails the check.
    let resolves_more = get(lvfl, "resolution_ratio") > get(cmp, "resolution_ratio");
    let moves_less = get(lvfl, "mb_per_decision") < get(cmp, "mb_per_decision");
    if !(resolves_more && moves_less) {
        problems.push(
            "paper shape: paper_lvfl must beat paper_cmp on resolution_ratio and mb_per_decision"
                .into(),
        );
    }
}

/// By how much `second` is worse than `first`, as a share of `first`;
/// negative when it is better.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Two sets of runs of the same code must agree: every end-to-end metric
/// within its bound, every exact metric bit for bit. An end-to-end time (other
/// than `setup_s`) that moves by more than this between the sets is named as
/// a candidate for demotion to a per-layer metric.
const REPEATABILITY: f64 = 0.10;

fn selfcheck(args: &Args, problems: &mut Vec<String>) -> Vec<(Workload, Option<ChildResult>)> {
    let first = run_all(args, problems);
    let second = run_all(args, problems);
    for w in Workload::ALL {
        for m in table(args.trace) {
            let (Some(a), Some(b)) = (value_of(&first, w, m.name), value_of(&second, w, m.name))
            else {
                continue;
            };
            let moved = worsening(m.better, a, b);
            println!(
                "= {} {} {a} -> {b} {} ({:+.2} % worse, {} is better)",
                w.name(),
                m.name,
                m.unit,
                moved * 100.0,
                m.better.as_str()
            );
            if spec::repeats_exactly(m.name) {
                if a.to_bits() != b.to_bits() {
                    problems.push(format!("{} {}: exact metric differs", w.name(), m.name));
                }
            } else if !args.trace {
                if moved.abs() > m.bound {
                    problems.push(format!(
                        "{} {}: the sets differ by more than the bound {}",
                        w.name(),
                        m.name,
                        m.bound
                    ));
                } else if m.name != "setup_s" && moved.abs() > REPEATABILITY {
                    println!(
                        "# {} {}: differs by more than {REPEATABILITY}; demote it to its layer",
                        w.name(),
                        m.name
                    );
                }
            }
        }
    }
    second
}

/// `--workload all`, with or without `--selfcheck`: the result line sums the
/// children and nests their metrics by workload.
fn run_many(args: &Args) -> bool {
    let mut problems = Vec::new();
    let set = if args.selfcheck {
        selfcheck(args, &mut problems)
    } else {
        run_all(args, &mut problems)
    };
    if !args.trace {
        check_paper_shape(&set, &mut problems);
    }
    for problem in &problems {
        println!("! all {problem}");
    }
    let (mut attempted, mut failed) = (0, 0);
    let mut by_workload = Vec::new();
    for (w, result) in &set {
        let Some(result) = result else { continue };
        attempted += result.attempted;
        failed += result.failed;
        let metrics = result
            .values
            .iter()
            .map(|(n, v)| (n.clone(), JsonValue::Float(*v)))
            .collect();
        by_workload.push((w.name().to_string(), JsonValue::Object(metrics)));
    }
    let line = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(problems.is_empty())),
        ("attempted".into(), JsonValue::Int(attempted.max(1))),
        ("failed".into(), JsonValue::Int(failed)),
        ("metrics".into(), JsonValue::Object(by_workload)),
    ]);
    println!("{}", line.to_compact_string());
    problems.is_empty()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect(); // lint: allow(nondeterminism) — the command line is the benchmark's only input; the program under test sees the generated scenarios
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        // A single workload reports a failed check in its result line and
        // exits 0, as the driver's contract asks.
        Some(workload) if !args.selfcheck => {
            print_workload(workload, measure(workload, &args), args.trace);
            ExitCode::SUCCESS
        }
        _ => {
            if run_many(&args) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args(&[
            "--workload",
            "paper_cmp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::PaperCmp));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.out, PathBuf::from(DEFAULT_OUT));
        assert_eq!(args(&["--workload", "all"]).expect("valid").workload, None);
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(args(&[]).is_err(), "--workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "all", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "all", "--seed"]).is_err());
        assert!(args(&["--workload", "all", "--frobnicate", "1"]).is_err());
    }

    #[test]
    fn result_line_round_trips_through_the_repositorys_parser() {
        let mut measured = Measured::default();
        measured.values.set("setup_s", 0.8127);
        measured.values.set("host_us_per_query", 1203.4);
        measured.attempted = 1440;
        measured.failed = 90;
        measured.problems.push("a check failed".into());
        let line = result_json(&measured, &END_TO_END).to_compact_string();
        assert!(!line.contains('\n'));

        let doc = layers::parse_json(&line).expect("the result line is JSON");
        let JsonValue::Object(top) = &doc else {
            panic!("an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        let back = parse_result(&line).expect("parses back");
        assert!(!back.correct);
        assert_eq!((back.attempted, back.failed), (1440, 90));
        assert_eq!(
            back.values.len(),
            END_TO_END.len(),
            "every metric, set or not"
        );
        assert_eq!(back.values[0], ("setup_s".to_string(), 0.8127));
        assert_eq!(
            back.values[1].1.to_bits(),
            1203.4f64.to_bits(),
            "all digits survive"
        );
        let unit = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("unit"))
            .and_then(JsonValue::as_str);
        assert_eq!(unit, Some("s"));
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 0.5, 0.45) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Lower, 100.0, 90.0) < 0.0);
    }

    #[test]
    fn paper_shape_needs_both_orderings_and_both_values() {
        let result = |res: f64, mb: f64| ChildResult {
            correct: true,
            attempted: 1,
            failed: 0,
            values: vec![
                ("resolution_ratio".to_string(), res),
                ("mb_per_decision".to_string(), mb),
            ],
        };
        let shape = |lvfl, cmp| {
            let set = vec![(Workload::PaperLvfl, lvfl), (Workload::PaperCmp, cmp)];
            let mut problems = Vec::new();
            check_paper_shape(&set, &mut problems);
            problems.is_empty()
        };
        assert!(shape(Some(result(0.99, 1.8)), Some(result(0.6, 17.0))));
        assert!(!shape(Some(result(0.5, 1.8)), Some(result(0.6, 17.0))));
        assert!(!shape(Some(result(0.99, 20.0)), Some(result(0.6, 17.0))));
        assert!(!shape(Some(result(0.99, 1.8)), None));
    }
}
