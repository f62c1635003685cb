//! # dde-bench — figure regeneration and ablation harnesses
//!
//! One binary per paper figure (`fig2`, `fig3`), an `ablations` binary for
//! the design-choice sweeps called out in DESIGN.md, and the `city` /
//! `adaptive` / `resilience` gates. Every `BENCH_*.json` written
//! here is a deterministic function of the seed: nothing in this crate
//! reads a wall clock (that is `benchmark/`'s job), and
//! `tests/baselines.rs` holds each document to `baselines/` byte for byte.
//!
//! The experiment runner lives here so binaries and integration tests share
//! one implementation.

#![warn(missing_docs)]
// The bench harness runs outside the replayed simulation: it reads env
// knobs and fans sweeps out over a Mutex-slotted worker pool (see
// clippy.toml).
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]
use dde_core::engine::{run_scenario_observed, RunOptions, RunReport};
use dde_core::strategy::Strategy;
use dde_obs::{Histogram, JsonValue, NullSink, PathBreakdown};
use dde_workload::scenario::{Scenario, ScenarioConfig};

/// Repetitions per data point in the paper's figures.
pub const PAPER_REPS: u64 = 10;

/// Shared command-line-ish knobs for the figure binaries, read from
/// environment variables so `cargo run --bin fig2` works with no plumbing:
///
/// - `DDE_REPS` — repetitions per data point (default per binary;
///   [`PAPER_REPS`] for the figures);
/// - `DDE_SCALE` — `paper` (default) or `small` (quick smoke run);
/// - `DDE_SEED` — base seed (default 1).
///
/// A variable that is set but malformed is an error, never a silent
/// fallback: `DDE_SCALE=smal` must not start the minutes-long paper sweep.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Repetitions per data point.
    pub reps: u64,
    /// Base scenario configuration.
    pub base: ScenarioConfig,
    /// Base seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Human-readable scale label (`"paper"` or `"small"`), recorded in the
    /// machine-readable `BENCH_*.json` companions.
    pub scale: &'static str,
}

/// Parses the unsigned-integer knob `name`: `None` (unset) is `default`,
/// anything else must parse or the error names the variable.
fn parse_count(name: &str, raw: Option<&str>, default: u64) -> Result<u64, String> {
    match raw {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?}: expected an unsigned integer")),
    }
}

/// Parses the `DDE_SCALE` knob into a base configuration and its label.
fn parse_scale(raw: Option<&str>) -> Result<(ScenarioConfig, &'static str), String> {
    match raw {
        None | Some("paper") => Ok((ScenarioConfig::default(), "paper")),
        Some("small") => Ok((ScenarioConfig::small(), "small")),
        Some(v) => Err(format!("DDE_SCALE={v:?}: expected `paper` or `small`")),
    }
}

/// Reads the environment variable `name` and parses it with `parse`
/// (`None` when unset); a malformed value is reported on stderr and ends
/// the process with exit code 2.
fn env_knob<T>(name: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    let raw = match std::env::var(name) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(format!("{name}={v:?}: not valid Unicode")),
    };
    raw.and_then(|v| parse(v.as_deref())).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// `DDE_REPS` from the environment, `default` when unset.
fn env_reps(default: u64) -> u64 {
    env_knob("DDE_REPS", |v| parse_count("DDE_REPS", v, default))
}

/// `DDE_SEED` from the environment, 1 when unset.
pub fn env_seed() -> u64 {
    env_knob("DDE_SEED", |v| parse_count("DDE_SEED", v, 1))
}

impl HarnessConfig {
    /// Reads the harness configuration from the environment, running
    /// `default_reps` repetitions when `DDE_REPS` is unset. Exits with
    /// code 2 on a malformed variable.
    pub fn from_env(default_reps: u64) -> HarnessConfig {
        let (base, scale) = env_knob("DDE_SCALE", parse_scale);
        HarnessConfig {
            reps: env_reps(default_reps),
            base,
            seed: env_seed(),
            scale,
        }
    }
}

/// Mean and standard deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n < 2).
    pub stddev: f64,
}

/// Computes mean and standard deviation.
pub fn stat(samples: &[f64]) -> Stat {
    if samples.is_empty() {
        return Stat {
            mean: 0.0,
            stddev: 0.0,
        };
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let stddev = if samples.len() < 2 {
        0.0
    } else {
        (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
    };
    Stat { mean, stddev }
}

/// Runs `strategy` on the scenario derived from `base` with `fast_ratio`
/// and `seed`, returning the report. Runs observed (with a null trace
/// sink) so the report carries the per-decision cost ledger; the trace
/// sink changes no simulation outcome, only the bookkeeping.
pub fn run_point(
    base: &ScenarioConfig,
    fast_ratio: f64,
    strategy: Strategy,
    seed: u64,
) -> RunReport {
    let cfg = base.clone().with_seed(seed).with_fast_ratio(fast_ratio);
    let scenario = Scenario::build(cfg);
    let mut options = RunOptions::new(strategy);
    options.seed = seed ^ 0x5eed;
    let report = run_scenario_observed(&scenario, options, Box::new(NullSink));
    debug_assert!(
        report.ledger.as_ref().is_none_or(|l| l.conserves()),
        "ledger conservation violated"
    );
    report
}

/// One figure row: per-strategy statistics at one x-value.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// The x-axis value (fast-changing-object ratio).
    pub fast_ratio: f64,
    /// Per strategy (paper order), the metric's mean and stddev.
    pub per_strategy: Vec<(Strategy, Stat)>,
}

/// Sweeps `xs` × strategies × reps, calling `run(x, strategy, seed)` with
/// `seed = cfg.seed + rep`, and keeps the full [`RunReport`] of every run,
/// indexed `[x][strategy][rep]` in the paper's strategy order. Runs are
/// independent and deterministic per seed, so they execute on a
/// `std::thread::scope` worker pool sized to the available parallelism;
/// the output is identical to the sequential order.
pub fn sweep_reports(
    cfg: &HarnessConfig,
    xs: &[f64],
    run: impl Fn(f64, Strategy, u64) -> RunReport + Sync,
) -> Vec<Vec<Vec<RunReport>>> {
    // Flatten the full (x, strategy, rep) grid into one work list.
    let grid: Vec<(usize, usize, u64)> = (0..xs.len())
        .flat_map(|xi| {
            (0..Strategy::ALL.len()).flat_map(move |si| (0..cfg.reps).map(move |r| (xi, si, r)))
        })
        .collect();
    let results: Vec<std::sync::Mutex<Option<RunReport>>> =
        grid.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(grid.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if k >= grid.len() {
                    break;
                }
                let (xi, si, r) = grid[k];
                let report = run(xs[xi], Strategy::ALL[si], cfg.seed + r);
                *results[k].lock().expect("sweep cell poisoned") = Some(report);
            });
        }
    });

    // Reassemble in the sequential order: slot `k` holds grid cell `k`,
    // whichever worker finished it.
    let mut it = results.into_iter();
    xs.iter()
        .map(|_| {
            Strategy::ALL
                .iter()
                .map(|_| {
                    (0..cfg.reps)
                        .map(|_| {
                            it.next()
                                .expect("grid-sized")
                                .into_inner()
                                .expect("sweep cell poisoned")
                                .expect("worker filled cell")
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Distills `[ratio][strategy][rep]` reports into figure rows under `metric`.
pub fn rows_from_reports(
    fast_ratios: &[f64],
    all: &[Vec<Vec<RunReport>>],
    metric: impl Fn(&RunReport) -> f64,
) -> Vec<FigureRow> {
    fast_ratios
        .iter()
        .zip(all)
        .map(|(&fr, row)| {
            let per_strategy = Strategy::ALL
                .iter()
                .zip(row)
                .map(|(&s, reports)| {
                    let samples: Vec<f64> = reports.iter().map(&metric).collect();
                    (s, stat(&samples))
                })
                .collect();
            FigureRow {
                fast_ratio: fr,
                per_strategy,
            }
        })
        .collect()
}

/// Prints rows as an aligned table with `header` naming the metric.
pub fn print_table(rows: &[FigureRow], header: &str) {
    print!("{:>10}", "fast_ratio");
    for s in Strategy::ALL {
        print!("  {:>16}", s.code());
    }
    println!("    ({header}, mean ± stddev)");
    for row in rows {
        print!("{:>10.2}", row.fast_ratio);
        for (_, st) in &row.per_strategy {
            print!("  {:>9.3} ±{:>5.3}", st.mean, st.stddev);
        }
        println!();
    }
}

/// Mean/stddev pair as a JSON object.
pub fn stat_json(st: Stat) -> JsonValue {
    JsonValue::Object(vec![
        ("mean".into(), JsonValue::Float(st.mean)),
        ("stddev".into(), JsonValue::Float(st.stddev)),
    ])
}

/// One scheme's summary at one x-value: headline metrics plus latency
/// percentiles from the reps' merged fixed-bucket histograms, plus the
/// cost-ledger attribution (mean bytes per decision, predicted expected
/// bytes, and the critical-path segment split over resolved queries).
fn scheme_json(reports: &[RunReport]) -> JsonValue {
    let metric = |f: fn(&RunReport) -> f64| {
        let samples: Vec<f64> = reports.iter().map(f).collect();
        stat_json(stat(&samples))
    };
    // Ledger-derived samples: one value per rep that produced one.
    let ledger_stat = |f: &dyn Fn(&RunReport) -> Option<f64>| {
        let samples: Vec<f64> = reports.iter().filter_map(f).collect();
        stat_json(stat(&samples))
    };
    let mut hist = Histogram::new();
    for r in reports {
        hist.merge(&r.latency_hist);
    }
    let pct = |p: f64| match hist.percentile(p) {
        Some(d) => JsonValue::Int(d.as_micros() as i64),
        None => JsonValue::Null,
    };
    // Critical-path fractions, averaged over reps whose ledgers saw at
    // least one resolved query.
    let fractions: Vec<[f64; 4]> = reports
        .iter()
        .filter_map(|r| r.ledger.as_ref())
        .filter_map(|l| l.path_total().fractions())
        .collect();
    let path_stat = |i: usize| {
        let samples: Vec<f64> = fractions.iter().map(|f| f[i]).collect();
        stat_json(stat(&samples))
    };
    JsonValue::Object(vec![
        (
            "resolution_ratio".into(),
            metric(RunReport::resolution_ratio),
        ),
        ("accuracy".into(), metric(RunReport::accuracy)),
        ("megabytes".into(), metric(RunReport::total_megabytes)),
        (
            "cost_per_decision".into(),
            ledger_stat(&|r: &RunReport| r.cost_per_decision()),
        ),
        (
            "predicted_bytes_per_decision".into(),
            ledger_stat(&|r: &RunReport| {
                r.ledger
                    .as_ref()
                    .and_then(|l| l.predicted_vs_actual())
                    .map(|(predicted, _)| predicted)
            }),
        ),
        (
            "critical_path_breakdown".into(),
            JsonValue::Object(
                PathBreakdown::SEGMENT_NAMES
                    .iter()
                    .enumerate()
                    .map(|(i, name)| ((*name).to_string(), path_stat(i)))
                    .collect(),
            ),
        ),
        (
            "latency_us".into(),
            JsonValue::Object(vec![
                ("p50".into(), pct(50.0)),
                ("p95".into(), pct(95.0)),
                ("p99".into(), pct(99.0)),
            ]),
        ),
        ("latency_count".into(), JsonValue::Int(hist.count() as i64)),
    ])
}

/// Builds the machine-readable companion of a figure table: scheme →
/// resolution ratio / accuracy / bandwidth / latency percentiles at each
/// x-value. `x_name` names the swept axis (`"fast_ratio"`, `"churn"`).
pub fn bench_json(
    figure: &str,
    cfg: &HarnessConfig,
    x_name: &str,
    xs: &[f64],
    all: &[Vec<Vec<RunReport>>],
) -> JsonValue {
    let points = xs
        .iter()
        .zip(all)
        .map(|(&x, row)| {
            let schemes = Strategy::ALL
                .iter()
                .zip(row)
                .map(|(&s, reports)| (s.code().to_string(), scheme_json(reports)))
                .collect();
            JsonValue::Object(vec![
                ("x".into(), JsonValue::Float(x)),
                ("schemes".into(), JsonValue::Object(schemes)),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("figure".into(), JsonValue::Str(figure.into())),
        ("scale".into(), JsonValue::Str(cfg.scale.into())),
        ("reps".into(), JsonValue::Int(cfg.reps as i64)),
        ("seed".into(), JsonValue::Int(cfg.seed as i64)),
        ("x".into(), JsonValue::Str(x_name.into())),
        ("points".into(), JsonValue::Array(points)),
    ])
}

/// Writes `value` pretty-printed to `path`; the error names the path.
pub fn write_bench_json(path: &str, value: &JsonValue) -> std::io::Result<()> {
    std::fs::write(path, value.to_pretty_string())
        .map_err(|e| std::io::Error::new(e.kind(), format!("failed to write {path}: {e}")))?;
    eprintln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_basics() {
        let s = stat(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert_eq!(stat(&[]).mean, 0.0);
        assert_eq!(stat(&[5.0]).stddev, 0.0);
    }

    #[test]
    fn reps_knob_rejects_malformed_input() {
        assert_eq!(parse_count("DDE_REPS", None, 10), Ok(10));
        assert_eq!(parse_count("DDE_REPS", Some("2"), 10), Ok(2));
        let err = parse_count("DDE_REPS", Some("2x"), 10).unwrap_err();
        assert!(err.contains("DDE_REPS") && err.contains("unsigned integer"));
    }

    #[test]
    fn seed_knob_rejects_malformed_input() {
        assert_eq!(parse_count("DDE_SEED", None, 1), Ok(1));
        assert_eq!(parse_count("DDE_SEED", Some("7"), 1), Ok(7));
        let err = parse_count("DDE_SEED", Some("abc"), 1).unwrap_err();
        assert!(err.contains("DDE_SEED") && err.contains("unsigned integer"));
        assert!(parse_count("DDE_SEED", Some("-1"), 1).is_err());
    }

    #[test]
    fn scale_knob_rejects_unknown_scales() {
        assert_eq!(parse_scale(None).unwrap().1, "paper");
        assert_eq!(parse_scale(Some("paper")).unwrap().1, "paper");
        assert_eq!(parse_scale(Some("small")).unwrap().1, "small");
        let err = parse_scale(Some("smal")).unwrap_err();
        assert!(err.contains("DDE_SCALE") && err.contains("`paper` or `small`"));
    }

    #[test]
    fn run_point_small_scale() {
        let base = ScenarioConfig::small();
        let r = run_point(&base, 0.2, Strategy::Lvf, 3);
        assert!(r.total_queries > 0);
    }
}
