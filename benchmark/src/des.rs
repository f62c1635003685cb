//! The four simulated workloads: scenarios built from the seed, run on one of
//! the repository's event loops, timed from outside.
//!
//! A *pass* runs every scenario of the workload once; each run is bracketed by
//! the calibration kernel. A scenario's time is the median of its calibrated
//! times over the passes, and the workload's time is the sum over scenarios,
//! so one disturbed run moves nothing. Simulated outcomes come from the first
//! pass, and every later run of a scenario must reproduce its first.

use crate::alloc;
use crate::calib::{self, Calibrator, Timed};
use crate::layers::{self, Corpus, Engine, Outcome, RunReport, Scenario, Scheme, TraceDigest};
use crate::span::{self, NameStat, Span};
use crate::spec::{Measured, Workload};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// How a simulated workload is assembled.
struct Plan {
    engine: Engine,
    scheme: Scheme,
    build: fn(u64) -> Scenario,
    /// Scenarios per pass: as many as leave room for three passes in fifteen
    /// seconds. The simulated metrics' spread across seeds falls with the
    /// square root of this number and with nothing else.
    scenarios: u64,
    /// Scenarios of the per-layer run, which has no spread across seeds to
    /// hold down and spends its time on passes instead.
    traced_scenarios: u64,
}

fn plan(workload: Workload) -> Plan {
    let paper = |engine, scheme| Plan {
        engine,
        scheme,
        build: layers::paper_scenario,
        scenarios: 32,
        traced_scenarios: 4,
    };
    match workload {
        Workload::PaperLvfl => paper(Engine::Classic, Scheme::Lvfl),
        Workload::PaperCmp => paper(Engine::Classic, Scheme::Cmp),
        Workload::PaperLvflObserved => paper(Engine::ClassicObserved, Scheme::Lvfl),
        Workload::CitySharded => Plan {
            engine: Engine::Sharded,
            scheme: Scheme::Lvfl,
            build: layers::city_scenario,
            scenarios: 12,
            traced_scenarios: 2,
        },
        Workload::LiveChain => unreachable!("live_chain is not a simulated workload"),
    }
}

/// Scenario seeds of a run: disjoint between any two `--seed` values below
/// 2^54, so ten runs of the driver see 320 different scenarios, not 32
/// sliding by one.
fn scenario_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index)
}

/// Set-up repetitions per invocation; `setup_s` is their median.
pub const SETUP_RUNS: usize = 3;
/// Complete timed passes an end-to-end run makes however short `--seconds`.
const MIN_PASSES: usize = 2;

/// A run's report and, if it was observed, its trace digest.
type RunResult = (RunReport, Option<TraceDigest>);

/// What has to exist before the first timed pass.
struct Prepared {
    scenarios: Vec<Scenario>,
    /// The result of the warm-up run of the first scenario.
    warm: RunResult,
    build_s: f64,
}

/// Builds the scenarios and runs the first one once, which fills the name
/// interner and the allocator's pools.
fn prepare(plan: &Plan, seed: u64, scenarios: u64) -> Prepared {
    let start = calib::now();
    let scenarios: Vec<Scenario> = (0..scenarios)
        .map(|i| (plan.build)(scenario_seed(seed, i)))
        .collect();
    let build_s = calib::secs_since(start);
    let warm = layers::run(plan.engine, plan.scheme, &scenarios[0]).finish();
    Prepared {
        scenarios,
        warm,
        build_s,
    }
}

/// Calibrated and raw seconds of every timed run, by scenario.
struct Samples {
    calibrated: Vec<Vec<f64>>,
    raw: Vec<Vec<f64>>,
}

impl Samples {
    fn new(scenarios: usize) -> Samples {
        Samples {
            calibrated: vec![Vec::new(); scenarios],
            raw: vec![Vec::new(); scenarios],
        }
    }

    fn push(&mut self, scenario: usize, timed: Timed) {
        self.calibrated[scenario].push(timed.calibrated_s);
        self.raw[scenario].push(timed.wall_s);
    }

    /// Complete passes: samples of the scenario that has the fewest.
    fn passes(&self) -> usize {
        self.calibrated.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Seconds for one pass: the sum over scenarios of each one's median.
    fn pass_s(by_scenario: &[Vec<f64>]) -> f64 {
        by_scenario.iter().map(|s| stats::median(s)).sum()
    }

    /// Calibrated seconds of pass `p`, for the quartiles printed beside the
    /// median.
    fn pass_total_s(&self, p: usize) -> f64 {
        self.calibrated.iter().map(|s| s[p]).sum()
    }
}

/// The outcome of each scenario's first run.
fn outcomes_of(references: &[RunResult]) -> Vec<Outcome> {
    references.iter().map(|(r, _)| layers::outcome(r)).collect()
}

fn sum_of(outcomes: &[Outcome], f: impl Fn(&Outcome) -> u64) -> f64 {
    outcomes.iter().map(f).sum::<u64>() as f64
}

fn mean_of(outcomes: &[Outcome], f: impl Fn(&Outcome) -> u64) -> f64 {
    sum_of(outcomes, f) / outcomes.len().max(1) as f64
}

/// A percentile of the issue-to-decision latencies pooled over `outcomes`,
/// simulated seconds; a problem when the decided queries are too few for it.
pub fn latency_percentile_s(
    problems: &mut Vec<String>,
    outcomes: &[Outcome],
    pct: f64,
) -> Option<f64> {
    let latencies: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_s.iter().copied())
        .collect();
    let value = stats::tail_percentile(&stats::sorted(&latencies), pct);
    if value.is_none() {
        problems.push(format!(
            "latency p{pct}: {} decided queries are too few for the percentile",
            latencies.len()
        ));
    }
    value
}

/// The simulated end-to-end metrics, shared with the live workload (whose
/// outcomes are its oracle's).
pub fn simulated_metrics(measured: &mut Measured, outcomes: &[Outcome]) {
    let resolved = sum_of(outcomes, |o| o.resolved);
    let v = &mut measured.values;
    v.set(
        "resolution_ratio",
        resolved / sum_of(outcomes, |o| o.queries),
    );
    v.set("accuracy", sum_of(outcomes, |o| o.accurate) / resolved);
    v.set(
        "mb_per_decision",
        sum_of(outcomes, |o| o.total_bytes) / resolved / 1e6,
    );
    if let Some(p50) = latency_percentile_s(&mut measured.problems, outcomes, 50.0) {
        measured.values.set("decision_latency_s_p50", p50);
    }
    if let Some(p95) = latency_percentile_s(&mut measured.problems, outcomes, 95.0) {
        measured
            .notes
            .push(format!("decision_latency_s_p95 {p95} sim_s"));
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1000.0)
}

/// Holds a run of scenario `i` to that scenario's first run; the first run
/// itself becomes the reference. Returns whether the run held.
fn check_run(
    problems: &mut Vec<String>,
    what: &str,
    references: &mut Vec<RunResult>,
    i: usize,
    got: RunResult,
) -> bool {
    let Some(reference) = references.get(i) else {
        debug_assert_eq!(references.len(), i, "scenarios run in order");
        references.push(got);
        return true;
    };
    if got.0 != reference.0 {
        problems.push(format!(
            "{what}: scenario {i} report differs from its first run"
        ));
        return false;
    }
    if got.1 != reference.1 {
        problems.push(format!(
            "{what}: scenario {i} trace bytes differ from its first run"
        ));
        return false;
    }
    true
}

/// The end-to-end run (`--trace 0`): set up [`SETUP_RUNS`] times, then timed
/// passes for `seconds`.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Measured {
    let plan = plan(workload);
    let mut measured = Measured::default();
    let mut cal = Calibrator::default();

    let mut setup_s = Vec::with_capacity(SETUP_RUNS);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_RUNS {
        cal.stale();
        let (next, timed) = cal.time(|| prepare(&plan, seed, plan.scenarios));
        setup_s.push(timed.calibrated_s);
        if prepared
            .as_ref()
            .is_some_and(|first| first.warm != next.warm)
        {
            measured
                .problems
                .push("set-up: the same seed gave a different warm-up result".into());
        }
        prepared = Some(next);
    }
    let Prepared {
        scenarios, warm, ..
    } = prepared.expect("SETUP_RUNS is at least one");

    // The warm-up run is the first scenario's first run.
    let mut references = vec![warm];
    let mut samples = Samples::new(scenarios.len());
    let started = calib::now();
    cal.stale();
    // Runs go round the scenarios until the time is up, but not before
    // every scenario has MIN_PASSES samples for its median.
    'timed: loop {
        for (i, scenario) in scenarios.iter().enumerate() {
            if samples.passes() >= MIN_PASSES && calib::secs_since(started) >= seconds {
                break 'timed;
            }
            let (output, timed) = cal.time(|| layers::run(plan.engine, plan.scheme, scenario));
            samples.push(i, timed);
            let queries = layers::query_count(scenario);
            measured.attempted += queries;
            let problems = &mut measured.problems;
            if !check_run(problems, "timed pass", &mut references, i, output.finish()) {
                measured.failed += queries;
            }
        }
    }
    let outcomes = outcomes_of(&references);
    for (i, o) in outcomes.iter().enumerate() {
        if o.ledger_conserves == Some(false) {
            measured
                .problems
                .push(format!("scenario {i}: the cost ledger does not conserve"));
        }
    }

    let v = &mut measured.values;
    v.set("setup_s", stats::median(&setup_s));
    let pass_s = Samples::pass_s(&samples.calibrated);
    v.set(
        "host_us_per_query",
        pass_s * 1e6 / sum_of(&outcomes, |o| o.queries),
    );
    v.set("peak_rss_mb", peak_rss_mb());
    let per_pass: Vec<f64> = (0..samples.passes())
        .map(|p| samples.pass_total_s(p) * 1e3 / scenarios.len() as f64)
        .collect();
    let (p25, p50, p75) = stats::quartiles(&per_pass);
    measured.notes.push(format!(
        "run_ms {:.3} ms per scenario run (median of per-scenario medians); by pass p25 {p25:.3} p50 {p50:.3} p75 {p75:.3} over {} passes of {} scenarios; raw {:.3} ms",
        pass_s * 1e3 / scenarios.len() as f64,
        samples.passes(),
        scenarios.len(),
        Samples::pass_s(&samples.raw) * 1e3 / scenarios.len() as f64,
    ));
    simulated_metrics(&mut measured, &outcomes);
    measured
}

/// Spans per traced run the recorder makes room for: a city run opens about
/// 130 k, an observed paper run about 100 k.
const SPAN_CAPACITY: usize = 1 << 20;
/// Runs per scenario and side of an engine comparison.
const COMPARE_RUNS: usize = 3;

/// One span name's share of a traced run: calls, and calibrated milliseconds
/// in total and in the span's own code.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PerRun {
    calls: f64,
    total_ms: f64,
    self_ms: f64,
}

/// Per-name span totals over all traced runs.
#[derive(Default)]
struct LayerTotals {
    by_name: BTreeMap<&'static str, PerRun>,
    runs: u64,
}

impl LayerTotals {
    /// Adds one run's spans, scaled by that run's calibration factor.
    fn add(&mut self, spans: &[Span], factor: f64) {
        let mut run: BTreeMap<&'static str, NameStat> = BTreeMap::new();
        span::fold_into(&mut run, spans);
        for (name, stat) in run {
            let sum = self.by_name.entry(name).or_default();
            sum.calls += stat.count as f64;
            sum.total_ms += stat.total_ns as f64 * 1e-6 * factor;
            sum.self_ms += stat.self_ns as f64 * 1e-6 * factor;
        }
        self.runs += 1;
    }

    /// The mean over the traced runs; zeros for a name that never occurred.
    fn per_run(&self, name: &str) -> PerRun {
        let runs = self.runs.max(1) as f64;
        let sum = self.by_name.get(name).copied().unwrap_or_default();
        PerRun {
            calls: sum.calls / runs,
            total_ms: sum.total_ms / runs,
            self_ms: sum.self_ms / runs,
        }
    }
}

/// What the traced passes of a set of scenarios produced.
pub struct TracedPasses {
    totals: LayerTotals,
    plain: Samples,
    traced: Samples,
    msgs_sent: [u64; 4],
    sink_records: u64,
    trace_bytes: u64,
    first_spans: Vec<Span>,
    dropped_spans: u64,
}

/// Passes over `scenarios` for `seconds` (at least one) that run each scenario
/// plain and then traced, holding every run — traced ones too — to the
/// scenario's first; `references` holds the first runs already made.
#[allow(clippy::too_many_arguments)]
pub fn traced_passes(
    cal: &mut Calibrator,
    engine: Engine,
    scheme: Scheme,
    scenarios: &[Scenario],
    references: &mut Vec<RunResult>,
    seconds: f64,
    measured: &mut Measured,
) -> TracedPasses {
    let mut out = TracedPasses {
        totals: LayerTotals::default(),
        plain: Samples::new(scenarios.len()),
        traced: Samples::new(scenarios.len()),
        msgs_sent: [0; 4],
        sink_records: 0,
        trace_bytes: 0,
        first_spans: Vec::new(),
        dropped_spans: 0,
    };
    let started = calib::now();
    cal.stale();
    loop {
        // Plain and traced runs of a scenario sit next to each other, so the
        // host's mode is the same for both sides of the overhead ratio.
        for (i, scenario) in scenarios.iter().enumerate() {
            let (output, timed) = cal.time(|| layers::run(engine, scheme, scenario));
            out.plain.push(i, timed);
            let queries = layers::query_count(scenario);
            measured.attempted += 2 * queries;
            let problems = &mut measured.problems;
            if !check_run(problems, "plain pass", references, i, output.finish()) {
                measured.failed += queries;
            }

            span::start(SPAN_CAPACITY);
            let (traced, timed) = cal.time(|| layers::run_traced(engine, scheme, scenario, None));
            let (spans, dropped) = span::finish();
            out.traced.push(i, timed);
            out.totals.add(&spans, timed.calibrated_s / timed.wall_s);
            out.dropped_spans += dropped;
            for (sum, n) in out.msgs_sent.iter_mut().zip(traced.msgs_sent) {
                *sum += n;
            }
            out.sink_records += traced.sink_records;
            let got = traced.output.finish();
            out.trace_bytes += got.1.map_or(0, |d| d.bytes);
            if !check_run(problems, "traced pass", references, i, got) {
                measured.failed += queries;
            }
            if out.first_spans.is_empty() {
                out.first_spans = spans;
            }
        }
        if calib::secs_since(started) >= seconds {
            break;
        }
    }
    if out.dropped_spans > 0 {
        measured.problems.push(format!(
            "{} spans did not fit the recorder; raise SPAN_CAPACITY",
            out.dropped_spans
        ));
    }
    out
}

/// Sets every per-layer metric that comes out of traced passes, the counted
/// pass and the replay. `events` is the mean event count per run.
pub fn layer_metrics(
    measured: &mut Measured,
    traced: &TracedPasses,
    events: f64,
    allocs: (u64, u64, f64),
    replay: &layers::Replay,
) {
    let v = &mut measured.values;
    let runs = traced.totals.runs.max(1) as f64;
    let scenarios = traced.plain.calibrated.len().max(1) as f64;
    let run_ms = Samples::pass_s(&traced.plain.calibrated) * 1e3 / scenarios;

    v.set("netsim.events", events);
    for (kind, sent) in layers::KINDS.into_iter().zip(traced.msgs_sent) {
        v.set(&format!("netsim.msgs_{kind}"), sent as f64 / runs);
    }
    let engine_self_ms = traced.totals.per_run(layers::ENGINE_RUN).self_ms;
    v.set("netsim.engine_self_ms", engine_self_ms);
    v.set("netsim.ns_per_event", engine_self_ms * 1e6 / events);

    let mut handler_ms = 0.0;
    for span_name in layers::HANDLERS {
        let handler = traced.totals.per_run(span_name);
        v.set(&format!("{span_name}.busy_ms"), handler.self_ms);
        v.set(&format!("{span_name}.calls"), handler.calls);
        handler_ms += handler.self_ms;
    }
    let traced_run_ms = traced.totals.per_run(layers::RUN).total_ms;
    v.set("core.handler_share", handler_ms / traced_run_ms);
    let (allocs, alloc_bytes, counted_events) = allocs;
    v.set("core.allocs_per_event", allocs as f64 / counted_events);
    v.set(
        "core.alloc_bytes_per_event",
        alloc_bytes as f64 / counted_events,
    );

    v.set("sched.plan_dnf_ns", replay.plan_dnf_ns);
    v.set("coverage.greedy_cover_ns", replay.greedy_cover_ns);
    v.set("logic.resolution_ns", replay.resolution_ns);
    v.set("naming.name_parse_ns", replay.name_parse_ns);
    v.set("naming.store_insert_ns", replay.store_insert_ns);
    v.set("naming.store_insert_evict_ns", replay.store_insert_evict_ns);
    v.set("naming.store_get_fresh_ns", replay.store_get_fresh_ns);
    v.set("naming.pit_register_take_ns", replay.pit_register_take_ns);
    // An estimate from outside: every data delivery is taken as one store
    // insert and every request delivery as one fresh lookup.
    let data_calls = traced.totals.per_run(layers::ON_MESSAGE[2]).calls;
    let request_calls = traced.totals.per_run(layers::ON_MESSAGE[1]).calls;
    let store_ms =
        (data_calls * replay.store_insert_ns + request_calls * replay.store_get_fresh_ns) * 1e-6;
    v.set("naming.store_share", store_ms / run_ms);

    let sink_ms = traced.totals.per_run(layers::SINK_RECORD).total_ms;
    v.set("obs.records", traced.sink_records as f64 / runs);
    v.set("obs.trace_bytes", traced.trace_bytes as f64 / runs);
    v.set("obs.sink_busy_ms", sink_ms);
    if traced.sink_records > 0 {
        v.set(
            "obs.ns_per_record",
            sink_ms * 1e6 * runs / traced.sink_records as f64,
        );
    }
    v.set("obs.ledger_fold_ms", replay.ledger_fold_ms);
    v.set("obs.feedback_fold_ms", replay.feedback_fold_ms);

    for (k, kind) in layers::KINDS.into_iter().enumerate() {
        v.set(
            &format!("net.frame_encode_ns.{kind}"),
            replay.frame_encode_ns[k],
        );
        v.set(
            &format!("net.frame_decode_ns.{kind}"),
            replay.frame_decode_ns[k],
        );
    }
    v.set("net.frame_bytes_mean", replay.frame_bytes_mean);

    v.set(
        "host.run_ms_raw",
        Samples::pass_s(&traced.plain.raw) * 1e3 / scenarios,
    );
    v.set(
        "trace.overhead_ratio",
        Samples::pass_s(&traced.traced.calibrated) / Samples::pass_s(&traced.plain.calibrated),
    );
}

/// Host facts every traced invocation reports.
pub fn host_metrics(measured: &mut Measured, cal: &Calibrator) {
    let ms: Vec<f64> = cal.samples_s().iter().map(|s| s * 1e3).collect();
    let (p25, p50, p75) = stats::quartiles(&ms);
    let v = &mut measured.values;
    v.set("host.cpus", host_cpus() as f64);
    v.set("host.calib_ms_p50", p50);
    v.set("host.calib_ms_iqr", p75 - p25);
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The untimed passes behind the allocation counts and the replay corpus.
pub fn count_and_capture(
    engine: Engine,
    scheme: Scheme,
    scenarios: &[Scenario],
) -> ((u64, u64, f64), Corpus) {
    let (events, allocs, bytes) = alloc::counted(|| {
        scenarios
            .iter()
            .map(|s| layers::outcome(&layers::run(engine, scheme, s).report).events)
            .sum::<u64>()
    });
    let mut corpus = Corpus::default();
    for scenario in scenarios {
        layers::run_traced(engine, scheme, scenario, Some(&mut corpus));
    }
    ((allocs, bytes, events as f64), corpus)
}

/// How long `work` takes relative to `base`, over `scenarios`: the two sides
/// alternate, each scenario's time is the median of [`COMPARE_RUNS`] runs, and
/// the ratio is taken over the sums.
fn compare<A, B>(
    cal: &mut Calibrator,
    scenarios: &[Scenario],
    mut work: impl FnMut(usize, &Scenario) -> A,
    mut base: impl FnMut(usize, &Scenario) -> B,
) -> f64 {
    cal.stale();
    let (mut work_s, mut base_s) = (0.0, 0.0);
    for (i, scenario) in scenarios.iter().enumerate() {
        let (mut w, mut b) = (Vec::new(), Vec::new());
        for _ in 0..COMPARE_RUNS {
            w.push(cal.time(|| work(i, scenario)).1.calibrated_s);
            b.push(cal.time(|| base(i, scenario)).1.calibrated_s);
        }
        work_s += stats::median(&w);
        base_s += stats::median(&b);
    }
    work_s / base_s
}

/// The per-layer run (`--trace 1`).
pub fn per_layer(workload: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Measured {
    let plan = plan(workload);
    let mut measured = Measured::default();
    let mut cal = Calibrator::default();
    let Prepared {
        scenarios,
        warm,
        build_s,
    } = prepare(&plan, seed, plan.traced_scenarios);
    let mut references = vec![warm];
    let traced = traced_passes(
        &mut cal,
        plan.engine,
        plan.scheme,
        &scenarios,
        &mut references,
        seconds / 2.0,
        &mut measured,
    );
    let outcomes = outcomes_of(&references);
    let (allocs, corpus) = count_and_capture(plan.engine, plan.scheme, &scenarios);
    let replay = layers::replay(&corpus, scenarios.len(), &scenarios[0]);
    layer_metrics(
        &mut measured,
        &traced,
        mean_of(&outcomes, |o| o.events),
        allocs,
        &replay,
    );
    let v = &mut measured.values;
    v.set("workload.build_ms", build_s * 1e3 / scenarios.len() as f64);
    v.set("core.cache_hits", mean_of(&outcomes, |o| o.cache_hits));
    v.set("core.label_hits", mean_of(&outcomes, |o| o.label_hits));
    v.set(
        "core.requests_forwarded",
        mean_of(&outcomes, |o| o.requests_forwarded),
    );
    v.set(
        "core.data_forwarded",
        mean_of(&outcomes, |o| o.data_forwarded),
    );
    if let Some(p95) = latency_percentile_s(&mut measured.problems, &outcomes, 95.0) {
        v.set("core.decision_latency_s_p95", p95);
    }

    let plain = |_: usize, s: &Scenario| layers::run(plan.engine, plan.scheme, s);
    let classic = |_: usize, s: &Scenario| layers::run(Engine::Classic, plan.scheme, s);
    if plan.engine == Engine::ClassicObserved {
        // The same scenarios unobserved: what observing costs end to end.
        v.set(
            "obs.overhead_ratio",
            compare(&mut cal, &scenarios, plain, classic),
        );
    }
    if plan.engine == Engine::Sharded {
        v.set(
            "netsim.classic_over_shard1",
            compare(&mut cal, &scenarios, classic, plain),
        );
        // With one CPU there is no scaling to measure: the ratio stays 0.
        let threads = host_cpus().min(4);
        if threads >= 2 {
            let problems = &mut measured.problems;
            let threaded = |i: usize, s: &Scenario| {
                if layers::run_sharded(plan.scheme, s, threads) != references[i].0 {
                    problems.push(format!(
                        "scenario {i}: report at {threads} threads differs from one thread"
                    ));
                }
            };
            v.set(
                "netsim.shard_tN_over_t1",
                compare(&mut cal, &scenarios, threaded, plain),
            );
        }
        let (regions, boundary_share, lookahead_us) =
            layers::shard_partition(plan.scheme, &scenarios[0], threads);
        v.set("netsim.shard_regions", regions as f64);
        v.set("netsim.shard_boundary_link_share", boundary_share);
        v.set("netsim.shard_lookahead_us", lookahead_us as f64);
    }
    host_metrics(&mut measured, &cal);

    let trace_id = format!("{}/{}", workload.name(), scenario_seed(seed, 0));
    if let Err(e) = write_spans(out_dir, workload, &trace_id, &traced) {
        measured
            .problems
            .push(format!("writing spans under {}: {e}", out_dir.display()));
    }
    measured
}

/// Writes the first traced run's raw spans as JSON lines and the per-name
/// totals over all traced runs as one JSON document. README.md, "Reading a
/// span file", describes both.
pub fn write_spans(
    out_dir: &Path,
    workload: Workload,
    trace_id: &str,
    traced: &TracedPasses,
) -> std::io::Result<()> {
    use layers::JsonValue::{Float, Int, Null, Object, Str};
    use std::io::Write;
    std::fs::create_dir_all(out_dir)?;

    let path = out_dir.join(format!("{}.spans.jsonl", workload.name()));
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in traced.first_spans.iter().enumerate() {
        let line = Object(vec![
            ("trace_id".into(), Str(trace_id.into())),
            ("id".into(), Int(id as i64)),
            (
                "parent".into(),
                if span.parent == span::NO_PARENT {
                    Null
                } else {
                    Int(i64::from(span.parent))
                },
            ),
            ("name".into(), Str(span.name.into())),
            ("start_ns".into(), Int(span.start_ns as i64)),
            ("end_ns".into(), Int(span.end_ns as i64)),
        ]);
        writeln!(file, "{}", line.to_compact_string())?;
    }
    file.flush()?;

    let names = traced
        .totals
        .by_name
        .iter()
        .map(|(name, sum)| {
            (
                (*name).to_string(),
                Object(vec![
                    ("count".into(), Int(sum.calls as i64)),
                    ("total_ms".into(), Float(sum.total_ms)),
                    ("self_ms".into(), Float(sum.self_ms)),
                ]),
            )
        })
        .collect();
    let doc = Object(vec![
        ("workload".into(), Str(workload.name().into())),
        ("traced_runs".into(), Int(traced.totals.runs as i64)),
        ("spans".into(), Object(names)),
    ]);
    std::fs::write(
        out_dir.join(format!("{}.span_totals.json", workload.name())),
        doc.to_pretty_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_seeds_of_different_runs_are_disjoint() {
        let a: Vec<u64> = (0..16).map(|i| scenario_seed(1, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| scenario_seed(2, i)).collect();
        assert_eq!(a[0], 1000);
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn layer_totals_scale_each_run_by_its_calibration_factor() {
        let spans = [
            Span {
                name: "run",
                parent: span::NO_PARENT,
                start_ns: 0,
                end_ns: 4_000_000,
            },
            Span {
                name: "h",
                parent: 0,
                start_ns: 0,
                end_ns: 1_000_000,
            },
        ];
        let mut totals = LayerTotals::default();
        totals.add(&spans, 1.0);
        totals.add(&spans, 0.5);
        // Two runs: (1 + 0.5) ms of "h" over two runs, one call each.
        let per_run = |calls, total_ms, self_ms| PerRun {
            calls,
            total_ms,
            self_ms,
        };
        assert_eq!(totals.per_run("h"), per_run(1.0, 0.75, 0.75));
        assert_eq!(totals.per_run("run"), per_run(1.0, 3.0, 2.25));
        assert_eq!(totals.per_run("absent"), PerRun::default());
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
