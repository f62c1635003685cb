//! The live workload: a four-node chain on real loopback TCP, driven open loop
//! by the hosts' own schedule and held to the DES oracle.
//!
//! One *repetition* boots the cluster, runs the whole schedule (about 1.7 s of
//! wall time at [`layers::LIVE_TIME_SCALE`]) and tears it down. The latency
//! metric is the median over repetitions of each repetition's percentile, so
//! a repetition the operating system disturbed moves nothing.

use crate::calib::{self, Calibrator};
use crate::des;
use crate::layers::{self, Engine, LiveRep, RunReport, Scenario, Scheme};
use crate::spec::{Measured, Workload};
use crate::stats;
use std::path::Path;

/// Holds a live repetition to its oracle; returns whether it held.
fn check_rep(problems: &mut Vec<String>, oracle: &RunReport, rep: &LiveRep) -> bool {
    let mut ok = true;
    if !layers::matches_oracle(oracle, &rep.report) {
        problems.push("a live repetition's outcomes or bytes differ from the DES oracle".into());
        ok = false;
    }
    if rep.send_errors + rep.decode_errors > 0 {
        problems.push(format!(
            "a live repetition had {} send and {} decode errors",
            rep.send_errors, rep.decode_errors
        ));
        ok = false;
    }
    ok
}

/// The `pct`-th percentile of each repetition's decision latency, then the
/// median over repetitions. Raw wall time: unlike a simulated run, a
/// repetition's latencies do not move with the calibration kernel (measured:
/// factors from 0.73 to 1.03 against latencies within 8 %), because they are
/// made of thread wake-ups and loopback round trips, not of computing.
fn latency_us(problems: &mut Vec<String>, reps: &[LiveRep], pct: f64) -> f64 {
    let per_rep: Vec<f64> = reps
        .iter()
        .filter_map(|rep| {
            let value = stats::tail_percentile(&rep.decision_wall_us, pct);
            if value.is_none() {
                problems.push(format!(
                    "p{pct}: {} fetched queries are too few for the percentile",
                    rep.decision_wall_us.len()
                ));
            }
            value
        })
        .collect();
    stats::median(&per_rep)
}

/// Live repetitions for `seconds` (at least one), each held to `oracle`.
fn timed_reps(
    scenario: &Scenario,
    oracle: &RunReport,
    seconds: f64,
    measured: &mut Measured,
) -> Vec<LiveRep> {
    let mut reps = Vec::new();
    let started = calib::now();
    loop {
        measured.attempted += layers::CHAIN_QUERIES as u64;
        match layers::run_live(scenario) {
            Ok(rep) => {
                if !check_rep(&mut measured.problems, oracle, &rep) {
                    measured.failed += layers::CHAIN_QUERIES as u64;
                }
                reps.push(rep);
            }
            Err(e) => {
                measured.problems.push(format!("live repetition: {e}"));
                measured.failed += layers::CHAIN_QUERIES as u64;
            }
        }
        if calib::secs_since(started) >= seconds {
            break;
        }
    }
    reps
}

/// The end-to-end run (`--trace 0`).
pub fn end_to_end(seed: u64, seconds: f64) -> Measured {
    let mut measured = Measured::default();

    // Set-up: the scenario, its oracle, and one repetition that is thrown
    // away (the first one in a process always reads about twice as slow).
    // Mostly the schedule's fixed wall time, so raw like the latencies.
    let mut setup_s = Vec::with_capacity(des::SETUP_RUNS);
    let mut prepared = None;
    for _ in 0..des::SETUP_RUNS {
        let start = calib::now();
        let scenario = layers::chain_scenario(seed);
        let oracle = layers::run_oracle(&scenario);
        let warm = layers::run_live(&scenario);
        setup_s.push(calib::secs_since(start));
        match warm {
            Ok(rep) => {
                check_rep(&mut measured.problems, &oracle, &rep);
            }
            Err(e) => measured.problems.push(format!("warm-up repetition: {e}")),
        }
        prepared = Some((scenario, oracle));
    }
    let (scenario, oracle) = prepared.expect("des::SETUP_RUNS is at least one");

    let reps = timed_reps(&scenario, &oracle, seconds, &mut measured);
    measured.values.set("setup_s", stats::median(&setup_s));
    let p50 = latency_us(&mut measured.problems, &reps, 50.0);
    measured.values.set("host_us_per_query", p50);
    measured.values.set("peak_rss_mb", des::peak_rss_mb());
    let p95 = latency_us(&mut measured.problems, &reps, 95.0);
    measured.notes.push(format!(
        "decision_wall_us p50 {p50:.1} p95 {p95:.1} (median over {} repetitions of {} queries, {} of them fetching)",
        reps.len(),
        layers::CHAIN_QUERIES,
        reps.first().map_or(0, |r| r.decision_wall_us.len()),
    ));
    des::simulated_metrics(&mut measured, &[layers::outcome(&oracle)]);
    measured
}

/// The per-layer run (`--trace 1`): the oracle's traced twin for everything
/// the simulator can see, live repetitions for the transport's own counters,
/// and bare endpoints for what a frame costs.
pub fn per_layer(seed: u64, seconds: f64, out_dir: &Path) -> Measured {
    let mut measured = Measured::default();
    let mut cal = Calibrator::default();
    let start = calib::now();
    let scenario = layers::chain_scenario(seed);
    let build_s = calib::secs_since(start);
    let oracle = layers::run_oracle(&scenario);
    let oracle_outcome = layers::outcome(&oracle);

    let scenarios = [scenario];
    let mut references = vec![(oracle, None)];
    let traced = des::traced_passes(
        &mut cal,
        Engine::Classic,
        Scheme::Lvf,
        &scenarios,
        &mut references,
        seconds / 4.0,
        &mut measured,
    );
    let (allocs, corpus) = des::count_and_capture(Engine::Classic, Scheme::Lvf, &scenarios);
    let replay = layers::replay(&corpus, 1, &scenarios[0]);
    des::layer_metrics(
        &mut measured,
        &traced,
        oracle_outcome.events as f64,
        allocs,
        &replay,
    );
    let v = &mut measured.values;
    v.set("workload.build_ms", build_s * 1e3);
    v.set("core.cache_hits", oracle_outcome.cache_hits as f64);
    v.set("core.label_hits", oracle_outcome.label_hits as f64);
    v.set(
        "core.requests_forwarded",
        oracle_outcome.requests_forwarded as f64,
    );
    v.set("core.data_forwarded", oracle_outcome.data_forwarded as f64);
    let outcomes = [oracle_outcome];
    if let Some(p95) = des::latency_percentile_s(&mut measured.problems, &outcomes, 95.0) {
        measured.values.set("core.decision_latency_s_p95", p95);
    }

    let reps = timed_reps(
        &scenarios[0],
        &references[0].0,
        seconds / 2.0,
        &mut measured,
    );
    let mean =
        |f: fn(&LiveRep) -> u64| reps.iter().map(f).sum::<u64>() as f64 / reps.len().max(1) as f64;
    let v = &mut measured.values;
    v.set("net.frames_out", mean(|r| r.frames_out));
    v.set("net.bytes_out", mean(|r| r.bytes_out));
    v.set("net.connect_retries", mean(|r| r.connect_retries));
    v.set("net.send_errors", mean(|r| r.send_errors));
    v.set("net.decode_errors", mean(|r| r.decode_errors));
    v.set(
        "net.issue_lag_us_max",
        reps.iter().map(|r| r.issue_lag_us_max).max().unwrap_or(0) as f64,
    );
    let p95 = latency_us(&mut measured.problems, &reps, 95.0);
    measured.values.set("net.decision_wall_us_p95", p95);

    match layers::tcp_bench() {
        Ok(tcp) => {
            let v = &mut measured.values;
            v.set("net.tcp_send_to_us_p50", tcp.send_to_us_p50);
            v.set("net.tcp_rtt_us_p50", tcp.rtt_us_p50);
            v.set("net.tcp_oneway_frames_per_s", tcp.oneway_frames_per_s);
            v.set("net.tcp_fanout_frames_per_s", tcp.fanout_frames_per_s);
        }
        Err(e) => measured.problems.push(format!("transport benchmark: {e}")),
    }
    des::host_metrics(&mut measured, &cal);

    let trace_id = format!("{}/{seed}", Workload::LiveChain.name());
    if let Err(e) = des::write_spans(out_dir, Workload::LiveChain, &trace_id, &traced) {
        measured
            .problems
            .push(format!("writing spans under {}: {e}", out_dir.display()));
    }
    measured
}
