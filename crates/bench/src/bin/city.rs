//! Regenerates **BENCH_city.json**: the city-scale sharded-simulator gate.
//!
//! One exact `invariant` block — facts of the simulated run itself (event
//! count, query outcomes, byte totals), identical on every machine and at
//! every thread count. The run is repeated at each of [`THREADS`] and the
//! reports are asserted equal before anything is written. How *fast* the
//! sharded engine runs is `benchmark/`'s `city_sharded` workload
//! (`netsim.ns_per_event`, `netsim.shard_tN_over_t1`), not this file's.
//!
//! Usage: `cargo run -p dde-bench --bin city --release`
//! Knobs: `DDE_SEED` (scenario seed, default 1).

use dde_bench::{env_seed, write_bench_json};
use dde_core::prelude::*;
use dde_core::Strategy;
use dde_obs::JsonValue;
use dde_workload::prelude::*;

/// Thread counts the run must be identical across.
const THREADS: [usize; 3] = [1, 2, 4];

fn main() -> std::io::Result<()> {
    let seed = env_seed();
    let config = ScenarioConfig::city().with_seed(seed).with_fast_ratio(0.4);
    let scenario = Scenario::build(config);
    let options = || {
        let mut o = RunOptions::new(Strategy::LvfLabelShare);
        o.seed = seed ^ 0x5eed;
        o
    };
    eprintln!(
        "city: {} nodes, {} queries, threads {THREADS:?}, seed {seed}",
        scenario.topology.len(),
        scenario.queries.len(),
    );

    let report = run_scenario_sharded(&scenario, options(), THREADS[0]);
    eprintln!("  t={}: {} events", THREADS[0], report.events);
    for &t in &THREADS[1..] {
        // The run itself must not depend on the thread count.
        assert_eq!(
            report,
            run_scenario_sharded(&scenario, options(), t),
            "sharded run diverged between thread counts (t={t})"
        );
        eprintln!("  t={t}: identical");
    }

    let invariant = JsonValue::Object(vec![
        ("events".into(), JsonValue::Int(report.events as i64)),
        (
            "total_queries".into(),
            JsonValue::Int(report.total_queries as i64),
        ),
        ("resolved".into(), JsonValue::Int(report.resolved as i64)),
        ("viable".into(), JsonValue::Int(report.viable as i64)),
        (
            "total_bytes".into(),
            JsonValue::Int(report.total_bytes as i64),
        ),
        ("thread_counts_identical".into(), JsonValue::Bool(true)),
    ]);

    let doc = JsonValue::Object(vec![
        ("bench".into(), JsonValue::Str("city".into())),
        ("seed".into(), JsonValue::Int(seed as i64)),
        (
            "threads".into(),
            JsonValue::Array(THREADS.iter().map(|&t| JsonValue::Int(t as i64)).collect()),
        ),
        ("invariant".into(), invariant),
    ]);
    write_bench_json("BENCH_city.json", &doc)
}
