//! Regenerates **BENCH_city.json**: the city-scale gate.
//!
//! One exact `invariant` block — facts of the simulated run itself (event
//! count, query outcomes, byte totals), identical on every machine. How
//! *fast* the engine runs the city is `benchmark/`'s `city_sharded`
//! workload (`netsim.ns_per_event`), not this file's.
//!
//! Usage: `cargo run -p dde-bench --bin city --release`
//! Knobs: `DDE_SEED` (scenario seed, default 1).

use dde_bench::{env_seed, write_bench_json};
use dde_core::prelude::*;
use dde_core::Strategy;
use dde_obs::JsonValue;
use dde_workload::prelude::*;

fn main() -> std::io::Result<()> {
    let seed = env_seed();
    let config = ScenarioConfig::city().with_seed(seed).with_fast_ratio(0.4);
    let scenario = Scenario::build(config);
    let mut options = RunOptions::new(Strategy::LvfLabelShare);
    options.seed = seed ^ 0x5eed;
    eprintln!(
        "city: {} nodes, {} queries, seed {seed}",
        scenario.topology.len(),
        scenario.queries.len(),
    );

    let report = run_scenario(&scenario, options);
    eprintln!("  {} events", report.events);

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
    ]);

    let doc = JsonValue::Object(vec![
        ("bench".into(), JsonValue::Str("city".into())),
        ("seed".into(), JsonValue::Int(seed as i64)),
        ("invariant".into(), invariant),
    ]);
    write_bench_json("BENCH_city.json", &doc)
}
