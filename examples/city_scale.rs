//! Runs the city-scale evaluation scenario — 12×12 Manhattan grid, 60
//! Athena nodes, 120 route-finding queries — and prints the full run
//! report for a chosen strategy.
//!
//! Run with:
//! `cargo run -p dde-examples --bin city_scale --release [strategy]`
//! where `strategy` is one of `cmp`, `slt`, `lcf`, `lvf`, `lvfl`
//! (default `lvfl`). How *fast* the run is belongs to `benchmark/`'s
//! `city_sharded` workload, the repository's only wall clock.

// CLI argument parsing reads the environment; the simulated run itself
// uses a fixed seed.
#![allow(clippy::disallowed_methods)]
use dde_core::prelude::*;
use dde_workload::prelude::*;

fn main() {
    let strategy: Strategy = std::env::args()
        .nth(1)
        .as_deref()
        .unwrap_or("lvfl")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}; expected one of cmp/slt/lcf/lvf/lvfl");
            std::process::exit(2);
        });

    let config = ScenarioConfig::city().with_seed(11).with_fast_ratio(0.4);
    eprintln!(
        "building scenario: {}x{} grid, {} nodes, {} queries, 40% fast-changing objects…",
        config.grid_rows,
        config.grid_cols,
        config.node_count,
        config.node_count * config.queries_per_node
    );
    let scenario = Scenario::build(config);
    eprintln!(
        "catalog: {} objects over {} labels",
        scenario.catalog.len(),
        scenario.catalog.covered_labels().count()
    );

    let report = run_scenario(&scenario, RunOptions::new(strategy));

    println!("strategy              : {}", report.strategy);
    println!("queries               : {}", report.total_queries);
    println!(
        "resolved by deadline  : {} ({:.1}%)",
        report.resolved,
        report.resolution_ratio() * 100.0
    );
    println!("  viable route found  : {}", report.viable);
    println!("  no route viable     : {}", report.infeasible);
    println!("  deadline missed     : {}", report.missed);
    println!("decision accuracy     : {:.1}%", report.accuracy() * 100.0);
    println!("total bandwidth       : {:.1} MB", report.total_megabytes());
    for (kind, bytes) in &report.bytes_by_kind {
        println!("  {kind:<9}           : {:.2} MB", *bytes as f64 / 1e6);
    }
    println!(
        "mean decision latency : {}",
        report
            .mean_resolution_latency
            .map(|d| format!("{:.1} s", d.as_secs_f64()))
            .unwrap_or_else(|| "—".into())
    );
    println!("cache hits            : {}", report.cache_hits);
    println!("label hits            : {}", report.label_hits);
    println!("local samples         : {}", report.local_samples);
    println!("simulator events      : {}", report.events);
}
