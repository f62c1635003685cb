//! Runs the city-scale evaluation scenario — 12×12 Manhattan grid, 60
//! Athena nodes, 120 route-finding queries — as a thread sweep over the
//! sharded parallel simulator, printing how each thread count cuts the
//! topology (regions, share of links that cross a region boundary) and the
//! full run report for a chosen strategy.
//!
//! Run with:
//! `cargo run -p dde-examples --bin city_scale --release [strategy] [threads...]`
//! where `strategy` is one of `cmp`, `slt`, `lcf`, `lvf`, `lvfl`
//! (default `lvfl`) and `threads...` is the sweep (default `1 2 4`).
//! Reports must be identical at every thread count; the sweep checks this.
//! How *fast* each thread count runs is `benchmark/`'s `city_sharded`
//! workload, the repository's only wall clock.

// CLI argument parsing reads the environment; the simulated runs
// themselves use a fixed seed.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]
use dde_core::prelude::*;
use dde_netsim::Partition;
use dde_workload::prelude::*;

fn main() {
    // lint: allow(nondeterminism) — CLI selection only; the run itself uses a fixed seed
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strategy: Strategy = args
        .first()
        .map(String::as_str)
        .unwrap_or("lvfl")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}; expected one of cmp/slt/lcf/lvf/lvfl");
            std::process::exit(2);
        });
    let threads: Vec<usize> = if args.len() > 1 {
        args[1..]
            .iter()
            .map(|a| a.parse().expect("thread counts must be integers"))
            .collect()
    } else {
        vec![1, 2, 4]
    };

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

    // --- Thread sweep ---------------------------------------------------
    let options = RunOptions::new(strategy);
    let mut baseline: Option<RunReport> = None;
    println!(
        "{:>7}  {:>12}  {:>7}  {:>19}",
        "threads", "events", "regions", "boundary-link share"
    );
    for &t in &threads {
        let r = run_scenario_sharded(&scenario, options.clone(), t);
        // The cut the engine made: same topology, region count and seed.
        let partition = Partition::build(&scenario.topology, t.max(1), options.seed);
        let (mut links, mut crossing) = (0u64, 0u64);
        for a in scenario.topology.nodes() {
            for b in scenario.topology.neighbors(a) {
                links += 1;
                crossing += u64::from(partition.region_of(a) != partition.region_of(b));
            }
        }
        println!(
            "{t:>7}  {:>12}  {:>7}  {:>19.3}",
            r.events,
            partition.count(),
            crossing as f64 / links.max(1) as f64
        );
        match &baseline {
            Some(base) => assert_eq!(base, &r, "sharded run diverged at {t} threads"),
            None => baseline = Some(r),
        }
    }
    println!("reports identical across thread counts: true");
    let report = baseline.expect("at least one thread count");

    println!();
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
