//! Resilience ablation: graceful degradation under node churn.
//!
//! Sweeps the node-churn rate (fraction of nodes that crash once during
//! the mission and recover after a fixed downtime) across every retrieval
//! strategy, reporting the paper's two headline metrics — query resolution
//! ratio (Fig. 2) and total bandwidth (Fig. 3) — plus the fault-specific
//! accounting (messages dropped/purged by faults). The churn schedule is
//! seeded and replayable: the same seed produces the same crashes.
//!
//! Usage: `cargo run -p dde-bench --bin resilience --release`
//! Knobs: `DDE_REPS` (default 10), `DDE_SCALE` (`paper`/`small`), `DDE_SEED`.

use dde_bench::{bench_json, stat, write_bench_json, HarnessConfig, Stat, PAPER_REPS};
use dde_core::engine::{run_scenario, RunOptions, RunReport};
use dde_core::strategy::Strategy;
use dde_logic::time::SimDuration;
use dde_workload::scenario::Scenario;

const CHURN_RATES: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.5];

fn run_churn_point(cfg: &HarnessConfig, churn: f64, strategy: Strategy, seed: u64) -> RunReport {
    let mut scen_cfg = cfg.base.clone().with_seed(seed).with_fast_ratio(0.4);
    scen_cfg.churn_rate = churn;
    scen_cfg.churn_downtime = SimDuration::from_secs(45);
    let scenario = Scenario::build(scen_cfg);
    let mut options = RunOptions::new(strategy);
    options.seed = seed ^ 0x5eed;
    run_scenario(&scenario, options)
}

/// Sweeps churn × strategies × reps on a worker pool (the same idiom as
/// [`dde_bench::sweep`], keyed on churn rate instead of fast ratio).
fn sweep_churn(cfg: &HarnessConfig) -> Vec<Vec<Vec<RunReport>>> {
    let grid: Vec<(usize, usize, u64)> = (0..CHURN_RATES.len())
        .flat_map(|ri| {
            (0..Strategy::ALL.len()).flat_map(move |si| (0..cfg.reps).map(move |r| (ri, si, r)))
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
                let (ri, si, r) = grid[k];
                let report = run_churn_point(cfg, CHURN_RATES[ri], Strategy::ALL[si], cfg.seed + r);
                *results[k].lock().expect("cell poisoned") = Some(report);
            });
        }
    });
    // lint: allow(merge-order) — slots are grid-index-keyed; positional drain is the deterministic order
    let mut it = results.into_iter();
    CHURN_RATES
        .iter()
        .map(|_| {
            Strategy::ALL
                .iter()
                .map(|_| {
                    (0..cfg.reps)
                        .map(|_| {
                            it.next()
                                .expect("grid-sized")
                                .into_inner()
                                .expect("cell poisoned")
                                .expect("worker filled cell")
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn metric_stat(reports: &[RunReport], metric: impl Fn(&RunReport) -> f64) -> Stat {
    let samples: Vec<f64> = reports.iter().map(metric).collect();
    stat(&samples)
}

fn print_metric_table(
    all: &[Vec<Vec<RunReport>>],
    header: &str,
    metric: impl Fn(&RunReport) -> f64 + Copy,
) {
    print!("{:>10}", "churn");
    for s in Strategy::ALL {
        print!("  {:>16}", s.code());
    }
    println!("    ({header}, mean ± stddev)");
    for (ri, row) in all.iter().enumerate() {
        print!("{:>10.2}", CHURN_RATES[ri]);
        for reports in row {
            let st = metric_stat(reports, metric);
            print!("  {:>9.3} ±{:>5.3}", st.mean, st.stddev);
        }
        println!();
    }
    println!();
}

fn main() -> std::io::Result<()> {
    let cfg = HarnessConfig::from_env(PAPER_REPS);
    println!(
        "== resilience: node churn sweep ({} reps, seed {}, downtime 45 s) ==\n",
        cfg.reps, cfg.seed
    );
    let all = sweep_churn(&cfg);

    print_metric_table(&all, "resolution ratio", |r| r.resolution_ratio());
    print_metric_table(&all, "bandwidth MB", |r| r.total_megabytes());

    // Degradation accounting: every query must end resolved or missed, and
    // the fault counters show where traffic died.
    println!("degradation accounting (summed over reps):");
    for (ri, row) in all.iter().enumerate() {
        print!("  churn {:>4.2}:", CHURN_RATES[ri]);
        for (si, reports) in row.iter().enumerate() {
            let dropped: u64 = reports.iter().map(|r| r.messages_dropped_by_fault).sum();
            let purged: u64 = reports.iter().map(|r| r.messages_purged_by_fault).sum();
            for r in reports {
                assert_eq!(
                    r.resolved + r.missed,
                    r.total_queries,
                    "query accounting broke under churn"
                );
            }
            print!(
                "  {} drop {dropped:>4} purge {purged:>3}",
                Strategy::ALL[si].code()
            );
        }
        println!();
    }
    println!(
        "\nEvery query terminates (resolved + missed = total) at every churn\n\
         rate; decision-driven strategies degrade gracefully because stalled\n\
         fetches time out and re-select reachable sources."
    );
    write_bench_json(
        "BENCH_resilience.json",
        &bench_json("resilience", &cfg, "churn", &CHURN_RATES, &all),
    )
}
