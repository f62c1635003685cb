//! Regenerates **Fig. 3**: total network bandwidth consumption of all five
//! retrieval schemes at 40% fast-changing objects.
//!
//! Usage: `cargo run -p dde-bench --bin fig3 --release`
//! Knobs: `DDE_REPS` (default 10), `DDE_SCALE` (`paper`/`small`), `DDE_SEED`.

use dde_bench::{
    bench_json, print_table, rows_from_reports, run_point, sweep_reports, write_bench_json,
    HarnessConfig, PAPER_REPS,
};

fn main() -> std::io::Result<()> {
    let cfg = HarnessConfig::from_env(PAPER_REPS);
    eprintln!(
        "fig3: {} reps, 40% fast-changing objects, metric = total MB on all links",
        cfg.reps
    );
    let ratios = [0.4];
    let all = sweep_reports(&cfg, &ratios, |fr, s, seed| {
        run_point(&cfg.base, fr, s, seed)
    });
    let rows = rows_from_reports(&ratios, &all, |r| r.total_megabytes());
    print_table(&rows, "total bandwidth, MB");
    write_bench_json(
        "BENCH_fig3.json",
        &bench_json("fig3", &cfg, "fast_ratio", &ratios, &all),
    )
}
