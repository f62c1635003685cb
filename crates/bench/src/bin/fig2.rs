//! Regenerates **Fig. 2**: query resolution ratio vs. environment dynamics
//! (ratio of fast-changing objects) for all five retrieval schemes.
//!
//! Usage: `cargo run -p dde-bench --bin fig2 --release`
//! Knobs: `DDE_REPS` (default 10), `DDE_SCALE` (`paper`/`small`), `DDE_SEED`.

use dde_bench::{
    bench_json, print_table, rows_from_reports, sweep_reports, write_bench_json, HarnessConfig,
    PAPER_REPS,
};

fn main() -> std::io::Result<()> {
    let cfg = HarnessConfig::from_env(PAPER_REPS);
    let ratios = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    eprintln!(
        "fig2: {} reps per point, grid {}x{}, {} nodes, {} queries",
        cfg.reps,
        cfg.base.grid_rows,
        cfg.base.grid_cols,
        cfg.base.node_count,
        cfg.base.node_count * cfg.base.queries_per_node,
    );
    let all = sweep_reports(&cfg, &ratios);
    let rows = rows_from_reports(&ratios, &all, |r| r.resolution_ratio());
    print_table(&rows, "query resolution ratio");
    write_bench_json(
        "BENCH_fig2.json",
        &bench_json("fig2", &cfg, "fast_ratio", &ratios, &all),
    )
}
