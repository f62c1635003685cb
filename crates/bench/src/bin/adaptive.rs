//! Regenerates **BENCH_adaptive.json**: the online-adaptive-planning gate.
//!
//! **Convergence** (churn band): the same decision queries recur
//! periodically while nodes churn, and every completed query is scored by
//! the [`FeedbackSink`] — `|predicted − actual|` attributed bytes,
//! aggregated into epochs of one query round each. With the truth
//! estimator on, later epochs predict better than earlier ones: the
//! rep-averaged per-epoch error must shrink **monotonically**, and the
//! binary asserts it before writing anything. The per-epoch series is
//! written as `{mean, stddev}` stat objects over the seeded reps; the epoch
//! count and monotonicity flag go in the `invariant` block. Cost per
//! decision is compared seed by seed, static against adaptive on the same
//! inputs: the median per-seed difference (in bytes and relative to the
//! static mean) and how many seeds each side wins.
//!
//! Every number is a deterministic function of the seed; the baselines
//! test compares the whole document byte for byte.
//!
//! Usage: `cargo run -p dde-bench --bin adaptive --release`
//! Knobs: `DDE_REPS` (default 5), `DDE_SCALE`, `DDE_SEED`.

use dde_bench::{stat, stat_json, write_bench_json, HarnessConfig, Stat};
use dde_core::engine::{run_scenario_observed, RunOptions, RunReport};
use dde_core::strategy::Strategy;
use dde_logic::time::SimDuration;
use dde_obs::feedback::FeedbackSink;
use dde_obs::{JsonValue, SharedSink};
use dde_workload::scenario::{Scenario, ScenarioConfig};

/// Query rounds in the convergence experiment (== expected epochs). Three
/// rounds span the estimator's convergence; past that the error sits on
/// its noise floor and the monotonicity assertion would be a coin flip.
const ROUNDS: usize = 3;

/// One rep of the convergence band: periodic queries under churn, scored by
/// a [`FeedbackSink`]. Returns the per-epoch feedback stats and the report.
fn convergence_rep(seed: u64, adaptive: bool) -> (Vec<dde_obs::EpochStats>, RunReport) {
    // The convergence band is pinned to the small grid at every scale
    // (`DDE_SCALE` only picks the rep count): on the paper-scale topology
    // 90 concurrent queries saturate the 1 Mbps links and congestion —
    // not prediction quality — dominates the error series. Estimator
    // dynamics want an uncongested band.
    let mut cfg = ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.4);
    // The static planner prices plans with the configured 0.8 prior; the
    // world is kinder than that, so cold predictions start systematically
    // wrong and the truth estimator has real ground to cover.
    cfg.prob_viable = 0.95;
    // Per-label plan pricing cannot express one panorama fetch covering
    // several predicates; leave them out so the error series measures the
    // probability estimates, not multi-coverage accounting.
    cfg.panoramas = false;
    // Enough queries per round that one epoch's mean error is not at the
    // mercy of a handful of outliers, and churn mild enough that the
    // fault-noise floor sits below the learning signal.
    cfg.queries_per_node = 3;
    // Uniform evidence sizes: per-query prediction error should come from
    // what the loop can learn (truth rates, systematic model bias), not
    // from the size lottery of which camera serves a segment.
    cfg.min_object_bytes = 400_000;
    cfg.max_object_bytes = 400_000;
    // Churn is drawn by Scenario::build before the periodic expansion, so
    // every crash lands in the first round: the worst predictions come up
    // front, and the later epochs measure what learning bought.
    cfg = cfg.with_churn(0.3);
    let round = cfg.node_count * cfg.queries_per_node;
    // Rounds are spaced past the slow-validity window, so every round
    // re-fetches its evidence cold: the per-epoch actual bytes stay
    // comparable and the error series isolates prediction quality instead
    // of cache warm-up.
    let scenario = Scenario::build(cfg).with_periodic_queries(SimDuration::from_secs(700), ROUNDS);
    let mut options = RunOptions::new(Strategy::Lvf);
    options.seed = seed ^ 0xada;
    options.adaptive = adaptive;
    // The plan prices full source-to-origin fetches; en-route content
    // stores would serve part of the traffic for free and put a
    // cache-shaped bias between predicted and actual that no probability
    // estimate can learn away. Turn them off for the scoring band.
    options.cache_capacity = 0;
    let feedback = SharedSink::new(FeedbackSink::new(round as u64));
    let report = run_scenario_observed(&scenario, options, Box::new(feedback.clone()));
    let epochs = feedback.with(|s| {
        s.finish();
        s.epochs().to_vec()
    });
    (epochs, report)
}

/// The paired verdict on cost per decision, from `(static, adaptive)`
/// bytes per decision of each seed: the median per-seed difference
/// `adaptive − static`, in bytes and relative to the static mean, and how
/// many seeds each side wins (ties count for neither).
fn paired_cost(pairs: &[(f64, f64)]) -> JsonValue {
    let mut diffs: Vec<f64> = pairs.iter().map(|&(s, a)| a - s).collect();
    diffs.sort_by(f64::total_cmp);
    let n = diffs.len();
    let median = match n {
        0 => 0.0,
        _ if n % 2 == 1 => diffs[n / 2],
        _ => (diffs[n / 2 - 1] + diffs[n / 2]) / 2.0,
    };
    let static_mean = stat(&pairs.iter().map(|&(s, _)| s).collect::<Vec<_>>()).mean;
    let seeds =
        |won: fn(&f64) -> bool| JsonValue::Int(diffs.iter().filter(|d| won(d)).count() as i64);
    JsonValue::Object(vec![
        ("median_diff_bytes".into(), JsonValue::Float(median)),
        (
            "median_diff_rel".into(),
            JsonValue::Float(median / static_mean.max(1.0)),
        ),
        ("seeds_better".into(), seeds(|&d| d < 0.0)),
        ("seeds_worse".into(), seeds(|&d| d > 0.0)),
    ])
}

/// Convergence: rep-averaged per-epoch |predicted − actual| under the
/// learning planner, the static baseline's flat error for contrast, and the
/// paired cost-per-decision verdict.
fn convergence(cfg: &HarnessConfig) -> (JsonValue, JsonValue) {
    let mut adaptive_epochs: Vec<Vec<f64>> = Vec::new();
    let mut adaptive_bytes: Vec<Vec<f64>> = Vec::new();
    let mut static_errors: Vec<f64> = Vec::new();
    let mut costs: Vec<(f64, f64)> = Vec::new();
    let mut resolved_static = 0u64;
    let mut resolved_adaptive = 0u64;
    for r in 0..cfg.reps {
        let seed = cfg.seed + r;
        let (epochs, adaptive) = convergence_rep(seed, true);
        adaptive_epochs.push(epochs.iter().map(|e| e.mean_abs_error).collect());
        adaptive_bytes.push(epochs.iter().map(|e| e.mean_actual_bytes).collect());
        resolved_adaptive += adaptive.resolved as u64;

        let (epochs, fixed) = convergence_rep(seed, false);
        let errs: Vec<f64> = epochs.iter().map(|e| e.mean_abs_error).collect();
        static_errors.push(stat(&errs).mean);
        resolved_static += fixed.resolved as u64;
        if let (Some(s), Some(a)) = (fixed.cost_per_decision(), adaptive.cost_per_decision()) {
            costs.push((s, a));
        }
    }

    // Rep-averaged per-epoch error; truncate to the shortest rep so every
    // epoch averages the same reps.
    let epochs = adaptive_epochs
        .iter()
        .map(Vec::len)
        .min()
        .expect("at least one rep")
        .min(ROUNDS);
    assert!(epochs >= 2, "need at least two epochs to show convergence");
    let epoch_stat = |series: &[Vec<f64>], k: usize| {
        let samples: Vec<f64> = series.iter().map(|rep| rep[k]).collect();
        stat(&samples)
    };
    let error_series: Vec<Stat> = (0..epochs)
        .map(|k| epoch_stat(&adaptive_epochs, k))
        .collect();
    let monotone = error_series
        .windows(2)
        .all(|w| w[1].mean <= w[0].mean * (1.0 + 1e-9));
    assert!(
        monotone,
        "per-epoch |predicted - actual| did not shrink monotonically: {:?}",
        error_series.iter().map(|s| s.mean).collect::<Vec<_>>()
    );
    let shrink: Vec<f64> = adaptive_epochs
        .iter()
        .map(|rep| rep[epochs - 1] / rep[0].max(1e-9))
        .collect();

    let epoch_rows = (0..epochs)
        .map(|k| {
            JsonValue::Object(vec![
                (
                    "abs_error".into(),
                    stat_json(epoch_stat(&adaptive_epochs, k)),
                ),
                (
                    "actual_bytes".into(),
                    stat_json(epoch_stat(&adaptive_bytes, k)),
                ),
            ])
        })
        .collect();
    let section = JsonValue::Object(vec![
        ("epochs".into(), JsonValue::Array(epoch_rows)),
        ("error_shrink_ratio".into(), stat_json(stat(&shrink))),
        ("static_abs_error".into(), stat_json(stat(&static_errors))),
        ("cost_per_decision_paired".into(), paired_cost(&costs)),
    ]);
    let invariant = JsonValue::Object(vec![
        ("epochs".into(), JsonValue::Int(epochs as i64)),
        ("error_monotone".into(), JsonValue::Bool(true)),
        (
            "resolved_static".into(),
            JsonValue::Int(resolved_static as i64),
        ),
        (
            "resolved_adaptive".into(),
            JsonValue::Int(resolved_adaptive as i64),
        ),
    ]);
    (section, invariant)
}

fn main() -> std::io::Result<()> {
    let cfg = HarnessConfig::from_env(5);
    eprintln!(
        "adaptive: scale {}, {} reps, seed {}",
        cfg.scale, cfg.reps, cfg.seed
    );
    let (convergence_json, convergence_invariant) = convergence(&cfg);
    let doc = JsonValue::Object(vec![
        ("bench".into(), JsonValue::Str("adaptive".into())),
        ("scale".into(), JsonValue::Str(cfg.scale.into())),
        ("reps".into(), JsonValue::Int(cfg.reps as i64)),
        ("seed".into(), JsonValue::Int(cfg.seed as i64)),
        (
            "invariant".into(),
            JsonValue::Object(vec![("convergence".into(), convergence_invariant)]),
        ),
        ("convergence".into(), convergence_json),
    ]);
    write_bench_json("BENCH_adaptive.json", &doc)
}
