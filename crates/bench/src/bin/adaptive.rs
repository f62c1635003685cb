//! Regenerates **BENCH_adaptive.json**: the online-adaptive-planning gate.
//!
//! Two experiments, one JSON document:
//!
//! - **Convergence** (churn band): the same decision queries recur
//!   periodically while nodes churn, and every completed query is scored by
//!   the [`FeedbackSink`] — `|predicted − actual|` attributed bytes,
//!   aggregated into epochs of one query round each. With the adaptive
//!   estimators on, later epochs predict better than earlier ones: the
//!   rep-averaged per-epoch error must shrink **monotonically**, and the
//!   binary asserts it before writing anything. The per-epoch series is
//!   written as `{mean, stddev}` stat objects over the seeded reps; the
//!   epoch count and monotonicity flag go in the `invariant` block.
//! - **Admission** (overload band): every node issues a burst of
//!   near-simultaneous queries. The static planner admits everything and
//!   saturates; the adaptive run sheds or defers part of the burst once
//!   its load estimator sees the overload.
//!
//! Every number is a deterministic function of the seed; the baselines
//! test compares the whole document byte for byte.
//!
//! Usage: `cargo run -p dde-bench --bin adaptive --release`
//! Knobs: `DDE_REPS` (default 5), `DDE_SCALE`, `DDE_SEED`.

use dde_bench::{stat, write_bench_json, HarnessConfig, Stat};
use dde_core::engine::{run_scenario_observed, RunOptions, RunReport};
use dde_core::strategy::Strategy;
use dde_logic::time::SimDuration;
use dde_obs::feedback::FeedbackSink;
use dde_obs::{JsonValue, NullSink, SharedSink};
use dde_sched::adaptive::{AdaptiveConfig, AdmissionPolicy};
use dde_workload::scenario::{Scenario, ScenarioConfig};

fn stat_json(st: Stat) -> JsonValue {
    JsonValue::Object(vec![
        ("mean".into(), JsonValue::Float(st.mean)),
        ("stddev".into(), JsonValue::Float(st.stddev)),
    ])
}

/// Query rounds in the convergence experiment (== expected epochs). Three
/// rounds span the estimators' convergence; past that the error sits on
/// its noise floor and the monotonicity assertion would be a coin flip.
const ROUNDS: usize = 3;

/// One rep of the convergence band: periodic queries under churn, scored by
/// a [`FeedbackSink`]. Returns the per-epoch feedback stats and the report.
fn convergence_rep(
    seed: u64,
    adaptive: Option<AdaptiveConfig>,
) -> (Vec<dde_obs::EpochStats>, RunReport) {
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
    // what the estimators can learn (truth rates, reliability, systematic
    // model bias), not from the size lottery of which camera serves a
    // segment.
    cfg.min_object_bytes = 400_000;
    cfg.max_object_bytes = 400_000;
    // Churn is drawn by Scenario::build before the periodic expansion, so
    // every crash lands in the first round: the estimators take their
    // reliability lessons (and their worst predictions) up front, and the
    // later epochs measure what those lessons bought.
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

/// Convergence: rep-averaged per-epoch |predicted − actual| under the
/// learning planner, plus the static baseline's flat error for contrast.
fn convergence(cfg: &HarnessConfig) -> (JsonValue, JsonValue) {
    let learn_cfg = AdaptiveConfig::default();
    let mut adaptive_epochs: Vec<Vec<f64>> = Vec::new();
    let mut adaptive_bytes: Vec<Vec<f64>> = Vec::new();
    let mut static_errors: Vec<f64> = Vec::new();
    let mut static_cost: Vec<f64> = Vec::new();
    let mut adaptive_cost: Vec<f64> = Vec::new();
    let mut resolved_static = 0u64;
    let mut resolved_adaptive = 0u64;
    for r in 0..cfg.reps {
        let seed = cfg.seed + r;
        let (epochs, report) = convergence_rep(seed, Some(learn_cfg));
        adaptive_epochs.push(epochs.iter().map(|e| e.mean_abs_error).collect());
        adaptive_bytes.push(epochs.iter().map(|e| e.mean_actual_bytes).collect());
        if let Some(c) = report.cost_per_decision() {
            adaptive_cost.push(c);
        }
        resolved_adaptive += report.resolved as u64;

        let (epochs, report) = convergence_rep(seed, None);
        let errs: Vec<f64> = epochs.iter().map(|e| e.mean_abs_error).collect();
        static_errors.push(stat(&errs).mean);
        if let Some(c) = report.cost_per_decision() {
            static_cost.push(c);
        }
        resolved_static += report.resolved as u64;
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
        (
            "static_cost_per_decision".into(),
            stat_json(stat(&static_cost)),
        ),
        (
            "adaptive_cost_per_decision".into(),
            stat_json(stat(&adaptive_cost)),
        ),
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

/// Admission: the overload band with and without the admission gate.
fn admission(cfg: &HarnessConfig) -> (JsonValue, JsonValue) {
    // Tighter than the default policy so the 45 s deadline band exercises
    // both verdicts: two 12 s deferrals burn 24 s of slack, and a query
    // still facing overload after that is shed instead of limping to a
    // deadline miss.
    let gated = AdaptiveConfig {
        admission: Some(AdmissionPolicy {
            overload_bytes: 2_000_000,
            defer_for: SimDuration::from_secs(12),
            max_defers: 2,
            ..AdmissionPolicy::default()
        }),
        ..AdaptiveConfig::default()
    };
    let mut shed = 0u64;
    let mut deferred = 0u64;
    let mut res_static: Vec<f64> = Vec::new();
    let mut res_gated: Vec<f64> = Vec::new();
    let mut mb_static: Vec<f64> = Vec::new();
    let mut mb_gated: Vec<f64> = Vec::new();
    for r in 0..cfg.reps {
        let seed = cfg.seed + r;
        let scenario = Scenario::build(ScenarioConfig::overload().with_seed(seed));
        let run = |adaptive: Option<AdaptiveConfig>| {
            let mut options = RunOptions::new(Strategy::Lvf);
            options.seed = seed ^ 0xada;
            options.adaptive = adaptive;
            // One shared transmitter per node (the paper's wireless
            // emulation): the burst actually contends for the medium
            // instead of fanning out over independent wired links.
            options.medium = dde_netsim::MediumMode::HalfDuplexTx;
            run_scenario_observed(&scenario, options, Box::new(NullSink))
        };
        let s = run(None);
        let g = run(Some(gated));
        shed += g.admission_shed;
        deferred += g.admission_deferred;
        res_static.push(s.resolution_ratio());
        res_gated.push(g.resolution_ratio());
        mb_static.push(s.total_megabytes());
        mb_gated.push(g.total_megabytes());
    }
    let section = JsonValue::Object(vec![
        ("resolution_static".into(), stat_json(stat(&res_static))),
        ("resolution_gated".into(), stat_json(stat(&res_gated))),
        ("megabytes_static".into(), stat_json(stat(&mb_static))),
        ("megabytes_gated".into(), stat_json(stat(&mb_gated))),
    ]);
    let invariant = JsonValue::Object(vec![
        ("admission_shed".into(), JsonValue::Int(shed as i64)),
        ("admission_deferred".into(), JsonValue::Int(deferred as i64)),
        ("gate_engaged".into(), JsonValue::Bool(shed + deferred > 0)),
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
    let (admission_json, admission_invariant) = admission(&cfg);
    let doc = JsonValue::Object(vec![
        ("bench".into(), JsonValue::Str("adaptive".into())),
        ("scale".into(), JsonValue::Str(cfg.scale.into())),
        ("reps".into(), JsonValue::Int(cfg.reps as i64)),
        ("seed".into(), JsonValue::Int(cfg.seed as i64)),
        (
            "invariant".into(),
            JsonValue::Object(vec![
                ("convergence".into(), convergence_invariant),
                ("admission".into(), admission_invariant),
            ]),
        ),
        ("convergence".into(), convergence_json),
        ("admission".into(), admission_json),
    ]);
    write_bench_json("BENCH_adaptive.json", &doc)
}
