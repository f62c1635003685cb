//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. **Prefetch** on/off (§VI-A) — readiness vs. bandwidth.
//! 2. **Trust policy** for label sharing (§III-B / §VI-D).
//! 3. **Panorama objects** on/off — the value of multi-label coverage to
//!    source selection.
//! 4. **Cache capacity** sweep — how much store the hop-by-hop caches need.
//! 5. **Band policy** EDF vs. the paper's `min(expiry, deadline)` key for
//!    hierarchical multi-query scheduling (§IV-A).
//! 6. **Aggregation price** — set-aware vs. aggregate-count source
//!    selection (ref \[10]).
//! 7. **Approximate name substitution** (§V-A) — serving same-segment
//!    sibling views instead of the exact object.
//! 8. **Corroboration** (§IV-B) — recovering decision accuracy under
//!    compromised sources by majority over independent evidence.
//! 9. **Anticipatory announcements** (§VIII) — staging evidence ahead of
//!    issue time.
//! 10. **Utility triage** (§V-B) — dropping redundant background pushes.
//! 11. **Medium model** — wired links vs a half-duplex radio per node.
//! 12. **Deployment density** — node count on the same grid.
//! 13. **Adaptive planning** — static priors vs online estimators, and the
//!     admission gate on the overload band (`BENCH_adaptive.json` has the
//!     full convergence study; this row is the headline comparison).
//!
//! Usage: `cargo run -p dde-bench --bin ablations --release`
//! Knobs: `DDE_REPS` (default 5), `DDE_SCALE`, `DDE_SEED`.

use dde_bench::{stat, HarnessConfig};
use dde_core::annotate::TrustPolicy;
use dde_core::engine::{run_scenario, RunOptions, RunReport};
use dde_core::strategy::Strategy;
use dde_coverage::aggregation::aggregation_price;
use dde_coverage::setcover::Source;
use dde_logic::meta::{Cost, Probability};
use dde_logic::time::{SimDuration, SimTime};
use dde_sched::hierarchical::{hierarchical_schedule_with, BandPolicy, QuerySpec};
use dde_sched::item::{Channel, RetrievalItem};
use dde_workload::scenario::{Scenario, ScenarioConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let cfg = HarnessConfig::from_env(5);
    prefetch_ablation(&cfg);
    trust_ablation(&cfg);
    panorama_ablation(&cfg);
    cache_capacity_ablation(&cfg);
    band_policy_ablation();
    aggregation_ablation(&cfg);
    approx_ablation(&cfg);
    corroboration_ablation(&cfg);
    anticipation_ablation(&cfg);
    triage_ablation(&cfg);
    medium_ablation(&cfg);
    density_ablation(&cfg);
    adaptive_ablation(&cfg);
}

fn runs_with(
    cfg: &HarnessConfig,
    strategy: Strategy,
    mutate_scenario: impl Fn(ScenarioConfig) -> ScenarioConfig,
    mutate_options: impl Fn(RunOptions) -> RunOptions,
) -> Vec<RunReport> {
    (0..cfg.reps)
        .map(|r| {
            let seed = cfg.seed + r;
            let scen_cfg = mutate_scenario(cfg.base.clone().with_seed(seed).with_fast_ratio(0.4));
            let scenario = Scenario::build(scen_cfg);
            let mut options = mutate_options(RunOptions::new(strategy));
            options.seed = seed ^ 0xab1a;
            run_scenario(&scenario, options)
        })
        .collect()
}

fn runs(
    cfg: &HarnessConfig,
    mutate_scenario: impl Fn(ScenarioConfig) -> ScenarioConfig,
    mutate_options: impl Fn(RunOptions) -> RunOptions,
) -> Vec<RunReport> {
    runs_with(
        cfg,
        Strategy::LvfLabelShare,
        mutate_scenario,
        mutate_options,
    )
}

fn summarize(label: &str, reports: &[RunReport]) {
    let res: Vec<f64> = reports.iter().map(|r| r.resolution_ratio()).collect();
    let mb: Vec<f64> = reports.iter().map(|r| r.total_megabytes()).collect();
    let lat: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.mean_resolution_latency.map(|d| d.as_secs_f64()))
        .collect();
    println!(
        "  {label:<26} resolution {:.3}±{:.3}  bandwidth {:>7.1}±{:.1} MB  latency {:>5.1} s",
        stat(&res).mean,
        stat(&res).stddev,
        stat(&mb).mean,
        stat(&mb).stddev,
        stat(&lat).mean,
    );
}

fn prefetch_ablation(cfg: &HarnessConfig) {
    println!("== ablation 1: source-side prefetch (lvfl) ==");
    let off = runs(cfg, |c| c, |o| o);
    let on = runs(
        cfg,
        |c| c,
        |mut o| {
            o.prefetch = Some(true);
            o
        },
    );
    summarize("prefetch off", &off);
    summarize("prefetch on (background)", &on);
    let pushes: f64 = on.iter().map(|r| r.prefetch_pushes as f64).sum::<f64>() / on.len() as f64;
    println!("  ({pushes:.0} pushes/run; staging trades bandwidth for readiness)\n");
}

fn trust_ablation(cfg: &HarnessConfig) {
    println!("== ablation 2: trust policy for shared labels (lvfl) ==");
    let all = runs(cfg, |c| c, |o| o);
    let none = runs(
        cfg,
        |c| c,
        |mut o| {
            o.trust = TrustPolicy::TrustNone;
            o
        },
    );
    summarize("trust all annotators", &all);
    summarize("trust none (raw data only)", &none);
    let hits: f64 = all.iter().map(|r| r.label_hits as f64).sum::<f64>() / all.len() as f64;
    println!("  (trusting nodes served {hits:.0} requests/run from labels instead of data)\n");
}

fn panorama_ablation(cfg: &HarnessConfig) {
    println!("== ablation 3: multi-segment panorama objects ==");
    let with = runs(cfg, |c| c, |o| o);
    let without = runs(
        cfg,
        |mut c| {
            c.panoramas = false;
            c
        },
        |o| o,
    );
    summarize("panoramas advertised", &with);
    summarize("single-segment cameras only", &without);
    println!("  (panoramas let one fetch resolve several predicates, §III-B)\n");
}

fn cache_capacity_ablation(cfg: &HarnessConfig) {
    // Measured under lvf: label sharing (lvfl) substitutes for object
    // caches almost entirely, so the store only matters when raw evidence
    // must travel.
    println!("== ablation 4: content-store capacity (lvf) ==");
    for capacity in [1_200_000u64, 4_000_000, 16_000_000, 64_000_000] {
        let reports = runs_with(
            cfg,
            Strategy::Lvf,
            |c| c,
            |mut o| {
                o.cache_capacity = capacity;
                o
            },
        );
        summarize(
            &format!("{:>5.1} MB / node", capacity as f64 / 1e6),
            &reports,
        );
    }
    println!();
}

fn band_policy_ablation() {
    println!("== ablation 5: hierarchical band policy (synthetic multi-query workloads) ==");
    let mut rng = SmallRng::seed_from_u64(42);
    let mut edf_ok = 0usize;
    let mut paper_ok = 0usize;
    let instances = 500;
    for _ in 0..instances {
        let queries: Vec<QuerySpec> = (0..3)
            .map(|q| {
                let items: Vec<RetrievalItem> = (0..rng.gen_range(1..4))
                    .map(|i| {
                        RetrievalItem::new(
                            format!("q{q}o{i}"),
                            Cost::from_bytes(rng.gen_range(50_000..400_000)),
                            SimDuration::from_millis(rng.gen_range(500..6000)),
                        )
                        .with_prob(Probability::clamped(0.8))
                    })
                    .collect();
                QuerySpec::new(items, SimDuration::from_millis(rng.gen_range(1000..8000)))
            })
            .collect();
        let edf = hierarchical_schedule_with(
            &queries,
            Channel::mbps1(),
            SimTime::ZERO,
            BandPolicy::EarliestDeadlineFirst,
        );
        let paper = hierarchical_schedule_with(
            &queries,
            Channel::mbps1(),
            SimTime::ZERO,
            BandPolicy::MinExpiryOrDeadline,
        );
        edf_ok += edf.feasible_count();
        paper_ok += paper.feasible_count();
    }
    println!(
        "  EDF bands                  {edf_ok}/{} queries feasible",
        instances * 3
    );
    println!(
        "  min(expiry,deadline) bands {paper_ok}/{} queries feasible",
        instances * 3
    );
    println!("  (EDF is provably optimal when sensors sample at retrieval start, §IV-A)\n");
}

fn approx_ablation(cfg: &HarnessConfig) {
    // Substitution needs requester disagreement about providers; the
    // redundancy-heavy cmp scheme is where sibling views actually help.
    println!("== ablation 7: approximate name substitution (§V-A) ==");
    for strategy in [Strategy::Comprehensive, Strategy::LvfLabelShare] {
        let exact = runs_with(cfg, strategy, |c| c, |o| o);
        let approx = runs_with(
            cfg,
            strategy,
            |c| c,
            |mut o| {
                o.approx_min_shared = Some(3); // same road segment
                o
            },
        );
        summarize(&format!("{strategy}: exact names only"), &exact);
        summarize(&format!("{strategy}: substitute segment"), &approx);
        let hits: f64 =
            approx.iter().map(|r| r.approx_hits as f64).sum::<f64>() / approx.len() as f64;
        println!("  ({hits:.0} requests/run served by a sibling view)");
    }
    println!();
}

fn corroboration_ablation(cfg: &HarnessConfig) {
    use dde_core::annotate::BiasedSourcesAnnotator;
    use dde_core::engine::run_scenario_with_annotator;
    use dde_netsim::topology::NodeId;
    use std::sync::Arc;

    println!("== ablation 8: evidence corroboration under compromised sources (§IV-B) ==");
    // Three of the ~30 sensor hosts consistently misread their evidence.
    // The deadline is tripled for both arms: corroboration fetches up to 3×
    // the evidence, and the question here is accuracy, not timeliness.
    let bad = [NodeId(0), NodeId(1), NodeId(2)];
    for k in [1usize, 3] {
        let reports: Vec<_> = (0..cfg.reps)
            .map(|r| {
                let seed = cfg.seed + r;
                let mut scen_cfg = cfg.base.clone().with_seed(seed).with_fast_ratio(0.2);
                scen_cfg.deadline = scen_cfg.deadline * 3;
                scen_cfg.fast_validity = scen_cfg.fast_validity * 3;
                // Guarantee three *independent* views per segment; majority
                // voting is meaningless with fewer distinct sources.
                scen_cfg.min_sources_per_segment = 3;
                let scenario = Scenario::build(scen_cfg);
                let mut options = RunOptions::new(Strategy::Lvf);
                options.corroboration = k;
                options.seed = seed ^ 0xc0;
                run_scenario_with_annotator(
                    &scenario,
                    options,
                    Arc::new(BiasedSourcesAnnotator::new(bad)),
                )
            })
            .collect();
        let acc: Vec<f64> = reports.iter().map(|r| r.accuracy()).collect();
        let mb: Vec<f64> = reports.iter().map(|r| r.total_megabytes()).collect();
        let res: Vec<f64> = reports.iter().map(|r| r.resolution_ratio()).collect();
        println!(
            "  corroboration k={k}            accuracy {:.3}±{:.3}  resolution {:.3}  bandwidth {:>7.1} MB",
            stat(&acc).mean,
            stat(&acc).stddev,
            stat(&res).mean,
            stat(&mb).mean,
        );
    }
    println!("  (majority over independent views outvotes compromised sensors)\n");
}

fn anticipation_ablation(cfg: &HarnessConfig) {
    println!("== ablation 9: anticipatory announcements (§VIII, lvfl + prefetch) ==");
    let offset = |mut c: ScenarioConfig| {
        c.issue_offset = SimDuration::from_secs(60);
        c
    };
    let plain = runs(cfg, offset, |mut o| {
        o.prefetch = Some(true);
        o
    });
    let anticipated = runs(cfg, offset, |mut o| {
        o.prefetch = Some(true);
        o.announce_lead = Some(SimDuration::from_secs(45));
        o
    });
    summarize("announce at issue time", &plain);
    summarize("announce 45 s ahead", &anticipated);
    println!("  (knowing the decision early lets sources stage evidence before it is needed)\n");
}

fn triage_ablation(cfg: &HarnessConfig) {
    println!("== ablation 10: information-utility triage of background pushes (§V-B) ==");
    let plain = runs(
        cfg,
        |c| c,
        |mut o| {
            o.prefetch = Some(true);
            o
        },
    );
    let triaged = runs(
        cfg,
        |c| c,
        |mut o| {
            o.prefetch = Some(true);
            o.triage_threshold = Some(0.5); // drop same-segment re-pushes
            o
        },
    );
    summarize("prefetch, no triage", &plain);
    summarize("prefetch + utility triage", &triaged);
    let drops: f64 =
        triaged.iter().map(|r| r.triage_drops as f64).sum::<f64>() / triaged.len() as f64;
    println!(
        "  ({drops:.0} redundant pushes dropped/run — \"10 pictures of the same\n   bridge do not offer 10× more information\")\n"
    );
}

fn medium_ablation(cfg: &HarnessConfig) {
    println!("== ablation 11: medium model — wired links vs one radio per node ==");
    for strategy in [Strategy::LowestCostFirst, Strategy::LvfLabelShare] {
        let wired = runs_with(cfg, strategy, |c| c, |o| o);
        let radio = runs_with(
            cfg,
            strategy,
            |c| c,
            |mut o| {
                o.medium = dde_netsim::MediumMode::HalfDuplexTx;
                o
            },
        );
        summarize(&format!("{strategy}: full duplex"), &wired);
        summarize(&format!("{strategy}: half-duplex radio"), &radio);
    }
    println!(
        "  (a shared transmitter per node tightens the bottleneck; the\n   decision-driven ordering advantage grows accordingly)\n"
    );
}

fn density_ablation(cfg: &HarnessConfig) {
    println!("== ablation 12: deployment density (Athena nodes on the same grid) ==");
    for nodes in [15usize, 30, 45] {
        for strategy in [Strategy::LowestCostFirst, Strategy::LvfLabelShare] {
            let reports = runs_with(
                cfg,
                strategy,
                |mut c| {
                    c.node_count = nodes;
                    c
                },
                |o| o,
            );
            summarize(&format!("{nodes} nodes, {strategy}"), &reports);
        }
    }
    println!(
        "  (more nodes = more queries AND more sensors/caches; decision-driven\n   retrieval turns density into reuse instead of congestion)\n"
    );
}

fn adaptive_ablation(cfg: &HarnessConfig) {
    println!("== ablation 13: adaptive planning — static priors vs online estimators ==");
    let fixed = runs_with(cfg, Strategy::Lvf, |c| c, |o| o);
    let learned = runs_with(
        cfg,
        Strategy::Lvf,
        |c| c,
        |mut o| {
            o.adaptive = Some(dde_sched::adaptive::AdaptiveConfig::default());
            o
        },
    );
    summarize("lvf, static 0.8 prior", &fixed);
    summarize("lvf, learned estimators", &learned);
    // The admission gate only earns its keep when the band is actually
    // overloaded: a query burst on a half-duplex radio medium.
    let overload = |c: ScenarioConfig| ScenarioConfig::overload().with_seed(c.seed);
    let radio = |mut o: RunOptions| {
        o.medium = dde_netsim::MediumMode::HalfDuplexTx;
        o
    };
    let ungated = runs_with(cfg, Strategy::Lvf, overload, radio);
    let gated = runs_with(cfg, Strategy::Lvf, overload, |o| {
        let mut o = radio(o);
        o.adaptive = Some(dde_sched::adaptive::AdaptiveConfig {
            admission: Some(dde_sched::adaptive::AdmissionPolicy::default()),
            ..dde_sched::adaptive::AdaptiveConfig::default()
        });
        o
    });
    summarize("overload burst, no gate", &ungated);
    summarize("overload burst, admission", &gated);
    let shed: u64 = gated.iter().map(|r| r.admission_shed).sum();
    let deferred: u64 = gated.iter().map(|r| r.admission_deferred).sum();
    println!(
        "  ({} shed, {} deferred across {} runs; the gate spends its deadline\n   slack on queries it predicts it can still afford)\n",
        shed,
        deferred,
        gated.len()
    );
}

fn aggregation_ablation(cfg: &HarnessConfig) {
    println!("== ablation 6: price of aggregating coverage values (ref [10]) ==");
    let mut ratios = Vec::new();
    let mut misses = Vec::new();
    for r in 0..cfg.reps {
        let scenario = Scenario::build(cfg.base.clone().with_seed(cfg.seed + r));
        for q in scenario.queries.iter().take(10) {
            let needed = q.expr.labels();
            let sources: Vec<Source<usize>> = scenario
                .catalog
                .objects()
                .iter()
                .enumerate()
                .filter(|(_, o)| o.covers.iter().any(|l| needed.contains(l)))
                .map(|(i, o)| {
                    Source::new(
                        i,
                        o.covers.iter().filter(|l| needed.contains(*l)).cloned(),
                        Cost::from_bytes(o.size),
                    )
                })
                .collect();
            let price = aggregation_price(&needed, &sources);
            if price.cost_ratio.is_finite() {
                ratios.push(price.cost_ratio);
            }
            misses.push(price.aggregate_misses as f64);
        }
    }
    println!(
        "  aggregate/set-aware cost ratio {:.2}±{:.2}; labels silently missed {:.1}/query\n",
        stat(&ratios).mean,
        stat(&ratios).stddev,
        stat(&misses).mean,
    );
}
