//! End-to-end integration tests: full Athena runs over generated scenarios,
//! checking the cross-crate invariants the paper's evaluation relies on.

use dde_core::prelude::*;
use dde_workload::prelude::*;

fn scenario(seed: u64, fast_ratio: f64) -> Scenario {
    Scenario::build(
        ScenarioConfig::small()
            .with_seed(seed)
            .with_fast_ratio(fast_ratio),
    )
}

#[test]
fn every_query_reaches_a_terminal_state() {
    for strategy in Strategy::ALL {
        let s = scenario(10, 0.4);
        let r = run_scenario(&s, RunOptions::new(strategy));
        assert_eq!(
            r.resolved + r.missed,
            r.total_queries,
            "{strategy}: {} resolved + {} missed != {}",
            r.resolved,
            r.missed,
            r.total_queries
        );
    }
}

#[test]
fn decision_driven_strategies_resolve_more() {
    // A stressed variant of the small scenario (short deadline, full
    // dynamics, multiple queries per node), aggregated over seeds.
    let mut cmp_total = 0usize;
    let mut lvf_total = 0usize;
    for seed in 0..2 {
        let cfg = ScenarioConfig::default()
            .with_seed(20 + seed)
            .with_fast_ratio(0.8);
        let s = Scenario::build(cfg);
        cmp_total += run_scenario(&s, RunOptions::new(Strategy::Comprehensive)).resolved;
        lvf_total += run_scenario(&s, RunOptions::new(Strategy::Lvf)).resolved;
    }
    assert!(
        lvf_total > cmp_total,
        "lvf resolved {lvf_total} vs cmp {cmp_total}"
    );
}

#[test]
fn decision_driven_strategies_use_less_bandwidth() {
    let mut cmp_bytes = 0u64;
    let mut lvf_bytes = 0u64;
    for seed in 0..4 {
        let s = scenario(30 + seed, 0.4);
        cmp_bytes += run_scenario(&s, RunOptions::new(Strategy::Comprehensive)).total_bytes;
        lvf_bytes += run_scenario(&s, RunOptions::new(Strategy::Lvf)).total_bytes;
    }
    assert!(
        lvf_bytes < cmp_bytes,
        "lvf used {lvf_bytes} vs cmp {cmp_bytes}"
    );
}

#[test]
fn label_sharing_reduces_data_bytes() {
    let mut lvf_data = 0u64;
    let mut lvfl_data = 0u64;
    for seed in 0..4 {
        let s = scenario(40 + seed, 0.4);
        let lvf = run_scenario(&s, RunOptions::new(Strategy::Lvf));
        let lvfl = run_scenario(&s, RunOptions::new(Strategy::LvfLabelShare));
        lvf_data += *lvf.bytes_by_kind.get("data").unwrap_or(&0);
        lvfl_data += *lvfl.bytes_by_kind.get("data").unwrap_or(&0);
    }
    assert!(
        lvfl_data <= lvf_data,
        "label sharing should not increase data bytes: {lvfl_data} vs {lvf_data}"
    );
}

#[test]
fn ground_truth_decisions_are_accurate() {
    for strategy in [
        Strategy::Lvf,
        Strategy::LvfLabelShare,
        Strategy::LowestCostFirst,
    ] {
        let s = scenario(50, 0.4);
        let r = run_scenario(&s, RunOptions::new(strategy));
        assert!(r.resolved > 0, "{strategy}: nothing resolved");
        assert_eq!(
            r.accuracy(),
            1.0,
            "{strategy}: decisions based on fresh ground-truth annotations must be accurate"
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let s = scenario(60, 0.4);
    let a = run_scenario(&s, RunOptions::new(Strategy::LvfLabelShare));
    let b = run_scenario(&s, RunOptions::new(Strategy::LvfLabelShare));
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.resolved, b.resolved);
    assert_eq!(a.events, b.events);
    assert_eq!(a.mean_resolution_latency, b.mean_resolution_latency);
}

#[test]
fn higher_dynamics_never_help_baselines() {
    // The Fig. 2 trend: cmp's resolution ratio is (weakly) worse at much
    // higher dynamics, aggregated over seeds.
    let mut calm = 0usize;
    let mut stormy = 0usize;
    for seed in 0..4 {
        calm += run_scenario(
            &scenario(70 + seed, 0.0),
            RunOptions::new(Strategy::Comprehensive),
        )
        .resolved;
        stormy += run_scenario(
            &scenario(70 + seed, 1.0),
            RunOptions::new(Strategy::Comprehensive),
        )
        .resolved;
    }
    assert!(
        stormy <= calm,
        "cmp resolved more under max dynamics ({stormy}) than none ({calm})"
    );
}

#[test]
fn distrust_forces_raw_data() {
    // With TrustNone, lvfl degenerates to lvf-like behavior: no label hits.
    let s = scenario(80, 0.4);
    let mut opts = RunOptions::new(Strategy::LvfLabelShare);
    opts.trust = TrustPolicy::TrustNone;
    let r = run_scenario(&s, opts);
    assert_eq!(
        r.label_hits, 0,
        "distrusting nodes must not consume shared labels"
    );
    assert_eq!(r.resolved + r.missed, r.total_queries);
}

#[test]
fn prefetch_stages_content_without_hurting_resolution() {
    let mut off_res = 0usize;
    let mut on_res = 0usize;
    let mut pushes = 0u64;
    for seed in 0..3 {
        let s = scenario(90 + seed, 0.2);
        let off = run_scenario(&s, RunOptions::new(Strategy::Lvf));
        let mut opts = RunOptions::new(Strategy::Lvf);
        opts.prefetch = true;
        let on = run_scenario(&s, opts);
        off_res += off.resolved;
        on_res += on.resolved;
        pushes += on.prefetch_pushes;
        assert_eq!(off.prefetch_pushes, 0);
    }
    assert!(pushes > 0, "prefetch should actually push");
    // Background pushes must not materially hurt resolution.
    assert!(
        on_res + 2 >= off_res,
        "prefetch degraded resolution: {on_res} vs {off_res}"
    );
}

#[test]
fn paper_scale_scenario_smoke() {
    // One full-size run (8×8, 30 nodes, 90 queries) to catch scaling bugs;
    // release-mode benches cover the real sweeps.
    let s = Scenario::build(ScenarioConfig::default().with_seed(5).with_fast_ratio(0.4));
    let r = run_scenario(&s, RunOptions::new(Strategy::LvfLabelShare));
    assert_eq!(r.total_queries, 90);
    assert!(
        r.resolution_ratio() > 0.8,
        "lvfl at paper scale resolved only {:.2}",
        r.resolution_ratio()
    );
    assert_eq!(r.accuracy(), 1.0);
}
