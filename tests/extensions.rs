//! Integration tests for the paper's extension features:
//! approximate name substitution with criticality exemption (§V-A/V-C),
//! evidence corroboration under noisy sensing, and source-reliability
//! profiles (§IV-B).

use dde_core::annotate::BiasedSourcesAnnotator;
use dde_core::prelude::*;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_naming::criticality::{Criticality, CriticalityMap};
use dde_netsim::topology::{LinkSpec, NodeId, Topology};
use dde_workload::catalog::{Catalog, ObjectSpec};
use dde_workload::grid::RoadGrid;
use dde_workload::scenario::{QueryInstance, Scenario, ScenarioConfig};
use dde_workload::world::{DynamicsClass, WorldModel};
use std::sync::Arc;

/// A–B–C line; segment `x` is observed by a cheap single-label camera
/// (source C) and an expensive wide camera covering labels `x` and `y`
/// (also source C). A query at B for `y` stages the wide shot at B; a later
/// query at A for `x` asks for the cheap camera, which B can substitute
/// approximately.
fn approx_scenario() -> Scenario {
    let mut config = ScenarioConfig::small();
    config.deadline = SimDuration::from_secs(60);
    config.prob_viable = 1.0;

    let topology = Topology::line(3, LinkSpec::mbps1());
    let slow = SimDuration::from_secs(600);

    let mut world = WorldModel::new(8);
    world.register(Label::new("x"), DynamicsClass::Slow, slow, 1.0);
    world.register(Label::new("y"), DynamicsClass::Slow, slow, 1.0);

    let mut catalog = Catalog::new();
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/a".parse().unwrap(),
        covers: vec![Label::new("x")],
        size: 300_000,
        source: NodeId(2),
        class: DynamicsClass::Slow,
        validity: slow,
    });
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/wide".parse().unwrap(),
        covers: vec![Label::new("x"), Label::new("y")],
        size: 800_000,
        source: NodeId(2),
        class: DynamicsClass::Slow,
        validity: slow,
    });

    let queries = vec![
        QueryInstance {
            id: 0,
            origin: NodeId(1), // B fetches the wide camera (only provider of y)
            expr: Dnf::from_terms(vec![Term::all_of(["y"])]),
            deadline: config.deadline,
            issue_at: SimTime::ZERO,
        },
        QueryInstance {
            id: 1,
            origin: NodeId(0), // A asks for the cheap camera for x
            expr: Dnf::from_terms(vec![Term::all_of(["x"])]),
            deadline: config.deadline,
            issue_at: SimTime::from_secs(15),
        },
    ];

    Scenario {
        grid: RoadGrid::new(2, 2),
        node_sites: Vec::new(),
        config,
        topology,
        world,
        catalog,
        queries,
        faults: dde_netsim::fault::FaultSchedule::new(),
    }
}

#[test]
fn approximate_substitution_serves_sibling_view() {
    let s = approx_scenario();
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.approx_min_shared = Some(3); // must agree on /city/seg/<segment>
    let r = run_scenario(&s, opts);
    assert_eq!(r.resolved, 2);
    assert_eq!(r.accuracy(), 1.0);
    assert!(
        r.approx_hits >= 1,
        "B should substitute the staged wide shot for the cheap camera"
    );
}

#[test]
fn approximate_substitution_off_by_default() {
    let s = approx_scenario();
    let r = run_scenario(&s, RunOptions::new(Strategy::Lvf));
    assert_eq!(r.approx_hits, 0);
    assert_eq!(r.resolved, 2);
}

#[test]
fn high_min_shared_blocks_substitution() {
    let s = approx_scenario();
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.approx_min_shared = Some(5); // names differ at component 4
    let r = run_scenario(&s, opts);
    assert_eq!(r.approx_hits, 0);
}

#[test]
fn critical_namespace_exempt_from_substitution() {
    let s = approx_scenario();
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.approx_min_shared = Some(3);
    let mut crit = CriticalityMap::new();
    crit.assign(&"/city/seg/x".parse().unwrap(), Criticality::Critical);
    opts.criticality = crit;
    let r = run_scenario(&s, opts);
    assert_eq!(
        r.approx_hits, 0,
        "critical content must always be served exactly (§V-C)"
    );
    assert_eq!(r.resolved, 2, "the exact fetch still succeeds");
}

/// A generated scenario judged by an annotator that inverts evidence from
/// two compromised source nodes.
fn biased_run(corroboration: usize, seed: u64) -> RunReport {
    let s = Scenario::build(ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.2));
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.corroboration = corroboration;
    run_scenario_with_annotator(
        &s,
        opts,
        Arc::new(BiasedSourcesAnnotator::new([NodeId(0), NodeId(1)])),
    )
}

#[test]
fn corroboration_recovers_accuracy_under_biased_sources() {
    let mut single = 0.0;
    let mut triple = 0.0;
    let mut n = 0.0;
    // Averaged over enough seeds for the corroboration effect to dominate
    // per-seed noise (a 4-seed window is swung by individual scenarios).
    for seed in 0..16 {
        let r1 = biased_run(1, 100 + seed);
        let r3 = biased_run(3, 100 + seed);
        assert_eq!(r1.resolved + r1.missed, r1.total_queries);
        assert_eq!(r3.resolved + r3.missed, r3.total_queries);
        single += r1.accuracy();
        triple += r3.accuracy();
        n += 1.0;
    }
    assert!(
        triple / n >= single / n,
        "3-way corroboration should not be less accurate: {:.2} vs {:.2}",
        triple / n,
        single / n
    );
}

#[test]
fn corroboration_costs_more_bandwidth() {
    let s = Scenario::build(ScenarioConfig::small().with_seed(7).with_fast_ratio(0.2));
    let plain = run_scenario(&s, RunOptions::new(Strategy::Lvf));
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.corroboration = 3;
    let corr = run_scenario(&s, opts);
    assert!(
        corr.total_bytes > plain.total_bytes,
        "gathering extra evidence must cost bandwidth: {} vs {}",
        corr.total_bytes,
        plain.total_bytes
    );
    assert_eq!(corr.resolved + corr.missed, corr.total_queries);
}

#[test]
fn corroboration_with_single_provider_degrades_gracefully() {
    // The fig-1-like scenario has one provider per label; corroboration=3
    // must fall back to accepting the lone vote instead of hanging.
    let mut s = approx_scenario();
    // Remove the wide camera so each label has exactly one provider.
    let mut catalog = Catalog::new();
    catalog.add(ObjectSpec {
        name: "/city/seg/x/cam/a".parse().unwrap(),
        covers: vec![Label::new("x")],
        size: 300_000,
        source: NodeId(2),
        class: DynamicsClass::Slow,
        validity: SimDuration::from_secs(600),
    });
    s.catalog = catalog;
    s.queries.truncate(1);
    s.queries[0].expr = Dnf::from_terms(vec![Term::all_of(["x"])]);
    s.queries[0].origin = NodeId(0);
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.corroboration = 3;
    let r = run_scenario(&s, opts);
    assert_eq!(r.resolved, 1, "single-provider labels must still resolve");
}

#[test]
fn reliability_profiles_learn_bad_sources() {
    // Corroborated runs accumulate per-object agreement statistics; the
    // compromised sources' objects must end up with worse scores on the
    // querying nodes.
    let s = Scenario::build(ScenarioConfig::small().with_seed(11).with_fast_ratio(0.0));
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.corroboration = 3;
    let bad = [NodeId(0), NodeId(1)];
    // Run manually to keep the simulator (run_scenario consumes it), using
    // the engine's building blocks.
    use dde_core::node::{AthenaNode, NodeConfig, SharedWorld};
    use dde_netsim::ShardedSimulator;
    let mut config = NodeConfig::new(Strategy::Lvf);
    config.corroboration = 3;
    config.prob_true_prior = s.config.prob_viable;
    let shared = Arc::new(SharedWorld {
        catalog: s.catalog.clone(),
        world: s.world.clone(),
        config,
    });
    let annotator = Arc::new(BiasedSourcesAnnotator::new(bad));
    let nodes: Vec<AthenaNode> = (0..s.topology.len())
        .map(|_| AthenaNode::new(Arc::clone(&shared), annotator.clone()))
        .collect();
    let mut sim = ShardedSimulator::new(s.topology.clone(), nodes, 3, 1);
    for q in &s.queries {
        sim.schedule_external(q.issue_at, q.origin, q.clone().into());
    }
    sim.run_until(SimTime::from_secs(400));

    let mut bad_agree = 0u64;
    let mut bad_disagree = 0u64;
    let mut good_agree = 0u64;
    let mut good_disagree = 0u64;
    for node in sim.nodes() {
        for source in (0..s.topology.len()).map(NodeId) {
            let (a, d) = node.reliability_of(source);
            if bad.contains(&source) {
                bad_agree += a;
                bad_disagree += d;
            } else {
                good_agree += a;
                good_disagree += d;
            }
        }
    }
    assert!(
        bad_disagree + good_disagree + bad_agree + good_agree > 0,
        "corroboration should have produced feedback"
    );
    let bad_score = bad_agree as f64 / (bad_agree + bad_disagree).max(1) as f64;
    let good_score = good_agree as f64 / (good_agree + good_disagree).max(1) as f64;
    assert!(
        good_score > bad_score,
        "good sources should profile better: good {good_score:.2} vs bad {bad_score:.2}"
    );
}

#[test]
fn anticipatory_announcement_cuts_latency() {
    // §VIII: announcing the decision structure ahead of issue time lets
    // sources stage evidence, so the decision lands sooner.
    let mut cfg = ScenarioConfig::small().with_seed(21).with_fast_ratio(0.2);
    cfg.issue_offset = SimDuration::from_secs(60);
    let s = Scenario::build(cfg);

    let mut plain = RunOptions::new(Strategy::LvfLabelShare);
    plain.prefetch = Some(true);
    let r_plain = run_scenario(&s, plain);

    let mut ahead = RunOptions::new(Strategy::LvfLabelShare);
    ahead.prefetch = Some(true);
    ahead.announce_lead = Some(SimDuration::from_secs(45));
    let r_ahead = run_scenario(&s, ahead);

    assert!(r_ahead.resolved >= r_plain.resolved);
    let (Some(l_ahead), Some(l_plain)) = (
        r_ahead.mean_resolution_latency,
        r_plain.mean_resolution_latency,
    ) else {
        panic!("both runs should decide something");
    };
    assert!(
        l_ahead <= l_plain,
        "anticipation should not slow decisions: {l_ahead} vs {l_plain}"
    );
}

#[test]
fn periodic_queries_reuse_network_state() {
    // §IV-B periodic decisions: under label sharing, repeating the same
    // queries costs much less than 2× a single round, because the second
    // round is served from labels and caches that the first round left
    // behind (slow labels outlive the period).
    let base = Scenario::build(ScenarioConfig::small().with_seed(23).with_fast_ratio(0.0));
    let single = run_scenario(&base, RunOptions::new(Strategy::LvfLabelShare));

    let periodic = Scenario::build(ScenarioConfig::small().with_seed(23).with_fast_ratio(0.0))
        .with_periodic_queries(SimDuration::from_secs(200), 2);
    let double = run_scenario(&periodic, RunOptions::new(Strategy::LvfLabelShare));

    assert_eq!(double.total_queries, single.total_queries * 2);
    assert_eq!(
        double.resolved, double.total_queries,
        "periodic rounds should all resolve"
    );
    assert!(
        (double.total_bytes as f64) < single.total_bytes as f64 * 1.7,
        "second round should ride on cached state: {} vs 2x{}",
        double.total_bytes,
        single.total_bytes
    );
}

#[test]
fn utility_triage_drops_redundant_pushes() {
    // §V-B: with triage on, redundant background pushes are dropped at the
    // link, saving bandwidth without hurting resolution. Redundancy needs
    // provider overlap, so this runs at the paper scale.
    let s = Scenario::build(ScenarioConfig::default().with_seed(31).with_fast_ratio(0.2));
    let mut plain = RunOptions::new(Strategy::Lvf);
    plain.prefetch = Some(true);
    let r_plain = run_scenario(&s, plain);
    assert_eq!(r_plain.triage_drops, 0);

    let mut triaged = RunOptions::new(Strategy::Lvf);
    triaged.prefetch = Some(true);
    triaged.triage_threshold = Some(0.5);
    let r_triaged = run_scenario(&s, triaged);

    assert!(r_triaged.triage_drops > 0, "triage should drop something");
    assert!(r_triaged.total_bytes <= r_plain.total_bytes);
    assert!(r_triaged.resolved + 1 >= r_plain.resolved);
}
