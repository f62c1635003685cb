//! Reproduces the message flow of the paper's Fig. 1 as a checked test:
//! three nodes A — B — C, a query at A over two objects sourced at C,
//! prefetch staging, and the forwarder cache hit.

use dde_core::prelude::*;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::topology::{LinkSpec, NodeId, Topology};
use dde_workload::catalog::{Catalog, ObjectSpec};
use dde_workload::grid::RoadGrid;
use dde_workload::scenario::{QueryInstance, Scenario, ScenarioConfig};
use dde_workload::world::{DynamicsClass, WorldModel};

fn fig1_scenario() -> Scenario {
    let mut config = ScenarioConfig::small();
    config.deadline = SimDuration::from_secs(60);
    config.prob_viable = 1.0;

    let topology = Topology::line(3, LinkSpec::mbps1());
    let slow = SimDuration::from_secs(600);

    let mut world = WorldModel::new(1);
    world.register(Label::new("cond_u"), DynamicsClass::Slow, slow, 1.0);
    world.register(Label::new("cond_v"), DynamicsClass::Slow, slow, 1.0);

    let mut catalog = Catalog::new();
    for (obj, label, kb) in [("u", "cond_u", 400u64), ("v", "cond_v", 500)] {
        catalog.add(ObjectSpec {
            name: format!("/fig1/{obj}").parse().expect("valid"),
            covers: vec![Label::new(label)],
            size: kb * 1000,
            source: NodeId(2),
            class: DynamicsClass::Slow,
            validity: slow,
        });
    }

    let queries = vec![QueryInstance {
        id: 0,
        origin: NodeId(0),
        expr: Dnf::from_terms(vec![Term::all_of(["cond_u", "cond_v"])]),
        deadline: config.deadline,
        issue_at: SimTime::ZERO,
    }];

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
fn query_resolves_without_prefetch() {
    let s = fig1_scenario();
    let r = run_scenario(&s, RunOptions::new(Strategy::Lvf));
    assert_eq!(r.resolved, 1);
    assert_eq!(r.viable, 1);
    assert_eq!(r.prefetch_pushes, 0);
    // Both objects crossed both hops exactly once: (400 + 500) KB × 2 hops
    // plus small headers.
    let data = *r.bytes_by_kind.get("data").unwrap();
    assert!((1_800_000..1_810_000).contains(&data), "data bytes {data}");
}

#[test]
fn prefetch_push_stages_objects_and_serves_cache_hit() {
    let s = fig1_scenario();
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.prefetch = true;
    let r = run_scenario(&s, opts);
    assert_eq!(r.resolved, 1);
    // The source (C) pushed both u and v upon hearing the announcement.
    assert_eq!(r.prefetch_pushes, 2, "C should push u and v");
    // A's fetch met a staged copy before reaching the source.
    assert!(r.cache_hits >= 1, "expected a forwarder/source cache hit");
    // Staging cost extra bytes relative to the pure-fetch run.
    let plain = run_scenario(&fig1_scenario(), RunOptions::new(Strategy::Lvf));
    assert!(r.total_bytes > plain.total_bytes);
    // And the decision is not later than without prefetch.
    assert!(
        r.mean_resolution_latency.unwrap() <= plain.mean_resolution_latency.unwrap(),
        "prefetch must not delay the decision"
    );
}

#[test]
fn announcement_reaches_every_node() {
    let s = fig1_scenario();
    let r = run_scenario(&s, RunOptions::new(Strategy::Lvf));
    // A announces to B; B relays to C: 2 announce transmissions.
    let announce = r.bytes_by_kind.get("announce").copied().unwrap_or(0);
    assert!(announce > 0, "announcement must be flooded");
}

#[test]
fn label_sharing_variant_shares_back_toward_source() {
    let s = fig1_scenario();
    let r = run_scenario(&s, RunOptions::new(Strategy::LvfLabelShare));
    assert_eq!(r.resolved, 1);
    // A annotated u and v and propagated the labels toward C.
    let label_bytes = r.bytes_by_kind.get("label").copied().unwrap_or(0);
    assert!(label_bytes > 0, "labels should flow back into the network");
}
