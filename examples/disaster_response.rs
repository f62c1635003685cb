//! The paper's running example, end to end: after an earthquake, a medical
//! team must move a patient and needs one viable route — A-B-C or D-E-F.
//! Roadside cameras supply pictures; Athena retrieves only what the
//! decision needs.
//!
//! The example hand-builds a small scenario (no random generation) so the
//! output is a readable narrative, then runs every retrieval strategy on it
//! and compares cost.
//!
//! Run with: `cargo run -p dde-examples --bin disaster_response`

use dde_core::prelude::*;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::topology::{LinkSpec, NodeId, Topology};
use dde_workload::catalog::{Catalog, ObjectSpec};
use dde_workload::grid::RoadGrid;
use dde_workload::scenario::{QueryInstance, Scenario, ScenarioConfig};
use dde_workload::world::{DynamicsClass, WorldModel};

/// Hand-builds the disaster scenario: 5 Athena nodes in a line; the medic
/// team at node 0; cameras over segments A..F hosted at nodes 1..4.
fn build() -> Scenario {
    let mut config = ScenarioConfig::small();
    config.seed = 2024;
    config.deadline = SimDuration::from_secs(90);
    config.prob_viable = 0.5;

    let topology = Topology::line(5, LinkSpec::mbps1());

    // World: route 1 (A, B, C) has a collapsed segment B; route 2 is clear.
    // prob_true per label drives the deterministic ground truth; 1.0/0.0
    // make the narrative reproducible.
    let mut world = WorldModel::new(9);
    let slow = SimDuration::from_secs(600);
    for (seg, up) in [
        ("A", true),
        ("B", false), // collapsed overpass
        ("C", true),
        ("D", true),
        ("E", true),
        ("F", true),
    ] {
        world.register(
            Label::new(format!("viable{seg}")),
            DynamicsClass::Slow,
            slow,
            if up { 1.0 } else { 0.0 },
        );
    }

    // Cameras: one per segment, spread over nodes 1..=4; sizes chosen so
    // that route 2's evidence is slightly cheaper.
    let mut catalog = Catalog::new();
    for (seg, node, kb) in [
        ("A", 1, 500),
        ("B", 2, 800),
        ("C", 3, 400),
        ("D", 2, 300),
        ("E", 3, 350),
        ("F", 4, 300),
    ] {
        catalog.add(ObjectSpec {
            name: format!("/city/cam/n{node}/seg{seg}")
                .parse()
                .expect("valid"),
            covers: vec![Label::new(format!("viable{seg}"))],
            size: kb * 1000,
            source: NodeId(node),
            class: DynamicsClass::Slow,
            validity: slow,
        });
    }

    let expr = Dnf::from_terms(vec![
        Term::all_of(["viableA", "viableB", "viableC"]),
        Term::all_of(["viableD", "viableE", "viableF"]),
    ]);
    let queries = vec![QueryInstance {
        id: 0,
        origin: NodeId(0),
        expr,
        deadline: config.deadline,
        issue_at: SimTime::ZERO,
    }];

    Scenario {
        grid: RoadGrid::new(2, 2), // unused placeholder geometry
        node_sites: Vec::new(),
        config,
        topology,
        world,
        catalog,
        queries,
        faults: dde_netsim::fault::FaultSchedule::new(),
    }
}

fn main() {
    println!("== Disaster response: find a viable evacuation route ==\n");
    println!("decision: (viableA & viableB & viableC) | (viableD & viableE & viableF)");
    println!("ground truth: segment B is collapsed; route D-E-F is clear\n");

    for strategy in Strategy::ALL {
        let scenario = build();
        let report = run_scenario(&scenario, RunOptions::new(strategy));
        let outcome = if report.viable > 0 {
            "found viable route"
        } else if report.infeasible > 0 {
            "no route viable"
        } else {
            "MISSED DEADLINE"
        };
        println!(
            "{:>4}: {:<18} data transferred {:>6.2} MB, decision in {}",
            strategy.code(),
            outcome,
            *report.bytes_by_kind.get("data").unwrap_or(&0) as f64 / 1e6,
            report
                .mean_resolution_latency
                .map(|d| format!("{:.1} s", d.as_secs_f64()))
                .unwrap_or_else(|| "—".into()),
        );
    }

    println!(
        "\nThe decision-driven schemes (lvf, lvfl) explore the cheaper, more\n\
         promising route first and stop as soon as it is confirmed — the\n\
         baselines pay for pictures of route 1 that a short-circuit makes\n\
         irrelevant."
    );

    // -- Act two: the same decision under infrastructure failure. ---------
    // The earthquake aftershock takes down node 4 (the only camera for
    // segment F) shortly into the mission; it comes back before the
    // deadline. The retrieval loop rides out the outage: with no route to
    // the only provider it re-plans every 250 ms poll, fires the fetch at
    // the first poll after the node recovers, and completes well inside
    // the deadline.
    println!("\n== Aftershock: the segment-F camera host crashes mid-run ==\n");
    let scenario = build();
    let mut options = RunOptions::new(Strategy::Lvf);
    options.faults.crash_at(SimTime::from_secs(2), NodeId(4));
    options.faults.recover_at(SimTime::from_secs(40), NodeId(4));
    let report = run_scenario(&scenario, options);
    let outcome = if report.viable > 0 {
        "found viable route"
    } else if report.infeasible > 0 {
        "no route viable"
    } else {
        "MISSED DEADLINE"
    };
    println!(
        " lvf under faults: {outcome}; {} in-flight message(s) dropped by the\n\
         crash, decision in {}",
        report.messages_dropped_by_fault,
        report
            .mean_resolution_latency
            .map(|d| format!("{:.1} s", d.as_secs_f64()))
            .unwrap_or_else(|| "—".into()),
    );
    println!(
        "\nA crashed source delays the decision instead of killing it: while\n\
         no route to the only camera exists the fetch re-plans every 250 ms,\n\
         it fires at the first poll after the node recovers, and the decision\n\
         still lands well before the 90 s deadline."
    );
}
