//! Workflow mining and predictive anticipation (§VIII).
//!
//! Teams follow doctrine: after *recon* comes *assess*; after *assess*,
//! usually *evacuate*, sometimes *resupply*. Because the flowchart is
//! stable, a Markov miner trained on past missions predicts the next
//! decision — and the network can announce it ahead of time, staging
//! evidence before the user even asks (prediction-driven prefetch).
//!
//! This example (1) trains [`WorkflowModel`] on sampled missions and
//! reports its accuracy, then (2) replays a mission on an Athena network
//! twice — without and with prediction-driven announcements — and compares
//! decision latency.
//!
//! Run with: `cargo run -p dde-examples --bin mission_workflow --release`

use dde_core::annotate::GroundTruthAnnotator;
use dde_core::node::{AthenaEvent, AthenaNode};
use dde_core::prelude::*;
use dde_core::query::QueryStatus;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::ShardedSimulator;
use dde_workload::prelude::*;
use dde_workload::workflow::{DecisionTemplate, Doctrine};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Builds the doctrine over decision templates grounded in the scenario's
/// actual road segments, so each decision needs real evidence.
fn doctrine(scenario: &Scenario) -> Doctrine {
    let segs: Vec<String> = scenario
        .grid
        .segments()
        .iter()
        .map(|s| s.label().as_str().to_string())
        .collect();
    let route = |a: usize, b: usize, c: usize| {
        Dnf::from_terms(vec![
            Term::all_of([segs[a].clone(), segs[b].clone()]),
            Term::all_of([segs[c].clone()]),
        ])
    };
    let deadline = SimDuration::from_secs(120);
    Doctrine::new(
        vec![
            DecisionTemplate {
                name: "recon".into(),
                expr: route(0, 1, 2),
                deadline,
            },
            DecisionTemplate {
                name: "assess".into(),
                expr: route(3, 4, 5),
                deadline,
            },
            DecisionTemplate {
                name: "evacuate".into(),
                expr: route(6, 7, 8),
                deadline,
            },
            DecisionTemplate {
                name: "resupply".into(),
                expr: route(9, 10, 11),
                deadline,
            },
        ],
        vec![
            vec![0.0, 0.95, 0.0, 0.0],  // recon → assess
            vec![0.0, 0.0, 0.65, 0.30], // assess → evacuate | resupply
            vec![0.0, 0.0, 0.0, 0.0],   // evacuate ends the mission
            vec![0.0, 0.85, 0.0, 0.0],  // resupply → assess again
        ],
        0,
    )
}

/// Replays `missions` (one template sequence per node) on the Athena
/// network. With `predictor` set, each decision additionally announces the
/// *predicted* next decision as soon as it is issued.
fn replay(
    scenario: &Scenario,
    missions: &[Vec<usize>],
    doctrine: &Doctrine,
    predictor: Option<&WorkflowModel>,
) -> (usize, usize, f64, f64) {
    let spacing = SimDuration::from_secs(90); // time between decisions
    let mut options = RunOptions::new(Strategy::LvfLabelShare);
    options.prefetch = true;
    let shared = dde_core::build_shared_world(scenario, &options);
    let nodes: Vec<AthenaNode> = (0..scenario.topology.len())
        .map(|_| AthenaNode::new(Arc::clone(&shared), Arc::new(GroundTruthAnnotator)))
        .collect();
    let mut sim = ShardedSimulator::new(scenario.topology.clone(), nodes, 17, 1);

    let mut qid = 0u64;
    let mut horizon = SimTime::ZERO;
    for (ni, mission) in missions.iter().enumerate() {
        let origin = dde_netsim::NodeId(ni % scenario.topology.len());
        for (step, &tmpl) in mission.iter().enumerate() {
            let issue_at = SimTime::ZERO + spacing * step as u64;
            let t = &doctrine.templates()[tmpl];
            let inst = QueryInstance {
                id: qid,
                origin,
                expr: t.expr.clone(),
                deadline: t.deadline,
                issue_at,
            };
            qid += 1;
            // Prediction-driven anticipation: when the current decision is
            // issued, announce the predicted next one so sources can stage
            // its evidence during the think time.
            if let Some(model) = predictor {
                if let Some(predicted) = model.predict_next(tmpl) {
                    let pt = &doctrine.templates()[predicted];
                    let pred_inst = QueryInstance {
                        id: 1_000_000 + qid, // distinct announce id
                        origin,
                        expr: pt.expr.clone(),
                        deadline: pt.deadline,
                        issue_at: issue_at + spacing,
                    };
                    sim.schedule_external(issue_at, origin, AthenaEvent::AnnounceOnly(pred_inst));
                }
            }
            sim.schedule_external(issue_at, origin, AthenaEvent::Issue(inst));
            horizon = horizon.max(issue_at + t.deadline);
        }
    }
    sim.run_until(horizon + SimDuration::from_secs(5));

    let mut resolved = 0;
    let mut total = 0;
    let mut latency_sum = 0.0;
    let mut latency_n: f64 = 0.0;
    for node in sim.nodes() {
        for q in node.queries() {
            total += 1;
            if let QueryStatus::Decided { at, .. } = q.status {
                resolved += 1;
                latency_sum += at.saturating_since(q.issued_at).as_secs_f64();
                latency_n += 1.0;
            }
        }
    }
    let mb = sim.metrics().bytes_sent as f64 / 1e6;
    (resolved, total, latency_sum / latency_n.max(1.0), mb)
}

fn main() {
    println!("== Mission workflows: mine the doctrine, anticipate the next decision ==\n");
    let scenario = Scenario::build(ScenarioConfig::small().with_seed(77).with_fast_ratio(0.2));
    let doctrine = doctrine(&scenario);

    // --- 1. Mine past missions --------------------------------------
    let mut rng = SmallRng::seed_from_u64(42);
    let mut model = WorkflowModel::new(doctrine.templates().len());
    let train: Vec<Vec<usize>> = (0..300).map(|_| doctrine.sample(&mut rng, 8)).collect();
    for seq in &train {
        model.observe_sequence(seq);
    }
    let test: Vec<Vec<usize>> = (0..100).map(|_| doctrine.sample(&mut rng, 8)).collect();
    println!(
        "mined {} missions; top-1 next-decision accuracy on held-out missions: {:.0}%",
        train.len(),
        model.top1_accuracy(&test) * 100.0
    );
    for (i, t) in doctrine.templates().iter().enumerate() {
        let next = model
            .predict_next(i)
            .map(|j| doctrine.templates()[j].name.clone())
            .unwrap_or_else(|| "(mission ends)".into());
        println!("  after {:<9} expect {next}", t.name);
    }

    // --- 2. Replay live missions with and without anticipation -------
    let missions: Vec<Vec<usize>> = (0..scenario.topology.len())
        .map(|_| doctrine.sample(&mut rng, 6))
        .collect();
    let (r0, t0, lat0, mb0) = replay(&scenario, &missions, &doctrine, None);
    let (r1, t1, lat1, mb1) = replay(&scenario, &missions, &doctrine, Some(&model));

    println!("\nlive replay over {} nodes:", scenario.topology.len());
    println!(
        "  no anticipation        : {r0}/{t0} decided, mean latency {lat0:>5.1} s, {mb0:>6.1} MB"
    );
    println!(
        "  predicted announcements: {r1}/{t1} decided, mean latency {lat1:>5.1} s, {mb1:>6.1} MB"
    );
    println!(
        "\nAnnouncing the *predicted* next decision turns think time into\n\
         staging time (§VIII): sources push its evidence in the background,\n\
         so when the user actually asks, much of the answer is already\n\
         nearby. Wrong predictions only cost some background bandwidth."
    );
}
