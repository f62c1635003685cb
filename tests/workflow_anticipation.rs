//! Integration test for §VIII workflow mining + predictive anticipation:
//! a Markov model mined from doctrine missions predicts next decisions;
//! announcing the predictions ahead of issue time must not hurt resolution
//! and must not slow decisions down.

use dde_core::annotate::GroundTruthAnnotator;
use dde_core::node::{AthenaEvent, AthenaNode, NodeConfig, SharedWorld};
use dde_core::prelude::*;
use dde_core::query::QueryStatus;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::topology::NodeId;
use dde_netsim::ShardedSimulator;
use dde_workload::prelude::*;
use dde_workload::workflow::{DecisionTemplate, Doctrine};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn doctrine(scenario: &Scenario) -> Doctrine {
    let segs: Vec<String> = scenario
        .grid
        .segments()
        .iter()
        .map(|s| s.label().as_str().to_string())
        .collect();
    let q = |a: usize, b: usize| {
        Dnf::from_terms(vec![Term::all_of([segs[a].clone(), segs[b].clone()])])
    };
    let deadline = SimDuration::from_secs(120);
    Doctrine::new(
        vec![
            DecisionTemplate {
                name: "recon".into(),
                expr: q(0, 1),
                deadline,
            },
            DecisionTemplate {
                name: "assess".into(),
                expr: q(2, 3),
                deadline,
            },
            DecisionTemplate {
                name: "act".into(),
                expr: q(4, 5),
                deadline,
            },
        ],
        vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.9],
            vec![0.0, 0.0, 0.0],
        ],
        0,
    )
}

fn replay(
    scenario: &Scenario,
    missions: &[Vec<usize>],
    doctrine: &Doctrine,
    predictor: Option<&WorkflowModel>,
) -> (usize, usize, f64) {
    let spacing = SimDuration::from_secs(60);
    let mut config = NodeConfig::new(Strategy::LvfLabelShare);
    config.prefetch = Some(true);
    config.prob_true_prior = scenario.config.prob_viable;
    let shared = Arc::new(SharedWorld {
        catalog: scenario.catalog.clone(),
        world: scenario.world.clone(),
        config,
    });
    let nodes: Vec<AthenaNode> = (0..scenario.topology.len())
        .map(|_| AthenaNode::new(Arc::clone(&shared), Arc::new(GroundTruthAnnotator)))
        .collect();
    let mut sim = ShardedSimulator::new(scenario.topology.clone(), nodes, 5, 1);

    let mut qid = 0u64;
    let mut horizon = SimTime::ZERO;
    for (ni, mission) in missions.iter().enumerate() {
        let origin = NodeId(ni % scenario.topology.len());
        for (step, &tmpl) in mission.iter().enumerate() {
            let issue_at = SimTime::ZERO + spacing * step as u64;
            let t = &doctrine.templates()[tmpl];
            if let Some(model) = predictor {
                if let Some(p) = model.predict_next(tmpl) {
                    let pt = &doctrine.templates()[p];
                    sim.schedule_external(
                        issue_at,
                        origin,
                        AthenaEvent::AnnounceOnly(QueryInstance {
                            id: 1_000_000 + qid,
                            origin,
                            expr: pt.expr.clone(),
                            deadline: pt.deadline,
                            issue_at: issue_at + spacing,
                        }),
                    );
                }
            }
            sim.schedule_external(
                issue_at,
                origin,
                AthenaEvent::Issue(QueryInstance {
                    id: qid,
                    origin,
                    expr: t.expr.clone(),
                    deadline: t.deadline,
                    issue_at,
                }),
            );
            qid += 1;
            horizon = horizon.max(issue_at + t.deadline);
        }
    }
    sim.run_until(horizon + SimDuration::from_secs(5));

    let mut resolved = 0;
    let mut total = 0;
    let mut latency = 0.0;
    for node in sim.nodes() {
        for q in node.queries() {
            total += 1;
            if let QueryStatus::Decided { at, .. } = q.status {
                resolved += 1;
                latency += at.saturating_since(q.issued_at).as_secs_f64();
            }
        }
    }
    (resolved, total, latency / resolved.max(1) as f64)
}

#[test]
fn mined_model_predicts_doctrine() {
    let scenario = Scenario::build(ScenarioConfig::small().with_seed(13));
    let d = doctrine(&scenario);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut model = WorkflowModel::new(3);
    for _ in 0..100 {
        model.observe_sequence(&d.sample(&mut rng, 5));
    }
    assert_eq!(model.predict_next(0), Some(1));
    assert_eq!(model.predict_next(1), Some(2));
    assert_eq!(model.predict_next(2), None);
    let test: Vec<Vec<usize>> = (0..50).map(|_| d.sample(&mut rng, 5)).collect();
    assert!(model.top1_accuracy(&test) > 0.9);
}

#[test]
fn predictive_announcements_do_not_hurt() {
    let scenario = Scenario::build(ScenarioConfig::small().with_seed(13).with_fast_ratio(0.2));
    let d = doctrine(&scenario);
    let mut rng = SmallRng::seed_from_u64(2);
    let mut model = WorkflowModel::new(3);
    for _ in 0..100 {
        model.observe_sequence(&d.sample(&mut rng, 5));
    }
    let missions: Vec<Vec<usize>> = (0..scenario.topology.len())
        .map(|_| d.sample(&mut rng, 4))
        .collect();
    let (r0, t0, lat0) = replay(&scenario, &missions, &d, None);
    let (r1, t1, lat1) = replay(&scenario, &missions, &d, Some(&model));
    assert_eq!(t0, t1);
    assert!(r1 >= r0, "anticipation must not lose queries: {r1} vs {r0}");
    assert!(
        lat1 <= lat0 + 0.5,
        "anticipation must not slow decisions: {lat1:.2} vs {lat0:.2}"
    );
}
