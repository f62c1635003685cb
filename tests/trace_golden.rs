//! Traces held byte-identical *across commits*.
//!
//! The other determinism suites compare a run with itself (same seed
//! twice). This one pins what the trace **is**: for each case below, the
//! number of JSONL records, the number of bytes, and the FNV-1a-64 hash of
//! the bytes, computed once on the commit before the code under it was
//! restructured (the node; for the scenario bands, the event loop). A
//! refactor that moves a single send, timer, fault side effect or trace
//! event fails here.
//!
//! The constants are never edited alongside a refactor. A deliberate
//! behaviour change regenerates them in its own PR, the way `baselines/`
//! is regenerated, and says so; EXPERIMENTS.md lists what moved.

use dde_core::prelude::*;
use dde_core::Strategy;
use dde_logic::time::{SimDuration, SimTime};
use dde_netsim::fault::FaultSchedule;
use dde_netsim::{MediumMode, NodeId};
use dde_obs::{JsonlSink, SharedSink};
use dde_sched::adaptive::{AdaptiveConfig, AdmissionPolicy};
use dde_workload::scenario::{Scenario, ScenarioConfig};

/// `(records, bytes, FNV-1a-64)` of one JSONL trace.
type Fingerprint = (usize, usize, u64);

fn fingerprint(trace: &[u8]) -> Fingerprint {
    let records = trace.iter().filter(|&&b| b == b'\n').count();
    let hash = trace.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (records, trace.len(), hash)
}

/// Runs `scenario` observed and fingerprints the trace.
fn traced(scenario: &Scenario, options: RunOptions) -> Fingerprint {
    let sink = SharedSink::new(JsonlSink::new(Vec::new()));
    let handle = sink.clone();
    let _ = run_scenario_observed(scenario, options, Box::new(sink));
    handle.with(|j| fingerprint(j.get_ref()))
}

fn small() -> Scenario {
    Scenario::build(ScenarioConfig::small().with_seed(1).with_fast_ratio(0.4))
}

/// The small scenario with a shorter radio range, so that requests, data
/// and label shares cross forwarders (range 1 leaves a tree, range 2 about
/// twice the links) and the interest table does work. `issue_offset` leaves
/// room for an announce lead.
fn multi_hop(radio_range: usize, issue_offset: SimDuration) -> Scenario {
    let mut config = ScenarioConfig::small().with_seed(1).with_fast_ratio(0.4);
    config.radio_range = radio_range;
    config.issue_offset = issue_offset;
    Scenario::build(config)
}

fn options(strategy: Strategy) -> RunOptions {
    let mut options = RunOptions::new(strategy);
    options.seed = 1;
    options
}

/// Crashes the first query's origin mid-retrieval and brings it back, and
/// takes the topology's first link down across the same stretch.
fn crash_recover_outage(scenario: &Scenario) -> FaultSchedule {
    let victim = scenario.queries[0].origin;
    let (a, b) = scenario
        .topology
        .nodes()
        .flat_map(|a| scenario.topology.neighbors(a).map(move |b| (a, b)))
        .find(|(a, b)| a < b && *a != victim && *b != victim)
        .expect("a link that survives the crash");
    let mut faults = FaultSchedule::new();
    faults.link_down_at(SimTime::from_secs(1), a, b);
    faults.crash_at(SimTime::from_secs(2), victim);
    faults.recover_at(SimTime::from_secs(20), victim);
    faults.link_up_at(SimTime::from_secs(40), a, b);
    faults
}

#[test]
fn every_strategy_trace_is_pinned() {
    // In `Strategy::ALL` order: cmp, slt, lcf, lvf, lvfl.
    const GOLDEN: [Fingerprint; 5] = [
        (553, 64_133, 3_103_102_037_231_527_428),
        (450, 52_890, 1_398_997_849_256_896_760),
        (489, 56_899, 14_111_339_170_866_083_527),
        (329, 40_386, 12_725_226_799_492_301_200),
        (421, 48_921, 8_988_643_312_409_994_546),
    ];
    let scenario = small();
    for (strategy, golden) in Strategy::ALL.into_iter().zip(GOLDEN) {
        assert_eq!(
            traced(&scenario, options(strategy)),
            golden,
            "{} trace moved",
            strategy.code()
        );
    }
}

#[test]
fn admission_gated_adaptive_trace_is_pinned() {
    const GOLDEN: Fingerprint = (1565, 200_499, 12_340_356_659_956_362_772);
    let scenario = Scenario::build(ScenarioConfig::overload().with_seed(1));
    let mut options = options(Strategy::Lvf);
    options.adaptive = Some(AdaptiveConfig {
        admission: Some(AdmissionPolicy::default()),
        ..AdaptiveConfig::default()
    });
    // One transmitter per node is what turns the burst into an overload,
    // so the gate sheds, defers and re-admits.
    options.medium = MediumMode::HalfDuplexTx;
    assert_eq!(traced(&scenario, options), GOLDEN);
}

#[test]
fn tree_topology_label_sharing_trace_is_pinned() {
    const GOLDEN: Fingerprint = (620, 68_424, 102_603_062_721_654_301);
    let scenario = multi_hop(1, SimDuration::ZERO);
    assert_eq!(traced(&scenario, options(Strategy::LvfLabelShare)), GOLDEN);
}

#[test]
fn crash_recover_and_link_outage_trace_is_pinned() {
    const GOLDEN: Fingerprint = (430, 49_644, 16_479_526_150_405_326_265);
    let scenario = multi_hop(2, SimDuration::ZERO);
    let mut options = options(Strategy::LvfLabelShare);
    options.faults = crash_recover_outage(&scenario);
    options.crash_wipes_cache = true;
    assert_eq!(traced(&scenario, options), GOLDEN);
}

/// The background half of the node: announce-ahead prefetch pushes with
/// utility triage, approximate substitution and two-source corroboration.
#[test]
fn prefetch_triage_and_corroboration_trace_is_pinned() {
    const GOLDEN: Fingerprint = (821, 90_901, 17_463_432_108_554_179_328);
    let scenario = multi_hop(2, SimDuration::from_secs(60));
    let mut options = options(Strategy::LvfLabelShare);
    options.prefetch = Some(true);
    options.announce_lead = Some(SimDuration::from_secs(45));
    options.triage_threshold = Some(0.6);
    options.approx_min_shared = Some(2);
    options.corroboration = 2;
    assert_eq!(traced(&scenario, options), GOLDEN);
}

// ---- The scenario bands -------------------------------------------------
//
// Fault-free baseline, node churn, a partition cut and healed, and the
// adaptive loop learning under churn and gating an overload. Their fault
// instants (several faults at one time, purges and recoveries behind them)
// are where the order of trace records is decided by the engine rather
// than by time.

fn band(seed: u64) -> ScenarioConfig {
    ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.4)
}

fn band_options(strategy: Strategy, seed: u64) -> RunOptions {
    let mut options = RunOptions::new(strategy);
    options.seed = seed;
    options
}

#[test]
fn baseline_band_trace_is_pinned() {
    const GOLDEN: [(u64, Fingerprint); 2] = [
        (7, (341, 39_330, 6_302_692_099_235_078_981)),
        (11, (411, 47_411, 15_999_372_195_106_571_285)),
    ];
    for (seed, golden) in GOLDEN {
        let scenario = Scenario::build(band(seed));
        let options = band_options(Strategy::LvfLabelShare, seed ^ 0x5eed);
        assert_eq!(traced(&scenario, options), golden, "seed {seed}");
    }
}

#[test]
fn churn_band_trace_is_pinned() {
    const GOLDEN: Fingerprint = (413, 47_225, 7_376_115_835_266_875_941);
    let scenario = Scenario::build(band(13).with_churn(0.5));
    assert!(!scenario.faults.is_empty(), "churn installs node faults");
    let options = band_options(Strategy::LvfLabelShare, 13 ^ 0x5eed);
    assert_eq!(traced(&scenario, options), GOLDEN);
}

#[test]
fn partition_band_trace_is_pinned() {
    const GOLDEN: Fingerprint = (452, 50_083, 11_933_353_638_121_383_939);
    let scenario = Scenario::build(band(17));
    // Cut half the nodes off mid-run, heal before the deadline horizon.
    let side: Vec<NodeId> = (0..scenario.topology.len() / 2).map(NodeId).collect();
    let mut faults = FaultSchedule::partition_at(&scenario.topology, SimTime::from_secs(20), &side);
    faults.merge(&FaultSchedule::heal_partition_at(
        &scenario.topology,
        SimTime::from_secs(90),
        &side,
    ));
    assert!(!faults.is_empty(), "the cut severs links");
    let mut options = band_options(Strategy::LvfLabelShare, 17 ^ 0x5eed);
    options.faults = faults;
    assert_eq!(traced(&scenario, options), GOLDEN);
}

/// Churn exercises the reliability estimator (fetch timeouts feed it) and
/// forces replanning, so learned state steers decisions.
#[test]
fn adaptive_learning_under_churn_trace_is_pinned() {
    const GOLDEN: [(u64, Fingerprint); 2] = [
        (7, (297, 35_318, 13_215_491_968_051_627_184)),
        (13, (325, 39_158, 7_304_235_307_862_738_088)),
    ];
    for (seed, golden) in GOLDEN {
        let scenario = Scenario::build(band(seed).with_churn(0.5));
        assert!(!scenario.faults.is_empty(), "churn installs node faults");
        let mut options = band_options(Strategy::Lvf, seed ^ 0xada);
        options.adaptive = Some(AdaptiveConfig::default());
        assert_eq!(traced(&scenario, options), golden, "seed {seed}");
    }
}

#[test]
fn adaptive_admission_on_the_overload_band_trace_is_pinned() {
    const GOLDEN: Fingerprint = (1346, 174_001, 5_701_318_098_088_475_451);
    let scenario = Scenario::build(ScenarioConfig::overload().with_seed(11));
    let mut options = band_options(Strategy::Lvf, 11 ^ 0xada);
    options.adaptive = Some(AdaptiveConfig {
        admission: Some(AdmissionPolicy::default()),
        ..AdaptiveConfig::default()
    });
    options.medium = MediumMode::HalfDuplexTx;
    assert_eq!(traced(&scenario, options), GOLDEN);
}
