//! Built scenarios held byte-identical *across commits*.
//!
//! `tests/trace_golden.rs` pins what a run does with a scenario; this file
//! pins the scenario itself. For each case below it fingerprints the
//! `Debug` text of a built [`Scenario`] by `(bytes, FNV-1a-64)`: the node
//! sites, the topology with its route tables, the world, the catalog, every
//! query's candidate routes and the fault schedule. A change to the
//! generator that moves one random draw, one route or one tie-break fails
//! here.
//!
//! Every preset grid is square, so two non-square grids are pinned as well:
//! a rows/columns mix-up in grid indexing cannot pass on those.
//!
//! All cases run in one test, in a fixed order. A `Name`'s `Debug` text
//! shows its interned component ids, and the process hands those out in
//! first-seen order, so scenarios built on concurrent test threads would
//! race for them.
//!
//! The constants are never edited alongside a refactor. A deliberate change
//! to what a scenario is regenerates them in its own change, and says so.

use dde_workload::scenario::{Scenario, ScenarioConfig};

/// `(bytes, FNV-1a-64)` of a scenario's `Debug` text.
type Fingerprint = (usize, u64);

fn fingerprint(config: ScenarioConfig) -> Fingerprint {
    let text = format!("{:?}", Scenario::build(config));
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (text.len(), hash)
}

const SEEDS: [u64; 3] = [1, 7, 1000];
const FAST_RATIOS: [f64; 3] = [0.0, 0.4, 1.0];

/// The cases, in build order: each preset at every seed (outer) and fast
/// ratio (inner), then a 3 × 9 grid and a 10 × 5 one.
fn cases() -> Vec<(String, ScenarioConfig)> {
    let presets = [
        ("paper", ScenarioConfig::default as fn() -> ScenarioConfig),
        ("city", ScenarioConfig::city),
        ("small", ScenarioConfig::small),
    ];
    let mut cases = Vec::new();
    for (preset, make) in presets {
        for seed in SEEDS {
            for ratio in FAST_RATIOS {
                let config = make().with_seed(seed).with_fast_ratio(ratio);
                cases.push((format!("{preset} seed {seed} fast {ratio}"), config));
            }
        }
    }
    // Wider than tall, 12 nodes.
    let mut wide = ScenarioConfig::small().with_seed(3);
    wide.grid_rows = 3;
    wide.grid_cols = 9;
    wide.node_count = 12;
    cases.push(("3 x 9 seed 3".to_owned(), wide));
    // Taller than wide, at the paper's other settings.
    let mut tall = ScenarioConfig::default().with_seed(5);
    tall.grid_rows = 10;
    tall.grid_cols = 5;
    cases.push(("10 x 5 seed 5".to_owned(), tall));
    cases
}

/// One fingerprint per case of [`cases`], in the same order.
const PINNED: [Fingerprint; 29] = [
    (237429, 299663075562103938),
    (237305, 6516165010366577370),
    (237148, 628732900487169820),
    (238558, 207669998483223666),
    (238433, 12033258223333621075),
    (238278, 9706539652826475005),
    (238739, 542317339116019677),
    (238623, 4030027427884102779),
    (238463, 1409452972367281690),
    (484966, 2098640232732327232),
    (484684, 4029441818422243680),
    (484335, 12980645485200896472),
    (492672, 14953867025464474884),
    (492383, 859088663658344097),
    (492036, 15117823458305927659),
    (485549, 12706442338285790012),
    (485267, 5768943427677857426),
    (484918, 7940761808501558768),
    (26728, 7395810950915293696),
    (26700, 5277450842690479888),
    (26666, 16630186479686420713),
    (25381, 14893236382986458982),
    (25352, 1162622877623595053),
    (25321, 10089966742897307215),
    (26936, 10114544116701937146),
    (26903, 10643458691871793281),
    (26874, 143080635439069709),
    (44570, 6505333075303659867),
    (227671, 11253590440327156320),
];

#[test]
fn built_scenarios_are_pinned() {
    let cases = cases();
    assert_eq!(cases.len(), PINNED.len());
    let moved: Vec<String> = cases
        .into_iter()
        .zip(PINNED)
        .filter_map(|((name, config), pinned)| {
            let got = fingerprint(config);
            (got != pinned).then(|| format!("{name}: {got:?}, pinned {pinned:?}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} scenarios moved:\n{}",
        moved.len(),
        PINNED.len(),
        moved.join("\n")
    );
}
