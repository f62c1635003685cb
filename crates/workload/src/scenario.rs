//! End-to-end scenario assembly for the §VII evaluation.
//!
//! Builds everything one experiment run needs: the Athena node topology, the
//! ground-truth world, the object catalog, and the decision queries —
//! deterministically from a seed.

use crate::catalog::{Catalog, ObjectSpec};
use crate::grid::{Intersection, RoadGrid, Segment};
use crate::world::{DynamicsClass, LabelDynamics, WorldModel};
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_naming::name::Name;
use dde_netsim::fault::FaultSchedule;
use dde_netsim::topology::{LinkSpec, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A generated decision query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryInstance {
    /// Unique id across the scenario.
    pub id: u64,
    /// The node that issues the query.
    pub origin: NodeId,
    /// The DNF decision expression (OR of candidate routes).
    pub expr: Dnf,
    /// Relative decision deadline.
    pub deadline: SimDuration,
    /// Absolute issue time.
    pub issue_at: SimTime,
}

/// Parameters of a scenario; defaults reproduce the paper's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Grid rows (intersections).
    pub grid_rows: usize,
    /// Grid columns (intersections).
    pub grid_cols: usize,
    /// Number of Athena nodes (~30 in the paper).
    pub node_count: usize,
    /// Concurrent queries per node (3 in the paper).
    pub queries_per_node: usize,
    /// Candidate routes per query (5 in the paper).
    pub routes_per_query: usize,
    /// Fraction of segments whose state changes fast (the x-axis of Fig. 2).
    pub fast_ratio: f64,
    /// Smallest object size in bytes (100 KB in the paper).
    pub min_object_bytes: u64,
    /// Largest object size in bytes (~1 MB in the paper).
    pub max_object_bytes: u64,
    /// Validity interval of slow-changing measurements.
    pub slow_validity: SimDuration,
    /// Validity interval of fast-changing measurements.
    pub fast_validity: SimDuration,
    /// Decision deadline for every query.
    pub deadline: SimDuration,
    /// Node-to-node link bandwidth (1 Mbps in the paper).
    pub link_bandwidth_bps: u64,
    /// Nodes within this Manhattan distance get a direct link.
    pub radio_range: usize,
    /// Probability a segment is viable in any epoch.
    pub prob_viable: f64,
    /// Whether nodes additionally advertise a panorama object covering all
    /// their incident segments at once (gives the source-selection problem
    /// its multi-coverage structure).
    pub panoramas: bool,
    /// Spacing between consecutive query issue times at one node.
    pub query_stagger: SimDuration,
    /// Added to every query's issue time (gives anticipation leads room).
    pub issue_offset: SimDuration,
    /// Guarantee at least this many *distinct source nodes* can provide
    /// evidence for every segment (extra tele cameras are added from the
    /// nearest nodes). Needed for ≥3-way corroboration (§IV-B).
    pub min_sources_per_segment: usize,
    /// Node churn: each node independently crashes once with this
    /// probability at a uniform instant before the last deadline, then
    /// recovers after [`ScenarioConfig::churn_downtime`]. `0.0` disables
    /// fault injection entirely (the built schedule is empty).
    pub churn_rate: f64,
    /// How long a churned node stays down before recovering.
    pub churn_downtime: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            grid_rows: 8,
            grid_cols: 8,
            node_count: 30,
            queries_per_node: 3,
            routes_per_query: 5,
            fast_ratio: 0.4,
            min_object_bytes: 100_000,
            max_object_bytes: 1_000_000,
            slow_validity: SimDuration::from_secs(600),
            fast_validity: SimDuration::from_secs(60),
            deadline: SimDuration::from_secs(180),
            link_bandwidth_bps: 1_000_000,
            radio_range: 4,
            prob_viable: 0.8,
            panoramas: true,
            query_stagger: SimDuration::from_millis(500),
            issue_offset: SimDuration::ZERO,
            min_sources_per_segment: 1,
            churn_rate: 0.0,
            churn_downtime: SimDuration::from_secs(60),
            seed: 1,
        }
    }
}

impl ScenarioConfig {
    /// A scaled-down configuration for fast tests: 4×4 grid, 8 nodes, one
    /// query per node.
    pub fn small() -> ScenarioConfig {
        ScenarioConfig {
            grid_rows: 4,
            grid_cols: 4,
            node_count: 8,
            queries_per_node: 1,
            routes_per_query: 3,
            ..ScenarioConfig::default()
        }
    }

    /// A city-scale configuration for throughput sweeps: 12×12 grid, 60
    /// nodes, 120 queries. Roughly 4× the default event volume — big
    /// enough for parallel speedup measurements to mean something, small
    /// enough to finish in seconds in release builds.
    pub fn city() -> ScenarioConfig {
        ScenarioConfig {
            grid_rows: 12,
            grid_cols: 12,
            node_count: 60,
            queries_per_node: 2,
            routes_per_query: 4,
            radio_range: 5,
            ..ScenarioConfig::default()
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ScenarioConfig {
        self.seed = seed;
        self
    }

    /// Sets the fast-changing-object ratio.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= r <= 1.0`.
    #[must_use]
    pub fn with_fast_ratio(mut self, r: f64) -> ScenarioConfig {
        assert!((0.0..=1.0).contains(&r), "fast_ratio out of range");
        self.fast_ratio = r;
        self
    }

    /// Sets the node-churn rate (the resilience ablation's x-axis).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= r <= 1.0`.
    #[must_use]
    pub fn with_churn(mut self, r: f64) -> ScenarioConfig {
        assert!((0.0..=1.0).contains(&r), "churn_rate out of range");
        self.churn_rate = r;
        self
    }
}

/// A fully-assembled experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The parameters it was built from.
    pub config: ScenarioConfig,
    /// The road grid.
    pub grid: RoadGrid,
    /// Where each Athena node sits on the grid.
    pub node_sites: Vec<Intersection>,
    /// The Athena node network.
    pub topology: Topology,
    /// Ground truth.
    pub world: WorldModel,
    /// Advertised evidence objects.
    pub catalog: Catalog,
    /// The decision queries to issue.
    pub queries: Vec<QueryInstance>,
    /// Deterministic fault timeline (node churn); empty unless
    /// [`ScenarioConfig::churn_rate`] is positive.
    pub faults: FaultSchedule,
}

impl Scenario {
    /// Builds the scenario determined by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` exceeds the number of intersections, if
    /// `node_count == 0`, or if the object size range is inverted.
    pub fn build(config: ScenarioConfig) -> Scenario {
        assert!(config.node_count > 0, "need at least one node");
        assert!(
            config.min_object_bytes <= config.max_object_bytes,
            "object size range inverted"
        );
        let grid = RoadGrid::new(config.grid_rows, config.grid_cols);
        let mut rng = SmallRng::seed_from_u64(config.seed);

        // --- Node placement -------------------------------------------
        let mut sites: Vec<Intersection> = grid.intersections().collect();
        assert!(
            config.node_count <= sites.len(),
            "more nodes than intersections"
        );
        sites.shuffle(&mut rng);
        let node_sites: Vec<Intersection> = sites[..config.node_count].to_vec();

        // --- Topology: radio links within range, patched to connectivity --
        let link = LinkSpec::with_bandwidth(config.link_bandwidth_bps)
            .latency(SimDuration::from_millis(1));
        let mut topology = Topology::new(config.node_count);
        for i in 0..config.node_count {
            for j in (i + 1)..config.node_count {
                if grid.distance(node_sites[i], node_sites[j]) <= config.radio_range {
                    topology.add_link(NodeId(i), NodeId(j), link);
                }
            }
        }
        connect_components(&mut topology, &node_sites, &grid, link);
        topology.rebuild_routes();

        // --- World dynamics per segment --------------------------------
        let mut world = WorldModel::new(config.seed ^ 0xD1CE);
        let mut segments = grid.segments();
        // Each segment's label, formatted and interned once: queries name
        // every segment of every candidate route.
        let labels: BTreeMap<Segment, Label> =
            segments.iter().map(|seg| (*seg, seg.label())).collect();
        segments.shuffle(&mut rng);
        let fast_count = (segments.len() as f64 * config.fast_ratio).round() as usize;
        for (k, seg) in segments.iter().enumerate() {
            let (class, validity) = if k < fast_count {
                (DynamicsClass::Fast, config.fast_validity)
            } else {
                (DynamicsClass::Slow, config.slow_validity)
            };
            world.register(labels[seg], class, validity, config.prob_viable);
        }

        // --- Catalog: per-node per-incident-segment cameras ------------
        let mut catalog = Catalog::new();
        for (ni, site) in node_sites.iter().enumerate() {
            let incident = grid.incident_segments(*site);
            let covers: Vec<Label> = incident.iter().map(|seg| labels[seg]).collect();
            #[expect(
                clippy::expect_used,
                reason = "the world registers dynamics for every grid segment"
            )]
            let dynamics: Vec<LabelDynamics> = covers
                .iter()
                .map(|l| *world.dynamics(l).expect("registered"))
                .collect();
            for ((seg, label), dynamics) in incident.iter().zip(&covers).zip(&dynamics) {
                catalog.add(ObjectSpec {
                    name: segment_camera_name(seg, "cam", ni),
                    covers: vec![*label],
                    size: rng.gen_range(config.min_object_bytes..=config.max_object_bytes),
                    source: NodeId(ni),
                    class: dynamics.class,
                    validity: dynamics.validity,
                });
            }
            if config.panoramas && incident.len() > 1 {
                // One wide shot covering every incident segment; priced like
                // a single large picture, cheaper than fetching each view.
                let class = if dynamics.iter().any(|d| d.class == DynamicsClass::Fast) {
                    DynamicsClass::Fast
                } else {
                    DynamicsClass::Slow
                };
                #[expect(clippy::expect_used, reason = "guarded by incident.len() > 1 above")]
                let validity = dynamics
                    .iter()
                    .map(|d| d.validity)
                    .min()
                    .expect("non-empty");
                catalog.add(ObjectSpec {
                    #[expect(
                        clippy::expect_used,
                        reason = "name is built from numeric components"
                    )]
                    name: format!("/city/pano/n{ni}").parse().expect("valid name"),
                    covers,
                    size: rng.gen_range(config.min_object_bytes..=config.max_object_bytes),
                    source: NodeId(ni),
                    class,
                    validity,
                });
            }
        }
        // Segments seen by too few distinct nodes get long-range shots from
        // the nearest additional nodes, so that every label is resolvable
        // (and, when `min_sources_per_segment` asks for it, independently
        // corroborable).
        let min_sources = config.min_sources_per_segment.max(1);
        for seg in grid.segments() {
            let label = labels[&seg];
            let mut sources: Vec<usize> = catalog
                .providers_of(&label)
                .iter()
                .map(|&i| catalog.get(i).source.index())
                .collect();
            sources.sort_unstable();
            sources.dedup();
            if sources.len() >= min_sources {
                continue;
            }
            let mut nearest: Vec<usize> = (0..config.node_count)
                .filter(|ni| !sources.contains(ni))
                .collect();
            nearest.sort_by_key(|&ni| {
                (
                    grid.distance(node_sites[ni], seg.a) + grid.distance(node_sites[ni], seg.b),
                    ni,
                )
            });
            #[expect(
                clippy::expect_used,
                reason = "the world registers dynamics for every grid segment"
            )]
            let dynamics = *world.dynamics(&label).expect("registered");
            for &ni in nearest.iter().take(min_sources - sources.len()) {
                catalog.add(ObjectSpec {
                    name: segment_camera_name(&seg, "tele", ni),
                    covers: vec![label],
                    size: rng.gen_range(config.min_object_bytes..=config.max_object_bytes),
                    source: NodeId(ni),
                    class: dynamics.class,
                    validity: dynamics.validity,
                });
            }
        }

        // --- Queries ----------------------------------------------------
        let all_intersections: Vec<Intersection> = grid.intersections().collect();
        let mut queries = Vec::new();
        let mut qid = 0;
        for ni in 0..config.node_count {
            for qn in 0..config.queries_per_node {
                // Pick origin/destination with some distance between them.
                let (o, d) = loop {
                    #[expect(clippy::expect_used, reason = "a grid always has intersections")]
                    let o = *all_intersections.choose(&mut rng).expect("non-empty");
                    #[expect(clippy::expect_used, reason = "a grid always has intersections")]
                    let d = *all_intersections.choose(&mut rng).expect("non-empty");
                    let min_dist = (grid.rows + grid.cols) / 4;
                    if o != d && grid.distance(o, d) >= min_dist.max(2) {
                        break (o, d);
                    }
                };
                let routes = grid.candidate_routes(o, d, config.routes_per_query, &mut rng);
                let terms: Vec<Term> = routes
                    .iter()
                    .map(|r| Term::all_of(r.segments().iter().map(|seg| labels[seg])))
                    .collect();
                queries.push(QueryInstance {
                    id: qid,
                    origin: NodeId(ni),
                    expr: Dnf::from_terms(terms),
                    deadline: config.deadline,
                    issue_at: SimTime::ZERO
                        + config.issue_offset
                        + config.query_stagger * qn as u64,
                });
                qid += 1;
            }
        }

        // --- Fault schedule (node churn) --------------------------------
        // Seeded separately so churn generation never perturbs the world /
        // catalog / query streams: churn_rate = 0 yields the exact same
        // scenario as before fault injection existed.
        let faults = if config.churn_rate > 0.0 {
            let horizon = queries
                .iter()
                .map(|q| q.issue_at + q.deadline)
                .max()
                .unwrap_or(SimTime::from_secs(1));
            FaultSchedule::uniform_churn(
                config.node_count,
                config.churn_rate,
                horizon,
                config.churn_downtime,
                config.seed ^ 0xFA_17,
            )
        } else {
            FaultSchedule::new()
        };

        Scenario {
            config,
            grid,
            node_sites,
            topology,
            world,
            catalog,
            queries,
            faults,
        }
    }
}

impl Scenario {
    /// Expands every query into a periodic series: `repeats` instances
    /// spaced `period` apart (§IV-B: "Other decisions may need to be done
    /// periodically"). Instance `k` of query `q` gets id
    /// `q.id + k * original_count`, preserving uniqueness.
    ///
    /// # Panics
    ///
    /// Panics if `repeats == 0`.
    #[must_use]
    pub fn with_periodic_queries(mut self, period: SimDuration, repeats: usize) -> Scenario {
        assert!(repeats > 0, "repeats must be at least 1");
        let base = self.queries.clone();
        let n = base.len() as u64;
        let mut all = Vec::with_capacity(base.len() * repeats);
        for k in 0..repeats {
            for q in &base {
                let mut inst = q.clone();
                inst.id = q.id + k as u64 * n;
                inst.issue_at = q.issue_at + period * k as u64;
                all.push(inst);
            }
        }
        self.queries = all;
        self
    }
}

/// Segment-first camera names: `/city/seg/<segment>/<kind>/n<node>`.
///
/// Putting the *segment* before the camera id makes shared-prefix length
/// track semantic similarity (§V-A): two names agreeing on the first three
/// components are two views of the same road segment, so one is a valid
/// approximate substitute for the other.
#[expect(clippy::expect_used, reason = "name is built from numeric components")]
fn segment_camera_name(seg: &Segment, kind: &str, node: usize) -> Name {
    format!(
        "/city/seg/{}_{}-{}_{}/{kind}/n{node}",
        seg.a.row, seg.a.col, seg.b.row, seg.b.col
    )
    .parse()
    .expect("valid name")
}

/// Links disconnected components to the main component via nearest pairs.
fn connect_components(
    topology: &mut Topology,
    sites: &[Intersection],
    grid: &RoadGrid,
    link: LinkSpec,
) {
    loop {
        let comps = components(topology);
        if comps.len() <= 1 {
            return;
        }
        // Connect the closest pair of nodes across the first component and
        // any other.
        let main = &comps[0];
        let mut best: Option<(usize, usize, usize)> = None;
        for other in &comps[1..] {
            for &a in main {
                for &b in other {
                    let d = grid.distance(sites[a], sites[b]);
                    if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                        best = Some((a, b, d));
                    }
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the caller loops only while components.len() > 1"
        )]
        let (a, b, _) = best.expect("multiple components imply a pair");
        topology.add_link(NodeId(a), NodeId(b), link);
    }
}

fn components(topology: &Topology) -> Vec<Vec<usize>> {
    let n = topology.len();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![start];
        let mut comp = Vec::new();
        seen[start] = true;
        while let Some(u) = stack.pop() {
            comp.push(u);
            for v in topology.neighbors(NodeId(u)) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v.index());
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = ScenarioConfig::default();
        assert_eq!((c.grid_rows, c.grid_cols), (8, 8));
        assert_eq!(c.node_count, 30);
        assert_eq!(c.queries_per_node, 3);
        assert_eq!(c.routes_per_query, 5);
        assert_eq!(c.link_bandwidth_bps, 1_000_000);
        assert_eq!(c.min_object_bytes, 100_000);
        assert_eq!(c.max_object_bytes, 1_000_000);
    }

    #[test]
    fn build_paper_scenario() {
        let s = Scenario::build(ScenarioConfig::default());
        assert_eq!(s.topology.len(), 30);
        assert_eq!(s.queries.len(), 90);
        // Every segment label is registered and coverable.
        for seg in s.grid.segments() {
            assert!(s.world.dynamics(&seg.label()).is_some());
            assert!(
                !s.catalog.providers_of(&seg.label()).is_empty(),
                "segment {seg} has no provider"
            );
        }
        // Topology connected.
        let mut topo = s.topology.clone();
        assert!(topo.is_connected());
        // Object sizes in range.
        for o in s.catalog.objects() {
            assert!((100_000..=1_000_000).contains(&o.size));
        }
    }

    #[test]
    fn city_config_builds_connected_and_larger_than_default() {
        let s = Scenario::build(ScenarioConfig::city().with_seed(3));
        assert_eq!(s.topology.len(), 60);
        assert_eq!(s.queries.len(), 120);
        let mut topo = s.topology.clone();
        assert!(topo.is_connected());
        for seg in s.grid.segments() {
            assert!(
                !s.catalog.providers_of(&seg.label()).is_empty(),
                "segment {seg} has no provider"
            );
        }
    }

    #[test]
    fn fast_ratio_respected() {
        for ratio in [0.0, 0.5, 1.0] {
            let s = Scenario::build(ScenarioConfig::small().with_fast_ratio(ratio));
            let (mut fast, mut total) = (0usize, 0usize);
            for (_, d) in s.world.iter() {
                total += 1;
                if d.class == DynamicsClass::Fast {
                    fast += 1;
                }
            }
            let got = fast as f64 / total as f64;
            assert!((got - ratio).abs() < 0.05, "ratio {ratio} produced {got}");
        }
    }

    #[test]
    fn deterministic_build() {
        let a = Scenario::build(ScenarioConfig::small().with_seed(77));
        let b = Scenario::build(ScenarioConfig::small().with_seed(77));
        assert_eq!(a.node_sites, b.node_sites);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.catalog.len(), b.catalog.len());
        for (x, y) in a.catalog.objects().iter().zip(b.catalog.objects()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::build(ScenarioConfig::small().with_seed(1));
        let b = Scenario::build(ScenarioConfig::small().with_seed(2));
        assert_ne!(a.node_sites, b.node_sites);
    }

    #[test]
    fn queries_reference_coverable_labels() {
        let s = Scenario::build(ScenarioConfig::small());
        for q in &s.queries {
            assert!(!q.expr.terms().is_empty());
            assert!(q.expr.terms().len() <= s.config.routes_per_query);
            for label in q.expr.labels() {
                assert!(
                    !s.catalog.providers_of(&label).is_empty(),
                    "query {} references unprovided label {label}",
                    q.id
                );
            }
        }
    }

    #[test]
    fn query_issue_times_staggered() {
        let s = Scenario::build(ScenarioConfig {
            queries_per_node: 3,
            ..ScenarioConfig::small()
        });
        let node0: Vec<_> = s.queries.iter().filter(|q| q.origin == NodeId(0)).collect();
        assert_eq!(node0.len(), 3);
        assert!(node0[0].issue_at < node0[1].issue_at);
        assert!(node0[1].issue_at < node0[2].issue_at);
    }

    #[test]
    fn panoramas_cover_multiple_labels() {
        let s = Scenario::build(ScenarioConfig::small());
        assert!(
            s.catalog.objects().iter().any(|o| o.covers.len() > 1),
            "expected at least one panorama object"
        );
        // Panoramas inherit the minimum validity of their segments.
        for o in s.catalog.objects() {
            if o.covers.len() > 1 {
                let min_validity = o
                    .covers
                    .iter()
                    .map(|l| s.world.dynamics(l).unwrap().validity)
                    .min()
                    .unwrap();
                assert_eq!(o.validity, min_validity);
            }
        }
    }

    #[test]
    fn min_sources_adds_independent_teles() {
        let mut cfg = ScenarioConfig::small().with_seed(5);
        cfg.min_sources_per_segment = 3;
        let s = Scenario::build(cfg);
        for seg in s.grid.segments() {
            let mut sources: Vec<_> = s
                .catalog
                .providers_of(&seg.label())
                .iter()
                .map(|&i| s.catalog.get(i).source)
                .collect();
            sources.sort();
            sources.dedup();
            assert!(
                sources.len() >= 3,
                "segment {seg} has only {} distinct sources",
                sources.len()
            );
        }
    }

    #[test]
    fn issue_offset_shifts_queries() {
        let mut cfg = ScenarioConfig::small().with_seed(5);
        cfg.issue_offset = SimDuration::from_secs(60);
        let s = Scenario::build(cfg);
        assert!(s
            .queries
            .iter()
            .all(|q| q.issue_at >= SimTime::from_secs(60)));
    }

    #[test]
    fn periodic_expansion() {
        let s = Scenario::build(ScenarioConfig::small().with_seed(3));
        let base_count = s.queries.len();
        let period = SimDuration::from_secs(120);
        let p = s.with_periodic_queries(period, 3);
        assert_eq!(p.queries.len(), base_count * 3);
        // Ids unique.
        let mut ids: Vec<u64> = p.queries.iter().map(|q| q.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), base_count * 3);
        // Same query shifted by k * period.
        let q0 = &p.queries[0];
        let q0_round2 = p
            .queries
            .iter()
            .find(|q| q.id == q0.id + base_count as u64)
            .unwrap();
        assert_eq!(q0_round2.issue_at, q0.issue_at + period);
        assert_eq!(q0_round2.expr, q0.expr);
    }

    #[test]
    #[should_panic(expected = "more nodes than intersections")]
    fn too_many_nodes_rejected() {
        let _ = Scenario::build(ScenarioConfig {
            grid_rows: 2,
            grid_cols: 2,
            node_count: 5,
            ..ScenarioConfig::default()
        });
    }
}
