//! # dde-workload — the post-disaster route-assessment workload (§VII)
//!
//! Deterministic generation of everything the paper's evaluation scenario
//! needs:
//!
//! - [`grid`] — the Manhattan road lattice: intersections, segments,
//!   candidate-route generation via randomized shortest paths;
//! - [`world`] — seeded ground truth with fast/slow dynamics: each label's
//!   value is piecewise-constant over epochs equal to its validity interval;
//! - [`catalog`] — the advertised evidence objects (per-segment cameras,
//!   multi-segment panoramas, gap-filling tele shots) with sizes in the
//!   paper's 100 KB – 1 MB range;
//! - [`scenario`] — assembly of topology + world + catalog + queries from a
//!   [`ScenarioConfig`] whose defaults reproduce the paper's setup (8×8
//!   grid, ~30 nodes, 1 Mbps links, 3 queries/node, 5 routes/query);
//! - [`workflow`] — mission doctrines (flowcharts of decision points) and
//!   the Markov miner that anticipates the next decision (§VIII).

#![deny(missing_docs)]
// Determinism rules (see clippy.toml): hashed collections, ambient
// clocks/env reads and unjustified unwrap/expect are denied in simulation
// library code.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::unwrap_used,
    clippy::expect_used
)]

mod by_id;
pub mod catalog;
pub mod grid;
pub mod scenario;
pub mod workflow;
pub mod world;

pub use catalog::{Catalog, ObjectSpec};
pub use grid::{Intersection, RoadGrid, Route, Segment};
pub use scenario::{QueryInstance, Scenario, ScenarioConfig};
pub use workflow::{DecisionTemplate, Doctrine, WorkflowModel};
pub use world::{DynamicsClass, LabelDynamics, WorldModel};

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::catalog::{Catalog, ObjectSpec};
    pub use crate::grid::{Intersection, RoadGrid, Route, Segment};
    pub use crate::scenario::{QueryInstance, Scenario, ScenarioConfig};
    pub use crate::workflow::{DecisionTemplate, Doctrine, WorkflowModel};
    pub use crate::world::{DynamicsClass, WorldModel};
}
