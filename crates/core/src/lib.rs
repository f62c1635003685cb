//! # dde-core — Athena, the decision-driven execution system
//!
//! The paper's primary contribution (§II, §VI): a distributed system in
//! which *all resource consumption is driven by the information needs of
//! decision making*. Applications submit decision queries as Boolean
//! expressions over world-state labels; the system plans evidence
//! retrieval around the decision structure — short-circuiting, validity
//! awareness, caching, prefetching, and label sharing.
//!
//! - [`object`] — sampled evidence objects in flight;
//! - [`msg`] — the wire protocol (`QueryAnnounce` / `Request` / `Data` /
//!   `LabelShare`);
//! - [`annotate`] — annotators (ground-truth, noisy, lying) and trust;
//! - [`query`] — per-query state: freshness-aware partial evidence,
//!   deadline lifecycle;
//! - [`strategy`] — the five retrieval schemes of the evaluation
//!   (`cmp`, `slt`, `lcf`, `lvf`, `lvfl`);
//! - [`node`] — the Athena node protocol (the six functions of §VI);
//! - [`engine`] — scenario runner producing the paper's metrics.
//!
//! # Example
//!
//! ```
//! use dde_core::prelude::*;
//! use dde_workload::prelude::*;
//!
//! let scenario = Scenario::build(ScenarioConfig::small().with_seed(42));
//! let report = run_scenario(&scenario, RunOptions::new(Strategy::Lvf));
//! assert!(report.resolution_ratio() > 0.0);
//! ```

#![warn(missing_docs)]
// Determinism guardrails (see clippy.toml and dde-lint): hashed collections
// and ambient clocks/env reads are disallowed in simulation library code.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod annotate;
pub mod engine;
pub mod msg;
pub mod node;
pub mod object;
pub mod query;
pub mod strategy;

pub use annotate::{
    Annotator, BiasedSourcesAnnotator, GroundTruthAnnotator, LyingAnnotator, NoisyAnnotator,
    TrustPolicy,
};
pub use engine::{
    build_nodes, build_shared_world, collect_report_parts, run_all_strategies, run_scenario,
    run_scenario_observed, run_scenario_sharded, run_scenario_with_annotator, QueryRecord,
    RunOptions, RunReport,
};
pub use msg::{AthenaMsg, QueryId, RequestKind};
pub use node::{AthenaEvent, AthenaNode, CachedLabel, NodeConfig, NodeStats, SharedWorld};
pub use object::EvidenceObject;
pub use query::{QueryCounters, QueryOutcome, QueryState, QueryStatus};
pub use strategy::Strategy;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::annotate::{Annotator, GroundTruthAnnotator, TrustPolicy};
    pub use crate::engine::{
        run_all_strategies, run_scenario, run_scenario_observed, run_scenario_sharded,
        run_scenario_with_annotator, RunOptions, RunReport,
    };
    pub use crate::msg::{AthenaMsg, QueryId};
    pub use crate::node::{AthenaNode, NodeConfig, SharedWorld};
    pub use crate::object::EvidenceObject;
    pub use crate::query::{QueryOutcome, QueryState, QueryStatus};
    pub use crate::strategy::Strategy;
}
