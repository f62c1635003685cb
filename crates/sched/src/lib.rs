//! # dde-sched — decision-driven scheduling theory
//!
//! Implements the scheduling results the paper builds on (§III-A, §IV):
//!
//! - [`item`] — retrieval items (cost, validity, truth prior) and the
//!   single-bottleneck [`Channel`] model;
//! - [`feasibility`] — timeline analysis of a retrieval order against the
//!   paper's two constraint families (data freshness `t_i + I_i ≥ F`,
//!   decision deadline `t + D ≥ F`) and the `Cost_opt = Σ C_i` theorem;
//! - [`lvf`] — Least-Volatile-object-First, optimal for a single query on a
//!   single channel (property-tested against exhaustive search);
//! - [`hierarchical`] — optimal multi-query scheduling via priority bands
//!   keyed on `min(min_i I_i, D)`, LVF within bands;
//! - [`shortcircuit`] — expected-cost-optimal orderings for ANDs
//!   (`(1 − p)/C` descending) and ORs (`p/C` descending), and term-level
//!   DNF planning;
//! - [`hybrid`] — ref \[3]'s greedy combining validity feasibility with
//!   short-circuit efficiency;
//! - [`explain`] — the predicted-cost summary and human-readable rendering
//!   of a DNF retrieval plan;
//! - [`adaptive`] — the online EWMA estimator of short-circuit probability
//!   per name-prefix/condition that re-parameterizes the planners as
//!   annotations arrive.
//!
//! # Example
//!
//! ```
//! use dde_sched::prelude::*;
//! use dde_logic::prelude::*;
//!
//! let items = vec![
//!     RetrievalItem::new("bridge", Cost::from_bytes(500_000), SimDuration::from_secs(3600)),
//!     RetrievalItem::new("traffic", Cost::from_bytes(200_000), SimDuration::from_secs(5)),
//! ];
//! let (order, analysis) = lvf_schedule(
//!     &items, Channel::mbps1(), SimTime::ZERO, SimDuration::from_secs(30));
//! assert_eq!(order[0].label.as_str(), "bridge"); // least volatile first
//! assert!(analysis.is_feasible());
//! ```

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

pub mod adaptive;
pub mod explain;
pub mod feasibility;
pub mod hierarchical;
pub mod hybrid;
pub mod item;
pub mod lvf;
#[cfg(test)]
mod optimal;
pub mod shortcircuit;

pub use adaptive::{Ewma, TruthEstimator};
pub use explain::explain_dnf_plan;
pub use feasibility::{analyze, is_feasible, optimal_cost, ScheduleAnalysis};
pub use hierarchical::{
    hierarchical_schedule, hierarchical_schedule_with, BandPolicy, MultiQuerySchedule, QuerySpec,
};
pub use hybrid::greedy_validity_shortcircuit;
pub use item::{Channel, RetrievalItem};
pub use lvf::{lvf_order, lvf_schedule, schedulable, sort_lvf};
pub use shortcircuit::{
    and_truth_prob, expected_and_cost, expected_or_cost, optimal_and_order, optimal_or_order,
    plan_dnf, plan_terms, DnfPlan,
};

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::feasibility::{analyze, is_feasible, optimal_cost, ScheduleAnalysis};
    pub use crate::hierarchical::{
        hierarchical_schedule, hierarchical_schedule_with, BandPolicy, MultiQuerySchedule,
        QuerySpec,
    };
    pub use crate::hybrid::greedy_validity_shortcircuit;
    pub use crate::item::{Channel, RetrievalItem};
    pub use crate::lvf::{lvf_order, lvf_schedule, schedulable};
    pub use crate::shortcircuit::{expected_and_cost, optimal_and_order, plan_dnf, DnfPlan};
}
