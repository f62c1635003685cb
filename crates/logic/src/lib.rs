//! # dde-logic — decision logic for decision-driven execution
//!
//! Foundation crate of the Athena reproduction (Abdelzaher et al.,
//! *Decision-driven Execution*, ICDCS 2017). It provides:
//!
//! - [`time`] — integer-microsecond simulated time ([`SimTime`],
//!   [`SimDuration`]) shared by every other crate;
//! - [`truth`] — Kleene three-valued logic ([`Truth`]), the semantics under
//!   which partially-evaluated decisions are sound to short-circuit;
//! - [`symbol`] — insertion-ordered string interning with a rank column:
//!   interned labels and name components are equal as integers and ordered
//!   by rank, read from a per-thread snapshot;
//! - [`label`] — named Boolean world-state variables ([`Label`]) and
//!   freshness-aware partial assignments ([`Assignment`]);
//! - [`expr`] — general Boolean expression trees ([`Expr`]) with conversion
//!   to disjunctive normal form;
//! - [`dnf`] — DNF decision queries ([`Dnf`]): alternative courses of action,
//!   resolution checking, and short-circuit relevance pruning;
//! - [`meta`] — per-condition retrieval metadata ([`ConditionMeta`]): cost,
//!   latency, success probability, validity interval;
//! - [`parse`] — a text syntax for expressions.
//!
//! # Example
//!
//! The paper's post-earthquake route query:
//!
//! ```
//! use dde_logic::prelude::*;
//!
//! let query = parse_expr("(viableA & viableB & viableC) | (viableD & viableE & viableF)")?
//!     .to_dnf(64)?;
//!
//! let mut world = Assignment::new();
//! // A picture shows segment A is badly damaged...
//! world.set(Label::new("viableA"), Truth::False, SimTime::ZERO, SimDuration::from_secs(60));
//!
//! // ...so the whole first route is short-circuited away:
//! let relevant = query.relevant_labels(&world, SimTime::ZERO);
//! assert_eq!(relevant.len(), 3); // only viableD, viableE, viableF remain
//! # Ok::<(), Box<dyn std::error::Error>>(())
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
#![warn(missing_debug_implementations)]

pub mod dnf;
pub mod expr;
pub mod label;
pub mod meta;
pub mod parse;
pub mod symbol;
pub mod time;
pub mod truth;

pub use dnf::{Dnf, Literal, Resolution, Term};
pub use expr::{DnfOverflow, Expr};
pub use label::{Assignment, Label, LabelValue};
pub use meta::{ConditionMeta, Cost, MetaTable, Probability};
pub use parse::{parse_expr, ParseError};
pub use time::{SimDuration, SimTime};
pub use truth::Truth;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::dnf::{Dnf, Literal, Resolution, Term};
    pub use crate::expr::Expr;
    pub use crate::label::{Assignment, Label, LabelValue};
    pub use crate::meta::{ConditionMeta, Cost, MetaTable, Probability};
    pub use crate::parse::parse_expr;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::truth::Truth;
}
