//! # dde-coverage — source selection for decision queries
//!
//! §III-B of the paper: "to determine the most appropriate sources to
//! retrieve evidence from, one must solve a source selection problem. This
//! problem can be cast as one of coverage."
//!
//! - [`setcover`] — weighted set cover: the `H_n`-approximate greedy used by
//!   Athena's `slt`/`lcf`/`lvf` retrieval schemes, plus an exact
//!   branch-and-bound solver for validation;
//! - [`aggregation`] — the "price of incorrectly aggregating coverage
//!   values" (ref \[10]): what selection loses when sources advertise only
//!   aggregate counts instead of exact label sets.
//!
//! # Example
//!
//! ```
//! use dde_coverage::prelude::*;
//! use dde_logic::prelude::*;
//! use std::collections::BTreeSet;
//!
//! // Two cameras overlap on segment B; cover all three segments cheaply.
//! let needed: BTreeSet<Label> =
//!     ["segA", "segB", "segC"].iter().map(|s| Label::new(s)).collect();
//! let sources = vec![
//!     Source::new("cam1", ["segA", "segB"], Cost::from_bytes(300_000)),
//!     Source::new("cam2", ["segB", "segC"], Cost::from_bytes(300_000)),
//!     Source::new("cam3", ["segB"], Cost::from_bytes(250_000)),
//! ];
//! let cover = greedy_cover(&needed, &sources);
//! assert!(cover.is_complete());
//! assert_eq!(cover.chosen.len(), 2); // cam1 + cam2; cam3 is redundant
//! ```

#![warn(missing_docs)]
// Determinism rules (see clippy.toml): hashed collections, ambient
// clocks/env reads and unjustified unwrap/expect are denied in simulation
// library code.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::unwrap_used,
    clippy::expect_used
)]

pub mod aggregation;
pub mod setcover;

pub use aggregation::{aggregate_select, aggregation_price, AggregationPrice};
pub use setcover::{exact_cover, greedy_cover, Cover, Source};

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::aggregation::{aggregate_select, aggregation_price, AggregationPrice};
    pub use crate::setcover::{exact_cover, greedy_cover, Cover, Source};
}
