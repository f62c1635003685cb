//! # dde-naming — hierarchical semantic naming and indexing
//!
//! The networking substrate of §V of the paper: content, labels, and
//! annotators all live in one hierarchical name space; names encode
//! semantics, so shared-prefix length proxies information similarity.
//!
//! - [`name`] — path-like content names with shared-prefix similarity;
//! - [`symbol`] — `dde-logic`'s deterministic, insertion-ordered interner
//!   with its rank column, re-exported: name component equality is an
//!   integer compare, and order compares ranks from a per-thread snapshot
//!   (§V-A);
//! - [`fib`] — the Pending Interest Table of the NDN-like forwarding plane
//!   (§VI-B), keyed by object name;
//! - [`store`] — a freshness-aware, capacity-bounded content store with
//!   expired-first/LRU eviction and approximate substitution (§VI-B/C);
//! - [`criticality`] — longest-prefix classes over the name space; a
//!   critical region is exempt from approximate substitution (§V-C).

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

pub mod criticality;
pub mod fib;
pub mod name;
pub mod store;
pub mod symbol;

pub use criticality::{Criticality, CriticalityMap};
pub use fib::{Interest, Pit};
pub use name::{Name, NameError};
pub use store::{ContentStore, StoredObject};
pub use symbol::{Interner, Symbol};

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::criticality::{Criticality, CriticalityMap};
    pub use crate::fib::{Interest, Pit};
    pub use crate::name::{Name, NameError};
    pub use crate::store::{ContentStore, StoredObject};
}
