//! # dde-lint — workspace determinism analyzer
//!
//! The whole evaluation story of this reproduction rests on bit-identical
//! replay: the same seed must produce a byte-identical `RunReport`, or the
//! resilience and scheduling comparisons (LVF vs. hierarchical vs. hybrid)
//! are noise. This crate parses every workspace source file with `syn` and
//! enforces the determinism/panic-safety rules that protect that invariant:
//!
//! - **R1 `no-hash-state`** — no `std::collections::HashMap`/`HashSet` in
//!   simulator-state crates (`netsim`, `core`, `sched`, `naming`,
//!   `workload`). Hash iteration order is seeded per-instance, so any state
//!   that reaches a report through it breaks replay. Use
//!   `BTreeMap`/`BTreeSet` or an explicitly ordered wrapper.
//! - **R2 `no-ambient-nondeterminism`** — no `Instant::now`,
//!   `SystemTime::now`, `thread_rng`, `from_entropy`, or env-dependent
//!   lookups (`env::var` & friends) outside the `bench` harness. All
//!   randomness flows from the run seed; all time is [`SimTime`]-simulated.
//! - **R3 `float-order`** — no `.partial_cmp(..)` comparisons (the usual
//!   `sort_by(|a, b| a.partial_cmp(b).unwrap_or(Equal))` idiom): NaN maps
//!   to `Equal`, making the order input-dependent. Use [`total_cmp_f64`] or
//!   `f64::total_cmp`.
//! - **R4 `no-panic`** — no `.unwrap()`/`.expect(..)` in library crates'
//!   non-test code, unless annotated `// lint: allow(panic) — <reason>`.
//!   Annotated sites surface in the machine-readable allowlist report.
//!
//! The structural passes (R6–R8) run over the [`items`] index (module
//! tree, `use` resolution, `fn`/`impl` spans) built on the same token
//! stream. (R5, shared mutable state in worker-pinned simulation code,
//! retired with the simulator's worker pool.)
//!
//! - **R6 `attribution-key`** — every constructed wire-level
//!   `EventKind::{Transmit, Deliver, Loss}` record must thread a `query`
//!   attribution key (`WireMessage::attribution()`), so no new emit site
//!   can bypass the per-decision ledger-conservation invariant.
//! - **R7 `stable-event-key`** — event enqueues go through the stable
//!   `EventKey` constructors; raw key literals outside `impl EventKey` and
//!   raw timestamp-tuple heap pushes are flagged.
//! - **R8 `merge-order`** — iterating a worker pool's result collection
//!   (`results` in `dde-bench`'s sweep pool) without a preceding
//!   deterministic sort in the same function is flagged.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` fns, `tests/`, `benches/`)
//! is exempt. Per-rule path allowlists live in `lint.toml` at the workspace
//! root; `--format json` emits a report CI can archive and gate on. Allows
//! that no longer match any finding are reported as **stale** and gate the
//! exit code exactly like violations.
//!
//! [`SimTime`]: https://docs.rs/dde-logic

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod items;
pub mod report;
pub mod rules;

pub use config::Config;
pub use engine::{run, LintReport, SourceFile};
pub use items::ItemIndex;
pub use report::{AllowSource, Diagnostic, RuleId, RuleStats, StaleAllow};

/// Total-order comparison for `f64`, for use in `sort_by`/`max_by` keys.
///
/// This is the remediation `dde-lint` suggests for rule **R3**: unlike
/// `partial_cmp(..).unwrap_or(Equal)`, the IEEE 754 `totalOrder` predicate
/// gives every float — including NaNs and signed zeros — one fixed place,
/// so a sort key of unknown provenance can never collapse into an
/// input-order-dependent tie.
///
/// ```
/// let mut v = vec![2.0_f64, f64::NAN, 1.0];
/// v.sort_by(|a, b| dde_lint::total_cmp_f64(*a, *b));
/// assert_eq!(v[0], 1.0);
/// assert_eq!(v[1], 2.0);
/// assert!(v[2].is_nan());
/// ```
pub fn total_cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.total_cmp(&b)
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;

    #[test]
    fn total_cmp_orders_nan_last_among_positives() {
        assert_eq!(super::total_cmp_f64(1.0, 2.0), Ordering::Less);
        assert_eq!(super::total_cmp_f64(f64::NAN, 1.0), Ordering::Greater);
        assert_eq!(super::total_cmp_f64(f64::NAN, f64::NAN), Ordering::Equal);
    }
}
