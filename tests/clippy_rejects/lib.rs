//! Clippy must reject this crate. It carries the library crates' `#![deny]`
//! line, picks up the repository's `clippy.toml` from a parent directory,
//! and breaks each rule those two hold once. CI runs
//!
//! ```text
//! cargo clippy --manifest-path tests/clippy_rejects/Cargo.toml
//! ```
//!
//! and requires the failure to name `disallowed_types`,
//! `disallowed_methods` and `unwrap_used`.

#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::unwrap_used,
    clippy::expect_used
)]

/// Hashed state: iteration order is seeded per instance.
pub fn hashed_state() -> std::collections::HashMap<u32, u32> {
    std::collections::HashMap::new()
}

/// An ambient input: the wall clock.
pub fn ambient_input() -> std::time::Instant {
    std::time::Instant::now()
}

/// An unchecked panic in library code.
pub fn unchecked_panic(value: Option<u32>) -> u32 {
    value.unwrap()
}
