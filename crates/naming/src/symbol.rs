//! Interned name components (§V-A hot path).
//!
//! Every retrieval decision flows through hierarchical names: interest
//! table and content-store keys, shared-prefix approximate substitution,
//! and longest-prefix criticality classes. Name components are interned in
//! `dde-logic`'s component table ([`dde_logic::symbol`]), the same
//! implementation that interns labels: a [`Symbol`] is a `u32` handle, so
//! component equality is an integer compare. The table's rank column
//! orders [`Name`](crate::name::Name)s with no string resolved, but each
//! rank compare reads this thread's rank snapshot, so it costs more than an
//! id compare. This module re-exports that interner for the naming layer.

pub use dde_logic::symbol::{global_len, intern, Interner};

/// An interned name component; see [`dde_logic::symbol::Symbol`].
///
/// There is deliberately no `Ord`, so ids cannot order anything:
///
/// ```compile_fail,E0369
/// use dde_naming::symbol::intern;
/// let _ = intern("a") < intern("b");
/// ```
pub use dde_logic::symbol::Symbol;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = Interner::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        let a2 = t.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), Some("alpha"));
        assert_eq!(t.resolve(b), Some("beta"));
        assert_eq!(b.id(), a.id() + 1, "ids are dense in insertion order");
    }

    #[test]
    fn lookup_without_interning() {
        let mut t = Interner::new();
        assert_eq!(t.lookup("x"), None);
        let x = t.intern("x");
        assert_eq!(t.lookup("x"), Some(x));
    }

    #[test]
    fn snapshot_preserves_insertion_order() {
        let mut t = Interner::new();
        for c in ["zulu", "alpha", "mike"] {
            t.intern(c);
        }
        assert_eq!(t.snapshot(), vec!["zulu", "alpha", "mike"]);
    }

    #[test]
    fn same_sequence_same_table() {
        // The determinism contract: identical interning sequences yield
        // identical tables, independent of any ambient state.
        let seq = ["city", "r3", "d7", "noon", "camera1", "r3", "city"];
        let mut t1 = Interner::new();
        let mut t2 = Interner::new();
        let ids1: Vec<u32> = seq.iter().map(|c| t1.intern(c).id()).collect();
        let ids2: Vec<u32> = seq.iter().map(|c| t2.intern(c).id()).collect();
        assert_eq!(ids1, ids2);
        assert_eq!(t1.snapshot(), t2.snapshot());
    }

    #[test]
    fn global_intern_resolves_via_as_str() {
        let s = intern("global-intern-test-component");
        assert_eq!(s.as_str(), "global-intern-test-component");
        assert_eq!(s.to_string(), "global-intern-test-component");
        assert_eq!(intern("global-intern-test-component"), s);
    }

    #[test]
    fn foreign_symbol_resolves_to_placeholder() {
        // A symbol minted far beyond the global table's range must not
        // panic on resolution (no-panic rule R4).
        let bogus = Symbol::from_id(u32::MAX - 7);
        assert_eq!(bogus.as_str(), "<unknown-symbol>");
    }
}
