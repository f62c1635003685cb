//! Interned name components (§V-A hot path).
//!
//! Every retrieval decision flows through hierarchical names: interest
//! table and content-store keys, shared-prefix approximate substitution,
//! and longest-prefix criticality classes. Comparing raw strings on those
//! paths re-walks UTF-8 for every component, so name components are
//! *interned*: a [`Symbol`] is a `u32` handle into an [`Interner`] table,
//! making component equality (the dominant operation in shared-prefix
//! workloads) a single integer compare. Strings are resolved back out only at I/O boundaries —
//! parsing, trace emission, error messages.
//!
//! # Determinism contract
//!
//! The interner is **insertion-ordered**: the *k*-th distinct component ever
//! interned receives id *k*, with no hash state anywhere (the lookup table
//! is a `BTreeMap`, as `clippy.toml` requires). Two same-seed runs
//! therefore intern identical component sequences and assign identical ids.
//! Crucially, no simulation output may depend on *id order* anyway: ids are
//! assigned in first-seen order, not lexicographic order, so everything
//! user-visible (trace bytes, `results_*.txt`, map iteration) is derived
//! from the resolved strings — [`crate::name::Name`]'s `Ord` compares
//! resolved components lexicographically, exactly as the pre-interning
//! representation did.

// The one home for lock/interior-mutability primitives in a state crate:
// the global interner is append-only (ids are handed out under the write
// lock in interning order, strings are 'static once published) and the
// thread-local snapshot can only lag, never diverge, so no observable order
// depends on thread timing.

use core::cmp::Ordering;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{OnceLock, RwLock};

/// An interned name component: a dense `u32` handle into the global
/// [`Interner`].
///
/// Equality is a single integer compare and agrees with string equality
/// (the interner is injective). There is deliberately no `Ord`: ids are
/// handed out in first-seen order, so an id order would leak interning
/// history into whatever it sorted. Order by [`Symbol::as_str`] instead,
/// as [`Name`](crate::name::Name)'s `Ord` does:
///
/// ```compile_fail,E0369
/// use dde_naming::symbol::intern;
/// let _ = intern("a") < intern("b");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense id assigned at interning time (insertion order).
    pub fn id(self) -> u32 {
        self.0
    }

    /// The component text, resolved through the global interner.
    ///
    /// Interned strings are never freed, so the returned slice is
    /// `'static`. A `Symbol` forged against a foreign [`Interner`] instance
    /// (only possible via [`Interner::intern`] on a standalone table)
    /// resolves to a fixed placeholder rather than panicking.
    pub fn as_str(self) -> &'static str {
        LOCAL_STRINGS.with(|cache| resolve_local(cache, self))
    }
}

impl core::fmt::Display for Symbol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An insertion-ordered component table: string → [`Symbol`] and back.
///
/// The table [`Name`](crate::name::Name) uses is a single process-global
/// instance (see [`intern`]); standalone instances exist so tests can
/// verify the determinism contract (two same-seed runs produce identical
/// tables) without interference from other tests' interning.
///
/// Interned strings are leaked (`Box::leak`) so resolution can hand out
/// `&'static str` without copying; name universes are bounded in practice
/// (they mirror a deployment's sensor catalog), so the leak is a fixed
/// cost, not a growth term.
#[derive(Debug, Default)]
pub struct Interner {
    /// Interned strings, indexed by symbol id — insertion order.
    strings: Vec<&'static str>,
    /// Reverse lookup. A `BTreeMap`, not a `HashMap`: no hash state may
    /// reach simulation-visible structures (see `clippy.toml`).
    map: BTreeMap<&'static str, Symbol>,
}

impl Interner {
    /// Creates an empty table.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `component`, returning its symbol. The first call for a
    /// given string assigns the next dense id; later calls return the same
    /// symbol. Ids saturate at `u32::MAX` distinct components (far beyond
    /// any realistic name universe); the last slot is then reused rather
    /// than panicking.
    pub fn intern(&mut self, component: &str) -> Symbol {
        if let Some(&sym) = self.map.get(component) {
            return sym;
        }
        let id = u32::try_from(self.strings.len()).unwrap_or(u32::MAX - 1);
        let leaked: &'static str = Box::leak(component.to_owned().into_boxed_str());
        if (id as usize) < self.strings.len() {
            // Saturated: reuse the final slot (unreachable in practice).
            return Symbol(id);
        }
        self.strings.push(leaked);
        self.map.insert(leaked, Symbol(id));
        Symbol(id)
    }

    /// The symbol for `component`, if it has been interned.
    pub fn lookup(&self, component: &str) -> Option<Symbol> {
        self.map.get(component).copied()
    }

    /// The string for `sym`, if it was produced by this table.
    pub fn resolve(&self, sym: Symbol) -> Option<&'static str> {
        self.strings.get(sym.0 as usize).copied()
    }

    /// Number of distinct components interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The interned components in insertion order (id order) — the
    /// determinism witness: two same-seed runs must produce equal
    /// snapshots.
    pub fn snapshot(&self) -> Vec<&'static str> {
        self.strings.clone()
    }
}

fn global() -> &'static RwLock<Interner> {
    static GLOBAL: OnceLock<RwLock<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Interner::new()))
}

thread_local! {
    /// Per-thread snapshot of the global table's string column. The global
    /// table is append-only and interned strings are `'static`, so a stale
    /// snapshot is never *wrong* — it can only be missing recently-interned
    /// ids, which triggers a refresh under the read lock. Steady-state
    /// resolution (every id already snapshotted) touches no lock at all,
    /// which keeps `Name`'s comparison slow path competitive with the raw
    /// string representation it replaced.
    static LOCAL_STRINGS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn resolve_local(cache: &RefCell<Vec<&'static str>>, sym: Symbol) -> &'static str {
    let idx = sym.0 as usize;
    if let Some(&s) = cache.borrow().get(idx) {
        return s;
    }
    let mut local = cache.borrow_mut();
    let g = global().read().unwrap_or_else(|e| e.into_inner());
    local.clear();
    local.extend_from_slice(&g.strings);
    local.get(idx).copied().unwrap_or("<unknown-symbol>")
}

/// Compares two symbols' resolved strings lexicographically, touching the
/// thread-local snapshot once — the slow path of `Name::cmp` (symbol-equal
/// components never get here).
pub(crate) fn cmp_resolved(a: Symbol, b: Symbol) -> Ordering {
    LOCAL_STRINGS.with(|cache| {
        let sa = resolve_local(cache, a);
        let sb = resolve_local(cache, b);
        sa.cmp(sb)
    })
}

/// Interns `component` in the global table used by
/// [`Name`](crate::name::Name).
///
/// Takes only a read lock when the component is already interned (the
/// steady state after warm-up).
pub fn intern(component: &str) -> Symbol {
    if let Some(sym) = global()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .lookup(component)
    {
        return sym;
    }
    global()
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .intern(component)
}

/// Number of distinct components in the global table — exposed so
/// regression tests can assert that a repeated same-seed run interns
/// nothing new.
pub fn global_len() -> usize {
    global().read().unwrap_or_else(|e| e.into_inner()).len()
}

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
        let bogus = Symbol(u32::MAX - 7);
        assert_eq!(bogus.as_str(), "<unknown-symbol>");
    }
}
