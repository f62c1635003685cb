//! Interned strings ordered by rank: name components and labels.
//!
//! Every retrieval decision flows through strings that repeat: the
//! components of hierarchical names (interest-table and content-store keys,
//! shared-prefix substitution, criticality classes) and the labels of
//! decision queries (§II-B: "names of Boolean variables"). Comparing raw
//! strings on those paths re-walks UTF-8 on every compare, so both are
//! *interned*: a [`Symbol`] is a `u32` handle into an [`Interner`] table.
//! Equality is one integer compare. Order is not: the table keeps a
//! **rank** for every string, a `u64` that sorts exactly as the strings do,
//! so `Name` and `Label` order compares two ranks instead of two strings,
//! but each such compare reads this thread's rank snapshot through a
//! thread-local (about 10 ns). Lookups that need only identity therefore
//! key on ids, and rank order is kept for what a run shows in order.
//! Strings are resolved back out only at I/O boundaries — parsing, trace
//! emission, error messages.
//!
//! # Two tables
//!
//! The process holds two global tables of this one type: name components
//! ([`intern`], [`Symbol::as_str`]) and labels (through
//! [`Label`](crate::label::Label)). Keeping them apart means interning a
//! label never moves a component's id, which a `Name`'s `Debug` text shows.
//!
//! # Ranks and snapshots
//!
//! A new string takes a rank between those of its neighbours in string
//! order, so no existing rank moves. When two neighbours leave no gap the
//! table re-spreads every rank over the `u64` range and starts a new
//! *epoch*. Each thread compares through its own snapshot of the rank
//! column and refreshes it (under the read lock, copying only the new tail
//! unless the epoch moved) when a symbol is newer than the snapshot. A stale
//! snapshot is still right: every epoch's ranks order all the strings that
//! epoch contains. Steady-state compares touch no lock.
//!
//! # Determinism contract
//!
//! Ids are **insertion-ordered**: the *k*-th distinct string interned in a
//! table receives id *k*, with no hash state anywhere (the lookup table is a
//! `BTreeMap`, as `clippy.toml` requires). Two same-seed runs therefore
//! intern identical sequences and assign identical ids. No simulation output
//! depends on id order: ids are handed out first-seen, not in string order,
//! so everything user-visible (trace bytes, `results_*.txt`, map iteration)
//! follows ranks, which follow strings.
//!
//! # Memory
//!
//! Interned strings are leaked (`Box::leak`) so resolution hands out
//! `&'static str` without copying. The leak is bounded by the number of
//! distinct strings ever interned; component and label universes mirror a
//! deployment's sensor catalog and road grid, so it is a fixed cost, not a
//! growth term.

// The one home for lock/interior-mutability primitives in a state crate:
// the global tables are append-only (ids are handed out under the write
// lock in interning order, strings are 'static once published) and a
// thread-local snapshot can only lag, never diverge, so no observable order
// depends on thread timing.

use core::cmp::Ordering;
use core::ops::Bound;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::RwLock;

/// An interned string: a dense `u32` handle into an [`Interner`] table.
///
/// Equality is a single integer compare and agrees with string equality
/// (the interner is injective). There is deliberately no `Ord`: ids are
/// handed out in first-seen order, so an id order would leak interning
/// history into whatever it sorted. Order by [`Symbol::cmp_as_str`], which
/// compares ranks, as `dde_naming`'s `Name` order does:
///
/// ```compile_fail,E0369
/// use dde_logic::symbol::intern;
/// let _ = intern("a") < intern("b");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense id assigned at interning time (insertion order).
    pub fn id(self) -> u32 {
        self.0
    }

    /// The symbol with dense id `id`, the inverse of [`Symbol::id`]. An id
    /// the component table has not handed out resolves to a placeholder.
    pub fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }

    /// The component text, resolved through the global component table.
    ///
    /// Interned strings are never freed, so the returned slice is
    /// `'static`. A `Symbol` from a standalone [`Interner`] that the global
    /// table has not reached resolves to a fixed placeholder rather than
    /// panicking.
    pub fn as_str(self) -> &'static str {
        COMPONENTS.resolve(self)
    }

    /// Orders two component symbols as their strings order, by comparing
    /// ranks in this thread's snapshot of the component table.
    pub fn cmp_as_str(self, other: Symbol) -> Ordering {
        COMPONENTS.cmp(self, other)
    }
}

impl core::fmt::Display for Symbol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Rank distance between a new string and its one neighbour when it sorts
/// before or after everything in the table.
const STEP: u64 = 1 << 32;

/// An insertion-ordered string table: string → [`Symbol`] and back, plus a
/// rank per symbol that sorts as the strings do.
///
/// The tables `dde_naming`'s `Name` and [`Label`](crate::label::Label) use are
/// process-global instances (see the module docs); standalone instances
/// exist so tests can verify the determinism contract (two same-seed runs
/// produce identical tables) without interference from other tests'
/// interning.
#[derive(Debug, Default)]
pub struct Interner {
    /// Interned strings, indexed by symbol id — insertion order.
    strings: Vec<&'static str>,
    /// `ranks[id]` sorts as `strings[id]` does against every other string.
    ranks: Vec<u64>,
    /// Bumped whenever existing ranks are re-spread.
    epoch: u64,
    /// Reverse lookup. A `BTreeMap`, not a `HashMap`: no hash state may
    /// reach simulation-visible structures (see `clippy.toml`).
    map: BTreeMap<&'static str, Symbol>,
}

impl Interner {
    /// Creates an empty table.
    pub const fn new() -> Interner {
        Interner {
            strings: Vec::new(),
            ranks: Vec::new(),
            epoch: 0,
            map: BTreeMap::new(),
        }
    }

    /// Interns `s`, returning its symbol. The first call for a given string
    /// assigns the next dense id; later calls return the same symbol.
    ///
    /// # Panics
    ///
    /// Panics when the table already holds 2³² strings, every `u32` id.
    /// Order depends on each symbol naming exactly one string, so there is
    /// no slot to reuse.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        #[expect(
            clippy::expect_used,
            reason = "2^32 distinct strings exhaust the id space; reusing an id would make two strings one symbol"
        )]
        let sym = Symbol(u32::try_from(self.strings.len()).expect("interner full: 2^32 strings"));
        let below = self
            .map
            .range::<str, _>((Bound::Unbounded, Bound::Excluded(s)))
            .next_back();
        let above = self
            .map
            .range::<str, _>((Bound::Excluded(s), Bound::Unbounded))
            .next();
        let lo = below.map(|(_, b)| self.ranks[b.0 as usize]);
        let hi = above.map(|(_, a)| self.ranks[a.0 as usize]);
        let rank = match (lo, hi) {
            (None, None) => Some(1 << 63),
            (Some(lo), None) => lo.checked_add(STEP),
            (None, Some(hi)) => hi.checked_sub(STEP),
            (Some(lo), Some(hi)) => (hi - lo >= 2).then(|| lo + (hi - lo) / 2),
        };
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        self.strings.push(leaked);
        self.map.insert(leaked, sym);
        match rank {
            Some(rank) => self.ranks.push(rank),
            None => self.respread(),
        }
        sym
    }

    /// Gives every string an evenly spaced rank in string order and starts
    /// a new epoch. Runs only when a new string found no gap between its
    /// neighbours' ranks.
    fn respread(&mut self) {
        let gap = u64::MAX / (self.strings.len() as u64 + 1);
        self.ranks.resize(self.strings.len(), 0);
        for (i, sym) in self.map.values().enumerate() {
            self.ranks[sym.0 as usize] = (i as u64 + 1) * gap;
        }
        self.epoch += 1;
    }

    /// The symbol for `s`, if it has been interned.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// The string for `sym`, if it was produced by this table.
    pub fn resolve(&self, sym: Symbol) -> Option<&'static str> {
        self.strings.get(sym.0 as usize).copied()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The interned strings in insertion order (id order) — the
    /// determinism witness: two same-seed runs must produce equal
    /// snapshots.
    pub fn snapshot(&self) -> Vec<&'static str> {
        self.strings.clone()
    }
}

/// One thread's copy of a global table's string and rank columns.
#[derive(Debug)]
struct View {
    strings: Vec<&'static str>,
    ranks: Vec<u64>,
    epoch: u64,
}

impl View {
    const fn new() -> View {
        View {
            strings: Vec::new(),
            ranks: Vec::new(),
            epoch: 0,
        }
    }

    /// Catches up with `table`: appends the new tail, and recopies every
    /// rank if the table re-spread them since the last refresh.
    fn refresh(&mut self, table: &Interner) {
        self.strings
            .extend_from_slice(&table.strings[self.strings.len()..]);
        if self.epoch != table.epoch {
            self.ranks.clear();
            self.epoch = table.epoch;
        }
        self.ranks
            .extend_from_slice(&table.ranks[self.ranks.len()..]);
    }
}

/// A process-global [`Interner`]; `slot` picks this thread's [`View`] of it.
#[derive(Debug)]
pub(crate) struct Table {
    interner: RwLock<Interner>,
    slot: usize,
}

thread_local! {
    /// One view per global table, indexed by [`Table::slot`].
    static VIEWS: [RefCell<View>; 2] = const { [RefCell::new(View::new()), RefCell::new(View::new())] };
}

/// The table name components are interned in.
static COMPONENTS: Table = Table::new(0);
/// The table labels are interned in.
pub(crate) static LABELS: Table = Table::new(1);

impl Table {
    const fn new(slot: usize) -> Table {
        Table {
            interner: RwLock::new(Interner::new()),
            slot,
        }
    }

    /// Interns `s`, taking only the read lock when it is already interned
    /// (the steady state after warm-up). A thread that adds a string also
    /// catches its own view up, so a single-threaded run never refreshes on
    /// a compare.
    pub(crate) fn intern(&self, s: &str) -> Symbol {
        if let Some(sym) = self.read(|t| t.lookup(s)) {
            return sym;
        }
        let mut table = self.interner.write().unwrap_or_else(|e| e.into_inner());
        let sym = table.intern(s);
        VIEWS.with(|views| views[self.slot].borrow_mut().refresh(&table));
        sym
    }

    fn read<R>(&self, f: impl FnOnce(&Interner) -> R) -> R {
        f(&self.interner.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// This thread's view, refreshed first if it does not yet hold `sym`.
    fn with_view<R>(&self, sym: Symbol, f: impl FnOnce(&View) -> R) -> R {
        VIEWS.with(|views| {
            let cell = &views[self.slot];
            if (sym.0 as usize) >= cell.borrow().ranks.len() {
                self.refresh(cell);
            }
            f(&cell.borrow())
        })
    }

    #[cold]
    #[inline(never)]
    fn refresh(&self, view: &RefCell<View>) {
        self.read(|t| view.borrow_mut().refresh(t));
    }

    pub(crate) fn resolve(&self, sym: Symbol) -> &'static str {
        self.with_view(sym, |v| {
            v.strings
                .get(sym.0 as usize)
                .copied()
                .unwrap_or("<unknown-symbol>")
        })
    }

    /// Orders `a` and `b` as their strings do. Symbols the table never
    /// handed out sort after every interned one, by id.
    pub(crate) fn cmp(&self, a: Symbol, b: Symbol) -> Ordering {
        self.with_view(Symbol(a.0.max(b.0)), |v| {
            let rank = |s: Symbol| v.ranks.get(s.0 as usize).copied();
            match (rank(a), rank(b)) {
                (Some(ra), Some(rb)) => ra.cmp(&rb),
                (ra, rb) => ra.is_none().cmp(&rb.is_none()).then(a.0.cmp(&b.0)),
            }
        })
    }

    fn len(&self) -> usize {
        self.read(Interner::len)
    }
}

/// Interns `component` in the global component table, the one
/// `dde_naming`'s `Name` uses.
///
/// Takes only a read lock when the component is already interned (the
/// steady state after warm-up).
pub fn intern(component: &str) -> Symbol {
    COMPONENTS.intern(component)
}

/// Number of distinct components in the global component table — exposed
/// so regression tests can assert that a repeated same-seed run interns
/// nothing new.
pub fn global_len() -> usize {
    COMPONENTS.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ordered(t: &Interner) -> Vec<&'static str> {
        let mut by_rank: Vec<(u64, &'static str)> = t
            .ranks
            .iter()
            .copied()
            .zip(t.strings.iter().copied())
            .collect();
        by_rank.sort_unstable();
        by_rank.into_iter().map(|(_, s)| s).collect()
    }

    #[test]
    fn ranks_sort_as_strings_through_respreads() {
        // Each new string lands just above "a" and below the previous one,
        // halving the same gap until it is gone and the table re-spreads.
        let mut t = Interner::new();
        t.intern("a");
        t.intern("b");
        let mut s = String::from("a");
        for _ in 0..200 {
            s.push('a');
            t.intern(&s);
        }
        assert!(t.epoch > 0, "the gap must run out at least once");
        let mut sorted = t.snapshot();
        sorted.sort_unstable();
        assert_eq!(ordered(&t), sorted);
    }

    #[test]
    fn appends_and_prepends_keep_order() {
        let mut t = Interner::new();
        for i in 0..1000 {
            t.intern(&format!("m{i:04}"));
            t.intern(&format!("{}", 9999 - i));
        }
        let mut sorted = t.snapshot();
        sorted.sort_unstable();
        assert_eq!(ordered(&t), sorted);
        assert_eq!(t.epoch, 0, "appends and prepends step, not halve");
    }

    #[test]
    fn unknown_symbols_sort_last_by_id() {
        let a = intern("symbol-unknown-order-test");
        let far = Symbol(u32::MAX - 3);
        let farther = Symbol(u32::MAX - 2);
        assert_eq!(COMPONENTS.cmp(a, far), Ordering::Less);
        assert_eq!(COMPONENTS.cmp(far, farther), Ordering::Less);
        assert_eq!(COMPONENTS.cmp(far, far), Ordering::Equal);
    }
}
