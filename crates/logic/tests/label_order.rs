//! `Label` behaves as its string does, whatever the interning history.
//!
//! A label is a `Copy` handle into the global label table, ordered by the
//! table's ranks rather than by its text. This property test interns random
//! strings in random order — some before the comparing thread's view of the
//! table is current, some from a second thread while it holds that view, and
//! a chain that exhausts a rank gap and forces the table to re-spread — and
//! checks `cmp`, `==`, `Hash`, `Debug` and `Borrow<str>` lookups against
//! `str`.

use dde_logic::label::Label;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::atomic::{AtomicUsize, Ordering};

const _: () = assert!(size_of::<Label>() <= 8);
const _: fn() = || {
    fn copy<T: Copy>() {}
    copy::<Label>();
};

/// Makes strings unseen by earlier cases, so every case interns new ones.
static FRESH: AtomicUsize = AtomicUsize::new(0);

fn fresh(s: &str) -> String {
    format!("{s}#{}", FRESH.fetch_add(1, Ordering::Relaxed))
}

/// A fixed-key hash, so both sides of a comparison hash alike.
fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(t)
}

/// Checks every pair of `labels` against their strings.
fn agrees_with_str(labels: &[Label]) -> Result<(), TestCaseError> {
    for a in labels {
        prop_assert_eq!(format!("{a:?}"), format!("Label({:?})", a.as_str()));
        prop_assert_eq!(a.to_string(), a.as_str());
        prop_assert_eq!(hash_of(a), hash_of(a.as_str()));
        for b in labels {
            prop_assert_eq!(a.cmp(b), a.as_str().cmp(b.as_str()), "{:?} vs {:?}", a, b);
            prop_assert_eq!(a == b, a.as_str() == b.as_str());
        }
    }
    let by_label: BTreeMap<Label, &str> = labels.iter().map(|l| (*l, l.as_str())).collect();
    for l in labels {
        prop_assert_eq!(by_label.get(l.as_str()).copied(), Some(l.as_str()));
    }
    prop_assert_eq!(by_label.get("never interned \u{0}"), None);
    let sorted: Vec<&str> = by_label.keys().map(Label::as_str).collect();
    let strings: BTreeSet<&str> = labels.iter().map(Label::as_str).collect();
    prop_assert_eq!(sorted, strings.into_iter().collect::<Vec<_>>());
    Ok(())
}

proptest! {
    #[test]
    fn label_order_matches_str(
        early in prop::collection::vec("[a-d/_]{0,5}", 0..12),
        late in prop::collection::vec("[a-d/_]{0,5}", 0..12),
        remote in prop::collection::vec("[a-d/_]{0,5}", 0..12),
        chain_len in 0usize..130,
    ) {
        let mut labels: Vec<Label> = early.iter().map(Label::new).collect();
        labels.extend(early.iter().map(|s| Label::new(fresh(s))));
        // This thread's view now holds everything above.
        agrees_with_str(&labels)?;

        // A second thread interns strings this thread's view lacks,
        // including a chain that halves one rank gap until it is gone.
        let chain_root = fresh("chain");
        let from_remote: Vec<Label> = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut out: Vec<Label> = remote.iter().map(|s| Label::new(fresh(s))).collect();
                    // Every link sorts between the root and its `~` bound,
                    // so each halves the same gap (at most 2^64 wide).
                    out.push(Label::new(&chain_root));
                    out.push(Label::new(format!("{chain_root}~")));
                    let mut link = chain_root.clone();
                    for _ in 0..chain_len {
                        link.push('a');
                        out.push(Label::new(&link));
                    }
                    out
                })
                .join()
                .unwrap()
        });
        // Stale view: everything it holds still compares correctly.
        agrees_with_str(&labels)?;
        // Comparing the second thread's labels refreshes the view.
        labels.extend(from_remote);
        agrees_with_str(&labels)?;

        labels.extend(late.iter().map(|s| Label::new(fresh(s))));
        labels.extend(late.iter().map(Label::new));
        for (l, s) in labels.iter().zip(early.iter()) {
            prop_assert_eq!(l.as_str(), s.as_str());
        }
        agrees_with_str(&labels)?;
    }
}
