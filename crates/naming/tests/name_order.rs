//! `Name` order is string order, with components interned between compares.
//!
//! `Name::cmp` compares the component table's ranks, never the strings. This
//! property test builds names from random components and interleaves the
//! compares with new components interned on this thread and on a second
//! one, so the comparing thread's view of the table lags and refreshes, and
//! checks each compare against comparing the rendered component strings.

use dde_naming::name::Name;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Makes components unseen by earlier cases, so every case interns new ones.
static FRESH: AtomicUsize = AtomicUsize::new(0);

fn fresh(c: &str) -> String {
    format!("{c}~{}", FRESH.fetch_add(1, Ordering::Relaxed))
}

fn strings(n: &Name) -> Vec<&'static str> {
    n.component_strs().collect()
}

/// Checks `name` against every name in `names`, both ways round.
fn agrees(name: &Name, names: &[Name]) -> Result<(), TestCaseError> {
    for other in names {
        prop_assert_eq!(
            name.cmp(other),
            strings(name).cmp(&strings(other)),
            "{} vs {}",
            name,
            other
        );
        prop_assert_eq!(other.cmp(name), strings(other).cmp(&strings(name)));
        prop_assert_eq!(name == other, strings(name) == strings(other));
    }
    Ok(())
}

proptest! {
    #[test]
    fn name_order_matches_component_strings(
        steps in prop::collection::vec(
            (prop::collection::vec("[a-c.]{1,3}", 0..4), 0u8..3),
            1..24,
        ),
    ) {
        let mut names: Vec<Name> = Vec::new();
        for (components, how) in &steps {
            let name = match how {
                // Components that may already be interned.
                0 => Name::from_components(components).unwrap(),
                // New components interned here, between compares.
                1 => Name::from_components(components.iter().map(|c| fresh(c))).unwrap(),
                // New components interned by another thread, which this
                // thread's view of the table does not yet hold.
                _ => std::thread::scope(|scope| {
                    scope
                        .spawn(|| Name::from_components(components.iter().map(|c| fresh(c))))
                        .join()
                        .unwrap()
                })
                .unwrap(),
            };
            agrees(&name, &names)?;
            names.push(name);
        }
        let mut sorted = names.clone();
        sorted.sort();
        let mut by_strings = names;
        by_strings.sort_by(|a, b| strings(a).cmp(&strings(b)));
        prop_assert_eq!(sorted, by_strings);
    }
}
