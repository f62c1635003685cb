//! Weighted set cover for source selection (§III-B).
//!
//! "It is desired to cover all evidence needed for making the decision using
//! the least-cost subset of sources." A source (e.g. a roadside camera)
//! covers the subset of predicates its evidence can resolve — a single
//! picture may cover several nearby road segments — at a retrieval cost.
//!
//! [`MaskSources::greedy`] is the classic `H_n`-approximate greedy, run on
//! label bitmasks; [`greedy_cover`] is the same loop behind [`Label`]-keyed
//! [`Source`]s. [`exact_cover`] is a branch-and-bound solver for validation
//! on small instances.

use dde_logic::label::Label;
use dde_logic::meta::Cost;
use std::collections::{BTreeMap, BTreeSet};

/// A candidate evidence source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Source<Id> {
    /// Caller's identifier for the source (e.g. a node id or object name).
    pub id: Id,
    /// Labels this source's evidence can resolve.
    pub covers: BTreeSet<Label>,
    /// Cost of retrieving this source's evidence.
    pub cost: Cost,
}

impl<Id> Source<Id> {
    /// Creates a source covering `covers` at `cost`.
    pub fn new<I, S>(id: Id, covers: I, cost: Cost) -> Source<Id>
    where
        I: IntoIterator<Item = S>,
        S: Into<Label>,
    {
        Source {
            id,
            covers: covers.into_iter().map(Into::into).collect(),
            cost,
        }
    }
}

/// The outcome of a cover computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    /// Indices (into the input source slice) of the chosen sources, in
    /// selection order.
    pub chosen: Vec<usize>,
    /// Total cost of the chosen sources.
    pub cost: Cost,
    /// Labels that no source could cover.
    pub uncovered: BTreeSet<Label>,
}

impl Cover {
    /// Whether every requested label was covered.
    pub fn is_complete(&self) -> bool {
        self.uncovered.is_empty()
    }
}

/// Sources as label bitmasks: the form the greedy works on.
///
/// A query's labels are numbered densely — by position in its sorted
/// label set — and each source is one row of `ceil(L/64)` words with bit
/// `i` set when it resolves label `i`. [`greedy_cover`] builds the rows
/// from [`Source`]s; a caller that already knows who provides each label
/// (a catalog's provider index) pushes rows directly and never
/// materialises a label set per source.
#[derive(Debug, Clone)]
pub struct MaskSources {
    n_labels: usize,
    // Words per row; at least one, so an empty label set still has rows.
    words: usize,
    // Row-major: source `i` is `masks[i * words..(i + 1) * words]`.
    masks: Vec<u64>,
    costs: Vec<Cost>,
}

/// The outcome of [`MaskSources::greedy`], in dense ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskCover {
    /// Chosen sources (row numbers), in selection order.
    pub chosen: Vec<usize>,
    /// Total cost of the chosen sources.
    pub cost: Cost,
    /// Label ids that no source covers, ascending.
    pub uncovered: Vec<usize>,
}

impl MaskSources {
    /// An empty source list over labels `0..n_labels`.
    pub fn new(n_labels: usize) -> MaskSources {
        MaskSources {
            n_labels,
            words: n_labels.div_ceil(64).max(1),
            masks: Vec::new(),
            costs: Vec::new(),
        }
    }

    /// Appends a source resolving `label_ids` at `cost`; returns its row
    /// number. Repeated ids are harmless.
    ///
    /// # Panics
    ///
    /// Panics if an id is not below the `n_labels` given to
    /// [`MaskSources::new`].
    pub fn push(&mut self, cost: Cost, label_ids: impl IntoIterator<Item = usize>) -> usize {
        let row = self.costs.len();
        self.masks.resize(self.masks.len() + self.words, 0);
        let mask = &mut self.masks[row * self.words..];
        for id in label_ids {
            assert!(id < self.n_labels, "label id {id} out of range");
            mask[id / 64] |= 1 << (id % 64);
        }
        self.costs.push(cost);
        row
    }

    /// Greedy weighted set cover: repeatedly picks the source with the
    /// lowest cost per newly-covered label. Achieves the classic
    /// `H_n ≈ ln n` approximation ratio; ties break by row number for
    /// determinism.
    pub fn greedy(&self) -> MaskCover {
        let rows = || self.masks.chunks_exact(self.words);
        let mut remaining = vec![0u64; self.words];
        for row in rows() {
            for (r, m) in remaining.iter_mut().zip(row) {
                *r |= m;
            }
        }
        let uncovered = (0..self.n_labels)
            .filter(|&id| remaining[id / 64] >> (id % 64) & 1 == 0)
            .collect();

        let mut chosen = Vec::new();
        let mut total = Cost::ZERO;
        while remaining.iter().any(|&r| r != 0) {
            let mut best: Option<(usize, f64)> = None; // (row, cost-per-gain)
            for (i, row) in rows().enumerate() {
                let gain: u32 = row
                    .iter()
                    .zip(&remaining)
                    .map(|(m, r)| (m & r).count_ones())
                    .sum();
                if gain == 0 {
                    continue;
                }
                let ratio = self.costs[i].as_f64() / gain as f64;
                let better = match best {
                    None => true,
                    Some((_, best_ratio)) => ratio < best_ratio - 1e-12,
                };
                if better {
                    best = Some((i, ratio));
                }
            }
            let Some((i, _)) = best else { break };
            chosen.push(i);
            total = total.saturating_add(self.costs[i]);
            let picked = &self.masks[i * self.words..(i + 1) * self.words];
            for (r, m) in remaining.iter_mut().zip(picked) {
                *r &= !m;
            }
        }

        MaskCover {
            chosen,
            cost: total,
            uncovered,
        }
    }
}

/// Greedy weighted set cover over labelled sources: [`MaskSources::greedy`]
/// with `needed` numbered in its sorted order.
///
/// Labels in `needed` that no source covers are reported in
/// [`Cover::uncovered`] rather than failing the whole computation — a
/// decision query may still resolve without them via short-circuiting.
pub fn greedy_cover<Id>(needed: &BTreeSet<Label>, sources: &[Source<Id>]) -> Cover {
    let order: Vec<&Label> = needed.iter().collect();
    let mut masks = MaskSources::new(order.len());
    for s in sources {
        masks.push(
            s.cost,
            s.covers.iter().filter_map(|l| order.binary_search(&l).ok()),
        );
    }
    let cover = masks.greedy();
    Cover {
        chosen: cover.chosen,
        cost: cover.cost,
        uncovered: cover
            .uncovered
            .iter()
            .map(|&id| order[id].clone())
            .collect(),
    }
}

/// Exact minimum-cost cover by branch and bound.
///
/// Intended for validation and the aggregation-price ablation; exponential
/// in the worst case.
///
/// # Panics
///
/// Panics if `sources.len() > 24`.
pub fn exact_cover<Id>(needed: &BTreeSet<Label>, sources: &[Source<Id>]) -> Cover {
    assert!(sources.len() <= 24, "exact cover capped at 24 sources");

    // Restrict attention to coverable labels, as in greedy_cover.
    let coverable: BTreeSet<Label> = sources
        .iter()
        .flat_map(|s| s.covers.iter())
        .filter(|l| needed.contains(*l))
        .cloned()
        .collect();
    let uncovered_forever: BTreeSet<Label> = needed.difference(&coverable).cloned().collect();

    // Bitmask over coverable labels.
    let label_ids: BTreeMap<&Label, u32> = coverable
        .iter()
        .enumerate()
        .map(|(i, l)| (l, i as u32))
        .collect();
    let full: u64 = if coverable.is_empty() {
        0
    } else {
        (1u64 << coverable.len()) - 1
    };
    let masks: Vec<u64> = sources
        .iter()
        .map(|s| {
            s.covers
                .iter()
                .filter_map(|l| label_ids.get(l))
                .fold(0u64, |m, &b| m | (1 << b))
        })
        .collect();

    let mut best_cost = u64::MAX;
    let mut best_set: Vec<usize> = Vec::new();

    #[allow(clippy::too_many_arguments)]
    fn search_fixed(
        idx: usize,
        covered: u64,
        cost: u64,
        picked: &mut Vec<usize>,
        masks: &[u64],
        costs: &[u64],
        full: u64,
        best_cost: &mut u64,
        best_set: &mut Vec<usize>,
    ) {
        if covered == full {
            if cost < *best_cost {
                *best_cost = cost;
                *best_set = picked.clone();
            }
            return;
        }
        if idx == masks.len() || cost >= *best_cost {
            return;
        }
        let mut reachable = covered;
        for m in &masks[idx..] {
            reachable |= m;
        }
        if reachable != full {
            return;
        }
        if masks[idx] & !covered != 0 {
            picked.push(idx);
            search_fixed(
                idx + 1,
                covered | masks[idx],
                cost.saturating_add(costs[idx]),
                picked,
                masks,
                costs,
                full,
                best_cost,
                best_set,
            );
            picked.pop();
        }
        search_fixed(
            idx + 1,
            covered,
            cost,
            picked,
            masks,
            costs,
            full,
            best_cost,
            best_set,
        );
    }
    let costs: Vec<u64> = sources.iter().map(|s| s.cost.as_bytes()).collect();
    search_fixed(
        0,
        0,
        0,
        &mut Vec::new(),
        &masks,
        &costs,
        full,
        &mut best_cost,
        &mut best_set,
    );

    Cover {
        chosen: best_set.clone(),
        cost: best_set.iter().map(|&i| sources[i].cost).sum(),
        uncovered: uncovered_forever,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn labels<const N: usize>(names: [&str; N]) -> BTreeSet<Label> {
        names.iter().map(Label::new).collect()
    }

    fn src(id: usize, covers: &[&str], cost: u64) -> Source<usize> {
        Source::new(id, covers.iter().copied(), Cost::from_bytes(cost))
    }

    /// The greedy as it stood on `BTreeSet<Label>` before the mask core,
    /// kept verbatim as the reference the masks are held to.
    fn set_greedy<Id>(needed: &BTreeSet<Label>, sources: &[Source<Id>]) -> Cover {
        let coverable: BTreeSet<Label> = sources
            .iter()
            .flat_map(|s| s.covers.iter())
            .filter(|l| needed.contains(*l))
            .cloned()
            .collect();
        let uncovered_forever: BTreeSet<Label> = needed.difference(&coverable).cloned().collect();

        let mut remaining: BTreeSet<Label> = coverable;
        let mut chosen = Vec::new();
        let mut used = vec![false; sources.len()];
        let mut total = Cost::ZERO;

        while !remaining.is_empty() {
            let mut best: Option<(usize, usize, f64)> = None; // (idx, gain, cost-per-gain)
            for (i, s) in sources.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let gain = s.covers.intersection(&remaining).count();
                if gain == 0 {
                    continue;
                }
                let ratio = s.cost.as_f64() / gain as f64;
                let better = match best {
                    None => true,
                    Some((_, _, best_ratio)) => ratio < best_ratio - 1e-12,
                };
                if better {
                    best = Some((i, gain, ratio));
                }
            }
            let Some((i, _, _)) = best else { break };
            used[i] = true;
            chosen.push(i);
            total = total.saturating_add(sources[i].cost);
            for l in &sources[i].covers {
                remaining.remove(l);
            }
        }

        Cover {
            chosen,
            cost: total,
            uncovered: uncovered_forever,
        }
    }

    #[test]
    fn single_source_covers_all() {
        let needed = labels(["a", "b"]);
        let sources = vec![src(0, &["a", "b"], 10)];
        let c = greedy_cover(&needed, &sources);
        assert_eq!(c.chosen, vec![0]);
        assert_eq!(c.cost, Cost::from_bytes(10));
        assert!(c.is_complete());
    }

    #[test]
    fn greedy_prefers_cost_per_label() {
        // One camera sees both segments for 12; two cameras see one each
        // for 5 apiece. Greedy ratio: 12/2 = 6 > 5 → picks the singles.
        let needed = labels(["segA", "segB"]);
        let sources = vec![
            src(0, &["segA", "segB"], 12),
            src(1, &["segA"], 5),
            src(2, &["segB"], 5),
        ];
        let c = greedy_cover(&needed, &sources);
        assert_eq!(c.cost, Cost::from_bytes(10));
        assert_eq!(c.chosen.len(), 2);
    }

    #[test]
    fn overlapping_camera_consolidation() {
        // The paper's example: two cameras overlap one road segment — pick
        // one; different roads need both.
        let needed = labels(["road1", "road2"]);
        let sources = vec![
            src(0, &["road1"], 100), // camera A on road1
            src(1, &["road1"], 90),  // camera B also on road1, cheaper
            src(2, &["road2"], 80),
        ];
        let c = greedy_cover(&needed, &sources);
        assert!(c.is_complete());
        assert_eq!(c.cost, Cost::from_bytes(170));
        assert!(c.chosen.contains(&1) && c.chosen.contains(&2));
    }

    #[test]
    fn uncoverable_labels_reported() {
        let needed = labels(["a", "ghost"]);
        let sources = vec![src(0, &["a"], 1)];
        let c = greedy_cover(&needed, &sources);
        assert!(!c.is_complete());
        assert_eq!(c.uncovered, labels(["ghost"]));
        assert_eq!(c.chosen, vec![0]);
    }

    #[test]
    fn empty_need_is_trivial() {
        let c = greedy_cover(&BTreeSet::new(), &[src(0, &["a"], 1)]);
        assert!(c.chosen.is_empty());
        assert_eq!(c.cost, Cost::ZERO);
        assert!(c.is_complete());
    }

    #[test]
    fn greedy_known_suboptimal_case() {
        // Classic instance where greedy loses: optimum picks {big} at 10,
        // greedy picks cheap-per-element singles first.
        let needed = labels(["x", "y", "z", "w"]);
        let sources = vec![
            src(0, &["x", "y", "z", "w"], 13),
            src(1, &["x", "y"], 6), // ratio 3
            src(2, &["z", "w"], 6), // ratio 3
        ];
        let greedy = greedy_cover(&needed, &sources);
        let exact = exact_cover(&needed, &sources);
        assert_eq!(greedy.cost, Cost::from_bytes(12));
        assert_eq!(exact.cost, Cost::from_bytes(12)); // exact also prefers 12 here
                                                      // Make greedy actually lose:
        let sources2 = vec![
            src(0, &["x", "y", "z", "w"], 10),
            src(1, &["x", "y", "z"], 6), // ratio 2 < 2.5 → greedy takes it
            src(2, &["w"], 6),
        ];
        let g2 = greedy_cover(&needed, &sources2);
        let e2 = exact_cover(&needed, &sources2);
        assert_eq!(g2.cost, Cost::from_bytes(12));
        assert_eq!(e2.cost, Cost::from_bytes(10));
    }

    #[test]
    fn exact_on_empty_sources() {
        let needed = labels(["a"]);
        let c = exact_cover(&needed, &Vec::<Source<usize>>::new());
        assert!(!c.is_complete());
        assert_eq!(c.uncovered, labels(["a"]));
        assert!(c.chosen.is_empty());
    }

    /// `n` labels named so that sorted order is numeric order.
    fn numbered(n: usize) -> Vec<Label> {
        (0..n).map(|i| Label::new(format!("l{i:03}"))).collect()
    }

    #[test]
    fn masks_match_sets_across_the_word_boundary() {
        for n in [1, 63, 64, 65, 130] {
            let all = numbered(n);
            let needed: BTreeSet<Label> = all.iter().cloned().collect();
            // Overlapping windows of three labels, one source holding the
            // last label alone, one source outside `needed` entirely.
            let mut sources: Vec<Source<usize>> = (0..n)
                .map(|i| {
                    let covers = (i..(i + 3).min(n)).map(|j| all[j].clone());
                    Source::new(i, covers, Cost::from_bytes(10 + (i as u64 * 7) % 13))
                })
                .collect();
            sources.push(Source::new(n, [all[n - 1].clone()], Cost::from_bytes(1)));
            sources.push(Source::new(n + 1, ["elsewhere"], Cost::ZERO));
            assert_eq!(
                greedy_cover(&needed, &sources),
                set_greedy(&needed, &sources),
                "{n} labels"
            );
        }
    }

    #[test]
    fn mask_rows_span_words() {
        let mut m = MaskSources::new(130);
        assert_eq!(m.push(Cost::from_bytes(9), [0, 64, 129, 129]), 0);
        assert_eq!(m.push(Cost::from_bytes(1), [64]), 1);
        let c = m.greedy();
        // Row 1 is cheaper per label (1/1 against 9/3); row 0 then brings
        // the other two.
        assert_eq!(c.chosen, vec![1, 0]);
        assert_eq!(c.cost, Cost::from_bytes(10));
        assert_eq!(c.uncovered.len(), 127);
        assert!(!c.uncovered.contains(&64) && c.uncovered.contains(&63));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_rejects_foreign_label_id() {
        MaskSources::new(3).push(Cost::ZERO, [3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The mask core picks what the `BTreeSet` greedy picked: the same
        /// sources in the same order, the same cost, the same uncovered
        /// labels — with uncoverable labels, labels outside `needed`,
        /// zero-cost sources and equal ratios (small costs over few
        /// labels collide constantly) in the mix.
        #[test]
        fn masks_match_sets(
            universe in prop_oneof![Just(6usize), Just(12), Just(70), Just(130)],
            windows in prop::collection::vec((0usize..140, 0usize..40, 1usize..4, 0u64..6), 0..14),
            skip in 2usize..6,
        ) {
            // Labels `0..=universe + 1`. Label 0 is needed but never
            // provided; the last is provided but never needed. `needed`
            // takes most of the rest, so its ids span every mask word, and
            // sources are overlapping strided windows, so gains contend.
            let all = numbered(universe + 2);
            let needed: BTreeSet<Label> = (0..=universe)
                .filter(|i| i % skip != 1)
                .map(|i| all[i].clone())
                .collect();
            let sources: Vec<Source<usize>> = windows.iter().enumerate()
                .map(|(i, &(start, len, step, cost))| Source::new(
                    i,
                    (0..len).map(|t| all[1 + (start + t * step) % (universe + 1)].clone()),
                    Cost::from_bytes(cost),
                ))
                .collect();
            prop_assert_eq!(greedy_cover(&needed, &sources), set_greedy(&needed, &sources));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Greedy always produces a complete cover of the coverable labels,
        /// never exceeds H_n times the exact optimum, and never chooses a
        /// redundant source contributing nothing.
        #[test]
        fn greedy_vs_exact(
            source_specs in prop::collection::vec(
                (prop::collection::btree_set(0u8..6, 1..4), 1u64..50), 1..8),
            needed_bits in prop::collection::btree_set(0u8..6, 1..6),
        ) {
            let needed: BTreeSet<Label> =
                needed_bits.iter().map(|b| Label::new(format!("l{b}"))).collect();
            let sources: Vec<Source<usize>> = source_specs.iter().enumerate()
                .map(|(i, (cov, cost))| Source::new(
                    i,
                    cov.iter().map(|b| format!("l{b}")),
                    Cost::from_bytes(*cost),
                ))
                .collect();
            let g = greedy_cover(&needed, &sources);
            let e = exact_cover(&needed, &sources);
            // Same uncoverable set.
            prop_assert_eq!(&g.uncovered, &e.uncovered);
            // Both cover everything coverable: verify explicitly.
            let coverable: BTreeSet<Label> =
                needed.difference(&g.uncovered).cloned().collect();
            let covered_by = |c: &Cover| -> BTreeSet<Label> {
                c.chosen.iter()
                    .flat_map(|&i| sources[i].covers.iter().cloned())
                    .filter(|l| needed.contains(l))
                    .collect()
            };
            prop_assert!(covered_by(&g).is_superset(&coverable));
            prop_assert!(covered_by(&e).is_superset(&coverable));
            // Approximation bound: greedy ≤ H_n · OPT.
            let n = coverable.len().max(1);
            let h_n: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
            prop_assert!(
                g.cost.as_f64() <= e.cost.as_f64() * h_n + 1e-9,
                "greedy {} > H_n * exact {}", g.cost, e.cost
            );
        }
    }
}
