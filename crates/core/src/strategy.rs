//! The five retrieval strategies of the evaluation (§VII).
//!
//! | code  | candidate set            | order                         | label sharing |
//! |-------|--------------------------|-------------------------------|---------------|
//! | `cmp` | every provider of every label | catalog order            | no            |
//! | `slt` | greedy min-cost source cover  | catalog order            | no            |
//! | `lcf` | greedy min-cost source cover  | cheapest object first    | no            |
//! | `lvf` | greedy min-cost source cover  | decision-driven (validity + short-circuit) | no |
//! | `lvfl`| greedy min-cost source cover  | decision-driven          | **yes**       |
//!
//! The decision-driven order is the paper's "Variational Longest Validity
//! First": live terms are ranked by expected truth-per-cost, and within the
//! chosen term objects follow the validity-feasible short-circuit greedy of
//! ref \[3] ([`dde_sched::hybrid`]).

use crate::query::QueryState;
use dde_coverage::setcover::{greedy_cover, Source};
use dde_logic::label::Label;
use dde_logic::meta::{Cost, Probability};
use dde_logic::time::SimTime;

use dde_netsim::topology::{NodeId, Topology};
use dde_sched::adaptive::AdaptiveState;
use dde_sched::hybrid::greedy_validity_shortcircuit;
use dde_sched::item::{Channel, RetrievalItem};
use dde_sched::shortcircuit::{and_truth_prob, expected_and_cost};
use dde_workload::catalog::Catalog;
use std::collections::BTreeSet;

/// Where the decision-driven planner gets its short-circuit probabilities
/// and provider-reliability weights.
///
/// [`Priors::Fixed`] reproduces the pre-adaptive planner bit for bit
/// (including the `p.powi(n)` grouping of multi-label fetches), so every
/// committed figure artifact is unchanged when adaptation is off.
/// [`Priors::Learned`] reads a node's [`AdaptiveState`]: per
/// *(name-prefix, condition)* truth estimates for term ordering and
/// per-source reliability scores for provider selection.
#[derive(Debug, Clone, Copy)]
pub enum Priors<'a> {
    /// One static short-circuit probability for every (object, label).
    Fixed(f64),
    /// Online estimates from the node's adaptive state.
    Learned(&'a AdaptiveState),
}

impl Priors<'_> {
    /// Probability that a single fetch of the object named `name` leaves
    /// every label in `labels` true (i.e. does *not* short-circuit the
    /// term).
    fn group_prob(&self, name: &dde_naming::name::Name, labels: &[Label]) -> f64 {
        match self {
            // Keep `.powi()`: a left-fold product associates differently
            // in floating point and would silently shift committed
            // artifacts.
            Priors::Fixed(p) => p.powi(labels.len() as i32),
            Priors::Learned(state) => {
                let rendered = name.to_string();
                labels
                    .iter()
                    .map(|l| state.prob_for(&rendered, l))
                    .product()
            }
        }
    }

    /// The fetch-success score of `source` in `[0, 1]`; `1.0` (neutral)
    /// for fixed priors.
    fn reliability(&self, source: NodeId) -> f64 {
        match self {
            Priors::Fixed(_) => 1.0,
            Priors::Learned(state) => state.reliability.score(source.0 as u32),
        }
    }
}

/// A retrieval strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// `cmp`: comprehensive retrieval — all relevant objects considered.
    Comprehensive,
    /// `slt`: source selection added.
    SelectedSources,
    /// `lcf`: lowest-cost object first.
    LowestCostFirst,
    /// `lvf`: decision-driven scheduling, no label sharing.
    Lvf,
    /// `lvfl`: decision-driven scheduling with label sharing.
    LvfLabelShare,
}

impl Strategy {
    /// All strategies in the paper's presentation order.
    pub const ALL: [Strategy; 5] = [
        Strategy::Comprehensive,
        Strategy::SelectedSources,
        Strategy::LowestCostFirst,
        Strategy::Lvf,
        Strategy::LvfLabelShare,
    ];

    /// The short code used in the paper's figures.
    pub fn code(self) -> &'static str {
        match self {
            Strategy::Comprehensive => "cmp",
            Strategy::SelectedSources => "slt",
            Strategy::LowestCostFirst => "lcf",
            Strategy::Lvf => "lvf",
            Strategy::LvfLabelShare => "lvfl",
        }
    }

    /// Whether resolved labels are propagated for reuse (§VI-D).
    pub fn label_sharing(self) -> bool {
        self == Strategy::LvfLabelShare
    }

    /// Whether retrieval exploits the decision structure (validity-aware
    /// ordering + short-circuit pruning).
    pub fn is_decision_driven(self) -> bool {
        matches!(self, Strategy::Lvf | Strategy::LvfLabelShare)
    }

    /// Whether the candidate set is source-selected (everything but `cmp`).
    pub fn source_selected(self) -> bool {
        self != Strategy::Comprehensive
    }

    /// The effective network cost of retrieving object `idx` at `origin`:
    /// object size times the hop count it must travel (minimum 1) — the
    /// bytes the fetch actually puts on the network.
    pub fn effective_cost(
        idx: usize,
        catalog: &Catalog,
        origin: NodeId,
        topology: &Topology,
    ) -> u64 {
        let spec = catalog.get(idx);
        let hops = topology
            .hop_distance(origin, spec.source)
            .unwrap_or(topology.len())
            .max(1) as u64;
        spec.size.saturating_mul(hops)
    }

    /// Whether object `idx`'s source is currently reachable from `origin`.
    /// Routing is fault-aware, so a crashed source or a partitioned segment
    /// shows up here; on a healthy connected topology everything is
    /// reachable and reachability-preferring selection is a no-op.
    pub fn is_reachable(
        idx: usize,
        catalog: &Catalog,
        origin: NodeId,
        topology: &Topology,
    ) -> bool {
        let source = catalog.get(idx).source;
        source == origin || topology.hop_distance(origin, source).is_some()
    }

    /// The candidate object set (catalog indices, ascending) for a query
    /// over `labels`, issued at `origin`. Source-selected strategies cover
    /// the labels at minimum *network* cost (size × hops), so nearby
    /// cameras win over marginally-smaller faraway ones (§III-B's network
    /// cost consideration).
    pub fn candidates(
        self,
        labels: &BTreeSet<Label>,
        catalog: &Catalog,
        origin: NodeId,
        topology: &Topology,
    ) -> Vec<usize> {
        if !self.source_selected() {
            // cmp: every provider of every referenced label.
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for l in labels {
                out.extend(catalog.providers_of(l).iter().copied());
            }
            return out.into_iter().collect();
        }
        // slt/lcf/lvf/lvfl: greedy min-cost cover of the labels.
        let sources: Vec<Source<usize>> = catalog
            .objects()
            .iter()
            .enumerate()
            .filter(|(_, o)| o.covers.iter().any(|l| labels.contains(l)))
            .map(|(i, o)| {
                Source::new(
                    i,
                    o.covers.iter().filter(|l| labels.contains(*l)).cloned(),
                    Cost::from_bytes(Self::effective_cost(i, catalog, origin, topology)),
                )
            })
            .collect();
        let cover = greedy_cover(labels, &sources);
        let mut chosen: Vec<usize> = cover.chosen.iter().map(|&k| sources[k].id).collect();
        chosen.sort_unstable();
        chosen
    }

    /// The next `(catalog object index, label)` this strategy would fetch
    /// for `query` at `now`, or `None` when nothing (useful) remains.
    ///
    /// `candidates` must be the set previously computed by
    /// [`Strategy::candidates`] for this query. `priors` supplies the
    /// short-circuit probabilities (static or learned) used in the
    /// §III-A ratios; `channel` models the bottleneck for
    /// validity-feasibility ordering.
    #[allow(clippy::too_many_arguments)]
    pub fn next_request(
        self,
        query: &QueryState,
        candidates: &[usize],
        catalog: &Catalog,
        origin: NodeId,
        topology: &Topology,
        now: SimTime,
        channel: Channel,
        priors: &Priors<'_>,
    ) -> Option<(usize, Label)> {
        if self.is_decision_driven() {
            self.next_decision_driven(
                query, candidates, catalog, origin, topology, now, channel, priors,
            )
        } else {
            self.next_baseline(query, candidates, catalog, origin, topology, now)
        }
    }

    fn next_baseline(
        self,
        query: &QueryState,
        candidates: &[usize],
        catalog: &Catalog,
        origin: NodeId,
        topology: &Topology,
        now: SimTime,
    ) -> Option<(usize, Label)> {
        let unknown = query.unknown_labels(now);
        if unknown.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = candidates.to_vec();
        if self == Strategy::LowestCostFirst {
            order.sort_by_key(|&i| (catalog.get(i).size, i));
        }
        // Under faults, prefer providers we can actually route to; a stable
        // partition keeps the original order when everything is reachable.
        order.sort_by_key(|&i| !Self::is_reachable(i, catalog, origin, topology));
        for idx in order {
            let spec = catalog.get(idx);
            if let Some(label) = spec.covers.iter().find(|l| unknown.contains(*l)) {
                return Some((idx, label.clone()));
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn next_decision_driven(
        self,
        query: &QueryState,
        candidates: &[usize],
        catalog: &Catalog,
        origin: NodeId,
        topology: &Topology,
        now: SimTime,
        channel: Channel,
        priors: &Priors<'_>,
    ) -> Option<(usize, Label)> {
        let relevant = query.relevant_labels(now);
        if relevant.is_empty() {
            return None;
        }
        // Cheapest (by network cost) candidate provider per relevant label,
        // preferring sources that are currently reachable: when a fault has
        // cut off a provider, an alternate (reachable) source is selected
        // instead; only when *no* provider is reachable does the original
        // choice stand (the fetch then stalls until routes heal or the
        // deadline passes). Under learned priors the cost is divided by
        // the source's reliability score — the expected bytes including
        // retries — so flaky providers lose ties they would otherwise win;
        // with fixed priors every score is 1.0 and the original integer
        // ordering is preserved exactly.
        let pick_cheapest = |pool: &[usize]| -> Option<usize> {
            match priors {
                Priors::Fixed(_) => pool
                    .iter()
                    .copied()
                    .min_by_key(|&i| (Self::effective_cost(i, catalog, origin, topology), i)),
                Priors::Learned(_) => pool.iter().copied().min_by(|&a, &b| {
                    let weighted = |i: usize| {
                        Self::effective_cost(i, catalog, origin, topology) as f64
                            / priors.reliability(catalog.get(i).source).max(0.05)
                    };
                    weighted(a).total_cmp(&weighted(b)).then(a.cmp(&b))
                }),
            }
        };
        let provider = |label: &Label| -> Option<usize> {
            let covering: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| catalog.get(i).covers.iter().any(|l| l == label))
                .collect();
            let reachable: Vec<usize> = covering
                .iter()
                .copied()
                .filter(|&i| Self::is_reachable(i, catalog, origin, topology))
                .collect();
            pick_cheapest(&reachable).or_else(|| pick_cheapest(&covering))
        };

        // Rank live terms by expected truth per expected cost over their
        // *remaining* unknown labels, costed at object granularity: one
        // fetch of a panorama resolves every label it covers. Entries are
        // (object index, first covered label, planning item).
        type TermEntry = (usize, Label, RetrievalItem);
        let mut best_term: Option<(f64, usize, Vec<TermEntry>)> = None;
        for ti in query.expr.live_terms(query.assignment(), now) {
            let term = &query.expr.terms()[ti];
            let unknowns: Vec<Label> = term
                .labels()
                .filter(|l| !query.assignment().value_at(l, now).is_known())
                .cloned()
                .collect();
            if unknowns.is_empty() {
                continue;
            }
            // Group unknown labels by their chosen provider object.
            let mut by_object: std::collections::BTreeMap<usize, Vec<Label>> =
                std::collections::BTreeMap::new();
            let mut unprovided = false;
            for l in &unknowns {
                match provider(l) {
                    Some(idx) => by_object.entry(idx).or_default().push(l.clone()),
                    None => {
                        unprovided = true;
                        break;
                    }
                }
            }
            if unprovided {
                // Some label has no provider among candidates: the term can
                // never complete; deprioritize it entirely.
                continue;
            }
            let entries: Vec<TermEntry> = by_object
                .into_iter()
                .map(|(idx, labels)| {
                    let spec = catalog.get(idx);
                    // One fetch decides all grouped labels; the fetch
                    // "succeeds" (does not short-circuit the term) only if
                    // all of them come back true. Cost is the bytes the
                    // fetch puts on the network (size × hops).
                    let p = priors.group_prob(&spec.name, &labels);
                    let item = RetrievalItem::new(
                        spec.name.to_string(),
                        Cost::from_bytes(Self::effective_cost(idx, catalog, origin, topology)),
                        spec.validity,
                    )
                    .with_prob(Probability::clamped(p));
                    (idx, labels[0].clone(), item)
                })
                .collect();
            let items: Vec<RetrievalItem> = entries.iter().map(|(_, _, it)| it.clone()).collect();
            let p = and_truth_prob(&items);
            let e = expected_and_cost(&items).max(1.0);
            let ratio = p / e;
            let better = match &best_term {
                None => true,
                Some((r, bi, _)) => ratio > *r + 1e-15 || (ratio >= *r - 1e-15 && ti < *bi),
            };
            if better {
                best_term = Some((ratio, ti, entries));
            }
        }
        let (_, _, entries) = best_term?;

        // Within the term: validity-feasible short-circuit greedy (ref [3])
        // over the distinct objects.
        let items: Vec<RetrievalItem> = entries.iter().map(|(_, _, it)| it.clone()).collect();
        let budget = query.deadline_at.saturating_since(now);
        let ordered = greedy_validity_shortcircuit(&items, channel, now, budget);
        let first = ordered.first()?;
        entries
            .iter()
            .find(|(_, _, it)| it.label == first.label)
            .map(|(idx, label, _)| (*idx, label.clone()))
    }

    /// Whether a strategy performs short-circuit pruning: used by tests.
    pub fn prunes(self, query: &QueryState, now: SimTime) -> bool {
        self.is_decision_driven()
            && query.relevant_labels(now).len() < query.unknown_labels(now).len()
    }
}

impl core::fmt::Display for Strategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.code())
    }
}

/// Parses a strategy code (`cmp`, `slt`, `lcf`, `lvf`, `lvfl`).
impl core::str::FromStr for Strategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Strategy, String> {
        match s {
            "cmp" => Ok(Strategy::Comprehensive),
            "slt" => Ok(Strategy::SelectedSources),
            "lcf" => Ok(Strategy::LowestCostFirst),
            "lvf" => Ok(Strategy::Lvf),
            "lvfl" => Ok(Strategy::LvfLabelShare),
            other => Err(format!("unknown strategy: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::QueryId;
    use dde_logic::dnf::{Dnf, Term};
    use dde_logic::time::SimDuration;
    use dde_netsim::topology::NodeId;
    use dde_workload::catalog::ObjectSpec;
    use dde_workload::world::DynamicsClass;

    fn spec(name: &str, covers: &[&str], size: u64, validity_s: u64) -> ObjectSpec {
        ObjectSpec {
            name: name.parse().unwrap(),
            covers: covers.iter().map(|s| Label::new(*s)).collect(),
            size,
            source: NodeId(0),
            class: DynamicsClass::Slow,
            validity: SimDuration::from_secs(validity_s),
        }
    }

    /// All test objects live at NodeId(0) and the querier is NodeId(0):
    /// every hop distance is 0 → effective cost = size, preserving the
    /// size-based expectations below.
    fn topo() -> Topology {
        Topology::line(1, dde_netsim::topology::LinkSpec::mbps1())
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(spec("/cam/a1", &["a"], 500_000, 600)); // 0
        c.add(spec("/cam/a2", &["a"], 200_000, 600)); // 1: cheaper provider of a
        c.add(spec("/cam/b", &["b"], 300_000, 30)); // 2: volatile
        c.add(spec("/cam/cd", &["c", "d"], 400_000, 600)); // 3: panorama
        c.add(spec("/cam/c", &["c"], 350_000, 600)); // 4
        c.add(spec("/cam/d", &["d"], 350_000, 600)); // 5
        c
    }

    fn query(expr: Dnf) -> QueryState {
        QueryState::new(QueryId(1), expr, SimTime::ZERO, SimDuration::from_secs(120))
    }

    fn labels(q: &QueryState) -> BTreeSet<Label> {
        q.expr.labels()
    }

    #[test]
    fn codes_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(s.code().parse::<Strategy>().unwrap(), s);
        }
        assert!("nope".parse::<Strategy>().is_err());
        assert_eq!(Strategy::Lvf.to_string(), "lvf");
    }

    #[test]
    fn flags() {
        assert!(!Strategy::Comprehensive.source_selected());
        assert!(Strategy::SelectedSources.source_selected());
        assert!(Strategy::LvfLabelShare.label_sharing());
        assert!(!Strategy::Lvf.label_sharing());
        assert!(Strategy::Lvf.is_decision_driven());
        assert!(!Strategy::LowestCostFirst.is_decision_driven());
    }

    #[test]
    fn cmp_takes_all_providers() {
        let c = catalog();
        let q = query(Dnf::from_terms(vec![Term::all_of(["a", "b"])]));
        let cands = Strategy::Comprehensive.candidates(&labels(&q), &c, NodeId(0), &topo());
        // Both providers of `a` plus the provider of `b`.
        assert_eq!(cands, vec![0, 1, 2]);
    }

    #[test]
    fn selected_sources_drop_redundancy() {
        let c = catalog();
        let q = query(Dnf::from_terms(vec![Term::all_of(["a", "b"])]));
        let cands = Strategy::SelectedSources.candidates(&labels(&q), &c, NodeId(0), &topo());
        // Cover picks the cheap provider of a (idx 1) and b (idx 2).
        assert_eq!(cands, vec![1, 2]);
    }

    #[test]
    fn cover_exploits_multi_label_objects() {
        let c = catalog();
        let q = query(Dnf::from_terms(vec![Term::all_of(["c", "d"])]));
        let cands = Strategy::SelectedSources.candidates(&labels(&q), &c, NodeId(0), &topo());
        // Panorama (400 KB for both) beats two singles (700 KB).
        assert_eq!(cands, vec![3]);
    }

    #[test]
    fn lcf_orders_by_size() {
        let c = catalog();
        let mut q = query(Dnf::from_terms(vec![Term::all_of(["a", "b"])]));
        let cands = Strategy::LowestCostFirst.candidates(&labels(&q), &c, NodeId(0), &topo());
        let (idx, label) = Strategy::LowestCostFirst
            .next_request(
                &q,
                &cands,
                &c,
                NodeId(0),
                &topo(),
                SimTime::ZERO,
                Channel::mbps1(),
                &Priors::Fixed(0.8),
            )
            .unwrap();
        // Cheapest candidate first: /cam/a2 (200 KB).
        assert_eq!(idx, 1);
        assert_eq!(label.as_str(), "a");
        // Once `a` is known, moves on to `b`.
        q.record_label(
            &Label::new("a"),
            true,
            SimTime::ZERO,
            SimDuration::from_secs(600),
        );
        let (idx, label) = Strategy::LowestCostFirst
            .next_request(
                &q,
                &cands,
                &c,
                NodeId(0),
                &topo(),
                SimTime::from_secs(1),
                Channel::mbps1(),
                &Priors::Fixed(0.8),
            )
            .unwrap();
        assert_eq!(idx, 2);
        assert_eq!(label.as_str(), "b");
    }

    #[test]
    fn baseline_ignores_decision_structure() {
        let c = catalog();
        // (a & b) | (c & d); a already false — a is irrelevant now, but so
        // is b; baselines still chase b.
        let mut q = query(Dnf::from_terms(vec![
            Term::all_of(["a", "b"]),
            Term::all_of(["c", "d"]),
        ]));
        q.record_label(
            &Label::new("a"),
            false,
            SimTime::ZERO,
            SimDuration::from_secs(600),
        );
        let now = SimTime::from_secs(1);
        let cands = Strategy::Comprehensive.candidates(&labels(&q), &c, NodeId(0), &topo());
        let (idx, _) = Strategy::Comprehensive
            .next_request(
                &q,
                &cands,
                &c,
                NodeId(0),
                &topo(),
                now,
                Channel::mbps1(),
                &Priors::Fixed(0.8),
            )
            .unwrap();
        // First candidate in catalog order covering an unknown: /cam/b.
        assert_eq!(idx, 2);
        assert!(Strategy::Lvf.prunes(&q, now));
        assert!(!Strategy::Comprehensive.prunes(&q, now));
    }

    #[test]
    fn decision_driven_skips_falsified_term() {
        let c = catalog();
        let mut q = query(Dnf::from_terms(vec![
            Term::all_of(["a", "b"]),
            Term::all_of(["c", "d"]),
        ]));
        q.record_label(
            &Label::new("a"),
            false,
            SimTime::ZERO,
            SimDuration::from_secs(600),
        );
        let now = SimTime::from_secs(1);
        let cands = Strategy::Lvf.candidates(&labels(&q), &c, NodeId(0), &topo());
        let (_, label) = Strategy::Lvf
            .next_request(
                &q,
                &cands,
                &c,
                NodeId(0),
                &topo(),
                now,
                Channel::mbps1(),
                &Priors::Fixed(0.8),
            )
            .unwrap();
        // b is irrelevant; must pick from {c, d}.
        assert!(label.as_str() == "c" || label.as_str() == "d");
    }

    #[test]
    fn decision_driven_defers_volatile_labels() {
        let c = catalog();
        // Single term with a stable label (600 s validity) and a volatile
        // one (30 s). The hybrid order fetches the stable one first.
        let q = query(Dnf::from_terms(vec![Term::all_of(["a", "b"])]));
        let cands = Strategy::Lvf.candidates(&labels(&q), &c, NodeId(0), &topo());
        let (_, label) = Strategy::Lvf
            .next_request(
                &q,
                &cands,
                &c,
                NodeId(0),
                &topo(),
                SimTime::ZERO,
                Channel::mbps1(),
                &Priors::Fixed(0.8),
            )
            .unwrap();
        assert_eq!(label.as_str(), "a", "stable label should be fetched first");
    }

    #[test]
    fn decision_driven_prefers_cheap_likely_term() {
        let c = catalog();
        // Route 1 costs ~800 KB ((a cheap) + b), route 2 via panorama costs
        // 400 KB — same truth prior, so route 2 has better P/E.
        let q = query(Dnf::from_terms(vec![
            Term::all_of(["a", "b"]),
            Term::all_of(["c", "d"]),
        ]));
        let cands = Strategy::Lvf.candidates(&labels(&q), &c, NodeId(0), &topo());
        let (idx, _) = Strategy::Lvf
            .next_request(
                &q,
                &cands,
                &c,
                NodeId(0),
                &topo(),
                SimTime::ZERO,
                Channel::mbps1(),
                &Priors::Fixed(0.8),
            )
            .unwrap();
        assert_eq!(
            idx, 3,
            "should start on the cheaper second term via panorama"
        );
    }

    #[test]
    fn no_request_once_decided_labels_known() {
        let c = catalog();
        let mut q = query(Dnf::from_terms(vec![Term::all_of(["a"])]));
        q.record_label(
            &Label::new("a"),
            true,
            SimTime::ZERO,
            SimDuration::from_secs(600),
        );
        let now = SimTime::from_secs(1);
        for s in Strategy::ALL {
            let cands = s.candidates(&labels(&q), &c, NodeId(0), &topo());
            assert!(
                s.next_request(
                    &q,
                    &cands,
                    &c,
                    NodeId(0),
                    &topo(),
                    now,
                    Channel::mbps1(),
                    &Priors::Fixed(0.8),
                )
                .is_none(),
                "{s} should have nothing to fetch"
            );
        }
    }

    #[test]
    fn unprovided_label_does_not_block_other_terms() {
        let mut c = Catalog::new();
        c.add(spec("/cam/c", &["c"], 100_000, 600));
        // Term 0 references `ghost` (no provider); term 1 is fetchable.
        let q = query(Dnf::from_terms(vec![
            Term::all_of(["ghost"]),
            Term::all_of(["c"]),
        ]));
        let cands = Strategy::Lvf.candidates(&labels(&q), &c, NodeId(0), &topo());
        let (idx, label) = Strategy::Lvf
            .next_request(
                &q,
                &cands,
                &c,
                NodeId(0),
                &topo(),
                SimTime::ZERO,
                Channel::mbps1(),
                &Priors::Fixed(0.8),
            )
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(label.as_str(), "c");
    }
}
