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
use dde_coverage::setcover::MaskSources;
use dde_logic::dnf::Dnf;
use dde_logic::label::Label;
use dde_logic::meta::{Cost, Probability};
use dde_logic::time::SimTime;
use dde_logic::truth::Truth;
use dde_netsim::topology::{NodeId, Topology};
use dde_sched::adaptive::AdaptiveState;
use dde_sched::hybrid::first_pick;
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
    /// Probability that a single fetch of the object whose rendered name
    /// is `name` leaves every label in `labels` true (i.e. does *not*
    /// short-circuit the term).
    fn group_prob<'l>(&self, name: &str, labels: impl ExactSizeIterator<Item = &'l Label>) -> f64 {
        match self {
            // Keep `.powi()`: a left-fold product associates differently
            // in floating point and would silently shift committed
            // artifacts.
            Priors::Fixed(p) => p.powi(labels.len() as i32),
            Priors::Learned(state) => labels.map(|l| state.prob_for(name, l)).product(),
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

/// What the planner needs to know about one query that cannot change
/// while the query lives, computed once at issue time by
/// [`Strategy::plan`]: the candidate set and the expression, re-expressed
/// in dense indices so that [`Strategy::next_from_plan`] compares integers
/// where it would otherwise walk string-keyed trees.
///
/// It holds nothing read from the topology, the clock, the evidence
/// gathered so far or a node's learned estimates. Hop distances,
/// reachability, label values and priors are looked up on every call, so a
/// crash, a partition, an expiry or a new observation takes effect on the
/// next request with no invalidation rule.
#[derive(Debug, Clone)]
pub struct PlanTable {
    /// The candidate objects, as [`Strategy::candidates`] chose them.
    candidates: Vec<usize>,
    /// The expression's labels, sorted; a label's position is its id.
    labels: Vec<Label>,
    /// Each term's literals as `(label id, negated)`, ascending by id.
    /// Empty for the baselines, which never look at the expression's shape.
    terms: Vec<Vec<(usize, bool)>>,
    /// Per label id, the candidates whose evidence resolves it, in
    /// candidate order. Empty for the baselines likewise.
    covering: Vec<Vec<usize>>,
}

impl PlanTable {
    /// The candidate objects (catalog indices).
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// The expression's labels, sorted.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Whether the expression mentions `label`.
    pub fn mentions(&self, label: &Label) -> bool {
        self.labels.binary_search(label).is_ok()
    }
}

#[cfg(test)]
thread_local! {
    /// Source-selection covers computed on this thread, so a test can pin
    /// that a path computes none.
    pub(crate) static COVERS_RUN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
        // slt/lcf/lvf/lvfl: greedy min-cost cover of the labels by the
        // objects the catalog lists as their providers — one mask row per
        // object, rows in catalog order.
        let mut provides: Vec<(usize, usize)> = Vec::new(); // (object, label id)
        for (id, l) in labels.iter().enumerate() {
            provides.extend(catalog.providers_of(l).iter().map(|&idx| (idx, id)));
        }
        provides.sort_unstable();
        let mut objects: Vec<usize> = Vec::new();
        let mut sources = MaskSources::new(labels.len());
        for group in provides.chunk_by(|a, b| a.0 == b.0) {
            let idx = group[0].0;
            objects.push(idx);
            sources.push(
                Cost::from_bytes(Self::effective_cost(idx, catalog, origin, topology)),
                group.iter().map(|&(_, id)| id),
            );
        }
        #[cfg(test)]
        COVERS_RUN.with(|n| n.set(n.get() + 1));
        let cover = sources.greedy();
        let mut chosen: Vec<usize> = cover.chosen.iter().map(|&row| objects[row]).collect();
        chosen.sort_unstable();
        chosen
    }

    /// The table [`Strategy::next_from_plan`] reads for a query over `expr`:
    /// `labels` must be `expr.labels()` and `candidates` what
    /// [`Strategy::candidates`] chose for them (indices into `catalog`).
    ///
    /// The baselines walk their candidates in a fixed order and read
    /// nothing else, so only the decision-driven strategies pay for the
    /// term and provider indices — `cmp`, with every provider of every
    /// label as a candidate, would pay the most for what it never uses.
    pub fn plan(
        self,
        expr: &Dnf,
        labels: BTreeSet<Label>,
        candidates: Vec<usize>,
        catalog: &Catalog,
    ) -> PlanTable {
        let labels: Vec<Label> = labels.into_iter().collect();
        let mut terms = Vec::new();
        let mut covering = Vec::new();
        if self.is_decision_driven() {
            let id_of = |l: &Label| labels.binary_search(l).ok();
            // `labels` holds every label of these very terms: every
            // literal has an id, and `filter_map` drops nothing.
            terms.extend(expr.terms().iter().map(|t| {
                t.literals()
                    .filter_map(|lit| Some((id_of(lit.label())?, lit.is_negated())))
                    .collect()
            }));
            covering.resize(labels.len(), Vec::new());
            for &idx in &candidates {
                for id in catalog.get(idx).covers.iter().filter_map(id_of) {
                    if covering[id].last() != Some(&idx) {
                        covering[id].push(idx);
                    }
                }
            }
        }
        PlanTable {
            candidates,
            labels,
            terms,
            covering,
        }
    }

    /// The next `(catalog object index, label)` this strategy would fetch
    /// for `query` at `now`, or `None` when nothing (useful) remains.
    ///
    /// `candidates` must be the set previously computed by
    /// [`Strategy::candidates`] for this query. `priors` supplies the
    /// short-circuit probabilities (static or learned) used in the
    /// §III-A ratios; `channel` models the bottleneck for
    /// validity-feasibility ordering.
    ///
    /// Builds the query's [`PlanTable`] on the spot; a caller that asks
    /// more than once per query keeps [`Strategy::plan`]'s table and calls
    /// [`Strategy::next_from_plan`].
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
        let plan = self.plan(
            &query.expr,
            query.expr.labels(),
            candidates.to_vec(),
            catalog,
        );
        self.next_from_plan(
            query, &plan, catalog, origin, topology, now, channel, priors,
        )
    }

    /// [`Strategy::next_request`] for a query whose `plan` this strategy's
    /// [`Strategy::plan`] built from `query.expr`, its candidate set and
    /// `catalog`.
    #[allow(clippy::too_many_arguments)]
    pub fn next_from_plan(
        self,
        query: &QueryState,
        plan: &PlanTable,
        catalog: &Catalog,
        origin: NodeId,
        topology: &Topology,
        now: SimTime,
        channel: Channel,
        priors: &Priors<'_>,
    ) -> Option<(usize, Label)> {
        if self.is_decision_driven() {
            self.next_decision_driven(query, plan, catalog, origin, topology, now, channel, priors)
        } else {
            self.next_baseline(query, &plan.candidates, catalog, origin, topology, now)
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

    /// The cheapest (by network cost) object in `pool`. Under learned
    /// priors the cost is divided by the source's reliability score — the
    /// expected bytes including retries — so flaky providers lose ties
    /// they would otherwise win; with fixed priors every score is 1.0 and
    /// the original integer ordering is preserved exactly.
    fn cheapest(
        pool: impl Iterator<Item = usize>,
        catalog: &Catalog,
        origin: NodeId,
        topology: &Topology,
        priors: &Priors<'_>,
    ) -> Option<usize> {
        match priors {
            Priors::Fixed(_) => {
                pool.min_by_key(|&i| (Self::effective_cost(i, catalog, origin, topology), i))
            }
            Priors::Learned(_) => pool.min_by(|&a, &b| {
                let weighted = |i: usize| {
                    Self::effective_cost(i, catalog, origin, topology) as f64
                        / priors.reliability(catalog.get(i).source).max(0.05)
                };
                weighted(a).total_cmp(&weighted(b)).then(a.cmp(&b))
            }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn next_decision_driven(
        self,
        query: &QueryState,
        plan: &PlanTable,
        catalog: &Catalog,
        origin: NodeId,
        topology: &Topology,
        now: SimTime,
        channel: Channel,
        priors: &Priors<'_>,
    ) -> Option<(usize, Label)> {
        debug_assert_eq!(plan.terms.len(), query.expr.terms().len());
        // The evidence is read once per label; the rest is by label id.
        let value: Vec<Truth> = plan
            .labels
            .iter()
            .map(|l| query.assignment().value_at(l, now))
            .collect();
        let eval = |term: &[(usize, bool)]| {
            term.iter().fold(Truth::True, |acc, &(id, negated)| {
                acc.and(if negated {
                    value[id].negate()
                } else {
                    value[id]
                })
            })
        };
        // Short-circuit pruning (§II-A): once some term is true nothing
        // matters any more, and a false term's conditions need not be
        // examined — no label is relevant unless a term is still open.
        let mut open = false;
        for term in &plan.terms {
            match eval(term) {
                Truth::True => return None,
                Truth::Unknown => open = true,
                Truth::False => {}
            }
        }
        if !open {
            return None;
        }

        // Cheapest candidate provider of a label, preferring sources that
        // are currently reachable: when a fault has cut off a provider, an
        // alternate (reachable) source is selected instead; only when *no*
        // provider is reachable does the original choice stand (the fetch
        // then stalls until routes heal or the deadline passes). Terms
        // share labels, so the answer is kept for the rest of this call.
        let mut provider: Vec<Option<Option<usize>>> = vec![None; plan.labels.len()];
        let mut provider_of = |id: usize| {
            *provider[id].get_or_insert_with(|| {
                let covering = || plan.covering[id].iter().copied();
                let reachable =
                    covering().filter(|&i| Self::is_reachable(i, catalog, origin, topology));
                Self::cheapest(reachable, catalog, origin, topology, priors)
                    .or_else(|| Self::cheapest(covering(), catalog, origin, topology, priors))
            })
        };

        // Rank open terms by expected truth per expected cost over their
        // *remaining* unknown labels, costed at object granularity: one
        // fetch of a panorama resolves every label it covers. A term's
        // plan is one item per distinct object plus, beside it, that
        // object's index and the first label it is fetched for. Every
        // buffer is sized for the widest possible term up front, so a call
        // allocates the same few blocks whatever the expression holds.
        let width = plan.labels.len();
        let mut picks: Vec<(usize, usize)> = Vec::with_capacity(width); // (object, label id)
        let mut items: Vec<RetrievalItem> = Vec::with_capacity(width);
        let mut heads: Vec<(usize, usize)> = Vec::with_capacity(width);
        let mut best_items: Vec<RetrievalItem> = Vec::with_capacity(width);
        let mut best_heads: Vec<(usize, usize)> = Vec::with_capacity(width);
        let mut best: Option<(f64, usize)> = None;
        for (ti, term) in plan.terms.iter().enumerate() {
            if eval(term) != Truth::Unknown {
                continue;
            }
            // Group the term's unknown labels by their chosen provider.
            picks.clear();
            for &(id, _) in term.iter().filter(|&&(id, _)| !value[id].is_known()) {
                match provider_of(id) {
                    Some(idx) => picks.push((idx, id)),
                    None => {
                        // Some label has no provider among candidates: the
                        // term can never complete; deprioritize it entirely.
                        picks.clear();
                        break;
                    }
                }
            }
            if picks.is_empty() {
                continue;
            }
            picks.sort_unstable();
            items.clear();
            heads.clear();
            for group in picks.chunk_by(|a, b| a.0 == b.0) {
                let (idx, first) = group[0];
                let name = catalog.rendered_name(idx);
                // One fetch decides all grouped labels; the fetch
                // "succeeds" (does not short-circuit the term) only if
                // all of them come back true. Cost is the bytes the
                // fetch puts on the network (size × hops).
                let p =
                    priors.group_prob(name.as_str(), group.iter().map(|&(_, id)| &plan.labels[id]));
                items.push(
                    RetrievalItem::new(
                        name.clone(),
                        Cost::from_bytes(Self::effective_cost(idx, catalog, origin, topology)),
                        catalog.get(idx).validity,
                    )
                    .with_prob(Probability::clamped(p)),
                );
                heads.push((idx, first));
            }
            let p = and_truth_prob(&items);
            let e = expected_and_cost(&items).max(1.0);
            let ratio = p / e;
            let better = match best {
                None => true,
                Some((r, bi)) => ratio > r + 1e-15 || (ratio >= r - 1e-15 && ti < bi),
            };
            if better {
                best = Some((ratio, ti));
                std::mem::swap(&mut best_items, &mut items);
                std::mem::swap(&mut best_heads, &mut heads);
            }
        }
        best?;

        // Within the term: validity-feasible short-circuit greedy (ref [3])
        // over the distinct objects, of which only the first is fetched.
        let budget = query.deadline_at.saturating_since(now);
        let (idx, id) = best_heads[first_pick(&best_items, channel, now, budget)?];
        Some((idx, plan.labels[id].clone()))
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
mod equiv;

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
