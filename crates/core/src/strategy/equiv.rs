//! The planner before it worked on indices, kept as the reference the
//! index planner is held to: [`Strategy::candidates`] and
//! [`Strategy::next_request`] must return what these return, for every
//! input.
//!
//! The three `old_*` functions are the previous bodies moved here
//! verbatim (`self` spelled out, nothing else touched): a `BTreeSet` of
//! labels per source for the cover, a fresh pair of filtered `Vec`s per
//! unknown label for the provider, a rendered name per term entry.
// Said here as well as on the `mod` line: dde-lint reads one file at a time.
#![cfg(test)]

use super::*;
use crate::msg::QueryId;
use dde_coverage::setcover::{greedy_cover, Source};
use dde_logic::dnf::{Literal, Term};
use dde_logic::time::SimDuration;
use dde_netsim::topology::LinkSpec;
use dde_sched::adaptive::AdaptiveConfig;
use dde_sched::hybrid::greedy_validity_shortcircuit;
use dde_workload::catalog::ObjectSpec;
use dde_workload::world::DynamicsClass;
use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig, TestCaseError};

fn old_candidates(
    strategy: Strategy,
    labels: &BTreeSet<Label>,
    catalog: &Catalog,
    origin: NodeId,
    topology: &Topology,
) -> Vec<usize> {
    if !strategy.source_selected() {
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
                Cost::from_bytes(Strategy::effective_cost(i, catalog, origin, topology)),
            )
        })
        .collect();
    let cover = greedy_cover(labels, &sources);
    let mut chosen: Vec<usize> = cover.chosen.iter().map(|&k| sources[k].id).collect();
    chosen.sort_unstable();
    chosen
}

fn old_group_prob(priors: &Priors<'_>, name: &dde_naming::name::Name, labels: &[Label]) -> f64 {
    match priors {
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

#[allow(clippy::too_many_arguments)]
fn old_next_decision_driven(
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
                .min_by_key(|&i| (Strategy::effective_cost(i, catalog, origin, topology), i)),
            Priors::Learned(_) => pool.iter().copied().min_by(|&a, &b| {
                let weighted = |i: usize| {
                    Strategy::effective_cost(i, catalog, origin, topology) as f64
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
            .filter(|&i| Strategy::is_reachable(i, catalog, origin, topology))
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
                let p = old_group_prob(priors, &spec.name, &labels);
                let item = RetrievalItem::new(
                    spec.name.to_string(),
                    Cost::from_bytes(Strategy::effective_cost(idx, catalog, origin, topology)),
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

/// The whole of the old `next_request`: the baselines' order never
/// changed, so they go through the code the planner still runs.
#[allow(clippy::too_many_arguments)]
fn old_next_request(
    strategy: Strategy,
    query: &QueryState,
    candidates: &[usize],
    catalog: &Catalog,
    origin: NodeId,
    topology: &Topology,
    now: SimTime,
    channel: Channel,
    priors: &Priors<'_>,
) -> Option<(usize, Label)> {
    if strategy.is_decision_driven() {
        old_next_decision_driven(
            query, candidates, catalog, origin, topology, now, channel, priors,
        )
    } else {
        strategy.next_baseline(query, candidates, catalog, origin, topology, now)
    }
}

/// SplitMix64: the generator below needs dependent draws (a link to take
/// down must exist, a label value must name a label of the universe).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// One planning instance: everything `candidates` and `next_request` read.
struct Case {
    catalog: Catalog,
    topology: Topology,
    origin: NodeId,
    query: QueryState,
    now: SimTime,
    channel: Channel,
    fixed: f64,
    learned: AdaptiveState,
}

/// A random instance: multi-label objects (a label may repeat within one),
/// several providers per label at a handful of sizes so costs tie, a label
/// nobody provides, a random connected topology with — half the time —
/// crashed nodes and downed links, an expression with negated literals and
/// the occasional constant-true term, evidence that is partly fresh and
/// partly expired, and an adaptive state that has seen some outcomes.
fn case(seed: u64) -> Case {
    let mut r = Rng(seed);
    let nodes = 2 + r.below(7);
    let mut topology = Topology::random_connected(nodes, r.below(4), r.next());
    if r.one_in(2) {
        for _ in 0..r.below(3) {
            topology.set_node_enabled(NodeId(r.below(nodes)), false);
        }
        for _ in 0..r.below(3) {
            let a = NodeId(r.below(nodes));
            let neighbors: Vec<NodeId> = topology.neighbors(a).collect();
            topology.set_link_enabled(a, r.pick(&neighbors), false);
        }
        topology.ensure_routes();
    }

    let universe: Vec<Label> = (0..3 + r.below(8))
        .map(|i| Label::new(format!("l{i}")))
        .collect();
    let mut catalog = Catalog::new();
    for i in 0..r.below(14) {
        // The last label of the universe is never provided.
        let covers = (0..1 + r.below(3))
            .map(|_| universe[r.below(universe.len() - 1)].clone())
            .collect();
        let odd = 1 + r.next() % 900_000;
        let size = r.pick(&[100_000, 200_000, 200_000, 350_000, odd]);
        catalog.add(ObjectSpec {
            name: format!("/city/seg/{}/cam/n{i}", r.below(3))
                .parse()
                .unwrap(),
            covers,
            size,
            source: NodeId(r.below(nodes)),
            class: DynamicsClass::Slow,
            validity: SimDuration::from_secs(r.pick(&[5, 30, 600, 600])),
        });
    }

    let mut terms = Vec::new();
    for _ in 0..1 + r.below(4) {
        if r.one_in(12) {
            terms.push(Term::empty());
            continue;
        }
        let literals = (0..1 + r.below(4))
            .map(|_| {
                let label = universe[r.below(universe.len())].clone();
                if r.one_in(4) {
                    Literal::negative(label)
                } else {
                    Literal::positive(label)
                }
            })
            .collect();
        // A contradictory draw (`a ∧ !a`) is no term at all.
        terms.extend(Term::try_from_literals(literals));
    }
    let issued = SimTime::from_secs(100);
    let mut query = QueryState::new(
        QueryId(1),
        Dnf::from_terms(terms),
        issued,
        SimDuration::from_secs(r.pick(&[2, 60, 120])),
    );
    let now = issued + SimDuration::from_secs(r.below(50) as u64);
    for label in &universe {
        if r.one_in(2) {
            let sampled = now - SimDuration::from_secs(r.below(100) as u64);
            let validity = SimDuration::from_secs(r.pick(&[10, 50, 1000]));
            query.record_label(label, r.one_in(2), sampled, validity);
        }
    }

    let mut learned = AdaptiveState::new(AdaptiveConfig::default(), 0.8);
    for _ in 0..r.below(12) {
        let prefix = format!("/city/seg/{}", r.below(3));
        let label = universe[r.below(universe.len())].clone();
        learned.truth.observe(&prefix, &label, r.one_in(2));
    }
    for _ in 0..r.below(12) {
        learned
            .reliability
            .observe(r.below(nodes) as u32, r.one_in(3));
    }
    let odd = (r.next() % 1001) as f64 / 1000.0;
    Case {
        catalog,
        origin: NodeId(r.below(nodes)),
        topology,
        query,
        now,
        channel: Channel::new(r.pick(&[100_000, 1_000_000, 10_000_000])),
        fixed: r.pick(&[0.0, 0.5, 0.8, 1.0, odd]),
        learned,
    }
}

/// Holds both entry points of the index planner to the old one on `c`,
/// for all five strategies, under fixed and learned priors, over the
/// strategy's own candidates and over every provider (the pool in which
/// reachability and reliability actually get to choose).
fn check(c: &Case) -> Result<(), TestCaseError> {
    let labels = c.query.expr.labels();
    let everything = Strategy::Comprehensive.candidates(&labels, &c.catalog, c.origin, &c.topology);
    for strategy in Strategy::ALL {
        let chosen = strategy.candidates(&labels, &c.catalog, c.origin, &c.topology);
        prop_assert_eq!(
            &chosen,
            &old_candidates(strategy, &labels, &c.catalog, c.origin, &c.topology),
            "{} candidates",
            strategy
        );
        for candidates in [&chosen, &everything] {
            let plan = strategy.plan(
                &c.query.expr,
                labels.clone(),
                candidates.clone(),
                &c.catalog,
            );
            for priors in [Priors::Fixed(c.fixed), Priors::Learned(&c.learned)] {
                let (q, cat, at, topo) = (&c.query, &c.catalog, c.origin, &c.topology);
                let old = old_next_request(
                    strategy, q, candidates, cat, at, topo, c.now, c.channel, &priors,
                );
                prop_assert_eq!(
                    &strategy.next_request(q, candidates, cat, at, topo, c.now, c.channel, &priors),
                    &old,
                    "{} next_request under {:?}",
                    strategy,
                    priors
                );
                prop_assert_eq!(
                    &strategy.next_from_plan(q, &plan, cat, at, topo, c.now, c.channel, &priors),
                    &old,
                    "{} next_from_plan under {:?}",
                    strategy,
                    priors
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn index_planner_matches_the_old_one(seed in any::<u64>()) {
        check(&case(seed))?;
    }
}

/// More labels than one mask word holds: 130 of them in three wide terms,
/// each provided by a window camera and by a dearer single-label one.
#[test]
fn index_planner_matches_the_old_one_past_64_labels() {
    let names: Vec<String> = (0..130).map(|i| format!("seg{i:03}")).collect();
    let mut catalog = Catalog::new();
    let spec = |name: String, covers: &[String], size, node| ObjectSpec {
        name: name.parse().unwrap(),
        covers: covers.iter().map(Label::new).collect(),
        size,
        source: NodeId(node),
        class: DynamicsClass::Slow,
        validity: SimDuration::from_secs(600),
    };
    for i in 0..130 {
        let window = &names[i..(i + 3).min(130)];
        catalog.add(spec(
            format!("/wide/{i}"),
            window,
            300_000 + (i as u64 % 7) * 1_000,
            i % 5,
        ));
        catalog.add(spec(
            format!("/single/{i}"),
            &names[i..=i],
            150_000,
            (i + 2) % 5,
        ));
    }
    let terms = names
        .chunks(50)
        .map(|c| Term::all_of(c.iter().map(String::as_str)));
    let mut query = QueryState::new(
        QueryId(1),
        Dnf::from_terms(terms.collect()),
        SimTime::ZERO,
        SimDuration::from_secs(3600),
    );
    for name in names.iter().step_by(3) {
        query.record_label(
            &Label::new(name),
            true,
            SimTime::ZERO,
            SimDuration::from_secs(600),
        );
    }
    let c = Case {
        catalog,
        topology: Topology::line(5, LinkSpec::mbps1()),
        origin: NodeId(1),
        query,
        now: SimTime::from_secs(1),
        channel: Channel::mbps1(),
        fixed: 0.8,
        learned: AdaptiveState::new(AdaptiveConfig::default(), 0.8),
    };
    check(&c).unwrap();
    // The cover really is wider than a word, and something is planned.
    let labels = c.query.expr.labels();
    let chosen = Strategy::Lvf.candidates(&labels, &c.catalog, c.origin, &c.topology);
    assert!(chosen.len() > 40, "{}", chosen.len());
    assert!(Strategy::Lvf
        .next_request(
            &c.query,
            &chosen,
            &c.catalog,
            c.origin,
            &c.topology,
            c.now,
            c.channel,
            &Priors::Fixed(0.8),
        )
        .is_some());
}
