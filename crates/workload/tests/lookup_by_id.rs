//! Lookups by interned id agree with lookups by string.
//!
//! `Catalog`, `WorldModel` and `QueryState` find labels and names by their
//! interned ids, which the process hands out in first-seen order. This test
//! interns every label and name component in reverse string order, so that
//! id order and string order disagree, and checks each id lookup against
//! an answer computed from the strings: at once, after a chain of interning
//! forces both tables to re-spread their ranks, and from a second thread
//! whose view of the tables is stale.

use dde_core::msg::QueryId;
use dde_core::query::QueryState;
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_naming::name::Name;
use dde_naming::symbol::intern;
use dde_netsim::topology::NodeId;
use dde_workload::catalog::{Catalog, ObjectSpec};
use dde_workload::world::{DynamicsClass, WorldModel};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

const SEED: u64 = 0x5eed;
const LABELS: usize = 24;
const OBJECTS: usize = 16;

/// The world's value formula as it was when it hashed the label's string
/// on every call: the oracle `WorldModel::value` must still match.
fn stable_hash(seed: u64, label: &str, epoch: u64) -> u64 {
    let mut h = Splitmix(seed ^ 0x9e37_79b9_7f4a_7c15);
    label.hash(&mut h);
    epoch.hash(&mut h);
    h.finish()
}

struct Splitmix(u64);

impl Hasher for Splitmix {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self
                .0
                .wrapping_add(b as u64)
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            self.0 = z ^ (z >> 31);
        }
    }
}

/// Everything under test, with the strings each answer is computed from.
struct Fixture {
    labels: Vec<Label>,
    names: Vec<Name>,
    catalog: Catalog,
    world: WorldModel,
    query: QueryState,
    /// The labels each object covers, as strings.
    covers: Vec<Vec<&'static str>>,
    /// Each label's validity in seconds and probability of being true.
    dynamics: BTreeMap<&'static str, (u64, f64)>,
    /// The labels the query mentions, in string order.
    mentioned: Vec<&'static str>,
}

fn label_text(i: usize) -> String {
    format!("lookup-by-id/viable/{i:02}")
}

fn component_text(i: usize) -> String {
    format!("lookup-by-id-{i:02}")
}

fn build() -> Fixture {
    // Reverse string order: a later id always names a smaller string.
    let labels: Vec<Label> = (0..LABELS)
        .rev()
        .map(|i| Label::new(label_text(i)))
        .collect();
    let components: Vec<_> = (0..OBJECTS)
        .rev()
        .map(|i| intern(&component_text(i)))
        .collect();
    assert!(labels[0].id() < labels[1].id() && labels[0].as_str() > labels[1].as_str());
    assert!(components[0].id() < components[1].id());
    assert!(components[0].as_str() > components[1].as_str());

    let mut catalog = Catalog::new();
    let mut covers = Vec::new();
    let mut names = Vec::new();
    for (k, component) in components.iter().enumerate() {
        let name = Name::from_components(["lookup-by-id", component.as_str(), "cam"]).unwrap();
        let covered: Vec<Label> = (0..3).map(|j| labels[(k * 5 + j * 7) % LABELS]).collect();
        covers.push(covered.iter().map(Label::as_str).collect());
        catalog.add(ObjectSpec {
            name: name.clone(),
            covers: covered,
            size: 1_000 + (k as u64 * 37) % 5,
            source: NodeId(k),
            class: DynamicsClass::Fast,
            validity: SimDuration::from_secs(60),
        });
        names.push(name);
    }

    let mut world = WorldModel::new(SEED);
    let mut dynamics = BTreeMap::new();
    for (k, l) in labels.iter().enumerate() {
        let (validity, prob) = (3 + k as u64 % 7, [0.2, 0.5, 0.9][k % 3]);
        world.register(
            *l,
            DynamicsClass::Slow,
            SimDuration::from_secs(validity),
            prob,
        );
        dynamics.insert(l.as_str(), (validity, prob));
    }

    // Three terms of three labels; the other fifteen are unmentioned.
    let terms: Vec<Term> = (0..3)
        .map(|t| Term::all_of((t..LABELS).step_by(9).map(|i| labels[i])))
        .collect();
    let mut mentioned: Vec<&str> = (0..3)
        .flat_map(|t| (t..LABELS).step_by(9))
        .map(|i| labels[i].as_str())
        .collect();
    mentioned.sort_unstable();
    let query = QueryState::new(
        QueryId(1),
        Dnf::from_terms(terms),
        SimTime::ZERO,
        SimDuration::from_secs(60),
    );
    Fixture {
        labels,
        names,
        catalog,
        world,
        query,
        covers,
        dynamics,
        mentioned,
    }
}

/// Checks every lookup against the strings.
fn check(f: &Fixture) {
    for l in &f.labels {
        let text = l.as_str();
        let providers: Vec<usize> = (0..OBJECTS)
            .filter(|&k| f.covers[k].contains(&text))
            .collect();
        assert_eq!(f.catalog.providers_of(l), providers, "{text}");
        let cheapest = providers
            .iter()
            .min_by_key(|&&k| (f.catalog.get(k).size, f.names[k].to_string()))
            .map(|&k| f.names[k].to_string());
        assert_eq!(
            f.catalog.cheapest_provider(l).map(|o| o.name.to_string()),
            cheapest
        );

        let (validity, prob) = f.dynamics[text];
        for s in [0, 1, validity - 1, validity, 5 * validity + 2, 1_000] {
            let at = SimTime::from_secs(s);
            let epoch = s / validity;
            let h = stable_hash(SEED, text, epoch);
            let truth = ((h >> 11) as f64 / (1u64 << 53) as f64) < prob;
            assert_eq!(f.world.value(l, at), truth, "{text} at {s} s");
            assert_eq!(
                f.world.epoch_end(l, at),
                SimTime::from_secs((epoch + 1) * validity)
            );
        }
    }
    let mut covered: Vec<&str> = f.covers.iter().flatten().copied().collect();
    covered.sort_unstable();
    covered.dedup();
    let shown: Vec<&str> = f.catalog.covered_labels().map(Label::as_str).collect();
    assert_eq!(shown, covered);
    let registered: Vec<&str> = f.world.iter().map(|(l, _)| l.as_str()).collect();
    let by_string: Vec<&str> = f.dynamics.keys().copied().collect();
    assert_eq!(registered, by_string);

    for (k, name) in f.names.iter().enumerate() {
        let parsed: Name = name.to_string().parse().unwrap();
        assert_eq!(
            f.catalog.by_name(&parsed).map(|o| o.source),
            Some(NodeId(k))
        );
        assert!(f.catalog.by_name(&parsed.child("x").unwrap()).is_none());
        assert!(f.catalog.by_name(&parsed.parent().unwrap()).is_none());
    }

    // The query's ids are positions in string order.
    let mentioned = &f.mentioned;
    let labels: Vec<&str> = f.query.labels().iter().map(Label::as_str).collect();
    assert_eq!(&labels, mentioned);
    for l in &f.labels {
        let by_string = mentioned.iter().position(|m| *m == l.as_str());
        assert_eq!(f.query.label_id(l), by_string, "{}", l.as_str());
    }
    for (term, ids) in f.query.expr.terms().iter().zip(f.query.terms()) {
        let by_string: Vec<usize> = term
            .labels()
            .map(|l| mentioned.iter().position(|m| *m == l.as_str()).unwrap())
            .collect();
        assert!(by_string.is_sorted());
        assert_eq!(ids.iter().map(|&(id, _)| id).collect::<Vec<_>>(), by_string);
    }
}

/// Interns a chain of strings that each sort just above `root` and below
/// the one before, halving one rank gap until the table must re-spread.
fn respread(root: &str, intern: impl Fn(&str)) {
    intern(root);
    intern(&format!("{root}~"));
    let mut link = root.to_owned();
    for _ in 0..130 {
        link.push('a');
        intern(&link);
    }
}

#[test]
fn id_lookups_agree_with_string_lookups() {
    let fixture = build();
    check(&fixture);

    respread("lookup-by-id-chain", |s| {
        Label::new(s);
    });
    respread("lookup-by-id-chain", |s| {
        intern(s);
    });
    check(&fixture);

    std::thread::scope(|scope| {
        scope.spawn(|| check(&fixture)).join().unwrap();
    });
}
