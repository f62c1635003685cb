//! `QueryState::check` walks the expression by label id and remembers an
//! undecided verdict until the evidence is touched or a recorded label
//! lapses. This holds it, step by step, to an oracle that does neither:
//! `Dnf::resolution` over a separately kept `Assignment`, folded into a
//! status by the rules of §VI-A (decided at or before the deadline, missed
//! at or after it, terminal states sticky). The remembered bound is held to
//! `Assignment::earliest_expiry`, and a label the expression does not
//! mention is held to change nothing.

use dde_core::msg::QueryId;
use dde_core::query::{QueryOutcome, QueryState, QueryStatus};
use dde_logic::dnf::{Dnf, Literal, Resolution, Term};
use dde_logic::label::{Assignment, Label, LabelValue};
use dde_logic::time::{SimDuration, SimTime};
use dde_logic::truth::Truth;
use proptest::prelude::*;
use std::collections::BTreeSet;

const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const ISSUED_US: u64 = 1_000_000;
const DEADLINE_US: u64 = 40_000_000;

fn us(t: u64) -> SimTime {
    SimTime::from_micros(t)
}

fn label(i: usize) -> Label {
    Label::new(LABELS[i % LABELS.len()])
}

/// `(a ∧ b) ∨ (c ∧ ¬d) ∨ (b ∧ d)`: labels shared between terms, one negated.
fn expr() -> Dnf {
    let pos = |i| Literal::positive(label(i));
    Dnf::from_terms(vec![
        Term::from_literals(vec![pos(0), pos(1)]),
        Term::from_literals(vec![pos(2), Literal::negative(label(3))]),
        Term::from_literals(vec![pos(1), pos(3)]),
    ])
}

/// The memo-free reference.
struct Oracle {
    expr: Dnf,
    /// The labels `expr` mentions: the only ones it records.
    mentioned: BTreeSet<Label>,
    assignment: Assignment,
    status: QueryStatus,
    deadline_at: SimTime,
}

impl Oracle {
    fn record(&mut self, label: &Label, value: bool, now: SimTime, validity: SimDuration) {
        if self.mentioned.contains(label) {
            self.assignment
                .set(*label, Truth::from(value), now, validity);
        }
    }

    fn check(&mut self, now: SimTime) -> QueryStatus {
        if self.status.is_final() {
            return self.status;
        }
        let by_deadline = now <= self.deadline_at;
        self.status = match self.expr.resolution(&self.assignment, now) {
            Resolution::Viable(i) if by_deadline => QueryStatus::Decided {
                outcome: QueryOutcome::Viable(i),
                at: now,
            },
            Resolution::Infeasible if by_deadline => QueryStatus::Decided {
                outcome: QueryOutcome::Infeasible,
                at: now,
            },
            _ if now >= self.deadline_at => QueryStatus::Missed,
            _ => QueryStatus::Pending,
        };
        self.status
    }
}

fn pair_for(expr: Dnf) -> (QueryState, Oracle) {
    let deadline = SimDuration::from_micros(DEADLINE_US - ISSUED_US);
    let q = QueryState::new(QueryId(7), expr.clone(), us(ISSUED_US), deadline);
    let oracle = Oracle {
        mentioned: expr.labels(),
        expr,
        assignment: Assignment::new(),
        status: QueryStatus::Pending,
        deadline_at: us(DEADLINE_US),
    };
    (q, oracle)
}

fn pair() -> (QueryState, Oracle) {
    pair_for(expr())
}

#[derive(Debug, Clone)]
enum Op {
    /// Record `label = value`, sampled now, valid for `validity_us`.
    Record {
        label: usize,
        value: bool,
        validity_us: u64,
    },
    /// Forget whatever is recorded for `label`.
    Forget { label: usize },
    /// Move the clock by `dt_us` — backwards when `back`, which the
    /// simulator never does but `check` does not forbid.
    Step { dt_us: u64, back: bool },
    /// Jump to the instant the `nth` recorded label lapses, plus `past_us`
    /// (0: the last instant it is fresh; 1: the first instant it is stale).
    ToLapse { nth: usize, past_us: u64 },
    /// Jump to the deadline exactly.
    ToDeadline,
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        (
            0usize..4,
            any::<bool>(),
            prop_oneof![Just(0u64), 1u64..5_000_000, Just(60_000_000u64)]
        )
            .prop_map(|(label, value, validity_us)| Op::Record {
                label,
                value,
                validity_us
            }),
        (0usize..4).prop_map(|label| Op::Forget { label }),
        (0u64..3_000_000, 0u32..8).prop_map(|(dt_us, b)| Op::Step {
            dt_us,
            back: b == 0
        }),
        (0usize..4, 0u64..2).prop_map(|(nth, past_us)| Op::ToLapse { nth, past_us }),
        Just(Op::ToDeadline),
    ]
    .boxed()
}

/// Runs `ops` on a query over `expr` and on its oracle, labels numbered
/// into `universe`. After every operation the two hold the same evidence
/// and reach the same status — twice, since the second call is the one the
/// memo may answer — and a remembered verdict holds through exactly the
/// earliest lapse the oracle's assignment had when it was found.
fn drive(expr: Dnf, universe: &[Label], ops: &[Op]) -> Result<(), TestCaseError> {
    let (mut q, mut oracle) = pair_for(expr);
    let mut now = us(ISSUED_US);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Record {
                label,
                value,
                validity_us,
            } => {
                let label = &universe[label % universe.len()];
                let validity = SimDuration::from_micros(validity_us);
                q.record_label(label, value, now, validity);
                oracle.record(label, value, now, validity);
            }
            Op::Forget { label } => {
                let label = &universe[label % universe.len()];
                prop_assert_eq!(q.forget_label(label), oracle.assignment.clear(label));
            }
            Op::Step { dt_us, back } => {
                now = if back {
                    us(now.as_micros().saturating_sub(dt_us).max(ISSUED_US))
                } else {
                    now + SimDuration::from_micros(dt_us)
                };
            }
            Op::ToLapse { nth, past_us } => {
                let lapses: Vec<SimTime> = oracle
                    .assignment
                    .iter()
                    .map(|(_, v)| v.expires_at())
                    .collect();
                if !lapses.is_empty() {
                    now = lapses[nth % lapses.len()] + SimDuration::from_micros(past_us);
                }
            }
            Op::ToDeadline => now = us(DEADLINE_US),
        }
        let held: Vec<(&Label, &LabelValue)> = q.evidence().collect();
        let kept: Vec<(&Label, &LabelValue)> = oracle.assignment.iter().collect();
        prop_assert_eq!(held, kept, "step {}: {:?}", step, op);
        for _ in 0..2 {
            let got = q.check(now);
            prop_assert_eq!(got, oracle.check(now), "step {} at {}: {:?}", step, now, op);
            prop_assert_eq!(q.status, got);
            if got.is_final() {
                continue;
            }
            let memo = q.undecided_memo();
            prop_assert!(memo.is_some(), "step {}: pending, nothing remembered", step);
            let (since, through) = memo.unwrap_or((now, now));
            prop_assert!(since <= now && now <= through, "step {}: {:?}", step, memo);
            let bound = oracle.assignment.earliest_expiry(since);
            prop_assert_eq!(through, bound.unwrap_or(SimTime::MAX), "step {}", step);
        }
    }
    Ok(())
}

/// SplitMix64, for the dependent draws of a generated case.
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
}

/// A generated expression, the label universe its operations draw from,
/// and the operations. One case in four is wide: every one of 65–140
/// labels is mentioned, in chunked terms, so ids run past one machine
/// word. Terms share labels, a quarter of the literals are negated, one
/// term in ten is empty (constant true), contradictory draws are dropped,
/// and the last one or two labels of the universe are never mentioned.
fn generated(seed: u64) -> (Dnf, Vec<Label>, Vec<Op>) {
    let mut r = Rng(seed);
    let wide = r.one_in(4);
    let mentioned = if wide {
        65 + r.below(76)
    } else {
        2 + r.below(8)
    };
    let universe: Vec<Label> = (0..mentioned + 1 + r.below(2))
        .map(|i| Label::new(format!("l{i:03}")))
        .collect();
    let literal = |r: &mut Rng, id: usize| {
        let label = universe[id];
        if r.one_in(4) {
            Literal::negative(label)
        } else {
            Literal::positive(label)
        }
    };
    let mut terms = Vec::new();
    if wide {
        let chunk = 20 + r.below(40);
        for start in (0..mentioned).step_by(chunk) {
            let ids = start..(start + chunk).min(mentioned);
            terms.push(Term::from_literals(
                ids.map(|id| literal(&mut r, id)).collect(),
            ));
        }
    }
    for _ in 0..1 + r.below(5) {
        if r.one_in(10) {
            terms.push(Term::empty());
            continue;
        }
        let literals = (0..1 + r.below(5))
            .map(|_| {
                let id = r.below(mentioned);
                literal(&mut r, id)
            })
            .collect();
        terms.extend(Term::try_from_literals(literals));
    }
    let ops = (0..1 + r.below(80))
        .map(|_| match r.below(9) {
            0..=3 => Op::Record {
                label: r.below(universe.len()),
                value: !r.one_in(3),
                validity_us: match r.below(3) {
                    0 => 0,
                    1 => 1 + r.next() % 5_000_000,
                    _ => 60_000_000,
                },
            },
            4 => Op::Forget {
                label: r.below(universe.len()),
            },
            5 | 6 => Op::Step {
                dt_us: r.next() % 3_000_000,
                back: r.one_in(8),
            },
            7 => Op::ToLapse {
                nth: r.below(universe.len()),
                past_us: r.next() % 2,
            },
            _ => Op::ToDeadline,
        })
        .collect();
    (Dnf::from_terms(terms), universe, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fixed four-label expression under operations proptest draws.
    #[test]
    fn check_matches_a_memo_free_oracle(ops in prop::collection::vec(op(), 1..60)) {
        let universe: Vec<Label> = (0..LABELS.len()).map(label).collect();
        drive(expr(), &universe, &ops)?;
    }

    /// Generated expressions, wide ones included, with records of labels
    /// the expression does not mention.
    #[test]
    fn check_matches_the_oracle_on_generated_expressions(seed in any::<u64>()) {
        let (expr, universe, ops) = generated(seed);
        drive(expr, &universe, &ops)?;
    }
}

/// The generator does reach what the property above claims to cover.
#[test]
fn generated_cases_cover_wide_empty_negated_and_foreign() {
    let (mut wide, mut empty, mut negated, mut foreign) = (false, false, false, false);
    for seed in 0..64 {
        let (expr, universe, ops) = generated(seed);
        let mentioned = expr.labels();
        wide |= mentioned.len() > 64;
        empty |= expr.terms().iter().any(Term::is_empty);
        negated |= expr
            .terms()
            .iter()
            .any(|t| t.literals().any(|l| l.is_negated()));
        foreign |= ops.iter().any(
            |op| matches!(op, Op::Record { label, .. } if !mentioned.contains(&universe[*label])),
        );
    }
    assert!(wide && empty && negated && foreign);
}

/// The boundary `is_fresh_at` draws — fresh through `expires_at`, stale one
/// microsecond later — seen through a remembered verdict: `a` is recorded,
/// `b` is not, so the query is undecided and stays so across `a`'s lapse;
/// `b` then arrives, and only a fresh `a` may complete the term.
#[test]
fn a_remembered_verdict_respects_the_lapse_instant() {
    for (b_at_us, decided) in [(15_000_000, true), (15_000_001, false)] {
        let (mut q, mut oracle) = pair();
        let five = SimDuration::from_secs(5);
        q.record_label(&label(0), true, us(10_000_000), five);
        oracle
            .assignment
            .set(label(0), Truth::True, us(10_000_000), five);
        for t in [12_000_000, 15_000_000, 15_000_001] {
            if t <= b_at_us {
                assert_eq!(q.check(us(t)), QueryStatus::Pending);
                assert_eq!(oracle.check(us(t)), QueryStatus::Pending);
            }
        }
        q.record_label(&label(1), true, us(b_at_us), five);
        oracle
            .assignment
            .set(label(1), Truth::True, us(b_at_us), five);
        assert_eq!(q.check(us(b_at_us)), oracle.check(us(b_at_us)));
        assert_eq!(q.status.is_final(), decided, "b at {b_at_us}");
    }
}

/// A label re-recorded with a shorter validity replaces the longer one: the
/// verdict remembered under the long validity is not consulted afterwards.
#[test]
fn re_recording_with_a_shorter_validity_is_seen() {
    let (mut q, _) = pair();
    q.record_label(
        &label(0),
        true,
        us(2_000_000),
        SimDuration::from_secs(1_000),
    );
    assert_eq!(q.check(us(2_000_000)), QueryStatus::Pending);
    q.record_label(&label(0), true, us(3_000_000), SimDuration::from_secs(1));
    assert_eq!(q.check(us(3_000_000)), QueryStatus::Pending);
    // `a` lapsed at 4 s; `b` at 5 s finds it stale, so `a ∧ b` stays open.
    q.record_label(&label(1), true, us(5_000_000), SimDuration::from_secs(1));
    assert_eq!(q.check(us(5_000_000)), QueryStatus::Pending);
    assert_eq!(q.value_at(&label(0), us(5_000_000)), Truth::Unknown);
}

/// A verdict is remembered from the instant it was computed, not before it:
/// asked about an earlier instant, at which a since-lapsed label was still
/// fresh, `check` evaluates afresh.
#[test]
fn a_remembered_verdict_does_not_reach_backwards() {
    let (mut q, mut oracle) = pair();
    let hour = SimDuration::from_secs(3_600);
    for (l, at, validity) in [
        (0, 2_000_000, SimDuration::from_secs(1)),
        (1, 5_000_000, hour),
    ] {
        q.record_label(&label(l), true, us(at), validity);
        oracle
            .assignment
            .set(label(l), Truth::True, us(at), validity);
    }
    // At 5 s `a` has lapsed: undecided, and remembered from 5 s on.
    assert_eq!(q.check(us(5_000_000)), QueryStatus::Pending);
    assert_eq!(oracle.check(us(5_000_000)), QueryStatus::Pending);
    // At 2.5 s `a` is fresh (and nothing says `b` is not): `a ∧ b` holds.
    assert_eq!(q.check(us(2_500_000)), oracle.check(us(2_500_000)));
    assert!(q.status.is_final());
}

/// At the deadline itself a completed term still decides; an undecided
/// query — remembered as such from an earlier check — is missed; and
/// neither terminal state moves afterwards.
#[test]
fn the_deadline_instant_and_sticky_terminal_states() {
    let hour = SimDuration::from_secs(3_600);

    let (mut q, _) = pair();
    assert_eq!(q.check(us(DEADLINE_US - 1)), QueryStatus::Pending);
    q.record_label(&label(0), true, us(DEADLINE_US), hour);
    q.record_label(&label(1), true, us(DEADLINE_US), hour);
    let decided = QueryStatus::Decided {
        outcome: QueryOutcome::Viable(0),
        at: us(DEADLINE_US),
    };
    assert_eq!(q.check(us(DEADLINE_US)), decided);
    q.forget_label(&label(0));
    assert_eq!(q.check(us(DEADLINE_US + 1)), decided);

    let (mut q, _) = pair();
    assert_eq!(q.check(us(DEADLINE_US - 1)), QueryStatus::Pending);
    assert_eq!(q.check(us(DEADLINE_US)), QueryStatus::Missed);
    q.record_label(&label(0), true, us(DEADLINE_US), hour);
    q.record_label(&label(1), true, us(DEADLINE_US), hour);
    assert_eq!(q.check(us(DEADLINE_US)), QueryStatus::Missed);
}
