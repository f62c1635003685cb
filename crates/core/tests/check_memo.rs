//! `QueryState::check` remembers an undecided verdict until the evidence is
//! touched or a recorded label lapses. This holds it, step by step, to an
//! oracle that remembers nothing: `Dnf::resolution` over a separately kept
//! assignment, folded into a status by the rules of §VI-A (decided at or
//! before the deadline, missed at or after it, terminal states sticky).

use dde_core::msg::QueryId;
use dde_core::query::{QueryOutcome, QueryState, QueryStatus};
use dde_logic::dnf::{Dnf, Literal, Resolution, Term};
use dde_logic::label::{Assignment, Label};
use dde_logic::time::{SimDuration, SimTime};
use dde_logic::truth::Truth;
use proptest::prelude::*;

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
    assignment: Assignment,
    status: QueryStatus,
    deadline_at: SimTime,
}

impl Oracle {
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

fn pair() -> (QueryState, Oracle) {
    let deadline = SimDuration::from_micros(DEADLINE_US - ISSUED_US);
    let q = QueryState::new(QueryId(7), expr(), us(ISSUED_US), deadline);
    let oracle = Oracle {
        expr: expr(),
        assignment: Assignment::new(),
        status: QueryStatus::Pending,
        deadline_at: us(DEADLINE_US),
    };
    (q, oracle)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every operation the memoised `check` and the oracle agree, and
    /// so do the two assignments.
    #[test]
    fn check_matches_a_memo_free_oracle(ops in prop::collection::vec(op(), 1..60)) {
        let (mut q, mut oracle) = pair();
        let mut now = us(ISSUED_US);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Record { label: l, value, validity_us } => {
                    let validity = SimDuration::from_micros(validity_us);
                    q.record_label(&label(l), value, now, validity);
                    oracle.assignment.set(label(l), Truth::from(value), now, validity);
                }
                Op::Forget { label: l } => {
                    let forgotten = q.forget_label(&label(l));
                    prop_assert_eq!(forgotten, oracle.assignment.clear(&label(l)));
                }
                Op::Step { dt_us, back } => {
                    now = if back {
                        us(now.as_micros().saturating_sub(dt_us).max(ISSUED_US))
                    } else {
                        now + SimDuration::from_micros(dt_us)
                    };
                }
                Op::ToLapse { nth, past_us } => {
                    let lapses: Vec<SimTime> =
                        oracle.assignment.iter().map(|(_, v)| v.expires_at()).collect();
                    if !lapses.is_empty() {
                        now = lapses[nth % lapses.len()] + SimDuration::from_micros(past_us);
                    }
                }
                Op::ToDeadline => now = us(DEADLINE_US),
            }
            prop_assert_eq!(q.assignment(), &oracle.assignment, "step {}: {:?}", step, op);
            // Twice: the second call is the one the memo may answer.
            for _ in 0..2 {
                let got = q.check(now);
                prop_assert_eq!(got, oracle.check(now), "step {} at {}: {:?}", step, now, op);
                prop_assert_eq!(q.status, got);
            }
        }
    }
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
    assert_eq!(
        q.assignment().value_at(&label(0), us(5_000_000)),
        Truth::Unknown
    );
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
