//! Human-readable rendering of retrieval plans.
//!
//! The decision-driven paradigm's pitch is that the *network* understands
//! why data is needed; `explain` makes that visible: it renders a
//! [`DnfPlan`] as its courses of action in evaluation order, each fetch
//! annotated with its truth probability, expected cost, and short-circuit
//! ratio — the quantities §III-A reasons about.

use crate::item::RetrievalItem;
use crate::shortcircuit::{and_truth_prob, expected_and_cost, DnfPlan};
use core::fmt::Write as _;
use core::ops::Range;

/// One course of action's predicted quantities, in plan (evaluation) order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermSummary {
    /// The term's index in the original DNF expression.
    pub term_idx: usize,
    /// Probability the term evaluates true (all conditions hold).
    pub prob_viable: f64,
    /// Expected short-circuited fetch cost of evaluating the term, bytes.
    pub expected_bytes: f64,
}

/// The machine-readable essence of a DNF retrieval plan: the §III-A
/// predicted expected cost the planner committed to, per term and overall.
/// Emitted on `plan` trace records so the `dde-obs` cost ledger can report
/// predicted-vs-actual cost per decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// Courses of action in evaluation order.
    pub terms: Vec<TermSummary>,
    /// Expected total retrieval cost of the whole plan, in bytes.
    pub expected_bytes: f64,
}

impl PlanSummary {
    /// The predicted cost rounded to whole bytes (what trace records carry).
    pub fn expected_bytes_rounded(&self) -> u64 {
        if self.expected_bytes.is_finite() && self.expected_bytes > 0.0 {
            self.expected_bytes.round() as u64
        } else {
            0
        }
    }
}

/// Distills a DNF plan into its predicted quantities.
pub fn summarize_dnf_plan(plan: &DnfPlan) -> PlanSummary {
    let terms = plan
        .terms
        .iter()
        .map(|(term_idx, items)| TermSummary {
            term_idx: *term_idx,
            prob_viable: and_truth_prob(items),
            expected_bytes: expected_and_cost(items),
        })
        .collect();
    PlanSummary {
        terms,
        expected_bytes: plan.expected_cost(),
    }
}

/// Renders a DNF retrieval plan: the candidate courses of action in
/// evaluation order, each with its internally ordered fetches.
///
/// A label shared by several courses of action repeats its fetch line, so
/// each distinct line is rendered once and copied thereafter; everything
/// but the floats is written without the formatter.
pub fn explain_dnf_plan(plan: &DnfPlan) -> String {
    let mut out = String::new();
    // Fetch lines rendered so far: the item, and where its line sits in
    // `out`. The line reads the label, the cost and the probability (the
    // ratio derives from the last two); the probability compares by bits,
    // because `-0.0 == 0.0` yet they print differently.
    let mut rendered: Vec<(&RetrievalItem, Range<usize>)> = Vec::new();
    let mut reach = 1.0;
    for (rank, (term_idx, items)) in plan.terms.iter().enumerate() {
        let p = and_truth_prob(items);
        let e = expected_and_cost(items);
        push_u64(&mut out, rank as u64 + 1);
        out.push_str(". course of action #");
        push_u64(&mut out, *term_idx as u64);
        let _ = writeln!(
            out,
            "  [P(viable)={p:.2}, E[cost]={e:.0} B, P(reached)={reach:.2}]"
        );
        for it in items {
            let seen = rendered.iter().find(|(seen, _)| {
                seen.cost == it.cost
                    && seen.prob_true.value().to_bits() == it.prob_true.value().to_bits()
                    && seen.label == it.label
            });
            if let Some((_, line)) = seen {
                out.extend_from_within(line.clone());
                continue;
            }
            let start = out.len();
            out.push_str("     fetch ");
            out.push_str(it.label.as_str());
            out.push_str("  [");
            push_u64(&mut out, it.cost.as_bytes());
            let _ = writeln!(
                out,
                " B, P(true)={:.2}, (1-p)/C={:.2e}]",
                it.prob_true.value(),
                it.and_shortcircuit_ratio(),
            );
            rendered.push((it, start..out.len()));
        }
        reach *= 1.0 - p;
    }
    let _ = writeln!(out, "expected total: {:.0} B", plan.expected_cost());
    out
}

/// Appends `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // ASCII digits: always valid UTF-8.
    out.push_str(core::str::from_utf8(&buf[pos..]).unwrap_or_default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortcircuit::plan_dnf;
    use dde_logic::dnf::{Dnf, Term};
    use dde_logic::label::Label;
    use dde_logic::meta::{ConditionMeta, Cost, MetaTable, Probability};
    use dde_logic::time::SimDuration;
    use proptest::prelude::*;

    fn meta(entries: &[(&str, u64, f64)]) -> MetaTable {
        entries
            .iter()
            .map(|(l, bytes, p)| {
                (
                    Label::new(*l),
                    ConditionMeta::new(Cost::from_bytes(*bytes), SimDuration::MAX)
                        .with_prob(Probability::clamped(*p)),
                )
            })
            .collect()
    }

    #[test]
    fn dnf_explanation_lists_courses_in_plan_order() {
        let q = Dnf::from_terms(vec![Term::all_of(["x1", "x2"]), Term::all_of(["y1"])]);
        let m = meta(&[
            ("x1", 500_000, 0.2),
            ("x2", 500_000, 0.2),
            ("y1", 100_000, 0.9),
        ]);
        let plan = plan_dnf(&q, &m);
        let text = explain_dnf_plan(&plan);
        // The cheap likely term is ranked first.
        let first = text.lines().next().unwrap();
        assert!(first.contains("course of action #1"), "{first}");
        assert!(text.contains("expected total"));
        assert!(text.contains("fetch y1"));
    }

    #[test]
    fn plan_summary_matches_the_rendered_totals() {
        let q = Dnf::from_terms(vec![Term::all_of(["x1", "x2"]), Term::all_of(["y1"])]);
        let m = meta(&[
            ("x1", 500_000, 0.2),
            ("x2", 500_000, 0.2),
            ("y1", 100_000, 0.9),
        ]);
        let plan = plan_dnf(&q, &m);
        let summary = summarize_dnf_plan(&plan);
        assert_eq!(summary.terms.len(), 2);
        assert!((summary.expected_bytes - plan.expected_cost()).abs() < 1e-9);
        assert_eq!(
            summary.expected_bytes_rounded(),
            plan.expected_cost().round() as u64
        );
        // Plan order: the cheap likely term first, so the first summary
        // entry is the y-term with its own expected cost.
        assert_eq!(summary.terms[0].term_idx, 1);
        assert!(summary.terms[0].prob_viable > 0.8);
    }

    /// The renderer before the line memo, kept as the oracle: every line
    /// through `writeln!`.
    fn explain_oracle(plan: &DnfPlan) -> String {
        let mut out = String::new();
        let mut reach = 1.0;
        for (rank, (term_idx, items)) in plan.terms.iter().enumerate() {
            let p = and_truth_prob(items);
            let e = expected_and_cost(items);
            let _ = writeln!(
                out,
                "{}. course of action #{term_idx}  [P(viable)={p:.2}, E[cost]={e:.0} B, \
                 P(reached)={reach:.2}]",
                rank + 1,
            );
            for it in items {
                let _ = writeln!(
                    out,
                    "     fetch {}  [{} B, P(true)={:.2}, (1-p)/C={:.2e}]",
                    it.label,
                    it.cost.as_bytes(),
                    it.prob_true.value(),
                    it.and_shortcircuit_ratio(),
                );
            }
            reach *= 1.0 - p;
        }
        let _ = writeln!(out, "expected total: {:.0} B", plan.expected_cost());
        out
    }

    /// Random plans over a per-plan pool of items: the pool reuses four
    /// labels (so a label repeats with the same or with other metadata),
    /// probabilities sit on rounding ties and both zeros, costs reach
    /// zero and `u64::MAX`, and terms draw from the pool with repeats.
    fn plans() -> impl Strategy<Value = DnfPlan> {
        let prob = prop_oneof![
            Just(0.125),
            Just(0.005),
            Just(0.995),
            Just(0.0),
            Just(-0.0),
            Just(1.0),
            0.0f64..=1.0,
        ];
        let cost = prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            Just(u64::MAX - 1),
            Just(500_000),
            any::<u64>(),
        ];
        let item = (0usize..4, cost, prob).prop_map(|(l, bytes, p)| {
            RetrievalItem::new(
                ["seg-1-2", "seg-1-3", "x", "cam/7"][l],
                Cost::from_bytes(bytes),
                SimDuration::MAX,
            )
            .with_prob(Probability::clamped(p))
        });
        let term = (0usize..12, prop::collection::vec(0usize..6, 0..5));
        (
            prop::collection::vec(item, 1..6),
            prop::collection::vec(term, 0..7),
        )
            .prop_map(|(pool, terms)| DnfPlan {
                terms: terms
                    .into_iter()
                    .map(|(idx, picks)| {
                        let items = picks.iter().map(|&i| pool[i % pool.len()].clone());
                        (idx, items.collect())
                    })
                    .collect(),
            })
    }

    #[test]
    fn explanation_equals_the_oracle_on_a_paper_shaped_plan() {
        let q = Dnf::from_terms(vec![
            Term::all_of(["a", "b", "c"]),
            Term::all_of(["b", "c", "d"]),
            Term::all_of(["a", "d"]),
        ]);
        let m = meta(&[
            ("a", 450_000, 0.8),
            ("b", 450_000, 0.125),
            ("c", 0, 0.995),
            ("d", u64::MAX, 0.005),
        ]);
        let plan = plan_dnf(&q, &m);
        assert_eq!(explain_dnf_plan(&plan), explain_oracle(&plan));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn explanation_equals_the_oracle(plan in plans()) {
            prop_assert_eq!(explain_dnf_plan(&plan), explain_oracle(&plan));
        }
    }
}
