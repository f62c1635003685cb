//! Per-query state at the originating node (§VI-A).
//!
//! A query is *decided* the moment its DNF evaluates to true (some course of
//! action fully supported by fresh evidence) or false (every course of
//! action ruled out). It is *missed* if its deadline passes first. Because
//! evaluation reads label values through their validity windows, previously
//! resolved labels expire back to unknown and can reopen the decision — the
//! refetch churn the baselines suffer from in Fig. 2.

use crate::msg::QueryId;
use dde_logic::dnf::{Dnf, Resolution, Term};
use dde_logic::label::{Label, LabelValue};
use dde_logic::time::{SimDuration, SimTime};
use dde_logic::truth::Truth;
use dde_naming::name::Name;
use std::collections::BTreeSet;

/// The decided outcome of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The indexed course of action is viable.
    Viable(usize),
    /// No course of action is viable.
    Infeasible,
}

/// Lifecycle of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Awaiting evidence.
    Pending,
    /// Decided before the deadline.
    Decided {
        /// What was decided.
        outcome: QueryOutcome,
        /// When.
        at: SimTime,
    },
    /// Deadline passed while undecided.
    Missed,
}

impl QueryStatus {
    /// Whether the query reached a terminal state.
    pub fn is_final(self) -> bool {
        !matches!(self, QueryStatus::Pending)
    }
}

/// An in-flight fetch on behalf of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Outstanding {
    /// The requested object.
    pub name: Name,
    /// The labels it was requested for (a panorama fetch resolves several).
    pub wanted: Vec<Label>,
    /// When the request was issued.
    pub sent_at: SimTime,
}

/// Counters accumulated per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Fetch requests issued into the network.
    pub requests_sent: u64,
    /// Labels learned by annotating delivered evidence.
    pub labels_from_data: u64,
    /// Labels learned from shared label values.
    pub labels_from_shares: u64,
    /// Labels learned by sampling a co-located sensor.
    pub labels_from_local: u64,
    /// Times a previously known label expired while still needed.
    pub label_expiries: u64,
}

/// The originating node's state for one decision query.
///
/// The evidence is kept by *label id*: a label's id is its position in the
/// expression's sorted label list ([`QueryState::labels`]), the id space
/// the planner's [`PlanTable`](crate::strategy::PlanTable) indexes too.
/// Evaluating the expression, asking whether a label is still wanted and
/// planning the next fetch read one slot of a vector instead of a
/// string-keyed map.
#[derive(Debug, Clone)]
pub struct QueryState {
    /// Query id.
    pub id: QueryId,
    /// The decision logic. Fixed for the query's life: the label ids, the
    /// term lists and the verdict memo in [`QueryState::check`] are derived
    /// from it once, at construction.
    pub expr: Dnf,
    /// When the query was issued.
    pub issued_at: SimTime,
    /// Absolute deadline.
    pub deadline_at: SimTime,
    /// The expression's labels, sorted and distinct; a label's position is
    /// its id.
    labels: Vec<Label>,
    /// Each term's literals as `(label id, negated)`, ascending by id, in
    /// the expression's term order.
    terms: Vec<Vec<(usize, bool)>>,
    /// The evidence gathered so far (fresh or lapsed), by label id.
    /// Private so that every write passes through
    /// [`QueryState::record_label`] or [`QueryState::forget_label`], which
    /// drop the verdict memo whenever they change a value.
    values: Vec<Option<LabelValue>>,
    /// Lifecycle status.
    pub status: QueryStatus,
    /// At most one in-flight fetch at a time (sequential retrieval, §III-A).
    pub outstanding: Option<Outstanding>,
    /// Accumulated counters.
    pub counters: QueryCounters,
    /// `Some((since, through))`: the last evaluation, at `since`, found the
    /// decision undecided, and no recorded label lapses before `through`
    /// (inclusive, as in [`LabelValue::is_fresh_at`]). Every label reads the
    /// same at any instant in between, so the verdict stands until the
    /// evidence is touched.
    ///
    /// [`LabelValue::is_fresh_at`]: dde_logic::label::LabelValue::is_fresh_at
    undecided: Option<(SimTime, SimTime)>,
}

impl QueryState {
    /// Creates a pending query issued at `issued_at` with relative
    /// `deadline`.
    pub fn new(id: QueryId, expr: Dnf, issued_at: SimTime, deadline: SimDuration) -> QueryState {
        let mut labels: Vec<Label> = expr
            .terms()
            .iter()
            .flat_map(Term::labels)
            .copied()
            .collect();
        labels.sort_unstable();
        labels.dedup();
        // `labels` holds every label of these very terms: every literal has
        // an id, and `filter_map` drops nothing.
        let terms = expr
            .terms()
            .iter()
            .map(|t| {
                t.literals()
                    .filter_map(|lit| Some((position(&labels, lit.label())?, lit.is_negated())))
                    .collect()
            })
            .collect();
        QueryState {
            id,
            expr,
            issued_at,
            deadline_at: issued_at + deadline,
            values: vec![None; labels.len()],
            labels,
            terms,
            status: QueryStatus::Pending,
            outstanding: None,
            counters: QueryCounters::default(),
            undecided: None,
        }
    }

    /// The expression's labels, sorted; a label's position is its id.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Each term's literals as `(label id, negated)`, ascending by id, in
    /// the expression's term order.
    pub fn terms(&self) -> &[Vec<(usize, bool)>] {
        &self.terms
    }

    /// The id of `label` (its position in [`QueryState::labels`]), or
    /// `None` if the expression does not mention it.
    pub fn label_id(&self, label: &Label) -> Option<usize> {
        position(&self.labels, label)
    }

    /// The truth of label `id` at `now`: [`Truth::Unknown`] when nothing is
    /// recorded or the recorded value has lapsed.
    pub fn value_of(&self, id: usize, now: SimTime) -> Truth {
        match &self.values[id] {
            Some(v) if v.is_fresh_at(now) => v.value,
            _ => Truth::Unknown,
        }
    }

    /// The truth of `label` at `now`; [`Truth::Unknown`] for a label the
    /// expression does not mention.
    pub fn value_at(&self, label: &Label, now: SimTime) -> Truth {
        self.label_id(label)
            .map_or(Truth::Unknown, |id| self.value_of(id, now))
    }

    /// The evidence gathered so far (fresh or lapsed), in label order.
    pub fn evidence(&self) -> impl Iterator<Item = (&Label, &LabelValue)> {
        self.labels
            .iter()
            .zip(&self.values)
            .filter_map(|(l, v)| Some((l, v.as_ref()?)))
    }

    /// The Kleene conjunction of one of [`QueryState::terms`] at `now`.
    pub fn term_value(&self, term: &[(usize, bool)], now: SimTime) -> Truth {
        let mut acc = Truth::True;
        for &(id, negated) in term {
            let v = self.value_of(id, now);
            acc = acc.and(if negated { v.negate() } else { v });
            if acc == Truth::False {
                break;
            }
        }
        acc
    }

    /// Records a resolved label value and clears the outstanding fetch if it
    /// was waiting on this label. Does not itself re-check resolution — call
    /// [`QueryState::check`] after a batch of updates.
    ///
    /// A label the expression does not mention is ignored: it could never
    /// affect the verdict, and keeping it would only shorten the instant
    /// through which a remembered verdict holds.
    pub fn record_label(
        &mut self,
        label: &Label,
        value: bool,
        sampled_at: SimTime,
        validity: SimDuration,
    ) {
        let Some(id) = self.label_id(label) else {
            return;
        };
        self.values[id] = Some(LabelValue::new(Truth::from(value), sampled_at, validity));
        self.undecided = None;
        if let Some(o) = &mut self.outstanding {
            o.wanted.retain(|l| l != label);
            if o.wanted.is_empty() {
                self.outstanding = None;
            }
        }
    }

    /// Drops the recorded value of `label`, returning it if present — the
    /// bookkeeping step before a lapsed label is fetched again.
    pub fn forget_label(&mut self, label: &Label) -> Option<LabelValue> {
        let id = self.label_id(label)?;
        let forgotten = self.values[id].take();
        if forgotten.is_some() {
            self.undecided = None;
        }
        forgotten
    }

    /// Re-evaluates the decision at `now`, transitioning to `Decided` or (at
    /// or past the deadline) `Missed`. Terminal states are sticky.
    ///
    /// An undecided verdict is remembered with the instant through which it
    /// holds (§III-A: a decision can only change when evidence arrives or a
    /// label's validity interval ends), so polling in between costs a few
    /// comparisons rather than a walk of the expression.
    pub fn check(&mut self, now: SimTime) -> QueryStatus {
        if self.status.is_final() {
            return self.status;
        }
        let memo_holds = self
            .undecided
            .is_some_and(|(since, through)| since <= now && now <= through);
        let resolution = if memo_holds {
            Resolution::Undecided
        } else {
            self.resolution(now)
        };
        match resolution {
            Resolution::Viable(i) if now <= self.deadline_at => {
                self.status = QueryStatus::Decided {
                    outcome: QueryOutcome::Viable(i),
                    at: now,
                };
            }
            Resolution::Infeasible if now <= self.deadline_at => {
                self.status = QueryStatus::Decided {
                    outcome: QueryOutcome::Infeasible,
                    at: now,
                };
            }
            _ if now >= self.deadline_at => {
                self.status = QueryStatus::Missed;
            }
            Resolution::Undecided if !memo_holds => {
                // The earliest lapse among the values fresh now.
                let through = self
                    .values
                    .iter()
                    .flatten()
                    .filter(|v| v.is_fresh_at(now))
                    .map(LabelValue::expires_at)
                    .min()
                    .unwrap_or(SimTime::MAX);
                self.undecided = Some((now, through));
            }
            _ => {}
        }
        self.status
    }

    /// The undecided verdict [`QueryState::check`] remembers, as
    /// `(since, through)`: found at `since`, and holding at every instant
    /// up to `through` — the earliest lapse of a value fresh at `since` —
    /// until the evidence is next touched.
    pub fn undecided_memo(&self) -> Option<(SimTime, SimTime)> {
        self.undecided
    }

    /// [`Dnf::resolution`] of the expression over the evidence at `now`,
    /// walked by label id.
    fn resolution(&self, now: SimTime) -> Resolution {
        let mut any_unknown = false;
        for (i, term) in self.terms.iter().enumerate() {
            match self.term_value(term, now) {
                Truth::True => return Resolution::Viable(i),
                Truth::Unknown => any_unknown = true,
                Truth::False => {}
            }
        }
        if any_unknown {
            Resolution::Undecided
        } else {
            Resolution::Infeasible
        }
    }

    /// Labels that can still influence the outcome at `now` (short-circuit
    /// pruning, §II-A).
    pub fn relevant_labels(&self, now: SimTime) -> BTreeSet<Label> {
        let mut out = BTreeSet::new();
        for term in &self.terms {
            match self.term_value(term, now) {
                Truth::True => return BTreeSet::new(),
                Truth::False => {}
                Truth::Unknown => out.extend(
                    term.iter()
                        .filter(|&&(id, _)| !self.value_of(id, now).is_known())
                        .map(|&(id, _)| self.labels[id]),
                ),
            }
        }
        out
    }

    /// All labels of the expression still unknown (or expired) at `now` —
    /// what a *non*-decision-driven baseline keeps chasing.
    pub fn unknown_labels(&self, now: SimTime) -> BTreeSet<Label> {
        (0..self.labels.len())
            .filter(|&id| !self.value_of(id, now).is_known())
            .map(|id| self.labels[id])
            .collect()
    }

    /// Whether the outstanding fetch (if any) has been pending longer than
    /// `timeout`.
    pub fn outstanding_timed_out(&self, now: SimTime, timeout: SimDuration) -> bool {
        self.outstanding
            .as_ref()
            .is_some_and(|o| now.saturating_since(o.sent_at) > timeout)
    }

    /// Time from issue to decision, if decided.
    pub fn resolution_latency(&self) -> Option<SimDuration> {
        match self.status {
            QueryStatus::Decided { at, .. } => Some(at.saturating_since(self.issued_at)),
            _ => None,
        }
    }
}

/// The position of `label` in `labels`. The list is in label order,
/// because term and literal order decide planner ties, but finding a label
/// needs only identity: an id compare reads no rank snapshot.
fn position(labels: &[Label], label: &Label) -> Option<usize> {
    labels.iter().position(|l| l == label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_logic::dnf::Term;

    fn route_query() -> QueryState {
        QueryState::new(
            QueryId(1),
            Dnf::from_terms(vec![Term::all_of(["a", "b"]), Term::all_of(["c"])]),
            SimTime::from_secs(10),
            SimDuration::from_secs(60),
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn decides_viable_on_complete_term() {
        let mut q = route_query();
        q.record_label(&Label::new("a"), true, t(12), d(100));
        assert_eq!(q.check(t(12)), QueryStatus::Pending);
        q.record_label(&Label::new("b"), true, t(14), d(100));
        let status = q.check(t(14));
        assert_eq!(
            status,
            QueryStatus::Decided {
                outcome: QueryOutcome::Viable(0),
                at: t(14)
            }
        );
        assert_eq!(q.resolution_latency(), Some(d(4)));
    }

    #[test]
    fn decides_infeasible_when_all_terms_dead() {
        let mut q = route_query();
        q.record_label(&Label::new("a"), false, t(11), d(100));
        q.record_label(&Label::new("c"), false, t(12), d(100));
        assert_eq!(
            q.check(t(12)),
            QueryStatus::Decided {
                outcome: QueryOutcome::Infeasible,
                at: t(12)
            }
        );
    }

    #[test]
    fn misses_deadline() {
        let mut q = route_query();
        assert_eq!(q.check(t(69)), QueryStatus::Pending);
        assert_eq!(q.check(t(70)), QueryStatus::Missed);
        // Sticky: late evidence does not revive it.
        q.record_label(&Label::new("c"), true, t(71), d(100));
        assert_eq!(q.check(t(71)), QueryStatus::Missed);
        assert!(q.resolution_latency().is_none());
    }

    #[test]
    fn terminal_states_sticky() {
        let mut q = route_query();
        q.record_label(&Label::new("c"), true, t(12), d(100));
        let decided = q.check(t(12));
        assert!(decided.is_final());
        // Even past deadline, stays Decided.
        assert_eq!(q.check(t(100)), decided);
    }

    #[test]
    fn expiry_reopens_pending_decision() {
        let mut q = route_query();
        // c true but with tiny validity: decided now...
        q.record_label(&Label::new("c"), true, t(12), d(2));
        assert!(matches!(q.check(t(12)), QueryStatus::Decided { .. }));
        // ...but had we not checked until expiry, it would still be pending.
        let mut q2 = route_query();
        q2.record_label(&Label::new("c"), true, t(12), d(2));
        assert_eq!(q2.check(t(20)), QueryStatus::Pending);
        assert!(q2.unknown_labels(t(20)).contains("c"));
    }

    #[test]
    fn relevant_labels_prune_dead_terms() {
        let mut q = route_query();
        q.record_label(&Label::new("a"), false, t(11), d(100));
        let rel = q.relevant_labels(t(11));
        assert_eq!(rel.len(), 1);
        assert!(rel.contains("c"));
        // Baseline view chases b too (it ignores decision structure).
        let unknown = q.unknown_labels(t(11));
        assert_eq!(unknown.len(), 2);
        assert!(unknown.contains("b"));
    }

    #[test]
    fn record_label_clears_matching_outstanding() {
        let mut q = route_query();
        q.outstanding = Some(Outstanding {
            name: "/cam/x".parse().unwrap(),
            wanted: vec![Label::new("a"), Label::new("c")],
            sent_at: t(11),
        });
        q.record_label(&Label::new("b"), true, t(12), d(100));
        assert!(q.outstanding.is_some(), "unrelated label keeps it");
        q.record_label(&Label::new("a"), true, t(13), d(100));
        assert!(
            q.outstanding.is_some(),
            "partially-satisfied multi-label fetch stays outstanding"
        );
        q.record_label(&Label::new("c"), true, t(13), d(100));
        assert!(q.outstanding.is_none());
    }

    #[test]
    fn a_label_outside_the_expression_is_not_recorded() {
        let mut q = route_query();
        q.record_label(&Label::new("a"), true, t(11), d(100));
        assert_eq!(q.check(t(11)), QueryStatus::Pending);
        let remembered = q.undecided_memo();
        assert_eq!(remembered, Some((t(11), t(111))));
        // A short-lived foreign value would have pulled the bound in to 12 s.
        q.record_label(&Label::new("zebra"), true, t(11), d(1));
        assert_eq!(q.undecided_memo(), remembered, "the memo is untouched");
        assert_eq!(q.evidence().count(), 1);
        assert_eq!(q.value_at(&Label::new("zebra"), t(11)), Truth::Unknown);
        assert_eq!(q.forget_label(&Label::new("zebra")), None);
        assert_eq!(q.check(t(13)), QueryStatus::Pending);
        assert_eq!(
            q.undecided_memo(),
            remembered,
            "still answered from the memo"
        );
    }

    #[test]
    fn outstanding_timeout() {
        let mut q = route_query();
        assert!(!q.outstanding_timed_out(t(100), d(5)));
        q.outstanding = Some(Outstanding {
            name: "/cam/x".parse().unwrap(),
            wanted: vec![Label::new("a")],
            sent_at: t(20),
        });
        assert!(!q.outstanding_timed_out(t(24), d(5)));
        assert!(q.outstanding_timed_out(t(26), d(5)));
    }

    #[test]
    fn decision_exactly_at_deadline_counts() {
        let mut q = route_query();
        q.record_label(&Label::new("c"), true, t(70), d(100));
        assert!(matches!(q.check(t(70)), QueryStatus::Decided { .. }));
    }
}
